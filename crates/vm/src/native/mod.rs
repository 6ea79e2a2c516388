//! Native execution backend: the vector IR compiled instead of interpreted.
//!
//! The interpreter in [`crate::exec`] walks the IR op-by-op with closure
//! indirection per row and a scratch copy per elementwise op; worse, on
//! baseline x86-64 (no FMA target feature) every `f64::mul_add` lane is a
//! libm call. This module recovers the performance the paper's generated
//! kernels are supposed to have, in two layers:
//!
//! 1. **Compilation** ([`Plan::compile`]): the verified IR is compiled
//!    once per kernel into fused row programs ([`fuse`]) — per output row
//!    a short accumulator tape over resolved input rows, plus per-block
//!    scratch rows for values several ops read, shifts of computed rows
//!    and partial loads. No register file exists at run time. A kernel
//!    the fuser cannot express is refused with a typed error.
//! 2. **Row backends** ([`RowOps`]): the tapes execute through a
//!    monomorphic backend — a safe portable evaluator (the `Auto` floor on
//!    hosts without SIMD), AVX2+FMA intrinsics behind
//!    `is_x86_feature_detected!`, or NEON on aarch64.
//!
//! Every backend is **bit-identical** to the interpreter: compilation
//! preserves the interpreter's operation order and fusion exactly, and the only
//! rounding-relevant instruction — FMA — is the correctly-rounded IEEE fused
//! multiply-add in all implementations (`f64::mul_add`, `_mm256_fmadd_pd`,
//! and `vfmaq_f64` compute the same value for the same operands). The
//! documented ULP bound for the SIMD backends is therefore **zero**: no FMA
//! contraction is introduced beyond what the interpreter already fuses.
//!
//! # Safety argument
//!
//! The `unsafe` surface is confined to the [`avx2`]/[`neon`] submodules
//! (pointer arithmetic into the input slab and the scratch rows). Its
//! preconditions are discharged *statically* by **brick-safe**
//! ([`safe`]): an abstract-interpretation pass over the fused
//! `RowProg`/`ScratchProg` program that [`Plan::compile`] runs before the plan
//! can reach a dispatcher. Each precondition is a named obligation with a
//! stable `BSxxx` diagnostic code (catalogued in DESIGN.md §13); an
//! unprovable plan is rejected with `VmError::UnsafePlan` carrying the
//! full report. The layers beneath it:
//!
//! * the analyzer's bounds proof ([`brick_lint::prove_bounds`]) — every
//!   register index, lane range, shift distance, and coefficient index is
//!   re-checked against the kernel's declared shape before fusion, and the
//!   footprint pass's load reach bounds every out-of-block access (checked
//!   against ghost/halo coverage by the callers in [`crate::exec`]);
//! * brick-safe's obligations over the fused form (BS001–BS008,
//!   BS011–BS014) — tap, scratch and store rows in bounds for all blocks,
//!   seam shifts in range, tape stack discipline, lane geometry, fast
//!   chains faithful to their tapes, scratch rows written before they are
//!   read — plus the cheap
//!   per-run premise checks in [`crate::exec`] (whole-brick slab with valid
//!   interior adjacency rows; array tap intervals inside the padded slab
//!   via `Plan::check_array_geometry`);
//! * debug-build re-checks of the resolved tap tables in the fused
//!   evaluators ([`fuse::check_taps`]), and a whole-tape check
//!   ([`fuse::check_tape`]) before the row-granularity test entry
//!   evaluates anything.

pub(crate) mod fuse;
mod plan;
pub(crate) mod safe;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

pub use plan::Plan;
pub use safe::SafetySummary;

use crate::exec::VmError;

/// The host's backend pick, named for [`resolve`] and [`resolve_with`].
///
/// A forced executor is a [`Backend`] handed to a `_backend` entry point
/// (e.g. [`crate::run_vector_brick_backend`]), so `Auto` is the only mode.
/// The enum stays because the repo benchmark (`perfbench/`) calls
/// `resolve(ExecutionMode::Auto)` and `resolve_with(ExecutionMode::Auto, ..)`;
/// it goes when that benchmark next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Runtime dispatch: AVX2+FMA when detected, NEON on aarch64,
    /// otherwise the portable compiled backend. Never fails.
    #[default]
    Auto,
}

/// SIMD capabilities of a host, as used by backend resolution.
///
/// A plain value (rather than inline `is_x86_feature_detected!` calls) so
/// resolution is a pure function — the AVX2-unavailable fallback path is
/// testable on any machine by handing [`resolve_with`] a synthetic feature
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuFeatures {
    /// x86-64 AVX2 (256-bit integer/double lanes).
    pub avx2: bool,
    /// x86-64 FMA3 (fused multiply-add).
    pub fma: bool,
    /// aarch64 Advanced SIMD (baseline on aarch64).
    pub neon: bool,
}

impl CpuFeatures {
    /// Detect the running host's features.
    pub fn detect() -> CpuFeatures {
        CpuFeatures {
            #[cfg(target_arch = "x86_64")]
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            fma: std::arch::is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            avx2: false,
            #[cfg(not(target_arch = "x86_64"))]
            fma: false,
            neon: cfg!(target_arch = "aarch64"),
        }
    }
}

impl std::fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for (on, name) in [(self.avx2, "avx2"), (self.fma, "fma"), (self.neon, "neon")] {
            if on {
                if any {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// A concrete executor. The `_backend` entry points take one directly;
/// one this host cannot run is a [`VmError::Unsupported`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The reference interpreter.
    Interpreter,
    /// Compiled plan, portable safe tape evaluator.
    Portable,
    /// Compiled plan, AVX2+FMA tape evaluator.
    Avx2,
    /// Compiled plan, NEON tape evaluator.
    Neon,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Interpreter => "interpreter",
            Backend::Portable => "portable",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        })
    }
}

/// The backend `Auto` picks for a feature set. Pure, so the
/// AVX2-unavailable fallback is testable on any machine; never fails.
pub fn resolve_with(mode: ExecutionMode, features: CpuFeatures) -> Result<Backend, String> {
    let ExecutionMode::Auto = mode;
    Ok(if features.avx2 && features.fma {
        Backend::Avx2
    } else if features.neon {
        Backend::Neon
    } else {
        Backend::Portable
    })
}

/// The backend `Auto` picks on the running host; never fails.
pub fn resolve(mode: ExecutionMode) -> Result<Backend, VmError> {
    resolve_with(mode, CpuFeatures::detect()).map_err(VmError::Unsupported)
}

/// A backend's fused-tape evaluators. The defaults are the safe portable
/// evaluator; the SIMD backends override both entries with in-register
/// tape interpreters behind their own bounds checks.
pub(crate) trait RowOps: Sync {
    /// Evaluate one fused row program ([`fuse::TapeOp`]) over resolved
    /// taps straight from the input slab (and the block's scratch rows)
    /// into an output row.
    ///
    /// The execution pipeline now enters through [`RowOps::eval_block`];
    /// this row-granularity entry is retained for the differential and
    /// micro tests, which exercise single rows against the portable
    /// evaluator.
    #[allow(dead_code)]
    fn eval_row(
        &self,
        tape: &[fuse::TapeOp],
        rtaps: &[fuse::RTap],
        raw: &[f64],
        scr: &[f64],
        w: usize,
        out: &mut [f64],
    ) {
        fuse::eval_row_portable(tape, rtaps, raw, scr, w, out);
    }

    /// Evaluate a fused kernel for one resolved block: every scratch-row
    /// program in order into `scr` (the worker's
    /// `scratch_rows · w`-value buffer), then every output row.
    /// `row_start(rp)` maps a row program to its starting offset in `out`
    /// (brick-local for bricks, slab-relative for arrays). The block
    /// granularity lets SIMD backends validate the tap table once instead
    /// of re-walking each tape per row — the hot path for the compiled
    /// backends.
    #[allow(clippy::too_many_arguments)]
    fn eval_block<F: Fn(&fuse::RowProg) -> usize>(
        &self,
        fused: &fuse::FusedKernel,
        rtaps: &[fuse::RTap],
        raw: &[f64],
        scr: &mut [f64],
        w: usize,
        out: &mut [f64],
        row_start: F,
    ) {
        fuse::run_scratch(fused, rtaps, raw, scr, w, |tape, _, scr, row| {
            fuse::eval_row_portable(tape, rtaps, raw, scr, w, row)
        });
        for rp in fused.rows() {
            let s = row_start(rp);
            fuse::eval_row_portable(&rp.tape, rtaps, raw, scr, w, &mut out[s..s + w]);
        }
    }
}

/// The portable backend: safe Rust, the `Auto` floor on hosts without a
/// SIMD backend. Its evaluator keeps `f64::mul_add` — the
/// correctly-rounded fused operation the interpreter uses — so it stays
/// bit-identical to the oracle even where that costs a libm call.
pub(crate) struct PortableOps;

impl RowOps for PortableOps {}

/// A resolved backend's row ops, constructed only after feature checks.
pub(crate) enum NativeOps {
    /// Safe portable rows.
    Portable(PortableOps),
    /// AVX2+FMA rows (x86-64 with detected support only).
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2Ops),
    /// NEON rows (aarch64 only).
    #[cfg(target_arch = "aarch64")]
    Neon(neon::NeonOps),
}

/// Row ops for a compiled backend. A backend this host cannot run
/// degrades to an error, never a panic.
pub(crate) fn ops_for(backend: Backend) -> Result<NativeOps, VmError> {
    match backend {
        Backend::Interpreter => Err(VmError::Unsupported(
            "interpreter has no native row ops".into(),
        )),
        Backend::Portable => Ok(NativeOps::Portable(PortableOps)),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::Avx2Ops::new().map(NativeOps::Avx2).ok_or_else(|| {
            VmError::Unsupported(format!(
                "backend `avx2` needs avx2+fma, host has {}",
                CpuFeatures::detect()
            ))
        }),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Ok(NativeOps::Neon(neon::NeonOps::new())),
        #[allow(unreachable_patterns)]
        other => Err(VmError::Unsupported(format!(
            "backend `{other}` is not compiled into this host's binary"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_never_fails_and_degrades_without_simd() {
        // the AVX2-unavailable fallback: Auto on a host with no SIMD at all
        let none = CpuFeatures::default();
        assert_eq!(
            resolve_with(ExecutionMode::Auto, none),
            Ok(Backend::Portable)
        );
        // avx2 without fma is not enough for the fused backend
        let avx2_only = CpuFeatures {
            avx2: true,
            ..CpuFeatures::default()
        };
        assert_eq!(
            resolve_with(ExecutionMode::Auto, avx2_only),
            Ok(Backend::Portable)
        );
        let full = CpuFeatures {
            avx2: true,
            fma: true,
            neon: false,
        };
        assert_eq!(resolve_with(ExecutionMode::Auto, full), Ok(Backend::Avx2));
        let arm = CpuFeatures {
            neon: true,
            ..CpuFeatures::default()
        };
        assert_eq!(resolve_with(ExecutionMode::Auto, arm), Ok(Backend::Neon));
    }

    #[test]
    fn feature_display_is_compact() {
        assert_eq!(CpuFeatures::default().to_string(), "(none)");
        let full = CpuFeatures {
            avx2: true,
            fma: true,
            neon: false,
        };
        assert_eq!(full.to_string(), "avx2+fma");
    }
}
