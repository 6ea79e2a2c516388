//! # brick-lint
//!
//! Static kernel verifier and lint pipeline over the vector IR.
//!
//! The code generator (paper §3) is trusted to emit correct blocked
//! stencil kernels; this crate makes that trust machine-checkable.
//! [`analyze`] runs four passes over a [`VectorKernel`] and collects
//! structured diagnostics ([`Report`]) with stable `BLxxx` codes, op-index
//! spans, rustc-style rendering and JSON output:
//!
//! 1. **verifier** ([`verifier`]) — structural dataflow: def-before-use,
//!    register/lane/coefficient bounds, shift distances, store coverage,
//!    and row-coordinate legality against the one-block adjacency reach;
//! 2. **footprint** ([`footprint`]) — abstract interpretation proving each
//!    stored output lane combines exactly the declared stencil's taps with
//!    the declared weights, without executing the kernel;
//! 3. **reuse** ([`reuse`]) — duplicate row loads and redundant shifts the
//!    generator's §3 register-reuse optimization should have eliminated;
//! 4. **liveness** ([`liveness`]) — the register high-water mark, recomputed
//!    from op-level liveness, must not fall below the declared register
//!    count.
//!
//! The analyzer only verifies. What a register count costs (spills,
//! occupancy) depends on each `(GPU, programming model)` compiler, which
//! `gpu-sim` models.
//!
//! Passes 2–4 only run when the verifier finds no errors, so they may
//! assume in-range indices. Each pass runs under a `brick-obs` span
//! (category `lint`) for timing.

pub mod bounds;
pub mod diag;
pub mod footprint;
pub mod liveness;
pub mod reuse;
pub mod verifier;

pub use bounds::{prove_bounds, BoundsProof};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use footprint::{load_reach, ExpectedStencil, Footprint};

use brick_codegen::{VOp, VectorKernel};
use std::hash::{Hash, Hasher};

/// Result of [`analyze`]: the diagnostics plus, when proven, the kernel's
/// memory footprint.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, across passes.
    pub report: Report,
    /// Proven footprint — `None` whenever any pass reported an error.
    pub footprint: Option<Footprint>,
}

impl Analysis {
    /// True if the kernel passed every error-severity check.
    pub fn is_clean(&self) -> bool {
        !self.report.has_errors()
    }
}

/// Run all analyzer passes over `kernel`. `expected` is the declared
/// stencil the footprint pass proves the kernel computes; without one the
/// pass still proves all output lanes agree.
pub fn analyze(kernel: &VectorKernel, expected: Option<&ExpectedStencil>) -> Analysis {
    let _span = brick_obs::span_cat("lint:analyze", "lint");
    let mut report = Report::new(&kernel.name);
    verifier::run(kernel, &mut report);
    let mut fp = None;
    if !report.has_errors() {
        fp = footprint::run(kernel, expected, &mut report);
        reuse::run(kernel, &mut report);
        liveness::run(kernel, &mut report);
    }
    brick_obs::counter_add("lint.kernels_analyzed", 1);
    if report.has_errors() {
        brick_obs::counter_add("lint.kernels_rejected", 1);
    }
    Analysis {
        footprint: if report.has_errors() { None } else { fp },
        report,
    }
}

/// Verify `kernel` is well-formed and self-consistent; the entry point the
/// VM uses before executing anything. Returns the proven footprint (whose
/// `reach` drives ghost-coverage checks) or the full report on failure.
pub fn verify(kernel: &VectorKernel) -> Result<Footprint, Box<Report>> {
    let a = analyze(kernel, None);
    match a.footprint {
        Some(fp) if a.is_clean() => Ok(fp),
        _ => Err(Box::new(a.report)),
    }
}

/// Thread-safe memo of verified kernel fingerprints.
///
/// Sweep runners verify each distinct generated program once and then
/// share the verdict across the whole `(GPU, model, config)` matrix; with
/// the parallel scheduler many cells race to verify the same kernel, so
/// the memo is a mutex-guarded set rather than a `&mut HashMap`.
/// [`check_or_insert`](Self::check_or_insert) is the one atomic step:
/// callers that get `false` own the (idempotent) verification work for
/// that fingerprint.
#[derive(Debug, Default)]
pub struct FingerprintCache {
    seen: std::sync::Mutex<std::collections::HashSet<u64>>,
}

impl FingerprintCache {
    /// An empty memo.
    pub fn new() -> FingerprintCache {
        FingerprintCache::default()
    }

    /// Record `fp` as verified; returns `true` when it was already
    /// present (a cache hit — verification can be skipped).
    pub fn check_or_insert(&self, fp: u64) -> bool {
        !self
            .seen
            .lock()
            .expect("fingerprint memo poisoned")
            .insert(fp)
    }

    /// Number of distinct fingerprints verified so far.
    pub fn len(&self) -> usize {
        self.seen.lock().expect("fingerprint memo poisoned").len()
    }

    /// True when nothing has been verified yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Stable content hash of a kernel, for verification caching: two kernels
/// with equal fingerprints are byte-identical programs.
///
/// The hash is deterministic across processes and runs
/// (`DefaultHasher::new()` uses fixed keys), which lets on-disk result
/// caches key by it.
pub fn fingerprint(kernel: &VectorKernel) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    kernel.name.hash(&mut h);
    kernel.width.hash(&mut h);
    kernel.block.bx.hash(&mut h);
    kernel.block.by.hash(&mut h);
    kernel.block.bz.hash(&mut h);
    kernel.layout.hash(&mut h);
    kernel.strategy.hash(&mut h);
    kernel.temporal_degree.hash(&mut h);
    kernel.num_regs.hash(&mut h);
    for c in &kernel.coeffs {
        c.to_bits().hash(&mut h);
    }
    for op in &kernel.ops {
        match *op {
            VOp::LoadRow {
                dst,
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => (0u8, dst, rx as i16, ry, rz, lane0, lanes).hash(&mut h),
            VOp::ShiftX { dst, src, edge, dx } => (1u8, dst, src, edge, dx).hash(&mut h),
            VOp::Add { dst, a, b } => (2u8, dst, a, b).hash(&mut h),
            VOp::Mul { dst, a, coeff } => (3u8, dst, a, coeff).hash(&mut h),
            VOp::Fma { dst, acc, a, coeff } => (4u8, dst, acc, a, coeff).hash(&mut h),
            VOp::StoreRow { src, ry, rz } => (5u8, src, ry, rz).hash(&mut h),
        }
    }
    h.finish()
}

#[cfg(test)]
pub(crate) mod testkit {
    use brick_codegen::{KernelStats, LayoutKind, Strategy, VOp, VectorKernel};
    use brick_core::BrickDims;

    /// Minimal clean kernel: a 4-lane `out = 2·in` over a 4×1×1 block.
    pub fn tiny_kernel() -> VectorKernel {
        let ops = vec![
            VOp::LoadRow {
                dst: 0,
                rx: 0,
                ry: 0,
                rz: 0,
                lane0: 0,
                lanes: 4,
            },
            VOp::Mul {
                dst: 0,
                a: 0,
                coeff: 0,
            },
            VOp::StoreRow {
                src: 0,
                ry: 0,
                rz: 0,
            },
        ];
        VectorKernel {
            name: "tiny".into(),
            width: 4,
            block: BrickDims::new(4, 1, 1),
            layout: LayoutKind::Brick,
            strategy: Strategy::Gather,
            temporal_degree: 1,
            coeffs: vec![2.0],
            stats: KernelStats::from_ops(&ops, 1),
            ops,
            num_regs: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_kernel;
    use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
    use brick_dsl::shape::StencilShape;

    #[test]
    fn fingerprint_cache_is_hit_after_insert_and_shares_across_threads() {
        let cache = FingerprintCache::new();
        assert!(cache.is_empty());
        let fp = fingerprint(&tiny_kernel());
        assert!(!cache.check_or_insert(fp), "first sight is a miss");
        assert!(cache.check_or_insert(fp), "second sight is a hit");
        assert_eq!(cache.len(), 1);
        // concurrent insertion of many fingerprints loses nothing
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..100u64 {
                        cache.check_or_insert(t ^ i.wrapping_mul(0x9E3779B97F4A7C15));
                    }
                });
            }
        });
        assert!(cache.len() > 1);
        assert!(cache.check_or_insert(fp));
    }

    #[test]
    fn fingerprint_is_stable_across_hasher_instances() {
        let k = tiny_kernel();
        assert_eq!(fingerprint(&k), fingerprint(&k));
    }

    #[test]
    fn paper_suite_verifies_clean_against_declared_stencils() {
        for shape in StencilShape::paper_suite() {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let st = shape.stencil();
                let b = st.default_bindings();
                let k = generate(&st, &b, layout, 16, CodegenOptions::default()).unwrap();
                let expected = ExpectedStencil::resolve(&st, &b).unwrap();
                let a = analyze(&k, Some(&expected));
                assert!(
                    a.is_clean(),
                    "{shape} {layout}:\n{}",
                    a.report.render(Some(&k))
                );
                let fp = a.footprint.unwrap();
                assert_eq!(fp.taps.len(), st.points());
                let r = shape.radius as i64;
                assert_eq!(fp.reach, [r, r, r], "{shape} {layout}");
            }
        }
    }

    #[test]
    fn fused_paper_suite_verifies_clean_against_composed_stencils() {
        // Acceptance criterion: the footprint verifier proves every
        // feasible T-fused paper kernel against the declared T-step
        // composition with zero false positives, and the proven reach is
        // T·r per axis.
        for shape in StencilShape::paper_suite() {
            let max_t = 4 / shape.radius; // T·r ≤ by = bz = 4
            for t in 2..=max_t {
                for layout in [LayoutKind::Brick, LayoutKind::Array] {
                    let st = shape.stencil();
                    let b = st.default_bindings();
                    let k = generate(
                        &st,
                        &b,
                        layout,
                        16,
                        CodegenOptions {
                            temporal_degree: t,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    let expected = ExpectedStencil::resolve_temporal(&st, &b, t).unwrap();
                    let a = analyze(&k, Some(&expected));
                    assert!(
                        a.is_clean(),
                        "{shape} t{t} {layout}:\n{}",
                        a.report.render(Some(&k))
                    );
                    let fp = a.footprint.unwrap();
                    let r = t as i64 * shape.radius as i64;
                    assert_eq!(fp.reach, [r, r, r], "{shape} t{t} {layout}");
                }
            }
        }
    }

    #[test]
    fn all_paper_stencils_generate_and_verify() {
        // the generator's whole option matrix verifies: every paper
        // stencil under each strategy, SIMD width and layout
        for shape in StencilShape::paper_suite() {
            for strategy in [Strategy::Gather, Strategy::Scatter, Strategy::Auto] {
                for width in [16, 32, 64] {
                    for layout in [LayoutKind::Brick, LayoutKind::Array] {
                        let st = shape.stencil();
                        let b = st.default_bindings();
                        let opts = CodegenOptions {
                            strategy,
                            ..Default::default()
                        };
                        let k = generate(&st, &b, layout, width, opts).unwrap();
                        if let Err(r) = verify(&k) {
                            panic!(
                                "{shape} {strategy} w{width} {layout}:\n{}",
                                r.render(Some(&k))
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_paper_kernels_generate_and_verify() {
        for shape in StencilShape::paper_suite() {
            for t in 2..=4 / shape.radius {
                for width in [16, 32, 64] {
                    for layout in [LayoutKind::Brick, LayoutKind::Array] {
                        let st = shape.stencil();
                        let b = st.default_bindings();
                        let opts = CodegenOptions {
                            temporal_degree: t,
                            ..Default::default()
                        };
                        let k = generate(&st, &b, layout, width, opts).unwrap();
                        if let Err(r) = verify(&k) {
                            panic!("{shape} t{t} w{width} {layout}:\n{}", r.render(Some(&k)));
                        }
                        assert_eq!(k.temporal_degree, t);
                        assert!(k.name.ends_with(&format!("_t{t}")), "{}", k.name);
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_rejected_against_wrong_degree() {
        // A T=2 kernel must not verify against the T=1 declaration (and
        // vice versa) — the composition is part of the contract.
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k2 = generate(
            &st,
            &b,
            LayoutKind::Brick,
            16,
            CodegenOptions {
                temporal_degree: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let against_t1 = ExpectedStencil::resolve(&st, &b).unwrap();
        assert!(!analyze(&k2, Some(&against_t1)).is_clean());
        let k1 = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let against_t2 = ExpectedStencil::resolve_temporal(&st, &b, 2).unwrap();
        assert!(!analyze(&k1, Some(&against_t2)).is_clean());
        assert_ne!(fingerprint(&k1), fingerprint(&k2));
    }

    #[test]
    fn verify_accepts_clean_and_rejects_broken() {
        let k = tiny_kernel();
        let fp = verify(&k).unwrap();
        assert_eq!(fp.reach, [0, 0, 0]);

        let mut bad = tiny_kernel();
        bad.ops.pop();
        let report = verify(&bad).unwrap_err();
        assert!(report.has_errors());
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let k = tiny_kernel();
        let same = tiny_kernel();
        assert_eq!(fingerprint(&k), fingerprint(&same));
        let mut coeff = tiny_kernel();
        coeff.coeffs[0] = 2.5;
        assert_ne!(fingerprint(&k), fingerprint(&coeff));
        let mut shifted = tiny_kernel();
        if let VOp::LoadRow { ry, .. } = &mut shifted.ops[0] {
            *ry = 1;
        }
        assert_ne!(fingerprint(&k), fingerprint(&shifted));
    }

    #[test]
    fn analysis_records_obs_counters() {
        let before = brick_obs::metrics::snapshot();
        let count_of = |s: &brick_obs::MetricsSnapshot, name: &str| {
            s.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let base = count_of(&before, "lint.kernels_analyzed");
        analyze(&tiny_kernel(), None);
        let after = brick_obs::metrics::snapshot();
        assert!(count_of(&after, "lint.kernels_analyzed") > base);
    }
}

/// Vector-IR invariants checked end to end through [`verify`], the gate
/// the VM runs before executing a kernel: a hand-built kernel the IR
/// calls clean passes every pass, and a broken one is refused with the
/// verifier's message.
#[cfg(test)]
mod ir {
    mod tests {
        use crate::testkit::tiny_kernel;
        use crate::verify;
        use brick_codegen::{VOp, VectorKernel};

        fn rejection(k: &VectorKernel) -> String {
            verify(k).expect_err("kernel must be rejected").to_string()
        }

        #[test]
        fn tiny_kernel_validates() {
            assert!(verify(&tiny_kernel()).is_ok());
        }

        #[test]
        fn read_before_write_rejected() {
            let mut k = tiny_kernel();
            k.ops.remove(0);
            assert!(rejection(&k).contains("r0 read before any write"));
        }

        #[test]
        fn out_of_range_row_coordinates_rejected() {
            // Block is 4x1x1: legal ry/rz are -1..2 (home row ± one block).
            let mut k = tiny_kernel();
            if let VOp::LoadRow { ry, .. } = &mut k.ops[0] {
                *ry = 2;
            }
            assert!(rejection(&k).contains("ry 2 outside"));
            let mut k = tiny_kernel();
            if let VOp::LoadRow { rz, .. } = &mut k.ops[0] {
                *rz = -2;
            }
            assert!(rejection(&k).contains("rz -2 outside"));
        }

        #[test]
        fn one_block_adjacent_rows_accepted() {
            for (ry, rz) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
                let mut k = tiny_kernel();
                if let VOp::LoadRow { ry: y, rz: z, .. } = &mut k.ops[0] {
                    *y = ry;
                    *z = rz;
                }
                if let Err(r) = verify(&k) {
                    panic!("ry {ry} rz {rz}: {r}");
                }
            }
        }
    }
}
