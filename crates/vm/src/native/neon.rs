//! NEON tape backend (aarch64).
//!
//! Mirrors [`super::avx2`] with 2-lane `float64x2_t` vectors; see that
//! module for the three-layer safety argument (brick-safe compile-time
//! proof, entry-point assertions, feature-gated construction). Width 128
//! takes the portable evaluator. NEON is part of
//! the aarch64 baseline, so detection is trivially true on this
//! architecture. `vfmaq_f64` is the correctly-rounded IEEE-754 fused
//! multiply-add — bit-identical to `f64::mul_add` — so this backend is
//! exact against the interpreter (ULP bound 0).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::{
    float64x2_t, vaddq_f64, vdupq_n_f64, vfmaq_f64, vld1q_f64, vmovq_n_f64, vmulq_f64, vst1q_f64,
};

use super::fuse::{self, RTap, TapeOp, MAX_STACK};
use super::RowOps;

/// NEON rows. On aarch64 the feature is baseline, so construction is
/// infallible there (the type does not exist on other architectures).
pub(crate) struct NeonOps(());

impl NeonOps {
    /// Construct the backend (NEON is baseline on aarch64).
    pub(crate) fn new() -> NeonOps {
        NeonOps(())
    }
}

impl RowOps for NeonOps {
    fn eval_row(
        &self,
        tape: &[TapeOp],
        rtaps: &[RTap],
        raw: &[f64],
        scr: &[f64],
        w: usize,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), w, "output row length mismatch");
        // Same contract as the AVX2 evaluator: check_tape proves every
        // row the program loads is inside `raw` or `scr` before any
        // pointer forms, and its returned stack depth picks a stackless
        // instantiation for straight-chain tapes.
        let max_sp = fuse::check_tape(tape, rtaps, raw.len(), scr.len(), w);
        // SAFETY: bounds established above; NEON is aarch64 baseline.
        unsafe { eval_tape_w(w, max_sp, tape, rtaps, raw, scr, out) }
    }

    fn eval_block<F: Fn(&fuse::RowProg) -> usize>(
        &self,
        fused: &fuse::FusedKernel,
        rtaps: &[RTap],
        raw: &[f64],
        scr: &mut [f64],
        w: usize,
        out: &mut [f64],
        row_start: F,
    ) {
        // Same split as the AVX2 backend: tap-table bounds hold by the
        // brick-safe proof (BS001–BS003, BS012–BS015) plus the executor's
        // per-run premise and the scratch-length premise asserted here,
        // re-asserted in debug builds; tap ids and stack depth stay
        // bounds-checked per op.
        assert!(
            scr.len() >= fused.scratch_len(w),
            "scratch buffer shorter than {} rows",
            fused.scratch_rows
        );
        if cfg!(debug_assertions) {
            fuse::check_taps(rtaps, raw.len(), scr.len(), w);
        }
        fuse::run_scratch(fused, rtaps, raw, scr, w, |tape, max_sp, scr, row| {
            // SAFETY: tap rows in-bounds by BS001–BS003/BS012–BS015 plus
            // the premises above; `row.len() == w` by `run_scratch`;
            // NEON is aarch64 baseline.
            unsafe { eval_tape_w(w, max_sp, tape, rtaps, raw, scr, row) }
        });
        for rp in fused.rows() {
            let s = row_start(rp);
            let out_row = &mut out[s..s + w];
            // SAFETY: tap rows in-bounds by the BS001–BS003/BS012–BS015
            // proof plus the premises above (re-asserted in debug
            // builds); `out_row.len() == w` by the slice; a fast chain
            // reads grid rows and plain scratch rows only (BS011); NEON
            // is aarch64 baseline.
            unsafe {
                match (w, &rp.fast) {
                    (16, Some(fr)) => eval_fast::<8>(fr, rtaps, raw, scr, out_row),
                    (32, Some(fr)) => eval_fast::<16>(fr, rtaps, raw, scr, out_row),
                    (64, Some(fr)) => eval_fast::<32>(fr, rtaps, raw, scr, out_row),
                    _ => eval_tape_w(w, rp.max_sp, &rp.tape, rtaps, raw, scr, out_row),
                }
            }
        }
    }
}

/// Dispatch a tape to the [`eval_tape`] instantiation for width `w` and
/// stack depth `max_sp`; mirrors the AVX2 `eval_tape_w`.
///
/// # Safety
/// [`eval_tape`]'s contract.
#[allow(clippy::too_many_arguments)]
unsafe fn eval_tape_w(
    w: usize,
    max_sp: usize,
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe {
        match (w, max_sp) {
            (16, 0) => eval_tape::<8, 0>(tape, rtaps, raw, scr, out),
            (16, _) => eval_tape::<8, MAX_STACK>(tape, rtaps, raw, scr, out),
            (32, 0) => eval_tape::<16, 0>(tape, rtaps, raw, scr, out),
            (32, _) => eval_tape::<16, MAX_STACK>(tape, rtaps, raw, scr, out),
            (64, 0) => eval_tape::<32, 0>(tape, rtaps, raw, scr, out),
            (64, _) => eval_tape::<32, MAX_STACK>(tape, rtaps, raw, scr, out),
            _ => fuse::eval_row_portable(tape, rtaps, raw, scr, w, out),
        }
    }
}

/// Combine one accumulator chunk with one tap chunk; mirrors the AVX2
/// `combine` (0 = set, 1 = acc+t, 2 = t+acc, 3 = acc+t·c fused,
/// 4 = t+acc·c fused). Operand order is preserved exactly.
#[target_feature(enable = "neon")]
#[inline]
fn combine<const MODE: u8>(acc: float64x2_t, t: float64x2_t, cv: float64x2_t) -> float64x2_t {
    match MODE {
        0 => t,
        1 => vaddq_f64(acc, t),
        2 => vaddq_f64(t, acc),
        // vfmaq_f64(a, b, c) = a + b·c, fused
        3 => vfmaq_f64(acc, t, cv),
        _ => vfmaq_f64(t, acc, cv),
    }
}

/// Apply one tap op across all `NC` accumulator chunks; mirrors the AVX2
/// `apply` with 2-lane chunks (grid taps through `p`, scratch taps
/// through `q`).
///
/// # Safety
/// `check_tape` invariants: `base/home/nbr + w` inside the buffer behind
/// `p` (grid taps) or `q` (scratch taps), and `0 < |dx| < w`, with
/// `w = 2·NC`.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn apply<const NC: usize, const MODE: u8>(
    acc: &mut [float64x2_t; NC],
    rt: RTap,
    p: *const f64,
    q: *const f64,
    cv: float64x2_t,
) {
    let (p, rt) = match rt {
        RTap::Scratch { base } => (q, RTap::Direct { base }),
        RTap::ScratchSplit { home, nbr, dx } => (q, RTap::Split { home, nbr, dx }),
        RTap::Window { .. } => panic!("window tap used as a tape operand"),
        grid => (p, grid),
    };
    match rt {
        RTap::Direct { base } => {
            for c in 0..NC {
                // SAFETY: lanes [2c, 2c+2) of the checked row `base`.
                let t = unsafe { vld1q_f64(p.add(base + 2 * c)) };
                acc[c] = combine::<MODE>(acc[c], t, cv);
            }
        }
        RTap::Split { home, nbr, dx } => {
            let w = (NC * 2) as isize;
            for c in 0..NC {
                let j0 = (2 * c) as isize + dx;
                // SAFETY: lane j of `home` is read only for 0 ≤ j < w and
                // the wrapped lane j∓w ∈ [0, w) of `nbr` otherwise; both
                // rows checked in-bounds.
                let t = unsafe {
                    if j0 >= 0 && j0 + 1 < w {
                        vld1q_f64(p.add(home).offset(j0))
                    } else if dx > 0 && j0 >= w {
                        vld1q_f64(p.add(nbr).offset(j0 - w))
                    } else if dx < 0 && j0 + 1 < 0 {
                        vld1q_f64(p.add(nbr).offset(j0 + w))
                    } else {
                        let mut t = [0.0f64; 2];
                        for (l, v) in t.iter_mut().enumerate() {
                            let j = j0 + l as isize;
                            *v = if j < 0 {
                                *p.add(nbr).offset(j + w)
                            } else if j < w {
                                *p.add(home).offset(j)
                            } else {
                                *p.add(nbr).offset(j - w)
                            };
                        }
                        vld1q_f64(t.as_ptr())
                    }
                };
                acc[c] = combine::<MODE>(acc[c], t, cv);
            }
        }
        _ => unreachable!("scratch and window taps were rewritten above"),
    }
}

/// Straight-chain fast path: mirrors the AVX2 `eval_fast` with 2-lane
/// chunks. [`fuse::FastRow`] is a `Set · Mul? · Fma* · Mul?` chain, so
/// the body is pure unrolled FMA with no per-op dispatch — the
/// accumulators stay in registers for the whole row. Plain stores only:
/// A64 streaming stores (STNP) have no stable intrinsic, and this backend
/// cannot be perf-validated on the x86 reference host anyway.
///
/// # Safety
/// Every grid tap row must be in-bounds for `raw.len()` and every scratch
/// tap row for `scr.len()` at width `w` — established by the brick-safe
/// proof (BS001–BS003, BS012) plus the executor's per-run premises, or by
/// an explicit [`fuse::check_taps`] run — and `out.len() == w == 2·NC`
/// must hold. Tap ids are accessed with bounds-checked indexing.
#[target_feature(enable = "neon")]
unsafe fn eval_fast<const NC: usize>(
    fr: &fuse::FastRow,
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    let (p, q) = (raw.as_ptr(), scr.as_ptr());
    let zero = vmovq_n_f64(0.0);
    let mut acc = [zero; NC];
    // SAFETY: tap rows in-bounds per this fn's contract (BS001–BS003,
    // BS011, BS012 + premises); tap id bounds-checked by the slice index.
    unsafe { apply::<NC, 0>(&mut acc, rtaps[fr.first as usize], p, q, zero) };
    if let Some(s) = fr.pre {
        let sv = vdupq_n_f64(s);
        for a in acc.iter_mut() {
            *a = vmulq_f64(*a, sv);
        }
    }
    for &(t, coeff) in &fr.fmas {
        // SAFETY: as above.
        unsafe { apply::<NC, 3>(&mut acc, rtaps[t as usize], p, q, vdupq_n_f64(coeff)) };
    }
    if let Some(s) = fr.scale {
        let sv = vdupq_n_f64(s);
        for a in acc.iter_mut() {
            *a = vmulq_f64(*a, sv);
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 2·NC asserted by the caller.
        unsafe { vst1q_f64(out.as_mut_ptr().add(2 * c), *a) };
    }
}

/// In-register fused-tape interpreter over `NC` 2-lane vectors
/// (`w = 2·NC`); mirrors the AVX2 evaluator. `SP` sizes the value stack
/// (0 for straight-chain tapes).
///
/// # Safety
/// Every grid tap row must be in-bounds for `raw.len()` and every scratch
/// tap row for `scr.len()` at width `w` — established by the brick-safe
/// proof (BS001–BS003, BS012–BS015) plus the executor's per-run premises,
/// or by an explicit [`fuse::check_taps`]/[`fuse::check_tape`] run — and
/// `out.len() == w == 2·NC` must hold. Tap ids and the
/// `SP`-sized value stack are accessed with bounds-checked indexing, so
/// a malformed tape panics rather than forming a stray pointer.
#[target_feature(enable = "neon")]
unsafe fn eval_tape<const NC: usize, const SP: usize>(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    let (p, q) = (raw.as_ptr(), scr.as_ptr());
    let zero = vmovq_n_f64(0.0);
    let mut acc = [zero; NC];
    let mut stack = [[zero; NC]; SP];
    let mut sp = 0usize;
    for op in tape {
        match *op {
            // SAFETY: tap rows in-bounds per this fn's contract
            // (BS001–BS003 + premise); tap id bounds-checked here.
            TapeOp::Set { tap } => unsafe {
                apply::<NC, 0>(&mut acc, rtaps[tap as usize], p, q, zero)
            },
            // SAFETY: as for Set.
            TapeOp::AddTap { tap } => unsafe {
                apply::<NC, 1>(&mut acc, rtaps[tap as usize], p, q, zero)
            },
            // SAFETY: as for Set.
            TapeOp::TapAdd { tap } => unsafe {
                apply::<NC, 2>(&mut acc, rtaps[tap as usize], p, q, zero)
            },
            TapeOp::Mul { c } => {
                let cv = vdupq_n_f64(c);
                for a in acc.iter_mut() {
                    *a = vmulq_f64(*a, cv);
                }
            }
            // SAFETY: as for Set.
            TapeOp::Fma { tap, c } => unsafe {
                apply::<NC, 3>(&mut acc, rtaps[tap as usize], p, q, vdupq_n_f64(c))
            },
            // SAFETY: as for Set.
            TapeOp::FmaRev { tap, c } => unsafe {
                apply::<NC, 4>(&mut acc, rtaps[tap as usize], p, q, vdupq_n_f64(c))
            },
            TapeOp::Push => {
                stack[sp] = acc;
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for c in 0..NC {
                    acc[c] = vaddq_f64(stack[sp][c], acc[c]);
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                let cv = vdupq_n_f64(c);
                for ch in 0..NC {
                    // pop + acc·c, fused
                    acc[ch] = vfmaq_f64(stack[sp][ch], acc[ch], cv);
                }
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 2·NC asserted by the caller.
        unsafe { vst1q_f64(out.as_mut_ptr().add(2 * c), *a) };
    }
}
