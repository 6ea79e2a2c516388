//! AVX2+FMA tape backend (x86-64).
//!
//! This module and [`super::neon`] are the only places in the workspace
//! allowed to use `unsafe` (the crate downgrades the workspace-wide
//! `unsafe_code = "forbid"` to `deny` exactly for them; see
//! `crates/vm/Cargo.toml`). The safety argument has three layers:
//!
//! 1. [`Plan::compile`](super::Plan::compile) only emits programs the
//!    brick-safe prover ([`super::safe`]) accepts: every obligation the
//!    pointer code below relies on — tap rows inside their slab (BS001,
//!    with the per-run premise checks in `crate::exec`), neighbour and
//!    tap indices in range (BS002/BS004), seam shifts in `(0, w)`
//!    (BS003), value-stack discipline (BS005), stores inside the home
//!    block and non-overlapping (BS006/BS007), lane geometry (BS008),
//!    fast-chain fidelity (BS011), and scratch rows inside the buffer,
//!    written before read and shifted within their row or apron
//!    (BS012–BS015) —
//!    is discharged *statically*, before a plan exists. Debug builds
//!    re-assert the per-block conditions ([`fuse::check_taps`]); release
//!    builds run on the proof alone.
//! 2. The safe entry points re-assert what the proof cannot see: the
//!    block entry checks the scratch buffer's length, and the row entry
//!    walks the whole tape ([`fuse::check_tape`]) before any pointer is
//!    formed. Tap ids and the value stack are bounds-checked indexing.
//! 3. [`Avx2Ops::new`] returns `None` unless `is_x86_feature_detected!`
//!    confirms `avx2` *and* `fma`, so the `#[target_feature]` functions are
//!    only ever reached on hosts that support them.
//!
//! `_mm256_fmadd_pd` computes the correctly-rounded IEEE-754 fused
//! multiply-add — the same value `f64::mul_add` produces lane-by-lane — so
//! this backend is bit-identical to the interpreter (ULP bound 0).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_mul_pd,
    _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_shuffle_pd, _mm256_storeu_pd,
    _mm256_stream_pd, _mm_prefetch, _mm_sfence, _MM_HINT_T0,
};

use super::fuse::{self, RTap, TapeOp, MAX_STACK};
use super::RowOps;

/// AVX2+FMA rows. Constructible only when the host supports both features.
pub(crate) struct Avx2Ops(());

impl Avx2Ops {
    /// Detect and construct; `None` when the host lacks `avx2`/`fma`.
    pub(crate) fn new() -> Option<Avx2Ops> {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Some(Avx2Ops(()))
        } else {
            None
        }
    }
}

impl RowOps for Avx2Ops {
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
        // `check_tape` walks the whole program first: every tap row it
        // will load is proven inside `raw` or `scr`, shift distances are
        // in `(0, w)`, and the value stack stays within MAX_STACK — no
        // pointer below is formed otherwise. Straight-chain tapes (the
        // common case) dispatch to a stackless instantiation so no stack
        // array is materialized per row.
        let max_sp = fuse::check_tape(tape, rtaps, raw.len(), scr.len(), w);
        // SAFETY: bounds established by `check_tape`/the assert above;
        // avx2+fma verified by `Avx2Ops::new`.
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
        // The tap-bounds argument (every row base the tapes can load is
        // inside `raw` or `scr`, shift distances in `(0, w)`) is
        // discharged at compile time by brick-safe (BS001–BS003,
        // BS012–BS015) plus the per-run premise checks in `crate::exec`
        // and the scratch-length premise asserted here; debug builds
        // re-assert it per block. The per-tape half (tap ids, stack
        // discipline) is enforced by ordinary bounds-checked indexing
        // inside `eval_tape`/`eval_fast`, so no pointer can escape its
        // buffer even for a malformed tape.
        assert!(
            scr.len() >= fused.scratch_len(w),
            "scratch buffer shorter than {} rows",
            fused.scratch_rows
        );
        if cfg!(debug_assertions) {
            fuse::check_taps(rtaps, raw.len(), scr.len(), w);
        }
        // The block's input rows are short bursts (a few cache lines
        // each) scattered across up to 27 neighbour bricks — a pattern
        // the hardware prefetcher cannot follow across slab boundaries.
        // Issue one prefetch per cache line of every full tap row up
        // front so the DRAM fetches overlap the first rows' arithmetic.
        let touch = |base: usize| {
            let mut line = 0;
            while line < w {
                // SAFETY: prefetch is a hint — it cannot fault — and
                // `base + w <= raw.len()` holds by the BS001 proof plus
                // the executor's per-run premise anyway.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(raw.as_ptr().add(base + line).cast());
                }
                line += 8;
            }
        };
        for rt in &rtaps[..fused.grid_taps] {
            match *rt {
                RTap::Direct { base } => touch(base),
                RTap::Split { home, nbr, .. } => {
                    touch(home);
                    touch(nbr);
                }
                _ => {}
            }
        }
        fuse::run_scratch(fused, rtaps, raw, scr, w, |tape, max_sp, scr, row| {
            // SAFETY: tap rows in-bounds by BS001–BS003/BS012–BS015 plus
            // the premises above; `row.len() == w` by `run_scratch`;
            // avx2+fma verified by `Avx2Ops::new`.
            unsafe { eval_tape_w(w, max_sp, tape, rtaps, raw, scr, row) }
        });
        for rp in fused.rows() {
            let s = row_start(rp);
            let out_row = &mut out[s..s + w];
            // SAFETY: tap rows in-bounds by the BS001–BS003/BS012–BS015
            // proof plus the premises above (re-asserted in debug
            // builds); `out_row.len() == w` by the slice; avx2+fma
            // verified by `Avx2Ops::new`. A fast chain reads grid rows and
            // plain scratch rows only, and a plain one no split row
            // (BS011). `max_sp` was proven equal to the tape's true depth
            // (BS005) — and a stale value would only shift which
            // instantiation runs, with the stack indexing inside staying
            // bounds-checked.
            unsafe {
                match (w, &rp.fast) {
                    (16, Some(fr)) => eval_fast_w::<4>(fr, rtaps, raw, scr, out_row),
                    (32, Some(fr)) => eval_fast_w::<8>(fr, rtaps, raw, scr, out_row),
                    (64, Some(fr)) => eval_fast_w::<16>(fr, rtaps, raw, scr, out_row),
                    (128, Some(fr)) => eval_fast_w::<32>(fr, rtaps, raw, scr, out_row),
                    _ => eval_tape_w(w, rp.max_sp, &rp.tape, rtaps, raw, scr, out_row),
                }
            }
        }
        // Drain the write-combining buffers of `eval_fast`'s non-temporal
        // stores before the output chunk is handed back (required for
        // cross-thread visibility under a parallel executor; a plain
        // store fence, negligible once per block).
        // SAFETY: SFENCE is baseline SSE on x86-64, no memory operand.
        unsafe { _mm_sfence() };
    }
}

/// Dispatch a tape to the [`eval_tape`] instantiation for width `w` and
/// stack depth `max_sp` (stackless when 0); other widths take the
/// portable evaluator.
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
    // SAFETY: forwarded contract; the width is dispatched to a const
    // chunk count so the accumulators live in ymm registers.
    unsafe {
        match (w, max_sp) {
            (16, 0) => eval_tape::<4, 0>(tape, rtaps, raw, scr, out),
            (16, _) => eval_tape::<4, MAX_STACK>(tape, rtaps, raw, scr, out),
            (32, 0) => eval_tape::<8, 0>(tape, rtaps, raw, scr, out),
            (32, _) => eval_tape::<8, MAX_STACK>(tape, rtaps, raw, scr, out),
            (64, 0) => eval_tape::<16, 0>(tape, rtaps, raw, scr, out),
            (64, _) => eval_tape::<16, MAX_STACK>(tape, rtaps, raw, scr, out),
            (128, 0) => eval_tape::<32, 0>(tape, rtaps, raw, scr, out),
            (128, _) => eval_tape::<32, MAX_STACK>(tape, rtaps, raw, scr, out),
            _ => fuse::eval_row_portable(tape, rtaps, raw, scr, w, out),
        }
    }
}

/// Run a fast chain through the [`eval_fast`] instantiation its
/// [`fuse::FastRow::plain`] flag picks.
///
/// # Safety
/// [`eval_fast`]'s contract.
#[inline(always)]
unsafe fn eval_fast_w<const NC: usize>(
    fr: &fuse::FastRow,
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe {
        if fr.plain {
            eval_fast::<NC, true>(fr, rtaps, raw, scr, out)
        } else {
            eval_fast::<NC, false>(fr, rtaps, raw, scr, out)
        }
    }
}

/// Straight-chain row evaluator ([`fuse::FastRow`]). Unlike
/// [`eval_tape`], the loop body is uniform (always a broadcast + `NC`
/// fused multiply-adds), so LLVM keeps all `NC` accumulators in ymm
/// registers for the whole row. A plain row — of the slab (`Direct`) or
/// of the scratch buffer (`Scratch`, padded reads included) — is one
/// pointer select and `NC` loads; a split row goes through
/// [`apply_split`]. A `PLAIN` instantiation has no split arm at all (a
/// split tap panics): with that arm in the loop, LLVM moves the
/// accumulators through extra register copies on every tap op.
///
/// # Safety
/// Same contract as [`eval_tape`]: every grid tap row in-bounds for
/// `raw.len()` and every scratch tap row for `scr.len()` at width `w`
/// (the brick-safe proof BS001–BS003, BS012, BS014 plus the executor's
/// per-run premises, or an explicit [`fuse::check_taps`] run), `out.len()
/// == w == 4·NC`, avx2+fma present. Tap ids are bounds-checked slice
/// accesses; a tap kind BS011 keeps out of a chain panics.
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_fast<const NC: usize, const PLAIN: bool>(
    fr: &fuse::FastRow,
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    let (p, q) = (raw.as_ptr(), scr.as_ptr());
    // The start of a plain row; a split tap reaches here only in a `PLAIN`
    // instantiation, whose loop has no split arm.
    let plain = |rt: RTap| -> *const f64 {
        match rt {
            // SAFETY: `base + w` inside the slab / scratch buffer per
            // this fn's contract, so the row start is in bounds.
            RTap::Direct { base } => unsafe { p.add(base) },
            // SAFETY: as above.
            RTap::Scratch { base } => unsafe { q.add(base) },
            RTap::Split { .. } => panic!("plain fast chain reads a split tap"),
            _ => panic!("fast chain reads a window or shifted scratch tap"),
        }
    };
    let zero = _mm256_setzero_pd();
    let mut acc = [zero; NC];
    match rtaps[fr.first as usize] {
        // SAFETY: split-row contract of `apply_split` (BS001 rows + BS003
        // shift), w = 4·NC.
        RTap::Split { home, nbr, dx } if !PLAIN => unsafe {
            apply_split::<NC, 0>(&mut acc, p, home, nbr, dx, zero)
        },
        rt => {
            let r = plain(rt);
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: lanes [4c, 4c+4) of an in-bounds row.
                *a = unsafe { _mm256_loadu_pd(r.add(4 * c)) };
            }
        }
    }
    if let Some(s) = fr.pre {
        let sv = _mm256_set1_pd(s);
        for a in acc.iter_mut() {
            *a = _mm256_mul_pd(*a, sv);
        }
    }
    for &(t, coeff) in &fr.fmas {
        let cv = _mm256_set1_pd(coeff);
        match rtaps[t as usize] {
            // SAFETY: split-row contract of `apply_split` (BS001 rows +
            // BS003 shift), w = 4·NC.
            RTap::Split { home, nbr, dx } if !PLAIN => unsafe {
                apply_split::<NC, 3>(&mut acc, p, home, nbr, dx, cv)
            },
            rt => {
                let r = plain(rt);
                for (c, a) in acc.iter_mut().enumerate() {
                    // SAFETY: lanes [4c, 4c+4) of an in-bounds row.
                    let tv = unsafe { _mm256_loadu_pd(r.add(4 * c)) };
                    *a = _mm256_fmadd_pd(tv, cv, *a);
                }
            }
        }
    }
    if let Some(s) = fr.scale {
        let sv = _mm256_set1_pd(s);
        for a in acc.iter_mut() {
            *a = _mm256_mul_pd(*a, sv);
        }
    }
    let op = out.as_mut_ptr();
    if (op as usize).is_multiple_of(32) {
        // Non-temporal stores: the output is write-only during a sweep,
        // so bypassing the cache avoids the read-for-ownership — a third
        // of the sweep's DRAM traffic at full scale. Rows are whole
        // cache lines here (aligned, w ≥ 16). The caller fences once per
        // block (`_mm_sfence`) before the chunk is handed back.
        for (c, a) in acc.iter().enumerate() {
            // SAFETY: out.len() == 4·NC asserted by the caller; 32-byte
            // alignment checked above.
            unsafe { _mm256_stream_pd(op.add(4 * c), *a) };
        }
    } else {
        for (c, a) in acc.iter().enumerate() {
            // SAFETY: out.len() == 4·NC asserted by the caller.
            unsafe { _mm256_storeu_pd(op.add(4 * c), *a) };
        }
    }
}

/// Apply one split (shifted) tap op across all `NC` accumulator chunks
/// (`MODE` as in [`combine`]). A shift of at most one chunk, `0 < |dx| ≤
/// 4` (`fuse::PAD`: every paper star, the cubes' corner rows), fixes the
/// pattern by its sign, so it is decided once per op: `NC − 1` unaligned
/// loads from the home row at lane `4c + dx`, and one edge chunk — the
/// last for `dx > 0`, the first for `dx < 0` — that is the [`seam_chunk`],
/// or a plain neighbour-row load when `|dx| = 4`. Longer shifts test
/// every chunk.
///
/// # Safety
/// `check_taps` invariants (`home/nbr + w` inside the buffer behind `p`,
/// `0 < |dx| < w`) with `w = 4·NC`; the host supports avx2+fma.
// Not `#[target_feature]`, for the reason given at `apply`.
#[inline(always)]
unsafe fn apply_split<const NC: usize, const MODE: u8>(
    acc: &mut [__m256d; NC],
    p: *const f64,
    home: usize,
    nbr: usize,
    dx: isize,
    cv: __m256d,
) {
    let w = (NC * 4) as isize;
    // SAFETY: in every branch, lane j of `home` is read only for
    // 0 ≤ j < w and the wrapped lane j∓w ∈ [0, w) of `nbr` otherwise —
    // both rows in-bounds per this fn's contract (BS001 + premise); avx2+fma
    // per this fn's contract.
    unsafe {
        if (1..=4).contains(&dx) {
            // chunk c < NC − 1 reads home lanes 4c + dx .. 4c + dx + 3 ≤ w − 1
            for (c, a) in acc[..NC - 1].iter_mut().enumerate() {
                let t = _mm256_loadu_pd(p.add(home + 4 * c + dx as usize));
                *a = combine::<MODE>(*a, t, cv);
            }
            let t = if dx == 4 {
                _mm256_loadu_pd(p.add(nbr))
            } else {
                seam_chunk(p, home, nbr, w, w - 4 + dx, dx)
            };
            acc[NC - 1] = combine::<MODE>(acc[NC - 1], t, cv);
        } else if (-4..=-1).contains(&dx) {
            let t = if dx == -4 {
                _mm256_loadu_pd(p.add(nbr + (w - 4) as usize))
            } else {
                seam_chunk(p, home, nbr, w, dx, dx)
            };
            acc[0] = combine::<MODE>(acc[0], t, cv);
            // chunk c ≥ 1 reads home lanes 4c + dx ≥ 0 .. 4c + dx + 3 < w
            for (c, a) in acc.iter_mut().enumerate().skip(1) {
                let t = _mm256_loadu_pd(p.add(home + 4 * c - dx.unsigned_abs()));
                *a = combine::<MODE>(*a, t, cv);
            }
        } else {
            for (c, a) in acc.iter_mut().enumerate() {
                let j0 = (4 * c) as isize + dx;
                let t = if j0 >= 0 && j0 + 3 < w {
                    _mm256_loadu_pd(p.add(home).offset(j0))
                } else if dx > 0 && j0 >= w {
                    _mm256_loadu_pd(p.add(nbr).offset(j0 - w))
                } else if dx < 0 && j0 + 3 < 0 {
                    _mm256_loadu_pd(p.add(nbr).offset(j0 + w))
                } else {
                    seam_chunk(p, home, nbr, w, j0, dx)
                };
                *a = combine::<MODE>(*a, t, cv);
            }
        }
    }
}

/// The chunk of lanes `j0 .. j0 + 4` (relative to the home row) that
/// straddles a split row's seam, from two loads: the last four lanes of
/// the lower row and the first four of the upper one (`home`, `nbr` for
/// `dx > 0`; `nbr`, `home` for `dx < 0`), then `k = 1..=3` lanes into
/// their concatenation by a cross-lane permute and, for odd `k`, an
/// in-lane shuffle. Only moves, so bit-identical to a lane-by-lane
/// gather, and the chunk never round-trips through the stack.
///
/// # Safety
/// [`apply_split`]'s invariants, and the chunk straddles the seam:
/// `w − 4 < j0 < w` for `dx > 0`, `−4 < j0 < 0` for `dx < 0`.
#[inline(always)]
unsafe fn seam_chunk(
    p: *const f64,
    home: usize,
    nbr: usize,
    w: isize,
    j0: isize,
    dx: isize,
) -> __m256d {
    let (lo, hi, k) = if dx > 0 {
        (home, nbr, j0 - (w - 4))
    } else {
        (nbr, home, j0 + 4)
    };
    // SAFETY: lanes [w − 4, w) of `lo` and [0, 4) of `hi`, both rows
    // in-bounds per this fn's contract; avx2 per the callers' features.
    unsafe {
        let a = _mm256_loadu_pd(p.add(lo).offset(w - 4));
        let b = _mm256_loadu_pd(p.add(hi));
        // [a2, a3, b0, b1]
        let mid = _mm256_permute2f128_pd::<0x21>(a, b);
        match k {
            // [a1, a2, a3, b0]
            1 => _mm256_shuffle_pd::<0b0101>(a, mid),
            2 => mid,
            // [a3, b0, b1, b2]
            _ => _mm256_shuffle_pd::<0b0101>(mid, b),
        }
    }
}

/// Combine one accumulator chunk with one tap chunk; `MODE` selects the
/// operation at monomorphization time (0 = set, 1 = acc+t, 2 = t+acc,
/// 3 = fma(t,c,acc), 4 = fma(acc,c,t)) so the per-op dispatch happens
/// once per tape op, not once per chunk. Operand order is preserved
/// exactly — the bit-identity contract.
///
/// # Safety
/// The host supports avx2+fma; only called (inlined) from
/// `#[target_feature(enable = "avx2,fma")]` functions.
#[inline(always)]
unsafe fn combine<const MODE: u8>(acc: __m256d, t: __m256d, cv: __m256d) -> __m256d {
    // SAFETY: avx2+fma per this fn's contract.
    unsafe {
        match MODE {
            0 => t,
            1 => _mm256_add_pd(acc, t),
            2 => _mm256_add_pd(t, acc),
            3 => _mm256_fmadd_pd(t, cv, acc),
            _ => _mm256_fmadd_pd(acc, cv, t),
        }
    }
}

/// Apply one tap op across all `NC` accumulator chunks. Direct taps
/// compile to a fully unrolled run of contiguous loads; split (shifted)
/// taps go through [`apply_split`], which decides the seam once per op.
/// Grid taps read through `p` (the input slab), scratch taps through `q`
/// (the block's scratch rows) with the same code.
///
/// # Safety
/// `check_tape` invariants: `base/home/nbr + w` inside the slab behind
/// `p` (grid taps) or the scratch buffer behind `q` (scratch taps), and
/// `0 < |dx| < w`, with `w = 4·NC`; the host supports avx2+fma. A window
/// tap panics (never a tape operand, BS004).
// Not `#[target_feature]`: that would forbid `#[inline(always)]`, and an
// out-of-line `apply` keeps the accumulators in memory across every tape
// op. Always inlined into its `#[target_feature]` callers, its intrinsics
// compile with their features.
#[inline(always)]
unsafe fn apply<const NC: usize, const MODE: u8>(
    acc: &mut [__m256d; NC],
    rt: RTap,
    p: *const f64,
    q: *const f64,
    cv: __m256d,
) {
    let (p, rt) = match rt {
        RTap::Scratch { base } => (q, RTap::Direct { base }),
        RTap::ScratchSplit { home, nbr, dx } => (q, RTap::Split { home, nbr, dx }),
        RTap::Window { .. } => panic!("window tap used as a tape operand"),
        grid => (p, grid),
    };
    match rt {
        RTap::Direct { base } => {
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: lanes [4c, 4c+4) of the checked row `base`.
                let t = unsafe { _mm256_loadu_pd(p.add(base + 4 * c)) };
                // SAFETY: avx2+fma per this fn's contract.
                *a = unsafe { combine::<MODE>(*a, t, cv) };
            }
        }
        // SAFETY: forwarded contract.
        RTap::Split { home, nbr, dx } => unsafe {
            apply_split::<NC, MODE>(acc, p, home, nbr, dx, cv)
        },
        _ => unreachable!("scratch and window taps were rewritten above"),
    }
}

/// In-register fused-tape interpreter: the accumulator row is `NC` ymm
/// vectors (`w = 4·NC`), every tap op streams its chunks straight from
/// the input slab or the scratch rows, and nothing round-trips through
/// memory until the final row store. `SP` sizes the value stack (0 for
/// straight-chain tapes, so the common case touches no stack memory at
/// all).
///
/// # Safety
/// Every grid tap row must be in-bounds for `raw.len()` and every scratch
/// tap row for `scr.len()` at width `w` — established by the brick-safe
/// proof (BS001–BS003, BS012–BS015) plus the executor's per-run premises,
/// or by an explicit [`fuse::check_taps`]/[`fuse::check_tape`] run —
/// `out.len() == w == 4·NC` must hold, and the host must support
/// avx2+fma. Tap ids and the `SP`-sized value stack are accessed with
/// bounds-checked indexing, so a malformed tape panics rather than
/// forming a stray pointer.
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_tape<const NC: usize, const SP: usize>(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    out: &mut [f64],
) {
    let (p, q) = (raw.as_ptr(), scr.as_ptr());
    let zero = _mm256_setzero_pd();
    let mut acc = [zero; NC];
    let mut stack = [[zero; NC]; SP];
    let mut sp = 0usize;
    for op in tape {
        match *op {
            // SAFETY: tap rows in-bounds per this fn's contract
            // (BS001–BS003, BS012–BS015 + premises); tap id
            // bounds-checked here.
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
                let cv = _mm256_set1_pd(c);
                for a in acc.iter_mut() {
                    *a = _mm256_mul_pd(*a, cv);
                }
            }
            // SAFETY: as for Set.
            TapeOp::Fma { tap, c } => unsafe {
                apply::<NC, 3>(&mut acc, rtaps[tap as usize], p, q, _mm256_set1_pd(c))
            },
            // SAFETY: as for Set.
            TapeOp::FmaRev { tap, c } => unsafe {
                apply::<NC, 4>(&mut acc, rtaps[tap as usize], p, q, _mm256_set1_pd(c))
            },
            TapeOp::Push => {
                stack[sp] = acc;
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for c in 0..NC {
                    acc[c] = _mm256_add_pd(stack[sp][c], acc[c]);
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                let cv = _mm256_set1_pd(c);
                for ch in 0..NC {
                    acc[ch] = _mm256_fmadd_pd(acc[ch], cv, stack[sp][ch]);
                }
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 4·NC asserted by the caller.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(4 * c), *a) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_tape_matches_the_portable_evaluator_bitwise() {
        let Some(ops) = Avx2Ops::new() else {
            return; // host without avx2+fma
        };
        let same = |got: &[f64], want: &[f64], what: &str| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{what} lane {i}");
            }
        };
        for w in fuse::FUSED_WIDTHS {
            let raw: Vec<f64> = (0..4 * w).map(|i| 0.173 * (i as f64) - 11.0).collect();
            let scr: Vec<f64> = (0..2 * w).map(|i| 1.0 / (3.0 + i as f64)).collect();
            // every shift, on split grid rows (both signs at once) and on
            // split scratch rows, so every seam chunk offset is built
            for dx in (1 - w as isize..w as isize).filter(|&dx| dx != 0) {
                let rtaps = [
                    RTap::Direct { base: 0 },
                    RTap::Split {
                        home: w,
                        nbr: 2 * w,
                        dx,
                    },
                    RTap::Split {
                        home: w,
                        nbr: 3 * w,
                        dx: -dx,
                    },
                    RTap::Scratch { base: w },
                    RTap::ScratchSplit {
                        home: 0,
                        nbr: w,
                        dx,
                    },
                ];
                let tape = [
                    TapeOp::Set { tap: 1 },
                    TapeOp::TapAdd { tap: 0 },
                    TapeOp::Push,
                    TapeOp::Set { tap: 2 },
                    TapeOp::Mul { c: 0.75 },
                    TapeOp::PopFma { c: -1.25 },
                    TapeOp::Fma { tap: 0, c: 2.5 },
                    TapeOp::FmaRev { tap: 2, c: 0.5 },
                    TapeOp::AddTap { tap: 1 },
                    TapeOp::Fma { tap: 3, c: 0.25 },
                    TapeOp::TapAdd { tap: 4 },
                ];
                let mut want = vec![0.0; w];
                fuse::eval_row_portable(&tape, &rtaps, &raw, &scr, w, &mut want);
                let mut got = vec![0.0; w];
                ops.eval_row(&tape, &rtaps, &raw, &scr, w, &mut got);
                same(&got, &want, &format!("eval_tape w={w} dx={dx}"));

                // the same shifts through the fast chain, against its tape
                let fr = fuse::FastRow {
                    first: 1,
                    pre: Some(0.75),
                    fmas: vec![(0, 2.5), (2, -0.5), (3, 1.0)],
                    scale: Some(-1.5),
                    plain: false,
                };
                let chain = [
                    TapeOp::Set { tap: 1 },
                    TapeOp::Mul { c: 0.75 },
                    TapeOp::Fma { tap: 0, c: 2.5 },
                    TapeOp::Fma { tap: 2, c: -0.5 },
                    TapeOp::Fma { tap: 3, c: 1.0 },
                    TapeOp::Mul { c: -1.5 },
                ];
                fuse::eval_row_portable(&chain, &rtaps, &raw, &scr, w, &mut want);
                fuse::check_taps(&rtaps, raw.len(), scr.len(), w);
                // SAFETY: every tap row checked inside `raw`/`scr` just
                // above; `got.len() == w`; avx2+fma detected.
                unsafe {
                    match w {
                        16 => eval_fast_w::<4>(&fr, &rtaps, &raw, &scr, &mut got),
                        32 => eval_fast_w::<8>(&fr, &rtaps, &raw, &scr, &mut got),
                        64 => eval_fast_w::<16>(&fr, &rtaps, &raw, &scr, &mut got),
                        _ => eval_fast_w::<32>(&fr, &rtaps, &raw, &scr, &mut got),
                    }
                }
                same(&got, &want, &format!("eval_fast w={w} dx={dx}"));
            }
        }
    }

    // Micro-benchmark for the fused evaluator, kept out of normal runs:
    // `cargo test -p brick-vm --release -- --ignored --nocapture eval_row_micro`
    #[test]
    #[ignore]
    fn eval_row_micro() {
        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        let w = 32usize;
        let raw: Vec<f64> = (0..64 * w).map(|i| 0.173 * (i as f64) - 11.0).collect();
        // star-7-shaped tape: 7 direct/split taps, straight chain
        let rtaps: Vec<RTap> = (0..7)
            .map(|t| {
                if t < 5 {
                    RTap::Direct { base: t * w }
                } else {
                    RTap::Split {
                        home: t * w,
                        nbr: (t + 1) * w,
                        dx: if t == 5 { 1 } else { -1 },
                    }
                }
            })
            .collect();
        let tape = [
            TapeOp::Set { tap: 0 },
            TapeOp::Fma { tap: 1, c: 0.1 },
            TapeOp::Fma { tap: 2, c: 0.2 },
            TapeOp::Fma { tap: 3, c: 0.3 },
            TapeOp::Fma { tap: 4, c: 0.4 },
            TapeOp::Fma { tap: 5, c: 0.5 },
            TapeOp::Fma { tap: 6, c: 0.6 },
        ];
        let mut out = vec![0.0; w];
        let iters = 4_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            ops.eval_row(&tape, &rtaps, &raw, &[], w, &mut out);
            std::hint::black_box(&mut out);
        }
        let dt = t0.elapsed().as_secs_f64();
        let rows_per_s = iters as f64 / dt;
        println!(
            "eval_row micro: {:.1} Mrows/s ({:.1} Mpts/s, {:.0} cycles/row at 2.1GHz)",
            rows_per_s / 1e6,
            rows_per_s * w as f64 / 1e6,
            2.1e9 / rows_per_s
        );
    }

    // Same, but through the block path on a real fused star-7 kernel —
    // the executor's hot loop minus grid traffic.
    // `cargo test -p brick-vm --release -- --ignored --nocapture eval_block_micro`
    #[test]
    #[ignore]
    fn eval_block_micro() {
        use brick_codegen::{generate, CodegenOptions, LayoutKind};
        use brick_dsl::shape::StencilShape;

        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
        let fused = fuse::fuse(&k).expect("star-7 fuses");
        let w = k.width;
        let vol = k.block.bx * k.block.by * k.block.bz;
        let raw: Vec<f64> = (0..32 * vol).map(|i| 0.173 * (i as f64) - 11.0).collect();
        // resolve every tap into the middle of the buffer, mimicking a
        // brick whose neighbours are all allocated
        let rtaps: Vec<RTap> = fused
            .taps()
            .iter()
            .enumerate()
            .map(|(i, t)| match *t {
                fuse::Tap::Direct { .. } => RTap::Direct {
                    base: (i % 16) * vol / 16,
                },
                fuse::Tap::Shifted { dx, .. } => RTap::Split {
                    home: (i % 16) * vol / 16,
                    nbr: 16 * vol + (i % 16) * w,
                    dx: dx as isize,
                },
                _ => unreachable!("star-7 reads no window or scratch rows"),
            })
            .collect();
        let mut out = vec![0.0; vol];
        let iters = 400_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            ops.eval_block(&fused, &rtaps, &raw, &mut [], w, &mut out, |rp| rp.out_off);
            std::hint::black_box(&mut out);
        }
        let dt = t0.elapsed().as_secs_f64();
        let rows = fused.rows().len() as f64;
        let rows_per_s = iters as f64 * rows / dt;
        println!(
            "eval_block micro: {:.1} Mrows/s ({:.1} Mpts/s, {:.0} cycles/row at 2.1GHz)",
            rows_per_s / 1e6,
            rows_per_s * w as f64 / 1e6,
            2.1e9 / rows_per_s
        );

        // per-brick resolve cost, the other half of the executor loop
        let row27: [u32; 27] = std::array::from_fn(|i| i as u32);
        let mut rbuf = fused.rtap_table(w);
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            fused.resolve_brick(&row27, 0, &mut rbuf);
            std::hint::black_box(&mut rbuf);
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "resolve micro: {:.0} cycles/brick ({:.1} cycles/row)",
            2.1e9 * dt / iters as f64,
            2.1e9 * dt / (iters as f64 * rows)
        );
    }

    // Per-block cost split of the temporal (T = 2) star-7 and the
    // 125-point cube kernels: scratch programs vs the whole block, and tap
    // resolution, with the 27 neighbour bricks cache-resident.
    // `cargo test -p brick-vm --release -- --ignored --nocapture fused_block_split_micro`
    #[test]
    #[ignore]
    fn fused_block_split_micro() {
        use brick_codegen::{generate, CodegenOptions, LayoutKind};
        use brick_dsl::shape::StencilShape;

        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        for (shape, t) in [(StencilShape::star(1), 2), (StencilShape::cube(2), 1)] {
            let st = shape.stencil();
            let opts = CodegenOptions {
                temporal_degree: t,
                ..CodegenOptions::default()
            };
            let k = generate(&st, &st.default_bindings(), LayoutKind::Brick, 32, opts).unwrap();
            let fused = fuse::fuse(&k).expect("paper kernels fuse");
            let w = k.width;
            let vol = k.block.volume();
            let raw: Vec<f64> = (0..27 * vol).map(|i| 0.173 * (i as f64) - 11.0).collect();
            let row27: [u32; 27] = std::array::from_fn(|i| i as u32);
            let mut rtaps = fused.rtap_table(w);
            fused.resolve_brick(&row27, vol, &mut rtaps[..fused.grid_taps]);
            let mut scr = fused.scratch_buffer(w);
            let mut out = vec![0.0; vol];
            let iters = 20_000u64;
            let time = |f: &mut dyn FnMut()| {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    f();
                }
                2.1e9 * t0.elapsed().as_secs_f64() / iters as f64
            };
            let block = time(&mut || {
                ops.eval_block(&fused, &rtaps, &raw, &mut scr, w, &mut out, |rp| rp.out_off);
                std::hint::black_box(&mut out);
            });
            let scratch = time(&mut || {
                fuse::run_scratch(&fused, &rtaps, &raw, &mut scr, w, |tape, sp, scr, row| {
                    // SAFETY: taps resolved inside `raw`/`scr` above.
                    unsafe { eval_tape_w(w, sp, tape, &rtaps, &raw, scr, row) }
                });
                std::hint::black_box(&mut scr);
            });
            let mut rb = rtaps.clone();
            let resolve = time(&mut || {
                fused.resolve_brick(&row27, vol, &mut rb[..fused.grid_taps]);
                std::hint::black_box(&mut rb);
            });
            let ops_per_block: usize = fused.rows().iter().map(|r| r.tape.len()).sum();
            println!(
                "{shape} t{t}: block {block:.0} cycles ({:.1}/pt), scratch {scratch:.0}, \
                 rows {:.1} cycles/op, resolve {resolve:.0}",
                block / vol as f64,
                (block - scratch) / ops_per_block as f64
            );
        }
    }
}
