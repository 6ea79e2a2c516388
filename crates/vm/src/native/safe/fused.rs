//! Fused-path obligations: the compile-time half of the argument that
//! every unsafe load/store in the SIMD fused evaluators is in bounds.
//!
//! The brick executor computes each grid tap's base as
//! `brick_id · vol + off` with `brick_id` drawn from the adjacency table.
//! Proving `off + w ≤ vol` here (BS001), together with the per-run
//! premise that the slab holds exactly `nb` whole bricks and every
//! interior adjacency entry is a valid id `< nb` (checked in
//! `crate::exec::run_brick_plan`, the entries of each interior brick
//! inside the parallel loop just before its taps resolve), gives `base + w ≤ raw.len()` for
//! every tap of every interior brick — translation invariance does the
//! rest. Array layouts leave `brick_taps` empty; their geometry half
//! lives in [`super::geometry`].
//!
//! Scratch taps address the per-worker scratch buffer the executors size
//! at `scratch_rows · (w + 2·pad)`, row `slot`'s lanes at
//! `slot · (w + 2·pad) + pad`: a slot below `scratch_rows` (BS012) with
//! a shift inside `(0, w)` (BS014) keeps every scratch read and write
//! inside it, and so does a padded read's `|dx| ≤ pad` (BS014) and a pad
//! fill's `apron ≤ pad` (BS015). BS013 adds that the block program
//! writes a row before any tape reads it, so no tape sees a previous
//! block's (or no) value; BS015 that a padded read stays within the
//! apron its row's fill wrote, and that the fill copies the home row and
//! exactly the x-nearest neighbour lanes the reads take.

use brick_core::BrickDims;
use brick_lint::LintCode;

use super::super::fuse::{self, BrickTap, Fill, FusedKernel, Tap, TapeOp, FUSED_WIDTHS, MAX_STACK};
use super::Prover;

/// Discharge the fused-path obligations over `f`.
pub(crate) fn prove_fused(p: &mut Prover, w: usize, block: BrickDims, f: &FusedKernel) {
    let vol = block.volume();
    // BS008: the fused evaluators index lanes as `x = i mod w` within a
    // block row, which is only the grid row when the block x-extent IS
    // the vector width; their dispatch tables cover the fused widths, all
    // whole numbers of 4-lane AVX2 and 2-lane NEON vectors.
    p.obligation(
        FUSED_WIDTHS.contains(&w) && block.bx == w,
        LintCode::UnsafeLaneGeometry,
        None,
        || {
            format!(
                "fused width {w} / block x-extent {} outside the proven lane geometries",
                block.bx
            )
        },
    );
    prove_tap_table(p, w, vol, f);

    // BS012/BS013: scratch programs write inside the buffer, and read
    // only rows an earlier program of the block wrote. `written[s]` is
    // the apron the last write of slot `s` filled (0 for a plain row).
    let mut written: Vec<Option<u16>> = vec![None; f.scratch_rows];
    for (k, sp) in f.scratch.iter().enumerate() {
        let slot = sp.slot as usize;
        p.obligation(
            slot < f.scratch_rows,
            LintCode::UnsafeScratchSlot,
            Some(k),
            || {
                format!(
                    "scratch program {k} writes slot {slot} of a {}-row buffer",
                    f.scratch_rows
                )
            },
        );
        // BS004: a copy or pad fill reads the input slab, so its taps
        // must be grid taps (resolved per block).
        for t in sp.fill.grid_sources().into_iter().map(usize::from) {
            p.obligation(
                t < f.grid_taps && f.taps.get(t).is_some_and(Tap::is_grid),
                LintCode::UnsafeTapIndexInvalid,
                Some(k),
                || format!("scratch program {k}: fill reads tap {t}, not a grid tap"),
            );
        }
        let mut apron = 0;
        match &sp.fill {
            Fill::Copy { .. } => {}
            &Fill::Pad {
                home,
                minus,
                plus,
                apron: a,
            } => {
                prove_pad(p, k, w, f, [home, minus, plus], a);
                apron = a;
            }
            Fill::Tape { tape, max_sp } => {
                let what = format!("scratch program {k}");
                prove_tape(p, (&what, k), tape, *max_sp, f, &written);
            }
        }
        if slot < f.scratch_rows {
            written[slot] = Some(apron);
        }
    }

    let mut out_offs: Vec<usize> = Vec::with_capacity(f.rows.len());
    for (r, rp) in f.rows.iter().enumerate() {
        let (ry, rz) = (rp.ry as usize, rp.rz as usize);
        // BS006: the streaming store targets `out[out_off .. out_off+w]`
        // of a vol-sized block; out_off must be the block's own row
        // offset (the decomposition's writeback relies on it), aligned,
        // and in bounds.
        let in_block = ry < block.by && rz < block.bz;
        p.obligation(in_block, LintCode::UnsafeStoreEscapesBlock, Some(r), || {
            format!(
                "row {r}: output row ({ry}, {rz}) outside the {}x{} home block",
                block.by, block.bz
            )
        });
        // row_offset asserts its coordinates in debug builds — only
        // consult it once the row is known to be in the block.
        p.obligation(
            in_block
                && rp.out_off == block.row_offset(ry, rz)
                && rp.out_off % w == 0
                && rp.out_off + w <= vol,
            LintCode::UnsafeStoreEscapesBlock,
            Some(r),
            || {
                format!(
                    "row {r}: store offset {} is not the in-bounds row base for ({ry}, {rz})",
                    rp.out_off
                )
            },
        );
        out_offs.push(rp.out_off);
        prove_tape(
            p,
            (&format!("row {r}"), r),
            &rp.tape,
            rp.max_sp,
            f,
            &written,
        );
        // BS011: the fast-chain evaluators execute `rp.fast` INSTEAD of
        // the tape, loading each entry as a grid row (plain or split) or
        // a plain scratch row; a divergent chain would read taps the tape
        // obligations never covered, or a shifted scratch row as a plain
        // one. Recompute it from the tape and demand equality. A stored
        // `None` where a chain exists merely forfeits the fast path — safe.
        if let Some(fr) = &rp.fast {
            p.obligation(
                fuse::fast_row(&rp.tape, &f.taps).as_ref() == Some(fr),
                LintCode::UnsafeFastRowDivergent,
                Some(r),
                || format!("row {r}: stored fast chain diverges from its tape"),
            );
        }
    }
    // BS007: non-temporal stores bypass the cache; two rows writing the
    // same offset would race with themselves and with any tap that the
    // sfence was meant to order. Distinct offsets plus the proven
    // out ≠ in slabs (separate allocations in the executors) give
    // no-alias outright.
    out_offs.sort_unstable();
    let dup = out_offs.windows(2).position(|pair| pair[0] == pair[1]);
    p.obligation(dup.is_none(), LintCode::UnsafeStoreOverlap, None, || {
        format!(
            "two fused rows store to the same block offset {}",
            out_offs[dup.unwrap()]
        )
    });
}

/// Tap-table obligations: the grid/scratch partition and the brick table
/// the executors resolve (BS004), per-tap geometry (BS001–BS003) and
/// scratch slots and reach (BS012, BS014).
fn prove_tap_table(p: &mut Prover, w: usize, vol: usize, f: &FusedKernel) {
    let (ntaps, grid) = (f.taps.len(), f.grid_taps);
    // BS004: executors rewrite `rtaps[..grid_taps]` per block from the
    // brick table and resolve the rest once as scratch taps, so the
    // declared count must split the table exactly there.
    let kinds_ok = grid <= ntaps
        && f.taps[..grid].iter().all(Tap::is_grid)
        && !f.taps[grid..].iter().any(Tap::is_grid);
    p.obligation(kinds_ok, LintCode::UnsafeTapIndexInvalid, None, || {
        format!("declared {grid} grid taps do not lead the {ntaps}-entry tap table")
    });
    p.obligation(
        f.brick_taps.is_empty() || f.brick_taps.len() == grid,
        LintCode::UnsafeTapIndexInvalid,
        None,
        || {
            format!(
                "brick tap table ({} entries) does not match the {grid} grid taps",
                f.brick_taps.len()
            )
        },
    );
    for (i, tap) in f.taps.iter().enumerate() {
        match *tap {
            // BS003: split-row gathers assume a genuine two-brick seam.
            Tap::Shifted { dx, .. } => p.obligation(
                dx != 0 && (dx.unsigned_abs() as usize) < w,
                LintCode::UnsafeSeamInvalid,
                Some(i),
                || format!("tap {i}: shift distance {dx} invalid for width {w}"),
            ),
            Tap::Window { lane0, lanes, .. } => p.obligation(
                lanes > 0 && lane0 as usize + lanes as usize <= w,
                LintCode::UnsafeScratchReach,
                Some(i),
                || format!("tap {i}: window lanes {lane0}+{lanes} overhang a {w}-lane row"),
            ),
            Tap::Scratch { .. } | Tap::ScratchShifted { .. } | Tap::Padded { .. } => {
                for s in tap.scratch_slots() {
                    p.obligation(
                        (s as usize) < f.scratch_rows,
                        LintCode::UnsafeScratchSlot,
                        Some(i),
                        || {
                            format!(
                                "tap {i}: scratch slot {s} past the {}-row buffer",
                                f.scratch_rows
                            )
                        },
                    );
                }
                match *tap {
                    Tap::ScratchShifted { dx, .. } => p.obligation(
                        dx != 0 && (dx.unsigned_abs() as usize) < w,
                        LintCode::UnsafeScratchReach,
                        Some(i),
                        || format!("tap {i}: scratch shift {dx} reaches past a {w}-lane row"),
                    ),
                    // the row's lanes start `pad` values into its slot
                    Tap::Padded { dx, .. } => p.obligation(
                        dx.unsigned_abs() as usize <= f.pad,
                        LintCode::UnsafeScratchReach,
                        Some(i),
                        || format!("tap {i}: padded shift {dx} leaves the {}-lane apron", f.pad),
                    ),
                    _ => {}
                }
            }
            Tap::Direct { .. } => {}
        }
    }
    for (i, bt) in f.brick_taps.iter().enumerate() {
        let (nidx_ok, off) = match *bt {
            BrickTap::Direct { nidx, off } => (nidx < 27, off),
            BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx,
            } => {
                p.obligation(
                    dx != 0 && dx.unsigned_abs() < w,
                    LintCode::UnsafeSeamInvalid,
                    Some(i),
                    || format!("brick tap {i}: seam shift {dx} invalid for width {w}"),
                );
                (hnidx < 27 && nnidx < 27, off)
            }
            BrickTap::Window {
                nidx,
                off,
                lane0,
                lanes,
            } => {
                p.obligation(
                    lanes > 0 && lane0 as usize + lanes as usize <= w,
                    LintCode::UnsafeScratchReach,
                    Some(i),
                    || {
                        format!(
                            "brick tap {i}: window lanes {lane0}+{lanes} overhang a {w}-lane row"
                        )
                    },
                );
                (nidx < 27, off)
            }
        };
        p.obligation(nidx_ok, LintCode::UnsafeTapNeighborInvalid, Some(i), || {
            format!("brick tap {i}: neighbour index outside the 27-entry table")
        });
        p.obligation(
            off + w <= vol,
            LintCode::UnsafeTapEscapesSlab,
            Some(i),
            || format!("brick tap {i}: row offset {off} + width {w} escapes brick volume {vol}"),
        );
    }
}

/// BS015 for scratch program `k`, a pad fill of `apron` lanes reading
/// `[home, minus, plus]`: the apron fits the slot's `pad` lanes on
/// either side (memory), and the fill copies one direct home row and
/// exactly the `apron` lanes of its `−x` and `+x` neighbour rows that
/// wrap into the apron (values).
fn prove_pad(p: &mut Prover, k: usize, w: usize, f: &FusedKernel, taps: [u16; 3], apron: u16) {
    p.obligation(
        apron as usize <= f.pad,
        LintCode::UnsafePadFill,
        Some(k),
        || {
            format!(
                "scratch program {k}: pad apron {apron} exceeds the {}-lane slot apron",
                f.pad
            )
        },
    );
    let tap = |t: u16| f.taps.get(t as usize).copied();
    let Some(Tap::Direct { rx: 0, ry, rz }) = tap(taps[0]) else {
        p.obligation(false, LintCode::UnsafePadFill, Some(k), || {
            format!("scratch program {k}: pad fill's home tap is not a direct home row")
        });
        return;
    };
    let window = |rx: i8, lane0: usize| Tap::Window {
        rx,
        ry,
        rz,
        lane0: lane0 as u16,
        lanes: apron,
    };
    let lanes_ok = apron > 0 && apron as usize <= w;
    for (t, want) in [
        (taps[1], window(-1, w.saturating_sub(apron as usize))),
        (taps[2], window(1, 0)),
    ] {
        p.obligation(
            lanes_ok && tap(t) == Some(want),
            LintCode::UnsafePadFill,
            Some(k),
            || format!("scratch program {k}: pad window tap {t} is not {want:?}"),
        );
    }
}

/// Per-tape obligations: tap indices and kinds (BS004), scratch rows
/// written before read (BS013), padded reads within their apron (BS015),
/// and stack discipline (BS005). `(what, at)`
/// names the tape's owner — an output row or a scratch program — and its
/// index, which anchors the whole-tape BS005 diagnostic.
fn prove_tape(
    p: &mut Prover,
    (what, at): (&str, usize),
    tape: &[TapeOp],
    declared_sp: usize,
    f: &FusedKernel,
    written: &[Option<u16>],
) {
    let ntaps = f.taps.len();
    let mut sp: usize = 0;
    let mut max_sp: usize = 0;
    let mut underflow = false;
    for (i, op) in tape.iter().enumerate() {
        if let Some(tap) = op.tap() {
            // BS004: the evaluators index the resolved-tap array with
            // this id, and a window tap is a fill source, not an operand.
            let t = f.taps.get(tap as usize);
            p.obligation(
                t.is_some_and(|t| !matches!(t, Tap::Window { .. })),
                LintCode::UnsafeTapIndexInvalid,
                Some(i),
                || format!("{what} tape op {i}: tap {tap} is not an operand of the {ntaps}-entry table"),
            );
            for s in t.into_iter().flat_map(Tap::scratch_slots) {
                let apron = written.get(s as usize).copied().flatten();
                p.obligation(
                    apron.is_some(),
                    LintCode::UnsafeScratchUnwritten,
                    Some(i),
                    || format!("{what} tape op {i}: scratch slot {s} read before it is written"),
                );
                if let (Some(&Tap::Padded { dx, .. }), Some(a)) = (t, apron) {
                    p.obligation(
                        dx.unsigned_abs() <= a,
                        LintCode::UnsafePadFill,
                        Some(i),
                        || {
                            format!(
                                "{what} tape op {i}: padded shift {dx} reads past the \
                                 {a}-lane apron slot {s}'s fill wrote"
                            )
                        },
                    );
                }
            }
        }
        match op {
            TapeOp::Push => {
                sp += 1;
                max_sp = max_sp.max(sp);
            }
            TapeOp::PopAdd | TapeOp::PopFma { .. } => {
                if sp == 0 {
                    underflow = true;
                } else {
                    sp -= 1;
                }
            }
            _ => {}
        }
    }
    // BS005: the evaluators' fixed-size value stacks index `stack[sp]`
    // unchecked; the declared max_sp picks the (possibly stackless)
    // instantiation, so it must equal the true depth exactly.
    p.obligation(
        !underflow && max_sp <= MAX_STACK && declared_sp == max_sp,
        LintCode::UnsafeStackDiscipline,
        Some(at),
        || {
            format!(
                "{what}: declared stack depth {declared_sp} disagrees with the tape (depth {max_sp}, underflow: {underflow})"
            )
        },
    );
}
