//! Per-run geometry premise for fused array execution (the run-time half
//! of obligation BS001 on dense layouts).
//!
//! The array executor (`crate::exec::run_array_plan`) resolves each tap
//! to `base = origin + delta` with `origin = ((oz+h)·sy + (oy+h))·sx +
//! (ox+h)` per tile and `delta = rz·plane + ry·sx + dxe` per tap
//! (`dxe = rx·w` for direct taps, the fold-in shift `dx` for shifted
//! ones, `rx·w + lane0` for window taps), then reads lanes
//! `raw[base .. base+w]` (`base+lanes` for windows) unchecked in the SIMD
//! paths. That is in bounds iff each coordinate axis of every tap row of
//! every tile stays inside the padded slab — a condition linear in the
//! tile origin, so checking the extreme origins per axis covers all
//! tiles. The check is O(taps), run once per `run()`.

use brick_lint::Report;

use super::super::fuse::Tap;
use super::super::plan::Plan;
use super::Prover;
use brick_lint::LintCode;

/// Check every tap of `plan`'s fused program against an `nx × ny × nz`
/// interior with `halo` cells of padding on each side. Vacuously `Ok`
/// for brick-resolved plans (their bounds are discharged at compile time
/// plus the adjacency premise in `crate::exec`).
pub(crate) fn check(
    plan: &Plan,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
) -> Result<(), Box<Report>> {
    let f = &plan.fused;
    if !f.brick_taps.is_empty() {
        return Ok(());
    }
    let b = plan.block;
    let w = plan.width as i64;
    let h = halo as i64;
    let (tiles_x, tiles_y, tiles_z) = (nx / b.bx, ny / b.by, nz / b.bz);
    if tiles_x == 0 || tiles_y == 0 || tiles_z == 0 {
        // No tiles are visited; nothing to prove.
        return Ok(());
    }
    let sx = (nx + 2 * halo) as i64;
    let sy = (ny + 2 * halo) as i64;
    let sz = (nz + 2 * halo) as i64;
    let max_ox = (tiles_x as i64 - 1) * b.bx as i64;
    let max_oy = (tiles_y as i64 - 1) * b.by as i64;
    let max_oz = (tiles_z as i64 - 1) * b.bz as i64;
    let mut p = Prover::new(&format!("array {nx}x{ny}x{nz} halo {halo}"));
    for (i, tap) in f.taps.iter().enumerate() {
        // (first x offset, lanes read, ry, rz); scratch taps read the
        // worker's buffer, not the slab (BS012).
        let (dxe, len, ry, rz) = match *tap {
            Tap::Direct { rx, ry, rz } => (rx as i64 * w, w, ry as i64, rz as i64),
            Tap::Shifted { ry, rz, dx } => (dx as i64, w, ry as i64, rz as i64),
            Tap::Window {
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => (
                rx as i64 * w + lane0 as i64,
                lanes as i64,
                ry as i64,
                rz as i64,
            ),
            Tap::Scratch { .. } | Tap::ScratchShifted { .. } | Tap::Padded { .. } => continue,
        };
        // Tap base address decomposes per axis; each axis index is
        // monotone in the tile origin, so the two extreme origins bound
        // all tiles.
        let x_ok = h + dxe >= 0 && max_ox + h + dxe + len <= sx;
        let y_ok = h + ry >= 0 && max_oy + h + ry < sy;
        let z_ok = h + rz >= 0 && max_oz + h + rz < sz;
        p.obligation(
            x_ok && y_ok && z_ok,
            LintCode::UnsafeTapEscapesSlab,
            Some(i),
            || {
                format!(
                    "tap {i} (dx {dxe}, ry {ry}, rz {rz}) escapes the \
                     {sx}x{sy}x{sz} padded slab for some tile"
                )
            },
        );
    }
    p.finish().map(|_| ())
}
