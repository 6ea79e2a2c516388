//! The row-wise layout conversions against their element-wise oracles.
//!
//! `BrickGrid::copy_from_dense` and `BrickGrid::to_dense` copy whole rows;
//! the oracles below visit one element at a time through the logical
//! accessors, which is how both conversions were first written. For
//! random extents, brick shapes, dense halos, ghost depths and both brick
//! orderings, the whole raw storage must match bit for bit, ghost zeros
//! included. The target slab starts filled with a sentinel, so a row the
//! row-wise path skips shows up. `ArrayGrid`'s conversions must equal
//! `DenseGrid::clone` without aliasing it.
//!
//! The executors' differential suites cannot catch a wrong conversion:
//! the native backend and the interpreter read the same converted grid.

use std::sync::Arc;

use brick_core::{ArrayGrid, BrickDecomp, BrickDims, BrickGrid, BrickOrdering};
use brick_dsl::DenseGrid;
use proptest::prelude::*;

/// Brick x-extents the properties draw from: odd, narrow and every
/// vector width of the study.
const BX: [usize; 6] = [1, 3, 8, 16, 32, 64];

/// Value no conversion writes: a slot still holding it was skipped.
const SENTINEL: f64 = -7.25e300;

/// Element-wise `copy_from_dense`: every brick element inside the dense
/// grid (halo included) takes the dense value, every other one is zero.
fn copy_from_dense_oracle(grid: &mut BrickGrid, dense: &DenseGrid) {
    let decomp = Arc::clone(grid.decomp());
    let dims = decomp.dims();
    let vol = dims.volume();
    let halo = dense.halo() as i64;
    let (nx, ny, nz) = dense.extents();
    let (nx, ny, nz) = (nx as i64, ny as i64, nz as i64);
    let ghost = decomp.ghost_layers();
    let b = [dims.bx as i64, dims.by as i64, dims.bz as i64];
    let data = grid.raw_mut();
    for id in 0..decomp.num_bricks() {
        let t = decomp.coords_of(id as u32);
        let origin = [0, 1, 2].map(|d| (t[d] as i64 - ghost[d] as i64) * b[d]);
        for lz in 0..b[2] {
            for ly in 0..b[1] {
                for lx in 0..b[0] {
                    let (x, y, z) = (origin[0] + lx, origin[1] + ly, origin[2] + lz);
                    let inside = x >= -halo
                        && x < nx + halo
                        && y >= -halo
                        && y < ny + halo
                        && z >= -halo
                        && z < nz + halo;
                    let off = dims.element_offset(lx as usize, ly as usize, lz as usize);
                    data[id * vol + off] = if inside { dense.get(x, y, z) } else { 0.0 };
                }
            }
        }
    }
}

/// Element-wise `to_dense`: every point of the widest halo the ghost
/// shell covers, read through `BrickGrid::get`.
fn to_dense_oracle(grid: &BrickGrid) -> DenseGrid {
    let (nx, ny, nz) = grid.decomp().extents();
    let dims = grid.dims();
    let ghost = grid.decomp().ghost_layers();
    let halo = (ghost[0] * dims.bx)
        .min(ghost[1] * dims.by)
        .min(ghost[2] * dims.bz);
    let mut dense = DenseGrid::new(nx, ny, nz, halo);
    let h = halo as i64;
    for z in -h..(nz as i64 + h) {
        for y in -h..(ny as i64 + h) {
            for x in -h..(nx as i64 + h) {
                dense.set(x, y, z, grid.get(x, y, z));
            }
        }
    }
    dense
}

/// A dense grid of distinct finite values (halo included) drawn from
/// `seed`.
fn random_dense(extents: (usize, usize, usize), halo: usize, seed: u64) -> DenseGrid {
    let (nx, ny, nz) = extents;
    let mut dense = DenseGrid::new(nx, ny, nz, halo);
    let mut s = seed;
    for (i, v) in dense.raw_mut().iter_mut().enumerate() {
        // splitmix64 step, kept to 40 bits so the value is exact
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *v = (z >> 24) as f64 - (1u64 << 39) as f64 + i as f64 * 0.5;
    }
    dense
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A zero-ghost-data grid over `decomp` with every slot set to the sentinel.
fn sentinel_grid(decomp: &Arc<BrickDecomp>) -> BrickGrid {
    let mut g = BrickGrid::new(Arc::clone(decomp));
    g.raw_mut().fill(SENTINEL);
    g
}

fn same_dense(a: &DenseGrid, b: &DenseGrid) -> bool {
    a.extents() == b.extents() && a.halo() == b.halo() && bits(a.raw()) == bits(b.raw())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn brick_conversions_match_the_element_wise_oracle(
        bx_at in 0usize..6,
        by in 1usize..=5,
        bz in 1usize..=5,
        tiles in (1usize..=3, 1usize..=3, 1usize..=3),
        halo in 0usize..=5,
        radius in 0usize..=5,
        morton in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let dims = BrickDims::new(BX[bx_at], by, bz);
        let extents = (dims.bx * tiles.0, by * tiles.1, bz * tiles.2);
        let ordering = if morton { BrickOrdering::Morton } else { BrickOrdering::Lexicographic };
        let dense = random_dense(extents, halo, seed);
        // the ghost shell is sized by its own radius, so the dense halo
        // can be narrower or wider than what the bricks cover
        let decomp = Arc::new(BrickDecomp::new(extents, dims, radius, ordering));

        let mut got = sentinel_grid(&decomp);
        got.copy_from_dense(&dense);
        let mut want = sentinel_grid(&decomp);
        copy_from_dense_oracle(&mut want, &dense);
        prop_assert!(
            bits(got.raw()) == bits(want.raw()),
            "copy_from_dense: {dims} bricks, extents {extents:?}, halo {halo}, radius {radius}, {ordering:?}"
        );

        let back = got.to_dense();
        let oracle = to_dense_oracle(&want);
        prop_assert!(
            same_dense(&back, &oracle),
            "to_dense: {dims} bricks, extents {extents:?}, halo {halo}, radius {radius}, {ordering:?}"
        );

        // from_dense sizes the shell by the dense halo: a full round trip
        let round = BrickGrid::from_dense_ordered(&dense, dims, ordering).to_dense();
        let (nx, ny, nz) = extents;
        let h = halo as i64;
        for z in -h..nz as i64 + h {
            for y in -h..ny as i64 + h {
                for x in -h..nx as i64 + h {
                    prop_assert_eq!(round.get(x, y, z).to_bits(), dense.get(x, y, z).to_bits());
                }
            }
        }
    }

    #[test]
    fn array_conversions_are_unaliased_clones(
        extents in (1usize..=40, 1usize..=9, 1usize..=9),
        halo in 0usize..=5,
        seed in any::<u64>(),
    ) {
        let dense = random_dense(extents, halo, seed);
        let array = ArrayGrid::from_dense(&dense);
        prop_assert!(same_dense(array.dense(), &dense.clone()));
        prop_assert!(array.dense().raw().as_ptr() != dense.raw().as_ptr());
        let back = array.to_dense();
        prop_assert!(same_dense(&back, &dense));
        prop_assert!(back.raw().as_ptr() != array.dense().raw().as_ptr());
    }
}

#[test]
fn array_copy_spans_many_chunks() {
    // 80 x 40 x 40 plus a halo of 2 is ~2.3 x 10^5 elements: several
    // parallel copy chunks, the last one partial, and a huge-page-sized
    // buffer
    let dense = random_dense((80, 40, 40), 2, 7);
    let array = ArrayGrid::from_dense(&dense);
    assert!(same_dense(array.dense(), &dense));
    assert!(same_dense(&array.to_dense(), &dense));
}
