//! Grid-of-bricks decomposition.
//!
//! Splits a 3-D domain into bricks, surrounds it with ghost bricks, and
//! assigns each brick a position in memory according to a pluggable
//! [`BrickOrdering`]. The indirection table produced here is the `grid`
//! array the paper's kernels index as `grid[tk][tj][ti]` (Fig. 2); because
//! all logical navigation goes through it (and through the adjacency
//! table), bricks may be laid out in any memory order — the flexibility
//! BrickLib autotunes over.

use serde::{Deserialize, Serialize};

use crate::adjacency::{BrickInfo, NO_BRICK};
use crate::layout::BrickDims;

/// Memory ordering of bricks within the storage slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BrickOrdering {
    /// Row-major in brick-grid coordinates (x fastest).
    #[default]
    Lexicographic,
    /// Morton (Z-order) curve over brick-grid coordinates; improves
    /// locality between y/z-neighbouring bricks at the cost of x-stream
    /// continuity. Exposed for the layout-ablation experiments.
    Morton,
}

/// A brick decomposition of an `nx × ny × nz` domain with ghost bricks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrickDecomp {
    dims: BrickDims,
    /// Interior extent in bricks per axis.
    interior: [usize; 3],
    /// Ghost layers in bricks per axis (each side).
    ghost: [usize; 3],
    ordering: BrickOrdering,
    /// Brick-grid coordinates (ghosts included) → brick id in memory.
    grid: Vec<u32>,
    /// Brick id → brick-grid coordinates.
    coords: Vec<[u32; 3]>,
}

impl BrickDecomp {
    /// Decompose a domain of `extents` interior points into bricks of
    /// `dims`, with enough ghost-brick layers to cover a stencil of
    /// `radius` on every axis.
    ///
    /// Each interior extent must be a positive multiple of the brick
    /// extent on that axis, and the bricks must fit the `u32` ids
    /// ([`BrickDecomp::brick_count`] is `Some`).
    pub fn new(
        extents: (usize, usize, usize),
        dims: BrickDims,
        radius: usize,
        ordering: BrickOrdering,
    ) -> Self {
        let (nx, ny, nz) = extents;
        let b = [dims.bx, dims.by, dims.bz];
        let n = [nx, ny, nz];
        for d in 0..3 {
            assert!(
                n[d] > 0 && n[d] % b[d] == 0,
                "domain extent {} (axis {d}) is not a positive multiple of brick extent {}",
                n[d],
                b[d]
            );
        }
        let total = Self::brick_count(extents, dims, radius).expect("too many bricks for u32 ids");
        let interior = [nx / dims.bx, ny / dims.by, nz / dims.bz];
        let ghost = ghost_layers(dims, radius);
        let shell = [
            interior[0] + 2 * ghost[0],
            interior[1] + 2 * ghost[1],
            interior[2] + 2 * ghost[2],
        ];

        // Enumerate all brick-grid coordinates, then order them.
        let mut order: Vec<[u32; 3]> = Vec::with_capacity(total);
        for tz in 0..shell[2] {
            for ty in 0..shell[1] {
                for tx in 0..shell[0] {
                    order.push([tx as u32, ty as u32, tz as u32]);
                }
            }
        }
        if ordering == BrickOrdering::Morton {
            order.sort_by_key(|c| morton3(c[0], c[1], c[2]));
        }

        let mut grid = vec![NO_BRICK; total];
        let mut coords = vec![[0u32; 3]; total];
        for (id, c) in order.iter().enumerate() {
            let flat = Self::flat(shell, *c);
            grid[flat] = id as u32;
            coords[id] = *c;
        }
        BrickDecomp {
            dims,
            interior,
            ghost,
            ordering,
            grid,
            coords,
        }
    }

    /// Bricks, ghost shell included, that [`BrickDecomp::new`] lays out
    /// for these arguments; `None` when an extent is not a positive
    /// multiple of its brick extent or when the bricks outnumber the
    /// `u32` ids (`u32::MAX` is [`NO_BRICK`]).
    pub fn brick_count(
        extents: (usize, usize, usize),
        dims: BrickDims,
        radius: usize,
    ) -> Option<usize> {
        let n = [extents.0, extents.1, extents.2];
        let b = [dims.bx, dims.by, dims.bz];
        let ghost = ghost_layers(dims, radius);
        let mut total = 1usize;
        for d in 0..3 {
            if n[d] == 0 || !n[d].is_multiple_of(b[d]) {
                return None;
            }
            total = total.checked_mul((n[d] / b[d]).checked_add(2 * ghost[d])?)?;
        }
        (total < NO_BRICK as usize).then_some(total)
    }

    #[inline]
    fn flat(shell: [usize; 3], c: [u32; 3]) -> usize {
        (c[2] as usize * shell[1] + c[1] as usize) * shell[0] + c[0] as usize
    }

    /// Brick geometry.
    pub fn dims(&self) -> BrickDims {
        self.dims
    }

    /// The memory ordering in use.
    pub fn ordering(&self) -> BrickOrdering {
        self.ordering
    }

    /// Interior extent in bricks per axis `[x, y, z]`.
    pub fn interior_bricks(&self) -> [usize; 3] {
        self.interior
    }

    /// Ghost layers (bricks per side) per axis `[x, y, z]`.
    pub fn ghost_layers(&self) -> [usize; 3] {
        self.ghost
    }

    /// Shell extent (interior + ghosts) in bricks per axis.
    pub fn shell_bricks(&self) -> [usize; 3] {
        [
            self.interior[0] + 2 * self.ghost[0],
            self.interior[1] + 2 * self.ghost[1],
            self.interior[2] + 2 * self.ghost[2],
        ]
    }

    /// Total number of bricks (interior + ghosts).
    pub fn num_bricks(&self) -> usize {
        self.coords.len()
    }

    /// Number of interior bricks.
    pub fn num_interior_bricks(&self) -> usize {
        self.interior.iter().product()
    }

    /// Interior extent in points `(nx, ny, nz)`.
    pub fn extents(&self) -> (usize, usize, usize) {
        (
            self.interior[0] * self.dims.bx,
            self.interior[1] * self.dims.by,
            self.interior[2] * self.dims.bz,
        )
    }

    /// Brick id at shell coordinates `(tx, ty, tz)` (0-based over the full
    /// shell, ghosts included).
    #[inline]
    pub fn brick_at(&self, tx: usize, ty: usize, tz: usize) -> u32 {
        let shell = self.shell_bricks();
        debug_assert!(tx < shell[0] && ty < shell[1] && tz < shell[2]);
        self.grid[Self::flat(shell, [tx as u32, ty as u32, tz as u32])]
    }

    /// Shell coordinates of a brick id.
    #[inline]
    pub fn coords_of(&self, brick: u32) -> [u32; 3] {
        self.coords[brick as usize]
    }

    /// True if the brick is an interior (computed) brick.
    pub fn is_interior(&self, brick: u32) -> bool {
        let c = self.coords_of(brick);
        (0..3).all(|d| {
            (c[d] as usize) >= self.ghost[d] && (c[d] as usize) < self.ghost[d] + self.interior[d]
        })
    }

    /// Iterate over interior brick ids in shell-lexicographic order (the
    /// launch order of the paper's kernels: one thread block per brick).
    pub fn interior_bricks_iter(&self) -> impl Iterator<Item = u32> + '_ {
        let g = self.ghost;
        let i = self.interior;
        (g[2]..g[2] + i[2]).flat_map(move |tz| {
            (g[1]..g[1] + i[1])
                .flat_map(move |ty| (g[0]..g[0] + i[0]).map(move |tx| self.brick_at(tx, ty, tz)))
        })
    }

    /// The `i`-th interior brick in launch order (the order of
    /// [`Self::interior_bricks_iter`]), O(1).
    pub fn interior_brick(&self, i: usize) -> u32 {
        let n = self.interior;
        assert!(i < n[0] * n[1] * n[2], "interior brick index out of range");
        let tz = i / (n[0] * n[1]);
        let rem = i % (n[0] * n[1]);
        let (ty, tx) = (rem / n[0], rem % n[0]);
        self.brick_at(tx + self.ghost[0], ty + self.ghost[1], tz + self.ghost[2])
    }

    /// Build the adjacency table for all bricks. Neighbours outside the
    /// shell are [`NO_BRICK`].
    pub fn build_adjacency(&self) -> BrickInfo {
        let shell = self.shell_bricks();
        let mut info = BrickInfo::new(self.num_bricks());
        for id in 0..self.num_bricks() as u32 {
            let c = self.coords_of(id);
            for dz in -1i32..=1 {
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let n = [
                            c[0] as i64 + dx as i64,
                            c[1] as i64 + dy as i64,
                            c[2] as i64 + dz as i64,
                        ];
                        let inside = (0..3).all(|d| n[d] >= 0 && (n[d] as usize) < shell[d]);
                        if inside {
                            let nb = self.brick_at(n[0] as usize, n[1] as usize, n[2] as usize);
                            info.set_neighbor(id, dx, dy, dz, nb);
                        }
                    }
                }
            }
        }
        info
    }

    /// Locate a logical point in the decomposition.
    ///
    /// Coordinates follow the [`brick_dsl::DenseGrid`] convention: the
    /// interior is `0..n`, negative values address the halo (which lives
    /// in ghost bricks). Returns `(brick id, element offset within brick)`.
    #[inline]
    pub fn locate(&self, x: i64, y: i64, z: i64) -> (u32, usize) {
        let b = [
            self.dims.bx as i64,
            self.dims.by as i64,
            self.dims.bz as i64,
        ];
        let p = [x, y, z];
        let mut t = [0usize; 3];
        let mut l = [0usize; 3];
        for d in 0..3 {
            let shifted = p[d] + (self.ghost[d] as i64) * b[d];
            debug_assert!(
                shifted >= 0 && shifted < (self.shell_bricks()[d] as i64) * b[d],
                "point outside ghost shell on axis {d}"
            );
            t[d] = (shifted / b[d]) as usize;
            l[d] = (shifted % b[d]) as usize;
        }
        let brick = self.brick_at(t[0], t[1], t[2]);
        (brick, self.dims.element_offset(l[0], l[1], l[2]))
    }
}

/// Ghost-brick layers per axis that cover a stencil of `radius`.
fn ghost_layers(dims: BrickDims, radius: usize) -> [usize; 3] {
    [dims.bx, dims.by, dims.bz].map(|b| radius.div_ceil(b).max(1))
}

/// 3-D Morton code (bit interleave) of brick-grid coordinates; supports
/// coordinates up to 2^21 − 1 which is far beyond any realistic brick
/// count.
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64 & 0x1f_ffff; // 21 bits
        v = (v | (v << 32)) & 0x1f00000000ffff;
        v = (v | (v << 16)) & 0x1f0000ff0000ff;
        v = (v | (v << 8)) & 0x100f00f00f00f00f;
        v = (v | (v << 4)) & 0x10c30c30c30c30c3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomp(n: usize, radius: usize, ordering: BrickOrdering) -> BrickDecomp {
        BrickDecomp::new((n, n, n), BrickDims::new(4, 4, 4), radius, ordering)
    }

    #[test]
    fn counts_and_extents() {
        let d = decomp(8, 1, BrickOrdering::Lexicographic);
        assert_eq!(d.interior_bricks(), [2, 2, 2]);
        assert_eq!(d.ghost_layers(), [1, 1, 1]);
        assert_eq!(d.shell_bricks(), [4, 4, 4]);
        assert_eq!(d.num_bricks(), 64);
        assert_eq!(d.num_interior_bricks(), 8);
        assert_eq!(d.extents(), (8, 8, 8));
        let dims = BrickDims::new(4, 4, 4);
        assert_eq!(BrickDecomp::brick_count((8, 8, 8), dims, 1), Some(64));
        assert_eq!(BrickDecomp::brick_count((6, 8, 8), dims, 1), None);
        assert_eq!(BrickDecomp::brick_count((0, 8, 8), dims, 1), None);
        // 1024002^2 x 128002 bricks: more than u32 ids can number
        let n = 4_096_000;
        assert_eq!(
            BrickDecomp::brick_count((n, n, n), BrickDims::new(4, 4, 32), 1),
            None
        );
    }

    #[test]
    fn ghost_layers_cover_radius() {
        // radius 4 with brick y-dim 4 -> 1 ghost layer; radius 5 -> 2.
        let d4 = BrickDecomp::new(
            (32, 8, 8),
            BrickDims::new(32, 4, 4),
            4,
            BrickOrdering::Lexicographic,
        );
        assert_eq!(d4.ghost_layers(), [1, 1, 1]);
        let d5 = BrickDecomp::new(
            (32, 8, 8),
            BrickDims::new(32, 4, 4),
            5,
            BrickOrdering::Lexicographic,
        );
        assert_eq!(d5.ghost_layers(), [1, 2, 2]);
    }

    #[test]
    fn brick_ids_are_a_permutation() {
        for ordering in [BrickOrdering::Lexicographic, BrickOrdering::Morton] {
            let d = decomp(8, 1, ordering);
            let mut seen = vec![false; d.num_bricks()];
            let shell = d.shell_bricks();
            for tz in 0..shell[2] {
                for ty in 0..shell[1] {
                    for tx in 0..shell[0] {
                        let id = d.brick_at(tx, ty, tz) as usize;
                        assert!(!seen[id]);
                        seen[id] = true;
                        assert_eq!(d.coords_of(id as u32), [tx as u32, ty as u32, tz as u32]);
                    }
                }
            }
            assert!(seen.iter().all(|s| *s));
        }
    }

    #[test]
    fn lexicographic_order_is_row_major() {
        let d = decomp(8, 1, BrickOrdering::Lexicographic);
        assert_eq!(d.brick_at(0, 0, 0), 0);
        assert_eq!(d.brick_at(1, 0, 0), 1);
        assert_eq!(d.brick_at(0, 1, 0), 4);
        assert_eq!(d.brick_at(0, 0, 1), 16);
    }

    #[test]
    fn morton_differs_but_is_complete() {
        let lex = decomp(8, 1, BrickOrdering::Lexicographic);
        let mor = decomp(8, 1, BrickOrdering::Morton);
        assert_eq!(lex.num_bricks(), mor.num_bricks());
        assert_ne!(
            (0..4).map(|t| mor.brick_at(t, 0, 0)).collect::<Vec<_>>(),
            (0..4).map(|t| lex.brick_at(t, 0, 0)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn interior_detection() {
        let d = decomp(8, 1, BrickOrdering::Lexicographic);
        assert!(!d.is_interior(d.brick_at(0, 0, 0)));
        assert!(d.is_interior(d.brick_at(1, 1, 1)));
        assert!(d.is_interior(d.brick_at(2, 2, 2)));
        assert!(!d.is_interior(d.brick_at(3, 3, 3)));
        assert_eq!(d.interior_bricks_iter().count(), 8);
        assert!(d.interior_bricks_iter().all(|b| d.is_interior(b)));
    }

    #[test]
    fn adjacency_matches_coords() {
        let d = decomp(8, 1, BrickOrdering::Morton);
        let info = d.build_adjacency();
        let b = d.brick_at(1, 1, 1);
        assert_eq!(info.neighbor(b, 1, 0, 0), d.brick_at(2, 1, 1));
        assert_eq!(info.neighbor(b, -1, -1, -1), d.brick_at(0, 0, 0));
        // corner ghost brick has no neighbors pointing further out
        let corner = d.brick_at(0, 0, 0);
        assert_eq!(info.neighbor(corner, -1, 0, 0), NO_BRICK);
        assert_eq!(info.neighbor(corner, 0, 0, 0), corner);
    }

    #[test]
    fn locate_interior_and_halo_points() {
        let d = decomp(8, 2, BrickOrdering::Lexicographic);
        // interior origin lives in brick (1,1,1), local (0,0,0)
        let (b, off) = d.locate(0, 0, 0);
        assert_eq!(b, d.brick_at(1, 1, 1));
        assert_eq!(off, 0);
        // halo point one step left in x lives in ghost brick (0,1,1), local x=3
        let (b, off) = d.locate(-1, 0, 0);
        assert_eq!(b, d.brick_at(0, 1, 1));
        assert_eq!(off, d.dims().element_offset(3, 0, 0));
        // far corner
        let (b, off) = d.locate(7, 7, 7);
        assert_eq!(b, d.brick_at(2, 2, 2));
        assert_eq!(off, d.dims().element_offset(3, 3, 3));
    }

    #[test]
    fn morton3_interleaves_bits() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 1);
        assert_eq!(morton3(0, 1, 0), 2);
        assert_eq!(morton3(0, 0, 1), 4);
        assert_eq!(morton3(3, 0, 0), 0b001001);
        assert_eq!(morton3(0, 3, 0), 0b010010);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn misaligned_extent_panics() {
        let _ = BrickDecomp::new(
            (10, 8, 8),
            BrickDims::new(4, 4, 4),
            1,
            BrickOrdering::Lexicographic,
        );
    }
}
