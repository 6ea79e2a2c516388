//! Bricked grid storage: the slab of brick data plus decomposition and
//! adjacency.

use std::sync::Arc;

use brick_dsl::dense::zeroed_buffer;
use brick_dsl::DenseGrid;
use rayon::prelude::*;

use crate::adjacency::BrickInfo;
use crate::decomp::{BrickDecomp, BrickOrdering};
use crate::layout::BrickDims;
use crate::nav::BrickNav;

/// A 3-D field stored in brick layout.
///
/// All bricks (interior + ghost) live in one contiguous `Vec<f64>`; brick
/// `b` occupies `data[b·volume .. (b+1)·volume]`. Decomposition and
/// adjacency are shared (`Arc`) so that the input and output grids of an
/// out-of-place sweep reuse the same metadata, as BrickLib does.
#[derive(Debug, Clone)]
pub struct BrickGrid {
    nav: BrickNav,
    data: Vec<f64>,
}

impl BrickGrid {
    /// Zero-filled bricked grid over the given decomposition.
    pub fn new(decomp: Arc<BrickDecomp>) -> Self {
        let info = Arc::new(decomp.build_adjacency());
        Self::with_metadata(decomp, info)
    }

    /// Zero-filled grid sharing existing metadata (cheap second grid for
    /// out-of-place sweeps).
    pub fn with_metadata(decomp: Arc<BrickDecomp>, info: Arc<BrickInfo>) -> Self {
        let len = decomp.num_bricks() * decomp.dims().volume();
        BrickGrid {
            nav: BrickNav::from_parts(decomp, info),
            data: zeroed_buffer(len),
        }
    }

    /// Build a bricked grid from a dense grid, using the dense grid's halo
    /// width as the stencil radius the ghost shell must cover.
    ///
    /// Interior extents must be multiples of the brick extents. Halo
    /// points are copied into ghost bricks; ghost-brick elements beyond
    /// the dense halo stay zero.
    pub fn from_dense(dense: &DenseGrid, dims: BrickDims) -> Self {
        Self::from_dense_ordered(dense, dims, BrickOrdering::Lexicographic)
    }

    /// [`Self::from_dense`] with an explicit brick memory ordering.
    pub fn from_dense_ordered(dense: &DenseGrid, dims: BrickDims, ordering: BrickOrdering) -> Self {
        let decomp = Arc::new(BrickDecomp::new(
            dense.extents(),
            dims,
            dense.halo().max(1),
            ordering,
        ));
        let mut grid = Self::new(decomp);
        grid.copy_from_dense(dense);
        grid
    }

    /// Overwrite brick contents from a dense grid with matching extents.
    ///
    /// Every brick element at a logical point inside the dense grid
    /// (halo included) takes that point's value; every other element is
    /// zeroed. Bricks fill in parallel, one `bx` row at a time: the part
    /// of a row inside the dense grid is one slice copy from
    /// [`DenseGrid::raw`], and the rest of the row is zero-filled.
    pub fn copy_from_dense(&mut self, dense: &DenseGrid) {
        assert_eq!(self.decomp().extents(), dense.extents(), "extent mismatch");
        let dims = self.decomp().dims();
        let decomp = Arc::clone(self.decomp());
        let halo = dense.halo() as i64;
        let (nx, ny, nz) = dense.extents();
        // exclusive upper bounds of the dense grid's logical coordinates
        let end = [nx as i64 + halo, ny as i64 + halo, nz as i64 + halo];
        let src = dense.raw();
        self.data
            .par_chunks_mut(dims.volume())
            .enumerate()
            .for_each(|(id, chunk)| {
                let origin = brick_origin(&decomp, id as u32);
                // the brick's x-span inside the dense grid, brick-local
                let lo = (-halo - origin[0]).clamp(0, dims.bx as i64);
                let hi = (end[0] - origin[0]).clamp(lo, dims.bx as i64);
                let (lo, hi) = (lo as usize, hi as usize);
                for (row, dst) in chunk.chunks_exact_mut(dims.bx).enumerate() {
                    let y = origin[1] + (row % dims.by) as i64;
                    let z = origin[2] + (row / dims.by) as i64;
                    let outside = y < -halo || y >= end[1] || z < -halo || z >= end[2];
                    if outside || lo == hi {
                        dst.fill(0.0);
                        continue;
                    }
                    let at = dense.storage_index(origin[0] + lo as i64, y, z);
                    dst[..lo].fill(0.0);
                    dst[lo..hi].copy_from_slice(&src[at..at + (hi - lo)]);
                    dst[hi..].fill(0.0);
                }
            });
    }

    /// Convert back to a dense grid (halo width = the ghost coverage the
    /// decomposition was built with, clamped to what the dense grid holds).
    ///
    /// Dense z-planes fill in parallel, one row at a time: each row is a
    /// run of slice copies, one per brick it crosses.
    pub fn to_dense(&self) -> DenseGrid {
        let (nx, ny, nz) = self.decomp().extents();
        let dims = self.decomp().dims();
        let ghost = self.decomp().ghost_layers();
        let halo = (ghost[0] * dims.bx)
            .min(ghost[1] * dims.by)
            .min(ghost[2] * dims.bz);
        let mut dense = DenseGrid::new(nx, ny, nz, halo);
        let h = halo as i64;
        let (sx, sy) = (nx + 2 * halo, ny + 2 * halo);
        let decomp = self.decomp();
        let vol = dims.volume();
        dense
            .raw_mut()
            .par_chunks_mut(sx * sy)
            .enumerate()
            .for_each(|(iz, plane)| {
                let z = iz as i64 - h;
                for (iy, row) in plane.chunks_exact_mut(sx).enumerate() {
                    let y = iy as i64 - h;
                    let mut at = 0;
                    while at < sx {
                        let (b, off) = decomp.locate(at as i64 - h, y, z);
                        let len = (dims.bx - off % dims.bx).min(sx - at);
                        let from = b as usize * vol + off;
                        row[at..at + len].copy_from_slice(&self.data[from..from + len]);
                        at += len;
                    }
                }
            });
        dense
    }

    /// The decomposition.
    pub fn decomp(&self) -> &Arc<BrickDecomp> {
        self.nav.decomp()
    }

    /// The adjacency table.
    pub fn info(&self) -> &Arc<BrickInfo> {
        self.nav.info()
    }

    /// Brick geometry.
    pub fn dims(&self) -> BrickDims {
        self.decomp().dims()
    }

    /// Total `f64` elements in the slab (ghosts included).
    pub fn storage_len(&self) -> usize {
        self.data.len()
    }

    /// Storage overhead of the layout relative to the interior points:
    /// `(slab + adjacency bytes) / interior bytes`.
    pub fn storage_overhead(&self) -> f64 {
        let interior = self.decomp().num_interior_bricks() * self.dims().volume() * 8;
        let total = self.data.len() * 8 + self.info().metadata_bytes();
        total as f64 / interior as f64
    }

    /// Read at logical (dense-convention) coordinates.
    #[inline]
    pub fn get(&self, x: i64, y: i64, z: i64) -> f64 {
        let (b, off) = self.decomp().locate(x, y, z);
        self.data[b as usize * self.dims().volume() + off]
    }

    /// Write at logical coordinates.
    #[inline]
    pub fn set(&mut self, x: i64, y: i64, z: i64, v: f64) {
        let (b, off) = self.decomp().locate(x, y, z);
        let vol = self.dims().volume();
        self.data[b as usize * vol + off] = v;
    }

    /// Brick-relative read, navigating through the **adjacency table**
    /// exactly like a generated BrickLib kernel (`bIn[b][k][j][i]` with
    /// out-of-range indices): local coordinates may extend one brick
    /// beyond `0..bdim` on each axis.
    #[inline]
    pub fn get_rel(&self, brick: u32, lx: i64, ly: i64, lz: i64) -> f64 {
        let (b, off) = self.resolve_rel(brick, lx, ly, lz);
        self.data[b as usize * self.dims().volume() + off]
    }

    /// Brick-relative write (only ever used with in-brick coordinates by
    /// kernels, but supports neighbour writes for completeness).
    #[inline]
    pub fn set_rel(&mut self, brick: u32, lx: i64, ly: i64, lz: i64, v: f64) {
        let (b, off) = self.resolve_rel(brick, lx, ly, lz);
        let vol = self.dims().volume();
        self.data[b as usize * vol + off] = v;
    }

    /// A data-free navigator sharing this grid's metadata.
    pub fn nav(&self) -> &BrickNav {
        &self.nav
    }

    /// Resolve brick-relative coordinates to `(brick, element offset)`
    /// through the adjacency table.
    #[inline]
    pub fn resolve_rel(&self, brick: u32, lx: i64, ly: i64, lz: i64) -> (u32, usize) {
        self.nav.resolve_rel(brick, lx, ly, lz)
    }

    /// Immutable view of one brick's elements.
    pub fn brick(&self, brick: u32) -> &[f64] {
        let vol = self.dims().volume();
        &self.data[brick as usize * vol..(brick as usize + 1) * vol]
    }

    /// Mutable view of one brick's elements.
    pub fn brick_mut(&mut self, brick: u32) -> &mut [f64] {
        let vol = self.dims().volume();
        &mut self.data[brick as usize * vol..(brick as usize + 1) * vol]
    }

    /// Raw slab.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw slab, for kernels that write multiple bricks.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element address (in bytes, relative to the slab base) of an element
    /// offset within a brick — the address stream the GPU simulator sees.
    #[inline]
    pub fn element_addr(&self, brick: u32, offset: usize) -> u64 {
        ((brick as u64 * self.dims().volume() as u64) + offset as u64) * 8
    }
}

/// Logical coordinates of a brick's first element: its shell coordinates
/// less the ghost layers, in points.
fn brick_origin(decomp: &BrickDecomp, brick: u32) -> [i64; 3] {
    let t = decomp.coords_of(brick);
    let ghost = decomp.ghost_layers();
    let dims = decomp.dims();
    let b = [dims.bx, dims.by, dims.bz];
    [0, 1, 2].map(|d| (t[d] as i64 - ghost[d] as i64) * b[d] as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dense(n: usize, halo: usize) -> DenseGrid {
        let mut d = DenseGrid::cubic(n, halo);
        d.fill_test_pattern();
        d
    }

    #[test]
    fn dense_roundtrip_lexicographic() {
        let dense = test_dense(8, 2);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let back = g.to_dense();
        assert_eq!(back.max_abs_diff(&dense), 0.0);
        // halo points survive the round trip too
        assert_eq!(back.get(-2, -1, 0), dense.get(-2, -1, 0));
        assert_eq!(back.get(9, 9, 9), dense.get(9, 9, 9));
    }

    #[test]
    fn dense_roundtrip_morton() {
        let dense = test_dense(8, 1);
        let g =
            BrickGrid::from_dense_ordered(&dense, BrickDims::new(4, 4, 4), BrickOrdering::Morton);
        assert_eq!(g.to_dense().max_abs_diff(&dense), 0.0);
    }

    #[test]
    fn logical_get_matches_dense_everywhere() {
        let dense = test_dense(8, 2);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        for z in -2..10 {
            for y in -2..10 {
                for x in -2..10 {
                    assert_eq!(g.get(x, y, z), dense.get(x, y, z), "({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn rel_access_crosses_bricks_via_adjacency() {
        let dense = test_dense(8, 2);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let (brick, _) = g.decomp().locate(0, 0, 0);
        // in-brick
        assert_eq!(g.get_rel(brick, 1, 2, 3), dense.get(1, 2, 3));
        // cross-brick in +x, -y, +z
        assert_eq!(g.get_rel(brick, 5, 0, 0), dense.get(5, 0, 0));
        assert_eq!(g.get_rel(brick, 0, -2, 0), dense.get(0, -2, 0));
        assert_eq!(g.get_rel(brick, 0, 0, 4), dense.get(0, 0, 4));
        // diagonal corner neighbour
        assert_eq!(g.get_rel(brick, -1, -1, -1), dense.get(-1, -1, -1));
    }

    #[test]
    fn set_rel_then_get() {
        let dense = test_dense(8, 1);
        let mut g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let (brick, _) = g.decomp().locate(4, 4, 4);
        g.set_rel(brick, 0, 0, 0, 42.0);
        assert_eq!(g.get(4, 4, 4), 42.0);
        g.set_rel(brick, -1, 0, 0, 7.0);
        assert_eq!(g.get(3, 4, 4), 7.0);
    }

    #[test]
    fn shared_metadata_between_grids() {
        let dense = test_dense(8, 1);
        let a = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let b = BrickGrid::with_metadata(Arc::clone(a.decomp()), Arc::clone(a.info()));
        assert_eq!(b.storage_len(), a.storage_len());
        assert!(b.raw().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn element_addr_is_brick_contiguous() {
        let dense = test_dense(8, 1);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let vol = g.dims().volume() as u64;
        assert_eq!(g.element_addr(0, 0), 0);
        assert_eq!(g.element_addr(0, 5), 40);
        assert_eq!(g.element_addr(3, 0), 3 * vol * 8);
    }

    #[test]
    fn storage_overhead_reflects_ghost_shell() {
        let dense = test_dense(8, 1);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        // 4^3 shell bricks vs 2^3 interior = 8x data overhead plus metadata
        assert!(g.storage_overhead() > 8.0);
        let big = test_dense(16, 1);
        let g2 = BrickGrid::from_dense(&big, BrickDims::new(4, 4, 4));
        assert!(g2.storage_overhead() < g.storage_overhead());
    }

    #[test]
    fn ghost_elements_beyond_halo_are_zero() {
        let dense = test_dense(8, 1);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        // ghost brick corner element maps to logical (-4,-4,-4), outside halo 1
        let corner = g.decomp().brick_at(0, 0, 0);
        assert_eq!(g.brick(corner)[0], 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds one brick")]
    fn rel_access_beyond_one_brick_panics_in_debug() {
        let dense = test_dense(8, 1);
        let g = BrickGrid::from_dense(&dense, BrickDims::new(4, 4, 4));
        let (brick, _) = g.decomp().locate(0, 0, 0);
        let _ = g.get_rel(brick, 8, 0, 0);
    }
}
