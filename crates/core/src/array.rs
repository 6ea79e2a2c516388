//! Conventional array layout with 3-D tiling — the paper's baseline.
//!
//! The `array` configuration stores the field lexicographically (a
//! [`DenseGrid`]) and tiles the iteration space into `4 × 4 × SIMD_width`
//! tiles mapped to the `⟨z, y, x⟩` thread dimensions of a GPU thread
//! block. Unlike a brick, a tile is only an *iteration-space* construct:
//! its elements still live in `tz·ty` separate address streams of the big
//! array, which is exactly the data-movement disadvantage the paper
//! quantifies.

use brick_dsl::DenseGrid;
use rayon::prelude::*;

use crate::layout::BrickDims;

/// One tile of the iteration space: `dims` elements starting at the
/// interior point `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Interior coordinates of the tile's first point `[x, y, z]`.
    pub origin: [i64; 3],
    /// Tile extents (same shape as the brick dims of the bricked runs).
    pub dims: BrickDims,
}

impl Tile {
    /// Iterate the tile's points in `(z, y, x)` order, x fastest.
    pub fn points(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        let [ox, oy, oz] = self.origin;
        let d = self.dims;
        (0..d.bz as i64).flat_map(move |z| {
            (0..d.by as i64)
                .flat_map(move |y| (0..d.bx as i64).map(move |x| (ox + x, oy + y, oz + z)))
        })
    }
}

/// Iterator over the tiles covering a domain, in `(z, y, x)` launch order
/// (one GPU thread block per tile).
pub struct TileIter {
    extents: (usize, usize, usize),
    dims: BrickDims,
    next: usize,
    total: usize,
}

impl TileIter {
    /// Tiles of `dims` covering a domain of `extents` interior points
    /// (standalone constructor for geometry-only consumers like the trace
    /// generator).
    pub fn over(extents: (usize, usize, usize), dims: BrickDims) -> Self {
        Self::new(extents, dims)
    }

    fn new(extents: (usize, usize, usize), dims: BrickDims) -> Self {
        let (nx, ny, nz) = extents;
        assert!(
            nx % dims.bx == 0 && ny % dims.by == 0 && nz % dims.bz == 0,
            "domain {nx}x{ny}x{nz} not divisible by tile {dims}"
        );
        let total = (nx / dims.bx) * (ny / dims.by) * (nz / dims.bz);
        TileIter {
            extents,
            dims,
            next: 0,
            total,
        }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if the domain has no tiles (never happens for valid grids).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `i`-th tile in launch order.
    pub fn tile(&self, i: usize) -> Tile {
        assert!(i < self.total);
        let (nx, ny, _) = self.extents;
        let tx = nx / self.dims.bx;
        let ty = ny / self.dims.by;
        let (iz, rem) = (i / (tx * ty), i % (tx * ty));
        let (iy, ix) = (rem / tx, rem % tx);
        Tile {
            origin: [
                (ix * self.dims.bx) as i64,
                (iy * self.dims.by) as i64,
                (iz * self.dims.bz) as i64,
            ],
            dims: self.dims,
        }
    }
}

impl Iterator for TileIter {
    type Item = Tile;
    fn next(&mut self) -> Option<Tile> {
        if self.next >= self.total {
            return None;
        }
        let t = self.tile(self.next);
        self.next += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TileIter {}

/// A field in conventional (lexicographic) array layout.
///
/// Thin wrapper over [`DenseGrid`] adding tiling and the flat-address view
/// the GPU simulator traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayGrid {
    dense: DenseGrid,
}

impl ArrayGrid {
    /// Wrap a copy of an existing dense grid. The copy is a fresh
    /// [`DenseGrid::new`] buffer (huge-page advised) filled in parallel.
    pub fn from_dense(dense: &DenseGrid) -> Self {
        ArrayGrid {
            dense: par_copy(dense),
        }
    }

    /// Zero-filled array grid.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        ArrayGrid {
            dense: DenseGrid::new(nx, ny, nz, halo),
        }
    }

    /// The wrapped dense grid.
    pub fn dense(&self) -> &DenseGrid {
        &self.dense
    }

    /// Mutable view of the wrapped dense grid.
    pub fn dense_mut(&mut self) -> &mut DenseGrid {
        &mut self.dense
    }

    /// Convert back to a dense grid: a parallel copy, as in
    /// [`Self::from_dense`].
    pub fn to_dense(&self) -> DenseGrid {
        par_copy(&self.dense)
    }

    /// Interior extents.
    pub fn extents(&self) -> (usize, usize, usize) {
        self.dense.extents()
    }

    /// Read at logical coordinates.
    #[inline]
    pub fn get(&self, x: i64, y: i64, z: i64) -> f64 {
        self.dense.get(x, y, z)
    }

    /// Write at logical coordinates.
    #[inline]
    pub fn set(&mut self, x: i64, y: i64, z: i64, v: f64) {
        self.dense.set(x, y, z, v)
    }

    /// Byte address (relative to the array base) of a logical point — the
    /// address stream the GPU simulator sees for array-layout kernels.
    #[inline]
    pub fn element_addr(&self, x: i64, y: i64, z: i64) -> u64 {
        self.dense.storage_index(x, y, z) as u64 * 8
    }

    /// Tiles covering the interior with `4 × 4 × simd_width` tiles.
    pub fn tiles(&self, simd_width: usize) -> TileIter {
        self.tiles_of(BrickDims::for_simd_width(simd_width))
    }

    /// Tiles of arbitrary shape.
    pub fn tiles_of(&self, dims: BrickDims) -> TileIter {
        TileIter::new(self.dense.extents(), dims)
    }

    /// Number of distinct `x`-rows (address streams) a tile of `dims`
    /// touches, including the stencil reach: the locality metric the paper
    /// contrasts with a brick's single stream.
    pub fn tile_address_streams(dims: BrickDims, reach: [i32; 3]) -> usize {
        (dims.by + 2 * reach[1] as usize) * (dims.bz + 2 * reach[2] as usize)
    }
}

/// Elements per parallel copy chunk (512 KiB).
const COPY_CHUNK: usize = 1 << 16;

/// A bit-identical copy of `src` in a fresh [`DenseGrid::new`] buffer.
/// `DenseGrid::clone` copies on one thread into memory without huge-page
/// advice; this copies in parallel chunks, so the first touch of the new
/// pages is spread over the workers too.
fn par_copy(src: &DenseGrid) -> DenseGrid {
    let (nx, ny, nz) = src.extents();
    let mut dst = DenseGrid::new(nx, ny, nz, src.halo());
    let from = src.raw();
    dst.raw_mut()
        .par_chunks_mut(COPY_CHUNK)
        .enumerate()
        .for_each(|(i, chunk)| {
            let at = i * COPY_CHUNK;
            chunk.copy_from_slice(&from[at..at + chunk.len()]);
        });
    dst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, halo: usize) -> ArrayGrid {
        let mut d = DenseGrid::cubic(n, halo);
        d.fill_test_pattern();
        ArrayGrid::from_dense(&d)
    }

    #[test]
    fn tiles_cover_domain_exactly_once() {
        let g = grid(8, 1);
        let tiles: Vec<Tile> = g.tiles_of(BrickDims::new(4, 4, 4)).collect();
        assert_eq!(tiles.len(), 8);
        let mut seen = vec![false; 512];
        for t in &tiles {
            for (x, y, z) in t.points() {
                let i = (z * 64 + y * 8 + x) as usize;
                assert!(!seen[i], "point visited twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn tile_launch_order_is_zyx() {
        let g = grid(8, 0);
        let it = g.tiles_of(BrickDims::new(4, 4, 4));
        assert_eq!(it.tile(0).origin, [0, 0, 0]);
        assert_eq!(it.tile(1).origin, [4, 0, 0]);
        assert_eq!(it.tile(2).origin, [0, 4, 0]);
        assert_eq!(it.tile(4).origin, [0, 0, 4]);
    }

    #[test]
    fn tile_points_x_fastest() {
        let t = Tile {
            origin: [4, 0, 0],
            dims: BrickDims::new(4, 2, 1),
        };
        let pts: Vec<_> = t.points().collect();
        assert_eq!(pts[0], (4, 0, 0));
        assert_eq!(pts[1], (5, 0, 0));
        assert_eq!(pts[4], (4, 1, 0));
        assert_eq!(pts.len(), 8);
    }

    #[test]
    fn addresses_are_contiguous_in_x() {
        let g = grid(8, 2);
        let a0 = g.element_addr(0, 0, 0);
        assert_eq!(g.element_addr(1, 0, 0), a0 + 8);
        // y-step crosses a full padded row: (8 + 2*2) * 8 bytes
        assert_eq!(g.element_addr(0, 1, 0), a0 + 12 * 8);
    }

    #[test]
    fn address_streams_grow_with_reach() {
        let dims = BrickDims::for_simd_width(32);
        assert_eq!(ArrayGrid::tile_address_streams(dims, [0, 0, 0]), 16);
        assert_eq!(ArrayGrid::tile_address_streams(dims, [1, 1, 1]), 36);
        assert_eq!(ArrayGrid::tile_address_streams(dims, [4, 4, 4]), 144);
    }

    #[test]
    fn exact_size_iterator() {
        let g = grid(8, 0);
        let mut it = g.tiles_of(BrickDims::new(4, 4, 4));
        assert_eq!(it.len(), 8);
        it.next();
        assert_eq!(it.size_hint(), (7, Some(7)));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn misaligned_tiles_panic() {
        let g = grid(8, 0);
        let _ = g.tiles_of(BrickDims::new(3, 4, 4));
    }
}
