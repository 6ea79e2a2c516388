//! Address-space geometry for trace generation.
//!
//! Traces never need field *data* — only the address each transaction
//! touches. [`ArrayAddr`] models the padded allocation of an array-layout
//! field, and [`TraceGeometry`] bundles everything required to trace a
//! kernel over a domain: layout, block geometry, and the base addresses of
//! the input and output allocations.

use std::sync::Arc;

use brick_codegen::LayoutKind;
use brick_core::{BrickDims, BrickNav, TileIter};

/// Default base address of the input allocation (arbitrary, distinct from
/// the output so the cache simulator never aliases them).
pub const DEFAULT_IN_BASE: u64 = 0x1000_0000;
/// Default base address of the output allocation.
pub const DEFAULT_OUT_BASE: u64 = 0x9000_0000;

/// Padded lexicographic address space of an array-layout field.
///
/// Rows are padded in `x` by `pad_x` elements on each side so that the
/// full-vector edge loads of generated code stay in-bounds, exactly like
/// the `PADDING` of the paper's array kernels; `y`/`z` carry the stencil
/// halo only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAddr {
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    pad_x: usize,
}

impl ArrayAddr {
    /// Address space for a domain of `extents` with the given `y`/`z` halo
    /// and an x padding of `pad_x ≥ halo` elements.
    pub fn new(extents: (usize, usize, usize), halo: usize, pad_x: usize) -> Self {
        assert!(pad_x >= halo, "x padding must cover the stencil halo");
        ArrayAddr {
            nx: extents.0,
            ny: extents.1,
            nz: extents.2,
            halo,
            pad_x,
        }
    }

    /// Total allocated elements.
    pub fn storage_len(&self) -> usize {
        (self.nx + 2 * self.pad_x) * (self.ny + 2 * self.halo) * (self.nz + 2 * self.halo)
    }

    /// Byte offset of a logical point (interior origin at `(0,0,0)`;
    /// negative coordinates address halo/padding).
    #[inline]
    pub fn addr(&self, x: i64, y: i64, z: i64) -> u64 {
        let sx = (self.nx + 2 * self.pad_x) as i64;
        let sy = (self.ny + 2 * self.halo) as i64;
        let px = self.pad_x as i64;
        let h = self.halo as i64;
        debug_assert!(
            x >= -px && x < self.nx as i64 + px,
            "x {x} outside padded row"
        );
        debug_assert!(y >= -h && y < self.ny as i64 + h, "y {y} outside halo");
        debug_assert!(z >= -h && z < self.nz as i64 + h, "z {z} outside halo");
        let idx = ((z + h) * sy + (y + h)) * sx + (x + px);
        idx as u64 * 8
    }
}

/// Everything needed to replay a kernel's address stream over a domain.
#[derive(Debug, Clone)]
pub struct TraceGeometry {
    layout: LayoutKind,
    block: BrickDims,
    extents: (usize, usize, usize),
    /// Brick navigation (brick layout only).
    nav: Option<Arc<BrickNav>>,
    /// Array addressing (array layout only).
    array: Option<ArrayAddr>,
    /// Base address of the input allocation.
    pub in_base: u64,
    /// Base address of the output allocation.
    pub out_base: u64,
}

impl TraceGeometry {
    /// Geometry for a brick-layout field.
    pub fn brick(nav: Arc<BrickNav>) -> Self {
        let extents = nav.decomp().extents();
        let block = nav.dims();
        TraceGeometry {
            layout: LayoutKind::Brick,
            block,
            extents,
            nav: Some(nav),
            array: None,
            in_base: DEFAULT_IN_BASE,
            out_base: DEFAULT_OUT_BASE,
        }
    }

    /// Geometry for an array-layout field tiled by `block`, with halo
    /// `halo` and vector-width x padding.
    pub fn array(extents: (usize, usize, usize), halo: usize, block: BrickDims) -> Self {
        TraceGeometry {
            layout: LayoutKind::Array,
            block,
            extents,
            nav: None,
            array: Some(ArrayAddr::new(extents, halo, block.bx.max(halo))),
            in_base: DEFAULT_IN_BASE,
            out_base: DEFAULT_OUT_BASE,
        }
    }

    /// The layout this geometry models.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Home-block geometry.
    pub fn block(&self) -> BrickDims {
        self.block
    }

    /// Interior extents.
    pub fn extents(&self) -> (usize, usize, usize) {
        self.extents
    }

    /// Interior points.
    pub fn interior_points(&self) -> u64 {
        let (nx, ny, nz) = self.extents;
        (nx * ny * nz) as u64
    }

    /// Number of kernel blocks (bricks or tiles) launched over the domain.
    pub fn num_blocks(&self) -> usize {
        let (nx, ny, nz) = self.extents;
        (nx / self.block.bx) * (ny / self.block.by) * (nz / self.block.bz)
    }

    /// Brick navigation (panics on array geometry).
    pub fn nav(&self) -> &BrickNav {
        self.nav
            .as_ref()
            .expect("brick navigation on array geometry")
    }

    /// Array addressing (panics on brick geometry).
    pub fn array_addr(&self) -> &ArrayAddr {
        self.array
            .as_ref()
            .expect("array addressing on brick geometry")
    }

    /// Home brick id of launch block `i` (brick layout).
    pub fn home_brick(&self, i: usize) -> u32 {
        self.nav().decomp().interior_brick(i)
    }

    /// Tile origin of launch block `i` (array layout).
    pub fn tile_origin(&self, i: usize) -> [i64; 3] {
        TileIter::over(self.extents, self.block).tile(i).origin
    }

    /// Compulsory (cold, infinite-cache) bytes for one out-of-place sweep:
    /// one read + one write per interior point.
    pub fn compulsory_bytes(&self) -> u64 {
        self.interior_points() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_core::{BrickDecomp, BrickOrdering};

    #[test]
    fn array_addr_contiguous_in_x() {
        let a = ArrayAddr::new((8, 8, 8), 2, 32);
        assert_eq!(a.addr(1, 0, 0), a.addr(0, 0, 0) + 8);
        // row stride includes 2*pad_x
        assert_eq!(a.addr(0, 1, 0), a.addr(0, 0, 0) + (8 + 64) as u64 * 8);
    }

    #[test]
    fn array_addr_padding_in_bounds() {
        let a = ArrayAddr::new((8, 8, 8), 2, 32);
        assert_eq!(a.addr(-32, 0, 0), a.addr(0, 0, 0) - 32 * 8);
        assert!(a.storage_len() >= (8 + 64) * 12 * 12);
    }

    #[test]
    #[should_panic(expected = "x padding must cover")]
    fn pad_smaller_than_halo_rejected() {
        let _ = ArrayAddr::new((8, 8, 8), 4, 2);
    }

    fn brick_geom() -> TraceGeometry {
        let d = Arc::new(BrickDecomp::new(
            (8, 8, 8),
            BrickDims::new(4, 4, 4),
            2,
            BrickOrdering::Lexicographic,
        ));
        TraceGeometry::brick(Arc::new(BrickNav::new(d)))
    }

    #[test]
    fn block_counts_match_between_layouts() {
        let bg = brick_geom();
        let ag = TraceGeometry::array((8, 8, 8), 2, BrickDims::new(4, 4, 4));
        assert_eq!(bg.num_blocks(), 8);
        assert_eq!(ag.num_blocks(), 8);
        assert_eq!(bg.interior_points(), 512);
        assert_eq!(bg.compulsory_bytes(), 512 * 16);
    }

    #[test]
    fn home_brick_enumerates_interior() {
        let bg = brick_geom();
        let d = bg.nav().decomp();
        for i in 0..bg.num_blocks() {
            assert!(d.is_interior(bg.home_brick(i)));
        }
    }

    #[test]
    fn tile_origin_matches_tile_iter() {
        let ag = TraceGeometry::array((8, 8, 8), 1, BrickDims::new(4, 4, 4));
        assert_eq!(ag.tile_origin(0), [0, 0, 0]);
        assert_eq!(ag.tile_origin(1), [4, 0, 0]);
        assert_eq!(ag.tile_origin(2), [0, 4, 0]);
    }

    #[test]
    fn bases_default_distinct() {
        let g = TraceGeometry::array((8, 8, 8), 1, BrickDims::new(4, 4, 4));
        assert_ne!(g.in_base, g.out_base);
    }
}
