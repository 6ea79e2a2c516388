//! A plain row-major 3-D grid with a ghost halo.
//!
//! `DenseGrid` is the canonical logical view of a field: every layout in
//! the workspace (tiled arrays, bricks) converts to and from it, and the
//! scalar reference executor runs on it. The halo plays the role of the
//! ghost bricks ("GB") surrounding the domain in BrickLib experiments.

use std::fmt;

use crate::hugepage;

/// A zero-filled buffer of `len` doubles for grid storage.
///
/// The zeroing stays lazy (`vec![0.0; len]` maps fresh zero pages), so a
/// page costs its first touch, not this call. Buffers of 2 MiB or more
/// are advised onto transparent huge pages on Linux: the first sweep into
/// a gigabyte grid then faults once per 2 MiB instead of once per 4 KiB
/// brick. The advice never changes the contents.
pub fn zeroed_buffer(len: usize) -> Vec<f64> {
    let mut buf = vec![0.0; len];
    if std::mem::size_of_val(buf.as_slice()) >= hugepage::HUGE_PAGE {
        hugepage::advise(&mut buf);
    }
    buf
}

/// Row-major 3-D grid of `f64` with an interior of `nx × ny × nz` points
/// and a ghost halo of `halo` points on every face.
///
/// Logical coordinates run over `-halo .. n + halo` per axis; the interior
/// is `0 .. n`. `x` is the contiguous dimension.
#[derive(Clone, PartialEq)]
pub struct DenseGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    data: Vec<f64>,
}

impl DenseGrid {
    /// Zero-filled grid with the given interior extents and halo width.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "empty grid");
        let sx = nx + 2 * halo;
        let sy = ny + 2 * halo;
        let sz = nz + 2 * halo;
        DenseGrid {
            nx,
            ny,
            nz,
            halo,
            data: zeroed_buffer(sx * sy * sz),
        }
    }

    /// Cubic grid, `n³` interior.
    pub fn cubic(n: usize, halo: usize) -> Self {
        Self::new(n, n, n, halo)
    }

    /// Interior extents `(nx, ny, nz)`.
    pub fn extents(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Halo width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Total allocated points including halo.
    pub fn storage_len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.halo as i64;
        debug_assert!(
            x >= -h
                && x < (self.nx as i64 + h)
                && y >= -h
                && y < (self.ny as i64 + h)
                && z >= -h
                && z < (self.nz as i64 + h),
            "index ({x},{y},{z}) outside grid+halo"
        );
        let sx = self.nx + 2 * self.halo;
        let sy = self.ny + 2 * self.halo;
        ((z + h) as usize * sy + (y + h) as usize) * sx + (x + h) as usize
    }

    /// Flat storage index of logical coordinates: the element's position
    /// in [`Self::raw`]. Exposed so layout simulators can derive memory
    /// addresses (`base + 8 × storage_index`).
    #[inline]
    pub fn storage_index(&self, x: i64, y: i64, z: i64) -> usize {
        self.idx(x, y, z)
    }

    /// Read the value at logical coordinates (may address the halo).
    #[inline]
    pub fn get(&self, x: i64, y: i64, z: i64) -> f64 {
        self.data[self.idx(x, y, z)]
    }

    /// Write the value at logical coordinates (may address the halo).
    #[inline]
    pub fn set(&mut self, x: i64, y: i64, z: i64, v: f64) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Fill the whole grid (halo included) from a coordinate function.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64, i64) -> f64) {
        let h = self.halo as i64;
        for z in -h..(self.nz as i64 + h) {
            for y in -h..(self.ny as i64 + h) {
                for x in -h..(self.nx as i64 + h) {
                    let i = self.idx(x, y, z);
                    self.data[i] = f(x, y, z);
                }
            }
        }
    }

    /// Deterministic smooth test pattern covering halo and interior; used
    /// throughout the test suites so every layout starts from identical
    /// data.
    pub fn fill_test_pattern(&mut self) {
        self.fill_with(|x, y, z| {
            0.1 + 0.01 * x as f64
                + 0.02 * y as f64
                + 0.03 * z as f64
                + 1e-4 * ((x * 7 + y * 13 + z * 29) % 97) as f64
        });
    }

    /// Iterate over interior coordinates in storage order `(z, y, x)`.
    pub fn interior_coords(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        let (nx, ny, nz) = (self.nx as i64, self.ny as i64, self.nz as i64);
        (0..nz).flat_map(move |z| (0..ny).flat_map(move |y| (0..nx).map(move |x| (x, y, z))))
    }

    /// Maximum absolute difference over interior points.
    pub fn max_abs_diff(&self, other: &DenseGrid) -> f64 {
        assert_eq!(self.extents(), other.extents(), "extent mismatch");
        self.interior_coords()
            .map(|(x, y, z)| (self.get(x, y, z) - other.get(x, y, z)).abs())
            .fold(0.0, f64::max)
    }

    /// Maximum relative difference over interior points
    /// (`|a−b| / max(1, |a|)`), tolerant of reassociated summation.
    pub fn max_rel_diff(&self, other: &DenseGrid) -> f64 {
        assert_eq!(self.extents(), other.extents(), "extent mismatch");
        self.interior_coords()
            .map(|(x, y, z)| {
                let a = self.get(x, y, z);
                let b = other.get(x, y, z);
                (a - b).abs() / a.abs().max(1.0)
            })
            .fold(0.0, f64::max)
    }

    /// Sum of interior values (useful as a cheap checksum in benches).
    pub fn interior_sum(&self) -> f64 {
        self.interior_coords()
            .map(|(x, y, z)| self.get(x, y, z))
            .sum()
    }

    /// Raw storage slice (halo included), storage order.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage slice.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl fmt::Debug for DenseGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseGrid {{ {}x{}x{} + halo {} }}",
            self.nx, self.ny, self.nz, self.halo
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_zeroed() {
        let g = DenseGrid::cubic(4, 2);
        assert_eq!(g.storage_len(), 8 * 8 * 8);
        assert_eq!(g.get(0, 0, 0), 0.0);
        assert_eq!(g.get(-2, -2, -2), 0.0);
        assert_eq!(g.get(5, 5, 5), 0.0);
    }

    #[test]
    fn set_get_roundtrip_interior_and_halo() {
        let mut g = DenseGrid::new(3, 4, 5, 1);
        g.set(0, 0, 0, 1.5);
        g.set(2, 3, 4, 2.5);
        g.set(-1, -1, -1, 3.5);
        g.set(3, 4, 5, 4.5);
        assert_eq!(g.get(0, 0, 0), 1.5);
        assert_eq!(g.get(2, 3, 4), 2.5);
        assert_eq!(g.get(-1, -1, -1), 3.5);
        assert_eq!(g.get(3, 4, 5), 4.5);
    }

    #[test]
    fn x_is_contiguous() {
        let mut g = DenseGrid::new(4, 2, 2, 0);
        g.fill_with(|x, y, z| (x + 10 * y + 100 * z) as f64);
        assert_eq!(&g.raw()[0..4], &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn interior_coords_cover_exactly_interior() {
        let g = DenseGrid::new(3, 2, 2, 2);
        let coords: Vec<_> = g.interior_coords().collect();
        assert_eq!(coords.len(), 12);
        assert_eq!(coords[0], (0, 0, 0));
        assert_eq!(*coords.last().unwrap(), (2, 1, 1));
    }

    #[test]
    fn diff_metrics() {
        let mut a = DenseGrid::cubic(4, 1);
        let mut b = DenseGrid::cubic(4, 1);
        a.fill_test_pattern();
        b.fill_test_pattern();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(a.max_rel_diff(&b), 0.0);
        b.set(1, 1, 1, b.get(1, 1, 1) + 0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-15);
        assert!(a.max_rel_diff(&b) > 0.0);
    }

    #[test]
    fn halo_difference_is_ignored_by_diff() {
        let mut a = DenseGrid::cubic(4, 1);
        let b = DenseGrid::cubic(4, 1);
        a.set(-1, 0, 0, 9.0);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn zero_extent_panics() {
        let _ = DenseGrid::new(0, 4, 4, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside grid")]
    fn out_of_halo_access_panics_in_debug() {
        let g = DenseGrid::cubic(4, 1);
        let _ = g.get(5, 0, 0);
    }
}
