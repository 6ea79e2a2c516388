//! Static stencil analysis: FLOP counts and theoretical arithmetic
//! intensity (paper §4.4 and Table 4).
//!
//! The paper normalises every kernel to the *minimum* FLOP count for a
//! given stencil: the symmetry-exploiting schedule that sums the taps of
//! each coefficient class first, multiplies each class sum by its
//! coefficient once, and adds the class results:
//!
//! ```text
//! flops/point = (points − classes) adds within classes
//!             +  classes           multiplies
//!             + (classes − 1)      adds across classes
//!             =  points + classes − 1
//! ```
//!
//! Theoretical arithmetic intensity assumes compulsory-only data movement
//! for an out-of-place double-precision sweep: 8 B read + 8 B written per
//! point → 16 B.

use serde::{Deserialize, Serialize};

use crate::shape::StencilShape;
use crate::stencil::Stencil;

/// Compulsory bytes moved per grid point: one `f64` read + one `f64`
/// written (out-of-place), assuming perfect reuse of neighbouring reads.
pub const BYTES_PER_POINT: f64 = 16.0;

/// Static analysis results for one stencil.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StencilAnalysis {
    /// Number of stencil points (taps).
    pub points: usize,
    /// Number of unique coefficient classes.
    pub classes: usize,
    /// Minimum FLOPs per output point (`points + classes − 1`), the
    /// normalised count the paper uses for every kernel.
    pub flops_per_point: u64,
    /// FLOPs per point of the naive schedule that multiplies every tap
    /// individually (`2·points − 1`).
    pub naive_flops_per_point: u64,
    /// Theoretical arithmetic intensity in FLOP/Byte (Table 4).
    pub theoretical_ai: f64,
}

impl StencilAnalysis {
    /// Analyse a normalised stencil.
    pub fn of(stencil: &Stencil) -> Self {
        let points = stencil.points();
        let classes = stencil.coefficient_classes();
        Self::from_counts(points, classes)
    }

    /// Analyse a shape via its closed forms (identical to analysing the
    /// generated stencil; verified by tests).
    pub fn of_shape(shape: &StencilShape) -> Self {
        Self::from_counts(shape.points(), shape.unique_coefficients())
    }

    fn from_counts(points: usize, classes: usize) -> Self {
        assert!(points >= 1 && classes >= 1 && classes <= points);
        let flops_per_point = (points + classes - 1) as u64;
        StencilAnalysis {
            points,
            classes,
            flops_per_point,
            naive_flops_per_point: (2 * points - 1) as u64,
            theoretical_ai: flops_per_point as f64 / BYTES_PER_POINT,
        }
    }

    /// Total normalised FLOPs for a sweep over `n` output points.
    pub fn total_flops(&self, n: u64) -> u64 {
        self.flops_per_point * n
    }

    /// Compulsory bytes for a sweep over `n` output points.
    pub fn compulsory_bytes(&self, n: u64) -> u64 {
        (BYTES_PER_POINT as u64) * n
    }
}

/// Structural lower bound on live vector registers for any schedule of a
/// radius-`radius` star stencil fused over `temporal_degree` timesteps.
///
/// A spatial kernel (`temporal_degree == 1`) needs at least one
/// accumulator and one in-flight load. A fused kernel additionally keeps
/// every intermediate plane window register-resident (the temporal
/// lowering): each of the `temporal_degree − 1` intermediate stages holds
/// a `2·radius + 1`-plane sliding window. No register allocator can go
/// below this, so converting it through the simulator's best-case demand
/// (`gpu_sim::compiler::reg_demand`) yields a sound *upper* bound on
/// achievable occupancy — exactly what validity predicates and roofline
/// pruning need (rejecting on a lower bound of demand never rejects a
/// feasible kernel).
pub fn min_live_registers(radius: usize, temporal_degree: u32) -> u32 {
    let windows = temporal_degree.saturating_sub(1) * (2 * radius as u32 + 1);
    windows + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::StencilShape;

    /// Table 4 of the paper, verbatim.
    const TABLE4: &[(usize, f64)] = &[
        (7, 0.5),
        (13, 0.9375),
        (19, 1.375),
        (25, 1.8125),
        (27, 1.875),
        (125, 8.375),
    ];

    #[test]
    fn theoretical_ai_matches_table4() {
        for (shape, &(points, ai)) in StencilShape::paper_suite().iter().zip(TABLE4) {
            let a = StencilAnalysis::of_shape(shape);
            assert_eq!(a.points, points);
            assert_eq!(a.theoretical_ai, ai, "{shape}");
        }
    }

    #[test]
    fn flops_per_point_closed_form() {
        // star r1: 8, r2: 15, r3: 22, r4: 29; cube r1: 30, r2: 134
        let expected = [8, 15, 22, 29, 30, 134];
        for (shape, &fp) in StencilShape::paper_suite().iter().zip(&expected) {
            assert_eq!(StencilAnalysis::of_shape(shape).flops_per_point, fp);
        }
    }

    #[test]
    fn shape_and_stencil_analyses_agree() {
        for shape in StencilShape::paper_suite() {
            let via_shape = StencilAnalysis::of_shape(&shape);
            let via_stencil = StencilAnalysis::of(&shape.stencil());
            assert_eq!(via_shape, via_stencil, "{shape}");
        }
    }

    #[test]
    fn naive_flops_exceed_normalised() {
        for shape in StencilShape::paper_suite() {
            let a = StencilAnalysis::of_shape(&shape);
            assert!(a.naive_flops_per_point > a.flops_per_point);
        }
    }

    #[test]
    fn totals_scale_linearly() {
        let a = StencilAnalysis::of_shape(&StencilShape::star(2));
        assert_eq!(a.total_flops(512 * 512 * 512), 15 * 512u64.pow(3));
        // paper: 512³ × 16 B = 2.147 GB ("2.15 GBytes")
        let gb = a.compulsory_bytes(512u64.pow(3)) as f64 / 1e9;
        assert!((gb - 2.147).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn zero_points_rejected() {
        let _ = StencilAnalysis::from_counts(0, 0);
    }

    #[test]
    fn min_live_lower_bound() {
        // spatial kernels: a shape-independent floor
        assert_eq!(min_live_registers(1, 1), 2);
        assert_eq!(min_live_registers(4, 1), 2);
        // fused kernels: one (2r+1)-plane window per intermediate stage
        assert_eq!(min_live_registers(1, 2), 3 + 2);
        assert_eq!(min_live_registers(1, 4), 3 * 3 + 2);
        assert_eq!(min_live_registers(2, 2), 5 + 2);
    }
}
