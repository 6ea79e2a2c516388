//! Experiment configuration: the three kernel configurations of §4.4 and
//! the sweep parameters.

use serde::{Deserialize, Serialize};

use brick_core::{BrickDecomp, BrickDims};
use brick_dsl::shape::StencilShape;
use gpu_sim::GpuArch;

pub use brick_tuner::KernelConfig;

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentParams {
    /// Cubic domain extent. The paper uses 512; the default 256 keeps a
    /// full sweep in CI time. Must be a multiple of every brick extent
    /// (i.e. of 64).
    pub n: usize,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams { n: 256 }
    }
}

impl ExperimentParams {
    /// The paper's full problem size (`512³` doubles).
    pub fn paper_full() -> Self {
        ExperimentParams { n: 512 }
    }

    /// Validate divisibility by the largest brick extent (MI250X, 64),
    /// and that every platform's bricks, with the ghost shell of the
    /// widest reach a sweep uses, fit the `u32` brick ids
    /// ([`BrickDecomp::brick_count`]). Runs before anything is built.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n;
        if n == 0 || !n.is_multiple_of(64) {
            return Err(format!(
                "domain extent {n} must be a positive multiple of 64 \
                 (the widest brick, MI250X wave width)"
            ));
        }
        let reach = max_reach();
        for arch in GpuArch::table() {
            let dims = BrickDims::for_simd_width(arch.simd_width);
            if BrickDecomp::brick_count((n, n, n), dims, reach).is_none() {
                return Err(format!(
                    "domain extent {n} makes more {dims} bricks ({}) than u32 ids can number",
                    arch.name
                ));
            }
        }
        Ok(())
    }
}

/// The widest ghost shell a sweep needs: the largest `T·r` over the paper
/// stencils and their feasible fusion degrees.
fn max_reach() -> usize {
    StencilShape::paper_suite()
        .iter()
        .map(|s| (s.radius * crate::temporal::feasible_degrees(s).end()) as usize)
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(ExperimentParams::default().validate().is_ok());
        assert!(ExperimentParams::paper_full().validate().is_ok());
        assert!(ExperimentParams { n: 100 }.validate().is_err());
        assert!(ExperimentParams { n: 0 }.validate().is_err());
        // a multiple of 64 whose bricks outnumber the u32 ids
        let err = ExperimentParams { n: 5_000_000 }.validate().unwrap_err();
        assert!(err.contains("u32 ids"), "{err}");
        assert_eq!(max_reach(), 4);
        assert_eq!(ExperimentParams::paper_full().n, 512);
    }
}
