//! Experiment configuration: the three kernel configurations of §4.4 and
//! the sweep parameters.

use serde::{Deserialize, Serialize};

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

    /// Validate divisibility by the largest brick extent (MI250X, 64).
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || !self.n.is_multiple_of(64) {
            return Err(format!(
                "domain extent {} must be a positive multiple of 64 \
                 (the widest brick, MI250X wave width)",
                self.n
            ));
        }
        Ok(())
    }
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
        assert_eq!(ExperimentParams::paper_full().n, 512);
    }
}
