//! The one bench entry point: `experiments --bench KIND`.
//!
//! Each [`BenchKind`] runs one gated measurement and writes
//! `BENCH_<kind>.json` under the output directory through
//! [`write_bench`]; `--n` overrides the kind's [`BenchKind::default_n`]
//! and is rejected for `overhead`, whose size is fixed.

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// A measurement `--bench` can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// The simulator's speedup over the exact oracle
    /// ([`crate::bench_sim`]).
    Sim,
    /// Native backend vs interpreter on star-7 ([`crate::bench_exec`]).
    Exec,
    /// Temporal-blocking AI and DRAM scaling ([`crate::temporal`]).
    Temporal,
    /// Instrumentation, verification and proof costs
    /// ([`crate::bench_overhead`]).
    Overhead,
}

impl BenchKind {
    /// Every kind, in the order the help text lists them.
    pub const ALL: [BenchKind; 4] = [
        BenchKind::Sim,
        BenchKind::Exec,
        BenchKind::Temporal,
        BenchKind::Overhead,
    ];

    /// Parse a CLI value; the error lists every valid kind.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown bench kind `{s}` ({})", Self::choices()))
    }

    /// The valid kinds as `sim|exec|…`.
    pub fn choices() -> String {
        Self::ALL.map(Self::name).join("|")
    }

    /// CLI name, also the `BENCH_<name>.json` stem.
    pub fn name(self) -> &'static str {
        match self {
            BenchKind::Sim => "sim",
            BenchKind::Exec => "exec",
            BenchKind::Temporal => "temporal",
            BenchKind::Overhead => "overhead",
        }
    }

    /// File the kind writes under the output directory.
    pub fn file_name(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// Domain extent the kind measures at when `--n` is not given;
    /// `None` for `overhead`, whose bounds hold only at its fixed
    /// [`OVERHEAD_N`](crate::bench_overhead::OVERHEAD_N).
    pub fn default_n(self) -> Option<usize> {
        match self {
            BenchKind::Sim => Some(crate::bench_sim::BENCH_FIDELITY_N),
            BenchKind::Exec => Some(crate::bench_exec::BENCH_EXEC_N),
            BenchKind::Temporal => Some(crate::ExperimentParams::default().n),
            BenchKind::Overhead => None,
        }
    }
}

/// Serialize `doc` to `out/BENCH_<kind>.json` and return the path.
pub fn write_bench(out: &Path, kind: BenchKind, doc: &impl Serialize) -> Result<PathBuf, String> {
    let path = out.join(kind.file_name());
    let json = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Minimum of a set of wall-time samples.
pub(crate) fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Relative spread `max/min - 1` of a set of positive samples.
pub(crate) fn spread_of(samples: &[f64]) -> f64 {
    let min = min_of(samples);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    if min > 0.0 {
        max / min - 1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_parses_back_from_its_name() {
        for kind in BenchKind::ALL {
            assert_eq!(BenchKind::parse(kind.name()), Ok(kind));
        }
        assert_eq!(BenchKind::Sim.file_name(), "BENCH_sim.json");
        let err = BenchKind::parse("nope").unwrap_err();
        assert!(err.contains("sim|exec|temporal|overhead"), "{err}");
        assert!(BenchKind::parse("tune").is_err());
        assert!(BenchKind::parse("bench-sim").is_err());
    }

    #[test]
    fn default_sizes_are_the_documented_ones() {
        let sizes = BenchKind::ALL.map(BenchKind::default_n);
        assert_eq!(sizes, [Some(128), Some(512), Some(256), None]);
        for n in sizes.into_iter().flatten() {
            assert!(crate::ExperimentParams { n }.validate().is_ok());
        }
    }
}
