//! Autotuning driver: the paper's missing experiment.
//!
//! The study measures every platform at one fixed configuration (32-lane
//! rows, 4×4 transverse block, gather, lexicographic ordering) and
//! attributes the remaining 2–4× of Fig. 7's potential-speed-up plot to
//! brick-size tuning (§5.2.2). This driver runs that search: the full
//! [`brick_tuner::TuningSpace`] over every paper stencil and `(GPU,
//! model)` pair, producing a ranked table per group and the
//! tuned-vs-paper comparison (`EXPERIMENTS.md`).
//!
//! Tuner cells go through the same cell evaluator and the same cache as
//! the paper and temporal sweeps ([`brick_tuner::cell`]): each group's
//! paper baseline is the temporal sweep's `T = 1` cell and shares its
//! cached record.
//!
//! The tuner's benchmark is the repository benchmark's `tune-64` workload
//! (`perfbench`): a cold run into an emptied cache, then warm reruns that
//! must rank identically and serve every cell from the cache.

use std::fmt::Write as _;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use brick_tuner::{tune_matrix, TuneOptions, TuneReport, TuningSpace};
use gpu_sim::{GpuKind, ProgModel};

/// Default domain extent for tuning runs. The ranked tables and golden
/// artifact are pinned here (the golden size of the rest of the suite);
/// `--n` overrides for scaling studies.
pub const TUNE_N: usize = crate::golden::GOLDEN_N;

/// Named sub-spaces selectable from the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceChoice {
    /// The full default space (thousands of candidates per target).
    Full,
    /// The ~200-valid-cell smoke space (CI).
    Smoke,
    /// The two-candidate minimal space.
    Minimal,
}

impl SpaceChoice {
    /// Materialize the space.
    pub fn space(self) -> TuningSpace {
        match self {
            SpaceChoice::Full => TuningSpace::default(),
            SpaceChoice::Smoke => TuningSpace::smoke(),
            SpaceChoice::Minimal => TuningSpace::minimal(),
        }
    }

    /// Parse a CLI value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(SpaceChoice::Full),
            "smoke" => Ok(SpaceChoice::Smoke),
            "minimal" => Ok(SpaceChoice::Minimal),
            other => Err(format!(
                "unknown tuning space `{other}` (full|smoke|minimal)"
            )),
        }
    }
}

impl std::fmt::Display for SpaceChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpaceChoice::Full => "full",
            SpaceChoice::Smoke => "smoke",
            SpaceChoice::Minimal => "minimal",
        })
    }
}

/// Assemble the tuner request the way the sweep drivers assemble
/// [`crate::SweepOptions`]: same jobs plumbing, same cache
/// (`<out>/simcache`, whose cells the three pipelines share).
pub fn tune_options(
    n: usize,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    space: TuningSpace,
) -> TuneOptions {
    let mut opts = TuneOptions::new(n).space(space);
    if let Some(j) = jobs {
        opts = opts.jobs(j);
    }
    opts.cache_dir = cache_dir;
    opts
}

/// Run the full tuning matrix. Errors are already rendered.
pub fn run_tune(opts: &TuneOptions) -> Result<TuneReport, String> {
    tune_matrix(opts).map_err(|e| e.to_string())
}

/// The exact tune the golden artifact is blessed from and checked
/// against: the 7-point star on A100/CUDA over the smoke space at
/// [`GOLDEN_N`][crate::golden::GOLDEN_N]. Bless and check must build the
/// request identically or the fingerprints in the artifact drift.
pub fn golden_tune_options(jobs: Option<usize>, cache_dir: Option<PathBuf>) -> TuneOptions {
    tune_options(TUNE_N, jobs, cache_dir, TuningSpace::smoke())
        .shapes(vec![brick_dsl::shape::StencilShape::star(1)])
        .targets(vec![brick_tuner::TuneTarget {
            arch: gpu_sim::GpuArch::a100(),
            model: ProgModel::Cuda,
        }])
        .top_k(crate::golden::TUNE_GOLDEN_TOP_K)
}

/// One row of the tuned-vs-paper comparison table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneCompareRow {
    /// Stencil label.
    pub stencil: String,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// The paper's fixed configuration, GFLOP/s.
    pub paper_gflops: f64,
    /// The tuner's winner, GFLOP/s.
    pub tuned_gflops: f64,
    /// `tuned / paper` (≥ 1 by construction).
    pub gain: f64,
    /// Canonical description of the winning specialization vector.
    pub best_params: String,
    /// Whether the winner is exactly the paper configuration.
    pub paper_optimal: bool,
}

/// The tuned-vs-paper table, one row per group in report order.
pub fn tuned_vs_paper(report: &TuneReport) -> Vec<TuneCompareRow> {
    report
        .groups
        .iter()
        .map(|g| {
            let best = g.best();
            TuneCompareRow {
                stencil: g.stencil.clone(),
                gpu: g.gpu,
                model: g.model,
                paper_gflops: g.baseline.gflops,
                tuned_gflops: best.gflops,
                gain: g.gain_over_paper(),
                best_params: best.params.desc(),
                paper_optimal: best.fingerprint == g.baseline.fingerprint,
            }
        })
        .collect()
}

/// Render the comparison as a fixed-width text table.
pub fn render_tuned_vs_paper(rows: &[TuneCompareRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:<6} {:>10} {:>10} {:>7}  best",
        "stencil", "gpu", "model", "paper", "tuned", "gain"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:<6} {:>10.1} {:>10.1} {:>6.2}x  {}",
            r.stencil,
            r.gpu.to_string(),
            r.model.to_string(),
            r.paper_gflops,
            r.tuned_gflops,
            r.gain,
            if r.paper_optimal {
                "(paper config)".to_string()
            } else {
                r.best_params.clone()
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_tuner::TuneTarget;
    use gpu_sim::GpuArch;

    #[test]
    fn compare_rows_anchor_on_the_baseline() {
        let opts = TuneOptions::new(64)
            .shapes(vec![brick_dsl::shape::StencilShape::star(1)])
            .targets(vec![TuneTarget {
                arch: GpuArch::a100(),
                model: ProgModel::Cuda,
            }])
            .space(TuningSpace::minimal())
            .jobs(2);
        let report = tune_matrix(&opts).unwrap();
        let rows = tuned_vs_paper(&report);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.gain >= 1.0, "winner at least matches paper: {r:?}");
        assert!((r.gain - r.tuned_gflops / r.paper_gflops).abs() < 1e-12);
        if r.paper_optimal {
            assert_eq!(r.best_params, report.groups[0].baseline.params.desc());
        }
        let text = render_tuned_vs_paper(&rows);
        assert!(text.contains("7pt"), "{text}");
    }

    #[test]
    fn space_choice_parses() {
        assert_eq!(SpaceChoice::parse("full").unwrap(), SpaceChoice::Full);
        assert_eq!(SpaceChoice::parse("smoke").unwrap(), SpaceChoice::Smoke);
        assert_eq!(SpaceChoice::parse("minimal").unwrap(), SpaceChoice::Minimal);
        assert!(SpaceChoice::parse("everything").is_err());
        assert_eq!(SpaceChoice::Smoke.to_string(), "smoke");
    }
}
