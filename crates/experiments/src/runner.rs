//! The sweep runner: every (stencil × kernel config × GPU × programming
//! model) point of the study, flattened into independent cells, fanned
//! out across worker threads ([`brick_sweep::map_cells`]) and evaluated
//! by the cell evaluator the temporal sweep and the tuner share
//! ([`brick_tuner::cell`]), which caches every cell on disk.
//!
//! Determinism contract: for a fixed configuration, [`sweep_with`]
//! produces byte-identical serialized records at **any** jobs count and
//! whether cells were computed or loaded from a warm cache. The parallel
//! reduction preserves cell order, every cell is a pure function of its
//! inputs, and shared memoisations (verification, geometry, memory
//! counters) only deduplicate work — never change values. The golden and
//! determinism suites under `crates/experiments/tests/` enforce this.

use std::fmt;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_sweep::{map_cells, Jobs};
use brick_tuner::cell::{paper_spec, Cell, Evaluator, Measurement};
use gpu_sim::{GpuArch, GpuKind, ProgModel};
use roofline::Roofline;

use crate::config::{ExperimentParams, KernelConfig};

/// One measured point of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Paper label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Kernel configuration.
    pub config: KernelConfig,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// GFLOP/s at the normalised FLOP count.
    pub gflops: f64,
    /// Empirical arithmetic intensity (FLOP/Byte at DRAM).
    pub ai: f64,
    /// Theoretical arithmetic intensity (Table 4).
    pub theoretical_ai: f64,
    /// Fraction of the empirical Roofline at the empirical AI.
    pub frac_roofline: f64,
    /// Fraction of theoretical AI.
    pub frac_theoretical_ai: f64,
    /// L1 data movement in bytes (Fig. 4 metric).
    pub l1_bytes: u64,
    /// L2 data movement in bytes.
    pub l2_bytes: u64,
    /// HBM data movement in bytes (Figs. 5/6 "Bytes accessed").
    pub dram_bytes: u64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
}

/// A complete sweep: all records plus the per-platform empirical
/// Rooflines they were scored against, and the provenance manifest of
/// the run that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    /// Parameters the sweep ran with.
    pub params: ExperimentParams,
    /// All measured points.
    pub records: Vec<Record>,
    /// Empirical Roofline per platform.
    pub rooflines: Vec<((GpuKind, ProgModel), Roofline)>,
    /// Provenance: git SHA, config hash, wall times, obs summary.
    pub manifest: brick_obs::RunManifest,
}

impl Sweep {
    /// Records matching a filter, in sweep order.
    pub fn select(
        &self,
        gpu: Option<GpuKind>,
        model: Option<ProgModel>,
        config: Option<KernelConfig>,
    ) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| gpu.is_none_or(|g| r.gpu == g))
            .filter(|r| model.is_none_or(|m| r.model == m))
            .filter(|r| config.is_none_or(|c| r.config == c))
            .collect()
    }

    /// The unique record for an exact point.
    pub fn point(
        &self,
        gpu: GpuKind,
        model: ProgModel,
        config: KernelConfig,
        stencil: &str,
    ) -> Option<&Record> {
        self.records.iter().find(|r| {
            r.gpu == gpu && r.model == model && r.config == config && r.stencil == stencil
        })
    }

    /// Roofline for a platform.
    pub fn roofline(&self, gpu: GpuKind, model: ProgModel) -> Option<&Roofline> {
        self.rooflines
            .iter()
            .find(|((g, m), _)| *g == gpu && *m == model)
            .map(|(_, r)| r)
    }
}

/// A structured sweep failure (the runner no longer panics on matrix
/// holes — an unsupported pair or a missing ceiling comes back as data).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The experiment parameters failed validation.
    InvalidParams(String),
    /// A supported `(gpu, model)` cell had no measured Roofline to score
    /// against.
    MissingRoofline {
        /// GPU of the offending cell.
        gpu: GpuKind,
        /// Programming model of the offending cell.
        model: ProgModel,
    },
    /// The on-disk result cache could not be opened.
    Cache(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidParams(msg) => write!(f, "invalid experiment parameters: {msg}"),
            SweepError::MissingRoofline { gpu, model } => {
                write!(f, "no empirical Roofline for supported pair {gpu}/{model}")
            }
            SweepError::Cache(msg) => write!(f, "result cache unavailable: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A sub-matrix selection: `None` per axis means "everything". Used by
/// the determinism suite (random sub-matrices must stay deterministic)
/// and handy for focused reruns; figure/table drivers assume the full
/// matrix and are not filter-aware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellFilter {
    /// Keep only these stencil labels (`"7pt"` … `"125pt"`).
    pub stencils: Option<Vec<String>>,
    /// Keep only these GPUs.
    pub gpus: Option<Vec<GpuKind>>,
    /// Keep only these programming models.
    pub models: Option<Vec<ProgModel>>,
    /// Keep only these kernel configurations.
    pub configs: Option<Vec<KernelConfig>>,
}

impl CellFilter {
    /// Does the cell of `shape` under `config` on `(gpu, model)` survive
    /// the filter?
    pub(crate) fn keeps(
        &self,
        shape: &StencilShape,
        config: KernelConfig,
        gpu: GpuKind,
        model: ProgModel,
    ) -> bool {
        self.stencils
            .as_ref()
            .is_none_or(|s| s.contains(&shape.label()))
            && self.gpus.as_ref().is_none_or(|g| g.contains(&gpu))
            && self.models.as_ref().is_none_or(|m| m.contains(&model))
            && self.configs.as_ref().is_none_or(|c| c.contains(&config))
    }
}

/// How to run a sweep: the study parameters plus scheduling and caching
/// choices (which, by the determinism contract, never affect results —
/// only wall time).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Study parameters (domain size).
    pub params: ExperimentParams,
    /// Worker threads for the cell fan-out.
    pub jobs: Jobs,
    /// Result-cache directory; `None` disables on-disk caching.
    pub cache_dir: Option<PathBuf>,
    /// Sub-matrix to run, in the paper and the temporal sweep (default:
    /// the full matrix).
    pub filter: CellFilter,
}

impl SweepOptions {
    /// Defaults: full matrix, no disk cache, all hardware threads.
    pub fn new(params: ExperimentParams) -> SweepOptions {
        SweepOptions {
            params,
            jobs: Jobs::Auto,
            cache_dir: None,
            filter: CellFilter::default(),
        }
    }

    /// Use exactly `n` worker threads.
    pub fn jobs(mut self, n: usize) -> SweepOptions {
        self.jobs = Jobs::N(n);
        self
    }

    /// Cache results under `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SweepOptions {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Restrict to a sub-matrix.
    pub fn filter(mut self, filter: CellFilter) -> SweepOptions {
        self.filter = filter;
        self
    }
}

/// The filtered study matrix as cells, in the canonical order records
/// are reported in: stencil → `(gpu, model)` pair (grouped by GPU) →
/// configuration. A cell's `target` indexes [`ProgModel::paper_matrix`].
fn paper_cells(filter: &CellFilter) -> Vec<Cell> {
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        for (target, (gpu, model)) in ProgModel::paper_matrix().into_iter().enumerate() {
            for config in KernelConfig::all() {
                if filter.keeps(&shape, config, gpu, model) {
                    let spec = paper_spec(GpuArch::by_kind(gpu).simd_width);
                    cells.push(Cell {
                        shape,
                        config,
                        spec,
                        target,
                    });
                }
            }
        }
    }
    cells
}

/// Records of a sweep over the paper matrix, with the Rooflines they were
/// scored against and the run's manifest.
pub(crate) struct CellRun<R> {
    pub records: Vec<R>,
    pub rooflines: Vec<((GpuKind, ProgModel), Roofline)>,
    pub manifest: brick_obs::RunManifest,
}

/// Evaluate `cells` (whose targets index [`ProgModel::paper_matrix`]) in
/// parallel through one [`Evaluator`] and project each measurement into a
/// record, in cell order — the body of [`sweep_with`] and
/// [`crate::temporal_sweep_with`]. `span` names the run's span, `label`
/// the cell fan-out.
pub(crate) fn run_cells<R: Send>(
    opts: &SweepOptions,
    span: &str,
    label: &str,
    cells: &[Cell],
    project: impl Fn(&Cell, GpuKind, ProgModel, &Roofline, Measurement) -> R + Sync,
) -> Result<CellRun<R>, SweepError> {
    opts.params.validate().map_err(SweepError::InvalidParams)?;
    let start = std::time::Instant::now();
    let manifest = brick_obs::RunManifest::begin(
        &serde_json::to_string(&opts.params).expect("params serialize"),
    );
    let n = opts.params.n;
    let _span = brick_obs::span_cat(format!("{span}:{n}^3"), "sweep");
    let targets = ProgModel::paper_matrix()
        .into_iter()
        .map(|(gpu, model)| (GpuArch::by_kind(gpu).clone(), model));
    let ev = Evaluator::open(n, opts.cache_dir.as_deref(), targets)
        .map_err(|e| SweepError::Cache(e.to_string()))?;
    let rooflines: Vec<_> = ev
        .targets()
        .iter()
        .filter_map(|t| Some(((t.arch.kind, t.model), t.roofline?)))
        .collect();
    brick_obs::info!(
        "{span}: {} cells at n={n} across {} rooflines",
        cells.len(),
        rooflines.len()
    );

    let outcomes = map_cells(label, cells, opts.jobs, |_, cell: &Cell| {
        let t0 = std::time::Instant::now();
        let t = &ev.targets()[cell.target];
        let (gpu, model) = (t.arch.kind, t.model);
        let rl = t
            .roofline
            .ok_or(SweepError::MissingRoofline { gpu, model })?;
        let record = project(cell, gpu, model, &rl, ev.measure(cell));
        Ok((record, t0.elapsed().as_secs_f64()))
    });
    // Deterministic reduction: cell order in, record order out.
    let mut records = Vec::with_capacity(cells.len());
    let mut record_wall_s = Vec::with_capacity(cells.len());
    for outcome in outcomes {
        let (record, wall) = outcome?;
        records.push(record);
        record_wall_s.push(wall);
    }
    let manifest = manifest
        .finish(start.elapsed().as_secs_f64(), record_wall_s)
        .with_sweep_info(opts.jobs.count() as u64, ev.cache_counts());
    Ok(CellRun {
        records,
        rooflines,
        manifest,
    })
}

/// Run the full study matrix — 6 stencils × 3 configurations × the
/// paper's 6 (GPU, model) pairs — in parallel, loading unchanged cells
/// from the result cache when one is configured.
///
/// Memory simulations are shared between programming models whose trace
/// and resident-wave shape coincide (CUDA and its HIP wrapper always do),
/// so the matrix costs 3 GPUs' worth of traces, not 6.
pub fn sweep_with(opts: &SweepOptions) -> Result<Sweep, SweepError> {
    let run = run_cells(
        opts,
        "sweep",
        "sweep.cells",
        &paper_cells(&opts.filter),
        |cell, gpu, model, rl, m| {
            let theoretical_ai = StencilAnalysis::of_shape(&cell.shape).theoretical_ai;
            Record {
                shape: cell.shape,
                stencil: cell.shape.label(),
                config: cell.config,
                gpu,
                model,
                gflops: m.gflops,
                ai: m.ai,
                theoretical_ai,
                frac_roofline: rl.fraction(m.gflops, m.ai),
                frac_theoretical_ai: m.ai / theoretical_ai,
                l1_bytes: m.l1_bytes,
                l2_bytes: m.l2_bytes,
                dram_bytes: m.dram_bytes,
                time_s: m.time_s,
                occupancy: m.occupancy,
                regs_per_thread: m.regs_per_thread,
                spilled: m.spilled,
                limiter: m.limiter,
            }
        },
    )?;
    Ok(Sweep {
        params: opts.params,
        records: run.records,
        rooflines: run.rooflines,
        manifest: run.manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_sweep;

    fn test_sweep() -> &'static Sweep {
        shared_sweep()
    }

    #[test]
    fn sweep_covers_the_full_matrix() {
        let s = test_sweep();
        // 6 stencils × 3 configs × 6 (gpu, model) pairs
        assert_eq!(s.records.len(), 6 * 3 * 6);
        assert_eq!(s.rooflines.len(), 6);
        for &(gpu, model) in &ProgModel::paper_matrix() {
            let recs = s.select(Some(gpu), Some(model), None);
            assert_eq!(recs.len(), 18, "{gpu} {model}");
        }
    }

    #[test]
    fn hip_wrapper_matches_cuda_in_sweep() {
        let s = test_sweep();
        for config in KernelConfig::all() {
            for stencil in ["7pt", "125pt"] {
                let c = s
                    .point(GpuKind::A100, ProgModel::Cuda, config, stencil)
                    .unwrap();
                let h = s
                    .point(GpuKind::A100, ProgModel::Hip, config, stencil)
                    .unwrap();
                assert_eq!(c.dram_bytes, h.dram_bytes);
                assert!((c.gflops - h.gflops).abs() / c.gflops < 1e-9);
            }
        }
    }

    #[test]
    fn bricks_codegen_wins_on_every_platform() {
        let s = test_sweep();
        for &(gpu, model) in &ProgModel::paper_matrix() {
            for stencil in ["7pt", "13pt", "27pt", "125pt"] {
                let bricks = s
                    .point(gpu, model, KernelConfig::BricksCodegen, stencil)
                    .unwrap();
                let array = s.point(gpu, model, KernelConfig::Array, stencil).unwrap();
                // At the 128³ test size the MI250X domain is only two
                // 64-wide bricks across (half the brick shell is ghost),
                // which costs the brick layout up to ~20% here; on the
                // other GPUs the shell is small. Full-scale ordering is
                // checked by the 256³/512³ benchmark runs.
                let tolerance = if gpu == GpuKind::Mi250xGcd { 0.8 } else { 0.95 };
                assert!(
                    bricks.gflops >= array.gflops * tolerance,
                    "{gpu} {model} {stencil}: bricks {:.0} < array {:.0}",
                    bricks.gflops,
                    array.gflops
                );
            }
        }
    }

    #[test]
    fn fractions_are_sane() {
        let s = test_sweep();
        for r in &s.records {
            assert!(r.frac_roofline > 0.0 && r.frac_roofline <= 1.2, "{r:?}");
            assert!(
                r.frac_theoretical_ai > 0.0 && r.frac_theoretical_ai <= 1.001,
                "{r:?}"
            );
            assert!(r.l1_bytes >= r.dram_bytes, "{r:?}");
        }
    }
}
