//! The four workloads and the interface the harness drives them through.

use crate::exec::ExecWorkload;
use crate::pipeline::{SweepWorkload, TuneWorkload};
use crate::Scale;

/// A workload name, as `BENCHMARK.json` and the command line spell it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// 7-point star, bricks, width 32, 512³: DRAM streaming on the fused
    /// tapes.
    ExecStar7,
    /// 7pt array, 7pt `T = 2` bricks and 125pt bricks at 256³: the
    /// step-machine fallback plus the paper's second layout.
    ExecMixed,
    /// Paper and temporal sweeps at 128³, cold then warm over one cache.
    Sweep,
    /// The tuner at 64³ over {7pt, 27pt} × {A100/CUDA, MI250X-GCD/HIP}.
    Tune,
}

impl WorkloadId {
    /// Every workload, in run order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::ExecStar7,
        WorkloadId::ExecMixed,
        WorkloadId::Sweep,
        WorkloadId::Tune,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ExecStar7 => "exec-star7-512",
            WorkloadId::ExecMixed => "exec-mixed-256",
            WorkloadId::Sweep => "sweep-128",
            WorkloadId::Tune => "tune-64",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Result<WorkloadId, String> {
        WorkloadId::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` (one of {})", names.join(", "))
            })
    }

    /// Build the workload at `scale`. `seed` fills every exec input grid;
    /// `cache_dir` holds the pipelines' result cache.
    pub fn build(
        self,
        scale: Scale,
        seed: u64,
        jobs: usize,
        cache_dir: std::path::PathBuf,
    ) -> Box<dyn Workload> {
        match self {
            WorkloadId::ExecStar7 => Box::new(ExecWorkload::star7(scale, seed)),
            WorkloadId::ExecMixed => Box::new(ExecWorkload::mixed(scale, seed)),
            WorkloadId::Sweep => Box::new(SweepWorkload::new(scale, jobs, cache_dir)),
            WorkloadId::Tune => Box::new(TuneWorkload::new(scale, jobs, cache_dir)),
        }
    }
}

/// Operations attempted and failed, failed correctness checks included.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted: exec calls, sweep records, tune groups, and
    /// one per correctness comparison.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// What failed, first few only.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count `n` operations, of which `failed` failed for `why`.
    pub fn ops(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }
}

/// A named per-layer value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`vm.body_frac`, `gpu-sim.simulations`, …).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Set-up and measured walls of one workload pass, as the harness saw
/// them: what layer metrics are computed against.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// Set-up walls.
    pub setup: Vec<f64>,
    /// Cold-repetition walls.
    pub cold: Vec<f64>,
    /// Warm-repetition walls.
    pub warm: Vec<f64>,
    /// Peak resident memory of every round, MB.
    pub peak_rss_mb: Vec<f64>,
}

/// One workload, driven by the harness as a closed loop with a single
/// caller: `setup`, then `cold`, then `warm` repeatedly, each call
/// starting only after the previous one returned. Each method times only
/// the public calls of the measured crates and returns that wall time;
/// output checks run after the clock stops.
pub trait Workload {
    /// Most warm repetitions after each cold one; the measurement budget
    /// may end a round sooner.
    fn warm_per_round(&self) -> usize;
    /// Set-ups a run measures at least, rounds included: cheap set-ups
    /// are repeated after the last round so their median is steady.
    fn min_setups(&self) -> usize {
        3
    }
    /// Warm repetitions after the cold one in a traced pass.
    fn traced_warm(&self) -> usize;
    /// Bring the workload to its fresh state: for the executor, kernels
    /// generated and input grids built and filled; for the pipelines, an
    /// emptied result cache and a small uncached warm-up pass.
    fn setup(&mut self) -> Result<f64, String>;
    /// The first repetition from the fresh state.
    fn cold(&mut self) -> Result<f64, String>;
    /// One repetition in the steady state.
    fn warm(&mut self) -> Result<f64, String>;
    /// Run the correctness gates that are not applied per repetition.
    fn check(&mut self) {}
    /// Operations attempted and failed so far.
    fn tally(&self) -> &Tally;
    /// Executor only: work of one repetition in million point-updates.
    fn mpts_per_rep(&self) -> Option<f64> {
        None
    }
    /// Measurements beyond the pass itself that this workload's layer
    /// metrics need (the executor's thread scaling and per-call split),
    /// taken untraced before the traced pass.
    fn probe_layers(&mut self) {}
    /// Layer metrics this workload's own records give. `traced` holds
    /// the walls of the traced pass, `triad_gbs` the host's measured
    /// all-thread STREAM triad.
    fn layer_metrics(&self, traced: &PassTimes, triad_gbs: f64) -> Vec<Metric>;
    /// Release large state (grids) before a new round and before the host
    /// probe runs.
    fn release(&mut self) {}
}
