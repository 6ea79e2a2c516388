//! The simulator against its exact oracle: `BENCH_sim.json`.
//!
//! The `fidelity` blocks simulate the star-2 CUDA/A100 bricks-codegen
//! cell with the exact per-block oracle ([`gpu_sim::simulate_memory_exact`])
//! and with the simulator ([`gpu_sim::simulate_memory_opts`]), and record
//! the wall-time ratio and a hard check that both produce identical
//! [`gpu_sim::MemCounters`]. [`run_bench_sim`] fails (so CI fails) if the
//! simulator is slower than the exact oracle — the memoization must never
//! regress into a pessimum.
//!
//! Sweep wall time is not measured here: the repository benchmark's
//! `sweep-128` workload times the paper and temporal sweeps cold and
//! warm, and `ci/paired-gate.sh` compares it against the base commit.

use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use brick_dsl::shape::StencilShape;
use brick_vm::{KernelSpec, TraceGeometry};
use gpu_sim::{
    compile_only, simulate_memory_exact, simulate_memory_opts, GpuArch, GpuKind, MemCounters,
    MemoryReport, ProgModel, SimOptions,
};

use brick_tuner::cell::{geometry, paper_spec, program, SCHEMA_VERSION};

use crate::bench::{min_of, write_bench, BenchKind};
use crate::config::KernelConfig;

/// Exact-oracle-vs-simulator wall time of one representative cell's
/// memory simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FidelityComparison {
    /// Stencil label (`"13pt"` = star-2).
    pub stencil: String,
    /// Kernel configuration label.
    pub config: String,
    /// GPU simulated.
    pub gpu: String,
    /// Programming model.
    pub model: String,
    /// Domain size.
    pub n: usize,
    /// Wall seconds of the exact oracle, [`simulate_memory_exact`].
    pub exact_wall_s: f64,
    /// Wall seconds of the simulator, [`simulate_memory_opts`].
    pub fast_wall_s: f64,
    /// `exact_wall_s / fast_wall_s`.
    pub speedup: f64,
    /// Whether the oracle and the simulator produced bit-identical
    /// counters (always true, or the run fails).
    pub counters_identical: bool,
}

/// The complete `BENCH_sim.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSim {
    /// Simulation schema the numbers were produced under.
    pub schema: u64,
    /// Oracle-vs-simulator block at the CI size.
    pub fidelity: FidelityComparison,
    /// Oracle-vs-simulator block at the paper's full 512³ — the scale where
    /// the wave-periodic fast-forward engages (`None` when the base run
    /// already is 512³).
    pub fidelity_full: Option<FidelityComparison>,
    /// Provenance of the fidelity runs: git SHA, configuration hash and
    /// wall time.
    pub manifest: brick_obs::RunManifest,
}

/// Default domain size of the fidelity comparison; `--full` raises it to
/// the paper's 512³.
pub const BENCH_FIDELITY_N: usize = 128;

/// The paper-scale fidelity comparison always recorded alongside the CI
/// size: 512³ is where whole waves repeat and the fast path's periodic
/// fast-forward pays off.
pub const BENCH_FIDELITY_FULL_N: usize = 512;

fn measure_fidelity(n: usize) -> Result<FidelityComparison, String> {
    let shape = StencilShape::star(2);
    let config = KernelConfig::BricksCodegen;
    let arch = GpuArch::by_kind(GpuKind::A100);
    let model = ProgModel::Cuda;
    let params = paper_spec(arch.simd_width);
    let spec = program(&shape, config, &params).map_err(|e| e.to_string())?;
    let geom = geometry(&shape, config, &params, n);
    let (_, _, occ) = compile_only(&spec, arch, model)
        .ok_or_else(|| "no compiler model for CUDA on A100".to_string())?;

    // Minimum over repetitions: wall-clock noise on a single run is tens
    // of percent on a shared host, and min is the robust estimator for
    // "how fast can this code go". The CI size is cheap enough to
    // repeat five times; paper scale gets three.
    let reps: usize = if n <= BENCH_FIDELITY_N { 5 } else { 3 };
    let opts = SimOptions::default();
    type Simulate = fn(&KernelSpec, &TraceGeometry, &GpuArch, u32, &SimOptions) -> MemoryReport;
    let run = |simulate: Simulate| {
        let mut walls = Vec::with_capacity(reps);
        let mut counters: Option<MemCounters> = None;
        for _ in 0..reps {
            let t = Instant::now();
            let c = simulate(&spec, &geom, arch, occ.blocks_per_sm, &opts).counters();
            walls.push(t.elapsed().as_secs_f64());
            counters = Some(c);
        }
        (walls, counters.expect("reps > 0"))
    };
    let (exact_walls, exact) = run(simulate_memory_exact);
    let (fast_walls, fast) = run(simulate_memory_opts);
    let exact_wall_s = min_of(&exact_walls);
    let fast_wall_s = min_of(&fast_walls);
    let counters_identical = exact == fast;
    if !counters_identical {
        return Err(format!(
            "oracle violation at n={n}: exact {exact:?} != simulator {fast:?}"
        ));
    }
    Ok(FidelityComparison {
        stencil: shape.label(),
        config: config.label().to_string(),
        gpu: arch.kind.to_string(),
        model: model.to_string(),
        n,
        exact_wall_s,
        fast_wall_s,
        speedup: exact_wall_s / fast_wall_s.max(1e-9),
        counters_identical,
    })
}

/// Run the comparison at `fidelity_n` and at 512³ and write
/// `BENCH_sim.json` under `out_dir`.
///
/// Fails if the simulator is slower than the exact oracle (speedup < 1)
/// or if the counters diverge — either would mean the memoization broke.
pub fn run_bench_sim(fidelity_n: usize, out_dir: &Path) -> Result<BenchSim, String> {
    let config_json = format!(r#"{{"bench":"sim","n":{fidelity_n}}}"#);
    let manifest = brick_obs::RunManifest::begin(&config_json).with_jobs(1);
    let t_run = Instant::now();
    let fidelity = measure_fidelity(fidelity_n)?;
    let fidelity_full = if fidelity_n == BENCH_FIDELITY_FULL_N {
        None
    } else {
        Some(measure_fidelity(BENCH_FIDELITY_FULL_N)?)
    };
    let bench = BenchSim {
        schema: SCHEMA_VERSION,
        fidelity,
        fidelity_full,
        manifest: manifest.finish(t_run.elapsed().as_secs_f64(), Vec::new()),
    };
    let path = write_bench(out_dir, BenchKind::Sim, &bench)?;
    for f in std::iter::once(&bench.fidelity).chain(bench.fidelity_full.as_ref()) {
        if f.speedup < 1.0 {
            return Err(format!(
                "the simulator is SLOWER than the exact oracle at n={} ({:.2}x) — see {}",
                f.n,
                f.speedup,
                path.display()
            ));
        }
    }
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_comparison_is_identical_and_measured() {
        // small n keeps this cheap in debug; the asserted contract is the
        // same one CI gates on at 128³ in release
        let f = measure_fidelity(64).expect("comparison runs");
        assert!(f.counters_identical);
        assert!(f.exact_wall_s > 0.0 && f.fast_wall_s > 0.0);
        assert_eq!(f.stencil, "13pt");
        assert_eq!(f.gpu, "A100");
    }

    #[test]
    fn bench_document_serializes_round_trip() {
        let bench = BenchSim {
            schema: SCHEMA_VERSION,
            fidelity: FidelityComparison {
                stencil: "13pt".into(),
                config: "bricks codegen".into(),
                gpu: "a100".into(),
                model: "cuda".into(),
                n: 128,
                exact_wall_s: 8.0,
                fast_wall_s: 1.0,
                speedup: 8.0,
                counters_identical: true,
            },
            fidelity_full: None,
            manifest: brick_obs::RunManifest::default(),
        };
        let json = serde_json::to_string(&bench).unwrap();
        let back: BenchSim = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fidelity.speedup, 8.0);
        assert_eq!(back.schema, SCHEMA_VERSION);
    }
}
