//! Machine-readable simulator performance trajectory: `BENCH_sim.json`.
//!
//! Two measurements, re-run by CI on every PR so the simulator's speed is
//! tracked as data rather than anecdote:
//!
//! * **sweep throughput** — a full 64³ matrix sweep, cold (empty result
//!   cache) and warm (second run over the same cache), in cells/second;
//! * **oracle speedup** (the `fidelity` blocks) — the star-2 CUDA/A100
//!   bricks-codegen cell simulated by the exact per-block oracle
//!   ([`gpu_sim::simulate_memory_exact`]) and by the simulator
//!   ([`gpu_sim::simulate_memory_opts`]), with the wall-time ratio and a
//!   hard check that both produce identical [`gpu_sim::MemCounters`].
//!
//! [`run_bench_sim`] fails (so CI fails) if the simulator is slower than
//! the exact oracle — the memoization must never regress into a pessimum.

use std::fs;
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
use crate::config::{ExperimentParams, KernelConfig};
use crate::runner::{sweep_with, SweepOptions};

/// Wall-clock throughput of a full matrix sweep, cold vs warm cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepThroughput {
    /// Domain size the sweep ran at.
    pub n: usize,
    /// Number of records the sweep produced.
    pub cells: usize,
    /// Wall seconds with an empty result cache.
    pub cold_wall_s: f64,
    /// Wall seconds re-running over the populated cache.
    pub warm_wall_s: f64,
    /// Cells per second, cold.
    pub cold_cells_per_s: f64,
    /// Cells per second, warm.
    pub warm_cells_per_s: f64,
}

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
    /// Sweep throughput block.
    pub sweep: SweepThroughput,
    /// Oracle-vs-simulator block at the CI size.
    pub fidelity: FidelityComparison,
    /// Oracle-vs-simulator block at the paper's full 512³ — the scale where
    /// the wave-periodic fast-forward engages (`None` when the base run
    /// already is 512³).
    pub fidelity_full: Option<FidelityComparison>,
    /// Provenance of the cold throughput sweep: git SHA, jobs and cache
    /// outcome.
    pub manifest: brick_obs::RunManifest,
}

/// Domain size of the throughput sweep (the golden size: small enough
/// for CI, large enough to exercise every cell).
pub const BENCH_SWEEP_N: usize = 64;

/// Default domain size of the fidelity comparison; `--full` raises it to
/// the paper's 512³.
pub const BENCH_FIDELITY_N: usize = 128;

/// The paper-scale fidelity comparison always recorded alongside the CI
/// size: 512³ is where whole waves repeat and the fast path's periodic
/// fast-forward pays off.
pub const BENCH_FIDELITY_FULL_N: usize = 512;

fn measure_sweep(
    jobs: Option<usize>,
    scratch: &Path,
) -> Result<(SweepThroughput, brick_obs::RunManifest), String> {
    let cache_dir = scratch.join("bench-simcache");
    let _ = fs::remove_dir_all(&cache_dir);
    let opts = |cache: bool| {
        let mut o = SweepOptions::new(ExperimentParams { n: BENCH_SWEEP_N });
        if let Some(j) = jobs {
            o = o.jobs(j);
        }
        if cache {
            o = o.cache_dir(&cache_dir);
        }
        o
    };
    // Best-of-N for both phases, for the same reason as
    // `measure_fidelity`: single-shot wall times are noisier than the
    // regression gate's 10% tolerance. Each cold repetition starts from
    // a cleared cache; the warm repetitions reuse the last cold run's.
    const COLD_REPS: usize = 3;
    let mut cold_walls = Vec::with_capacity(COLD_REPS);
    let mut cold = None;
    for _ in 0..COLD_REPS {
        let _ = fs::remove_dir_all(&cache_dir);
        let t0 = Instant::now();
        let s = sweep_with(&opts(true)).map_err(|e| format!("cold bench sweep: {e}"))?;
        cold_walls.push(t0.elapsed().as_secs_f64());
        cold = Some(s);
    }
    let cold = cold.expect("COLD_REPS > 0");
    // A warm sweep is tens of milliseconds of cache reads, so its
    // relative jitter is the largest of any gated metric; ten cheap
    // repetitions pull the min close to the floor.
    const WARM_REPS: usize = 10;
    let mut warm_walls = Vec::with_capacity(WARM_REPS);
    let mut warm = None;
    for _ in 0..WARM_REPS {
        let t1 = Instant::now();
        let s = sweep_with(&opts(true)).map_err(|e| format!("warm bench sweep: {e}"))?;
        warm_walls.push(t1.elapsed().as_secs_f64());
        warm = Some(s);
    }
    let warm = warm.expect("WARM_REPS > 0");
    let _ = fs::remove_dir_all(&cache_dir);
    let cold_wall_s = min_of(&cold_walls);
    let warm_wall_s = min_of(&warm_walls);
    if cold.records.len() != warm.records.len() {
        return Err("cold and warm sweeps disagree on cell count".to_string());
    }
    let cells = cold.records.len();
    let throughput = SweepThroughput {
        n: BENCH_SWEEP_N,
        cells,
        cold_wall_s,
        warm_wall_s,
        cold_cells_per_s: cells as f64 / cold_wall_s.max(1e-9),
        warm_cells_per_s: cells as f64 / warm_wall_s.max(1e-9),
    };
    Ok((throughput, cold.manifest))
}

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

    // Minimum over repetitions: wall-clock noise on a single run is well
    // above the gate's 10% tolerance, and min is the robust estimator
    // for "how fast can this code go". The CI size is cheap enough to
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

/// Run both measurements and write `BENCH_sim.json` under `out_dir`.
///
/// Fails if the simulator is slower than the exact oracle (speedup < 1)
/// or if the counters diverge — either would mean the memoization broke.
pub fn run_bench_sim(
    fidelity_n: usize,
    jobs: Option<usize>,
    out_dir: &Path,
) -> Result<BenchSim, String> {
    let (sweep, manifest) = measure_sweep(jobs, out_dir)?;
    let fidelity = measure_fidelity(fidelity_n)?;
    let fidelity_full = if fidelity_n == BENCH_FIDELITY_FULL_N {
        None
    } else {
        Some(measure_fidelity(BENCH_FIDELITY_FULL_N)?)
    };
    let bench = BenchSim {
        schema: SCHEMA_VERSION,
        sweep,
        fidelity,
        fidelity_full,
        manifest,
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
            sweep: SweepThroughput {
                n: 64,
                cells: 108,
                cold_wall_s: 10.0,
                warm_wall_s: 1.0,
                cold_cells_per_s: 10.8,
                warm_cells_per_s: 108.0,
            },
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
