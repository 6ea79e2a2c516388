//! Machine-readable native-backend throughput: `BENCH_exec.json`.
//!
//! One measurement, re-run by CI on every PR: the 7-point star (`star1`)
//! at the paper's 512³, bricks layout, executed numerically on the host
//! CPU under the interpreter and under the host's `Auto` backend — the
//! acceptance cell behind the native execution backend
//! (`brick_vm::native`). Best-of-N wall times, the relative spread across
//! repetitions (the gate's noise figure), and the full run provenance are
//! recorded. So is the first native call into the freshly allocated
//! output grid, which pays the first touch of its pages that the warm
//! best-of-N walls never see, and how much of the process the kernel
//! backed with transparent huge pages.
//!
//! [`run_bench_exec`] fails (so CI fails) when a real SIMD backend was
//! dispatched at full scale and the speedup over the interpreter fell
//! below [`MIN_NATIVE_SPEEDUP`] — the compiled backend must never
//! regress into interpreter-class throughput.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, CodegenOptions, LayoutKind};
use brick_core::{BrickDims, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{
    executor_threads, resolve_with, run_vector_brick_backend, Backend, CpuFeatures, ExecutionMode,
};

use crate::bench::{min_of, spread_of, write_bench, BenchKind};

/// Domain size of the acceptance cell: the paper's full scale.
pub const BENCH_EXEC_N: usize = 512;

/// Vector width / brick x-extent of the measured kernel (the A100's
/// warp width, as in the paper's CUDA runs).
pub const BENCH_EXEC_WIDTH: usize = 32;

/// Floor on `native.points_per_s / interpreter.points_per_s` when a real
/// SIMD backend (AVX2/NEON) was dispatched at full scale. Not enforced
/// for the portable fallback (no SIMD to credit) or at reduced `--n`
/// (cache effects change the ratio).
///
/// The floor is set from measurement, not aspiration: on the reference
/// single-core AVX2 host the compiled backend sustains 3.5–4.1× the
/// interpreter at 512³ (≈230 vs ≈60 Mpts/s). A 10× bar is not reachable
/// there even in principle — the L1-resident kernel micro-benchmark
/// (`eval_block_micro`, no DRAM traffic at all) peaks near 570 Mpts/s,
/// while 10× of the measured interpreter is ≈600 Mpts/s *including* the
/// sweep's full memory traffic (`DESIGN.md` §12 gives the measured
/// envelope). 2.5 sits below the measured band by a noise margin and
/// still catches any regression of the compiled path toward
/// interpreter-class throughput.
pub const MIN_NATIVE_SPEEDUP: f64 = 2.5;

/// Wall time and throughput of one backend over the measured cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecMeasurement {
    /// Backend that executed (`"interpreter"`, `"portable"`, `"avx2"`,
    /// `"neon"`).
    pub backend: String,
    /// Best-of-N wall seconds for one full sweep of the grid.
    pub wall_s: f64,
    /// Points per second at the best-of-N wall time.
    pub points_per_s: f64,
    /// Relative spread (`max/min - 1`) of the repetitions' wall times.
    pub spread: f64,
}

/// Descriptor of the measured cell (the document's `"exec"` key is also
/// how `bricks prof` recognizes a `BENCH_exec.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecCell {
    /// Stencil label (`"7pt"` = star-1).
    pub stencil: String,
    /// Grid layout the kernel addresses.
    pub layout: String,
    /// Domain size (points per axis).
    pub n: usize,
    /// Vector width of the generated kernel.
    pub width: usize,
    /// CPU features detected on the measuring host.
    pub cpu_features: String,
    /// Backend `Auto` dispatched to on this host.
    pub backend: String,
}

/// The complete `BENCH_exec.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchExec {
    /// Document schema (bumped with the measurement's meaning).
    pub schema: u64,
    /// What was measured, where.
    pub exec: ExecCell,
    /// Interpreter (oracle) series.
    pub interpreter: ExecMeasurement,
    /// Native series under the dispatched backend.
    pub native: ExecMeasurement,
    /// `native.points_per_s / interpreter.points_per_s`.
    pub speedup: f64,
    /// Relative spread of the per-repetition speedups (paired by index).
    pub speedup_spread: f64,
    /// The floor `speedup` was gated against (0 when no SIMD backend
    /// dispatched or the run was at reduced scale).
    pub min_speedup: f64,
    /// Wall seconds of the first native call, made into the freshly
    /// allocated output grid: the best-of-N walls plus the first touch
    /// of every output page.
    pub first_call_s: f64,
    /// `AnonHugePages` of this process in MB (10⁶ bytes) once both grids
    /// are built and the first call has written the output; `None` where
    /// `/proc/self/smaps_rollup` cannot be read.
    pub anon_huge_mb: Option<f64>,
    /// Provenance: git SHA, exec mode (always `auto`), per-repetition
    /// wall times.
    pub manifest: brick_obs::RunManifest,
}

/// `BENCH_exec.json` schema version.
pub const EXEC_SCHEMA_VERSION: u64 = 3;

/// `AnonHugePages` of this process in MB (10⁶ bytes), read from
/// `/proc/self/smaps_rollup`; `None` where that file cannot be read.
fn anon_huge_mb() -> Option<f64> {
    let rollup = fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Measure the cell at size `n` and, when `out_dir` is given, write
/// `BENCH_exec.json` there.
///
/// Fails when the dispatched backend is SIMD, `n == BENCH_EXEC_N`, and
/// the measured speedup is below [`MIN_NATIVE_SPEEDUP`].
pub fn run_bench_exec(n: usize, out_dir: Option<&Path>) -> Result<BenchExec, String> {
    let features = CpuFeatures::detect();
    let backend = resolve_with(ExecutionMode::Auto, features)?;
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let kernel = generate(
        &st,
        &b,
        LayoutKind::Brick,
        BENCH_EXEC_WIDTH,
        CodegenOptions::default(),
    )
    .map_err(|e| format!("codegen: {e}"))?;
    let config_json = format!(
        r#"{{"bench":"exec","stencil":"{}","n":{n},"width":{}}}"#,
        shape.label(),
        BENCH_EXEC_WIDTH
    );
    let manifest = brick_obs::RunManifest::begin(&config_json)
        .with_exec_mode("auto")
        .with_jobs(executor_threads() as u64);

    let mut dense = DenseGrid::cubic(n, st.radius() as usize);
    dense.fill_test_pattern();
    let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(BENCH_EXEC_WIDTH));
    let mut output = BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
    drop(dense);

    let t_first = Instant::now();
    run_vector_brick_backend(&kernel, &input, &mut output, backend)
        .map_err(|e| format!("{backend}: {e}"))?;
    let first_call_s = t_first.elapsed().as_secs_f64();
    let anon_huge_mb = anon_huge_mb();

    // Best-of-N per series: full-scale sweeps are seconds each, so three
    // repetitions bound the cost while the min discards scheduler noise;
    // smaller sizes are cheap enough for five.
    let reps: usize = if n >= BENCH_EXEC_N { 3 } else { 5 };
    let t_run = Instant::now();
    let mut measure = |series: Backend| -> Result<(ExecMeasurement, Vec<f64>), String> {
        let mut walls = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            run_vector_brick_backend(&kernel, &input, &mut output, series)
                .map_err(|e| format!("{series}: {e}"))?;
            walls.push(t.elapsed().as_secs_f64());
        }
        let wall_s = min_of(&walls);
        Ok((
            ExecMeasurement {
                backend: series.to_string(),
                wall_s,
                points_per_s: (n * n * n) as f64 / wall_s.max(1e-9),
                spread: spread_of(&walls),
            },
            walls,
        ))
    };
    let (interpreter, interp_walls) = measure(Backend::Interpreter)?;
    let (native, native_walls) = measure(backend)?;

    let rep_speedups: Vec<f64> = interp_walls
        .iter()
        .zip(&native_walls)
        .map(|(i, nv)| i / nv.max(1e-9))
        .collect();
    let speedup = interpreter.wall_s / native.wall_s.max(1e-9);
    let simd = matches!(backend, Backend::Avx2 | Backend::Neon);
    let min_speedup = if simd && n >= BENCH_EXEC_N {
        MIN_NATIVE_SPEEDUP
    } else {
        0.0
    };
    let all_walls: Vec<f64> = interp_walls.iter().chain(&native_walls).copied().collect();
    let bench = BenchExec {
        schema: EXEC_SCHEMA_VERSION,
        exec: ExecCell {
            stencil: shape.label(),
            layout: LayoutKind::Brick.to_string(),
            n,
            width: BENCH_EXEC_WIDTH,
            cpu_features: features.to_string(),
            backend: backend.to_string(),
        },
        interpreter,
        native,
        speedup,
        speedup_spread: spread_of(&rep_speedups),
        min_speedup,
        first_call_s,
        anon_huge_mb,
        manifest: manifest.finish(t_run.elapsed().as_secs_f64(), all_walls),
    };
    if let Some(dir) = out_dir {
        write_bench(dir, BenchKind::Exec, &bench)?;
    }
    if bench.speedup < min_speedup {
        return Err(format!(
            "native backend ({}) is only {:.2}x the interpreter at {n}^3 — the {:.1}x \
             acceptance floor failed",
            bench.exec.backend, bench.speedup, min_speedup
        ));
    }
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cell_measures_and_serializes() {
        // 32³ keeps this cheap in debug; the speedup floor only arms at
        // full scale with a SIMD backend, so this asserts structure and
        // sanity, not the acceptance bar.
        let b = run_bench_exec(32, None).expect("bench runs");
        assert_eq!(b.exec.stencil, "7pt");
        assert_eq!(b.exec.n, 32);
        assert_eq!(b.min_speedup, 0.0);
        assert!(b.interpreter.wall_s > 0.0 && b.native.wall_s > 0.0);
        assert!(b.speedup > 0.0);
        assert!(b.first_call_s > 0.0);
        if cfg!(target_os = "linux") {
            assert!(b.anon_huge_mb.is_some_and(|mb| mb >= 0.0));
        }
        assert_eq!(b.manifest.exec_mode.as_deref(), Some("auto"));
        assert_eq!(b.manifest.jobs, Some(executor_threads() as u64));
        let json = serde_json::to_string(&b).unwrap();
        let back: BenchExec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.exec.backend, b.exec.backend);
        assert_eq!(back.schema, EXEC_SCHEMA_VERSION);
        assert_eq!(back.first_call_s, b.first_call_s);
        assert_eq!(back.anon_huge_mb, b.anon_huge_mb);
    }
}
