//! Machine-readable native-backend throughput: `BENCH_exec.json`.
//!
//! One measurement, re-run by CI on every PR: the 7-point star (`star1`)
//! at the paper's 512³, bricks layout, executed numerically on the host
//! CPU under the interpreter and under the host's `Auto` backend — the
//! acceptance cell behind the native execution backend
//! (`brick_vm::native`). Best-of-N wall times and the full run provenance
//! are recorded. So is the first native call into the freshly allocated
//! output grid, which pays the first touch of its pages that the warm
//! best-of-N walls never see, and how much of the process the kernel
//! backed with transparent huge pages. A conversion row times the four
//! layout conversions the set-up of a run pays (dense → bricks, bricks →
//! dense, dense → array) against a measured roof: the same dense bytes
//! copied in parallel into a fresh buffer. Kernel rows give the fused
//! throughput of the kernels the 7-point cell leaves out: the 125- and
//! 27-point cubes and the `T = 2` star. The cell's bandwidth roof is
//! measured too: STREAM copy and triad at one thread and at every
//! executor thread, run before the grids exist, and the cell's
//! `triad_frac` is its 16 B/pt traffic over the all-thread triad.
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
use brick_core::{ArrayGrid, BrickDims, BrickGrid};
use brick_dsl::dense::zeroed_buffer;
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{
    executor_threads, resolve_with, run_vector_brick_backend, Backend, CpuFeatures, ExecutionMode,
    Plan,
};
use rayon::prelude::*;

use crate::bench::{min_of, spread_of, write_bench, BenchKind};

/// Domain size of the acceptance cell: the paper's full scale.
pub const BENCH_EXEC_N: usize = 512;

/// Vector width / brick x-extent of the measured kernel (the A100's
/// warp width, as in the paper's CUDA runs).
pub const BENCH_EXEC_WIDTH: usize = 32;

/// Floor on `native.points_per_s / interpreter.points_per_s` when the
/// SIMD backend (AVX2) was dispatched at full scale. Not enforced for the
/// portable fallback (no SIMD to credit, aarch64 included) or at reduced
/// `--n` (cache effects change the ratio).
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
    /// Backend that executed (`"interpreter"`, `"portable"` or `"avx2"`).
    pub backend: String,
    /// Best-of-N wall seconds for one full sweep of the grid.
    pub wall_s: f64,
    /// Points per second at the best-of-N wall time.
    pub points_per_s: f64,
}

/// Best-of-N wall seconds of the layout conversions at the cell's `n`,
/// each against a measured copy roof.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConversionMeasurement {
    /// `BrickGrid::copy_from_dense` from the cell's dense input into a
    /// fresh brick slab (shared metadata), ghost bricks included.
    pub to_bricks_s: f64,
    /// `BrickGrid::to_dense` of that slab into a fresh dense grid.
    pub to_dense_s: f64,
    /// `ArrayGrid::from_dense` of the dense input: a fresh copy.
    pub to_array_s: f64,
    /// The roof: the dense input's bytes copied in parallel chunks into a
    /// fresh `zeroed_buffer`.
    pub copy_s: f64,
    /// `copy_s / to_bricks_s`: the conversion's fraction of the roof.
    pub to_bricks_frac: f64,
    /// `copy_s / to_dense_s`.
    pub to_dense_frac: f64,
    /// `copy_s / to_array_s`.
    pub to_array_frac: f64,
}

/// STREAM copy (`c = a`, 16 B per element) and triad (`a = b + q·c`,
/// 24 B per element) on the measuring host, best of N passes each, in
/// STREAM's byte convention (bytes the kernel names, no write-allocate
/// traffic).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostStream {
    /// Elements per array (three `f64` arrays).
    pub elems: usize,
    /// Threads of the all-thread series: the executor's thread count.
    pub threads: usize,
    /// Copy on one thread, GB/s (10⁹ bytes).
    pub copy_1t_gbs: f64,
    /// Triad on one thread, GB/s.
    pub triad_1t_gbs: f64,
    /// Copy on all threads, GB/s.
    pub copy_gbs: f64,
    /// Triad on all threads, GB/s: the roof of [`BenchExec::triad_frac`].
    pub triad_gbs: f64,
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
    /// Layout conversion walls against the copy roof.
    pub conversion: ConversionMeasurement,
    /// The host's STREAM bandwidths, measured before the grids exist.
    pub stream: HostStream,
    /// `16 B/pt × native.points_per_s / stream.triad_gbs`: the native
    /// cell's traffic (one input and one output `f64` per point) as a
    /// fraction of the all-thread triad.
    pub triad_frac: f64,
    /// Fused throughput of the 125- and 27-point cubes and the `T = 2`
    /// star at `min(n, KERNEL_ROW_N)`.
    pub kernels: Vec<KernelRow>,
    /// Provenance: git SHA, per-repetition wall times.
    pub manifest: brick_obs::RunManifest,
}

/// Domain size of the kernel rows, or the cell's `n` when that is
/// smaller: the size perfbench's `exec-mixed-256` runs these kernels at.
pub const KERNEL_ROW_N: usize = 256;

/// Fused throughput of one kernel the 7-point cell does not exercise
/// (bricks, width [`BENCH_EXEC_WIDTH`], the host's `Auto` backend).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelRow {
    /// Stencil label, e.g. `"125pt"`.
    pub stencil: String,
    /// Time steps fused into one call.
    pub temporal_degree: u32,
    /// Domain size per axis.
    pub n: usize,
    /// Best-of-N wall seconds of one call.
    pub wall_s: f64,
    /// Output points per second at `wall_s`, in millions (a `T = 2` call
    /// advances each point two steps).
    pub mpts_s: f64,
    /// Relative spread across repetitions.
    pub spread: f64,
    /// Rows of the plan's per-worker scratch buffer.
    pub scratch_rows: usize,
}

/// `BENCH_exec.json` schema version.
pub const EXEC_SCHEMA_VERSION: u64 = 7;

/// `AnonHugePages` of this process in MB (10⁶ bytes), read from
/// `/proc/self/smaps_rollup`; `None` where that file cannot be read.
fn anon_huge_mb() -> Option<f64> {
    let rollup = fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Wall seconds of `f`; what `f` returns is dropped outside the clock.
fn wall_of<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    drop(out);
    wall
}

/// Elements per chunk of the copy roof (512 KiB). Halving the source
/// into one part per worker measured slower and noisier at 512³.
const ROOF_CHUNK: usize = 1 << 16;

/// A parallel copy of `src` into a fresh `zeroed_buffer` in
/// [`ROOF_CHUNK`]s: the roof the conversions are measured against. It
/// shares no code with them, so a slower conversion cannot move it.
fn copy_roof(src: &[f64]) -> Vec<f64> {
    let mut dst = zeroed_buffer(src.len());
    dst.par_chunks_mut(ROOF_CHUNK)
        .enumerate()
        .for_each(|(i, chunk)| {
            let at = i * ROOF_CHUNK;
            chunk.copy_from_slice(&src[at..at + chunk.len()]);
        });
    dst
}

/// Best-of-`reps` walls of the conversions of `dense` and of `bricks`
/// (converted from it), each into fresh memory as a run's set-up pays
/// them, and of the copy roof. Every round times all four in turn, so a
/// slow stretch of the host hits each series alike.
fn measure_conversion(dense: &DenseGrid, bricks: &BrickGrid, reps: usize) -> ConversionMeasurement {
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        let round = [
            wall_of(|| {
                let mut fresh = BrickGrid::with_metadata(
                    Arc::clone(bricks.decomp()),
                    Arc::clone(bricks.info()),
                );
                fresh.copy_from_dense(dense);
                fresh
            }),
            wall_of(|| bricks.to_dense()),
            wall_of(|| ArrayGrid::from_dense(dense)),
            wall_of(|| copy_roof(dense.raw())),
        ];
        for (b, w) in best.iter_mut().zip(round) {
            *b = b.min(w);
        }
    }
    let [to_bricks_s, to_dense_s, to_array_s, copy_s] = best;
    let frac = |s: f64| copy_s / s.max(1e-9);
    ConversionMeasurement {
        to_bricks_s,
        to_dense_s,
        to_array_s,
        copy_s,
        to_bricks_frac: frac(to_bricks_s),
        to_dense_frac: frac(to_dense_s),
        to_array_frac: frac(to_array_s),
    }
}

/// Last-level cache of this host in bytes, when sysfs reports it.
fn l3_bytes() -> Option<usize> {
    let s = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Elements per STREAM array for a cell of `n³` points: four times the
/// last-level cache (STREAM's sizing rule), at least 32 Mi, but never more
/// than the cell's point count, so the three arrays stay smaller than
/// the cell's own grids and the command's peak memory does not rise.
fn stream_elems(n: usize) -> usize {
    let llc = l3_bytes().unwrap_or(32 << 20);
    (4 * llc / 8).max(32 << 20).min(n * n * n)
}

/// STREAM copy and triad over three `elems`-element arrays, best of
/// `reps` passes, on one thread and on `threads`. The arrays are freed
/// before this returns.
fn measure_stream(elems: usize, threads: usize, reps: usize) -> HostStream {
    // Plain allocations, as in perfbench's probe, so both report the
    // same roof.
    let mut a = vec![0.0f64; elems];
    let mut b = vec![0.0f64; elems];
    let mut c = vec![0.0f64; elems];
    // first touch from the threads that later stream the same chunks
    par_zip3(&mut a, &mut b, &mut c, threads, |a, b, c| {
        a.fill(1.0);
        b.fill(2.0);
        c.fill(0.0);
    });
    let q = 3.0;
    let mut rate = |threads: usize| {
        let (mut copy, mut triad) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            copy = copy.min(wall_of(|| {
                par_zip3(&mut a, &mut b, &mut c, threads, |a, _, c| {
                    c.copy_from_slice(a)
                })
            }));
            triad = triad.min(wall_of(|| {
                par_zip3(&mut a, &mut b, &mut c, threads, |a, b, c| {
                    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *a = b + q * c;
                    }
                })
            }));
        }
        let gbs = |bytes: usize, s: f64| (bytes * elems) as f64 / s.max(1e-9) / 1e9;
        (gbs(16, copy), gbs(24, triad))
    };
    let (copy_1t_gbs, triad_1t_gbs) = rate(1);
    let (copy_gbs, triad_gbs) = rate(threads);
    std::hint::black_box((&a, &b, &c));
    HostStream {
        elems,
        threads,
        copy_1t_gbs,
        triad_1t_gbs,
        copy_gbs,
        triad_gbs,
    }
}

/// Run `f` over `threads` equal chunks of three arrays, one scoped thread
/// per chunk: STREAM's static schedule, shared with no executor code.
fn par_zip3(
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    threads: usize,
    f: impl Fn(&mut [f64], &mut [f64], &mut [f64]) + Sync,
) {
    let chunk = a.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            let f = &f;
            s.spawn(move || f(a, b, c));
        }
    });
}

/// Best-of-`reps` native calls at `n` of each kernel row's kernel: the
/// 125-point and 27-point cubes and the `T = 2` 7-point star.
fn measure_kernels(n: usize, backend: Backend, reps: usize) -> Result<Vec<KernelRow>, String> {
    [
        (StencilShape::cube(2), 1),
        (StencilShape::cube(1), 1),
        (StencilShape::star(1), 2),
    ]
    .into_iter()
    .map(|(shape, t)| {
        let st = shape.stencil();
        let opts = CodegenOptions {
            temporal_degree: t,
            ..CodegenOptions::default()
        };
        let kernel = generate(
            &st,
            &st.default_bindings(),
            LayoutKind::Brick,
            BENCH_EXEC_WIDTH,
            opts,
        )
        .map_err(|e| format!("codegen {}: {e}", shape.label()))?;
        let plan = Plan::compile(&kernel).map_err(|e| format!("{}: {e}", shape.label()))?;
        let mut dense = DenseGrid::cubic(n, (shape.radius * t) as usize);
        dense.fill_test_pattern();
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(BENCH_EXEC_WIDTH));
        drop(dense);
        let mut output =
            BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
        // the first call pays the output's first touch; the rows
        // report warm calls
        let mut walls = Vec::with_capacity(reps);
        for _ in 0..=reps {
            let t0 = Instant::now();
            run_vector_brick_backend(&kernel, &input, &mut output, backend)
                .map_err(|e| format!("{} {backend}: {e}", shape.label()))?;
            walls.push(t0.elapsed().as_secs_f64());
        }
        let walls = &walls[1..];
        let wall_s = min_of(walls);
        Ok(KernelRow {
            stencil: shape.label(),
            temporal_degree: t,
            n,
            wall_s,
            mpts_s: (n * n * n) as f64 / wall_s.max(1e-9) / 1e6,
            spread: spread_of(walls),
            scratch_rows: plan.safety().scratch_rows,
        })
    })
    .collect()
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
    let manifest = brick_obs::RunManifest::begin(&config_json).with_jobs(executor_threads() as u64);

    // Best-of-N per series: full-scale sweeps are seconds each, so three
    // repetitions bound the cost while the min discards scheduler noise;
    // smaller sizes are cheap enough for five.
    let reps: usize = if n >= BENCH_EXEC_N { 3 } else { 5 };

    // the roof first, while no grid holds memory
    let stream = measure_stream(stream_elems(n), executor_threads(), reps);

    let mut dense = DenseGrid::cubic(n, st.radius() as usize);
    dense.fill_test_pattern();
    let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(BENCH_EXEC_WIDTH));
    let conversion = measure_conversion(&dense, &input, reps);
    drop(dense);
    let mut output = BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));

    let t_first = Instant::now();
    run_vector_brick_backend(&kernel, &input, &mut output, backend)
        .map_err(|e| format!("{backend}: {e}"))?;
    let first_call_s = t_first.elapsed().as_secs_f64();
    let anon_huge_mb = anon_huge_mb();

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
            },
            walls,
        ))
    };
    let (interpreter, interp_walls) = measure(Backend::Interpreter)?;
    let (native, native_walls) = measure(backend)?;
    drop((input, output));
    let kernels = measure_kernels(n.min(KERNEL_ROW_N), backend, reps)?;

    let speedup = interpreter.wall_s / native.wall_s.max(1e-9);
    let simd = backend == Backend::Avx2;
    let min_speedup = if simd && n >= BENCH_EXEC_N {
        MIN_NATIVE_SPEEDUP
    } else {
        0.0
    };
    let triad_frac = 16.0 * native.points_per_s / (stream.triad_gbs * 1e9).max(1e-9);
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
        min_speedup,
        first_call_s,
        anon_huge_mb,
        conversion,
        stream,
        triad_frac,
        kernels,
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
        assert_eq!(b.manifest.jobs, Some(executor_threads() as u64));
        let json = serde_json::to_string(&b).unwrap();
        let back: BenchExec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.exec.backend, b.exec.backend);
        assert_eq!(back.schema, EXEC_SCHEMA_VERSION);
        assert_eq!(back.first_call_s, b.first_call_s);
        assert_eq!(back.anon_huge_mb, b.anon_huge_mb);
        let c = &b.conversion;
        for (s, frac) in [
            (c.to_bricks_s, c.to_bricks_frac),
            (c.to_dense_s, c.to_dense_frac),
            (c.to_array_s, c.to_array_frac),
        ] {
            assert!(s > 0.0 && frac > 0.0 && frac.is_finite(), "{c:?}");
            assert_eq!(frac, c.copy_s / s.max(1e-9));
        }
        assert!(c.copy_s > 0.0);
        let h = &b.stream;
        assert_eq!(h.elems, 32 * 32 * 32, "the arrays never outgrow the cell");
        assert_eq!(h.threads, executor_threads());
        for gbs in [h.copy_1t_gbs, h.triad_1t_gbs, h.copy_gbs, h.triad_gbs] {
            assert!(gbs > 0.0 && gbs.is_finite(), "{h:?}");
        }
        assert_eq!(
            b.triad_frac,
            16.0 * b.native.points_per_s / (h.triad_gbs * 1e9).max(1e-9)
        );
        assert_eq!(back.stream.triad_gbs, h.triad_gbs);
        assert_eq!(back.stream.elems, h.elems);
        assert_eq!(back.triad_frac, b.triad_frac);
        assert_eq!(back.conversion.to_bricks_s, c.to_bricks_s);
        assert_eq!(back.conversion.to_array_frac, c.to_array_frac);
        let rows: Vec<(&str, u32, usize)> = b
            .kernels
            .iter()
            .map(|k| (k.stencil.as_str(), k.temporal_degree, k.n))
            .collect();
        assert_eq!(rows, [("125pt", 1, 32), ("27pt", 1, 32), ("7pt", 2, 32)]);
        for (k, kb) in b.kernels.iter().zip(&back.kernels) {
            assert!(k.wall_s > 0.0 && k.spread >= 0.0, "{k:?}");
            assert_eq!(k.mpts_s, (32 * 32 * 32) as f64 / k.wall_s.max(1e-9) / 1e6);
            assert!(k.scratch_rows > 0, "{k:?}");
            assert_eq!((kb.wall_s, kb.mpts_s), (k.wall_s, k.mpts_s));
            assert_eq!(kb.scratch_rows, k.scratch_rows);
        }
    }
}
