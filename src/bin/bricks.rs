//! `bricks` — the umbrella CLI of the reproduction.
//!
//! ```text
//! bricks inspect  star 2 32          # DSL, analysis, generated kernels
//! bricks simulate cube 2 a100 cuda   # one simulated measurement
//! bricks tune     star 2 a100 cuda   # autotune brick shape/ordering
//! bricks reuse    star 2 32          # reuse-distance / MRC analysis
//! ```
//!
//! Each subcommand is a thin veneer over the library crates; the full
//! table/figure harness lives in the `experiments` binary.

use std::process::ExitCode;
use std::sync::Arc;

use bricks_repro::codegen::{emit_vector, generate, CodegenOptions, Dialect, LayoutKind};
use bricks_repro::core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::dsl::StencilAnalysis;
use bricks_repro::gpu_sim::{simulate, GpuArch, ProgModel, ReuseAnalyzer, SimOptions};
use bricks_repro::metrics::potential_speedup;
use bricks_repro::roofline::measure;
use bricks_repro::tuner::cell::{geometry, paper_spec, program, KernelConfig};
use bricks_repro::tuner::{autotune, TuningSpace};
use bricks_repro::vm::{KernelSpec, ScalarKernel, TraceGeometry};
use experiments::{out, outln};

const HELP: &str = "bricks — BrickLib reproduction toolkit

usage:
  bricks inspect  <star|cube> <radius> <width> [--temporal T]
                                                        kernel inspection
  bricks simulate <star|cube> <radius> <gpu> <model>    one measurement
  bricks tune     <star|cube> <radius> <gpu> <model>    autotune bricks
  bricks reuse    <star|cube> <radius> <width>          reuse distances
  bricks lint     [kernel.json] [--json]                static kernel analysis
  bricks lint     --native [--json]                     brick-safe memory proof
  bricks obs      <file>                                inspect saved observability
  bricks exec                                           execution-backend report
  bricks prof sweep <spans.jsonl|PROF_sweep.json> [--json]
                                                        sweep self-profile report
  bricks prof sim <star|cube> <radius> <gpu> <model> [--n N] [--json]
                                                        simulator introspection
  bricks prof gate <BASE> <NEW>                         paired perf gate

  gpu   = a100 | mi250x | pvc
  model = cuda | hip | sycl

`bricks lint` runs the brick-lint static analyzer (verifier, footprint
proof, reuse and register-liveness lints) over every paper stencil at
SIMD widths 16/32/64 in both layouts, or over one kernel saved as JSON.
Exits non-zero if any kernel has error-severity diagnostics; --json
emits machine-readable reports.

`bricks lint --native` runs the brick-safe prover standalone: the
compile-time memory-safety proof (obligations BS001-BS015) the native
SIMD backend relies on, re-discharged for every paper stencil at SIMD
widths 16/32/64 in both layouts and both codegen strategies, plus the
array-layout geometry premise at 256^3. Exits non-zero if any plan is
unprovable.

`bricks obs` summarizes observability artifacts written by the
experiments binary: spans.jsonl (top spans by self-time plus the merged
profile tree), metrics.json (counter/gauge/histogram summaries) and
manifest.json (run provenance). trace.json is for chrome://tracing or
Perfetto. Set BRICK_LOG=info|debug|trace (with optional module=level
filters) for diagnostic logging in any subcommand.

`bricks prof` is the performance-attribution suite. 'sweep' renders a
sweep self-profile from a span capture or a saved PROF_sweep.json;
'sim' runs one memory simulation with full attribution (per-block-class
and per-SM-group traffic, wave timeline — rows sum bit-for-bit to the
totals); 'gate' compares two builds' bench rounds from one host: BASE
and NEW are each a BENCH_sim.json or BENCH_exec.json, or a directory of
*/BENCH_*.json rounds (ci/paired-gate.sh KIND BASE_REV writes them).
Medians are compared at 10%; a row is 'unresolved', neither passed nor
failed, when a spread exceeds that and the rounds overlap. Exits 1 on a
regression, on sides of different kinds, or on a metric NEW lacks.

`bricks exec` reports the CPU execution backends of this host: detected
SIMD features, the backend 'auto' dispatches to, and every backend the
host can run (interpreter, portable, and avx2 on x86_64 with AVX2+FMA;
every backend is bit-identical to the interpreter, see the differential suite in
brick-vm).

For the paper's tables and figures, and for every measurement that
writes a BENCH file, use the experiments binary:
  cargo run -p experiments --release -- --all
  cargo run -p experiments --release -- --bench sim|exec|temporal|tune|overhead";

fn shape_of(kind: &str, radius: &str) -> Result<StencilShape, String> {
    let r: u32 = radius.parse().map_err(|e| format!("radius: {e}"))?;
    match kind {
        "star" => Ok(StencilShape::star(r)),
        "cube" => Ok(StencilShape::cube(r)),
        other => Err(format!("unknown shape {other} (star|cube)")),
    }
}

/// A `<width>` argument: the brick's x extent, so it must be positive.
fn width_of(width: &str) -> Result<usize, String> {
    match width.parse().map_err(|e| format!("width: {e}"))? {
        0 => Err("width must be positive".into()),
        w => Ok(w),
    }
}

fn arch_of(name: &str) -> Result<GpuArch, String> {
    match name {
        "a100" => Ok(GpuArch::a100()),
        "mi250x" => Ok(GpuArch::mi250x_gcd()),
        "pvc" => Ok(GpuArch::pvc_stack()),
        other => Err(format!("unknown gpu {other} (a100|mi250x|pvc)")),
    }
}

fn model_of(name: &str) -> Result<ProgModel, String> {
    match name {
        "cuda" => Ok(ProgModel::Cuda),
        "hip" => Ok(ProgModel::Hip),
        "sycl" => Ok(ProgModel::Sycl),
        other => Err(format!("unknown model {other} (cuda|hip|sycl)")),
    }
}

fn inspect(shape: StencilShape, width: usize, temporal: u32) -> Result<(), String> {
    let st = shape.stencil();
    let b = st.default_bindings();
    let a = StencilAnalysis::of_shape(&shape);
    outln!("{st}");
    outln!(
        "points {}  classes {}  flops/point {}  theoretical AI {:.4} FLOP/B\n",
        a.points,
        a.classes,
        a.flops_per_point,
        a.theoretical_ai
    );
    let opts = if temporal > 1 {
        // fused kernels are inherently gather-scheduled
        CodegenOptions {
            temporal_degree: temporal,
            strategy: bricks_repro::codegen::Strategy::Gather,
            ..CodegenOptions::default()
        }
    } else {
        CodegenOptions::default()
    };
    let k = generate(&st, &b, LayoutKind::Brick, width, opts).map_err(|e| e.to_string())?;
    let s = &k.stats;
    if temporal > 1 {
        outln!(
            "fused T={temporal}: stores stencil^{temporal}, flops/point {} \
             theoretical AI {:.4} FLOP/B",
            a.flops_per_point * temporal as u64,
            a.theoretical_ai * temporal as f64
        );
    }
    outln!(
        "generated {} — strategy {}, {} regs/thread",
        k.name,
        k.strategy,
        k.num_regs
    );
    outln!(
        "per brick: {} loads ({} B), {} shuffles, {} FMA, {} add, {} mul, {} stores\n",
        s.loads,
        k.loaded_bytes(),
        s.shifts,
        s.fmas,
        s.adds,
        s.muls,
        s.stores
    );
    outln!("--- CUDA rendering (first 16 lines) ---");
    for line in emit_vector(&k, Dialect::Cuda).lines().take(16) {
        outln!("{line}");
    }
    Ok(())
}

fn simulate_cmd(shape: StencilShape, arch: GpuArch, model: ProgModel) -> Result<(), String> {
    let n = 256;
    let a = StencilAnalysis::of_shape(&shape);
    // the sweep's own bricks-codegen cell
    let config = KernelConfig::BricksCodegen;
    let spec = paper_spec(arch.simd_width);
    let kernel = program(&shape, config, &spec).map_err(|e| e.to_string())?;
    let geom = geometry(&shape, config, &spec, n);
    let sim = simulate(&kernel, &geom, &arch, model, a.flops_per_point)
        .ok_or_else(|| format!("{model} is not supported on {}", arch.name))?;
    let rl = measure(&arch, model).expect("support checked");
    let frac = rl.fraction(sim.gflops, sim.ai);
    let frac_ai = sim.ai / a.theoretical_ai;
    outln!("{config}, {n}^3 on {} / {model}", arch.name);
    outln!(
        "  performance : {:8.0} GFLOP/s  ({:.0}% of roofline)",
        sim.gflops,
        frac * 100.0
    );
    outln!(
        "  arith. int. : {:8.3} FLOP/B   ({:.0}% of theoretical)",
        sim.ai,
        frac_ai * 100.0
    );
    outln!(
        "  data moved  : DRAM {:.2} GB | L2 {:.2} GB | L1 {:.2} GB",
        sim.mem.dram_bytes as f64 / 1e9,
        sim.mem.l2_bytes as f64 / 1e9,
        sim.mem.l1_bytes as f64 / 1e9
    );
    outln!(
        "  kernel      : {:.3} ms, limiter {}, occupancy {:.0}%, {} regs/thread{}",
        sim.time_s * 1e3,
        sim.breakdown.limiter(),
        sim.occupancy.occupancy * 100.0,
        sim.regs_per_thread,
        if sim.spilled { " (spilled)" } else { "" }
    );
    outln!(
        "  potential   : {:.1}x (speed-up headroom, Fig. 7 metric)",
        potential_speedup(frac_ai.min(1.0), frac.min(1.0))
    );
    Ok(())
}

fn tune_cmd(shape: StencilShape, arch: GpuArch, model: ProgModel) -> Result<(), String> {
    let n = 128;
    let group =
        autotune(&shape, &arch, model, n, &TuningSpace::default()).map_err(|e| e.to_string())?;
    outln!(
        "autotuning {shape} on {} / {model} ({n}^3, {} evaluated / {} skipped)",
        arch.name,
        group.evaluated,
        group.skipped
    );
    if !group.skip_reasons.is_empty() {
        let reasons: Vec<String> = group
            .skip_reasons
            .iter()
            .map(|(kind, count)| format!("{kind} x{count}"))
            .collect();
        outln!("  skipped     : {}", reasons.join(", "));
    }
    for (i, rec) in group.ranked.iter().take(6).enumerate() {
        outln!(
            "  #{:<2} {:32} {:8.0} GFLOP/s  occ {:3.0}%, {} regs{}, {}",
            i + 1,
            rec.params.to_string(),
            rec.gflops,
            rec.occupancy * 100.0,
            rec.regs_per_thread,
            if rec.spilled { " (spilled)" } else { "" },
            rec.limiter
        );
    }
    outln!(
        "  paper config: {:8.0} GFLOP/s ({})",
        group.baseline.gflops,
        group.baseline.params
    );
    outln!(
        "  gain over paper 4x4xW gather default: {:.2}x (spread {:.2}x across the space)",
        group.gain_over_paper(),
        group.spread()
    );
    Ok(())
}

fn reuse_cmd(shape: StencilShape, width: usize) -> Result<(), String> {
    let n = 128;
    if n % width != 0 {
        return Err(format!("width {width} must divide the {n}^3 reuse domain"));
    }
    let st = shape.stencil();
    let b = st.default_bindings();
    let radius = shape.radius as usize;
    for (name, spec, geom) in [
        (
            "array (scalar)",
            KernelSpec::Scalar(
                ScalarKernel::new(&st, &b, LayoutKind::Array, width).map_err(|e| e.to_string())?,
            ),
            TraceGeometry::array((n, n, n), radius, BrickDims::for_simd_width(width)),
        ),
        (
            "bricks codegen",
            KernelSpec::Vector(
                generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default())
                    .map_err(|e| e.to_string())?,
            ),
            TraceGeometry::brick(Arc::new(BrickNav::new(Arc::new(BrickDecomp::new(
                (n, n, n),
                BrickDims::for_simd_width(width),
                radius,
                BrickOrdering::Lexicographic,
            ))))),
        ),
    ] {
        let mut an = ReuseAnalyzer::new(128);
        for i in 0..geom.num_blocks() {
            spec.trace_block(&geom, i, &mut an)
                .map_err(|e| e.to_string())?;
        }
        let p = an.profile();
        outln!(
            "{name:15} footprint {:6.1} MB, cold {:5.1}%, miss@8MB {:5.1}%, miss@40MB {:5.1}%",
            p.footprint_bytes() as f64 / 1e6,
            100.0 * p.cold as f64 / p.total as f64,
            100.0 * p.miss_ratio(8 << 20),
            100.0 * p.miss_ratio(40 << 20)
        );
    }
    Ok(())
}

/// Run the static analyzer over the paper's kernel suite (six stencils ×
/// SIMD widths 16/32/64 × both layouts), or over a single kernel saved as
/// JSON. Errors (BL0xx) fail the command; warnings (BL1xx) are reported
/// but don't.
fn lint_cmd(target: Option<&str>, json: bool) -> Result<(), String> {
    use bricks_repro::codegen::VectorKernel;
    use bricks_repro::lint::{analyze, ExpectedStencil};

    let mut kernels = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;

    let mut lint_one = |k: &VectorKernel, expected: Option<&ExpectedStencil>| {
        let mut report = analyze(k, expected).report;
        // k.name encodes layout and strategy but not width
        report.kernel = format!("{} w{}", k.name, k.width);
        kernels += 1;
        errors += report.error_count();
        warnings += report.warning_count();
        if json {
            outln!("{}", report.to_json());
            return;
        }
        let status = if report.has_errors() {
            "FAIL"
        } else if report.warning_count() > 0 {
            "warn"
        } else {
            "ok"
        };
        outln!(
            "{status:4} {:44} {:3} ops, {:2} regs, {} diagnostics",
            report.kernel,
            k.ops.len(),
            k.num_regs,
            report.diagnostics.len()
        );
        if !report.diagnostics.is_empty() {
            out!("{}", report.render(Some(k)));
        }
    };

    if let Some(path) = target {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let value = serde_json::parse(&text).map_err(|e| format!("{path}: not JSON: {e}"))?;
        let k: VectorKernel = serde_json::from_value(&value)
            .map_err(|e| format!("{path}: not a saved vector kernel: {e}"))?;
        // No declared stencil travels with a saved kernel; the footprint
        // pass still proves all output lanes compute the same stencil.
        lint_one(&k, None);
    } else {
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            let expected = ExpectedStencil::resolve(&st, &b).map_err(|e| e.to_string())?;
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                for width in [16usize, 32, 64] {
                    let k = generate(&st, &b, layout, width, CodegenOptions::default())
                        .map_err(|e| format!("{shape} {layout} w{width}: {e}"))?;
                    lint_one(&k, Some(&expected));
                }
            }
        }
    }
    if !json {
        outln!("\n{kernels} kernels analyzed: {errors} errors, {warnings} warnings");
    }
    if errors > 0 {
        Err(format!("lint failed: {errors} error-severity diagnostics"))
    } else {
        Ok(())
    }
}

/// Run the brick-safe memory-safety prover standalone over the paper
/// suite × layouts × SIMD widths × codegen strategies. For each kernel
/// the plan is compiled (which embeds the proof), re-proved with
/// `verify_safety` (the standalone entry the sweep runner uses), and —
/// for array layouts — the per-run geometry premise is discharged at the
/// representative 256³ size. Any BSxxx diagnostic fails the command.
fn lint_native_cmd(json: bool) -> Result<(), String> {
    use bricks_repro::codegen::Strategy;
    use bricks_repro::vm::Plan;

    let mut kernels = 0usize;
    let mut failures = 0usize;
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for width in [16usize, 32, 64] {
                for strategy in [Strategy::Gather, Strategy::Scatter] {
                    let opts = CodegenOptions {
                        strategy,
                        ..CodegenOptions::default()
                    };
                    let k = generate(&st, &b, layout, width, opts)
                        .map_err(|e| format!("{shape} {layout} w{width}: {e}"))?;
                    kernels += 1;
                    let verdict = Plan::compile(&k)
                        .and_then(|plan| {
                            let s = plan.verify_safety()?;
                            if layout == LayoutKind::Array {
                                let halo = shape.radius as usize;
                                plan.check_array_geometry(256, 256, 256, halo)?;
                            }
                            Ok(s)
                        })
                        .map_err(|e| e.to_string());
                    // k.name encodes layout and strategy but not width
                    let name = format!("{} w{width}", k.name);
                    match &verdict {
                        Ok(s) => {
                            if json {
                                outln!(
                                    "{{\"kernel\":\"{name}\",\"safe\":true,\
                                     \"obligations\":{},\"fused\":{},\
                                     \"taps\":{},\"rows\":{},\"scratch_rows\":{}}}",
                                    s.obligations,
                                    s.fused,
                                    s.taps,
                                    s.rows,
                                    s.scratch_rows
                                );
                            } else {
                                outln!(
                                    "ok   {name:44} {:4} obligations, {:3} taps, {:2} rows, \
                                     {:3} scratch rows",
                                    s.obligations,
                                    s.taps,
                                    s.rows,
                                    s.scratch_rows
                                );
                            }
                        }
                        Err(e) => {
                            failures += 1;
                            if json {
                                outln!(
                                    "{{\"kernel\":\"{name}\",\"safe\":false,\
                                     \"error\":\"{}\"}}",
                                    e.replace('\\', "\\\\").replace('"', "\\\"")
                                );
                            } else {
                                outln!("FAIL {name:44} {e}");
                            }
                        }
                    }
                }
            }
        }
    }
    if !json {
        outln!("\n{kernels} plans proved: {failures} unsafe");
    }
    if failures > 0 {
        Err(format!("lint --native failed: {failures} unprovable plans"))
    } else {
        Ok(())
    }
}

/// Summarize a saved observability artifact: a spans.jsonl capture, a
/// metrics snapshot, or a run manifest (or a sweep JSON embedding one).
/// The kind is detected from the content, not the file name.
fn obs_cmd(path: &str) -> Result<(), String> {
    use bricks_repro::obs::{metrics::render_snapshot, MetricsSnapshot, RunManifest};

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // spans.jsonl holds one JSON object per line, so it parses as a single
    // document only when it holds a single span
    let value = match serde_json::parse(&text) {
        Ok(v) if v.get("dur_ns").is_none() => v,
        _ => return obs_spans(path, &text),
    };
    if value.get("traceEvents").is_some() {
        return Err(format!(
            "{path}: a Chrome trace is for chrome://tracing or Perfetto; \
             `bricks obs` reads the spans.jsonl written next to it"
        ));
    }
    if value.get("counters").is_some() || value.get("histograms").is_some() {
        let snap: MetricsSnapshot =
            serde_json::from_value(&value).map_err(|e| format!("{path}: {e}"))?;
        outln!("{path}: metrics snapshot\n");
        out!("{}", render_snapshot(&snap));
        return Ok(());
    }
    // a bare manifest, or a sweep with one embedded
    let manifest_value = if value.get("config_hash").is_some() {
        &value
    } else {
        value
            .get("manifest")
            .ok_or_else(|| format!("{path}: not a span capture, metrics snapshot, or manifest"))?
    };
    let m: RunManifest =
        serde_json::from_value(manifest_value).map_err(|e| format!("{path}: {e}"))?;
    outln!("{path}: run manifest");
    outln!(
        "  git sha      : {}",
        m.git_sha.as_deref().unwrap_or("(not a checkout)")
    );
    outln!("  config hash  : {:016x}", m.config_hash);
    outln!("  started      : unix {}", m.started_unix);
    outln!(
        "  wall time    : {:.2}s total, {} records, {:.3}s/record mean",
        m.wall_s,
        m.record_wall_s.len(),
        m.mean_record_s()
    );
    outln!(
        "  observability: {} spans, {} metrics recorded",
        m.spans_recorded,
        m.metrics_recorded
    );
    if let Some(jobs) = m.jobs {
        outln!("  sweep        : jobs {jobs}");
        outln!(
            "  result cache : {} hits, {} misses, {} corrupt",
            m.cache_hits,
            m.cache_misses,
            m.cache_corrupt
        );
    }
    if let Some(slowest) = m
        .record_wall_s
        .iter()
        .cloned()
        .max_by(|a, b| a.total_cmp(b))
    {
        outln!("  slowest rec  : {slowest:.3}s");
    }
    Ok(())
}

/// Per-span-name aggregates of a spans.jsonl capture: top spans by
/// self-time plus the merged profile tree. Spans nest by their recorded
/// parents, so cells run on worker threads charge their time to the sweep
/// that scheduled them.
fn obs_spans(path: &str, text: &str) -> Result<(), String> {
    use bricks_repro::prof::{render_tree, ProfileTree};

    let spans = bricks_repro::obs::trace::parse_spans_jsonl(text).map_err(|e| {
        format!("{path}: not a spans.jsonl capture, metrics snapshot, or manifest: {e}")
    })?;
    let tree = ProfileTree::build(&spans);

    let mut by_self: Vec<(String, u64, u64)> = Vec::new();
    tree.walk(&mut |n| by_self.push((n.name.clone(), n.self_ns, n.count)));
    by_self.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    outln!("{path}: {} spans\n", spans.len());
    outln!("top spans by self-time:");
    for (name, self_ns, count) in by_self.iter().take(15).filter(|(_, s, _)| *s > 0) {
        outln!(
            "  {:<44} {:>12} ({} calls)",
            name,
            bricks_repro::prof::report::fmt_ns(*self_ns),
            count
        );
    }
    outln!("\nmerged profile tree:");
    out!("{}", render_tree(&tree));
    Ok(())
}

/// Render a sweep self-profile from a span capture (spans.jsonl) or a
/// saved PROF_sweep.json.
fn prof_sweep_cmd(path: &str, json: bool) -> Result<(), String> {
    use bricks_repro::prof::{render_sweep_profile, SweepProfile};

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let profile = match serde_json::parse(&text) {
        Ok(v) if v.get("schema").and_then(|s| s.as_str()).is_some() => {
            serde_json::from_value::<SweepProfile>(&v).map_err(|e| format!("{path}: {e}"))?
        }
        _ => {
            let spans = bricks_repro::obs::trace::parse_spans_jsonl(&text)
                .map_err(|e| format!("{path}: neither PROF_sweep.json nor spans.jsonl: {e}"))?;
            SweepProfile::from_spans(&spans)
        }
    };
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?
        );
    } else {
        out!("{}", render_sweep_profile(&profile));
    }
    Ok(())
}

/// Run one memory simulation with full attribution and report it.
fn prof_sim_cmd(
    shape: StencilShape,
    arch: GpuArch,
    model: ProgModel,
    n: usize,
    json: bool,
) -> Result<(), String> {
    use bricks_repro::gpu_sim::{compile_only, simulate_memory_introspect};
    use bricks_repro::prof::render_introspection;

    let config = KernelConfig::BricksCodegen;
    let params = paper_spec(arch.simd_width);
    let dims = params.brick_dims();
    let tiles = |b: usize| n.is_multiple_of(b);
    if n == 0 || !(tiles(dims.bx) && tiles(dims.by) && tiles(dims.bz)) {
        return Err(format!(
            "--n {n} must be a positive multiple of each brick extent ({dims} on {})",
            arch.name
        ));
    }
    let radius = shape.radius as usize;
    if BrickDecomp::brick_count((n, n, n), dims, radius).is_none() {
        return Err(format!(
            "--n {n} makes more {dims} bricks than u32 ids can number"
        ));
    }
    let spec = program(&shape, config, &params).map_err(|e| e.to_string())?;
    let geom = geometry(&shape, config, &params, n);
    let (_, _, occ) = compile_only(&spec, &arch, model)
        .ok_or_else(|| format!("{model} is not supported on {}", arch.name))?;
    let opts = SimOptions {
        interleave_chunk: params.interleave_chunk,
    };
    let (_, intro) = simulate_memory_introspect(&spec, &geom, &arch, occ.blocks_per_sm, &opts);
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&intro).map_err(|e| e.to_string())?
        );
    } else {
        outln!("{config}, {n}^3 on {} / {model}\n", arch.name);
        out!("{}", render_introspection(&intro));
    }
    Ok(())
}

/// Report the host's execution backends: CPU features, the backend
/// `Auto` dispatches to, and every [`Backend`] this host can run.
fn exec_cmd() -> Result<(), String> {
    use bricks_repro::vm::{resolve_with, Backend, CpuFeatures, ExecutionMode};

    let features = CpuFeatures::detect();
    let runnable: Vec<String> = [
        (true, Backend::Interpreter),
        (true, Backend::Portable),
        (features.avx2 && features.fma, Backend::Avx2),
    ]
    .iter()
    .filter(|(runs, _)| *runs)
    .map(|(_, b)| b.to_string())
    .collect();
    outln!("cpu features: [{features}]");
    outln!(
        "auto backend: {}",
        resolve_with(ExecutionMode::Auto, features)?
    );
    outln!("runnable backends: {}", runnable.join(", "));
    Ok(())
}

/// The paired perf gate: compare NEW's bench rounds with BASE's, print
/// the table, and fail on any regressed metric.
fn prof_gate_cmd(base: &str, new: &str) -> Result<(), String> {
    use bricks_repro::prof::{diff_bench, gate, load_side, render_diff};
    use std::path::Path;

    let deltas = diff_bench(&load_side(Path::new(base))?, &load_side(Path::new(new))?)?;
    out!("{}", render_diff(&deltas));
    let unresolved: Vec<&str> = deltas
        .iter()
        .filter(|d| d.verdict == "unresolved")
        .map(|d| d.path.as_str())
        .collect();
    if !unresolved.is_empty() {
        outln!(
            "unresolved (spread beyond tolerance, rounds overlap; neither passed nor failed): {}",
            unresolved.join(", ")
        );
    }
    gate(&deltas)?;
    outln!("gate: ok");
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["inspect", kind, radius, width] => inspect(shape_of(kind, radius)?, width_of(width)?, 1),
        ["inspect", kind, radius, width, "--temporal", t] => {
            let w = width_of(width)?;
            let t: u32 = t.parse().map_err(|e| format!("--temporal: {e}"))?;
            if !(1..=4).contains(&t) {
                return Err(format!("--temporal {t}: the 4x4 block caps T at 4"));
            }
            inspect(shape_of(kind, radius)?, w, t)
        }
        ["simulate", kind, radius, gpu, model] => {
            simulate_cmd(shape_of(kind, radius)?, arch_of(gpu)?, model_of(model)?)
        }
        ["tune", kind, radius, gpu, model] => {
            tune_cmd(shape_of(kind, radius)?, arch_of(gpu)?, model_of(model)?)
        }
        ["reuse", kind, radius, width] => reuse_cmd(shape_of(kind, radius)?, width_of(width)?),
        ["lint"] => lint_cmd(None, false),
        ["lint", "--json"] => lint_cmd(None, true),
        ["lint", "--native"] => lint_native_cmd(false),
        ["lint", "--native", "--json"] => lint_native_cmd(true),
        ["lint", path] => lint_cmd(Some(path), false),
        ["lint", path, "--json"] => lint_cmd(Some(path), true),
        ["obs", path] => obs_cmd(path),
        ["prof", "sweep", path] => prof_sweep_cmd(path, false),
        ["prof", "sweep", path, "--json"] => prof_sweep_cmd(path, true),
        ["prof", "sim", kind, radius, gpu, model, rest @ ..] => {
            let mut n = 256usize;
            let mut json = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match *flag {
                    "--n" => {
                        n = it
                            .next()
                            .ok_or("--n needs a value")?
                            .parse()
                            .map_err(|e| format!("--n: {e}"))?;
                    }
                    "--json" => json = true,
                    other => return Err(format!("unknown prof sim flag {other}")),
                }
            }
            prof_sim_cmd(
                shape_of(kind, radius)?,
                arch_of(gpu)?,
                model_of(model)?,
                n,
                json,
            )
        }
        ["exec"] => exec_cmd(),
        ["prof", "gate", base, new] => prof_gate_cmd(base, new),
        [] | ["--help"] | ["-h"] | ["help"] => {
            outln!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{HELP}")),
    }
}

fn main() -> ExitCode {
    bricks_repro::obs::init();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
