//! Experiment CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p experiments --release -- --all            # 256³ sweep
//! cargo run -p experiments --release -- --all --full     # paper's 512³
//! cargo run -p experiments --release -- --table3 --fig5 --n 128
//! cargo run -p experiments --release -- --listings       # Fig. 1/2 text
//! ```
//!
//! Artifacts (CSV/JSON) are written to `artifacts/` unless `--out DIR`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use experiments::bench::BenchKind;
use experiments::report::*;
use experiments::{
    bench_exec, bench_overhead, bench_sim, figures, golden, outln, tables, temporal, tune,
    ExperimentParams, SweepOptions,
};

struct Args {
    n: Option<usize>,
    out: PathBuf,
    trace: bool,
    prof: bool,
    jobs: Option<usize>,
    no_cache: bool,
    bench: Vec<BenchKind>,
    temporal: bool,
    tune: bool,
    tune_space: tune::SpaceChoice,
    bless: bool,
    table1: bool,
    table2: bool,
    table3: bool,
    table4: bool,
    table5: bool,
    compare: bool,
    fig3: bool,
    fig4: bool,
    fig5: bool,
    fig6: bool,
    fig7: bool,
    listings: bool,
}

impl Args {
    fn needs_sweep(&self) -> bool {
        self.table3
            || self.table5
            || self.compare
            || self.fig3
            || self.fig4
            || self.fig5
            || self.fig6
            || self.fig7
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: None,
        out: PathBuf::from("artifacts"),
        trace: false,
        prof: false,
        jobs: None,
        no_cache: false,
        bench: Vec::new(),
        temporal: false,
        tune: false,
        tune_space: tune::SpaceChoice::Full,
        bless: false,
        table1: false,
        table2: false,
        table3: false,
        table4: false,
        table5: false,
        compare: false,
        fig3: false,
        fig4: false,
        fig5: false,
        fig6: false,
        fig7: false,
        listings: false,
    };
    let mut it = std::env::args().skip(1);
    let mut any = false;
    while let Some(a) = it.next() {
        any = true;
        match a.as_str() {
            "--all" => {
                args.table1 = true;
                args.table2 = true;
                args.table3 = true;
                args.table4 = true;
                args.table5 = true;
                args.compare = true;
                args.fig3 = true;
                args.fig4 = true;
                args.fig5 = true;
                args.fig6 = true;
                args.fig7 = true;
                args.listings = true;
            }
            "--table1" => args.table1 = true,
            "--table2" => args.table2 = true,
            "--table3" => args.table3 = true,
            "--table4" => args.table4 = true,
            "--table5" => args.table5 = true,
            "--compare" => args.compare = true,
            "--fig3" => args.fig3 = true,
            "--fig4" => args.fig4 = true,
            "--fig5" => args.fig5 = true,
            "--fig6" => args.fig6 = true,
            "--fig7" => args.fig7 = true,
            "--listings" => args.listings = true,
            "--trace" => args.trace = true,
            "--prof" => {
                args.prof = true;
                args.trace = true; // profiles are built from the span capture
            }
            "--bless" => args.bless = true,
            "--no-cache" => args.no_cache = true,
            "--jobs" | "-j" => {
                args.jobs = Some(
                    it.next()
                        .ok_or("--jobs needs a value")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                );
            }
            "--full" => args.n = Some(ExperimentParams::paper_full().n),
            "--n" => {
                args.n = Some(
                    it.next()
                        .ok_or("--n needs a value")?
                        .parse()
                        .map_err(|e| format!("--n: {e}"))?,
                );
            }
            "--bench" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--bench needs a value ({})", BenchKind::choices()))?;
                args.bench
                    .push(BenchKind::parse(&v).map_err(|e| format!("--bench: {e}"))?);
            }
            "--tune" => args.tune = true,
            "--tune-space" => {
                let v = it
                    .next()
                    .ok_or("--tune-space needs a value (full|smoke|minimal)")?;
                args.tune_space =
                    tune::SpaceChoice::parse(&v).map_err(|e| format!("--tune-space: {e}"))?;
            }
            "--temporal" => args.temporal = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                return Err(HELP.to_string());
            }
            other => return Err(format!("unknown argument {other}\n{HELP}")),
        }
    }
    if !any {
        return Err(HELP.to_string());
    }
    if args.n.is_some() && args.bench.contains(&BenchKind::Overhead) {
        return Err(format!(
            "--bench overhead measures at a fixed {}^3; drop --n/--full",
            bench_overhead::OVERHEAD_N
        ));
    }
    Ok(args)
}

const HELP: &str = "usage: experiments [--all] [--table1..5] [--compare] [--fig3..7] [--listings]
                   [--temporal] [--n N] [--full]
                   [--tune] [--tune-space full|smoke|minimal]
                   [--out DIR] [--jobs N] [--no-cache]
                   [--bench sim|exec|temporal|overhead]...
                   [--bless] [--trace] [--prof]

Regenerates the tables and figures of 'Performance Portability Evaluation
of Blocked Stencil Computations on GPUs' (SC-W 2023) on the simulated
GPU substrate. --full runs the paper's 512^3 grid (slow); the default is
256^3. Artifacts are written to DIR (default ./artifacts).

Sweep cells run in parallel: --jobs N sets the worker count, default all
hardware threads; results are byte-identical at any jobs count.
Completed cells are cached under DIR/simcache so unchanged reruns are
incremental; --no-cache disables the cache for this run.
--bless reruns the pinned 64^3 golden sweep (plus the temporal sweep and
the smoke-space tuner run) and rewrites the checked-in golden artifacts
under crates/experiments/tests/golden (only after an intentional model
change — see EXPERIMENTS.md).

--bench KIND runs one gated measurement, writes DIR/BENCH_KIND.json and
exits non-zero if a gate fails; repeat it to run several kinds. --n N
(or --full) overrides the kind's default domain size (not for overhead,
whose size is fixed).
  sim       the wall time of the star-2 CUDA/A100 cell's memory
            simulation under the exact oracle (simulate_memory_exact)
            and the simulator, at N^3 (default 128) and at 512^3; fails
            if the simulator is slower than the exact oracle at either,
            or if their counters differ.
  exec      the 7-point star, bricks layout, at N^3 (default 512) under the
            interpreter and the host's 'auto' backend (AVX2 on x86_64,
            portable otherwise); prints the CPU features and the dispatched
            backend, and fails if the AVX2 backend runs below 2.5x the
            interpreter at 512^3.
  temporal  the temporal sweep at N^3 (default 256); fails unless AI
            strictly increases with T for the fusible star stencils on
            every platform and star-7's DRAM bytes per applied timestep at
            its deepest degree is at most 0.45x the spatial baseline
            (A100/CUDA).
  overhead  single-threaded costs at a fixed 64^3: closed span and
            counter gates < 5% of simulate(), full attribution (--prof)
            < 15% of a sweep, verifying the 36 paper kernels < 6% of a
            sweep, and the brick-safe proof < 2% of Plan::compile.

--temporal runs the temporal-blocking sweep: every paper stencil at
every feasible fusion degree T (T*radius <= 4 under the 4x4 block),
bricks codegen, across the full platform matrix. Fused kernels stream T
timesteps through registers in one launch; each is statically verified
against the T-fold composed stencil before simulation. Prints the
A100/CUDA AI-vs-T panel and writes DIR/temporal.csv, DIR/temporal.json
and DIR/manifest_temporal.json.

--tune searches the kernel-specialization space (vector width, fold
factor, transverse block, ordering, gather/scatter, interleave chunk,
temporal degree) for every paper stencil on all 6 platform pairs at 64^3
(--n overrides). Invalid cells are rejected by per-target validity
predicates before compilation; candidates whose Roofline upper bound
cannot beat the paper baseline are pruned before simulation; survivors
are ranked per group with the paper configuration always measured as the
anchor. Prints the tuned-vs-paper table and writes DIR/tune.json,
DIR/tune_compare.json and DIR/manifest_tune.json. --tune-space selects
the candidate grid: 'full' (default, >10k valid cells across the
matrix), 'smoke' (~200, CI) or 'minimal'. Results are cached under
DIR/simcache keyed by the full specialization vector, so reruns and
narrowed spaces are incremental.

--trace records hierarchical spans of the run and writes DIR/trace.json
(Chrome trace_event format, loadable in chrome://tracing or Perfetto) and
DIR/spans.jsonl. Sweeps always write DIR/metrics.json and
DIR/manifest.json. `bricks obs <file>` summarizes spans.jsonl,
metrics.json and manifest.json.
BRICK_LOG=info (or debug/trace, with module=level filters) enables
progress and diagnostic logging.

--prof implies --trace and additionally self-profiles the sweep: it
writes DIR/PROF_sweep.json (per-phase wall-time/allocation attribution
with duration histograms and the hottest cells) and DIR/sweep.folded (a
folded-stack flamegraph of the merged, jobs-invariant profile tree), and
prints the phase table. Render saved artifacts with `bricks prof sweep`.";

/// Run one `--bench` kind, writing its BENCH file under `args.out` and
/// printing a summary.
fn run_bench(kind: BenchKind, args: &Args) -> Result<(), String> {
    let out: &Path = &args.out;
    // `--n`, else the kind's default; overhead's size is fixed (parse_args
    // rejects `--n` with it)
    let n = kind
        .default_n()
        .map_or(bench_overhead::OVERHEAD_N, |d| args.n.unwrap_or(d));
    match kind {
        BenchKind::Sim => {
            eprintln!("benchmarking simulator: exact oracle vs simulator at {n}^3...");
            let b = bench_sim::run_bench_sim(n, out)?;
            for f in std::iter::once(&b.fidelity).chain(&b.fidelity_full) {
                eprintln!(
                    "{} {} {}/{} at {}^3: exact oracle {:.2}s, simulator {:.2}s — {:.1}x speedup",
                    f.stencil,
                    f.config,
                    f.gpu,
                    f.model,
                    f.n,
                    f.exact_wall_s,
                    f.fast_wall_s,
                    f.speedup
                );
            }
        }
        BenchKind::Exec => {
            eprintln!("benchmarking execution backend: star-7 bricks at {n}^3...");
            let b = bench_exec::run_bench_exec(n, Some(out))?;
            eprintln!(
                "cpu features [{}], auto -> {}",
                b.exec.cpu_features, b.exec.backend
            );
            eprintln!(
                "interpreter: {:.2}s ({:.1} Mpts/s)  {}: {:.2}s ({:.1} Mpts/s) — {:.1}x speedup",
                b.interpreter.wall_s,
                b.interpreter.points_per_s / 1e6,
                b.native.backend,
                b.native.wall_s,
                b.native.points_per_s / 1e6,
                b.speedup
            );
            let h = &b.stream;
            eprintln!(
                "STREAM ({} Mi elements): copy {:.1}/{:.1} GB/s, triad {:.1}/{:.1} GB/s \
                 (1/{} threads); the native cell runs at {:.2} of the triad",
                h.elems >> 20,
                h.copy_1t_gbs,
                h.copy_gbs,
                h.triad_1t_gbs,
                h.triad_gbs,
                h.threads,
                b.triad_frac
            );
            let c = &b.conversion;
            eprintln!(
                "conversion vs {:.3}s copy roof: to bricks {:.3}s ({:.2}), to dense {:.3}s ({:.2}), \
                 to array {:.3}s ({:.2})",
                c.copy_s,
                c.to_bricks_s,
                c.to_bricks_frac,
                c.to_dense_s,
                c.to_dense_frac,
                c.to_array_s,
                c.to_array_frac
            );
            for k in &b.kernels {
                eprintln!(
                    "{} t{} at {}^3: {:.3}s ({:.1} Mpts/s), {} scratch rows",
                    k.stencil, k.temporal_degree, k.n, k.wall_s, k.mpts_s, k.scratch_rows
                );
            }
        }
        BenchKind::Temporal => {
            eprintln!("benchmarking temporal blocking: fused sweep at {n}^3...");
            let b = temporal::run_bench_temporal(n, args.jobs, out)?;
            eprintln!(
                "star-7 DRAM/pt-step at t{}: {:.3}x of t1 (gate <= {})",
                b.star7_max_degree,
                b.star7_dram_ratio,
                temporal::STAR7_DRAM_RATIO_MAX
            );
        }
        BenchKind::Overhead => {
            eprintln!("benchmarking overheads: single-threaded, at {n}^3...");
            let b = bench_overhead::run_bench_overhead(out)?;
            for (name, g) in b.gates() {
                eprintln!("{name}: {:.3}% (limit {}%)", g.pct, g.limit_pct);
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    brick_obs::init();
    brick_prof::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        brick_obs::set_tracing(true);
    }
    let params = ExperimentParams {
        n: args.n.unwrap_or(ExperimentParams::default().n),
    };
    if let Err(e) = params.validate() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    if args.listings {
        outln!("{}", figures::fig1_fig2_listings());
    }
    if args.table1 {
        outln!("== Table 1: systems and toolchains ==");
        outln!("{}", render_table1(&tables::table1()));
    }
    if args.table2 {
        outln!("== Table 2: stencil suite ==");
        outln!("{}", render_table2(&tables::table2()));
    }
    if args.table4 {
        outln!("== Table 4: theoretical arithmetic intensity ==");
        outln!("{}", render_table4(&tables::table4()));
    }

    let sweep_opts = |params: ExperimentParams| {
        let mut opts = SweepOptions::new(params);
        if let Some(n) = args.jobs {
            opts.jobs = experiments::Jobs::N(n);
        }
        if !args.no_cache {
            opts.cache_dir = Some(args.out.join("simcache"));
        }
        opts
    };

    for &kind in &args.bench {
        if let Err(e) = run_bench(kind, &args) {
            eprintln!("--bench {} failed:\n{e}", kind.name());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", args.out.join(kind.file_name()).display());
    }

    if args.tune {
        let tune_n = args.n.unwrap_or(tune::TUNE_N);
        eprintln!(
            "tuning: {} space x paper stencils x 6 platform pairs at {tune_n}^3...",
            args.tune_space
        );
        let t0 = Instant::now();
        let cache_dir = (!args.no_cache).then(|| args.out.join("simcache"));
        let opts = tune::tune_options(tune_n, args.jobs, cache_dir, args.tune_space.space());
        let report = match tune::run_tune(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("tune failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "tune done in {:.1}s: {} cells evaluated, {} pruned, {} skipped",
            t0.elapsed().as_secs_f64(),
            report.manifest.tune_valid_cells,
            report.manifest.tune_pruned_cells,
            report.manifest.tune_skipped_cells
        );
        outln!("== Tuned vs paper configuration ==");
        let rows = tune::tuned_vs_paper(&report);
        outln!("{}", tune::render_tuned_vs_paper(&rows));
        let _ = write_json(&report, &args.out.join("tune.json"));
        let _ = write_json(&rows, &args.out.join("tune_compare.json"));
        let _ = write_json(&report.manifest, &args.out.join("manifest_tune.json"));
        eprintln!("wrote {}", args.out.join("tune.json").display());
    }

    if args.temporal {
        eprintln!(
            "running temporal sweep at {0}^3 (paper stencils x feasible T x 6 platform pairs)...",
            params.n
        );
        let t0 = Instant::now();
        // same cache dir as the base sweep: cell keys carry the whole
        // specialization vector, T included
        let opts = sweep_opts(params);
        let tsweep = match experiments::temporal_sweep_with(&opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("temporal sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("temporal sweep done in {:.1}s", t0.elapsed().as_secs_f64());
        outln!("== Temporal blocking: AI and DRAM bytes/point vs T (A100/CUDA) ==");
        outln!("{}", render_temporal(&tsweep));
        if let Err(e) = write_temporal_csv(&tsweep, &args.out.join("temporal.csv")) {
            eprintln!("warning: could not write temporal.csv: {e}");
        }
        let _ = write_json(&tsweep, &args.out.join("temporal.json"));
        let _ = write_json(&tsweep.manifest, &args.out.join("manifest_temporal.json"));
    }

    if args.bless {
        eprintln!(
            "blessing golden artifacts from fresh {0}^3 paper, temporal and tuner runs...",
            golden::GOLDEN_N
        );
        let blessed = golden::render_all(&sweep_opts(params))
            .and_then(|a| golden::bless(&a, &golden::golden_dir()).map_err(|e| e.to_string()));
        match blessed {
            Ok(paths) => {
                for p in paths {
                    eprintln!("blessed {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !args.needs_sweep() {
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "running full sweep at {0}^3 (6 stencils x 3 configs x 6 platform pairs)...",
        params.n
    );
    let t0 = Instant::now();
    let sweep = match experiments::sweep_with(&sweep_opts(params)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sweep done in {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = write_sweep_csv(&sweep, &args.out.join("sweep.csv")) {
        eprintln!("warning: could not write sweep.csv: {e}");
    }
    let _ = write_json(&sweep.manifest, &args.out.join("manifest.json"));
    let _ = write_json(
        &brick_obs::metrics::snapshot(),
        &args.out.join("metrics.json"),
    );
    if brick_obs::tracing_enabled() {
        for (name, text) in [
            ("trace.json", brick_obs::trace::chrome_trace_json()),
            ("spans.jsonl", brick_obs::trace::spans_jsonl()),
        ] {
            let path = args.out.join(name);
            match std::fs::write(&path, text) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {name}: {e}"),
            }
        }
    }
    if args.prof {
        let spans = brick_obs::trace::spans_data();
        let profile = brick_prof::SweepProfile::from_spans(&spans);
        let tree = brick_prof::ProfileTree::build(&spans);
        eprintln!("{}", brick_prof::render_sweep_profile(&profile));
        for (name, text) in [
            (
                "PROF_sweep.json",
                serde_json::to_string_pretty(&profile).unwrap_or_default(),
            ),
            ("sweep.folded", tree.folded()),
        ] {
            let path = args.out.join(name);
            match std::fs::write(&path, text) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {name}: {e}"),
            }
        }
    }

    if args.table3 {
        outln!("== Table 3: P from fraction of Roofline (bricks codegen) ==");
        let t = tables::table3(&sweep);
        outln!("{}", render_portability(&t));
        let _ = write_json(&t, &args.out.join("table3.json"));
    }
    if args.table5 {
        outln!("== Table 5: P from fraction of theoretical AI (bricks codegen) ==");
        let t = tables::table5(&sweep);
        outln!("{}", render_portability(&t));
        let _ = write_json(&t, &args.out.join("table5.json"));
    }
    if args.compare {
        outln!("== measured vs paper (Tables 3 and 5) ==");
        let (c3, c5) = experiments::paper::compare_all(&sweep);
        outln!("{}", experiments::paper::render_comparison(&c3));
        outln!("{}", experiments::paper::render_comparison(&c5));
        let _ = write_json(&c3, &args.out.join("compare_table3.json"));
        let _ = write_json(&c5, &args.out.join("compare_table5.json"));
    }
    if args.fig3 {
        outln!("== Fig. 3: Rooflines ==");
        let panels = figures::fig3(&sweep);
        outln!("{}", render_fig3(&panels));
        for p in &panels {
            outln!("{}", experiments::plot::roofline_ascii(p));
        }
        let _ = write_json(&panels, &args.out.join("fig3.json"));
    }
    if args.fig4 {
        outln!("== Fig. 4: L1 data movement ==");
        let groups = figures::fig4(&sweep);
        outln!("{}", render_fig4(&groups));
        let _ = write_json(&groups, &args.out.join("fig4.json"));
    }
    if args.fig5 {
        let f = figures::fig5(&sweep);
        outln!("{}", render_correlation(&f, "Fig. 5"));
        let _ = write_json(&f, &args.out.join("fig5.json"));
    }
    if args.fig6 {
        let f = figures::fig6(&sweep);
        outln!("{}", render_correlation(&f, "Fig. 6"));
        let _ = write_json(&f, &args.out.join("fig6.json"));
    }
    if args.fig7 {
        outln!("== Fig. 7: potential speed-up (bricks codegen) ==");
        let pts = figures::fig7(&sweep);
        outln!("{}", experiments::plot::speedup_ascii(&pts));
        for p in &pts {
            outln!(
                "  {:24} frac_AI {:.2}  frac_roofline {:.2}  potential {:.1}x",
                p.label,
                p.frac_ai,
                p.frac_roofline,
                p.potential()
            );
        }
        let _ = write_json(&pts, &args.out.join("fig7.json"));
    }
    ExitCode::SUCCESS
}
