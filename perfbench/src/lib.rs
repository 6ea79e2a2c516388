//! # perfbench
//!
//! The repository benchmark. Only two things in this repository really
//! execute: the host SIMD executor (`brick_vm::native`) and the toolchain
//! itself (sweeps and the tuner on `gpu-sim`). Four workloads measure
//! them end to end, and a traced run splits each by crate. The
//! workloads, metrics, units and regression bounds are declared in the
//! repository's `BENCHMARK.json`; `README.md` beside this crate has the
//! reasons for each choice, the layer-to-end-to-end map and reference
//! numbers.
//!
//! | workload | one repetition |
//! |---|---|
//! | `exec-star7-512` | `run_vector_brick_backend`: 7pt star, bricks, width 32, 512³, `Auto` backend |
//! | `exec-mixed-256` | at 256³: 7pt on array layout, 7pt `T = 2` on bricks, 125pt on bricks |
//! | `sweep-128` | `sweep_with` + `temporal_sweep_with` at 128³ (108 + 84 records) |
//! | `tune-64` | `run_tune` at 64³, full default space, {7pt, 27pt} × {A100/CUDA, MI250X-GCD/HIP} |
//!
//! **Load model.** Each workload is a closed loop with one caller in one
//! process: a call starts only after the previous one returned. Work
//! inside a call fans out over `nproc` threads (the executor's default,
//! and `jobs(nproc)` for the pipelines); the harness adds none. A round
//! is a set-up, one cold repetition from the fresh state, then warm
//! repetitions. A run measures rounds until its time budget: an exec run
//! four to seven short ones, a pipeline run one round whose cold pass takes
//! most of the budget.
//!
//! **End-to-end metrics** ([`E2E_METRICS`]), measured untraced:
//! `setup_s` (median of at least three set-ups), `cold_s`, `warm_s` and
//! `warm_p75_s` (median / 75th percentile of repetition times), and
//! `peak_rss_mb` (median of the rounds' peaks). Every time is divided by
//! the run's host speed factor ([`speed`]), which takes out the drift of
//! a shared host. Failed operations and failed correctness checks are
//! counted against attempted ones.
//!
//! **Per-layer metrics** ([`LAYER_METRICS`]) come from a traced run: a
//! short untraced pass, then the same pass with `brick-obs` tracing on.
//! They are read from the spans and counters the crates already emit,
//! from the harness's own spans around each public call, or by timing a
//! public call directly. Every workload reports every layer metric; a
//! layer a workload does not run through reads 0, and such metrics are
//! counts, ratios or rates, never times.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- run --out DIR [--workload NAME] [--seed S] [--seconds N] [--trace]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A/ B/
//! ```

pub mod compare;
pub mod exec;
pub mod host;
pub mod layers;
pub mod pipeline;
pub mod run;
pub mod speed;
pub mod stats;
pub mod workload;

/// Problem sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload names state.
    Full,
    /// Seconds-long sizes for the smoke test; not reachable from the
    /// command line.
    Toy,
}

/// End-to-end metrics, with units, in report order.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("warm_p75_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with units, in report order.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("codegen.generate_ms", "ms"),
    ("codegen.kernels", "count"),
    ("codegen.ops", "count"),
    ("analyzer.lint_ms", "ms"),
    ("lint.kernels_analyzed", "count"),
    ("vm.body_mpts_s", "Mpt/s"),
    ("vm.body_frac", "fraction"),
    ("vm.lint_verify_frac", "fraction"),
    ("vm.plan_compile_frac", "fraction"),
    ("vm.computed_gbs", "GB/s"),
    ("vm.stream_frac", "fraction"),
    ("vm.gflops", "GFLOP/s"),
    ("vm.fused_time_frac", "fraction"),
    ("vm.thread_scaling", "ratio"),
    ("core.grid_build_frac", "fraction"),
    ("gpu-sim.simulations", "count"),
    ("gpu-sim.class_ratio", "ratio"),
    ("gpu-sim.simulate_frac", "fraction"),
    ("roofline.measure_frac", "fraction"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_corrupt", "count"),
    ("sweep.cache_io_frac", "fraction"),
    ("sweep.warm_hit_ratio", "ratio"),
    ("sweep.worker_idle_frac", "fraction"),
    ("tuner.valid_frac", "fraction"),
    ("tuner.pruned_frac", "fraction"),
    ("tune.cells_evaluated", "count"),
    ("experiments.temporal_cold_frac", "fraction"),
    ("experiments.temporal_warm_frac", "fraction"),
    ("host.stream_copy_gbs", "GB/s"),
    ("host.stream_triad_gbs", "GB/s"),
    ("host.stream_copy_1t_gbs", "GB/s"),
    ("host.stream_triad_1t_gbs", "GB/s"),
    ("trace_overhead_frac", "fraction"),
];
