//! Machine-readable instrumentation and verification costs:
//! `BENCH_overhead.json`.
//!
//! Four ratios, each gated under a fixed bound: the contracts that let
//! instrumentation, kernel verification and the brick-safe proof stay on
//! by default. Both sides of every ratio run on one thread, so the ratio
//! does not move with the host's core count, and the sides are sampled
//! in turn so a drift in the host's speed lands on all of them. The
//! workloads are fixed at [`OVERHEAD_N`], where the bounds were set.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, CodegenOptions, LayoutKind, VectorKernel};
use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_lint::{analyze, ExpectedStencil};
use brick_obs::span;
use brick_vm::{KernelSpec, Plan, TraceGeometry};
use gpu_sim::{simulate, GpuArch, ProgModel};

use crate::bench::{write_bench, BenchKind};
use crate::config::ExperimentParams;
use crate::runner::{sweep_with, CellFilter, SweepOptions};

/// Domain extent of the swept and simulated workloads, fixed because the
/// bounds were calibrated at it: the smallest legal domain, a deliberately
/// conservative denominator — larger sweeps only get more expensive while
/// verification stays fixed.
pub const OVERHEAD_N: usize = crate::golden::GOLDEN_N;

/// Bound on the disabled gates' share of one `simulate()`, in percent.
pub const DISABLED_GATES_MAX_PCT: f64 = 5.0;
/// Bound on full attribution's cost over the disabled sweep, in percent.
pub const FULL_ATTRIBUTION_MAX_PCT: f64 = 15.0;
/// Bound on verifying the paper kernels relative to a sweep, in percent.
pub const LINT_VERIFY_MAX_PCT: f64 = 6.0;
/// Bound on the brick-safe proof relative to `Plan::compile`, in percent.
pub const SAFETY_PROOF_MAX_PCT: f64 = 2.0;

/// Domain extent of the array-geometry premise the safety gate proves:
/// the paper's largest (pure address arithmetic, nothing is allocated).
const SAFETY_GEOMETRY_N: usize = 512;

/// `BENCH_overhead.json` schema version.
pub const OVERHEAD_SCHEMA_VERSION: u64 = 1;

/// One gated ratio: the median cost of some work over the median of the
/// work it is priced against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadGate {
    /// Median seconds of the priced work.
    pub cost_s: f64,
    /// Median seconds of the work it is priced against.
    pub base_s: f64,
    /// `100 · cost_s / base_s`.
    pub pct: f64,
    /// Bound `pct` must stay under.
    pub limit_pct: f64,
}

impl OverheadGate {
    fn new(cost_s: f64, base_s: f64, limit_pct: f64) -> Self {
        OverheadGate {
            cost_s,
            base_s,
            pct: 100.0 * cost_s / base_s,
            limit_pct,
        }
    }
}

/// The complete `BENCH_overhead.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchOverhead {
    /// Document schema.
    pub schema: u64,
    /// Domain extent of the sweep and the simulation.
    pub n: usize,
    /// Paper kernels verified and proved safe.
    pub kernels: usize,
    /// Spans one traced `simulate()` opens: the gates a disabled run
    /// passes through.
    pub spans_per_simulate: u64,
    /// Closed gates per simulation vs the simulation.
    pub disabled_gates: OverheadGate,
    /// Traced + allocation-clocked sweep minus the disabled sweep taken
    /// just before it (median of the paired differences), vs the
    /// disabled sweep.
    pub full_attribution: OverheadGate,
    /// Analyzing the paper kernels vs one sweep.
    pub lint_verify: OverheadGate,
    /// The brick-safe proof vs `Plan::compile`.
    pub safety_proof: OverheadGate,
    /// Provenance: git SHA, jobs (always 1), wall time.
    pub manifest: brick_obs::RunManifest,
}

impl BenchOverhead {
    /// The four gates by name.
    pub fn gates(&self) -> [(&'static str, &OverheadGate); 4] {
        [
            ("disabled_gates", &self.disabled_gates),
            ("full_attribution", &self.full_attribution),
            ("lint_verify", &self.lint_verify),
            ("safety_proof", &self.safety_proof),
        ]
    }
}

/// Every distinct vector kernel a full sweep verifies — 6 stencils ×
/// both layouts × the three architectures' SIMD widths — with the
/// stencil it must implement and its halo.
fn paper_kernels() -> Result<Vec<(VectorKernel, ExpectedStencil, usize)>, String> {
    let mut out = Vec::new();
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        let expected = ExpectedStencil::resolve(&st, &b).map_err(|e| format!("{shape}: {e}"))?;
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for width in [16usize, 32, 64] {
                let k = generate(&st, &b, layout, width, CodegenOptions::default())
                    .map_err(|e| format!("{shape} {layout} w{width}: {e}"))?;
                out.push((k, expected.clone(), shape.radius as usize));
            }
        }
    }
    Ok(out)
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Per-pass time of `pass` over one sample that repeats it until at
/// least 50 ms have elapsed. A single pass of a sub-millisecond workload
/// is at the mercy of one scheduler tick on a shared host; long samples
/// average that jitter out.
fn pass_secs(pass: &mut dyn FnMut()) -> f64 {
    const MIN_SAMPLE_S: f64 = 0.05;
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed().as_secs_f64() < MIN_SAMPLE_S {
        pass();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(passes)
}

/// Nine per-pass times of each of `passes`, taken in turn so a drift in
/// the host's speed lands on every side. Nine rounds keep a median clear
/// of the load bursts of a shared host, which last several sweeps.
fn pass_samples<const K: usize>(mut passes: [&mut dyn FnMut(); K]) -> [Vec<f64>; K] {
    const ROUNDS: usize = 9;
    let mut samples = [(); K].map(|()| Vec::with_capacity(ROUNDS));
    for _ in 0..ROUNDS {
        for (pass, s) in passes.iter_mut().zip(&mut samples) {
            s.push(pass_secs(&mut **pass));
        }
    }
    samples
}

/// Price the disabled instrumentation path against a simulation. The
/// instrumentation cannot be compiled out, so "uninstrumented" is not
/// measurable; instead count the spans one traced run opens, measure the
/// per-call cost of a *disabled* gate, and compare the product with the
/// median simulation time.
fn disabled_gates() -> Result<(OverheadGate, u64), String> {
    let n = OVERHEAD_N;
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let spec = KernelSpec::Vector(
        generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default())
            .map_err(|e| format!("star-1 codegen: {e}"))?,
    );
    let decomp = Arc::new(BrickDecomp::new(
        (n, n, n),
        BrickDims::for_simd_width(32),
        shape.radius as usize,
        BrickOrdering::Lexicographic,
    ));
    let geom = TraceGeometry::brick(Arc::new(BrickNav::new(decomp)));
    let arch = GpuArch::a100();
    let flops = StencilAnalysis::of_shape(&shape).flops_per_point;

    span::clear_spans();
    span::set_tracing(true);
    simulate(&spec, &geom, &arch, ProgModel::Cuda, flops);
    let spans_per_run = span::spans_recorded().max(1);
    span::set_tracing(false);
    span::clear_spans();

    // Per-call price of one closed gate: an inert SpanGuard plus a
    // counter_add, the two operations every instrumentation point
    // bottoms out in when off.
    const CALLS: u32 = 10_000;
    let [sim_s, calls_s] = pass_samples([
        &mut || {
            black_box(simulate(&spec, &geom, &arch, ProgModel::Cuda, flops));
        },
        &mut || {
            for i in 0..CALLS {
                drop(black_box(span::span_cat("bench-gate", "bench")));
                brick_obs::counter_add("bench.gate", u64::from(black_box(i) & 1));
            }
        },
    ])
    .map(median_secs);
    let gate_s = calls_s / f64::from(CALLS);
    let gate = OverheadGate::new(gate_s * spans_per_run as f64, sim_s, DISABLED_GATES_MAX_PCT);
    Ok((gate, spans_per_run))
}

/// Measure all four gates at [`OVERHEAD_N`], sweeping the cells `filter`
/// admits on one worker with no disk cache. Leaves span tracing off. Does
/// not check the bounds.
pub fn measure_overhead(filter: CellFilter) -> Result<BenchOverhead, String> {
    let t_run = Instant::now();
    let n = OVERHEAD_N;
    let opts = SweepOptions::new(ExperimentParams { n })
        .jobs(1)
        .filter(filter);
    let (disabled_gates, spans_per_simulate) = disabled_gates()?;
    let kernels = paper_kernels()?;
    let lint_all = || {
        kernels
            .iter()
            .all(|(k, expected, _)| analyze(k, Some(expected)).is_clean())
    };
    if !lint_all() {
        return Err("a paper kernel does not verify".to_string());
    }

    // warm-up: faults in code paths before any side is timed, and
    // surfaces a sweep error once so the timed passes can expect success;
    // the traced pass turns tracing back off, so the others run untraced
    span::set_tracing(false);
    sweep_with(&opts).map_err(|e| format!("overhead sweep: {e}"))?;
    let sweep = || {
        black_box(sweep_with(&opts).expect("the warm-up sweep succeeded"));
    };

    // the untraced sweep is the denominator of both the attribution and
    // the lint gate
    brick_prof::init();
    let [off, on, lint] = pass_samples([
        &mut || sweep(),
        &mut || {
            span::clear_spans();
            span::set_tracing(true);
            sweep();
            span::set_tracing(false);
        },
        &mut || {
            black_box(lint_all());
        },
    ]);
    span::clear_spans();
    // each traced sweep is priced against the untraced one just before
    // it, so a burst of host load that spans a whole side cancels out
    let traced_s = median_secs(on.iter().zip(&off).map(|(on, off)| on - off).collect());
    let off_s = median_secs(off);
    let full_attribution = OverheadGate::new(traced_s, off_s, FULL_ATTRIBUTION_MAX_PCT);
    let lint_verify = OverheadGate::new(median_secs(lint), off_s, LINT_VERIFY_MAX_PCT);

    // `Plan::compile` embeds the proof, so the overhead is the prover's
    // share of compile time: re-run the identical proof standalone, plus
    // the per-run array-geometry premise (brick plans return Ok at once).
    let plans = kernels
        .iter()
        .map(|(k, _, halo)| Plan::compile(k).map(|p| (p, *halo)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("paper plan: {e}"))?;
    let [compile_s, prove_s] = pass_samples([
        &mut || {
            for (k, _, _) in &kernels {
                black_box(Plan::compile(black_box(k)).expect("compiled once already"));
            }
        },
        &mut || {
            let g = SAFETY_GEOMETRY_N;
            for (plan, halo) in &plans {
                black_box(plan.verify_safety().expect("compile proved it"));
                black_box(plan.check_array_geometry(g, g, g, *halo))
                    .expect("paper plans tile the 512^3 array");
            }
        },
    ])
    .map(median_secs);
    let safety_proof = OverheadGate::new(prove_s, compile_s, SAFETY_PROOF_MAX_PCT);

    let config_json = format!(r#"{{"bench":"overhead","n":{n}}}"#);
    Ok(BenchOverhead {
        schema: OVERHEAD_SCHEMA_VERSION,
        n,
        kernels: kernels.len(),
        spans_per_simulate,
        disabled_gates,
        full_attribution,
        lint_verify,
        safety_proof,
        manifest: brick_obs::RunManifest::begin(&config_json)
            .with_jobs(1)
            .finish(t_run.elapsed().as_secs_f64(), Vec::new()),
    })
}

/// Measure the gates on the full paper matrix, write
/// `BENCH_overhead.json` under `out`, then fail with every gate whose
/// ratio reached its bound.
pub fn run_bench_overhead(out: &Path) -> Result<BenchOverhead, String> {
    let bench = measure_overhead(CellFilter::default())?;
    write_bench(out, BenchKind::Overhead, &bench)?;
    let failures: Vec<String> = bench
        .gates()
        .iter()
        .filter(|(_, g)| g.pct >= g.limit_pct)
        .map(|(name, g)| format!("{name}: {:.2}% (limit {}%)", g.pct, g.limit_pct))
        .collect();
    if failures.is_empty() {
        Ok(bench)
    } else {
        Err(failures.join("\n"))
    }
}
