//! The executor workloads: `brick_vm` run calls over seeded grids.

use std::sync::Arc;
use std::time::Instant;

use brick_codegen::{generate, CodegenOptions, LayoutKind, VectorKernel};
use brick_core::{ArrayGrid, BrickDims, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::{DenseGrid, StencilAnalysis};
use brick_vm::{run_vector_array_backend, run_vector_brick_backend, Backend, ExecutionMode, Plan};

use crate::stats::{median, ratio, SplitMix64};
use crate::workload::{Metric, PassTimes, Tally, Workload};
use crate::Scale;

/// Vector width (brick `x` extent) of every exec kernel.
const WIDTH: usize = 32;

/// Bytes one point-update moves at the DRAM roof: one input and one
/// output double. "Computed" bandwidth, not a hardware count.
const BYTES_PER_POINT: f64 = 16.0;

/// One kernel of a repetition.
#[derive(Debug, Clone, Copy)]
struct Case {
    shape: StencilShape,
    layout: LayoutKind,
    temporal_degree: u32,
}

enum Out {
    Brick(BrickGrid),
    Array(ArrayGrid),
}

/// Kernels, inputs and one output per kernel: the state a set-up builds.
struct State {
    kernels: Vec<VectorKernel>,
    bricks: Option<BrickGrid>,
    array: Option<ArrayGrid>,
    outs: Vec<Out>,
}

/// Wall times of the parts of one exec call, measured by calling the
/// same public functions the call makes.
#[derive(Debug, Clone, Copy, Default)]
struct CallSplit {
    /// `brick_lint::verify`, repeated by every run call.
    verify_s: f64,
    /// `Plan::compile`, the brick-safe proof included.
    compile_s: f64,
    /// Whether the plan runs on fused tapes.
    fused: bool,
}

/// An executor workload: one repetition runs every case once, in order.
pub struct ExecWorkload {
    n: usize,
    seed: u64,
    cases: Vec<Case>,
    warm_per_round: usize,
    backend: Backend,
    state: Option<State>,
    tally: Tally,
    /// Per-case wall of every warm call, untraced.
    call_walls: Vec<Vec<f64>>,
    /// `from_dense` + `with_metadata` wall of every set-up.
    grid_build_s: Vec<f64>,
    split: Vec<CallSplit>,
    /// Repetition walls at one thread and at every thread.
    scaling: Option<(f64, f64)>,
}

impl ExecWorkload {
    /// `exec-star7-512`.
    pub fn star7(scale: Scale, seed: u64) -> ExecWorkload {
        let n = match scale {
            Scale::Full => 512,
            Scale::Toy => 64,
        };
        let case = Case {
            shape: StencilShape::star(1),
            layout: LayoutKind::Brick,
            temporal_degree: 1,
        };
        ExecWorkload::new(n, seed, vec![case], 2)
    }

    /// `exec-mixed-256`.
    pub fn mixed(scale: Scale, seed: u64) -> ExecWorkload {
        let n = match scale {
            Scale::Full => 256,
            Scale::Toy => 64,
        };
        let case = |shape, layout, temporal_degree| Case {
            shape,
            layout,
            temporal_degree,
        };
        let cases = vec![
            case(StencilShape::star(1), LayoutKind::Array, 1),
            case(StencilShape::star(1), LayoutKind::Brick, 2),
            case(StencilShape::cube(2), LayoutKind::Brick, 1),
        ];
        ExecWorkload::new(n, seed, cases, 2)
    }

    fn new(n: usize, seed: u64, cases: Vec<Case>, warm_per_round: usize) -> ExecWorkload {
        let backend = brick_vm::resolve(ExecutionMode::Auto).expect("Auto always resolves");
        ExecWorkload {
            n,
            seed,
            call_walls: vec![Vec::new(); cases.len()],
            split: Vec::new(),
            cases,
            warm_per_round,
            backend,
            state: None,
            tally: Tally::default(),
            grid_build_s: Vec::new(),
            scaling: None,
        }
    }

    fn points(&self) -> f64 {
        (self.n * self.n * self.n) as f64
    }

    /// Run case `i` under `backend` into its output grid.
    fn call(&mut self, i: usize, backend: Backend) -> Result<(), String> {
        let state = self.state.as_mut().ok_or("exec call before set-up")?;
        let k = &state.kernels[i];
        let _span = brick_obs::span_cat(format!("call:{}", k.name), "bench");
        let r = match &mut state.outs[i] {
            Out::Brick(out) => {
                let input = state
                    .bricks
                    .as_ref()
                    .expect("brick cases build brick input");
                run_vector_brick_backend(k, input, out, backend)
            }
            Out::Array(out) => {
                let input = state.array.as_ref().expect("array cases build array input");
                run_vector_array_backend(k, input, out, backend)
            }
        };
        r.map_err(|e| format!("{}: {e}", k.name))
    }

    /// One repetition: every case once, in order. Returns the wall time;
    /// per-call walls go to `walls` when given.
    fn repetition(&mut self, mut walls: Option<&mut Vec<Vec<f64>>>) -> Result<f64, String> {
        let calls = self.cases.len() as u64;
        let t_rep = Instant::now();
        for i in 0..self.cases.len() {
            let t = Instant::now();
            if let Err(e) = self.call(i, self.backend) {
                self.tally.ops(calls, calls, || e.clone());
                return Err(e);
            }
            if let Some(w) = walls.as_deref_mut() {
                w[i].push(t.elapsed().as_secs_f64());
            }
        }
        let wall = t_rep.elapsed().as_secs_f64();
        self.tally.ops(calls, 0, String::new);
        Ok(wall)
    }

    /// Run case `i` under `backend` into an output grid filled with
    /// [`SENTINEL`] first, and digest the whole output buffer.
    fn checked_call(&mut self, i: usize, backend: Backend) -> Result<(u64, u64), String> {
        let state = self.state.as_mut().ok_or("exec call before set-up")?;
        match &mut state.outs[i] {
            Out::Brick(g) => g.raw_mut().fill(SENTINEL),
            Out::Array(g) => g.dense_mut().raw_mut().fill(SENTINEL),
        }
        self.call(i, backend)?;
        let state = self.state.as_ref().expect("set up above");
        Ok(match &state.outs[i] {
            Out::Brick(g) => digest(g.raw()),
            Out::Array(g) => digest(g.dense().raw()),
        })
    }
}

/// What every output cell holds before a checked call: a cell one
/// backend writes and the other leaves alone differs in the digests. It
/// is finite, so any non-finite output is one a kernel computed.
const SENTINEL: f64 = f64::MAX;

/// A 64-bit digest of the exact bit patterns of `xs`, and how many values
/// are not finite. Two outputs with equal digests are bit-identical up to
/// a 2⁻⁶⁴ collision chance; the digest avoids holding a second copy of a
/// gigabyte grid.
fn digest(xs: &[f64]) -> (u64, u64) {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    let mut bad = 0;
    for x in xs {
        h = (h ^ x.to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        bad += u64::from(!x.is_finite());
    }
    (h, bad)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

impl Workload for ExecWorkload {
    fn warm_per_round(&self) -> usize {
        self.warm_per_round
    }

    fn traced_warm(&self) -> usize {
        5
    }

    fn setup(&mut self) -> Result<f64, String> {
        self.state = None; // free the previous grids outside the clock
        let t0 = Instant::now();
        let mut kernels = Vec::new();
        for c in &self.cases {
            let st = c.shape.stencil();
            let opts = CodegenOptions {
                temporal_degree: c.temporal_degree,
                ..CodegenOptions::default()
            };
            let k = generate(&st, &st.default_bindings(), c.layout, WIDTH, opts)
                .map_err(|e| format!("codegen {}: {e}", c.shape))?;
            kernels.push(k);
        }
        let halo = self
            .cases
            .iter()
            .map(|c| (c.shape.radius * c.temporal_degree) as usize)
            .max()
            .unwrap_or(1);
        let mut dense = DenseGrid::cubic(self.n, halo);
        let mut rng = SplitMix64::new(self.seed);
        for v in dense.raw_mut() {
            *v = rng.next_unit();
        }
        let t_build = Instant::now();
        let has = |l: LayoutKind| self.cases.iter().any(|c| c.layout == l);
        let bricks = has(LayoutKind::Brick)
            .then(|| BrickGrid::from_dense(&dense, BrickDims::for_simd_width(WIDTH)));
        let array = has(LayoutKind::Array).then(|| ArrayGrid::from_dense(&dense));
        let outs = self
            .cases
            .iter()
            .map(|c| match c.layout {
                LayoutKind::Brick => {
                    let b = bricks.as_ref().expect("built above");
                    Out::Brick(BrickGrid::with_metadata(
                        Arc::clone(b.decomp()),
                        Arc::clone(b.info()),
                    ))
                }
                LayoutKind::Array => Out::Array(ArrayGrid::new(self.n, self.n, self.n, halo)),
            })
            .collect();
        self.grid_build_s.push(t_build.elapsed().as_secs_f64());
        drop(dense);
        self.state = Some(State {
            kernels,
            bricks,
            array,
            outs,
        });
        Ok(t0.elapsed().as_secs_f64())
    }

    fn cold(&mut self) -> Result<f64, String> {
        self.repetition(None)
    }

    fn warm(&mut self) -> Result<f64, String> {
        let mut walls = std::mem::take(&mut self.call_walls);
        let r = self.repetition(Some(&mut walls));
        self.call_walls = walls;
        r
    }

    /// Every kernel's whole output buffer must match `Backend::Interpreter`
    /// bit for bit on the same seeded input, written cells and untouched
    /// ones alike, and hold no NaN or infinity.
    fn check(&mut self) {
        for i in 0..self.cases.len() {
            let name = self
                .state
                .as_ref()
                .map_or(String::new(), |s| s.kernels[i].name.clone());
            let native = self.checked_call(i, self.backend);
            let oracle = self.checked_call(i, Backend::Interpreter);
            let outcome = match (native, oracle) {
                (Ok((a, 0)), Ok((b, _))) if a == b => Ok(()),
                (Ok((_, bad)), Ok(_)) if bad > 0 => Err(format!("{bad} non-finite outputs")),
                (Ok(_), Ok(_)) => Err(format!("differs from the interpreter ({})", self.backend)),
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            let why = || format!("{name}: {}", outcome.clone().unwrap_err());
            self.tally.ops(1, u64::from(outcome.is_err()), why);
        }
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn mpts_per_rep(&self) -> Option<f64> {
        let t: u32 = self.cases.iter().map(|c| c.temporal_degree).sum();
        Some(self.points() * f64::from(t) / 1e6)
    }

    /// Times the verify and compile steps every call repeats, and the
    /// repetition at one thread against all threads.
    fn probe_layers(&mut self) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        let time = |f: &dyn Fn()| {
            let walls: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&walls)
        };
        self.split = state
            .kernels
            .iter()
            .map(|k| CallSplit {
                verify_s: time(&|| {
                    let _ = std::hint::black_box(brick_lint::verify(k));
                }),
                compile_s: time(&|| {
                    let _ = std::hint::black_box(Plan::compile(k));
                }),
                fused: Plan::compile(k).is_ok_and(|p| p.safety().fused),
            })
            .collect();
        let reps = 3;
        let mut run = |pool: &rayon::ThreadPool| -> Vec<f64> {
            (0..reps)
                .filter_map(|_| pool.install(|| self.repetition(None)).ok())
                .collect()
        };
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        let all = rayon::ThreadPoolBuilder::new().num_threads(0).build();
        let (Ok(one), Ok(all)) = (one, all);
        let (w1, wn) = (run(&one), run(&all));
        if !w1.is_empty() && !wn.is_empty() {
            self.scaling = Some((median(&w1), median(&wn)));
        }
    }

    fn layer_metrics(&self, traced: &PassTimes, triad_gbs: f64) -> Vec<Metric> {
        let call: Vec<f64> = self.call_walls.iter().map(|w| median_or_zero(w)).collect();
        let split = |i: usize| self.split.get(i).copied().unwrap_or_default();
        let body: Vec<f64> = (0..self.cases.len())
            .map(|i| (call[i] - split(i).verify_s - split(i).compile_s).max(0.0))
            .collect();
        let (call_s, body_s): (f64, f64) = (call.iter().sum(), body.iter().sum());
        let verify_s: f64 = (0..self.cases.len()).map(|i| split(i).verify_s).sum();
        let compile_s: f64 = (0..self.cases.len()).map(|i| split(i).compile_s).sum();
        let fused_s: f64 = (0..self.cases.len())
            .filter(|&i| split(i).fused)
            .map(|i| call[i])
            .sum();
        let flops: f64 = self
            .cases
            .iter()
            .map(|c| {
                StencilAnalysis::of_shape(&c.shape).flops_per_point as f64
                    * f64::from(c.temporal_degree)
            })
            .sum::<f64>()
            * self.points();
        let launches = self.cases.len() as f64;
        let computed_gbs = BYTES_PER_POINT * self.points() * launches / body_s / 1e9;
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m(
                "vm.body_mpts_s",
                "Mpt/s",
                ratio(self.mpts_per_rep().unwrap_or(0.0), body_s),
            ),
            m("vm.body_frac", "fraction", ratio(body_s, call_s)),
            m("vm.lint_verify_frac", "fraction", ratio(verify_s, call_s)),
            m("vm.plan_compile_frac", "fraction", ratio(compile_s, call_s)),
            m("vm.computed_gbs", "GB/s", computed_gbs),
            m("vm.stream_frac", "fraction", ratio(computed_gbs, triad_gbs)),
            m("vm.gflops", "GFLOP/s", ratio(flops / 1e9, body_s)),
            m("vm.fused_time_frac", "fraction", ratio(fused_s, call_s)),
            m(
                "vm.thread_scaling",
                "ratio",
                self.scaling.map_or(0.0, |(one, all)| ratio(one, all)),
            ),
            m(
                "core.grid_build_frac",
                "fraction",
                ratio(
                    self.grid_build_s.last().copied().unwrap_or(0.0),
                    traced.setup.last().copied().unwrap_or(0.0),
                ),
            ),
        ]
    }

    fn release(&mut self) {
        self.state = None;
    }
}
