//! The one cell evaluator behind the paper sweep, the temporal sweep and
//! the tuner.
//!
//! A *cell* is one kernel on one target at one domain size: a stencil
//! shape, a layout/codegen configuration ([`KernelConfig`]), a
//! specialization vector ([`SpecParams`]), an architecture, a
//! programming model and `n`. [`CellId`] holds exactly those inputs. The
//! on-disk cache key, the geometry memo key and the memory-counter memo
//! key are all projections of it, so no key can leave an input out. The
//! paper and temporal sweeps are fixed points of the tuner's space: a cell
//! two pipelines share (the tuner's baseline is the temporal sweep's
//! `T = 1` cell) is simulated and cached once.
//!
//! [`Evaluator::evaluate`] owns the whole per-cell path, one phase span
//! after another (phases never nest):
//!
//! 1. `cache-io` — look the cell up; a warm cell generates nothing;
//! 2. `lint-verify` — generate the program and verify it against the
//!    `T`-fold composed stencil, once per distinct program;
//! 3. `compile` — [`compile_only`], then the caller's optional pruning
//!    test on the compiled occupancy;
//! 4. `simulate` — the geometry and memory-counter memos;
//! 5. `score` — [`assemble`] into a [`Measurement`], then `cache-io`
//!    again to store it.
//!
//! [`CellRun`] is the one fan-out every pipeline runs its cell lists
//! through: it opens the evaluator under the run's span, spreads each
//! list over the worker threads, times every cell, reduces the results in
//! cell order and finishes the run's manifest.
//!
//! The disk key hashes the shape and the specialization vector, not the
//! program text. A codegen or analyzer change that alters any program
//! must therefore bump [`SCHEMA_VERSION`]; a root test pins the program
//! fingerprints of the paper kernels to the version.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, CodegenError, LayoutKind, SpecParams, Strategy};
use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_obs::RunManifest;
use brick_sweep::{map_cells, CacheKey, CacheOutcome, DiskCache, Jobs, KeyBuilder};
use brick_vm::{KernelSpec, ScalarKernel, TraceGeometry};
use gpu_sim::{
    assemble, compile_only, simulate_memory_opts, GpuArch, GpuKind, MemCounters, ProgModel,
    SimOptions,
};
use roofline::Roofline;

/// Version of everything a cached value depends on that its key does not
/// name: the generator, the analyzer, and the timing, cache, compiler and
/// Roofline models. Bump it whenever any of them changes behaviour — it
/// retires every entry written under the old semantics at once.
///
/// v5 merged the paper sweep's `cell`/`roofline` domains (v4), the
/// temporal sweep's `tcell` domain and the tuner's `tune`/`tune-roofline`
/// domains (v2) into one `cell`/`roofline` pair keyed on [`CellId`].
pub const SCHEMA_VERSION: u64 = 5;

/// The data-layout × code-generation configurations the paper evaluates
/// (§4.4): the layout/codegen axis of a cell, beside its specialization
/// vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelConfig {
    /// Conventional array layout, 3-D tiling, native scalar compilation.
    Array,
    /// Conventional array layout with the vector code generator —
    /// isolates the codegen contribution.
    ArrayCodegen,
    /// Brick layout with the vector code generator — adds the data-layout
    /// contribution.
    BricksCodegen,
}

impl KernelConfig {
    /// The three configurations, in the paper's presentation order.
    pub fn all() -> [KernelConfig; 3] {
        [
            KernelConfig::Array,
            KernelConfig::ArrayCodegen,
            KernelConfig::BricksCodegen,
        ]
    }

    /// Data layout of the configuration.
    pub fn layout(&self) -> LayoutKind {
        match self {
            KernelConfig::Array | KernelConfig::ArrayCodegen => LayoutKind::Array,
            KernelConfig::BricksCodegen => LayoutKind::Brick,
        }
    }

    /// Whether the vector code generator is applied.
    pub fn codegen(&self) -> bool {
        !matches!(self, KernelConfig::Array)
    }

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            KernelConfig::Array => "array",
            KernelConfig::ArrayCodegen => "array codegen",
            KernelConfig::BricksCodegen => "bricks codegen",
        }
    }
}

impl fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The specialization the paper sweep generates at a SIMD width:
/// [`SpecParams::paper_default`], except that the generator picks gather
/// or scatter per stencil ([`Strategy::Auto`]; 125pt resolves to
/// scatter).
pub fn paper_spec(simd_width: usize) -> SpecParams {
    SpecParams {
        strategy: Strategy::Auto,
        ..SpecParams::paper_default(simd_width)
    }
}

/// Generate a cell's program (unverified). Ordering and interleave chunk
/// never reach the program. A vector kernel the generator cannot build
/// (a reach past the brick extent) is its [`CodegenError`].
pub fn program(
    shape: &StencilShape,
    config: KernelConfig,
    spec: &SpecParams,
) -> Result<KernelSpec, CodegenError> {
    let st = shape.stencil();
    let b = st.default_bindings();
    Ok(if config.codegen() {
        KernelSpec::Vector(generate(
            &st,
            &b,
            config.layout(),
            spec.width(),
            spec.codegen_options(),
        )?)
    } else {
        KernelSpec::Scalar(
            ScalarKernel::new(&st, &b, config.layout(), spec.width())
                .expect("default bindings cover all symbols"),
        )
    })
}

/// The trace geometry of a cell at `n³`.
pub fn geometry(
    shape: &StencilShape,
    config: KernelConfig,
    spec: &SpecParams,
    n: usize,
) -> TraceGeometry {
    GeometryKey::of(shape, config, spec, n).build()
}

/// Stable fingerprint of either kernel family.
///
/// Vector kernels reuse the analyzer's content hash
/// ([`brick_lint::fingerprint`]), the one that memoises static
/// verification. Scalar kernels (no IR) hash their complete definition:
/// name, layout, block shape and coefficient classes.
pub fn spec_fingerprint(spec: &KernelSpec) -> u64 {
    match spec {
        KernelSpec::Vector(k) => brick_lint::fingerprint(k),
        KernelSpec::Scalar(k) => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.name.hash(&mut h);
            format!("{}", k.layout).hash(&mut h);
            (k.block.bx, k.block.by, k.block.bz).hash(&mut h);
            for (w, offs) in &k.classes {
                w.to_bits().hash(&mut h);
                offs.hash(&mut h);
            }
            h.finish()
        }
    }
}

/// Stable fingerprint of a full architecture description (every field,
/// via its canonical JSON): editing any entry of an arch retires its
/// cached cells.
pub fn arch_fingerprint(arch: &GpuArch) -> u64 {
    let json = serde_json::to_string(arch).expect("GpuArch serializes");
    brick_obs::manifest::fnv1a64(json.as_bytes())
}

/// The identity of one cell: every input its [`Measurement`] depends on.
/// The scoring inputs (normalised FLOPs, theoretical AI) follow from the
/// shape and the temporal degree, the Roofline from the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Layout/codegen configuration.
    pub config: KernelConfig,
    /// Specialization vector.
    pub spec: SpecParams,
    /// [`arch_fingerprint`] of the target architecture.
    pub arch: u64,
    /// Programming model.
    pub model: ProgModel,
    /// Cubic domain extent.
    pub n: usize,
}

/// What a program depends on: the shape, the configuration and the
/// specialization vector with its two simulation-only axes (ordering,
/// interleave chunk) cleared.
type ProgramKey = (StencilShape, KernelConfig, SpecParams);

/// Every input of the memory counters: the cell without its model, which
/// reaches the memory system only through the resident blocks per SM.
type CountersKey = (StencilShape, KernelConfig, SpecParams, u64, usize, u32);

impl CellId {
    /// The on-disk cache key.
    pub fn disk_key(&self) -> CacheKey {
        let CellId {
            shape,
            config,
            spec,
            arch,
            model,
            n,
        } = *self;
        KeyBuilder::new("cell", SCHEMA_VERSION)
            .field("shape", shape.full_name())
            .field("config", format_args!("{config:?}"))
            .fingerprint("spec", spec.fingerprint())
            .fingerprint("arch", arch)
            .field("model", model)
            .field("n", n)
            .build()
    }

    fn program_key(&self) -> ProgramKey {
        let spec = SpecParams {
            ordering: BrickOrdering::Lexicographic,
            interleave_chunk: 0,
            ..self.spec
        };
        (self.shape, self.config, spec)
    }

    fn geometry_key(&self) -> GeometryKey {
        GeometryKey::of(&self.shape, self.config, &self.spec, self.n)
    }

    fn counters_key(&self, blocks_per_sm: u32) -> CountersKey {
        let CellId {
            shape,
            config,
            spec,
            arch,
            model: _,
            n,
        } = *self;
        (shape, config, spec, arch, n, blocks_per_sm)
    }
}

/// What a trace geometry depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeometryKey {
    layout: LayoutKind,
    n: usize,
    dims: BrickDims,
    ordering: BrickOrdering,
    /// Ghost-shell depth: a `T`-fused footprint reaches `T·r`.
    reach: usize,
}

impl GeometryKey {
    fn of(shape: &StencilShape, config: KernelConfig, spec: &SpecParams, n: usize) -> GeometryKey {
        GeometryKey {
            layout: config.layout(),
            n,
            dims: spec.brick_dims(),
            ordering: spec.ordering,
            reach: spec.temporal_degree as usize * shape.radius as usize,
        }
    }

    fn build(&self) -> TraceGeometry {
        let GeometryKey {
            layout,
            n,
            dims,
            ordering,
            reach,
        } = *self;
        match layout {
            LayoutKind::Brick => TraceGeometry::brick(Arc::new(BrickNav::new(Arc::new(
                BrickDecomp::new((n, n, n), dims, reach, ordering),
            )))),
            LayoutKind::Array => TraceGeometry::array((n, n, n), reach, dims),
        }
    }
}

/// One cell as a pipeline asks for it: the kernel axes plus the index of
/// its target in the evaluator's target list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Layout/codegen configuration.
    pub config: KernelConfig,
    /// Specialization vector.
    pub spec: SpecParams,
    /// Index into [`Evaluator::targets`].
    pub target: usize,
}

/// The cached measurement of one cell: every field any pipeline's record
/// needs. Ratios against the Roofline or the theoretical AI are derived
/// when a record is built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// [`spec_fingerprint`] of the program.
    pub kernel_fingerprint: u64,
    /// Interior points of the domain.
    pub points: u64,
    /// GFLOP/s at the normalised FLOP count (`T ×` the per-step count).
    pub gflops: f64,
    /// Empirical arithmetic intensity (normalised FLOPs / DRAM bytes).
    pub ai: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// L1 data movement in bytes.
    pub l1_bytes: u64,
    /// L2 data movement in bytes.
    pub l2_bytes: u64,
    /// HBM data movement in bytes.
    pub dram_bytes: u64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread after compilation.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
}

/// The cached value of one cell: a measurement, or `None` for a cell a
/// pruning test dropped. A marker only settles lookups that may prune.
#[derive(Serialize, Deserialize)]
struct Cached {
    measured: Option<Measurement>,
}

/// What evaluating a cell came to.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served from the disk cache.
    Cached(Measurement),
    /// Simulated in this run.
    Measured(Measurement),
    /// Dropped by the pruning test.
    Pruned,
}

/// A pruning test: given the cell's compiled occupancy (`None` before the
/// cell is compiled), whether the cell can be dropped unmeasured. With
/// `Some`, it must decide as it would after answering `false` to `None`.
pub type PruneTest<'a> = &'a dyn Fn(Option<f64>) -> bool;

/// Why a sweep or a tuner run produced no records.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The programming model is not supported on the GPU: there is no
    /// compiler model for the pair, hence no Roofline.
    Unsupported(GpuKind, ProgModel),
    /// The domain size does not suit the run: the sweep parameters failed
    /// validation, or a tuner group's paper baseline is invalid at `n`.
    BadDomain(String),
    /// A tuner group's entire candidate space failed validity.
    NoFeasiblePoint {
        /// Stencil label.
        stencil: String,
        /// GPU.
        gpu: GpuKind,
        /// Programming model.
        model: ProgModel,
    },
    /// The tuning space has an empty axis.
    EmptySpace,
    /// The on-disk result cache could not be opened.
    Cache(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unsupported(g, m) => write!(f, "{m} unsupported on {g}"),
            RunError::BadDomain(e) => write!(f, "bad domain: {e}"),
            RunError::NoFeasiblePoint {
                stencil,
                gpu,
                model,
            } => write!(f, "no feasible tuning point for {stencil} on {gpu}/{model}"),
            RunError::EmptySpace => f.write_str("empty tuning space"),
            RunError::Cache(e) => write!(f, "result cache unavailable: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One target cells run on.
#[derive(Debug, Clone)]
pub struct Target {
    /// Architecture.
    pub arch: GpuArch,
    /// Programming model.
    pub model: ProgModel,
    /// The empirical Roofline.
    pub roofline: Roofline,
    fingerprint: u64,
}

/// A value computed at most once per key, even when cells race for it.
struct Memo<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K: Hash + Eq, V> Memo<K, V> {
    fn new() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }

    fn slot(&self, key: K) -> Arc<OnceLock<V>> {
        Arc::clone(
            self.0
                .lock()
                .expect("memo lock poisoned")
                .entry(key)
                .or_default(),
        )
    }
}

/// One evaluator's cache probes: hits, misses and corrupt entries. The
/// process-wide `sweep.cache.*` counters also count the probes of any
/// other run in the process; these count this evaluator's alone.
#[derive(Default)]
struct Probes([AtomicU64; 3]);

impl Probes {
    /// Look `key` up, counting the outcome.
    fn get<T: Deserialize>(&self, cache: &DiskCache, key: &CacheKey) -> Option<T> {
        let (slot, value) = match cache.get(key) {
            CacheOutcome::Hit(v) => (0, Some(v)),
            CacheOutcome::Miss => (1, None),
            CacheOutcome::Corrupt(_) => (2, None),
        };
        self.0[slot].fetch_add(1, Ordering::Relaxed);
        value
    }

    fn counts(&self) -> (u64, u64, u64) {
        let [h, m, c] = &self.0;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (load(h), load(m), load(c))
    }
}

/// Store `value` under `key`; a failed write costs only a later recompute.
fn put(cache: &DiskCache, key: &CacheKey, value: &impl Serialize) {
    if let Err(e) = cache.put(key, value) {
        brick_obs::warn!("could not cache {}: {e}", key.file_name());
    }
}

/// The identity of one target's Roofline: every input
/// [`roofline::measure`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RooflineId {
    /// [`arch_fingerprint`] of the target architecture.
    pub arch: u64,
    /// Programming model.
    pub model: ProgModel,
}

impl RooflineId {
    /// The on-disk cache key.
    pub fn disk_key(&self) -> CacheKey {
        let RooflineId { arch, model } = *self;
        KeyBuilder::new("roofline", SCHEMA_VERSION)
            .fingerprint("arch", arch)
            .field("model", model)
            .build()
    }
}

/// Evaluates cells over a fixed target list at one domain size. Every
/// memo is value-deterministic, so results are identical at any schedule
/// and with or without a disk cache.
pub struct Evaluator {
    n: usize,
    cache: Option<DiskCache>,
    targets: Vec<Target>,
    probes: Probes,
    lint: brick_lint::FingerprintCache,
    programs: Memo<ProgramKey, KernelSpec>,
    geometries: Memo<GeometryKey, TraceGeometry>,
    counters: Memo<CountersKey, MemCounters>,
}

impl Evaluator {
    /// Open the disk cache under `cache_dir` (none when `None`) and
    /// measure, or load, the Roofline of every target (`rooflines` phase).
    /// A target without a Roofline (a model its GPU does not support) is
    /// [`RunError::Unsupported`].
    pub(crate) fn open(
        n: usize,
        cache_dir: Option<&Path>,
        targets: impl IntoIterator<Item = (GpuArch, ProgModel)>,
    ) -> Result<Evaluator, RunError> {
        let probes = Probes::default();
        let cache = cache_dir
            .map(DiskCache::open)
            .transpose()
            .map_err(|e| RunError::Cache(e.to_string()))?;
        let targets = {
            let _phase = brick_obs::span_cat("rooflines", "phase");
            targets
                .into_iter()
                .map(|(arch, model)| {
                    let fingerprint = arch_fingerprint(&arch);
                    let measure = || roofline::measure(&arch, model);
                    let roofline = match &cache {
                        Some(c) => {
                            let id = RooflineId {
                                arch: fingerprint,
                                model,
                            };
                            let key = id.disk_key();
                            probes.get(c, &key).unwrap_or_else(|| {
                                let roofline = measure();
                                if roofline.is_some() {
                                    put(c, &key, &roofline);
                                }
                                roofline
                            })
                        }
                        None => measure(),
                    }
                    .ok_or(RunError::Unsupported(arch.kind, model))?;
                    Ok(Target {
                        arch,
                        model,
                        roofline,
                        fingerprint,
                    })
                })
                .collect::<Result<Vec<Target>, RunError>>()?
        };
        brick_obs::gauge_set("sweep.rooflines", targets.len() as f64);
        Ok(Evaluator {
            n,
            cache,
            targets,
            probes,
            lint: brick_lint::FingerprintCache::new(),
            programs: Memo::new(),
            geometries: Memo::new(),
            counters: Memo::new(),
        })
    }

    /// The targets, in the order they were given.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// The identity of `cell`.
    fn id(&self, cell: &Cell) -> CellId {
        let Cell {
            shape,
            config,
            spec,
            target,
        } = *cell;
        let t = &self.targets[target];
        CellId {
            shape,
            config,
            spec,
            arch: t.fingerprint,
            model: t.model,
            n: self.n,
        }
    }

    /// Measure `cell`, from the cache when it holds a measurement.
    pub fn measure(&self, cell: &Cell) -> Measurement {
        match self.evaluate(cell, None) {
            Outcome::Cached(m) | Outcome::Measured(m) => m,
            Outcome::Pruned => unreachable!("a cell without a pruning test is always measured"),
        }
    }

    /// Evaluate `cell`; with a pruning test, the cell may be dropped (and
    /// cached as a marker) without a memory simulation. A cached marker
    /// answers only a lookup with a pruning test; a cached measurement
    /// answers one only after the test keeps it.
    ///
    /// Panics if the generated program fails static verification — a
    /// kernel the analyzer rejects has no business producing numbers.
    pub fn evaluate(&self, cell: &Cell, prune: Option<PruneTest<'_>>) -> Outcome {
        let target = &self.targets[cell.target];
        let (arch, model) = (&target.arch, target.model);
        let id = self.id(cell);
        let _record = brick_obs::span_cat(
            format!(
                "{}/{}/{}/{model}/{}",
                cell.shape.label(),
                cell.config,
                arch.kind,
                cell.spec
            ),
            "record",
        );
        let key = self.cache.as_ref().map(|_| id.disk_key());
        let cached = self.cache.as_ref().zip(key.as_ref()).and_then(|(c, key)| {
            let _phase = brick_obs::span_cat("cache-io", "phase");
            self.probes.get::<Cached>(c, key).map(|v| v.measured)
        });
        match (cached, prune) {
            (Some(Some(m)), Some(pruned)) if pruned(Some(m.occupancy)) => return Outcome::Pruned,
            (Some(Some(m)), _) => return Outcome::Cached(m),
            (Some(None), Some(_)) => return Outcome::Pruned,
            _ => {}
        }
        let store = |measured: Option<&Measurement>| {
            if let (Some(c), Some(key)) = (&self.cache, &key) {
                let _phase = brick_obs::span_cat("cache-io", "phase");
                let value = Cached {
                    measured: measured.cloned(),
                };
                put(c, key, &value);
            }
        };
        if prune.is_some_and(|pruned| pruned(None)) {
            store(None);
            return Outcome::Pruned;
        }

        let program_slot = self.programs.slot(id.program_key());
        let spec = {
            let _phase = brick_obs::span_cat("lint-verify", "phase");
            program_slot.get_or_init(|| {
                let (shape, config, spec) = id.program_key();
                let p = program(&shape, config, &spec).expect("cells are within codegen limits");
                verify(&p, &shape, spec.temporal_degree, &self.lint);
                p
            })
        };
        let (cm, compiled, occ) = {
            let _phase = brick_obs::span_cat("compile", "phase");
            compile_only(spec, arch, model).expect("cells run on supported pairs")
        };
        if prune.is_some_and(|pruned| pruned(Some(occ.occupancy))) {
            store(None);
            return Outcome::Pruned;
        }

        let geom_slot = self.geometries.slot(id.geometry_key());
        let mem_slot = self.counters.slot(id.counters_key(occ.blocks_per_sm));
        let (geom, mem) = {
            let _phase = brick_obs::span_cat("simulate", "phase");
            let geom = geom_slot.get_or_init(|| id.geometry_key().build());
            let mem = *mem_slot.get_or_init(|| {
                let sim_opts = SimOptions {
                    interleave_chunk: cell.spec.interleave_chunk,
                };
                simulate_memory_opts(spec, geom, arch, occ.blocks_per_sm, &sim_opts).counters()
            });
            (geom, mem)
        };
        let measured = {
            let _phase = brick_obs::span_cat("score", "phase");
            let flops = StencilAnalysis::of_shape(&cell.shape).flops_per_point
                * cell.spec.temporal_degree as u64;
            let sim = assemble(spec, geom, arch, &cm, &compiled, mem, flops);
            Measurement {
                kernel_fingerprint: spec_fingerprint(spec),
                points: sim.points,
                gflops: sim.gflops,
                ai: sim.ai,
                time_s: sim.time_s,
                l1_bytes: sim.mem.l1_bytes,
                l2_bytes: sim.mem.l2_bytes,
                dram_bytes: sim.mem.dram_bytes,
                occupancy: sim.occupancy.occupancy,
                regs_per_thread: sim.regs_per_thread,
                spilled: sim.spilled,
                limiter: sim.breakdown.limiter().to_string(),
            }
        };
        store(Some(&measured));
        Outcome::Measured(measured)
    }
}

/// One run of a pipeline: an [`Evaluator`] over the run's targets, the
/// cell lists fanned out through it, and the run's manifest. Every
/// manifest field means the same for the paper sweep, the temporal sweep
/// and the tuner: `wall_s` spans [`CellRun::open`] to [`CellRun::finish`],
/// `record_wall_s` holds the wall time of every cell that produced a
/// record, and `jobs` and the cache counts are the run's.
pub struct CellRun {
    ev: Evaluator,
    jobs: Jobs,
    start: Instant,
    manifest: RunManifest,
    record_wall_s: Vec<f64>,
    _span: brick_obs::SpanGuard,
}

impl CellRun {
    /// Begin a run's manifest (hashing `config`), open its span
    /// (`{span}:{n}^3`) and, under it, the evaluator.
    pub fn open(
        span: &str,
        config: &impl Serialize,
        n: usize,
        cache_dir: Option<&Path>,
        jobs: Jobs,
        targets: impl IntoIterator<Item = (GpuArch, ProgModel)>,
    ) -> Result<CellRun, RunError> {
        let start = Instant::now();
        let manifest = RunManifest::begin(
            &serde_json::to_string(config).expect("run configurations serialize"),
        );
        let span = brick_obs::span_cat(format!("{span}:{n}^3"), "sweep");
        let ev = Evaluator::open(n, cache_dir, targets)?;
        Ok(CellRun {
            ev,
            jobs,
            start,
            manifest,
            record_wall_s: Vec::new(),
            _span: span,
        })
    }

    /// The run's evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// Apply `f` to every cell on the run's worker threads (fan-out
    /// `label`) and return the results in cell order. A cell `f` maps to
    /// `None` (a pruned tuner candidate) produced no record: its wall time
    /// stays out of the manifest.
    pub fn map<C: Sync, R: Send>(
        &mut self,
        label: &str,
        cells: &[C],
        f: impl Fn(&Evaluator, &C) -> Option<R> + Sync,
    ) -> Vec<Option<R>> {
        let t = Instant::now();
        let ev = &self.ev;
        let timed = map_cells(label, cells, self.jobs, |_, cell| {
            let t0 = Instant::now();
            f(ev, cell).map(|r| (r, t0.elapsed().as_secs_f64()))
        });
        brick_obs::info!(
            "{label}: {} cells in {:.2}s",
            cells.len(),
            t.elapsed().as_secs_f64()
        );
        timed
            .into_iter()
            .map(|r| {
                r.map(|(r, wall)| {
                    self.record_wall_s.push(wall);
                    r
                })
            })
            .collect()
    }

    /// Finish the manifest: wall times, worker count and the evaluator's
    /// cache hits, misses and corrupt entries, Roofline lookups included.
    /// Closes the run's span.
    pub fn finish(self) -> RunManifest {
        self.manifest
            .finish(self.start.elapsed().as_secs_f64(), self.record_wall_s)
            .with_sweep_info(self.jobs.count() as u64, self.ev.probes.counts())
    }
}

/// Statically verify a vector program against the `T`-fold composed
/// stencil, memoised by kernel fingerprint. Scalar kernels have no IR and
/// pass through. Register pressure (spills, occupancy) is priced by the
/// compiler model in the simulation, not here. Panics with the rendered
/// report on rejection.
fn verify(spec: &KernelSpec, shape: &StencilShape, t: u32, memo: &brick_lint::FingerprintCache) {
    let KernelSpec::Vector(k) = spec else { return };
    if memo.check_or_insert(brick_lint::fingerprint(k)) {
        brick_obs::counter_add("sweep.lint_cache_hits", 1);
        return;
    }
    let _span = brick_obs::span_cat(format!("lint:cell:{}", k.name), "lint");
    let st = shape.stencil();
    let b = st.default_bindings();
    let expected = brick_lint::ExpectedStencil::resolve_temporal(&st, &b, t)
        .expect("default bindings resolve");
    let analysis = brick_lint::analyze(k, Some(&expected));
    assert!(
        analysis.is_clean(),
        "generated kernel failed static verification against the T={t} composition:\n{}",
        analysis.report.render(Some(k))
    );
    brick_obs::counter_add("sweep.lint_verified", 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100_evaluator(cache_dir: Option<&Path>) -> Evaluator {
        Evaluator::open(64, cache_dir, [(GpuArch::a100(), ProgModel::Cuda)]).unwrap()
    }

    fn star7(spec: SpecParams) -> Cell {
        Cell {
            shape: StencilShape::star(1),
            config: KernelConfig::BricksCodegen,
            spec,
            target: 0,
        }
    }

    #[test]
    fn a_target_without_a_roofline_is_unsupported() {
        let err = Evaluator::open(64, None, [(GpuArch::pvc_stack(), ProgModel::Cuda)])
            .err()
            .expect("PVC has no CUDA compiler model");
        assert_eq!(
            err,
            RunError::Unsupported(GpuKind::PvcStack, ProgModel::Cuda)
        );
        assert_eq!(err.to_string(), "CUDA unsupported on PVC");
    }

    #[test]
    fn config_layouts_and_labels() {
        assert_eq!(KernelConfig::Array.layout(), LayoutKind::Array);
        assert_eq!(KernelConfig::ArrayCodegen.layout(), LayoutKind::Array);
        assert_eq!(KernelConfig::BricksCodegen.layout(), LayoutKind::Brick);
        assert!(!KernelConfig::Array.codegen());
        assert!(KernelConfig::ArrayCodegen.codegen());
        let labels: Vec<_> = KernelConfig::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["array", "array codegen", "bricks codegen"]);
    }

    #[test]
    fn degree_one_composition_is_the_stencil() {
        // one verifier for every pipeline: the T = 1 composition the
        // paper kernels are checked against is the plain stencil
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            assert_eq!(
                brick_lint::ExpectedStencil::resolve_temporal(&st, &b, 1).unwrap(),
                brick_lint::ExpectedStencil::resolve(&st, &b).unwrap(),
                "{shape}"
            );
        }
    }

    #[test]
    fn verification_is_memoised_by_fingerprint() {
        let shape = StencilShape::star(1);
        let spec = paper_spec(32);
        let cache = brick_lint::FingerprintCache::new();
        let vector = program(&shape, KernelConfig::BricksCodegen, &spec).unwrap();
        verify(&vector, &shape, 1, &cache);
        verify(&vector, &shape, 1, &cache);
        assert_eq!(cache.len(), 1, "second verification hits the memo");
        // scalar kernels have no IR and never reach the memo
        verify(
            &program(&shape, KernelConfig::Array, &spec).unwrap(),
            &shape,
            1,
            &cache,
        );
        assert_eq!(cache.len(), 1);
    }

    /// The tuner's paper baseline for 7pt on A100/CUDA at 64³.
    fn baseline_id() -> CellId {
        CellId {
            shape: StencilShape::star(1),
            config: KernelConfig::BricksCodegen,
            spec: SpecParams::paper_default(32),
            arch: arch_fingerprint(&GpuArch::a100()),
            model: ProgModel::Cuda,
            n: 64,
        }
    }

    #[test]
    fn every_identity_field_moves_the_disk_key() {
        let base = baseline_id();
        let mut l2_cut = GpuArch::a100();
        l2_cut.l2_bytes /= 2;
        let variants = [
            CellId {
                shape: StencilShape::cube(1),
                ..base
            },
            CellId {
                config: KernelConfig::ArrayCodegen,
                ..base
            },
            CellId {
                spec: paper_spec(32),
                ..base
            },
            CellId {
                spec: SpecParams {
                    temporal_degree: 2,
                    ..base.spec
                },
                ..base
            },
            CellId {
                spec: SpecParams {
                    ordering: BrickOrdering::Morton,
                    ..base.spec
                },
                ..base
            },
            CellId {
                arch: arch_fingerprint(&l2_cut),
                ..base
            },
            CellId {
                model: ProgModel::Hip,
                ..base
            },
            CellId { n: 128, ..base },
        ];
        let mut names = vec![base.disk_key().file_name()];
        for v in variants {
            let name = v.disk_key().file_name();
            assert!(!names.contains(&name), "key collision: {v:?}");
            names.push(name);
        }
        assert_eq!(base.disk_key(), base.disk_key(), "stable across calls");
        assert!(base
            .disk_key()
            .desc
            .starts_with(&format!("cell;v{SCHEMA_VERSION};")));
    }

    #[test]
    fn roofline_key_bytes_are_pinned() {
        // the key is the cache's schema: changing its bytes without a
        // SCHEMA_VERSION bump would read stale entries
        let id = RooflineId {
            arch: arch_fingerprint(&GpuArch::a100()),
            model: ProgModel::Cuda,
        };
        let key = id.disk_key();
        assert_eq!(key.desc, "roofline;v5;arch=112d437885bd8e89;model=CUDA");
        assert_eq!(key.file_name(), "roofline-857bedc212c17352.json");
        let mut l2_cut = GpuArch::a100();
        l2_cut.l2_bytes /= 2;
        for v in [
            RooflineId {
                arch: arch_fingerprint(&l2_cut),
                ..id
            },
            RooflineId {
                model: ProgModel::Sycl,
                ..id
            },
        ] {
            assert_ne!(v.disk_key().file_name(), key.file_name(), "{v:?}");
        }
    }

    #[test]
    fn the_model_reaches_the_counters_only_through_occupancy() {
        let cuda = baseline_id();
        let hip = CellId {
            model: ProgModel::Hip,
            ..cuda
        };
        assert_eq!(cuda.counters_key(2), hip.counters_key(2));
        assert_ne!(cuda.counters_key(2), cuda.counters_key(3));
        // ordering and chunk share a program but never a geometry or counters
        let morton = CellId {
            spec: SpecParams {
                ordering: BrickOrdering::Morton,
                ..cuda.spec
            },
            ..cuda
        };
        assert_eq!(cuda.program_key(), morton.program_key());
        assert_ne!(cuda.geometry_key(), morton.geometry_key());
        assert_ne!(cuda.counters_key(2), morton.counters_key(2));
    }

    #[test]
    fn scalar_fingerprint_is_content_addressed() {
        let shape = StencilShape::star(1);
        let a = program(&shape, KernelConfig::Array, &paper_spec(32)).unwrap();
        let b = program(&shape, KernelConfig::Array, &paper_spec(32)).unwrap();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        let wider = program(&shape, KernelConfig::Array, &paper_spec(64)).unwrap();
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&wider));
    }

    #[test]
    fn markers_never_answer_a_lookup_that_owes_a_measurement() {
        let dir = std::env::temp_dir().join(format!("brick_cell_marker_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cell = star7(SpecParams {
            temporal_degree: 2,
            ..SpecParams::paper_default(32)
        });
        let reference = a100_evaluator(None).measure(&cell);

        let always: PruneTest<'_> = &|_| true;
        let never: PruneTest<'_> = &|_| false;
        let ev = a100_evaluator(Some(&dir));
        assert_eq!(ev.evaluate(&cell, Some(always)), Outcome::Pruned);
        // a warm pruning lookup is settled by the marker alone
        let warm = a100_evaluator(Some(&dir));
        assert_eq!(warm.evaluate(&cell, Some(never)), Outcome::Pruned);
        // a lookup without a pruning test measures and replaces the marker
        assert_eq!(
            warm.evaluate(&cell, None),
            Outcome::Measured(reference.clone())
        );
        assert_eq!(
            a100_evaluator(Some(&dir)).evaluate(&cell, Some(never)),
            Outcome::Cached(reference.clone())
        );
        // a cached measurement still goes through the pruning test
        assert_eq!(
            a100_evaluator(Some(&dir)).evaluate(&cell, Some(always)),
            Outcome::Pruned
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
