//! # brick-tuner
//!
//! Autotuning over the full kernel-specialization space. The paper
//! attributes BrickLib's performance portability to exactly this search
//! ("With the addition of autotuning for brick dimension, layout, and
//! ordering, BrickLib demonstrates some level of performance
//! portability", §3) and names brick-size tuning as the path to the
//! remaining 2–4× of its potential-speed-up plot (§5.2.2).
//!
//! The tuner drives the specialization vector
//! ([`brick_codegen::SpecParams`]: vector width, fold factor, brick
//! shape, ordering, strategy, interleave chunk, temporal degree) through
//! three stages:
//!
//! 1. **Validity** ([`validity`]) — per-target predicates reject
//!    candidates no compilation could satisfy (lane mismatch, reach
//!    overflow, register floor) *before* any codegen, with per-reason
//!    skip counts surfaced through brick-obs.
//! 2. **Pruning** ([`roofline_upper_bound`]) — a provable upper bound on
//!    each candidate's simulated GFLOP/s (theoretical Roofline at the
//!    compulsory-traffic AI, derated by an occupancy *upper* bound from
//!    the register-demand *lower* bound). Candidates bounded below the
//!    already-measured paper baseline are dropped without simulation.
//! 3. **Measurement** — surviving cells go through the cell evaluator
//!    ([`cell`], shared with the paper and temporal sweeps): generated,
//!    statically verified by `brick-lint`, simulated and cached. They are
//!    ranked by GFLOP/s with fingerprint tie-breaks, fanned out through
//!    the same [`cell::CellRun`] as the sweeps.
//!
//! The ranked table is deterministic: byte-identical at any `--jobs`
//! count and across warm/cold cache runs.
//!
//! ```no_run
//! use brick_tuner::{autotune, TuningSpace};
//! use brick_dsl::shape::StencilShape;
//! use gpu_sim::{GpuArch, ProgModel};
//!
//! let group = autotune(
//!     &StencilShape::star(2),
//!     &GpuArch::a100(),
//!     ProgModel::Cuda,
//!     64,
//!     &TuningSpace::default(),
//! )
//! .unwrap();
//! println!("best: {} at {:.0} GFLOP/s", group.best().params, group.best().gflops);
//! ```

pub mod cell;
pub mod space;
pub mod validity;

pub use cell::{KernelConfig, RunError};
pub use space::TuningSpace;
pub use validity::{validate, Invalid};

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use brick_codegen::SpecParams;
use brick_dsl::shape::StencilShape;
use brick_dsl::{min_live_registers, StencilAnalysis};
use brick_sweep::Jobs;
use gpu_sim::{GpuArch, GpuKind, ProgModel};

use cell::{Cell, CellRun, Measurement, Outcome};

/// Safety margin on the pruning bound: a candidate is dropped only when
/// its upper bound times this margin is still below the measured paper
/// baseline (absorbs the simulator's ≤0.1% AI accounting slop).
const PRUNE_MARGIN: f64 = 1.05;

/// Provable upper bound on the simulated GFLOP/s of a candidate, used for
/// pruning. Sound by construction:
///
/// * empirical AI never exceeds the compulsory-traffic bound
///   `T · theoretical_ai` (DRAM moves at least 16 B per point per launch);
/// * achieved occupancy never exceeds the bound derived from the
///   *structural lower bound* on register demand
///   ([`min_live_registers`] → [`gpu_sim::compiler::reg_demand`]);
/// * the memory system derates bandwidth by `min(1, occ/sat)`, and
///   simulated time is at least the derated-DRAM time;
/// * the theoretical ceilings dominate the measured ones.
///
/// Therefore `simulated_gflops ≤ bound` for every valid candidate, and
/// dropping candidates bounded below an already-measured competitor can
/// never drop the winner.
pub fn roofline_upper_bound(params: &SpecParams, shape: &StencilShape, arch: &GpuArch) -> f64 {
    let demand_lb = gpu_sim::compiler::reg_demand(min_live_registers(
        shape.radius as usize,
        params.temporal_degree,
    ));
    let threads = params.width() as u32;
    let by_regs = arch.regfile_per_sm / (demand_lb * threads).max(1);
    let by_threads = arch.max_threads_per_sm / threads.max(1);
    let blocks_ub = by_regs.min(by_threads).min(arch.max_blocks_per_sm).max(1);
    let warps_ub = (blocks_ub * params.fold_factor).min(arch.max_warps_per_sm());
    let occ_ub = warps_ub as f64 / arch.max_warps_per_sm() as f64;
    occupancy_upper_bound(params, shape, arch, occ_ub)
}

/// The same Roofline bound, tightened with a known occupancy fraction —
/// the tuner applies it with the *compiled* occupancy (from the cheap
/// [`compile_only`] pass) before paying for the memory trace. Sound for
/// the same reasons as [`roofline_upper_bound`]: simulated time is at
/// least the occupancy-derated DRAM time at compulsory traffic.
pub fn occupancy_upper_bound(
    params: &SpecParams,
    shape: &StencilShape,
    arch: &GpuArch,
    occupancy: f64,
) -> f64 {
    let analysis = StencilAnalysis::of_shape(shape);
    let ai_ub = analysis.theoretical_ai * params.temporal_degree as f64;
    let derate = (occupancy / arch.bw_saturation_occupancy).min(1.0);
    (ai_ub * arch.hbm_gbs * derate).min(arch.fp64_gflops)
}

/// One measured tuner cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunedRecord {
    /// The full specialization vector.
    pub params: SpecParams,
    /// [`SpecParams::fingerprint`] — the ranking tie-break and the
    /// provenance link into cache keys.
    pub fingerprint: u64,
    /// Analyzer content hash of the generated program.
    pub kernel_fingerprint: u64,
    /// GFLOP/s at the normalised FLOP count (`T ×` per-step for fused
    /// cells, so degrees rank against each other fairly).
    pub gflops: f64,
    /// Empirical arithmetic intensity.
    pub ai: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// HBM traffic in bytes.
    pub dram_bytes: u64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread after compilation.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
    /// Fraction of the target's *empirical* Roofline achieved.
    pub roofline_frac: f64,
}

/// The tuning outcome for one `(stencil, GPU, model)` group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneGroup {
    /// Paper stencil label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Stencil shape.
    pub shape: StencilShape,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// The paper's fixed configuration, always measured (never pruned) —
    /// the anchor of the tuned-vs-paper comparison.
    pub baseline: TunedRecord,
    /// Measured candidates, best GFLOP/s first, fingerprint tie-break;
    /// includes the baseline. Truncated to the request's `top_k`.
    pub ranked: Vec<TunedRecord>,
    /// Cells actually simulated (or served from cache).
    pub evaluated: u64,
    /// Cells dropped by the Roofline upper bound.
    pub pruned: u64,
    /// Cells rejected by the validity predicate.
    pub skipped: u64,
    /// Skip counts per [`Invalid::kind`], sorted by reason slug.
    pub skip_reasons: Vec<(String, u64)>,
    /// Raw candidates enumerated for this group before filtering.
    pub raw_candidates: u64,
}

impl TuneGroup {
    /// The winning record.
    pub fn best(&self) -> &TunedRecord {
        &self.ranked[0]
    }

    /// Speed-up of the winner over the paper's fixed configuration
    /// (≥ 1 by construction: the baseline competes in the ranking).
    pub fn gain_over_paper(&self) -> f64 {
        self.best().gflops / self.baseline.gflops
    }

    /// Speed-up of the best ranked cell over the worst ranked cell.
    pub fn spread(&self) -> f64 {
        let best = self.best().gflops;
        let worst = self.ranked.last().map_or(best, |r| r.gflops);
        best / worst
    }
}

/// A complete tuning run: every group plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    /// Domain extent (`n³`).
    pub n: usize,
    /// [`TuningSpace::fingerprint`] of the searched space.
    pub space_fingerprint: u64,
    /// One group per `(stencil, GPU, model)`, in canonical order
    /// (stencils outer, targets inner).
    pub groups: Vec<TuneGroup>,
    /// Run provenance (includes tuner cell accounting).
    pub manifest: brick_obs::RunManifest,
}

impl TuneReport {
    /// The group for an exact `(gpu, model, stencil)` point.
    pub fn group(&self, gpu: GpuKind, model: ProgModel, stencil: &str) -> Option<&TuneGroup> {
        self.groups
            .iter()
            .find(|g| g.gpu == gpu && g.model == model && g.stencil == stencil)
    }
}

/// One tuning target: an architecture description plus a programming
/// model. Owning the arch (rather than a `GpuKind`) lets tests tune
/// synthetic or scaled machines.
#[derive(Debug, Clone)]
pub struct TuneTarget {
    /// Architecture to tune for.
    pub arch: GpuArch,
    /// Programming model.
    pub model: ProgModel,
}

/// Request for [`tune_matrix`]: which stencils × targets to tune, over
/// which space, with which scheduling/caching.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Domain extent.
    pub n: usize,
    /// Stencils to tune (defaults to the paper suite).
    pub shapes: Vec<StencilShape>,
    /// `(arch, model)` targets (defaults to the paper's 6-pair matrix).
    pub targets: Vec<TuneTarget>,
    /// The search space.
    pub space: TuningSpace,
    /// Worker threads.
    pub jobs: Jobs,
    /// On-disk cache directory (`None` = no persistent cache).
    pub cache_dir: Option<PathBuf>,
    /// Enable Roofline upper-bound pruning.
    pub prune: bool,
    /// Ranked-table truncation per group.
    pub top_k: usize,
}

impl TuneOptions {
    /// The paper's full matrix at `n³` over the default space.
    pub fn new(n: usize) -> TuneOptions {
        TuneOptions {
            n,
            shapes: StencilShape::paper_suite().to_vec(),
            targets: ProgModel::paper_matrix()
                .into_iter()
                .map(|(gpu, model)| TuneTarget {
                    arch: GpuArch::by_kind(gpu).clone(),
                    model,
                })
                .collect(),
            space: TuningSpace::default(),
            jobs: Jobs::Auto,
            cache_dir: None,
            prune: true,
            top_k: 10,
        }
    }

    /// Set the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Jobs::N(jobs);
        self
    }

    /// Set the cache directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Replace the search space.
    pub fn space(mut self, space: TuningSpace) -> Self {
        self.space = space;
        self
    }

    /// Restrict the stencil list.
    pub fn shapes(mut self, shapes: Vec<StencilShape>) -> Self {
        self.shapes = shapes;
        self
    }

    /// Restrict the target list.
    pub fn targets(mut self, targets: Vec<TuneTarget>) -> Self {
        self.targets = targets;
        self
    }

    /// Enable/disable pruning.
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Set the ranked-table truncation.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }
}

/// Serialized run configuration hashed into the manifest.
#[derive(Serialize)]
struct TuneConfig {
    n: usize,
    prune: bool,
    targets: Vec<(GpuKind, ProgModel)>,
    space: TuningSpace,
}

/// A cell's measurement (`None` when pruned), counting fresh
/// measurements and prunes.
fn tally(outcome: Outcome) -> Option<Measurement> {
    match outcome {
        Outcome::Measured(m) => {
            brick_obs::counter_add("tune.cells.evaluated", 1);
            Some(m)
        }
        Outcome::Cached(m) => Some(m),
        Outcome::Pruned => {
            brick_obs::counter_add("tune.pruned", 1);
            None
        }
    }
}

/// Run the full tuning matrix. Deterministic: the serialized `groups`
/// are byte-identical at any jobs count and across warm/cold caches.
pub fn tune_matrix(opts: &TuneOptions) -> Result<TuneReport, RunError> {
    if opts.space.is_empty() {
        return Err(RunError::EmptySpace);
    }
    let config = TuneConfig {
        n: opts.n,
        prune: opts.prune,
        targets: opts
            .targets
            .iter()
            .map(|t| (t.arch.kind, t.model))
            .collect(),
        space: opts.space.clone(),
    };
    // Empirical rooflines per target (reported in records; pruning uses
    // the theoretical ceilings, which dominate these).
    let mut run = CellRun::open(
        "tune",
        &config,
        opts.n,
        opts.cache_dir.as_deref(),
        opts.jobs,
        opts.targets.iter().map(|t| (t.arch.clone(), t.model)),
    )?;

    // Plan groups: enumerate + validate, in canonical order.
    struct GroupPlan {
        shape: StencilShape,
        label: String,
        target: usize,
        baseline: SpecParams,
        valid: Vec<SpecParams>,
        skip_reasons: BTreeMap<&'static str, u64>,
        skipped: u64,
        raw: u64,
    }
    let candidates = opts.space.enumerate();
    let mut plans: Vec<GroupPlan> = Vec::new();
    for shape in &opts.shapes {
        for (ti, target) in opts.targets.iter().enumerate() {
            let baseline = SpecParams::paper_default(target.arch.simd_width);
            if let Err(reason) = validate(&baseline, shape, &target.arch, opts.n) {
                return Err(RunError::BadDomain(format!(
                    "paper baseline invalid for {} on {}/{}: {reason}",
                    shape.label(),
                    target.arch.kind,
                    target.model
                )));
            }
            let mut valid = Vec::new();
            let mut skip_reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
            for p in &candidates {
                match validate(p, shape, &target.arch, opts.n) {
                    Ok(()) => {
                        if *p != baseline {
                            valid.push(*p);
                        }
                    }
                    Err(reason) => {
                        *skip_reasons.entry(reason.kind()).or_insert(0) += 1;
                        brick_obs::counter_add("tune.skipped", 1);
                        brick_obs::counter_add(&format!("tune.skipped.{}", reason.kind()), 1);
                    }
                }
            }
            let skipped: u64 = skip_reasons.values().sum();
            if valid.is_empty() && !candidates.contains(&baseline) {
                return Err(RunError::NoFeasiblePoint {
                    stencil: shape.label(),
                    gpu: target.arch.kind,
                    model: target.model,
                });
            }
            plans.push(GroupPlan {
                shape: *shape,
                label: shape.label(),
                target: ti,
                baseline,
                valid,
                skip_reasons,
                skipped,
                raw: candidates.len() as u64,
            });
        }
    }
    brick_obs::info!(
        "tune: {} groups, {} valid cells (of {} raw) at n={}",
        plans.len(),
        plans.iter().map(|p| p.valid.len() as u64 + 1).sum::<u64>(),
        plans.len() as u64 * candidates.len() as u64,
        opts.n
    );

    let cell_of = |plan: &GroupPlan, spec: SpecParams| Cell {
        shape: plan.shape,
        config: KernelConfig::BricksCodegen,
        spec,
        target: plan.target,
    };
    let rooflines: Vec<_> = run
        .evaluator()
        .targets()
        .iter()
        .map(|t| t.roofline)
        .collect();
    let record_of = |plan: &GroupPlan, params: SpecParams, m: Measurement| TunedRecord {
        params,
        fingerprint: params.fingerprint(),
        kernel_fingerprint: m.kernel_fingerprint,
        roofline_frac: rooflines[plan.target].fraction(m.gflops, m.ai),
        gflops: m.gflops,
        ai: m.ai,
        time_s: m.time_s,
        dram_bytes: m.dram_bytes,
        occupancy: m.occupancy,
        regs_per_thread: m.regs_per_thread,
        spilled: m.spilled,
        limiter: m.limiter,
    };

    // Phase 1 — measure every group's paper baseline (never pruned: it
    // is both the comparison anchor and the pruning reference).
    let baselines: Vec<TunedRecord> = run
        .map("tune.baselines", &plans, |ev, plan| {
            let m = tally(ev.evaluate(&cell_of(plan, plan.baseline), None))
                .expect("the baseline is never pruned");
            Some(record_of(plan, plan.baseline, m))
        })
        .into_iter()
        .flatten()
        .collect();

    // Phase 2 — prune + measure candidates, all groups in one fan-out.
    // Two prune tiers: the structural bound costs nothing; when it is
    // inconclusive, the compiled occupancy tightens it without a memory
    // trace.
    let flat: Vec<(usize, SpecParams)> = plans
        .iter()
        .enumerate()
        .flat_map(|(gi, plan)| plan.valid.iter().map(move |p| (gi, *p)))
        .collect();
    let outcomes = run.map("tune.cells", &flat, |ev, &(gi, p)| {
        let plan = &plans[gi];
        let arch = &opts.targets[plan.target].arch;
        let reference = baselines[gi].gflops;
        let pruned = |occupancy: Option<f64>| {
            let mut bound = roofline_upper_bound(&p, &plan.shape, arch);
            if let (true, Some(occ)) = (bound * PRUNE_MARGIN >= reference, occupancy) {
                bound = occupancy_upper_bound(&p, &plan.shape, arch, occ);
            }
            bound * PRUNE_MARGIN < reference
        };
        let prune = opts.prune.then_some(&pruned as cell::PruneTest<'_>);
        tally(ev.evaluate(&cell_of(plan, p), prune)).map(|m| record_of(plan, p, m))
    });

    // Reduce: rank per group.
    let mut per_group: Vec<Vec<TunedRecord>> = plans.iter().map(|_| Vec::new()).collect();
    let mut pruned_per_group: Vec<u64> = vec![0; plans.len()];
    for (&(gi, _), outcome) in flat.iter().zip(outcomes) {
        match outcome {
            Some(record) => per_group[gi].push(record),
            None => pruned_per_group[gi] += 1,
        }
    }

    let mut groups = Vec::with_capacity(plans.len());
    for (gi, plan) in plans.iter().enumerate() {
        let baseline = &baselines[gi];
        let mut ranked = std::mem::take(&mut per_group[gi]);
        ranked.push(baseline.clone());
        let evaluated = ranked.len() as u64;
        ranked.sort_by(|a, b| {
            b.gflops
                .total_cmp(&a.gflops)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        ranked.truncate(opts.top_k);
        let target = &opts.targets[plan.target];
        groups.push(TuneGroup {
            stencil: plan.label.clone(),
            shape: plan.shape,
            gpu: target.arch.kind,
            model: target.model,
            baseline: baseline.clone(),
            ranked,
            evaluated,
            pruned: pruned_per_group[gi],
            skipped: plan.skipped,
            skip_reasons: plan
                .skip_reasons
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            raw_candidates: plan.raw,
        });
    }

    let manifest = run.finish().with_tune_info(
        opts.space.fingerprint(),
        groups.iter().map(|g| g.raw_candidates).sum(),
        groups.iter().map(|g| g.evaluated).sum(),
        groups.iter().map(|g| g.pruned).sum(),
        groups.iter().map(|g| g.skipped).sum(),
    );
    Ok(TuneReport {
        n: opts.n,
        space_fingerprint: opts.space.fingerprint(),
        groups,
        manifest,
    })
}

/// Tune one `(stencil, GPU, model)` group — the single-target convenience
/// wrapper around [`tune_matrix`] (full ranking, no pruning, no cache).
pub fn autotune(
    shape: &StencilShape,
    arch: &GpuArch,
    model: ProgModel,
    n: usize,
    space: &TuningSpace,
) -> Result<TuneGroup, RunError> {
    let opts = TuneOptions {
        n,
        shapes: vec![*shape],
        targets: vec![TuneTarget {
            arch: arch.clone(),
            model,
        }],
        space: space.clone(),
        jobs: Jobs::Auto,
        cache_dir: None,
        prune: false,
        top_k: usize::MAX,
    };
    let mut report = tune_matrix(&opts)?;
    Ok(report.groups.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::Strategy;
    use brick_core::BrickOrdering;

    fn small_space() -> TuningSpace {
        TuningSpace {
            vector_widths: vec![16, 32, 64],
            fold_factors: vec![1],
            block_yz: vec![(4, 4), (8, 8)],
            orderings: vec![BrickOrdering::Lexicographic],
            strategies: vec![Strategy::Gather, Strategy::Scatter],
            interleave_chunks: vec![1024],
            temporal_degrees: vec![1],
        }
    }

    #[test]
    fn tuner_ranks_candidates() {
        let g = autotune(
            &StencilShape::star(1),
            &GpuArch::a100(),
            ProgModel::Cuda,
            64,
            &small_space(),
        )
        .unwrap();
        // 4 valid cells at width 32 (2 blocks × 2 strategies); the
        // baseline is one of them (4×4 gather at the default chunk)
        assert_eq!(g.evaluated, 4);
        assert_eq!(g.ranked.len(), 4);
        for w in g.ranked.windows(2) {
            assert!(w[0].gflops >= w[1].gflops, "ranking is descending");
        }
        assert!(g.spread() >= 1.0);
        assert!(g.gain_over_paper() >= 1.0);
        // the two non-matching vector widths were skipped, not silently
        // dropped: 8 candidates (2 widths × 2 blocks × 2 strategies)
        assert_eq!(g.skipped, 8);
        assert!(g
            .skip_reasons
            .iter()
            .any(|(k, c)| k == "lane_width" && *c == 8));
        assert_eq!(g.raw_candidates, 12);
    }

    #[test]
    fn unsupported_model_rejected() {
        assert_eq!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::pvc_stack(),
                ProgModel::Cuda,
                64,
                &small_space(),
            )
            .unwrap_err(),
            RunError::Unsupported(GpuKind::PvcStack, ProgModel::Cuda)
        );
    }

    #[test]
    fn bad_domain_rejected() {
        assert!(matches!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::a100(),
                ProgModel::Cuda,
                100,
                &small_space(),
            ),
            Err(RunError::BadDomain(_))
        ));
    }

    #[test]
    fn empty_space_is_an_error() {
        let mut space = small_space();
        space.strategies.clear();
        assert_eq!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::a100(),
                ProgModel::Cuda,
                64,
                &space,
            )
            .unwrap_err(),
            RunError::EmptySpace
        );
    }

    #[test]
    fn infeasible_candidates_are_counted_not_fatal() {
        // radius 4 does not fit (4,4) at T=1? reach 4 ≤ 4 — fits; use
        // (2,2) to force reach rejections
        let space = TuningSpace {
            block_yz: vec![(2, 2), (8, 8)],
            ..small_space()
        };
        let g = autotune(
            &StencilShape::star(4),
            &GpuArch::a100(),
            ProgModel::Cuda,
            64,
            &space,
        )
        .unwrap();
        assert!(g.skip_reasons.iter().any(|(k, _)| k == "reach"));
        assert!(g.evaluated >= 2, "the (8,8) cells measured");
    }

    #[test]
    fn upper_bound_dominates_measured_gflops() {
        // soundness of the pruning bound on every paper target
        let space = small_space();
        for (gpu, model) in ProgModel::paper_matrix() {
            let arch = GpuArch::by_kind(gpu);
            for shape in [StencilShape::star(1), StencilShape::cube(2)] {
                let g = autotune(&shape, arch, model, 64, &space).unwrap();
                for r in &g.ranked {
                    let structural = roofline_upper_bound(&r.params, &shape, arch);
                    let refined = occupancy_upper_bound(&r.params, &shape, arch, r.occupancy);
                    let bound = structural.min(refined);
                    assert!(
                        r.gflops <= bound * PRUNE_MARGIN,
                        "{gpu}/{model} {shape}: measured {:.1} exceeds bound {:.1}",
                        r.gflops,
                        bound
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_never_changes_the_winner() {
        let shapes = vec![StencilShape::star(1)];
        let targets = vec![TuneTarget {
            arch: GpuArch::a100(),
            model: ProgModel::Cuda,
        }];
        let space = TuningSpace {
            temporal_degrees: vec![1, 2, 4],
            ..small_space()
        };
        let run = |prune: bool| {
            let opts = TuneOptions::new(64)
                .shapes(shapes.clone())
                .targets(targets.clone())
                .space(space.clone())
                .jobs(2)
                .prune(prune);
            tune_matrix(&opts).unwrap()
        };
        let full = run(false);
        let pruned = run(true);
        let (f, p) = (&full.groups[0], &pruned.groups[0]);
        assert_eq!(f.best().fingerprint, p.best().fingerprint);
        assert!((f.best().gflops - p.best().gflops).abs() < 1e-12);
        assert_eq!(f.evaluated, p.evaluated + p.pruned);
    }

    #[test]
    fn pruning_fires_on_occupancy_starved_targets() {
        // a register file that keeps the lean T=1 baseline at saturating
        // occupancy but holds only one spilled T=4 block: the fused
        // candidate's occupancy-refined bound lands far below the
        // measured baseline and the cell is dropped without a trace
        let mut arch = GpuArch::a100();
        arch.regfile_per_sm = 8_192;
        arch.bw_saturation_occupancy = 0.11;
        let space = TuningSpace {
            vector_widths: vec![32],
            block_yz: vec![(4, 4)],
            strategies: vec![Strategy::Gather],
            temporal_degrees: vec![1, 4],
            ..small_space()
        };
        let opts = TuneOptions::new(64)
            .shapes(vec![StencilShape::star(1)])
            .targets(vec![TuneTarget {
                arch,
                model: ProgModel::Cuda,
            }])
            .space(space)
            .jobs(1);
        let report = tune_matrix(&opts).unwrap();
        let g = &report.groups[0];
        assert!(g.pruned > 0, "expected T=4 cells pruned: {g:?}");
        assert_eq!(report.manifest.tune_pruned_cells, g.pruned);
        assert!(g.gain_over_paper() >= 1.0);
    }

    #[test]
    fn report_provenance_counts_cells() {
        let opts = TuneOptions::new(64)
            .shapes(vec![StencilShape::star(1), StencilShape::star(2)])
            .targets(vec![TuneTarget {
                arch: GpuArch::a100(),
                model: ProgModel::Cuda,
            }])
            .space(small_space())
            .jobs(2)
            .top_k(3);
        let report = tune_matrix(&opts).unwrap();
        assert_eq!(report.groups.len(), 2);
        for g in &report.groups {
            assert!(g.ranked.len() <= 3);
            assert!(g.evaluated + g.pruned + g.skipped >= g.raw_candidates);
        }
        assert_eq!(
            report.manifest.tune_valid_cells,
            report.groups.iter().map(|g| g.evaluated).sum::<u64>()
        );
        assert_eq!(
            report.manifest.tune_space_fingerprint,
            report.space_fingerprint
        );
        assert!(report
            .group(GpuKind::A100, ProgModel::Cuda, "7pt")
            .is_some());
        assert!(report.group(GpuKind::A100, ProgModel::Hip, "7pt").is_none());
    }
}
