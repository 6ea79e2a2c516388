//! Schedule- and cache-independence of the sweep engine.
//!
//! The determinism contract (see `runner.rs`): for a fixed configuration
//! the serialized records are byte-identical at **any** jobs count, and a
//! cache-warm rerun equals the cold run that populated the cache. The
//! property test drives random sub-matrices through `--jobs 1/2/8`; the
//! cache test compares cold vs warm byte-for-byte. A differential here
//! holds gpu-sim's simulator to its exact per-block oracle
//! (`simulate_memory_exact`) on every cell both sweeps measure.

use std::fs;
use std::path::PathBuf;

use brick_codegen::SpecParams;
use brick_dsl::shape::StencilShape;
use brick_tuner::cell::{geometry, paper_spec, program};
use experiments::temporal::feasible_degrees;
use experiments::{CellFilter, ExperimentParams, KernelConfig, SweepOptions};
use gpu_sim::{
    compile_only, simulate_memory_exact, simulate_memory_opts, GpuArch, GpuKind, ProgModel,
    SimOptions,
};
use proptest::prelude::*;

/// Records serialized exactly as artifact writers see them.
fn records_json(opts: &SweepOptions) -> String {
    let sweep = experiments::sweep_with(opts).expect("sweep runs");
    serde_json::to_string(&sweep.records).expect("records serialize")
}

/// Build a non-empty sub-matrix filter from per-axis selection masks
/// (a zero mask selects the full axis).
fn filter_from_masks(smask: u8, gmask: u8, mmask: u8, cmask: u8) -> CellFilter {
    let pick =
        |mask: u8, n: usize| -> Vec<usize> { (0..n).filter(|i| mask & (1 << i) != 0).collect() };
    let stencils = ["7pt", "13pt", "19pt", "25pt", "27pt", "125pt"];
    let gpus = [GpuKind::A100, GpuKind::Mi250xGcd, GpuKind::PvcStack];
    let models = [ProgModel::Cuda, ProgModel::Hip, ProgModel::Sycl];
    let configs = KernelConfig::all();
    CellFilter {
        stencils: (smask != 0).then(|| {
            pick(smask, 6)
                .iter()
                .map(|&i| stencils[i].to_string())
                .collect()
        }),
        gpus: (gmask != 0).then(|| pick(gmask, 3).iter().map(|&i| gpus[i]).collect()),
        models: (mmask != 0).then(|| pick(mmask, 3).iter().map(|&i| models[i]).collect()),
        configs: (cmask != 0).then(|| pick(cmask, 3).iter().map(|&i| configs[i]).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_sub_matrices_are_schedule_independent(
        smask in 0u8..64,
        gmask in 0u8..8,
        mmask in 0u8..8,
        cmask in 0u8..8,
    ) {
        let filter = filter_from_masks(smask, gmask, mmask, cmask);
        let opts = |jobs: usize| {
            SweepOptions::new(ExperimentParams { n: 64 })
                .jobs(jobs)
                .filter(filter.clone())
        };
        let serial = records_json(&opts(1));
        let two = records_json(&opts(2));
        let eight = records_json(&opts(8));
        prop_assert_eq!(&serial, &two, "jobs=2 diverged from serial");
        prop_assert_eq!(&serial, &eight, "jobs=8 diverged from serial");
    }
}

#[test]
fn exact_oracle_matches_fast_counters_on_every_sweep_cell() {
    // A record is a pure function of the memory counters, the compile
    // result and the Roofline, so equal counters on every cell of the
    // 64^3 paper matrix and temporal matrix (with
    // `fresh_sweep_matches_checked_in_goldens`) pin the exact oracle to
    // the goldens. Each cell is built as the evaluator builds it; the
    // temporal matrix puts the T-fused kernels under the oracle.
    let n = 64;
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        for (gpu, model) in ProgModel::paper_matrix() {
            let width = GpuArch::by_kind(gpu).simd_width;
            for config in KernelConfig::all() {
                cells.push((shape, config, paper_spec(width), gpu, model));
            }
            for t in feasible_degrees(&shape) {
                let spec = SpecParams {
                    temporal_degree: t,
                    ..SpecParams::paper_default(width)
                };
                cells.push((shape, KernelConfig::BricksCodegen, spec, gpu, model));
            }
        }
    }
    assert_eq!(cells.len(), 108 + 84, "paper + temporal matrix");
    for (shape, config, spec, gpu, model) in cells {
        let arch = GpuArch::by_kind(gpu);
        let kernel = program(&shape, config, &spec).expect("paper cells generate");
        let geom = geometry(&shape, config, &spec, n);
        let (_, _, occ) = compile_only(&kernel, arch, model).expect("paper pairs are supported");
        let opts = SimOptions {
            interleave_chunk: spec.interleave_chunk,
        };
        let bpsm = occ.blocks_per_sm;
        assert_eq!(
            simulate_memory_exact(&kernel, &geom, arch, bpsm, &opts).counters(),
            simulate_memory_opts(&kernel, &geom, arch, bpsm, &opts).counters(),
            "{shape} {config} {spec} on {gpu}/{model}"
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_determinism_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn counter(name: &str) -> u64 {
    brick_obs::metrics::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// Temporal records serialized exactly as artifact writers see them.
fn temporal_records_json(opts: &SweepOptions) -> String {
    let sweep = experiments::temporal_sweep_with(opts).expect("temporal sweep runs");
    serde_json::to_string(&sweep.records).expect("records serialize")
}

#[test]
fn temporal_sweep_is_jobs_independent() {
    // the fused matrix under the same contract as the base sweep: the
    // serialized records are byte-identical at any worker count
    let opts = |jobs: usize| SweepOptions::new(ExperimentParams { n: 64 }).jobs(jobs);
    let serial = temporal_records_json(&opts(1));
    let two = temporal_records_json(&opts(2));
    let eight = temporal_records_json(&opts(8));
    assert_eq!(serial, two, "temporal jobs=2 diverged from serial");
    assert_eq!(serial, eight, "temporal jobs=8 diverged from serial");
}

#[test]
fn filtered_temporal_sweeps_are_subsets_of_the_full_one() {
    // the temporal sweep honours the filter: a filtered run is
    // byte-identical to the matching records of the full run
    let opts = SweepOptions::new(ExperimentParams { n: 64 }).jobs(2);
    let full = experiments::temporal_sweep_with(&opts).expect("temporal sweep runs");
    // stencils × gpus × models × configs masks, as in the property above
    for (s, g, m, c) in [
        (0b100001, 0, 0, 0),
        (0, 0b110, 0b100, 0),
        (0b11, 0b1, 0, 0b100),
        (0, 0, 0, 0b011),
    ] {
        let filter = filter_from_masks(s, g, m, c);
        let subset: Vec<_> = full
            .records
            .iter()
            .filter(|r| {
                filter
                    .stencils
                    .as_ref()
                    .is_none_or(|v| v.contains(&r.stencil))
                    && filter.gpus.as_ref().is_none_or(|v| v.contains(&r.gpu))
                    && filter.models.as_ref().is_none_or(|v| v.contains(&r.model))
                    && filter
                        .configs
                        .as_ref()
                        .is_none_or(|v| v.contains(&KernelConfig::BricksCodegen))
            })
            .collect();
        assert_eq!(
            temporal_records_json(&opts.clone().filter(filter.clone())),
            serde_json::to_string(&subset).unwrap(),
            "{filter:?}"
        );
    }
}

#[test]
fn temporal_cache_warm_rerun_is_byte_identical_to_cold() {
    let dir = scratch_dir("temporal_warm");
    let opts = SweepOptions::new(ExperimentParams { n: 64 })
        .jobs(4)
        .cache_dir(&dir);

    let cold = temporal_records_json(&opts);
    let entries = fs::read_dir(&dir).unwrap().count();
    assert!(entries > 0, "cold temporal run populated the cache");

    let hits_before = counter("sweep.cache.hits");
    let warm = temporal_records_json(&opts);
    assert_eq!(
        cold, warm,
        "warm temporal rerun must reproduce the cold run"
    );
    assert!(
        counter("sweep.cache.hits") > hits_before,
        "warm temporal rerun served from the cache"
    );

    let uncached = temporal_records_json(&SweepOptions::new(ExperimentParams { n: 64 }).jobs(4));
    assert_eq!(cold, uncached, "caching is invisible in temporal output");
    let _ = fs::remove_dir_all(&dir);
}

/// Tune report groups serialized exactly as artifact writers see them.
fn tune_groups_json(opts: &brick_tuner::TuneOptions) -> String {
    let report = brick_tuner::tune_matrix(opts).expect("tune runs");
    serde_json::to_string(&report.groups).expect("groups serialize")
}

fn small_tune(jobs: usize) -> brick_tuner::TuneOptions {
    // the golden configuration's shape: one group over the smoke space —
    // big enough to exercise pruning, ranking and the kernel-program
    // memo, small enough to run three times in a test
    brick_tuner::TuneOptions::new(64)
        .shapes(vec![brick_dsl::shape::StencilShape::star(1)])
        .targets(vec![brick_tuner::TuneTarget {
            arch: gpu_sim::GpuArch::a100(),
            model: gpu_sim::ProgModel::Cuda,
        }])
        .space(brick_tuner::TuningSpace::smoke())
        .jobs(jobs)
}

#[test]
fn tune_ranked_tables_are_jobs_independent() {
    // the tuner's determinism contract: the serialized ranked tables —
    // winner, order, every float — are byte-identical at any worker
    // count; ties broken by specialization fingerprint, never by arrival
    let serial = tune_groups_json(&small_tune(1));
    let two = tune_groups_json(&small_tune(2));
    let eight = tune_groups_json(&small_tune(8));
    assert_eq!(serial, two, "tune jobs=2 diverged from serial");
    assert_eq!(serial, eight, "tune jobs=8 diverged from serial");
}

#[test]
fn tune_cache_warm_rerun_is_byte_identical_to_cold() {
    let dir = scratch_dir("tune_warm");
    let with_cache = |jobs: usize| {
        let mut opts = small_tune(jobs);
        opts.cache_dir = Some(dir.clone());
        opts
    };

    let cold = tune_groups_json(&with_cache(4));
    assert!(
        fs::read_dir(&dir).unwrap().count() > 0,
        "cold tune populated the cache"
    );

    let hits_before = counter("sweep.cache.hits");
    let warm = tune_groups_json(&with_cache(4));
    assert_eq!(cold, warm, "warm tune rerun must reproduce the cold run");
    assert!(
        counter("sweep.cache.hits") > hits_before,
        "warm tune rerun served from the cache"
    );

    // cache-warm results under a different schedule, and with no cache at
    // all, still agree — neither caching nor parallelism is observable
    let warm_serial = tune_groups_json(&with_cache(1));
    assert_eq!(cold, warm_serial, "warm serial tune diverged");
    let uncached = tune_groups_json(&small_tune(4));
    assert_eq!(cold, uncached, "caching is invisible in tune output");
    let _ = fs::remove_dir_all(&dir);
}

/// One group over a space whose only free axes are memory ordering and
/// strategy. Pruning off and `top_k` large, so every measured candidate
/// appears in the ranked table.
fn ordering_tune(
    orderings: Vec<brick_core::BrickOrdering>,
    jobs: usize,
) -> brick_tuner::TuneOptions {
    let space = brick_tuner::TuningSpace {
        vector_widths: vec![16, 32, 64],
        fold_factors: vec![1],
        block_yz: vec![(4, 4)],
        orderings,
        strategies: vec![
            brick_codegen::Strategy::Gather,
            brick_codegen::Strategy::Scatter,
        ],
        interleave_chunks: vec![1024],
        temporal_degrees: vec![1],
    };
    brick_tuner::TuneOptions::new(64)
        .shapes(vec![brick_dsl::shape::StencilShape::star(1)])
        .targets(vec![brick_tuner::TuneTarget {
            arch: gpu_sim::GpuArch::a100(),
            model: gpu_sim::ProgModel::Cuda,
        }])
        .space(space)
        .prune(false)
        .top_k(64)
        .jobs(jobs)
}

#[test]
fn tune_orderings_never_share_memory_counters() {
    use brick_core::BrickOrdering;
    // Candidates differing only in ordering share one generated program
    // (one kernel fingerprint) but trace different geometries, so the
    // tuner's in-run memory-counter memo must keep them apart: each
    // record in a combined Lexicographic+Morton run must be identical to
    // the record the same candidate gets in a run of its ordering alone,
    // and the combined run must be schedule-independent.
    let both = |jobs| {
        brick_tuner::tune_matrix(&ordering_tune(
            vec![BrickOrdering::Lexicographic, BrickOrdering::Morton],
            jobs,
        ))
        .expect("tune runs")
    };
    let serial = both(1);
    for jobs in [2, 8] {
        assert_eq!(
            serde_json::to_string(&serial.groups).unwrap(),
            serde_json::to_string(&both(jobs).groups).unwrap(),
            "mixed-ordering tune at jobs={jobs} diverged from serial"
        );
    }

    let solo: Vec<brick_tuner::TuneGroup> = [BrickOrdering::Lexicographic, BrickOrdering::Morton]
        .into_iter()
        .map(|o| {
            brick_tuner::tune_matrix(&ordering_tune(vec![o], 1))
                .expect("tune runs")
                .groups
                .remove(0)
        })
        .collect();
    let group = &serial.groups[0];
    let mut per_ordering = [0usize; 2];
    for rec in &group.ranked {
        let oi = (rec.params.ordering == brick_core::BrickOrdering::Morton) as usize;
        per_ordering[oi] += 1;
        let reference = solo[oi]
            .ranked
            .iter()
            .find(|r| r.fingerprint == rec.fingerprint)
            .expect("candidate present in its single-ordering run");
        assert_eq!(
            serde_json::to_string(rec).unwrap(),
            serde_json::to_string(reference).unwrap(),
            "record for {} diverged from its single-ordering run",
            rec.params
        );
    }
    assert!(
        per_ordering.iter().all(|&n| n > 0),
        "both orderings measured: {per_ordering:?}"
    );
}

#[test]
fn cache_warm_rerun_is_byte_identical_to_cold() {
    let dir = scratch_dir("warm");
    let opts = SweepOptions::new(ExperimentParams { n: 64 })
        .jobs(4)
        .cache_dir(&dir);

    let cold = records_json(&opts);
    let entries = fs::read_dir(&dir).unwrap().count();
    assert!(entries > 0, "cold run populated the cache");

    let hits_before = counter("sweep.cache.hits");
    let warm = records_json(&opts);
    assert_eq!(cold, warm, "warm rerun must reproduce the cold run exactly");
    assert!(
        counter("sweep.cache.hits") > hits_before,
        "warm rerun served from the cache"
    );

    // and a cache-free run still agrees — caching is invisible in output
    let uncached = records_json(&SweepOptions::new(ExperimentParams { n: 64 }).jobs(4));
    assert_eq!(cold, uncached);
    let _ = fs::remove_dir_all(&dir);
}
