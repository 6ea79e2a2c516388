//! Sweep-level behaviour of the content-addressed result cache the paper
//! sweep, the temporal sweep and the tuner share: entries are keyed by
//! everything the result depends on, cells with one identity share one
//! record, cells with different identities never do, and corruption
//! degrades to a recompute (with a repair) rather than a wrong or failed
//! run. Key-construction unit tests live in `brick_tuner::cell`; the
//! generic store's in `brick_sweep::cache`.

use std::fs;
use std::path::PathBuf;

use experiments::{CellFilter, ExperimentParams, SweepOptions};
use gpu_sim::{GpuKind, ProgModel};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_cache_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn one_cell() -> CellFilter {
    CellFilter {
        stencils: Some(vec!["7pt".into()]),
        gpus: Some(vec![GpuKind::A100]),
        models: Some(vec![ProgModel::Cuda]),
        configs: None,
    }
}

fn opts(n: usize, dir: &PathBuf) -> SweepOptions {
    SweepOptions::new(ExperimentParams { n })
        .cache_dir(dir)
        .filter(one_cell())
}

fn counter(name: &str) -> u64 {
    brick_obs::metrics::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

fn cell_entries(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("cell-"))
        .collect();
    names.sort();
    names
}

#[test]
fn entries_are_stable_across_runs_and_invalidated_by_config_change() {
    let dir = scratch_dir("invalidation");
    let s64 = experiments::sweep_with(&opts(64, &dir)).unwrap();
    let after_cold = cell_entries(&dir);
    assert!(!after_cold.is_empty());

    // same config, new run: same keys, nothing new written
    let s64b = experiments::sweep_with(&opts(64, &dir)).unwrap();
    assert_eq!(cell_entries(&dir), after_cold, "stable keys across runs");
    assert_eq!(
        serde_json::to_string(&s64.records).unwrap(),
        serde_json::to_string(&s64b.records).unwrap()
    );

    // a simulation-config change (domain size) misses every old entry
    let misses_before = counter("sweep.cache.misses");
    let _s128 = experiments::sweep_with(&opts(128, &dir)).unwrap();
    assert!(
        counter("sweep.cache.misses") > misses_before,
        "changed config cannot be served from old entries"
    );
    assert!(
        cell_entries(&dir).len() > after_cold.len(),
        "changed config wrote new entries instead of overwriting"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn temporal_json(opts: &SweepOptions) -> String {
    let sweep = experiments::temporal_sweep_with(opts).expect("temporal sweep runs");
    serde_json::to_string(&sweep.records).expect("records serialize")
}

#[test]
fn temporal_degrees_never_alias_in_the_cache() {
    // a T=2 cell can never be served a cached T=1 record, in either
    // direction: every degree owns its entry, and cold, warm and uncached
    // runs agree byte for byte
    let dir = scratch_dir("temporal");
    let topts = SweepOptions::new(ExperimentParams { n: 64 }).filter(one_cell());
    let cold = temporal_json(&topts.clone().cache_dir(&dir));
    assert_eq!(
        cell_entries(&dir).len(),
        4,
        "7pt on A100/CUDA fuses T = 1..=4, one entry each"
    );
    let warm = temporal_json(&topts.clone().cache_dir(&dir));
    let uncached = temporal_json(&topts);
    assert_eq!(cold, uncached);
    assert_eq!(warm, uncached);

    // degree is visible in the data too: the fused launch moves different
    // bytes than the baseline, so any aliasing would be caught here
    let records: Vec<experiments::TemporalRecord> = serde_json::from_str(&warm).unwrap();
    assert_ne!(records[0].dram_bytes, records[1].dram_bytes);
    assert!(records[1].ai > records[0].ai);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn paper_auto_and_temporal_gather_cells_stay_distinct() {
    // the paper's 125pt bricks cell lets the generator choose (Auto →
    // scatter); the temporal T=1 cell is gather. Over one cache directory
    // they keep separate entries, and both match an uncached run
    let dir = scratch_dir("auto_gather");
    let filter = CellFilter {
        stencils: Some(vec!["125pt".into()]),
        configs: Some(vec![experiments::KernelConfig::BricksCodegen]),
        ..one_cell()
    };
    let popts = SweepOptions::new(ExperimentParams { n: 64 }).filter(filter.clone());
    let topts = popts.clone().filter(CellFilter {
        configs: None,
        ..filter
    });
    let paper = |o: &SweepOptions| experiments::sweep_with(o).expect("sweep runs").records;
    let cold_paper = records_json(&paper(&popts.clone().cache_dir(&dir)));
    let cold_temporal = temporal_json(&topts.clone().cache_dir(&dir));
    assert_eq!(
        cell_entries(&dir).len(),
        3,
        "one paper cell plus 125pt's two fused degrees"
    );
    for _warm in 0..2 {
        assert_eq!(
            records_json(&paper(&popts.clone().cache_dir(&dir))),
            cold_paper
        );
        assert_eq!(temporal_json(&topts.clone().cache_dir(&dir)), cold_temporal);
    }
    assert_eq!(
        records_json(&paper(&popts)),
        cold_paper,
        "paper vs uncached"
    );
    assert_eq!(temporal_json(&topts), cold_temporal, "temporal vs uncached");

    let scatter = &paper(&popts)[0];
    let gather: Vec<experiments::TemporalRecord> = serde_json::from_str(&cold_temporal).unwrap();
    assert_ne!(scatter.gflops, gather[0].gflops, "Auto resolved to scatter");
    let _ = fs::remove_dir_all(&dir);
}

fn records_json(records: &[experiments::Record]) -> String {
    serde_json::to_string(records).expect("records serialize")
}

fn tune_opts(dir: &std::path::Path) -> brick_tuner::TuneOptions {
    let mut opts = brick_tuner::TuneOptions::new(64)
        .shapes(vec![brick_dsl::shape::StencilShape::star(1)])
        .targets(vec![brick_tuner::TuneTarget {
            arch: gpu_sim::GpuArch::a100(),
            model: ProgModel::Cuda,
        }])
        .space(brick_tuner::TuningSpace::minimal())
        .jobs(2);
    opts.cache_dir = Some(dir.to_path_buf());
    opts
}

fn tune_groups_json(opts: &brick_tuner::TuneOptions) -> String {
    let report = brick_tuner::tune_matrix(opts).expect("tune runs");
    serde_json::to_string(&report.groups).expect("groups serialize")
}

#[test]
fn tuner_baseline_shares_the_temporal_t1_record() {
    // the tuner's paper baseline and the temporal sweep's 7pt T=1 cell
    // are one cell: over a shared cache they share one record
    let dir = scratch_dir("shared_cell");
    let topts = SweepOptions::new(ExperimentParams { n: 64 })
        .filter(one_cell())
        .cache_dir(&dir);
    let temporal = experiments::temporal_sweep_with(&topts).unwrap();
    let before = cell_entries(&dir);

    let report = brick_tuner::tune_matrix(&tune_opts(&dir)).unwrap();
    let after = cell_entries(&dir);
    assert_eq!(
        after.len(),
        before.len() + 1,
        "the minimal space adds one candidate; the baseline was cached"
    );
    assert!(before.iter().all(|e| after.contains(e)));
    let (base, t1) = (&report.groups[0].baseline, &temporal.records[0]);
    assert_eq!(t1.temporal_degree, 1);
    assert_eq!(
        (base.gflops, base.ai, base.time_s),
        (t1.gflops, t1.ai, t1.time_s)
    );
    assert_eq!(base.dram_bytes, t1.dram_bytes);

    // warm tune rerun: byte-identical ranked tables served wholly from
    // the cache, and the temporal sweep still reproduces bit-for-bit over
    // the shared directory
    let cold = serde_json::to_string(&report.groups).unwrap();
    let warm = brick_tuner::tune_matrix(&tune_opts(&dir)).unwrap();
    assert_eq!(cold, serde_json::to_string(&warm.groups).unwrap());
    assert_eq!(warm.manifest.cache_misses, 0, "{:?}", warm.manifest);
    assert_eq!(warm.manifest.cache_hits, report.manifest.cache_hits + 1);
    assert_eq!(
        serde_json::to_string(&temporal.records).unwrap(),
        serde_json::to_string(&experiments::temporal_sweep_with(&topts).unwrap().records).unwrap()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_stale_tuner_entries_read_as_misses() {
    let dir = scratch_dir("tune_corrupt");
    let cold = tune_groups_json(&tune_opts(&dir));
    let entries = cell_entries(&dir);
    assert!(!entries.is_empty());

    // torn writes: unparsable JSON
    for name in &entries {
        fs::write(dir.join(name), "{torn write").unwrap();
    }
    let corrupt_before = counter("sweep.cache.corrupt");
    assert_eq!(
        cold,
        tune_groups_json(&tune_opts(&dir)),
        "corrupt tuner entries never change results"
    );
    assert!(counter("sweep.cache.corrupt") > corrupt_before);

    // stale entries: well-formed JSON from a different (older) key scheme
    // — the embedded key description mismatches, so they read as misses
    for name in &entries {
        fs::write(dir.join(name), r#"{"desc":"tune;v0;ancient=1","value":{}}"#).unwrap();
    }
    let corrupt_before = counter("sweep.cache.corrupt");
    assert_eq!(
        cold,
        tune_groups_json(&tune_opts(&dir)),
        "stale tuner entries never change results"
    );
    assert!(
        counter("sweep.cache.corrupt") > corrupt_before,
        "description mismatch was detected, not served"
    );

    // both reruns repaired the files: one more run hits cleanly
    let hits_before = counter("sweep.cache.hits");
    let _ = tune_groups_json(&tune_opts(&dir));
    assert!(counter("sweep.cache.hits") > hits_before);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cells_never_read_entries_of_the_previous_schema() {
    // v5 keys cells on shape + specialization vector; a v4-era file (keyed
    // on the program text, under the same `cell` domain) must stay out of
    // reach, so a poisoned one can never satisfy a v5 lookup
    use brick_codegen::SpecParams;
    use brick_dsl::shape::StencilShape;
    use brick_dsl::StencilAnalysis;
    use brick_tuner::cell::{
        arch_fingerprint, paper_spec, program, spec_fingerprint, CellId, SCHEMA_VERSION,
    };
    use experiments::KernelConfig;

    let arch = gpu_sim::GpuArch::a100();
    let shape = StencilShape::star(1);
    let spec = paper_spec(32);
    let a = StencilAnalysis::of_shape(&shape);
    let rl = roofline::measure(&arch, ProgModel::Cuda).unwrap();
    let v5 = CellId {
        shape,
        config: KernelConfig::BricksCodegen,
        spec,
        arch: arch_fingerprint(&arch),
        model: ProgModel::Cuda,
        n: 64,
    }
    .disk_key();
    assert_eq!(SCHEMA_VERSION, 5, "the recipe below is v4's");

    // the exact v4 recipe of the paper's 7pt bricks cell
    let v4 = brick_sweep::KeyBuilder::new("cell", 4)
        .fingerprint(
            "kernel",
            spec_fingerprint(&program(&shape, KernelConfig::BricksCodegen, &spec).unwrap()),
        )
        .fingerprint("spec", SpecParams::paper_default(32).fingerprint())
        .fingerprint("arch", arch_fingerprint(&arch))
        .field("model", ProgModel::Cuda)
        .field("n", 64usize)
        .field("flops", a.flops_per_point)
        .field("fidelity", "fast")
        .field("temporal", 1u32)
        .f64_bits("theory_ai", a.theoretical_ai)
        .f64_bits("rl_peak", rl.peak_gflops)
        .f64_bits("rl_bw", rl.bandwidth_gbs)
        .build();
    assert_ne!(v4.file_name(), v5.file_name());

    // end to end: the poisoned v4 file is never read — the sweep matches
    // an uncached run bit-for-bit
    let dir = scratch_dir("v4_alias");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(v4.file_name()), r#"{"desc":"poison","value":{}}"#).unwrap();
    let cached = experiments::sweep_with(&opts(64, &dir)).unwrap();
    assert!(dir.join(v5.file_name()).exists(), "v5 entry written");
    let clean =
        experiments::sweep_with(&SweepOptions::new(ExperimentParams { n: 64 }).filter(one_cell()))
            .unwrap();
    assert_eq!(
        serde_json::to_string(&cached.records).unwrap(),
        serde_json::to_string(&clean.records).unwrap(),
        "the stale v4 record is unreachable and results are unchanged"
    );
    let _ = fs::remove_dir_all(&dir);
}
