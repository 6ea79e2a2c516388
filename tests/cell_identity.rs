//! The cell evaluator's identity contract, end to end: every input of a
//! cell reaches the keys that memoise and cache it, and the programs
//! behind shape + spec keys are pinned to the schema version.

use std::collections::BTreeMap;

use bricks_repro::codegen::{SpecParams, Strategy};
use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::experiments::temporal::feasible_degrees;
use bricks_repro::experiments::KernelConfig;
use bricks_repro::gpu_sim::{GpuArch, ProgModel};
use bricks_repro::obs::manifest::fnv1a64;
use bricks_repro::tuner::cell::{paper_spec, program, spec_fingerprint, SCHEMA_VERSION};
use bricks_repro::tuner::{tune_matrix, validate, TuneGroup, TuneOptions, TuneTarget, TuningSpace};

fn tune_star7(archs: &[GpuArch]) -> Vec<TuneGroup> {
    let opts = TuneOptions::new(64)
        .shapes(vec![StencilShape::star(1)])
        .targets(
            archs
                .iter()
                .map(|arch| TuneTarget {
                    arch: arch.clone(),
                    model: ProgModel::Cuda,
                })
                .collect(),
        )
        .space(TuningSpace::minimal())
        .prune(false)
        .jobs(2);
    tune_matrix(&opts).expect("tune runs").groups
}

#[test]
fn same_kind_targets_keep_their_own_memory_counters() {
    // two A100 targets that differ only in L2 size: tuned together, each
    // must read exactly the DRAM traffic it reads when tuned alone
    let mut small_l2 = GpuArch::a100();
    small_l2.l2_bytes = 256 * 1024;
    let stock = tune_star7(&[GpuArch::a100()]).remove(0);
    let cut = tune_star7(&[small_l2.clone()]).remove(0);
    assert_eq!(stock.baseline.dram_bytes, 4_587_520);
    assert_eq!(cut.baseline.dram_bytes, 5_570_560);

    let both = tune_star7(&[GpuArch::a100(), small_l2]);
    assert_eq!(both[0].baseline.dram_bytes, stock.baseline.dram_bytes);
    assert_eq!(both[1].baseline.dram_bytes, cut.baseline.dram_bytes);
    for (together, alone) in both.iter().zip([&stock, &cut]) {
        assert_eq!(
            serde_json::to_string(together).unwrap(),
            serde_json::to_string(alone).unwrap()
        );
    }
}

/// One line per kernel the paper and temporal sweeps generate: the paper
/// suite × every configuration × widths 16/32/64 at the paper's
/// specialization, plus every feasible gather degree of the bricks
/// kernel. Then one `tuner` line per stencil: the count and digest of
/// [`tuner_programs`].
fn canonical_fingerprints() -> String {
    let mut out = format!("schema {SCHEMA_VERSION}\n");
    for shape in StencilShape::paper_suite() {
        for width in [16, 32, 64] {
            let fused = feasible_degrees(&shape).map(|t| {
                let spec = SpecParams {
                    strategy: Strategy::Gather,
                    temporal_degree: t,
                    ..SpecParams::paper_default(width)
                };
                (KernelConfig::BricksCodegen, spec)
            });
            let paper = KernelConfig::all().map(|c| (c, paper_spec(width)));
            for (config, spec) in paper.into_iter().chain(fused) {
                let fp = spec_fingerprint(&program(&shape, config, &spec).unwrap());
                out.push_str(&format!(
                    "{} {config:?} w{width} {} t{} {fp:016x}\n",
                    shape.label(),
                    spec.strategy,
                    spec.temporal_degree
                ));
            }
        }
    }
    for (label, programs) in tuner_programs() {
        let digest = fnv1a64(programs.concat().as_bytes());
        out.push_str(&format!(
            "tuner {label} {} programs {digest:016x}\n",
            programs.len()
        ));
    }
    out
}

/// Per stencil, one line per distinct program the tuner can build: every
/// candidate of `TuningSpace::default()` that `validate` admits on a
/// paper target at 64³, deduplicated by what reaches the generator
/// (brick width, block, strategy and degree; ordering and interleave
/// chunk do not).
fn tuner_programs() -> Vec<(String, Vec<String>)> {
    let archs: Vec<GpuArch> = [GpuArch::a100(), GpuArch::mi250x_gcd(), GpuArch::pvc_stack()].into();
    assert!(ProgModel::paper_matrix()
        .iter()
        .all(|(gpu, _)| archs.iter().any(|a| a.kind == *gpu)));
    let candidates = TuningSpace::default().enumerate();
    StencilShape::paper_suite()
        .into_iter()
        .map(|shape| {
            let mut admitted = BTreeMap::new();
            for arch in &archs {
                for spec in candidates
                    .iter()
                    .filter(|p| validate(p, &shape, arch, 64).is_ok())
                {
                    let key = (
                        spec.width(),
                        spec.block_yz,
                        spec.strategy.to_string(),
                        spec.temporal_degree,
                    );
                    admitted.entry(key).or_insert(*spec);
                }
            }
            let lines = admitted
                .into_iter()
                .map(|((width, (by, bz), strategy, t), spec)| {
                    let p = program(&shape, KernelConfig::BricksCodegen, &spec).unwrap();
                    let fp = spec_fingerprint(&p);
                    format!(
                        "{} w{width} b{by}x{bz} {strategy} t{t} {fp:016x}\n",
                        shape.label()
                    )
                })
                .collect();
            (shape.label(), lines)
        })
        .collect()
}

#[test]
fn program_fingerprints_are_pinned_to_the_schema_version() {
    // cells are cached under shape + specialization vector, not program
    // text: a codegen or analyzer change that moves any program without a
    // SCHEMA_VERSION bump would silently serve stale records
    let pinned = include_str!("kernel_fingerprints.txt");
    let actual = canonical_fingerprints();
    if actual == pinned {
        return;
    }
    let pinned_schema = pinned.lines().next().unwrap_or_default();
    let fix = if pinned_schema == format!("schema {SCHEMA_VERSION}") {
        "programs changed: bump brick_tuner::cell::SCHEMA_VERSION, then re-pin"
    } else {
        "SCHEMA_VERSION moved: re-pin"
    };
    // the tuner lines pin digests; list the programs of each stencil
    // whose line moved, so the change can be read
    let moved: String = tuner_programs()
        .into_iter()
        .filter(|(label, _)| {
            let line = actual
                .lines()
                .find(|l| l.starts_with(&format!("tuner {label} ")));
            line.is_some_and(|l| !pinned.lines().any(|p| p == l))
        })
        .flat_map(|(_, programs)| programs)
        .collect();
    panic!(
        "{fix} tests/kernel_fingerprints.txt with:\n{actual}\n\
         tuner programs of the stencils whose tuner line moved:\n{moved}"
    );
}
