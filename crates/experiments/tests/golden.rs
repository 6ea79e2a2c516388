//! Golden-artifact regression suite.
//!
//! Runs fresh pipelines at the pinned golden domain size and compares the
//! rendered artifacts (Table 4, the A100/CUDA Roofline panel, Table 3,
//! the temporal AI/DRAM tables and the tuner's ranked table) against the
//! files checked in under `tests/golden/`. Integer columns must match
//! exactly, floats to 1e-9 relative tolerance — this is the suite that
//! proves the parallel/incremental sweep engine changes nothing.
//!
//! On a mismatch the fresh artifacts and the full diff list are written
//! to `target/golden-diff/` so CI can upload them; after an intentional
//! model change regenerate the goldens with
//! `cargo run -p experiments -- --bless`.

use std::fs;
use std::path::Path;

use experiments::{golden, ExperimentParams, SweepOptions};

/// Check `artifacts` against the goldens; on a mismatch leave the fresh
/// copies and the diff list where CI picks them up, then fail.
fn check_or_dump(artifacts: &[(&'static str, String)], what: &str) {
    let diffs = golden::check(artifacts, &golden::golden_dir());
    if diffs.is_empty() {
        return;
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff");
    let _ = fs::create_dir_all(&out);
    for (name, actual) in artifacts {
        let _ = fs::write(out.join(format!("actual-{name}")), actual);
    }
    let _ = fs::write(out.join(format!("{what}-diff.txt")), diffs.join("\n"));
    panic!(
        "{what} golden artifacts diverged (fresh copies in {}):\n{}",
        out.display(),
        diffs.join("\n")
    );
}

fn golden_opts() -> SweepOptions {
    SweepOptions::new(ExperimentParams {
        n: golden::GOLDEN_N,
    })
}

#[test]
fn fresh_sweep_matches_checked_in_goldens() {
    let sweep = experiments::sweep_with(&golden_opts()).expect("golden sweep runs");
    check_or_dump(&golden::golden_artifacts(&sweep), "sweep");
}

#[test]
fn fresh_temporal_sweep_matches_checked_in_goldens() {
    // the temporal AI-vs-T and DRAM-vs-T tables, pinned the same way as
    // the spatial artifacts: a fresh fused sweep must reproduce them
    let sweep =
        experiments::temporal_sweep_with(&golden_opts()).expect("temporal golden sweep runs");
    check_or_dump(&golden::temporal_artifacts(&sweep), "temporal");
}

#[test]
fn fresh_tune_matches_checked_in_golden() {
    // the blessed tuner table: a fresh smoke-space tune of the 7-point
    // star on A100/CUDA must reproduce tune_star7_a100.json — winners,
    // order, fingerprints (exact) and performance columns (1e-9)
    let report = brick_tuner::tune_matrix(&experiments::tune::golden_tune_options(None, None))
        .expect("golden tune runs");
    check_or_dump(&golden::tune_artifacts(&report), "tune");
}

#[test]
fn tune_golden_is_jobs_count_independent() {
    let report = brick_tuner::tune_matrix(&experiments::tune::golden_tune_options(Some(1), None))
        .expect("serial golden tune runs");
    check_or_dump(&golden::tune_artifacts(&report), "serial tune");
}

#[test]
fn temporal_goldens_are_jobs_count_independent() {
    let sweep = experiments::temporal_sweep_with(&golden_opts().jobs(1))
        .expect("serial temporal golden sweep runs");
    check_or_dump(&golden::temporal_artifacts(&sweep), "serial temporal");
}

#[test]
fn goldens_are_jobs_count_independent() {
    // the golden check above runs at the default jobs count; pin the
    // serial schedule against the same files so a determinism bug cannot
    // hide behind a lucky default
    let sweep = experiments::sweep_with(&golden_opts().jobs(1)).expect("serial golden sweep runs");
    check_or_dump(&golden::golden_artifacts(&sweep), "serial sweep");
}
