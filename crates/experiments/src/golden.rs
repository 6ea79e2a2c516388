//! Golden-artifact regression machinery.
//!
//! Six checked-in artifacts pin the numerical output of the whole
//! pipeline at a fixed domain size ([`GOLDEN_N`]): from the paper sweep
//! Table 4 (theoretical AI), the A100/CUDA Roofline panel of Fig. 3 and
//! the Pennycook portability table (Table 3); from the temporal sweep the
//! AI-vs-T and DRAM-vs-T tables; from the tuner the blessed ranked table.
//! Any refactor of the sweep engine — parallelism, caching, memoisation —
//! must reproduce them bit-for-bit in the integer columns and to 1e-9
//! relative tolerance in the float columns; `tests/golden.rs` enforces
//! that, and `cargo run -p experiments -- --bless` regenerates the files
//! after an *intentional* model change.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gpu_sim::{GpuKind, ProgModel};
use serde_json::Value;

use brick_tuner::TuneReport;

use crate::figures;
use crate::runner::{sweep_with, Sweep, SweepOptions};
use crate::tables;
use crate::temporal::{temporal_sweep_with, TemporalSweep};

/// Domain size the golden artifacts are pinned at — small enough that a
/// fresh sweep fits in a CI test, large enough to exercise every cache
/// level of the simulator.
pub const GOLDEN_N: usize = 64;

/// Relative tolerance for float columns. Integer columns must match
/// exactly.
pub const FLOAT_RTOL: f64 = 1e-9;

/// Directory the golden files are checked in under.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Render the golden artifacts from a sweep (which must have run at
/// [`GOLDEN_N`]): `(file name, contents)` pairs.
///
/// Floats are written with `{}` (shortest round-trip representation), so
/// the files carry full precision and [`FLOAT_RTOL`] only has to absorb
/// genuine numerical differences, never formatting loss.
pub fn golden_artifacts(sweep: &Sweep) -> Vec<(&'static str, String)> {
    assert_eq!(
        sweep.params.n, GOLDEN_N,
        "golden artifacts are pinned at n={GOLDEN_N}"
    );

    // Table 4: static theoretical-AI table (pipeline-independent, guards
    // the DSL analysis layer).
    let mut table4 = String::from("shape,points,theoretical_ai\n");
    for row in tables::table4() {
        let _ = writeln!(
            table4,
            "{},{},{}",
            row.shape, row.points, row.theoretical_ai
        );
    }

    // Fig. 3, A100/CUDA panel: guards codegen, the memory/timing
    // simulation and the empirical Roofline on the reference platform.
    let panel = figures::fig3(sweep)
        .into_iter()
        .find(|p| p.gpu == GpuKind::A100 && p.model == ProgModel::Cuda)
        .expect("A100/CUDA panel present in every full sweep");
    let fig3 = serde_json::to_string_pretty(&panel).expect("panel serializes");

    // Table 3: the paper's headline metric — guards the portability
    // aggregation across all five platform columns.
    let table3 = serde_json::to_string_pretty(&tables::table3(sweep)).expect("table serializes");

    vec![
        ("table4.csv", table4),
        ("fig3_a100_cuda.json", fig3),
        ("table3.json", table3),
    ]
}

/// Render the temporal-sweep golden artifacts (which must have run at
/// [`GOLDEN_N`]): the AN5D-style AI-vs-T and DRAM-bytes/point-vs-T
/// tables, pinned on the A100/CUDA reference panel.
pub fn temporal_artifacts(sweep: &TemporalSweep) -> Vec<(&'static str, String)> {
    assert_eq!(
        sweep.params.n, GOLDEN_N,
        "temporal golden artifacts are pinned at n={GOLDEN_N}"
    );
    let panel: Vec<_> = sweep
        .records
        .iter()
        .filter(|r| r.gpu == GpuKind::A100 && r.model == ProgModel::Cuda)
        .collect();

    // AI-vs-T: arithmetic intensity (and the FLOP rate it buys) per
    // fusion degree — guards the fused codegen + FLOP normalisation.
    let mut ai = String::from("stencil,temporal_degree,ai,gflops\n");
    for r in &panel {
        let _ = writeln!(
            ai,
            "{},{},{},{}",
            r.stencil, r.temporal_degree, r.ai, r.gflops
        );
    }

    // DRAM-bytes/point-vs-T: the launch's HBM traffic and the per-applied-
    // timestep normalisation — guards the memory simulation of the grown
    // fused footprint.
    let mut dram = String::from("stencil,temporal_degree,dram_bytes,dram_bytes_per_point\n");
    for r in &panel {
        let _ = writeln!(
            dram,
            "{},{},{},{}",
            r.stencil, r.temporal_degree, r.dram_bytes, r.dram_bytes_per_point
        );
    }

    vec![("temporal_ai.csv", ai), ("temporal_dram.csv", dram)]
}

/// How many ranked rows the tuner golden pins.
pub const TUNE_GOLDEN_TOP_K: usize = 5;

/// Render the tuner golden artifact from a tune report (which must have
/// run at [`GOLDEN_N`]): the blessed top-K ranked table for the 7-point
/// star on the A100/CUDA reference panel, `tune_star7_a100.json`.
///
/// The specialization vectors and their fingerprints are integer/string
/// fields (exact match); the performance columns are floats under
/// [`FLOAT_RTOL`]. Any change to the search order, validity predicates,
/// pruning bounds or ranking tie-break that alters the winners shows up
/// here.
pub fn tune_artifacts(report: &TuneReport) -> Vec<(&'static str, String)> {
    assert_eq!(
        report.n, GOLDEN_N,
        "tuner golden artifact is pinned at n={GOLDEN_N}"
    );
    let group = report
        .group(GpuKind::A100, ProgModel::Cuda, "7pt")
        .expect("7pt A100/CUDA group present in every tune report");

    // the vendored serde derive does not handle lifetime parameters, so
    // the golden view owns its rows
    #[derive(serde::Serialize)]
    struct TuneGolden {
        n: usize,
        space_fingerprint: u64,
        baseline_fingerprint: u64,
        top: Vec<brick_tuner::TunedRecord>,
    }
    let golden = TuneGolden {
        n: report.n,
        space_fingerprint: report.space_fingerprint,
        baseline_fingerprint: group.baseline.fingerprint,
        top: group
            .ranked
            .iter()
            .take(TUNE_GOLDEN_TOP_K)
            .cloned()
            .collect(),
    };
    let json = serde_json::to_string_pretty(&golden).expect("tune golden serializes");
    vec![("tune_star7_a100.json", json)]
}

/// All six artifacts from fresh [`GOLDEN_N`] runs of the three
/// pipelines: the paper and temporal sweeps under `opts` (at
/// [`GOLDEN_N`] whatever its size) and the golden tune with its jobs and
/// cache directory.
pub fn render_all(opts: &SweepOptions) -> Result<Vec<(&'static str, String)>, String> {
    let opts = SweepOptions {
        params: crate::ExperimentParams { n: GOLDEN_N },
        ..opts.clone()
    };
    let sweep = sweep_with(&opts).map_err(|e| format!("golden sweep: {e}"))?;
    let temporal = temporal_sweep_with(&opts).map_err(|e| format!("temporal golden sweep: {e}"))?;
    let tune_opts =
        crate::tune::golden_tune_options(Some(opts.jobs.count()), opts.cache_dir.clone());
    let report = crate::tune::run_tune(&tune_opts).map_err(|e| format!("golden tune: {e}"))?;
    let mut artifacts = golden_artifacts(&sweep);
    artifacts.extend(temporal_artifacts(&temporal));
    artifacts.extend(tune_artifacts(&report));
    Ok(artifacts)
}

/// Write `artifacts` under `dir` as the new goldens. Returns the paths
/// written.
pub fn bless(artifacts: &[(&'static str, String)], dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (name, contents) in artifacts {
        let path = dir.join(name);
        fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

/// Compare a freshly-rendered artifact against its golden text.
///
/// `.csv` artifacts are compared row/field-wise; `.json` artifacts are
/// parsed and compared structurally. In both, integers and strings must
/// match exactly and floats to [`FLOAT_RTOL`] relative tolerance.
pub fn compare_artifact(name: &str, golden: &str, actual: &str) -> Result<(), String> {
    if name.ends_with(".json") {
        let g = serde_json::parse(golden).map_err(|e| format!("{name}: golden unparsable: {e}"))?;
        let a = serde_json::parse(actual).map_err(|e| format!("{name}: actual unparsable: {e}"))?;
        compare_value(name, &g, &a)
    } else {
        compare_csv(name, golden, actual)
    }
}

/// Compare each of `artifacts` against its checked-in file under `dir`.
/// Returns every mismatch (empty = pass) so a failure reports all
/// divergent artifacts at once.
pub fn check(artifacts: &[(&'static str, String)], dir: &Path) -> Vec<String> {
    let mut diffs = Vec::new();
    for (name, actual) in artifacts {
        let path = dir.join(name);
        match fs::read_to_string(&path) {
            Ok(golden) => {
                if let Err(d) = compare_artifact(name, &golden, actual) {
                    diffs.push(d);
                }
            }
            Err(e) => diffs.push(format!(
                "{name}: missing golden {} ({e}); run `cargo run -p experiments -- --bless`",
                path.display()
            )),
        }
    }
    diffs
}

fn float_eq(g: f64, a: f64) -> bool {
    g == a || (g - a).abs() <= FLOAT_RTOL * g.abs().max(a.abs())
}

fn compare_csv(name: &str, golden: &str, actual: &str) -> Result<(), String> {
    let g_lines: Vec<&str> = golden.lines().collect();
    let a_lines: Vec<&str> = actual.lines().collect();
    if g_lines.len() != a_lines.len() {
        return Err(format!(
            "{name}: {} golden rows vs {} actual",
            g_lines.len(),
            a_lines.len()
        ));
    }
    for (row, (g, a)) in g_lines.iter().zip(&a_lines).enumerate() {
        let gf: Vec<&str> = g.split(',').collect();
        let af: Vec<&str> = a.split(',').collect();
        if gf.len() != af.len() {
            return Err(format!(
                "{name} row {row}: field count {} vs {}",
                gf.len(),
                af.len()
            ));
        }
        for (col, (gv, av)) in gf.iter().zip(&af).enumerate() {
            if gv == av {
                continue;
            }
            // a field is a float column iff the golden value has a
            // fractional/exponent marker; everything else is exact
            let is_float = gv.contains(['.', 'e', 'E']) && gv.parse::<f64>().is_ok();
            let close = is_float
                && matches!(
                    (gv.parse::<f64>(), av.parse::<f64>()),
                    (Ok(g), Ok(a)) if float_eq(g, a)
                );
            if !close {
                return Err(format!(
                    "{name} row {row} col {col}: golden `{gv}` vs actual `{av}`"
                ));
            }
        }
    }
    Ok(())
}

fn compare_value(path: &str, golden: &Value, actual: &Value) -> Result<(), String> {
    match (golden, actual) {
        (Value::F64(g), Value::F64(a)) if float_eq(*g, *a) => Ok(()),
        // integer vs float of the same value (e.g. `1.0` reparsed as `1`)
        (Value::F64(g), Value::U64(a)) | (Value::U64(a), Value::F64(g))
            if float_eq(*g, *a as f64) =>
        {
            Ok(())
        }
        (Value::Arr(g), Value::Arr(a)) => {
            if g.len() != a.len() {
                return Err(format!("{path}: {} elements vs {}", g.len(), a.len()));
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                compare_value(&format!("{path}[{i}]"), gv, av)?;
            }
            Ok(())
        }
        (Value::Obj(g), Value::Obj(a)) => {
            let g_keys: Vec<&String> = g.iter().map(|(k, _)| k).collect();
            let a_keys: Vec<&String> = a.iter().map(|(k, _)| k).collect();
            if g_keys != a_keys {
                return Err(format!("{path}: keys {g_keys:?} vs {a_keys:?}"));
            }
            for ((k, gv), (_, av)) in g.iter().zip(a) {
                compare_value(&format!("{path}.{k}"), gv, av)?;
            }
            Ok(())
        }
        _ if golden == actual => Ok(()),
        _ => Err(format!("{path}: golden {golden:?} vs actual {actual:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_tolerates_float_noise_but_not_integer_drift() {
        let golden = "shape,points,ai\nstar,7,0.10416666666666667\n";
        let noisy = "shape,points,ai\nstar,7,0.10416666666666670\n";
        assert!(compare_artifact("t.csv", golden, noisy).is_ok());
        let drifted = "shape,points,ai\nstar,8,0.10416666666666667\n";
        let err = compare_artifact("t.csv", golden, drifted).unwrap_err();
        assert!(err.contains("col 1"), "integer column is exact: {err}");
        let off = "shape,points,ai\nstar,7,0.105\n";
        assert!(compare_artifact("t.csv", golden, off).is_err());
    }

    #[test]
    fn json_compares_structurally_with_tolerance() {
        let golden = r#"{"a": [1, 2.0000000000], "b": "x"}"#;
        let same = r#"{"a": [1, 2.0000000004], "b": "x"}"#;
        assert!(compare_artifact("t.json", golden, same).is_ok());
        let diff = r#"{"a": [1, 2.1], "b": "x"}"#;
        let err = compare_artifact("t.json", golden, diff).unwrap_err();
        assert!(err.contains("a[1]"), "path points at the divergence: {err}");
        let reshaped = r#"{"a": [1], "b": "x"}"#;
        assert!(compare_artifact("t.json", golden, reshaped).is_err());
    }

    #[test]
    fn bless_round_trips_all_six_artifacts() {
        // the artifact renderers need the full matrix, so run a real (but
        // small) GOLDEN_N sweep against an empty golden directory
        let params = crate::config::ExperimentParams { n: GOLDEN_N };
        let sweep = crate::runner::sweep_with(&crate::runner::SweepOptions::new(params))
            .expect("golden-size sweep runs");
        let mut artifacts = golden_artifacts(&sweep);
        artifacts.extend(temporal_artifacts(crate::testutil::shared_temporal_sweep()));
        artifacts.extend(tune_artifacts(crate::testutil::shared_tune_report()));
        let dir = std::env::temp_dir().join(format!("golden_missing_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let diffs = check(&artifacts, &dir);
        assert_eq!(diffs.len(), 6, "all six artifacts missing: {diffs:?}");
        assert!(diffs.iter().all(|d| d.contains("--bless")));
        // blessing into the directory makes the same check pass
        bless(&artifacts, &dir).unwrap();
        assert!(check(&artifacts, &dir).is_empty());
        let text = fs::read_to_string(dir.join("tune_star7_a100.json")).unwrap();
        assert!(text.contains("space_fingerprint"), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }
}
