//! Continuous benchmark regression: the paired gate behind `bricks prof
//! gate` and `ci/paired-gate.sh`.
//!
//! Each side of a comparison is one or more rounds of one bench document
//! kind — `BENCH_sim.json` or `BENCH_exec.json`, recognised by content —
//! from one build, and both sides run in alternation on one host, so the
//! host's speed cancels out. Every rule compares the two sides' medians
//! at its tolerance (10%, the acceptance bar "fail on >10% regression");
//! a side's spread (`max/min - 1` over its rounds) says whether such a
//! change can be told from noise.

use std::fs;
use std::path::Path;

use serde_json::Value;

/// How one benchmark metric is judged.
#[derive(Debug, Clone, Copy)]
pub struct MetricRule {
    /// Dot-separated path into the bench document.
    pub path: &'static str,
    /// True when larger is better (throughput, speedup).
    pub higher_is_better: bool,
    /// Relative change of the median tolerated before the gate fails
    /// (0.10 = 10%), and the widest spread a side may show for a change
    /// to count while the two sides' rounds overlap.
    pub tolerance: f64,
}

/// The gated metrics of `BENCH_sim.json`: cold/warm sweep throughput and
/// the simulator's speedups over the exact oracle (the `fidelity` blocks).
pub const BENCH_RULES: &[MetricRule] = &[
    MetricRule {
        path: "sweep.cold_cells_per_s",
        higher_is_better: true,
        tolerance: 0.10,
    },
    MetricRule {
        path: "sweep.warm_cells_per_s",
        higher_is_better: true,
        tolerance: 0.10,
    },
    MetricRule {
        path: "fidelity.speedup",
        higher_is_better: true,
        tolerance: 0.10,
    },
    MetricRule {
        path: "fidelity_full.speedup",
        higher_is_better: true,
        tolerance: 0.10,
    },
];

/// The gated metrics of `BENCH_exec.json` (the native execution-backend
/// acceptance cell): absolute throughput of both backends and the
/// native-over-interpreter speedup.
pub const EXEC_RULES: &[MetricRule] = &[
    MetricRule {
        path: "interpreter.points_per_s",
        higher_is_better: true,
        tolerance: 0.10,
    },
    MetricRule {
        path: "native.points_per_s",
        higher_is_better: true,
        tolerance: 0.10,
    },
    MetricRule {
        path: "speedup",
        higher_is_better: true,
        tolerance: 0.10,
    },
];

/// The kind (file name) and rule set of a bench document, recognised by
/// its distinguishing key: `BENCH_exec.json` documents carry an `exec`
/// object (the measured cell's identity), `BENCH_sim.json` documents a
/// `fidelity` object. Any other document is an error, so it cannot pass
/// the gate with no metric judged.
pub fn rules_for(doc: &Value) -> Result<(&'static str, &'static [MetricRule]), String> {
    if doc.get("exec").is_some() {
        Ok(("BENCH_exec.json", EXEC_RULES))
    } else if doc.get("fidelity").is_some() {
        Ok(("BENCH_sim.json", BENCH_RULES))
    } else {
        Err("not a BENCH_sim.json or BENCH_exec.json document".to_string())
    }
}

/// One metric over one side's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideStats {
    /// Median over the rounds (the upper middle one of an even count).
    pub median: f64,
    /// Smallest round.
    pub min: f64,
    /// Largest round.
    pub max: f64,
    /// Number of rounds.
    pub rounds: usize,
}

impl SideStats {
    /// Relative spread `max/min - 1` of the rounds.
    pub fn spread(&self) -> f64 {
        self.max / self.min - 1.0
    }
}

/// One metric's comparison across the two sides.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Rule path.
    pub path: String,
    /// BASE's rounds (`None` when the path is absent there).
    pub base: Option<SideStats>,
    /// NEW's rounds (`None` when absent).
    pub new: Option<SideStats>,
    /// `new.median / base.median` when both sides have the metric.
    pub ratio: Option<f64>,
    /// The rule's tolerance.
    pub tolerance: f64,
    /// `ok`; `improved`; `regressed` (fails the gate); `unresolved` (a
    /// spread wider than the tolerance and overlapping rounds: neither
    /// passed nor failed); `new` (NEW only, not gated); or `absent`.
    pub verdict: &'static str,
}

/// Resolve a dot-separated path to a number inside a JSON document.
pub fn lookup(doc: &Value, path: &str) -> Option<f64> {
    let mut v = doc;
    for seg in path.split('.') {
        v = v.get(seg)?;
    }
    v.as_f64()
}

/// The kind and rules every one of a side's rounds shares.
fn side_rules(
    rounds: &[Value],
    side: &str,
) -> Result<(&'static str, &'static [MetricRule]), String> {
    let kinds: Vec<_> = rounds
        .iter()
        .map(rules_for)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{side}: {e}"))?;
    let first = *kinds
        .first()
        .ok_or_else(|| format!("{side} has no bench rounds"))?;
    match kinds.iter().find(|k| k.0 != first.0) {
        Some(k) => Err(format!("{side} mixes {} and {} rounds", first.0, k.0)),
        None => Ok(first),
    }
}

/// `path` over a side's rounds: `None` when no round has it. A metric
/// only some rounds carry, or one that is not a positive finite number,
/// is an error.
fn side_stats(rounds: &[Value], path: &str, side: &str) -> Result<Option<SideStats>, String> {
    let mut v: Vec<f64> = rounds.iter().filter_map(|d| lookup(d, path)).collect();
    if v.is_empty() {
        return Ok(None);
    }
    if v.len() != rounds.len() {
        let n = rounds.len();
        return Err(format!("{path} is in {} of {side}'s {n} rounds", v.len()));
    }
    if let Some(x) = v.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
        return Err(format!("{side} {path} = {x}: not a positive finite number"));
    }
    v.sort_by(f64::total_cmp);
    Ok(Some(SideStats {
        median: v[v.len() / 2],
        min: v[0],
        max: v[v.len() - 1],
        rounds: v.len(),
    }))
}

/// Judge one metric both sides measured.
fn judge(rule: &MetricRule, base: &SideStats, new: &SideStats) -> &'static str {
    let tol = rule.tolerance;
    let ratio = new.median / base.median;
    // the relative change in the bad direction, and whether every NEW
    // round reads worse (better) than every BASE round
    let (worse, all_worse, all_better) = if rule.higher_is_better {
        (1.0 - ratio, new.max < base.min, new.min > base.max)
    } else {
        (ratio - 1.0, new.min > base.max, new.max < base.min)
    };
    let tight = base.spread() <= tol && new.spread() <= tol;
    if worse > tol && (tight || all_worse) {
        "regressed"
    } else if !tight && !all_worse && !all_better {
        "unresolved"
    } else if worse < -tol {
        "improved"
    } else {
        "ok"
    }
}

/// Compare NEW's rounds against BASE's under the rules of their kind.
///
/// Errors when a side has no rounds or mixes kinds, when the sides are
/// of different kinds, and when a metric BASE measured is missing on
/// NEW. A metric only NEW measured is `new`, and not gated.
pub fn diff_bench(base: &[Value], new: &[Value]) -> Result<Vec<MetricDelta>, String> {
    let (kind, rules) = side_rules(base, "BASE")?;
    let (new_kind, _) = side_rules(new, "NEW")?;
    if kind != new_kind {
        return Err(format!(
            "BASE is {kind} but NEW is {new_kind}: the sides measure different things"
        ));
    }
    rules
        .iter()
        .map(|r| {
            let b = side_stats(base, r.path, "BASE")?;
            let n = side_stats(new, r.path, "NEW")?;
            let verdict = match (&b, &n) {
                (Some(b), Some(n)) => judge(r, b, n),
                (Some(_), None) => {
                    return Err(format!("{}: measured on BASE but missing on NEW", r.path))
                }
                (None, Some(_)) => "new",
                (None, None) => "absent",
            };
            Ok(MetricDelta {
                path: r.path.to_string(),
                ratio: b.zip(n).map(|(b, n)| n.median / b.median),
                base: b,
                new: n,
                tolerance: r.tolerance,
                verdict,
            })
        })
        .collect()
}

/// The CI gate: `Err` listing every regressed metric, `Ok` otherwise.
pub fn gate(deltas: &[MetricDelta]) -> Result<(), String> {
    let bad: Vec<String> = deltas
        .iter()
        .filter(|d| d.verdict == "regressed")
        .map(|d| {
            format!(
                "{}: median {:.4} -> {:.4} ({:+.1}% beyond the {:.0}% tolerance)",
                d.path,
                d.base.map_or(f64::NAN, |s| s.median),
                d.new.map_or(f64::NAN, |s| s.median),
                (d.ratio.unwrap_or(1.0) - 1.0) * 100.0,
                d.tolerance * 100.0
            )
        })
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "benchmark regression gate failed on {} metric(s):\n  {}",
            bad.len(),
            bad.join("\n  ")
        ))
    }
}

/// Read one side of a comparison: a bench document, or a directory whose
/// `*/BENCH_*.json` files are the side's rounds (one subdirectory per
/// round, as `ci/paired-gate.sh` writes them).
pub fn load_side(path: &Path) -> Result<Vec<Value>, String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let mut files = vec![path.to_path_buf()];
    if path.is_dir() {
        files = fs::read_dir(path)
            .map_err(|e| io(path, e))?
            .flatten()
            .filter_map(|round| fs::read_dir(round.path()).ok())
            .flat_map(|entries| entries.flatten().map(|f| f.path()))
            .filter(|f| {
                let name = f.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("BENCH_") && name.ends_with(".json")
            })
            .collect();
        if files.is_empty() {
            return Err(format!("{}: no */BENCH_*.json rounds", path.display()));
        }
        files.sort();
    }
    files
        .iter()
        .map(|f| {
            let text = fs::read_to_string(f).map_err(|e| io(f, e))?;
            serde_json::parse(&text).map_err(|e| format!("{}: not JSON: {e}", f.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(cold: f64, warm: f64, speedup: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"schema": 2,
                 "sweep": {{"cold_cells_per_s": {cold}, "warm_cells_per_s": {warm}}},
                 "fidelity": {{"speedup": {speedup}}}}}"#
        ))
        .unwrap()
    }

    /// One round per cold throughput, the other metrics fixed.
    fn cold_rounds(colds: &[f64]) -> Vec<Value> {
        colds.iter().map(|&c| bench_doc(c, 100.0, 8.0)).collect()
    }

    fn verdict_of(deltas: &[MetricDelta], path: &str) -> &'static str {
        deltas.iter().find(|d| d.path == path).unwrap().verdict
    }

    #[test]
    fn lookup_walks_paths() {
        let d = bench_doc(10.0, 100.0, 8.0);
        assert_eq!(lookup(&d, "sweep.cold_cells_per_s"), Some(10.0));
        assert_eq!(lookup(&d, "fidelity.speedup"), Some(8.0));
        assert_eq!(lookup(&d, "fidelity_full.speedup"), None);
        assert_eq!(lookup(&d, "schema"), Some(2.0));
    }

    #[test]
    fn gate_fails_on_injected_20_percent_slowdown_and_passes_baseline() {
        let base = cold_rounds(&[10.0, 10.2, 9.9]);
        // identical sides pass; fidelity_full, absent on both, is benign
        let same = diff_bench(&base, &base).unwrap();
        assert!(gate(&same).is_ok());
        assert_eq!(verdict_of(&same, "fidelity_full.speedup"), "absent");
        // 20% median cold-throughput drop with tight spreads
        let slow = cold_rounds(&[8.0, 8.1, 7.9]);
        let deltas = diff_bench(&base, &slow).unwrap();
        assert_eq!(verdict_of(&deltas, "sweep.cold_cells_per_s"), "regressed");
        let err = gate(&deltas).unwrap_err();
        assert!(err.contains("sweep.cold_cells_per_s"), "{err}");
        assert!(!err.contains("warm_cells_per_s"), "{err}");
        // a single document per side is a one-round side
        let one = diff_bench(&base[..1], &slow[..1]).unwrap();
        assert!(gate(&one).is_err());
    }

    #[test]
    fn small_jitter_is_tolerated() {
        let base = [bench_doc(10.0, 100.0, 8.0)];
        let jitter = [bench_doc(9.5, 95.0, 7.5)];
        let deltas = diff_bench(&base, &jitter).unwrap();
        assert!(gate(&deltas).is_ok());
        assert!(deltas[..3].iter().all(|d| d.verdict == "ok"));
    }

    #[test]
    fn improvements_never_fail_the_gate() {
        let base = [bench_doc(10.0, 100.0, 8.0)];
        let faster = [bench_doc(20.0, 250.0, 16.0)];
        let deltas = diff_bench(&base, &faster).unwrap();
        assert!(gate(&deltas).is_ok());
        assert!(deltas[..3].iter().all(|d| d.verdict == "improved"));
    }

    #[test]
    fn wide_overlapping_rounds_are_unresolved() {
        // a 20% median drop, but BASE spreads by 40% and the rounds
        // overlap: the change cannot be told from noise
        let base = cold_rounds(&[10.0, 7.0, 9.8]);
        let new = cold_rounds(&[8.0, 7.8, 9.9]);
        let deltas = diff_bench(&base, &new).unwrap();
        let d = &deltas[0];
        assert_eq!(d.verdict, "unresolved");
        assert!(d.base.unwrap().spread() > d.tolerance);
        assert!(gate(&deltas).is_ok());
        // overlapping, wide and within tolerance is unresolved too
        let near = cold_rounds(&[9.7, 7.1, 9.9]);
        assert_eq!(
            verdict_of(&diff_bench(&base, &near).unwrap(), "sweep.cold_cells_per_s"),
            "unresolved"
        );
    }

    #[test]
    fn every_new_round_worse_than_every_base_round_regresses_under_wide_spread() {
        // NEW spreads by 30%, but its best round is below BASE's worst
        let base = cold_rounds(&[10.0, 10.5, 10.2]);
        let new = cold_rounds(&[7.0, 7.6, 9.1]);
        let deltas = diff_bench(&base, &new).unwrap();
        assert!(deltas[0].new.unwrap().spread() > 0.10);
        assert_eq!(deltas[0].verdict, "regressed");
        assert!(gate(&deltas).is_err());
        // the mirror image is an improvement, not unresolved
        let deltas = diff_bench(&new, &base).unwrap();
        assert_eq!(deltas[0].verdict, "improved");
    }

    fn exec_doc(interp: f64, native: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"schema": 7, "exec": {{"stencil": "7pt", "n": 512}},
                 "interpreter": {{"points_per_s": {interp}}},
                 "native": {{"points_per_s": {native}}},
                 "speedup": {r}}}"#,
            r = native / interp
        ))
        .unwrap()
    }

    #[test]
    fn exec_docs_select_exec_rules_and_gate_on_native_throughput() {
        let base = [exec_doc(60.0e6, 230.0e6)];
        assert_eq!(rules_for(&base[0]).unwrap().0, "BENCH_exec.json");
        assert_eq!(
            rules_for(&base[0]).unwrap().1[0].path,
            "interpreter.points_per_s"
        );
        let sim = rules_for(&bench_doc(10.0, 100.0, 8.0)).unwrap();
        assert_eq!(sim.1[0].path, "sweep.cold_cells_per_s");
        assert!(rules_for(&serde_json::parse(r#"{"n": 64}"#).unwrap()).is_err());
        // identical run passes
        assert!(gate(&diff_bench(&base, &base).unwrap()).is_ok());
        // native backend regressing 20% fails on both throughput and speedup
        let slow = [exec_doc(60.0e6, 184.0e6)];
        let err = gate(&diff_bench(&base, &slow).unwrap()).unwrap_err();
        assert!(err.contains("native.points_per_s"), "{err}");
        assert!(err.contains("speedup"), "{err}");
        assert!(!err.contains("interpreter"), "{err}");
    }

    #[test]
    fn mixed_kinds_are_an_error() {
        let sim = bench_doc(10.0, 100.0, 8.0);
        let exec = exec_doc(60.0e6, 230.0e6);
        let (sim, exec) = ([sim], [exec]);
        let err = diff_bench(&sim, &exec).unwrap_err();
        assert!(
            err.contains("BASE is BENCH_sim.json but NEW is BENCH_exec.json"),
            "{err}"
        );
        let mixed = [sim[0].clone(), exec[0].clone()];
        let err = diff_bench(&mixed, &sim).unwrap_err();
        assert!(err.contains("BASE mixes"), "{err}");
        let err = diff_bench(&[], &sim).unwrap_err();
        assert!(err.contains("BASE has no bench rounds"), "{err}");
    }

    #[test]
    fn a_vanished_metric_is_an_error_and_a_new_one_is_not_gated() {
        let with_full = |s: f64| {
            serde_json::parse(&format!(
                r#"{{"sweep": {{"cold_cells_per_s": 10.0, "warm_cells_per_s": 100.0}},
                     "fidelity": {{"speedup": 8.0}}, "fidelity_full": {{"speedup": {s}}}}}"#
            ))
            .unwrap()
        };
        let without = [bench_doc(10.0, 100.0, 8.0)];
        let err = diff_bench(&[with_full(4.0)], &without).unwrap_err();
        assert!(err.contains("fidelity_full.speedup"), "{err}");
        assert!(err.contains("missing on NEW"), "{err}");
        // present only on NEW: reported, not judged
        let deltas = diff_bench(&without, &[with_full(4.0)]).unwrap();
        assert_eq!(verdict_of(&deltas, "fidelity_full.speedup"), "new");
        assert!(gate(&deltas).is_ok());
        // a metric some rounds of one side lack is an error too
        let [without] = without;
        let err = diff_bench(&[with_full(4.0), without], &[with_full(4.0)]).unwrap_err();
        assert!(err.contains("1 of BASE's 2 rounds"), "{err}");
        // and so is a non-positive value
        let err = diff_bench(&[with_full(0.0)], &[with_full(4.0)]).unwrap_err();
        assert!(err.contains("not a positive finite number"), "{err}");
    }

    #[test]
    fn medians_and_spreads_of_rounds() {
        let stats = |v: &[f64]| {
            let rounds: Vec<Value> = v.iter().map(|&c| bench_doc(c, 1.0, 1.0)).collect();
            side_stats(&rounds, "sweep.cold_cells_per_s", "BASE")
                .unwrap()
                .unwrap()
        };
        let s = stats(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.rounds), (2.0, 1.0, 3.0, 3));
        assert_eq!(s.spread(), 2.0);
        assert_eq!(stats(&[4.0, 1.0, 2.0, 3.0]).median, 3.0);
        assert_eq!(stats(&[5.0]).spread(), 0.0);
    }
}
