//! Continuous benchmark regression: diffing and gating.
//!
//! Operates on `BENCH_sim.json` documents as loosely-typed JSON values,
//! so a baseline produced by an older build (fewer fields) still diffs
//! against today's — a metric missing on either side is reported but
//! never gated on. Tolerances are *noise-aware* in two layers: each
//! rule has a floor tolerance (10% by default, matching the acceptance
//! bar "fail on >10% regression"), and each document may record the
//! relative spread it observed across its own timing repetitions (see
//! [`MetricRule::noise_path`]); the gate widens the floor to the larger
//! spread of the two runs being compared, capped at
//! [`MAX_TOLERANCE`], so a comparison involving a run taken on a loaded
//! machine does not produce a spurious failure.

use serde_json::Value;

/// How one benchmark metric is judged.
#[derive(Debug, Clone, Copy)]
pub struct MetricRule {
    /// Dot-separated path into the `BENCH_sim.json` document.
    pub path: &'static str,
    /// True when larger is better (throughput, speedup).
    pub higher_is_better: bool,
    /// Relative change tolerated before the gate fails (0.10 = 10%).
    pub tolerance: f64,
    /// Dot-separated path to this metric's recorded measurement noise —
    /// the relative spread (`max/min - 1`) the producing run observed
    /// across its own timing repetitions. When present in either
    /// document, the effective tolerance is widened to the larger
    /// spread (capped at [`MAX_TOLERANCE`]). `None`, or a path absent
    /// from both documents, leaves the floor tolerance in force.
    pub noise_path: Option<&'static str>,
}

/// Ceiling on noise-widened tolerance: a run whose own repetitions
/// spread by more than this is measuring machine load, not the code,
/// but the gate must still catch a catastrophic regression.
pub const MAX_TOLERANCE: f64 = 0.50;

/// The gated metrics of `BENCH_sim.json`: cold/warm sweep throughput and
/// the simulator's speedups over the exact oracle (the `fidelity` blocks).
pub const BENCH_RULES: &[MetricRule] = &[
    MetricRule {
        path: "sweep.cold_cells_per_s",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("sweep.cold_spread"),
    },
    MetricRule {
        path: "sweep.warm_cells_per_s",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("sweep.warm_spread"),
    },
    MetricRule {
        path: "fidelity.speedup",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("fidelity.speedup_spread"),
    },
    MetricRule {
        path: "fidelity_full.speedup",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("fidelity_full.speedup_spread"),
    },
];

/// The gated metrics of `BENCH_exec.json` (the native execution-backend
/// acceptance cell): absolute throughput of both backends and the
/// native-over-interpreter speedup. Each metric is noise-widened by the
/// relative spread its producing run recorded across repetitions — the
/// interpreter on a loaded single-core host can spread by well over the
/// floor tolerance.
pub const EXEC_RULES: &[MetricRule] = &[
    MetricRule {
        path: "interpreter.points_per_s",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("interpreter.spread"),
    },
    MetricRule {
        path: "native.points_per_s",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("native.spread"),
    },
    MetricRule {
        path: "speedup",
        higher_is_better: true,
        tolerance: 0.10,
        noise_path: Some("speedup_spread"),
    },
];

/// Pick the rule set for a bench document by its distinguishing key:
/// `BENCH_exec.json` documents carry an `exec` object (the measured
/// cell's identity), `BENCH_sim.json` documents do not. Keying on the
/// document rather than the filename lets `bricks prof diff/gate`
/// accept either artifact without a mode flag.
pub fn rules_for(doc: &Value) -> &'static [MetricRule] {
    if doc.get("exec").is_some() {
        EXEC_RULES
    } else {
        BENCH_RULES
    }
}

/// One metric's comparison across two documents.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Rule path.
    pub path: String,
    /// Baseline value (`None` when the path is absent there).
    pub base: Option<f64>,
    /// New value (`None` when absent).
    pub new: Option<f64>,
    /// `new / base` when both exist and base is non-zero.
    pub ratio: Option<f64>,
    /// Effective tolerance this metric was judged under: the rule's
    /// floor, widened to the larger recorded measurement noise of the
    /// two runs (capped at [`MAX_TOLERANCE`]).
    pub tolerance: f64,
    /// True when the change exceeds tolerance in the bad direction.
    pub regression: bool,
}

/// Resolve a dot-separated path to a number inside a JSON document.
pub fn lookup(doc: &Value, path: &str) -> Option<f64> {
    let mut v = doc;
    for seg in path.split('.') {
        v = v.get(seg)?;
    }
    v.as_f64()
}

/// Compare `new` against `base` under `rules` (use [`BENCH_RULES`] for
/// `BENCH_sim.json`). Metrics missing on either side never count as
/// regressions.
pub fn diff_bench(base: &Value, new: &Value, rules: &[MetricRule]) -> Vec<MetricDelta> {
    rules
        .iter()
        .map(|r| {
            let b = lookup(base, r.path);
            let n = lookup(new, r.path);
            let ratio = match (b, n) {
                (Some(b), Some(n)) if b != 0.0 => Some(n / b),
                _ => None,
            };
            let noise = r
                .noise_path
                .into_iter()
                .flat_map(|p| [lookup(base, p), lookup(new, p)])
                .flatten()
                .fold(0.0f64, f64::max);
            let tolerance = r.tolerance.max(noise).min(MAX_TOLERANCE);
            let regression = ratio.is_some_and(|q| {
                if r.higher_is_better {
                    q < 1.0 - tolerance
                } else {
                    q > 1.0 + tolerance
                }
            });
            MetricDelta {
                path: r.path.to_string(),
                base: b,
                new: n,
                ratio,
                tolerance,
                regression,
            }
        })
        .collect()
}

/// The CI gate: `Err` listing every regressed metric, `Ok` otherwise.
pub fn gate(deltas: &[MetricDelta]) -> Result<(), String> {
    let bad: Vec<String> = deltas
        .iter()
        .filter(|d| d.regression)
        .map(|d| {
            format!(
                "{}: {:.4} -> {:.4} ({:+.1}% beyond the {:.0}% tolerance)",
                d.path,
                d.base.unwrap_or(f64::NAN),
                d.new.unwrap_or(f64::NAN),
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
        let base = bench_doc(10.0, 100.0, 8.0);
        // identical run: no regression, missing fidelity_full is benign
        let same = diff_bench(&base, &base, BENCH_RULES);
        assert!(gate(&same).is_ok());
        // 20% cold-throughput slowdown: beyond the 10% tolerance
        let slow = bench_doc(8.0, 100.0, 8.0);
        let deltas = diff_bench(&base, &slow, BENCH_RULES);
        let err = gate(&deltas).unwrap_err();
        assert!(err.contains("sweep.cold_cells_per_s"), "{err}");
        assert!(!err.contains("warm_cells_per_s"), "{err}");
    }

    #[test]
    fn small_jitter_is_tolerated() {
        let base = bench_doc(10.0, 100.0, 8.0);
        let jitter = bench_doc(9.5, 95.0, 7.5);
        assert!(gate(&diff_bench(&base, &jitter, BENCH_RULES)).is_ok());
    }

    #[test]
    fn improvements_never_fail_the_gate() {
        let base = bench_doc(10.0, 100.0, 8.0);
        let faster = bench_doc(20.0, 250.0, 16.0);
        assert!(gate(&diff_bench(&base, &faster, BENCH_RULES)).is_ok());
    }

    fn exec_doc(interp: f64, native: f64, spread: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"schema": 1, "exec": {{"stencil": "7pt", "n": 512}},
                 "interpreter": {{"points_per_s": {interp}, "spread": 0.05}},
                 "native": {{"points_per_s": {native}, "spread": 0.05}},
                 "speedup": {r}, "speedup_spread": {spread}}}"#,
            r = native / interp
        ))
        .unwrap()
    }

    #[test]
    fn exec_docs_select_exec_rules_and_gate_on_native_throughput() {
        let base = exec_doc(60.0e6, 230.0e6, 0.05);
        assert_eq!(rules_for(&base)[0].path, "interpreter.points_per_s");
        assert_eq!(
            rules_for(&bench_doc(10.0, 100.0, 8.0))[0].path,
            "sweep.cold_cells_per_s"
        );
        // identical run passes
        assert!(gate(&diff_bench(&base, &base, rules_for(&base))).is_ok());
        // native backend regressing 20% fails on both throughput and speedup
        let slow = exec_doc(60.0e6, 184.0e6, 0.05);
        let err = gate(&diff_bench(&base, &slow, rules_for(&base))).unwrap_err();
        assert!(err.contains("native.points_per_s"), "{err}");
        // a run that recorded large interpreter spread widens, capped
        let noisy = exec_doc(56.0e6, 230.0e6, 1.8);
        let deltas = diff_bench(&base, &noisy, rules_for(&base));
        let sp = deltas.iter().find(|d| d.path == "speedup").unwrap();
        assert_eq!(sp.tolerance, MAX_TOLERANCE);
        assert!(gate(&deltas).is_ok());
    }

    fn noisy_doc(cold: f64, spread: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"sweep": {{"cold_cells_per_s": {cold}, "cold_spread": {spread},
                            "warm_cells_per_s": 100.0}},
                 "fidelity": {{"speedup": 8.0}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn recorded_noise_widens_tolerance() {
        // 15% drop fails at the 10% floor without recorded noise...
        let base = bench_doc(10.0, 100.0, 8.0);
        let drop15 = bench_doc(8.5, 100.0, 8.0);
        assert!(gate(&diff_bench(&base, &drop15, BENCH_RULES)).is_err());
        // ...but passes when either run recorded a 20% spread across its
        // own repetitions: that change is within measurement noise
        let base = noisy_doc(10.0, 0.02);
        let drop15 = noisy_doc(8.5, 0.20);
        let deltas = diff_bench(&base, &drop15, BENCH_RULES);
        assert!(gate(&deltas).is_ok(), "{deltas:?}");
        assert_eq!(deltas[0].tolerance, 0.20);
        // an injected 20% slowdown still fails under modest noise
        let drop20 = noisy_doc(8.0, 0.05);
        assert!(gate(&diff_bench(&base, &drop20, BENCH_RULES)).is_err());
    }

    #[test]
    fn noise_widening_is_capped() {
        // a pathological 500% spread cannot disable the gate: tolerance
        // caps at MAX_TOLERANCE, so a 60% collapse still fails
        let base = noisy_doc(10.0, 0.02);
        let collapse = noisy_doc(4.0, 5.0);
        let deltas = diff_bench(&base, &collapse, BENCH_RULES);
        assert_eq!(deltas[0].tolerance, MAX_TOLERANCE);
        assert!(gate(&deltas).is_err());
    }
}
