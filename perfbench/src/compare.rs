//! The `compare` subcommand: two sets of `bench.json`, metric by metric,
//! against the bounds `BENCHMARK.json` fixes.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::stats::{median, quartiles};

/// How one metric is held against its base.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of the base median by which the metric may get worse. 0 is
    /// exact: the worst run of B may not be worse than the worst of A.
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.0))
}

/// The `end_to_end` list of `BENCHMARK.json`, plus the two metrics
/// `bench.json` carries beyond it: `exec_mpts_s` (point updates over the
/// warm wall) is held to the bound of `warm_s`, and `error_rate` may not
/// rise at all. Neither can be declared there, as the declared metrics
/// are reported by every workload and never read 0.
fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(benchmark)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", benchmark.display()))?;
    let mut out = list
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect::<Result<Vec<Bound>, String>>()?;
    let warm = out
        .iter()
        .find(|b| b.name == "warm_s")
        .map(|b| b.bound)
        .ok_or_else(|| format!("{}: no warm_s bound", benchmark.display()))?;
    let extra = |name: &str, unit: &str, lower_is_better, bound| Bound {
        name: name.into(),
        unit: unit.into(),
        lower_is_better,
        bound,
    };
    out.push(extra("exec_mpts_s", "Mpt/s", false, warm));
    out.push(extra("error_rate", "fraction", true, 0.0));
    Ok(out)
}

/// `path` itself when it is a file; otherwise `path/bench.json` and
/// `path/*/bench.json`.
fn bench_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files = Vec::new();
    let own = path.join("bench.json");
    if own.is_file() {
        files.push(own);
    }
    let entries =
        std::fs::read_dir(path).map_err(|e| format!("cannot list {}: {e}", path.display()))?;
    let mut subdirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path().join("bench.json")))
        .filter(|p| p.is_file())
        .collect();
    subdirs.sort();
    files.extend(subdirs);
    if files.is_empty() {
        return Err(format!("no bench.json under {}", path.display()));
    }
    Ok(files)
}

/// One side's view of a metric: median and quartiles across its runs, or
/// a single run's own quartiles when the side has one run.
#[derive(Debug, Clone, Copy)]
struct Side {
    median: f64,
    /// Quartiles, when at least two samples lie behind them.
    quartiles: Option<(f64, f64)>,
    /// The largest value of any run.
    max: f64,
    runs: usize,
}

impl Side {
    /// Interquartile range over the median; unknown with fewer than two
    /// samples.
    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| (q3 - q1) / self.median.abs())
    }
}

fn side(docs: &[Value], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Value> = docs
        .iter()
        .filter_map(|d| {
            d.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|m| m.get("value").and_then(Value::as_f64))
        .collect();
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match values.len() {
        0 => None,
        1 => {
            let e = entries[0];
            let samples = e.get("n").and_then(Value::as_u64).unwrap_or(1);
            let q = |k| e.get(k).and_then(Value::as_f64);
            Some(Side {
                median: values[0],
                quartiles: match (q("q1"), q("q3")) {
                    (Some(q1), Some(q3)) if samples >= 2 => Some((q1, q3)),
                    _ => None,
                },
                max,
                runs: 1,
            })
        }
        n => Some(Side {
            median: median(&values),
            quartiles: Some(quartiles(&values)),
            max,
            runs: n,
        }),
    }
}

fn workload_names(docs: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for d in docs {
        if let Some(Value::Obj(ws)) = d.get("workloads") {
            for (k, _) in ws {
                if !names.contains(k) {
                    names.push(k.clone());
                }
            }
        }
    }
    names
}

/// The verdict on B against base A, and the relative change of the
/// median. A row is `unresolved` when either side's spread is unknown or
/// wider than the bound: its change cannot be told from noise.
fn verdict(a: &Side, b: &Side, m: &Bound) -> (&'static str, f64) {
    let delta = if b.median == a.median {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    if m.bound == 0.0 {
        let worse = if m.lower_is_better {
            b.max > a.max
        } else {
            b.max < a.max
        };
        return (if worse { "regressed" } else { "ok" }, delta);
    }
    let worse = if m.lower_is_better { delta } else { -delta };
    let noisy = |s: &Side| s.spread().is_none_or(|x| x > m.bound);
    let v = if noisy(a) || noisy(b) {
        "unresolved"
    } else if worse > m.bound {
        "regressed"
    } else if worse < -m.bound {
        "improved"
    } else {
        "ok"
    };
    (v, delta)
}

/// Compare side `a` (the base) with side `b`. Returns the rendered table
/// and whether any row regressed beyond its bound.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let load = |p: &Path| -> Result<Vec<Value>, String> {
        bench_files(p)?.iter().map(|f| read_json(f)).collect()
    };
    let (da, db) = (load(a)?, load(b)?);
    let mut out = format!(
        "{:<16} {:<12} {:>36} {:>36} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut regressed = false;
    for w in workload_names(&da) {
        for m in &bounds {
            let (Some(sa), Some(sb)) = (side(&da, &w, &m.name), side(&db, &w, &m.name)) else {
                continue;
            };
            let (v, delta) = verdict(&sa, &sb, m);
            regressed |= v == "regressed";
            let cell = |s: Side| match s.quartiles {
                Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}] x{}", s.median, s.runs),
                None => format!("{:.4} [-] x{}", s.median, s.runs),
            };
            out.push_str(&format!(
                "{:<16} {:<12} {:>36} {:>36} {:>+8.2}% {:>5.0}%  {v} ({})\n",
                w,
                m.name,
                cell(sa),
                cell(sb),
                delta * 100.0,
                m.bound * 100.0,
                m.unit
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `bench.json` with one workload `w` and the given metric entries.
    fn doc(metrics: &str) -> Value {
        serde_json::parse(&format!(
            r#"{{"workloads": {{"w": {{"metrics": {{{metrics}}}}}}}}}"#
        ))
        .expect("test document parses")
    }

    fn bound(name: &str, lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            unit: "s".into(),
            lower_is_better,
            bound,
        }
    }

    fn runs(metric: &str, values: &[f64]) -> Vec<Value> {
        values
            .iter()
            .map(|v| doc(&format!(r#""{metric}": {{"value": {v}, "n": 1}}"#)))
            .collect()
    }

    #[test]
    fn one_sample_spread_is_unknown_so_the_row_is_unresolved() {
        let m = bound("peak_rss_mb", true, 0.10);
        let a = side(&runs("peak_rss_mb", &[100.0]), "w", &m.name).unwrap();
        let b = side(&runs("peak_rss_mb", &[130.0]), "w", &m.name).unwrap();
        assert_eq!(a.spread(), None);
        assert_eq!(verdict(&a, &b, &m).0, "unresolved");

        // quartiles a one-sample summary may carry are not trusted either
        let one = [doc(
            r#""cold_s": {"value": 9.0, "q1": 9.0, "q3": 9.0, "n": 1}"#,
        )];
        assert_eq!(side(&one, "w", "cold_s").unwrap().spread(), None);
    }

    #[test]
    fn a_single_run_with_many_samples_uses_its_own_quartiles() {
        let d = [doc(
            r#""warm_s": {"value": 1.0, "q1": 0.99, "q3": 1.01, "n": 30}"#,
        )];
        let s = side(&d, "w", "warm_s").unwrap();
        assert!((s.spread().unwrap() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn tight_sides_resolve_to_regressed_improved_or_ok() {
        let m = bound("warm_s", true, 0.10);
        let a = side(&runs("warm_s", &[1.00, 1.01, 0.99]), "w", &m.name).unwrap();
        let slower = side(&runs("warm_s", &[1.20, 1.21, 1.19]), "w", &m.name).unwrap();
        let faster = side(&runs("warm_s", &[0.80, 0.81, 0.79]), "w", &m.name).unwrap();
        let same = side(&runs("warm_s", &[1.02, 1.03, 1.01]), "w", &m.name).unwrap();
        assert_eq!(verdict(&a, &slower, &m).0, "regressed");
        assert_eq!(verdict(&a, &faster, &m).0, "improved");
        assert_eq!(verdict(&a, &same, &m).0, "ok");
        let higher = bound("exec_mpts_s", false, 0.10);
        assert_eq!(verdict(&a, &faster, &higher).0, "regressed");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = bound("cold_s", true, 0.10);
        let a = side(&runs("cold_s", &[1.0, 1.3, 0.8]), "w", &m.name).unwrap();
        let b = side(&runs("cold_s", &[1.5, 1.5, 1.5]), "w", &m.name).unwrap();
        assert_eq!(verdict(&a, &b, &m).0, "unresolved");
    }

    #[test]
    fn error_rate_may_not_rise_in_any_run() {
        let m = bound("error_rate", true, 0.0);
        let a = side(&runs("error_rate", &[0.0, 0.0, 0.0]), "w", &m.name).unwrap();
        let b = side(&runs("error_rate", &[0.0, 0.01, 0.0]), "w", &m.name).unwrap();
        assert_eq!(verdict(&a, &b, &m).0, "regressed");
        assert_eq!(verdict(&a, &a, &m).0, "ok");
        let single = side(&runs("error_rate", &[0.0]), "w", &m.name).unwrap();
        assert_eq!(verdict(&single, &single, &m).0, "ok");
    }
}
