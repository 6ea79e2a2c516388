//! Every workload at toy scale, untraced and traced: the outputs must be
//! correct and must carry every workload and metric `BENCHMARK.json`
//! names, with the same units, so the declaration and the program cannot
//! drift apart.

use std::path::{Path, PathBuf};

use perfbench::run::{result_line, run, write_outputs, RunConfig};
use perfbench::workload::WorkloadId;
use perfbench::{Scale, E2E_METRICS, LAYER_METRICS};
use serde_json::Value;

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse(&text).unwrap_or_else(|e| panic!("{}: {}", path.display(), e.0))
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
}

#[test]
fn outputs_carry_every_declared_workload_and_metric() {
    let benchmark = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names, "BENCHMARK.json workloads");
    let e2e = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert_eq!(e2e, owned(&E2E_METRICS), "end_to_end list");
    assert_eq!(per_layer, owned(&LAYER_METRICS), "per_layer list");

    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark_smoke");
    for trace in [false, true] {
        let cfg = RunConfig {
            workloads: WorkloadId::ALL.to_vec(),
            seed: 3,
            seconds: 0.5,
            trace,
            out: out.join(if trace { "traced" } else { "untraced" }),
            scale: Scale::Toy,
        };
        let (host, results) = run(&cfg).expect("run");
        write_outputs(&cfg, &host, &results).expect("outputs");
        for r in &results {
            assert!(r.correct, "{}: {:?}", r.name, r.failures);
        }

        let doc = read(&cfg.out.join("bench.json"));
        let metrics = if trace { &per_layer } else { &e2e };
        let key = if trace { "layers" } else { "metrics" };
        for w in &workloads {
            let entry = doc
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .unwrap_or_else(|| panic!("bench.json lacks {w}"));
            assert_eq!(entry.get("correct").and_then(Value::as_bool), Some(true));
            for (name, unit) in metrics {
                let m = entry
                    .get(key)
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{w}: bench.json lacks {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w} {name}: {v:?}");
                if !trace {
                    assert!(v.unwrap() > 0.0, "{w} {name} must never be 0");
                }
            }
        }

        // the result line the benchmark prints last
        let line = serde_json::parse(&result_line(&results, trace)).expect("result line");
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Obj(fields)) = line.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(fields.len(), workloads.len() * metrics.len());

        if trace {
            for file in ["trace.json", "spans.jsonl", "layers.json"] {
                assert!(cfg.out.join(file).is_file(), "{file} written");
            }
            let layers = read(&cfg.out.join("layers.json"));
            for w in &workloads {
                let busy = layers
                    .get(w)
                    .and_then(|l| l.get("layers"))
                    .and_then(|l| l.get("harness"))
                    .and_then(|h| h.get("busy_s"))
                    .and_then(Value::as_f64);
                assert!(busy.is_some_and(|b| b > 0.0), "{w}: harness spans");
            }
        }
    }
}
