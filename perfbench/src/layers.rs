//! The per-crate split of a traced pass: span aggregation (busy time,
//! self time, count, allocated bytes) and the layer metrics read from
//! spans and counters.

use std::collections::BTreeMap;

use brick_obs::SpanData;
use serde_json::Value;

use crate::stats::ratio;
use crate::workload::Metric;

/// Aggregate of a group of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Outermost spans of the group (nested spans of the same group are
    /// part of their ancestor's time, not counted again).
    pub count: u64,
    /// Summed duration of the outermost spans, nanoseconds.
    pub busy_ns: u64,
    /// Summed self time — duration minus the part covered by child
    /// spans — of every span in the group, nanoseconds.
    pub self_ns: u64,
    /// Bytes allocated while the outermost spans were open.
    pub alloc_bytes: u64,
}

impl Agg {
    fn to_value(self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::U64(self.count)),
            ("busy_s".into(), Value::F64(self.busy_ns as f64 / 1e9)),
            ("self_s".into(), Value::F64(self.self_ns as f64 / 1e9)),
            ("alloc_bytes".into(), Value::U64(self.alloc_bytes)),
        ])
    }
}

/// The crate a span's time belongs to. `records` names the crate whose
/// per-record spans these are (`experiments` or `tuner`).
fn layer_of(s: &SpanData, records: &'static str) -> &'static str {
    match s.cat.as_str() {
        "bench" => "harness",
        "codegen" => "codegen",
        "lint" => "analyzer",
        "simulate" | "memory-sim" | "compile" | "timing" => "gpu-sim",
        "sched" | "cell" => "sweep",
        "record" => records,
        "sweep" if s.name.starts_with("tune:") => "tuner",
        "sweep" => "experiments",
        "phase" => match s.name.as_str() {
            "simulate" | "compile" | "score" => "gpu-sim",
            "cache-io" => "sweep",
            "rooflines" => "roofline",
            _ => records,
        },
        _ => "other",
    }
}

/// Spans of one traced pass, grouped three ways.
pub struct Split {
    /// By crate.
    pub layers: BTreeMap<&'static str, Agg>,
    /// Pipeline phase spans by phase name.
    pub phases: BTreeMap<String, Agg>,
    /// Every span by name, indices normalized (`sweep.cells[*]`).
    pub names: BTreeMap<String, Agg>,
}

/// Group `spans` (parent indices local to the slice) by crate, phase and
/// name.
pub fn split(spans: &[SpanData], records: &'static str) -> Split {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let layer: Vec<&'static str> = spans.iter().map(|s| layer_of(s, records)).collect();
    // outermost within a group: no ancestor belongs to the same group
    let outermost = |i: usize, same: &dyn Fn(usize) -> bool| {
        let mut p = spans[i].parent;
        while let Some(j) = p {
            if same(j) {
                return false;
            }
            p = spans[j].parent;
        }
        true
    };
    let mut out = Split {
        layers: BTreeMap::new(),
        phases: BTreeMap::new(),
        names: BTreeMap::new(),
    };
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns.saturating_sub(child_ns[i]);
        let add = |agg: &mut Agg, top: bool| {
            agg.self_ns += self_ns;
            if top {
                agg.count += 1;
                agg.busy_ns += s.dur_ns;
                agg.alloc_bytes += s.alloc_bytes;
            }
        };
        add(
            out.layers.entry(layer[i]).or_default(),
            outermost(i, &|j| layer[j] == layer[i]),
        );
        let name = brick_prof::normalize_name(&s.name);
        let top = outermost(i, &|j| brick_prof::normalize_name(&spans[j].name) == name);
        add(out.names.entry(name).or_default(), top);
        if s.cat == "phase" {
            add(out.phases.entry(s.name.clone()).or_default(), true);
        }
    }
    out
}

impl Split {
    /// The split as a JSON object.
    pub fn to_value(&self) -> Value {
        let map = |m: Vec<(String, Agg)>| {
            Value::Obj(m.into_iter().map(|(k, a)| (k, a.to_value())).collect())
        };
        Value::Obj(vec![
            (
                "layers".into(),
                map(self
                    .layers
                    .iter()
                    .map(|(k, a)| (k.to_string(), *a))
                    .collect()),
            ),
            (
                "phases".into(),
                map(self.phases.iter().map(|(k, a)| (k.clone(), *a)).collect()),
            ),
            (
                "spans".into(),
                map(self.names.iter().map(|(k, a)| (k.clone(), *a)).collect()),
            ),
        ])
    }

    fn layer_ms(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |a| a.busy_ns as f64 / 1e6)
    }
}

/// Counters the layer metrics read, as deltas over the traced pass.
pub const COUNTERS: [&str; 10] = [
    "codegen.kernels",
    "codegen.ops",
    "lint.kernels_analyzed",
    "sim.classes.launches",
    "sim.classes.classes",
    "sim.classes.blocks",
    "sweep.cache.hits",
    "sweep.cache.misses",
    "sweep.cache.corrupt",
    "tune.cells.evaluated",
];

/// Current values of [`COUNTERS`].
pub fn counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(brick_obs::counter_value)
}

/// Layer metrics read from the traced pass's spans and counter deltas.
/// `cold_window` is the traced cold repetition as (start, duration) in
/// trace nanoseconds; `warm_cache` the cache (hits, misses) of its warm
/// repetitions.
pub fn span_metrics(
    spans: &[SpanData],
    split: &Split,
    delta: &[u64; COUNTERS.len()],
    cold_window: Option<(u64, u64)>,
    warm_cache: (u64, u64),
    jobs: usize,
) -> Vec<Metric> {
    let c = |name: &str| delta[COUNTERS.iter().position(|&n| n == name).expect("listed")] as f64;
    let phase_s = |name: &str| {
        split
            .phases
            .get(name)
            .map_or(0.0, |a| a.busy_ns as f64 / 1e9)
    };
    let all_phases_s: f64 = split.phases.values().map(|a| a.busy_ns as f64 / 1e9).sum();
    // phase busy inside the cold repetition, on every thread
    let (cold_phases_s, cold_roofline_s, cold_s) = match cold_window {
        Some((start, dur)) => {
            let inside = spans
                .iter()
                .filter(|s| s.cat == "phase" && s.start_ns >= start && s.start_ns < start + dur);
            let (mut all, mut roof) = (0u64, 0u64);
            for s in inside {
                all += s.dur_ns;
                if s.name == "rooflines" {
                    roof += s.dur_ns;
                }
            }
            (all as f64 / 1e9, roof as f64 / 1e9, dur as f64 / 1e9)
        }
        None => (0.0, 0.0, 0.0),
    };
    let idle = if cold_phases_s > 0.0 {
        1.0 - ratio(cold_phases_s, cold_s * jobs as f64)
    } else {
        0.0
    };
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("codegen.generate_ms", "ms", split.layer_ms("codegen")),
        m("codegen.kernels", "count", c("codegen.kernels")),
        m("codegen.ops", "count", c("codegen.ops")),
        m("analyzer.lint_ms", "ms", split.layer_ms("analyzer")),
        m("lint.kernels_analyzed", "count", c("lint.kernels_analyzed")),
        m("gpu-sim.simulations", "count", c("sim.classes.launches")),
        m(
            "gpu-sim.class_ratio",
            "ratio",
            ratio(c("sim.classes.classes"), c("sim.classes.blocks")),
        ),
        m(
            "gpu-sim.simulate_frac",
            "fraction",
            ratio(phase_s("simulate"), all_phases_s),
        ),
        m(
            "roofline.measure_frac",
            "fraction",
            ratio(cold_roofline_s, cold_s),
        ),
        m("sweep.cache_hits", "count", c("sweep.cache.hits")),
        m("sweep.cache_misses", "count", c("sweep.cache.misses")),
        m("sweep.cache_corrupt", "count", c("sweep.cache.corrupt")),
        m(
            "sweep.cache_io_frac",
            "fraction",
            ratio(phase_s("cache-io"), all_phases_s),
        ),
        m(
            "sweep.warm_hit_ratio",
            "ratio",
            ratio(warm_cache.0 as f64, (warm_cache.0 + warm_cache.1) as f64),
        ),
        m("sweep.worker_idle_frac", "fraction", idle),
        m("tune.cells_evaluated", "count", c("tune.cells.evaluated")),
    ]
}
