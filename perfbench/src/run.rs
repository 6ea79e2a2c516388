//! The `run` subcommand: drive each workload, summarize, check, report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::host::{self, Host, StreamRate};
use crate::layers::{self, COUNTERS};
use crate::speed::{self, SpeedProbe};
use crate::stats::{median, quartiles};
use crate::workload::{Metric, PassTimes, Workload, WorkloadId};
use crate::{Scale, E2E_METRICS, LAYER_METRICS};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workloads, in order.
    pub workloads: Vec<WorkloadId>,
    /// Seed of the exec input grids.
    pub seed: u64,
    /// Measurement budget per workload: a round starts only when the
    /// last one, taken again, would end within it, and warm repetitions
    /// past a round's minimum stop when it has passed.
    pub seconds: f64,
    /// Traced run: a short untraced pass, then the same pass traced, for
    /// the per-layer metrics.
    pub trace: bool,
    /// Where `bench.json`, the trace files and the pipelines' caches go.
    pub out: PathBuf,
    /// Problem sizes. The command line always runs [`Scale::Full`];
    /// tests use [`Scale::Toy`].
    pub scale: Scale,
}

/// A metric over a run's samples.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median, or for a percentile metric the
    /// percentile itself.
    pub value: f64,
    /// First and third quartiles of the samples, for median metrics.
    pub quartiles: Option<(f64, f64)>,
    /// Samples behind the value.
    pub n: usize,
    /// The samples, in measurement order; times are divided by the run's
    /// speed factor.
    pub samples: Vec<f64>,
}

impl Summary {
    fn of_samples(name: &'static str, unit: &'static str, xs: &[f64]) -> Summary {
        Summary {
            name,
            unit,
            value: if xs.is_empty() { f64::NAN } else { median(xs) },
            quartiles: (!xs.is_empty()).then(|| quartiles(xs)),
            n: xs.len(),
            samples: xs.to_vec(),
        }
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Summary {
        Summary {
            name,
            unit,
            value,
            quartiles: None,
            n: 1,
            samples: vec![value],
        }
    }
}

/// Everything one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Rounds measured.
    pub rounds: usize,
    /// Host speed factors sampled during the workload's untraced
    /// rounds; their median divides its end-to-end times.
    pub speed: Vec<f64>,
    /// End-to-end metrics (from the untraced pass in a traced run).
    pub e2e: Vec<Summary>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The per-crate span split (traced runs only).
    pub split: Option<Value>,
}

/// Warm repetitions every round measures, whatever the budget, so that a
/// pipeline run — one round, most of it the cold pass — still has a
/// median of several.
const MIN_WARM: usize = 5;

/// Warm time every round measures, whatever the budget, seconds: many
/// short repetitions make a steadier median than five.
const MIN_WARM_S: f64 = 2.0;

/// Least time between two speed samples among warm repetitions, seconds:
/// short repetitions are not each preceded by a probe.
const PROBE_INTERVAL_S: f64 = 0.5;

/// Speed samples taken when a workload starts and after each cold
/// repetition. A cold pipeline pass is one call of many seconds that no
/// sample can fall inside, so several samples bracket it.
const BRACKET_PROBES: usize = 3;

/// One round: set-up, the cold repetition, then up to `warm` warm ones —
/// past [`MIN_WARM`] and [`MIN_WARM_S`], none after `deadline`. The probe
/// samples the host after set-up, after the cold repetition and between
/// warm ones.
/// Records the walls and the round's peak resident memory, the probe's
/// own buffers left out; returns the cache (hits, misses) of the warm
/// repetitions.
fn round(
    w: &mut dyn Workload,
    times: &mut PassTimes,
    probe: &mut SpeedProbe,
    warm: usize,
    deadline: Option<Instant>,
) -> Result<(u64, u64), String> {
    w.release();
    host::reset_peak_rss();
    {
        let _s = brick_obs::span_cat("setup", "bench");
        times.setup.push(w.setup()?);
    }
    probe.sample();
    {
        let _s = brick_obs::span_cat("cold", "bench");
        times.cold.push(w.cold()?);
    }
    for _ in 0..BRACKET_PROBES {
        probe.sample();
    }
    let before = layers::counters();
    let warm_start = Instant::now();
    for i in 0..warm {
        if i >= MIN_WARM
            && warm_start.elapsed().as_secs_f64() >= MIN_WARM_S
            && deadline.is_some_and(|d| Instant::now() >= d)
        {
            break;
        }
        {
            let _s = brick_obs::span_cat("warm", "bench");
            times.warm.push(w.warm()?);
        }
        probe.sample_every(PROBE_INTERVAL_S);
    }
    let after = layers::counters();
    let own = probe.resident_bytes();
    times
        .peak_rss_mb
        .extend(host::peak_rss_bytes().map(|b| b.saturating_sub(own) as f64 / 1e6));
    let at = |name| COUNTERS.iter().position(|&n| n == name).expect("listed");
    let (h, m) = (at("sweep.cache.hits"), at("sweep.cache.misses"));
    Ok((after[h] - before[h], after[m] - before[m]))
}

/// The end-to-end metrics of `times`, every time divided by the speed
/// factor of `speed`.
fn e2e(w: &dyn Workload, times: &PassTimes, speed: &[f64]) -> Vec<Summary> {
    let f = speed::factor(speed);
    let norm = |xs: &[f64]| -> Vec<f64> { xs.iter().map(|x| x / f).collect() };
    let (setup, cold, warm) = (norm(&times.setup), norm(&times.cold), norm(&times.warm));
    let mut out = vec![
        Summary::of_samples("setup_s", "s", &setup),
        Summary::of_samples("cold_s", "s", &cold),
        Summary::of_samples("warm_s", "s", &warm),
        Summary {
            quartiles: None,
            value: if warm.is_empty() {
                f64::NAN
            } else {
                quartiles(&warm).1
            },
            ..Summary::of_samples("warm_p75_s", "s", &warm)
        },
        Summary::of_samples("peak_rss_mb", "MB", &times.peak_rss_mb),
    ];
    debug_assert!(out
        .iter()
        .zip(E2E_METRICS)
        .all(|(s, m)| (s.name, s.unit) == m));
    let t = w.tally();
    out.push(Summary::single(
        "error_rate",
        "fraction",
        t.failed as f64 / t.attempted.max(1) as f64,
    ));
    if let Some(mpts) = w.mpts_per_rep() {
        let rates: Vec<f64> = warm.iter().map(|s| mpts / s).collect();
        out.push(Summary::of_samples("exec_mpts_s", "Mpt/s", &rates));
    }
    out
}

/// Run every configured workload.
pub fn run(cfg: &RunConfig) -> Result<(Host, Vec<WorkloadResult>), String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out.display()))?;
    let host = Host::detect();
    if cfg.trace {
        brick_prof::init();
    }
    // one probe for the whole process: its buffers are never freed while
    // a workload runs (see `speed`)
    let mut probe = SpeedProbe::new(host.nproc);
    let mut stream: Option<Vec<StreamRate>> = None;
    let mut results = Vec::new();
    for &id in &cfg.workloads {
        let cache_dir = cfg.out.join("cache").join(id.name());
        let mut w = id.build(cfg.scale, cfg.seed, host.nproc, cache_dir);
        let r = if cfg.trace {
            traced(id, &mut *w, cfg, &host, &mut probe, &mut stream)
        } else {
            untraced(id, &mut *w, cfg, &mut probe)
        };
        results.push(r);
    }
    if cfg.trace {
        write(
            &cfg.out,
            "trace.json",
            &brick_obs::trace::chrome_trace_json(),
        )?;
        write(&cfg.out, "spans.jsonl", &brick_obs::trace::spans_jsonl())?;
    }
    Ok((host, results))
}

fn write(dir: &std::path::Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn finish(
    id: WorkloadId,
    w: &dyn Workload,
    rounds: usize,
    error: Option<String>,
    speed: Vec<f64>,
    e2e: Vec<Summary>,
) -> WorkloadResult {
    let t = w.tally();
    let mut failures = t.failures.clone();
    failures.extend(error.clone());
    WorkloadResult {
        name: id.name(),
        correct: error.is_none() && t.failed == 0 && t.attempted > 0,
        attempted: t.attempted.max(1),
        failed: t.failed + u64::from(error.is_some() && t.failed == 0),
        failures,
        rounds,
        speed,
        e2e,
        layers: Vec::new(),
        split: None,
    }
}

fn untraced(
    id: WorkloadId,
    w: &mut dyn Workload,
    cfg: &RunConfig,
    probe: &mut SpeedProbe,
) -> WorkloadResult {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut times = PassTimes::default();
    let mut rounds = 0;
    let mut error = None;
    for _ in 0..BRACKET_PROBES {
        probe.sample();
    }
    let warm = w.warm_per_round();
    let mut last_round = Duration::ZERO;
    while rounds == 0 || start.elapsed() + last_round <= budget {
        let t = Instant::now();
        if let Err(e) = round(w, &mut times, probe, warm, Some(start + budget)) {
            error = Some(e);
            break;
        }
        last_round = t.elapsed();
        rounds += 1;
    }
    while error.is_none() && times.setup.len() < w.min_setups() {
        match w.setup() {
            Ok(s) => times.setup.push(s),
            Err(e) => error = Some(e),
        }
        probe.sample_every(PROBE_INTERVAL_S);
    }
    if error.is_none() {
        w.check();
    }
    w.release();
    let speed = probe.take_samples();
    let e2e = e2e(w, &times, &speed);
    finish(id, w, rounds, error, speed, e2e)
}

fn traced(
    id: WorkloadId,
    w: &mut dyn Workload,
    cfg: &RunConfig,
    host: &Host,
    probe: &mut SpeedProbe,
    stream: &mut Option<Vec<StreamRate>>,
) -> WorkloadResult {
    let mut untraced = PassTimes::default();
    let mut traced = PassTimes::default();
    let mut warm_cache = (0, 0);
    let before = brick_obs::trace::spans_data().len();
    let warm = w.traced_warm();
    for _ in 0..BRACKET_PROBES {
        probe.sample();
    }
    let mut error = round(w, &mut untraced, probe, warm, None).err();
    let speed = probe.take_samples();
    if error.is_none() {
        w.probe_layers();
    }
    // counters of the untraced pass are not part of the traced split
    let counters_before = layers::counters();
    if error.is_none() {
        brick_obs::set_tracing(true);
        let r = {
            let _s = brick_obs::span_cat(format!("workload:{}", id.name()), "bench");
            round(w, &mut traced, probe, warm, None)
        };
        brick_obs::set_tracing(false);
        // the traced round is probed like the untraced one, so the two
        // walls compare; its samples normalize nothing
        probe.take_samples();
        match r {
            Ok(c) => warm_cache = c,
            Err(e) => error = Some(e),
        }
    }
    let counters_after = layers::counters();
    if error.is_none() {
        w.check();
    }
    w.release();

    let rates = stream.get_or_insert_with(|| {
        let elems = match cfg.scale {
            Scale::Full => host::stream_elems(),
            Scale::Toy => 1 << 16,
        };
        host::stream_probe(elems, host.nproc, 5)
    });
    let first = rates.first().copied();
    let last = rates.last().copied();
    let gbs = |r: Option<StreamRate>, f: fn(&StreamRate) -> f64| r.as_ref().map_or(0.0, f);
    let triad = gbs(last, |r| r.triad_gbs);

    let spans: Vec<brick_obs::SpanData> = brick_obs::trace::spans_data()
        .into_iter()
        .skip(before)
        .map(|mut s| {
            s.parent = s.parent.and_then(|p| p.checked_sub(before));
            s
        })
        .collect();
    let records = if id == WorkloadId::Tune {
        "tuner"
    } else {
        "experiments"
    };
    let split = layers::split(&spans, records);
    let cold_window = spans
        .iter()
        .find(|s| s.cat == "bench" && s.name == "cold")
        .map(|s| (s.start_ns, s.dur_ns));
    let mut delta = [0u64; COUNTERS.len()];
    for (d, (a, b)) in delta
        .iter_mut()
        .zip(counters_after.iter().zip(counters_before))
    {
        *d = a - b;
    }
    let mut metrics =
        layers::span_metrics(&spans, &split, &delta, cold_window, warm_cache, host.nproc);
    metrics.extend(w.layer_metrics(&traced, triad));
    let sum_of_medians = |t: &PassTimes| {
        if t.cold.is_empty() || t.warm.is_empty() {
            f64::NAN
        } else {
            median(&t.cold) + median(&t.warm)
        }
    };
    let m = |name, unit, value| Metric { name, unit, value };
    metrics.extend([
        m("host.stream_copy_gbs", "GB/s", gbs(last, |r| r.copy_gbs)),
        m("host.stream_triad_gbs", "GB/s", triad),
        m(
            "host.stream_copy_1t_gbs",
            "GB/s",
            gbs(first, |r| r.copy_gbs),
        ),
        m(
            "host.stream_triad_1t_gbs",
            "GB/s",
            gbs(first, |r| r.triad_gbs),
        ),
        m(
            "trace_overhead_frac",
            "fraction",
            sum_of_medians(&traced) / sum_of_medians(&untraced) - 1.0,
        ),
    ]);
    // every listed layer metric is reported; a layer this workload does
    // not run through reads 0
    let layers_out: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let found = metrics.iter().find(|x| x.name == name);
            debug_assert!(found.is_none_or(|x| x.unit == unit), "unit of {name}");
            Metric {
                name,
                unit,
                value: found.map_or(0.0, |x| x.value),
            }
        })
        .collect();

    let stream_value = Value::Arr(
        rates
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("threads".into(), Value::U64(r.threads as u64)),
                    ("copy_gbs".into(), Value::F64(r.copy_gbs)),
                    ("triad_gbs".into(), Value::F64(r.triad_gbs)),
                ])
            })
            .collect(),
    );
    let mut split_value = split.to_value();
    if let Value::Obj(fields) = &mut split_value {
        fields.push(("stream".into(), stream_value));
        fields.push((
            "traced_walls_s".into(),
            Value::Obj(vec![
                ("setup".into(), floats(&traced.setup)),
                ("cold".into(), floats(&traced.cold)),
                ("warm".into(), floats(&traced.warm)),
            ]),
        ));
    }
    let e2e = e2e(w, &untraced, &speed);
    let mut r = finish(id, w, 1, error, speed, e2e);
    r.layers = layers_out;
    r.split = Some(split_value);
    r
}

fn floats(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::F64(x)).collect())
}

fn summary_value(s: &Summary) -> Value {
    let mut f = vec![
        ("unit".into(), Value::Str(s.unit.into())),
        ("value".into(), Value::F64(s.value)),
    ];
    if let Some((q1, q3)) = s.quartiles {
        f.push(("q1".into(), Value::F64(q1)));
        f.push(("q3".into(), Value::F64(q3)));
    }
    f.push(("n".into(), Value::U64(s.n as u64)));
    f.push(("samples".into(), floats(&s.samples)));
    Value::Obj(f)
}

fn metric_value(m: &Metric) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::F64(m.value)),
        ("unit".into(), Value::Str(m.unit.into())),
    ])
}

/// `bench.json`: provenance plus every workload's metrics.
pub fn bench_json(cfg: &RunConfig, host: &Host, results: &[WorkloadResult]) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let mut f = vec![
                ("correct".into(), Value::Bool(r.correct)),
                ("attempted".into(), Value::U64(r.attempted)),
                ("failed".into(), Value::U64(r.failed)),
                (
                    "failures".into(),
                    Value::Arr(r.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("rounds".into(), Value::U64(r.rounds as u64)),
                (
                    "speed".into(),
                    Value::Obj(vec![
                        ("factor".into(), Value::F64(speed::factor(&r.speed))),
                        ("samples".into(), floats(&r.speed)),
                    ]),
                ),
                (
                    "metrics".into(),
                    Value::Obj(
                        r.e2e
                            .iter()
                            .map(|s| (s.name.to_string(), summary_value(s)))
                            .collect(),
                    ),
                ),
            ];
            if cfg.trace {
                f.push((
                    "layers".into(),
                    Value::Obj(
                        r.layers
                            .iter()
                            .map(|m| (m.name.to_string(), metric_value(m)))
                            .collect(),
                    ),
                ));
            }
            (r.name.to_string(), Value::Obj(f))
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::U64(1)),
        ("host".into(), host.to_value(cfg.seed)),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("workloads".into(), Value::Obj(workloads)),
    ])
}

/// `layers.json`: the per-crate split and layer metrics of every
/// workload of a traced run.
pub fn layers_json(results: &[WorkloadResult]) -> Value {
    Value::Obj(
        results
            .iter()
            .map(|r| {
                let mut f = vec![(
                    "metrics".into(),
                    Value::Obj(
                        r.layers
                            .iter()
                            .map(|m| (m.name.to_string(), metric_value(m)))
                            .collect(),
                    ),
                )];
                if let Some(Value::Obj(split)) = &r.split {
                    f.extend(split.iter().cloned());
                }
                (r.name.to_string(), Value::Obj(f))
            })
            .collect(),
    )
}

/// Human-readable lines: every metric by name, with its unit.
pub fn render(results: &[WorkloadResult], trace: bool) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{}: {} ({} attempted, {} failed, {} rounds, host speed factor {:.4} of {} samples)\n",
            r.name,
            if r.correct { "correct" } else { "FAILED" },
            r.attempted,
            r.failed,
            r.rounds,
            speed::factor(&r.speed),
            r.speed.len()
        ));
        for f in &r.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        for s in &r.e2e {
            let q = s
                .quartiles
                .map(|(a, b)| format!("  q1 {a:.6} q3 {b:.6}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:<22} {:>14.6} {:<8}{q}  n {}\n",
                s.name, s.value, s.unit, s.n
            ));
        }
        if trace {
            for m in &r.layers {
                out.push_str(&format!("  {:<32} {:>14.6} {}\n", m.name, m.value, m.unit));
            }
        }
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run or
/// the per-layer metrics of a traced one. With several workloads each
/// name is prefixed `<workload>:`.
pub fn result_line(results: &[WorkloadResult], trace: bool) -> String {
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        let named = |name: &str| {
            if prefix {
                format!("{}:{name}", r.name)
            } else {
                name.to_string()
            }
        };
        if trace {
            for m in &r.layers {
                metrics.push((named(m.name), metric_value(m)));
            }
        } else {
            for s in r
                .e2e
                .iter()
                .filter(|s| E2E_METRICS.iter().any(|m| m.0 == s.name))
            {
                let v = Value::Obj(vec![
                    ("value".into(), Value::F64(s.value)),
                    ("unit".into(), Value::Str(s.unit.into())),
                ]);
                metrics.push((named(s.name), v));
            }
        }
    }
    let line = Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(results.iter().all(|r| r.correct)),
        ),
        (
            "attempted".into(),
            Value::U64(results.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".into(),
            Value::U64(results.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("values print")
}

/// Write `bench.json` (and, traced, `layers.json`) under `cfg.out`.
pub fn write_outputs(
    cfg: &RunConfig,
    host: &Host,
    results: &[WorkloadResult],
) -> Result<(), String> {
    let pretty = |v: &Value| serde_json::to_string_pretty(v).expect("values print");
    write(
        &cfg.out,
        "bench.json",
        &pretty(&bench_json(cfg, host, results)),
    )?;
    if cfg.trace {
        write(&cfg.out, "layers.json", &pretty(&layers_json(results)))?;
    }
    Ok(())
}
