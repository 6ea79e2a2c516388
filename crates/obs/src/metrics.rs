//! Global metrics registry: named counters, gauges, and log-linear
//! histograms.
//!
//! Recording is a mutex-guarded map update — cheap relative to the
//! per-kernel and per-pass granularity it is used at (never inside
//! per-access simulation loops). [`snapshot`] captures everything for
//! serialization; [`render_snapshot`] pretty-prints it.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Sub-buckets per power of two in histogram resolution (a log-linear
/// layout: within each octave `[2^k, 2^(k+1))` the buckets are linear).
const SUBS: usize = 4;
/// Values below `1.0` (and non-positive values) land in bucket 0.
const BUCKET0_HI: f64 = 1.0;

/// A log-linear histogram of non-negative samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    /// Bucket counts, indexed by [`bucket_index`]; trailing empty buckets
    /// are not stored.
    pub buckets: Vec<u64>,
}

/// Bucket index for a sample: bucket 0 holds `(-inf, 1.0)`; above that,
/// each power-of-two octave splits into [`SUBS`] linear sub-buckets.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < BUCKET0_HI {
        return 0;
    }
    let v = if v.is_finite() { v } else { f64::MAX };
    let octave = v.log2().floor() as usize;
    let lo = (octave as f64).exp2();
    let sub = (((v - lo) / lo) * SUBS as f64) as usize;
    1 + octave * SUBS + sub.min(SUBS - 1)
}

/// Inclusive-lower / exclusive-upper bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (f64::NEG_INFINITY, BUCKET0_HI);
    }
    let octave = (i - 1) / SUBS;
    let sub = (i - 1) % SUBS;
    let lo = (octave as f64).exp2();
    let step = lo / SUBS as f64;
    (lo + sub as f64 * step, lo + (sub + 1) as f64 * step)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1) — a
    /// log-linear approximation of the true quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap();
    f(guard.get_or_insert_with(Registry::default))
}

/// Add `n` to the counter `name`, creating it at zero if absent.
pub fn counter_add(name: &str, n: u64) {
    with_registry(|r| match r.counters.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => *v += n,
        None => r.counters.push((name.to_string(), n)),
    });
}

/// Current value of the counter `name` (0 if it was never incremented).
/// Counters are process-cumulative; difference two readings to attribute
/// counts to one run.
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| {
        r.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    })
}

/// Set the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: f64) {
    with_registry(|r| match r.gauges.iter_mut().find(|(k, _)| k == name) {
        Some((_, g)) => *g = v,
        None => r.gauges.push((name.to_string(), v)),
    });
}

/// Record `v` into the histogram `name`, creating it if absent.
pub fn histogram_record(name: &str, v: f64) {
    with_registry(|r| match r.histograms.iter_mut().find(|(k, _)| k == name) {
        Some((_, h)) => h.record(v),
        None => {
            let mut h = Histogram::new();
            h.record(v);
            r.histograms.push((name.to_string(), h));
        }
    });
}

/// A serializable capture of the whole registry, names sorted.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Capture the current registry contents.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| {
        let mut s = MetricsSnapshot {
            counters: r.counters.clone(),
            gauges: r.gauges.clone(),
            histograms: r.histograms.clone(),
        };
        s.counters.sort_by(|a, b| a.0.cmp(&b.0));
        s.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        s.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        s
    })
}

/// Number of distinct metrics currently registered.
pub fn metrics_recorded() -> u64 {
    with_registry(|r| (r.counters.len() + r.gauges.len() + r.histograms.len()) as u64)
}

/// Pretty-print a snapshot: counters, gauges, then histogram summaries
/// (count / mean / p50 / p99 / max).
pub fn render_snapshot(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !s.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &s.counters {
            out.push_str(&format!("  {name:<40} {v}\n"));
        }
    }
    if !s.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &s.gauges {
            out.push_str(&format!("  {name:<40} {v:.4}\n"));
        }
    }
    if !s.histograms.is_empty() {
        out.push_str("histograms:                                count       mean        p50        p99        max\n");
        for (name, h) in &s.histograms {
            out.push_str(&format!(
                "  {name:<40} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.count == 0 { 0.0 } else { h.max }
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log_linear() {
        // bucket 0: everything below 1.0 (and NaN)
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(0.999), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // octave [1,2): four linear sub-buckets of width 0.25
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.24), 1);
        assert_eq!(bucket_index(1.25), 2);
        assert_eq!(bucket_index(1.99), 4);
        // octave [2,4): sub-buckets of width 0.5
        assert_eq!(bucket_index(2.0), 5);
        assert_eq!(bucket_index(2.49), 5);
        assert_eq!(bucket_index(2.5), 6);
        assert_eq!(bucket_index(3.99), 8);
        assert_eq!(bucket_index(4.0), 9);
        // +inf clamps into the top finite bucket instead of panicking
        assert!(bucket_index(f64::INFINITY) > bucket_index(1e300));
    }

    #[test]
    fn bounds_invert_the_index() {
        for v in [1.0, 1.3, 2.0, 3.7, 8.0, 100.0, 1e6, 3.5e9] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi}) (bucket {i})");
        }
        // adjacent buckets tile the line
        for i in 1..64 {
            assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0);
        }
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        let p50 = h.quantile(0.5);
        assert!((1.9..=2.6).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(1000.0);
        let snap = MetricsSnapshot {
            counters: vec![("a.hits".into(), 7)],
            gauges: vec![("occ".into(), 0.5)],
            histograms: vec![("lat".into(), h)],
        };
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        let text = render_snapshot(&back);
        assert!(text.contains("a.hits"));
        assert!(text.contains("lat"));
    }
}
