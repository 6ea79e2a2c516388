//! The `PROF_sweep.json` artifact: self-profile of one sweep run.
//!
//! Built from a span capture of a sweep (`experiments --prof`, or
//! `bricks prof sweep <spans.jsonl>`): total wall time from the sweep's
//! root span, per-phase aggregates with log-linear duration histograms,
//! the fraction of wall time attributed to named phases, and the top-N
//! hottest cells. Phases are the spans the runner opens with category
//! `"phase"` — `rooflines`, `lint-verify`, `compile`, `simulate`,
//! `score`, `cache-io` — which tile each cell's work, so at `--jobs 1`
//! the attributed fraction approaches 1 (the acceptance bar is ≥ 0.95 on
//! a cold 64³ sweep). At higher jobs counts phase time is summed across
//! workers and the fraction measures parallel work over wall time (it
//! may exceed 1).

use brick_obs::metrics::Histogram;
use brick_obs::SpanData;
use serde::{Deserialize, Serialize};

/// Schema tag of `PROF_sweep.json`.
pub const SWEEP_PROF_SCHEMA: &str = "brick-prof-sweep-v1";

/// Hot cells reported.
pub const TOP_CELLS: usize = 10;

/// Aggregate of one named phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase name (normalized span name).
    pub name: String,
    /// Span instances merged.
    pub count: u64,
    /// Total nanoseconds across instances.
    pub total_ns: u64,
    /// Bytes allocated inside the phase's spans (opening threads).
    pub alloc_bytes: u64,
    /// `total_ns` over the sweep wall time.
    pub wall_frac: f64,
    /// Log-linear histogram of individual span durations, microseconds.
    pub dur_us: Histogram,
}

/// One hot cell (a `record`-category span).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HotCell {
    /// Cell name (`stencil/config/gpu/model`).
    pub name: String,
    /// Total nanoseconds spent in the cell.
    pub total_ns: u64,
    /// Bytes allocated while the cell ran.
    pub alloc_bytes: u64,
}

/// Self-profile of one sweep run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepProfile {
    /// Schema tag ([`SWEEP_PROF_SCHEMA`]).
    pub schema: String,
    /// Wall time of the sweep root span (`sweep:{n}^3`), nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds inside phase spans (summed across threads).
    pub attributed_ns: u64,
    /// `attributed_ns / wall_ns` (0 when no root span was captured).
    pub attributed_frac: f64,
    /// Bytes allocated inside phase spans.
    pub alloc_bytes: u64,
    /// Per-phase aggregates, largest total first.
    pub phases: Vec<PhaseProfile>,
    /// Top cells by total time, largest first.
    pub hot_cells: Vec<HotCell>,
}

impl SweepProfile {
    /// Build the profile from a span capture.
    pub fn from_spans(spans: &[SpanData]) -> SweepProfile {
        let wall_ns = spans
            .iter()
            .filter(|s| s.cat == "sweep" && s.name.starts_with("sweep:"))
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or(0);

        let mut phases: Vec<PhaseProfile> = Vec::new();
        for s in spans.iter().filter(|s| s.cat == "phase") {
            let name = crate::tree::normalize_name(&s.name);
            let p = match phases.iter_mut().find(|p| p.name == name) {
                Some(p) => p,
                None => {
                    phases.push(PhaseProfile {
                        name,
                        ..PhaseProfile::default()
                    });
                    phases.last_mut().expect("just pushed")
                }
            };
            p.count += 1;
            p.total_ns += s.dur_ns;
            p.alloc_bytes += s.alloc_bytes;
            p.dur_us.record(s.dur_ns as f64 / 1e3);
        }
        let attributed_ns: u64 = phases.iter().map(|p| p.total_ns).sum();
        let alloc_bytes: u64 = phases.iter().map(|p| p.alloc_bytes).sum();
        for p in &mut phases {
            p.wall_frac = if wall_ns == 0 {
                0.0
            } else {
                p.total_ns as f64 / wall_ns as f64
            };
        }
        phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

        let mut hot: Vec<HotCell> = Vec::new();
        for s in spans.iter().filter(|s| s.cat == "record") {
            match hot.iter_mut().find(|c| c.name == s.name) {
                Some(c) => {
                    c.total_ns += s.dur_ns;
                    c.alloc_bytes += s.alloc_bytes;
                }
                None => hot.push(HotCell {
                    name: s.name.clone(),
                    total_ns: s.dur_ns,
                    alloc_bytes: s.alloc_bytes,
                }),
            }
        }
        hot.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        hot.truncate(TOP_CELLS);

        SweepProfile {
            schema: SWEEP_PROF_SCHEMA.into(),
            wall_ns,
            attributed_ns,
            attributed_frac: if wall_ns == 0 {
                0.0
            } else {
                attributed_ns as f64 / wall_ns as f64
            },
            alloc_bytes,
            phases,
            hot_cells: hot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, cat: &str, dur_ns: u64, alloc: u64) -> SpanData {
        SpanData {
            name: name.into(),
            cat: cat.into(),
            tid: 1,
            start_ns: 0,
            dur_ns,
            parent: None,
            depth: 0,
            alloc_bytes: alloc,
        }
    }

    #[test]
    fn phases_and_hot_cells_aggregate() {
        let spans = vec![
            span("sweep:16^3", "sweep", 1_000_000, 0),
            span("compile", "phase", 300_000, 64),
            span("compile", "phase", 200_000, 32),
            span("simulate", "phase", 450_000, 128),
            span("d3pt7/8x8/a100/cuda", "record", 700_000, 96),
            span("d3pt7/8x8/mi250x/hip", "record", 250_000, 48),
        ];
        let p = SweepProfile::from_spans(&spans);
        assert_eq!(p.schema, SWEEP_PROF_SCHEMA);
        assert_eq!(p.wall_ns, 1_000_000);
        assert_eq!(p.attributed_ns, 950_000);
        assert!((p.attributed_frac - 0.95).abs() < 1e-12);
        assert_eq!(p.alloc_bytes, 224);
        assert_eq!(p.phases[0].name, "compile");
        assert_eq!(p.phases[0].count, 2);
        assert_eq!(p.phases[0].dur_us.count, 2);
        assert_eq!(p.phases[1].name, "simulate");
        assert_eq!(p.hot_cells[0].name, "d3pt7/8x8/a100/cuda");
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: SweepProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn empty_capture_is_harmless() {
        let p = SweepProfile::from_spans(&[]);
        assert_eq!(p.wall_ns, 0);
        assert_eq!(p.attributed_frac, 0.0);
        assert!(p.phases.is_empty());
    }
}
