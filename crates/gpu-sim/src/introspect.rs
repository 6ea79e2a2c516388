//! Introspection of a memory-hierarchy simulation: where the bytes went.
//!
//! [`crate::MemoryReport`] answers *how much* data moved; the structures
//! here answer *which blocks moved it*. The wave loop in [`crate::hierarchy`]
//! optionally attributes every counter increment to the [`brick_vm::BlockClasses`]
//! class of the block that caused it (per-class L1/L2/DRAM/page deltas),
//! to the SM group that simulated it, and to a per-wave timeline — all in
//! the same integer arithmetic as the totals, so the per-class rows sum
//! **bit-for-bit** to the report's counters (the flush write-back of
//! resident output, which no single block causes, gets its own bucket).
//! The totals themselves are held to the per-block tracer
//! [`crate::simulate_memory_exact`], which has no attribution.

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::dram::PageStats;
use crate::hierarchy::MemoryReport;
use crate::timing::MemCounters;

/// Traffic attributed to one cause (a block class, or the final flush):
/// the full per-level counter set, in the same units as the totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficBucket {
    /// L1 statistics deltas caused by this bucket's blocks.
    pub l1: CacheStats,
    /// L2 statistics deltas caused by feeding this bucket's miss streams.
    pub l2: CacheStats,
    /// HBM bytes read (L2 fills) on behalf of this bucket.
    pub dram_read_bytes: u64,
    /// HBM bytes written on behalf of this bucket.
    pub dram_write_bytes: u64,
    /// DRAM row-buffer hits of this bucket's transactions.
    pub page_hits: u64,
    /// DRAM row-buffer misses (activations) of this bucket's transactions.
    pub page_misses: u64,
}

impl TrafficBucket {
    /// Accumulate another bucket.
    pub fn merge(&mut self, other: &TrafficBucket) {
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.page_hits += other.page_hits;
        self.page_misses += other.page_misses;
    }

    /// Field-wise difference `self − earlier` of two monotone snapshots.
    pub fn diff(&self, earlier: &TrafficBucket) -> TrafficBucket {
        TrafficBucket {
            l1: self.l1.diff(&earlier.l1),
            l2: self.l2.diff(&earlier.l2),
            dram_read_bytes: self.dram_read_bytes - earlier.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes - earlier.dram_write_bytes,
            page_hits: self.page_hits - earlier.page_hits,
            page_misses: self.page_misses - earlier.page_misses,
        }
    }

    /// Add `delta` scaled by `k` (the fast-forward step: `k` skipped wave
    /// periods each provably contribute `delta`).
    pub fn add_scaled(&mut self, delta: &TrafficBucket, k: u64) {
        self.l1.add_scaled(&delta.l1, k);
        self.l2.add_scaled(&delta.l2, k);
        self.dram_read_bytes += delta.dram_read_bytes * k;
        self.dram_write_bytes += delta.dram_write_bytes * k;
        self.page_hits += delta.page_hits * k;
        self.page_misses += delta.page_misses * k;
    }
}

/// Traffic attributed to one block class.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassTraffic {
    /// Class index (matches [`brick_vm::BlockClasses::class_of`]).
    pub class: u64,
    /// Launch blocks belonging to this class.
    pub blocks: u64,
    /// The class's traffic across the hierarchy.
    pub traffic: TrafficBucket,
}

/// One SM group of the simulation's L1 sharing plan (an SM with an
/// irregular schedule is its own group of one).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmGroupTraffic {
    /// The representative SM that ran the group's L1 simulation.
    pub representative: u64,
    /// SMs in the group (each contributes the representative's stats).
    pub members: u64,
    /// The representative's private-L1 statistics (one SM's worth).
    pub l1: CacheStats,
}

/// Cumulative counters sampled at a full-wave boundary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WaveSample {
    /// Completed full waves at this sample.
    pub wave: u64,
    /// True when the sample lies inside a fast-forwarded span and was
    /// synthesized from the verified per-period delta (exact integers —
    /// the same numbers a full simulation of the period would produce).
    pub fast_forwarded: bool,
    /// Cumulative bytes requested of the L2.
    pub l2_requested_bytes: u64,
    /// Cumulative HBM bytes read.
    pub dram_read_bytes: u64,
    /// Cumulative HBM bytes written.
    pub dram_write_bytes: u64,
    /// Cumulative DRAM row-buffer hits.
    pub page_hits: u64,
    /// Cumulative DRAM row-buffer misses.
    pub page_misses: u64,
}

/// Full attribution of one memory simulation. Produced by
/// [`crate::simulate_memory_introspect`]; rendered by `bricks prof sim`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimIntrospection {
    /// Launch blocks simulated.
    pub num_blocks: u64,
    /// Distinct block classes.
    pub num_classes: u64,
    /// L1 line size in bytes (for delivered-byte accounting).
    pub l1_line: u64,
    /// Wave period exploited by the fast-forward, when one was found.
    pub wave_period: Option<u64>,
    /// Full waves accounted by fast-forward instead of simulation.
    pub waves_skipped: u64,
    /// Per-class traffic; sums (plus [`SimIntrospection::flush`])
    /// bit-for-bit to the report totals.
    pub classes: Vec<ClassTraffic>,
    /// End-of-kernel flush of resident dirty output — caused by the launch
    /// as a whole, not any single block.
    pub flush: TrafficBucket,
    /// Per-SM-group L1 breakdown.
    pub sm_groups: Vec<SmGroupTraffic>,
    /// Cumulative counters over the launch's full waves.
    pub timeline: Vec<WaveSample>,
}

impl SimIntrospection {
    /// Sum of every class bucket plus the flush bucket. Equals the
    /// simulation's totals exactly (enforced by `tests/introspect.rs`).
    pub fn totals(&self) -> TrafficBucket {
        let mut t = TrafficBucket::default();
        for c in &self.classes {
            t.merge(&c.traffic);
        }
        t.merge(&self.flush);
        t
    }

    /// Reconstruct the [`MemoryReport`] the totals imply.
    pub fn report(&self) -> MemoryReport {
        let t = self.totals();
        MemoryReport {
            l1: t.l1,
            l1_line: self.l1_line as usize,
            l2: t.l2,
            dram_read_bytes: t.dram_read_bytes,
            dram_write_bytes: t.dram_write_bytes,
            pages: PageStats {
                hits: t.page_hits,
                misses: t.page_misses,
            },
        }
    }

    /// The [`MemCounters`] the attribution sums to — comparable field by
    /// field with [`MemoryReport::counters`].
    pub fn counters(&self) -> MemCounters {
        self.report().counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(seed: u64) -> TrafficBucket {
        TrafficBucket {
            l1: CacheStats {
                accesses: seed,
                requested_bytes: seed * 32,
                hit_sectors: seed / 2,
                miss_sectors: seed - seed / 2,
                fill_bytes: seed * 16,
                writeout_bytes: seed * 8,
                line_visits: seed,
            },
            l2: CacheStats {
                accesses: seed * 2,
                ..CacheStats::default()
            },
            dram_read_bytes: seed * 3,
            dram_write_bytes: seed * 5,
            page_hits: seed,
            page_misses: seed + 1,
        }
    }

    #[test]
    fn bucket_algebra_is_consistent() {
        let a = bucket(10);
        let b = bucket(7);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.diff(&a), b);
        let mut s = a.clone();
        s.add_scaled(&b, 3);
        let mut expect = a.clone();
        for _ in 0..3 {
            expect.merge(&b);
        }
        assert_eq!(s, expect);
    }

    #[test]
    fn totals_include_flush_and_round_trip() {
        let intro = SimIntrospection {
            num_blocks: 8,
            num_classes: 2,
            l1_line: 128,
            wave_period: Some(2),
            waves_skipped: 4,
            classes: vec![
                ClassTraffic {
                    class: 0,
                    blocks: 6,
                    traffic: bucket(10),
                },
                ClassTraffic {
                    class: 1,
                    blocks: 2,
                    traffic: bucket(4),
                },
            ],
            flush: bucket(1),
            sm_groups: vec![SmGroupTraffic {
                representative: 0,
                members: 4,
                l1: CacheStats::default(),
            }],
            timeline: vec![WaveSample {
                wave: 1,
                ..WaveSample::default()
            }],
        };
        let t = intro.totals();
        assert_eq!(t.dram_read_bytes, (10 + 4 + 1) * 3);
        let c = intro.counters();
        assert_eq!(c.l1_bytes, t.l1.line_visits * 128);
        let json = serde_json::to_string(&intro).unwrap();
        let back: SimIntrospection = serde_json::from_str(&json).unwrap();
        assert_eq!(intro, back);
    }
}
