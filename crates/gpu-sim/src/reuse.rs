//! Reuse-distance (LRU stack-distance) analysis of kernel address
//! streams.
//!
//! The study's cache behaviour — why the MI250X's 8 MB L2 thrashes on
//! tile halos that the A100's 40 MB absorbs, why bricks keep their
//! working set compact — is a statement about *reuse distances*: how many
//! distinct cache lines are touched between consecutive uses of the same
//! line. This module computes the exact LRU stack-distance histogram of a
//! trace in `O(log n)` per access (hash map + Fenwick tree over access
//! time) and derives the miss-ratio curve: for any LRU cache of `C`
//! lines, the miss ratio is the fraction of accesses with distance ≥ `C`
//! plus the cold misses.
//!
//! [`ReuseAnalyzer`] implements [`TraceSink`], so any kernel the VM can
//! trace can be analysed directly.

use brick_vm::TraceSink;

/// Power-of-two histogram of reuse distances, plus cold misses.
#[derive(Debug, Clone)]
pub struct ReuseProfile {
    line: usize,
    /// `buckets[k]` counts accesses whose LRU stack *position*
    /// (distance + 1) lies in `[2^k, 2^(k+1))` lines — an access hits a
    /// cache of `C` lines iff its position ≤ `C`.
    pub buckets: Vec<u64>,
    /// First-touch (compulsory) accesses.
    pub cold: u64,
    /// Total line-granular accesses.
    pub total: u64,
    /// Distinct lines touched (the footprint).
    pub footprint_lines: u64,
}

impl ReuseProfile {
    /// Line size the profile was collected at.
    pub fn line_bytes(&self) -> usize {
        self.line
    }

    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_lines * self.line as u64
    }

    /// Miss ratio of an LRU cache of `cache_bytes` (fully-associative
    /// model: an access misses iff its stack distance ≥ capacity in
    /// lines; cold misses always miss).
    pub fn miss_ratio(&self, cache_bytes: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cap_lines = (cache_bytes / self.line).max(1) as u64;
        let mut misses = self.cold;
        for (k, &count) in self.buckets.iter().enumerate() {
            let lo = 1u64 << k; // smallest stack position in the bucket
            let hi = (1u64 << (k + 1)) - 1;
            if lo > cap_lines {
                misses += count;
            } else if hi > cap_lines {
                // split bucket: assume uniform within the bucket
                let span = (hi - lo + 1) as f64;
                let missing = (hi - cap_lines) as f64;
                misses += (count as f64 * missing / span).round() as u64;
            }
        }
        misses as f64 / self.total as f64
    }
}

/// Fenwick (binary-indexed) tree over access timestamps.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn grow(&mut self, n: usize) {
        if n + 1 > self.tree.len() {
            // rebuild: Fenwick trees don't grow in place cheaply; double
            let mut bigger = Fenwick::new((n + 1).next_power_of_two());
            for i in 1..self.tree.len() {
                let v = self.range_point(i);
                if v > 0 {
                    bigger.add(i, v as i64);
                }
            }
            *self = bigger;
        }
    }

    fn range_point(&self, i: usize) -> u64 {
        self.prefix(i) - self.prefix(i - 1)
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> u64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Exact LRU stack-distance analyser at cache-line granularity.
pub struct ReuseAnalyzer {
    line: usize,
    clock: usize,
    last_use: std::collections::HashMap<u64, usize>,
    live: Fenwick,
    buckets: Vec<u64>,
    cold: u64,
    total: u64,
}

impl ReuseAnalyzer {
    /// Analyser at the given line granularity (e.g. the L2 line size).
    pub fn new(line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        ReuseAnalyzer {
            line: line_bytes,
            clock: 0,
            last_use: std::collections::HashMap::new(),
            live: Fenwick::new(1024),
            buckets: vec![0; 40],
            cold: 0,
            total: 0,
        }
    }

    fn touch_line(&mut self, line_id: u64) {
        self.clock += 1;
        self.total += 1;
        self.live.grow(self.clock + 1);
        match self.last_use.insert(line_id, self.clock) {
            None => {
                self.cold += 1;
            }
            Some(prev) => {
                // distinct lines touched in (prev, now) = stack distance
                let dist = self.live.prefix(self.clock) - self.live.prefix(prev);
                let position = dist + 1; // hit iff capacity >= position
                let bucket = (64 - position.leading_zeros() as usize - 1).min(39);
                self.buckets[bucket] += 1;
                // the line moves from position `prev` to the top
                self.live.add(prev, -1);
            }
        }
        self.live.add(self.clock, 1);
    }

    fn access(&mut self, addr: u64, bytes: u32) {
        let line = self.line as u64;
        let mut a = addr & !(line - 1);
        let end = addr + bytes as u64;
        while a < end {
            self.touch_line(a / line);
            a += line;
        }
    }

    /// Finish and return the profile.
    pub fn profile(self) -> ReuseProfile {
        ReuseProfile {
            line: self.line,
            footprint_lines: self.last_use.len() as u64,
            buckets: self.buckets,
            cold: self.cold,
            total: self.total,
        }
    }
}

impl TraceSink for ReuseAnalyzer {
    fn load(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(analyzer: &mut ReuseAnalyzer, lines: &[u64]) {
        for &l in lines {
            analyzer.load(l * 64, 64);
        }
    }

    #[test]
    fn all_cold_stream() {
        let mut a = ReuseAnalyzer::new(64);
        feed(&mut a, &[0, 1, 2, 3]);
        let p = a.profile();
        assert_eq!(p.cold, 4);
        assert_eq!(p.total, 4);
        assert_eq!(p.footprint_lines, 4);
        assert_eq!(p.miss_ratio(1 << 20), 1.0); // nothing reused
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let mut a = ReuseAnalyzer::new(64);
        feed(&mut a, &[0, 0, 0]);
        let p = a.profile();
        assert_eq!(p.cold, 1);
        assert_eq!(p.buckets[0], 2);
        // any cache ≥ 1 line hits those two accesses
        assert!((p.miss_ratio(64) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cyclic_stream_distance_equals_cycle_length() {
        // touching 8 lines round-robin twice: reuse distance 7..8 each
        let cycle: Vec<u64> = (0..8).collect();
        let mut a = ReuseAnalyzer::new(64);
        feed(&mut a, &cycle);
        feed(&mut a, &cycle);
        let p = a.profile();
        assert_eq!(p.cold, 8);
        // positions of 8 land in bucket 3
        let reused: u64 = p.buckets.iter().sum();
        assert_eq!(reused, 8);
        // a cache of 8 lines captures the cycle; 4 lines does not
        assert!(p.miss_ratio(8 * 64) < p.miss_ratio(4 * 64));
        assert!((p.miss_ratio(16 * 64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mrc_is_monotone_nonincreasing() {
        let mut a = ReuseAnalyzer::new(64);
        // pseudo-random-ish deterministic stream
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 37) % 256).collect();
        feed(&mut a, &stream);
        let p = a.profile();
        let mrc: Vec<f64> = (0..12).map(|k| p.miss_ratio(64 << k)).collect();
        for w in mrc.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{mrc:?}");
        }
        // infinite cache leaves only cold misses
        let inf = p.miss_ratio(usize::MAX / 2);
        assert!((inf - p.cold as f64 / p.total as f64).abs() < 1e-9);
    }

    #[test]
    fn works_as_trace_sink_on_real_kernel() {
        use brick_codegen::{generate, CodegenOptions, LayoutKind};
        use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
        use brick_dsl::shape::StencilShape;
        use brick_vm::{KernelSpec, TraceGeometry};
        use std::sync::Arc;

        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let spec = KernelSpec::Vector(
            generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap(),
        );
        let d = Arc::new(BrickDecomp::new(
            (32, 32, 32),
            BrickDims::for_simd_width(16),
            1,
            BrickOrdering::Lexicographic,
        ));
        let geom = TraceGeometry::brick(Arc::new(BrickNav::new(d)));
        let mut analyzer = ReuseAnalyzer::new(128);
        for i in 0..geom.num_blocks() {
            spec.trace_block(&geom, i, &mut analyzer).unwrap();
        }
        let p = analyzer.profile();
        assert!(p.total > 0);
        // with a cache larger than the footprint only cold misses remain,
        // and a stencil trace reuses at least some halo rows
        let cold_ratio = p.cold as f64 / p.total as f64;
        assert!((p.miss_ratio(64 << 20) - cold_ratio).abs() < 1e-9);
        assert!(cold_ratio < 0.9);
        // footprint covers at least the interior of both grids
        assert!(p.footprint_bytes() >= 2 * 32 * 32 * 32 * 8);
    }
}
