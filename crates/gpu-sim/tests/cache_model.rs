//! Differential suite for the sectored cache: [`gpu_sim::Cache`] against
//! a reference model kept here as a test-only oracle.
//!
//! The oracle is the straightforward formulation of the same cache:
//! one growable `Vec` of lines per set, a global recency clock that ticks
//! per sector transaction, LRU eviction by minimum `last_use` with
//! `swap_remove`, and a flush that drains each set in tag order. The
//! production cache stores ways flat with per-set LRU ranks instead; the
//! two must agree exactly — statistics, next-level streams and flush
//! streams — on every input, under both write policies, with partial and
//! full-sector writes and with set counts that are not powers of two.
//! A stream and its line-aligned translation must also end in states
//! [`Cache::equiv_translated`] accepts, and [`Cache::translate`] must
//! land exactly on the translated run's state.

use gpu_sim::cache::NextLevel;
use gpu_sim::{Cache, CacheConfig, CacheStats, WritePolicy};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: u32,
    dirty: u32,
    last_use: u64,
}

/// The reference cache model.
struct Oracle {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Oracle {
    fn new(cfg: CacheConfig) -> Oracle {
        Oracle {
            cfg,
            sets: vec![Vec::new(); cfg.bytes / (cfg.line * cfg.assoc)],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64, bytes: u32, is_write: bool, next: &mut Vec<NextLevel>) {
        self.stats.accesses += 1;
        let sector = self.cfg.sector as u64;
        let line = self.cfg.line as u64;
        let mut s = addr / sector * sector;
        let end = addr + bytes as u64;
        let mut last_line = u64::MAX;
        while s < end {
            if s / line != last_line {
                self.stats.line_visits += 1;
                last_line = s / line;
            }
            let full = is_write && s >= addr && s + sector <= end;
            self.touch_sector(s, is_write, full, next);
            s += sector;
        }
    }

    fn touch_sector(&mut self, addr: u64, is_write: bool, full: bool, next: &mut Vec<NextLevel>) {
        let cfg = self.cfg;
        let sector = cfg.sector as u32;
        self.stats.requested_bytes += sector as u64;
        self.clock += 1;
        let tag = addr / cfg.line as u64;
        let bit = 1u32 << ((addr % cfg.line as u64) / cfg.sector as u64);
        let set_idx = (tag % self.sets.len() as u64) as usize;
        let fill = NextLevel {
            addr,
            bytes: sector,
            is_write: false,
        };
        let way = self.sets[set_idx].iter().position(|l| l.tag == tag);
        if is_write && cfg.write == WritePolicy::ThroughNoAllocate {
            next.push(NextLevel {
                is_write: true,
                ..fill
            });
            self.stats.writeout_bytes += sector as u64;
            if let Some(w) = way {
                self.sets[set_idx][w].last_use = self.clock;
            }
            return;
        }
        if let Some(w) = way {
            let l = &mut self.sets[set_idx][w];
            l.last_use = self.clock;
            if l.valid & bit != 0 {
                self.stats.hit_sectors += 1;
                if is_write {
                    l.dirty |= bit;
                }
                return;
            }
            self.stats.miss_sectors += 1;
            if !(is_write && full) {
                next.push(fill);
                self.stats.fill_bytes += sector as u64;
            }
            l.valid |= bit;
            if is_write {
                l.dirty |= bit;
            }
            return;
        }
        self.stats.miss_sectors += 1;
        if self.sets[set_idx].len() >= cfg.assoc {
            let lru = (0..self.sets[set_idx].len())
                .min_by_key(|&i| self.sets[set_idx][i].last_use)
                .expect("full set");
            let victim = self.sets[set_idx].swap_remove(lru);
            self.write_back(&victim, next);
        }
        if !(is_write && full) {
            next.push(fill);
            self.stats.fill_bytes += sector as u64;
        }
        self.sets[set_idx].push(Line {
            tag,
            valid: bit,
            dirty: if is_write { bit } else { 0 },
            last_use: self.clock,
        });
    }

    fn write_back(&mut self, line: &Line, next: &mut Vec<NextLevel>) {
        let spl = (self.cfg.line / self.cfg.sector) as u32;
        for s in 0..spl {
            if line.dirty & (1 << s) != 0 {
                next.push(NextLevel {
                    addr: line.tag * self.cfg.line as u64 + s as u64 * self.cfg.sector as u64,
                    bytes: self.cfg.sector as u32,
                    is_write: true,
                });
                self.stats.writeout_bytes += self.cfg.sector as u64;
            }
        }
    }

    fn flush(&mut self, next: &mut Vec<NextLevel>) {
        for i in 0..self.sets.len() {
            let mut lines = std::mem::take(&mut self.sets[i]);
            lines.sort_unstable_by_key(|l| l.tag);
            for l in &lines {
                self.write_back(l, next);
            }
        }
    }
}

/// Small geometries, so random streams evict constantly: `(line, sector,
/// assoc, sets)`, set counts 3, 5 and 6 included.
const GEOMETRIES: [(usize, usize, usize, usize); 6] = [
    (128, 32, 4, 3),
    (64, 64, 2, 4),
    (128, 16, 3, 5),
    (64, 32, 1, 6),
    (128, 32, 16, 2),
    (64, 8, 4, 1),
];

fn config(geometry: usize, write_back: bool) -> CacheConfig {
    let (line, sector, assoc, sets) = GEOMETRIES[geometry];
    CacheConfig {
        bytes: line * assoc * sets,
        line,
        sector,
        assoc,
        write: if write_back {
            WritePolicy::BackAllocate
        } else {
            WritePolicy::ThroughNoAllocate
        },
    }
}

/// Turn raw draws into `(addr, bytes, is_write)` accesses over about four
/// times the cache's capacity, starting at `base`. Aligned draws cover
/// whole sectors, so writes exercise allocate-without-fetch; the others
/// start anywhere and span up to two lines.
fn stream(cfg: &CacheConfig, base: u64, raw: &[(u64, u32, bool, bool)]) -> Vec<(u64, u32, bool)> {
    let span = 4 * cfg.bytes as u64;
    let sector = cfg.sector as u64;
    raw.iter()
        .map(|&(a, b, aligned, is_write)| {
            let addr = a % span;
            let bytes = 1 + b as u64 % (2 * cfg.line as u64);
            if aligned {
                let bytes = bytes.div_ceil(sector) * sector;
                (base + addr / sector * sector, bytes as u32, is_write)
            } else {
                (base + addr, bytes as u32, is_write)
            }
        })
        .collect()
}

/// Run `accesses` on a fresh production cache; returns it and its
/// next-level stream.
fn run(cfg: CacheConfig, accesses: &[(u64, u32, bool)]) -> (Cache, Vec<NextLevel>) {
    let mut cache = Cache::new(cfg);
    let mut next = Vec::new();
    cache.access_run(accesses.iter().copied(), &mut |t| next.push(t));
    (cache, next)
}

fn flushed(mut cache: Cache) -> (CacheStats, Vec<NextLevel>) {
    let mut next = Vec::new();
    cache.flush(&mut |t| next.push(t));
    (cache.stats, next)
}

fn shifted(stream: &[NextLevel], by: i64) -> Vec<NextLevel> {
    stream
        .iter()
        .map(|t| NextLevel {
            addr: t.addr.wrapping_add_signed(by),
            ..*t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_the_reference_model(
        geometry in 0usize..6,
        write_back in any::<bool>(),
        raw in vec((any::<u64>(), any::<u32>(), any::<bool>(), any::<bool>()), 1..400),
    ) {
        let cfg = config(geometry, write_back);
        let accesses = stream(&cfg, 0, &raw);
        let mut oracle = Oracle::new(cfg);
        let mut expect = Vec::new();
        let mut cache = Cache::new(cfg);
        let mut got = Vec::new();
        for (i, &(addr, bytes, is_write)) in accesses.iter().enumerate() {
            oracle.access(addr, bytes, is_write, &mut expect);
            if is_write {
                cache.write(addr, bytes, &mut |t| got.push(t));
            } else {
                cache.read(addr, bytes, &mut |t| got.push(t));
            }
            prop_assert_eq!(&got, &expect, "access {} of {:?}", i, cfg);
            prop_assert_eq!(cache.stats, oracle.stats, "access {} of {:?}", i, cfg);
        }
        let resident: usize = oracle.sets.iter().map(Vec::len).sum();
        prop_assert_eq!(cache.resident_lines(), resident);
        let (mut got_flush, mut expect_flush) = (Vec::new(), Vec::new());
        cache.flush(&mut |t| got_flush.push(t));
        oracle.flush(&mut expect_flush);
        prop_assert_eq!(got_flush, expect_flush, "flush of {:?}", cfg);
        prop_assert_eq!(cache.stats, oracle.stats);
        prop_assert_eq!(cache.resident_lines(), 0);
    }

    #[test]
    fn translated_streams_end_in_equivalent_states(
        geometry in 0usize..6,
        write_back in any::<bool>(),
        shift_lines in -64i64..64,
        raw in vec((any::<u64>(), any::<u32>(), any::<bool>(), any::<bool>()), 1..300),
        more in vec((any::<u64>(), any::<u32>(), any::<bool>(), any::<bool>()), 1..100),
    ) {
        let cfg = config(geometry, write_back);
        let base = 64 * cfg.line as u64;
        let by = shift_lines * cfg.line as i64;
        let a_in = stream(&cfg, base, &raw);
        let b_in: Vec<_> = a_in
            .iter()
            .map(|&(addr, bytes, w)| (addr.wrapping_add_signed(by), bytes, w))
            .collect();
        let (mut a, a_next) = run(cfg, &a_in);
        let (b, b_next) = run(cfg, &b_in);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(shifted(&a_next, by), b_next);
        prop_assert!(b.equiv_translated(&a, shift_lines), "{:?} by {}", cfg, shift_lines);

        // translating the first state lands exactly on the second: both
        // flush the same stream (sets drain in index order, so this is a
        // rotation of the first state's flush, not a shift of it) and
        // answer a further translated stream identically
        a.translate(shift_lines);
        prop_assert!(b.equiv_translated(&a, 0), "{:?} translated by {}", cfg, shift_lines);
        prop_assert_eq!(flushed(a.clone()), flushed(b.clone()));
        let tail: Vec<_> = stream(&cfg, base, &more)
            .into_iter()
            .map(|(addr, bytes, w)| (addr.wrapping_add_signed(by), bytes, w))
            .collect();
        let (mut a_tail, mut b_tail) = (Vec::new(), Vec::new());
        let mut b = b;
        a.access_run(tail.iter().copied(), &mut |t| a_tail.push(t));
        b.access_run(tail.iter().copied(), &mut |t| b_tail.push(t));
        prop_assert_eq!(a_tail, b_tail);
        prop_assert_eq!(flushed(a), flushed(b));
    }
}
