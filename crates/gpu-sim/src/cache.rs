//! Sectored, set-associative cache model.
//!
//! Matches the structure GPU profilers expose: lines carry per-sector
//! valid/dirty bits, fills happen at sector granularity, LRU replacement
//! within a set. Two write policies cover the hierarchy:
//!
//! * GPU L1s are **write-through, no-write-allocate** for global stores;
//! * the device L2 is **write-back, write-allocate**, except that a write
//!   covering a whole sector allocates without fetching (which is why the
//!   full-row stores of the generated kernels reach the theoretical
//!   2-bytes-per-point minimum, §5.2.1).
//!
//! Every transaction to the next level is reported through a callback so
//! the hierarchy can be composed without materialising miss streams.

use serde::{Deserialize, Serialize};

/// Write policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Stores pass to the next level immediately and do not allocate.
    ThroughNoAllocate,
    /// Stores allocate and mark sectors dirty; dirty sectors are written
    /// back on eviction (or flush).
    BackAllocate,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes (tag granularity).
    pub line: usize,
    /// Sector size in bytes (fill granularity; `line % sector == 0`).
    pub sector: usize,
    /// Associativity (lines per set).
    pub assoc: usize,
    /// Write policy.
    pub write: WritePolicy,
}

impl CacheConfig {
    fn num_sets(&self) -> usize {
        let sets = self.bytes / (self.line * self.assoc);
        assert!(sets > 0, "cache smaller than one set");
        sets
    }
}

/// Byte counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Transactions presented to this level.
    pub accesses: u64,
    /// Bytes requested of this level, rounded to touched sectors — the
    /// "data movement" a profiler reports for the level.
    pub requested_bytes: u64,
    /// Sector hits.
    pub hit_sectors: u64,
    /// Sector misses (fills from the next level).
    pub miss_sectors: u64,
    /// Bytes filled from the next level.
    pub fill_bytes: u64,
    /// Bytes written to the next level (write-through traffic or dirty
    /// write-backs).
    pub writeout_bytes: u64,
    /// Cache lines visited, counting one per distinct line per request —
    /// the "wavefronts" a GPU L1 serialises on (one line per cycle).
    pub line_visits: u64,
}

impl CacheStats {
    /// Sector hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_sectors + self.miss_sectors;
        if total == 0 {
            return 0.0;
        }
        self.hit_sectors as f64 / total as f64
    }

    /// Total bytes exchanged with the next level.
    pub fn next_level_bytes(&self) -> u64 {
        self.fill_bytes + self.writeout_bytes
    }

    /// Bytes the cache *delivers* at line granularity
    /// (`line_visits × line size`) — the bandwidth-relevant volume for a
    /// one-line-per-cycle data path.
    pub fn delivered_bytes(&self, line: usize) -> u64 {
        self.line_visits * line as u64
    }

    /// Accumulate another stats block (used to merge per-SM L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.requested_bytes += other.requested_bytes;
        self.hit_sectors += other.hit_sectors;
        self.miss_sectors += other.miss_sectors;
        self.fill_bytes += other.fill_bytes;
        self.writeout_bytes += other.writeout_bytes;
        self.line_visits += other.line_visits;
    }

    /// Field-wise difference `self − earlier` of two monotone counter
    /// snapshots (`earlier` must be an older snapshot of the same cache).
    pub fn diff(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            requested_bytes: self.requested_bytes - earlier.requested_bytes,
            hit_sectors: self.hit_sectors - earlier.hit_sectors,
            miss_sectors: self.miss_sectors - earlier.miss_sectors,
            fill_bytes: self.fill_bytes - earlier.fill_bytes,
            writeout_bytes: self.writeout_bytes - earlier.writeout_bytes,
            line_visits: self.line_visits - earlier.line_visits,
        }
    }

    /// Add `delta` scaled by `k` — the fast-forward step of the wave-
    /// periodic simulation, which accounts `k` skipped periods that each
    /// provably contribute `delta`.
    pub fn add_scaled(&mut self, delta: &CacheStats, k: u64) {
        self.accesses += delta.accesses * k;
        self.requested_bytes += delta.requested_bytes * k;
        self.hit_sectors += delta.hit_sectors * k;
        self.miss_sectors += delta.miss_sectors * k;
        self.fill_bytes += delta.fill_bytes * k;
        self.writeout_bytes += delta.writeout_bytes * k;
        self.line_visits += delta.line_visits * k;
    }
}

/// One cache level.
///
/// Storage is set-major and flat: way `w` of set `s` lives at index
/// `s * assoc + w` of the per-way arrays. The occupied ways of a set are
/// `0..fill[s]`; a line never moves once allocated (eviction replaces the
/// victim in place), and recency is a per-way LRU rank, `0` for the most
/// recently used line of the set and `fill − 1` for the least. The rank
/// order is exactly the order of last use, so replacement never ties and
/// no clock is kept.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line)`: a sector's tag is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(sector)`.
    sector_shift: u32,
    /// `line / sector`.
    sectors_per_line: u32,
    sets: SetIndex,
    /// Line tag per way (`addr >> line_shift`).
    tags: Vec<u64>,
    /// LRU rank per way; the occupied ranks of a set are a permutation of
    /// `0..fill`.
    ranks: Vec<u8>,
    /// Valid-sector mask per way.
    valid: Vec<u8>,
    /// Dirty-sector mask per way.
    dirty: Vec<u8>,
    /// Occupied ways per set.
    fill: Vec<u8>,
    /// Occupied ways in total.
    resident: usize,
    /// Most-recently-used line memo: skips the set-index computation and
    /// the set walk when consecutive sectors land on the same line, which
    /// is the common case for the row-granular streams the kernels issue.
    /// Pure lookup acceleration — validated against the way's tag on
    /// every use (an eviction may have reused the way), so hit/miss
    /// accounting is identical with or without it.
    mru_tag: u64,
    mru_set: usize,
    mru_way: usize,
    /// Running statistics.
    pub stats: CacheStats,
}

/// `tag % sets` without a hardware division: a mask for power-of-two set
/// counts, otherwise Lemire's 32-bit "fastmod" (exact for every `u32`
/// tag, with a plain remainder above that).
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    sets: u64,
    /// `sets − 1` when `sets` is a power of two.
    mask: Option<u64>,
    /// `⌈2⁶⁴ / sets⌉` (unused for power-of-two counts).
    magic: u64,
}

impl SetIndex {
    fn new(sets: usize) -> SetIndex {
        let sets = sets as u64;
        assert!(sets <= u32::MAX as u64, "more than 2^32 cache sets");
        let pow2 = sets.is_power_of_two();
        SetIndex {
            sets,
            mask: pow2.then_some(sets - 1),
            magic: if pow2 { 0 } else { u64::MAX / sets + 1 },
        }
    }

    #[inline]
    fn of(&self, tag: u64) -> usize {
        if let Some(mask) = self.mask {
            (tag & mask) as usize
        } else if tag <= u32::MAX as u64 {
            let low = self.magic.wrapping_mul(tag);
            ((low as u128 * self.sets as u128) >> 64) as usize
        } else {
            (tag % self.sets) as usize
        }
    }
}

/// A transaction this level issues to the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextLevel {
    /// Address of the sector.
    pub addr: u64,
    /// Bytes (always one sector).
    pub bytes: u32,
    /// True for write-backs / write-throughs; false for fills.
    pub is_write: bool,
}

impl Cache {
    /// Empty cache of the given geometry.
    ///
    /// # Panics
    ///
    /// If the line or sector size is not a power of two, the line is not a
    /// multiple of the sector, the line holds more than 8 sectors, the
    /// associativity is outside `1..=255`, or the cache is smaller than
    /// one set.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two() && cfg.sector.is_power_of_two());
        assert_eq!(cfg.line % cfg.sector, 0);
        assert!(
            cfg.line / cfg.sector <= 8,
            "more than 8 sectors per line (the sector masks are u8)"
        );
        assert!(
            (1..=255).contains(&cfg.assoc),
            "associativity outside 1..=255 (ranks and fill counts are u8)"
        );
        let sets = cfg.num_sets();
        let ways = sets * cfg.assoc;
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            sector_shift: cfg.sector.trailing_zeros(),
            sectors_per_line: (cfg.line / cfg.sector) as u32,
            sets: SetIndex::new(sets),
            tags: vec![0; ways],
            ranks: vec![0; ways],
            valid: vec![0; ways],
            dirty: vec![0; ways],
            fill: vec![0; sets],
            resident: 0,
            mru_tag: u64::MAX,
            mru_set: 0,
            mru_way: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Lines currently resident. Only allocation changes it (an eviction
    /// replaces a line), so it grows until the cache is full and drops
    /// only on [`Cache::flush`].
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Present a read of `bytes` at `addr`; next-level transactions are
    /// reported through `next`.
    pub fn read(&mut self, addr: u64, bytes: u32, next: &mut impl FnMut(NextLevel)) {
        self.access(addr, bytes, false, next)
    }

    /// Present a write of `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: u32, next: &mut impl FnMut(NextLevel)) {
        self.access(addr, bytes, true, next)
    }

    /// Present a batch of `(addr, bytes, is_write)` transactions in issue
    /// order — the replay entry point of the fast (block-class) simulation
    /// path. Exactly equivalent to calling [`Cache::read`]/[`Cache::write`]
    /// per element; batching keeps the MRU line memo hot across a whole
    /// compiled stream so same-line runs skip the per-access set walk.
    pub fn access_run(
        &mut self,
        run: impl IntoIterator<Item = (u64, u32, bool)>,
        next: &mut impl FnMut(NextLevel),
    ) {
        for (addr, bytes, is_write) in run {
            self.access(addr, bytes, is_write, next);
        }
    }

    /// Locate the line `tag`: `Ok((set, way))` when resident, else
    /// `Err(set)`. The MRU memo is consulted first and trusted only after
    /// re-validating the way's tag; tags are unique within a set, so a
    /// validated memo hit is exactly the way a walk would find.
    #[inline]
    fn find_way(&mut self, tag: u64) -> Result<(usize, usize), usize> {
        if self.mru_tag == tag && self.tags[self.mru_set * self.cfg.assoc + self.mru_way] == tag {
            return Ok((self.mru_set, self.mru_way));
        }
        let set = self.sets.of(tag);
        let base = set * self.cfg.assoc;
        let n = self.fill[set] as usize;
        let way = self.tags[base..base + n]
            .iter()
            .position(|&t| t == tag)
            .ok_or(set)?;
        self.mru_tag = tag;
        self.mru_set = set;
        self.mru_way = way;
        Ok((set, way))
    }

    /// Make `way` the most recently used line of `set`.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        let base = set * self.cfg.assoc;
        let ranks = &mut self.ranks[base..base + self.fill[set] as usize];
        let r = ranks[way];
        if r != 0 {
            for x in ranks.iter_mut() {
                *x += u8::from(*x < r);
            }
            ranks[way] = 0;
        }
    }

    /// Allocate `tag` in `set` as its most recently used line with no
    /// valid sectors: a free way while the set has one, else the least
    /// recently used way (rank `fill − 1`), written back first.
    fn allocate(&mut self, set: usize, tag: u64, next: &mut impl FnMut(NextLevel)) -> usize {
        let base = set * self.cfg.assoc;
        let n = self.fill[set] as usize;
        let way = if n < self.cfg.assoc {
            self.ranks[base + n] = n as u8;
            self.fill[set] += 1;
            self.resident += 1;
            n
        } else {
            let lru = (n - 1) as u8;
            let way = self.ranks[base..base + n]
                .iter()
                .position(|&r| r == lru)
                .expect("the ranks of a full set are a permutation");
            self.write_back(self.tags[base + way], self.dirty[base + way], next);
            way
        };
        self.tags[base + way] = tag;
        self.valid[base + way] = 0;
        self.dirty[base + way] = 0;
        self.promote(set, way);
        self.mru_tag = tag;
        self.mru_set = set;
        self.mru_way = way;
        way
    }

    fn access(&mut self, addr: u64, bytes: u32, is_write: bool, next: &mut impl FnMut(NextLevel)) {
        debug_assert!(bytes > 0);
        self.stats.accesses += 1;
        let sector = self.cfg.sector as u64;
        let mut s = addr & !(sector - 1);
        let end = addr + bytes as u64;
        let mut last_line = u64::MAX;
        while s < end {
            let this_line = s >> self.line_shift;
            if this_line != last_line {
                self.stats.line_visits += 1;
                last_line = this_line;
            }
            // Full coverage means the write overwrites the whole sector,
            // permitting allocate-without-fetch.
            let full = is_write && s >= addr && s + sector <= end;
            self.touch_sector(s, is_write, full, next);
            s += sector;
        }
    }

    fn touch_sector(
        &mut self,
        sector_addr: u64,
        is_write: bool,
        full_cover: bool,
        next: &mut impl FnMut(NextLevel),
    ) {
        let sector = self.cfg.sector as u32;
        self.stats.requested_bytes += sector as u64;
        let tag = sector_addr >> self.line_shift;
        let bit = 1u8 << ((sector_addr >> self.sector_shift) & (self.sectors_per_line as u64 - 1));

        if is_write && self.cfg.write == WritePolicy::ThroughNoAllocate {
            // Write-through: forward, refresh recency if present.
            next(NextLevel {
                addr: sector_addr,
                bytes: sector,
                is_write: true,
            });
            self.stats.writeout_bytes += sector as u64;
            if let Ok((set, way)) = self.find_way(tag) {
                self.promote(set, way);
                // sector contents refreshed; validity unchanged
            }
            return;
        }

        let idx = match self.find_way(tag) {
            Ok((set, way)) => {
                self.promote(set, way);
                let idx = set * self.cfg.assoc + way;
                if self.valid[idx] & bit != 0 {
                    self.stats.hit_sectors += 1;
                    if is_write {
                        self.dirty[idx] |= bit;
                    }
                    return;
                }
                // line present, sector not resident
                idx
            }
            // Line miss: allocate, possibly evicting the LRU line.
            Err(set) => set * self.cfg.assoc + self.allocate(set, tag, next),
        };
        self.stats.miss_sectors += 1;
        if !(is_write && full_cover) {
            next(NextLevel {
                addr: sector_addr,
                bytes: sector,
                is_write: false,
            });
            self.stats.fill_bytes += sector as u64;
        }
        self.valid[idx] |= bit;
        if is_write {
            self.dirty[idx] |= bit;
        }
    }

    /// Write back the dirty sectors of line `tag`, in sector order.
    fn write_back(&mut self, tag: u64, dirty: u8, next: &mut impl FnMut(NextLevel)) {
        if dirty == 0 {
            return;
        }
        let base = tag << self.line_shift;
        let sector = self.cfg.sector as u32;
        for s in 0..self.sectors_per_line {
            if dirty & (1 << s) != 0 {
                next(NextLevel {
                    addr: base + ((s as u64) << self.sector_shift),
                    bytes: sector,
                    is_write: true,
                });
                self.stats.writeout_bytes += sector as u64;
            }
        }
    }

    /// Write back every dirty sector (end-of-kernel accounting) and clear
    /// the contents.
    ///
    /// Sets drain in index order and each set in ascending tag order, so
    /// the write-back stream (and therefore the DRAM page accounting
    /// downstream) depends only on the cached contents, not on which way
    /// a line happened to be allocated in. That invariance is what lets
    /// the wave-periodic fast-forward compare states rank by rank.
    pub fn flush(&mut self, next: &mut impl FnMut(NextLevel)) {
        let mut lines: Vec<(u64, u8)> = Vec::with_capacity(self.cfg.assoc);
        for set in 0..self.fill.len() {
            let base = set * self.cfg.assoc;
            let n = self.fill[set] as usize;
            lines.clear();
            lines.extend((base..base + n).map(|i| (self.tags[i], self.dirty[i])));
            lines.sort_unstable_by_key(|&(tag, _)| tag);
            for &(tag, dirty) in &lines {
                self.write_back(tag, dirty, next);
            }
            self.fill[set] = 0;
        }
        self.resident = 0;
        self.mru_tag = u64::MAX;
    }

    /// Translate the cached contents by `shift_lines` cache lines.
    ///
    /// Because the tag is `addr / line` and the set index is `tag % sets`,
    /// adding a constant to every tag moves whole sets together: the
    /// set-major arrays rotate by `shift_lines` sets while every way's
    /// rank, valid and dirty mask is preserved. The result is exactly the
    /// state a from-scratch simulation of the translated access stream
    /// would have reached — the fast-forward step of the wave-periodic
    /// simulation. Statistics are left untouched (the caller scales them)
    /// and the MRU memo is dropped (it is a pure lookup accelerator).
    pub fn translate(&mut self, shift_lines: i64) {
        let rot = shift_lines.rem_euclid(self.fill.len() as i64) as usize;
        let ways = rot * self.cfg.assoc;
        self.tags.rotate_right(ways);
        self.ranks.rotate_right(ways);
        self.valid.rotate_right(ways);
        self.dirty.rotate_right(ways);
        self.fill.rotate_right(rot);
        // free ways' tags are never read, so shifting them is harmless
        for tag in &mut self.tags {
            *tag = tag.wrapping_add_signed(shift_lines);
        }
        self.mru_tag = u64::MAX;
    }

    /// Is `self` the state a simulation would reach from `earlier`'s input
    /// stream translated by `shift_lines` cache lines?
    ///
    /// Compares each (rotated) set pair rank by rank: same number of
    /// lines, and the lines of equal LRU rank agree on shifted tag, valid
    /// mask and dirty mask. Which way holds a line is deliberately
    /// ignored: lookup is by tag, the victim is chosen by rank, and
    /// `flush` drains in tag order, so way placement never influences
    /// behaviour. Two states that pass this check therefore respond to
    /// any future translated input pair with identical statistics and
    /// translated output streams, which is what licenses the
    /// wave-periodic fast-forward.
    pub fn equiv_translated(&self, earlier: &Cache, shift_lines: i64) -> bool {
        let sets = self.fill.len();
        debug_assert_eq!(self.cfg, earlier.cfg);
        if self.resident != earlier.resident {
            return false;
        }
        let rot = shift_lines.rem_euclid(sets as i64) as usize;
        let mut way_of_rank = [0u8; 256];
        for (i, &n) in earlier.fill.iter().enumerate() {
            let j = if i + rot >= sets {
                i + rot - sets
            } else {
                i + rot
            };
            if self.fill[j] != n {
                return false;
            }
            let (a, b) = (i * self.cfg.assoc, j * self.cfg.assoc);
            let n = n as usize;
            for w in 0..n {
                way_of_rank[self.ranks[b + w] as usize] = w as u8;
            }
            for w in 0..n {
                let v = b + way_of_rank[earlier.ranks[a + w] as usize] as usize;
                if self.tags[v] != earlier.tags[a + w].wrapping_add_signed(shift_lines)
                    || self.valid[v] != earlier.valid[a + w]
                    || self.dirty[v] != earlier.dirty[a + w]
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1_cfg() -> CacheConfig {
        CacheConfig {
            bytes: 4096,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::ThroughNoAllocate,
        }
    }

    fn l2_cfg() -> CacheConfig {
        CacheConfig {
            bytes: 4096,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::BackAllocate,
        }
    }

    fn collect(c: &mut Cache, addr: u64, bytes: u32, is_write: bool) -> Vec<NextLevel> {
        let mut out = Vec::new();
        if is_write {
            c.write(addr, bytes, &mut |t| out.push(t));
        } else {
            c.read(addr, bytes, &mut |t| out.push(t));
        }
        out
    }

    #[test]
    fn cold_read_fills_per_sector() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 0, 128, false);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|x| !x.is_write && x.bytes == 32));
        assert_eq!(c.stats.miss_sectors, 4);
        assert_eq!(c.stats.requested_bytes, 128);
    }

    #[test]
    fn warm_read_hits() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 0, 128, false);
        let t = collect(&mut c, 0, 128, false);
        assert!(t.is_empty());
        assert_eq!(c.stats.hit_sectors, 4);
    }

    #[test]
    fn unaligned_read_touches_extra_sector() {
        let mut c = Cache::new(l2_cfg());
        // 64 bytes starting at 16 spans sectors 0,16..etc: [0,32),[32,64),[64,96)
        let t = collect(&mut c, 16, 64, false);
        assert_eq!(t.len(), 3);
        assert_eq!(c.stats.requested_bytes, 96);
    }

    #[test]
    fn full_sector_write_allocates_without_fetch() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 0, 128, true);
        assert!(t.is_empty(), "no fetch on full-sector store");
        assert_eq!(c.stats.fill_bytes, 0);
        // flush writes the dirty sectors back
        let mut wb = Vec::new();
        c.flush(&mut |t| wb.push(t));
        assert_eq!(wb.len(), 4);
        assert!(wb.iter().all(|x| x.is_write));
    }

    #[test]
    fn partial_sector_write_fetches_then_dirties() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 8, 8, true);
        assert_eq!(t.len(), 1);
        assert!(!t[0].is_write, "partial write must fetch");
        let mut wb = Vec::new();
        c.flush(&mut |t| wb.push(t));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].bytes, 32);
    }

    #[test]
    fn write_through_forwards_and_does_not_allocate() {
        let mut c = Cache::new(l1_cfg());
        let t = collect(&mut c, 0, 64, true);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|x| x.is_write));
        assert_eq!(c.stats.writeout_bytes, 64);
        // subsequent read misses (store did not allocate)
        let t = collect(&mut c, 0, 32, false);
        assert_eq!(t.len(), 1);
        assert!(!t[0].is_write);
    }

    #[test]
    fn lru_eviction_and_capacity() {
        // 4096B, 128B lines, assoc 4 -> 8 sets; lines mapping to set 0 are
        // 1KB apart
        let mut c = Cache::new(l2_cfg());
        for i in 0..5u64 {
            collect(&mut c, i * 1024, 32, false);
        }
        // line 0 was LRU and must have been evicted: rereading it misses
        let before = c.stats.miss_sectors;
        collect(&mut c, 0, 32, false);
        assert_eq!(c.stats.miss_sectors, before + 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(l2_cfg());
        let mut wb = Vec::new();
        c.write(0, 32, &mut |t| wb.push(t));
        for i in 1..5u64 {
            c.read(i * 1024, 32, &mut |t| wb.push(t));
        }
        assert!(
            wb.iter().any(|t| t.is_write && t.addr == 0),
            "evicting the dirty line must write it back: {wb:?}"
        );
    }

    #[test]
    fn hit_rate_and_merge() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 0, 32, false);
        collect(&mut c, 0, 32, false);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-12);
        let mut total = CacheStats::default();
        total.merge(&c.stats);
        total.merge(&c.stats);
        assert_eq!(total.accesses, 2 * c.stats.accesses);
    }

    #[test]
    fn non_pow2_set_count_supported() {
        // 192 KB / (128 B x 8) = 192 sets, as on the A100 L1
        let mut c = Cache::new(CacheConfig {
            bytes: 192 * 1024,
            line: 128,
            sector: 32,
            assoc: 8,
            write: WritePolicy::BackAllocate,
        });
        collect(&mut c, 0, 32, false);
        collect(&mut c, 0, 32, false);
        assert_eq!(c.stats.hit_sectors, 1);
    }

    #[test]
    fn mru_memo_survives_in_place_eviction() {
        // assoc-4 set; lines to set 0 are 1 KiB apart. Fill ways 0..3 with
        // L0..L3, then touch L1, L2, L3, L0 so L1 is LRU and the memo
        // points at L0. Allocating L4 replaces L1's way in place; a
        // re-read of L1 must miss and evict L2, whose way L1 then takes,
        // and a read of L0 (the memo before L4) must still hit.
        let mut c = Cache::new(l2_cfg());
        for i in [0u64, 1, 2, 3, 1, 2, 3, 0] {
            collect(&mut c, i * 1024, 32, false);
        }
        collect(&mut c, 4 * 1024, 32, false);
        let misses = c.stats.miss_sectors;
        collect(&mut c, 1024, 32, false);
        assert_eq!(c.stats.miss_sectors, misses + 1, "evicted line must miss");
        let hits = c.stats.hit_sectors;
        collect(&mut c, 0, 32, false);
        collect(&mut c, 3 * 1024, 32, false);
        assert_eq!(c.stats.hit_sectors, hits + 2, "resident lines must hit");
        collect(&mut c, 2 * 1024, 32, false);
        assert_eq!(c.stats.miss_sectors, misses + 2, "L2 was the LRU victim");
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn access_run_equals_individual_accesses() {
        let trace: Vec<(u64, u32, bool)> = vec![
            (0, 128, false),
            (32, 32, true),
            (1024, 64, false),
            (0, 256, false),
            (8, 8, true),
            (5 * 1024, 32, false),
        ];
        for cfg in [l1_cfg(), l2_cfg()] {
            let mut a = Cache::new(cfg);
            let mut a_next = Vec::new();
            a.access_run(trace.iter().copied(), &mut |t| a_next.push(t));
            let mut b = Cache::new(cfg);
            let mut b_next = Vec::new();
            for &(addr, bytes, is_write) in &trace {
                if is_write {
                    b.write(addr, bytes, &mut |t| b_next.push(t));
                } else {
                    b.read(addr, bytes, &mut |t| b_next.push(t));
                }
            }
            assert_eq!(a.stats, b.stats);
            assert_eq!(a_next, b_next);
        }
    }

    #[test]
    fn set_index_is_the_remainder() {
        // the built-in arches' set counts, powers of two and not
        for sets in [1usize, 3, 16, 192, 384, 8192, 20480, 212_992] {
            let idx = SetIndex::new(sets);
            let mut tag = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..10_000 {
                tag = tag.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                for t in [tag, tag >> 32, tag >> 40, u32::MAX as u64, 0] {
                    assert_eq!(idx.of(t), (t % sets as u64) as usize, "{t} % {sets}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn degenerate_cache_rejected() {
        let _ = Cache::new(CacheConfig {
            bytes: 64,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::BackAllocate,
        });
    }
}
