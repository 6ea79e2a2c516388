//! The exact memory-simulation oracle.
//!
//! [`simulate_memory_exact`] traces every launch block through the full
//! VM dispatch path ([`KernelSpec::trace_block`]) into its own SM's
//! private L1, then feeds the wave's L1-miss streams to the shared L2
//! round-robin, `interleave_chunk` events per turn, and finally flushes
//! the resident output. It has no block classes, no SM grouping, no
//! fast-forward and no attribution, and it shares neither the wave loop
//! nor the L2 feed with [`crate::simulate_memory`]: that independence is
//! what lets the differential suites (`tests/fidelity.rs`,
//! `tests/introspect.rs`, the sweep-wide check in `experiments`) hold the
//! production path to it bit for bit. No pipeline calls it.

use rayon::prelude::*;

use brick_vm::{KernelSpec, TraceGeometry, TraceSink};

use crate::arch::GpuArch;
use crate::cache::{Cache, CacheStats, NextLevel};
use crate::dram::{DramModel, PageStats};
use crate::hierarchy::{l1_config, l2_config, MemoryReport, SimOptions};

/// Adapter: kernel trace → L1 cache → buffered miss stream.
struct L1Sink<'a> {
    l1: &'a mut Cache,
    out: &'a mut Vec<NextLevel>,
}

impl TraceSink for L1Sink<'_> {
    fn load(&mut self, addr: u64, bytes: u32) {
        let out = &mut *self.out;
        self.l1.read(addr, bytes, &mut |t| out.push(t));
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        let out = &mut *self.out;
        self.l1.write(addr, bytes, &mut |t| out.push(t));
    }
}

/// Simulate the full launch of `spec` over `geom` on `arch` with
/// `blocks_per_sm` resident blocks per SM by tracing every block — the
/// reference [`crate::simulate_memory_opts`] must match bit for bit.
pub fn simulate_memory_exact(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
    opts: &SimOptions,
) -> MemoryReport {
    let num_blocks = geom.num_blocks();
    let num_sms = arch.num_sms;
    let active = num_sms * blocks_per_sm.max(1) as usize;
    let chunk = opts.interleave_chunk.max(1);

    let mut l1s: Vec<Cache> = (0..num_sms).map(|_| Cache::new(l1_config(arch))).collect();
    let mut l2 = Cache::new(l2_config(arch));
    let mut dram = DramModel::new();
    let mut dram_read: u64 = 0;
    let mut dram_write: u64 = 0;

    let mut wave_start = 0;
    while wave_start < num_blocks {
        let wave_len = active.min(num_blocks - wave_start);
        // SM `sm` runs the wave's blocks at positions `sm`, `sm + num_sms`, …
        let per_sm: Vec<Vec<Vec<NextLevel>>> = l1s
            .par_iter_mut()
            .enumerate()
            .map(|(sm, l1)| {
                (sm..wave_len)
                    .step_by(num_sms)
                    .map(|pos| {
                        let mut misses = Vec::new();
                        let mut sink = L1Sink {
                            l1: &mut *l1,
                            out: &mut misses,
                        };
                        spec.trace_block(geom, wave_start + pos, &mut sink)
                            .expect("kernel/geometry verified before simulation");
                        misses
                    })
                    .collect()
            })
            .collect();
        let streams: Vec<&[NextLevel]> = (0..wave_len)
            .map(|pos| per_sm[pos % num_sms][pos / num_sms].as_slice())
            .collect();

        let mut cursors = vec![0usize; wave_len];
        let mut remaining: usize = streams.iter().map(|s| s.len()).sum();
        while remaining > 0 {
            for (stream, cursor) in streams.iter().zip(cursors.iter_mut()) {
                let end = (*cursor + chunk).min(stream.len());
                for t in &stream[*cursor..end] {
                    let mut lower = |n: NextLevel| {
                        dram.access(n.addr);
                        if n.is_write {
                            dram_write += n.bytes as u64;
                        } else {
                            dram_read += n.bytes as u64;
                        }
                    };
                    if t.is_write {
                        l2.write(t.addr, t.bytes, &mut lower);
                    } else {
                        l2.read(t.addr, t.bytes, &mut lower);
                    }
                }
                remaining -= end - *cursor;
                *cursor = end;
            }
        }
        wave_start += wave_len;
    }

    l2.flush(&mut |n| {
        dram.access(n.addr);
        if n.is_write {
            dram_write += n.bytes as u64;
        }
    });
    let mut l1 = CacheStats::default();
    for c in &l1s {
        l1.merge(&c.stats);
    }
    MemoryReport {
        l1,
        l1_line: arch.l1_line,
        l2: l2.stats,
        dram_read_bytes: dram_read,
        dram_write_bytes: dram_write,
        pages: PageStats {
            hits: dram.hits,
            misses: dram.misses,
        },
    }
}
