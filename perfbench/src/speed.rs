//! The host-speed probe. The measuring host is shared, and its other
//! tenants slow every workload together, by 15–30% over minutes: more
//! than a regression bound. So between repetitions the harness times a
//! fixed set of small kernels that lean on the resources the workloads
//! use — one core, every core, hashing with small allocations, random
//! reads of a cache-sized table, and streaming. A sample's speed factor
//! is the geometric mean of each kernel's time over its time on the
//! reference host at rest ([`NOMINAL_S`]); the run's factor is the median
//! of its samples, and end-to-end times are divided by it. The kernels
//! are this crate's own code, so no change to the measured crates moves
//! them.
//!
//! Every buffer the probe streams or chases is allocated once and kept
//! for the life of the probe, and each kernel's own allocations stay
//! below glibc's initial mmap threshold (128 KiB): freeing a larger block
//! would raise that threshold, and with it change how the measured code's
//! own allocations are served.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, SplitMix64};

/// Time of each kernel on the reference host at rest, seconds, in the
/// order [`SpeedProbe::sample`] runs them: one-core arithmetic, the same
/// on every core, hashing, chasing, streaming. Only the ratio of a
/// measured time to these matters; they set the scale at which a factor
/// reads 1.
pub const NOMINAL_S: [f64; 5] = [0.0072, 0.0076, 0.0042, 0.0082, 0.0052];

/// Dependent xorshift and multiply-add steps: one core's arithmetic.
const ALU_STEPS: u64 = 2_000_000;
/// Insertions into the hashing kernel's map, over [`HASH_KEYS`] keys.
const HASH_INSERTS: usize = 36_000;
/// Keys of the hashing kernel: its table (2,048 buckets of 48 bytes)
/// stays below 128 KiB.
const HASH_KEYS: usize = 1_500;
/// Entries of the chased permutation: 4 MiB of `u32`, past the private
/// caches, in the one the host's tenants share.
const CHASE_LEN: usize = 1 << 20;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 80_000;
/// Elements of the streamed buffer: 32 MiB of `f64`.
const STREAM_LEN: usize = 4 << 20;

/// Samples the host's speed; see the module documentation.
pub struct SpeedProbe {
    threads: usize,
    chase: Vec<u32>,
    stream: Vec<f64>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl SpeedProbe {
    /// A probe whose all-core kernel runs on `threads` threads.
    pub fn new(threads: usize) -> SpeedProbe {
        SpeedProbe {
            threads: threads.max(1),
            chase: cycle(CHASE_LEN),
            stream: vec![1.0; STREAM_LEN],
            samples: Vec::new(),
            last: None,
        }
    }

    /// Bytes the probe keeps resident: what a peak-memory reading taken
    /// while it lives must leave out.
    pub fn resident_bytes(&self) -> u64 {
        (self.chase.len() * 4 + self.stream.len() * 8) as u64
    }

    /// Time every kernel once and record the speed factor.
    pub fn sample(&mut self) {
        let mut log_sum = 0.0;
        let mut time = |k: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            log_sum += (t.elapsed().as_secs_f64() / NOMINAL_S[k]).ln();
        };
        time(0, &mut || {
            black_box(alu(ALU_STEPS));
        });
        let threads = self.threads;
        time(1, &mut || {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| black_box(alu(ALU_STEPS)));
                }
            });
        });
        time(2, &mut || {
            black_box(hash(HASH_INSERTS));
        });
        let chase = &self.chase;
        time(3, &mut || {
            black_box(follow(chase, CHASE_STEPS));
        });
        let stream = &mut self.stream;
        time(4, &mut || {
            black_box(scale(stream));
        });
        self.samples.push((log_sum / NOMINAL_S.len() as f64).exp());
        self.last = Some(Instant::now());
    }

    /// [`sample`](Self::sample) when the last sample is `interval_s` old
    /// or older, so that probing stays a small share of a run of short
    /// repetitions.
    pub fn sample_every(&mut self, interval_s: f64) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= interval_s)
        {
            self.sample();
        }
    }

    /// The speed factors sampled since the last call, emptying the list:
    /// each workload is normalized by its own samples.
    pub fn take_samples(&mut self) -> Vec<f64> {
        self.last = None;
        std::mem::take(&mut self.samples)
    }
}

/// The run's speed factor: the median of its samples, or 1 with none.
pub fn factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        median(samples)
    }
}

fn alu(steps: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut f = 1.0f64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = f * 0.999_999 + (x & 0xff) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    f + x as f64
}

fn hash(inserts: usize) -> usize {
    let mut m: HashMap<String, Vec<u32>> = HashMap::with_capacity(HASH_KEYS);
    for i in 0..inserts {
        m.entry(format!("k{}", i % HASH_KEYS))
            .or_default()
            .push(i as u32);
    }
    let mut v: Vec<(String, usize)> = m.into_iter().map(|(k, v)| (k, v.len())).collect();
    v.sort();
    v.len()
}

/// A single cycle through `0..n` in seeded random order: `p[i]` is the
/// successor of `i`.
fn cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::new(0x5EED);
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[order[w] as usize] = order[(w + 1) % n];
    }
    next
}

fn follow(p: &[u32], steps: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = p[i as usize];
    }
    i
}

fn scale(xs: &mut [f64]) -> f64 {
    let mut s = 0.0;
    for x in xs.iter_mut() {
        *x = *x * 0.999_999_9 + 1e-7;
        s += *x;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chased_table_is_one_cycle() {
        let p = cycle(1000);
        let mut seen = vec![false; 1000];
        let mut i = 0usize;
        for _ in 0..1000 {
            assert!(!seen[i], "revisited {i} early");
            seen[i] = true;
            i = p[i] as usize;
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn samples_are_positive_and_taken_once_per_interval() {
        let mut probe = SpeedProbe::new(2);
        probe.sample();
        probe.sample_every(3600.0);
        let s = probe.take_samples();
        assert_eq!(s.len(), 1);
        assert!(s[0].is_finite() && s[0] > 0.0);
        assert_eq!(factor(&[]), 1.0);
        assert!(probe.take_samples().is_empty());
    }
}
