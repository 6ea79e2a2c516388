//! The measuring host: provenance, peak memory, and the STREAM ceiling
//! the executor's computed bandwidth is compared against.

use std::time::Instant;

use serde_json::Value;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`: the thread count every
    /// workload fans out over.
    pub nproc: usize,
    /// `CpuFeatures::detect()`.
    pub features: String,
    /// The backend `ExecutionMode::Auto` dispatches to.
    pub backend: String,
    /// Last-level cache size in bytes, when sysfs reports it.
    pub l3_bytes: Option<u64>,
    /// Commit of the checkout, when it is a git checkout.
    pub git_sha: Option<String>,
}

impl Host {
    /// Probe the running host.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let features = brick_vm::CpuFeatures::detect();
        let backend = brick_vm::resolve_with(brick_vm::ExecutionMode::Auto, features)
            .map(|b| b.to_string())
            .unwrap_or_else(|e| e);
        Host {
            cpu_model,
            nproc: nproc(),
            features: features.to_string(),
            backend,
            l3_bytes: l3_bytes(),
            git_sha: brick_obs::manifest::git_sha(),
        }
    }

    /// Provenance as a JSON object.
    pub fn to_value(&self, seed: u64) -> Value {
        let opt = |s: &Option<String>| s.clone().map_or(Value::Null, Value::Str);
        Value::Obj(vec![
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("threads".into(), Value::U64(self.nproc as u64)),
            ("cpu_features".into(), Value::Str(self.features.clone())),
            ("backend".into(), Value::Str(self.backend.clone())),
            (
                "l3_bytes".into(),
                self.l3_bytes.map_or(Value::Null, Value::U64),
            ),
            ("git_sha".into(), opt(&self.git_sha)),
            ("seed".into(), Value::U64(seed)),
        ])
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn l3_bytes() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_bytes`] reading covers only what ran since. Returns
/// false where `/proc/self/clear_refs` is not writable; the reading then
/// covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Best STREAM bandwidths at one thread count.
#[derive(Debug, Clone, Copy)]
pub struct StreamRate {
    /// Threads the arrays were split over.
    pub threads: usize,
    /// `c = a`, 16 bytes per element.
    pub copy_gbs: f64,
    /// `a = b + q·c`, 24 bytes per element.
    pub triad_gbs: f64,
}

/// Elements per STREAM array at full scale: four times the last-level
/// cache (STREAM's own sizing rule), at least 32 Mi elements.
pub fn stream_elems() -> usize {
    let llc = l3_bytes().unwrap_or(32 << 20) as usize;
    (4 * llc / 8).max(32 << 20)
}

/// STREAM copy and triad in safe Rust with plain stores, at every thread
/// count from 1 to `max_threads`. Rates follow the STREAM byte convention
/// (bytes named by the kernel, no write-allocate traffic) and are the best
/// of `reps` timed passes, as STREAM reports them.
pub fn stream_probe(elems: usize, max_threads: usize, reps: usize) -> Vec<StreamRate> {
    let mut a = vec![0.0f64; elems];
    let mut b = vec![0.0f64; elems];
    let mut c = vec![0.0f64; elems];
    // first touch from the threads that later stream the same chunks
    par_zip3(&mut a, &mut b, &mut c, max_threads, |a, b, c| {
        a.fill(1.0);
        b.fill(2.0);
        c.fill(0.0);
    });
    let q = 3.0;
    let mut rates = Vec::new();
    for threads in 1..=max_threads {
        let (mut copy, mut triad) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let t = Instant::now();
            par_zip3(&mut a, &mut b, &mut c, threads, |a, _, c| {
                c.copy_from_slice(a)
            });
            copy = copy.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            par_zip3(&mut a, &mut b, &mut c, threads, |a, b, c| {
                for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                    *a = b + q * c;
                }
            });
            triad = triad.min(t.elapsed().as_secs_f64());
        }
        rates.push(StreamRate {
            threads,
            copy_gbs: 16.0 * elems as f64 / copy / 1e9,
            triad_gbs: 24.0 * elems as f64 / triad / 1e9,
        });
    }
    std::hint::black_box((&a, &b, &c));
    rates
}

/// Run `f` over `threads` equal, aligned chunks of three arrays, one
/// scoped thread per chunk.
fn par_zip3(
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    threads: usize,
    f: impl Fn(&mut [f64], &mut [f64], &mut [f64]) + Sync,
) {
    let chunk = a.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            let f = &f;
            s.spawn(move || f(a, b, c));
        }
    });
}
