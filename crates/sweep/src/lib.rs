//! # brick-sweep
//!
//! Work scheduling for experiment sweeps. The paper's study matrix —
//! stencils × kernel configurations × GPUs × programming models — is a
//! set of *independent* cells, but the seed harness walked it with
//! strictly serial nested loops and recomputed every cell on every run.
//! This crate supplies the two missing mechanisms:
//!
//! * [`map_cells`] — deterministic parallel fan-out: cells are evaluated
//!   on worker threads (the vendored rayon shim) but reduced in input
//!   order, so records, CSVs and reports are byte-identical to a serial
//!   run at any [`Jobs`] setting. Scheduling is observable through
//!   brick-obs: a queue-depth gauge, a live ETA gauge and per-sweep
//!   progress lines.
//! * [`cache::DiskCache`] — a content-addressed on-disk result cache so
//!   unchanged cells are loaded instead of re-simulated, making repeat
//!   sweeps incremental across processes.
//!
//! Neither mechanism knows anything about stencils or GPUs; the
//! `experiments` crate builds the domain-specific cell list and cache
//! keys on top.

pub mod cache;

pub use cache::{CacheKey, CacheOutcome, DiskCache, KeyBuilder};

/// Worker-thread count for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jobs {
    /// Use every available hardware thread.
    Auto,
    /// Use exactly this many workers (clamped to at least 1).
    N(usize),
}

impl Jobs {
    /// The concrete worker count this request resolves to.
    pub fn count(self) -> usize {
        match self {
            Jobs::N(n) => n.max(1),
            Jobs::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

/// Evaluate `f` over every cell on `jobs` worker threads and return the
/// results **in input order**, regardless of completion order — the
/// deterministic reduction that makes parallel sweeps byte-compatible
/// with serial ones.
///
/// `jobs` bounds every thread the sweep uses: a parallel call `f` makes
/// (the simulator's per-wave L1 fan-out, say) runs inline on the worker
/// evaluating the cell, so no more than `jobs` threads work at once.
///
/// Observability (all through brick-obs, near-free when disabled):
/// * a progress reporter labelled `label` (rate + ETA lines at `info`);
/// * gauge `{label}.queue_depth` — cells not yet completed;
/// * gauge `{label}.eta_s` — estimated seconds to completion from the
///   live cell-completion rate;
/// * gauge `{label}.jobs` — the resolved worker count.
///
/// Each cell runs inside its own span (category `cell`), so `--trace`
/// runs show the actual parallel schedule.
pub fn map_cells<C, R, F>(label: &str, cells: &[C], jobs: Jobs, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    let total = cells.len();
    let workers = jobs.count().min(total.max(1));
    brick_obs::gauge_set(&format!("{label}.jobs"), workers as f64);
    brick_obs::gauge_set(&format!("{label}.queue_depth"), total as f64);
    let progress = brick_obs::Progress::new(
        label,
        total as u64,
        brick_obs::log_level_enabled(brick_obs::Level::Info),
    );

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("thread pool construction is infallible");
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    // Scheduler span on the calling thread, named exactly `label`: cell
    // spans (`label[i]`) either nest under it directly (serial fallback
    // runs cells on this thread) or appear as worker-thread roots that
    // brick-prof re-parents under it by name — so profile *structure* is
    // identical at any jobs count.
    let _sched = brick_obs::span_cat(label.to_string(), "sched");
    pool.install(|| {
        use rayon::prelude::*;
        slots.par_iter_mut().enumerate().for_each(|(i, slot)| {
            let r = {
                let _span = brick_obs::span_cat(format!("{label}[{i}]"), "cell");
                f(i, &cells[i])
            };
            *slot = Some(r);
            let done = progress.tick();
            brick_obs::gauge_set(
                &format!("{label}.queue_depth"),
                (total as u64 - done) as f64,
            );
            brick_obs::gauge_set(&format!("{label}.eta_s"), progress.eta_s());
        });
    });
    slots
        .into_iter()
        .map(|s| s.expect("scheduler evaluated every cell"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_resolution() {
        assert_eq!(Jobs::N(0).count(), 1);
        assert_eq!(Jobs::N(7).count(), 7);
        assert!(Jobs::Auto.count() >= 1);
    }

    #[test]
    fn results_keep_input_order_at_any_job_count() {
        let cells: Vec<u64> = (0..257).collect();
        let serial = map_cells("test.sched.serial", &cells, Jobs::N(1), |i, c| {
            (i as u64) * 1_000 + c * 3
        });
        for jobs in [2, 4, 8] {
            let par = map_cells("test.sched.par", &cells, Jobs::N(jobs), |i, c| {
                (i as u64) * 1_000 + c * 3
            });
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let out: Vec<u8> = map_cells("test.sched.empty", &[] as &[u8], Jobs::Auto, |_, c| *c);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_cells_really_overlap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cells: Vec<u32> = (0..64).collect();
        map_cells("test.sched.overlap", &cells, Jobs::N(4), |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 2, "observed at most {peak} concurrent cells");
        assert!(peak <= 4, "jobs cap exceeded: {peak}");
    }
}
