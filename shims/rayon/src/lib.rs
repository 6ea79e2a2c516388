//! Offline stand-in for `rayon` covering the API subset this workspace
//! uses: `par_iter_mut` / `par_chunks_mut` on slices followed by
//! `enumerate` / `map` / `for_each` / `for_each_init` / `collect`, plus
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] / [`current_num_threads`]
//! for callers that need an explicit worker count (the sweep scheduler's
//! `--jobs` knob, the executor's recorded thread count).
//!
//! Work items are materialised eagerly and split into contiguous batches
//! of [`batch_len`] items, about 64 per worker. `std::thread` scoped
//! workers claim whole batches from an atomic cursor (dynamic scheduling,
//! like rayon's work stealing), so each worker sees ascending runs of
//! neighbouring items, as rayon's splitter hands out index ranges, and
//! one claim plus one `Mutex` covers a batch, not an item. A call with at
//! most 64 items per worker keeps batches of one item. `map` is eager —
//! it evaluates in parallel immediately and yields an ordered result —
//! which is observationally equivalent for the pipelines here.
//!
//! A worker runs any parallel call it makes itself inline, as a nested
//! call in a fixed-size rayon pool adds no threads: a call evaluated on
//! `n` workers (an installed pool's count, else all available
//! parallelism) never has more than `n` threads working at once.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::ParallelSliceMut;
}

thread_local! {
    /// Worker count installed by [`ThreadPool::install`] on this thread
    /// (`Some(1)` on the shim's own workers); `None` means "use all
    /// available parallelism".
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the one option this
/// workspace needs: the worker-thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with rayon's defaults (`num_threads == 0` = automatic).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Use exactly `n` worker threads; `0` restores the automatic choice.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Build the pool. Infallible here, but kept `Result` for signature
    /// compatibility with real rayon.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool" that scopes a worker-count override: parallel iterators
/// evaluated inside [`ThreadPool::install`] use the pool's thread count,
/// and the parallel calls its workers make run inline on them.
/// (Each call still spawns its own scoped workers, which claim contiguous
/// batches of its items — this shim has no persistent threads — and
/// results keep rayon's input order.)
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The worker count parallel calls under [`install`](Self::install)
    /// will use (0 = automatic).
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool's thread count installed for any parallel
    /// iterators it evaluates on the calling thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| {
            c.replace(match self.num_threads {
                0 => None,
                n => Some(n),
            })
        });
        // restore on unwind too, so a panicking op doesn't leak the
        // override into later work on this thread
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0;
                POOL_THREADS.with(|c| c.set(prev));
            }
        }
        let _restore = Restore(prev);
        op()
    }
}

/// Worker threads a parallel iterator evaluated on this thread uses: 1 on
/// a worker of another parallel call, else the count an enclosing
/// [`ThreadPool::install`] set, else all available parallelism (mirrors
/// `rayon::current_num_threads`, except that rayon reports the pool size
/// on its workers).
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Evaluate `f` over `items` on scoped worker threads; results keep the
/// input order.
fn par_eval<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    par_eval_init(items, || (), |_, t| f(t))
}

/// Batches each worker of a call gets on average: enough for dynamic
/// scheduling to even out uneven items, few enough that claims and locks
/// cost nothing next to the items.
const BATCHES_PER_WORKER: usize = 64;

/// Items per contiguous batch when `n` items run on `threads` workers:
/// `max(1, n / (threads · 64))`.
fn batch_len(n: usize, threads: usize) -> usize {
    (n / (threads * BATCHES_PER_WORKER)).max(1)
}

/// [`par_eval`] with per-worker state: each worker thread calls `init`
/// once and threads the value through every item it evaluates. Workers
/// claim contiguous batches of [`batch_len`] items in ascending order.
fn par_eval_init<T: Send, S, R: Send>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }
    let batch = batch_len(n, threads);
    let mut rest = items.into_iter();
    let batches: Vec<Mutex<Vec<T>>> = (0..n.div_ceil(batch))
        .map(|_| Mutex::new(rest.by_ref().take(batch).collect()))
        .collect();
    let next = AtomicUsize::new(0);
    // each worker returns its batches' results tagged with the batch index
    let mut done: Vec<(usize, Vec<R>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // nested parallel calls run inline on this worker
                    POOL_THREADS.with(|c| c.set(Some(1)));
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(b) else {
                            break done;
                        };
                        let items = std::mem::take(&mut *batch.lock().expect("batch lock"));
                        done.push((b, items.into_iter().map(|t| f(&mut state, t)).collect()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(b, _)| b);
    done.into_iter().flat_map(|(_, rs)| rs).collect()
}

/// A materialised parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Parallel map (eager); result order matches input order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_eval(self.items, f),
        }
    }

    /// Run `f` over every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_eval(self.items, f);
    }

    /// Run `f` over every item in parallel with per-worker state from
    /// `init` (rayon may call `init` more than once per thread; this shim
    /// calls it once per worker).
    pub fn for_each_init<S, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) + Sync,
    {
        par_eval_init(self.items, init, f);
    }

    /// Collect the (already ordered) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Parallel mutable iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel counterpart of `iter_mut`.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel counterpart of `chunks_mut`.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_for_each_touches_everything() {
        let mut v = vec![0u64; 10_000];
        v.par_chunks_mut(17).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i as u64 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[17], 2);
    }

    #[test]
    fn for_each_init_reuses_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let mut v = vec![0u64; 1000];
        v.par_iter_mut().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |seen, x| {
                seen.push(1);
                *x = seen.len() as u64;
            },
        );
        let workers = inits.load(Ordering::Relaxed);
        assert!(workers >= 1);
        // each worker's state saw a first item at most once
        assert!(v.iter().all(|&x| x >= 1));
        assert!(v.iter().filter(|&&x| x == 1).count() <= workers);
    }

    #[test]
    fn install_scopes_the_worker_count() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            let mut v = [0u8; 64];
            v.par_iter_mut().for_each(|x| {
                ids.lock().unwrap().insert(std::thread::current().id());
                *x = 1;
            });
        });
        // at most 2 worker threads touched the items
        assert!(ids.lock().unwrap().len() <= 2);
        assert_eq!(pool.install(crate::current_num_threads), 2);
        // the override does not leak out of install()
        assert_eq!(crate::POOL_THREADS.with(|c| c.get()), None);
    }

    #[test]
    fn nested_calls_run_inline_on_pool_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let nested: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let mut outer = [[0u8; 16]; 8];
        pool.install(|| {
            outer.par_iter_mut().for_each(|row| {
                nested.lock().unwrap().push(crate::current_num_threads());
                row.par_iter_mut().for_each(|x| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    *x = 1;
                });
            });
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
        assert_eq!(*nested.lock().unwrap(), vec![1; 8]);
        // the 8 × 16 nested items ran on the pool's 2 workers only
        assert!(ids.lock().unwrap().len() <= 2);
    }

    #[test]
    fn single_threaded_pool_matches_serial() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut v: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = pool.install(|| v.par_iter_mut().map(|x| *x * 3).collect());
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    /// Item counts around the batching threshold (64 items per worker)
    /// and the worker counts the batching tests run at.
    const SIZES: [usize; 6] = [0, 1, 127, 128, 129, 10_007];
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    fn pool(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn batched_map_runs_every_item_once_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in THREADS {
            for n in SIZES {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let mut v: Vec<usize> = (0..n).collect();
                let out: Vec<usize> = pool(threads).install(|| {
                    v.par_iter_mut()
                        .map(|x| {
                            runs[*x].fetch_add(1, Ordering::Relaxed);
                            *x * 2
                        })
                        .collect()
                });
                assert_eq!(out, (0..n).map(|x| x * 2).collect::<Vec<_>>());
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "n = {n}, threads = {threads}: an item ran other than once"
                );
            }
        }
    }

    #[test]
    fn batched_for_each_init_inits_once_per_worker_on_contiguous_runs() {
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        for threads in THREADS {
            for n in SIZES {
                let inits = AtomicUsize::new(0);
                // (worker, item) in the order each worker ran its items
                let seen: Mutex<Vec<(std::thread::ThreadId, usize)>> = Mutex::new(Vec::new());
                let mut v: Vec<usize> = (0..n).collect();
                pool(threads).install(|| {
                    v.par_iter_mut().for_each_init(
                        || inits.fetch_add(1, Ordering::Relaxed),
                        |_, x| {
                            let id = std::thread::current().id();
                            seen.lock().unwrap().push((id, *x));
                        },
                    )
                });
                let workers = threads.min(n).max(1);
                assert!(
                    inits.load(Ordering::Relaxed) <= workers,
                    "n = {n}, threads = {threads}: init ran more than once per worker"
                );
                let mut per_worker: HashMap<_, Vec<usize>> = HashMap::new();
                for (id, i) in seen.into_inner().unwrap() {
                    per_worker.entry(id).or_default().push(i);
                }
                let mut all: Vec<usize> = per_worker.values().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..n).collect::<Vec<_>>(),
                    "n = {n}, threads = {threads}"
                );
                if n < threads * super::BATCHES_PER_WORKER {
                    continue;
                }
                // each worker's items ascend in runs of whole batches: a run
                // starts on a batch boundary and ends on one or at `n`
                let batch = super::batch_len(n, workers);
                for items in per_worker.values() {
                    assert!(items.windows(2).all(|p| p[0] < p[1]), "items not ascending");
                    let mut run_start = items[0];
                    for (k, &i) in items.iter().enumerate() {
                        let run_ends = items.get(k + 1) != Some(&(i + 1));
                        if run_ends {
                            assert_eq!(run_start % batch, 0, "run starts mid-batch");
                            assert!((i + 1) % batch == 0 || i + 1 == n, "run ends mid-batch");
                            if let Some(&next) = items.get(k + 1) {
                                run_start = next;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_calls_keep_batches_of_one() {
        for threads in THREADS {
            assert_eq!(super::batch_len(threads * 64, threads), 1);
            assert_eq!(super::batch_len(1, threads), 1);
            assert_eq!(super::batch_len(threads * 128, threads), 2);
        }
        assert_eq!(super::batch_len(10_007, 2), 78);
    }

    #[test]
    fn map_collect_preserves_order() {
        let mut v: Vec<u32> = (0..1000).collect();
        let out: Vec<u64> = v
            .par_iter_mut()
            .enumerate()
            .map(|(i, x)| (*x as u64) * 2 + i as u64)
            .collect();
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i as u64 * 3);
        }
    }
}
