//! Offline stand-in for `rayon` covering the API subset this workspace
//! uses: `par_iter_mut` / `par_chunks_mut` on slices followed by
//! `enumerate` / `map` / `for_each` / `for_each_init` / `collect`, plus
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] / [`current_num_threads`]
//! for callers that need an explicit worker count (the sweep scheduler's
//! `--jobs` knob, the executor's recorded thread count).
//!
//! Work items are materialised eagerly and evaluated on `std::thread`
//! scoped workers pulling from an atomic cursor (dynamic scheduling, like
//! rayon's work stealing at this granularity). `map` is eager — it
//! evaluates in parallel immediately and yields an ordered result — which
//! is observationally equivalent for the pipelines here.
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
/// (Workers are still scoped per call — this shim has no persistent
/// threads — which preserves rayon's observable ordering semantics.)
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

/// [`par_eval`] with per-worker state: each worker thread calls `init`
/// once and threads the value through every item it evaluates.
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
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // nested parallel calls run inline on this worker
                POOL_THREADS.with(|c| c.set(Some(1)));
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().unwrap().take().expect("item taken once");
                    let r = f(&mut state, item);
                    *out[i].lock().unwrap() = Some(r);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker wrote result"))
        .collect()
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
