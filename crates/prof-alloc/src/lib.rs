//! # prof-alloc
//!
//! A counting wrapper around the system allocator, installed as the
//! process-wide `#[global_allocator]` for every binary that links this
//! crate (directly or through `brick-prof`). It maintains two monotone
//! "allocation clocks":
//!
//! * [`thread_allocated_bytes`] — bytes allocated by the *current thread*
//!   since it started. Reading it twice and subtracting gives the exact
//!   allocation volume of the code in between, which is how `brick-obs`
//!   spans attribute heap traffic (see `brick_obs::span::set_alloc_clock`).
//! * [`global_allocated_bytes`] — bytes allocated by the whole process.
//!
//! Only allocations are counted (plus the grown tail of reallocations);
//! frees are not subtracted. A *clock* must be monotone — profilers
//! difference it across span boundaries, and a net-bytes gauge would go
//! backwards and produce negative deltas under churn.
//!
//! The counting costs one thread-local add per allocation on top of the
//! system allocator; `experiments --bench overhead` gates the end-to-end
//! cost.
//!
//! This crate is the workspace's single sanctioned `unsafe` island: the
//! `GlobalAlloc` trait is unsafe by signature, so the crate opts out of
//! the workspace-wide `unsafe_code = "forbid"` lint and keeps the unsafe
//! surface to pure delegation into [`std::alloc::System`].

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide allocation clock (bytes allocated, never decremented).
static GLOBAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread allocation clock. `const` init keeps the fast path a
    /// plain TLS add with no lazy-initialisation branch.
    static THREAD_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(bytes: usize) {
    let bytes = bytes as u64;
    GLOBAL_ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    // During thread teardown the TLS slot may already be destroyed;
    // dropping those few bytes from the per-thread clock is harmless
    // (the global clock still sees them).
    let _ = THREAD_ALLOCATED.try_with(|t| t.set(t.get() + bytes));
}

/// Bytes allocated by the current thread since it started. Monotone;
/// difference two readings to measure a region.
#[inline]
pub fn thread_allocated_bytes() -> u64 {
    THREAD_ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// Bytes allocated by the whole process since start. Monotone.
#[inline]
pub fn global_allocated_bytes() -> u64 {
    GLOBAL_ALLOCATED.load(Ordering::Relaxed)
}

/// The counting allocator: [`System`] plus the two clocks above.
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`, which upholds every GlobalAlloc
// contract; the added counting touches only our own atomics/TLS and
// never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && new_size > layout.size() {
            count(new_size - layout.size());
        }
        p
    }
}

/// Installed for every binary in the dependency closure of this crate.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_allocations() {
        let t0 = thread_allocated_bytes();
        let g0 = global_allocated_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let t1 = thread_allocated_bytes();
        let g1 = global_allocated_bytes();
        assert!(t1 >= t0 + (1 << 16), "thread clock {t0} -> {t1}");
        assert!(g1 >= g0 + (1 << 16), "global clock {g0} -> {g1}");
        drop(v);
        // monotone: frees are not subtracted
        assert!(thread_allocated_bytes() >= t1);
    }

    #[test]
    fn realloc_growth_is_counted() {
        let t0 = thread_allocated_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        for i in 0..4096u32 {
            v.push(i as u8);
        }
        assert!(thread_allocated_bytes() >= t0 + 4096);
    }

    #[test]
    fn other_threads_do_not_advance_this_clock() {
        let t0 = thread_allocated_bytes();
        std::thread::spawn(|| {
            let _big: Vec<u8> = Vec::with_capacity(1 << 20);
            assert!(thread_allocated_bytes() >= 1 << 20);
        })
        .join()
        .unwrap();
        // this thread's clock unchanged by the worker's megabyte (join
        // itself may allocate a little, so allow slack well under 1 MiB)
        assert!(thread_allocated_bytes() - t0 < 1 << 18);
    }
}
