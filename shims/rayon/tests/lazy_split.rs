//! The slice iterators split lazily: a parallel call over a million
//! chunks allocates for its batches and workers, not per item.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

/// Bytes requested from the allocator by any thread, counted while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) != 0 {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) != 0 {
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_million_chunk_call_allocates_under_a_mebibyte() {
    const N: usize = 1_000_000;
    let mut v = vec![0u32; N];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(1, Ordering::Relaxed);
    pool.install(|| {
        v.par_chunks_mut(1).enumerate().for_each_init(
            || 0u32,
            |seen, (i, chunk)| {
                *seen += 1;
                chunk[0] = i as u32 + 1;
            },
        );
    });
    COUNTING.store(0, Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    assert!(
        bytes < 1 << 20,
        "a {N}-item call allocated {bytes} bytes; the items must not be materialised"
    );
}
