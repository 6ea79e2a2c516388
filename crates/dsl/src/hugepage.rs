//! Transparent-huge-page advice for large grid buffers.
//!
//! A brick of `4 × 4 × 32` doubles is one 4 KiB page, so the first sweep
//! into a freshly allocated 1 GiB grid takes one page fault per brick.
//! Advising the kernel that the buffer may be backed by 2 MiB pages cuts
//! those faults 512-fold where transparent huge pages run in `madvise`
//! mode. The advice changes no contents and no mappings, so callers see
//! the same zeroed buffer either way.
//!
//! This module holds the crate's only `unsafe` block: the `madvise` call.
#![allow(unsafe_code)]

/// Bytes in one transparent huge page on the targets this advises on.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// Advise the kernel to back the 2 MiB-aligned interior of `buf` with
/// transparent huge pages. Best effort: a buffer without a whole aligned
/// huge page in it, or a refused call, leaves the buffer as it is.
#[cfg(all(target_os = "linux", not(miri)))]
pub(crate) fn advise(buf: &mut [f64]) {
    use std::ffi::{c_int, c_void};

    /// `MADV_HUGEPAGE` from Linux's `asm-generic/mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    let start = buf.as_mut_ptr() as usize;
    let end = start + std::mem::size_of_val(buf);
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = end / HUGE_PAGE * HUGE_PAGE;
    if lo >= hi {
        return;
    }
    // SAFETY: `MADV_HUGEPAGE` is advice only: it changes no contents, no
    // protections and no mappings of the range, only how the kernel may
    // back later faults in it. `[lo, hi)` is page-aligned and lies inside
    // `buf`, a live allocation this function borrows exclusively, so no
    // other code can unmap or reallocate it during the call. The return
    // value is ignored: a refusal (THP disabled, an old kernel) leaves the
    // range on ordinary pages, which is correct, only slower.
    unsafe {
        madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE);
    }
}

/// No huge-page advice off Linux or under Miri.
#[cfg(not(all(target_os = "linux", not(miri))))]
pub(crate) fn advise(_buf: &mut [f64]) {}
