//! Hierarchical RAII span tracing.
//!
//! [`span`] opens a span; dropping the returned [`SpanGuard`] closes it.
//! Nesting is tracked per thread, so the recorded spans form a forest
//! (per-thread trees) suitable for flame views. Timing uses a single
//! process-wide monotonic epoch, so spans from different threads share a
//! timeline.
//!
//! Tracing is **off** by default: a disabled [`span`] call is one relaxed
//! atomic load and returns an inert guard. [`set_tracing`] turns
//! recording on.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Pluggable per-thread allocation clock (monotone bytes-allocated
/// counter). `brick-obs` stays dependency-free: the binary (or
/// `brick-prof`) registers `prof_alloc::thread_allocated_bytes` here and
/// every span then records the bytes allocated between entry and exit.
static ALLOC_CLOCK: OnceLock<fn() -> u64> = OnceLock::new();

/// Register the allocation clock spans sample at entry/exit. The clock
/// must be monotone and per-thread (e.g.
/// `prof_alloc::thread_allocated_bytes`). First registration wins;
/// later calls are ignored, so it is safe to call from several
/// entry points.
pub fn set_alloc_clock(clock: fn() -> u64) {
    let _ = ALLOC_CLOCK.set(clock);
}

#[inline]
fn alloc_now() -> u64 {
    match ALLOC_CLOCK.get() {
        Some(f) => f(),
        None => 0,
    }
}

/// Enable or disable span recording process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One completed (or still-open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name.
    pub name: Cow<'static, str>,
    /// Category (Chrome trace `cat` field), e.g. `"codegen"`.
    pub cat: &'static str,
    /// Small dense id of the recording thread (1 = first thread seen).
    pub tid: u64,
    /// Nanoseconds from the trace epoch to span entry.
    pub start_ns: u64,
    /// Span duration in nanoseconds (`u64::MAX` while still open).
    pub dur_ns: u64,
    /// Index of the enclosing span in the store, if any.
    pub parent: Option<usize>,
    /// Nesting depth on its thread (0 = root).
    pub depth: u32,
    /// Bytes allocated on the opening thread while the span was open
    /// (0 unless an allocation clock is registered via
    /// [`set_alloc_clock`]). While the span is still open this holds the
    /// clock reading at entry — exports filter on [`SpanRecord::closed`].
    pub alloc_bytes: u64,
}

impl SpanRecord {
    /// True once the span has been closed.
    pub fn closed(&self) -> bool {
        self.dur_ns != u64::MAX
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static STORE: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard closing its span on drop. Inert when tracing is disabled.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    idx: Option<usize>,
}

/// Open a span named `name` in the default category.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    span_cat(name, "run")
}

/// Open a span with an explicit Chrome-trace category.
pub fn span_cat(name: impl Into<Cow<'static, str>>, cat: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { idx: None };
    }
    let tid = TID.with(|t| *t);
    let (parent, depth) = STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied(), s.len() as u32)
    });
    let rec = SpanRecord {
        name: name.into(),
        cat,
        tid,
        start_ns: now_ns(),
        dur_ns: u64::MAX,
        parent,
        depth,
        alloc_bytes: alloc_now(),
    };
    let idx = {
        let mut store = STORE.lock().unwrap();
        store.push(rec);
        store.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    SpanGuard { idx: Some(idx) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let end = now_ns();
        let alloc_end = alloc_now();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order per thread, but be tolerant of a
            // guard outliving (moved out of) its scope: pop through it.
            while let Some(top) = stack.pop() {
                if top == idx {
                    break;
                }
            }
        });
        let mut store = STORE.lock().unwrap();
        let rec = &mut store[idx];
        rec.dur_ns = end.saturating_sub(rec.start_ns);
        rec.alloc_bytes = alloc_end.saturating_sub(rec.alloc_bytes);
    }
}

/// Snapshot all recorded spans (open spans included, `dur_ns == u64::MAX`).
pub fn spans_snapshot() -> Vec<SpanRecord> {
    STORE.lock().unwrap().clone()
}

/// Drop all recorded spans (the per-thread nesting stacks are untouched,
/// so call this only between top-level spans).
pub fn clear_spans() {
    STORE.lock().unwrap().clear();
}

/// Number of spans currently recorded.
pub fn spans_recorded() -> u64 {
    STORE.lock().unwrap().len() as u64
}
