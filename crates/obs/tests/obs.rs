//! Integration tests over brick-obs's global state: span nesting and
//! ordering (including under threads), and the Chrome trace and JSONL
//! exports.
//!
//! The span store is process-global, so tests that use it serialize on
//! one lock and clear the store at entry.

use std::sync::Mutex;

use brick_obs::trace::{chrome_trace_json, parse_spans_jsonl, spans_jsonl};
use brick_obs::{set_tracing, span, span_cat};

static LOCK: Mutex<()> = Mutex::new(());

fn with_clean_tracing<R>(f: impl FnOnce() -> R) -> R {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    brick_obs::span::clear_spans();
    set_tracing(true);
    let r = f();
    set_tracing(false);
    r
}

#[test]
fn spans_nest_and_order_on_one_thread() {
    with_clean_tracing(|| {
        {
            let _outer = span("outer");
            {
                let _inner = span_cat("inner", "codegen");
            }
            let _sibling = span("sibling");
        }
        let spans = brick_obs::span::spans_snapshot();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = &spans[spans.iter().position(|s| s.name == "inner").unwrap()];
        let sibling = &spans[spans.iter().position(|s| s.name == "sibling").unwrap()];

        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[outer].depth, 0);
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.depth, 1);
        assert_eq!(sibling.parent, Some(outer));
        assert_eq!(inner.cat, "codegen");

        // containment: children start no earlier and end no later
        for child in [inner, sibling] {
            assert!(child.start_ns >= spans[outer].start_ns);
            assert!(child.start_ns + child.dur_ns <= spans[outer].start_ns + spans[outer].dur_ns);
        }
        // ordering: inner closed before sibling opened
        assert!(inner.start_ns + inner.dur_ns <= sibling.start_ns);
    });
}

#[test]
fn threads_get_independent_stacks() {
    with_clean_tracing(|| {
        let _root = span("main-root");
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let _w = span(format!("worker-{t}"));
                    let _c = span(format!("worker-{t}-child"));
                });
            }
        });
        let spans = brick_obs::span::spans_snapshot();
        let root_tid = spans
            .iter()
            .find(|s| s.name == "main-root")
            .map(|s| s.tid)
            .unwrap();
        for t in 0..4 {
            let w = spans
                .iter()
                .find(|s| s.name == format!("worker-{t}"))
                .unwrap();
            let c = spans
                .iter()
                .find(|s| s.name == format!("worker-{t}-child"))
                .unwrap();
            // a worker's root has no parent: nesting is per-thread, so the
            // main thread's open span must not adopt other threads' spans
            assert_eq!(w.parent, None, "worker-{t} must be a root");
            assert_eq!(w.depth, 0);
            assert_ne!(w.tid, root_tid);
            assert_eq!(c.tid, w.tid);
            assert_eq!(c.depth, 1);
            assert_eq!(spans[c.parent.unwrap()].name, format!("worker-{t}"));
        }
    });
}

#[test]
fn chrome_trace_is_valid_json_with_one_event_per_span() {
    with_clean_tracing(|| {
        {
            let _a = span_cat("memory-sim", "memory-sim");
            let _b = span_cat("timing", "timing");
        }
        let json = chrome_trace_json();

        // schema: object form, complete events, µs timestamps
        let v = serde_json::parse(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
            assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            assert!(e.get("pid").and_then(|p| p.as_u64()).is_some());
            assert!(e.get("tid").and_then(|t| t.as_u64()).is_some());
        }
        let field = |k: &str| -> Vec<&str> {
            events
                .iter()
                .filter_map(|e| e.get(k).and_then(|n| n.as_str()))
                .collect()
        };
        let names = field("name");
        assert!(names.contains(&"memory-sim") && names.contains(&"timing"));
        assert!(field("cat").contains(&"memory-sim"));
    });
}

#[test]
fn jsonl_is_one_valid_object_per_line() {
    with_clean_tracing(|| {
        {
            let _a = span("alpha");
            let _b = span("beta");
        }
        let jsonl = spans_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = serde_json::parse(line).unwrap();
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
            assert!(v.get("start_ns").and_then(|n| n.as_u64()).is_some());
            assert!(v.get("dur_ns").and_then(|n| n.as_u64()).is_some());
        }
    });
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    brick_obs::span::clear_spans();
    set_tracing(false);
    {
        let _s = span("invisible");
    }
    assert_eq!(brick_obs::span::spans_recorded(), 0);
    let v = serde_json::parse(&chrome_trace_json()).unwrap();
    let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(events.is_empty());
    assert!(parse_spans_jsonl(&spans_jsonl()).unwrap().is_empty());
}
