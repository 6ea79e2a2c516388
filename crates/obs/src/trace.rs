//! Span export: Chrome `trace_event` JSON for viewers, and JSONL, the one
//! format the tools read back ([`parse_spans_jsonl`]).
//!
//! The Chrome format is the `{"traceEvents": [...]}` object form with
//! complete (`"ph": "X"`) events — directly loadable in
//! `chrome://tracing` and Perfetto. Timestamps and durations are
//! microseconds (fractional), per the trace-event spec. It is write-only:
//! it nests events by thread id, which cannot re-parent a cell run on a
//! worker thread under the sweep that scheduled it; JSONL keeps each
//! span's parent index.

use serde_json::Value;

use crate::span::{spans_snapshot, SpanRecord};

fn chrome_value(spans: &[SpanRecord]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .filter(|s| s.closed())
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.to_string())),
                ("cat".into(), Value::Str(s.cat.to_string())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::F64(s.dur_ns as f64 / 1e3)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(s.tid)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

/// Serialize `spans` as Chrome `trace_event` JSON.
pub fn chrome_trace_json_for(spans: &[SpanRecord]) -> String {
    serde_json::to_string_pretty(&chrome_value(spans)).expect("Value serialization is total")
}

/// Serialize every recorded span as Chrome `trace_event` JSON.
pub fn chrome_trace_json() -> String {
    chrome_trace_json_for(&spans_snapshot())
}

/// Serialize `spans` as JSONL: one span object per line.
pub fn spans_jsonl_for(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans.iter().filter(|s| s.closed()) {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str(s.name.to_string())),
            ("cat".into(), Value::Str(s.cat.to_string())),
            ("tid".into(), Value::U64(s.tid)),
            ("start_ns".into(), Value::U64(s.start_ns)),
            ("dur_ns".into(), Value::U64(s.dur_ns)),
            (
                "parent".into(),
                match s.parent {
                    Some(p) => Value::U64(p as u64),
                    None => Value::Null,
                },
            ),
            ("depth".into(), Value::U64(s.depth as u64)),
            ("alloc_bytes".into(), Value::U64(s.alloc_bytes)),
        ]);
        out.push_str(&serde_json::to_string(&v).expect("Value serialization is total"));
        out.push('\n');
    }
    out
}

/// Serialize every recorded span as JSONL.
pub fn spans_jsonl() -> String {
    spans_jsonl_for(&spans_snapshot())
}

/// An owned span, decoupled from the live store: what
/// [`parse_spans_jsonl`] returns and what profile builders consume
/// (`SpanRecord` borrows `'static` names and cannot be parsed back).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Dense thread id.
    pub tid: u64,
    /// Nanoseconds from the trace epoch to entry.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span within the same span list.
    pub parent: Option<usize>,
    /// Nesting depth on its thread.
    pub depth: u32,
    /// Bytes allocated on the opening thread while the span was open.
    pub alloc_bytes: u64,
}

impl From<&SpanRecord> for SpanData {
    fn from(s: &SpanRecord) -> SpanData {
        SpanData {
            name: s.name.to_string(),
            cat: s.cat.to_string(),
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            parent: s.parent,
            depth: s.depth,
            alloc_bytes: s.alloc_bytes,
        }
    }
}

/// Snapshot every *closed* recorded span as owned [`SpanData`], with
/// `parent` indices re-mapped to the filtered list.
pub fn spans_data() -> Vec<SpanData> {
    let all = spans_snapshot();
    // map store index -> filtered index for parent remapping
    let mut remap: Vec<Option<usize>> = vec![None; all.len()];
    let mut out = Vec::new();
    for (i, s) in all.iter().enumerate() {
        if !s.closed() {
            continue;
        }
        remap[i] = Some(out.len());
        let mut d = SpanData::from(s);
        d.parent = s.parent.and_then(|p| remap.get(p).copied().flatten());
        out.push(d);
    }
    out
}

/// Parse a spans JSONL document produced by [`spans_jsonl`]. Blank lines
/// are skipped; a missing `alloc_bytes` (older traces) reads as 0.
pub fn parse_spans_jsonl(text: &str) -> Result<Vec<SpanData>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = serde_json::parse(line).map_err(|e| format!("line {}: {}", lineno + 1, e.0))?;
        let str_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing {k}", lineno + 1))
        };
        let u64_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: missing {k}", lineno + 1))
        };
        out.push(SpanData {
            name: str_of("name")?,
            cat: str_of("cat")?,
            tid: u64_of("tid")?,
            start_ns: u64_of("start_ns")?,
            dur_ns: u64_of("dur_ns")?,
            parent: v.get("parent").and_then(Value::as_u64).map(|p| p as usize),
            depth: u64_of("depth")? as u32,
            alloc_bytes: v.get("alloc_bytes").and_then(Value::as_u64).unwrap_or(0),
        });
    }
    Ok(out)
}
