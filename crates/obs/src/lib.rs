//! # brick-obs
//!
//! Observability for the reproduction pipeline. Four pieces, all
//! dependency-free beyond the workspace serde shim:
//!
//! * **Spans** ([`span`], [`span_cat`]) — hierarchical RAII tracing on a
//!   monotonic clock. Disabled by default; a single atomic load when off.
//!   Enabled spans land in a global, thread-safe span tree exportable as
//!   Chrome `trace_event` JSON ([`trace::chrome_trace_json`], loadable in
//!   `chrome://tracing` or Perfetto) or JSONL ([`trace::spans_jsonl`]).
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`]) —
//!   a global registry of named counters, gauges and log-linear
//!   histograms, snapshotted with [`metrics::snapshot`].
//! * **Logging** — `BRICK_LOG`-filtered leveled logging
//!   (`BRICK_LOG=debug`, `BRICK_LOG=info,gpu_sim=trace`) through the
//!   [`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`trace!`] macros, plus
//!   [`progress::Progress`] rate/ETA reporting for long sweeps.
//! * **Provenance** ([`manifest::RunManifest`]) — git SHA, config hash,
//!   per-record wall time and an observability summary, serialized
//!   alongside sweep artifacts.
//!
//! Binaries call [`init`] once; library crates just emit — everything is
//! quiet and near-free until `BRICK_LOG` or the caller turns it on.

pub mod logging;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod span;
pub mod trace;

pub use logging::{log_emit, log_level_enabled, parse_filter, set_filter, EnvFilter, Level};
pub use manifest::RunManifest;
pub use metrics::{counter_add, counter_value, gauge_set, histogram_record, MetricsSnapshot};
pub use progress::Progress;
pub use span::{
    clear_spans, set_alloc_clock, set_tracing, span, span_cat, tracing_enabled, SpanGuard,
    SpanRecord,
};
pub use trace::SpanData;

/// Initialise logging from the environment: `BRICK_LOG` selects the log
/// filter (default `warn`). Span tracing stays off until the caller turns
/// it on with [`set_tracing`]. Idempotent; binaries call it first thing
/// in `main`.
pub fn init() {
    if let Ok(spec) = std::env::var("BRICK_LOG") {
        match parse_filter(&spec) {
            Ok(f) => set_filter(f),
            Err(e) => eprintln!("brick-obs: ignoring invalid BRICK_LOG ({e})"),
        }
    }
}
