//! # brick-prof
//!
//! Performance attribution for the reproduction pipeline, built on the
//! spans and metrics `brick-obs` records:
//!
//! * [`tree::ProfileTree`] — merges a span capture into a hierarchical
//!   profile whose *structure* is invariant under the sweep's `--jobs`
//!   setting (worker-thread root spans are re-parented under their
//!   scheduler span by name; per-cell indices are normalized away), with
//!   wall-time, self-time and allocation attribution per node, exportable
//!   as folded stacks for flamegraph tooling.
//! * [`sweep::SweepProfile`] — the `PROF_sweep.json` artifact: per-phase
//!   (lint/verify, compile, simulate, score, cache-io) wall-time and
//!   allocation totals with log-linear duration histograms, the attributed
//!   fraction of sweep wall time, and the top-N hottest cells.
//! * [`report`] — rustc-style text renderers for both plus
//!   [`gpu_sim::SimIntrospection`], driven by `bricks prof`.
//!
//! Allocation attribution needs a per-thread allocation clock; [`init`]
//! registers the `prof-alloc` counting allocator's clock with `brick-obs`
//! (the allocator itself is installed program-wide by linking
//! `prof-alloc`).

pub mod report;
pub mod sweep;
pub mod tree;

pub use report::{render_introspection, render_sweep_profile, render_tree};
pub use sweep::SweepProfile;
pub use tree::{normalize_name, ProfileNode, ProfileTree};

/// Register the allocation clock so spans attribute per-thread allocated
/// bytes. Idempotent; call once from a binary before enabling tracing.
pub fn init() {
    brick_obs::set_alloc_clock(prof_alloc::thread_allocated_bytes);
}
