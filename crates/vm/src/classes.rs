//! Block-class trace memoization.
//!
//! A kernel's address stream over one launch block is determined entirely
//! by the block's *boundary signature* — how its neighbourhood is laid out
//! in memory relative to the block itself. Two blocks with the same
//! signature issue byte-for-byte identical streams up to a single constant
//! address shift, so the stream only has to be generated (and decoded from
//! the vector IR) once per class:
//!
//! * **Array layout**: [`crate::ArrayAddr::addr`] is affine in the logical
//!   coordinates, so every tile's trace is a pure translation of every
//!   other tile's — one class covers the whole launch.
//! * **Brick layout**: a load that leaves the home brick resolves through
//!   the 27-entry adjacency row, so the signature is the vector of
//!   *neighbour-id deltas* relative to the home brick. Under
//!   [`brick_core::BrickOrdering::Lexicographic`] every interior brick has
//!   the same deltas (one class); under `Morton` the deltas vary and the
//!   launch splits into more classes — fewer memoization wins, but replay
//!   stays exact because identical deltas still imply identical relative
//!   streams. With identical deltas, every event address of block *i*
//!   differs from the representative's by `(home_i − home_rep) × brick
//!   bytes`, for loads and stores alike (both allocations index by brick
//!   id), which is exactly the per-block rebase [`BlockClasses::block`]
//!   hands out.
//!
//! [`BlockClasses::compile`] partitions a launch into classes, records the
//! representative stream of each through the ordinary
//! [`crate::KernelSpec::trace_block`] oracle path (so compiled streams can
//! never drift from it), and exposes per-block `(events, delta)` pairs for
//! replay. Event order is preserved exactly as issued — cache hit/miss
//! state depends on order, and the GPU simulator's fast path must be
//! bit-identical to the exact path.

use std::collections::HashMap;

use brick_codegen::LayoutKind;
use brick_core::NO_BRICK;

use crate::exec::VmError;
use crate::geom::TraceGeometry;
use crate::trace::TraceSink;
use crate::KernelSpec;

/// One transaction of a compiled stream: the absolute address it has in
/// the *representative* block's trace, plus size and direction. Replaying
/// for another block of the class adds that block's rebase delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Absolute byte address in the representative block's trace.
    pub addr: u64,
    /// Transaction size in bytes.
    pub bytes: u32,
    /// True for stores, false for loads.
    pub is_store: bool,
}

/// The compiled, compact stream of one block class, in issue order.
#[derive(Debug, Clone, Default)]
pub struct CompiledTrace {
    /// Events of the representative block, in the exact order the kernel
    /// issues them.
    pub events: Vec<StreamEvent>,
    /// Launch index of the block the stream was recorded from.
    pub representative: usize,
}

impl TraceSink for CompiledTrace {
    fn load(&mut self, addr: u64, bytes: u32) {
        self.events.push(StreamEvent {
            addr,
            bytes,
            is_store: false,
        });
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.events.push(StreamEvent {
            addr,
            bytes,
            is_store: true,
        });
    }
}

/// Class membership of one launch block: which compiled stream to replay
/// and the address shift to apply to every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockReplay {
    class: u32,
    delta: i64,
}

/// A launch partitioned into block classes with one compiled stream per
/// class — the memoized form of `for i in 0..num_blocks { trace_block(i) }`.
#[derive(Debug, Clone)]
pub struct BlockClasses {
    classes: Vec<CompiledTrace>,
    blocks: Vec<BlockReplay>,
}

/// Boundary signature + rebase base address of one block.
fn block_signature(geom: &TraceGeometry, i: usize) -> (Vec<i64>, i64) {
    match geom.layout() {
        LayoutKind::Brick => {
            let nav = geom.nav();
            let home = geom.home_brick(i);
            let brick_bytes = nav.dims().volume() as i64 * 8;
            // The adjacency row pins every address the block can touch;
            // unreached NO_BRICK entries get a position-unique sentinel so
            // blocks missing different neighbours never share a class.
            let sig = nav
                .info()
                .row(home)
                .iter()
                .enumerate()
                .map(|(j, &n)| {
                    if n == NO_BRICK {
                        i64::MIN + j as i64
                    } else {
                        n as i64 - home as i64
                    }
                })
                .collect();
            (sig, home as i64 * brick_bytes)
        }
        LayoutKind::Array => {
            // Affine addressing: all tiles are one class; the tile origin's
            // address is the rebase base.
            let [ox, oy, oz] = geom.tile_origin(i);
            (Vec::new(), geom.array_addr().addr(ox, oy, oz) as i64)
        }
    }
}

impl BlockClasses {
    /// Partition the launch of `spec` over `geom` into block classes and
    /// compile one stream per class through the exact
    /// [`KernelSpec::trace_block`] path.
    ///
    /// Fails exactly where `trace_block` would (kernel/geometry mismatch).
    pub fn compile(spec: &KernelSpec, geom: &TraceGeometry) -> Result<BlockClasses, VmError> {
        let num_blocks = geom.num_blocks();
        let mut by_sig: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut classes: Vec<CompiledTrace> = Vec::new();
        let mut class_bases: Vec<i64> = Vec::new();
        let mut blocks = Vec::with_capacity(num_blocks);
        for i in 0..num_blocks {
            let (sig, base) = block_signature(geom, i);
            let class = match by_sig.get(&sig) {
                Some(&c) => c,
                None => {
                    let c = classes.len() as u32;
                    let mut trace = CompiledTrace {
                        events: Vec::new(),
                        representative: i,
                    };
                    spec.trace_block(geom, i, &mut trace)?;
                    classes.push(trace);
                    class_bases.push(base);
                    by_sig.insert(sig, c);
                    c
                }
            };
            blocks.push(BlockReplay {
                class,
                delta: base - class_bases[class as usize],
            });
        }
        Ok(BlockClasses { classes, blocks })
    }

    /// Number of launch blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of distinct block classes (1 for array layouts and
    /// lexicographic brick orderings).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Class index of launch block `i`.
    pub fn class_of(&self, i: usize) -> usize {
        self.blocks[i].class as usize
    }

    /// The compiled stream of class `c`.
    pub fn class(&self, c: usize) -> &CompiledTrace {
        &self.classes[c]
    }

    /// Replay data for launch block `i`: the class events plus the rebase
    /// delta to add (wrapping) to every event address.
    #[inline]
    pub fn block(&self, i: usize) -> (&[StreamEvent], i64) {
        let r = self.blocks[i];
        (&self.classes[r.class as usize].events, r.delta)
    }

    /// Replay block `i` into an ordinary [`TraceSink`] — equivalent to
    /// [`KernelSpec::trace_block`] on the same block, event for event.
    pub fn replay_block(&self, i: usize, sink: &mut impl TraceSink) {
        let (events, delta) = self.block(i);
        for e in events {
            let addr = e.addr.wrapping_add_signed(delta);
            if e.is_store {
                sink.store(addr, e.bytes);
            } else {
                sink.load(addr, e.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordingSink;
    use brick_codegen::{generate, CodegenOptions};
    use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
    use brick_dsl::shape::StencilShape;
    use std::sync::Arc;

    fn brick_geom(n: usize, width: usize, radius: usize, ordering: BrickOrdering) -> TraceGeometry {
        let d = Arc::new(BrickDecomp::new(
            (n.max(width), n, n),
            BrickDims::for_simd_width(width),
            radius,
            ordering,
        ));
        TraceGeometry::brick(Arc::new(BrickNav::new(d)))
    }

    fn vector_spec(shape: StencilShape, layout: LayoutKind, width: usize) -> KernelSpec {
        let st = shape.stencil();
        let b = st.default_bindings();
        KernelSpec::Vector(generate(&st, &b, layout, width, CodegenOptions::default()).unwrap())
    }

    fn assert_replay_matches_oracle(spec: &KernelSpec, geom: &TraceGeometry) {
        let classes = BlockClasses::compile(spec, geom).unwrap();
        assert_eq!(classes.num_blocks(), geom.num_blocks());
        for i in 0..geom.num_blocks() {
            let mut oracle = RecordingSink::default();
            spec.trace_block(geom, i, &mut oracle).unwrap();
            let mut replay = RecordingSink::default();
            classes.replay_block(i, &mut replay);
            assert_eq!(replay.events, oracle.events, "block {i} diverged");
        }
    }

    #[test]
    fn lexicographic_bricks_collapse_to_one_class() {
        let spec = vector_spec(StencilShape::star(2), LayoutKind::Brick, 16);
        let geom = brick_geom(16, 16, 2, BrickOrdering::Lexicographic);
        let classes = BlockClasses::compile(&spec, &geom).unwrap();
        assert_eq!(classes.num_classes(), 1);
        assert_replay_matches_oracle(&spec, &geom);
    }

    #[test]
    fn array_tiles_collapse_to_one_class() {
        let spec = vector_spec(StencilShape::cube(1), LayoutKind::Array, 16);
        let geom = TraceGeometry::array((16, 16, 16), 1, BrickDims::for_simd_width(16));
        let classes = BlockClasses::compile(&spec, &geom).unwrap();
        assert_eq!(classes.num_classes(), 1);
        assert_replay_matches_oracle(&spec, &geom);
    }

    #[test]
    fn morton_ordering_splits_but_replays_exactly() {
        let spec = vector_spec(StencilShape::star(1), LayoutKind::Brick, 16);
        let geom = brick_geom(16, 16, 1, BrickOrdering::Morton);
        let classes = BlockClasses::compile(&spec, &geom).unwrap();
        assert!(classes.num_classes() >= 1);
        assert!(classes.num_classes() <= classes.num_blocks());
        assert_replay_matches_oracle(&spec, &geom);
    }

    #[test]
    fn scalar_kernels_compile_too() {
        let st = StencilShape::star(2).stencil();
        let b = st.default_bindings();
        let spec =
            KernelSpec::Scalar(crate::ScalarKernel::new(&st, &b, LayoutKind::Brick, 16).unwrap());
        let geom = brick_geom(16, 16, 2, BrickOrdering::Lexicographic);
        assert_replay_matches_oracle(&spec, &geom);
    }

    #[test]
    fn total_events_matches_oracle_totals() {
        let spec = vector_spec(StencilShape::star(1), LayoutKind::Brick, 16);
        let geom = brick_geom(16, 16, 1, BrickOrdering::Lexicographic);
        let classes = BlockClasses::compile(&spec, &geom).unwrap();
        let mut oracle = RecordingSink::default();
        for i in 0..geom.num_blocks() {
            spec.trace_block(&geom, i, &mut oracle).unwrap();
        }
        let replayed: usize = classes
            .blocks
            .iter()
            .map(|b| classes.classes[b.class as usize].events.len())
            .sum();
        assert_eq!(replayed, oracle.events.len());
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let spec = vector_spec(StencilShape::star(1), LayoutKind::Brick, 16);
        let geom = TraceGeometry::array((16, 16, 16), 1, BrickDims::for_simd_width(16));
        assert!(matches!(
            BlockClasses::compile(&spec, &geom),
            Err(VmError::Mismatch(_))
        ));
    }
}
