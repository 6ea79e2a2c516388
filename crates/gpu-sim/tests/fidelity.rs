//! Differential oracle suite: the simulator vs the exact per-block tracer
//! [`gpu_sim::simulate_memory_exact`].
//!
//! The simulator (block-class memoization + batched cache replay, SM
//! grouping, wave fast-forward) is a pure reformulation of the exact
//! per-block trace, so every counter it produces must match to the last
//! byte — exact `u64` equality on `MemCounters` and per-level
//! `CacheStats`, no tolerances. The matrix covers every paper stencil
//! (star 1–4, cube 1–2) × SIMD width {16, 32, 64} × both layouts at two
//! domain sizes, on the architecture model that owns each width (PVC
//! stack / A100 / MI250X GCD).
//!
//! Width-64 bricks need x-extents that are multiples of 64, so those
//! cells run at 64³ and 128³ instead of 96³.

use brick_codegen::{generate, CodegenOptions, LayoutKind};
use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use brick_dsl::shape::StencilShape;
use brick_vm::{KernelSpec, ScalarKernel, TraceGeometry};
use gpu_sim::{simulate_memory, simulate_memory_exact, simulate_memory_opts, GpuArch, SimOptions};
use std::sync::Arc;

/// star 1–4 and cube 1–2: the full paper suite.
fn paper_shapes() -> Vec<StencilShape> {
    vec![
        StencilShape::star(1),
        StencilShape::star(2),
        StencilShape::star(3),
        StencilShape::star(4),
        StencilShape::cube(1),
        StencilShape::cube(2),
    ]
}

fn arch_for_width(width: usize) -> GpuArch {
    match width {
        16 => GpuArch::pvc_stack(),
        32 => GpuArch::a100(),
        64 => GpuArch::mi250x_gcd(),
        other => panic!("no architecture models width {other}"),
    }
}

fn geometry(layout: LayoutKind, n: usize, width: usize, radius: usize) -> TraceGeometry {
    let extents = (n.max(width), n, n);
    match layout {
        LayoutKind::Brick => {
            let d = Arc::new(BrickDecomp::new(
                extents,
                BrickDims::for_simd_width(width),
                radius,
                BrickOrdering::Lexicographic,
            ));
            TraceGeometry::brick(Arc::new(BrickNav::new(d)))
        }
        LayoutKind::Array => {
            TraceGeometry::array(extents, radius, BrickDims::for_simd_width(width))
        }
    }
}

/// Run the simulator and the oracle and demand bit-identical reports.
fn assert_matches_oracle(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    opts: SimOptions,
) {
    let exact = simulate_memory_exact(spec, geom, arch, 8, &opts);
    let fast = simulate_memory_opts(spec, geom, arch, 8, &opts);
    let tag = format!("{} on {} ({:?})", spec.name(), arch.name, geom.extents());
    assert_eq!(exact.counters(), fast.counters(), "MemCounters: {tag}");
    assert_eq!(exact.l1, fast.l1, "L1 CacheStats: {tag}");
    assert_eq!(exact.l2, fast.l2, "L2 CacheStats: {tag}");
    assert_eq!(exact.pages, fast.pages, "DRAM pages: {tag}");
}

/// One width × one domain size, all paper stencils × both layouts,
/// vector (codegen) kernels.
fn run_matrix(width: usize, n: usize) {
    let arch = arch_for_width(width);
    for shape in paper_shapes() {
        let st = shape.stencil();
        let b = st.default_bindings();
        let radius = shape.radius as usize;
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            let spec = KernelSpec::Vector(
                generate(&st, &b, layout, width, CodegenOptions::default()).unwrap(),
            );
            let geom = geometry(layout, n, width, radius);
            assert_matches_oracle(&spec, &geom, &arch, SimOptions::default());
        }
    }
}

#[test]
fn width16_at_64() {
    run_matrix(16, 64);
}

#[test]
fn width16_at_96() {
    run_matrix(16, 96);
}

#[test]
fn width32_at_64() {
    run_matrix(32, 64);
}

#[test]
fn width32_at_96() {
    run_matrix(32, 96);
}

#[test]
fn width64_at_64() {
    run_matrix(64, 64);
}

#[test]
fn width64_at_128() {
    run_matrix(64, 128);
}

#[test]
fn scalar_kernels_both_layouts() {
    // the plain `array` configuration of the paper, plus the un-generated
    // brick kernel — the scalar trace path must memoize exactly too
    let width = 32;
    let arch = arch_for_width(width);
    for shape in paper_shapes() {
        let st = shape.stencil();
        let b = st.default_bindings();
        let radius = shape.radius as usize;
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            let spec = KernelSpec::Scalar(ScalarKernel::new(&st, &b, layout, width).unwrap());
            let geom = geometry(layout, 64, width, radius);
            assert_matches_oracle(&spec, &geom, &arch, SimOptions::default());
        }
    }
}

#[test]
fn morton_ordering_stays_exact() {
    // Morton splits the launch into many classes; agreement with the
    // oracle must not depend on the class count
    let width = 32;
    let arch = arch_for_width(width);
    let shape = StencilShape::star(2);
    let st = shape.stencil();
    let b = st.default_bindings();
    let spec = KernelSpec::Vector(
        generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default()).unwrap(),
    );
    let d = Arc::new(BrickDecomp::new(
        (64, 64, 64),
        BrickDims::for_simd_width(width),
        2,
        BrickOrdering::Morton,
    ));
    let geom = TraceGeometry::brick(Arc::new(BrickNav::new(d)));
    assert_matches_oracle(&spec, &geom, &arch, SimOptions::default());
}

#[test]
fn fidelity_holds_under_pinned_interleave_chunk() {
    // interleave_chunk is the one SimOptions field; pin it to
    // pathological values and the simulator must still agree with the
    // oracle (the chunking applies to the L2 feed, after trace generation)
    let width = 32;
    let arch = arch_for_width(width);
    let shape = StencilShape::cube(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let spec = KernelSpec::Vector(
        generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default()).unwrap(),
    );
    let geom = geometry(LayoutKind::Brick, 64, width, 1);
    for chunk in [1usize, 7, 1024, 1 << 20] {
        assert_matches_oracle(
            &spec,
            &geom,
            &arch,
            SimOptions {
                interleave_chunk: chunk,
            },
        );
    }
}

#[test]
fn default_options_are_the_documented_schema() {
    // the default is part of the simulator's schema: a 1024-event L2
    // interleave — and the no-options entry point must be exactly the
    // default-options one
    let opts = SimOptions::default();
    assert_eq!(
        opts,
        SimOptions {
            interleave_chunk: 1024
        }
    );

    let width = 32;
    let arch = arch_for_width(width);
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let spec = KernelSpec::Vector(
        generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default()).unwrap(),
    );
    let geom = geometry(LayoutKind::Brick, 64, width, 1);
    let a = simulate_memory(&spec, &geom, &arch, 8);
    let bft = simulate_memory_opts(&spec, &geom, &arch, 8, &opts);
    assert_eq!(a.counters(), bft.counters());
    assert_eq!(a.l1, bft.l1);
    assert_eq!(a.l2, bft.l2);
}
