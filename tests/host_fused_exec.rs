//! The host executor's fused tapes on the kernels the `exec-mixed-256`
//! benchmark runs — the 7-point star on the array layout, the 7-point
//! star fused over `T = 2` timesteps on bricks, and the 125-point cube on
//! bricks, all at vector width 32 — and on the folded width 128 (two
//! 64-lane vectors per brick row, the tuner's `fold_factor = 2`), at a
//! small `n`.
//!
//! Each kernel must compile (a compiled plan always runs on fused tapes),
//! and `ExecutionMode::Auto` must reproduce `Backend::Interpreter` bit
//! for bit over the whole output buffer. Both outputs are filled with a
//! sentinel first, so a cell one path writes and the other leaves alone
//! shows up as a difference.

use std::sync::Arc;

use bricks_repro::codegen::{generate, CodegenOptions, LayoutKind, VectorKernel};
use bricks_repro::core::{ArrayGrid, BrickDims, BrickGrid};
use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::dsl::DenseGrid;
use bricks_repro::vm::{
    run_vector_array, run_vector_array_backend, run_vector_brick, run_vector_brick_backend,
    Backend, Plan,
};

const N: usize = 32;
const SENTINEL: f64 = f64::MAX;

/// `(shape, layout, temporal degree)` of every `exec-mixed-256` kernel.
fn mixed_cases() -> [(StencilShape, LayoutKind, u32); 3] {
    [
        (StencilShape::star(1), LayoutKind::Array, 1),
        (StencilShape::star(1), LayoutKind::Brick, 2),
        (StencilShape::cube(2), LayoutKind::Brick, 1),
    ]
}

fn kernel(
    shape: StencilShape,
    layout: LayoutKind,
    temporal_degree: u32,
    width: usize,
) -> VectorKernel {
    let st = shape.stencil();
    let opts = CodegenOptions {
        temporal_degree,
        ..CodegenOptions::default()
    };
    generate(&st, &st.default_bindings(), layout, width, opts).unwrap()
}

/// Whole output storage of `k` over `input`: the native path under
/// `Auto` when `native`, else the interpreter.
fn run(k: &VectorKernel, input: &DenseGrid, native: bool) -> Vec<f64> {
    match k.layout {
        LayoutKind::Brick => {
            let grid = BrickGrid::from_dense(input, BrickDims::for_simd_width(k.width));
            let mut out =
                BrickGrid::with_metadata(Arc::clone(grid.decomp()), Arc::clone(grid.info()));
            out.raw_mut().fill(SENTINEL);
            if native {
                run_vector_brick(k, &grid, &mut out).unwrap();
            } else {
                run_vector_brick_backend(k, &grid, &mut out, Backend::Interpreter).unwrap();
            }
            out.raw().to_vec()
        }
        LayoutKind::Array => {
            let grid = ArrayGrid::from_dense(input);
            let (nx, ny, nz) = input.extents();
            let mut out = ArrayGrid::new(nx, ny, nz, input.halo());
            out.dense_mut().raw_mut().fill(SENTINEL);
            if native {
                run_vector_array(k, &grid, &mut out).unwrap();
            } else {
                run_vector_array_backend(k, &grid, &mut out, Backend::Interpreter).unwrap();
            }
            out.dense().raw().to_vec()
        }
    }
}

/// Compile `k`, run it natively and on the interpreter over `input`, and
/// require every word of the two outputs to agree.
fn assert_fused_and_bit_identical(k: &VectorKernel, input: &DenseGrid, ctx: &str) {
    if let Err(e) = Plan::compile(k) {
        panic!("{ctx}: no compiled plan: {e}");
    }
    let native = run(k, input, true);
    let oracle = run(k, input, false);
    assert_eq!(native.len(), oracle.len(), "{ctx}: storage length");
    let (nx, ny, nz) = input.extents();
    let stored = oracle.iter().filter(|v| **v != SENTINEL).count();
    assert!(stored >= nx * ny * nz, "{ctx}: only {stored} cells written");
    for (i, (a, b)) in oracle.iter().zip(&native).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: word {i} differs ({a:e} vs {b:e})"
        );
    }
}

#[test]
fn mixed_benchmark_kernels_run_fused_and_bit_identical() {
    // one input for all three, with the widest halo any of them needs
    let halo = mixed_cases()
        .iter()
        .map(|(shape, _, t)| (shape.radius * t) as usize)
        .max()
        .unwrap();
    let mut input = DenseGrid::cubic(N, halo);
    input.fill_test_pattern();
    for (shape, layout, t) in mixed_cases() {
        let k = kernel(shape, layout, t, 32);
        assert_fused_and_bit_identical(&k, &input, &format!("{shape} {layout} t{t}"));
    }
}

#[test]
fn folded_width_brick_kernels_run_fused_and_bit_identical() {
    for shape in [StencilShape::star(1), StencilShape::cube(2)] {
        let mut input = DenseGrid::new(128, N, N, shape.radius as usize);
        input.fill_test_pattern();
        let k = kernel(shape, LayoutKind::Brick, 1, 128);
        assert_fused_and_bit_identical(&k, &input, &format!("{shape} bricks w128"));
    }
}
