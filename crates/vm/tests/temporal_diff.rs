//! Temporal differential oracle suite — **bit for bit, ULP 0**.
//!
//! A `temporal_degree = T` kernel claims to be `T` launches of the
//! `T = 1` gather kernel folded into one. This suite pins that claim
//! three ways, all with `to_bits` equality:
//!
//! 1. **Scalar T-step reference** (`brick_dsl::reference::apply_temporal`)
//!    — replicates the gather schedule's class-sum + `mul_add` op order
//!    per point per step. The fused kernel's whole interior must match it
//!    exactly: both consume the same real input halo, so there is no
//!    boundary caveat.
//! 2. **T sequential launches of the T=1 gather kernel** — compared on
//!    the *deep* interior only (≥ `(T−1)·r` from the boundary): the
//!    sequential chain writes zero output ghosts, so its values near the
//!    boundary consume zeros where the fused kernel consumed real halo
//!    data. Inside that margin the fusion must be exact.
//! 3. **Native backends** — the fused kernel under the portable
//!    compiled backend (and AVX2 where detected) against the
//!    interpreter, full raw storage. Temporal kernels shift *computed*
//!    rows, which the native tape-fusion pass materializes into scratch
//!    rows; this pins those fused tapes to the interpreter bit for bit.
//!
//! The exactness argument lives in DESIGN.md §14; any change that
//! reassociates the fused schedule must loosen this suite explicitly.

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_core::{ArrayGrid, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::{reference, CoeffBindings, DenseGrid};
use brick_vm::{
    run_numeric_dense, run_numeric_dense_backend, run_vector_array_backend,
    run_vector_brick_backend, Backend, CpuFeatures, KernelSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

fn shape_of(idx: usize) -> StencilShape {
    match idx {
        0 => StencilShape::star(1),
        1 => StencilShape::star(2),
        2 => StencilShape::star(3),
        3 => StencilShape::star(4),
        4 => StencilShape::cube(1),
        _ => StencilShape::cube(2),
    }
}

/// Feasible fusion degrees under the default 4×4 block: `T·r ≤ 4`.
fn max_degree(shape: &StencilShape) -> u32 {
    4 / shape.radius
}

fn fused(
    shape: &StencilShape,
    b: &CoeffBindings,
    layout: LayoutKind,
    width: usize,
    t: u32,
) -> brick_codegen::VectorKernel {
    let st = shape.stencil();
    generate(
        &st,
        b,
        layout,
        width,
        CodegenOptions {
            temporal_degree: t,
            // T>1 is inherently gather-scheduled; pin T=1 to the same
            // schedule so the scalar reference (which replicates the
            // gather op order) is a valid ULP-0 oracle at every degree.
            strategy: Strategy::Gather,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Input grid sized for one block column of `width` with a `T·r` halo.
fn input_grid(shape: &StencilShape, width: usize, t: u32) -> DenseGrid {
    let halo = (t * shape.radius) as usize;
    let mut d = DenseGrid::new(width, 8, 8, halo);
    d.fill_test_pattern();
    d
}

fn assert_bits_equal(oracle: &[f64], got: &[f64], ctx: &str) {
    assert_eq!(oracle.len(), got.len(), "{ctx}: storage length");
    for (i, (a, b)) in oracle.iter().zip(got).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: word {i} differs ({a:e} vs {b:e})"
        );
    }
}

/// Compare two dense grids bit for bit on the interior points at least
/// `margin` away from the interior boundary on every axis.
fn assert_deep_interior_equal(a: &DenseGrid, b: &DenseGrid, margin: i64, ctx: &str) {
    let (nx, ny, nz) = a.extents();
    let mut checked = 0usize;
    for z in margin..nz as i64 - margin {
        for y in margin..ny as i64 - margin {
            for x in margin..nx as i64 - margin {
                assert_eq!(
                    a.get(x, y, z).to_bits(),
                    b.get(x, y, z).to_bits(),
                    "{ctx}: point ({x},{y},{z}) differs ({:e} vs {:e})",
                    a.get(x, y, z),
                    b.get(x, y, z)
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "{ctx}: margin {margin} left nothing to check");
}

/// The three-way differential for one configuration.
fn check_config(shape: &StencilShape, b: &CoeffBindings, layout: LayoutKind, width: usize, t: u32) {
    let ctx = format!("{shape} {layout} w{width} t{t}");
    let st = shape.stencil();
    let kt = fused(shape, b, layout, width, t);
    let input = input_grid(shape, width, t);

    // interpreter execution of the fused kernel
    let spec = KernelSpec::Vector(kt.clone());
    let interp = run_numeric_dense_backend(&spec, &input, Backend::Interpreter).unwrap();

    // 1. scalar T-step reference: the whole interior, bit for bit (the
    //    dense round-trips may carry different halo widths, so compare
    //    point-wise rather than raw storage)
    let (nx, ny, nz) = input.extents();
    let mut reference = DenseGrid::new(nx, ny, nz, input.halo());
    reference::apply_temporal(&st, b, &input, &mut reference, t).unwrap();
    assert_deep_interior_equal(
        &reference,
        &interp,
        0,
        &format!("{ctx} vs scalar reference"),
    );

    // 2. T sequential launches of the T=1 gather kernel: deep interior
    let k1 = generate(
        &st,
        b,
        layout,
        width,
        CodegenOptions {
            strategy: Strategy::Gather,
            ..Default::default()
        },
    )
    .unwrap();
    let spec1 = KernelSpec::Vector(k1);
    let mut cur = input.clone();
    for _ in 0..t {
        cur = run_numeric_dense_backend(&spec1, &cur, Backend::Interpreter).unwrap();
    }
    let margin = (t as i64 - 1) * shape.radius as i64;
    assert_deep_interior_equal(&cur, &interp, margin, &format!("{ctx} vs sequential"));

    // 3. native backends: full layout-native storage vs the interpreter
    let feats = CpuFeatures::detect();
    let mut backends = vec![Backend::Portable];
    if feats.avx2 && feats.fma {
        backends.push(Backend::Avx2);
    }
    match layout {
        LayoutKind::Brick => {
            let bin = BrickGrid::from_dense(&input, kt.block);
            let mut oracle =
                BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
            run_vector_brick_backend(&kt, &bin, &mut oracle, Backend::Interpreter).unwrap();
            for backend in backends {
                let mut out =
                    BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
                run_vector_brick_backend(&kt, &bin, &mut out, backend).unwrap();
                assert_bits_equal(oracle.raw(), out.raw(), &format!("{ctx} via {backend}"));
            }
        }
        LayoutKind::Array => {
            let ain = ArrayGrid::from_dense(&input);
            let mut oracle = ArrayGrid::new(nx, ny, nz, input.halo());
            run_vector_array_backend(&kt, &ain, &mut oracle, Backend::Interpreter).unwrap();
            for backend in backends {
                let mut out = ArrayGrid::new(nx, ny, nz, input.halo());
                run_vector_array_backend(&kt, &ain, &mut out, backend).unwrap();
                assert_bits_equal(
                    oracle.dense().raw(),
                    out.dense().raw(),
                    &format!("{ctx} via {backend}"),
                );
            }
        }
    }
}

/// Exhaustive sweep with the default (paper) coefficient bindings: every
/// feasible `(shape, layout, width, T)` cell of the matrix.
#[test]
fn fused_kernels_match_all_oracles_paper_bindings() {
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        for t in 1..=max_degree(&shape) {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                for width in [16, 32, 64] {
                    check_config(&shape, &b, layout, width, t);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized coefficient bindings across the feasible matrix: the
    /// bit-for-bit contract holds for arbitrary weights, not just the
    /// paper's.
    #[test]
    fn fused_kernels_match_all_oracles_random_bindings(
        shape_idx in 0usize..6,
        width_idx in 0usize..3,
        layout_idx in 0usize..2,
        t_idx in 0u32..4,
        coeff_seed in 0u64..1u64 << 32,
    ) {
        let shape = shape_of(shape_idx);
        let t = 1 + t_idx % max_degree(&shape);
        let width = [16usize, 32, 64][width_idx];
        let layout = [LayoutKind::Brick, LayoutKind::Array][layout_idx];
        let st = shape.stencil();

        let mut rng = proptest::TestRng::new(coeff_seed | 1);
        let mut b = CoeffBindings::new();
        for sym in st.symbols() {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = (rng.below(9) as i32) - 4; // 2^-4 ..= 2^4
            b.set(sym.name(), (u - 0.5) * (2f64).powi(exp));
        }
        check_config(&shape, &b, layout, width, t);
    }
}

/// Miri smoke for the temporal path: tiny fused kernel through plan
/// compilation (including brick-safe) and portable execution.
#[test]
fn miri_smoke_temporal_portable_matches_interpreter() {
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let kt = fused(&shape, &b, LayoutKind::Brick, 16, 2);
    let mut input = DenseGrid::new(16, 8, 8, 2);
    input.fill_test_pattern();
    let bin = BrickGrid::from_dense(&input, kt.block);
    let mut oracle = BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
    run_vector_brick_backend(&kt, &bin, &mut oracle, Backend::Interpreter).unwrap();
    let mut got = BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
    run_vector_brick_backend(&kt, &bin, &mut got, Backend::Portable).unwrap();
    assert_bits_equal(oracle.raw(), got.raw(), "miri smoke: temporal portable");
}

/// `TestRng` import sanity: `run_numeric_dense` under `Auto` resolves to a
/// compiled backend on this host yet stays bit-identical for fused
/// kernels (fused tapes over scratch rows for the computed planes).
#[test]
fn numeric_dense_auto_matches_interpreter_for_fused() {
    let shape = StencilShape::cube(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    for t in [2u32, 4] {
        let kt = fused(&shape, &b, LayoutKind::Brick, 16, t);
        let spec = KernelSpec::Vector(kt);
        let mut input = DenseGrid::new(16, 8, 8, t as usize);
        input.fill_test_pattern();
        let oracle = run_numeric_dense_backend(&spec, &input, Backend::Interpreter).unwrap();
        let auto = run_numeric_dense(&spec, &input).unwrap();
        assert_bits_equal(oracle.raw(), auto.raw(), &format!("t{t} auto"));
    }
}
