//! Differential suite: every compiled execution backend against the
//! interpreter oracle, **bit for bit**.
//!
//! Random kernels (stencil shape × codegen strategy × randomized
//! coefficient bindings) × layouts × widths are executed under every
//! backend this host can run — `Scalar` (the interpreter itself, via the
//! mode dispatch), the portable compiled backend, and AVX2 when
//! detected — and the full output storage is compared with `to_bits`.
//!
//! The documented ULP bound for the SIMD backend is **zero**: compilation
//! preserves the interpreter's operation order and fusion exactly, and
//! `_mm256_fmadd_pd` computes the same correctly-rounded IEEE
//! fused multiply-add as the interpreter's `f64::mul_add`. FMA contraction
//! never "legitimately differs" here because the compiled backends fuse
//! exactly where the interpreter already fuses — so the exact comparison
//! applies everywhere, and any future compilation change that reorders or
//! re-fuses arithmetic must loosen this suite *explicitly*.

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_core::{ArrayGrid, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{
    resolve_with, run_numeric_dense_backend, run_vector_array_backend, run_vector_brick_backend,
    Backend, CpuFeatures, ExecutionMode, KernelSpec, VmError,
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

/// The compiled backends this host can execute (the interpreter oracle is
/// not in the list — it is what we compare against).
fn compiled_backends() -> Vec<Backend> {
    let feats = CpuFeatures::detect();
    let mut v = vec![Backend::Portable];
    if feats.avx2 && feats.fma {
        v.push(Backend::Avx2);
    }
    v
}

/// Run one kernel under `backend` over `dense`, returning the raw output
/// storage of the layout-native grid (not the dense round-trip, so halo
/// handling differences would show too).
fn run_backend(
    kernel: &brick_codegen::VectorKernel,
    dense: &DenseGrid,
    backend: Backend,
) -> Vec<f64> {
    match kernel.layout {
        LayoutKind::Brick => {
            let input = BrickGrid::from_dense(dense, kernel.block);
            let mut output =
                BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
            run_vector_brick_backend(kernel, &input, &mut output, backend).unwrap();
            output.raw().to_vec()
        }
        LayoutKind::Array => {
            let input = ArrayGrid::from_dense(dense);
            let (nx, ny, nz) = dense.extents();
            let mut output = ArrayGrid::new(nx, ny, nz, dense.halo());
            run_vector_array_backend(kernel, &input, &mut output, backend).unwrap();
            output.dense().raw().to_vec()
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paper's kernel matrix, randomized: every compiled backend is
    /// bit-identical to the interpreter on the same grids.
    #[test]
    fn compiled_backends_match_interpreter_bit_for_bit(
        shape_idx in 0usize..6,
        width_idx in 0usize..3,
        layout_idx in 0usize..2,
        strategy_idx in 0usize..2,
        coeff_seed in 0u64..1u64 << 32,
    ) {
        let shape = shape_of(shape_idx);
        let width = [16usize, 32, 64][width_idx];
        let layout = [LayoutKind::Brick, LayoutKind::Array][layout_idx];
        let strategy = [Strategy::Gather, Strategy::Scatter][strategy_idx];
        let st = shape.stencil();

        // Randomized coefficient bindings: deterministic per case seed,
        // magnitudes spread across several binades so FMA rounding is
        // actually exercised.
        let mut rng = proptest::TestRng::new(coeff_seed | 1);
        let mut b = brick_dsl::CoeffBindings::new();
        for sym in st.symbols() {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = (rng.below(9) as i32) - 4; // 2^-4 ..= 2^4
            b.set(sym.name(), (u - 0.5) * (2f64).powi(exp));
        }

        let kernel = generate(&st, &b, layout, width, CodegenOptions {
            strategy,
            ..Default::default()
        }).unwrap();

        let n = 8usize.max(shape.radius as usize * 2);
        let mut dense = DenseGrid::new(n.max(width), n, n, shape.radius as usize);
        dense.fill_test_pattern();

        let oracle = run_backend(&kernel, &dense, Backend::Interpreter);
        for backend in compiled_backends() {
            let got = run_backend(&kernel, &dense, backend);
            assert_bits_equal(
                &oracle,
                &got,
                &format!("{shape} {strategy} {layout} w{width} via {backend}"),
            );
        }
    }
}

/// The AVX2-unavailable fallback: on a host without AVX2+FMA, `Auto`
/// degrades to the portable backend and still executes correctly.
/// Exercised with a synthetic featureless CPU so the path is covered on
/// every host.
#[test]
fn auto_degrades_gracefully_without_avx2() {
    let featureless = CpuFeatures::default();
    let backend = resolve_with(ExecutionMode::Auto, featureless).unwrap();
    assert_eq!(backend, Backend::Portable);

    // The degraded backend really runs — and matches the oracle.
    let st = StencilShape::star(1).stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Array, 16, CodegenOptions::default()).unwrap();
    let mut dense = DenseGrid::new(16, 8, 8, 1);
    dense.fill_test_pattern();
    let oracle = run_backend(&kernel, &dense, Backend::Interpreter);
    let got = run_backend(&kernel, &dense, backend);
    assert_bits_equal(&oracle, &got, "portable fallback");
}

/// Forcing a backend the host cannot run errors, never panics — including
/// through the full grid execution path.
#[test]
fn forced_unsupported_mode_errors_not_panics() {
    let feats = CpuFeatures::detect();
    let st = StencilShape::star(1).stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
    let mut dense = DenseGrid::new(16, 8, 8, 1);
    dense.fill_test_pattern();
    let input = BrickGrid::from_dense(&dense, kernel.block);
    let mut output = BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
    let r = run_vector_brick_backend(&kernel, &input, &mut output, Backend::Avx2);
    if feats.avx2 && feats.fma {
        assert!(r.is_ok(), "avx2 supported but failed: {r:?}");
    } else {
        assert!(
            matches!(r, Err(VmError::Unsupported(_))),
            "avx2 unsupported must error gracefully, got {r:?}"
        );
    }
}

/// Miri smoke: the scalar and portable execution paths on a tiny grid,
/// bit-compared against the interpreter. These are the tests the CI
/// sanitizer job runs under `cargo miri test -- miri_smoke` — they stay
/// deliberately small (16×8×8, star(1), w=16) so the interpreter-speed
/// Miri run finishes quickly, and they avoid the SIMD intrinsics Miri
/// cannot execute. A leak, uninitialized read, or out-of-bounds access
/// anywhere in grid construction, plan compilation (including the
/// brick-safe prover), or portable fused evaluation fails the run.
#[test]
fn miri_smoke_portable_brick_matches_interpreter() {
    let st = StencilShape::star(1).stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
    let mut dense = DenseGrid::new(16, 8, 8, 1);
    dense.fill_test_pattern();
    let oracle = run_backend(&kernel, &dense, Backend::Interpreter);
    let got = run_backend(&kernel, &dense, Backend::Portable);
    assert_bits_equal(&oracle, &got, "miri smoke: brick portable");
}

/// Miri smoke, array-layout flank: exercises the array fused path and the
/// per-run `check_array_geometry` premise under Miri.
#[test]
fn miri_smoke_portable_array_matches_interpreter() {
    let st = StencilShape::star(1).stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Array, 16, CodegenOptions::default()).unwrap();
    let mut dense = DenseGrid::new(16, 8, 8, 1);
    dense.fill_test_pattern();
    let oracle = run_backend(&kernel, &dense, Backend::Interpreter);
    let got = run_backend(&kernel, &dense, Backend::Portable);
    assert_bits_equal(&oracle, &got, "miri smoke: array portable");
}

/// `KernelSpec`-level numeric execution on the interpreter and the host's
/// `Auto` backend agrees with the scalar reference to the usual tolerance and
/// with the interpreter bitwise.
#[test]
fn numeric_dense_mode_matches_reference_and_oracle() {
    let shape = StencilShape::cube(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let mut input = DenseGrid::new(16, 8, 8, 1);
    input.fill_test_pattern();
    let mut expect = DenseGrid::new(16, 8, 8, 1);
    brick_dsl::reference::apply(&st, &b, &input, &mut expect).unwrap();

    for layout in [LayoutKind::Brick, LayoutKind::Array] {
        let spec =
            KernelSpec::Vector(generate(&st, &b, layout, 16, CodegenOptions::default()).unwrap());
        let oracle = run_numeric_dense_backend(&spec, &input, Backend::Interpreter).unwrap();
        assert!(oracle.max_rel_diff(&expect) < 1e-12);
        let auto = brick_vm::run_numeric_dense(&spec, &input).unwrap();
        assert_bits_equal(oracle.raw(), auto.raw(), &format!("{layout} auto"));
    }
}
