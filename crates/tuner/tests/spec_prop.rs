//! Specialization-space property suite: the tuner may only ever rank
//! candidates that are *provably safe to run*.
//!
//! For every [`SpecParams`] the default space enumerates, exactly one of
//! two things must hold:
//!
//! 1. the per-target validity predicate rejects it with a stable reason,
//!    before any compilation; or
//! 2. it generates, passes the analyzer's full static verification
//!    (including the expected-stencil proof against the `T`-fold composed
//!    stencil), and executes correctly on a small grid — bit for bit
//!    against the scalar reference for gather-scheduled kernels (whose
//!    operation order the reference replicates, see `vm/tests/
//!    temporal_diff.rs`), and bit for bit against the interpreter under
//!    the compiled portable backend for every kernel, with the scatter
//!    schedule additionally pinned to the reference semantics under a
//!    tight relative tolerance (scatter reassociates the tap sum, so
//!    ULP-0 against the gather-order reference is not claimable).
//!
//! There is no third outcome: a candidate that validates but fails to
//! compile, lint or verify is a bug in the predicate, and the tuner
//! would have crashed on it mid-sweep.

use brick_codegen::{generate, LayoutKind, SpecParams, Strategy};
use brick_core::BrickGrid;
use brick_dsl::shape::StencilShape;
use brick_dsl::{reference, CoeffBindings, DenseGrid};
use brick_tuner::{validate, TuningSpace};
use brick_vm::{run_numeric_dense_backend, run_vector_brick_backend, Backend, KernelSpec};
use gpu_sim::GpuArch;
use proptest::prelude::*;
use std::sync::Arc;

/// Scatter vs gather-order reference: reassociation slack only.
const SCATTER_RTOL: f64 = 1e-12;

/// Domain extent the validity predicates are checked against — large
/// enough that every width/block in the default space divides it, so the
/// predicate exercises the architectural axes rather than `Indivisible`.
const VALIDITY_N: usize = 128;

fn arches() -> Vec<GpuArch> {
    vec![GpuArch::a100(), GpuArch::mi250x_gcd(), GpuArch::pvc_stack()]
}

/// An input grid one brick-column wide with transverse room for the
/// candidate's block and a `T·r` halo.
fn input_grid(p: &SpecParams, shape: &StencilShape) -> DenseGrid {
    let halo = (p.temporal_degree * shape.radius) as usize;
    let (by, bz) = p.block_yz;
    let mut d = DenseGrid::new(p.width(), (by * 2).max(8), (bz * 2).max(8), halo);
    d.fill_test_pattern();
    d
}

/// Generate + statically verify one valid candidate, panicking with the
/// analyzer's report on any lint finding.
fn build_verified(
    shape: &StencilShape,
    b: &CoeffBindings,
    p: &SpecParams,
) -> brick_codegen::VectorKernel {
    let st = shape.stencil();
    let kernel = generate(&st, b, LayoutKind::Brick, p.width(), p.codegen_options())
        .unwrap_or_else(|e| panic!("valid candidate {p} failed to generate: {e}"));
    let expected = brick_lint::ExpectedStencil::resolve_temporal(&st, b, p.temporal_degree)
        .expect("bindings resolve");
    let analysis = brick_lint::analyze(&kernel, Some(&expected));
    assert!(
        analysis.is_clean(),
        "valid candidate {p} failed static verification:\n{}",
        analysis.report.render(Some(&kernel))
    );
    kernel
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

/// Full execution check for one valid candidate: interpreter vs scalar
/// reference (bit-for-bit for gather, [`SCATTER_RTOL`] for scatter) and
/// portable compiled backend vs interpreter (bit-for-bit, always).
fn check_execution(shape: &StencilShape, b: &CoeffBindings, p: &SpecParams) {
    let ctx = format!("{shape} {p}");
    let st = shape.stencil();
    let kernel = build_verified(shape, b, p);
    let input = input_grid(p, shape);
    let spec = KernelSpec::Vector(kernel.clone());

    let interp = run_numeric_dense_backend(&spec, &input, Backend::Interpreter)
        .unwrap_or_else(|e| panic!("{ctx}: interpreter run failed: {e}"));

    // semantic oracle: the scalar reference on the same grid
    let (nx, ny, nz) = input.extents();
    let mut oracle = DenseGrid::new(nx, ny, nz, input.halo());
    reference::apply_temporal(&st, b, &input, &mut oracle, p.temporal_degree).unwrap();
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let (o, g) = (oracle.get(x, y, z), interp.get(x, y, z));
                match p.strategy {
                    Strategy::Gather | Strategy::Auto => assert_eq!(
                        o.to_bits(),
                        g.to_bits(),
                        "{ctx}: ({x},{y},{z}) differs from reference ({o:e} vs {g:e})"
                    ),
                    Strategy::Scatter => assert!(
                        (o - g).abs() <= SCATTER_RTOL * o.abs().max(g.abs()).max(1.0),
                        "{ctx}: ({x},{y},{z}) outside scatter tolerance ({o:e} vs {g:e})"
                    ),
                }
            }
        }
    }

    // backend invariance: the compiled portable backend must reproduce
    // the interpreter bit for bit on the layout-native storage
    let bin = BrickGrid::from_dense(&input, kernel.block);
    let mut interp_out = BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
    run_vector_brick_backend(&kernel, &bin, &mut interp_out, Backend::Interpreter).unwrap();
    let mut portable = BrickGrid::with_metadata(Arc::clone(bin.decomp()), Arc::clone(bin.info()));
    run_vector_brick_backend(&kernel, &bin, &mut portable, Backend::Portable).unwrap();
    assert_bits_equal(
        interp_out.raw(),
        portable.raw(),
        &format!("{ctx} via portable"),
    );
}

/// Distinct generated programs in a candidate list: ordering and
/// interleave chunk never reach the IR, so deduplicate on the axes that
/// do. Mirrors the tuner's own kernel-program memo.
fn distinct_programs(valid: &[SpecParams]) -> Vec<SpecParams> {
    let mut seen = std::collections::HashSet::new();
    valid
        .iter()
        .filter(|p| {
            seen.insert((
                p.width(),
                p.block_yz,
                format!("{}", p.strategy),
                p.temporal_degree,
            ))
        })
        .copied()
        .collect()
}

/// Exhaustive dichotomy over the full default space on every paper
/// architecture: each candidate is either rejected by the predicate or
/// generates and passes full static verification. Also the coverage
/// guarantee: no target silently skips everything (or nothing).
#[test]
fn every_candidate_is_rejected_or_verifiable() {
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let space = TuningSpace::default().enumerate();
    for arch in arches() {
        let mut valid = Vec::new();
        let mut skipped = 0usize;
        for p in &space {
            match validate(p, &shape, &arch, VALIDITY_N) {
                Ok(()) => valid.push(*p),
                Err(_) => skipped += 1,
            }
        }
        assert_eq!(valid.len() + skipped, space.len());
        assert!(
            !valid.is_empty(),
            "{}: the default space must keep feasible candidates",
            arch.kind
        );
        assert!(
            skipped > 0,
            "{}: the default space must exercise the validity predicate",
            arch.kind
        );
        // the paper baseline is always a member of the feasible set
        assert!(
            validate(
                &SpecParams::paper_default(arch.simd_width),
                &shape,
                &arch,
                VALIDITY_N
            )
            .is_ok(),
            "{}: paper default must validate",
            arch.kind
        );
        for p in distinct_programs(&valid) {
            build_verified(&shape, &b, &p);
        }
    }
}

/// Generation-level dichotomy for the deeper paper shapes, where fused
/// schedules approach (and cross) the generator's u16 virtual-register
/// capacity. Every valid candidate must still generate and structurally
/// validate; the capacity planner must reject at least one deeply-fused
/// star-2 cell — the exact class that once crashed `bricks tune star 2`
/// mid-sweep with a vreg-id overflow panic.
#[test]
fn deep_shapes_generate_or_are_rejected() {
    let arch = GpuArch::a100();
    let space = TuningSpace::default().enumerate();
    let mut overflow_rejections = 0usize;
    for shape in [
        StencilShape::star(2),
        StencilShape::star(4),
        StencilShape::cube(2),
    ] {
        let st = shape.stencil();
        let b = st.default_bindings();
        let mut valid = Vec::new();
        for p in &space {
            match validate(p, &shape, &arch, VALIDITY_N) {
                Ok(()) => valid.push(*p),
                Err(e) if e.kind() == "vreg_overflow" => overflow_rejections += 1,
                Err(_) => {}
            }
        }
        for p in distinct_programs(&valid) {
            let k = generate(&st, &b, LayoutKind::Brick, p.width(), p.codegen_options())
                .unwrap_or_else(|e| panic!("{shape}: valid candidate {p} failed to generate: {e}"));
            if let Err(r) = brick_lint::verify(&k) {
                panic!(
                    "{shape}: {p} generated an invalid kernel:\n{}",
                    r.render(Some(&k))
                );
            }
        }
    }
    assert!(
        overflow_rejections > 0,
        "the capacity planner must prune some deeply-fused cells"
    );
}

/// Execution semantics for every distinct valid program on the reference
/// architecture (paper bindings): see module docs for the oracle split.
#[test]
fn valid_programs_match_the_scalar_oracle() {
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let arch = GpuArch::a100();
    let valid: Vec<SpecParams> = TuningSpace::default()
        .enumerate()
        .into_iter()
        .filter(|p| validate(p, &shape, &arch, VALIDITY_N).is_ok())
        .collect();
    let programs = distinct_programs(&valid);
    assert!(
        programs.len() >= 8,
        "expected a real matrix, got {programs:?}"
    );
    for p in programs {
        check_execution(&shape, &b, &p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized slice of the dichotomy: random architecture, shape,
    /// candidate and coefficient bindings. Invalid candidates must fail
    /// deterministically with the same reason; valid ones must survive
    /// the full generate → verify → execute chain.
    #[test]
    fn random_candidates_uphold_the_dichotomy(
        arch_idx in 0usize..3,
        shape_idx in 0usize..4,
        cand_idx in 0usize..5760, // = TuningSpace::default().len()
        coeff_seed in 0u64..1u64 << 32,
    ) {
        let arch = arches()[arch_idx].clone();
        let shape = [
            StencilShape::star(1),
            StencilShape::star(2),
            StencilShape::cube(1),
            StencilShape::cube(2),
        ][shape_idx];
        let space = TuningSpace::default().enumerate();
        let p = space[cand_idx % space.len()];

        match validate(&p, &shape, &arch, VALIDITY_N) {
            Err(first) => {
                let again = validate(&p, &shape, &arch, VALIDITY_N).unwrap_err();
                prop_assert_eq!(first.kind(), again.kind(), "rejection must be stable");
            }
            Ok(()) => {
                let st = shape.stencil();
                let mut rng = proptest::TestRng::new(coeff_seed | 1);
                let mut b = CoeffBindings::new();
                for sym in st.symbols() {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let exp = (rng.below(9) as i32) - 4; // 2^-4 ..= 2^4
                    b.set(sym.name(), (u - 0.5) * (2f64).powi(exp));
                }
                check_execution(&shape, &b, &p);
            }
        }
    }
}
