//! Mutation harness for the static analyzer.
//!
//! Two complementary guarantees over generated paper kernels:
//!
//! 1. **Sensitivity** (deterministic enumeration): of all single-op
//!    corruptions — register swaps, perturbed shift distances, row
//!    coordinates, lane windows and coefficient indices, dropped ops —
//!    the analyzer must reject at least 95%. The residual few percent
//!    covers semantically equivalent mutants (e.g. a coefficient index
//!    remapped to an equal weight).
//! 2. **Soundness** (proptest): any mutant the analyzer *does* accept
//!    against the declared stencil must be numerically indistinguishable
//!    from the scalar reference — acceptance is a proof, so an accepted
//!    mutant can only be a harmless rewrite.

use brick_codegen::{generate, CodegenOptions, LayoutKind, VOp, VectorKernel};
use brick_dsl::shape::StencilShape;
use brick_dsl::{reference, DenseGrid};
use brick_lint::{analyze, ExpectedStencil};

/// A paper kernel together with the stencil it claims to compute.
fn subject(
    shape: StencilShape,
    layout: LayoutKind,
    width: usize,
) -> (VectorKernel, ExpectedStencil) {
    let st = shape.stencil();
    let b = st.default_bindings();
    let k = generate(&st, &b, layout, width, CodegenOptions::default()).unwrap();
    let e = ExpectedStencil::resolve(&st, &b).unwrap();
    (k, e)
}

fn is_rejected(k: &VectorKernel, expected: &ExpectedStencil) -> bool {
    !analyze(k, Some(expected)).is_clean()
}

/// All deterministic single-op mutants of `k` at op index `i`, labelled.
/// Mutations that would be the identity (e.g. swapping within a one-
/// register kernel, or remapping a coefficient to an equal value) are
/// skipped — they are not corruptions.
fn mutants_at(k: &VectorKernel, i: usize) -> Vec<(String, VectorKernel)> {
    let nregs = k.num_regs as u16;
    let ncoeffs = k.coeffs.len() as u16;
    let mut out: Vec<(String, VectorKernel)> = Vec::new();
    let mut emit = |label: &str, op: VOp| {
        let mut m = k.clone();
        m.ops[i] = op;
        out.push((format!("op{i}:{label}"), m));
    };

    match k.ops[i] {
        VOp::LoadRow {
            dst,
            rx,
            ry,
            rz,
            lane0,
            lanes,
        } => {
            emit(
                "load-ry",
                VOp::LoadRow {
                    dst,
                    rx,
                    ry: ry + 1,
                    rz,
                    lane0,
                    lanes,
                },
            );
            emit(
                "load-rz",
                VOp::LoadRow {
                    dst,
                    rx,
                    ry,
                    rz: rz - 1,
                    lane0,
                    lanes,
                },
            );
            emit(
                "load-rx",
                VOp::LoadRow {
                    dst,
                    rx: if rx == 1 { 0 } else { rx + 1 },
                    ry,
                    rz,
                    lane0,
                    lanes,
                },
            );
            emit(
                "load-lane0",
                VOp::LoadRow {
                    dst,
                    rx,
                    ry,
                    rz,
                    lane0: lane0 + 1,
                    lanes,
                },
            );
        }
        VOp::ShiftX { dst, src, edge, dx } => {
            emit(
                "shift-dx",
                VOp::ShiftX {
                    dst,
                    src,
                    edge,
                    dx: dx + 1,
                },
            );
            if nregs > 1 {
                emit(
                    "shift-src",
                    VOp::ShiftX {
                        dst,
                        src: (src + 1) % nregs,
                        edge,
                        dx,
                    },
                );
            }
        }
        VOp::Add { dst, a, b } => {
            if nregs > 1 {
                emit(
                    "add-a",
                    VOp::Add {
                        dst,
                        a: (a + 1) % nregs,
                        b,
                    },
                );
            }
        }
        VOp::Mul { dst, a, coeff } => {
            if nregs > 1 {
                emit(
                    "mul-a",
                    VOp::Mul {
                        dst,
                        a: (a + 1) % nregs,
                        coeff,
                    },
                );
            }
            let c2 = (coeff + 1) % ncoeffs;
            if k.coeffs[c2 as usize] != k.coeffs[coeff as usize] {
                emit("mul-coeff", VOp::Mul { dst, a, coeff: c2 });
            }
        }
        VOp::Fma { dst, acc, a, coeff } => {
            if nregs > 1 {
                emit(
                    "fma-a",
                    VOp::Fma {
                        dst,
                        acc,
                        a: (a + 1) % nregs,
                        coeff,
                    },
                );
            }
            let c2 = (coeff + 1) % ncoeffs;
            if k.coeffs[c2 as usize] != k.coeffs[coeff as usize] {
                emit(
                    "fma-coeff",
                    VOp::Fma {
                        dst,
                        acc,
                        a,
                        coeff: c2,
                    },
                );
            }
        }
        VOp::StoreRow { src, ry, rz } => {
            if nregs > 1 {
                emit(
                    "store-src",
                    VOp::StoreRow {
                        src: (src + 1) % nregs,
                        ry,
                        rz,
                    },
                );
            }
            emit(
                "store-ry",
                VOp::StoreRow {
                    src,
                    ry: ry + 1,
                    rz,
                },
            );
        }
    }

    // Dropping the op entirely.
    let mut dropped = k.clone();
    dropped.ops.remove(i);
    out.push((format!("op{i}:drop"), dropped));
    out
}

/// Enumerate mutants across a kernel's ops with a stride that caps the
/// total near `budget` mutation sites.
fn enumerate_mutants(k: &VectorKernel, budget: usize) -> Vec<(String, VectorKernel)> {
    let stride = (k.ops.len() / budget).max(1);
    (0..k.ops.len())
        .step_by(stride)
        .flat_map(|i| mutants_at(k, i))
        .collect()
}

#[test]
fn analyzer_rejects_at_least_95_percent_of_single_op_mutants() {
    let suite = [
        (StencilShape::star(1), LayoutKind::Brick, 16),
        (StencilShape::star(2), LayoutKind::Brick, 16),
        (StencilShape::cube(1), LayoutKind::Array, 16),
    ];
    let mut total = 0usize;
    let mut rejected = 0usize;
    let mut survivors: Vec<String> = Vec::new();
    for (shape, layout, width) in suite {
        let (k, expected) = subject(shape, layout, width);
        assert!(
            !is_rejected(&k, &expected),
            "unmutated {} must be accepted",
            k.name
        );
        for (label, mutant) in enumerate_mutants(&k, 120) {
            total += 1;
            if is_rejected(&mutant, &expected) {
                rejected += 1;
            } else {
                survivors.push(format!("{}:{label}", k.name));
            }
        }
    }
    let rate = rejected as f64 / total as f64;
    assert!(
        rate >= 0.95,
        "only {rejected}/{total} mutants rejected ({:.1}%); survivors: {survivors:?}",
        rate * 100.0
    );
}

#[test]
fn wrong_coefficient_is_rejected_with_op_span() {
    // Acceptance criterion: a hand-corrupted coefficient is caught
    // statically with a diagnostic naming the op.
    let (mut k, expected) = subject(StencilShape::star(1), LayoutKind::Brick, 16);
    k.coeffs[0] *= 1.5;
    let a = analyze(&k, Some(&expected));
    assert!(!a.is_clean(), "corrupted coefficient must be rejected");
    assert!(
        a.report.diagnostics.iter().any(|d| d.op.is_some()),
        "diagnostic must name an op index:\n{}",
        a.report.render(Some(&k))
    );
}

#[test]
fn out_of_adjacency_row_is_rejected_with_op_span() {
    let (mut k, expected) = subject(StencilShape::star(1), LayoutKind::Brick, 16);
    let (i, bad) = k
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, op)| match *op {
            VOp::LoadRow {
                dst,
                rx,
                ry: _,
                rz,
                lane0,
                lanes,
            } => Some((
                i,
                VOp::LoadRow {
                    dst,
                    rx,
                    ry: 2 * k.block.by as i16,
                    rz,
                    lane0,
                    lanes,
                },
            )),
            _ => None,
        })
        .expect("kernel has a load");
    k.ops[i] = bad;
    let a = analyze(&k, Some(&expected));
    let hits = a
        .report
        .with_code(brick_lint::LintCode::RowOutsideAdjacency);
    assert!(!hits.is_empty(), "{}", a.report.render(Some(&k)));
    assert_eq!(hits[0].op, Some(i));
}

mod soundness {
    use super::*;
    use proptest::prelude::*;

    /// Numeric ground truth for the radius-1 star at width 16.
    fn reference_output(shape: StencilShape, input: &DenseGrid) -> DenseGrid {
        let st = shape.stencil();
        let b = st.default_bindings();
        let (nx, ny, nz) = input.extents();
        let mut out = DenseGrid::new(nx, ny, nz, input.halo());
        reference::apply(&st, &b, input, &mut out).unwrap();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// If the analyzer accepts a mutant against the declared stencil,
        /// executing it must reproduce the scalar reference: acceptance is
        /// a semantic proof, not a heuristic.
        #[test]
        fn accepted_mutants_are_numerically_correct(site in 0usize..4096, pick in 0usize..8) {
            let shape = StencilShape::star(1);
            let (k, expected) = subject(shape, LayoutKind::Brick, 16);
            let i = site % k.ops.len();
            let muts = mutants_at(&k, i);
            let (_label, mutant) = &muts[pick % muts.len()];
            if !is_rejected(mutant, &expected) {
                let mut input = DenseGrid::new(16, 8, 8, shape.radius as usize);
                input.fill_test_pattern();
                let expect = reference_output(shape, &input);
                let got = brick_vm::run_numeric_dense(
                    &brick_vm::KernelSpec::Vector(mutant.clone()),
                    &input,
                )
                .expect("accepted mutant must execute");
                prop_assert!(
                    got.max_rel_diff(&expect) < 1e-12,
                    "analyzer accepted a numerically wrong mutant"
                );
            }
        }
    }
}
