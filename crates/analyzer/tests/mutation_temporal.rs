//! Mutation harness for the temporal-fusion pass.
//!
//! The fused (`temporal_degree = T`) kernels carry structure a spatial
//! kernel does not: lane-windowed level-0 halo loads, per-step plane
//! buffers, and per-step chains re-rooted on the previous step's planes.
//! This suite corrupts exactly that structure one site at a time —
//! halo-window off-by-ones, dropped intermediate-plane producers, shift
//! and accumulator rewirings that root a step on the wrong plane — and
//! requires the verification stack to catch it:
//!
//! 1. **Sensitivity** (deterministic enumeration): at least 95% of all
//!    single-site mutants must be rejected by the footprint verifier
//!    (checked against [`ExpectedStencil::resolve_temporal`], i.e. the
//!    `T`-step composed stencil) **or** by plan compilation
//!    (`brick_vm::Plan::compile` = bounds proof + brick-safe).
//! 2. **Soundness** (proptest): any mutant that slips through *both*
//!    gates must be numerically indistinguishable from the scalar
//!    `T`-step reference ([`reference::apply_temporal`]) — acceptance is
//!    a proof, so a survivor can only be a harmless rewrite.
//!
//! Mirrors `tests/mutation.rs`, which pins the same contract for the
//! unfused kernels.

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy, VOp, VectorKernel};
use brick_dsl::shape::StencilShape;
use brick_dsl::{reference, DenseGrid};
use brick_lint::{analyze, ExpectedStencil};

/// A fused paper kernel together with the `T`-step stencil it claims to
/// compute.
fn subject(
    shape: StencilShape,
    layout: LayoutKind,
    width: usize,
    t: u32,
) -> (VectorKernel, ExpectedStencil) {
    let st = shape.stencil();
    let b = st.default_bindings();
    let k = generate(
        &st,
        &b,
        layout,
        width,
        CodegenOptions {
            temporal_degree: t,
            strategy: Strategy::Gather,
            ..CodegenOptions::default()
        },
    )
    .unwrap();
    let e = ExpectedStencil::resolve_temporal(&st, &b, t).unwrap();
    (k, e)
}

/// A mutant is killed if the footprint verifier rejects it against the
/// composed stencil, or if plan compilation (bounds proof + brick-safe)
/// refuses to lower it. Fused kernels legitimately hold `T` levels of
/// plane buffers; the simulator prices that register pressure, the
/// verifier does not ban it.
fn is_killed(k: &VectorKernel, expected: &ExpectedStencil) -> bool {
    if !analyze(k, Some(expected)).is_clean() {
        return true;
    }
    brick_vm::Plan::compile(k).is_err()
}

/// All deterministic single-site mutants of `k` at op index `i`.
///
/// The operators target the fusion pass's failure modes by construction:
/// lane-window and row perturbations on loads corrupt the level-0 halo
/// staging (`halo off-by-one`); register rewirings on shifts, FMAs and
/// accumulators re-root a step's chain on the wrong plane buffer
/// (`wrong step re-rooting`); dropping an op removes an intermediate
/// plane's producer (`dropped intermediate-plane store`). Identity
/// mutations (equal-weight coefficient remaps, swaps in one-register
/// kernels) are skipped — they are not corruptions.
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
            // the halo off-by-ones proper: nudge the lane window's start
            // and width — a level-0 edge load that stages one lane too
            // few starves the deepest step's reach, one too many reads
            // beyond the proven footprint
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
            if lanes > 1 {
                emit(
                    "load-lanes-short",
                    VOp::LoadRow {
                        dst,
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes: lanes - 1,
                    },
                );
            }
            if (lane0 + lanes) < k.width as u16 {
                emit(
                    "load-lanes-long",
                    VOp::LoadRow {
                        dst,
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes: lanes + 1,
                    },
                );
            }
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
                // re-rooting: a shift that reads the wrong plane buffer
                emit(
                    "shift-src",
                    VOp::ShiftX {
                        dst,
                        src: (src + 1) % nregs,
                        edge,
                        dx,
                    },
                );
                emit(
                    "shift-edge",
                    VOp::ShiftX {
                        dst,
                        src,
                        edge: (edge + 1) % nregs,
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
                // re-rooting proper: accumulate onto the wrong plane —
                // in a fused chain `acc` is where the previous step's
                // partial sums live
                emit(
                    "fma-acc",
                    VOp::Fma {
                        dst,
                        acc: (acc + 1) % nregs,
                        a,
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

    // Dropping the op entirely — for a mid-schedule op this removes an
    // intermediate plane's producer, so every later step consumes a
    // stale or undefined buffer.
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

/// The fused suite: every paper shape family at a deep and a shallow
/// feasible degree (`T·r ≤ 4` under the default 4×4 block).
fn fused_suite() -> Vec<(StencilShape, LayoutKind, usize, u32)> {
    vec![
        (StencilShape::star(1), LayoutKind::Brick, 16, 2),
        (StencilShape::star(1), LayoutKind::Brick, 16, 4),
        (StencilShape::star(2), LayoutKind::Brick, 16, 2),
        (StencilShape::cube(1), LayoutKind::Array, 16, 2),
        (StencilShape::cube(1), LayoutKind::Brick, 16, 3),
    ]
}

#[test]
fn verifier_rejects_at_least_95_percent_of_fusion_mutants() {
    let mut total = 0usize;
    let mut killed = 0usize;
    let mut survivors: Vec<String> = Vec::new();
    for (shape, layout, width, t) in fused_suite() {
        let (k, expected) = subject(shape, layout, width, t);
        assert!(
            !is_killed(&k, &expected),
            "unmutated {} (T={t}) must be accepted",
            k.name
        );
        for (label, mutant) in enumerate_mutants(&k, 60) {
            total += 1;
            if is_killed(&mutant, &expected) {
                killed += 1;
            } else {
                survivors.push(format!("{}:T{t}:{label}", k.name));
            }
        }
    }
    let rate = killed as f64 / total as f64;
    assert!(
        rate >= 0.95,
        "only {killed}/{total} fusion mutants killed ({:.1}%); survivors: {survivors:?}",
        rate * 100.0
    );
}

#[test]
fn halo_window_off_by_one_is_rejected_with_op_span() {
    // the canonical fusion bug: a level-0 edge load staged one lane
    // short, starving the deepest step's reach at the block seam. Some
    // windows carry slack on rows whose top lane never feeds a stored
    // lane — those shortenings are harmless rewrites — but at least one
    // window must be load-bearing, and corrupting it must produce a
    // diagnostic anchored at the load.
    let (k, expected) = subject(StencilShape::star(1), LayoutKind::Brick, 16, 4);
    let mut caught = false;
    for (i, op) in k.ops.iter().enumerate() {
        let VOp::LoadRow {
            dst,
            rx,
            ry,
            rz,
            lane0,
            lanes,
        } = *op
        else {
            continue;
        };
        if lanes <= 1 || (lane0 == 0 && lanes == k.width as u16) {
            continue;
        }
        let mut m = k.clone();
        m.ops[i] = VOp::LoadRow {
            dst,
            rx,
            ry,
            rz,
            lane0,
            lanes: lanes - 1,
        };
        let a = analyze(&m, Some(&expected));
        if !a.is_clean() {
            assert!(
                a.report.diagnostics.iter().any(|d| d.op.is_some()),
                "diagnostic must name an op index:\n{}",
                a.report.render(Some(&m))
            );
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "no shorted halo window was rejected — the footprint verifier \
         cannot see the level-0 staging at all"
    );
}

#[test]
fn dropped_intermediate_plane_producer_is_rejected() {
    // remove the last producer before the first store: with T=2 that is
    // inside the step-1 chain, which then reads a partial plane
    let (k, expected) = subject(StencilShape::star(1), LayoutKind::Brick, 16, 2);
    let store = k
        .ops
        .iter()
        .position(|op| matches!(op, VOp::StoreRow { .. }))
        .expect("fused kernel stores");
    assert!(store > 0);
    let mut m = k.clone();
    m.ops.remove(store - 1);
    assert!(
        is_killed(&m, &expected),
        "dropping an intermediate producer must be caught"
    );
}

#[test]
fn wrong_step_re_rooting_is_rejected() {
    // rewire the accumulator of the last FMA before the first store: the
    // final step's chain now sums onto a different plane buffer
    let (k, expected) = subject(StencilShape::star(1), LayoutKind::Brick, 16, 2);
    let store = k
        .ops
        .iter()
        .position(|op| matches!(op, VOp::StoreRow { .. }))
        .expect("fused kernel stores");
    let (i, bad) = k.ops[..store]
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, op)| match *op {
            VOp::Fma { dst, acc, a, coeff } => Some((
                i,
                VOp::Fma {
                    dst,
                    acc: (acc + 1) % k.num_regs as u16,
                    a,
                    coeff,
                },
            )),
            _ => None,
        })
        .expect("fused chain ends in FMAs");
    let mut m = k.clone();
    m.ops[i] = bad;
    assert!(
        is_killed(&m, &expected),
        "re-rooting the final step's chain must be caught"
    );
}

mod soundness {
    use super::*;
    use proptest::prelude::*;

    /// Numeric ground truth: the scalar `T`-step composed reference.
    fn reference_output(shape: StencilShape, t: u32, input: &DenseGrid) -> DenseGrid {
        let st = shape.stencil();
        let b = st.default_bindings();
        let (nx, ny, nz) = input.extents();
        let mut out = DenseGrid::new(nx, ny, nz, input.halo());
        reference::apply_temporal(&st, &b, input, &mut out, t).unwrap();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A fusion mutant that survives both the footprint verifier and
        /// plan compilation must reproduce the scalar `T`-step reference:
        /// acceptance is a semantic proof, not a heuristic.
        #[test]
        fn surviving_fusion_mutants_are_numerically_correct(
            site in 0usize..4096,
            pick in 0usize..8,
            deep in 0usize..2,
        ) {
            let shape = StencilShape::star(1);
            let t = if deep == 1 { 4 } else { 2 };
            let (k, expected) = subject(shape, LayoutKind::Brick, 16, t);
            let i = site % k.ops.len();
            let muts = mutants_at(&k, i);
            let (_label, mutant) = &muts[pick % muts.len()];
            if !is_killed(mutant, &expected) {
                let halo = t as usize * shape.radius as usize;
                let mut input = DenseGrid::new(16, 8, 8, halo);
                input.fill_test_pattern();
                let expect = reference_output(shape, t, &input);
                let got = brick_vm::run_numeric_dense(
                    &brick_vm::KernelSpec::Vector(mutant.clone()),
                    &input,
                )
                .expect("accepted mutant must execute");
                prop_assert!(
                    got.max_rel_diff(&expect) < 1e-12,
                    "verifier accepted a numerically wrong fusion mutant"
                );
            }
        }
    }
}
