//! Fusion census: which generated kernels run on fused tapes.
//!
//! Every kernel `generate` emits for the paper suite × {Gather, Scatter,
//! Auto} × {Brick, Array} × widths {16, 32, 64, 128} (128 is the
//! 64-lane SIMD width folded twice into one brick row) × every feasible
//! temporal degree must compile — a compiled plan is always a fused one,
//! and a kernel the fuser refuses fails `Plan::compile` with
//! `VmError::Unsupported` — and must reproduce `Backend::Interpreter` bit
//! for bit over the whole output buffer (both outputs pre-filled with a
//! sentinel, so a cell one path writes and the other skips shows up).
//!
//! `census_throughput_report` (ignored; run in release with
//! `--ignored --nocapture`) prints the fused Mpt/s of each family.

use std::sync::Arc;
use std::time::Instant;

use brick_codegen::{generate, CodegenError, CodegenOptions, LayoutKind, Strategy, VectorKernel};
use brick_core::{ArrayGrid, BrickDims, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{
    resolve, run_vector_array_backend, run_vector_brick_backend, Backend, ExecutionMode, Plan,
};

/// Vector widths of the census: the generator's SIMD widths plus the
/// folded width 128 (`fold_factor = 2` at 64 lanes).
const WIDTHS: [usize; 4] = [16, 32, 64, 128];

/// Finite and never computed by a stencil over the test pattern.
const SENTINEL: f64 = f64::MAX;

/// One census kernel: `(label, kernel, halo)`, or `None` when `generate`
/// rejects the configuration as infeasible (degree too deep for the
/// block, or a schedule overflowing the register id space).
fn census_kernel(
    shape: StencilShape,
    layout: LayoutKind,
    width: usize,
    strategy: Strategy,
    t: u32,
) -> Option<(String, VectorKernel, usize)> {
    let st = shape.stencil();
    let opts = CodegenOptions {
        strategy,
        temporal_degree: t,
        ..CodegenOptions::default()
    };
    match generate(&st, &st.default_bindings(), layout, width, opts) {
        Ok(k) => {
            let label = format!("{shape} {layout} w{width} {strategy} t{t}");
            Some((label, k, (shape.radius * t) as usize))
        }
        Err(CodegenError::TemporalTooDeep { .. } | CodegenError::ProgramTooLarge { .. }) => None,
        Err(e) => panic!("{shape} {layout} w{width} {strategy} t{t}: {e}"),
    }
}

/// Every census configuration, deduplicated: `T > 1` kernels are always
/// gather-scheduled, so they are generated once (under `Auto`).
fn census() -> Vec<(String, VectorKernel, usize)> {
    let mut out = Vec::new();
    for shape in StencilShape::paper_suite() {
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for width in WIDTHS {
                for strategy in [Strategy::Gather, Strategy::Scatter, Strategy::Auto] {
                    out.extend(census_kernel(shape, layout, width, strategy, 1));
                }
                for t in 2..=4 {
                    out.extend(census_kernel(shape, layout, width, Strategy::Auto, t));
                }
            }
        }
    }
    out
}

/// Run `k` under `backend` over `input` into a sentinel-filled output and
/// return the whole output storage.
fn run(k: &VectorKernel, input: &DenseGrid, backend: Backend) -> Vec<f64> {
    match k.layout {
        LayoutKind::Brick => {
            let grid = BrickGrid::from_dense(input, BrickDims::for_simd_width(k.width));
            let mut out =
                BrickGrid::with_metadata(Arc::clone(grid.decomp()), Arc::clone(grid.info()));
            out.raw_mut().fill(SENTINEL);
            run_vector_brick_backend(k, &grid, &mut out, backend).unwrap();
            out.raw().to_vec()
        }
        LayoutKind::Array => {
            let grid = ArrayGrid::from_dense(input);
            let (nx, ny, nz) = input.extents();
            let mut out = ArrayGrid::new(nx, ny, nz, input.halo());
            out.dense_mut().raw_mut().fill(SENTINEL);
            run_vector_array_backend(k, &grid, &mut out, backend).unwrap();
            out.dense().raw().to_vec()
        }
    }
}

#[test]
fn every_census_kernel_fuses_and_matches_the_interpreter() {
    let auto = resolve(ExecutionMode::Auto).unwrap();
    let mut backends = vec![auto];
    if auto != Backend::Portable {
        backends.push(Backend::Portable);
    }
    let kernels = census();
    // 6 shapes x 2 layouts x 4 widths x 3 strategies at T = 1, plus the
    // feasible degrees T = 2..=4 of radius-1 and radius-2 shapes
    assert!(kernels.len() >= 144, "census shrank to {}", kernels.len());
    for (label, k, halo) in &kernels {
        Plan::compile(k).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut input = DenseGrid::new(k.width, 8, 8, *halo);
        input.fill_test_pattern();
        let oracle = run(k, &input, Backend::Interpreter);
        for &backend in &backends {
            let got = run(k, &input, backend);
            assert_eq!(oracle.len(), got.len(), "{label}: storage length");
            for (i, (a, b)) in oracle.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label} {backend}: word {i} differs ({a:e} vs {b:e})"
                );
            }
        }
    }
}

#[test]
fn scratch_rows_hold_temporal_planes_and_shared_shifts_only() {
    for (label, k, halo) in census() {
        let s = Plan::compile(&k).unwrap().safety();
        if k.temporal_degree > 1 {
            assert!(
                s.scratch_rows > 0,
                "{label}: temporal planes need scratch rows"
            );
        } else if label.starts_with("star") {
            // a T = 1 star row reads each shifted row once: nothing is
            // padded, the rows read the grid directly — its own row, its
            // 2r shifts and the 2r(by + bz) y/z rows around the block
            let (r, b) = (halo, k.block);
            let taps = b.by * b.bz * (1 + 2 * r) + 2 * r * (b.by + b.bz);
            assert_eq!((s.scratch_rows, s.taps), (0, taps), "{label}");
        } else {
            // a cube of radius r reads (by + 2r)(bz + 2r) grid rows at
            // 2r + 1 offsets each. Every row but the 4 corners is read by
            // several output rows and padded: one direct and two window
            // grid taps, and 2r + 1 padded reads. The corners stay split.
            let (r, b) = (halo, k.block);
            let padded = (b.by + 2 * r) * (b.bz + 2 * r) - 4;
            assert_eq!(s.scratch_rows, padded, "{label}");
            assert_eq!(
                s.taps,
                padded * (3 + 2 * r + 1) + 4 * (2 * r + 1),
                "{label}"
            );
        }
        // every scratch row is read through at least one scratch tap
        assert!(s.scratch_rows <= s.taps, "{label}");
    }
}

/// Fused throughput per family (bricks, every census width; `T = 1` under
/// both strategies, `T > 1` under `Auto`), best of 5 at 128³.
#[test]
#[ignore]
fn census_throughput_report() {
    let auto = resolve(ExecutionMode::Auto).unwrap();
    let n = 128;
    for shape in StencilShape::paper_suite() {
        for width in WIDTHS {
            let configs = [(Strategy::Gather, 1), (Strategy::Scatter, 1)]
                .into_iter()
                .chain((2..=4).map(|t| (Strategy::Auto, t)));
            for (strategy, t) in configs {
                let Some((label, k, halo)) =
                    census_kernel(shape, LayoutKind::Brick, width, strategy, t)
                else {
                    continue;
                };
                let mut dense = DenseGrid::cubic(n, halo);
                dense.fill_test_pattern();
                let grid = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(width));
                let mut out =
                    BrickGrid::with_metadata(Arc::clone(grid.decomp()), Arc::clone(grid.info()));
                let mut best = f64::INFINITY;
                for _ in 0..5 {
                    let t0 = Instant::now();
                    run_vector_brick_backend(&k, &grid, &mut out, auto).unwrap();
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                let s = Plan::compile(&k).unwrap().safety();
                println!(
                    "{label}: {:.0} Mpt/s ({:.0} applied), taps {}, scratch rows {}",
                    (n * n * n) as f64 / best / 1e6,
                    (n * n * n) as f64 * f64::from(t) / best / 1e6,
                    s.taps,
                    s.scratch_rows
                );
            }
        }
    }
}
