//! Grid buffers of 2 MiB or more are advised onto transparent huge pages
//! (`brick_dsl::dense::zeroed_buffer`), and the rayon shim hands the
//! executor its bricks in contiguous batches. Neither may change a
//! result: a fresh grid reads all zeros, and the native executor still
//! matches the interpreter bit for bit over a slab above the threshold.

use std::sync::Arc;

use bricks_repro::codegen::{generate, CodegenOptions, LayoutKind};
use bricks_repro::core::{BrickDecomp, BrickDims, BrickGrid, BrickOrdering};
use bricks_repro::dsl::dense::zeroed_buffer;
use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::dsl::DenseGrid;
use bricks_repro::vm::{run_vector_brick, run_vector_brick_backend, Backend};

const N: usize = 64;
const WIDTH: usize = 32;
const HUGE_PAGE_BYTES: usize = 2 << 20;
const SENTINEL: f64 = f64::MAX;

fn bytes(xs: &[f64]) -> usize {
    std::mem::size_of_val(xs)
}

#[test]
fn star7_bricks_above_the_threshold_match_the_interpreter_on_two_threads() {
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let k = generate(
        &st,
        &st.default_bindings(),
        LayoutKind::Brick,
        WIDTH,
        CodegenOptions::default(),
    )
    .unwrap();
    let mut dense = DenseGrid::cubic(N, 1);
    dense.fill_test_pattern();
    let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(WIDTH));
    // 1,296 bricks of 4 KiB: about 5.3 MB
    assert!(bytes(input.raw()) >= 2 * HUGE_PAGE_BYTES);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let run = |native: bool| {
        let mut out =
            BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
        out.raw_mut().fill(SENTINEL);
        pool.install(|| {
            if native {
                run_vector_brick(&k, &input, &mut out)
            } else {
                run_vector_brick_backend(&k, &input, &mut out, Backend::Interpreter)
            }
        })
        .unwrap();
        out.raw().to_vec()
    };
    let native = run(true);
    let oracle = run(false);
    assert_eq!(native.len(), oracle.len());
    let stored = oracle.iter().filter(|v| **v != SENTINEL).count();
    assert!(stored >= N * N * N, "only {stored} cells written");
    for (i, (a, b)) in oracle.iter().zip(&native).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "word {i} differs ({a:e} vs {b:e})"
        );
    }
}

#[test]
fn fresh_grids_above_the_threshold_read_zero() {
    let dense = DenseGrid::cubic(N, 1);
    assert!(bytes(dense.raw()) >= HUGE_PAGE_BYTES);
    assert!(dense.raw().iter().all(|v| v.to_bits() == 0));

    let decomp = Arc::new(BrickDecomp::new(
        (N, N, N),
        BrickDims::for_simd_width(WIDTH),
        1,
        BrickOrdering::Lexicographic,
    ));
    let info = Arc::new(decomp.build_adjacency());
    let bricks = BrickGrid::with_metadata(decomp, info);
    assert!(bytes(bricks.raw()) >= HUGE_PAGE_BYTES);
    assert!(bricks.raw().iter().all(|v| v.to_bits() == 0));

    // lengths that leave a ragged tail after the last whole huge page
    for len in [
        HUGE_PAGE_BYTES / 8,
        HUGE_PAGE_BYTES / 8 + 1,
        3 * HUGE_PAGE_BYTES / 8 + 7,
    ] {
        let buf = zeroed_buffer(len);
        assert_eq!(buf.len(), len);
        assert!(buf.iter().all(|v| v.to_bits() == 0));
    }
}
