//! The brick executor's per-run adjacency premise: every neighbour entry
//! of an interior brick names a brick inside the input slab. A table that
//! breaks it (an unset entry, or an id past the slab) must stop the run
//! with the premise's message before that brick forms a single tap
//! pointer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use brick_codegen::{generate, CodegenOptions, LayoutKind, VectorKernel};
use brick_core::{BrickDims, BrickGrid, NO_BRICK};
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{run_vector_brick, run_vector_brick_backend, Backend, CpuFeatures};

const N: usize = 64;
const WIDTH: usize = 32;

fn star7() -> VectorKernel {
    let st = StencilShape::star(1).stencil();
    let b = st.default_bindings();
    generate(&st, &b, LayoutKind::Brick, WIDTH, CodegenOptions::default()).unwrap()
}

/// A 64³ star-7 input whose first interior brick has its `+x` entry
/// replaced by `entry`, and a zeroed output over the same metadata.
fn broken_grids(entry: impl Fn(usize) -> u32) -> (BrickGrid, BrickGrid, u32) {
    let mut dense = DenseGrid::new(N, N, N, 1);
    dense.fill_test_pattern();
    let good = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(WIDTH));
    let decomp = Arc::clone(good.decomp());
    let nb = decomp.num_bricks();
    let first = (0..nb as u32)
        .find(|&id| decomp.is_interior(id))
        .expect("a 64³ domain has interior bricks");
    let mut info = (**good.info()).clone();
    info.set_neighbor(first, 1, 0, 0, entry(nb));
    let info = Arc::new(info);
    let input = BrickGrid::with_metadata(Arc::clone(&decomp), Arc::clone(&info));
    let output = BrickGrid::with_metadata(decomp, info);
    (input, output, first)
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the run must fail");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn compiled_backends() -> Vec<Backend> {
    let feats = CpuFeatures::detect();
    let mut v = vec![Backend::Portable];
    if feats.avx2 && feats.fma {
        v.push(Backend::Avx2);
    }
    v
}

fn assert_premise_rejects(entry: impl Fn(usize) -> u32 + Copy, what: &str) {
    let kernel = star7();
    let (input, _, first) = broken_grids(entry);
    let bad = entry(input.decomp().num_bricks());
    let expect = format!("adjacency entry {bad} of interior brick {first} outside");

    // all workers: the run fails with the premise's message
    let (input, mut output, _) = broken_grids(entry);
    let msg = panic_message(|| {
        let _ = run_vector_brick(&kernel, &input, &mut output);
    });
    assert!(msg.contains(&expect), "{what}: got {msg:?}");

    // one worker, per compiled backend: the broken brick is the first one
    // evaluated, so the failure comes before any block writes its output
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for backend in compiled_backends() {
        let (input, mut output, _) = broken_grids(entry);
        let msg = panic_message(|| {
            one.install(|| {
                let _ = run_vector_brick_backend(&kernel, &input, &mut output, backend);
            })
        });
        assert!(msg.contains(&expect), "{what} {backend}: got {msg:?}");
        assert!(
            output.raw().iter().all(|&x| x == 0.0),
            "{what} {backend}: a block was evaluated before the premise failed"
        );
    }
}

#[test]
fn an_unset_interior_entry_fails_the_premise() {
    assert_premise_rejects(|_| NO_BRICK, "NO_BRICK entry");
}

#[test]
fn an_entry_past_the_slab_fails_the_premise() {
    assert_premise_rejects(|nb| nb as u32 + 5, "entry past the slab");
}
