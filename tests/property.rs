//! Property-based tests (proptest) on the core invariants:
//!
//! * any linear stencil the DSL accepts is computed identically by the
//!   scalar reference, the brick kernels and the generated vector code;
//! * dense ↔ brick conversion round-trips for arbitrary geometry and both
//!   brick orderings, halo and ghost points included;
//! * generated kernels never reload a row and always validate;
//! * the cache model conserves bytes (fills ≥ distinct data, hits+misses
//!   account for every sector).

use proptest::collection::vec;
use proptest::prelude::*;

use bricks_repro::codegen::{generate, CodegenOptions, LayoutKind, Strategy as CgStrategy};
use bricks_repro::core::{BrickDims, BrickGrid, BrickOrdering};
use bricks_repro::dsl::stencil::{LinCoeff, Tap};
use bricks_repro::dsl::{reference, DenseGrid, Stencil};
use bricks_repro::vm::{run_numeric_dense, KernelSpec, ScalarKernel};

/// Strategy: a random linear stencil with ≤ 12 taps within radius 3 and
/// small non-degenerate weights.
fn arb_stencil() -> impl Strategy<Value = Stencil> {
    vec(((-3i32..=3), (-3i32..=3), (-3i32..=3), (1i32..=8)), 1..12).prop_map(|taps| {
        let taps: Vec<Tap> = taps
            .into_iter()
            .map(|(dx, dy, dz, w)| Tap {
                offset: [dx, dy, dz],
                coeff: LinCoeff {
                    constant: w as f64 / 8.0,
                    terms: Default::default(),
                },
            })
            .collect();
        // merge duplicates the way the DSL normaliser would
        let mut merged: Vec<Tap> = Vec::new();
        for t in taps {
            match merged.iter_mut().find(|m| m.offset == t.offset) {
                Some(m) => m.coeff.constant += t.coeff.constant,
                None => merged.push(t),
            }
        }
        merged.sort_by_key(|t| t.offset);
        Stencil::from_taps("prop", "out", "in", merged)
    })
}

fn run_all_paths(st: &Stencil, input: &DenseGrid) -> Vec<(String, DenseGrid)> {
    let b = st.default_bindings();
    let mut out = Vec::new();
    for layout in [LayoutKind::Brick, LayoutKind::Array] {
        for strategy in [CgStrategy::Gather, CgStrategy::Scatter] {
            let k = generate(
                st,
                &b,
                layout,
                16,
                CodegenOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            let name = k.name.clone();
            out.push((
                name,
                run_numeric_dense(&KernelSpec::Vector(k), input).unwrap(),
            ));
        }
        let sk = ScalarKernel::new(st, &b, layout, 16).unwrap();
        let name = sk.name.clone();
        out.push((
            name,
            run_numeric_dense(&KernelSpec::Scalar(sk), input).unwrap(),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_stencils_agree_across_all_execution_paths(st in arb_stencil()) {
        let b = st.default_bindings();
        let halo = st.radius().max(1) as usize;
        let mut input = DenseGrid::new(32, 8, 8, halo);
        input.fill_test_pattern();
        let mut expect = DenseGrid::new(32, 8, 8, halo);
        reference::apply(&st, &b, &input, &mut expect).unwrap();

        for (name, got) in run_all_paths(&st, &input) {
            let diff = got.max_rel_diff(&expect);
            prop_assert!(diff < 1e-12, "{name}: rel diff {diff}");
        }
    }

    #[test]
    fn generated_kernels_validate_and_load_once(st in arb_stencil()) {
        let b = st.default_bindings();
        for strategy in [CgStrategy::Gather, CgStrategy::Scatter] {
            let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions {
                strategy,
                ..Default::default()
            }).unwrap();
            let rejection = bricks_repro::lint::verify(&k).err().map(|r| r.render(Some(&k)));
            prop_assert_eq!(rejection, None);
            prop_assert!(k.loads_are_unique());
            prop_assert_eq!(k.stats.stores as usize, 16);
        }
    }

    #[test]
    fn brick_roundtrip_arbitrary_geometry(
        bx in 1usize..=3, // x 8,16,24 via multiplier below
        tiles in (1usize..=3, 1usize..=4, 1usize..=4),
        halo in 0usize..=3,
        morton in any::<bool>(),
    ) {
        let dims = BrickDims::new(8 * bx, 4, 4);
        let ordering = if morton { BrickOrdering::Morton } else { BrickOrdering::Lexicographic };
        let (tx, ty, tz) = tiles;
        let mut dense = DenseGrid::new(dims.bx * tx, 4 * ty, 4 * tz, halo);
        dense.fill_test_pattern();
        let grid = BrickGrid::from_dense_ordered(&dense, dims, ordering);
        let back = grid.to_dense();
        // every point the round trip holds, halo included: the dense
        // grid's own points come back unchanged, the wider ghost
        // coverage beyond its halo comes back zero
        let (nx, ny, nz) = dense.extents();
        let (h, hb) = (halo as i64, back.halo() as i64);
        prop_assert!(hb >= h);
        let within = |v: i64, n: usize| v >= -h && v < n as i64 + h;
        for z in -hb..nz as i64 + hb {
            for y in -hb..ny as i64 + hb {
                for x in -hb..nx as i64 + hb {
                    let want = if within(x, nx) && within(y, ny) && within(z, nz) {
                        dense.get(x, y, z)
                    } else {
                        0.0
                    };
                    prop_assert_eq!(back.get(x, y, z).to_bits(), want.to_bits(), "({}, {}, {})", x, y, z);
                    prop_assert_eq!(grid.get(x, y, z).to_bits(), want.to_bits(), "({}, {}, {})", x, y, z);
                }
            }
        }
    }

    #[test]
    fn scaled_stencil_scales_output_linearly(
        scale in 1u32..=16,
    ) {
        // linearity of the whole pipeline: K(s·u) = s·K(u)
        let shape = bricks_repro::dsl::shape::StencilShape::cube(1);
        let st = shape.stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let spec = KernelSpec::Vector(k);

        let mut input = DenseGrid::cubic(16, 1);
        input.fill_test_pattern();
        let base = run_numeric_dense(&spec, &input).unwrap();

        let mut scaled = input.clone();
        for v in scaled.raw_mut() {
            *v *= scale as f64;
        }
        let got = run_numeric_dense(&spec, &scaled).unwrap();
        for (x, y, z) in got.interior_coords() {
            let want = base.get(x, y, z) * scale as f64;
            let diff = (got.get(x, y, z) - want).abs();
            prop_assert!(diff <= want.abs() * 1e-12 + 1e-300, "({x},{y},{z})");
        }
    }
}

mod cache_properties {
    use super::*;
    use bricks_repro::gpu_sim::{Cache, CacheConfig, WritePolicy};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cache_conserves_sectors(accesses in vec((0u64..4096, 1u32..64, any::<bool>()), 1..200)) {
            let mut c = Cache::new(CacheConfig {
                bytes: 2048,
                line: 128,
                sector: 32,
                assoc: 4,
                write: WritePolicy::BackAllocate,
            });
            let mut to_next = 0u64;
            for (addr, bytes, is_write) in accesses {
                let mut sink = |t: bricks_repro::gpu_sim::cache::NextLevel| {
                    to_next += t.bytes as u64;
                };
                if is_write {
                    c.write(addr, bytes, &mut sink);
                } else {
                    c.read(addr, bytes, &mut sink);
                }
            }
            let mut flushed = 0u64;
            c.flush(&mut |t| flushed += t.bytes as u64);
            // every sector observed is either a hit or a miss
            prop_assert_eq!(
                (c.stats.hit_sectors + c.stats.miss_sectors) * 32,
                c.stats.requested_bytes
            );
            // traffic to the next level matches the stats
            prop_assert_eq!(to_next + flushed, c.stats.next_level_bytes());
            // fills never exceed requests
            prop_assert!(c.stats.fill_bytes <= c.stats.requested_bytes);
        }

        #[test]
        fn repeating_a_read_trace_is_all_hits_when_it_fits(
            addrs in vec(0u64..16u64, 1..40)
        ) {
            // working set of 16 sectors fits a 2 KiB cache comfortably
            let mut c = Cache::new(CacheConfig {
                bytes: 2048,
                line: 128,
                sector: 32,
                assoc: 4,
                write: WritePolicy::BackAllocate,
            });
            for &a in &addrs {
                c.read(a * 32, 32, &mut |_| {});
            }
            let misses_before = c.stats.miss_sectors;
            for &a in &addrs {
                c.read(a * 32, 32, &mut |_| {});
            }
            prop_assert_eq!(c.stats.miss_sectors, misses_before);
        }
    }
}
