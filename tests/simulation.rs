//! Cross-crate integration tests of the simulation pipeline: DSL →
//! codegen → trace → cache hierarchy → timing → metrics, checked through
//! physically-necessary invariants rather than golden numbers.

use std::sync::Arc;

use bricks_repro::codegen::{generate, CodegenOptions, LayoutKind};
use bricks_repro::core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::dsl::StencilAnalysis;
use bricks_repro::gpu_sim::{simulate, simulate_memory, CacheStats, GpuArch, ProgModel};
use bricks_repro::metrics::pennycook_p;
use bricks_repro::roofline::{measure, Roofline};
use bricks_repro::vm::{KernelSpec, ScalarKernel, TraceGeometry};

fn brick_geom(n: usize, width: usize, radius: usize) -> TraceGeometry {
    let d = Arc::new(BrickDecomp::new(
        (n, n, n),
        BrickDims::for_simd_width(width),
        radius,
        BrickOrdering::Lexicographic,
    ));
    TraceGeometry::brick(Arc::new(BrickNav::new(d)))
}

fn bricks_spec(shape: &StencilShape, width: usize) -> KernelSpec {
    let st = shape.stencil();
    let b = st.default_bindings();
    KernelSpec::Vector(
        generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default()).unwrap(),
    )
}

#[test]
fn dram_traffic_bounded_below_by_compulsory_everywhere() {
    for arch in GpuArch::all() {
        let w = arch.simd_width;
        for shape in [StencilShape::star(1), StencilShape::cube(1)] {
            let geom = brick_geom(2 * w.max(32), w, shape.radius as usize);
            let spec = bricks_spec(&shape, w);
            let rep = simulate_memory(&spec, &geom, &arch, 8);
            let dram = rep.dram_read_bytes + rep.dram_write_bytes;
            assert!(
                dram >= geom.compulsory_bytes(),
                "{} {shape}: {dram} < compulsory {}",
                arch.name,
                geom.compulsory_bytes()
            );
            // writes are exactly the interior (full-row stores, no
            // write-allocate reads)
            assert_eq!(rep.dram_write_bytes, geom.interior_points() * 8);
        }
    }
}

#[test]
fn byte_hierarchy_is_monotone_for_every_config() {
    let arch = GpuArch::a100();
    let n = 64;
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        let radius = shape.radius as usize;
        let specs = vec![
            (
                KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, 32).unwrap()),
                TraceGeometry::array((n, n, n), radius, BrickDims::for_simd_width(32)),
            ),
            (bricks_spec(&shape, 32), brick_geom(n, 32, radius)),
        ];
        for (spec, geom) in specs {
            let rep = simulate_memory(&spec, &geom, &arch, 4);
            assert!(
                rep.l1.requested_bytes >= rep.l2.requested_bytes,
                "{shape} {}",
                spec.name()
            );
            assert!(
                rep.l2.requested_bytes >= rep.dram_read_bytes + rep.dram_write_bytes,
                "{shape} {}",
                spec.name()
            );
        }
    }
}

#[test]
fn simulated_points_never_beat_their_roofline() {
    for (arch, model) in [
        (GpuArch::a100(), ProgModel::Cuda),
        (GpuArch::mi250x_gcd(), ProgModel::Sycl),
        (GpuArch::pvc_stack(), ProgModel::Sycl),
    ] {
        let rl: Roofline = measure(&arch, model).unwrap();
        let w = arch.simd_width;
        for shape in [StencilShape::star(2), StencilShape::cube(2)] {
            let a = StencilAnalysis::of_shape(&shape);
            let geom = brick_geom(2 * w.max(64), w, shape.radius as usize);
            let sim = simulate(
                &bricks_spec(&shape, w),
                &geom,
                &arch,
                model,
                a.flops_per_point,
            )
            .unwrap();
            assert!(
                sim.gflops <= rl.attainable(sim.ai) * 1.05,
                "{} {shape}: {:.0} above roofline {:.0}",
                arch.name,
                sim.gflops,
                rl.attainable(sim.ai)
            );
        }
    }
}

#[test]
fn portability_metric_end_to_end() {
    // efficiency per platform from the simulator, P from the metric crate
    let shape = StencilShape::star(2);
    let a = StencilAnalysis::of_shape(&shape);
    let mut effs = Vec::new();
    for (arch, model) in [
        (GpuArch::a100(), ProgModel::Cuda),
        (GpuArch::mi250x_gcd(), ProgModel::Hip),
        (GpuArch::pvc_stack(), ProgModel::Sycl),
    ] {
        let w = arch.simd_width;
        let geom = brick_geom(128, w, shape.radius as usize);
        let sim = simulate(
            &bricks_spec(&shape, w),
            &geom,
            &arch,
            model,
            a.flops_per_point,
        )
        .unwrap();
        let rl = measure(&arch, model).unwrap();
        effs.push(Some(rl.fraction(sim.gflops, sim.ai)));
    }
    let p = pennycook_p(&effs);
    assert!(p > 0.3 && p <= 1.0, "P = {p}");
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let arch = GpuArch::mi250x_gcd();
    let shape = StencilShape::cube(1);
    let a = StencilAnalysis::of_shape(&shape);
    let spec = bricks_spec(&shape, 64);
    let geom = brick_geom(128, 64, 1);
    let r1 = simulate(&spec, &geom, &arch, ProgModel::Hip, a.flops_per_point).unwrap();
    let r2 = simulate(&spec, &geom, &arch, ProgModel::Hip, a.flops_per_point).unwrap();
    assert_eq!(r1.mem, r2.mem);
    assert_eq!(r1.time_s, r2.time_s);
    assert_eq!(r1.gflops, r2.gflops);
}

#[test]
fn larger_domains_scale_traffic_linearly_when_streaming() {
    // doubling the domain ~8x the points; DRAM bytes must scale ~8x once
    // the grid exceeds the L2 (use the scaled-down arch to be sure)
    let arch = GpuArch::a100().scaled_down(32);
    let shape = StencilShape::star(1);
    let spec = bricks_spec(&shape, 32);
    let small = simulate_memory(&spec, &brick_geom(64, 32, 1), &arch, 8);
    let large = simulate_memory(&spec, &brick_geom(128, 32, 1), &arch, 8);
    let ratio = (large.dram_read_bytes + large.dram_write_bytes) as f64
        / (small.dram_read_bytes + small.dram_write_bytes) as f64;
    assert!(
        (ratio - 8.0).abs() < 2.0,
        "traffic ratio {ratio} far from 8x"
    );
}

#[test]
fn morton_and_lexicographic_orderings_agree_on_compulsory_writes() {
    let arch = GpuArch::a100();
    let shape = StencilShape::star(1);
    let spec = bricks_spec(&shape, 32);
    for ordering in [BrickOrdering::Lexicographic, BrickOrdering::Morton] {
        let d = Arc::new(BrickDecomp::new(
            (64, 64, 64),
            BrickDims::for_simd_width(32),
            1,
            ordering,
        ));
        let geom = TraceGeometry::brick(Arc::new(BrickNav::new(d)));
        let rep = simulate_memory(&spec, &geom, &arch, 8);
        assert_eq!(
            rep.dram_write_bytes,
            geom.interior_points() * 8,
            "{ordering:?}"
        );
    }
}

#[test]
fn spilled_sycl_kernel_is_slower_than_cuda_same_trace() {
    // the 125pt scalar kernel spills under the SYCL model but not CUDA;
    // identical memory trace, different compiled kernel -> slower
    let arch = GpuArch::a100();
    let shape = StencilShape::cube(2);
    let st = shape.stencil();
    let b = st.default_bindings();
    let a = StencilAnalysis::of_shape(&shape);
    let spec = KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, 32).unwrap());
    let geom = TraceGeometry::array((64, 64, 64), 2, BrickDims::for_simd_width(32));
    let cuda = simulate(&spec, &geom, &arch, ProgModel::Cuda, a.flops_per_point).unwrap();
    let sycl = simulate(&spec, &geom, &arch, ProgModel::Sycl, a.flops_per_point).unwrap();
    assert!(!cuda.spilled);
    assert!(sycl.spilled);
    assert!(
        sycl.gflops < cuda.gflops * 0.7,
        "{} !< {}",
        sycl.gflops,
        cuda.gflops
    );
    assert!(sycl.mem.l1_bytes > cuda.mem.l1_bytes);
}

/// One pinned cell: exact merged-L1 and L2 [`CacheStats`] plus the
/// timing counters. Each simulates in well under a second; the A100
/// bricks cell is long enough for the wave-periodic fast-forward to skip
/// 96 of its waves.
fn pinned_cell(name: &str) -> (GpuArch, KernelSpec, TraceGeometry, u32) {
    let brick = |shape: &StencilShape, dims, w: usize, ordering: BrickOrdering| {
        let d = Arc::new(BrickDecomp::new(
            dims,
            BrickDims::for_simd_width(w),
            shape.radius as usize,
            ordering,
        ));
        (
            bricks_spec(shape, w),
            TraceGeometry::brick(Arc::new(BrickNav::new(d))),
        )
    };
    match name {
        "a100-bricks-star2" => {
            let (spec, geom) = brick(
                &StencilShape::star(2),
                (64, 64, 512),
                32,
                BrickOrdering::Lexicographic,
            );
            (GpuArch::a100().scaled_down(8), spec, geom, 2)
        }
        "mi250x-array-cube1" => {
            let shape = StencilShape::cube(1);
            let st = shape.stencil();
            let b = st.default_bindings();
            let spec = KernelSpec::Vector(
                generate(&st, &b, LayoutKind::Array, 64, CodegenOptions::default()).unwrap(),
            );
            let geom = TraceGeometry::array((128, 128, 128), 1, BrickDims::for_simd_width(64));
            (GpuArch::mi250x_gcd().scaled_down(2), spec, geom, 2)
        }
        "pvc-scalar-array-star1" => {
            let shape = StencilShape::star(1);
            let st = shape.stencil();
            let b = st.default_bindings();
            let spec =
                KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, 16).unwrap());
            let geom = TraceGeometry::array((64, 64, 64), 1, BrickDims::for_simd_width(16));
            (GpuArch::pvc_stack().scaled_down(16), spec, geom, 2)
        }
        "a100-morton-star1" => {
            let (spec, geom) = brick(
                &StencilShape::star(1),
                (64, 64, 64),
                32,
                BrickOrdering::Morton,
            );
            (GpuArch::a100().scaled_down(16), spec, geom, 8)
        }
        other => panic!("no pinned cell {other}"),
    }
}

#[test]
fn simulated_counters_are_pinned() {
    // Exact values recorded with the reference cache model (the oracle
    // in crates/gpu-sim/tests/cache_model.rs). Any change here is a
    // change to every simulated byte count in the paper's tables:
    // regenerate the goldens and explain it, or fix the model.
    for (name, l1, l2, dram) in PINNED {
        let (arch, spec, geom, bpsm) = pinned_cell(name);
        let rep = simulate_memory(&spec, &geom, &arch, bpsm);
        let flat = |s: &CacheStats| {
            [
                s.accesses,
                s.requested_bytes,
                s.hit_sectors,
                s.miss_sectors,
                s.fill_bytes,
                s.writeout_bytes,
                s.line_visits,
            ]
        };
        let c = rep.counters();
        let got = (
            flat(&rep.l1),
            flat(&rep.l2),
            [
                c.dram_read_bytes,
                c.dram_write_bytes,
                c.pages.hits,
                c.pages.misses,
            ],
        );
        assert_eq!(got, (l1, l2, dram), "{name}");
        assert_eq!(
            c.l1_bytes,
            rep.l1.line_visits * arch.l1_line as u64,
            "{name}"
        );
        assert_eq!(c.l2_bytes, l2[1], "{name}");
        assert_eq!(c.dram_bytes, dram[0] + dram[1], "{name}");
    }
}

/// `(cell, merged L1 stats, L2 stats, [DRAM read, DRAM write, page hits,
/// page misses])`; stats in [`CacheStats`] field order.
type Pinned = (&'static str, [u64; 7], [u64; 7], [u64; 4]);

const PINNED: [Pinned; 4] = [
    (
        "a100-bricks-star2",
        [393216, 71303168, 0, 1703936, 54525952, 16777216, 655360],
        [
            2228224, 71303168, 1077248, 1150976, 20054016, 16777216, 2228224,
        ],
        [20054016, 16777216, 1051120, 99856],
    ),
    (
        "mi250x-array-cube1",
        [253952, 63963136, 0, 737280, 47185920, 16777216, 999424],
        [999424, 63963136, 392687, 606737, 22053952, 16777216, 999424],
        [22053952, 16777216, 337538, 269199],
    ),
    (
        "pvc-scalar-array-star1",
        [131072, 18874368, 163840, 98304, 6291456, 2097152, 294912],
        [131072, 8388608, 55296, 75776, 2752512, 2097152, 131072],
        [2752512, 2097152, 69373, 6403],
    ),
    (
        "a100-morton-star1",
        [40960, 6815744, 0, 147456, 4718592, 2097152, 65536],
        [212992, 6815744, 69632, 143360, 2490368, 2097152, 212992],
        [2490368, 2097152, 133300, 10060],
    ),
];
