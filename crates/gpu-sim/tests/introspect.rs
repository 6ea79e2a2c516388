//! Differential suite for simulator introspection.
//!
//! The attribution is held to the same standard as the fast path itself:
//! exact `u64` equality, no tolerances. Three oracles:
//!
//! 1. **Conservation** — per-class traffic plus the flush bucket sums
//!    bit-for-bit to the `MemoryReport` the same simulation returns, and
//!    the SM-group breakdown re-weights to the merged L1.
//! 2. **Non-perturbation** — running with introspection on yields the
//!    identical report as running with it off.
//! 3. **Oracle agreement** — the report the attribution sums to equals
//!    the exact per-block tracer's ([`gpu_sim::simulate_memory_exact`]),
//!    so the scaled per-class rows add up to independently traced totals.

use brick_codegen::{generate, CodegenOptions, LayoutKind};
use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use brick_dsl::shape::StencilShape;
use brick_vm::{KernelSpec, TraceGeometry};
use gpu_sim::{
    simulate_memory_exact, simulate_memory_introspect, simulate_memory_opts, CacheStats, GpuArch,
    MemoryReport, SimIntrospection, SimOptions,
};
use std::sync::Arc;

fn brick_geom(n: usize, width: usize, radius: usize, ordering: BrickOrdering) -> TraceGeometry {
    let d = Arc::new(BrickDecomp::new(
        (n.max(width), n, n),
        BrickDims::for_simd_width(width),
        radius,
        ordering,
    ));
    TraceGeometry::brick(Arc::new(BrickNav::new(d)))
}

fn vector_spec(shape: &StencilShape, layout: LayoutKind, width: usize) -> KernelSpec {
    let st = shape.stencil();
    let b = st.default_bindings();
    KernelSpec::Vector(generate(&st, &b, layout, width, CodegenOptions::default()).unwrap())
}

fn assert_reports_equal(a: &MemoryReport, b: &MemoryReport, tag: &str) {
    assert_eq!(a.l1, b.l1, "L1: {tag}");
    assert_eq!(a.l2, b.l2, "L2: {tag}");
    assert_eq!(a.dram_read_bytes, b.dram_read_bytes, "DRAM rd: {tag}");
    assert_eq!(a.dram_write_bytes, b.dram_write_bytes, "DRAM wr: {tag}");
    assert_eq!(a.pages, b.pages, "pages: {tag}");
}

/// Oracles 1 and 2 for one cell; returns the introspection.
fn check_attribution(spec: &KernelSpec, geom: &TraceGeometry, arch: &GpuArch) -> SimIntrospection {
    let opts = SimOptions::default();
    let plain = simulate_memory_opts(spec, geom, arch, 8, &opts);
    let (report, intro) = simulate_memory_introspect(spec, geom, arch, 8, &opts);
    let tag = format!("{} on {}", spec.name(), arch.name);

    // 2: introspection must not perturb the simulation
    assert_reports_equal(&plain, &report, &tag);

    // 1: conservation — class buckets + flush == the report, bit for bit
    assert_reports_equal(&intro.report(), &report, &tag);
    assert_eq!(intro.counters(), report.counters(), "counters: {tag}");
    assert_eq!(
        intro.classes.iter().map(|c| c.blocks).sum::<u64>(),
        intro.num_blocks,
        "block census: {tag}"
    );
    assert_eq!(intro.classes.len() as u64, intro.num_classes, "{tag}");

    // SM groups re-weight to the merged L1
    let mut l1 = CacheStats::default();
    for g in &intro.sm_groups {
        l1.add_scaled(&g.l1, g.members);
    }
    assert_eq!(l1, report.l1, "SM groups: {tag}");

    // timeline samples are cumulative, hence monotone
    for w in intro.timeline.windows(2) {
        assert!(w[1].wave > w[0].wave, "timeline order: {tag}");
        assert!(
            w[1].l2_requested_bytes >= w[0].l2_requested_bytes
                && w[1].dram_read_bytes >= w[0].dram_read_bytes
                && w[1].dram_write_bytes >= w[0].dram_write_bytes,
            "timeline monotone: {tag}"
        );
    }
    intro
}

/// Oracle 3 on top: the attributed totals equal the exact tracer's.
fn check_against_oracle(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
) -> SimIntrospection {
    let intro = check_attribution(spec, geom, arch);
    let exact = simulate_memory_exact(spec, geom, arch, 8, &SimOptions::default());
    let tag = format!("{} on {} vs the exact oracle", spec.name(), arch.name);
    assert_reports_equal(&intro.report(), &exact, &tag);
    intro
}

#[test]
fn attribution_conserves_both_layouts() {
    let width = 32;
    let arch = GpuArch::a100();
    for shape in [StencilShape::star(2), StencilShape::cube(1)] {
        let radius = shape.radius as usize;
        let spec = vector_spec(&shape, LayoutKind::Brick, width);
        let geom = brick_geom(64, width, radius, BrickOrdering::Lexicographic);
        check_against_oracle(&spec, &geom, &arch);

        let spec = vector_spec(&shape, LayoutKind::Array, width);
        let geom = TraceGeometry::array((64, 64, 64), radius, BrickDims::for_simd_width(width));
        check_against_oracle(&spec, &geom, &arch);
    }
}

#[test]
fn attribution_survives_fast_forward() {
    // a launch with enough full waves that the wave-periodic
    // fast-forward engages: the scaled per-class accumulators must still
    // sum exactly, and the synthesized timeline samples must be flagged
    let width = 32;
    let arch = GpuArch::a100();
    let shape = StencilShape::star(1);
    let spec = vector_spec(&shape, LayoutKind::Brick, width);
    let geom = brick_geom(192, width, 1, BrickOrdering::Lexicographic);

    let fast = check_against_oracle(&spec, &geom, &arch);
    assert!(
        fast.wave_period.is_some() && fast.waves_skipped > 0,
        "expected fast-forward to engage: {:?} skipped {}",
        fast.wave_period,
        fast.waves_skipped
    );
    assert!(
        fast.timeline.iter().any(|s| s.fast_forwarded),
        "expected synthesized timeline samples"
    );
}

#[test]
fn fast_forward_engages_on_mi250x_and_pvc() {
    // Launches where the reference simulation (no snapshot gate)
    // fast-forwarded `parent` waves. The residency gate may move the
    // first snapshot but must not lose a period here. A gate that waits
    // for a whole period of stable residency instead of one wave skips
    // only 32 of the MI250X cell's 48 waves. Such a gate loses one period
    // when the launch has room for it and every period when it has not,
    // which it only lacks when the reference skipped a single period, so
    // the bound is the reference count itself, not one period less.
    let cells = [
        (GpuArch::mi250x_gcd().scaled_down(4), (128, 64, 512), 48, 16),
        (
            GpuArch::pvc_stack().scaled_down(16),
            (64, 64, 1024),
            1576,
            8,
        ),
    ];
    let shape = StencilShape::star(1);
    for (arch, dims, parent, period) in cells {
        let w = arch.simd_width;
        let spec = vector_spec(&shape, LayoutKind::Brick, w);
        let d = Arc::new(BrickDecomp::new(
            dims,
            BrickDims::for_simd_width(w),
            1,
            BrickOrdering::Lexicographic,
        ));
        let geom = TraceGeometry::brick(Arc::new(BrickNav::new(d)));
        let opts = SimOptions::default();
        let (report, intro) = simulate_memory_introspect(&spec, &geom, &arch, 2, &opts);
        assert_eq!(intro.wave_period, Some(period), "{}", arch.name);
        assert!(
            intro.waves_skipped >= parent,
            "{}: skipped {} waves, the reference skipped {parent}",
            arch.name,
            intro.waves_skipped
        );
        assert_reports_equal(&intro.report(), &report, arch.name);
    }
}

#[test]
fn morton_attributes_many_classes() {
    // Morton ordering fragments the launch into many block classes; the
    // breakdown must stay conservative and sum to the oracle's totals
    let width = 32;
    let arch = GpuArch::a100();
    let shape = StencilShape::star(2);
    let spec = vector_spec(&shape, LayoutKind::Brick, width);
    let geom = brick_geom(64, width, 2, BrickOrdering::Morton);
    let intro = check_against_oracle(&spec, &geom, &arch);
    assert!(
        intro.num_classes > 1,
        "Morton should produce multiple classes, got {}",
        intro.num_classes
    );
}
