//! Top-level kernel simulation: one call produces everything the paper
//! measures for one `(stencil, kernel config, GPU, programming model)`
//! point — FLOP rate, arithmetic intensity, per-level data movement,
//! occupancy and the limiting resource.

use serde::{Deserialize, Serialize};

use brick_vm::{KernelSpec, TraceGeometry};

use crate::arch::{GpuArch, GpuKind};
use crate::compiler::{compile, CompiledKernel};
use crate::hierarchy::simulate_memory;
use crate::progmodel::{CompilerModel, ProgModel};
use crate::timing::{kernel_time, occupancy, MemCounters, Occupancy, TimeBreakdown};

/// Fraction of spill traffic that misses the L1 and reaches the L2
/// (spill working sets are thread-private and mostly L2-contained).
const SPILL_L2_FRACTION: f64 = 0.5;

/// Everything measured for one simulated kernel launch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Kernel name.
    pub kernel: String,
    /// GPU simulated.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// Launch blocks.
    pub num_blocks: u64,
    /// Interior grid points.
    pub points: u64,
    /// Simulated byte totals (spill traffic folded in).
    pub mem: MemCounters,
    /// Normalised FLOPs (the paper's minimum count, §4.4).
    pub normalized_flops: u64,
    /// FLOPs the kernel actually executes.
    pub executed_flops: u64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Performance in GFLOP/s at the normalised FLOP count.
    pub gflops: f64,
    /// Empirical arithmetic intensity: normalised FLOPs / DRAM bytes.
    pub ai: f64,
    /// Occupancy picture.
    pub occupancy: Occupancy,
    /// Registers per thread after compilation.
    pub regs_per_thread: u32,
    /// True if the compiler spilled.
    pub spilled: bool,
    /// Time breakdown by limiting resource.
    pub breakdown: TimeBreakdown,
}

impl SimResult {
    /// Bytes moved per interior point at the DRAM level. A degenerate
    /// geometry with no interior points reports 0.0 rather than NaN/inf,
    /// so downstream averages and serialized artifacts stay finite.
    pub fn dram_bytes_per_point(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.mem.dram_bytes as f64 / self.points as f64
    }
}

/// Simulate `spec` over `geom` on `arch` under `model`.
///
/// `normalized_flops_per_point` is the symmetry-minimal FLOP count from
/// [`brick_dsl::StencilAnalysis`], applied identically to every kernel as
/// §4.4 prescribes. Returns `None` when the programming model is not
/// supported on the GPU (Table 1).
pub fn simulate(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    model: ProgModel,
    normalized_flops_per_point: u64,
) -> Option<SimResult> {
    let cm = CompilerModel::resolve(arch.kind, model)?;
    // A folded row (vector folding, paper §3) maps to several hardware
    // vectors per block; the row extent must tile the SIMD width exactly.
    assert!(
        spec.block().bx.is_multiple_of(arch.simd_width) && spec.block().bx > 0,
        "kernel built for SIMD width {} run on {} (width {})",
        spec.block().bx,
        arch.name,
        arch.simd_width
    );
    let _span = brick_obs::span_cat(
        format!("simulate:{}:{}/{model}", spec.name(), arch.kind),
        "simulate",
    );
    let compiled = {
        let _s = brick_obs::span_cat("compile", "compile");
        compile(spec, arch, &cm)
    };
    let occ = occupancy(arch, &compiled);
    let report = simulate_memory(spec, geom, arch, occ.blocks_per_sm);
    record_cache_metrics(arch.kind, &report);
    Some(assemble(
        spec,
        geom,
        arch,
        &cm,
        &compiled,
        report.counters(),
        normalized_flops_per_point,
    ))
}

/// Tally per-level cache behaviour into the global metrics registry (one
/// update per simulated kernel, tagged by GPU).
fn record_cache_metrics(gpu: GpuKind, report: &crate::hierarchy::MemoryReport) {
    for (level, stats) in [("l1", &report.l1), ("l2", &report.l2)] {
        brick_obs::counter_add(&format!("sim.{gpu}.{level}.hit_sectors"), stats.hit_sectors);
        brick_obs::counter_add(
            &format!("sim.{gpu}.{level}.miss_sectors"),
            stats.miss_sectors,
        );
        let total = stats.hit_sectors + stats.miss_sectors;
        if total > 0 {
            brick_obs::histogram_record(
                &format!("sim.{gpu}.{level}.hit_pct"),
                100.0 * stats.hit_sectors as f64 / total as f64,
            );
        }
    }
    brick_obs::counter_add(
        &format!("sim.{gpu}.dram.read_bytes"),
        report.dram_read_bytes,
    );
    brick_obs::counter_add(
        &format!("sim.{gpu}.dram.write_bytes"),
        report.dram_write_bytes,
    );
    brick_obs::counter_add(&format!("sim.{gpu}.dram.page_hits"), report.pages.hits);
    brick_obs::counter_add(&format!("sim.{gpu}.dram.page_misses"), report.pages.misses);
}

/// Assemble a [`SimResult`] from precomputed memory counters (lets
/// callers reuse one memory simulation across compiler models whose
/// occupancy matches).
pub fn assemble(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    cm: &CompilerModel,
    compiled: &CompiledKernel,
    mut mem: MemCounters,
    normalized_flops_per_point: u64,
) -> SimResult {
    let num_blocks = geom.num_blocks() as u64;
    let spill = compiled.spill_bytes_per_block() * num_blocks;
    mem.l1_bytes += spill;
    mem.l2_bytes += (spill as f64 * SPILL_L2_FRACTION) as u64;
    if spill > 0 {
        brick_obs::counter_add("sim.spill.kernels", 1);
        brick_obs::counter_add("sim.spill.bytes", spill);
    }

    let points = geom.interior_points();
    let normalized_flops = normalized_flops_per_point * points;
    let executed_flops = compiled.exec_flops_per_block * num_blocks;

    let breakdown = {
        let _s = brick_obs::span_cat("timing", "timing");
        kernel_time(arch, cm, compiled, &mem, num_blocks)
    };
    let occ = occupancy(arch, compiled);
    brick_obs::counter_add(&format!("sim.limiter.{}", breakdown.limiter()), 1);
    brick_obs::histogram_record("sim.regs_per_thread", compiled.regs_per_thread as f64);
    brick_obs::histogram_record("sim.occupancy_pct", occ.occupancy * 100.0);
    SimResult {
        kernel: spec.name().to_string(),
        gpu: arch.kind,
        model: cm.model,
        num_blocks,
        points,
        mem,
        normalized_flops,
        executed_flops,
        time_s: breakdown.time,
        gflops: normalized_flops as f64 / breakdown.time / 1e9,
        ai: normalized_flops as f64 / mem.dram_bytes as f64,
        occupancy: occ,
        regs_per_thread: compiled.regs_per_thread,
        spilled: compiled.spills(),
        breakdown,
    }
}

/// Compile and report occupancy without running the memory simulation
/// (used by callers that want to decide whether counters can be shared).
pub fn compile_only(
    spec: &KernelSpec,
    arch: &GpuArch,
    model: ProgModel,
) -> Option<(CompilerModel, CompiledKernel, Occupancy)> {
    let cm = CompilerModel::resolve(arch.kind, model)?;
    let compiled = compile(spec, arch, &cm);
    let occ = occupancy(arch, &compiled);
    Some((cm, compiled, occ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, LayoutKind};
    use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
    use brick_dsl::shape::StencilShape;
    use brick_dsl::StencilAnalysis;
    use brick_vm::ScalarKernel;
    use std::sync::Arc;

    fn geom_for(layout: LayoutKind, n: usize, width: usize, radius: usize) -> TraceGeometry {
        match layout {
            LayoutKind::Brick => {
                let d = Arc::new(BrickDecomp::new(
                    (n.max(4 * width), n, n),
                    BrickDims::for_simd_width(width),
                    radius,
                    BrickOrdering::Lexicographic,
                ));
                TraceGeometry::brick(Arc::new(BrickNav::new(d)))
            }
            LayoutKind::Array => TraceGeometry::array(
                (n.max(4 * width), n, n),
                radius,
                BrickDims::for_simd_width(width),
            ),
        }
    }

    fn run(
        shape: StencilShape,
        layout: LayoutKind,
        codegen: bool,
        arch: &GpuArch,
        model: ProgModel,
        n: usize,
    ) -> Option<SimResult> {
        let st = shape.stencil();
        let b = st.default_bindings();
        let w = arch.simd_width;
        let spec = if codegen {
            KernelSpec::Vector(generate(&st, &b, layout, w, CodegenOptions::default()).unwrap())
        } else {
            KernelSpec::Scalar(ScalarKernel::new(&st, &b, layout, w).unwrap())
        };
        let geom = geom_for(layout, n, w, shape.radius as usize);
        let a = StencilAnalysis::of_shape(&shape);
        simulate(&spec, &geom, arch, model, a.flops_per_point)
    }

    #[test]
    fn unsupported_model_returns_none() {
        let arch = GpuArch::pvc_stack();
        assert!(run(
            StencilShape::star(1),
            LayoutKind::Brick,
            true,
            &arch,
            ProgModel::Cuda,
            32
        )
        .is_none());
    }

    #[test]
    fn bricks_codegen_beats_scalar_array_on_every_platform() {
        // scaled-down caches put the 64³ test grid in the paper's
        // regime: grid ≫ L2, so DRAM traffic governs as at 512³
        for (arch, model) in [
            (GpuArch::a100().scaled_down(32), ProgModel::Cuda),
            (GpuArch::mi250x_gcd().scaled_down(32), ProgModel::Hip),
            (GpuArch::pvc_stack().scaled_down(64), ProgModel::Sycl),
        ] {
            let shape = StencilShape::cube(1);
            let bricks = run(shape, LayoutKind::Brick, true, &arch, model, 64).unwrap();
            let array = run(shape, LayoutKind::Array, false, &arch, model, 64).unwrap();
            assert!(
                bricks.gflops > array.gflops,
                "{}: bricks {:.0} !> array {:.0} GFLOP/s",
                arch.name,
                bricks.gflops,
                array.gflops
            );
            // At this test size the domain is only a few bricks wide, so
            // ghost-brick edge reads are a large fraction of traffic and
            // depress the bricks AI (on MI250X a 64-wide brick row is
            // 512 B, making the shell overhead worst). Only guard against
            // gross inversions here — the full-scale AI ordering is the
            // Fig. 3 experiment's job.
            assert!(bricks.ai >= array.ai * 0.45, "{}: AI ordering", arch.name);
        }
    }

    #[test]
    fn sycl_array_gap_exceeds_cuda_array_gap() {
        // paper §5.1: codegen helps a little under CUDA, enormously under
        // SYCL for the high-order stencils
        let arch = GpuArch::a100();
        let shape = StencilShape::cube(2);
        let cuda_scalar = run(shape, LayoutKind::Array, false, &arch, ProgModel::Cuda, 64).unwrap();
        let cuda_cg = run(shape, LayoutKind::Array, true, &arch, ProgModel::Cuda, 64).unwrap();
        let sycl_scalar = run(shape, LayoutKind::Array, false, &arch, ProgModel::Sycl, 64).unwrap();
        let sycl_cg = run(shape, LayoutKind::Array, true, &arch, ProgModel::Sycl, 64).unwrap();
        let cuda_gap = cuda_cg.gflops / cuda_scalar.gflops;
        let sycl_gap = sycl_cg.gflops / sycl_scalar.gflops;
        assert!(
            sycl_gap > 2.0 * cuda_gap,
            "sycl gap {sycl_gap:.1} vs cuda gap {cuda_gap:.1}"
        );
        assert!(sycl_scalar.spilled);
    }

    #[test]
    fn ai_bounded_by_theory() {
        // empirical AI can never exceed the compulsory-traffic bound
        for shape in [StencilShape::star(1), StencilShape::cube(1)] {
            let arch = GpuArch::a100();
            let r = run(shape, LayoutKind::Brick, true, &arch, ProgModel::Cuda, 64).unwrap();
            let theory = StencilAnalysis::of_shape(&shape).theoretical_ai;
            assert!(
                r.ai <= theory * 1.001,
                "{shape}: AI {:.3} > theory {theory:.3}",
                r.ai
            );
            assert!(
                r.ai > 0.2 * theory,
                "{shape}: AI {:.3} way below theory",
                r.ai
            );
        }
    }

    #[test]
    fn hip_equals_cuda_on_a100() {
        let shape = StencilShape::star(2);
        let arch = GpuArch::a100();
        let c = run(shape, LayoutKind::Brick, true, &arch, ProgModel::Cuda, 64).unwrap();
        let h = run(shape, LayoutKind::Brick, true, &arch, ProgModel::Hip, 64).unwrap();
        assert_eq!(c.mem, h.mem);
        assert!((c.gflops - h.gflops).abs() < 1e-9);
    }

    #[test]
    fn gflops_consistent_with_time() {
        let shape = StencilShape::star(1);
        let arch = GpuArch::mi250x_gcd();
        let r = run(shape, LayoutKind::Brick, true, &arch, ProgModel::Hip, 64).unwrap();
        let recomputed = r.normalized_flops as f64 / r.time_s / 1e9;
        assert!((r.gflops - recomputed).abs() / recomputed < 1e-12);
        assert!(r.dram_bytes_per_point() >= 16.0);
    }

    #[test]
    #[should_panic(expected = "SIMD width")]
    fn width_mismatch_panics() {
        let shape = StencilShape::star(1);
        // kernel for width 16 on A100 (width 32): not a whole number of
        // hardware vectors per row, so no fold factor makes it legal
        let st = shape.stencil();
        let b = st.default_bindings();
        let spec = KernelSpec::Vector(
            generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap(),
        );
        let geom = geom_for(LayoutKind::Brick, 32, 16, 1);
        let arch = GpuArch::a100();
        let _ = simulate(&spec, &geom, &arch, ProgModel::Cuda, 8);
    }

    #[test]
    fn folded_row_simulates_as_two_warps() {
        // a fold-2 kernel (64-wide row on A100) is a legal launch: two
        // hardware vectors per block, occupancy accounted at 64 threads
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let spec = KernelSpec::Vector(
            generate(&st, &b, LayoutKind::Brick, 64, CodegenOptions::default()).unwrap(),
        );
        let geom = geom_for(LayoutKind::Brick, 64, 64, 1);
        let arch = GpuArch::a100();
        let r = simulate(&spec, &geom, &arch, ProgModel::Cuda, 8).unwrap();
        assert!(r.gflops > 0.0);
        assert_eq!(
            r.occupancy.resident_warps,
            2 * r.occupancy.blocks_per_sm,
            "fold-2 block holds two hardware vectors"
        );
    }
}
