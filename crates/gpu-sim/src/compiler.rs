//! Lowering kernels through a compiler model: register demand, spills,
//! dynamic instruction counts.
//!
//! This is where the programming models differentiate. The same kernel
//! source (IR or scalar tap list) passes through the
//! [`CompilerModel`] of the `(GPU, model)` pair, producing the
//! register/instruction picture that drives occupancy, spill traffic and
//! issue time — the mechanisms behind the CUDA-vs-SYCL gaps of §5.

use serde::{Deserialize, Serialize};

use brick_vm::KernelSpec;

use crate::arch::GpuArch;
use crate::progmodel::CompilerModel;

/// Fixed per-thread instruction overhead (prologue, bounds, block-index
/// arithmetic).
const THREAD_OVERHEAD_INSTRS: f64 = 15.0;

/// Average dynamic uses of a spilled value (1 store + `uses` reloads).
const SPILL_USES: u64 = 2;

/// Fixed per-thread architectural register overhead (prologue, block
/// indices) of the best-case compiler: the least
/// [`CompilerModel::reg_overhead`] of any supported pair.
const REG_OVERHEAD: u32 = 16;

/// Architectural register demand per thread under the best-case compiler:
/// two 32-bit registers per live f64 plus fixed overhead. No supported
/// `(GPU, model)` pair lowers a vector kernel of `vector_regs` registers
/// to fewer (up to the per-thread ceiling), which keeps the tuner's
/// validity and pruning tiers sound.
pub fn reg_demand(vector_regs: u32) -> u32 {
    2 * vector_regs + REG_OVERHEAD
}

/// A kernel lowered for one `(architecture, programming model)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// 32-bit architectural registers per thread (doubles take two).
    pub regs_per_thread: u32,
    /// Threads per launch block.
    pub threads_per_block: u32,
    /// Warps (SIMD groups) per launch block.
    pub warps_per_block: u32,
    /// Dynamic warp-instructions per block.
    pub instrs_per_block: f64,
    /// Executed lane FLOPs per block (FMA = 2).
    pub exec_flops_per_block: u64,
    /// Local-memory bytes read per block due to register spills.
    pub spill_read_bytes_per_block: u64,
    /// Local-memory bytes written per block due to register spills.
    pub spill_write_bytes_per_block: u64,
}

impl CompiledKernel {
    /// Total spill traffic per block.
    pub fn spill_bytes_per_block(&self) -> u64 {
        self.spill_read_bytes_per_block + self.spill_write_bytes_per_block
    }

    /// True if the compiler had to spill registers.
    pub fn spills(&self) -> bool {
        self.spill_bytes_per_block() > 0
    }
}

/// Lower `spec` for `arch` under `cm`.
pub fn compile(spec: &KernelSpec, arch: &GpuArch, cm: &CompilerModel) -> CompiledKernel {
    match spec {
        KernelSpec::Vector(k) => {
            let w = k.width as u32;
            // Vector folding: a row wider than the hardware vector maps to
            // `fold` SIMD groups per block, each executing every IR vector
            // op on its slice of the row.
            let fold = (w / arch.simd_width as u32).max(1);
            // A vector register is one f64 per lane = 2 architectural
            // 32-bit registers per thread.
            let demand =
                (2.0 * k.num_regs as f64 * cm.reg_inflation).ceil() as u32 + cm.reg_overhead;
            let regs = demand.min(arch.max_regs_per_thread);
            let spilled_f64 =
                demand.saturating_sub(cm.spill_ceiling.min(arch.max_regs_per_thread)) as u64 / 2;
            // Spill traffic: each spilled value is stored once and
            // reloaded SPILL_USES times per block, lane-wide.
            let spill_write = spilled_f64 * 8 * w as u64;
            let spill_read = spilled_f64 * 8 * w as u64 * SPILL_USES;

            let s = &k.stats;
            // One ShiftX = two shuffle primitives (up+down halves) plus a
            // lane select.
            let shift_instrs = s.shifts as f64 * (2.0 * cm.shuffle_instrs + 1.0);
            let mem_instrs = (s.loads + s.stores) as f64 * (1.0 + cm.addr_instrs_per_access * 0.5);
            let alu_instrs = (s.fmas + s.adds + s.muls) as f64;
            let spill_instrs = (spilled_f64 * (1 + SPILL_USES)) as f64;
            // Each warp issues the full op stream over its row slice, so
            // dynamic warp-instructions scale with the fold factor.
            let instrs = (shift_instrs + mem_instrs + alu_instrs + spill_instrs) * fold as f64
                + THREAD_OVERHEAD_INSTRS;

            CompiledKernel {
                name: k.name.clone(),
                regs_per_thread: regs,
                threads_per_block: w,
                warps_per_block: fold,
                instrs_per_block: instrs,
                exec_flops_per_block: s.flops() * w as u64,
                spill_read_bytes_per_block: spill_read,
                spill_write_bytes_per_block: spill_write,
            }
        }
        KernelSpec::Scalar(k) => {
            let block = k.block;
            let threads = block.volume() as u32;
            let warps = (block.volume() / block.bx) as u32;
            let points = k.points() as f64;
            let classes = k.num_classes() as f64;

            // Live f64 values per thread: the running class sums plus, for
            // a compiler without good scheduling/CSE, a large fraction of
            // the gathered taps held live simultaneously.
            let live_factor = if cm.scalar_cse { 0.15 } else { 0.75 };
            let live_f64 = classes + live_factor * points + 6.0;
            let demand = (2.0 * live_f64 * cm.reg_inflation).ceil() as u32 + cm.reg_overhead;
            let regs = demand.min(arch.max_regs_per_thread);
            let spilled_f64 =
                demand.saturating_sub(cm.spill_ceiling.min(arch.max_regs_per_thread)) as u64 / 2;
            let spill_write = spilled_f64 * 8 * threads as u64;
            let spill_read = spilled_f64 * 8 * threads as u64 * SPILL_USES;

            // Per-thread dynamic instructions.
            let per_thread = points * (1.0 + cm.addr_instrs_per_access) // loads + addressing
                + (points + classes)                                    // FMA/add chain
                + 1.0 + cm.addr_instrs_per_access                       // store
                + spilled_f64 as f64 * (1 + SPILL_USES) as f64
                + THREAD_OVERHEAD_INSTRS;
            let instrs = per_thread * threads as f64 / block.bx as f64;

            // Executed FLOPs per point for the Fig. 2 schedule: in-class
            // adds fused into FMAs where possible ≈ points + classes.
            let flops_per_point = (k.points() + k.num_classes()) as u64;

            CompiledKernel {
                name: k.name.clone(),
                regs_per_thread: regs,
                threads_per_block: threads,
                warps_per_block: warps,
                instrs_per_block: instrs,
                exec_flops_per_block: flops_per_point * block.volume() as u64,
                spill_read_bytes_per_block: spill_read,
                spill_write_bytes_per_block: spill_write,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuKind;
    use crate::progmodel::ProgModel;
    use brick_codegen::{generate, CodegenOptions, LayoutKind};
    use brick_dsl::shape::StencilShape;
    use brick_vm::ScalarKernel;

    fn vector_spec(shape: StencilShape, width: usize) -> KernelSpec {
        let st = shape.stencil();
        let b = st.default_bindings();
        KernelSpec::Vector(
            generate(&st, &b, LayoutKind::Brick, width, CodegenOptions::default()).unwrap(),
        )
    }

    fn scalar_spec(shape: StencilShape, width: usize) -> KernelSpec {
        let st = shape.stencil();
        let b = st.default_bindings();
        KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, width).unwrap())
    }

    fn cm(gpu: GpuKind, m: ProgModel) -> CompilerModel {
        CompilerModel::resolve(gpu, m).unwrap()
    }

    #[test]
    fn vector_kernel_block_is_one_warp() {
        let arch = GpuArch::a100();
        let c = compile(
            &vector_spec(StencilShape::star(1), 32),
            &arch,
            &cm(GpuKind::A100, ProgModel::Cuda),
        );
        assert_eq!(c.threads_per_block, 32);
        assert_eq!(c.warps_per_block, 1);
        assert!(!c.spills());
    }

    #[test]
    fn scalar_kernel_block_is_4x4xw() {
        let arch = GpuArch::a100();
        let c = compile(
            &scalar_spec(StencilShape::star(1), 32),
            &arch,
            &cm(GpuKind::A100, ProgModel::Cuda),
        );
        assert_eq!(c.threads_per_block, 512);
        assert_eq!(c.warps_per_block, 16);
    }

    #[test]
    fn sycl_scalar_125pt_spills_cuda_does_not() {
        let arch = GpuArch::a100();
        let spec = scalar_spec(StencilShape::cube(2), 32);
        let cuda = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Cuda));
        let sycl = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Sycl));
        assert!(!cuda.spills(), "CUDA 125pt regs {}", cuda.regs_per_thread);
        assert!(sycl.spills(), "SYCL 125pt regs {}", sycl.regs_per_thread);
        assert!(sycl.instrs_per_block > cuda.instrs_per_block);
    }

    #[test]
    fn sycl_uses_more_registers_and_instructions() {
        let arch = GpuArch::a100();
        let spec = vector_spec(StencilShape::star(2), 32);
        let cuda = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Cuda));
        let sycl = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Sycl));
        assert!(sycl.regs_per_thread > cuda.regs_per_thread);
        assert!(sycl.instrs_per_block > cuda.instrs_per_block);
    }

    #[test]
    fn hip_on_a100_compiles_identically_to_cuda() {
        let arch = GpuArch::a100();
        for spec in [
            vector_spec(StencilShape::cube(1), 32),
            scalar_spec(StencilShape::star(3), 32),
        ] {
            let cuda = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Cuda));
            let hip = compile(&spec, &arch, &cm(GpuKind::A100, ProgModel::Hip));
            assert_eq!(cuda, hip);
        }
    }

    #[test]
    fn scatter_kernel_avoids_spilling_where_gather_spills() {
        use brick_codegen::Strategy;
        let st = StencilShape::cube(2).stencil();
        let b = st.default_bindings();
        let arch = GpuArch::a100();
        let model = cm(GpuKind::A100, ProgModel::Cuda);
        let gather = generate(
            &st,
            &b,
            LayoutKind::Brick,
            32,
            CodegenOptions {
                strategy: Strategy::Gather,
                ..Default::default()
            },
        )
        .unwrap();
        let auto = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
        let cg = compile(&KernelSpec::Vector(gather), &arch, &model);
        let ca = compile(&KernelSpec::Vector(auto), &arch, &model);
        assert!(cg.spills());
        assert!(!ca.spills());
    }

    #[test]
    fn best_case_demand_never_exceeds_any_compiled_demand() {
        // the paper suite at every width and feasible temporal degree
        let mut kernels = Vec::new();
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                for width in [16, 32, 64] {
                    for t in 1..=4 / shape.radius {
                        let opts = CodegenOptions {
                            temporal_degree: t,
                            ..Default::default()
                        };
                        kernels.push(generate(&st, &b, layout, width, opts).unwrap());
                    }
                }
            }
        }
        // and every register count up to past the per-thread ceiling
        let base = kernels[0].clone();
        kernels.extend((0..=160).map(|n| brick_codegen::VectorKernel {
            num_regs: n,
            ..base.clone()
        }));

        // the paper matrix is every supported (GPU, model) pair
        for k in &kernels {
            let best = reg_demand(k.num_regs as u32);
            let spec = KernelSpec::Vector(k.clone());
            for (gpu, model) in ProgModel::paper_matrix() {
                let arch = GpuArch::by_kind(gpu);
                let c = compile(&spec, arch, &cm(gpu, model));
                assert!(
                    best.min(arch.max_regs_per_thread) <= c.regs_per_thread,
                    "{} ({} regs) on {} / {}: best case {best} > compiled {}",
                    k.name,
                    k.num_regs,
                    arch.name,
                    model,
                    c.regs_per_thread
                );
            }
        }
    }

    #[test]
    fn exec_flops_scale_with_block_volume() {
        let arch = GpuArch::mi250x_gcd();
        let c = compile(
            &scalar_spec(StencilShape::star(1), 64),
            &arch,
            &cm(GpuKind::Mi250xGcd, ProgModel::Hip),
        );
        // (7 points + 2 classes) * 4*4*64 points
        assert_eq!(c.exec_flops_per_block, 9 * 1024);
    }
}
