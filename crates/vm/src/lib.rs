//! # brick-vm
//!
//! Executes the kernels of the BrickLib reproduction:
//!
//! * numerically, over real field data, parallelised with Rayon — used to
//!   validate every generated kernel against the scalar reference;
//! * as an address trace streamed into a [`TraceSink`] — used by the GPU
//!   simulator at full problem scale (no field data is allocated).
//!
//! [`KernelSpec`] unifies the two kernel families the paper evaluates:
//! generated vector kernels ([`brick_codegen::VectorKernel`], the
//! `* codegen` configurations) and scalar SIMT kernels ([`ScalarKernel`],
//! the plain `array` configuration).

pub mod classes;
pub mod exec;
pub mod geom;
pub mod native;
pub mod scalar;
pub mod trace;

pub use classes::{BlockClasses, CompiledTrace, StreamEvent};
pub use exec::{
    executor_threads, kernel_reach, run_vector_array, run_vector_array_backend,
    run_vector_array_mode, run_vector_brick, run_vector_brick_backend, run_vector_brick_mode,
    trace_vector_block, VmError,
};
pub use geom::{ArrayAddr, TraceGeometry, DEFAULT_IN_BASE, DEFAULT_OUT_BASE};
pub use native::{resolve, resolve_with, Backend, CpuFeatures, ExecutionMode, Plan, SafetySummary};
pub use scalar::{run_scalar_array, run_scalar_brick, trace_scalar_block, ScalarKernel};
pub use trace::{CountingSink, NullSink, RecordingSink, TraceSink};

use brick_codegen::{LayoutKind, VectorKernel};
use brick_core::{ArrayGrid, BrickDims, BrickGrid};
use brick_dsl::DenseGrid;

/// A kernel of either family, ready to execute or trace.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// Generated vector kernel (`array codegen` / `bricks codegen`).
    Vector(VectorKernel),
    /// Scalar SIMT kernel (`array`, or un-generated brick kernels).
    Scalar(ScalarKernel),
}

impl KernelSpec {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        match self {
            KernelSpec::Vector(k) => &k.name,
            KernelSpec::Scalar(k) => &k.name,
        }
    }

    /// The layout the kernel addresses.
    pub fn layout(&self) -> LayoutKind {
        match self {
            KernelSpec::Vector(k) => k.layout,
            KernelSpec::Scalar(k) => k.layout,
        }
    }

    /// Home-block geometry.
    pub fn block(&self) -> BrickDims {
        match self {
            KernelSpec::Vector(k) => k.block,
            KernelSpec::Scalar(k) => k.block,
        }
    }

    /// True for generated (vector) kernels.
    pub fn is_codegen(&self) -> bool {
        matches!(self, KernelSpec::Vector(_))
    }

    /// Replay the address stream of launch block `i` into `sink`.
    ///
    /// Fails with [`VmError`] when `geom` does not match the kernel's layout
    /// or block geometry, or `i` is out of range. Full static verification of
    /// vector kernels happens once per kernel (see [`brick_lint::verify`]),
    /// not per traced block.
    pub fn trace_block(
        &self,
        geom: &TraceGeometry,
        i: usize,
        sink: &mut impl TraceSink,
    ) -> Result<(), VmError> {
        match self {
            KernelSpec::Vector(k) => trace_vector_block(k, geom, i, sink),
            KernelSpec::Scalar(k) => trace_scalar_block(k, geom, i, sink),
        }
    }
}

/// Run any kernel numerically over a dense input and return the dense
/// result — the one-call validation path used by tests and examples.
///
/// Builds the layout-appropriate grids (brick decomposition or padded
/// array), executes out-of-place, and converts back.
///
/// Back-compat wrapper for [`run_numeric_dense_mode`] using the process
/// default mode (`BRICK_EXEC`, else `Auto`); all modes are bit-identical.
pub fn run_numeric_dense(spec: &KernelSpec, input: &DenseGrid) -> Result<DenseGrid, VmError> {
    run_numeric_dense_mode(spec, input, ExecutionMode::from_env())
}

/// [`run_numeric_dense`] under an explicit [`ExecutionMode`]. Scalar
/// (SIMT) kernels have no vector IR to compile and always run their own
/// reference loop, whatever the mode.
pub fn run_numeric_dense_mode(
    spec: &KernelSpec,
    input: &DenseGrid,
    mode: ExecutionMode,
) -> Result<DenseGrid, VmError> {
    match (spec, spec.layout()) {
        (KernelSpec::Vector(k), LayoutKind::Brick) => {
            let in_grid = BrickGrid::from_dense(input, k.block);
            let mut out_grid = BrickGrid::with_metadata(
                std::sync::Arc::clone(in_grid.decomp()),
                std::sync::Arc::clone(in_grid.info()),
            );
            run_vector_brick_mode(k, &in_grid, &mut out_grid, mode)?;
            Ok(out_grid.to_dense())
        }
        (KernelSpec::Vector(k), LayoutKind::Array) => {
            let in_grid = ArrayGrid::from_dense(input);
            let (nx, ny, nz) = input.extents();
            let mut out_grid = ArrayGrid::new(nx, ny, nz, input.halo());
            run_vector_array_mode(k, &in_grid, &mut out_grid, mode)?;
            Ok(out_grid.to_dense())
        }
        (KernelSpec::Scalar(k), LayoutKind::Brick) => {
            let in_grid = BrickGrid::from_dense(input, k.block);
            let mut out_grid = BrickGrid::with_metadata(
                std::sync::Arc::clone(in_grid.decomp()),
                std::sync::Arc::clone(in_grid.info()),
            );
            run_scalar_brick(k, &in_grid, &mut out_grid)?;
            Ok(out_grid.to_dense())
        }
        (KernelSpec::Scalar(k), LayoutKind::Array) => {
            let in_grid = ArrayGrid::from_dense(input);
            let (nx, ny, nz) = input.extents();
            let mut out_grid = ArrayGrid::new(nx, ny, nz, input.halo());
            run_scalar_array(k, &in_grid, &mut out_grid)?;
            Ok(out_grid.to_dense())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions};
    use brick_dsl::reference;
    use brick_dsl::shape::StencilShape;

    #[test]
    fn kernel_spec_dispatch_all_four_paths() {
        let shape = StencilShape::star(2);
        let st = shape.stencil();
        let b = st.default_bindings();
        let mut input = DenseGrid::new(16, 8, 8, 2);
        input.fill_test_pattern();
        let mut expect = DenseGrid::new(16, 8, 8, 2);
        reference::apply(&st, &b, &input, &mut expect).unwrap();

        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            let vk = KernelSpec::Vector(
                generate(&st, &b, layout, 16, CodegenOptions::default()).unwrap(),
            );
            let sk = KernelSpec::Scalar(ScalarKernel::new(&st, &b, layout, 16).unwrap());
            for spec in [vk, sk] {
                let got = run_numeric_dense(&spec, &input).unwrap();
                let diff = got.max_rel_diff(&expect);
                assert!(diff < 1e-12, "{} ({layout}): {diff}", spec.name());
                assert_eq!(spec.layout(), layout);
            }
        }
    }

    #[test]
    fn spec_metadata_accessors() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let vk = KernelSpec::Vector(
            generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap(),
        );
        assert!(vk.is_codegen());
        assert_eq!(vk.block().bx, 32);
        let sk = KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, 64).unwrap());
        assert!(!sk.is_codegen());
        assert_eq!(sk.block().bx, 64);
        assert!(sk.name().contains("array"));
    }
}
