//! Compilation: verified vector IR → fused row program.
//!
//! [`Plan::compile`] runs once per kernel, in three steps:
//!
//! 1. the analyzer's bounds proof ([`brick_lint::prove_bounds`]) —
//!    register, lane, shift, and coefficient indices re-checked against
//!    the kernel's declared shape, plus the footprint pass's load reach;
//! 2. the fuser ([`super::fuse`]), which compiles the IR into per-row
//!    tapes over the input grid and per-block scratch rows, preserving the
//!    interpreter's operation order and arithmetic exactly (the
//!    bit-identity argument is in [`super`]) — or refuses the kernel with
//!    the limit it crosses, reported as [`VmError::Unsupported`];
//! 3. the brick-safe proof ([`super::safe`]) over the fused program,
//!    which must hold before the plan can reach a dispatcher.
//!
//! A compiled plan therefore always runs on the fused executors; the
//! interpreter (`ExecutionMode::Scalar`) runs any verified kernel,
//! including one the fuser refuses.

use brick_codegen::VectorKernel;

use super::fuse::{self, FusedKernel};
use super::safe::{self, SafetySummary};
use crate::exec::VmError;

/// A compiled kernel: the fused row program plus the shape facts the
/// executors rely on. Fields are crate-visible so the brick-safe prover
/// ([`super::safe`]) can walk — and, in its mutation harness, perturb —
/// the program; external code goes through the accessors.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) width: usize,
    pub(crate) block: brick_core::BrickDims,
    pub(crate) reach: [i64; 3],
    /// The fused-row program (see [`super::fuse`]).
    pub(crate) fused: FusedKernel,
    /// Summary of the brick-safe proof discharged by [`Plan::compile`].
    pub(crate) safety: SafetySummary,
}

impl Plan {
    /// Compile a kernel. Verification (including the analyzer's bounds
    /// proof) happens here; a kernel that fails it is rejected with the
    /// full structured report, and one the fuser cannot express with
    /// [`VmError::Unsupported`] naming the reason.
    pub fn compile(kernel: &VectorKernel) -> Result<Plan, VmError> {
        let proof = brick_lint::prove_bounds(kernel).map_err(VmError::InvalidKernel)?;
        let fused = fuse::fuse(kernel).map_err(|why| {
            VmError::Unsupported(format!(
                "kernel `{}` has no compiled form: {why}",
                kernel.name
            ))
        })?;
        // brick-safe: discharge every memory-safety obligation the native
        // backends rely on before the plan can exist. An unprovable plan
        // never reaches a dispatcher.
        let safety = safe::prove(&kernel.name, kernel.width, kernel.block, &fused)
            .map_err(VmError::UnsafePlan)?;
        Ok(Plan {
            width: kernel.width,
            block: kernel.block,
            reach: proof.reach,
            fused,
            safety,
        })
    }

    /// Summary of the brick-safe proof discharged at compile time.
    pub fn safety(&self) -> SafetySummary {
        self.safety
    }

    /// Re-run the brick-safe prover over this plan and return the fresh
    /// summary. [`Plan::compile`] already proved the plan once; this is
    /// the standalone entry for the `bricks lint --native` CLI and the
    /// overhead benchmark.
    pub fn verify_safety(&self) -> Result<SafetySummary, VmError> {
        safe::prove_plan(self).map_err(VmError::UnsafePlan)
    }

    /// Discharge the geometry-dependent half of the tap-bounds obligation
    /// (BS001) for an array grid of `nx × ny × nz` interior points with
    /// `halo` cells of padding: every tap row of every tile the executor
    /// will visit stays inside the padded slab. Vacuously `Ok` for
    /// brick-resolved plans, whose tap bounds are fully discharged at
    /// compile time (plus the per-run adjacency premise checked in
    /// `crate::exec`).
    pub fn check_array_geometry(
        &self,
        nx: usize,
        ny: usize,
        nz: usize,
        halo: usize,
    ) -> Result<(), VmError> {
        safe::check_array_geometry(self, nx, ny, nz, halo).map_err(VmError::UnsafePlan)
    }

    /// Vector width of the compiled kernel.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Home-block geometry of the compiled kernel.
    pub fn block(&self) -> brick_core::BrickDims {
        self.block
    }

    /// Per-axis load reach carried over from the bounds proof.
    pub fn reach(&self) -> [i64; 3] {
        self.reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, LayoutKind, VOp};
    use brick_dsl::shape::StencilShape;

    #[test]
    fn compile_accepts_the_paper_suite() {
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let k = generate(&st, &b, layout, 16, CodegenOptions::default()).unwrap();
                let plan = Plan::compile(&k).unwrap();
                assert_eq!(plan.width(), 16);
                assert_eq!(plan.reach(), brick_lint::load_reach(&k), "{shape}");
            }
        }
    }

    #[test]
    fn compile_rejects_invalid_kernels_with_the_full_report() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let mut k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let last = k
            .ops
            .iter()
            .rposition(|op| matches!(op, VOp::StoreRow { .. }))
            .unwrap();
        k.ops.remove(last);
        match Plan::compile(&k) {
            Err(VmError::InvalidKernel(report)) => assert!(report.has_errors()),
            other => panic!("expected InvalidKernel, got {other:?}"),
        }
    }
}
