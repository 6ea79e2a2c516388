//! # brick-codegen
//!
//! The vector code generator of the BrickLib reproduction: lowers a
//! normalised stencil ([`brick_dsl::Stencil`]) to an abstract vector IR
//! ([`ir::VectorKernel`]) implementing the three optimisations of paper
//! §3 — vector folding, reuse of array common subexpressions through
//! register buffers + shuffles, and vector scatter for high-order
//! stencils — plus source emitters that render the kernels as CUDA, HIP
//! or SYCL text ([`emit`]).
//!
//! ```
//! use brick_codegen::{generate, CodegenOptions, LayoutKind};
//! use brick_dsl::shape::StencilShape;
//!
//! let stencil = StencilShape::star(2).stencil();
//! let bindings = stencil.default_bindings();
//! let kernel = generate(
//!     &stencil,
//!     &bindings,
//!     LayoutKind::Brick,
//!     32, // NVIDIA A100 warp width
//!     CodegenOptions::default(),
//! )
//! .unwrap();
//! assert!(kernel.loads_are_unique()); // every row loaded exactly once
//! ```

pub mod emit;
pub mod generate;
pub mod ir;
pub mod regalloc;
pub mod spec;
pub(crate) mod temporal;

pub use emit::{emit_scalar, emit_vector, Dialect};
pub use generate::{
    fused_vreg_count, generate, CodegenError, CodegenOptions, AUTO_REGISTER_BUDGET, VREG_CAPACITY,
};
pub use ir::{KernelStats, LayoutKind, Strategy, VOp, VectorKernel};
pub use spec::SpecParams;
