//! # brick-dsl
//!
//! A Rust embedding of the BrickLib stencil DSL from the paper
//! *"Performance Portability Evaluation of Blocked Stencil Computations on
//! GPUs"* (SC-W 2023, Fig. 1).
//!
//! Stencils are expressed as linear combinations of shifted grid accesses
//! with symbolic constant coefficients:
//!
//! ```
//! use brick_dsl::{GridRef, ConstRef, Stencil};
//!
//! let input = GridRef::new("in");
//! let a0 = ConstRef::new("MPI_B0");
//! let a1 = ConstRef::new("MPI_B1");
//!
//! // 7-point star stencil (radius 1)
//! let calc = a0 * input.offset(0, 0, 0)
//!     + a1.clone() * input.offset(1, 0, 0)
//!     + a1.clone() * input.offset(-1, 0, 0)
//!     + a1.clone() * input.offset(0, 1, 0)
//!     + a1.clone() * input.offset(0, -1, 0)
//!     + a1.clone() * input.offset(0, 0, 1)
//!     + a1.clone() * input.offset(0, 0, -1);
//!
//! let stencil = Stencil::assign("out", calc).unwrap();
//! assert_eq!(stencil.points(), 7);
//! assert_eq!(stencil.coefficient_classes(), 2);
//! ```
//!
//! The crate also provides the paper's benchmark shape generators
//! ([`shape::star`], [`shape::cube`], Table 2), static analysis used by the
//! Roofline study (FLOPs per point, theoretical arithmetic intensity,
//! Table 4) and a scalar reference executor ([`mod@reference`]) that serves as
//! the numerical gold standard for every generated kernel.

pub mod analysis;
pub mod dense;
pub mod expr;
mod hugepage;
pub mod reference;
pub mod shape;
pub mod stencil;

pub use analysis::{min_live_registers, StencilAnalysis, BYTES_PER_POINT};
pub use dense::DenseGrid;
pub use expr::{ConstRef, Expr, GridRef};
pub use shape::{ShapeKind, StencilShape};
pub use stencil::{CoeffBindings, Offset, Stencil, Tap};
