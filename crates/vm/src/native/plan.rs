//! Lowering: verified vector IR → flat step program.
//!
//! [`Plan::compile`] runs once per kernel. It first obtains the analyzer's
//! bounds proof ([`brick_lint::prove_bounds`] — register, lane, shift, and
//! coefficient indices re-checked against the kernel's declared shape, plus
//! the footprint pass's load reach), then lowers each op to a [`Step`] with
//! the register *offsets* (`reg * width`) pre-resolved and coefficient
//! *values* inlined. The lowering preserves the interpreter's operation
//! order and arithmetic exactly — see the bit-identity argument in
//! [`super`] — and re-validates every offset it emits, so executing a plan
//! cannot index outside the register file it sizes via
//! [`Plan::regs_len`].
//!
//! `ShiftX` lowers to at most two contiguous range copies: for `dx > 0`,
//! `dst[0..w-dx] = src[dx..w]` and `dst[w-dx..w] = edge[0..dx]` (mirrored
//! for `dx < 0`). When the destination row aliases a source row the copy
//! order could clobber inputs, so aliased shifts are detected *at compile
//! time* and routed through the plan's single scratch row instead.

use brick_codegen::{VOp, VectorKernel};

use super::fuse::{self, FusedKernel};
use super::safe::{self, SafetySummary};
use super::RowOps;
use crate::exec::VmError;

/// One lowered instruction. Offsets are row bases into the register file.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Fill `lanes` values at `dst0 + lane0` from the input row at
    /// `(rx, ry, rz)`; `full` is true when the row is fully covered
    /// (`lane0 == 0 && lanes == w`), skipping the zero-fill.
    Load {
        /// Destination row base offset.
        dst0: usize,
        /// First lane written.
        lane0: usize,
        /// Number of lanes read.
        lanes: usize,
        /// Whole row covered: no zero-fill needed.
        full: bool,
        /// Relative x in vector widths.
        rx: i8,
        /// Relative y row.
        ry: i16,
        /// Relative z row.
        rz: i16,
    },
    /// Two-copy shift; `dst0` is distinct from both source rows.
    Shift {
        /// Destination row base offset.
        dst0: usize,
        /// Shifted-in row.
        src0: usize,
        /// Wrap-around (edge) row.
        edge0: usize,
        /// Shift distance, `0 < |dx| < w`.
        dx: isize,
    },
    /// Shift whose destination aliases `src` or `edge`: compute into the
    /// scratch row, then copy to the destination.
    ShiftScratch {
        /// Destination row base offset.
        dst0: usize,
        /// Shifted-in row.
        src0: usize,
        /// Wrap-around (edge) row.
        edge0: usize,
        /// Shift distance, `0 < |dx| < w`.
        dx: isize,
    },
    /// `dst[i] = a[i] + b[i]`.
    Add {
        /// Destination row base offset.
        dst0: usize,
        /// Left operand row.
        a0: usize,
        /// Right operand row.
        b0: usize,
    },
    /// `dst[i] = a[i] * c` (coefficient value inlined).
    Mul {
        /// Destination row base offset.
        dst0: usize,
        /// Operand row.
        a0: usize,
        /// Inlined coefficient value.
        c: f64,
    },
    /// `dst[i] = fma(a[i], c, acc[i])`.
    Fma {
        /// Destination row base offset.
        dst0: usize,
        /// Accumulator row.
        acc0: usize,
        /// Multiplicand row.
        a0: usize,
        /// Inlined coefficient value.
        c: f64,
    },
    /// Write the row at `src0` to the home-block output row `(ry, rz)`.
    Store {
        /// Source row base offset.
        src0: usize,
        /// Home-block y row.
        ry: i16,
        /// Home-block z row.
        rz: i16,
    },
}

/// A compiled kernel: the lowered step program plus the shape facts the
/// executors rely on. Fields are crate-visible so the brick-safe prover
/// ([`super::safe`]) can walk — and, in its mutation harness, perturb —
/// the lowered program; external code goes through the accessors.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) width: usize,
    pub(crate) num_regs: usize,
    pub(crate) block: brick_core::BrickDims,
    pub(crate) steps: Vec<Step>,
    pub(crate) reach: [i64; 3],
    /// Fused-row program when the kernel's IR proved row-fusable (see
    /// [`super::fuse`]); `None` falls back to the step machine.
    pub(crate) fused: Option<FusedKernel>,
    /// Summary of the brick-safe proof discharged by [`Plan::compile`].
    pub(crate) safety: SafetySummary,
}

impl Plan {
    /// Lower a kernel. Verification (including the analyzer's bounds
    /// proof) happens here; a kernel that fails it is rejected with the
    /// full structured report.
    pub fn compile(kernel: &VectorKernel) -> Result<Plan, VmError> {
        let proof = brick_lint::prove_bounds(kernel).map_err(VmError::InvalidKernel)?;
        let w = kernel.width;
        let num_regs = kernel.num_regs;
        let row = |r: u16| -> Result<usize, VmError> {
            let r = r as usize;
            if r < num_regs {
                Ok(r * w)
            } else {
                // Unreachable after the bounds proof; kept as an error (not
                // a panic) so the plan can never be built from an offset
                // the proof did not cover.
                Err(VmError::Mismatch(format!(
                    "native lowering: register r{r} outside {num_regs} registers"
                )))
            }
        };
        let coeff = |c: u16| -> Result<f64, VmError> {
            kernel.coeffs.get(c as usize).copied().ok_or_else(|| {
                VmError::Mismatch(format!("native lowering: coefficient c{c} out of range"))
            })
        };
        let mut steps = Vec::with_capacity(kernel.ops.len());
        for op in &kernel.ops {
            steps.push(match *op {
                VOp::LoadRow {
                    dst,
                    rx,
                    ry,
                    rz,
                    lane0,
                    lanes,
                } => {
                    let (lane0, lanes) = (lane0 as usize, lanes as usize);
                    if lanes == 0 || lane0 + lanes > w {
                        return Err(VmError::Mismatch(format!(
                            "native lowering: lanes {lane0}+{lanes} escape width {w}"
                        )));
                    }
                    Step::Load {
                        dst0: row(dst)?,
                        lane0,
                        lanes,
                        full: lane0 == 0 && lanes == w,
                        rx,
                        ry,
                        rz,
                    }
                }
                VOp::ShiftX { dst, src, edge, dx } => {
                    let d = dx.unsigned_abs() as usize;
                    if dx == 0 || d >= w {
                        return Err(VmError::Mismatch(format!(
                            "native lowering: shift distance {dx} invalid for width {w}"
                        )));
                    }
                    let (dst0, src0, edge0) = (row(dst)?, row(src)?, row(edge)?);
                    if dst0 == src0 || dst0 == edge0 {
                        Step::ShiftScratch {
                            dst0,
                            src0,
                            edge0,
                            dx: dx as isize,
                        }
                    } else {
                        Step::Shift {
                            dst0,
                            src0,
                            edge0,
                            dx: dx as isize,
                        }
                    }
                }
                VOp::Add { dst, a, b } => Step::Add {
                    dst0: row(dst)?,
                    a0: row(a)?,
                    b0: row(b)?,
                },
                VOp::Mul { dst, a, coeff: c } => Step::Mul {
                    dst0: row(dst)?,
                    a0: row(a)?,
                    c: coeff(c)?,
                },
                VOp::Fma {
                    dst,
                    acc,
                    a,
                    coeff: c,
                } => Step::Fma {
                    dst0: row(dst)?,
                    acc0: row(acc)?,
                    a0: row(a)?,
                    c: coeff(c)?,
                },
                VOp::StoreRow { src, ry, rz } => Step::Store {
                    src0: row(src)?,
                    ry,
                    rz,
                },
            });
        }
        let fused = fuse::fuse(kernel);
        // brick-safe: discharge every memory-safety obligation the native
        // backends rely on (BS001–BS014) before the plan can exist. An
        // unprovable plan never reaches a dispatcher.
        let safety = safe::prove(
            &kernel.name,
            w,
            num_regs,
            kernel.block,
            &steps,
            fused.as_ref(),
        )
        .map_err(VmError::UnsafePlan)?;
        Ok(Plan {
            width: w,
            num_regs,
            block: kernel.block,
            steps,
            reach: proof.reach,
            fused,
            safety,
        })
    }

    /// The fused-row program, when the kernel proved fusable.
    pub(crate) fn fused(&self) -> Option<&FusedKernel> {
        self.fused.as_ref()
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
    /// non-fused plans and for brick-resolved plans, whose tap bounds are
    /// fully discharged at compile time (plus the per-run adjacency
    /// premise checked in `crate::exec`).
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

    /// Length of the register file the executors need: the kernel's
    /// registers plus one scratch row for aliased shifts.
    pub fn regs_len(&self) -> usize {
        (self.num_regs + 1) * self.width
    }

    /// Execute the plan over one block. Mirrors the interpreter's
    /// `exec_block` contract: `read_row(rx, ry, rz, lane0, dst)` fills an
    /// input row segment, `write_row(ry, rz, src)` stores an output row.
    /// `regs` must be [`Plan::regs_len`] long.
    pub(crate) fn exec_block<B: RowOps>(
        &self,
        ops: &B,
        regs: &mut [f64],
        mut read_row: impl FnMut(i8, i16, i16, usize, &mut [f64]),
        mut write_row: impl FnMut(i16, i16, &[f64]),
    ) {
        let w = self.width;
        assert_eq!(regs.len(), self.regs_len(), "register file size mismatch");
        let scratch0 = self.num_regs * w;
        for step in &self.steps {
            match *step {
                Step::Load {
                    dst0,
                    lane0,
                    lanes,
                    full,
                    rx,
                    ry,
                    rz,
                } => {
                    if !full {
                        regs[dst0..dst0 + w].fill(0.0);
                    }
                    read_row(
                        rx,
                        ry,
                        rz,
                        lane0,
                        &mut regs[dst0 + lane0..dst0 + lane0 + lanes],
                    );
                }
                Step::Shift {
                    dst0,
                    src0,
                    edge0,
                    dx,
                } => shift_rows(regs, w, dst0, src0, edge0, dx),
                Step::ShiftScratch {
                    dst0,
                    src0,
                    edge0,
                    dx,
                } => {
                    shift_rows(regs, w, scratch0, src0, edge0, dx);
                    regs.copy_within(scratch0..scratch0 + w, dst0);
                }
                Step::Add { dst0, a0, b0 } => ops.add(regs, dst0, a0, b0, w),
                Step::Mul { dst0, a0, c } => ops.mul(regs, dst0, a0, c, w),
                Step::Fma { dst0, acc0, a0, c } => ops.fma(regs, dst0, acc0, a0, c, w),
                Step::Store { src0, ry, rz } => write_row(ry, rz, &regs[src0..src0 + w]),
            }
        }
    }
}

/// The two-copy shift. `dst0` must differ from `src0` and `edge0`; each
/// copy is a `memmove` within the register file. Matches the interpreter's
/// `ShiftX` semantics: `dst[i] = src[i+dx]` in range, wrapping into `edge`.
fn shift_rows(regs: &mut [f64], w: usize, dst0: usize, src0: usize, edge0: usize, dx: isize) {
    debug_assert!(dst0 != src0 && dst0 != edge0);
    if dx > 0 {
        let d = dx as usize;
        regs.copy_within(src0 + d..src0 + w, dst0);
        regs.copy_within(edge0..edge0 + d, dst0 + w - d);
    } else {
        let d = (-dx) as usize;
        regs.copy_within(edge0 + w - d..edge0 + w, dst0);
        regs.copy_within(src0..src0 + w - d, dst0 + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, LayoutKind};
    use brick_dsl::shape::StencilShape;

    #[test]
    #[allow(clippy::needless_range_loop)] // index i mirrors the lane math under test
    fn shift_rows_matches_interpreter_semantics() {
        let w = 8;
        // rows: 0 = dst, 1 = src, 2 = edge
        let mut regs = vec![0.0; 3 * w];
        for i in 0..w {
            regs[w + i] = 10.0 + i as f64; // src
            regs[2 * w + i] = 100.0 + i as f64; // edge
        }
        for dx in [-7isize, -3, -1, 1, 3, 7] {
            let (src, edge): (Vec<f64>, Vec<f64>) =
                (regs[w..2 * w].to_vec(), regs[2 * w..3 * w].to_vec());
            shift_rows(&mut regs, w, 0, w, 2 * w, dx);
            for i in 0..w {
                let j = i as isize + dx;
                let want = if (0..w as isize).contains(&j) {
                    src[j as usize]
                } else if j < 0 {
                    edge[(j + w as isize) as usize]
                } else {
                    edge[(j - w as isize) as usize]
                };
                assert_eq!(regs[i], want, "dx={dx} lane {i}");
            }
        }
    }

    #[test]
    fn compile_accepts_the_paper_suite_and_sizes_the_register_file() {
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let k = generate(&st, &b, layout, 16, CodegenOptions::default()).unwrap();
                let plan = Plan::compile(&k).unwrap();
                assert_eq!(plan.width(), 16);
                assert_eq!(plan.regs_len(), (k.num_regs + 1) * 16);
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
