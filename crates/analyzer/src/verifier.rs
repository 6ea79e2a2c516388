//! Pass 1 — the structural verifier, the only check of a kernel's
//! structural invariants: full def-before-use dataflow, dead-definition
//! detection, coefficient-table bounds (both directions: out-of-range
//! indices and never-referenced entries), lane ranges, shift distances,
//! store coverage, and row-coordinate legality — every `LoadRow`'s
//! `ry`/`rz` must stay within one block of the home block, because brick
//! adjacency resolves at most one neighbour per axis.
//!
//! The verifier reports *every* violation, not just the first, each
//! anchored to its op index.

use brick_codegen::{VOp, VectorKernel};

use crate::diag::{Diagnostic, LintCode, Report};

/// Run the verifier over `kernel`, appending findings to `report`.
pub fn run(kernel: &VectorKernel, report: &mut Report) {
    let _span = brick_obs::span_cat("lint:verifier", "lint");
    if kernel.block.bx != kernel.width {
        report.push(Diagnostic::global(
            LintCode::WidthMismatch,
            format!(
                "block x extent {} != vector width {}",
                kernel.block.bx, kernel.width
            ),
        ));
    }

    let num_regs = kernel.num_regs;
    let (by, bz) = (kernel.block.by as i16, kernel.block.bz as i16);
    let mut defined = vec![false; num_regs];
    let mut coeff_used = vec![false; kernel.coeffs.len()];
    let mut stored = std::collections::HashSet::new();

    for (i, op) in kernel.ops.iter().enumerate() {
        for r in op.uses() {
            if r as usize >= num_regs {
                report.push(Diagnostic::at(
                    LintCode::RegOutOfRange,
                    i,
                    format!("register r{r} read but only {num_regs} registers are declared"),
                ));
            } else if !defined[r as usize] {
                report.push(Diagnostic::at(
                    LintCode::UseBeforeDef,
                    i,
                    format!("register r{r} read before any write"),
                ));
            }
        }
        if let Some(d) = op.def() {
            if d as usize >= num_regs {
                report.push(Diagnostic::at(
                    LintCode::RegOutOfRange,
                    i,
                    format!("register r{d} written but only {num_regs} registers are declared"),
                ));
            } else {
                defined[d as usize] = true;
            }
        }
        match *op {
            VOp::LoadRow {
                rx,
                ry,
                rz,
                lane0,
                lanes,
                ..
            } => {
                if !(-1..=1).contains(&rx) {
                    report.push(
                        Diagnostic::at(
                            LintCode::RxOutsideAdjacency,
                            i,
                            format!("load rx {rx} selects a block beyond the ±x neighbours"),
                        )
                        .with_help("brick adjacency reaches exactly one block per axis"),
                    );
                }
                if !(-by..2 * by).contains(&ry) {
                    report.push(
                        Diagnostic::at(
                            LintCode::RowOutsideAdjacency,
                            i,
                            format!(
                                "load row ry {ry} outside one-block adjacency of the \
                                 {}x{} home block",
                                kernel.block.by, kernel.block.bz
                            ),
                        )
                        .with_help(format!(
                            "ry must lie in {}..{} (home rows 0..{by} plus one \
                             neighbouring block)",
                            -by,
                            2 * by
                        )),
                    );
                }
                if !(-bz..2 * bz).contains(&rz) {
                    report.push(
                        Diagnostic::at(
                            LintCode::RowOutsideAdjacency,
                            i,
                            format!(
                                "load row rz {rz} outside one-block adjacency of the \
                                 {}x{} home block",
                                kernel.block.by, kernel.block.bz
                            ),
                        )
                        .with_help(format!(
                            "rz must lie in {}..{} (home rows 0..{bz} plus one \
                             neighbouring block)",
                            -bz,
                            2 * bz
                        )),
                    );
                }
                if lanes == 0 || lane0 as usize + lanes as usize > kernel.width {
                    report.push(Diagnostic::at(
                        LintCode::LaneRange,
                        i,
                        format!(
                            "lane range [{lane0}, {lane0}+{lanes}) outside width {}",
                            kernel.width
                        ),
                    ));
                }
            }
            VOp::ShiftX { dx, .. } if dx == 0 || dx.unsigned_abs() as usize >= kernel.width => {
                report.push(Diagnostic::at(
                    LintCode::ShiftInvalid,
                    i,
                    format!("shift dx {dx} invalid for width {}", kernel.width),
                ));
            }
            VOp::StoreRow { ry, rz, .. } => {
                if ry < 0 || ry >= by || rz < 0 || rz >= bz {
                    report.push(Diagnostic::at(
                        LintCode::StoreOutsideBlock,
                        i,
                        format!("store row ({ry},{rz}) outside the home block"),
                    ));
                } else if !stored.insert((ry, rz)) {
                    report.push(Diagnostic::at(
                        LintCode::DuplicateStore,
                        i,
                        format!("row ({ry},{rz}) stored twice"),
                    ));
                }
            }
            _ => {}
        }
        if let VOp::Fma { coeff, .. } | VOp::Mul { coeff, .. } = *op {
            if coeff as usize >= kernel.coeffs.len() {
                report.push(Diagnostic::at(
                    LintCode::CoeffIndexOutOfRange,
                    i,
                    format!(
                        "coefficient index {coeff} outside the {}-entry table",
                        kernel.coeffs.len()
                    ),
                ));
            } else {
                coeff_used[coeff as usize] = true;
            }
        }
    }

    let expected_rows = kernel.block.by * kernel.block.bz;
    if stored.len() != expected_rows {
        report.push(Diagnostic::global(
            LintCode::IncompleteStores,
            format!(
                "kernel stores {} rows, home block has {expected_rows}",
                stored.len()
            ),
        ));
    }

    let unused: Vec<usize> = coeff_used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(i, _)| i)
        .collect();
    if !unused.is_empty() {
        report.push(Diagnostic::global(
            LintCode::UnusedCoefficient,
            format!("coefficient table entries {unused:?} are never referenced"),
        ));
    }

    dead_defs(kernel, report);
}

/// Backward liveness scan flagging values written but never read before
/// the register is redefined (or the program ends).
fn dead_defs(kernel: &VectorKernel, report: &mut Report) {
    let mut used_since = vec![false; kernel.num_regs];
    for (i, op) in kernel.ops.iter().enumerate().rev() {
        if let Some(d) = op.def() {
            if (d as usize) < kernel.num_regs {
                if !used_since[d as usize] {
                    report.push(Diagnostic::at(
                        LintCode::DeadDef,
                        i,
                        format!("register r{d} written here but the value is never read"),
                    ));
                }
                used_since[d as usize] = false;
            }
        }
        for r in op.uses() {
            if (r as usize) < kernel.num_regs {
                used_since[r as usize] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_kernel;

    fn check(k: &VectorKernel) -> Report {
        let mut r = Report::new(&k.name);
        run(k, &mut r);
        r
    }

    #[test]
    fn tiny_kernel_is_clean() {
        let r = check(&tiny_kernel());
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn out_of_range_ry_rejected_with_op_index() {
        let mut k = tiny_kernel();
        if let VOp::LoadRow { ry, .. } = &mut k.ops[0] {
            *ry = -2; // block is 4x1x1: legal ry is -1..2
        }
        let r = check(&k);
        let hits = r.with_code(LintCode::RowOutsideAdjacency);
        assert_eq!(hits.len(), 1, "{r}");
        assert_eq!(hits[0].op, Some(0));
    }

    #[test]
    fn out_of_range_rz_rejected() {
        let mut k = tiny_kernel();
        if let VOp::LoadRow { rz, .. } = &mut k.ops[0] {
            *rz = 2;
        }
        let r = check(&k);
        assert_eq!(r.with_code(LintCode::RowOutsideAdjacency).len(), 1, "{r}");
    }

    #[test]
    fn one_block_adjacency_is_legal() {
        // -1 and 2*b - 1 on either row axis resolve through adjacency: no
        // error.
        for (ry, rz) in [(-1i16, 0), (1, 0), (0, -1), (0, 1)] {
            let mut k = tiny_kernel();
            if let VOp::LoadRow { ry: y, rz: z, .. } = &mut k.ops[0] {
                *y = ry;
                *z = rz;
            }
            let r = check(&k);
            assert!(!r.has_errors(), "ry {ry} rz {rz}: {r}");
        }
    }

    #[test]
    fn use_before_def_and_reg_range() {
        let mut k = tiny_kernel();
        k.ops.remove(0);
        let r = check(&k);
        assert!(!r.with_code(LintCode::UseBeforeDef).is_empty());

        let mut k = tiny_kernel();
        if let VOp::Mul { a, .. } = &mut k.ops[1] {
            *a = 9;
        }
        let r = check(&k);
        assert!(!r.with_code(LintCode::RegOutOfRange).is_empty());
    }

    #[test]
    fn dead_def_warned_not_errored() {
        let mut k = tiny_kernel();
        k.num_regs = 3;
        k.ops.insert(1, VOp::Add { dst: 2, a: 0, b: 0 });
        let r = check(&k);
        assert!(!r.has_errors(), "{r}");
        let dead = r.with_code(LintCode::DeadDef);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].op, Some(1));
    }

    #[test]
    fn unused_coefficient_warned() {
        let mut k = tiny_kernel();
        k.coeffs.push(7.0);
        let r = check(&k);
        assert!(!r.has_errors());
        assert_eq!(r.with_code(LintCode::UnusedCoefficient).len(), 1);
    }

    #[test]
    fn multiple_violations_all_reported() {
        let mut k = tiny_kernel();
        if let VOp::LoadRow { ry, .. } = &mut k.ops[0] {
            *ry = 5;
        }
        k.coeffs.clear();
        let r = check(&k);
        assert!(!r.with_code(LintCode::RowOutsideAdjacency).is_empty());
        assert!(!r.with_code(LintCode::CoeffIndexOutOfRange).is_empty());
    }

    /// The only error `k` raises, with its op anchor.
    fn sole_error(k: &VectorKernel, code: LintCode) -> Option<usize> {
        let r = check(k);
        let hits = r.with_code(code);
        assert_eq!(hits.len(), 1, "{r}");
        assert_eq!(r.error_count(), 1, "{r}");
        hits[0].op
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut k = tiny_kernel();
        k.width = 8;
        assert_eq!(sole_error(&k, LintCode::WidthMismatch), None);
    }

    #[test]
    fn empty_or_overwide_lane_range_rejected() {
        for (lane0, lanes) in [(0u16, 0u16), (1, 4), (4, 1)] {
            let mut k = tiny_kernel();
            if let VOp::LoadRow {
                lane0: l0,
                lanes: n,
                ..
            } = &mut k.ops[0]
            {
                *l0 = lane0;
                *n = lanes;
            }
            assert_eq!(sole_error(&k, LintCode::LaneRange), Some(0));
        }
    }

    #[test]
    fn shift_dx_zero_or_full_width_rejected() {
        for dx in [0i16, 4, -4] {
            let mut k = tiny_kernel();
            k.num_regs = 2;
            k.ops.insert(
                1,
                VOp::ShiftX {
                    dst: 1,
                    src: 0,
                    edge: 0,
                    dx,
                },
            );
            if let VOp::Mul { a, .. } = &mut k.ops[2] {
                *a = 1;
            }
            assert_eq!(sole_error(&k, LintCode::ShiftInvalid), Some(1), "dx {dx}");
        }
    }

    #[test]
    fn load_rx_beyond_one_block_rejected() {
        let mut k = tiny_kernel();
        if let VOp::LoadRow { rx, .. } = &mut k.ops[0] {
            *rx = 2;
        }
        assert_eq!(sole_error(&k, LintCode::RxOutsideAdjacency), Some(0));
    }

    #[test]
    fn store_outside_home_block_rejected() {
        let mut k = tiny_kernel();
        k.ops.push(VOp::StoreRow {
            src: 0,
            ry: 1,
            rz: 0,
        });
        assert_eq!(sole_error(&k, LintCode::StoreOutsideBlock), Some(3));
    }

    #[test]
    fn double_store_rejected() {
        let mut k = tiny_kernel();
        k.ops.push(VOp::StoreRow {
            src: 0,
            ry: 0,
            rz: 0,
        });
        assert_eq!(sole_error(&k, LintCode::DuplicateStore), Some(3));
    }

    #[test]
    fn missing_store_rejected() {
        let mut k = tiny_kernel();
        k.ops.pop();
        assert_eq!(sole_error(&k, LintCode::IncompleteStores), None);
    }

    #[test]
    fn out_of_range_coeff_rejected() {
        let mut k = tiny_kernel();
        k.coeffs.clear();
        assert_eq!(sole_error(&k, LintCode::CoeffIndexOutOfRange), Some(1));
    }
}
