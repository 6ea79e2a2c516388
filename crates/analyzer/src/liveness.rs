//! Pass 4 — register liveness.
//!
//! Recomputes the kernel's register high-water mark from op-level
//! liveness. A declared `num_regs` above it is flagged as
//! [`LintCode::OverProvisionedRegs`]. The pass prices nothing: what a
//! register count costs (spills, occupancy) depends on the compiler of
//! each `(GPU, programming model)` pair, which the simulator models.

use brick_codegen::VectorKernel;

use crate::diag::{Diagnostic, LintCode, Report};

/// Register high-water mark recomputed from op-level liveness, under the
/// same release discipline as the linear-scan allocator: a value is live
/// from its definition to its last use before the register is redefined,
/// and a dying operand's slot is released *before* the same op's
/// definition is counted (so `acc' ← acc + x·c` costs one register, not
/// two). For allocator output this equals `num_regs`; a larger declared
/// `num_regs` means the allocation is wasteful.
pub fn max_live(kernel: &VectorKernel) -> u32 {
    let n = kernel.num_regs;
    let num_ops = kernel.ops.len();
    // Backward scan: reconstruct, for each definition, the last use of its
    // value (the first use seen walking backwards before the def).
    let mut pending_use: Vec<Option<usize>> = vec![None; n];
    let mut releases = vec![0u32; num_ops]; // value deaths at each op
    let mut def_unread = vec![false; num_ops];
    for (i, op) in kernel.ops.iter().enumerate().rev() {
        // Process the def before the uses so an op reading and redefining
        // the same register attributes the read to the *previous* value.
        if let Some(d) = op.def() {
            let d = d as usize;
            if d < n {
                match pending_use[d] {
                    Some(j) => releases[j] += 1,
                    None => def_unread[i] = true,
                }
                pending_use[d] = None;
            }
        }
        for r in op.uses() {
            let r = r as usize;
            if r < n && pending_use[r].is_none() {
                pending_use[r] = Some(i);
            }
        }
    }
    let mut live: i64 = 0;
    let mut peak: i64 = 0;
    for (i, op) in kernel.ops.iter().enumerate() {
        live -= releases[i] as i64;
        if op.def().is_some_and(|d| (d as usize) < n) {
            live += 1;
            peak = peak.max(live);
            if def_unread[i] {
                live -= 1;
            }
        }
    }
    peak.max(0) as u32
}

/// Flag a declared register count above the recomputed high-water mark.
///
/// Precondition: the verifier pass found no errors.
pub fn run(kernel: &VectorKernel, report: &mut Report) {
    let _span = brick_obs::span_cat("lint:liveness", "lint");
    let live = max_live(kernel);
    if (kernel.num_regs as u32) > live {
        report.push(
            Diagnostic::global(
                LintCode::OverProvisionedRegs,
                format!(
                    "kernel declares {} registers but at most {live} are ever \
                     simultaneously live",
                    kernel.num_regs
                ),
            )
            .with_help("re-run register allocation to shrink the footprint"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_kernel;

    #[test]
    fn tiny_kernel_max_live_is_one() {
        // Load r0, Mul r0 <- r0·c (operand dies into the def), Store r0.
        assert_eq!(max_live(&tiny_kernel()), 1);
    }

    #[test]
    fn disjoint_values_raise_the_peak() {
        // Two rows live together before the first is consumed.
        let mut k = tiny_kernel();
        k.num_regs = 2;
        k.ops = vec![
            brick_codegen::VOp::LoadRow {
                dst: 0,
                rx: 0,
                ry: 0,
                rz: 0,
                lane0: 0,
                lanes: 4,
            },
            brick_codegen::VOp::LoadRow {
                dst: 1,
                rx: 0,
                ry: 1,
                rz: 0,
                lane0: 0,
                lanes: 4,
            },
            brick_codegen::VOp::Add { dst: 0, a: 0, b: 1 },
            brick_codegen::VOp::StoreRow {
                src: 0,
                ry: 0,
                rz: 0,
            },
        ];
        assert_eq!(max_live(&k), 2);
    }

    #[test]
    fn allocator_output_is_not_over_provisioned() {
        let k = tiny_kernel();
        let mut r = Report::new(&k.name);
        run(&k, &mut r);
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn over_provisioned_regs_flagged() {
        let mut k = tiny_kernel();
        k.num_regs = 5;
        let mut r = Report::new(&k.name);
        run(&k, &mut r);
        assert_eq!(r.with_code(LintCode::OverProvisionedRegs).len(), 1, "{r}");
    }
}
