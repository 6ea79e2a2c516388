//! Per-target validity predicates: decide, *before* any compilation,
//! whether a [`SpecParams`] candidate can produce a legal kernel for a
//! `(stencil, architecture, domain)` triple.
//!
//! Every rejection carries a machine-stable reason ([`Invalid`]) so the
//! tuner can report skipped-candidate counts per cause instead of
//! silently shrinking the space. The predicates are conservative in the
//! right direction: a candidate is rejected only when *no* compilation
//! could succeed (lane mismatch, indivisible domain, reach overflow,
//! fused-schedule constraints) or when a *lower bound* on its register
//! demand already exceeds the architecture's per-thread ceiling — a
//! candidate that passes may still spill or underperform, and the
//! simulator prices that honestly; a candidate that fails could never
//! have been measured at all.

use std::fmt;

use brick_codegen::{SpecParams, Strategy};
use brick_dsl::min_live_registers;
use brick_dsl::shape::StencilShape;
use gpu_sim::GpuArch;

/// Why a candidate was rejected. Display strings are stable (they appear
/// in reports and tests); [`Invalid::kind`] gives the counter slug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invalid {
    /// The candidate's lane width differs from the target's SIMD width —
    /// the kernel cannot be issued as whole hardware vectors.
    LaneWidth {
        /// Candidate vector width.
        got: usize,
        /// The architecture's SIMD width.
        want: usize,
    },
    /// The folded row's byte span is not a whole number of cache sectors,
    /// so row loads could not be issued at fetch granularity.
    SectorMisaligned {
        /// Row bytes (`width · 8`).
        row_bytes: usize,
        /// The architecture's L1 sector size.
        sector: usize,
    },
    /// The domain extent is not divisible by a brick extent on some axis.
    Indivisible {
        /// Axis name (`"x"`, `"y"`, `"z"`).
        axis: &'static str,
        /// Domain extent.
        n: usize,
        /// Brick extent on that axis.
        b: usize,
    },
    /// The stencil reach exceeds a brick extent: one neighbouring brick
    /// cannot serve the halo.
    ReachTooLarge {
        /// Axis name.
        axis: &'static str,
        /// Composed reach (`T · r`).
        reach: usize,
        /// Brick extent on that axis.
        b: usize,
    },
    /// Temporal fusion requires the gather schedule (the generator has no
    /// fused scatter lowering; accepting the cell would alias the gather
    /// kernel under a different label).
    TemporalNeedsGather,
    /// The fused schedule's exact virtual-register program overflows the
    /// generator's `u16` id space — compilation itself is impossible, not
    /// merely slow. Counted before any IR is emitted by
    /// [`brick_codegen::fused_vreg_count`].
    VregOverflow {
        /// Exact virtual registers the fused schedule would allocate.
        vregs: usize,
        /// The generator's id-space capacity.
        capacity: usize,
    },
    /// Even the structural lower bound on live registers
    /// ([`min_live_registers`]) exceeds the per-thread ceiling: every
    /// possible schedule spills before it starts.
    RegisterFloorExceeded {
        /// Lower-bound architectural demand per thread.
        demand: u32,
        /// The architecture's per-thread register ceiling.
        ceiling: u32,
    },
    /// Zero fold factor or temporal degree.
    DegenerateAxis(&'static str),
}

impl Invalid {
    /// Short stable slug for obs counters (`tune.skipped.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            Invalid::LaneWidth { .. } => "lane_width",
            Invalid::SectorMisaligned { .. } => "sector",
            Invalid::Indivisible { .. } => "indivisible",
            Invalid::ReachTooLarge { .. } => "reach",
            Invalid::TemporalNeedsGather => "temporal_scatter",
            Invalid::VregOverflow { .. } => "vreg_overflow",
            Invalid::RegisterFloorExceeded { .. } => "register_floor",
            Invalid::DegenerateAxis(_) => "degenerate",
        }
    }
}

impl fmt::Display for Invalid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Invalid::LaneWidth { got, want } => {
                write!(f, "vector width {got} != SIMD width {want}")
            }
            Invalid::SectorMisaligned { row_bytes, sector } => {
                write!(f, "row of {row_bytes} B not sector-aligned ({sector} B)")
            }
            Invalid::Indivisible { axis, n, b } => {
                write!(f, "domain {n} not divisible by {axis} extent {b}")
            }
            Invalid::ReachTooLarge { axis, reach, b } => {
                write!(f, "reach {reach} exceeds {axis} extent {b}")
            }
            Invalid::TemporalNeedsGather => f.write_str("temporal fusion requires gather"),
            Invalid::VregOverflow { vregs, capacity } => {
                write!(
                    f,
                    "fused schedule needs {vregs} vregs (capacity {capacity})"
                )
            }
            Invalid::RegisterFloorExceeded { demand, ceiling } => {
                write!(
                    f,
                    "register floor {demand}/thread exceeds ceiling {ceiling}"
                )
            }
            Invalid::DegenerateAxis(a) => write!(f, "degenerate {a}"),
        }
    }
}

/// Check `params` against stencil `shape`, target `arch` and an `n³`
/// domain. `Ok(())` means [`brick_codegen::generate`] must succeed and
/// the simulator must accept the launch — the proptest harness holds the
/// tuner to exactly this contract.
pub fn validate(
    params: &SpecParams,
    shape: &StencilShape,
    arch: &GpuArch,
    n: usize,
) -> Result<(), Invalid> {
    if params.fold_factor == 0 {
        return Err(Invalid::DegenerateAxis("fold factor"));
    }
    if params.temporal_degree == 0 {
        return Err(Invalid::DegenerateAxis("temporal degree"));
    }
    if params.vector_width != arch.simd_width {
        return Err(Invalid::LaneWidth {
            got: params.vector_width,
            want: arch.simd_width,
        });
    }
    let row_bytes = params.width() * 8;
    if !row_bytes.is_multiple_of(arch.l1_sector) {
        return Err(Invalid::SectorMisaligned {
            row_bytes,
            sector: arch.l1_sector,
        });
    }
    let (by, bz) = params.block_yz;
    for (axis, b) in [("x", params.width()), ("y", by), ("z", bz)] {
        if b == 0 || !n.is_multiple_of(b) {
            return Err(Invalid::Indivisible { axis, n, b });
        }
    }
    if params.temporal_degree > 1 && params.strategy != Strategy::Gather {
        return Err(Invalid::TemporalNeedsGather);
    }
    let reach = params.temporal_degree as usize * shape.radius as usize;
    for (axis, b) in [("x", params.width()), ("y", by), ("z", bz)] {
        if reach > b {
            return Err(Invalid::ReachTooLarge { axis, reach, b });
        }
    }
    if params.temporal_degree > 1 {
        // exact — the planner counts the registers the fused scheduler
        // would allocate, so a passing candidate can never crash codegen
        let vregs = brick_codegen::fused_vreg_count(
            &shape.stencil(),
            params.block_yz,
            params.temporal_degree,
        );
        if vregs > brick_codegen::VREG_CAPACITY {
            return Err(Invalid::VregOverflow {
                vregs,
                capacity: brick_codegen::VREG_CAPACITY,
            });
        }
    }
    let demand = gpu_sim::compiler::reg_demand(min_live_registers(
        shape.radius as usize,
        params.temporal_degree,
    ));
    if demand > arch.max_regs_per_thread {
        return Err(Invalid::RegisterFloorExceeded {
            demand,
            ceiling: arch.max_regs_per_thread,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_core::BrickOrdering;

    fn base(arch: &GpuArch) -> SpecParams {
        SpecParams::paper_default(arch.simd_width)
    }

    #[test]
    fn paper_default_is_valid_on_every_target() {
        for arch in GpuArch::table() {
            for shape in StencilShape::paper_suite() {
                assert_eq!(validate(&base(arch), &shape, arch, 64), Ok(()), "{shape}");
            }
        }
    }

    #[test]
    fn lane_width_mismatch_rejected() {
        let arch = GpuArch::a100();
        let p = SpecParams {
            vector_width: 16,
            ..base(&arch)
        };
        assert!(matches!(
            validate(&p, &StencilShape::star(1), &arch, 64),
            Err(Invalid::LaneWidth { got: 16, want: 32 })
        ));
    }

    #[test]
    fn fold_must_divide_domain() {
        // fold 2 on MI250X: 128-wide rows cannot tile a 64³ domain
        let arch = GpuArch::mi250x_gcd();
        let p = SpecParams {
            fold_factor: 2,
            ..base(&arch)
        };
        assert!(matches!(
            validate(&p, &StencilShape::star(1), &arch, 64),
            Err(Invalid::Indivisible { axis: "x", .. })
        ));
        assert_eq!(validate(&p, &StencilShape::star(1), &arch, 128), Ok(()));
    }

    #[test]
    fn composed_reach_checked_per_axis() {
        let arch = GpuArch::a100();
        let p = SpecParams {
            block_yz: (2, 2),
            temporal_degree: 1,
            ..base(&arch)
        };
        assert!(matches!(
            validate(&p, &StencilShape::star(4), &arch, 64),
            Err(Invalid::ReachTooLarge { axis: "y", .. })
        ));
        // T=2 doubles the reach: radius 2 no longer fits a 2-extent
        let p2 = SpecParams {
            block_yz: (2, 2),
            temporal_degree: 2,
            ..base(&arch)
        };
        assert!(validate(&p2, &StencilShape::star(2), &arch, 64).is_err());
    }

    #[test]
    fn fused_scatter_rejected() {
        let arch = GpuArch::a100();
        let p = SpecParams {
            strategy: Strategy::Scatter,
            temporal_degree: 2,
            ..base(&arch)
        };
        assert_eq!(
            validate(&p, &StencilShape::star(1), &arch, 64),
            Err(Invalid::TemporalNeedsGather)
        );
    }

    #[test]
    fn register_floor_rejects_on_tiny_register_files() {
        // a synthetic arch whose ceiling is below even the structural
        // floor of a deeply fused kernel
        let mut arch = GpuArch::a100();
        arch.max_regs_per_thread = 24;
        let p = SpecParams {
            temporal_degree: 4,
            block_yz: (4, 4),
            ..base(&arch)
        };
        // floor: (4-1)·3+2 = 11 live → 2·11+16 = 38 > 24
        assert!(matches!(
            validate(&p, &StencilShape::star(1), &arch, 64),
            Err(Invalid::RegisterFloorExceeded { demand: 38, .. })
        ));
        // the spatial kernel still passes: floor 2 → demand 20 ≤ 24
        assert_eq!(
            validate(&base(&arch), &StencilShape::star(1), &arch, 64),
            Ok(())
        );
    }

    #[test]
    fn oversized_fused_programs_rejected_before_codegen() {
        // cube-2 fused twice over a 16×16 block: the exact planner says
        // the schedule overflows the u16 vreg space, so the predicate
        // must reject it — letting it through crashes the sweep mid-tune
        let arch = GpuArch::a100();
        let p = SpecParams {
            temporal_degree: 2,
            block_yz: (16, 16),
            ..base(&arch)
        };
        assert!(matches!(
            validate(&p, &StencilShape::cube(2), &arch, 64),
            Err(Invalid::VregOverflow { .. })
        ));
        // the same cell shrunk to the paper block fits comfortably
        let small = SpecParams {
            temporal_degree: 2,
            ..base(&arch)
        };
        assert_eq!(validate(&small, &StencilShape::cube(2), &arch, 64), Ok(()));
    }

    #[test]
    fn every_reason_has_a_stable_kind() {
        let reasons = [
            Invalid::LaneWidth { got: 1, want: 2 },
            Invalid::SectorMisaligned {
                row_bytes: 8,
                sector: 32,
            },
            Invalid::Indivisible {
                axis: "x",
                n: 64,
                b: 3,
            },
            Invalid::ReachTooLarge {
                axis: "y",
                reach: 9,
                b: 4,
            },
            Invalid::TemporalNeedsGather,
            Invalid::VregOverflow {
                vregs: 70_000,
                capacity: 65_535,
            },
            Invalid::RegisterFloorExceeded {
                demand: 99,
                ceiling: 10,
            },
            Invalid::DegenerateAxis("fold factor"),
        ];
        let kinds: Vec<&str> = reasons.iter().map(Invalid::kind).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len(), "kinds must be distinct");
    }

    #[test]
    fn morton_and_chunk_do_not_affect_validity() {
        let arch = GpuArch::pvc_stack();
        for shape in StencilShape::paper_suite() {
            let p = SpecParams {
                ordering: BrickOrdering::Morton,
                interleave_chunk: 256,
                ..base(&arch)
            };
            assert_eq!(validate(&p, &shape, &arch, 64), Ok(()), "{shape}");
        }
    }
}
