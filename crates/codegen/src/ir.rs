//! The abstract vector IR targeted by the code generator.
//!
//! BrickLib's generator uses "a common internal abstraction of vectors to
//! develop the structure of the generated code, and subsequently maps to
//! architecture-specific instructions" (paper §3). This module is that
//! abstraction: a small three-address register machine whose values are
//! vectors of `width` lanes — one brick row when `width` equals the
//! brick's `x` extent. On a GPU each vector register is one register per
//! thread of a warp/wavefront/sub-group, a [`VOp::ShiftX`] is a pair of
//! shuffle instructions, and a [`VOp::LoadRow`] is one fully-coalesced
//! load.

use serde::{Deserialize, Serialize};
use std::fmt;

use brick_core::BrickDims;

/// Virtual or physical register id.
pub type Reg = u16;

/// Index into the kernel's coefficient table.
pub type CoeffIdx = u16;

/// Which data layout the kernel's row addresses resolve against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutKind {
    /// Conventional lexicographic array with 3-D tiling.
    Array,
    /// Brick layout with adjacency navigation.
    Brick,
}

impl fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutKind::Array => f.write_str("array"),
            LayoutKind::Brick => f.write_str("brick"),
        }
    }
}

/// One vector instruction.
///
/// Rows are identified *logically*, relative to the kernel's home block
/// (a brick, or a tile of the array): `rx ∈ {-1, 0, 1}` selects the
/// x-segment (the home row or the row of the ±x neighbouring block),
/// while `ry`/`rz` may range one block beyond `0..by`/`0..bz` — the
/// layout binding resolves them through brick adjacency or array address
/// arithmetic at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum VOp {
    /// `dst ← input_row(rx, ry, rz)[lane0 .. lane0 + lanes]` — an
    /// aligned load of `lanes` contiguous elements of the row
    /// (`lane0 = 0, lanes = width` for a full row; edge rows materialise
    /// only the lanes their shuffles consume, as a predicated load).
    LoadRow {
        dst: Reg,
        rx: i8,
        ry: i16,
        rz: i16,
        lane0: u16,
        lanes: u16,
    },
    /// `dst[i] ← sel(i + dx)` where `sel(j)` reads lane `j` of `src` for
    /// `0 ≤ j < width` and the wrapped lane of `edge` otherwise — the
    /// register-file data exchange done with `shfl_up/down` on GPUs.
    ShiftX {
        dst: Reg,
        src: Reg,
        edge: Reg,
        dx: i16,
    },
    /// `dst ← a + b`.
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a · coeffs[coeff]`.
    Mul { dst: Reg, a: Reg, coeff: CoeffIdx },
    /// `dst ← acc + a · coeffs[coeff]` (one FMA per lane; `dst` may alias
    /// `acc`).
    Fma {
        dst: Reg,
        acc: Reg,
        a: Reg,
        coeff: CoeffIdx,
    },
    /// `output_row(0, ry, rz) ← src` — aligned store into the home block.
    StoreRow { src: Reg, ry: i16, rz: i16 },
}

impl VOp {
    /// Registers read by this op.
    pub fn uses(&self) -> impl Iterator<Item = Reg> {
        let v: Vec<Reg> = match *self {
            VOp::LoadRow { .. } => vec![],
            VOp::ShiftX { src, edge, .. } => vec![src, edge],
            VOp::Add { a, b, .. } => vec![a, b],
            VOp::Mul { a, .. } => vec![a],
            VOp::Fma { acc, a, .. } => vec![acc, a],
            VOp::StoreRow { src, .. } => vec![src],
        };
        v.into_iter()
    }

    /// Register written by this op, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            VOp::LoadRow { dst, .. }
            | VOp::ShiftX { dst, .. }
            | VOp::Add { dst, .. }
            | VOp::Mul { dst, .. }
            | VOp::Fma { dst, .. } => Some(dst),
            VOp::StoreRow { .. } => None,
        }
    }

    /// Rewrite every register id through `f` (used by register allocation).
    pub fn map_regs(self, mut f: impl FnMut(Reg) -> Reg) -> VOp {
        match self {
            VOp::LoadRow {
                dst,
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => VOp::LoadRow {
                dst: f(dst),
                rx,
                ry,
                rz,
                lane0,
                lanes,
            },
            VOp::ShiftX { dst, src, edge, dx } => VOp::ShiftX {
                dst: f(dst),
                src: f(src),
                edge: f(edge),
                dx,
            },
            VOp::Add { dst, a, b } => VOp::Add {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            VOp::Mul { dst, a, coeff } => VOp::Mul {
                dst: f(dst),
                a: f(a),
                coeff,
            },
            VOp::Fma { dst, acc, a, coeff } => VOp::Fma {
                dst: f(dst),
                acc: f(acc),
                a: f(a),
                coeff,
            },
            VOp::StoreRow { src, ry, rz } => VOp::StoreRow {
                src: f(src),
                ry,
                rz,
            },
        }
    }
}

/// Scheduling strategy used by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Gather: per output row, sum each coefficient class's rows then FMA
    /// once per class — minimal FLOPs; register pressure grows with the
    /// stencil footprint because reuse buffers stay live across outputs.
    Gather,
    /// Vector scatter (associative reordering, Stock et al.): iterate
    /// input rows once and FMA each into every output accumulator that
    /// uses it — one FMA per tap-use, register pressure bounded by the
    /// block's output rows plus one row group.
    Scatter,
    /// Let the generator pick per stencil (scatter when the gather
    /// schedule's register pressure exceeds
    /// [`AUTO_REGISTER_BUDGET`](crate::AUTO_REGISTER_BUDGET)).
    Auto,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Gather => f.write_str("gather"),
            Strategy::Scatter => f.write_str("scatter"),
            Strategy::Auto => f.write_str("auto"),
        }
    }
}

/// Static instruction statistics for one kernel (per home block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// Vector loads issued per block.
    pub loads: u32,
    /// Vector stores issued per block.
    pub stores: u32,
    /// Lane-shift (shuffle) ops per block.
    pub shifts: u32,
    /// FMA ops per block.
    pub fmas: u32,
    /// Plain vector adds per block.
    pub adds: u32,
    /// Multiplies per block.
    pub muls: u32,
    /// Maximum simultaneously-live registers (per thread, after
    /// allocation).
    pub max_live: u32,
}

impl KernelStats {
    /// Total instructions per block.
    pub fn total_instructions(&self) -> u64 {
        (self.loads + self.stores + self.shifts + self.fmas + self.adds + self.muls) as u64
    }

    /// Executed floating-point *vector* operations per block (FMA = 2);
    /// multiply by the width for lane FLOPs.
    pub fn flops(&self) -> u64 {
        2 * self.fmas as u64 + self.adds as u64 + self.muls as u64
    }

    /// Count statistics directly from an instruction stream.
    pub fn from_ops(ops: &[VOp], max_live: u32) -> Self {
        let mut s = KernelStats {
            max_live,
            ..Default::default()
        };
        for op in ops {
            match op {
                VOp::LoadRow { .. } => s.loads += 1,
                VOp::StoreRow { .. } => s.stores += 1,
                VOp::ShiftX { .. } => s.shifts += 1,
                VOp::Fma { .. } => s.fmas += 1,
                VOp::Add { .. } => s.adds += 1,
                VOp::Mul { .. } => s.muls += 1,
            }
        }
        s
    }
}

/// A complete generated kernel for one (stencil, layout, width) triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorKernel {
    /// Kernel name, e.g. `d3star_brick_cg`.
    pub name: String,
    /// Vector width in lanes (the architecture SIMD width).
    pub width: usize,
    /// Home-block geometry (`bx` must equal `width`).
    pub block: BrickDims,
    /// Layout the row addresses resolve against.
    pub layout: LayoutKind,
    /// Strategy actually used ([`Strategy::Auto`] never appears here).
    pub strategy: Strategy,
    /// Number of stencil timesteps fused into this kernel (1 = plain
    /// spatial kernel). A T-fused kernel computes `stencil^T` per launch:
    /// its load reach is `T·r` per axis and its stored rows are
    /// bit-identical to `T` sequential applications of the gather
    /// schedule.
    pub temporal_degree: u32,
    /// Resolved numeric coefficient table.
    pub coeffs: Vec<f64>,
    /// Instruction stream (register-allocated).
    pub ops: Vec<VOp>,
    /// Physical registers required.
    pub num_regs: usize,
    /// Instruction statistics per block.
    pub stats: KernelStats,
}

impl VectorKernel {
    /// Rows the kernel loads, deduplicated, in first-load order.
    pub fn loaded_rows(&self) -> Vec<(i8, i16, i16)> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let VOp::LoadRow { rx, ry, rz, .. } = *op {
                if !out.contains(&(rx, ry, rz)) {
                    out.push((rx, ry, rz));
                }
            }
        }
        out
    }

    /// Bytes of input the kernel loads per block, honouring partial edge
    /// loads.
    pub fn loaded_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                VOp::LoadRow { lanes, .. } => *lanes as u64 * 8,
                _ => 0,
            })
            .sum()
    }

    /// True if no row is loaded twice — BrickLib's "reuse of array common
    /// subexpressions" guarantee, asserted by tests for both strategies.
    pub fn loads_are_unique(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.ops.iter().all(|op| match *op {
            VOp::LoadRow { rx, ry, rz, .. } => seen.insert((rx, ry, rz)),
            _ => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel() -> VectorKernel {
        // 1x1x4 block: load row, multiply by coeff 0, store.
        let ops = vec![
            VOp::LoadRow {
                dst: 0,
                rx: 0,
                ry: 0,
                rz: 0,
                lane0: 0,
                lanes: 4,
            },
            VOp::Mul {
                dst: 1,
                a: 0,
                coeff: 0,
            },
            VOp::StoreRow {
                src: 1,
                ry: 0,
                rz: 0,
            },
        ];
        VectorKernel {
            name: "tiny".into(),
            width: 4,
            block: BrickDims::new(4, 1, 1),
            layout: LayoutKind::Brick,
            strategy: Strategy::Gather,
            temporal_degree: 1,
            coeffs: vec![2.0],
            stats: KernelStats::from_ops(&ops, 2),
            ops,
            num_regs: 2,
        }
    }

    #[test]
    fn stats_count_ops() {
        let k = tiny_kernel();
        assert_eq!(k.stats.loads, 1);
        assert_eq!(k.stats.muls, 1);
        assert_eq!(k.stats.stores, 1);
        assert_eq!(k.stats.total_instructions(), 3);
        assert_eq!(k.stats.flops(), 1);
    }

    #[test]
    fn uses_and_defs() {
        let op = VOp::Fma {
            dst: 3,
            acc: 3,
            a: 5,
            coeff: 0,
        };
        assert_eq!(op.uses().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(op.def(), Some(3));
        let st = VOp::StoreRow {
            src: 2,
            ry: 0,
            rz: 0,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn map_regs_rewrites_everything() {
        let op = VOp::ShiftX {
            dst: 1,
            src: 2,
            edge: 3,
            dx: 1,
        };
        let m = op.map_regs(|r| r + 10);
        assert_eq!(
            m,
            VOp::ShiftX {
                dst: 11,
                src: 12,
                edge: 13,
                dx: 1
            }
        );
    }

    #[test]
    fn loaded_rows_dedup_and_uniqueness() {
        let k = tiny_kernel();
        assert_eq!(k.loaded_rows(), vec![(0, 0, 0)]);
        assert!(k.loads_are_unique());
    }
}
