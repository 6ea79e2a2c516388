//! The vector code generator.
//!
//! Implements the three domain-specific optimisations of BrickLib's
//! generator (paper §3):
//!
//! 1. **Vector folding** (Yount): the brick's contiguous `x` extent equals
//!    the architecture vector width, so every value the kernel touches is
//!    one full-width vector — a brick row.
//! 2. **Reuse of array common subexpressions**: each input row is loaded
//!    exactly once per block and held in a register buffer; shifted
//!    x-variants are produced with register-file shuffles instead of
//!    reloads, "shifting iteration spaces rather than data".
//! 3. **Vector scatter** (associative reordering via statement splitting,
//!    Stock et al.): for high-order stencils the gather schedule's reuse
//!    buffers exceed the register budget, so the generator switches to
//!    scattering each input row into all output accumulators that use it.
//!
//! The same schedule serves both layouts ([`LayoutKind::Brick`] and
//! [`LayoutKind::Array`]); only row→address resolution differs, which is
//! exactly how the paper isolates the data-layout contribution from the
//! code-generation contribution.

use std::collections::HashMap;

use brick_core::BrickDims;
use brick_dsl::stencil::{CoeffBindings, LinCoeff, Stencil, StencilError};

use crate::ir::{CoeffIdx, KernelStats, LayoutKind, Reg, Strategy, VOp, VectorKernel};
use crate::regalloc;

/// Errors produced by the generator.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    /// Stencil reach exceeds what one neighbouring block can serve.
    #[allow(missing_docs)]
    ReachTooLarge { axis: usize, reach: i32, max: usize },
    /// Error resolving the stencil's coefficients.
    Stencil(StencilError),
    /// More coefficient classes than the IR can index.
    TooManyClasses(usize),
    /// Temporal fusion degree infeasible: `T·reach` exceeds the block
    /// extent on `axis` (the fused kernel would need loads more than one
    /// block away), or the degree is zero.
    #[allow(missing_docs)]
    TemporalTooDeep {
        degree: u32,
        axis: usize,
        reach: i64,
        max: usize,
    },
    /// The fused schedule would allocate more virtual registers than the
    /// `u16` id space holds ([`VREG_CAPACITY`]); counted exactly before
    /// any scheduling by [`fused_vreg_count`].
    #[allow(missing_docs)]
    ProgramTooLarge { vregs: usize, capacity: usize },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::ReachTooLarge { axis, reach, max } => write!(
                f,
                "stencil reach {reach} on axis {axis} exceeds the block extent {max} \
                 (accesses must stay within one neighbouring block)"
            ),
            CodegenError::Stencil(e) => write!(f, "{e}"),
            CodegenError::TooManyClasses(n) => write!(f, "{n} coefficient classes overflow u16"),
            CodegenError::TemporalTooDeep {
                degree,
                axis,
                reach,
                max,
            } => write!(
                f,
                "temporal degree {degree} needs fused reach {reach} on axis {axis}, \
                 exceeding the block extent {max} (accesses must stay within one \
                 neighbouring block)"
            ),
            CodegenError::ProgramTooLarge { vregs, capacity } => write!(
                f,
                "fused schedule needs {vregs} virtual registers, overflowing the \
                 id space (capacity {capacity})"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<StencilError> for CodegenError {
    fn from(e: StencilError) -> Self {
        CodegenError::Stencil(e)
    }
}

/// Live vector registers [`Strategy::Auto`] allows the gather schedule
/// before it switches to scatter (a typical GPU exposes 255 registers per
/// thread; sustaining occupancy needs far fewer, so the budget is
/// conservative).
pub const AUTO_REGISTER_BUDGET: u32 = 96;

/// Generator options.
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    /// Scheduling strategy; [`Strategy::Auto`] switches to scatter when the
    /// gather schedule's register pressure exceeds [`AUTO_REGISTER_BUDGET`].
    pub strategy: Strategy,
    /// `y`/`z` extents of the home block (the brick's `by × bz`).
    pub block_yz: (usize, usize),
    /// Number of stencil timesteps to fuse into the kernel (AN5D-style
    /// temporal blocking). `1` generates the plain spatial kernel; `T > 1`
    /// streams `T − 1` levels of intermediate planes through registers and
    /// stores `stencil^T`, bit-identical to `T` sequential applications of
    /// the gather schedule. Requires `T·reach ≤ block extent` per axis.
    pub temporal_degree: u32,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            strategy: Strategy::Auto,
            block_yz: (4, 4),
            temporal_degree: 1,
        }
    }
}

/// Generate a vector kernel for `stencil` on the given layout and vector
/// width.
pub fn generate(
    stencil: &Stencil,
    bindings: &CoeffBindings,
    layout: LayoutKind,
    width: usize,
    opts: CodegenOptions,
) -> Result<VectorKernel, CodegenError> {
    let _span = brick_obs::span_cat(format!("codegen:{}", stencil.name()), "codegen");
    let block = BrickDims::new(width, opts.block_yz.0, opts.block_yz.1);
    let reach = stencil.reach();
    for (axis, (&r, max)) in reach.iter().zip([block.bx, block.by, block.bz]).enumerate() {
        if r as usize > max {
            return Err(CodegenError::ReachTooLarge {
                axis,
                reach: r,
                max,
            });
        }
    }

    let t = opts.temporal_degree;
    if t != 1 {
        for (axis, (&r, max)) in reach.iter().zip([block.bx, block.by, block.bz]).enumerate() {
            let fused = t as i64 * r as i64;
            if t == 0 || fused > max as i64 {
                return Err(CodegenError::TemporalTooDeep {
                    degree: t,
                    axis,
                    reach: fused,
                    max,
                });
            }
        }
    }

    if t > 1 {
        let vregs = fused_vreg_count(stencil, opts.block_yz, t);
        if vregs > VREG_CAPACITY {
            return Err(CodegenError::ProgramTooLarge {
                vregs,
                capacity: VREG_CAPACITY,
            });
        }
    }

    let classes = {
        let _s = brick_obs::span_cat("group-classes", "codegen");
        group_classes(stencil, bindings)?
    };
    if classes.len() > u16::MAX as usize {
        return Err(CodegenError::TooManyClasses(classes.len()));
    }

    // A fused kernel is inherently gather-scheduled (each intermediate
    // plane is a class-summed gather over the previous level), so the
    // strategy choice only applies at T = 1.
    if t > 1 {
        return Ok(build(stencil, &classes, block, layout, Strategy::Gather, t));
    }

    let strategy = match opts.strategy {
        Strategy::Gather | Strategy::Scatter => opts.strategy,
        Strategy::Auto => {
            let gather = build(stencil, &classes, block, layout, Strategy::Gather, 1);
            if gather.stats.max_live <= AUTO_REGISTER_BUDGET {
                return Ok(gather);
            }
            Strategy::Scatter
        }
    };
    Ok(build(stencil, &classes, block, layout, strategy, 1))
}

/// Registers the virtual-register allocator can hand out before ids
/// overflow `u16` (the IR's [`Reg`] type).
pub const VREG_CAPACITY: usize = u16::MAX as usize;

/// Exact number of virtual registers a `temporal_degree`-fused kernel of
/// `stencil` on a `block_yz` block would allocate — computed from the
/// tap offsets and need sets alone, before any IR is emitted, so callers
/// (the autotuner's validity predicate, [`generate`] itself) can reject
/// candidates whose fused schedule overflows [`VREG_CAPACITY`] without
/// paying for or crashing in compilation. Independent of the vector
/// width, the coefficient bindings and the class partition.
pub fn fused_vreg_count(
    stencil: &Stencil,
    block_yz: (usize, usize),
    temporal_degree: u32,
) -> usize {
    use std::sync::{Mutex, OnceLock};
    /// Memo key: the tap list itself (not a lossy hash of it — a
    /// collision between two stencils would silently return the wrong
    /// count), block extents, fusion degree.
    type MemoKey = (Vec<[i32; 3]>, usize, usize, u32);
    // the count is a pure function of (taps, block, T) and the need-set
    // dilation is not cheap for deep fusions of wide stencils; the
    // autotuner's validity predicate calls this per candidate, so memoize
    // globally (a handful of entries per shape)
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, usize>>> = OnceLock::new();
    let taps: Vec<[i32; 3]> = stencil.taps().iter().map(|t| t.offset).collect();
    let key = (taps, block_yz.0, block_yz.1, temporal_degree);
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&n) = memo.lock().expect("vreg memo poisoned").get(&key) {
        return n;
    }
    let block = BrickDims::new(1, block_yz.0, block_yz.1);
    let n = crate::temporal::fused_vreg_count(&key.0, block, temporal_degree);
    memo.lock().expect("vreg memo poisoned").insert(key, n);
    n
}

/// One coefficient class: resolved value plus the member tap offsets.
pub(crate) struct Class {
    pub(crate) value: f64,
    pub(crate) taps: Vec<[i32; 3]>,
}

pub(crate) fn group_classes(
    stencil: &Stencil,
    bindings: &CoeffBindings,
) -> Result<Vec<Class>, CodegenError> {
    let mut keys: Vec<&LinCoeff> = Vec::new();
    let mut classes: Vec<Class> = Vec::new();
    for t in stencil.taps() {
        match keys.iter().position(|k| **k == t.coeff) {
            Some(i) => classes[i].taps.push(t.offset),
            None => {
                keys.push(&t.coeff);
                classes.push(Class {
                    value: t.coeff.eval(bindings)?,
                    taps: vec![t.offset],
                });
            }
        }
    }
    Ok(classes)
}

fn build(
    stencil: &Stencil,
    classes: &[Class],
    block: BrickDims,
    layout: LayoutKind,
    strategy: Strategy,
    temporal_degree: u32,
) -> VectorKernel {
    let mut b = Builder::new(block.bx);
    {
        let _s = brick_obs::span_cat("schedule", "codegen");
        if temporal_degree > 1 {
            crate::temporal::schedule_temporal(&mut b, classes, block, temporal_degree);
        } else {
            match strategy {
                Strategy::Gather => schedule_gather(&mut b, classes, block),
                Strategy::Scatter => schedule_scatter(&mut b, classes, block),
                Strategy::Auto => unreachable!("Auto resolved by generate()"),
            }
        }
        narrow_edge_loads(&mut b.ops, block.bx);
    }
    let alloc = {
        let _s = brick_obs::span_cat("regalloc", "codegen");
        regalloc::allocate(&b.ops)
    };
    let stats = KernelStats::from_ops(&alloc.ops, alloc.max_live);
    brick_obs::counter_add("codegen.kernels", 1);
    brick_obs::counter_add("codegen.ops", alloc.ops.len() as u64);
    brick_obs::histogram_record("codegen.regalloc.max_live", alloc.max_live as f64);
    brick_obs::histogram_record("codegen.regalloc.num_regs", alloc.num_regs as f64);
    let name = if temporal_degree > 1 {
        format!(
            "{}_{}_cg_{}_t{}",
            stencil.name(),
            layout,
            strategy,
            temporal_degree
        )
    } else {
        format!("{}_{}_cg_{}", stencil.name(), layout, strategy)
    };
    VectorKernel {
        name,
        width: block.bx,
        block,
        layout,
        strategy,
        temporal_degree,
        coeffs: classes.iter().map(|c| c.value).collect(),
        ops: alloc.ops,
        num_regs: alloc.num_regs,
        stats,
    }
}

/// Emission helper holding the virtual-register program and the reuse
/// caches.
pub(crate) struct Builder {
    width: usize,
    pub(crate) ops: Vec<VOp>,
    next: Reg,
    rows: HashMap<(i8, i16, i16), Reg>,
    shifts: HashMap<(i16, i16, i16), Reg>,
}

impl Builder {
    pub(crate) fn new(width: usize) -> Self {
        Builder {
            width,
            ops: Vec::new(),
            next: 0,
            rows: HashMap::new(),
            shifts: HashMap::new(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next;
        self.next = self
            .next
            .checked_add(1)
            .expect("virtual register ids overflow u16");
        r
    }

    /// Load (or reuse) the input row `(rx, ry, rz)` — emitted as a full
    /// row; [`narrow_edge_loads`] later shrinks edge rows to the lanes
    /// their shuffles consume.
    pub(crate) fn row(&mut self, rx: i8, ry: i16, rz: i16) -> Reg {
        let w = self.width as u16;
        self.row_window(rx, ry, rz, 0, w)
    }

    /// Load (or reuse) row `(rx, ry, rz)` restricted to the lane window
    /// `[lane0, lane0 + lanes)`; the other lanes are zero-filled by the
    /// VM. The temporal scheduler uses this for neighbour-block rows whose
    /// valid halo is provably narrower than a full row, which keeps the
    /// kernel's load reach at `T·r` instead of a whole block.
    pub(crate) fn row_window(&mut self, rx: i8, ry: i16, rz: i16, lane0: u16, lanes: u16) -> Reg {
        if let Some(&r) = self.rows.get(&(rx, ry, rz)) {
            return r;
        }
        let dst = self.fresh();
        self.ops.push(VOp::LoadRow {
            dst,
            rx,
            ry,
            rz,
            lane0,
            lanes,
        });
        self.rows.insert((rx, ry, rz), dst);
        dst
    }

    /// The row `(0, ry, rz)` shifted by `dx` lanes (0 → the plain row),
    /// reusing a previously-produced shift where possible.
    fn shifted(&mut self, ry: i16, rz: i16, dx: i16) -> Reg {
        if dx == 0 {
            return self.row(0, ry, rz);
        }
        debug_assert!((dx.unsigned_abs() as usize) < self.width);
        if let Some(&r) = self.shifts.get(&(ry, rz, dx)) {
            return r;
        }
        let src = self.row(0, ry, rz);
        let edge = self.row(dx.signum() as i8, ry, rz);
        let dst = self.fresh();
        self.ops.push(VOp::ShiftX { dst, src, edge, dx });
        self.shifts.insert((ry, rz, dx), dst);
        dst
    }

    /// Emit a `ShiftX` on explicit source/edge registers (no reuse cache);
    /// used by the temporal scheduler, whose shift sources are computed
    /// intermediate planes rather than loaded rows.
    pub(crate) fn shift_raw(&mut self, src: Reg, edge: Reg, dx: i16) -> Reg {
        debug_assert!(dx != 0 && (dx.unsigned_abs() as usize) < self.width);
        let dst = self.fresh();
        self.ops.push(VOp::ShiftX { dst, src, edge, dx });
        dst
    }

    pub(crate) fn add(&mut self, a: Reg, b: Reg) -> Reg {
        let dst = self.fresh();
        self.ops.push(VOp::Add { dst, a, b });
        dst
    }

    pub(crate) fn mul(&mut self, a: Reg, coeff: CoeffIdx) -> Reg {
        let dst = self.fresh();
        self.ops.push(VOp::Mul { dst, a, coeff });
        dst
    }

    pub(crate) fn fma(&mut self, acc: Reg, a: Reg, coeff: CoeffIdx) -> Reg {
        let dst = self.fresh();
        self.ops.push(VOp::Fma { dst, acc, a, coeff });
        dst
    }

    pub(crate) fn store(&mut self, src: Reg, ry: i16, rz: i16) {
        self.ops.push(VOp::StoreRow { src, ry, rz });
    }

    /// Forget cached rows/shifts (used between scatter row groups to keep
    /// lifetimes short; loads stay unique because each row group is
    /// visited once).
    fn clear_caches(&mut self) {
        self.rows.clear();
        self.shifts.clear();
    }
}

/// Shrink edge-row loads (`rx ≠ 0`) to the lane range their shuffles
/// actually consume: a shift by `dx > 0` reads lanes `[0, dx)` of the
/// `+x` row, a shift by `dx < 0` reads lanes `[width−|dx|, width)` of the
/// `−x` row. Generated GPU code materialises exactly those elements with
/// a predicated load, so the brick's edge traffic is a few elements, not
/// a full row.
///
/// Only loads consumed *exclusively* as shuffle edges are narrowed: the
/// temporal scheduler also feeds `±x` rows into shuffle sources and
/// arithmetic (the first fused step of the neighbour-block intermediates),
/// and those uses need the full row.
fn narrow_edge_loads(ops: &mut [VOp], width: usize) {
    use std::collections::{HashMap as Map, HashSet as Set};
    // defining load per register at each point is unique in the virtual
    // program (SSA), so a single pass suffices.
    let mut def_load: Map<u16, usize> = Map::new();
    let mut range: Map<usize, (u16, u16)> = Map::new(); // op idx -> lane span
    let mut full_use: Set<u16> = Set::new(); // regs with a non-edge use
    for (i, op) in ops.iter().enumerate() {
        match *op {
            VOp::LoadRow { dst, rx, .. } if rx != 0 => {
                def_load.insert(dst, i);
            }
            VOp::ShiftX { src, edge, dx, .. } => {
                full_use.insert(src);
                if let Some(&li) = def_load.get(&edge) {
                    let (lo, hi) = if dx > 0 {
                        (0u16, dx as u16)
                    } else {
                        ((width as i32 + dx as i32) as u16, width as u16)
                    };
                    let e = range.entry(li).or_insert((lo, hi));
                    e.0 = e.0.min(lo);
                    e.1 = e.1.max(hi);
                }
            }
            _ => {
                full_use.extend(op.uses());
            }
        }
    }
    for (li, (lo, hi)) in range {
        if let VOp::LoadRow {
            dst, lane0, lanes, ..
        } = &mut ops[li]
        {
            if full_use.contains(dst) {
                continue;
            }
            *lane0 = lo;
            *lanes = hi - lo;
        }
    }
}

/// Gather schedule with class-summed evaluation: for every output row,
/// sum the shifted rows of each coefficient class, multiply once per
/// class, and chain classes with FMAs. Per output row this performs
/// exactly `points + classes − 1` vector FLOPs — the paper's normalised
/// minimum (§4.4).
fn schedule_gather(b: &mut Builder, classes: &[Class], block: BrickDims) {
    for rz in 0..block.bz as i16 {
        for ry in 0..block.by as i16 {
            let mut acc: Option<Reg> = None;
            for (ci, class) in classes.iter().enumerate() {
                let mut sum: Option<Reg> = None;
                for &[dx, dy, dz] in &class.taps {
                    let v = b.shifted(ry + dy as i16, rz + dz as i16, dx as i16);
                    sum = Some(match sum {
                        None => v,
                        Some(s) => b.add(s, v),
                    });
                }
                let s = sum.expect("classes are non-empty");
                acc = Some(match acc {
                    None => b.mul(s, ci as CoeffIdx),
                    Some(a) => b.fma(a, s, ci as CoeffIdx),
                });
            }
            b.store(acc.expect("stencil has at least one class"), ry, rz);
        }
    }
}

/// Scatter schedule: visit each *input* row group once (in `(rz, ry)`
/// order), produce its shifted variants, and FMA them into every output
/// accumulator that consumes them. Accumulators stay live for the whole
/// block; row groups die immediately — bounding register pressure by
/// `by·bz` plus one row group regardless of stencil order.
fn schedule_scatter(b: &mut Builder, classes: &[Class], block: BrickDims) {
    let (by, bz) = (block.by as i16, block.bz as i16);
    // (class, tap) pairs indexed for iteration.
    let taps: Vec<(CoeffIdx, [i32; 3])> = classes
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| c.taps.iter().map(move |t| (ci as CoeffIdx, *t)))
        .collect();

    // Input row groups used by this block, in z-major order.
    let mut rows: Vec<(i16, i16)> = Vec::new();
    for (_, [_, dy, dz]) in &taps {
        for rz in 0..bz {
            for ry in 0..by {
                let key = (ry + *dy as i16, rz + *dz as i16);
                if !rows.contains(&key) {
                    rows.push(key);
                }
            }
        }
    }
    rows.sort_by_key(|&(j, k)| (k, j));

    let mut acc: HashMap<(i16, i16), Reg> = HashMap::new();
    for (j, k) in rows {
        b.clear_caches();
        for &(ci, [dx, dy, dz]) in &taps {
            let ry = j - dy as i16;
            let rz = k - dz as i16;
            if ry < 0 || ry >= by || rz < 0 || rz >= bz {
                continue;
            }
            let v = b.shifted(j, k, dx as i16);
            let next = match acc.get(&(ry, rz)) {
                None => b.mul(v, ci),
                Some(&a) => b.fma(a, v, ci),
            };
            acc.insert((ry, rz), next);
        }
    }
    let mut outs: Vec<((i16, i16), Reg)> = acc.into_iter().collect();
    outs.sort_by_key(|&((ry, rz), _)| (rz, ry));
    for ((ry, rz), r) in outs {
        b.store(r, ry, rz);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_dsl::shape::StencilShape;

    fn gen(
        shape: StencilShape,
        layout: LayoutKind,
        width: usize,
        strategy: Strategy,
    ) -> VectorKernel {
        let st = shape.stencil();
        let b = st.default_bindings();
        generate(
            &st,
            &b,
            layout,
            width,
            CodegenOptions {
                strategy,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn loads_are_unique_for_both_strategies() {
        for shape in StencilShape::paper_suite() {
            for strategy in [Strategy::Gather, Strategy::Scatter] {
                let k = gen(shape, LayoutKind::Brick, 32, strategy);
                assert!(k.loads_are_unique(), "{shape} {strategy}");
            }
        }
    }

    #[test]
    fn gather_and_scatter_load_the_same_rows() {
        for shape in StencilShape::paper_suite() {
            let g = gen(shape, LayoutKind::Brick, 32, Strategy::Gather);
            let s = gen(shape, LayoutKind::Brick, 32, Strategy::Scatter);
            let mut gr = g.loaded_rows();
            let mut sr = s.loaded_rows();
            gr.sort_unstable();
            sr.sort_unstable();
            assert_eq!(gr, sr, "{shape}");
        }
    }

    #[test]
    fn gather_flops_match_normalised_minimum() {
        for shape in StencilShape::paper_suite() {
            let k = gen(shape, LayoutKind::Brick, 32, Strategy::Gather);
            let a = brick_dsl::StencilAnalysis::of_shape(&shape);
            let outputs = (k.block.by * k.block.bz) as u64;
            assert_eq!(
                k.stats.flops(),
                a.flops_per_point * outputs,
                "{shape}: vector flops per block"
            );
        }
    }

    #[test]
    fn scatter_flops_are_two_per_tap() {
        for shape in StencilShape::paper_suite() {
            let k = gen(shape, LayoutKind::Brick, 32, Strategy::Scatter);
            let outputs = (k.block.by * k.block.bz) as u64;
            assert_eq!(
                k.stats.flops(),
                2 * shape.points() as u64 * outputs - outputs,
                "{shape}"
            );
        }
    }

    #[test]
    fn scatter_pressure_bounded_gather_grows() {
        let g125 = gen(
            StencilShape::cube(2),
            LayoutKind::Brick,
            32,
            Strategy::Gather,
        );
        let s125 = gen(
            StencilShape::cube(2),
            LayoutKind::Brick,
            32,
            Strategy::Scatter,
        );
        assert!(
            s125.stats.max_live < g125.stats.max_live,
            "scatter {} !< gather {}",
            s125.stats.max_live,
            g125.stats.max_live
        );
        // scatter pressure ≈ 16 accumulators + one row group
        assert!(s125.stats.max_live <= 40, "{}", s125.stats.max_live);
    }

    #[test]
    fn auto_picks_gather_for_7pt_scatter_for_125pt() {
        let k7 = gen(StencilShape::star(1), LayoutKind::Brick, 32, Strategy::Auto);
        assert_eq!(k7.strategy, Strategy::Gather);
        let k125 = gen(StencilShape::cube(2), LayoutKind::Brick, 32, Strategy::Auto);
        assert_eq!(k125.strategy, Strategy::Scatter);
    }

    #[test]
    fn shuffle_counts_scale_with_x_reach() {
        let k7 = gen(
            StencilShape::star(1),
            LayoutKind::Brick,
            32,
            Strategy::Gather,
        );
        let k25 = gen(
            StencilShape::star(4),
            LayoutKind::Brick,
            32,
            Strategy::Gather,
        );
        // star r: 2r shifted variants per output row, 16 rows
        assert_eq!(k7.stats.shifts, 2 * 16);
        assert_eq!(k25.stats.shifts, 8 * 16);
    }

    #[test]
    fn store_count_equals_block_rows() {
        let k = gen(
            StencilShape::cube(1),
            LayoutKind::Array,
            16,
            Strategy::Gather,
        );
        assert_eq!(k.stats.stores, 16);
    }

    #[test]
    fn load_count_is_minimal_for_star1() {
        // star r1, 4x4 block: home rows 16 (each also shifted, needing ±x
        // edges: 32 edge rows), plus y-halo rows 2·4... distinct rows:
        // rx=0: (ry∈[0,4),rz∈[-1,5)) ∪ (ry∈[-1,5),rz∈[0,4)) = 24+24-16=32;
        // rx=±1: home rows only = 16 each.
        let k = gen(
            StencilShape::star(1),
            LayoutKind::Brick,
            32,
            Strategy::Gather,
        );
        assert_eq!(k.stats.loads, 32 + 32);
    }

    #[test]
    fn reach_too_large_rejected() {
        let st = StencilShape::star(4).stencil();
        let b = st.default_bindings();
        let err = generate(
            &st,
            &b,
            LayoutKind::Brick,
            32,
            CodegenOptions {
                block_yz: (2, 2),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::ReachTooLarge { .. }));
    }

    #[test]
    fn kernel_name_encodes_config() {
        let k = gen(
            StencilShape::star(2),
            LayoutKind::Brick,
            32,
            Strategy::Gather,
        );
        assert!(k.name.contains("brick"));
        assert!(k.name.contains("gather"));
    }

    #[test]
    fn coefficient_table_matches_classes() {
        let shape = StencilShape::cube(1);
        let st = shape.stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
        assert_eq!(k.coeffs.len(), 4);
        // classes appear in tap order; the table must hold exactly the
        // bound values (c0..c3), each once
        let mut got = k.coeffs.clone();
        let mut want: Vec<f64> = (0..4).map(|i| b.get(&format!("c{i}")).unwrap()).collect();
        got.sort_by(f64::total_cmp);
        want.sort_by(f64::total_cmp);
        assert_eq!(got, want);
    }
}
