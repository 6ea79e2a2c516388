//! Fused-row execution: output rows evaluated straight from the grid.
//!
//! This is the one compiled form of a kernel. Materializing every IR
//! register as a row of an in-memory register file would move ~13 rows
//! per stored row for the 7-point star, and that movement — plus a
//! per-op dispatch and a per-row neighbour resolution — would dominate
//! the wall time. Instead the verified IR is compiled, once, into row
//! programs that read the input grid directly:
//!
//! 1. **Symbolic analysis** ([`fuse`], compile time): the verified IR is
//!    re-executed over *symbolic* register values. A full-row load is the
//!    symbol `Row(rx, ry, rz)`; a `ShiftX` of a loaded home row whose
//!    edge row provably covers the wrapped lanes becomes `Off(ry, rz, dx)`
//!    — lane `i` reads grid element `x0 + i + dx`, with no edge row at
//!    runtime; arithmetic builds an expression tree over those leaves.
//! 2. **Scratch rows**: a value the tree form cannot express — a `ShiftX`
//!    of a *computed* row (the temporal schedule's home and `E±` planes),
//!    a partial edge load consumed as a value, or an expression several
//!    ops consume — is materialized once per block into a row of a
//!    per-worker scratch buffer by its own [`ScratchProg`]. Downstream
//!    tapes read it through [`Tap::Scratch`] (lane for lane) or
//!    [`Tap::ScratchShifted`] (the IR's shift semantics: in-range lanes
//!    from the source row, wrapped lanes from the materialized edge row).
//!    Grid rows materialize through [`Fill::Copy`] (a partial load
//!    zero-fills the lanes the IR's `LoadRow` leaves zero); a shifted grid
//!    row several tapes read is staged the same way, so its seam is
//!    gathered once per block. Scratch slots are reused
//!    once their last reader has run (a linear scan over the program).
//! 3. **Tape linearization**: each stored or materialized tree is
//!    flattened to a short accumulator program ([`TapeOp`]) over *taps* —
//!    the distinct rows the tree reads. Operand order of every
//!    `Add`/`Mul`/`Fma` is preserved exactly (left/right variants, a tiny
//!    value stack for two-sided subtrees), so each output lane computes
//!    the identical floating-point expression the interpreter does: the
//!    fused path stays bit-identical to the oracle (ULP bound 0).
//! 4. **Tap pre-resolution**: the tap table holds the grid taps first and
//!    the scratch taps after them ([`FusedKernel::grid_taps`]). For brick
//!    layouts every grid tap's neighbour table index and in-brick offset
//!    are computed here, once; per block the executor does one table read
//!    and one multiply-add per grid tap — no `div_euclid` chains in the
//!    hot loop. Array grid taps collapse to a single stride delta per run;
//!    scratch taps resolve to fixed buffer offsets once per run ([`Tap`]
//!    is layout-independent; the executors in `crate::exec` own the
//!    stride math). The tables are sized from the kernel itself.
//!
//! A kernel the analysis cannot express (a width other than
//! 16/32/64/128, a block x-extent other than the width, a tree deeper
//! than [`MAX_STACK`], a tape longer than [`MAX_TAPE`], more taps or
//! scratch rows than `u16` ids address, …) is refused with the reason;
//! `Plan::compile` reports it as `VmError::Unsupported`, and the
//! interpreter (`Backend::Interpreter`) still runs it.
//!
//! Everything in this module is safe code. The preconditions the SIMD
//! evaluators in [`super::avx2`]/[`super::neon`] rely on are discharged
//! *statically* by the brick-safe prover ([`super::safe`]) at
//! `Plan::compile` time (BS001–BS008, BS011–BS014), plus one cheap
//! per-run premise check in `crate::exec` (slab length and
//! adjacency-table validity);
//! [`check_taps`]/[`check_tape`] remain as the debug-build and test-entry
//! restatements of the same conditions. The portable evaluator below is
//! ordinary checked Rust and doubles as the reference for what a tape
//! computes.

use std::collections::HashMap;

use brick_codegen::{LayoutKind, VOp, VectorKernel};
use brick_core::{neighbor_index, BrickDims, NO_BRICK};

/// Widest vector width the fixed row buffers accommodate: the widest
/// SIMD width the generator targets (64) folded twice into one brick row
/// (the tuner's `fold_factor = 2`).
pub(crate) const MAX_W: usize = 128;

/// The vector widths the fuser and the evaluators' dispatch tables take.
pub(crate) const FUSED_WIDTHS: [usize; 4] = [16, 32, 64, 128];

/// Deepest value stack a row tape may use; a tree needing more is
/// refused at compile time.
pub(crate) const MAX_STACK: usize = 4;

/// Longest tape per output row; guards against pathological expression
/// DAGs re-expanding into huge trees.
const MAX_TAPE: usize = 1024;

/// A distinct row a fused row program reads, in kernel-relative
/// coordinates (layout-independent). `Direct`, `Shifted` and `Window`
/// read the input grid; `Scratch` and `ScratchShifted` read the
/// per-worker scratch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Tap {
    /// Lane `i` reads grid element `(x0 + rx·w + i, y0 + ry, z0 + rz)`.
    Direct { rx: i8, ry: i16, rz: i16 },
    /// Lane `i` reads grid element `(x0 + i + dx, y0 + ry, z0 + rz)` —
    /// a `ShiftX` folded into its loads, `0 < |dx| < w`.
    Shifted { ry: i16, rz: i16, dx: i16 },
    /// Lanes `[lane0, lane0 + lanes)` of grid row `(rx, ry, rz)` — a
    /// partial `LoadRow`. Read only by a [`Fill::Copy`], never by a tape.
    Window {
        rx: i8,
        ry: i16,
        rz: i16,
        lane0: u16,
        lanes: u16,
    },
    /// Lane `i` reads lane `i` of scratch row `slot`.
    Scratch { slot: u16 },
    /// Lane `i` reads lane `i + dx` of scratch row `src` when
    /// `0 ≤ i + dx < w`, else the wrapped lane `i + dx ∓ w` of scratch row
    /// `edge` — a `ShiftX` of computed rows, `0 < |dx| < w`.
    ScratchShifted { src: u16, edge: u16, dx: i16 },
}

impl Tap {
    /// True for taps that read the input grid (resolved per block).
    pub(crate) fn is_grid(&self) -> bool {
        matches!(
            self,
            Tap::Direct { .. } | Tap::Shifted { .. } | Tap::Window { .. }
        )
    }

    /// The scratch rows this tap reads (empty for grid taps).
    pub(crate) fn scratch_slots(&self) -> impl Iterator<Item = u16> {
        let (a, b) = match *self {
            Tap::Scratch { slot } => (Some(slot), None),
            Tap::ScratchShifted { src, edge, .. } => (Some(src), Some(edge)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Resolve a scratch tap against `w`-lane buffer rows (`None` for
    /// grid taps, which resolve per block).
    pub(crate) fn resolve_scratch(&self, w: usize) -> Option<RTap> {
        match *self {
            Tap::Scratch { slot } => Some(RTap::Scratch {
                base: slot as usize * w,
            }),
            Tap::ScratchShifted { src, edge, dx } => Some(RTap::ScratchSplit {
                home: src as usize * w,
                nbr: edge as usize * w,
                dx: dx as isize,
            }),
            _ => None,
        }
    }
}

/// A grid [`Tap`] pre-resolved against the brick adjacency geometry: the
/// 27-entry neighbour index (or indices) and the in-brick row offset.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BrickTap {
    /// Whole row in one brick.
    Direct { nidx: usize, off: usize },
    /// Shifted row spanning the home-column brick and its x-neighbour
    /// (both at the same `(ry, rz)` row offset `off`).
    Split {
        hnidx: usize,
        nnidx: usize,
        off: usize,
        dx: isize,
    },
    /// Lanes `[lane0, lane0 + lanes)` of the row at `off` in one brick.
    Window {
        nidx: usize,
        off: usize,
        lane0: u16,
        lanes: u16,
    },
}

/// A tap resolved to concrete bases, per block/tile. Grid variants index
/// the input slab; scratch variants index the per-worker scratch buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RTap {
    /// Lane `i` reads `raw[base + i]`.
    Direct { base: usize },
    /// Lane `i` reads `raw[home + i + dx]` when `0 ≤ i + dx < w`, else
    /// the wrapped lane `i + dx ∓ w` of the `nbr` row.
    Split { home: usize, nbr: usize, dx: isize },
    /// Row lanes `[lane0, lane0 + lanes)` read `raw[base ..
    /// base + lanes]` (`base` is the slab index of lane `lane0`).
    Window { base: usize, lane0: u16, lanes: u16 },
    /// Lane `i` reads `scratch[base + i]`.
    Scratch { base: usize },
    /// [`RTap::Split`] over scratch rows.
    ScratchSplit { home: usize, nbr: usize, dx: isize },
}

/// One instruction of a row program. `acc` is the current row value; tap
/// operands load lanes through the resolved [`RTap`] table. The left/
/// right and reversed variants preserve the IR's operand order exactly —
/// the bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TapeOp {
    /// `acc = tap`.
    Set { tap: u16 },
    /// `acc = acc + tap` (tap was the right operand).
    AddTap { tap: u16 },
    /// `acc = tap + acc` (tap was the left operand).
    TapAdd { tap: u16 },
    /// `acc = acc · c`.
    Mul { c: f64 },
    /// `acc = fma(tap, c, acc)`.
    Fma { tap: u16, c: f64 },
    /// `acc = fma(acc, c, tap)`.
    FmaRev { tap: u16, c: f64 },
    /// Push `acc` onto the value stack.
    Push,
    /// `acc = pop() + acc` (popped value was the left operand).
    PopAdd,
    /// `acc = fma(acc, c, pop())`.
    PopFma { c: f64 },
}

impl TapeOp {
    /// The tap this op loads, if any (for the executors' bounds checks).
    pub(crate) fn tap(&self) -> Option<u16> {
        match *self {
            TapeOp::Set { tap }
            | TapeOp::AddTap { tap }
            | TapeOp::TapAdd { tap }
            | TapeOp::Fma { tap, .. }
            | TapeOp::FmaRev { tap, .. } => Some(tap),
            _ => None,
        }
    }

    /// The same op reading tap `f(tap)` instead (identity for tap-free ops).
    pub(crate) fn map_tap(self, f: impl FnOnce(u16) -> u16) -> TapeOp {
        match self {
            TapeOp::Set { tap } => TapeOp::Set { tap: f(tap) },
            TapeOp::AddTap { tap } => TapeOp::AddTap { tap: f(tap) },
            TapeOp::TapAdd { tap } => TapeOp::TapAdd { tap: f(tap) },
            TapeOp::Fma { tap, c } => TapeOp::Fma { tap: f(tap), c },
            TapeOp::FmaRev { tap, c } => TapeOp::FmaRev { tap: f(tap), c },
            other => other,
        }
    }
}

/// One output row: where it goes and the tape that computes it.
#[derive(Debug, Clone)]
pub(crate) struct RowProg {
    /// Home-block y row (in `0..by`).
    pub(crate) ry: u16,
    /// Home-block z row (in `0..bz`).
    pub(crate) rz: u16,
    /// Flat offset of the row inside a brick (`row_offset(ry, rz)`).
    pub(crate) out_off: usize,
    /// The accumulator program.
    pub(crate) tape: Vec<TapeOp>,
    /// Maximum value-stack depth of `tape` (0 for straight chains), fixed
    /// at linearization; lets block evaluators pick a stackless
    /// instantiation without re-walking the tape per row.
    pub(crate) max_sp: usize,
    /// Chain form of `tape` when it is a straight accumulation
    /// (`Set · Mul? · {Fma,AddTap,TapAdd}* · Mul?`) over grid rows and
    /// plain scratch rows — the shape scatter-scheduled rows and the
    /// 125-point cube's rows linearize to. SIMD backends evaluate this with a
    /// uniform tap loop instead of the general tape interpreter, which
    /// keeps the row accumulators register-resident (the interpreter's
    /// many-armed dispatch forces them onto the stack).
    pub(crate) fast: Option<FastRow>,
}

/// How a [`ScratchProg`] fills its row.
#[derive(Debug, Clone)]
pub(crate) enum Fill {
    /// Copy grid tap `tap` into the row: a whole row, a shifted row
    /// gathered across its seam, or a [`Tap::Window`]'s lanes with the
    /// others zeroed — the IR's partial `LoadRow`.
    Copy { tap: u16 },
    /// Evaluate an accumulator program into the row.
    Tape { tape: Vec<TapeOp>, max_sp: usize },
}

/// One scratch row written per block, before any output row: the value
/// of an IR register the tree form cannot express in place.
#[derive(Debug, Clone)]
pub(crate) struct ScratchProg {
    /// Scratch-buffer row written (`slot · w ..`, `w` lanes).
    pub(crate) slot: u16,
    /// What the row holds.
    pub(crate) fill: Fill,
}

/// Straight accumulation chain: `acc = tap[first]`, optionally
/// `acc *= pre`, then `acc = fma(tap, c, acc)` per entry, then optionally
/// `acc *= scale`. Additions ride as `c = 1.0` entries: `fma(t, 1.0, acc)`
/// rounds once with `t·1.0` exact, so it is bit-identical to the tape's
/// `acc + t` / `t + acc` for all non-NaN inputs (addition is commutative
/// in IEEE-754 up to NaN payload selection). Every tap is a grid row
/// (`Direct` or `Shifted`) or a plain scratch row (`Scratch`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FastRow {
    /// Tap that seeds the accumulator.
    pub(crate) first: u16,
    /// Scale right after the seed, if the tape's second op is a `Mul`.
    pub(crate) pre: Option<f64>,
    /// `(tap, coefficient)` accumulation entries, in tape order.
    pub(crate) fmas: Vec<(u16, f64)>,
    /// Trailing scale, if the tape ends in a `Mul`.
    pub(crate) scale: Option<f64>,
}

/// Extract the chain form of a tape, if every op fits
/// `Set · Mul? · {Fma,AddTap,TapAdd}* · Mul?` and every tap it reads is a
/// `Direct`, `Shifted` or `Scratch` row of `taps`. `pub(crate)` so the
/// brick-safe prover can recompute it and compare against the stored
/// form (obligation BS011).
pub(crate) fn fast_row(tape: &[TapeOp], taps: &[Tap]) -> Option<FastRow> {
    let Some((&TapeOp::Set { tap: first }, mut rest)) = tape.split_first() else {
        return None;
    };
    let mut pre = None;
    if let Some((&TapeOp::Mul { c }, r)) = rest.split_first() {
        pre = Some(c);
        rest = r;
    }
    let mut scale = None;
    if let Some((&TapeOp::Mul { c }, r)) = rest.split_last() {
        scale = Some(c);
        rest = r;
    }
    let mut fmas = Vec::with_capacity(rest.len());
    for op in rest {
        match *op {
            TapeOp::Fma { tap, c } => fmas.push((tap, c)),
            TapeOp::AddTap { tap } | TapeOp::TapAdd { tap } => fmas.push((tap, 1.0)),
            _ => return None,
        }
    }
    let chainable = |t: u16| {
        matches!(
            taps.get(t as usize),
            Some(Tap::Direct { .. } | Tap::Shifted { .. } | Tap::Scratch { .. })
        )
    };
    (chainable(first) && fmas.iter().all(|&(t, _)| chainable(t))).then_some(FastRow {
        first,
        pre,
        fmas,
        scale,
    })
}

/// A fully fused kernel: the tap table, the scratch-row programs and one
/// program per output row. Fields are crate-visible so the brick-safe
/// prover can walk (and, in its mutation harness, perturb) the program;
/// external code goes through the accessors.
#[derive(Debug, Clone)]
pub(crate) struct FusedKernel {
    /// Grid taps (`taps[..grid_taps]`) followed by scratch taps.
    pub(crate) taps: Vec<Tap>,
    /// Number of leading grid taps — the part of the resolved table the
    /// executors rewrite per block.
    pub(crate) grid_taps: usize,
    /// Parallel to `taps[..grid_taps]`; populated only for brick-layout
    /// kernels.
    pub(crate) brick_taps: Vec<BrickTap>,
    /// Scratch-row programs, evaluated in order before the output rows.
    pub(crate) scratch: Vec<ScratchProg>,
    /// Rows of the per-worker scratch buffer (`scratch_rows · w` values).
    pub(crate) scratch_rows: usize,
    pub(crate) rows: Vec<RowProg>,
}

impl FusedKernel {
    /// The tap table (layout-independent form).
    pub(crate) fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Number of taps (the executors size their resolved tables by it).
    pub(crate) fn taps_len(&self) -> usize {
        self.taps.len()
    }

    /// The per-output-row programs.
    pub(crate) fn rows(&self) -> &[RowProg] {
        &self.rows
    }

    /// A resolved-tap table for this kernel at width `w`: the scratch
    /// taps resolved (they are the same for every block), the grid part
    /// left for the executor to fill per block.
    pub(crate) fn rtap_table(&self, w: usize) -> Vec<RTap> {
        self.taps
            .iter()
            .map(|t| t.resolve_scratch(w).unwrap_or(RTap::Direct { base: 0 }))
            .collect()
    }

    /// A zeroed per-worker scratch buffer for width `w`.
    pub(crate) fn scratch_buffer(&self, w: usize) -> Vec<f64> {
        vec![0.0; self.scratch_rows * w]
    }

    /// Resolve every grid tap against one brick's 27-neighbour row into
    /// `out[..grid_taps]`; `vol` is the brick volume. Panics on a
    /// `NO_BRICK` neighbour — unreachable for interior bricks of a
    /// decomposition whose ghost shell covers the kernel's reach (checked
    /// by `check_brick` before execution).
    pub(crate) fn resolve_brick(&self, row27: &[u32; 27], vol: usize, out: &mut [RTap]) {
        let brick = |n: usize| -> usize {
            let b = row27[n];
            assert_ne!(b, NO_BRICK, "fused tap crosses the allocated brick shell");
            b as usize * vol
        };
        for (slot, bt) in self.brick_taps.iter().enumerate() {
            out[slot] = match *bt {
                BrickTap::Direct { nidx, off } => RTap::Direct {
                    base: brick(nidx) + off,
                },
                BrickTap::Split {
                    hnidx,
                    nnidx,
                    off,
                    dx,
                } => RTap::Split {
                    home: brick(hnidx) + off,
                    nbr: brick(nnidx) + off,
                    dx,
                },
                BrickTap::Window {
                    nidx,
                    off,
                    lane0,
                    lanes,
                } => RTap::Window {
                    base: brick(nidx) + off + lane0 as usize,
                    lane0,
                    lanes,
                },
            };
        }
    }
}

/// Symbolic value of an IR register during the analysis walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sym {
    /// Full input row `(rx, ry, rz)`.
    Row { rx: i8, ry: i16, rz: i16 },
    /// Partial (edge) load: lanes `[lane0, lane0 + lanes)` hold the row,
    /// the rest are zero. Consumed in place only as a covering `ShiftX`
    /// edge; any other use materializes it ([`Fill::Copy`]).
    Edge {
        rx: i8,
        ry: i16,
        rz: i16,
        lane0: u16,
        lanes: u16,
    },
    /// Shifted row: lane `i` is grid element `x0 + i + dx` of `(ry, rz)`.
    Off { ry: i16, rz: i16, dx: i16 },
    /// Materialized scratch row (virtual slot until [`Fuser::finish`]).
    Scr { slot: u16 },
    /// Shift of materialized scratch rows (virtual slots).
    ScrOff { src: u16, edge: u16, dx: i16 },
    /// Node in the expression arena.
    Expr(u32),
    /// Unknown (never written).
    Opaque,
}

/// Expression-tree node. Children are symbolic *values*, so rebinding a
/// register later never invalidates a node that captured its old value.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// `a + b`, operand order as in the IR.
    Add(Sym, Sym),
    /// `a · c`.
    Mul(Sym, f64),
    /// `fma(a, c, acc)` — the IR's `dst = acc + a·c`, fused.
    Fma { acc: Sym, a: Sym, c: f64 },
}

/// Fuse a verified kernel, or say why it cannot be fused: the refusal
/// names the limit the kernel crosses (width, block x-extent, value-stack
/// or tape cap, `u16` tap or slot ids, …). `Plan::compile` reports it as
/// `VmError::Unsupported`.
pub(crate) fn fuse(kernel: &VectorKernel) -> Result<FusedKernel, String> {
    let w = kernel.width;
    if !FUSED_WIDTHS.contains(&w) {
        return Err(format!("width {w} is not a fused width {FUSED_WIDTHS:?}"));
    }
    if kernel.block.bx != w {
        return Err(format!(
            "block x-extent {} differs from width {w}",
            kernel.block.bx
        ));
    }
    let coeff = |c: u16| {
        kernel
            .coeffs
            .get(c as usize)
            .copied()
            .ok_or_else(|| format!("coefficient c{c} out of range"))
    };
    let uses = use_counts(kernel);
    let mut f = Fuser {
        w,
        regs: vec![Sym::Opaque; kernel.num_regs],
        nodes: Vec::new(),
        taps: Vec::new(),
        tap_ids: HashMap::new(),
        scratch: Vec::new(),
        mat: HashMap::new(),
        rows: Vec::new(),
    };
    for (i, op) in kernel.ops.iter().enumerate() {
        match *op {
            VOp::LoadRow {
                dst,
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => {
                let full = lane0 == 0 && lanes as usize == w;
                *f.reg_mut(dst)? = if full {
                    Sym::Row { rx, ry, rz }
                } else {
                    Sym::Edge {
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes,
                    }
                };
            }
            VOp::ShiftX { dst, src, edge, dx } => {
                let (s, e) = (f.reg(src)?, f.reg(edge)?);
                if dx == 0 || dx.unsigned_abs() as usize >= w {
                    return Err(format!("op {i}: shift distance {dx} invalid for width {w}"));
                }
                let v = match shift_sym(s, e, dx, w) {
                    Some(off) => off,
                    None => Sym::ScrOff {
                        src: f.materialize(s)?,
                        edge: f.materialize(e)?,
                        dx,
                    },
                };
                *f.reg_mut(dst)? = v;
            }
            VOp::Add { dst, a, b } => {
                let node = Node::Add(f.value(a)?, f.value(b)?);
                f.define(dst, node, uses[i])?;
            }
            VOp::Mul { dst, a, coeff: c } => {
                let node = Node::Mul(f.value(a)?, coeff(c)?);
                f.define(dst, node, uses[i])?;
            }
            VOp::Fma {
                dst,
                acc,
                a,
                coeff: c,
            } => {
                let node = Node::Fma {
                    acc: f.value(acc)?,
                    a: f.value(a)?,
                    c: coeff(c)?,
                };
                f.define(dst, node, uses[i])?;
            }
            VOp::StoreRow { src, ry, rz } => {
                let (b, outside) = (kernel.block, || {
                    format!("op {i}: store row ({ry}, {rz}) outside the home block")
                });
                let ry = usize::try_from(ry).map_err(|_| outside())?;
                let rz = usize::try_from(rz).map_err(|_| outside())?;
                if ry >= b.by || rz >= b.bz {
                    return Err(outside());
                }
                let v = f.value(src)?;
                let (tape, max_sp) = f.tape_of(v)?;
                f.rows.push(RowProg {
                    ry: ry as u16,
                    rz: rz as u16,
                    out_off: b.row_offset(ry, rz),
                    tape,
                    max_sp,
                    fast: None,
                });
            }
        }
    }
    if f.rows.is_empty() {
        return Err("the kernel stores no rows".into());
    }
    f.finish(kernel.layout, kernel.block)
}

/// The refusal for a table that outgrows its `u16` ids.
fn id_overflow(what: &str) -> String {
    format!("more {what} than u16 ids address")
}

/// How many operand slots read the value each op defines (by op index):
/// an expression read more than once is materialized instead of being
/// re-expanded into every consumer's tape.
fn use_counts(kernel: &VectorKernel) -> Vec<u32> {
    let mut def = vec![usize::MAX; kernel.num_regs];
    let mut uses = vec![0u32; kernel.ops.len()];
    for (i, op) in kernel.ops.iter().enumerate() {
        for r in op.uses() {
            if let Some(&d) = def.get(r as usize) {
                if d != usize::MAX {
                    uses[d] += 1;
                }
            }
        }
        if let Some(r) = op.def() {
            if let Some(d) = def.get_mut(r as usize) {
                *d = i;
            }
        }
    }
    uses
}

/// State of the symbolic walk.
struct Fuser {
    w: usize,
    regs: Vec<Sym>,
    nodes: Vec<Node>,
    taps: Vec<Tap>,
    tap_ids: HashMap<Tap, u16>,
    /// Scratch programs; program `k` writes virtual slot `k`.
    scratch: Vec<ScratchProg>,
    /// Virtual slot holding each materialized value.
    mat: HashMap<Sym, u16>,
    rows: Vec<RowProg>,
}

impl Fuser {
    /// Register `r`'s symbolic value, for reading or rebinding.
    fn reg_mut(&mut self, r: u16) -> Result<&mut Sym, String> {
        let n = self.regs.len();
        self.regs
            .get_mut(r as usize)
            .ok_or_else(|| format!("register r{r} outside the {n}-register file"))
    }

    /// The symbolic value of register `r`.
    fn reg(&mut self, r: u16) -> Result<Sym, String> {
        self.reg_mut(r).map(|s| *s)
    }

    /// A register as an arithmetic operand: zero-filled partial loads
    /// are materialized, unwritten registers refuse fusion.
    fn value(&mut self, r: u16) -> Result<Sym, String> {
        match self.reg(r)? {
            Sym::Opaque => Err(format!("register r{r} is read before it is written")),
            e @ Sym::Edge { .. } => Ok(Sym::Scr {
                slot: self.materialize(e)?,
            }),
            s => Ok(s),
        }
    }

    /// Bind `dst` to a new expression node; one that several ops read is
    /// materialized right away so every consumer reads its scratch row.
    fn define(&mut self, dst: u16, node: Node, uses: u32) -> Result<(), String> {
        let id = u32::try_from(self.nodes.len()).map_err(|_| id_overflow("expression nodes"))?;
        self.nodes.push(node);
        let sym = Sym::Expr(id);
        if uses > 1 {
            self.materialize(sym)?;
        }
        *self.reg_mut(dst)? = sym;
        Ok(())
    }

    /// The scratch slot holding `s`, adding its program on first use.
    fn materialize(&mut self, s: Sym) -> Result<u16, String> {
        if let Sym::Scr { slot } = s {
            return Ok(slot);
        }
        if let Some(&slot) = self.mat.get(&s) {
            return Ok(slot);
        }
        let fill = match s {
            Sym::Edge {
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => {
                if lanes == 0 || lane0 as usize + lanes as usize > self.w {
                    return Err(format!(
                        "edge load lanes {lane0}+{lanes} escape width {}",
                        self.w
                    ));
                }
                Fill::Copy {
                    tap: self.tap_id(Tap::Window {
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes,
                    })?,
                }
            }
            Sym::Row { rx, ry, rz } => Fill::Copy {
                tap: self.tap_id(Tap::Direct { rx, ry, rz })?,
            },
            Sym::Off { ry, rz, dx } => Fill::Copy {
                tap: self.tap_id(Tap::Shifted { ry, rz, dx })?,
            },
            Sym::Opaque => return Err("an unwritten register is read".into()),
            _ => {
                let (tape, max_sp) = self.tape_of(s)?;
                Fill::Tape { tape, max_sp }
            }
        };
        let slot = u16::try_from(self.scratch.len()).map_err(|_| id_overflow("scratch rows"))?;
        self.scratch.push(ScratchProg { slot, fill });
        self.mat.insert(s, slot);
        Ok(slot)
    }

    /// The tap a symbol reads directly, if it is a leaf (a grid row, a
    /// shifted grid row, or a materialized value).
    fn leaf(&self, s: Sym) -> Option<Tap> {
        match s {
            Sym::Row { rx, ry, rz } => Some(Tap::Direct { rx, ry, rz }),
            Sym::Off { ry, rz, dx } => Some(Tap::Shifted { ry, rz, dx }),
            Sym::Scr { slot } => Some(Tap::Scratch { slot }),
            Sym::ScrOff { src, edge, dx } => Some(Tap::ScratchShifted { src, edge, dx }),
            Sym::Expr(_) | Sym::Edge { .. } => self.mat.get(&s).map(|&slot| Tap::Scratch { slot }),
            Sym::Opaque => None,
        }
    }

    /// Intern a tap.
    fn tap_id(&mut self, t: Tap) -> Result<u16, String> {
        if let Some(&id) = self.tap_ids.get(&t) {
            return Ok(id);
        }
        let id = u16::try_from(self.taps.len()).map_err(|_| id_overflow("taps"))?;
        self.taps.push(t);
        self.tap_ids.insert(t, id);
        Ok(id)
    }

    /// Linearize `s` into a fresh tape within the length and stack caps.
    fn tape_of(&mut self, s: Sym) -> Result<(Vec<TapeOp>, usize), String> {
        let mut tape = Vec::new();
        let mut depth = Depth::default();
        self.linearize(s, &mut tape, &mut depth)?;
        if tape.len() > MAX_TAPE {
            return Err(format!("a tape outgrows the {MAX_TAPE}-op cap"));
        }
        if depth.max > MAX_STACK {
            return Err(format!(
                "an expression needs a value stack {} deep (cap {MAX_STACK})",
                depth.max
            ));
        }
        Ok((tape, depth.max))
    }

    /// Flatten an expression tree into a [`TapeOp`] program, preserving
    /// the operand order of every node (see the bit-identity argument in
    /// the module docs). Two-sided nodes (both children computed)
    /// evaluate the left child first, park it on the value stack, and
    /// combine — exactly the tree value, no re-association.
    fn linearize(
        &mut self,
        sym: Sym,
        tape: &mut Vec<TapeOp>,
        depth: &mut Depth,
    ) -> Result<(), String> {
        if tape.len() > MAX_TAPE {
            return Err(format!("a tape outgrows the {MAX_TAPE}-op cap"));
        }
        if let Some(t) = self.leaf(sym) {
            let tap = self.tap_id(t)?;
            tape.push(TapeOp::Set { tap });
            return Ok(());
        }
        let node = match sym {
            Sym::Expr(id) => self.nodes.get(id as usize).copied(),
            _ => None,
        };
        match node.ok_or_else(|| format!("value {sym:?} has no tape form"))? {
            Node::Add(l, r) => {
                if let Some(t) = self.leaf(r) {
                    self.linearize(l, tape, depth)?;
                    let tap = self.tap_id(t)?;
                    tape.push(TapeOp::AddTap { tap });
                } else if let Some(t) = self.leaf(l) {
                    self.linearize(r, tape, depth)?;
                    let tap = self.tap_id(t)?;
                    tape.push(TapeOp::TapAdd { tap });
                } else {
                    self.linearize(l, tape, depth)?;
                    depth.push(tape);
                    self.linearize(r, tape, depth)?;
                    tape.push(TapeOp::PopAdd);
                    depth.cur -= 1;
                }
            }
            Node::Mul(a, c) => {
                self.linearize(a, tape, depth)?;
                tape.push(TapeOp::Mul { c });
            }
            Node::Fma { acc, a, c } => {
                if let Some(t) = self.leaf(a) {
                    self.linearize(acc, tape, depth)?;
                    let tap = self.tap_id(t)?;
                    tape.push(TapeOp::Fma { tap, c });
                } else if let Some(t) = self.leaf(acc) {
                    self.linearize(a, tape, depth)?;
                    let tap = self.tap_id(t)?;
                    tape.push(TapeOp::FmaRev { tap, c });
                } else {
                    self.linearize(acc, tape, depth)?;
                    depth.push(tape);
                    self.linearize(a, tape, depth)?;
                    tape.push(TapeOp::PopFma { c });
                    depth.cur -= 1;
                }
            }
        }
        Ok(())
    }

    /// Assign physical scratch slots, put the grid taps first, extract
    /// the fast chains and pre-resolve brick taps.
    fn finish(mut self, layout: LayoutKind, block: BrickDims) -> Result<FusedKernel, String> {
        self.stage_shared_shifts()?;
        let slot_of = self.assign_slots()?;
        for t in &mut self.taps {
            match t {
                Tap::Scratch { slot } => *slot = slot_of[*slot as usize],
                Tap::ScratchShifted { src, edge, .. } => {
                    *src = slot_of[*src as usize];
                    *edge = slot_of[*edge as usize];
                }
                _ => {}
            }
        }
        for sp in &mut self.scratch {
            sp.slot = slot_of[sp.slot as usize];
        }
        let scratch_rows = slot_of.iter().map(|&s| s as usize + 1).max().unwrap_or(0);

        // Grid taps first, so the executors rewrite one leading run of
        // the resolved table per block.
        let order: Vec<usize> = (0..self.taps.len())
            .filter(|&i| self.taps[i].is_grid())
            .chain((0..self.taps.len()).filter(|&i| !self.taps[i].is_grid()))
            .collect();
        let mut new_id = vec![0u16; order.len()];
        for (new, &old) in order.iter().enumerate() {
            new_id[old] = new as u16;
        }
        let taps: Vec<Tap> = order.iter().map(|&i| self.taps[i]).collect();
        let grid_taps = taps.iter().filter(|t| t.is_grid()).count();
        let remap = |tape: &mut Vec<TapeOp>| {
            for op in tape.iter_mut() {
                *op = op.map_tap(|t| new_id[t as usize]);
            }
        };
        for sp in &mut self.scratch {
            match &mut sp.fill {
                Fill::Copy { tap } => *tap = new_id[*tap as usize],
                Fill::Tape { tape, .. } => remap(tape),
            }
        }
        for rp in &mut self.rows {
            remap(&mut rp.tape);
            rp.fast = fast_row(&rp.tape, &taps);
        }
        let brick_taps = if layout == LayoutKind::Brick {
            taps[..grid_taps]
                .iter()
                .map(|t| {
                    brick_tap(t, block)
                        .ok_or_else(|| format!("grid tap {t:?} reaches past the adjacent bricks"))
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(FusedKernel {
            taps,
            grid_taps,
            brick_taps,
            scratch: self.scratch,
            scratch_rows,
            rows: self.rows,
        })
    }

    /// Stage every shifted grid tap more than one tape op reads: a
    /// scratch program at the front of the block gathers it across the
    /// seam once, and its readers load the staged row lane for lane. The
    /// 125-point cube reads each of its shifted rows from up to 25 output
    /// rows, the 27-point cube from up to 9. A tap read once (every
    /// `T = 1` star row's) stays in place.
    fn stage_shared_shifts(&mut self) -> Result<(), String> {
        let mut reads = vec![0u32; self.taps.len()];
        let tapes = self
            .scratch
            .iter()
            .filter_map(|sp| match &sp.fill {
                Fill::Tape { tape, .. } => Some(tape),
                Fill::Copy { .. } => None,
            })
            .chain(self.rows.iter().map(|rp| &rp.tape));
        for op in tapes.flatten() {
            if let Some(t) = op.tap() {
                reads[t as usize] += 1;
            }
        }
        let staged: Vec<u16> = (0..self.taps.len())
            .filter(|&t| matches!(self.taps[t], Tap::Shifted { .. }) && reads[t] > 1)
            .map(|t| t as u16)
            .collect();
        let k = u16::try_from(staged.len()).map_err(|_| id_overflow("scratch rows"))?;
        if k == 0 {
            return Ok(());
        }
        // the staging programs take virtual slots 0..k
        u16::try_from(self.scratch.len() + k as usize).map_err(|_| id_overflow("scratch rows"))?;
        for t in &mut self.taps {
            match t {
                Tap::Scratch { slot } => *slot += k,
                Tap::ScratchShifted { src, edge, .. } => {
                    *src += k;
                    *edge += k;
                }
                _ => {}
            }
        }
        let mut to_staged = HashMap::new();
        let mut front = Vec::with_capacity(staged.len());
        for (slot, &t) in (0..k).zip(&staged) {
            to_staged.insert(
                t,
                u16::try_from(self.taps.len()).map_err(|_| id_overflow("taps"))?,
            );
            self.taps.push(Tap::Scratch { slot });
            front.push(ScratchProg {
                slot,
                fill: Fill::Copy { tap: t },
            });
        }
        let redirect = |tape: &mut Vec<TapeOp>| {
            for op in tape.iter_mut() {
                *op = op.map_tap(|t| to_staged.get(&t).copied().unwrap_or(t));
            }
        };
        for sp in &mut self.scratch {
            sp.slot += k;
            if let Fill::Tape { tape, .. } = &mut sp.fill {
                redirect(tape);
            }
        }
        for rp in &mut self.rows {
            redirect(&mut rp.tape);
        }
        front.append(&mut self.scratch);
        self.scratch = front;
        Ok(())
    }

    /// Linear-scan slot assignment: virtual slot `k` (written by scratch
    /// program `k`) stays live until the last program that reads it, or
    /// to the end when an output row reads it. A slot whose last reader
    /// has run is reused; a program's own reads are all still live when
    /// it is assigned, so it never writes a row it reads. Refused when the
    /// buffer would outgrow `u16` slot ids.
    fn assign_slots(&self) -> Result<Vec<u16>, String> {
        let n = self.scratch.len();
        let slots_read = |tape: &[TapeOp]| -> Vec<u16> {
            tape.iter()
                .filter_map(TapeOp::tap)
                .flat_map(|t| self.taps[t as usize].scratch_slots())
                .collect()
        };
        let mut last: Vec<usize> = (0..n).collect();
        for (k, sp) in self.scratch.iter().enumerate() {
            if let Fill::Tape { tape, .. } = &sp.fill {
                for v in slots_read(tape) {
                    last[v as usize] = last[v as usize].max(k);
                }
            }
        }
        for rp in &self.rows {
            for v in slots_read(&rp.tape) {
                last[v as usize] = n;
            }
        }
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (v, &l) in last.iter().enumerate() {
            ends[l].push(v);
        }
        let mut slot_of = vec![0u16; n];
        let mut free: Vec<u16> = Vec::new();
        let mut rows = 0u16;
        for k in 0..n {
            if k > 0 {
                free.extend(ends[k - 1].iter().map(|&v| slot_of[v]));
            }
            slot_of[k] = match free.pop() {
                Some(slot) => slot,
                None => {
                    rows = rows
                        .checked_add(1)
                        .ok_or_else(|| id_overflow("scratch rows"))?;
                    rows - 1
                }
            };
        }
        Ok(slot_of)
    }
}

/// Fold a `ShiftX` into a shifted-row symbol, iff its source is a loaded
/// home row and the edge row provably supplies exactly the wrapped lanes.
/// `dst[i] = src[i+dx]` in range; for `dx > 0` lanes `[w-d, w)` wrap to
/// `edge[0..d)`, which must equal grid lanes `[0, d)` of the `+x`
/// neighbour row — i.e. an edge load at `rx = +1` covering `[0, d)`
/// (mirrored for `dx < 0`).
fn shift_sym(src: Sym, edge: Sym, dx: i16, w: usize) -> Option<Sym> {
    let Sym::Row { rx: 0, ry, rz } = src else {
        return None;
    };
    let Sym::Edge {
        rx: erx,
        ry: ery,
        rz: erz,
        lane0,
        lanes,
    } = edge
    else {
        return None;
    };
    if (ery, erz) != (ry, rz) || dx == 0 {
        return None;
    }
    let d = dx.unsigned_abs() as usize;
    if d >= w {
        return None;
    }
    let (lane0, lanes) = (lane0 as usize, lanes as usize);
    let covered = if dx > 0 {
        erx == 1 && lane0 == 0 && lanes >= d
    } else {
        erx == -1 && lane0 <= w - d && lane0 + lanes >= w
    };
    covered.then_some(Sym::Off { ry, rz, dx })
}

/// Value-stack depth bookkeeping during linearization.
#[derive(Default)]
struct Depth {
    cur: usize,
    max: usize,
}

impl Depth {
    fn push(&mut self, tape: &mut Vec<TapeOp>) {
        tape.push(TapeOp::Push);
        self.cur += 1;
        self.max = self.max.max(self.cur);
    }
}

/// Split a relative row coordinate into (brick step, local row); fusable
/// only one brick out (the verifier's reach-vs-ghost check already bounds
/// real kernels to that).
fn split_axis(r: i16, extent: usize) -> Option<(i32, usize)> {
    let e = i16::try_from(extent).ok()?;
    let (s, l) = (r.div_euclid(e), r.rem_euclid(e));
    (-1..=1).contains(&s).then_some((s as i32, l as usize))
}

/// Pre-resolve one grid tap against the brick geometry.
fn brick_tap(t: &Tap, b: BrickDims) -> Option<BrickTap> {
    match *t {
        Tap::Direct { rx, ry, rz } | Tap::Window { rx, ry, rz, .. } => {
            if !(-1..=1).contains(&rx) {
                return None;
            }
            let (sy, ly) = split_axis(ry, b.by)?;
            let (sz, lz) = split_axis(rz, b.bz)?;
            let (nidx, off) = (neighbor_index(rx as i32, sy, sz), b.row_offset(ly, lz));
            Some(match *t {
                Tap::Window { lane0, lanes, .. } => BrickTap::Window {
                    nidx,
                    off,
                    lane0,
                    lanes,
                },
                _ => BrickTap::Direct { nidx, off },
            })
        }
        Tap::Shifted { ry, rz, dx } => {
            let (sy, ly) = split_axis(ry, b.by)?;
            let (sz, lz) = split_axis(rz, b.bz)?;
            let sx = if dx > 0 { 1 } else { -1 };
            Some(BrickTap::Split {
                hnidx: neighbor_index(0, sy, sz),
                nnidx: neighbor_index(sx, sy, sz),
                off: b.row_offset(ly, lz),
                dx: dx as isize,
            })
        }
        Tap::Scratch { .. } | Tap::ScratchShifted { .. } => None,
    }
}

/// Copy lanes `i + dx` of `src[home..]`, wrapping into `src[nbr..]`, into
/// `buf[..w]` — the shift semantics shared by grid and scratch rows.
fn load_split(src: &[f64], home: usize, nbr: usize, dx: isize, w: usize, buf: &mut [f64]) {
    if dx > 0 {
        let d = dx as usize;
        buf[..w - d].copy_from_slice(&src[home + d..home + w]);
        buf[w - d..w].copy_from_slice(&src[nbr..nbr + d]);
    } else {
        let d = (-dx) as usize;
        buf[..d].copy_from_slice(&src[nbr + w - d..nbr + w]);
        buf[d..w].copy_from_slice(&src[home..home + w - d]);
    }
}

/// Copy one tap row into `buf[..w]` (the portable evaluator's load).
/// Window taps are never tape operands (BS004); reaching one panics.
fn load_tap(rt: &RTap, raw: &[f64], scr: &[f64], w: usize, buf: &mut [f64]) {
    match *rt {
        RTap::Direct { base } => buf[..w].copy_from_slice(&raw[base..base + w]),
        RTap::Split { home, nbr, dx } => load_split(raw, home, nbr, dx, w, buf),
        RTap::Scratch { base } => buf[..w].copy_from_slice(&scr[base..base + w]),
        RTap::ScratchSplit { home, nbr, dx } => load_split(scr, home, nbr, dx, w, buf),
        RTap::Window { .. } => panic!("window tap used as a tape operand"),
    }
}

/// Fill one scratch row from a grid tap (a [`Fill::Copy`]): a whole or
/// shifted row, or a window's lanes with zeros elsewhere (exactly the
/// interpreter's partial `LoadRow`).
pub(crate) fn fill_copy(rt: RTap, raw: &[f64], row: &mut [f64]) {
    let w = row.len();
    match rt {
        RTap::Direct { base } => row.copy_from_slice(&raw[base..base + w]),
        RTap::Split { home, nbr, dx } => load_split(raw, home, nbr, dx, w, row),
        RTap::Window { base, lane0, lanes } => {
            let (lane0, lanes) = (lane0 as usize, lanes as usize);
            row.fill(0.0);
            row[lane0..lane0 + lanes].copy_from_slice(&raw[base..base + lanes]);
        }
        RTap::Scratch { .. } | RTap::ScratchSplit { .. } => {
            panic!("copy fill reads a scratch tap")
        }
    }
}

/// Run every scratch program of `f` for one block, in order, into `scr`.
/// `eval(tape, max_sp, scr, out)` is the backend's tape evaluator; it
/// computes into a stack row that is then copied into the slot, so a
/// tape never reads the row it is writing.
pub(crate) fn run_scratch(
    f: &FusedKernel,
    rtaps: &[RTap],
    raw: &[f64],
    scr: &mut [f64],
    w: usize,
    mut eval: impl FnMut(&[TapeOp], usize, &[f64], &mut [f64]),
) {
    let mut row = [0.0f64; MAX_W];
    for sp in &f.scratch {
        let s = sp.slot as usize * w;
        match &sp.fill {
            Fill::Copy { tap } => fill_copy(rtaps[*tap as usize], raw, &mut scr[s..s + w]),
            Fill::Tape { tape, max_sp } => {
                eval(tape, *max_sp, scr, &mut row[..w]);
                scr[s..s + w].copy_from_slice(&row[..w]);
            }
        }
    }
}

/// Evaluate one row program in safe code — the `Auto` floor's fused
/// executor and the reference semantics of a tape. Panics (cleanly, via
/// slice checks) on malformed input; `Plan::compile` only produces tapes
/// whose taps, stack depth, and widths are in range.
// `*a = *t + *a`, not `*a += *t`: the tap is the *left* addend and the
// operand order is part of the bit-identity contract with the interpreter
// (NaN payload propagation follows the first operand).
#[allow(clippy::assign_op_pattern)]
pub(crate) fn eval_row_portable(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    scr: &[f64],
    w: usize,
    out: &mut [f64],
) {
    assert!(w <= MAX_W, "width {w} exceeds fused row buffer");
    assert_eq!(out.len(), w, "output row length mismatch");
    let mut acc = [0.0f64; MAX_W];
    let mut tbuf = [0.0f64; MAX_W];
    let mut stack = [[0.0f64; MAX_W]; MAX_STACK];
    let mut sp = 0usize;
    for op in tape {
        if let Some(t) = op.tap() {
            load_tap(&rtaps[t as usize], raw, scr, w, &mut tbuf);
        }
        match *op {
            TapeOp::Set { .. } => acc[..w].copy_from_slice(&tbuf[..w]),
            TapeOp::AddTap { .. } => {
                for i in 0..w {
                    acc[i] += tbuf[i];
                }
            }
            TapeOp::TapAdd { .. } => {
                for (a, t) in acc[..w].iter_mut().zip(&tbuf[..w]) {
                    *a = *t + *a;
                }
            }
            TapeOp::Mul { c } => {
                for a in acc[..w].iter_mut() {
                    *a *= c;
                }
            }
            TapeOp::Fma { c, .. } => {
                for i in 0..w {
                    acc[i] = tbuf[i].mul_add(c, acc[i]);
                }
            }
            TapeOp::FmaRev { c, .. } => {
                for i in 0..w {
                    acc[i] = acc[i].mul_add(c, tbuf[i]);
                }
            }
            TapeOp::Push => {
                stack[sp][..w].copy_from_slice(&acc[..w]);
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for (a, t) in acc[..w].iter_mut().zip(&stack[sp][..w]) {
                    *a = *t + *a;
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                for i in 0..w {
                    acc[i] = acc[i].mul_add(c, stack[sp][i]);
                }
            }
        }
    }
    out.copy_from_slice(&acc[..w]);
}

/// Check one resolved tap against the input slab and scratch buffer
/// lengths; panics on violation.
fn check_rtap(rt: &RTap, raw_len: usize, scr_len: usize, w: usize) {
    let row = |base: usize, len: usize, what: &str| {
        assert!(base + w <= len, "tap row {base}+{w} escapes {what} {len}");
    };
    match *rt {
        RTap::Direct { base } => row(base, raw_len, "slab"),
        RTap::Split { home, nbr, dx } => {
            row(home, raw_len, "slab");
            row(nbr, raw_len, "slab");
            assert!(dx != 0 && dx.unsigned_abs() < w, "shift {dx} out of range");
        }
        RTap::Window { base, lane0, lanes } => {
            assert!(
                lanes > 0 && lane0 as usize + lanes as usize <= w,
                "window {lane0}+{lanes} escapes its {w}-lane row"
            );
            assert!(
                base + lanes as usize <= raw_len,
                "window {base}+{lanes} escapes slab {raw_len}"
            );
        }
        RTap::Scratch { base } => row(base, scr_len, "scratch"),
        RTap::ScratchSplit { home, nbr, dx } => {
            row(home, scr_len, "scratch");
            row(nbr, scr_len, "scratch");
            assert!(dx != 0 && dx.unsigned_abs() < w, "shift {dx} out of range");
        }
    }
}

/// Validate everything a SIMD tape evaluator dereferences: every tap id
/// resolves to a tape operand (never a window), every tap row lies
/// inside `raw` or the scratch buffer, shift distances are in `(0, w)`,
/// and the value stack stays within [`MAX_STACK`]. Called by the unsafe
/// backends before any pointer is formed; panics on violation
/// (unreachable for programs built by [`fuse`] over verified kernels).
/// Returns the tape's maximum value-stack depth so the evaluators can
/// skip materializing a stack for the (common) straight-chain tapes.
pub(crate) fn check_tape(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw_len: usize,
    scr_len: usize,
    w: usize,
) -> usize {
    let mut sp = 0usize;
    let mut max_sp = 0usize;
    for op in tape {
        if let Some(t) = op.tap() {
            let rt = &rtaps[t as usize];
            assert!(
                !matches!(rt, RTap::Window { .. }),
                "window tap {t} used as a tape operand"
            );
            check_rtap(rt, raw_len, scr_len, w);
        }
        match op {
            TapeOp::Push => {
                sp += 1;
                max_sp = max_sp.max(sp);
                assert!(sp <= MAX_STACK, "tape value stack overflow");
            }
            TapeOp::PopAdd | TapeOp::PopFma { .. } => {
                sp = sp.checked_sub(1).expect("tape value stack underflow");
            }
            _ => {}
        }
    }
    max_sp
}

/// Validate a resolved tap table against the input slab and scratch
/// buffer: every row a SIMD evaluator may load lies inside its buffer,
/// and every shift distance is in `(0, w)`. This restates, against one
/// concrete block, what the brick-safe prover ([`super::safe`])
/// establishes statically for *all* blocks (BS001–BS003, BS012, BS014)
/// given the per-run premise checks in `crate::exec` — so the release
/// hot path does not run it; the SIMD `eval_block`s keep it as a
/// debug-build assertion, and tests use it as the oracle for
/// mutation-survivor harmlessness. Panics on violation.
pub(crate) fn check_taps(rtaps: &[RTap], raw_len: usize, scr_len: usize, w: usize) {
    for rt in rtaps {
        check_rtap(rt, raw_len, scr_len, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, Strategy};
    use brick_dsl::shape::StencilShape;

    fn kernel(shape: StencilShape, layout: LayoutKind, strategy: Strategy) -> VectorKernel {
        let st = shape.stencil();
        let b = st.default_bindings();
        let opts = CodegenOptions {
            strategy,
            ..CodegenOptions::default()
        };
        generate(&st, &b, layout, 32, opts).unwrap()
    }

    #[test]
    fn star_gather_kernels_fuse_with_one_row_per_store() {
        for shape in [StencilShape::star(1), StencilShape::star(4)] {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let k = kernel(shape, layout, Strategy::Gather);
                let f = fuse(&k).expect("gather kernels fuse");
                let stores = k
                    .ops
                    .iter()
                    .filter(|op| matches!(op, VOp::StoreRow { .. }))
                    .count();
                assert_eq!(f.rows().len(), stores, "{shape} {layout}");
                assert!(f.taps_len() > 0);
                // spatial kernels read the grid only: no scratch rows
                assert_eq!((f.scratch.len(), f.scratch_rows), (0, 0), "{shape}");
                assert_eq!(f.grid_taps, f.taps_len());
                for rp in f.rows() {
                    assert!(!rp.tape.is_empty());
                    check_tape(&rp.tape, &resolve_identity(&f, k.width), BIG, BIG, k.width);
                }
            }
        }
    }

    /// Slab and scratch length for the grid-free checks below.
    const BIG: usize = usize::MAX / 2;

    /// Stand-in resolution (grid base 0 everywhere) so `check_tape`'s
    /// tap-id and stack-discipline checks can run without a grid.
    fn resolve_identity(f: &FusedKernel, w: usize) -> Vec<RTap> {
        f.taps()
            .iter()
            .map(|t| match *t {
                Tap::Direct { .. } => RTap::Direct { base: 0 },
                Tap::Shifted { dx, .. } => RTap::Split {
                    home: 0,
                    nbr: 0,
                    dx: dx as isize,
                },
                Tap::Window { lane0, lanes, .. } => RTap::Window {
                    base: 0,
                    lane0,
                    lanes,
                },
                scratch => scratch.resolve_scratch(w).unwrap(),
            })
            .collect()
    }

    // Diagnostic: print fused-program shape for the paper suite.
    // `cargo test -p brick-vm --release -- --ignored --nocapture fused_shape`
    #[test]
    #[ignore]
    fn fused_shape_report() {
        for shape in StencilShape::paper_suite() {
            for t in 1..=2 {
                let st = shape.stencil();
                let opts = CodegenOptions {
                    temporal_degree: t,
                    ..CodegenOptions::default()
                };
                let Ok(k) = generate(&st, &st.default_bindings(), LayoutKind::Brick, 32, opts)
                else {
                    continue;
                };
                let f = fuse(&k).expect("paper kernels fuse");
                let ops: usize = f.rows().iter().map(|r| r.tape.len()).sum();
                let copies = f
                    .scratch
                    .iter()
                    .filter(|sp| matches!(sp.fill, Fill::Copy { .. }))
                    .count();
                let staged = f
                    .scratch
                    .iter()
                    .filter(|sp| match sp.fill {
                        Fill::Copy { tap } => matches!(f.taps[tap as usize], Tap::Shifted { .. }),
                        Fill::Tape { .. } => false,
                    })
                    .count();
                let scratch_ops: usize = f
                    .scratch
                    .iter()
                    .map(|sp| match &sp.fill {
                        Fill::Tape { tape, .. } => tape.len(),
                        Fill::Copy { .. } => 0,
                    })
                    .sum();
                println!(
                    "{shape} t{t}: taps={} (grid {}) rows={} ops/row={:.1} fast={} \
                     scratch: {} copies ({} staged shifts), {} tapes ({} ops), {} rows",
                    f.taps_len(),
                    f.grid_taps,
                    f.rows().len(),
                    ops as f64 / f.rows().len() as f64,
                    f.rows().iter().filter(|r| r.fast.is_some()).count(),
                    copies,
                    staged,
                    f.scratch.len() - copies,
                    scratch_ops,
                    f.scratch_rows,
                );
            }
        }
    }

    #[test]
    fn every_spatial_paper_kernel_fuses() {
        for shape in StencilShape::paper_suite() {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                for strategy in [Strategy::Gather, Strategy::Scatter] {
                    let k = kernel(shape, layout, strategy);
                    let f = fuse(&k).unwrap_or_else(|e| panic!("{shape} {layout} {strategy}: {e}"));
                    let rt = resolve_identity(&f, k.width);
                    for rp in f.rows() {
                        check_tape(&rp.tape, &rt, BIG, BIG, k.width);
                    }
                }
            }
        }
    }

    #[test]
    fn cube125_tap_table_is_sized_by_the_kernel() {
        // 64 y/z row groups x 5 x-offsets on a 32x4x4 block; the shifted
        // rows several output rows read are staged into scratch rows
        for strategy in [Strategy::Gather, Strategy::Scatter] {
            let k = kernel(StencilShape::cube(2), LayoutKind::Brick, strategy);
            let f = fuse(&k).expect("125-point cube fuses");
            assert_eq!(f.grid_taps, 320, "{strategy}");
            assert_eq!(f.taps_len(), f.grid_taps + f.scratch.len(), "{strategy}");
            assert!(f
                .scratch
                .iter()
                .all(|sp| matches!(sp.fill, Fill::Copy { .. })));
        }
        // scatter rows become straight chains over the staged rows
        let k = kernel(StencilShape::cube(2), LayoutKind::Brick, Strategy::Scatter);
        let f = fuse(&k).unwrap();
        assert!(f.rows().iter().all(|rp| rp.fast.is_some()));
    }

    #[test]
    fn temporal_kernels_fuse_through_scratch_rows() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let opts = CodegenOptions {
            temporal_degree: 2,
            ..CodegenOptions::default()
        };
        let k = generate(&st, &b, LayoutKind::Brick, 32, opts).unwrap();
        let f = fuse(&k).expect("T=2 star fuses");
        assert_eq!(f.rows().len(), 16);
        assert!(!f.scratch.is_empty() && f.scratch_rows > 0);
        // every scratch program writes inside the buffer and reads only
        // rows an earlier program wrote
        let mut written = vec![false; f.scratch_rows];
        for sp in &f.scratch {
            if let Fill::Tape { tape, .. } = &sp.fill {
                for t in tape.iter().filter_map(TapeOp::tap) {
                    for s in f.taps[t as usize].scratch_slots() {
                        assert!(written[s as usize], "slot {s} read before written");
                    }
                }
            }
            written[sp.slot as usize] = true;
        }
        // the scratch buffer stays within the kernel's register file
        assert!(f.scratch_rows <= k.num_regs, "{} rows", f.scratch_rows);
    }

    #[test]
    fn tape_evaluates_the_exact_expression() {
        // acc = fma(t1, c, t0 + t1) with operand order preserved:
        // portable eval vs a hand scalar evaluation, bit for bit.
        let w = 16;
        let raw: Vec<f64> = (0..2 * w).map(|i| 0.37 * (i as f64) - 2.0).collect();
        let rtaps = [RTap::Direct { base: 0 }, RTap::Direct { base: w }];
        let tape = [
            TapeOp::Set { tap: 0 },
            TapeOp::AddTap { tap: 1 },
            TapeOp::Fma { tap: 1, c: 0.125 },
            TapeOp::Mul { c: -3.0 },
        ];
        let mut out = vec![0.0; w];
        eval_row_portable(&tape, &rtaps, &raw, &[], w, &mut out);
        for i in 0..w {
            let (t0, t1) = (raw[i], raw[w + i]);
            let want = t1.mul_add(0.125, t0 + t1) * -3.0;
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn copy_fill_of_a_window_zeroes_the_unloaded_lanes() {
        let raw: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        let mut row = [9.0; 16];
        let rt = RTap::Window {
            base: 3,
            lane0: 14,
            lanes: 2,
        };
        fill_copy(rt, &raw, &mut row);
        assert_eq!(row[..14], [0.0; 14]);
        assert_eq!(row[14..], [4.0, 5.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i mirrors the lane math under test
    fn split_taps_read_across_the_seam() {
        let w = 16;
        // home row = 0..16, neighbour row = 100..116
        let mut raw = vec![0.0; 2 * w];
        for i in 0..w {
            raw[i] = i as f64;
            raw[w + i] = 100.0 + i as f64;
        }
        for dx in [-3isize, -1, 1, 3] {
            let rtaps = [RTap::Split {
                home: 0,
                nbr: w,
                dx,
            }];
            let tape = [TapeOp::Set { tap: 0 }];
            let mut out = vec![0.0; w];
            eval_row_portable(&tape, &rtaps, &raw, &[], w, &mut out);
            for i in 0..w {
                let j = i as isize + dx;
                let want = if (0..w as isize).contains(&j) {
                    j as f64
                } else if j >= w as isize {
                    100.0 + (j - w as isize) as f64
                } else {
                    100.0 + (j + w as isize) as f64
                };
                assert_eq!(out[i], want, "dx={dx} lane {i}");
            }
        }
    }

    #[test]
    fn check_tape_rejects_escaping_rows_and_bad_stacks() {
        let tape = [TapeOp::Set { tap: 0 }];
        let rtaps = [RTap::Direct { base: 100 }];
        check_tape(&tape, &rtaps, 116, 0, 16); // exactly fits
        assert!(std::panic::catch_unwind(|| check_tape(&tape, &rtaps, 115, 0, 16)).is_err());
        let underflow = [TapeOp::PopAdd];
        assert!(std::panic::catch_unwind(|| check_tape(&underflow, &rtaps, 116, 0, 16)).is_err());
        // scratch rows are bounded by the scratch buffer, not the slab
        let scr = [RTap::Scratch { base: 16 }];
        check_tape(&tape, &scr, 0, 32, 16);
        assert!(std::panic::catch_unwind(|| check_tape(&tape, &scr, BIG, 31, 16)).is_err());
        // window taps are fill sources, never tape operands
        let win = [RTap::Window {
            base: 0,
            lane0: 0,
            lanes: 2,
        }];
        assert!(std::panic::catch_unwind(|| check_tape(&tape, &win, BIG, 0, 16)).is_err());
    }
}
