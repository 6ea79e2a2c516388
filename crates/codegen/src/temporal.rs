//! Temporal fusion: lower `T` stencil timesteps into one vector kernel.
//!
//! AN5D-style temporal blocking (Matsumura et al.): instead of writing the
//! field to memory after every timestep, a fused kernel keeps `T − 1`
//! levels of intermediate planes in registers and stores only the final
//! level — trading `(T − 1)` round trips to DRAM for halo recomputation.
//! The arithmetic intensity of the stored points grows ≈ linearly with
//! `T` while DRAM bytes per applied timestep shrink toward `16/T` of the
//! unfused kernel's.
//!
//! ## The schedule
//!
//! Level `0` is the input field; level `s` is the field after `s` stencil
//! applications. Every level-`s` row a later level consumes is one of
//! three register families:
//!
//! - **Home** rows `I_s(ry, rz)`: the home block's row, valid on all
//!   `width` lanes. Computed from level `s−1` home rows with `ShiftX`
//!   shuffles whose wrapped lanes read the `E±` families below.
//! - **Edge-plus** rows `E⁺_s(ry, rz)`: the `+x` neighbour block's row,
//!   valid on lanes `[0, h_s)` where `h_s = (T − s)·r_x` — exactly the
//!   lanes later shuffles wrap into. Lanes `≥ h_s` hold deterministic
//!   garbage that is provably never consumed (see the halo argument in
//!   DESIGN.md §14).
//! - **Edge-minus** rows `E⁻_s(ry, rz)`: the `−x` neighbour, valid on
//!   lanes `[width − h_s, width)`.
//!
//! Level 0 of all three families is plain `LoadRow`s (`rx ∈ {−1, 0, +1}`),
//! so feasibility requires `T·r ≤ block extent` per axis — checked by
//! [`crate::generate::generate`] before this scheduler runs.
//!
//! ## Bit-for-bit contract
//!
//! Each row of each level is evaluated with *exactly* the gather
//! schedule's op sequence: per coefficient class (in class order), the
//! shifted taps are summed with `Add` in tap order, then the first class
//! is scaled with `Mul` and later classes chained with `Fma`. IEEE ops
//! are deterministic functions of their operand values, so every home
//! lane of level `s` is bit-identical to what `s` sequential launches of
//! the `T = 1` gather kernel produce, and every valid `E±` lane is
//! bit-identical to the corresponding lane of the neighbour block's home
//! row. The differential suite (`crates/vm/tests/temporal_diff.rs`) pins
//! this with `to_bits` equality; never reassociate here without loosening
//! that suite explicitly.
//!
//! ## Need sets
//!
//! Which rows each level actually needs is computed by *backward
//! dilation* from the stored home block through the real tap offsets
//! (diamond-shaped for star stencils, box-shaped for cubes) — the
//! association-aware halo growth. Computing `I_s(row)` consumes
//! `I_{s−1}(row + (dy,dz))` for every tap plus `E⁺_{s−1}`/`E⁻_{s−1}` of
//! the same rows as shuffle edges for `dx > 0`/`dx < 0`; computing
//! `E⁺_s(row)` consumes `E⁺_{s−1}(row + (dy,dz))` plus `I_{s−1}` rows as
//! edges for `dx < 0` (the wrap back into the home block), and `E⁻`
//! mirrors it.

use std::collections::{BTreeSet, HashMap};

use brick_core::BrickDims;

use crate::generate::{Builder, Class};
use crate::ir::{CoeffIdx, Reg};

/// Which block a register family tracks.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// The home block (valid on all lanes).
    Home,
    /// The `+x` neighbour (valid on the leading `h_s` lanes).
    Ep,
    /// The `−x` neighbour (valid on the trailing `h_s` lanes).
    Em,
}

type Row = (i16, i16); // (ry, rz)

/// Registers holding one level of the field, per family.
#[derive(Default)]
struct Level {
    home: HashMap<Row, Reg>,
    ep: HashMap<Row, Reg>,
    em: HashMap<Row, Reg>,
}

impl Level {
    fn of(&self, kind: Kind) -> &HashMap<Row, Reg> {
        match kind {
            Kind::Home => &self.home,
            Kind::Ep => &self.ep,
            Kind::Em => &self.em,
        }
    }
}

/// Rows each family needs at each level, `0 ..= t`.
struct Needs {
    home: Vec<BTreeSet<Row>>,
    ep: Vec<BTreeSet<Row>>,
    em: Vec<BTreeSet<Row>>,
}

/// Backward need-set propagation from the stored home block. Depends
/// only on the flat tap-offset set — the class partition is irrelevant.
fn compute_needs(taps: &[[i32; 3]], block: BrickDims, t: usize) -> Needs {
    let (by, bz) = (block.by as i16, block.bz as i16);
    let mut home: Vec<BTreeSet<Row>> = vec![BTreeSet::new(); t + 1];
    let mut ep: Vec<BTreeSet<Row>> = vec![BTreeSet::new(); t + 1];
    let mut em: Vec<BTreeSet<Row>> = vec![BTreeSet::new(); t + 1];
    for rz in 0..bz {
        for ry in 0..by {
            home[t].insert((ry, rz));
        }
    }
    for s in (1..=t).rev() {
        let (cur_home, cur_ep, cur_em) = (home[s].clone(), ep[s].clone(), em[s].clone());
        for &[dx, dy, dz] in taps {
            let (dy, dz) = (dy as i16, dz as i16);
            for &(ry, rz) in &cur_home {
                let row = (ry + dy, rz + dz);
                home[s - 1].insert(row);
                if dx > 0 {
                    ep[s - 1].insert(row);
                } else if dx < 0 {
                    em[s - 1].insert(row);
                }
            }
            for &(ry, rz) in &cur_ep {
                let row = (ry + dy, rz + dz);
                ep[s - 1].insert(row);
                if dx < 0 {
                    home[s - 1].insert(row);
                }
            }
            for &(ry, rz) in &cur_em {
                let row = (ry + dy, rz + dz);
                em[s - 1].insert(row);
                if dx > 0 {
                    home[s - 1].insert(row);
                }
            }
        }
    }
    Needs { home, ep, em }
}

/// Exact count of virtual registers [`schedule_temporal`] would allocate
/// for this tap set, block and fusion degree — computed from the need
/// sets alone, with no IR emitted. Mirrors the emitter precisely:
///
/// - level 0 allocates one register per loaded row (the three need sets,
///   each row loaded exactly once);
/// - each evaluated row allocates `points` arithmetic registers — per
///   class `taps_c − 1` adds plus one `Mul`/`Fma`, and `Σ taps_c =
///   points` regardless of how taps partition into classes;
/// - shifted operands are memoized per level on `(family, source row,
///   dx)`, so each distinct key allocates exactly one register.
///
/// `tests::planned_vreg_count_is_exact` pins this against the real
/// emitter op by op; [`crate::generate::generate`] uses it to reject
/// programs that would overflow the `u16` register-id space before any
/// scheduling work happens.
pub(crate) fn fused_vreg_count(taps: &[[i32; 3]], block: BrickDims, t: u32) -> usize {
    let t = t as usize;
    let needs = compute_needs(taps, block, t);
    let points = taps.len();
    let mut n = needs.home[0].len() + needs.ep[0].len() + needs.em[0].len();
    for s in 1..=t {
        let mut shifts: BTreeSet<(u8, Row, i16)> = BTreeSet::new();
        for (fam, set) in [
            (0u8, &needs.home[s]),
            (1u8, &needs.ep[s]),
            (2u8, &needs.em[s]),
        ] {
            for &(ry, rz) in set {
                for &[dx, dy, dz] in taps {
                    if dx != 0 {
                        shifts.insert((fam, (ry + dy as i16, rz + dz as i16), dx as i16));
                    }
                }
            }
        }
        let rows = needs.home[s].len() + needs.ep[s].len() + needs.em[s].len();
        n += shifts.len() + rows * points;
    }
    n
}

/// Rows of a need set in the gather schedule's `(rz, ry)` visit order.
fn ordered(set: &BTreeSet<Row>) -> Vec<Row> {
    let mut v: Vec<Row> = set.iter().copied().collect();
    v.sort_by_key(|&(ry, rz)| (rz, ry));
    v
}

/// Emit the T-fused kernel body. Preconditions (checked by `generate`):
/// `t ≥ 2` and `t·reach ≤ block extent` on every axis.
pub(crate) fn schedule_temporal(b: &mut Builder, classes: &[Class], block: BrickDims, t: u32) {
    let t = t as usize;
    let taps: Vec<[i32; 3]> = classes
        .iter()
        .flat_map(|c| c.taps.iter().copied())
        .collect();
    let needs = compute_needs(&taps, block, t);

    // Level 0: plain loads. Neighbour-block rows only ever contribute
    // their `h_0 = T·r_x` boundary lanes (as shuffle edges at step 1 and
    // as sources of the `E±` chains), so they load a lane *window* — this
    // is what keeps the fused kernel's x reach at `T·r_x` rather than a
    // whole block. The windows survive `narrow_edge_loads` untouched when
    // the row is also a shuffle source; edge-only rows may be narrowed
    // further.
    let x_reach = classes
        .iter()
        .flat_map(|c| c.taps.iter())
        .map(|&[dx, _, _]| dx.unsigned_abs())
        .max()
        .unwrap_or(0);
    let h0 = (t as u32 * x_reach) as u16;
    let w = block.bx as u16;
    debug_assert!(h0 <= w, "feasibility checked by generate()");
    let mut prev = Level::default();
    for &(ry, rz) in &ordered(&needs.home[0]) {
        prev.home.insert((ry, rz), b.row(0, ry, rz));
    }
    for &(ry, rz) in &ordered(&needs.ep[0]) {
        prev.ep.insert((ry, rz), b.row_window(1, ry, rz, 0, h0));
    }
    for &(ry, rz) in &ordered(&needs.em[0]) {
        prev.em
            .insert((ry, rz), b.row_window(-1, ry, rz, w - h0, h0));
    }

    for s in 1..=t {
        let mut cur = Level::default();
        // Shifted variants of the previous level, reused across taps and
        // consumers within this level (the analogue of Builder::shifts).
        let mut shifts: HashMap<(Kind, Row, i16), Reg> = HashMap::new();
        for &(ry, rz) in &ordered(&needs.home[s]) {
            let r = eval_row(b, classes, Kind::Home, (ry, rz), &prev, &mut shifts);
            if s == t {
                b.store(r, ry, rz);
            } else {
                cur.home.insert((ry, rz), r);
            }
        }
        for &(ry, rz) in &ordered(&needs.ep[s]) {
            let r = eval_row(b, classes, Kind::Ep, (ry, rz), &prev, &mut shifts);
            cur.ep.insert((ry, rz), r);
        }
        for &(ry, rz) in &ordered(&needs.em[s]) {
            let r = eval_row(b, classes, Kind::Em, (ry, rz), &prev, &mut shifts);
            cur.em.insert((ry, rz), r);
        }
        prev = cur;
    }
}

/// One gather-scheduled row of one family at the next level: per class,
/// sum the shifted taps in tap order, then `Mul` the first class and
/// `Fma`-chain the rest — the exact `T = 1` op sequence.
fn eval_row(
    b: &mut Builder,
    classes: &[Class],
    kind: Kind,
    (ry, rz): Row,
    prev: &Level,
    shifts: &mut HashMap<(Kind, Row, i16), Reg>,
) -> Reg {
    let mut acc: Option<Reg> = None;
    for (ci, class) in classes.iter().enumerate() {
        let mut sum: Option<Reg> = None;
        for &[dx, dy, dz] in &class.taps {
            let row = (ry + dy as i16, rz + dz as i16);
            let v = operand(b, kind, row, dx as i16, prev, shifts);
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
    acc.expect("stencil has at least one class")
}

/// The previous-level value of `row` in `kind`'s block, shifted by `dx`
/// lanes. Shuffle wrap lanes are wired so that every *consumed* lane is
/// exact:
///
/// - `Home` shifts wrap into `E⁺`/`E⁻` (the true neighbour values).
/// - `E⁺` shifts with `dx < 0` wrap back into the home row (lane
///   `i < |dx|` of the `+x` block at offset `dx` *is* home lane
///   `width + i + dx`); with `dx > 0` the wrapped lanes land outside the
///   valid window and the source register doubles as a deterministic
///   dummy edge.
/// - `E⁻` mirrors `E⁺`.
fn operand(
    b: &mut Builder,
    kind: Kind,
    row: Row,
    dx: i16,
    prev: &Level,
    shifts: &mut HashMap<(Kind, Row, i16), Reg>,
) -> Reg {
    let get = |fam: Kind| -> Reg {
        *prev.of(fam).get(&row).unwrap_or_else(|| {
            unreachable!("need-set propagation missed row {row:?}");
        })
    };
    if dx == 0 {
        return get(kind);
    }
    if let Some(&r) = shifts.get(&(kind, row, dx)) {
        return r;
    }
    let (src, edge) = match kind {
        Kind::Home => (
            get(Kind::Home),
            get(if dx > 0 { Kind::Ep } else { Kind::Em }),
        ),
        Kind::Ep => (
            get(Kind::Ep),
            get(if dx < 0 { Kind::Home } else { Kind::Ep }),
        ),
        Kind::Em => (
            get(Kind::Em),
            get(if dx > 0 { Kind::Home } else { Kind::Em }),
        ),
    };
    let r = b.shift_raw(src, edge, dx);
    shifts.insert((kind, row, dx), r);
    r
}

#[cfg(test)]
mod tests {
    use crate::generate::{generate, CodegenError, CodegenOptions};
    use crate::ir::{LayoutKind, VOp};
    use brick_dsl::shape::StencilShape;

    fn gen(shape: StencilShape, t: u32, width: usize) -> crate::ir::VectorKernel {
        let st = shape.stencil();
        let b = st.default_bindings();
        generate(
            &st,
            &b,
            LayoutKind::Brick,
            width,
            CodegenOptions {
                temporal_degree: t,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn degree_one_is_the_plain_kernel() {
        let k1 = gen(StencilShape::star(1), 1, 16);
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let plain = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        assert_eq!(k1.name, plain.name);
        assert_eq!(k1.ops, plain.ops);
        assert_eq!(k1.temporal_degree, 1);
    }

    #[test]
    fn infeasible_degree_rejected() {
        let st = StencilShape::star(3).stencil();
        let b = st.default_bindings();
        let err = generate(
            &st,
            &b,
            LayoutKind::Brick,
            32,
            CodegenOptions {
                temporal_degree: 2, // 2·3 = 6 > by = 4
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::TemporalTooDeep { .. }), "{err}");
        let err0 = generate(
            &st,
            &b,
            LayoutKind::Brick,
            32,
            CodegenOptions {
                temporal_degree: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err0,
            CodegenError::TemporalTooDeep { degree: 0, .. }
        ));
    }

    #[test]
    fn planned_vreg_count_is_exact() {
        // the planner's contract: for every feasible (shape, block, T) it
        // predicts the emitter's allocation count op for op — each
        // non-store op allocates exactly one fresh register, so the count
        // is `ops − stores` on the raw (pre-regalloc) program
        use crate::generate::{group_classes, Builder};
        for shape in [
            StencilShape::star(1),
            StencilShape::star(2),
            StencilShape::cube(1),
            StencilShape::cube(2),
        ] {
            let st = shape.stencil();
            let bind = st.default_bindings();
            let classes = group_classes(&st, &bind).unwrap();
            let taps: Vec<[i32; 3]> = classes
                .iter()
                .flat_map(|c| c.taps.iter().copied())
                .collect();
            for (by, bz) in [(4usize, 4usize), (8, 8), (8, 4), (16, 16)] {
                for t in 2..=3u32 {
                    let reach = (t * shape.radius) as usize;
                    if reach > by.min(bz) {
                        continue;
                    }
                    let block = brick_core::BrickDims::new(32, by, bz);
                    let planned = super::fused_vreg_count(&taps, block, t);
                    if planned > crate::generate::VREG_CAPACITY {
                        continue; // the emitter would (rightly) refuse
                    }
                    let mut b = Builder::new(block.bx);
                    super::schedule_temporal(&mut b, &classes, block, t);
                    let stores = b
                        .ops
                        .iter()
                        .filter(|op| matches!(op, VOp::StoreRow { .. }))
                        .count();
                    assert_eq!(
                        planned,
                        b.ops.len() - stores,
                        "{shape} block ({by},{bz}) t{t}: planner diverged from emitter"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_fused_schedules_error_cleanly() {
        // cube-2 fused twice over a 16×16 block wants far more than 2¹⁶
        // virtual registers; generate must refuse with a typed error
        // instead of panicking mid-emission
        let shape = StencilShape::cube(2);
        let st = shape.stencil();
        assert!(
            crate::generate::fused_vreg_count(&st, (16, 16), 2) > crate::generate::VREG_CAPACITY
        );
        let b = st.default_bindings();
        let err = generate(
            &st,
            &b,
            LayoutKind::Brick,
            32,
            CodegenOptions {
                temporal_degree: 2,
                block_yz: (16, 16),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::ProgramTooLarge { .. }), "{err}");
    }

    #[test]
    fn fused_loads_cover_the_t_r_halo_exactly() {
        // star-1 T=2: loaded home rows are the L1-dilation of the 4×4
        // block by radius 2 in (y,z), i.e. reach 2 on y and z.
        let k = gen(StencilShape::star(1), 2, 16);
        let mut min_ry = i16::MAX;
        let mut max_ry = i16::MIN;
        for op in &k.ops {
            if let VOp::LoadRow { ry, .. } = *op {
                min_ry = min_ry.min(ry);
                max_ry = max_ry.max(ry);
            }
        }
        assert_eq!((min_ry, max_ry), (-2, 5));
    }

    #[test]
    fn fused_flops_exceed_t_times_unfused() {
        // Halo recomputation means the fused kernel does strictly more
        // than T× the unfused block FLOPs — but stores the same rows.
        let k1 = gen(StencilShape::star(1), 1, 32);
        let k3 = gen(StencilShape::star(1), 3, 32);
        assert!(k3.stats.flops() > 3 * k1.stats.flops());
        assert_eq!(k3.stats.stores, k1.stats.stores);
    }
}
