//! Mutation harness gating the brick-safe prover.
//!
//! Two guarantees, mirroring the analyzer's `tests/mutation.rs`:
//!
//! 1. **Sensitivity**: of all single-site perturbations of compiled
//!    plans — tap offsets, neighbour indices, seam splits, store
//!    targets, tape indices, stack depths, fast chains (on a base whose
//!    chains read padded scratch rows too), widths, declared tap counts,
//!    padded reads and pad fills (on the cube bases), and (on temporal
//!    bases) scratch slots, scratch write order, scratch shifts and
//!    window fills — the
//!    prover (compile-time pass plus the per-run array geometry check)
//!    must reject at least 95%.
//! 2. **Soundness of survivors**: every accepted mutant is proven
//!    *memory*-harmless against real geometry — brick survivors run the
//!    full resolve/check/evaluate path per interior brick under
//!    `catch_unwind` with the debug oracles ([`fuse::check_taps`],
//!    [`fuse::check_tape`], the portable block evaluator) armed; array
//!    survivors have every tap base of every tile re-derived with the
//!    executor's own address math and bounds-checked (and every scratch
//!    slot checked against the buffer), across
//!    proptest-generated grid geometries. brick-safe proves memory
//!    safety, not numerics — a survivor may compute wrong values (e.g.
//!    a tap shifted one row), but it must never touch memory outside
//!    its slabs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_core::BrickGrid;
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;

use brick_lint::LintCode;

use super::super::fuse::{self, BrickTap, Fill, Tap, TapeOp, MAX_STACK};
use super::super::plan::Plan;
use super::super::{PortableOps, RowOps};
use super::prove_plan;

/// A base plan plus the representative run geometry its kill criterion
/// and harmlessness oracle use (`n` interior points per axis, halo).
struct Base {
    name: &'static str,
    layout: LayoutKind,
    plan: Plan,
    n: usize,
    halo: usize,
}

fn compile(shape: StencilShape, layout: LayoutKind, temporal_degree: u32) -> Plan {
    let st = shape.stencil();
    let b = st.default_bindings();
    let opts = CodegenOptions {
        strategy: Strategy::Gather,
        temporal_degree,
        ..CodegenOptions::default()
    };
    let k = generate(&st, &b, layout, 32, opts).unwrap();
    Plan::compile(&k).unwrap()
}

fn bases() -> Vec<Base> {
    let mk = |name, shape: StencilShape, layout, t: u32, n| Base {
        name,
        layout,
        plan: compile(shape, layout, t),
        n,
        halo: (shape.radius * t) as usize,
    };
    vec![
        mk(
            "star1-brick",
            StencilShape::star(1),
            LayoutKind::Brick,
            1,
            32,
        ),
        mk(
            "star4-brick",
            StencilShape::star(4),
            LayoutKind::Brick,
            1,
            32,
        ),
        mk(
            "cube1-brick",
            StencilShape::cube(1),
            LayoutKind::Brick,
            1,
            32,
        ),
        // rows are fast chains over grid and padded scratch rows
        mk(
            "cube2-brick",
            StencilShape::cube(2),
            LayoutKind::Brick,
            1,
            32,
        ),
        mk(
            "star1-array",
            StencilShape::star(1),
            LayoutKind::Array,
            1,
            64,
        ),
        mk(
            "star1-t2-brick",
            StencilShape::star(1),
            LayoutKind::Brick,
            2,
            32,
        ),
        mk(
            "star1-t2-array",
            StencilShape::star(1),
            LayoutKind::Array,
            2,
            64,
        ),
    ]
}

/// Kill criterion: the compile-time prover rejects the plan, or the
/// per-run geometry premise rejects it at the base's representative
/// grid. This is exactly the pair of gates a real run passes through.
fn killed(m: &Plan, b: &Base) -> bool {
    prove_plan(m).is_err() || m.check_array_geometry(b.n, b.n, b.n, b.halo).is_err()
}

/// All single-site mutants of `base`, each labelled. Every perturbation
/// targets one field the unsafe evaluators trust; mutations whose site
/// does not exist in this plan are skipped. Exactly one mutant per base
/// is benign by construction (see its label) — kept to show the
/// survivor-harmlessness oracle has teeth.
fn mutants_of(base: &Base) -> Vec<(String, Plan)> {
    let p = &base.plan;
    let mut out: Vec<(String, Plan)> = Vec::new();
    let f = &p.fused;
    let vol = p.block.volume();
    let w = p.width;
    let ntaps = f.taps.len() as u16;

    // --- brick-tap killers (brick layouts only) ---
    if let Some(i) = f
        .brick_taps
        .iter()
        .position(|bt| matches!(bt, BrickTap::Direct { .. }))
    {
        let mutate = |label: &str, g: &dyn Fn(&mut usize, &mut usize), out: &mut Vec<_>| {
            let mut m = p.clone();
            let bts = &mut m.fused.brick_taps;
            if let BrickTap::Direct { nidx, off } = &mut bts[i] {
                g(nidx, off);
            }
            out.push((label.to_string(), m));
        };
        mutate("bt-direct-off-vol", &|_, off| *off = vol, &mut out);
        mutate(
            "bt-direct-off-overhang",
            &|_, off| *off = vol - w + 1,
            &mut out,
        );
        mutate("bt-direct-nidx-27", &|nidx, _| *nidx = 27, &mut out);
        mutate("bt-direct-nidx-100", &|nidx, _| *nidx = 100, &mut out);
    }
    if let Some(i) = f
        .brick_taps
        .iter()
        .position(|bt| matches!(bt, BrickTap::Split { .. }))
    {
        let mutate = |label: &str,
                      g: &dyn Fn(&mut usize, &mut usize, &mut usize, &mut isize),
                      out: &mut Vec<_>| {
            let mut m = p.clone();
            let bts = &mut m.fused.brick_taps;
            if let BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx,
            } = &mut bts[i]
            {
                g(hnidx, nnidx, off, dx);
            }
            out.push((label.to_string(), m));
        };
        mutate("bt-split-dx-0", &|_, _, _, dx| *dx = 0, &mut out);
        mutate("bt-split-dx-w", &|_, _, _, dx| *dx = w as isize, &mut out);
        mutate(
            "bt-split-dx-negw",
            &|_, _, _, dx| *dx = -(w as isize),
            &mut out,
        );
        mutate("bt-split-off-vol", &|_, _, off, _| *off = vol, &mut out);
        mutate("bt-split-hnidx-27", &|h, _, _, _| *h = 27, &mut out);
    }

    // --- row killers ---
    {
        let mut m = p.clone();
        m.fused.rows[0].out_off = vol;
        out.push(("row-out-off-vol".to_string(), m));
    }
    {
        let mut m = p.clone();
        m.fused.rows[0].out_off += 1;
        out.push(("row-out-off-misaligned".to_string(), m));
    }
    if f.rows.len() >= 2 {
        let mut m = p.clone();
        let dup = m.fused.rows[1].out_off;
        m.fused.rows[0].out_off = dup;
        out.push(("row-out-off-duplicate".to_string(), m));
    }
    {
        let mut m = p.clone();
        m.fused.rows[0].ry = p.block.by as u16;
        out.push(("row-ry-escapes-block".to_string(), m));
    }

    // --- tape killers ---
    if let Some(j) = f.rows[0].tape.iter().position(|op| op.tap().is_some()) {
        for (label, tap) in [("tape-tap-ntaps", ntaps), ("tape-tap-max", u16::MAX)] {
            let mut m = p.clone();
            let t = &mut m.fused.rows[0].tape[j];
            *t = t.map_tap(|_| tap);
            out.push((label.to_string(), m));
        }
    }
    {
        let mut m = p.clone();
        m.fused.rows[0].tape.insert(0, TapeOp::PopAdd);
        out.push(("tape-underflow".to_string(), m));
    }
    {
        let mut m = p.clone();
        let rp = &mut m.fused.rows[0];
        rp.tape
            .extend(std::iter::repeat_n(TapeOp::Push, MAX_STACK + 1));
        rp.max_sp = MAX_STACK + 1;
        out.push(("tape-overflow".to_string(), m));
    }
    {
        let mut m = p.clone();
        m.fused.rows[0].max_sp += 1;
        out.push(("tape-max-sp-overdeclared".to_string(), m));
    }
    // Target a depth-0 row: appending a Push there raises the true max
    // depth above the declared one. (On a row already using the stack,
    // a trailing balanced Push would not change the max — not a
    // corruption the evaluators could trip over.)
    if let Some(r0) = f.rows.iter().position(|rp| rp.max_sp == 0) {
        let mut m = p.clone();
        m.fused.rows[r0].tape.push(TapeOp::Push);
        out.push(("tape-push-undeclared".to_string(), m));
    }

    // --- fast-chain killers ---
    if f.rows[0].fast.is_some() {
        let mut m = p.clone();
        m.fused.rows[0].fast.as_mut().unwrap().first = ntaps;
        out.push(("fast-first-invalid".to_string(), m));
        let mut m = p.clone();
        let fr = m.fused.rows[0].fast.as_mut().unwrap();
        if !fr.fmas.is_empty() {
            fr.fmas[0].1 += 1.0;
            out.push(("fast-coeff-divergent".to_string(), m));
            // a valid tap id the tape does not read at that position
            let mut m = p.clone();
            let fr = m.fused.rows[0].fast.as_mut().unwrap();
            fr.fmas[0].0 = (fr.fmas[0].0 + 1) % ntaps;
            out.push(("fast-tap-divergent".to_string(), m));
        }
    }

    // --- declared tap-count killers: the grid/scratch split the
    // executors resolve by ---
    for (label, delta) in [("tap-count-short", -1isize), ("tap-count-long", 1)] {
        let mut m = p.clone();
        let g = &mut m.fused.grid_taps;
        *g = g.saturating_add_signed(delta);
        out.push((label.to_string(), m));
    }

    // --- scratch killers (temporal bases: the plan materializes rows) ---
    if !f.scratch.is_empty() {
        let rows = f.scratch_rows as u16;
        let mut m = p.clone();
        m.fused.scratch[0].slot = rows;
        out.push(("scr-slot-past-buffer".to_string(), m));
        let reads_scratch = |fill: &Fill| match fill {
            Fill::Tape { tape, .. } => tape
                .iter()
                .filter_map(TapeOp::tap)
                .any(|t| !f.taps[t as usize].is_grid()),
            Fill::Copy { .. } | Fill::Pad { .. } => false,
        };
        if let Some(k) = f.scratch.iter().position(|sp| reads_scratch(&sp.fill)) {
            // hoist a program that reads scratch rows ahead of every write
            let mut m = p.clone();
            let sc = &mut m.fused.scratch;
            let sp = sc.remove(k);
            sc.insert(0, sp);
            out.push(("scr-read-before-write".to_string(), m));
        }
        if let Some(i) = f.taps.iter().position(|t| matches!(t, Tap::Scratch { .. })) {
            let mut m = p.clone();
            if let Tap::Scratch { slot } = &mut m.fused.taps[i] {
                *slot = rows;
            }
            out.push(("scr-tap-slot-past-buffer".to_string(), m));
        }
        if let Some(i) = f
            .taps
            .iter()
            .position(|t| matches!(t, Tap::ScratchShifted { .. }))
        {
            for (label, bad) in [("scr-shift-reach-w", w as i16), ("scr-shift-zero", 0)] {
                let mut m = p.clone();
                if let Tap::ScratchShifted { dx, .. } = &mut m.fused.taps[i] {
                    *dx = bad;
                }
                out.push((label.to_string(), m));
            }
            let mut m = p.clone();
            if let Tap::ScratchShifted { edge, .. } = &mut m.fused.taps[i] {
                *edge = rows;
            }
            out.push(("scr-shift-edge-past-buffer".to_string(), m));
        }
        if let Some(i) = f.taps.iter().position(|t| matches!(t, Tap::Window { .. })) {
            let mut m = p.clone();
            if let Tap::Window { lane0, lanes, .. } = &mut m.fused.taps[i] {
                *lanes = w as u16 + 1 - *lane0;
            }
            out.push(("scr-window-overhang".to_string(), m));
            // a window is a fill source; reading it as a tape operand
            // would load a full row from a partial one
            if let Some((r, j)) = f.rows.iter().enumerate().find_map(|(r, rp)| {
                rp.tape
                    .iter()
                    .position(|op| op.tap().is_some())
                    .map(|j| (r, j))
            }) {
                let mut m = p.clone();
                let t = &mut m.fused.rows[r].tape[j];
                *t = t.map_tap(|_| i as u16);
                out.push(("scr-window-as-operand".to_string(), m));
            }
        }
        if let Some(i) = f
            .brick_taps
            .iter()
            .position(|bt| matches!(bt, BrickTap::Window { .. }))
        {
            let mut m = p.clone();
            if let BrickTap::Window { off, .. } = &mut m.fused.brick_taps[i] {
                *off = vol;
            }
            out.push(("bt-window-off-vol".to_string(), m));
        }
    }

    out.extend(padded_mutants(p).into_iter().map(|(l, _, m)| (l, m)));

    // --- width killers ---
    for (label, bad_w) in [("width-18", 18usize), ("width-doubled", 2 * w)] {
        let mut m = p.clone();
        m.width = bad_w;
        out.push((label.to_string(), m));
    }

    // --- geometry killers (array layouts: survive the compile-time
    // pass by design, die at the per-run premise) ---
    if base.layout == LayoutKind::Array {
        if let Some(i) = f.taps.iter().position(|t| matches!(t, Tap::Direct { .. })) {
            let mut m = p.clone();
            if let Tap::Direct { rx, .. } = &mut m.fused.taps[i] {
                *rx = 100;
            }
            out.push(("geom-direct-rx-100".to_string(), m));
            let mut m = p.clone();
            if let Tap::Direct { ry, .. } = &mut m.fused.taps[i] {
                *ry = 30000;
            }
            out.push(("geom-direct-ry-30000".to_string(), m));
        }
    }

    // --- exactly one benign mutant per base ---
    match base.layout {
        LayoutKind::Brick => {
            // Nudge one in-bounds tap row by a single element: still
            // aligned-enough (no alignment obligation on input taps),
            // still inside the brick, so provably memory-safe — the
            // numerics are wrong, the addresses are not.
            let i = f
                .brick_taps
                .iter()
                .position(|bt| matches!(bt, BrickTap::Direct { off, .. } if off + 1 + w <= vol))
                .expect("brick bases have a nudgeable tap");
            let mut m = p.clone();
            if let BrickTap::Direct { off, .. } = &mut m.fused.brick_taps[i] {
                *off += 1;
            }
            out.push(("benign-tap-nudge".to_string(), m));
        }
        LayoutKind::Array => {
            // Flip one seam shift's sign: star stencils carry both
            // signs, so the flipped tap stays within the halo.
            let i = f
                .taps
                .iter()
                .position(|t| matches!(t, Tap::Shifted { .. }))
                .expect("array star base has shifted taps");
            let mut m = p.clone();
            if let Tap::Shifted { dx, .. } = &mut m.fused.taps[i] {
                *dx = -*dx;
            }
            out.push(("benign-seam-flip".to_string(), m));
        }
    }

    out
}

/// Single-site mutants of `p`'s padded rows, each with the code brick-safe
/// must reject it with: a read past its fill's apron, padded slots past
/// the buffer, pad windows at the wrong lanes or of the wrong width, an
/// apron wider than the slot's, rows packed without aprons, and a window
/// as the home row. Empty for plans without padded rows.
fn padded_mutants(p: &Plan) -> Vec<(String, LintCode, Plan)> {
    let f = &p.fused;
    let mut out = Vec::new();
    let Some((k, minus, apron)) = f
        .scratch
        .iter()
        .enumerate()
        .find_map(|(k, sp)| match sp.fill {
            Fill::Pad { minus, apron, .. } => Some((k, minus, apron)),
            _ => None,
        })
    else {
        return out;
    };
    let slot = f.scratch[k].slot;
    let read = f.taps.iter().position(
        |t| matches!(*t, Tap::Padded { slot: s, dx } if s == slot && dx.unsigned_abs() == apron),
    );
    if let Some(i) = read {
        // still inside the slot's apron, past the lanes the fill wrote
        let mut m = p.clone();
        if let Tap::Padded { dx, .. } = &mut m.fused.taps[i] {
            *dx = dx.signum() * (apron as i16 + 1);
        }
        out.push(("pad-read-past-apron".into(), LintCode::UnsafePadFill, m));
        let mut m = p.clone();
        if let Tap::Padded { slot, .. } = &mut m.fused.taps[i] {
            *slot = f.scratch_rows as u16;
        }
        out.push((
            "pad-tap-slot-past-buffer".into(),
            LintCode::UnsafeScratchSlot,
            m,
        ));
    }
    let mut m = p.clone();
    m.fused.scratch[k].slot = f.scratch_rows as u16;
    out.push((
        "pad-fill-slot-past-buffer".into(),
        LintCode::UnsafeScratchSlot,
        m,
    ));
    for (label, lane0_delta, lanes_delta) in [
        ("pad-window-lane0", -1i32, 0i32),
        ("pad-window-lanes", 0, 1),
    ] {
        let mut m = p.clone();
        if let Tap::Window { lane0, lanes, .. } = &mut m.fused.taps[minus as usize] {
            *lane0 = (*lane0 as i32 + lane0_delta) as u16;
            *lanes = (*lanes as i32 + lanes_delta) as u16;
        }
        out.push((label.into(), LintCode::UnsafePadFill, m));
    }
    let mut m = p.clone();
    if let Fill::Pad { apron, .. } = &mut m.fused.scratch[k].fill {
        *apron = f.pad as u16 + 1;
    }
    out.push(("pad-apron-past-slot".into(), LintCode::UnsafePadFill, m));
    // rows packed at stride w: no apron left for any shifted read
    let mut m = p.clone();
    m.fused.pad = 0;
    out.push(("pad-stride-dropped".into(), LintCode::UnsafeScratchReach, m));
    let mut m = p.clone();
    if let Fill::Pad { home: h, .. } = &mut m.fused.scratch[k].fill {
        *h = minus;
    }
    out.push(("pad-home-is-window".into(), LintCode::UnsafePadFill, m));
    out
}

/// Memory-harmlessness oracle for brick survivors: per interior brick of
/// a real grid, resolve the mutant's taps and run the debug-build
/// checks plus the portable block evaluator. Any address outside the
/// slab or the scratch buffer panics inside `catch_unwind`.
fn brick_survivor_is_harmless(b: &Base, m: &Plan, n: usize) -> bool {
    let f = &m.fused;
    let mut dense = DenseGrid::new(n.max(m.width), n, n, b.halo);
    dense.fill_test_pattern();
    let grid = BrickGrid::from_dense(&dense, m.block);
    let raw = grid.raw();
    let vol = m.block.volume();
    let info = grid.info();
    let decomp = grid.decomp();
    let w = m.width;
    let ok = catch_unwind(AssertUnwindSafe(|| {
        let mut rtaps = f.rtap_table(w);
        let mut scr = f.scratch_buffer(w);
        let mut out = vec![0.0f64; vol];
        for id in 0..decomp.num_bricks() as u32 {
            if !decomp.is_interior(id) {
                continue;
            }
            f.resolve_brick(info.row(id), vol, &mut rtaps[..f.grid_taps]);
            fuse::check_taps(&rtaps, raw.len(), scr.len(), w);
            for sp in &f.scratch {
                if let Fill::Tape { tape, .. } = &sp.fill {
                    fuse::check_tape(tape, &rtaps, raw.len(), scr.len(), w);
                }
            }
            for rp in f.rows() {
                fuse::check_tape(&rp.tape, &rtaps, raw.len(), scr.len(), w);
                assert!(rp.out_off + w <= vol, "store escapes the output brick");
            }
            PortableOps.eval_block(f, &rtaps, raw, &mut scr, w, &mut out, |rp| rp.out_off);
        }
    }));
    ok.is_ok()
}

/// Memory-harmlessness oracle for array survivors: re-derive every grid
/// tap base of every tile with the executor's own address math
/// (`crate::exec::run_array_plan`) and bounds-check it against the
/// padded slab; every scratch row read or written must lie inside the
/// worker's buffer.
fn array_survivor_is_harmless(m: &Plan, nx: usize, ny: usize, nz: usize, halo: usize) -> bool {
    let f = &m.fused;
    let in_buffer = |s: u16| (s as usize) < f.scratch_rows;
    let scratch_ok = f.scratch.iter().all(|sp| in_buffer(sp.slot))
        && f.taps.iter().all(|t| {
            t.scratch_slots().all(in_buffer)
                && !matches!(*t, Tap::ScratchShifted { dx, .. }
                    if dx == 0 || dx.unsigned_abs() as usize >= m.width)
                && !matches!(*t, Tap::Padded { dx, .. } if dx.unsigned_abs() as usize > f.pad)
        });
    if !scratch_ok {
        return false;
    }
    let b = m.block;
    let w = m.width as i64;
    let h = halo as i64;
    let sx = (nx + 2 * halo) as i64;
    let sy = (ny + 2 * halo) as i64;
    let sz = (nz + 2 * halo) as i64;
    let plane = sx * sy;
    let slab_len = plane * sz;
    for tz in 0..nz / b.bz {
        for ty in 0..ny / b.by {
            for tx in 0..nx / b.bx {
                let (ox, oy, oz) = ((tx * b.bx) as i64, (ty * b.by) as i64, (tz * b.bz) as i64);
                let origin = ((oz + h) * sy + (oy + h)) * sx + (ox + h);
                for t in f.taps() {
                    let (delta, len) = match *t {
                        Tap::Direct { rx, ry, rz } => {
                            (rz as i64 * plane + ry as i64 * sx + rx as i64 * w, w)
                        }
                        Tap::Shifted { ry, rz, dx } => {
                            (rz as i64 * plane + ry as i64 * sx + dx as i64, w)
                        }
                        Tap::Window {
                            rx,
                            ry,
                            rz,
                            lane0,
                            lanes,
                        } => (
                            rz as i64 * plane + ry as i64 * sx + rx as i64 * w + lane0 as i64,
                            lanes as i64,
                        ),
                        Tap::Scratch { .. } | Tap::ScratchShifted { .. } | Tap::Padded { .. } => {
                            continue
                        }
                    };
                    let base = origin + delta;
                    if base < 0 || base + len > slab_len {
                        return false;
                    }
                }
            }
        }
    }
    true
}

fn survivor_is_harmless(b: &Base, m: &Plan, n: usize) -> bool {
    match b.layout {
        LayoutKind::Brick => brick_survivor_is_harmless(b, m, n),
        LayoutKind::Array => array_survivor_is_harmless(m, n, n, n, b.halo),
    }
}

#[test]
fn single_site_mutants_are_killed_at_95_percent() {
    let mut total = 0usize;
    let mut kills = 0usize;
    let mut survivors: Vec<(String, String)> = Vec::new();
    for b in bases() {
        for (label, m) in mutants_of(&b) {
            total += 1;
            if killed(&m, &b) {
                kills += 1;
            } else {
                assert!(
                    survivor_is_harmless(&b, &m, b.n),
                    "{}/{label}: surviving mutant touches memory out of bounds",
                    b.name
                );
                survivors.push((b.name.to_string(), label));
            }
        }
    }
    let rate = kills as f64 / total as f64;
    println!("kill rate {rate:.3} ({kills}/{total})");
    assert!(
        rate >= 0.95,
        "kill rate {rate:.3} ({kills}/{total}) below 0.95; survivors: {survivors:?}"
    );
    // The benign mutants exist precisely to exercise the harmlessness
    // oracle; they must be among the survivors.
    assert!(
        survivors.iter().any(|(_, l)| l.starts_with("benign")),
        "benign control mutants were unexpectedly killed"
    );
}

#[test]
fn padded_row_mutants_are_rejected_with_their_codes() {
    for shape in [StencilShape::cube(1), StencilShape::cube(2)] {
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            let p = compile(shape, layout, 1);
            let mutants = padded_mutants(&p);
            assert_eq!(mutants.len(), 8, "{shape} {layout}");
            for (label, code, m) in mutants {
                let report = prove_plan(&m).expect_err(&label);
                assert!(
                    !report.with_code(code).is_empty(),
                    "{shape} {layout} {label}: no {} in {report:?}",
                    code.code()
                );
            }
        }
    }
}

#[test]
fn stack_discipline_diagnostics_anchor_at_their_tape() {
    // BS005 judges a whole tape, so it names the output row or scratch
    // program that owns it, the way BS004/BS013 name their tape op.
    let base = compile(StencilShape::star(1), LayoutKind::Brick, 2);
    let f = &base.fused;
    let k = f
        .scratch
        .iter()
        .position(|sp| matches!(sp.fill, Fill::Tape { .. }))
        .expect("a temporal plan computes scratch rows");
    let last = f.rows.len() - 1;
    let bs005 = |m: &Plan| {
        let report = prove_plan(m).expect_err("stack depth mismatch is rejected");
        let found = report.with_code(brick_lint::LintCode::UnsafeStackDiscipline);
        assert_eq!(found.len(), 1, "{found:?}");
        found[0].op
    };
    let mut m = base.clone();
    m.fused.rows[last].max_sp += 1;
    assert_eq!(bs005(&m), Some(last));
    let mut m = base.clone();
    if let Fill::Tape { max_sp, .. } = &mut m.fused.scratch[k].fill {
        *max_sp += 1;
    }
    assert_eq!(bs005(&m), Some(k));
}

mod survivor_geometry {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Survivors stay memory-harmless across *randomized* grid
        /// geometries, not just the representative one: acceptance by
        /// brick-safe is a memory-safety proof for every geometry that
        /// passes the per-run premise checks.
        #[test]
        fn survivors_are_harmless_on_random_geometry(ty in 1usize..5, tz in 1usize..5) {
            for b in bases() {
                // Axes stay multiples of the block extents (32×4×4) so
                // every tile is visited; x stays one brick wide.
                let (nx, ny, nz) = (32, 4 * ty, 4 * tz);
                for (label, m) in mutants_of(&b) {
                    if prove_plan(&m).is_err() {
                        continue;
                    }
                    let ok = match b.layout {
                        LayoutKind::Brick => {
                            brick_survivor_is_harmless(&b, &m, ny.max(nz))
                        }
                        // Gate exactly as the executor does: only
                        // geometries the per-run premise admits must be
                        // memory-harmless.
                        LayoutKind::Array => {
                            m.check_array_geometry(nx, ny, nz, b.halo).is_err()
                                || array_survivor_is_harmless(&m, nx, ny, nz, b.halo)
                        }
                    };
                    prop_assert!(
                        ok,
                        "{}/{label}: survivor unsafe at {nx}x{ny}x{nz}",
                        b.name
                    );
                }
            }
        }
    }
}
