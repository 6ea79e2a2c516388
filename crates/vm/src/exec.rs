//! Execution of generated vector kernels.
//!
//! Two modes, matching how the paper's measurements were taken:
//!
//! * **numeric** ([`run_vector_brick`], [`run_vector_array`]): interpret
//!   the IR over real field data, in parallel over blocks, to validate
//!   that generated code computes the stencil correctly;
//! * **trace** ([`trace_vector_block`]): replay only the address stream of
//!   one block into a [`TraceSink`] — no field data, no floating point —
//!   which is what the GPU simulator consumes at full problem scale.

use brick_codegen::{LayoutKind, VOp, VectorKernel};
use brick_core::{ArrayGrid, BrickGrid, BrickNav};
use rayon::prelude::*;

use crate::geom::TraceGeometry;
use crate::native::fuse::{RTap, Tap};
use crate::native::{self, Backend, ExecutionMode, NativeOps, Plan, RowOps};
use crate::trace::TraceSink;

/// Errors surfaced by the VM.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The kernel failed static analysis; the report carries the full
    /// structured diagnostics (op-index spans, `BLxxx` codes).
    InvalidKernel(Box<brick_lint::Report>),
    /// Kernel and grid disagree (layout, block shape, extents, halo).
    Mismatch(String),
    /// The request has no compiled form here: a [`Backend`] the running
    /// host cannot execute (e.g. `Avx2` without AVX2+FMA), or a kernel the
    /// fuser refuses, with the limit it crosses. `Backend::Interpreter`
    /// never produces this.
    Unsupported(String),
    /// The compiled plan failed the brick-safe memory-safety proof; the
    /// report carries the undischarged `BSxxx` obligations. Such a plan
    /// is never dispatched to a native backend.
    UnsafePlan(Box<brick_lint::Report>),
}

impl VmError {
    /// The analyzer report, when the error is a rejected kernel or an
    /// unprovable plan.
    pub fn report(&self) -> Option<&brick_lint::Report> {
        match self {
            VmError::InvalidKernel(r) | VmError::UnsafePlan(r) => Some(r),
            VmError::Mismatch(_) | VmError::Unsupported(_) => None,
        }
    }
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            VmError::Mismatch(e) => write!(f, "kernel/grid mismatch: {e}"),
            VmError::Unsupported(e) => write!(f, "unsupported: {e}"),
            VmError::UnsafePlan(e) => write!(f, "unsafe plan rejected: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Worker threads the executors fan blocks out over when called from this
/// thread (all available parallelism unless a thread pool is installed).
pub fn executor_threads() -> usize {
    rayon::current_num_threads()
}

/// Straight-line IR interpreter over one block.
///
/// `read_row(rx, ry, rz, dst)` must fill `dst` with the input row;
/// `write_row(ry, rz, src)` must store an output row.
fn exec_block(
    kernel: &VectorKernel,
    regs: &mut [f64],
    scratch: &mut [f64],
    mut read_row: impl FnMut(i8, i16, i16, usize, &mut [f64]),
    mut write_row: impl FnMut(i16, i16, &[f64]),
) {
    let w = kernel.width;
    debug_assert_eq!(regs.len(), kernel.num_regs * w);
    debug_assert_eq!(scratch.len(), w);
    let row = |r: u16| -> std::ops::Range<usize> {
        let s = r as usize * w;
        s..s + w
    };
    for op in &kernel.ops {
        match *op {
            VOp::LoadRow {
                dst,
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => {
                let r = row(dst);
                regs[r.clone()].fill(0.0);
                let s = r.start;
                read_row(
                    rx,
                    ry,
                    rz,
                    lane0 as usize,
                    &mut regs[s + lane0 as usize..s + lane0 as usize + lanes as usize],
                );
            }
            VOp::ShiftX { dst, src, edge, dx } => {
                // Compute into scratch first: dst may alias src or edge.
                {
                    let srcr = &regs[row(src)];
                    let edger = &regs[row(edge)];
                    for (i, s) in scratch.iter_mut().enumerate() {
                        let j = i as i64 + dx as i64;
                        *s = if j >= 0 && (j as usize) < w {
                            srcr[j as usize]
                        } else if j < 0 {
                            edger[(j + w as i64) as usize]
                        } else {
                            edger[(j - w as i64) as usize]
                        };
                    }
                }
                regs[row(dst)].copy_from_slice(scratch);
            }
            VOp::Add { dst, a, b } => {
                for i in 0..w {
                    scratch[i] = regs[a as usize * w + i] + regs[b as usize * w + i];
                }
                regs[row(dst)].copy_from_slice(scratch);
            }
            VOp::Mul { dst, a, coeff } => {
                let c = kernel.coeffs[coeff as usize];
                for i in 0..w {
                    scratch[i] = regs[a as usize * w + i] * c;
                }
                regs[row(dst)].copy_from_slice(scratch);
            }
            VOp::Fma { dst, acc, a, coeff } => {
                let c = kernel.coeffs[coeff as usize];
                for i in 0..w {
                    scratch[i] = regs[a as usize * w + i].mul_add(c, regs[acc as usize * w + i]);
                }
                regs[row(dst)].copy_from_slice(scratch);
            }
            VOp::StoreRow { src, ry, rz } => {
                write_row(ry, rz, &regs[row(src)]);
            }
        }
    }
}

fn check_brick(
    kernel: &VectorKernel,
    input: &BrickGrid,
    output: &BrickGrid,
) -> Result<(), VmError> {
    let footprint = brick_lint::verify(kernel).map_err(VmError::InvalidKernel)?;
    if kernel.layout != LayoutKind::Brick {
        return Err(VmError::Mismatch("array kernel on brick grids".into()));
    }
    if kernel.block != input.dims() {
        return Err(VmError::Mismatch(format!(
            "kernel block {} != brick dims {}",
            kernel.block,
            input.dims()
        )));
    }
    if input.decomp().extents() != output.decomp().extents()
        || input.decomp().ordering() != output.decomp().ordering()
    {
        return Err(VmError::Mismatch(
            "input/output decomposition mismatch".into(),
        ));
    }
    let reach = footprint.reach;
    let ghost = input.decomp().ghost_layers();
    let d = input.dims();
    for (axis, (&r, cover)) in reach
        .iter()
        .zip([ghost[0] * d.bx, ghost[1] * d.by, ghost[2] * d.bz])
        .enumerate()
    {
        if r > cover as i64 {
            return Err(VmError::Mismatch(format!(
                "kernel reach {r} on axis {axis} exceeds ghost coverage {cover}"
            )));
        }
    }
    Ok(())
}

/// Execute a brick-layout vector kernel out-of-place over all interior
/// bricks, in parallel (one Rayon task per brick; output bricks are
/// disjoint storage chunks, so no synchronisation is needed).
///
/// Runs on the host's `Auto` backend; every backend computes
/// bit-identical results, see [`crate::native`].
pub fn run_vector_brick(
    kernel: &VectorKernel,
    input: &BrickGrid,
    output: &mut BrickGrid,
) -> Result<(), VmError> {
    let backend = native::resolve(ExecutionMode::Auto)?;
    run_vector_brick_backend(kernel, input, output, backend)
}

/// [`run_vector_brick`] under an explicit [`Backend`] — the
/// differential-test and benchmark entry (e.g. the interpreter oracle, or
/// the portable compiled backend on a host whose `Auto` is a SIMD one).
/// Errors (never panics) when this host cannot execute `backend`.
pub fn run_vector_brick_backend(
    kernel: &VectorKernel,
    input: &BrickGrid,
    output: &mut BrickGrid,
    backend: Backend,
) -> Result<(), VmError> {
    check_brick(kernel, input, output)?;
    match backend {
        Backend::Interpreter => {
            run_brick_interp(kernel, input, output);
            Ok(())
        }
        backend => {
            let plan = Plan::compile(kernel)?;
            match native::ops_for(backend)? {
                NativeOps::Portable(ops) => run_brick_plan(&plan, &ops, input, output),
                #[cfg(target_arch = "x86_64")]
                NativeOps::Avx2(ops) => run_brick_plan(&plan, &ops, input, output),
            }
            Ok(())
        }
    }
}

/// The interpreter path of [`run_vector_brick_backend`] — retained verbatim
/// as the differential oracle for the compiled backends.
fn run_brick_interp(kernel: &VectorKernel, input: &BrickGrid, output: &mut BrickGrid) {
    let nav = input.nav().clone();
    let dims = input.dims();
    let vol = dims.volume();
    let w = kernel.width;
    let in_raw = input.raw();
    let decomp = std::sync::Arc::clone(input.decomp());
    output
        .raw_mut()
        .par_chunks_mut(vol)
        .enumerate()
        .for_each(|(id, out_chunk)| {
            let home = id as u32;
            if !decomp.is_interior(home) {
                return;
            }
            let mut regs = vec![0.0; kernel.num_regs * w];
            let mut scratch = vec![0.0; w];
            exec_block(
                kernel,
                &mut regs,
                &mut scratch,
                |rx, ry, rz, lane0, dst| {
                    let (b, off) =
                        nav.resolve_rel(home, rx as i64 * w as i64, ry as i64, rz as i64);
                    let s = b as usize * vol + off + lane0;
                    dst.copy_from_slice(&in_raw[s..s + dst.len()]);
                },
                |ry, rz, src| {
                    let off = dims.row_offset(ry as usize, rz as usize);
                    out_chunk[off..off + w].copy_from_slice(src);
                },
            );
        });
}

/// Compiled path of [`run_vector_brick_backend`]: per interior block,
/// resolve every grid tap once through the 27-neighbour table (indices
/// precomputed at plan-compile time — no `div_euclid` chains here), then
/// evaluate the block's scratch rows and each output row's tape straight
/// from the input slab; see [`crate::native::fuse`] for why this is
/// bit-identical to the interpreter. Each worker owns one resolved-tap
/// table and one scratch buffer, both sized from the kernel.
fn run_brick_plan<B: RowOps>(plan: &Plan, ops: &B, input: &BrickGrid, output: &mut BrickGrid) {
    let fused = &plan.fused;
    let info = std::sync::Arc::clone(input.info());
    let dims = input.dims();
    let vol = dims.volume();
    let w = plan.width();
    let in_raw = input.raw();
    let decomp = std::sync::Arc::clone(input.decomp());
    let grid_taps = fused.grid_taps;
    // Per-run premise of the compile-time tap-bounds proof (BS001/BS002):
    // the slab is whole bricks (asserted here, O(1)), and every adjacency
    // entry of an interior brick names an allocated one (asserted per
    // brick inside the parallel loop, before any of its taps resolves).
    // Combined with the proved per-tap fact `off + w ≤ vol`, every
    // resolved base `id·vol + off` then satisfies `base + w ≤
    // in_raw.len()` — which is why the hot loop below does not re-check
    // the resolved taps per block.
    let nb = in_raw.len() / vol;
    assert_eq!(in_raw.len(), nb * vol, "input slab is not whole bricks");
    output
        .raw_mut()
        .par_chunks_mut(vol)
        .enumerate()
        .for_each_init(
            || (fused.rtap_table(w), fused.scratch_buffer(w)),
            |(rtaps, scr), (id, out_chunk)| {
                let home = id as u32;
                if !decomp.is_interior(home) {
                    return;
                }
                let row = info.row(home);
                for &n in row {
                    assert!(
                        n != brick_core::NO_BRICK && (n as usize) < nb,
                        "adjacency entry {n} of interior brick {home} outside the {nb}-brick slab"
                    );
                }
                fused.resolve_brick(row, vol, &mut rtaps[..grid_taps]);
                ops.eval_block(fused, rtaps, in_raw, scr, w, out_chunk, |rp| rp.out_off);
            },
        );
}

/// Shared validation for the array executors: layout, extents,
/// divisibility, and the kernel's load reach against the halo. The reach
/// check is what keeps the compiled path's tap rows inside the padded
/// slab: a verified kernel's loads stay within `[-halo, n + halo)` on
/// every axis.
fn check_array(
    kernel: &VectorKernel,
    input: &ArrayGrid,
    output: &ArrayGrid,
) -> Result<(), VmError> {
    let footprint = brick_lint::verify(kernel).map_err(VmError::InvalidKernel)?;
    if kernel.layout != LayoutKind::Array {
        return Err(VmError::Mismatch("brick kernel on array grids".into()));
    }
    let (nx, ny, nz) = input.extents();
    if output.extents() != (nx, ny, nz) {
        return Err(VmError::Mismatch("input/output extent mismatch".into()));
    }
    let block = kernel.block;
    if nx % block.bx != 0 || ny % block.by != 0 || nz % block.bz != 0 {
        return Err(VmError::Mismatch(format!(
            "extents {nx}x{ny}x{nz} not divisible by tile {block}"
        )));
    }
    let halo = input.dense().halo();
    let reach = footprint.reach;
    if reach[1] > halo as i64 || reach[2] > halo as i64 || reach[0] > halo as i64 {
        return Err(VmError::Mismatch(format!(
            "kernel reach {reach:?} exceeds array halo {halo}"
        )));
    }
    if output.dense().halo() != halo {
        return Err(VmError::Mismatch(format!(
            "output halo {} != input halo {halo}",
            output.dense().halo()
        )));
    }
    Ok(())
}

/// Execute an array-layout vector kernel out-of-place over all tiles, in
/// parallel over z-slabs of tiles (whose output rows are disjoint,
/// contiguous storage ranges).
///
/// Runs on the host's `Auto` backend; every backend computes
/// bit-identical results, see [`crate::native`].
pub fn run_vector_array(
    kernel: &VectorKernel,
    input: &ArrayGrid,
    output: &mut ArrayGrid,
) -> Result<(), VmError> {
    let backend = native::resolve(ExecutionMode::Auto)?;
    run_vector_array_backend(kernel, input, output, backend)
}

/// [`run_vector_array`] under an explicit [`Backend`]; see
/// [`run_vector_brick_backend`].
pub fn run_vector_array_backend(
    kernel: &VectorKernel,
    input: &ArrayGrid,
    output: &mut ArrayGrid,
    backend: Backend,
) -> Result<(), VmError> {
    check_array(kernel, input, output)?;
    match backend {
        Backend::Interpreter => {
            run_array_interp(kernel, input, output);
            Ok(())
        }
        backend => {
            let plan = Plan::compile(kernel)?;
            match native::ops_for(backend)? {
                NativeOps::Portable(ops) => run_array_plan(&plan, &ops, input, output),
                #[cfg(target_arch = "x86_64")]
                NativeOps::Avx2(ops) => run_array_plan(&plan, &ops, input, output),
            }
            Ok(())
        }
    }
}

/// The interpreter path of [`run_vector_array_backend`] — retained verbatim
/// as the differential oracle for the compiled backends.
fn run_array_interp(kernel: &VectorKernel, input: &ArrayGrid, output: &mut ArrayGrid) {
    let (nx, ny, nz) = input.extents();
    let block = kernel.block;
    let halo = input.dense().halo();
    let w = kernel.width;
    let dense_in = input.dense();
    let (hx, hy) = (halo as i64, halo as i64);
    let sx = nx + 2 * halo;
    let sy = ny + 2 * halo;
    let plane = sx * sy;
    let tiles_x = nx / block.bx;
    let tiles_y = ny / block.by;

    // Interior z planes as disjoint slabs of `bz` planes each.
    let raw_out = output.dense_mut().raw_mut();
    let body = &mut raw_out[halo * plane..(halo + nz) * plane];
    body.par_chunks_mut(block.bz * plane)
        .enumerate()
        .for_each(|(tz, slab)| {
            let oz = (tz * block.bz) as i64;
            let mut regs = vec![0.0; kernel.num_regs * w];
            let mut scratch = vec![0.0; w];
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let ox = (tx * block.bx) as i64;
                    let oy = (ty * block.by) as i64;
                    exec_block(
                        kernel,
                        &mut regs,
                        &mut scratch,
                        |rx, ry, rz, lane0, dst| {
                            let y = oy + ry as i64;
                            let z = oz + rz as i64;
                            let x0 = ox + rx as i64 * w as i64 + lane0 as i64;
                            // Narrowed edge loads stay within the halo as
                            // long as the kernel's reach does; guard the
                            // degenerate boundary lanes anyway.
                            for (i, d) in dst.iter_mut().enumerate() {
                                let x = x0 + i as i64;
                                *d = if x >= -hx && x < nx as i64 + hx {
                                    dense_in.get(x, y, z)
                                } else {
                                    0.0
                                };
                            }
                        },
                        |ry, rz, src| {
                            // Index within the slab: z-local plane, full row.
                            let zloc = rz as usize;
                            let row = ((zloc * sy) as i64 + (oy + ry as i64 + hy)) as usize;
                            let start = row * sx + (ox + hx) as usize;
                            slab[start..start + w].copy_from_slice(src);
                        },
                    );
                }
            }
        });
}

/// Compiled path of [`run_vector_array_backend`]. On the dense layout
/// every grid tap — including shifted ones, since rows are contiguous in
/// `x` across tile seams — collapses to a single stride delta from the
/// tile origin, computed once per run; per tile the grid taps resolve
/// with one add each (scratch taps are fixed buffer offsets). The
/// kernel's reach stays within the halo ([`check_array`]), so every
/// resolved row lies inside the padded slab.
fn run_array_plan<B: RowOps>(plan: &Plan, ops: &B, input: &ArrayGrid, output: &mut ArrayGrid) {
    let fused = &plan.fused;
    let (nx, ny, nz) = input.extents();
    let block = plan.block();
    let halo = input.dense().halo();
    let w = plan.width();
    let raw_in = input.dense().raw();
    let h = halo as i64;
    let sx = nx + 2 * halo;
    let sy = ny + 2 * halo;
    let plane = (sx * sy) as i64;
    let tiles_x = nx / block.bx;
    let tiles_y = ny / block.by;
    // Per-run instantiation of the tap-bounds obligation (BS001) for this
    // concrete geometry: every tap row of every tile stays inside the
    // padded slab. `check_array` already bounds the reach by the halo;
    // this is the direct interval check the hot loop relies on instead of
    // re-validating resolved taps per block.
    plan.check_array_geometry(nx, ny, nz, halo)
        .expect("array geometry violates the compile-time tap-bounds proof");
    let row_delta = |rz: i16, ry: i16| rz as i64 * plane + ry as i64 * sx as i64;
    let deltas: Vec<i64> = fused.taps()[..fused.grid_taps]
        .iter()
        .map(|t| match *t {
            Tap::Direct { rx, ry, rz } => row_delta(rz, ry) + rx as i64 * w as i64,
            Tap::Shifted { ry, rz, dx } => row_delta(rz, ry) + dx as i64,
            Tap::Window {
                rx, ry, rz, lane0, ..
            } => row_delta(rz, ry) + rx as i64 * w as i64 + lane0 as i64,
            Tap::Scratch { .. } | Tap::ScratchShifted { .. } | Tap::Padded { .. } => {
                unreachable!("grid taps lead the table (BS004)")
            }
        })
        .collect();

    let raw_out = output.dense_mut().raw_mut();
    let body = &mut raw_out[halo * (plane as usize)..(halo + nz) * (plane as usize)];
    body.par_chunks_mut(block.bz * plane as usize)
        .enumerate()
        .for_each_init(
            || (fused.rtap_table(w), fused.scratch_buffer(w)),
            |(rtaps, scr), (tz, slab)| {
                let oz = (tz * block.bz) as i64;
                for ty in 0..tiles_y {
                    for tx in 0..tiles_x {
                        let ox = (tx * block.bx) as i64;
                        let oy = (ty * block.by) as i64;
                        let origin = ((oz + h) * sy as i64 + (oy + h)) * sx as i64 + (ox + h);
                        for ((rt, d), t) in rtaps.iter_mut().zip(&deltas).zip(fused.taps()) {
                            let base = (origin + d) as usize;
                            *rt = match *t {
                                Tap::Window { lane0, lanes, .. } => {
                                    RTap::Window { base, lane0, lanes }
                                }
                                _ => RTap::Direct { base },
                            };
                        }
                        ops.eval_block(fused, rtaps, raw_in, scr, w, slab, |rp| {
                            let row = rp.rz as i64 * sy as i64 + (oy + rp.ry as i64 + h);
                            (row * sx as i64 + ox + h) as usize
                        });
                    }
                }
            },
        );
}

/// Cheap per-trace compatibility check between a kernel and a geometry.
///
/// Full static verification ([`brick_lint::verify`]) runs once per kernel
/// at the execution/sweep level; the per-block trace path only re-checks
/// the O(1) geometry invariants that make address resolution meaningful.
pub(crate) fn check_trace_compat(
    layout: LayoutKind,
    block: brick_core::BrickDims,
    geom: &TraceGeometry,
    i: usize,
) -> Result<(), VmError> {
    if layout != geom.layout() {
        return Err(VmError::Mismatch(format!(
            "{layout} kernel traced over {} geometry",
            geom.layout()
        )));
    }
    if block != geom.block() {
        return Err(VmError::Mismatch(format!(
            "kernel block {block} != geometry block {}",
            geom.block()
        )));
    }
    if i >= geom.num_blocks() {
        return Err(VmError::Mismatch(format!(
            "launch block {i} outside the {}-block domain",
            geom.num_blocks()
        )));
    }
    Ok(())
}

/// Replay the address stream of launch block `i` of a vector kernel into
/// `sink`. Loads and stores are full vector transactions (`width × 8`
/// bytes), in program order — no data is touched.
///
/// Rejects kernel/geometry mismatches; full kernel verification is the
/// caller's responsibility (see [`brick_lint::verify`]) so the hot trace
/// loop stays O(ops).
pub fn trace_vector_block(
    kernel: &VectorKernel,
    geom: &TraceGeometry,
    i: usize,
    sink: &mut impl TraceSink,
) -> Result<(), VmError> {
    check_trace_compat(kernel.layout, kernel.block, geom, i)?;
    let w = kernel.width as u64;
    let bytes = (w * 8) as u32;
    match kernel.layout {
        LayoutKind::Brick => {
            let nav: &BrickNav = geom.nav();
            let home = geom.home_brick(i);
            let dims = nav.dims();
            for op in &kernel.ops {
                match *op {
                    VOp::LoadRow {
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes,
                        ..
                    } => {
                        let (b, off) =
                            nav.resolve_rel(home, rx as i64 * w as i64, ry as i64, rz as i64);
                        sink.load(
                            geom.in_base + nav.element_addr(b, off) + lane0 as u64 * 8,
                            lanes as u32 * 8,
                        );
                    }
                    VOp::StoreRow { ry, rz, .. } => {
                        let off = dims.row_offset(ry as usize, rz as usize);
                        sink.store(geom.out_base + nav.element_addr(home, off), bytes);
                    }
                    _ => {}
                }
            }
        }
        LayoutKind::Array => {
            let [ox, oy, oz] = geom.tile_origin(i);
            let addr = geom.array_addr();
            for op in &kernel.ops {
                match *op {
                    VOp::LoadRow {
                        rx,
                        ry,
                        rz,
                        lane0,
                        lanes,
                        ..
                    } => {
                        let a = addr.addr(
                            ox + rx as i64 * w as i64 + lane0 as i64,
                            oy + ry as i64,
                            oz + rz as i64,
                        );
                        sink.load(geom.in_base + a, lanes as u32 * 8);
                    }
                    VOp::StoreRow { ry, rz, .. } => {
                        let a = addr.addr(ox, oy + ry as i64, oz + rz as i64);
                        sink.store(geom.out_base + a, bytes);
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, RecordingSink};
    use brick_codegen::{generate, CodegenOptions, Strategy};
    use brick_core::BrickDims;
    use brick_dsl::shape::StencilShape;
    use brick_dsl::{reference, DenseGrid};
    use std::sync::Arc;

    /// The interpreter is checked against the reference here directly,
    /// not only through the compiled backends' bit-identity to it.
    fn oracle_and_auto() -> [Backend; 2] {
        [
            Backend::Interpreter,
            native::resolve(ExecutionMode::Auto).unwrap(),
        ]
    }

    fn run_brick_case(shape: StencilShape, width: usize, strategy: Strategy, n: usize) {
        let st = shape.stencil();
        let b = st.default_bindings();
        let kernel = generate(
            &st,
            &b,
            LayoutKind::Brick,
            width,
            CodegenOptions {
                strategy,
                ..Default::default()
            },
        )
        .unwrap();

        let halo = st.radius() as usize;
        let mut dense = DenseGrid::new(n.max(width), n, n, halo);
        dense.fill_test_pattern();
        let mut expect = DenseGrid::new(n.max(width), n, n, halo);
        reference::apply(&st, &b, &dense, &mut expect).unwrap();

        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(width));
        for backend in oracle_and_auto() {
            let mut output =
                BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
            run_vector_brick_backend(&kernel, &input, &mut output, backend).unwrap();
            let diff = output.to_dense().max_rel_diff(&expect);
            assert!(
                diff < 1e-12,
                "{shape} {strategy} w{width} {backend}: rel diff {diff}"
            );
        }
    }

    fn run_array_case(shape: StencilShape, width: usize, strategy: Strategy, n: usize) {
        let st = shape.stencil();
        let b = st.default_bindings();
        let kernel = generate(
            &st,
            &b,
            LayoutKind::Array,
            width,
            CodegenOptions {
                strategy,
                ..Default::default()
            },
        )
        .unwrap();

        let halo = st.radius() as usize;
        let mut dense = DenseGrid::new(n.max(width), n, n, halo);
        dense.fill_test_pattern();
        let mut expect = DenseGrid::new(n.max(width), n, n, halo);
        reference::apply(&st, &b, &dense, &mut expect).unwrap();

        let input = ArrayGrid::from_dense(&dense);
        for backend in oracle_and_auto() {
            let mut output = ArrayGrid::new(n.max(width), n, n, halo);
            run_vector_array_backend(&kernel, &input, &mut output, backend).unwrap();
            let diff = output.to_dense().max_rel_diff(&expect);
            assert!(
                diff < 1e-12,
                "{shape} {strategy} w{width} {backend}: rel diff {diff}"
            );
        }
    }

    #[test]
    fn brick_gather_matches_reference_all_stencils() {
        for shape in StencilShape::paper_suite() {
            run_brick_case(shape, 16, Strategy::Gather, 8);
        }
    }

    #[test]
    fn brick_scatter_matches_reference_all_stencils() {
        for shape in StencilShape::paper_suite() {
            run_brick_case(shape, 16, Strategy::Scatter, 8);
        }
    }

    #[test]
    fn brick_width_32_and_64() {
        run_brick_case(StencilShape::star(2), 32, Strategy::Gather, 8);
        run_brick_case(StencilShape::cube(1), 64, Strategy::Scatter, 8);
    }

    #[test]
    fn array_gather_matches_reference_all_stencils() {
        for shape in StencilShape::paper_suite() {
            run_array_case(shape, 16, Strategy::Gather, 8);
        }
    }

    #[test]
    fn array_scatter_matches_reference() {
        run_array_case(StencilShape::cube(2), 16, Strategy::Scatter, 8);
        run_array_case(StencilShape::star(4), 32, Strategy::Scatter, 8);
    }

    #[test]
    fn kernel_reach_matches_stencil_radius() {
        for shape in StencilShape::paper_suite() {
            let st = shape.stencil();
            let b = st.default_bindings();
            let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
            let r = shape.radius as i64;
            assert_eq!(brick_lint::load_reach(&k), [r, r, r], "{shape}");
        }
    }

    #[test]
    fn broken_kernel_rejected_with_structured_diagnostics() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let mut k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        // Drop the final store: the verifier must reject before execution.
        let last_store = k
            .ops
            .iter()
            .rposition(|op| matches!(op, VOp::StoreRow { .. }))
            .unwrap();
        k.ops.remove(last_store);
        let mut dense = DenseGrid::cubic(16, 1);
        dense.fill_test_pattern();
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let mut output =
            BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
        let err = run_vector_brick(&k, &input, &mut output).unwrap_err();
        let report = err.report().expect("structured report");
        assert!(report.has_errors());
        assert!(!report
            .with_code(brick_lint::LintCode::IncompleteStores)
            .is_empty());
    }

    /// A lint-clean kernel the fuser refuses: every stored row becomes a
    /// balanced 64-leaf `Add` tree over the row's original value. Each
    /// two-sided node parks its left subtree on the tape's value stack,
    /// so the root needs a stack 5 deep, one more than the fuser's cap.
    fn stack_too_deep_kernel() -> VectorKernel {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let mut k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let base = k.num_regs as u16;
        let mut ops = Vec::new();
        for op in std::mem::take(&mut k.ops) {
            let VOp::StoreRow { src, ry, rz } = op else {
                ops.push(op);
                continue;
            };
            let mut next = base;
            let mut add = |ops: &mut Vec<VOp>, a, b| {
                ops.push(VOp::Add { dst: next, a, b });
                next += 1;
                next - 1
            };
            let mut level: Vec<u16> = (0..32).map(|_| add(&mut ops, src, src)).collect();
            while level.len() > 1 {
                level = level.chunks(2).map(|p| add(&mut ops, p[0], p[1])).collect();
            }
            ops.push(VOp::StoreRow {
                src: level[0],
                ry,
                rz,
            });
        }
        k.ops = ops;
        k.num_regs += 63;
        k
    }

    #[test]
    fn refused_kernel_is_unsupported_compiled_and_runs_interpreted() {
        let k = stack_too_deep_kernel();
        brick_lint::verify(&k).expect("the hand-built kernel is lint-clean");
        let mut dense = DenseGrid::cubic(16, 1);
        dense.fill_test_pattern();
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let mut output =
            BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
        let auto = native::resolve(ExecutionMode::Auto).unwrap();
        match run_vector_brick_backend(&k, &input, &mut output, auto) {
            Err(VmError::Unsupported(why)) => assert!(why.contains("value stack"), "{why}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
        run_vector_brick_backend(&k, &input, &mut output, Backend::Interpreter).unwrap();
        // 64 copies of the 7-point sum: a power-of-two scaling, so exact
        let st = StencilShape::star(1).stencil();
        let mut expect = DenseGrid::cubic(16, 1);
        reference::apply(&st, &st.default_bindings(), &dense, &mut expect).unwrap();
        let got = output.to_dense();
        for (x, y, z) in [(0, 0, 0), (7, 3, 12), (15, 15, 15)] {
            assert_eq!(got.get(x, y, z), 64.0 * expect.get(x, y, z));
        }
    }

    #[test]
    fn trace_geometry_mismatch_rejected() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let geom = TraceGeometry::array((16, 16, 16), 1, BrickDims::for_simd_width(16));
        let mut sink = CountingSink::default();
        assert!(matches!(
            trace_vector_block(&k, &geom, 0, &mut sink),
            Err(VmError::Mismatch(_))
        ));
        let bgeom = {
            let dense = DenseGrid::cubic(16, 1);
            let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
            TraceGeometry::brick(Arc::new(input.nav().clone()))
        };
        assert!(matches!(
            trace_vector_block(&k, &bgeom, usize::MAX, &mut sink),
            Err(VmError::Mismatch(_))
        ));
    }

    #[test]
    fn layout_mismatch_rejected() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Array, 16, CodegenOptions::default()).unwrap();
        let mut dense = DenseGrid::cubic(16, 1);
        dense.fill_test_pattern();
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let mut output =
            BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
        assert!(matches!(
            run_vector_brick(&k, &input, &mut output),
            Err(VmError::Mismatch(_))
        ));
    }

    #[test]
    fn trace_counts_match_kernel_stats() {
        let st = StencilShape::star(2).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let dense = DenseGrid::cubic(16, 2);
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let geom = TraceGeometry::brick(Arc::new(input.nav().clone()));
        let mut sink = CountingSink::default();
        for i in 0..geom.num_blocks() {
            trace_vector_block(&k, &geom, i, &mut sink).unwrap();
        }
        let blocks = geom.num_blocks() as u64;
        assert_eq!(sink.loads, k.stats.loads as u64 * blocks);
        assert_eq!(sink.stores, k.stats.stores as u64 * blocks);
        // partial edge loads: trace bytes equal the kernel's own account
        assert_eq!(sink.load_bytes, k.loaded_bytes() * blocks);
        assert!(sink.load_bytes < sink.loads * 16 * 8);
        assert_eq!(sink.store_bytes, sink.stores * 16 * 8);
    }

    #[test]
    fn brick_trace_addresses_are_slab_aligned_vectors() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let dense = DenseGrid::cubic(16, 1);
        let input = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let geom = TraceGeometry::brick(Arc::new(input.nav().clone()));
        let mut sink = RecordingSink::default();
        trace_vector_block(&k, &geom, 0, &mut sink).unwrap();
        for (is_store, addr, bytes) in &sink.events {
            if *is_store || *bytes == 16 * 8 {
                assert_eq!(addr % (16 * 8), 0, "full rows are row-aligned");
            } else {
                // narrowed edge load: at most the stencil reach in lanes
                assert!(*bytes <= 8, "edge load of {bytes} bytes");
            }
        }
    }

    #[test]
    fn array_trace_store_addresses_distinct_per_row() {
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Array, 16, CodegenOptions::default()).unwrap();
        let geom = TraceGeometry::array((16, 16, 16), 1, BrickDims::for_simd_width(16));
        let mut sink = RecordingSink::default();
        trace_vector_block(&k, &geom, 0, &mut sink).unwrap();
        let stores: Vec<u64> = sink
            .events
            .iter()
            .filter(|(s, _, _)| *s)
            .map(|(_, a, _)| *a)
            .collect();
        assert_eq!(stores.len(), 16);
        let mut sorted = stores.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        // all stores land in the output allocation
        assert!(stores.iter().all(|a| *a >= geom.out_base));
    }

    #[test]
    fn multi_iteration_sweep_stays_finite() {
        // ping-pong two brick grids for several sweeps (as the examples do)
        let st = StencilShape::star(1).stencil();
        let b = brick_dsl::CoeffBindings::new()
            .bind("c0", 0.4)
            .bind("c1", 0.1);
        let k = generate(&st, &b, LayoutKind::Brick, 16, CodegenOptions::default()).unwrap();
        let mut dense = DenseGrid::cubic(16, 1);
        dense.fill_test_pattern();
        let mut a = BrickGrid::from_dense(&dense, BrickDims::for_simd_width(16));
        let mut bgrid = BrickGrid::with_metadata(Arc::clone(a.decomp()), Arc::clone(a.info()));
        for _ in 0..4 {
            run_vector_brick(&k, &a, &mut bgrid).unwrap();
            std::mem::swap(&mut a, &mut bgrid);
        }
        let sum = a.to_dense().interior_sum();
        assert!(sum.is_finite());
    }
}
