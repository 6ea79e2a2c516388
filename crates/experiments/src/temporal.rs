//! The temporal-blocking sweep: AN5D's headline experiment on the
//! simulated substrate.
//!
//! For every paper stencil and every feasible fusion degree `T` (the
//! default 4×4 block caps `T·r` at 4 per transverse axis), generate the
//! `T`-fused bricks kernel ([`brick_codegen::CodegenOptions::temporal_degree`]),
//! statically verify it against the `T`-fold composed stencil
//! ([`brick_lint::ExpectedStencil::resolve_temporal`]), and simulate it
//! over the paper's (GPU, model) matrix.
//!
//! The headline metrics:
//!
//! - **Arithmetic intensity scales with `T`**: one fused launch applies
//!   `T` timesteps' worth of useful FLOPs while streaming the grid
//!   through DRAM roughly once, so `AI ≈ T · AI(T=1)` minus halo
//!   overhead.
//! - **DRAM bytes per applied timestep shrink like `1/T`**:
//!   [`TemporalRecord::dram_bytes_per_point`] divides the launch's DRAM
//!   traffic by `n³·T` — the paper-suite acceptance bound is
//!   `star-7 @ T=4 ≤ 0.45×` its `T=1` value.
//!
//! FLOP accounting follows the base sweep's §4.4 convention, scaled by
//! the work actually applied: the normalised count for a `T`-fused cell
//! is `T ×` the symmetry-minimal per-step count. Redundant halo FLOPs
//! (the price of fusion) appear only in the simulated execution time,
//! exactly as they would on hardware.
//!
//! Determinism and caching are [`crate::runner`]'s: the same cell
//! evaluator, the same cache. A cell's key carries its whole
//! specialization vector, so a `T=2` cell can never be served a cached
//! `T=1` record, while the `T=1` gather cell shares its record with the
//! tuner's paper baseline (the same cell).

use serde::{Deserialize, Serialize};

use crate::runner::{run_cells, SweepError, SweepOptions};
use brick_codegen::SpecParams;
use brick_dsl::shape::StencilShape;
use brick_tuner::cell::Cell;
use brick_tuner::KernelConfig;
use gpu_sim::{GpuArch, GpuKind, ProgModel};

/// Transverse block extent the fusion degree is feasibility-checked
/// against (`BrickDims::for_simd_width` always yields 4×4 across y/z).
const BLOCK_YZ: u32 = 4;

/// Fusion degrees worth sweeping for a shape: every `T` whose composed
/// reach `T·r` still fits the transverse block extent. star-1/cube-1
/// sweep `1..=4`, star-2/cube-2 `1..=2`, star-3/star-4 are spatial-only.
pub fn feasible_degrees(shape: &StencilShape) -> std::ops::RangeInclusive<u32> {
    1..=(BLOCK_YZ / shape.radius).max(1)
}

/// One measured point of the temporal study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalRecord {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Paper label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Timesteps fused into the simulated launch (1 = spatial baseline).
    pub temporal_degree: u32,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// GFLOP/s at the normalised FLOP count (`T ×` the per-step count).
    pub gflops: f64,
    /// Empirical arithmetic intensity (normalised FLOPs / DRAM bytes).
    pub ai: f64,
    /// HBM data movement of the fused launch, bytes.
    pub dram_bytes: u64,
    /// DRAM bytes per interior point **per applied timestep**
    /// (`dram_bytes / (points · T)`) — the AN5D scaling metric.
    pub dram_bytes_per_point: f64,
    /// L1 data movement in bytes.
    pub l1_bytes: u64,
    /// L2 data movement in bytes.
    pub l2_bytes: u64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
}

/// A complete temporal sweep plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalSweep {
    /// Parameters the sweep ran with.
    pub params: crate::config::ExperimentParams,
    /// All measured points, in canonical order: stencil → degree →
    /// architecture → (gpu, model) pair.
    pub records: Vec<TemporalRecord>,
    /// Provenance manifest (includes the swept degrees).
    pub manifest: brick_obs::RunManifest,
}

impl TemporalSweep {
    /// The unique record for an exact point.
    pub fn point(
        &self,
        gpu: GpuKind,
        model: ProgModel,
        stencil: &str,
        t: u32,
    ) -> Option<&TemporalRecord> {
        self.records.iter().find(|r| {
            r.gpu == gpu && r.model == model && r.stencil == stencil && r.temporal_degree == t
        })
    }

    /// All records of one stencil on one platform, ordered by degree.
    pub fn series(&self, gpu: GpuKind, model: ProgModel, stencil: &str) -> Vec<&TemporalRecord> {
        let mut v: Vec<&TemporalRecord> = self
            .records
            .iter()
            .filter(|r| r.gpu == gpu && r.model == model && r.stencil == stencil)
            .collect();
        v.sort_by_key(|r| r.temporal_degree);
        v
    }
}

/// The filtered temporal matrix as bricks-codegen cells, in canonical
/// order: stencil → degree → `(gpu, model)` pair (grouped by GPU). Every
/// degree, `T = 1` included, uses the paper default's gather schedule,
/// so the only variable along a degree series is the fusion itself.
fn temporal_cells(opts: &SweepOptions) -> Vec<Cell> {
    let config = KernelConfig::BricksCodegen;
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        for t in feasible_degrees(&shape) {
            for (target, (gpu, model)) in ProgModel::paper_matrix().into_iter().enumerate() {
                if opts.filter.keeps(&shape, config, gpu, model) {
                    let spec = SpecParams {
                        temporal_degree: t,
                        ..SpecParams::paper_default(GpuArch::by_kind(gpu).simd_width)
                    };
                    cells.push(Cell {
                        shape,
                        config,
                        spec,
                        target,
                    });
                }
            }
        }
    }
    cells
}

/// Run the temporal study matrix — every paper stencil × every feasible
/// fusion degree × the paper's 6 (GPU, model) pairs, bricks codegen,
/// restricted by the options' filter — with the same parallelism,
/// caching and determinism contract as [`crate::runner::sweep_with`].
pub fn temporal_sweep_with(opts: &SweepOptions) -> Result<TemporalSweep, SweepError> {
    let run = run_cells(
        opts,
        "temporal-sweep",
        "temporal.cells",
        &temporal_cells(opts),
        |cell, gpu, model, _, m| {
            let t = cell.spec.temporal_degree;
            let applied_points = m.points as f64 * t as f64;
            TemporalRecord {
                shape: cell.shape,
                stencil: cell.shape.label(),
                temporal_degree: t,
                gpu,
                model,
                gflops: m.gflops,
                ai: m.ai,
                dram_bytes: m.dram_bytes,
                dram_bytes_per_point: if applied_points > 0.0 {
                    m.dram_bytes as f64 / applied_points
                } else {
                    0.0
                },
                l1_bytes: m.l1_bytes,
                l2_bytes: m.l2_bytes,
                time_s: m.time_s,
                occupancy: m.occupancy,
                regs_per_thread: m.regs_per_thread,
                spilled: m.spilled,
                limiter: m.limiter,
            }
        },
    )?;
    let mut degrees: Vec<u32> = run.records.iter().map(|r| r.temporal_degree).collect();
    degrees.sort_unstable();
    degrees.dedup();
    Ok(TemporalSweep {
        params: opts.params,
        records: run.records,
        manifest: run.manifest.with_temporal_degrees(&degrees),
    })
}

/// `BENCH_temporal.json`: the temporal scaling benchmark and its gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalBench {
    /// Domain size the benchmark swept.
    pub n: usize,
    /// star-7 DRAM bytes/point-step at the deepest degree over `T=1`
    /// (A100/CUDA) — the AN5D headline ratio; gated at ≤ 0.45.
    pub star7_dram_ratio: f64,
    /// Deepest star-7 degree the ratio was taken at.
    pub star7_max_degree: u32,
    /// The A100/CUDA panel, in canonical order.
    pub panel: Vec<TemporalRecord>,
    /// Provenance of the sweep behind the numbers.
    pub manifest: brick_obs::RunManifest,
}

/// DRAM-scaling acceptance bound for star-7 at the deepest fusion degree.
pub const STAR7_DRAM_RATIO_MAX: f64 = 0.45;

/// Run the temporal benchmark at `n³` and write `BENCH_temporal.json`
/// under `out`.
///
/// Gates (an `Err` means a gate failed — callers should exit non-zero):
/// AI must **strictly increase** with the fusion degree for every star
/// stencil on every platform, and star-7's DRAM bytes per applied
/// timestep at its deepest degree must be at most
/// [`STAR7_DRAM_RATIO_MAX`] of the spatial baseline on A100/CUDA.
pub fn run_bench_temporal(
    n: usize,
    jobs: Option<usize>,
    out: &std::path::Path,
) -> Result<TemporalBench, String> {
    let mut opts = SweepOptions::new(crate::config::ExperimentParams { n });
    if let Some(j) = jobs {
        opts = opts.jobs(j);
    }
    let sweep = temporal_sweep_with(&opts).map_err(|e| e.to_string())?;

    let mut gate_failures = Vec::new();
    for &(gpu, model) in &ProgModel::paper_matrix() {
        // the star family with a fusible degree range: 7pt (star-1) and
        // 13pt (star-2); star-3/4 are spatial-only under the 4×4 block
        for stencil in ["7pt", "13pt"] {
            let series = sweep.series(gpu, model, stencil);
            for pair in series.windows(2) {
                if pair[1].ai <= pair[0].ai {
                    gate_failures.push(format!(
                        "{gpu}/{model} {stencil}: AI not strictly increasing \
                         (t{} {:.4} <= t{} {:.4})",
                        pair[1].temporal_degree, pair[1].ai, pair[0].temporal_degree, pair[0].ai
                    ));
                }
            }
        }
    }

    let series = sweep.series(GpuKind::A100, ProgModel::Cuda, "7pt");
    let t1 = series.first().ok_or("no star-7 T=1 record")?;
    let deepest = series.last().ok_or("no star-7 fused record")?;
    let ratio = deepest.dram_bytes_per_point / t1.dram_bytes_per_point;
    if ratio > STAR7_DRAM_RATIO_MAX {
        gate_failures.push(format!(
            "star-7 DRAM/pt-step ratio at t{}: {ratio:.3} > {STAR7_DRAM_RATIO_MAX}",
            deepest.temporal_degree
        ));
    }

    let bench = TemporalBench {
        n,
        star7_dram_ratio: ratio,
        star7_max_degree: deepest.temporal_degree,
        panel: sweep
            .records
            .iter()
            .filter(|r| r.gpu == GpuKind::A100 && r.model == ProgModel::Cuda)
            .cloned()
            .collect(),
        manifest: sweep.manifest.clone(),
    };
    crate::bench::write_bench(out, crate::bench::BenchKind::Temporal, &bench)?;

    if gate_failures.is_empty() {
        Ok(bench)
    } else {
        Err(gate_failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_temporal_sweep;
    use brick_dsl::StencilAnalysis;

    #[test]
    fn matrix_covers_every_feasible_degree() {
        let s = shared_temporal_sweep();
        // degrees per stencil: star-1/cube-1 → 4, star-2/cube-2 → 2,
        // star-3/star-4 → 1; 14 series × 6 (gpu, model) pairs
        assert_eq!(s.records.len(), 14 * 6);
        assert_eq!(s.manifest.temporal_degrees, vec![1, 2, 3, 4]);
        for shape in StencilShape::paper_suite() {
            for t in feasible_degrees(&shape) {
                assert!(
                    s.point(GpuKind::A100, ProgModel::Cuda, &shape.label(), t)
                        .is_some(),
                    "{shape} t{t} missing"
                );
            }
        }
    }

    #[test]
    fn ai_strictly_increases_with_degree_on_stars() {
        let s = shared_temporal_sweep();
        for &(gpu, model) in &ProgModel::paper_matrix() {
            for stencil in ["7pt", "13pt"] {
                let series = s.series(gpu, model, stencil);
                assert!(series.len() >= 2, "{gpu} {model} {stencil}");
                for pair in series.windows(2) {
                    assert!(
                        pair[1].ai > pair[0].ai,
                        "{gpu} {model} {stencil}: AI t{} {:.3} !> t{} {:.3}",
                        pair[1].temporal_degree,
                        pair[1].ai,
                        pair[0].temporal_degree,
                        pair[0].ai
                    );
                }
            }
        }
    }

    #[test]
    fn dram_bytes_per_applied_step_shrink_with_degree() {
        // the AN5D headline at test scale: star-7 fused 4 deep moves well
        // under half the DRAM bytes per applied timestep of the spatial
        // baseline (the 512³ acceptance run is `--bench temporal`)
        let s = shared_temporal_sweep();
        let t1 = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", 1).unwrap();
        let t4 = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", 4).unwrap();
        assert!(
            t4.dram_bytes_per_point <= 0.45 * t1.dram_bytes_per_point,
            "t4 {:.2} B/pt-step vs t1 {:.2} B/pt-step",
            t4.dram_bytes_per_point,
            t1.dram_bytes_per_point
        );
    }

    #[test]
    fn degree_one_matches_spatial_flop_accounting() {
        let s = shared_temporal_sweep();
        for r in &s.records {
            if r.temporal_degree == 1 {
                let a = StencilAnalysis::of_shape(&r.shape);
                // per-launch AI at T=1 is the plain empirical AI, bounded
                // by the per-step theoretical ceiling
                assert!(r.ai <= a.theoretical_ai * 1.001, "{r:?}");
            }
            assert!(r.gflops > 0.0 && r.time_s > 0.0, "{r:?}");
            assert!(r.l1_bytes >= r.dram_bytes, "{r:?}");
        }
    }

    #[test]
    fn hip_wrapper_matches_cuda() {
        let s = shared_temporal_sweep();
        for t in [1, 2, 4] {
            let c = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", t).unwrap();
            let h = s.point(GpuKind::A100, ProgModel::Hip, "7pt", t).unwrap();
            assert_eq!(c.dram_bytes, h.dram_bytes);
            assert!((c.gflops - h.gflops).abs() / c.gflops < 1e-9);
        }
    }
}
