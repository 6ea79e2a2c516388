//! The pipeline workloads: the paper and temporal sweeps, and the tuner,
//! each run cold over an emptied result cache and then warm over the
//! cache the cold pass filled.

use std::path::PathBuf;
use std::time::Instant;

use brick_dsl::shape::StencilShape;
use brick_tuner::{TuneOptions, TuningSpace};
use experiments::{sweep_with, temporal_sweep_with, CellFilter, ExperimentParams, SweepOptions};
use gpu_sim::{GpuKind, ProgModel};
use serde_json::Value;

use crate::stats::{median, ratio};
use crate::workload::{Metric, PassTimes, Tally, Workload};
use crate::Scale;

/// Set-ups per run: a pipeline set-up takes tens of milliseconds, mostly
/// file-system work, so it is repeated to a steady median.
const PIPELINE_SETUPS: usize = 9;

/// Records of one pass, serialized one by one: the byte-identity check
/// compares these strings.
type Records = Vec<String>;

/// Serialize each item; count those holding a non-finite number (which
/// the serializer writes as `null`).
fn serialize_all<T: serde::Serialize>(items: &[T]) -> (Records, u64) {
    let mut bad = 0;
    let out = items
        .iter()
        .map(|r| {
            let v = serde_json::to_value(r).expect("records serialize");
            bad += u64::from(!all_finite(&v));
            serde_json::to_string(&v).expect("values print")
        })
        .collect();
    (out, bad)
}

fn all_finite(v: &Value) -> bool {
    match v {
        Value::F64(x) => x.is_finite(),
        Value::Arr(items) => items.iter().all(all_finite),
        Value::Obj(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Records of `now` that differ from `reference`, missing ones included.
fn differing(now: &Records, reference: &Records) -> u64 {
    let common = now.iter().zip(reference).filter(|(a, b)| a != b).count();
    (common + now.len().abs_diff(reference.len())) as u64
}

/// Empty `dir`, leaving it in place.
fn reset_dir(dir: &PathBuf) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot empty {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// `sweep-128`: `sweep_with` (108 paper-matrix records) then
/// `temporal_sweep_with` (84 records) per pass.
pub struct SweepWorkload {
    opts: SweepOptions,
    /// The warm-up pass of every set-up: the paper sweep restricted to
    /// the 7pt stencil, at 64³, uncached.
    warmup: SweepOptions,
    cache_dir: PathBuf,
    /// Expected (paper, temporal) record counts.
    expect: (usize, usize),
    /// Records of the latest cold pass.
    cold: Option<(Records, Records)>,
    tally: Tally,
    /// (paper, temporal) wall of every cold pass.
    cold_walls: Vec<(f64, f64)>,
    /// (paper, temporal) wall of every warm pass.
    warm_walls: Vec<(f64, f64)>,
}

impl SweepWorkload {
    /// The workload at `scale`, fanning cells over `jobs` workers.
    pub fn new(scale: Scale, jobs: usize, cache_dir: PathBuf) -> SweepWorkload {
        let n = match scale {
            Scale::Full => 128,
            Scale::Toy => 64,
        };
        SweepWorkload {
            opts: SweepOptions::new(ExperimentParams { n })
                .jobs(jobs)
                .cache_dir(&cache_dir),
            warmup: SweepOptions::new(ExperimentParams { n: 64 })
                .jobs(jobs)
                .filter(CellFilter {
                    stencils: Some(vec!["7pt".into()]),
                    ..CellFilter::default()
                }),
            cache_dir,
            expect: (108, 84),
            cold: None,
            tally: Tally::default(),
            cold_walls: Vec::new(),
            warm_walls: Vec::new(),
        }
    }

    /// One pass: both sweeps, timed separately; records checked after.
    fn pass(&mut self) -> Result<((f64, f64), Records, Records), String> {
        let expected = (self.expect.0 + self.expect.1) as u64;
        let t = Instant::now();
        let paper = {
            let _s = brick_obs::span_cat("call:sweep_with", "bench");
            sweep_with(&self.opts)
        };
        let paper_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let temporal = {
            let _s = brick_obs::span_cat("call:temporal_sweep_with", "bench");
            temporal_sweep_with(&self.opts)
        };
        let temporal_s = t.elapsed().as_secs_f64();
        let (paper, temporal) = match (paper, temporal) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                let e = format!("sweep failed: {e}");
                self.tally.ops(expected, expected, || e.clone());
                return Err(e);
            }
        };
        let (p, p_bad) = serialize_all(&paper.records);
        let (t, t_bad) = serialize_all(&temporal.records);
        let missing =
            (self.expect.0.saturating_sub(p.len()) + self.expect.1.saturating_sub(t.len())) as u64;
        self.tally.ops(expected, p_bad + t_bad + missing, || {
            format!(
                "{} + {} records (expected {} + {}), {} non-finite",
                p.len(),
                t.len(),
                self.expect.0,
                self.expect.1,
                p_bad + t_bad
            )
        });
        Ok(((paper_s, temporal_s), p, t))
    }
}

/// Warm repetitions of a pipeline round: as many as the measurement
/// budget leaves after the cold pass, which takes most of it.
const PIPELINE_WARM: usize = usize::MAX;

impl Workload for SweepWorkload {
    fn warm_per_round(&self) -> usize {
        PIPELINE_WARM
    }

    fn min_setups(&self) -> usize {
        PIPELINE_SETUPS
    }

    fn traced_warm(&self) -> usize {
        3
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        reset_dir(&self.cache_dir)?;
        sweep_with(&self.warmup).map_err(|e| format!("warm-up sweep: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    }

    fn cold(&mut self) -> Result<f64, String> {
        let (walls, p, t) = self.pass()?;
        self.cold_walls.push(walls);
        self.cold = Some((p, t));
        Ok(walls.0 + walls.1)
    }

    /// Warm records must be byte-identical to the cold pass's.
    fn warm(&mut self) -> Result<f64, String> {
        let (walls, p, t) = self.pass()?;
        self.warm_walls.push(walls);
        let (cp, ct) = self.cold.as_ref().ok_or("warm pass before a cold one")?;
        let diff = differing(&p, cp) + differing(&t, ct);
        self.tally.ops(1, u64::from(diff > 0), || {
            format!("{diff} warm records differ from the cold pass")
        });
        Ok(walls.0 + walls.1)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn layer_metrics(&self, _traced: &PassTimes, _triad_gbs: f64) -> Vec<Metric> {
        let share = |walls: &[(f64, f64)]| {
            let temporal: Vec<f64> = walls.iter().map(|w| w.1).collect();
            let total: Vec<f64> = walls.iter().map(|w| w.0 + w.1).collect();
            if walls.is_empty() {
                0.0
            } else {
                ratio(median(&temporal), median(&total))
            }
        };
        vec![
            Metric {
                name: "experiments.temporal_cold_frac",
                unit: "fraction",
                value: share(&self.cold_walls),
            },
            Metric {
                name: "experiments.temporal_warm_frac",
                unit: "fraction",
                value: share(&self.warm_walls),
            },
        ]
    }
}

/// `tune-64`: `run_tune` over the full default space, restricted to
/// {7pt, 27pt} × {A100/CUDA, MI250X-GCD/HIP}.
pub struct TuneWorkload {
    opts: TuneOptions,
    /// The warm-up pass of every set-up: the same groups over the
    /// two-candidate minimal space, uncached.
    warmup: TuneOptions,
    cache_dir: PathBuf,
    /// Cells the cold pass must measure (full scale only).
    expect_valid: Option<u64>,
    /// Ranked groups of the latest cold pass.
    cold: Option<Records>,
    /// (raw, measured, pruned) cells of the latest cold pass.
    cells: (u64, u64, u64),
    tally: Tally,
}

impl TuneWorkload {
    /// The workload at `scale`, fanning cells over `jobs` workers.
    pub fn new(scale: Scale, jobs: usize, cache_dir: PathBuf) -> TuneWorkload {
        let (space, expect_valid) = match scale {
            Scale::Full => (TuningSpace::default(), Some(1_610)),
            Scale::Toy => (TuningSpace::minimal(), None),
        };
        let mut opts = TuneOptions::new(64)
            .space(space)
            .jobs(jobs)
            .cache_dir(&cache_dir);
        let shapes = [StencilShape::star(1), StencilShape::cube(1)];
        opts.shapes.retain(|s| shapes.contains(s));
        let targets = [
            (GpuKind::A100, ProgModel::Cuda),
            (GpuKind::Mi250xGcd, ProgModel::Hip),
        ];
        opts.targets
            .retain(|t| targets.contains(&(t.arch.kind, t.model)));
        let mut warmup = opts.clone().space(TuningSpace::minimal());
        warmup.cache_dir = None;
        TuneWorkload {
            opts,
            warmup,
            cache_dir,
            expect_valid,
            cold: None,
            cells: (0, 0, 0),
            tally: Tally::default(),
        }
    }

    fn pass(&mut self) -> Result<(f64, brick_tuner::TuneReport, Records), String> {
        let groups = (self.opts.shapes.len() * self.opts.targets.len()) as u64;
        let t = Instant::now();
        let report = {
            let _s = brick_obs::span_cat("call:run_tune", "bench");
            experiments::run_tune(&self.opts)
        };
        let wall = t.elapsed().as_secs_f64();
        let report = report.map_err(|e| {
            let e = format!("tune failed: {e}");
            self.tally.ops(groups, groups, || e.clone());
            e
        })?;
        let (records, bad) = serialize_all(&report.groups);
        let missing = groups.saturating_sub(records.len() as u64);
        self.tally.ops(groups, bad + missing, || {
            format!(
                "{} groups (expected {groups}), {bad} non-finite",
                records.len()
            )
        });
        Ok((wall, report, records))
    }
}

impl Workload for TuneWorkload {
    fn warm_per_round(&self) -> usize {
        PIPELINE_WARM
    }

    fn min_setups(&self) -> usize {
        PIPELINE_SETUPS
    }

    fn traced_warm(&self) -> usize {
        3
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        reset_dir(&self.cache_dir)?;
        experiments::run_tune(&self.warmup).map_err(|e| format!("warm-up tune: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    }

    fn cold(&mut self) -> Result<f64, String> {
        let (wall, report, records) = self.pass()?;
        let m = &report.manifest;
        self.cells = (m.tune_raw_cells, m.tune_valid_cells, m.tune_pruned_cells);
        if let Some(want) = self.expect_valid {
            self.tally
                .ops(1, u64::from(m.tune_valid_cells != want), || {
                    format!(
                        "cold pass measured {} cells, expected {want}",
                        m.tune_valid_cells
                    )
                });
        }
        self.cold = Some(records);
        Ok(wall)
    }

    /// Warm groups must be byte-identical to the cold pass's, with every
    /// cell served from the cache.
    fn warm(&mut self) -> Result<f64, String> {
        let (wall, report, records) = self.pass()?;
        let cold = self.cold.as_ref().ok_or("warm pass before a cold one")?;
        let diff = differing(&records, cold);
        let misses = report.manifest.cache_misses;
        self.tally.ops(1, u64::from(diff > 0 || misses > 0), || {
            format!("{diff} warm groups differ from the cold pass, {misses} cache misses")
        });
        Ok(wall)
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn layer_metrics(&self, _traced: &PassTimes, _triad_gbs: f64) -> Vec<Metric> {
        let (raw, valid, pruned) = self.cells;
        vec![
            Metric {
                name: "tuner.valid_frac",
                unit: "fraction",
                value: ratio(valid as f64, raw as f64),
            },
            Metric {
                name: "tuner.pruned_frac",
                unit: "fraction",
                value: ratio(pruned as f64, (valid + pruned) as f64),
            },
        ]
    }
}
