//! Artifact round-trips: everything the harness writes to disk must
//! deserialise back losslessly (sweeps are expensive; saved artifacts
//! must be reusable).

use bricks_repro::experiments::runner::{Record, Sweep};
use bricks_repro::experiments::{sweep_with, ExperimentParams, KernelConfig, SweepOptions};
use bricks_repro::gpu_sim::{GpuKind, ProgModel};

fn small_sweep() -> Sweep {
    // 64³ is enough for serialisation tests; content correctness is
    // covered elsewhere
    sweep_with(&SweepOptions::new(ExperimentParams { n: 64 })).expect("64³ sweep runs")
}

#[test]
fn sweep_json_roundtrip() {
    let s = small_sweep();
    let json = serde_json::to_string(&s).unwrap();
    let back: Sweep = serde_json::from_str(&json).unwrap();
    assert_eq!(back.records.len(), s.records.len());
    assert_eq!(back.params, s.params);
    for (a, b) in s.records.iter().zip(&back.records) {
        assert_eq!(a.stencil, b.stencil);
        assert_eq!(a.config, b.config);
        assert_eq!(a.gpu, b.gpu);
        assert_eq!(a.model, b.model);
        assert_eq!(a.dram_bytes, b.dram_bytes);
        assert!((a.gflops - b.gflops).abs() < 1e-9);
    }
    assert_eq!(back.rooflines.len(), s.rooflines.len());
}

#[test]
fn record_json_fields_are_stable() {
    let s = small_sweep();
    let r: &Record = &s.records[0];
    let v: serde_json::Value = serde_json::to_value(r).unwrap();
    for key in [
        "stencil",
        "config",
        "gpu",
        "model",
        "gflops",
        "ai",
        "theoretical_ai",
        "frac_roofline",
        "frac_theoretical_ai",
        "l1_bytes",
        "l2_bytes",
        "dram_bytes",
        "time_s",
        "occupancy",
        "regs_per_thread",
        "spilled",
        "limiter",
    ] {
        assert!(v.get(key).is_some(), "missing field {key}");
    }
}

#[test]
fn csv_export_parses_back() {
    let s = small_sweep();
    let dir = std::env::temp_dir().join("bricks_repro_artifacts_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.csv");
    bricks_repro::experiments::report::write_sweep_csv(&s, &path).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    let mut lines = content.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    assert_eq!(header.len(), 17);
    let mut parsed = 0;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), header.len(), "{line}");
        // numeric columns parse
        let gflops: f64 = fields[4].parse().unwrap();
        assert!(gflops > 0.0);
        let dram: u64 = fields[11].parse().unwrap();
        assert!(dram > 0);
        parsed += 1;
    }
    assert_eq!(parsed, s.records.len());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_point_lookup_consistent_with_records() {
    let s = small_sweep();
    for r in &s.records {
        let found = s.point(r.gpu, r.model, r.config, &r.stencil).unwrap();
        assert_eq!(found.dram_bytes, r.dram_bytes);
    }
    assert!(s
        .point(
            GpuKind::PvcStack,
            ProgModel::Cuda,
            KernelConfig::Array,
            "7pt"
        )
        .is_none());
}
