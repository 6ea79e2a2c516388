//! Table reproductions.

use serde::{Deserialize, Serialize};

use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use gpu_sim::ProgModel;

use crate::config::KernelConfig;
use crate::runner::Sweep;

/// Table 1: programming models, modules and compilers per system — plus
/// this reproduction's simulated equivalent of each row.
pub fn table1() -> Vec<[String; 4]> {
    let rows = [
        (
            "Perlmutter (NERSC)",
            "CUDA",
            "NVHPC 22.7, CUDAToolkit 11.7, nvcc/11.7",
            "CompilerModel::resolve(A100, Cuda)",
        ),
        (
            "Perlmutter (NERSC)",
            "HIP",
            "hip/5.3.2 wrapper over nvcc/11.7",
            "CompilerModel::resolve(A100, Hip) — identical to CUDA",
        ),
        (
            "Perlmutter (NERSC)",
            "SYCL",
            "intel-llvm/2023-WW13, clang++/17.0.0",
            "CompilerModel::resolve(A100, Sycl)",
        ),
        (
            "Crusher (OLCF)",
            "HIP",
            "ROCm/5.2.0, AMD clang/14.0.0",
            "CompilerModel::resolve(MI250X, Hip)",
        ),
        (
            "Crusher (OLCF)",
            "SYCL",
            "dpcpp/22.09, clang++/16.0.0",
            "CompilerModel::resolve(MI250X, Sycl)",
        ),
        (
            "Florentia (JLSE)",
            "SYCL",
            "oneapi/eng-compiler 2022.12, icpx/2023.1.0",
            "CompilerModel::resolve(PVC, Sycl)",
        ),
    ];
    rows.iter()
        .map(|(s, m, c, sim)| [s.to_string(), m.to_string(), c.to_string(), sim.to_string()])
        .collect()
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Shape family name.
    pub shape: String,
    /// Stencil radius.
    pub radius: u32,
    /// Number of points.
    pub points: usize,
    /// Unique coefficients under symmetry.
    pub unique_coefficients: usize,
}

/// Table 2: the benchmark stencils.
pub fn table2() -> Vec<Table2Row> {
    StencilShape::paper_suite()
        .into_iter()
        .map(|s| Table2Row {
            shape: s.kind.to_string(),
            radius: s.radius,
            points: s.points(),
            unique_coefficients: s.unique_coefficients(),
        })
        .collect()
}

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Shape family name.
    pub shape: String,
    /// Number of points.
    pub points: usize,
    /// Theoretical arithmetic intensity in FLOP/Byte.
    pub theoretical_ai: f64,
}

/// Table 4: theoretical arithmetic intensity per stencil.
pub fn table4() -> Vec<Table4Row> {
    StencilShape::paper_suite()
        .into_iter()
        .map(|s| Table4Row {
            shape: s.kind.to_string(),
            points: s.points(),
            theoretical_ai: StencilAnalysis::of_shape(&s).theoretical_ai,
        })
        .collect()
}

/// A portability table (Table 3 or 5): per-stencil efficiencies on the
/// five platform columns, per-row P, and the overall P.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortabilityTable {
    /// Which efficiency definition the table uses.
    pub efficiency: String,
    /// Platform column labels.
    pub columns: Vec<String>,
    /// `(stencil, efficiencies, P)` rows.
    pub rows: Vec<(String, Vec<f64>, f64)>,
    /// Mean of the per-row P values (the paper's bottom-line figure).
    pub overall_p: f64,
}

fn portability_table(
    sweep: &Sweep,
    efficiency: &str,
    pick: impl Fn(&crate::runner::Record) -> f64,
) -> PortabilityTable {
    let columns = ProgModel::portability_columns();
    let labels: Vec<String> = columns.iter().map(|(g, m)| format!("{g} {m}")).collect();
    let mut rows = Vec::new();
    for shape in StencilShape::paper_suite() {
        let label = shape.label();
        let effs: Vec<f64> = columns
            .iter()
            .map(|&(gpu, model)| {
                let r = sweep
                    .point(gpu, model, KernelConfig::BricksCodegen, &label)
                    .unwrap_or_else(|| panic!("sweep missing {gpu} {model} {label}"));
                pick(r)
            })
            .collect();
        let p = perf_portability::pennycook_p(&effs.iter().map(|e| Some(*e)).collect::<Vec<_>>());
        rows.push((label, effs, p));
    }
    let overall_p = rows.iter().map(|(_, _, p)| *p).sum::<f64>() / rows.len() as f64;
    PortabilityTable {
        efficiency: efficiency.to_string(),
        columns: labels,
        rows,
        overall_p,
    }
}

/// Table 3: performance portability of `bricks codegen` with efficiency =
/// fraction of the (empirical) Roofline.
pub fn table3(sweep: &Sweep) -> PortabilityTable {
    portability_table(sweep, "fraction of Roofline", |r| r.frac_roofline)
}

/// Table 5: performance portability of `bricks codegen` with efficiency =
/// fraction of theoretical arithmetic intensity.
pub fn table5(sweep: &Sweep) -> PortabilityTable {
    portability_table(sweep, "fraction of theoretical AI", |r| {
        r.frac_theoretical_ai
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_sweep;

    #[test]
    fn table1_covers_six_toolchains() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert!(t.iter().any(|r| r[2].contains("nvcc")));
        assert!(t.iter().any(|r| r[2].contains("ROCm")));
        assert!(t.iter().any(|r| r[2].contains("icpx")));
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        let expect = [
            ("star", 1, 7, 2),
            ("star", 2, 13, 3),
            ("star", 3, 19, 4),
            ("star", 4, 25, 5),
            ("cube", 1, 27, 4),
            ("cube", 2, 125, 10),
        ];
        for (row, (shape, radius, points, coeffs)) in t.iter().zip(expect) {
            assert_eq!(row.shape, shape);
            assert_eq!(row.radius, radius);
            assert_eq!(row.points, points);
            assert_eq!(row.unique_coefficients, coeffs);
        }
    }

    #[test]
    fn table4_matches_paper() {
        let t = table4();
        let ais: Vec<f64> = t.iter().map(|r| r.theoretical_ai).collect();
        assert_eq!(ais, [0.5, 0.9375, 1.375, 1.8125, 1.875, 8.375]);
    }

    #[test]
    fn table3_structure_and_bounds() {
        let t = table3(shared_sweep());
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.rows.len(), 6);
        for (stencil, effs, p) in &t.rows {
            assert_eq!(effs.len(), 5, "{stencil}");
            let min = effs.iter().cloned().fold(f64::MAX, f64::min);
            let max = effs.iter().cloned().fold(0.0f64, f64::max);
            assert!(*p >= min - 1e-12 && *p <= max + 1e-12, "{stencil}");
        }
        assert!(t.overall_p > 0.2, "P = {}", t.overall_p);
    }

    #[test]
    fn table5_fractions_bounded_by_one() {
        let t = table5(shared_sweep());
        for (stencil, effs, _) in &t.rows {
            for e in effs {
                assert!(*e > 0.0 && *e <= 1.001, "{stencil}: {e}");
            }
        }
    }
}
