//! # experiments
//!
//! The experiment harness: regenerates every table and figure of
//! *"Performance Portability Evaluation of Blocked Stencil Computations
//! on GPUs"* from the simulated pipeline (DSL → codegen → VM trace →
//! GPU simulation → metrics).
//!
//! One driver per artifact (see DESIGN.md §4):
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 (systems/compilers) | [`tables::table1`] |
//! | Table 2 (stencil inventory) | [`tables::table2`] |
//! | Table 3 (P, fraction of Roofline) | [`tables::table3`] |
//! | Table 4 (theoretical AI) | [`tables::table4`] |
//! | Table 5 (P, fraction of theoretical AI) | [`tables::table5`] |
//! | Fig. 1/2 (DSL + kernels) | [`figures::fig1_fig2_listings`] |
//! | Fig. 3 (Rooflines) | [`figures::fig3`] |
//! | Fig. 4 (L1 data movement) | [`figures::fig4`] |
//! | Fig. 5 (CUDA vs SYCL on A100) | [`figures::fig5`] |
//! | Fig. 6 (HIP vs SYCL on MI250X) | [`figures::fig6`] |
//! | Fig. 7 (potential speed-up) | [`figures::fig7`] |
//!
//! The `experiments` binary drives them (`cargo run -p experiments
//! --release -- --all`).

pub mod bench;
pub mod bench_exec;
pub mod bench_overhead;
pub mod bench_sim;
pub mod config;
pub mod figures;
pub mod golden;
pub mod paper;
pub mod plot;
pub mod report;
pub mod runner;
pub mod stdout;
pub mod tables;
pub mod temporal;
pub mod tune;

pub use brick_sweep::Jobs;
pub use config::{ExperimentParams, KernelConfig};
pub use runner::{sweep_with, CellFilter, Record, Sweep, SweepError, SweepOptions};
pub use temporal::{temporal_sweep_with, TemporalRecord, TemporalSweep};
pub use tune::{run_bench_tune, run_tune, tune_options, tuned_vs_paper, SpaceChoice, TuneBench};

#[cfg(test)]
pub(crate) mod testutil {
    //! One shared 128³ sweep for the whole test suite — the sweep is the
    //! expensive part, the assertions are cheap.
    use crate::config::ExperimentParams;
    use crate::runner::{sweep_with, Sweep, SweepOptions};
    use crate::temporal::{temporal_sweep_with, TemporalSweep};
    use std::sync::OnceLock;

    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    static TEMPORAL: OnceLock<TemporalSweep> = OnceLock::new();
    static TUNE: OnceLock<brick_tuner::TuneReport> = OnceLock::new();

    pub fn shared_sweep() -> &'static Sweep {
        SWEEP.get_or_init(|| {
            sweep_with(&SweepOptions::new(ExperimentParams { n: 128 })).expect("128³ sweep runs")
        })
    }

    /// One shared 64³ temporal sweep (the golden size — big enough that
    /// every fused footprint still exercises all cache levels).
    pub fn shared_temporal_sweep() -> &'static TemporalSweep {
        TEMPORAL.get_or_init(|| {
            temporal_sweep_with(&SweepOptions::new(ExperimentParams { n: 64 }))
                .expect("64³ temporal sweep runs")
        })
    }

    /// One shared golden-configuration tune report (7pt × A100/CUDA ×
    /// smoke space at the golden size).
    pub fn shared_tune_report() -> &'static brick_tuner::TuneReport {
        TUNE.get_or_init(|| {
            brick_tuner::tune_matrix(&crate::tune::golden_tune_options(None, None))
                .expect("golden tune configuration runs")
        })
    }
}
