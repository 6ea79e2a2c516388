//! GPU architecture models for the paper's three systems (§4.1):
//! Perlmutter's NVIDIA A100, one GCD of Crusher's AMD MI250X, and one
//! stack of Florentia's Intel Ponte Vecchio.
//!
//! Parameters follow the paper's §4.1 hardware description where it gives
//! numbers (peak FP64, HBM bandwidth, cache sizes, SIMD widths) and public
//! vendor documentation for microarchitectural details (sector sizes,
//! register files, scheduler widths). They parameterise a simulator, not a
//! spec sheet: the reproduction targets relative behaviour across the
//! three machines, which these ratios capture.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a modelled GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuKind {
    /// NVIDIA A100 (Perlmutter).
    A100,
    /// One Graphics Compute Die of an AMD MI250X (Crusher/Frontier).
    Mi250xGcd,
    /// One stack of an Intel Data Center GPU Max ("Ponte Vecchio",
    /// Florentia/Aurora).
    PvcStack,
}

impl fmt::Display for GpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuKind::A100 => f.write_str("A100"),
            GpuKind::Mi250xGcd => f.write_str("MI250X"),
            GpuKind::PvcStack => f.write_str("PVC"),
        }
    }
}

/// Full architecture description consumed by the cache, occupancy and
/// timing models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuArch {
    /// Which GPU this describes.
    pub kind: GpuKind,
    /// Marketing/system name used in reports.
    pub name: &'static str,
    /// Warp / wavefront / sub-group width in lanes — the paper's
    /// `SIMD_width` (32 / 64 / 16) and therefore the brick `x` extent.
    pub simd_width: usize,
    /// Streaming multiprocessors / compute units / Xe-cores.
    pub num_sms: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak double-precision rate in GFLOP/s.
    pub fp64_gflops: f64,
    /// HBM bandwidth in GB/s.
    pub hbm_gbs: f64,
    /// Aggregate L2 bandwidth in GB/s.
    pub l2_gbs: f64,
    /// Aggregate L1 bandwidth in GB/s (all SMs).
    pub l1_gbs: f64,
    /// Per-SM L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 line size in bytes.
    pub l1_line: usize,
    /// L1 sector size in bytes (fetch granularity; equals the line size on
    /// architectures without sectoring).
    pub l1_sector: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Device-level L2/L3 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 line size in bytes.
    pub l2_line: usize,
    /// L2 sector size in bytes.
    pub l2_sector: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Architectural registers available per thread.
    pub max_regs_per_thread: u32,
    /// Register-file capacity per SM, in 4-byte registers.
    pub regfile_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Instruction issue rate per SM in instructions/cycle (all
    /// schedulers).
    pub issue_per_cycle: f64,
    /// Occupancy (fraction of max resident warps) at which the memory
    /// system saturates for streaming access patterns.
    pub bw_saturation_occupancy: f64,
}

impl GpuArch {
    /// NVIDIA A100-40GB as on Perlmutter: 108 SMs, warp 32, 9.7 FP64
    /// TFLOP/s, 40 MB L2, 1.555 TB/s HBM (§4.1).
    pub fn a100() -> Self {
        GpuArch {
            kind: GpuKind::A100,
            name: "NVIDIA A100 (Perlmutter)",
            simd_width: 32,
            num_sms: 108,
            clock_ghz: 1.41,
            fp64_gflops: 9_700.0,
            hbm_gbs: 1_555.0,
            l2_gbs: 4_800.0,
            l1_gbs: 19_000.0,
            l1_bytes: 192 * 1024,
            l1_line: 128,
            l1_sector: 32,
            l1_assoc: 8,
            l2_bytes: 40 * 1024 * 1024,
            l2_line: 128,
            l2_sector: 32,
            l2_assoc: 16,
            max_regs_per_thread: 255,
            regfile_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_blocks_per_sm: 32,
            issue_per_cycle: 4.0,
            bw_saturation_occupancy: 0.25,
        }
    }

    /// One GCD of an AMD MI250X as on Crusher: 110 CUs, wave 64, ~24 FP64
    /// TFLOP/s, 8 MB L2, 1.6 TB/s HBM (§4.1).
    pub fn mi250x_gcd() -> Self {
        GpuArch {
            kind: GpuKind::Mi250xGcd,
            name: "AMD MI250X single GCD (Crusher)",
            simd_width: 64,
            num_sms: 110,
            clock_ghz: 1.70,
            fp64_gflops: 23_900.0,
            hbm_gbs: 1_600.0,
            l2_gbs: 4_000.0,
            l1_gbs: 23_000.0,
            l1_bytes: 16 * 1024,
            l1_line: 64,
            l1_sector: 64,
            l1_assoc: 16,
            l2_bytes: 8 * 1024 * 1024,
            l2_line: 64,
            l2_sector: 64,
            l2_assoc: 16,
            max_regs_per_thread: 255,
            regfile_per_sm: 131_072,
            max_threads_per_sm: 2_048,
            // CDNA2 caps resident workgroups per CU at 16
            max_blocks_per_sm: 16,
            issue_per_cycle: 4.0,
            bw_saturation_occupancy: 0.25,
        }
    }

    /// One stack of an Intel Data Center GPU Max (PVC) as on Florentia:
    /// 64 Xe-cores, sub-group 16, ~16 FP64 TFLOP/s, 208 MB L3 ("L2" in
    /// our two-level model), 1.64 TB/s HBM (§4.1).
    pub fn pvc_stack() -> Self {
        GpuArch {
            kind: GpuKind::PvcStack,
            name: "Intel PVC single stack (Florentia)",
            simd_width: 16,
            num_sms: 64,
            clock_ghz: 1.40,
            fp64_gflops: 16_000.0,
            hbm_gbs: 1_640.0,
            l2_gbs: 3_700.0,
            l1_gbs: 17_000.0,
            l1_bytes: 192 * 1024,
            l1_line: 64,
            l1_sector: 64,
            l1_assoc: 8,
            l2_bytes: 208 * 1024 * 1024,
            l2_line: 64,
            l2_sector: 64,
            l2_assoc: 16,
            max_regs_per_thread: 256,
            regfile_per_sm: 131_072,
            max_threads_per_sm: 1_024,
            max_blocks_per_sm: 64,
            issue_per_cycle: 8.0,
            bw_saturation_occupancy: 0.3,
        }
    }

    /// The three architectures of the study.
    pub fn all() -> Vec<GpuArch> {
        Self::table().to_vec()
    }

    /// The shared, process-wide architecture table: one immutable copy of
    /// the study's three machines, built once. Parallel sweep cells borrow
    /// from this table instead of each carrying (or rebuilding) their own
    /// descriptions, which keeps per-cell state down to the genuinely
    /// per-cell pieces (kernel, geometry, counters).
    pub fn table() -> &'static [GpuArch] {
        static TABLE: std::sync::OnceLock<Vec<GpuArch>> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| vec![Self::a100(), Self::mi250x_gcd(), Self::pvc_stack()])
    }

    /// The shared table entry for `kind`.
    pub fn by_kind(kind: GpuKind) -> &'static GpuArch {
        Self::table()
            .iter()
            .find(|a| a.kind == kind)
            .expect("every GpuKind is in the table")
    }

    /// A CI-scale variant: caches and SM count shrunk by `factor` so that
    /// small test grids exercise the same capacity regime as the paper's
    /// `512³` runs on the full machine (grid ≫ L2 ≫ per-block footprint).
    /// Bandwidths and peak rates are left untouched — only capacities
    /// shrink, preserving every capacity *ratio*.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        self.num_sms = (self.num_sms / factor).max(2);
        self.l1_bytes = (self.l1_bytes / factor).max(self.l1_line * self.l1_assoc);
        self.l2_bytes = (self.l2_bytes / factor).max(self.l2_line * self.l2_assoc * 16);
        self
    }

    /// Machine-balance arithmetic intensity (FLOP/Byte at the ridge point
    /// of the Roofline).
    pub fn ridge_ai(&self) -> f64 {
        self.fp64_gflops / self.hbm_gbs
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.simd_width as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_table_matches_constructors() {
        assert_eq!(GpuArch::table().len(), 3);
        assert_eq!(GpuArch::all(), GpuArch::table().to_vec());
        for kind in [GpuKind::A100, GpuKind::Mi250xGcd, GpuKind::PvcStack] {
            assert_eq!(GpuArch::by_kind(kind).kind, kind);
        }
        // the table is one shared allocation, not a rebuild per call
        assert!(std::ptr::eq(GpuArch::table(), GpuArch::table()));
    }

    #[test]
    fn simd_widths_match_paper() {
        assert_eq!(GpuArch::a100().simd_width, 32);
        assert_eq!(GpuArch::mi250x_gcd().simd_width, 64);
        assert_eq!(GpuArch::pvc_stack().simd_width, 16);
    }

    #[test]
    fn paper_peak_ratios_hold() {
        let (a, m, p) = (GpuArch::a100(), GpuArch::mi250x_gcd(), GpuArch::pvc_stack());
        // §4.1: MI250X GCD ≈ 2.5x A100 FP64; PVC ≈ 1.6x A100 and ≈ 0.6x
        // of MI250X; HBM within ~5% of each other.
        assert!(m.fp64_gflops / a.fp64_gflops > 2.0);
        assert!((p.fp64_gflops / a.fp64_gflops - 1.6).abs() < 0.1);
        assert!(p.fp64_gflops < m.fp64_gflops);
        for g in [&a, &m, &p] {
            assert!((g.hbm_gbs - 1_600.0).abs() / 1_600.0 < 0.05);
        }
    }

    #[test]
    fn ridge_points_are_compute_rich() {
        // all three GPUs need AI of several FLOP/Byte to leave the
        // memory-bound regime; the A100 ridge is lowest
        for g in GpuArch::all() {
            assert!(g.ridge_ai() > 4.0, "{}", g.name);
        }
        assert!(GpuArch::a100().ridge_ai() < GpuArch::mi250x_gcd().ridge_ai());
    }

    #[test]
    fn sector_divides_line() {
        for g in GpuArch::all() {
            assert_eq!(g.l1_line % g.l1_sector, 0);
            assert_eq!(g.l2_line % g.l2_sector, 0);
            assert!(g.l1_bytes % g.l1_line == 0);
        }
    }

    #[test]
    fn warp_capacity_sane() {
        let a = GpuArch::a100();
        assert_eq!(a.max_warps_per_sm(), 64);
        assert_eq!(GpuArch::mi250x_gcd().max_warps_per_sm(), 32);
        assert_eq!(GpuArch::pvc_stack().max_warps_per_sm(), 64);
    }
}
