//! First-class kernel specialization parameters.
//!
//! Historically the generator's tunables were scattered constants: the
//! brick's transverse extents lived in [`CodegenOptions::block_yz`], the
//! vector width was whatever the caller passed to [`crate::generate`],
//! the L2 interleave chunk was a per-suite simulator default, and fold
//! factor did not exist (one brick row was always exactly one hardware
//! vector). [`SpecParams`] promotes the whole specialization vector to
//! one comptime-style value — the CubeCL pattern of resolving launch
//! parameters per target — so the tuner can enumerate, fingerprint and
//! cache-key every axis uniformly:
//!
//! * **`vector_width`** — lanes per hardware vector (warp / wavefront /
//!   sub-group width the kernel is issued at).
//! * **`fold_factor`** — hardware vectors folded into one brick row
//!   (Yount-style vector folding): the brick `x` extent is
//!   `fold_factor · vector_width`, mapped to `fold_factor` SIMD groups
//!   per launch block.
//! * **`block_yz`** — transverse brick extents.
//! * **`ordering`** — brick memory ordering (lexicographic / Morton).
//! * **`strategy`** — gather vs scatter scheduling.
//! * **`interleave_chunk`** — L2 stream-rotation granularity of the
//!   memory simulation (a model parameter, but one the paper's
//!   measured counterpart — launch-stream batching — genuinely tunes).
//! * **`temporal_degree`** — AN5D-style timestep fusion depth.
//!
//! The canonical rendering ([`SpecParams::desc`]) and its FNV-1a
//! fingerprint ([`SpecParams::fingerprint`]) are stable across runs and
//! processes and are embedded in tuner cache keys, so two cells with
//! different specialization vectors can never alias.

use serde::{Deserialize, Serialize};
use std::fmt;

use brick_core::{BrickDims, BrickOrdering};

use crate::generate::CodegenOptions;
use crate::ir::Strategy;

/// The paper's transverse brick extents (`4 × 4`).
pub const PAPER_BLOCK_YZ: (usize, usize) = (4, 4);

/// The memory simulator's default L2 interleave chunk (events per block
/// stream before rotating).
pub const PAPER_INTERLEAVE_CHUNK: usize = 1024;

/// One complete kernel specialization vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpecParams {
    /// Lanes per hardware vector the kernel is issued at.
    pub vector_width: usize,
    /// Hardware vectors folded into one brick row; the brick `x` extent
    /// is `fold_factor · vector_width`.
    pub fold_factor: u32,
    /// Transverse brick extents `(by, bz)`.
    pub block_yz: (usize, usize),
    /// Brick memory ordering.
    pub ordering: BrickOrdering,
    /// Codegen scheduling strategy.
    pub strategy: Strategy,
    /// L2 interleave chunk of the memory simulation.
    pub interleave_chunk: usize,
    /// Timesteps fused per kernel (AN5D temporal blocking); `1` is the
    /// plain spatial kernel.
    pub temporal_degree: u32,
}

impl SpecParams {
    /// The paper's fixed configuration for an architecture SIMD width:
    /// one hardware vector per row, `4 × 4` transverse extents,
    /// lexicographic ordering, gather scheduling, default interleave,
    /// no temporal fusion. This is the baseline every tuned
    /// configuration is compared (and must never lose) against.
    pub fn paper_default(simd_width: usize) -> SpecParams {
        SpecParams {
            vector_width: simd_width,
            fold_factor: 1,
            block_yz: PAPER_BLOCK_YZ,
            ordering: BrickOrdering::Lexicographic,
            strategy: Strategy::Gather,
            interleave_chunk: PAPER_INTERLEAVE_CHUNK,
            temporal_degree: 1,
        }
    }

    /// The brick `x` extent: `fold_factor · vector_width` — the width
    /// the vector kernel is generated at.
    pub fn width(&self) -> usize {
        self.vector_width * self.fold_factor as usize
    }

    /// Full brick dimensions of this specialization.
    pub fn brick_dims(&self) -> BrickDims {
        BrickDims::new(self.width(), self.block_yz.0, self.block_yz.1)
    }

    /// The generator options this specialization resolves to. The
    /// vector width is *not* part of [`CodegenOptions`] — pass
    /// [`SpecParams::width`] as the `width` argument of
    /// [`crate::generate`].
    pub fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: self.strategy,
            block_yz: self.block_yz,
            temporal_degree: self.temporal_degree,
        }
    }

    /// Canonical `name=value;…` rendering — the content the fingerprint
    /// and every cache key are derived from. Field order is part of the
    /// contract; adding a field is a schema change for consumers.
    pub fn desc(&self) -> String {
        format!(
            "vw={};fold={};by={};bz={};ord={:?};strat={};chunk={};t={}",
            self.vector_width,
            self.fold_factor,
            self.block_yz.0,
            self.block_yz.1,
            self.ordering,
            self.strategy,
            self.interleave_chunk,
            self.temporal_degree,
        )
    }

    /// Stable 64-bit fingerprint of the specialization vector (FNV-1a
    /// over [`SpecParams::desc`]) — identical across runs, platforms and
    /// processes.
    pub fn fingerprint(&self) -> u64 {
        brick_obs::manifest::fnv1a64(self.desc().as_bytes())
    }
}

impl fmt::Display for SpecParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}({}v{}) {:?} {} ic{} T{}",
            self.block_yz.1,
            self.block_yz.0,
            self.width(),
            self.fold_factor,
            self.vector_width,
            self.ordering,
            self.strategy,
            self.interleave_chunk,
            self.temporal_degree,
        )
    }
}

impl From<&SpecParams> for CodegenOptions {
    fn from(p: &SpecParams) -> CodegenOptions {
        p.codegen_options()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_codegen_defaults() {
        let p = SpecParams::paper_default(32);
        assert_eq!(p.width(), 32);
        assert_eq!(p.brick_dims(), BrickDims::for_simd_width(32));
        let o = p.codegen_options();
        assert_eq!(o.block_yz, CodegenOptions::default().block_yz);
        assert_eq!(o.temporal_degree, 1);
    }

    #[test]
    fn folding_scales_the_row() {
        let p = SpecParams {
            fold_factor: 2,
            ..SpecParams::paper_default(32)
        };
        assert_eq!(p.width(), 64);
        assert_eq!(p.brick_dims().bx, 64);
    }

    #[test]
    fn fingerprint_separates_every_axis() {
        let base = SpecParams::paper_default(32);
        let variants = [
            SpecParams {
                vector_width: 16,
                ..base
            },
            SpecParams {
                fold_factor: 2,
                ..base
            },
            SpecParams {
                block_yz: (8, 4),
                ..base
            },
            SpecParams {
                ordering: BrickOrdering::Morton,
                ..base
            },
            SpecParams {
                strategy: Strategy::Scatter,
                ..base
            },
            SpecParams {
                interleave_chunk: 256,
                ..base
            },
            SpecParams {
                temporal_degree: 2,
                ..base
            },
        ];
        let mut fps = vec![base.fingerprint()];
        for v in variants {
            let fp = v.fingerprint();
            assert!(!fps.contains(&fp), "fingerprint collision: {v}");
            fps.push(fp);
        }
    }

    #[test]
    fn desc_is_stable() {
        // The canonical rendering is a cache-key ingredient: changing it
        // silently retires every cached tuner cell, so pin it.
        assert_eq!(
            SpecParams::paper_default(32).desc(),
            "vw=32;fold=1;by=4;bz=4;ord=Lexicographic;strat=gather;chunk=1024;t=1"
        );
    }
}
