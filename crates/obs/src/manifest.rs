//! Run provenance: what produced an artifact, and at what cost.
//!
//! A [`RunManifest`] is assembled by the sweep runner and serialized next
//! to (or inside) the artifacts it describes, so a saved result can be
//! traced back to a commit and configuration, and its per-record wall
//! times inspected with `bricks obs`.

use serde::{Deserialize, Serialize};

use crate::metrics::metrics_recorded;
use crate::span::spans_recorded;

/// Provenance and cost accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Commit SHA of the working tree, when run inside a git checkout.
    pub git_sha: Option<String>,
    /// FNV-1a hash of the serialized run configuration.
    pub config_hash: u64,
    /// Unix timestamp (seconds) at which the run started.
    pub started_unix: u64,
    /// Total wall time of the run in seconds.
    pub wall_s: f64,
    /// Wall time of each produced record, in run order, seconds.
    pub record_wall_s: Vec<f64>,
    /// Spans recorded during the run (0 unless tracing was enabled).
    pub spans_recorded: u64,
    /// Distinct metrics registered during the run.
    pub metrics_recorded: u64,
    /// Resolved worker-thread count of the run's cell fan-out, when the
    /// producing workload schedules one.
    pub jobs: Option<u64>,
    /// Sweep result-cache hits during this run.
    pub cache_hits: u64,
    /// Sweep result-cache misses during this run.
    pub cache_misses: u64,
    /// Sweep result-cache entries found corrupt during this run.
    pub cache_corrupt: u64,
    /// Temporal fusion degrees the run swept (empty for the unfused base
    /// matrix, where every kernel is implicitly `T = 1`).
    pub temporal_degrees: Vec<u32>,
    /// Fingerprint of the tuning space a tuner run searched (0 for
    /// non-tuner workloads).
    pub tune_space_fingerprint: u64,
    /// Raw candidate cells the tuner enumerated across groups.
    pub tune_raw_cells: u64,
    /// Cells the tuner actually measured (validity survivors, unpruned).
    pub tune_valid_cells: u64,
    /// Cells dropped by the tuner's Roofline upper bound.
    pub tune_pruned_cells: u64,
    /// Cells rejected by the tuner's validity predicates.
    pub tune_skipped_cells: u64,
}

impl RunManifest {
    /// Start a manifest: stamps the start time, config hash and git SHA.
    pub fn begin(config_json: &str) -> RunManifest {
        RunManifest {
            git_sha: git_sha(),
            config_hash: fnv1a64(config_json.as_bytes()),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            ..RunManifest::default()
        }
    }

    /// Finish the manifest with timings and the observability summary.
    pub fn finish(mut self, wall_s: f64, record_wall_s: Vec<f64>) -> RunManifest {
        self.wall_s = wall_s;
        self.record_wall_s = record_wall_s;
        self.spans_recorded = spans_recorded();
        self.metrics_recorded = metrics_recorded();
        self
    }

    /// Record the sweep-level provenance: the resolved worker count and
    /// the run's result-cache outcome counts (hits, misses, corrupt) — the
    /// parts of an incremental run's identity the timing fields alone
    /// cannot reconstruct.
    pub fn with_sweep_info(mut self, jobs: u64, cache: (u64, u64, u64)) -> RunManifest {
        self.jobs = Some(jobs);
        (self.cache_hits, self.cache_misses, self.cache_corrupt) = cache;
        self
    }

    /// Record the worker-thread count of a run that fans out without a
    /// sweep (e.g. the host executor's per-block parallelism).
    pub fn with_jobs(mut self, jobs: u64) -> RunManifest {
        self.jobs = Some(jobs);
        self
    }

    /// Record the temporal fusion degrees a temporal sweep covered, in
    /// sweep order.
    pub fn with_temporal_degrees(mut self, degrees: &[u32]) -> RunManifest {
        self.temporal_degrees = degrees.to_vec();
        self
    }

    /// Record a tuner run's cell accounting: the searched space's
    /// fingerprint and how the raw candidate count decomposed into
    /// measured, pruned and validity-skipped cells.
    pub fn with_tune_info(
        mut self,
        space_fingerprint: u64,
        raw: u64,
        valid: u64,
        pruned: u64,
        skipped: u64,
    ) -> RunManifest {
        self.tune_space_fingerprint = space_fingerprint;
        self.tune_raw_cells = raw;
        self.tune_valid_cells = valid;
        self.tune_pruned_cells = pruned;
        self.tune_skipped_cells = skipped;
        self
    }

    /// Mean per-record wall time in seconds (0.0 with no records).
    pub fn mean_record_s(&self) -> f64 {
        if self.record_wall_s.is_empty() {
            0.0
        } else {
            self.record_wall_s.iter().sum::<f64>() / self.record_wall_s.len() as f64
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Resolve the commit SHA by walking up from the current directory to a
/// `.git` and following `HEAD` — no git binary or library needed.
pub fn git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return sha_from_git_dir(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn sha_from_git_dir(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(refname) => {
            let direct = std::fs::read_to_string(git.join(refname))
                .map(|s| s.trim().to_string())
                .ok();
            direct.or_else(|| {
                // packed refs: "<sha> <refname>" lines
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name.trim() == refname).then(|| sha.to_string())
                })
            })?
        }
        None => head.to_string(), // detached HEAD
    };
    (resolved.len() >= 7 && resolved.bytes().all(|b| b.is_ascii_hexdigit())).then_some(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"{\"n\":256}"), fnv1a64(b"{\"n\":512}"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest {
            git_sha: Some("deadbeefcafe".into()),
            config_hash: 42,
            started_unix: 1_700_000_000,
            wall_s: 12.5,
            record_wall_s: vec![0.5, 1.0],
            spans_recorded: 7,
            metrics_recorded: 3,
            jobs: Some(8),
            cache_hits: 100,
            cache_misses: 8,
            cache_corrupt: 1,
            temporal_degrees: vec![1, 2, 4],
            tune_space_fingerprint: 7,
            tune_raw_cells: 1000,
            tune_valid_cells: 600,
            tune_pruned_cells: 150,
            tune_skipped_cells: 250,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        assert!((back.mean_record_s() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn repo_checkout_yields_a_sha() {
        // The test runs inside this repository's checkout.
        if let Some(sha) = git_sha() {
            assert!(sha.len() >= 7);
            assert!(sha.bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }
}
