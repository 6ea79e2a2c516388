//! The profile-tree structure contract: the merged profile of a sweep is
//! byte-identical at any `--jobs` count, and the runner's phase spans
//! attribute ≥95% of a cold sweep's wall time.
//!
//! One `#[test]` function on purpose: the span store is process-global,
//! so the three captures must run sequentially in a known order.
//!
//! The compared structure is the *deterministic skeleton* — the span
//! categories the runner emits unconditionally (`sweep`, `sched`, `cell`,
//! `phase`, `record`). Deeper spans (e.g. `memory-sim:*` inside the
//! simulate phase) are attached to whichever racing cell computed the
//! shared memo first; the memo contract guarantees identical *values* at
//! any schedule, but the span legitimately moves between equivalent
//! parents, so it is pruned before comparison.

use brick_prof::{ProfileNode, ProfileTree, SweepProfile};
use experiments::{sweep_with, ExperimentParams, SweepOptions};

/// Keep only the runner's unconditional span categories (dropping a node
/// drops its subtree).
fn prune(nodes: &[ProfileNode]) -> Vec<ProfileNode> {
    const KEEP: &[&str] = &["sweep", "sched", "cell", "phase", "record"];
    nodes
        .iter()
        .filter(|n| KEEP.contains(&n.cat.as_str()))
        .map(|n| ProfileNode {
            children: prune(&n.children),
            ..n.clone()
        })
        .collect()
}

#[test]
fn profile_structure_is_jobs_invariant_and_attribution_covers_the_sweep() {
    brick_prof::init();
    brick_obs::set_tracing(true);

    let mut skeletons: Vec<(usize, String)> = Vec::new();
    for jobs in [1usize, 2, 8] {
        brick_obs::clear_spans();
        let opts = SweepOptions::new(ExperimentParams { n: 64 }).jobs(jobs);
        let sweep = sweep_with(&opts).expect("sweep runs");
        assert_eq!(sweep.records.len(), 6 * 3 * 6);
        assert_eq!(sweep.manifest.jobs, Some(jobs as u64));
        // no cache configured: every cell misses nothing, hits nothing
        assert_eq!(sweep.manifest.cache_hits, 0);
        assert_eq!(sweep.manifest.cache_misses, 0);

        let spans = brick_obs::trace::spans_data();
        if jobs == 1 {
            // acceptance bar: ≥95% of a cold serial sweep's wall time is
            // attributed to named phases
            let profile = SweepProfile::from_spans(&spans);
            assert!(
                profile.attributed_frac >= 0.95,
                "attributed only {:.1}% of wall time\nphases: {:?}",
                profile.attributed_frac * 100.0,
                profile
                    .phases
                    .iter()
                    .map(|p| (&p.name, p.total_ns))
                    .collect::<Vec<_>>()
            );
            // and every runner phase actually appears
            for phase in ["rooflines", "lint-verify", "compile", "simulate", "score"] {
                assert!(
                    profile.phases.iter().any(|p| p.name == phase),
                    "phase {phase} missing from {:?}",
                    profile.phases.iter().map(|p| &p.name).collect::<Vec<_>>()
                );
            }
        }

        let tree = ProfileTree::build(&spans);
        let skeleton = ProfileTree {
            roots: prune(&tree.roots),
        }
        .structure_string();
        assert!(
            skeleton.contains("sweep:64^3;sweep.cells;sweep.cells[*]"),
            "cells not re-parented under the scheduler span:\n{skeleton}"
        );
        skeletons.push((jobs, skeleton));
    }
    brick_obs::set_tracing(false);
    brick_obs::clear_spans();

    let (_, reference) = &skeletons[0];
    for (jobs, skeleton) in &skeletons[1..] {
        assert_eq!(
            skeleton, reference,
            "profile structure differs between --jobs 1 and --jobs {jobs}"
        );
    }
}
