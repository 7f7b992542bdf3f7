//! The repo's standing conformance suite: every consensus algorithm is
//! cross-checked against brute-force possible-worlds enumeration on seeded
//! small instances (see `cpdb_testkit`). Exact algorithms must match the
//! enumerated optimum to 1e-9; approximation algorithms must respect their
//! proven factors and never beat the oracle.
//!
//! Any future refactor, optimisation, or re-architecture of the consensus
//! algorithms must keep this suite green — it pins the paper's theorems to
//! executable checks, independently of the per-crate unit tests.

use cpdb_testkit::conformance::{self, run_seed};
use cpdb_testkit::fixtures;

/// The seed sweep: 16 deterministic fixture families covering 4–7 tuple
/// instances, 2–4 block BID relations, 2–3 group aggregates, and 5–7 tuple
/// clustering instances of varying cohesion.
const SEEDS: std::ops::Range<u64> = 0..16;

#[test]
fn full_conformance_sweep() {
    let mut total_checks = 0;
    for seed in SEEDS {
        let summary = run_seed(seed);
        assert!(
            summary.checks >= 40,
            "seed {seed} ran only {} checks — a fixture degenerated",
            summary.checks
        );
        total_checks += summary.checks;
    }
    // A shrinking count means checks were silently dropped, not just moved.
    assert!(
        total_checks >= 16 * 40,
        "conformance sweep shrank to {total_checks} total checks"
    );
}

#[test]
fn set_and_jaccard_checks_run_on_larger_independent_instances() {
    // One deliberately larger tuple-independent instance (seed chosen to hit
    // the 7-tuple ceiling) exercises the oracles near their budget.
    for seed in [3, 7, 11] {
        conformance::check_set_consensus(&fixtures::small_tuple_independent_tree(seed));
        conformance::check_jaccard(&fixtures::small_tuple_independent(seed));
    }
}

#[test]
fn jaccard_scan_matches_the_oracle_and_reference_on_edge_trees() {
    for (label, tree) in fixtures::jaccard_edge_trees() {
        assert!(
            conformance::check_jaccard_tree(label, &tree) > 0,
            "{label}: no Jaccard checks ran"
        );
    }
}

#[test]
fn topk_checks_cover_k_beyond_instance_size() {
    // k larger than the number of keys must degrade gracefully (k is clamped
    // inside the checks) and still verify optimality.
    let tree = fixtures::small_bid_tree(1);
    assert!(conformance::check_topk_means(&tree, 10) > 0);
    assert!(conformance::check_topk_median_dp(&tree, 10) > 0);
}
