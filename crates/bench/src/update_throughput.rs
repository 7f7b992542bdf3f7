//! Live-update maintenance workload: the `update` suite of the `ledger`
//! driver, and the live-engine fixtures the durable suites share.
//!
//! The workload models a warm serving engine absorbing one [`TreeDelta`] of
//! each kind and compares, per kind:
//!
//! * **patch** — [`ConsensusEngine::apply_delta`]: the delta-aware
//!   maintenance that keeps untouched artifacts (`Arc`-shared), patches the
//!   pairwise/marginal artifacts selectively, and drops only globally-
//!   invalidated ones;
//! * **full rebuild** — the pre-`cpdb_live` alternative: build a fresh
//!   engine from the mutated tree and recompute the same artifact families
//!   the patch path hands over warm (the `O(n²)` pairwise tournament, the
//!   co-clustering weights, and the set-query tables).
//!
//! Every measurement first asserts the two engines answer a probe batch
//! identically — the speedups below are for *bit-identical* serving state.

use crate::sample::{time_ms, Sample};
use cpdb_engine::{
    ConsensusEngine, ConsensusEngineBuilder, DeltaReport, Query, SetMetric, TopKMetric, TreeDelta,
    Variant,
};

/// The warm serving tree (`n` scored BID blocks × 2 alternatives — the same
/// family the artifact and throughput benches use).
pub fn live_tree(n: usize, seed: u64) -> cpdb_andxor::AndXorTree {
    crate::experiments::scaling_tree(n, seed)
}

/// Builds the serving engine for the workload.
pub fn live_engine(tree: cpdb_andxor::AndXorTree, seed: u64) -> ConsensusEngine {
    ConsensusEngineBuilder::new(tree)
        .seed(seed)
        .kendall_distance_samples(64)
        .build()
        .expect("valid live configuration")
}

/// Warms exactly the artifact families the delta maintenance manages
/// eagerly: the pairwise tournament, the co-clustering weights, and the
/// marginal/candidate tables (via the two set queries). This is also the
/// "full rebuild" work the patch path is measured against.
pub fn warm_maintained_artifacts(engine: &ConsensusEngine) {
    let _ = engine.preference_matrix();
    let _ = engine.coclustering_weights();
    for metric in [SetMetric::SymmetricDifference, SetMetric::Jaccard] {
        engine
            .run(&Query::SetConsensus {
                metric,
                variant: Variant::Mean,
            })
            .expect("set queries are always supported");
    }
}

/// The probe used to assert patched ≡ rebuilt serving state.
pub fn probe() -> Vec<Query> {
    vec![
        Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
        Query::SetConsensus {
            metric: SetMetric::Jaccard,
            variant: Variant::Mean,
        },
        Query::TopK {
            k: 5,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        },
        Query::Clustering { restarts: 4 },
    ]
}

/// One delta per supported kind, addressed against `tree` by content. The
/// probability/value targets pick a mid-fleet block so the affected set is a
/// strict subset of the keys.
pub fn delta_suite(tree: &cpdb_andxor::AndXorTree) -> Vec<(&'static str, TreeDelta)> {
    let keys = tree.keys();
    let mid = keys[keys.len() / 2];
    let leaf = tree.leaves_of_key(mid.0)[0];
    let xor = tree.parent_of(leaf).expect("BID leaves live in blocks");
    let (_, old_p) = tree.children(xor)[0];
    // Order-preserving nudge: move the leaf's value to the midpoint between
    // it and the next distinct value above (the sorted sequence of values —
    // and hence the rank sweep's activation order — is provably unchanged).
    let nudged = tree
        .leaf_alternative(leaf)
        .expect("leaf by construction")
        .value
        .0;
    let values = tree.distinct_values();
    let above = values.iter().copied().find(|&v| v > nudged);
    let preserved_value = match above {
        Some(v) => nudged + (v - nudged) * 0.5,
        None => nudged + 1.0,
    };
    // Insert target: a block with real slack (maybe_fraction leaves ~30% of
    // blocks under-full); falling back to a zero-mass alternative keeps the
    // delta valid even on a fully saturated tree.
    let (insert_xor, insert_key, insert_p) = keys
        .iter()
        .filter_map(|key| {
            let leaf = tree.leaves_of_key(key.0)[0];
            let xor = tree.parent_of(leaf)?;
            let mass: f64 = tree.children(xor).iter().map(|(_, p)| *p).sum();
            (mass < 0.99).then_some((xor, key.0, (1.0 - mass) * 0.5))
        })
        .next()
        .unwrap_or((xor, mid.0, 0.0));
    let other = keys[keys.len() / 3];
    let other_leaf = tree.leaves_of_key(other.0)[0];
    let other_xor = tree.parent_of(other_leaf).expect("BID block");
    vec![
        (
            "xor_probability",
            TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: (old_p * 0.5).max(1e-3),
            },
        ),
        (
            "leaf_value_order_preserving",
            TreeDelta::LeafValue {
                leaf,
                value: preserved_value,
            },
        ),
        (
            "insert_alternative",
            TreeDelta::InsertAlternative {
                xor: insert_xor,
                key: insert_key,
                value: nudged * 0.5,
                probability: insert_p,
            },
        ),
        (
            "remove_alternative",
            TreeDelta::RemoveAlternative {
                xor: other_xor,
                leaf: other_leaf,
            },
        ),
        (
            "insert_tuple_block",
            TreeDelta::InsertTupleBlock {
                under: tree.root(),
                key: keys.iter().map(|k| k.0).max().unwrap_or(0) + 1,
                alternatives: vec![(5e5, 0.4), (2e5, 0.3)],
            },
        ),
    ]
}

/// One measured delta kind.
pub struct KindResult {
    /// Delta-kind label.
    pub kind: &'static str,
    /// Milliseconds for `apply_delta`.
    pub patch_ms: Sample,
    /// Milliseconds for the fresh-engine rebuild of the same warm artifact
    /// families.
    pub rebuild_ms: Sample,
    /// Artifact decisions of the patch path.
    pub report: DeltaReport,
}

impl KindResult {
    /// `rebuild / patch` on the best-of timings — how much faster the
    /// maintenance path publishes a warm next epoch.
    pub fn speedup(&self) -> f64 {
        self.rebuild_ms.best() / self.patch_ms.best()
    }
}

/// A WAL-growing delta sequence: leaf-value updates cycling over the
/// tree's leaves — always valid, and each one replays through the
/// delta-aware maintenance path on recovery.
pub fn leaf_deltas(tree: &cpdb_andxor::AndXorTree, count: usize) -> Vec<TreeDelta> {
    let leaves = tree.leaf_nodes();
    (0..count)
        .map(|i| TreeDelta::LeafValue {
            leaf: leaves[i % leaves.len()],
            value: 40.0 + (i % 53) as f64,
        })
        .collect()
}

/// Measures every delta kind against one warm engine of `n` blocks,
/// asserting patched ≡ rebuilt answers on each kind.
pub fn measure_kinds(n: usize, seed: u64, reps: usize) -> Vec<KindResult> {
    let tree = live_tree(n, seed);
    let warm = live_engine(tree.clone(), seed);
    warm_maintained_artifacts(&warm);
    let queries = probe();
    delta_suite(&tree)
        .into_iter()
        .map(|(kind, delta)| {
            let (patched, report) = warm.apply_delta(&delta).expect("suite deltas are valid");
            assert!(
                kind != "leaf_value_order_preserving" || report.impact.rank_order_preserved,
                "the order-preserving nudge changed the rank order; the kind would \
                 measure the wrong maintenance path"
            );
            let rebuilt = live_engine(patched.tree().clone(), seed);
            warm_maintained_artifacts(&rebuilt);
            assert_eq!(
                patched.run_batch_serial(&queries),
                rebuilt.run_batch_serial(&queries),
                "patched epoch diverges from full rebuild for {kind}"
            );
            let patch_ms = time_ms(reps, || warm.apply_delta(&delta).expect("valid"));
            let rebuild_ms = time_ms(reps, || {
                let fresh = live_engine(patched.tree().clone(), seed);
                warm_maintained_artifacts(&fresh);
                fresh
            });
            KindResult {
                kind,
                patch_ms,
                rebuild_ms,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_delta_kind_and_patches_win_shape() {
        let results = measure_kinds(24, 5, 1);
        assert_eq!(results.len(), 5);
        let prob = &results[0];
        assert_eq!(prob.kind, "xor_probability");
        // The selective contract: a probability delta keeps and patches.
        assert!(prob.report.kept() >= 1, "{:?}", prob.report);
        assert!(prob.report.patched() >= 1, "{:?}", prob.report);
        // The order-preserving value delta keeps its rank contexts… none are
        // built in this workload (set/pairwise only), so just check it ran.
        assert!(results
            .iter()
            .all(|r| r.patch_ms.best() > 0.0 && r.rebuild_ms.best() > 0.0));
    }
}
