//! Integration gate for the epoch/snapshot contract of `cpdb_live`:
//! concurrent readers hammering pinned snapshots while a writer streams
//! deltas must (1) never see an answer change under a pinned epoch, (2)
//! always read a consistent epoch, and (3) end up with the same final state
//! a serial delta replay produces.

use consensus_pdb::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn sensor_tree(n: usize) -> AndXorTree {
    let mut b = AndXorTreeBuilder::new();
    let mut xors = Vec::new();
    for key in 0..n as u64 {
        let hi = b.leaf_parts(key + 1, 60.0 + (key * 7 % 40) as f64);
        let lo = b.leaf_parts(key + 1, 30.0 + (key * 11 % 25) as f64);
        xors.push(b.xor_node(vec![(hi, 0.45), (lo, 0.35)]));
    }
    let root = b.and_node(xors);
    b.build(root).unwrap()
}

fn engine(tree: AndXorTree) -> ConsensusEngine {
    ConsensusEngineBuilder::new(tree).seed(42).build().unwrap()
}

fn probe() -> Vec<Query> {
    vec![
        Query::TopK {
            k: 3,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
        Query::TopK {
            k: 3,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        },
        Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
    ]
}

/// The delta stream: re-weight one block per step, round-robin. The sibling
/// alternative carries mass 0.35, so probabilities stay within 0.2..=0.59
/// and every block keeps total mass ≤ 1.
fn delta_at(tree: &AndXorTree, step: usize) -> TreeDelta {
    let keys = tree.keys();
    let key = keys[step % keys.len()];
    let leaf = tree.leaves_of_key(key.0)[0];
    TreeDelta::XorEdgeProbability {
        xor: tree.parent_of(leaf).unwrap(),
        child: leaf,
        probability: 0.2 + ((step * 13) % 40) as f64 / 100.0,
    }
}

#[test]
fn pinned_snapshots_survive_concurrent_epoch_swaps() {
    const STEPS: usize = 24;
    let live = LiveEngine::new(engine(sensor_tree(8)));
    let queries = probe();
    // Warm epoch 0 so later epochs exercise the keep/patch paths.
    for answer in live.snapshot().run_batch_serial(&queries) {
        answer.unwrap();
    }
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (live, queries, done) = (&live, &queries, &done);
                scope.spawn(move || {
                    let mut swaps_observed = 0u64;
                    let mut last_epoch = 0;
                    // Bounded loop: a writer failure must not strand the
                    // readers in an endless wait for `done`.
                    for _ in 0..100_000 {
                        if done.load(Ordering::Relaxed) && swaps_observed > 0 {
                            break;
                        }
                        let snap = live.snapshot();
                        let first = snap.run_batch_serial(queries);
                        // A pinned epoch never changes its answers, no
                        // matter how many epochs the writer publishes.
                        let second = snap.run_batch_serial(queries);
                        assert_eq!(first, second, "epoch {}", snap.epoch());
                        assert!(snap.epoch() >= last_epoch, "epochs went backwards");
                        if snap.epoch() != last_epoch {
                            swaps_observed += 1;
                            last_epoch = snap.epoch();
                        }
                    }
                    swaps_observed
                })
            })
            .collect();

        let writer = scope.spawn(|| {
            for step in 0..STEPS {
                let snap = live.snapshot();
                let outcome = live.apply(&delta_at(snap.tree(), step)).unwrap();
                assert_eq!(outcome.epoch, step as u64 + 1);
            }
            done.store(true, Ordering::Relaxed);
        });

        writer.join().unwrap();
        for reader in readers {
            assert!(reader.join().unwrap() >= 1, "reader never saw a swap");
        }
    });

    // The concurrent run lands exactly where a serial replay does.
    assert_eq!(live.epoch(), STEPS as u64);
    let mut serial_tree = sensor_tree(8);
    for step in 0..STEPS {
        let delta = delta_at(&serial_tree, step);
        serial_tree = serial_tree.apply_delta(&delta).unwrap().0;
    }
    assert_eq!(live.snapshot().tree(), &serial_tree);
    assert_eq!(
        live.snapshot().run_batch_serial(&queries),
        engine(serial_tree).run_batch_serial(&queries)
    );
}

#[test]
fn delta_stream_stats_prove_selective_maintenance() {
    let live = LiveEngine::new(engine(sensor_tree(10)));
    // Clustering builds the co-clustering weights, which the probability
    // deltas patch beside the marginal table.
    let mut queries = probe();
    queries.push(Query::Clustering { restarts: 2 });
    for answer in live.snapshot().run_batch_serial(&queries) {
        answer.unwrap();
    }
    for step in 0..5 {
        let snap = live.snapshot();
        for answer in snap.run_batch_serial(&queries) {
            answer.unwrap();
        }
        live.apply(&delta_at(snap.tree(), step)).unwrap();
    }
    let stats = live.snapshot().engine().cache_stats();
    // Five probability epochs: the marginal table and the co-clustering
    // weights were patched five times each, and at most the rank context dropped per
    // epoch — never a blanket rebuild.
    assert!(stats.delta_patched >= 10, "{stats:?}");
    assert!(stats.delta_invalidated <= 5, "{stats:?}");
}
