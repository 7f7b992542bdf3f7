//! Concurrency gate for the shared-cache `ConsensusEngine`: N threads
//! running shuffled mixed-query batches against **one** shared engine must
//! produce answers bit-identical to a serial `run` loop, with every shared
//! artifact built exactly once, and the parallel `run_batch` must
//! match the serial reference at every thread count (the testkit runs the
//! same check inside the per-seed conformance sweep; this test hammers a
//! larger instance harder).

use consensus_pdb::engine::{
    BaselineKind, ConsensusEngineBuilder, Query, SetMetric, TopKMetric, Variant,
};
use cpdb_testkit::conformance::check_engine_concurrency;
use cpdb_testkit::fixtures;
use cpdb_workloads::{random_clustering_tree, ClusteringConfig};

/// A mid-size attribute-uncertainty tree: big enough that artifact builds
/// overlap across threads, small enough to keep the gate fast.
fn hammer_tree() -> cpdb_andxor::AndXorTree {
    random_clustering_tree(&ClusteringConfig {
        num_tuples: 24,
        num_values: 6,
        cohesion: 0.6,
        absence: 0.15,
        seed: 42,
    })
}

/// Every query family, several `k`s, plus duplicates and failing queries so
/// the error path is exercised under concurrency too.
fn mixed_queries(n: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    for k in [1usize, 2, 3, 5] {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            queries.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        queries.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        queries.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k },
        });
        queries.push(Query::Baseline {
            kind: BaselineKind::ProbabilisticThreshold { k, threshold: 0.4 },
        });
    }
    queries.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    queries.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Median,
    });
    queries.push(Query::SetConsensus {
        metric: SetMetric::Jaccard,
        variant: Variant::Mean,
    });
    queries.push(Query::Clustering { restarts: 4 });
    queries.push(Query::Clustering { restarts: 8 });
    queries.push(Query::TopK {
        k: n + 3,
        metric: TopKMetric::Footrule,
        variant: Variant::Mean, // out of range
    });
    queries.push(Query::TopK {
        k: 2,
        metric: TopKMetric::Kendall,
        variant: Variant::Median, // unsupported
    });
    // Duplicates: production batches repeat popular queries; dedup must
    // return bit-identical clones.
    queries.push(Query::TopK {
        k: 2,
        metric: TopKMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    queries.push(Query::Clustering { restarts: 8 });
    queries
}

/// The `k` of every rank-context build `obs` recorded, in the order the
/// builds finished (the engine labels each build event `rank_context[k=…]`).
fn rank_context_build_ks(obs: &cpdb_obs::Obs) -> Vec<usize> {
    obs.recent_events(usize::MAX)
        .iter()
        .filter_map(|e| {
            let rest = e.detail.strip_prefix("rank_context[k=")?;
            rest.split(']').next()?.parse().ok()
        })
        .collect()
}

/// A deterministic per-thread shuffle (seeded LCG Fisher–Yates) so each
/// thread visits the shared engine in a different order without pulling in
/// RNG plumbing.
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

#[test]
fn shuffled_thread_batches_match_the_serial_loop_exactly() {
    let tree = hammer_tree();
    let n = tree.keys().len();
    let queries = mixed_queries(n);
    let build = || {
        ConsensusEngineBuilder::new(tree.clone())
            .seed(2009)
            .build()
            .expect("valid configuration")
    };
    let serial = build().run_batch_serial(&queries);

    let obs = cpdb_obs::Obs::with_event_capacity(1 << 12);
    let engine = build().with_obs(obs.clone());
    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, queries, serial) = (&engine, &queries, &serial);
                scope.spawn(move || {
                    for at in shuffled(queries.len(), t as u64 + 1) {
                        let got = engine.run(&queries[at]);
                        assert_eq!(
                            got, serial[at],
                            "thread {t} diverged from the serial loop on {:?}",
                            queries[at]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
    });

    // 6 threads × the full mixed batch, yet one co-clustering matrix and one
    // marginal table were built, and no tournament. The rank context is built at
    // most once per valid k (4 of them), at increasing k whatever the
    // schedule, and the largest valid k (5) stays resident.
    let stats = engine.cache_stats();
    let built = rank_context_build_ks(&obs);
    assert!(stats.rank_context_builds <= 4, "{stats:?}");
    assert_eq!(built.len(), stats.rank_context_builds, "{built:?}");
    assert!(built.windows(2).all(|w| w[0] < w[1]), "{built:?}");
    assert_eq!(engine.export().context.map(|c| c.k), Some(5));
    assert_eq!(stats.preference_builds, 0, "{stats:?}");
    assert_eq!(stats.coclustering_builds, 1, "{stats:?}");
    assert_eq!(stats.marginal_builds, 1, "{stats:?}");
    // Hit accounting stays conserved under concurrency: every context access
    // either ran the one build or recorded a hit, so the hits are exactly
    // (context-needing queries × threads) − builds.
    let context_queries = queries
        .iter()
        .filter(|q| {
            matches!(
                q,
                Query::TopK { k, variant, metric } if *k <= n
                    && !(*variant == Variant::Median && *metric != TopKMetric::SymmetricDifference)
            ) || matches!(q, Query::Baseline { .. })
        })
        .count();
    assert_eq!(
        stats.rank_context_hits,
        context_queries * THREADS - stats.rank_context_builds,
        "{stats:?}"
    );
}

#[test]
fn parallel_run_batch_matches_serial_at_every_thread_count_on_fixtures() {
    // The same gate the conformance sweep runs, over a couple of extra seeds
    // so the integration suite exercises trees the sweep's default seed
    // misses.
    for seed in [5u64, 11] {
        let tree = fixtures::small_bid_tree(seed);
        let groupby = fixtures::small_groupby(seed);
        let checks = check_engine_concurrency(&tree, &groupby, seed);
        assert!(checks >= 20, "concurrency check shrank to {checks} checks");
    }
}

#[test]
fn warm_clone_serves_across_threads_without_rebuilding() {
    let tree = hammer_tree();
    let engine = ConsensusEngineBuilder::new(tree)
        .seed(7)
        .build()
        .expect("valid configuration");
    let queries = vec![
        Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        },
        Query::TopK {
            k: 2,
            metric: TopKMetric::Intersection,
            variant: Variant::Mean,
        },
    ];
    let expected = engine.run_batch(&queries);
    let builds_before = engine.cache_stats().rank_context_builds;
    // Clones share the built artifacts: worker clones answer warm.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let clone = engine.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                assert_eq!(clone.run_batch(&queries), expected);
                assert_eq!(
                    clone.cache_stats().rank_context_builds,
                    builds_before,
                    "a warm clone rebuilt an artifact"
                );
            });
        }
    });
    assert_eq!(engine.cache_stats().rank_context_builds, builds_before);
}
