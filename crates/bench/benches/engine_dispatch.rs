//! Engine dispatch overhead and the caching win: a 4-metric Top-k batch
//! through `ConsensusEngine::run_batch` (rank-probability PMFs computed once
//! and shared) against four direct free-function calls that each rebuild
//! their `TopKContext` from scratch.

use cpdb_bench::experiments::scaling_tree;
use cpdb_consensus::topk::{footrule, intersection, sym_diff};
use cpdb_consensus::TopKContext;
use cpdb_engine::{ConsensusEngineBuilder, Query, TopKMetric, Variant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The PMF-bound metrics: rank-context construction dominates each of these,
/// so sharing one context across the batch is the measurable win. (Kendall is
/// excluded from the cold comparison — its n² pairwise tournament dwarfs the
/// PMF cost on both sides and would mask the effect; it joins the warm-cache
/// measurement below instead.)
fn exact_metric_batch(k: usize) -> Vec<Query> {
    [
        TopKMetric::SymmetricDifference,
        TopKMetric::Intersection,
        TopKMetric::Footrule,
    ]
    .into_iter()
    .map(|metric| Query::TopK {
        k,
        metric,
        variant: Variant::Mean,
    })
    .collect()
}

/// All four metrics, for the warm-cache (steady-state serving) measurement.
fn full_metric_batch(k: usize) -> Vec<Query> {
    let mut queries = exact_metric_batch(k);
    queries.push(Query::TopK {
        k,
        metric: TopKMetric::Kendall,
        variant: Variant::Mean,
    });
    queries
}

fn bench_engine_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_dispatch");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[200usize, 500] {
        for &k in &[5usize, 10] {
            let tree = scaling_tree(n, 7);
            let queries = exact_metric_batch(k);

            // Batched: one engine per iteration (cold caches), so the
            // measured time includes exactly one PMF construction shared by
            // the three queries.
            group.bench_with_input(
                BenchmarkId::new("run_batch_shared_pmf", format!("n{n}_k{k}")),
                &(&tree, &queries),
                |b, (tree, queries)| {
                    b.iter(|| {
                        let engine = ConsensusEngineBuilder::new((*tree).clone())
                            .seed(7)
                            .build()
                            .expect("valid configuration");
                        let results = engine.run_batch(queries);
                        // The caching contract of the batch: the rank PMFs
                        // were built once, not once per query.
                        assert_eq!(engine.cache_stats().rank_context_builds, 1);
                        black_box(results)
                    })
                },
            );

            // Direct: three free-function calls, each rebuilding its context
            // the way pre-engine callers had to.
            group.bench_with_input(
                BenchmarkId::new("direct_rebuilt_contexts", format!("n{n}_k{k}")),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        let ctx = TopKContext::new(tree, k);
                        let a = sym_diff::mean_topk_sym_diff(&ctx).unwrap();
                        let ctx = TopKContext::new(tree, k);
                        let b2 = intersection::mean_topk_intersection(&ctx);
                        let ctx = TopKContext::new(tree, k);
                        let c2 = footrule::mean_topk_footrule(&ctx);
                        black_box((a, b2, c2))
                    })
                },
            );
        }
    }

    // Warm engine over all four metrics: the steady-state serving cost once
    // every artifact (PMF + Kendall tournament) is cached — the
    // batching/caching seam the ROADMAP asks for.
    for &n in &[200usize] {
        for &k in &[5usize, 10] {
            let tree = scaling_tree(n, 7);
            let queries = full_metric_batch(k);
            let warm = ConsensusEngineBuilder::new(tree)
                .seed(7)
                .build()
                .expect("valid configuration");
            let _ = warm.run_batch(&queries);
            group.bench_with_input(
                BenchmarkId::new("run_batch_warm_cache", format!("n{n}_k{k}")),
                &queries,
                |b, queries| b.iter(|| black_box(warm.run_batch(queries))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_dispatch);
criterion_main!(benches);
