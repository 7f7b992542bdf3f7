//! E12: the previously proposed ranking semantics vs the consensus answers.

use cpdb_bench::experiments::scaling_tree;
use cpdb_consensus::topk::{footrule, intersection, sym_diff};
use cpdb_consensus::{baselines, TopKContext};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines_vs_consensus");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let n = 300usize;
    let k = 10usize;
    let tree = scaling_tree(n, 21);
    let ctx = TopKContext::new(&tree, k);
    group.bench_with_input(BenchmarkId::new("consensus_sym_diff", n), &ctx, |b, ctx| {
        b.iter(|| black_box(sym_diff::mean_topk_sym_diff(ctx).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("consensus_footrule", n), &ctx, |b, ctx| {
        b.iter(|| black_box(footrule::mean_topk_footrule(ctx)))
    });
    group.bench_with_input(
        BenchmarkId::new("consensus_intersection", n),
        &ctx,
        |b, ctx| b.iter(|| black_box(intersection::mean_topk_intersection(ctx))),
    );
    group.bench_with_input(BenchmarkId::new("expected_score", n), &tree, |b, tree| {
        b.iter(|| black_box(baselines::expected_score_topk(tree, k)))
    });
    group.bench_with_input(
        BenchmarkId::new("expected_rank_5k_samples", n),
        &tree,
        |b, tree| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(baselines::expected_rank_topk(tree, k, 5_000, &mut rng)))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("u_topk_5k_samples", n),
        &tree,
        |b, tree| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(baselines::u_topk(tree, k, 5_000, &mut rng)))
        },
    );
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
