//! E8: Kendall-tau consensus via pivot aggregation over exact pairwise order
//! probabilities.

use cpdb_bench::experiments::scaling_tree;
use cpdb_consensus::topk::kendall;
use cpdb_consensus::TopKContext;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_topk_kendall(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_kendall");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[50usize, 100] {
        let k = 10usize;
        let tree = scaling_tree(n, 11);
        let ctx = TopKContext::new(&tree, k);
        group.bench_with_input(
            BenchmarkId::new("preference_matrix", n),
            &tree,
            |b, tree| {
                let keys = tree.keys();
                b.iter(|| black_box(kendall::preference_matrix(tree, &keys, 0)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pivot_consensus", n),
            &(&tree, &ctx),
            |b, (tree, ctx)| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| black_box(kendall::mean_topk_kendall_pivot(tree, ctx, 4, &mut rng)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_topk_kendall);
criterion_main!(benches);
