//! E5: median Top-k answers via the Theorem 4 dynamic program.

use cpdb_bench::experiments::scaling_tree;
use cpdb_consensus::topk::median_dp;
use cpdb_consensus::TopKContext;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_topk_median(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_median_dp");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[50usize, 100, 200] {
        for &k in &[5usize, 10] {
            let tree = scaling_tree(n, 3);
            let ctx = TopKContext::new(&tree, k);
            group.bench_with_input(
                BenchmarkId::new("theorem4_dp", format!("n{n}_k{k}")),
                &(&tree, &ctx),
                |b, (tree, ctx)| {
                    b.iter(|| black_box(median_dp::median_topk_sym_diff(tree, ctx).unwrap()))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk_median);
criterion_main!(benches);
