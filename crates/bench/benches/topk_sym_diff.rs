//! E4: mean Top-k answers under the symmetric-difference metric (Theorem 3).

use cpdb_bench::experiments::scaling_tree;
use cpdb_consensus::topk::sym_diff;
use cpdb_consensus::TopKContext;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_topk_sym_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_sym_diff");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[200usize, 500, 1000] {
        for &k in &[5usize, 25] {
            let tree = scaling_tree(n, 7);
            group.bench_with_input(
                BenchmarkId::new("context_build", format!("n{n}_k{k}")),
                &(&tree, k),
                |b, (tree, k)| b.iter(|| black_box(TopKContext::new(tree, *k))),
            );
            let ctx = TopKContext::new(&tree, k);
            group.bench_with_input(
                BenchmarkId::new("theorem3_selection", format!("n{n}_k{k}")),
                &ctx,
                |b, ctx| b.iter(|| black_box(sym_diff::mean_topk_sym_diff(ctx).unwrap())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk_sym_diff);
criterion_main!(benches);
