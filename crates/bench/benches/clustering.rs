//! E11: consensus clustering — pairwise weight computation and pivot
//! clustering.

use cpdb_consensus::clustering::{pivot_clustering_best_of, CoClusteringWeights};
use cpdb_workloads::{random_clustering_tree, ClusteringConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[30usize, 60, 100] {
        let tree = random_clustering_tree(&ClusteringConfig {
            num_tuples: n,
            num_values: 5,
            cohesion: 0.7,
            absence: 0.1,
            seed: 17,
        });
        group.bench_with_input(BenchmarkId::new("pairwise_weights", n), &tree, |b, tree| {
            b.iter(|| black_box(CoClusteringWeights::from_tree(tree, 0)))
        });
        let weights = CoClusteringWeights::from_tree(&tree, 0);
        group.bench_with_input(
            BenchmarkId::new("pivot_best_of_16", n),
            &weights,
            |b, weights| {
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| black_box(pivot_clustering_best_of(weights, 16, &mut rng)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
