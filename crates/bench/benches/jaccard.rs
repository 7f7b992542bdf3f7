//! E3: consensus worlds under the Jaccard distance (Lemmas 1–2).

use cpdb_consensus::jaccard;
use cpdb_model::WorldModel;
use cpdb_workloads::{random_tuple_independent, TupleIndependentConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_jaccard(c: &mut Criterion) {
    let mut group = c.benchmark_group("jaccard");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[25usize, 50, 100] {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: n,
            ..Default::default()
        });
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let candidate = cpdb_model::PossibleWorld::from_trusted(
            db.tuples().iter().take(n / 2).map(|(a, _)| *a).collect(),
        );
        group.bench_with_input(
            BenchmarkId::new("lemma1_expected_distance", n),
            &(&tree, &candidate),
            |b, (tree, candidate)| {
                b.iter(|| black_box(jaccard::expected_jaccard_distance(tree, candidate)))
            },
        );
        group.bench_with_input(BenchmarkId::new("lemma2_mean_world", n), &db, |b, db| {
            b.iter(|| black_box(jaccard::mean_world_tuple_independent(db).unwrap()));
        });
    }
    // One small exhaustive check to keep the bench honest about correctness.
    let db = random_tuple_independent(&TupleIndependentConfig {
        num_tuples: 8,
        ..Default::default()
    });
    let brute = db.enumerate_worlds();
    group.bench_function("oracle_enumeration_n8", |b| {
        b.iter(|| {
            black_box(cpdb_consensus::oracle::brute_force_mean_world(
                &brute,
                |a, w| a.jaccard_distance(w),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_jaccard);
criterion_main!(benches);
