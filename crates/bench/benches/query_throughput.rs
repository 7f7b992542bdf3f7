//! Sustained query throughput of one shared `ConsensusEngine`: the serial
//! `run` loop vs. the parallel `run_batch` on mixed serving
//! batches, warm (artifacts cached — the paper's serving regime) and cold
//! (first batch pays the artifact builds). The `query_throughput` binary
//! emits the same measurements as JSON for the perf-smoke CI gate.

use cpdb_bench::query_throughput::{assert_identical, mixed_batch, serving_engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_query_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_throughput");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[120usize] {
        for &dup in &[1usize, 4] {
            let batch = mixed_batch(&[5, 10], dup);
            // Warm: one engine holds every artifact; both executors answer
            // the same batch from cache.
            let warm = serving_engine(n, 7, 0);
            assert_identical(&warm.run_batch_serial(&batch), &warm.run_batch(&batch));
            group.bench_with_input(
                BenchmarkId::new("warm_serial_loop", format!("n{n}_dup{dup}")),
                &(&warm, &batch),
                |b, (engine, batch)| b.iter(|| black_box(engine.run_batch_serial(batch))),
            );
            group.bench_with_input(
                BenchmarkId::new("warm_parallel_batch", format!("n{n}_dup{dup}")),
                &(&warm, &batch),
                |b, (engine, batch)| b.iter(|| black_box(engine.run_batch(batch))),
            );
            // Cold: a fresh engine per iteration, so the measured time
            // includes the artifact builds.
            group.bench_with_input(
                BenchmarkId::new("cold_parallel_batch", format!("n{n}_dup{dup}")),
                &batch,
                |b, batch| {
                    b.iter(|| {
                        let engine = serving_engine(n, 7, 0);
                        black_box(engine.run_batch(batch))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query_throughput);
criterion_main!(benches);
