//! Sustained query-throughput workload: the `query` suite of the `ledger`
//! driver.
//!
//! The workload models production serving traffic against one
//! [`ConsensusEngine`]: mixed batches of Top-k queries (all four metrics plus
//! the symmetric-difference median), set-consensus, aggregate, clustering,
//! and baseline queries at several `k`, with each distinct query repeated
//! `dup` times — real traffic repeats popular queries, which is exactly what
//! the batch executor's dedup amortises. Two executors answer the same batch:
//!
//! * **serial** — [`ConsensusEngine::run_batch_serial`], the plain `run`
//!   loop (one query at a time, no dedup);
//! * **parallel** — [`ConsensusEngine::run_batch`]: dedup plus a parallel
//!   fan-out of the distinct queries over `run`.
//!
//! Both are measured **cold** (fresh engine, artifact builds included) and
//! **warm** (engine already holds every artifact — the paper's serving
//! regime, where consensus answers are cheap once the generating-function
//! work is done). Answers are bit-identical between the two executors;
//! [`measure`] asserts it on every scenario.

use crate::sample::{time_ms, Sample};
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_engine::{
    Answer, BaselineKind, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query, SetMetric,
    TopKMetric, Variant,
};

/// The scored-BID serving tree (`n` blocks × 2 alternatives, the same
/// `scaling_tree` family the artifact benches use).
pub fn serving_tree(n: usize, seed: u64) -> cpdb_andxor::AndXorTree {
    crate::experiments::scaling_tree(n, seed)
}

/// A deterministic group-by instance so aggregate queries participate in the
/// mixed traffic.
pub fn serving_groupby(groups: usize, tuples: usize) -> GroupByInstance {
    let probs: Vec<Vec<f64>> = (0..tuples)
        .map(|t| {
            let mut row: Vec<f64> = (0..groups)
                .map(|v| ((t * 7 + v * 13) % 10) as f64 + 1.0)
                .collect();
            let total: f64 = row.iter().sum();
            row.iter_mut().for_each(|p| *p /= total);
            row
        })
        .collect();
    GroupByInstance::new(probs).expect("rows are normalised")
}

/// Builds the serving engine for the workload (`threads` = builder knob, `0`
/// = auto).
pub fn serving_engine(n: usize, seed: u64, threads: usize) -> ConsensusEngine {
    ConsensusEngineBuilder::new(serving_tree(n, seed))
        .seed(seed)
        .groupby(serving_groupby(4, 12))
        .threads(threads)
        .build()
        .expect("valid serving configuration")
}

/// The mixed serving batch: every query family over the given `k`s, each
/// distinct query repeated `dup` times (interleaved, as traffic would
/// arrive). `dup = 1` gives an all-unique batch.
pub fn mixed_batch(ks: &[usize], dup: usize) -> Vec<Query> {
    let mut distinct = Vec::new();
    for &k in ks {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            distinct.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        distinct.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        distinct.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k },
        });
        distinct.push(Query::Baseline {
            kind: BaselineKind::ProbabilisticThreshold { k, threshold: 0.4 },
        });
    }
    distinct.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    distinct.push(Query::SetConsensus {
        metric: SetMetric::Jaccard,
        variant: Variant::Mean,
    });
    distinct.push(Query::Aggregate {
        variant: Variant::Mean,
    });
    distinct.push(Query::Clustering { restarts: 4 });
    let mut batch = Vec::with_capacity(distinct.len() * dup.max(1));
    for _ in 0..dup.max(1) {
        batch.extend(distinct.iter().cloned());
    }
    batch
}

/// Asserts the two executors returned bit-identical batches (the contract
/// every throughput number in the report relies on).
pub fn assert_identical(
    serial: &[Result<Answer, EngineError>],
    parallel: &[Result<Answer, EngineError>],
) {
    assert_eq!(
        serial, parallel,
        "parallel run_batch diverged from the serial loop"
    );
}

/// Queries per second of the best timed run in `batch_ms` over a batch of
/// `batch_len` queries.
pub fn qps(batch_len: usize, batch_ms: &Sample) -> f64 {
    batch_len as f64 / (batch_ms.best() / 1e3)
}

/// One measured (duplication factor, thread count) scenario: the mixed
/// batch's wall-clock under both executors, warm and cold.
pub struct Scenario {
    /// Copies of each distinct query in the batch.
    pub dup: usize,
    /// Builder thread count.
    pub threads: usize,
    /// Queries per batch.
    pub batch_len: usize,
    /// Warm engine, serial `run` loop.
    pub warm_serial_ms: Sample,
    /// Warm engine, parallel `run_batch`.
    pub warm_parallel_ms: Sample,
    /// Fresh engine per run, serial loop (artifact builds on the clock).
    pub cold_serial_ms: Sample,
    /// Fresh engine per run, parallel `run_batch`.
    pub cold_parallel_ms: Sample,
}

impl Scenario {
    /// `dup<d>_t<t>`.
    pub fn label(&self) -> String {
        format!("dup{}_t{}", self.dup, self.threads)
    }

    /// Warm parallel QPS over warm serial QPS, on the best-of timings.
    pub fn warm_speedup(&self) -> f64 {
        self.warm_serial_ms.best() / self.warm_parallel_ms.best()
    }
}

/// Measures one scenario on an `n`-block serving engine, asserting the two
/// executors answer the batch bit-identically first.
pub fn measure(n: usize, seed: u64, reps: usize, dup: usize, threads: usize) -> Scenario {
    let batch = mixed_batch(&[5, 10], dup);
    let warm = serving_engine(n, seed, threads);
    assert_identical(&warm.run_batch_serial(&batch), &warm.run_batch(&batch));
    Scenario {
        dup,
        threads,
        batch_len: batch.len(),
        warm_serial_ms: time_ms(reps, || warm.run_batch_serial(&batch)),
        warm_parallel_ms: time_ms(reps, || warm.run_batch(&batch)),
        cold_serial_ms: time_ms(reps, || {
            serving_engine(n, seed, threads).run_batch_serial(&batch)
        }),
        cold_parallel_ms: time_ms(reps, || serving_engine(n, seed, threads).run_batch(&batch)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_executors_agree_and_dedup_counts() {
        let engine = serving_engine(16, 3, 2);
        let batch = mixed_batch(&[2, 4], 3);
        let parallel = engine.run_batch(&batch);
        let serial = serving_engine(16, 3, 1).run_batch_serial(&batch);
        assert_identical(&serial, &parallel);
        // dup = 3 ⇒ two thirds of the batch are dedup clones.
        assert_eq!(
            engine.cache_stats().batch_dedup_hits,
            batch.len() / 3 * 2,
            "{:?}",
            engine.cache_stats()
        );
    }

    #[test]
    fn qps_counts_the_whole_batch() {
        let batch_ms = time_ms(2, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let qps = qps(100, &batch_ms);
        assert!(qps > 0.0 && qps.is_finite());
        assert!(qps <= 100.0 / 1e-3, "100 queries took at least 1 ms");
    }
}
