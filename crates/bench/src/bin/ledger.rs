//! The perf ledger: runs every performance suite of the bench crate at fixed
//! sizes, prints one summary, writes `BENCH_ledger.json`, and evaluates every
//! gate. It exits non-zero after naming every failed gate.
//!
//! ```text
//! cargo run --release -p cpdb_bench --bin ledger               # writes BENCH_ledger.json
//! cargo run --release -p cpdb_bench --bin ledger -- --out PATH
//! ```
//!
//! The ledger (`"schema": "cpdb.ledger.v1"`) holds `machine_threads`, a flat
//! `rows` list and a `gates` list. Every row names its `suite`, `row` (the
//! measured case, sizes included), `metric` and `unit`. A timed row adds
//! `best`, `median`, `iqr` and `reps` over its samples; any other row adds
//! one `value`. Every gate row holds `suite`, `gate`, `value`, `bound` and
//! `passed`:
//!
//! | suite | gate | statistic |
//! |---|---|---|
//! | `rank` | batch cold build ≥ legacy, results within `1e-9` | best-of |
//! | `query` | warm parallel batch ≥ serial loop at `dup > 1` | best-of |
//! | `update` | probability-delta patch < full rebuild | best-of |
//! | `persistence` | warm open < cold rebuild at every size | best-of |
//! | `fault` | VFS indirection ≤ 2% of a durable append | interquartile mean over the fastest append |
//! | `replication` | every follower bit-identical; per-delta sync lags ≤ 1 epoch | counts |
//! | `observability` | sink ≤ 2% of a probe-mix query | interquartile mean |
//!
//! Every suite also asserts its own bit-identity contracts (executors,
//! patched vs rebuilt, recovered vs writer) while it measures. The `rank`
//! suite also times the two pairwise batch builds at n=400 on one thread and
//! on `machine_threads`, and the `replication` suite times a cold follower
//! bootstrap alone (`Follower::open`, no sync) at n=120, both without a
//! gate. The `median` suite times the warm
//! Theorem 4 median Top-k, the `clustering` suite the warm
//! `Clustering{restarts: 4}` query, the `kendall` suite the warm
//! `TopK{Kendall}` query and its exact `E[d_K]` evaluator alone, and the
//! `kernels` suite the library kernels that no other row and no
//! `experiments` scaling table times; none of them carries a gate.

use cpdb_bench::experiments::scaling_tree;
use cpdb_bench::sample::{time_ms, Sample};
use cpdb_bench::{
    fault_recovery, observability, persistence, query_throughput, rank_artifacts, replication,
    update_throughput, Table,
};
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_consensus::topk::{footrule, kendall, median_dp};
use cpdb_consensus::{baselines, jaccard, oracle, set_distance, TopKContext};
use cpdb_engine::{ConsensusEngineBuilder, Query, TopKMetric, Variant};
use cpdb_model::{PossibleWorld, WorldModel};
use cpdb_rankagg::TopKList;
use cpdb_workloads::{
    random_groupby_instance, random_tuple_independent, GroupByConfig, TupleIndependentConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const SEED: u64 = 7;
const REPS: usize = 3;
const RANK_N: usize = 120;
const RANK_K: usize = 10;
/// Blocks of the ungated one-thread vs parallel pairwise builds.
const FAN_OUT_N: usize = 400;
/// Blocks in the serving engine of the query and update suites.
const SERVING_N: usize = 120;
/// Copies of each distinct query per batch; the all-unique batch is not gated.
const QUERY_DUPS: [usize; 2] = [1, 4];
const QUERY_THREADS: [usize; 4] = [1, 2, 4, 8];
const PERSISTENCE_SIZES: [usize; 3] = [50, 120, 200];
/// Blocks in the engines of the fault, replication and observability suites.
const DURABLE_N: usize = 80;
const WAL_LENS: [usize; 3] = [8, 64, 256];
/// The cold follower catch-up of loadbench's `recover` workload: a
/// 31-record tail at the serving size, `(blocks, shipped records)`.
const RECOVER_TAIL: (usize, usize) = (SERVING_N, 31);
/// The cold follower bootstrap alone (`Follower::open`, no sync), at the
/// serving size: `(blocks, reps)`. It takes a few milliseconds, so it
/// affords a real spread.
const BOOTSTRAP: (usize, usize) = (SERVING_N, 15);
const VFS_APPENDS: usize = 256;
const VFS_BUF_BYTES: usize = 4096;
const STALENESS_EPOCHS: usize = 48;
const SYNC_CADENCES: [usize; 2] = [1, 8];
const OBS_OPS: usize = 200_000;
const OBS_SERIES: usize = 48;
const OBS_EVENTS: usize = 1024;
const MEDIAN_NS: [usize; 2] = [120, 400];
const MEDIAN_KS: [usize; 2] = [5, 10];
/// A median call takes milliseconds, so it affords a real spread.
const MEDIAN_REPS: usize = 15;
const CLUSTERING_NS: [usize; 2] = [120, 400];
const CLUSTERING_RESTARTS: usize = 4;
/// A warm clustering query takes milliseconds too.
const CLUSTERING_REPS: usize = 15;
const KENDALL_NS: [usize; 2] = [120, 400];
const KENDALL_KS: [usize; 2] = [5, 10];
/// A warm Kendall query takes milliseconds (its pivot dominates).
const KENDALL_REPS: usize = 15;
/// The evaluator alone takes well under a millisecond.
const KENDALL_EVALUATOR_REPS: usize = 60;
/// The kernels suite runs on E12's instance: `(n, k)` plus the sample count
/// of the two sampled baselines.
const KERNEL_NK: (usize, usize) = (300, 10);
const KERNEL_SAMPLES: usize = 500;
const KERNEL_REPS: usize = 7;
/// Tuples of the enumerated Jaccard oracle (`2^n` worlds).
const ORACLE_TUPLES: usize = 8;
/// Groups of the kernels suite's group-by instance.
const KERNEL_GROUPS: usize = 16;

/// What a row measured: a timing over repeated samples, or one value.
enum Measure {
    Timing(Sample),
    Value(f64),
}

struct Row {
    suite: &'static str,
    row: String,
    metric: &'static str,
    unit: &'static str,
    measure: Measure,
}

struct Gate {
    suite: &'static str,
    gate: String,
    value: f64,
    bound: f64,
    passed: bool,
}

/// One suite's rows and gates.
struct Suite {
    name: &'static str,
    rows: Vec<Row>,
    gates: Vec<Gate>,
}

impl Suite {
    fn new(name: &'static str) -> Self {
        Suite {
            name,
            rows: Vec::new(),
            gates: Vec::new(),
        }
    }

    fn push(&mut self, row: &str, metric: &'static str, unit: &'static str, measure: Measure) {
        self.rows.push(Row {
            suite: self.name,
            row: row.to_string(),
            metric,
            unit,
            measure,
        });
    }

    fn timing(&mut self, row: &str, metric: &'static str, unit: &'static str, sample: &Sample) {
        self.push(row, metric, unit, Measure::Timing(sample.clone()));
    }

    fn value(&mut self, row: &str, metric: &'static str, unit: &'static str, value: f64) {
        self.push(row, metric, unit, Measure::Value(value));
    }

    fn gate(&mut self, gate: String, value: f64, bound: f64, passed: bool) {
        self.gates.push(Gate {
            suite: self.name,
            gate,
            value,
            bound,
            passed,
        });
    }

    fn at_least(&mut self, gate: String, value: f64, bound: f64) {
        self.gate(gate, value, bound, value >= bound);
    }

    fn at_most(&mut self, gate: String, value: f64, bound: f64) {
        self.gate(gate, value, bound, value <= bound);
    }
}

/// The gated legacy-vs-batch builds at `n` blocks, then the ungated
/// one-thread vs `threads` pairwise builds at `fan_out_n` blocks.
fn rank_suite(n: usize, fan_out_n: usize, k: usize, reps: usize, threads: usize) -> Suite {
    let mut s = Suite::new("rank");
    for c in rank_artifacts::measure_cold_builds(n, k, SEED, reps, threads) {
        let row = format!("{} n={n} k={k}", c.name);
        s.timing(&row, "legacy", "ms", &c.legacy_ms);
        s.timing(&row, "batch_1_thread", "ms", &c.batch_single_ms);
        if let Some(parallel) = &c.batch_parallel_ms {
            s.timing(&row, "batch_parallel", "ms", parallel);
        }
        s.value(&row, "max_abs_diff", "abs", c.max_abs_diff);
        s.at_least(
            format!("{} legacy_over_batch", c.name),
            c.speedup_single(),
            1.0,
        );
        s.at_most(format!("{} max_abs_diff", c.name), c.max_abs_diff, 1e-9);
    }
    for (name, single, parallel) in
        rank_artifacts::measure_pairwise_fan_out(fan_out_n, SEED, reps, threads)
    {
        let row = format!("{name} n={fan_out_n}");
        s.timing(&row, "batch_1_thread", "ms", &single);
        s.timing(&row, "batch_parallel", "ms", &parallel);
    }
    s
}

fn query_suite(n: usize, reps: usize, dups: &[usize], threads: &[usize]) -> Suite {
    let mut s = Suite::new("query");
    for &dup in dups {
        for &t in threads {
            let sc = query_throughput::measure(n, SEED, reps, dup, t);
            let row = format!("{} n={n}", sc.label());
            s.timing(&row, "warm_serial", "ms", &sc.warm_serial_ms);
            s.timing(&row, "warm_parallel", "ms", &sc.warm_parallel_ms);
            s.timing(&row, "cold_serial", "ms", &sc.cold_serial_ms);
            s.timing(&row, "cold_parallel", "ms", &sc.cold_parallel_ms);
            let qps = |ms| query_throughput::qps(sc.batch_len, ms);
            s.value(&row, "warm_serial_qps", "1/s", qps(&sc.warm_serial_ms));
            s.value(&row, "warm_parallel_qps", "1/s", qps(&sc.warm_parallel_ms));
            if dup > 1 {
                s.at_least(
                    format!("{} warm_parallel_over_serial", sc.label()),
                    sc.warm_speedup(),
                    1.0,
                );
            }
        }
    }
    s
}

fn update_suite(n: usize, reps: usize) -> Suite {
    let mut s = Suite::new("update");
    for r in update_throughput::measure_kinds(n, SEED, reps) {
        let row = format!("{} n={n}", r.kind);
        s.timing(&row, "patch", "ms", &r.patch_ms);
        s.timing(&row, "full_rebuild", "ms", &r.rebuild_ms);
        s.value(&row, "artifacts_kept", "count", r.report.kept() as f64);
        s.value(
            &row,
            "artifacts_patched",
            "count",
            r.report.patched() as f64,
        );
        s.value(
            &row,
            "artifacts_invalidated",
            "count",
            r.report.invalidated() as f64,
        );
        if r.kind == "xor_probability" {
            s.at_least(format!("{} rebuild_over_patch", r.kind), r.speedup(), 1.0);
        }
    }
    s
}

fn persistence_suite(sizes: &[usize], reps: usize) -> Suite {
    let mut s = Suite::new("persistence");
    for &n in sizes {
        let r = persistence::measure_persistence(n, SEED, reps);
        let row = format!("n={n}");
        s.timing(&row, "durable_apply", "ms", &r.durable_apply_ms);
        s.timing(&row, "snapshot_write", "ms", &r.snapshot_write_ms);
        s.timing(&row, "warm_open", "ms", &r.warm_open_ms);
        s.timing(&row, "snapshot_only_open", "ms", &r.snapshot_only_open_ms);
        s.timing(&row, "cold_build", "ms", &r.cold_build_ms);
        s.value(&row, "snapshot_bytes", "B", r.snapshot_bytes as f64);
        s.value(&row, "wal_bytes", "B", r.wal_bytes as f64);
        s.at_least(format!("n={n} cold_over_warm"), r.cold_over_warm(), 1.0);
    }
    s
}

fn fault_suite(n: usize, lens: &[usize], appends: usize, reps: usize) -> Suite {
    let mut s = Suite::new("fault");
    for r in fault_recovery::measure_recovery(n, SEED, reps, lens) {
        let row = format!("n={n} wal_records={}", r.wal_records);
        s.timing(&row, "store_scan", "ms", &r.store_scan_ms);
        s.timing(&row, "warm_open", "ms", &r.warm_open_ms);
        s.timing(&row, "try_recover", "ms", &r.try_recover_ms);
        s.value(&row, "wal_bytes", "B", r.wal_bytes as f64);
    }
    let v = fault_recovery::measure_vfs_overhead(appends, VFS_BUF_BYTES, reps);
    let row = format!("vfs buf={}B", v.buf_bytes);
    s.timing(&row, "direct_write", "us", &v.direct_write_us);
    s.timing(&row, "via_vfs_write", "us", &v.via_vfs_write_us);
    s.timing(&row, "direct_durable_append", "us", &v.direct_durable_us);
    s.timing(&row, "via_vfs_durable_append", "us", &v.via_vfs_durable_us);
    s.value(&row, "indirection", "us", v.indirection_us());
    s.at_most("vfs_overhead_pct".into(), v.overhead_pct(), 2.0);
    s
}

/// `catch_ups` lists the cold catch-ups as `(blocks, shipped records)`,
/// and `bootstrap` the ungated cold bootstrap alone as `(blocks, reps)`;
/// the staleness rows run at `n` blocks.
fn replication_suite(
    n: usize,
    catch_ups: &[(usize, usize)],
    bootstrap: (usize, usize),
    epochs: usize,
    cadences: &[usize],
    reps: usize,
) -> Suite {
    let mut s = Suite::new("replication");
    let (blocks, bootstrap_reps) = bootstrap;
    let (bootstrap_ms, mut diverged) = replication::measure_bootstrap(blocks, SEED, bootstrap_reps);
    s.timing(
        &format!("n={blocks} bootstrap"),
        "bootstrap",
        "ms",
        &bootstrap_ms,
    );
    for &(blocks, records) in catch_ups {
        for r in replication::measure_catch_up(blocks, SEED, reps, &[records]) {
            let row = format!("n={blocks} shipped_records={}", r.shipped_records);
            s.timing(&row, "ship", "ms", &Sample::new(vec![r.ship_ms]));
            s.timing(&row, "catch_up", "ms", &r.catch_up_ms);
            s.value(&row, "shipped_bytes", "B", r.shipped_bytes as f64);
            s.value(&row, "segment_bytes", "B", r.segment_bytes as f64);
            diverged += r.diverged;
        }
    }
    for r in replication::measure_staleness(n, SEED, epochs, cadences) {
        let row = format!("n={n} epochs={epochs} sync_every={}", r.sync_every);
        s.value(&row, "mean_lag", "epochs", r.mean_lag);
        s.value(&row, "max_lag", "epochs", r.max_lag as f64);
        diverged += usize::from(r.diverged);
        if r.sync_every == 1 {
            s.at_most("sync_every=1 max_lag".into(), r.max_lag as f64, 1.0);
        }
    }
    s.at_most("diverged_followers".into(), diverged as f64, 0.0);
    s
}

fn observability_suite(n: usize, reps: usize, ops: usize, series: usize, events: usize) -> Suite {
    let mut s = Suite::new("observability");
    let o = observability::measure_obs_overhead(n, SEED, reps, ops);
    for m in &o.mix {
        let row = format!("mix n={n} {}", m.kind);
        s.timing(&row, "plain", "us", &m.plain_us);
        s.timing(&row, "instrumented", "us", &m.instrumented_us);
    }
    let row = format!("sink ops={ops}");
    s.value(&row, "counter", "ns", o.counter_ns);
    s.value(&row, "histogram_record", "ns", o.histogram_ns);
    s.value(&row, "event", "ns", o.event_ns);
    s.value(&row, "span_bundle_enabled", "ns", o.enabled_span_ns);
    s.value(&row, "span_bundle_disabled", "ns", o.disabled_span_ns);
    s.value(&row, "worst_case_pct", "%", o.worst_case_pct());
    s.at_most("sink_overhead_pct".into(), o.overhead_pct(), 2.0);
    let c = observability::measure_snapshot_cost(series, events, reps);
    let row = format!("introspection series={} events={}", c.series, c.events);
    s.timing(&row, "snapshot", "ms", &c.snapshot_ms);
    s.timing(&row, "to_json", "ms", &c.to_json_ms);
    s.timing(&row, "recent_events", "ms", &c.recent_events_ms);
    s
}

fn median_suite(ns: &[usize], ks: &[usize], reps: usize) -> Suite {
    let mut s = Suite::new("median");
    for &n in ns {
        let tree = scaling_tree(n, SEED);
        for &k in ks {
            let ctx = TopKContext::new(&tree, k);
            let sample = time_ms(reps, || median_dp::median_topk_sym_diff(&tree, &ctx));
            s.timing(&format!("warm n={n} k={k}"), "median_topk", "ms", &sample);
        }
    }
    s
}

/// The warm `Clustering{restarts}` query on a one-thread engine whose
/// co-clustering weights are already built.
fn clustering_suite(ns: &[usize], restarts: usize, reps: usize) -> Suite {
    let mut s = Suite::new("clustering");
    let q = Query::Clustering { restarts };
    for &n in ns {
        let engine = ConsensusEngineBuilder::new(scaling_tree(n, SEED))
            .seed(SEED)
            .threads(1)
            .build()
            .expect("default engine configuration is valid");
        engine.run(&q).expect("clustering is supported");
        let sample = time_ms(reps, || engine.run(&q));
        let row = format!("warm n={n} restarts={restarts}");
        s.timing(&row, "clustering", "ms", &sample);
    }
    s
}

/// The warm `TopK{Kendall}` query on a one-thread engine whose rank context
/// is already built (the query builds its own pool table), and the exact
/// `E[d_K]` of its answer evaluated alone.
fn kendall_suite(ns: &[usize], ks: &[usize], reps: usize, evaluator_reps: usize) -> Suite {
    let mut s = Suite::new("kendall");
    for &n in ns {
        let tree = scaling_tree(n, SEED);
        let engine = ConsensusEngineBuilder::new(tree.clone())
            .seed(SEED)
            .threads(1)
            .build()
            .expect("default engine configuration is valid");
        for &k in ks {
            let q = Query::TopK {
                k,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            };
            let answer = engine.run(&q).expect("Kendall Top-k is supported");
            let list = answer.value.as_topk().expect("Top-k queries return lists");
            let row = format!("warm n={n} k={k}");
            s.timing(
                &row,
                "topk_kendall",
                "ms",
                &time_ms(reps, || engine.run(&q)),
            );
            let ctx = TopKContext::new(&tree, k);
            let sample = time_ms(evaluator_reps, || {
                kendall::expected_kendall_distance(&tree, &ctx, list)
            });
            s.timing(&row, "exact_distance", "ms", &sample);
        }
    }
    s
}

/// Library kernels that no experiment scaling table and no other ledger row
/// times: the closed-form expected distances of a given answer, the three
/// ranking baselines the serving batch does not run, the group-by mean and
/// the enumerated Jaccard oracle. None carries a gate.
fn kernel_suite(n: usize, k: usize, samples: usize, reps: usize) -> Suite {
    let mut s = Suite::new("kernels");
    let db = random_tuple_independent(&TupleIndependentConfig {
        num_tuples: n,
        seed: SEED,
        ..Default::default()
    });
    let ti_tree =
        cpdb_andxor::convert::from_tuple_independent(&db).expect("generated relations are valid");
    let half: Vec<_> = db.tuples().iter().take(n / 2).map(|(a, _)| *a).collect();
    let half = PossibleWorld::from_trusted(half);
    let mean = set_distance::mean_world(&ti_tree);
    let row = format!("tuple-independent n={n}");
    let sample = time_ms(reps, || set_distance::expected_distance(&ti_tree, &mean));
    s.timing(&row, "sym_diff_expected_distance", "ms", &sample);
    let sample = time_ms(reps, || jaccard::expected_jaccard_distance(&ti_tree, &half));
    s.timing(&row, "jaccard_expected_distance", "ms", &sample);
    let worlds = random_tuple_independent(&TupleIndependentConfig {
        num_tuples: ORACLE_TUPLES,
        seed: SEED,
        ..Default::default()
    })
    .enumerate_worlds();
    let row = format!("tuple-independent n={ORACLE_TUPLES}");
    let sample = time_ms(reps, || {
        oracle::brute_force_mean_world(&worlds, |a, w| a.jaccard_distance(w))
    });
    s.timing(&row, "jaccard_oracle_mean_world", "ms", &sample);

    let tree = scaling_tree(n, SEED);
    let ctx = TopKContext::new(&tree, k);
    let first_k = TopKList::new(tree.keys().iter().take(k).map(|t| t.0).collect())
        .expect("tree keys are distinct");
    let row = format!("topk n={n} k={k}");
    let sample = time_ms(reps, || {
        footrule::expected_footrule_distance(&ctx, &first_k)
    });
    s.timing(&row, "footrule_expected_distance", "ms", &sample);
    let sample = time_ms(reps, || baselines::expected_score_topk(&tree, k));
    s.timing(&row, "expected_score", "ms", &sample);
    let row = format!("topk n={n} k={k} samples={samples}");
    let mut rng = StdRng::seed_from_u64(SEED);
    let sample = time_ms(reps, || {
        baselines::expected_rank_topk(&tree, k, samples, &mut rng)
    });
    s.timing(&row, "expected_rank", "ms", &sample);
    let sample = time_ms(reps, || baselines::u_topk(&tree, k, samples, &mut rng));
    s.timing(&row, "u_topk", "ms", &sample);

    let groupby = GroupByInstance::new(random_groupby_instance(&GroupByConfig {
        num_tuples: n,
        num_groups: KERNEL_GROUPS,
        skew: 1.2,
        seed: SEED,
    }))
    .expect("generated instances are valid");
    let row = format!("groupby n={n} m={KERNEL_GROUPS}");
    let sample = time_ms(reps, || groupby.mean_answer());
    s.timing(&row, "mean_answer", "ms", &sample);
    s
}

/// One line per failed gate, over every suite.
fn failed_gates(suites: &[Suite]) -> Vec<String> {
    suites
        .iter()
        .flat_map(|s| &s.gates)
        .filter(|g| !g.passed)
        .map(|g| {
            format!(
                "{}/{}: {} against bound {}",
                g.suite,
                g.gate,
                num(g.value),
                num(g.bound)
            )
        })
        .collect()
}

fn exit_status(failed: &[String]) -> ExitCode {
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number to six significant digits — finer than any timer here
/// resolves (`null` when not finite).
fn num(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let x: f64 = format!("{x:.5e}")
        .parse()
        .expect("a formatted float parses");
    if x == 0.0 || (1e-4..1e15).contains(&x.abs()) {
        format!("{x}")
    } else {
        format!("{x:e}")
    }
}

impl Row {
    fn json(&self) -> String {
        let stats = match &self.measure {
            Measure::Timing(t) => format!(
                "\"best\": {}, \"median\": {}, \"iqr\": {}, \"reps\": {}",
                num(t.best()),
                num(t.median()),
                num(t.iqr()),
                t.reps()
            ),
            Measure::Value(v) => format!("\"value\": {}", num(*v)),
        };
        format!(
            "{{\"suite\": \"{}\", \"row\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", {stats}}}",
            self.suite, self.row, self.metric, self.unit
        )
    }
}

fn render(suites: &[Suite], machine_threads: usize) -> String {
    let rows: Vec<String> = suites
        .iter()
        .flat_map(|s| &s.rows)
        .map(|r| format!("    {}", r.json()))
        .collect();
    let gates: Vec<String> = suites
        .iter()
        .flat_map(|s| &s.gates)
        .map(|g| {
            format!(
                "    {{\"suite\": \"{}\", \"gate\": \"{}\", \"value\": {}, \"bound\": {}, \"passed\": {}}}",
                g.suite,
                g.gate,
                num(g.value),
                num(g.bound),
                g.passed
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"cpdb.ledger.v1\",\n  \"machine_threads\": {machine_threads},\n  \
         \"rows\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        gates.join(",\n")
    )
}

fn summary(suites: &[Suite]) -> [Table; 2] {
    let short = |x: f64| {
        if x != 0.0 && x.abs() < 1e-3 {
            format!("{x:.2e}")
        } else {
            format!("{x:.4}")
        }
    };
    let mut rows = Table::new(
        "ledger rows",
        &[
            "suite",
            "row",
            "metric",
            "unit",
            "median/value",
            "best",
            "iqr",
            "reps",
        ],
    );
    for r in suites.iter().flat_map(|s| &s.rows) {
        let stats = match &r.measure {
            Measure::Timing(t) => [
                short(t.median()),
                short(t.best()),
                short(t.iqr()),
                t.reps().to_string(),
            ],
            Measure::Value(v) => [short(*v), "-".into(), "-".into(), "-".into()],
        };
        let mut cells = vec![
            r.suite.to_string(),
            r.row.clone(),
            r.metric.to_string(),
            r.unit.to_string(),
        ];
        cells.extend(stats);
        rows.add_row(cells);
    }
    let mut gates = Table::new(
        "ledger gates",
        &["suite", "gate", "value", "bound", "passed"],
    );
    for g in suites.iter().flat_map(|s| &s.gates) {
        gates.add_row(vec![
            g.suite.to_string(),
            g.gate.clone(),
            short(g.value),
            num(g.bound),
            g.passed.to_string(),
        ]);
    }
    [rows, gates]
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let out = match (args.next().as_deref(), args.next(), args.next()) {
        (None, ..) => "BENCH_ledger.json".to_string(),
        (Some("--out"), Some(path), None) => path,
        _ => {
            eprintln!("usage: ledger [--out PATH]");
            return ExitCode::from(2);
        }
    };
    let machine_threads = cpdb_parallel::resolve_threads(0);
    let catch_ups: Vec<(usize, usize)> = WAL_LENS
        .iter()
        .map(|&records| (DURABLE_N, records))
        .chain([RECOVER_TAIL])
        .collect();
    let suites = [
        rank_suite(RANK_N, FAN_OUT_N, RANK_K, REPS, machine_threads),
        query_suite(SERVING_N, REPS, &QUERY_DUPS, &QUERY_THREADS),
        update_suite(SERVING_N, REPS),
        persistence_suite(&PERSISTENCE_SIZES, REPS),
        fault_suite(DURABLE_N, &WAL_LENS, VFS_APPENDS, REPS),
        replication_suite(
            DURABLE_N,
            &catch_ups,
            BOOTSTRAP,
            STALENESS_EPOCHS,
            &SYNC_CADENCES,
            REPS,
        ),
        observability_suite(DURABLE_N, REPS, OBS_OPS, OBS_SERIES, OBS_EVENTS),
        median_suite(&MEDIAN_NS, &MEDIAN_KS, MEDIAN_REPS),
        clustering_suite(&CLUSTERING_NS, CLUSTERING_RESTARTS, CLUSTERING_REPS),
        kendall_suite(
            &KENDALL_NS,
            &KENDALL_KS,
            KENDALL_REPS,
            KENDALL_EVALUATOR_REPS,
        ),
        kernel_suite(KERNEL_NK.0, KERNEL_NK.1, KERNEL_SAMPLES, KERNEL_REPS),
    ];
    for table in summary(&suites) {
        table.print();
    }
    if let Err(e) = std::fs::write(&out, render(&suites, machine_threads)) {
        eprintln!("writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    let failed = failed_gates(&suites);
    for f in &failed {
        eprintln!("GATE FAILED: {f}");
    }
    if failed.is_empty() {
        println!("all gates passed");
    }
    exit_status(&failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_failed_gate_is_named_and_fails_the_run() {
        let mut rank = Suite::new("rank");
        rank.at_least("kendall_tournament legacy_over_batch".into(), 0.8, 1.0);
        rank.at_most("kendall_tournament max_abs_diff".into(), 0.0, 1e-9);
        let mut fault = Suite::new("fault");
        fault.at_most("vfs_overhead_pct".into(), 3.5, 2.0);
        let mut update = Suite::new("update");
        update.at_least("xor_probability rebuild_over_patch".into(), 7.0, 1.0);
        let suites = [rank, fault, update];

        let failed = failed_gates(&suites);
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].starts_with("rank/kendall_tournament legacy_over_batch"));
        assert!(failed[1].starts_with("fault/vfs_overhead_pct"));
        assert_eq!(exit_status(&failed), ExitCode::FAILURE);
        assert_eq!(exit_status(&failed_gates(&suites[2..])), ExitCode::SUCCESS);
        let json = render(&suites, 1);
        assert_eq!(json.matches("\"passed\": false").count(), 2, "{json}");
    }

    #[test]
    fn every_row_carries_the_schema() {
        let suites = [
            rank_suite(16, 20, 3, 2, 1),
            query_suite(16, 2, &[1, 2], &[1]),
            update_suite(24, 2),
            persistence_suite(&[24], 2),
            fault_suite(16, &[4], 8, 2),
            replication_suite(16, &[(16, 4)], (16, 2), 6, &[1, 2], 2),
            observability_suite(16, 1, 1000, 6, 16),
        ];
        let mut timed = 0;
        for (suite, row) in suites
            .iter()
            .flat_map(|s| s.rows.iter().map(move |r| (s, r)))
        {
            assert_eq!(row.suite, suite.name);
            assert!(!row.row.is_empty() && !row.metric.is_empty() && !row.unit.is_empty());
            let json = row.json();
            for key in ["suite", "row", "metric", "unit"] {
                assert!(json.contains(&format!("\"{key}\": \"")), "{json}");
            }
            match &row.measure {
                Measure::Timing(t) => {
                    timed += 1;
                    assert!(t.best() <= t.median() && t.iqr() >= 0.0, "{json}");
                    assert!(json.contains("\"best\": ") && json.contains("\"reps\": "));
                }
                Measure::Value(_) => assert!(json.contains("\"value\": "), "{json}"),
            }
        }
        assert!(timed > 0);
        assert!(suites
            .iter()
            .all(|s| !s.rows.is_empty() && !s.gates.is_empty()));
        let json = render(&suites, 2);
        assert!(json.contains("\"machine_threads\": 2") && json.contains("\"gates\": ["));
    }

    #[test]
    fn median_suite_times_every_size_without_a_gate() {
        let s = median_suite(&[12, 20], &[2, 3], 3);
        assert!(s.gates.is_empty());
        assert_eq!(s.rows.len(), 4);
        for row in &s.rows {
            let Measure::Timing(t) = &row.measure else {
                panic!("{} is not a timing", row.row);
            };
            assert_eq!(t.reps(), 3);
            assert!(row.json().contains("\"suite\": \"median\""));
        }
    }

    #[test]
    fn kernel_suite_times_every_kernel_without_a_gate() {
        let s = kernel_suite(12, 3, 20, 2);
        assert!(s.gates.is_empty());
        assert_eq!(s.rows.len(), 8);
        for row in &s.rows {
            let Measure::Timing(t) = &row.measure else {
                panic!("{} is not a timing", row.row);
            };
            assert_eq!(t.reps(), 2);
            assert!(row.json().contains("\"suite\": \"kernels\""));
        }
    }

    #[test]
    fn clustering_suite_times_every_size_without_a_gate() {
        let s = clustering_suite(&[12, 20], 4, 3);
        assert!(s.gates.is_empty());
        assert_eq!(s.rows.len(), 2);
        for row in &s.rows {
            let Measure::Timing(t) = &row.measure else {
                panic!("{} is not a timing", row.row);
            };
            assert_eq!(t.reps(), 3);
            assert!(row.json().contains("\"suite\": \"clustering\""));
        }
    }
}
