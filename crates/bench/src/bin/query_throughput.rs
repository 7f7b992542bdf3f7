//! `BENCH_query_throughput.json` emitter: measures sustained mixed-workload
//! query throughput (QPS) of one `ConsensusEngine` under the serial `run`
//! loop vs. the parallel `run_batch`, warm and cold, at several
//! batch-duplication factors and thread counts, verifying on every
//! measurement that the two executors return bit-identical batches.
//!
//! ```text
//! cargo run --release -p cpdb_bench --bin query_throughput -- \
//!     --n 120 --reps 3 --out BENCH_query_throughput.json --check
//! ```
//!
//! `--check` exits non-zero when the warm parallel batch QPS falls below the
//! warm serial loop on the duplicated mixed workload (the `perf-smoke` CI
//! gate) or when any parallel batch diverges from the serial loop.
//!
//! The report records `machine_threads` (what
//! `std::thread::available_parallelism` saw): on a single-core runner the
//! parallel wins come from the batch executor's dedup amortisation alone;
//! multi-core runners add thread-level speedup on top.

use cpdb_bench::query_throughput::*;
use cpdb_parallel::resolve_threads;

struct Args {
    n: usize,
    seed: u64,
    reps: usize,
    dup: usize,
    out: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 120,
        seed: 7,
        reps: 3,
        dup: 4,
        out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--n" => args.n = value("--n").parse().expect("--n takes an integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps takes an integer"),
            "--dup" => args.dup = value("--dup").parse().expect("--dup takes an integer"),
            "--out" => args.out = Some(value("--out")),
            "--check" => args.check = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    args
}

struct Scenario {
    label: String,
    dup: usize,
    threads: usize,
    batch_len: usize,
    warm_serial_qps: f64,
    warm_parallel_qps: f64,
    cold_serial_qps: f64,
    cold_parallel_qps: f64,
}

impl Scenario {
    fn warm_speedup(&self) -> f64 {
        self.warm_parallel_qps / self.warm_serial_qps
    }
    fn cold_speedup(&self) -> f64 {
        self.cold_parallel_qps / self.cold_serial_qps
    }
    fn json(&self) -> String {
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"dup\": {},\n",
                "      \"threads\": {},\n",
                "      \"batch_len\": {},\n",
                "      \"warm_serial_qps\": {:.1},\n",
                "      \"warm_parallel_qps\": {:.1},\n",
                "      \"warm_parallel_over_serial\": {:.2},\n",
                "      \"cold_serial_qps\": {:.1},\n",
                "      \"cold_parallel_qps\": {:.1},\n",
                "      \"cold_parallel_over_serial\": {:.2}\n",
                "    }}"
            ),
            self.label,
            self.dup,
            self.threads,
            self.batch_len,
            self.warm_serial_qps,
            self.warm_parallel_qps,
            self.warm_speedup(),
            self.cold_serial_qps,
            self.cold_parallel_qps,
            self.cold_speedup(),
        )
    }
}

fn measure(n: usize, seed: u64, reps: usize, dup: usize, threads: usize) -> Scenario {
    let batch = mixed_batch(&[5, 10], dup);
    // Warm: one engine with every artifact built; answers must agree.
    let warm = serving_engine(n, seed, threads);
    let serial_answers = warm.run_batch_serial(&batch);
    let parallel_answers = warm.run_batch(&batch);
    assert_identical(&serial_answers, &parallel_answers);
    let warm_serial_qps = qps_best_of(reps, batch.len(), || warm.run_batch_serial(&batch));
    let warm_parallel_qps = qps_best_of(reps, batch.len(), || warm.run_batch(&batch));
    // Cold: a fresh engine per run, artifact builds on the clock.
    let cold_serial_qps = qps_best_of(reps, batch.len(), || {
        serving_engine(n, seed, threads).run_batch_serial(&batch)
    });
    let cold_parallel_qps = qps_best_of(reps, batch.len(), || {
        serving_engine(n, seed, threads).run_batch(&batch)
    });
    Scenario {
        label: format!("dup{dup}_t{threads}"),
        dup,
        threads,
        batch_len: batch.len(),
        warm_serial_qps,
        warm_parallel_qps,
        cold_serial_qps,
        cold_parallel_qps,
    }
}

fn main() {
    let args = parse_args();
    if args.check && args.dup <= 1 {
        eprintln!("--check gates the duplicated (dup > 1) scenarios; pass --dup 2 or higher");
        std::process::exit(2);
    }
    let machine_threads = resolve_threads(0);
    // Always measure the all-unique baseline; add the duplicated workload
    // only when it is a distinct scenario (avoids duplicate JSON keys).
    let mut dups = vec![1usize];
    if args.dup > 1 {
        dups.push(args.dup);
    }
    let mut scenarios = Vec::new();
    for &dup in &dups {
        for &threads in &[1usize, 2, 4, 8] {
            scenarios.push(measure(args.n, args.seed, args.reps, dup, threads));
        }
    }

    println!(
        "query_throughput — n = {}, seed = {}, best of {}, mixed batch over k ∈ {{5, 10}}, \
         machine threads = {}",
        args.n, args.seed, args.reps, machine_threads
    );
    println!(
        "{:<12} {:>6} {:>16} {:>18} {:>8} {:>16} {:>18} {:>8}",
        "scenario",
        "batch",
        "warm serial q/s",
        "warm parallel q/s",
        "x",
        "cold serial q/s",
        "cold parallel q/s",
        "x"
    );
    for s in &scenarios {
        println!(
            "{:<12} {:>6} {:>16.1} {:>18.1} {:>7.2}x {:>16.1} {:>18.1} {:>7.2}x",
            s.label,
            s.batch_len,
            s.warm_serial_qps,
            s.warm_parallel_qps,
            s.warm_speedup(),
            s.cold_serial_qps,
            s.cold_parallel_qps,
            s.cold_speedup(),
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cpdb.query_throughput.v1\",\n",
            "  \"workload\": {{ \"n\": {}, \"seed\": {}, \"reps\": {}, \"ks\": [5, 10], ",
            "\"machine_threads\": {} }},\n",
            "  \"note\": \"mixed serving batches; dup = copies of each distinct query per batch ",
            "(production traffic repeats popular queries). Parallel = run_batch ",
            "(dedup + parallel fan-out over run); serial = plain run loop. ",
            "Answers bit-identical between executors on every measurement. On a 1-thread ",
            "machine the parallel win is dedup amortisation; extra cores multiply it.\",\n",
            "  \"scenarios\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n"
        ),
        args.n,
        args.seed,
        args.reps,
        machine_threads,
        scenarios
            .iter()
            .map(Scenario::json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    if let Some(path) = &args.out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    } else {
        println!("{json}");
    }

    if args.check {
        let mut failed = false;
        for s in scenarios.iter().filter(|s| s.dup > 1) {
            if s.warm_speedup() < 1.0 {
                eprintln!(
                    "CHECK FAILED: {} warm parallel batch ({:.1} q/s) is slower than the serial \
                     loop ({:.1} q/s)",
                    s.label, s.warm_parallel_qps, s.warm_serial_qps
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: warm parallel batch ≥ serial loop on every duplicated (dup > 1) \
             scenario, answers bit-identical on every scenario"
        );
    }
}
