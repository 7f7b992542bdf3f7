//! `BENCH_persistence.json` emitter: measures, per fleet size, the durable
//! write path (WAL append + fsync per delta), the snapshot write, and the
//! restart paths — warm start ([`cpdb_live::LiveEngine::open`]: snapshot
//! decode + WAL replay) and snapshot-only start (after compaction) — against
//! the cold rebuild they replace (fresh engine + recomputing the warm
//! artifact families), verifying on every measurement that the recovered
//! engine serves bit-identical answers.
//!
//! ```text
//! cargo run --release -p cpdb_bench --bin persistence_roundtrip -- \
//!     --sizes 50,120,200 --reps 3 --out BENCH_persistence.json --check
//! ```
//!
//! `--check` exits non-zero when the warm start is not faster than the cold
//! rebuild at any measured size (the `perf-smoke` CI gate), or when any
//! recovered engine diverges from its writer (asserted inside the workload).

use cpdb_bench::persistence::{measure_persistence, PersistenceResult};

struct Args {
    sizes: Vec<usize>,
    seed: u64,
    reps: usize,
    out: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![50, 120, 200],
        seed: 7,
        reps: 3,
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
            "--sizes" => {
                args.sizes = value("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes takes integers"))
                    .collect();
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps takes an integer"),
            "--out" => args.out = Some(value("--out")),
            "--check" => args.check = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    args
}

fn size_json(r: &PersistenceResult) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"deltas_logged\": {},\n",
            "      \"snapshot_bytes\": {},\n",
            "      \"wal_bytes\": {},\n",
            "      \"durable_apply_ms\": {:.3},\n",
            "      \"snapshot_write_ms\": {:.3},\n",
            "      \"snapshot_write_mb_per_s\": {:.1},\n",
            "      \"warm_open_ms\": {:.3},\n",
            "      \"snapshot_only_open_ms\": {:.3},\n",
            "      \"snapshot_load_mb_per_s\": {:.1},\n",
            "      \"cold_build_ms\": {:.3},\n",
            "      \"cold_over_warm\": {:.2}\n",
            "    }}"
        ),
        r.n,
        r.deltas_applied,
        r.snapshot_bytes,
        r.wal_bytes,
        r.durable_apply_ms,
        r.snapshot_write_ms,
        r.snapshot_write_mbps(),
        r.warm_open_ms,
        r.snapshot_only_open_ms,
        r.snapshot_load_mbps(),
        r.cold_build_ms,
        r.cold_over_warm(),
    )
}

fn main() {
    let args = parse_args();
    let results: Vec<PersistenceResult> = args
        .sizes
        .iter()
        .map(|&n| measure_persistence(n, args.seed, args.reps))
        .collect();

    println!(
        "persistence_roundtrip — sizes = {:?}, seed = {}, best of {}",
        args.sizes, args.seed, args.reps
    );
    println!(
        "{:<6} {:>12} {:>12} {:>14} {:>12} {:>14} {:>14} {:>8}",
        "n",
        "snap bytes",
        "write ms",
        "warm open ms",
        "snap open ms",
        "cold build ms",
        "apply ms",
        "x"
    );
    for r in &results {
        println!(
            "{:<6} {:>12} {:>12.3} {:>14.3} {:>12.3} {:>14.3} {:>14.3} {:>7.2}x",
            r.n,
            r.snapshot_bytes,
            r.snapshot_write_ms,
            r.warm_open_ms,
            r.snapshot_only_open_ms,
            r.cold_build_ms,
            r.durable_apply_ms,
            r.cold_over_warm(),
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cpdb.persistence.v1\",\n",
            "  \"workload\": {{ \"seed\": {}, \"reps\": {}, \"deltas\": \"one per TreeDelta kind\" }},\n",
            "  \"note\": \"durable scored-BID serving engine: every apply appends a checksummed, ",
            "fsynced WAL record before the epoch publishes. warm open = LiveEngine::open ",
            "(versioned snapshot decode with per-section CRC verification + the WAL tail ",
            "replayed as one batch through the delta-aware maintenance path); snapshot-only ",
            "open = the same after ",
            "persist_snapshot compacted the WAL; cold build = fresh engine from the final tree ",
            "+ recomputing the warm artifact families, including one Jaccard set query. ",
            "Recovered engines answer bit-identically to their writer on every measurement.\",\n",
            "  \"sizes\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n"
        ),
        args.seed,
        args.reps,
        results
            .iter()
            .map(size_json)
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
        for r in &results {
            if r.cold_over_warm() < 1.0 {
                eprintln!(
                    "CHECK FAILED: warm start at n = {} ({:.3} ms) is slower than the cold \
                     rebuild ({:.3} ms)",
                    r.n, r.warm_open_ms, r.cold_build_ms
                );
                std::process::exit(1);
            }
        }
        let min = results
            .iter()
            .map(PersistenceResult::cold_over_warm)
            .fold(f64::INFINITY, f64::min);
        println!(
            "check passed: warm start at least {min:.2}x faster than a cold rebuild at every \
             size, recovered answers bit-identical"
        );
    }
}
