//! `BENCH_update_throughput.json` emitter: measures, per [`cpdb_engine::TreeDelta`]
//! kind, the latency of the delta-aware maintenance path (`apply_delta`:
//! keep / patch / invalidate per artifact) against a full rebuild (fresh
//! engine + recomputation of the same warm artifact families), verifying on
//! every measurement that the two engines serve bit-identical answers.
//!
//! ```text
//! cargo run --release -p cpdb_bench --bin update_throughput -- \
//!     --n 120 --reps 3 --out BENCH_update_throughput.json --check
//! ```
//!
//! `--check` exits non-zero when the patch path is not faster than the full
//! rebuild for the single-∨ probability update (the `perf-smoke` CI gate),
//! or when any patched epoch diverges from its rebuilt twin (asserted inside
//! the workload).

use cpdb_bench::update_throughput::{measure_kinds, KindResult};

struct Args {
    n: usize,
    seed: u64,
    reps: usize,
    out: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 120,
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
            "--n" => args.n = value("--n").parse().expect("--n takes an integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps takes an integer"),
            "--out" => args.out = Some(value("--out")),
            "--check" => args.check = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    args
}

fn kind_json(r: &KindResult) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"patch_ms\": {:.3},\n",
            "      \"full_rebuild_ms\": {:.3},\n",
            "      \"rebuild_over_patch\": {:.2},\n",
            "      \"artifacts_kept\": {},\n",
            "      \"artifacts_patched\": {},\n",
            "      \"artifacts_invalidated\": {}\n",
            "    }}"
        ),
        r.kind,
        r.patch_ms,
        r.rebuild_ms,
        r.speedup(),
        r.report.kept(),
        r.report.patched(),
        r.report.invalidated(),
    )
}

fn main() {
    let args = parse_args();
    let results = measure_kinds(args.n, args.seed, args.reps);

    println!(
        "update_throughput — n = {}, seed = {}, best of {}",
        args.n, args.seed, args.reps
    );
    println!(
        "{:<28} {:>10} {:>16} {:>8} {:>6} {:>8} {:>12}",
        "delta kind", "patch ms", "full rebuild ms", "x", "kept", "patched", "invalidated"
    );
    for r in &results {
        println!(
            "{:<28} {:>10.3} {:>16.3} {:>7.2}x {:>6} {:>8} {:>12}",
            r.kind,
            r.patch_ms,
            r.rebuild_ms,
            r.speedup(),
            r.report.kept(),
            r.report.patched(),
            r.report.invalidated(),
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cpdb.update_throughput.v1\",\n",
            "  \"workload\": {{ \"n\": {}, \"seed\": {}, \"reps\": {} }},\n",
            "  \"note\": \"warm scored-BID serving engine absorbing one delta per kind. ",
            "patch = apply_delta (delta-aware maintenance: untouched artifacts Arc-shared, ",
            "pairwise/marginal artifacts patched on the affected keys only, global-rank ",
            "artifacts dropped for lazy rebuild); full rebuild = fresh engine + rebuilding ",
            "the same warm artifact families (O(n^2) tournament, co-clustering weights, ",
            "set-query tables, including one Jaccard set query). Patched and rebuilt engines ",
            "answer bit-identically on every measurement.\",\n",
            "  \"kinds\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n"
        ),
        args.n,
        args.seed,
        args.reps,
        results
            .iter()
            .map(kind_json)
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
        let prob = results
            .iter()
            .find(|r| r.kind == "xor_probability")
            .expect("suite always measures the probability kind");
        if prob.speedup() < 1.0 {
            eprintln!(
                "CHECK FAILED: probability-delta patch ({:.3} ms) is slower than the full \
                 rebuild ({:.3} ms)",
                prob.patch_ms, prob.rebuild_ms
            );
            std::process::exit(1);
        }
        println!(
            "check passed: probability-delta patch {:.2}x faster than a full rebuild, \
             answers bit-identical on every kind",
            prob.speedup()
        );
    }
}
