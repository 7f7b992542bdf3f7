//! Repo-wide source invariants, enforced as tests so a drive-by change
//! can't silently weaken them.

use std::path::PathBuf;

fn crates_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("crates")
}

/// Every crate in the workspace must carry `#![forbid(unsafe_code)]` at the
/// top of its library root: the whole reproduction — including the
/// cooperative model-checking scheduler in `cpdb_sync` — is safe Rust, and
/// a new crate must opt in to that standard before it can land.
#[test]
fn every_crate_forbids_unsafe_code() {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(crates_dir())
        .expect("workspace crates directory exists")
        .filter_map(|entry| {
            let lib = entry.expect("readable dir entry").path().join("src/lib.rs");
            lib.exists().then_some(lib)
        })
        .collect();
    roots.sort();
    assert!(
        roots.len() >= 17,
        "expected the full workspace, found only {} crate roots",
        roots.len()
    );
    let mut missing = Vec::new();
    for lib in &roots {
        let src = std::fs::read_to_string(lib).expect("crate root is readable");
        if !src.contains("#![forbid(unsafe_code)]") {
            missing.push(lib.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}

/// The panic-freedom burn-down of the storage and serving layers is gated
/// by clippy lints; this pin keeps the gates themselves from regressing.
#[test]
fn store_and_live_keep_their_unwrap_gates() {
    for crate_name in ["store", "live", "replica", "obs"] {
        let lib = crates_dir().join(crate_name).join("src/lib.rs");
        let src = std::fs::read_to_string(&lib).expect("crate root is readable");
        assert!(
            src.contains("deny(clippy::unwrap_used, clippy::expect_used)"),
            "{} lost its unwrap/expect lint gate",
            lib.display()
        );
    }
}

/// The Jaccard scan runs on the serving path of every set query; its
/// module keeps the same panic-freedom gate as the serving crates.
#[test]
fn jaccard_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("consensus/src/jaccard.rs");
    let src = std::fs::read_to_string(&module).expect("jaccard module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// The Theorem-4 median DP answers every `TopK{SymDiff, Median}` query; it
/// keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn median_dp_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("consensus/src/topk/median_dp.rs");
    let src = std::fs::read_to_string(&module).expect("median_dp module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// The local search answers every `TopK{Kendall}` query; the Kendall module
/// keeps the same panic-freedom gate as the median DP.
#[test]
fn kendall_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("consensus/src/topk/kendall.rs");
    let src = std::fs::read_to_string(&module).expect("kendall module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// KwikCluster and its cost answer every `Clustering` query; the clustering
/// module keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn clustering_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("consensus/src/clustering.rs");
    let src = std::fs::read_to_string(&module).expect("clustering module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// The batch generating-function sweeps build every rank context and
/// pairwise artifact; the module keeps the same panic-freedom gate.
#[test]
fn andxor_batch_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("andxor/src/batch.rs");
    let src = std::fs::read_to_string(&module).expect("batch module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// Theorem 2 answers every `SetConsensus{SymmetricDifference}` query; the
/// set-distance module keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn set_distance_module_keeps_its_unwrap_gate() {
    let module = crates_dir().join("consensus/src/set_distance.rs");
    let src = std::fs::read_to_string(&module).expect("set_distance module is readable");
    assert!(
        src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
        "{} lost its unwrap/expect lint gate",
        module.display()
    );
}

/// The median answer reads its profits from the rank context and builds its
/// list through the symmetric-difference module; both keep the median's
/// panic-freedom gate.
#[test]
fn median_neighbour_modules_keep_their_unwrap_gates() {
    for module in ["context.rs", "sym_diff.rs"] {
        let module = crates_dir().join("consensus/src/topk").join(module);
        let src = std::fs::read_to_string(&module).expect("topk module is readable");
        assert!(
            src.contains("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]"),
            "{} lost its unwrap/expect lint gate",
            module.display()
        );
    }
}

/// The workspace root as a canonical path, so source paths under it compare
/// by prefix.
fn workspace_root() -> PathBuf {
    crates_dir()
        .join("..")
        .canonicalize()
        .expect("the workspace root exists")
}

/// Every Rust source under `dir`, recursively, sorted.
fn rust_sources(dir: PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut pending = vec![dir];
    while let Some(dir) = pending.pop() {
        for entry in
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{} is readable: {e}", dir.display()))
        {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The workspace's own Rust sources: every crate plus the facade's `src`,
/// `tests` and `examples` (not `loadbench/`, its own workspace, nor
/// `vendor/`).
fn workspace_sources() -> Vec<PathBuf> {
    let root = workspace_root();
    ["crates", "src", "tests", "examples"]
        .into_iter()
        .map(|dir| root.join(dir))
        .filter(|dir| dir.exists())
        .flat_map(rust_sources)
        .collect()
}

/// Kendall answers report their `E[d_K]` exactly. The Monte-Carlo estimate
/// it replaced is a test reference in `cpdb_testkit`, so no production
/// source names it, and no workspace crate sets the retired sample count.
#[test]
fn kendall_distance_is_never_sampled_outside_the_testkit() {
    // Split so this file does not match itself.
    let call = concat!(".kendall_distance", "_samples(");
    let testkit = workspace_root().join("crates/testkit");
    let mut named = Vec::new();
    let mut set = Vec::new();
    for path in workspace_sources() {
        let src = std::fs::read_to_string(&path).expect("source is readable");
        if !path.starts_with(&testkit) && src.contains("expected_kendall_distance_sampled") {
            named.push(path.display().to_string());
        }
        if src.contains(call) {
            set.push(path.display().to_string());
        }
    }
    assert!(
        named.is_empty(),
        "the sampled Kendall estimate is named outside cpdb_testkit: {named:?}"
    );
    assert!(
        set.is_empty(),
        "the retired Kendall sample count is still set: {set:?}"
    );
}

/// Whether `src` names the identifier `ident` (not merely a longer
/// identifier containing it).
fn names_identifier(src: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    src.match_indices(ident).any(|(at, _)| {
        !src[..at].chars().next_back().is_some_and(is_ident)
            && !src[at + ident.len()..].chars().next().is_some_and(is_ident)
    })
}

/// The per-key generating-function references (rank PMFs, pairwise order,
/// co-occurrence and co-clustering weights, the direct placement and
/// position sums, the enumerated Kendall distance) are test oracles in
/// `cpdb_testkit`, and the tree keeps no marginal cache for them: no source
/// of a production crate — every crate but the testkit, the bench crate,
/// the checker and the workload generators — names one, and no production
/// crate depends on the testkit.
#[test]
fn production_crates_hold_only_the_serving_path() {
    // Split so this file does not match itself.
    let needles = [
        concat!("rank", "_pmf"),
        concat!("pairwise_order", "_probability"),
        concat!("cooccurrence", "_probability"),
        concat!("cluster", "_weight"),
        concat!("from_tree", "_per_pair"),
        concat!("placement_cost", "_direct"),
        concat!("position_profit", "_direct"),
        concat!("expected_kendall_distance", "_enumerated"),
        concat!("alternative_probabilities", "_cached"),
    ];
    let mut production: Vec<PathBuf> = std::fs::read_dir(crates_dir())
        .expect("workspace crates directory exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|dir| {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            dir.join("Cargo.toml").exists()
                && !["testkit", "bench", "check", "workloads"].contains(&name)
        })
        .collect();
    production.sort();
    assert!(
        production.len() >= 13,
        "expected every production crate, found only {production:?}"
    );
    let mut named = Vec::new();
    let mut depends = Vec::new();
    for dir in &production {
        for path in rust_sources(dir.clone()) {
            let src = std::fs::read_to_string(&path).expect("source is readable");
            for needle in needles {
                if names_identifier(&src, needle) {
                    named.push(format!("{}: {needle}", path.display()));
                }
            }
        }
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        let in_dependencies = manifest
            .lines()
            .skip_while(|line| line.trim() != "[dependencies]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['));
        for line in in_dependencies {
            if line.trim_start().starts_with("cpdb_testkit") {
                depends.push(dir.display().to_string());
            }
        }
    }
    assert!(
        named.is_empty(),
        "a production crate names a test-only reference path: {named:?}"
    );
    assert!(
        depends.is_empty(),
        "a production crate depends on the testkit: {depends:?}"
    );
}

/// The engine keeps no Kendall tournament: neither the engine nor the store
/// names the tournament, its patch path, its export or the pivot, and the
/// served Kendall function takes no RNG.
#[test]
fn the_kendall_tournament_stays_out_of_the_engine() {
    // Split so this file does not match itself.
    let needles = [
        concat!("Preference", "Matrix"),
        concat!("Preference", "Export"),
        concat!("preference_matrix", "_patched"),
        concat!("pivot_best", "_of"),
        concat!("KENDALL_PIVOT", "_TRIALS"),
    ];
    let mut named = Vec::new();
    for dir in ["engine/src", "store/src"] {
        for path in rust_sources(crates_dir().join(dir)) {
            let src = std::fs::read_to_string(&path).expect("source is readable");
            for needle in needles {
                if names_identifier(&src, needle) {
                    named.push(format!("{}: {needle}", path.display()));
                }
            }
        }
    }
    assert!(
        named.is_empty(),
        "the engine or the store names the Kendall tournament: {named:?}"
    );

    let module = crates_dir().join("consensus/src/topk/kendall.rs");
    let src = std::fs::read_to_string(&module).expect("kendall module is readable");
    let start = src
        .find("pub fn mean_topk_kendall(")
        .expect("the served Kendall function exists");
    let signature = &src[start..];
    let signature = &signature[..signature.find('{').expect("the function has a body")];
    assert!(
        !signature.contains("Rng"),
        "the served Kendall function takes an RNG: {signature}"
    );
}

/// Each Top-k metric has one algorithm on the serving path: the engine has
/// no solver to choose, so no workspace source names a strategy type or sets
/// one on the builder.
#[test]
fn topk_metrics_have_no_strategy_knob() {
    // Split so this file does not match itself.
    let needles = [
        concat!("Kendall", "Strategy"),
        concat!("Intersection", "Strategy"),
        concat!(".kendall", "_strategy("),
        concat!(".intersection", "_strategy("),
    ];
    let mut named = Vec::new();
    for path in workspace_sources() {
        let src = std::fs::read_to_string(&path).expect("source is readable");
        for needle in needles {
            if src.contains(needle) {
                named.push(format!("{}: {needle}", path.display()));
            }
        }
    }
    assert!(
        named.is_empty(),
        "a Top-k strategy knob is named: {named:?}"
    );
}

/// Every perf number comes from the one `ledger` driver and lands in
/// `BENCH_ledger.json`: no per-suite emitter binary or bench JSON grows back,
/// and no second timing harness (bench targets or a vendored bench crate)
/// returns beside it.
#[test]
fn perf_numbers_have_one_driver_and_one_ledger() {
    let names_in = |dir: PathBuf| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", dir.display()))
            .map(|entry| {
                let entry = entry.expect("readable dir entry");
                entry.file_name().to_string_lossy().into_owned()
            })
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        names_in(crates_dir().join("bench/src/bin")),
        ["experiments.rs", "ledger.rs"],
        "crates/bench/src/bin holds a binary besides the ledger and experiments drivers"
    );
    let bench_json: Vec<String> = names_in(crates_dir().join(".."))
        .into_iter()
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert_eq!(bench_json, ["BENCH_ledger.json"]);
    for dir in ["crates/bench/benches", "vendor/criterion"] {
        assert!(
            !workspace_root().join(dir).exists(),
            "{dir} is back: time kernels in the ledger or an experiments table"
        );
    }
}
