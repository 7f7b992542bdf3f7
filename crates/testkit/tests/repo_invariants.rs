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

/// The panic-freedom burn-down of the storage and serving layers (and of
/// `cpdb_rankagg`, whose `TopKList` carries every Top-k answer) is gated by
/// clippy lints; this pin keeps the gates themselves from regressing.
#[test]
fn store_and_live_keep_their_unwrap_gates() {
    for crate_name in ["store", "live", "replica", "obs", "rankagg"] {
        let lib = crates_dir().join(crate_name).join("src/lib.rs");
        let src = std::fs::read_to_string(&lib).expect("crate root is readable");
        assert!(
            src.contains("deny(clippy::unwrap_used, clippy::expect_used)"),
            "{} lost its unwrap/expect lint gate",
            lib.display()
        );
    }
}

/// Panics unless every module under `crates/` in `modules` keeps the
/// serving crates' panic-freedom gate.
fn assert_unwrap_gates(modules: &[&str]) {
    let gate = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";
    for module in modules {
        let path = crates_dir().join(module);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
        assert!(
            src.contains(gate),
            "{} lost its unwrap/expect lint gate",
            path.display()
        );
    }
}

/// The Jaccard scan runs on the serving path of every set query; its
/// module keeps the same panic-freedom gate as the serving crates.
#[test]
fn jaccard_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["consensus/src/jaccard.rs"]);
}

/// The Theorem-4 median DP answers every `TopK{SymDiff, Median}` query; it
/// keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn median_dp_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["consensus/src/topk/median_dp.rs"]);
}

/// The local search answers every `TopK{Kendall}` query; the Kendall module
/// keeps the same panic-freedom gate as the median DP.
#[test]
fn kendall_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["consensus/src/topk/kendall.rs"]);
}

/// KwikCluster and its cost answer every `Clustering` query; the clustering
/// module keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn clustering_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["consensus/src/clustering.rs"]);
}

/// The batch generating-function sweeps build every rank context and
/// pairwise artifact; the module keeps the same panic-freedom gate.
#[test]
fn andxor_batch_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["andxor/src/batch.rs"]);
}

/// Theorem 2 answers every `SetConsensus{SymmetricDifference}` query; the
/// set-distance module keeps the same panic-freedom gate as the Jaccard scan.
#[test]
fn set_distance_module_keeps_its_unwrap_gate() {
    assert_unwrap_gates(&["consensus/src/set_distance.rs"]);
}

/// Every Top-k builder reads the rank context, and every Top-k list is built
/// by the symmetric-difference module's `topk_list`; both keep the median's
/// panic-freedom gate.
#[test]
fn median_neighbour_modules_keep_their_unwrap_gates() {
    assert_unwrap_gates(&[
        "consensus/src/topk/context.rs",
        "consensus/src/topk/sym_diff.rs",
    ]);
}

/// The assignments answer every `TopK{Footrule}` and `TopK{Intersection}`
/// query, and the engine serves every `Baseline` query from the baselines
/// module; all three keep the same panic-freedom gate.
#[test]
fn assignment_and_baseline_modules_keep_their_unwrap_gates() {
    assert_unwrap_gates(&[
        "consensus/src/topk/footrule.rs",
        "consensus/src/topk/intersection.rs",
        "consensus/src/baselines.rs",
    ]);
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

/// Every production crate: each workspace crate but the testkit, the bench
/// crate, the checker and the workload generators.
fn production_crates() -> Vec<PathBuf> {
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
    production
}

/// `path: needle` for each production source that names one of `needles`.
fn production_sources_naming(needles: &[&str]) -> Vec<String> {
    let mut named = Vec::new();
    for dir in production_crates() {
        for path in rust_sources(dir) {
            let src = std::fs::read_to_string(&path).expect("source is readable");
            for needle in needles {
                if names_identifier(&src, needle) {
                    named.push(format!("{}: {needle}", path.display()));
                }
            }
        }
    }
    named
}

/// The per-key generating-function references (rank PMFs, pairwise order,
/// co-occurrence and co-clustering weights, the direct placement and
/// position sums, the enumerated Kendall distance) and the brute-force
/// oracle are test code in `cpdb_testkit`, and the tree keeps no marginal
/// cache for them. So no production source names a reference, the oracle,
/// a second Kendall sweep, a retired rank aggregator or a retired keyed
/// accessor of the rank context, and no production crate depends on the
/// testkit.
#[test]
fn production_crates_hold_only_the_serving_path() {
    // Split so this file does not match itself.
    let named = production_sources_naming(&[
        concat!("rank", "_pmf"),
        concat!("pairwise_order", "_probability"),
        concat!("cooccurrence", "_probability"),
        concat!("cluster", "_weight"),
        concat!("from_tree", "_per_pair"),
        concat!("placement_cost", "_direct"),
        concat!("position_profit", "_direct"),
        concat!("expected_kendall_distance", "_enumerated"),
        concat!("alternative_probabilities", "_cached"),
        concat!("Kendall", "Terms"),
        concat!("batch_kendall", "_terms"),
        concat!("borda", "_aggregate"),
        concat!("borda", "_aggregate_topk"),
        concat!("footrule", "_aggregate"),
        concat!("footrule", "_aggregate_topk"),
        concat!("cpdb_consensus::", "oracle"),
        concat!("crate::", "oracle"),
        concat!("mod ", "oracle"),
        concat!("rank", "_probability"),
        concat!("rank", "_cdf"),
        concat!("topk", "_probability"),
        concat!("beyond_topk", "_probability"),
        concat!("upsilon", "1"),
        concat!("upsilon", "2"),
        concat!("upsilon", "3"),
        concat!("misplacement", "_mass"),
    ]);
    assert!(
        named.is_empty(),
        "a production crate names a test-only reference path: {named:?}"
    );
    let depends: Vec<String> = production_crates()
        .into_iter()
        .filter(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
            manifest_dependencies(&manifest)
                .iter()
                .any(|d| d == "cpdb_testkit")
        })
        .map(|dir| dir.display().to_string())
        .collect();
    assert!(
        depends.is_empty(),
        "a production crate depends on the testkit: {depends:?}"
    );
}

/// Kendall has one mechanism in production: the pool table and the local
/// search. The pivot (the tournament, KwikSort, full rankings and the Kemeny
/// optimum) is a reference in `cpdb_testkit`, so no production source names
/// it or the tournament's engine slot, and the served Kendall function takes
/// no RNG.
#[test]
fn the_kendall_tournament_stays_out_of_the_engine() {
    // Split so this file does not match itself. `preference_matrix` is no
    // needle: the engine keeps a deprecated no-op of that name for loadbench.
    let named = production_sources_naming(&[
        concat!("Preference", "Matrix"),
        concat!("Preference", "Export"),
        concat!("preference_matrix", "_patched"),
        concat!("KENDALL_PIVOT", "_TRIALS"),
        concat!("pivot_best", "_of"),
        concat!("kemeny", "_optimal"),
        concat!("Full", "Ranking"),
        concat!("mean_topk_kendall", "_pivot"),
    ]);
    assert!(
        named.is_empty(),
        "a production crate names the Kendall tournament: {named:?}"
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

/// The non-test part of a source: everything before its test module.
fn non_test(src: &str) -> &str {
    src.find("#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// The Top-k layer computes on row positions: `TopKContext` takes one key
/// only in `row_of`, for callers that hold nothing else, and every list
/// ranked by a score comes from the one comparator in `rank_by_score`.
#[test]
fn topk_layer_looks_keys_up_once_and_ranks_by_one_order() {
    let consensus = crates_dir().join("consensus/src");
    let context = std::fs::read_to_string(consensus.join("topk/context.rs")).expect("context");
    let keyed: Vec<&str> = non_test(&context)
        .lines()
        .filter(|line| line.contains("pub fn") && line.contains(": TupleKey"))
        .collect();
    assert_eq!(
        keyed,
        ["    pub fn row_of(&self, t: TupleKey) -> Option<RankRow<'_>> {"],
        "TopKContext takes a key outside row_of"
    );
    let mut comparators = Vec::new();
    let mut sources = rust_sources(consensus.join("topk"));
    sources.push(consensus.join("baselines.rs"));
    for path in sources {
        let src = std::fs::read_to_string(&path).expect("source is readable");
        let code = non_test(&src)
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"));
        for line in code.filter(|line| line.contains("partial_cmp")) {
            comparators.push(format!("{}: {}", path.display(), line.trim()));
        }
    }
    assert_eq!(
        comparators.len(),
        1,
        "the Top-k layer ranks by more than one comparator: {comparators:?}"
    );
}

/// The dependency names in the `[dependencies]` table of a manifest, sorted.
fn manifest_dependencies(manifest: &str) -> Vec<String> {
    let mut names: Vec<String> = manifest
        .lines()
        .skip_while(|line| line.trim() != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let end = line.find(['.', '=', ' ']).unwrap_or(line.len());
            line[..end].to_string()
        })
        .collect();
    names.sort();
    names
}

/// `loadbench/` is its own workspace, and the load benchmark builds it with
/// `--locked`. Its `Cargo.lock` pins the dependencies of every workspace
/// crate it builds, so adding or dropping a `[dependencies]` line of one of
/// them fails the benchmark with "cannot update the lock file". This pins
/// each `cpdb_*` package of that lock file to the `[dependencies]` of its
/// manifest (`crates/<name without cpdb_>`, or `loadbench/` itself), so
/// such a change fails here first and names the lock file to regenerate
/// with the benchmark.
#[test]
fn loadbench_lock_matches_the_crate_manifests() {
    let root = workspace_root();
    let lock = std::fs::read_to_string(root.join("loadbench/Cargo.lock"))
        .expect("loadbench/Cargo.lock is readable");
    let mut checked = 0;
    let mut drifted = Vec::new();
    for package in lock.split("[[package]]").skip(1) {
        let field = |key: &str| {
            package.lines().find_map(|line| {
                let value = line.strip_prefix(key)?.trim_start().strip_prefix('=')?;
                Some(value.trim().trim_matches('"').to_string())
            })
        };
        let name = field("name").expect("every locked package has a name");
        let Some(dir) = name.strip_prefix("cpdb_") else {
            continue;
        };
        let mut locked: Vec<String> = package
            .lines()
            .skip_while(|line| !line.starts_with("dependencies"))
            .skip(1)
            .take_while(|line| line.trim() != "]")
            .map(|line| {
                let entry = line.trim().trim_end_matches(',').trim_matches('"');
                // A duplicated name is locked as "name version".
                entry.split(' ').next().unwrap_or(entry).to_string()
            })
            .collect();
        locked.sort();
        let manifest = if dir == "loadbench" {
            root.join("loadbench/Cargo.toml")
        } else {
            root.join("crates").join(dir).join("Cargo.toml")
        };
        let declared = manifest_dependencies(
            &std::fs::read_to_string(&manifest)
                .unwrap_or_else(|e| panic!("{} is readable: {e}", manifest.display())),
        );
        if declared != locked {
            drifted.push(format!(
                "{name}: {} declares {declared:?}, loadbench/Cargo.lock pins {locked:?}",
                manifest.display()
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 10,
        "expected every crate loadbench builds, found only {checked} cpdb packages"
    );
    assert!(
        drifted.is_empty(),
        "a crate's [dependencies] no longer match loadbench/Cargo.lock, so the \
         `--locked` benchmark build would fail: {drifted:?}"
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
