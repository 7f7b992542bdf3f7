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

/// Every perf number comes from the one `ledger` driver and lands in
/// `BENCH_ledger.json`: no per-suite emitter binary or bench JSON grows back.
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
}
