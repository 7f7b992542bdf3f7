//! Smoke test: every example must build and run end to end.
//!
//! `quickstart` is the README's entry point and exercises the facade, the
//! tree conversion, and three consensus algorithms in one pass, so its
//! output is checked too. Every example under `examples/` must exit 0.

use std::path::Path;
use std::process::{Command, Output};

/// Runs one example through cargo and returns its output.
fn run_example(name: &str) -> Output {
    Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--offline", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo must be invocable from tests")
}

#[test]
fn quickstart_example_runs() {
    let output = run_example("quickstart");
    assert!(
        output.status.success(),
        "quickstart exited with {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("Consensus Top-"),
        "quickstart output missing consensus section:\n{stdout}"
    );
}

#[test]
fn every_example_runs() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("the examples directory is readable")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            let is_rust = path.extension().is_some_and(|ext| ext == "rs");
            is_rust.then(|| path.file_stem()?.to_str().map(str::to_owned))?
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "dedup_clustering",
            "extraction_aggregates",
            "live_updates",
            "quickstart",
            "sensor_topk"
        ]
    );
    for name in &names {
        let output = run_example(name);
        assert!(
            output.status.success(),
            "example {name} exited with {:?}:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
