//! `loadbench` — one closed-loop load generator for the consensus stack.
//!
//! ```text
//! loadbench --workload <serve_mix|write_mix|recover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the public API of `cpdb_engine`, `cpdb_live`,
//! `cpdb_store` and `cpdb_replica` at n = 120 on the seeded scored-BID tree
//! family; the engine runs on that thread too. Every operation's output is
//! checked. Timings are reported at a reference host speed, measured by a
//! fixed kernel timed between operations (see `stats::HostSpeed`). With
//! `--trace 0` the run measures for `--seconds` and reports the end-to-end
//! metrics; with `--trace 1` it measures half the time untraced and half
//! traced, and reports the per-layer metrics (see `DESIGN.md`). The last
//! stdout line is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.

mod inputs;
mod layers;
mod recover;
mod serve;
mod stats;
mod trace;
mod vfs;
mod write;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How many times each workload runs its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// What one workload needs from the command line.
pub struct Config {
    pub seed: u64,
    /// Total measured time.
    pub seconds: f64,
    pub trace: bool,
    /// This process's scratch directory for stores, outboxes and inboxes.
    pub dir: PathBuf,
}

impl Config {
    /// The measured phases: the whole time untraced, or half untraced and
    /// half traced.
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            (half, Some(half))
        } else {
            (Duration::from_secs_f64(self.seconds), None)
        }
    }
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// What a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The gated end-to-end metrics every workload reports (untraced run).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// The per-layer metrics every workload reports in the traced run; a layer
/// a workload never calls reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("read_qps", "1/s"),
        ("read_p50_ms", "ms"),
        ("read_p99_ms", "ms"),
        ("write_per_s", "1/s"),
        ("write_p50_ms", "ms"),
        ("write_p99_ms", "ms"),
        ("write_bytes_per_delta", "B"),
        ("open_p50_ms", "ms"),
        ("open_p90_ms", "ms"),
        ("catchup_p50_ms", "ms"),
        ("catchup_p90_ms", "ms"),
        ("error_rate", "ratio"),
        ("host.kernel_ms", "ms"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .into();
    for fam in inputs::FAMILIES {
        v.push((format!("answer.{fam}.ms"), "ms"));
        v.push((format!("answer.{fam}.share"), "ratio"));
    }
    for fam in layers::ARTIFACTS {
        v.push((format!("artifact.{fam}.builds"), "count"));
        v.push((format!("artifact.{fam}.build_ms"), "ms"));
    }
    v.push(("artifact.hit_ratio".into(), "ratio"));
    for kind in inputs::DELTA_KINDS {
        v.push((format!("patch.{kind}.ms"), "ms"));
    }
    for (n, u) in [
        ("patch.kept", "count"),
        ("patch.patched", "count"),
        ("patch.invalidated", "count"),
        ("wal.append_ms", "ms"),
        ("wal.fsync_ms", "ms"),
        ("wal.fsyncs_per_delta", "count"),
        ("wal.bytes_per_delta", "B"),
        ("snapshot.write_ms", "ms"),
        ("snapshot.decode_ms", "ms"),
        ("snapshot.bytes", "B"),
        ("open.from_export_ms", "ms"),
        ("open.replay_ms_per_record", "ms"),
        ("live.apply_self_ms", "ms"),
        ("compaction.count", "count"),
        ("compaction.ms", "ms"),
        ("compaction.bytes_rewritten", "B"),
        ("replica.ship_ms", "ms"),
        ("replica.ship_bytes", "B"),
        ("replica.bootstrap_ms", "ms"),
        ("replica.sync_ms", "ms"),
        ("replica.replay_ms_per_record", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

const USAGE: &str = "usage: loadbench --workload <serve_mix|write_mix|recover> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero (an empty f64 sum) into `0`.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".loadbench_tmp");
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: root.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.dir).expect("creating the scratch directory");
    let (outcome, tracer) = match args.workload.as_str() {
        "serve_mix" => serve::run(&cfg),
        "write_mix" => write::run(&cfg),
        "recover" => recover::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            let _ = std::fs::remove_dir_all(&cfg.dir);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    if cfg.trace {
        let path = root.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
    }

    let Outcome {
        attempted,
        failed,
        metrics: Metrics(mut values),
    } = outcome;
    values.insert("error_rate".into(), failed as f64 / attempted.max(1) as f64);
    let reported: Vec<(String, &str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_string(), u)).into()
    };
    for (name, value) in &values {
        println!("# {name} = {value}");
    }
    let body: Vec<String> = reported
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
