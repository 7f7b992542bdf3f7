//! The chaos harness: seeded fault schedules swept over every I/O call
//! site of a durable [`cpdb_live::LiveEngine`].
//!
//! The protocol mirrors the other conformance checks: a **reference run**
//! first drives a fault-free engine over a [`cpdb_store::FaultVfs`],
//! recording the delta sequence, the probe answers published at every
//! epoch, and the total number of filesystem operations the workload
//! performs. The **fault sweep** then replays the identical workload once
//! per (operation index × fault mode), arming a single fault at that
//! index, and asserts the full robustness contract at every divergence
//! point:
//!
//! * **No corrupt answer is ever served.** At every observation point the
//!   served answers are bit-identical to the reference answers for the
//!   served epoch — degraded engines keep serving the last published
//!   epoch, never a torn one.
//! * **Degraded writes touch no disk.** Once degraded, a refused write
//!   performs zero filesystem operations.
//! * **Recovery restores service.** When the outage ends
//!   ([`FaultVfs::clear_faults`](cpdb_store::FaultVfs::clear_faults) /
//!   [`crash`](cpdb_store::FaultVfs::crash)),
//!   [`try_recover`](cpdb_live::LiveEngine::try_recover) (or a reopen)
//!   resumes exactly where the engine left off, and the completed run is
//!   bit-identical to the never-faulted reference — including after a
//!   final simulated power cut, which also proves no orphan WAL record or
//!   half-renamed snapshot survives.
//!
//! [`check_fault_sweep`] is the strided exhaustive sweep used by the
//! `chaos_sweep` suite; [`check_fault_recovery`] runs one schedule and is
//! the entry point for property-based tests.

use crate::conformance::{live_probe, random_live_delta};
use cpdb_andxor::{AndXorTree, TreeDelta};
use cpdb_engine::{Answer, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query};
use cpdb_live::{LiveEngine, LiveError};
use cpdb_store::{FaultVfs, RetryPolicy, StoreOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Deltas applied per run (each publishing one epoch).
const STEPS: usize = 3;
/// The delta index after which every run takes a compacting snapshot, so
/// the sweep covers the snapshot-write and WAL-compaction pipelines, not
/// just appends.
const PERSIST_AFTER: usize = 1;
/// Store directory inside the in-memory [`FaultVfs`] (each run gets a
/// fresh filesystem, so the fixed path never collides).
const DIR: &str = "/chaos/live";

/// One single-fault schedule injected into a replayed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// A one-shot `EINTR`-style failure. The bounded retry in
    /// [`cpdb_store::RetryPolicy`] must absorb it invisibly on every
    /// retried path; unretried paths must still recover like any other
    /// fault.
    TransientOnce,
    /// A persistent `ENOSPC`-style outage: the faulted operation and every
    /// later one fail until the schedule is cleared.
    Permanent,
    /// A torn write followed by a persistent outage: the first faulted
    /// write persists half its buffer, modelling an in-page tear.
    TornWrite,
    /// Simulated power loss: every operation from the index on fails, then
    /// the machine reboots ([`FaultVfs::crash`](cpdb_store::FaultVfs::crash))
    /// and the store is reopened.
    PowerCut,
}

/// Every fault mode, in sweep order.
pub const FAULT_MODES: [FaultMode; 4] = [
    FaultMode::TransientOnce,
    FaultMode::Permanent,
    FaultMode::TornWrite,
    FaultMode::PowerCut,
];

/// The recorded fault-free workload the sweep replays.
struct Reference {
    deltas: Vec<TreeDelta>,
    /// `answers[e]` = probe answers published at epoch `e` (index 0 is the
    /// freshly created engine).
    answers: Vec<Vec<Result<Answer, EngineError>>>,
    total_ops: u64,
}

fn build_engine(tree: &AndXorTree, seed: u64) -> ConsensusEngine {
    let n = tree.keys().len();
    ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .build()
        .expect("chaos conformance configuration is valid")
}

fn options(vfs: &FaultVfs) -> StoreOptions {
    StoreOptions {
        vfs: Arc::new(vfs.clone()),
        retry: RetryPolicy::no_delay(3),
        ..StoreOptions::default()
    }
}

/// Drives the fault-free workload, recording deltas, per-epoch answers and
/// the operation-trace length, then proves the never-faulted store itself
/// survives a power cut (the baseline the faulted runs are held to).
fn reference_run(tree: &AndXorTree, seed: u64, probe: &[Query]) -> Reference {
    let vfs = FaultVfs::new();
    let dir = Path::new(DIR);
    let live = LiveEngine::new_durable_with(build_engine(tree, seed), dir, options(&vfs))
        .expect("fresh in-memory store is creatable");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
    let mut deltas = Vec::new();
    let mut answers = vec![live.snapshot().run_batch_serial(probe)];
    for step in 0..STEPS {
        let delta = random_live_delta(live.snapshot().tree(), step, &mut rng);
        live.apply(&delta).expect("generated deltas are valid");
        deltas.push(delta);
        answers.push(live.snapshot().run_batch_serial(probe));
        if step == PERSIST_AFTER {
            live.persist_snapshot()
                .expect("fault-free snapshot write succeeds");
        }
    }
    assert_eq!(live.epoch(), STEPS as u64);
    drop(live);
    let total_ops = vfs.op_count();

    vfs.crash();
    let reopened = LiveEngine::open_with(dir, options(&vfs))
        .expect("the never-faulted store reopens after a power cut");
    assert_eq!(
        reopened.epoch(),
        STEPS as u64,
        "the never-faulted store lost an acknowledged epoch across a power cut"
    );
    assert_eq!(
        reopened.snapshot().run_batch_serial(probe),
        answers[STEPS],
        "the never-faulted store changed answers across a power cut"
    );

    Reference {
        deltas,
        answers,
        total_ops,
    }
}

/// Final act of a power-cut run: the served epoch must survive the reboot
/// bit-identically. Returns the number of checks performed.
fn power_cut_epilogue(
    live: LiveEngine,
    vfs: &FaultVfs,
    probe: &[Query],
    reference: &Reference,
    served_epoch: usize,
) -> usize {
    assert_eq!(live.epoch(), served_epoch as u64);
    drop(live);
    vfs.crash();
    let reopened = LiveEngine::open_with(Path::new(DIR), options(vfs))
        .expect("reopening after a power cut succeeds");
    assert_eq!(
        reopened.epoch(),
        served_epoch as u64,
        "power-cut recovery lost an acknowledged epoch"
    );
    assert_eq!(
        reopened.snapshot().run_batch_serial(probe),
        reference.answers[served_epoch],
        "power-cut recovery changed answers"
    );
    3
}

/// Removes every file in the store directory and makes the removals
/// durable — the reset used when a fault interrupted creation so early
/// that nothing coherent survived.
fn wipe(vfs: &FaultVfs, dir: &Path) {
    let v: Arc<dyn cpdb_store::Vfs> = Arc::new(vfs.clone());
    if let Ok(names) = v.read_dir_names(dir) {
        for name in names {
            let _ = v.remove_file(&dir.join(name));
        }
    }
    let _ = v.sync_dir(dir);
}

/// Replays the recorded workload with one fault armed at operation
/// `at_op`, asserting the robustness contract at every divergence point.
/// Returns the number of checks performed.
fn faulted_run(
    tree: &AndXorTree,
    seed: u64,
    probe: &[Query],
    reference: &Reference,
    mode: FaultMode,
    at_op: u64,
) -> usize {
    let vfs = FaultVfs::new();
    match mode {
        FaultMode::TransientOnce => vfs.fail_at(at_op, io::ErrorKind::Interrupted, false),
        FaultMode::Permanent => vfs.fail_at(at_op, io::ErrorKind::StorageFull, true),
        FaultMode::TornWrite => vfs.short_write_at(at_op, io::ErrorKind::StorageFull),
        FaultMode::PowerCut => vfs.halt_at(at_op),
    }
    let dir = Path::new(DIR);
    let mut checks = 0;

    // Creation phase. A fault here may abort the constructor; the outage
    // then ends and the store must either reopen at epoch 0 (the epoch-0
    // snapshot became durable) or refuse cleanly, in which case nothing
    // coherent survived and a fresh creation must succeed.
    let live = match LiveEngine::new_durable_with(build_engine(tree, seed), dir, options(&vfs)) {
        Ok(live) => live,
        Err(e) => {
            assert!(
                !matches!(e, LiveError::Engine(_)),
                "fault injection surfaced as an engine error during creation: {e}"
            );
            checks += 1;
            if mode == FaultMode::PowerCut {
                vfs.crash();
            } else {
                vfs.clear_faults();
            }
            match LiveEngine::open_with(dir, options(&vfs)) {
                Ok(live) => {
                    assert_eq!(
                        live.epoch(),
                        0,
                        "a partially created store reopened at a non-zero epoch"
                    );
                    assert_eq!(
                        live.snapshot().run_batch_serial(probe),
                        reference.answers[0],
                        "a partially created store reopened with wrong answers"
                    );
                    checks += 2;
                    live
                }
                Err(_) => {
                    wipe(&vfs, dir);
                    checks += 1;
                    LiveEngine::new_durable_with(build_engine(tree, seed), dir, options(&vfs))
                        .expect("re-creation succeeds once the fault cleared")
                }
            }
        }
    };

    for (step, delta) in reference.deltas.iter().enumerate() {
        let mut recovered_once = false;
        loop {
            match live.apply(delta) {
                Ok(applied) => {
                    assert_eq!(
                        applied.epoch,
                        step as u64 + 1,
                        "replayed delta published the wrong epoch"
                    );
                    break;
                }
                Err(LiveError::Degraded(_)) if !recovered_once => {
                    recovered_once = true;
                    assert!(
                        mode != FaultMode::TransientOnce,
                        "a one-shot transient fault on the append path escaped the retry net"
                    );
                    // Readers keep serving the last published epoch,
                    // bit-identically to the fault-free reference.
                    assert_eq!(
                        live.epoch(),
                        step as u64,
                        "a failed delta still advanced the published epoch"
                    );
                    assert_eq!(
                        live.snapshot().run_batch_serial(probe),
                        reference.answers[step],
                        "a degraded engine served corrupt answers"
                    );
                    assert!(
                        !live.health().is_healthy(),
                        "health() stayed green while writes were refused"
                    );
                    // Refused writes must touch no disk.
                    let ops_before = vfs.op_count();
                    assert!(
                        matches!(live.apply(delta), Err(LiveError::Degraded(_))),
                        "a second write on a degraded engine was not refused"
                    );
                    assert_eq!(
                        vfs.op_count(),
                        ops_before,
                        "a refused degraded write still performed I/O"
                    );
                    checks += 5;
                    if mode == FaultMode::PowerCut {
                        return checks + power_cut_epilogue(live, &vfs, probe, reference, step);
                    }
                    vfs.clear_faults();
                    let health = live
                        .try_recover()
                        .expect("recovery succeeds once the outage ends");
                    assert!(
                        health.is_healthy(),
                        "try_recover reported success but health stayed degraded"
                    );
                    checks += 1;
                    // Loop around: the same delta is retried and must land.
                }
                Err(e) => panic!("unexpected error applying step {step}: {e}"),
            }
        }
        assert_eq!(
            live.snapshot().run_batch_serial(probe),
            reference.answers[step + 1],
            "answers diverged from the fault-free reference at epoch {}",
            step + 1
        );
        checks += 1;

        if step == PERSIST_AFTER {
            match live.persist_snapshot() {
                Ok(persisted) => assert_eq!(
                    persisted,
                    Some(step as u64 + 1),
                    "snapshot persisted the wrong epoch"
                ),
                Err(_) if mode == FaultMode::PowerCut => {
                    return checks + power_cut_epilogue(live, &vfs, probe, reference, step + 1);
                }
                Err(_) => {
                    // A failed compaction parks in health without touching
                    // the write path; once the outage ends a retry lands.
                    assert!(
                        !live.health().is_healthy(),
                        "a failed compaction left health() green"
                    );
                    assert!(
                        live.take_compaction_error().is_some(),
                        "a failed compaction parked no error"
                    );
                    vfs.clear_faults();
                    live.persist_snapshot()
                        .expect("snapshot retry succeeds once the outage ends");
                    checks += 2;
                }
            }
            checks += 1;
        }
    }

    // The full sequence landed; the post-recovery store must be
    // bit-identical to the never-faulted reference — including across one
    // final power cut, which also proves no orphan WAL record or
    // half-renamed snapshot survived the faults.
    assert_eq!(live.epoch(), STEPS as u64);
    checks + power_cut_epilogue(live, &vfs, probe, reference, STEPS)
}

/// Strided sweep of every fault mode over the workload's operation trace:
/// replay the recorded workload once per (operation index × mode), with
/// the sweep phase-shifted by `seed` so different seeds cover different
/// residues. `stride` = 1 is exhaustive. Returns the number of
/// assertions performed.
pub fn check_fault_sweep(tree: &AndXorTree, seed: u64, stride: usize) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let reference = reference_run(tree, seed, &probe);
    let stride = stride.max(1) as u64;
    let mut checks = 3; // the reference run's own power-cut parity checks
    let mut at_op = seed % stride;
    while at_op < reference.total_ops {
        for mode in FAULT_MODES {
            checks += faulted_run(tree, seed, &probe, &reference, mode, at_op);
        }
        at_op += stride;
    }
    checks
}

/// One fault schedule drawn from `schedule` (operation index and mode),
/// for property-based sweeps over random trees. Returns the number of
/// assertions performed.
pub fn check_fault_recovery(tree: &AndXorTree, seed: u64, schedule: u64) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let reference = reference_run(tree, seed, &probe);
    let at_op = schedule % reference.total_ops;
    let mode = FAULT_MODES[(schedule / reference.total_ops) as usize % FAULT_MODES.len()];
    3 + faulted_run(tree, seed, &probe, &reference, mode, at_op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn sweep_covers_every_mode_on_one_fixture() {
        // A coarse stride keeps this unit test fast; the dedicated
        // chaos_sweep suite runs the fine-grained sweep.
        let checks = check_fault_sweep(&fixtures::small_bid_tree(0), 0, 11);
        assert!(checks > 50, "sweep performed only {checks} checks");
    }

    #[test]
    fn single_schedule_check_runs() {
        let checks = check_fault_recovery(&fixtures::small_tuple_independent_tree(1), 1, 97);
        assert!(checks > 3, "single schedule performed only {checks} checks");
    }
}
