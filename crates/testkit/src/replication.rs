//! Replication chaos: seeded fault schedules swept over every I/O call
//! site of a read replica's ship-fetch-verify-replay pipeline.
//!
//! The protocol mirrors [`crate::chaos`]: a **reference run** drives a
//! fault-free primary/follower pair over two in-memory
//! [`FaultVfs`] filesystems (the primary's store and
//! outbox on one, the follower's inbox and local store on the other),
//! recording the delta sequence, the probe answers published at every
//! epoch, and the follower-side operation-trace length. The **fault
//! sweep** replays the identical workload once per (follower operation
//! index × fault mode) and asserts the replication robustness contract:
//!
//! * **The follower never serves an unverified epoch.** At every
//!   observation point its answers are bit-identical to the reference
//!   answers for its applied epoch — a corrupt, torn, or missing ship
//!   degrades the link but never the served state.
//! * **Recovery restores replication.** When the outage ends (or after a
//!   follower power cut and restart) the follower catches back up to the
//!   shipped epoch and passes the full divergence check against the
//!   primary.
//! * **Failover is fenced.** [`check_promotion_sweep`] power-cuts the
//!   primary at every operation of its final ship: the follower promotes,
//!   the promoted writer is bit-identical to the never-faulted reference
//!   at its epoch and can finish the workload, and a revived old primary
//!   is refused with [`ReplicaError::Fenced`].

use crate::chaos::{FaultMode, FAULT_MODES};
use crate::conformance::{live_probe, random_live_delta};
use cpdb_andxor::{AndXorTree, TreeDelta};
use cpdb_engine::{Answer, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query};
use cpdb_live::LiveEngine;
use cpdb_replica::{check_divergence, Follower, Primary, ReplicaError, Transport};
use cpdb_store::{FaultVfs, RetryPolicy, StoreOptions, Vfs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Deltas applied (and shipped) per run, each publishing one epoch.
const STEPS: usize = 3;
/// The step shipped via [`Primary::rotate_anchor`] instead of a plain
/// segment ship, so every sweep also covers the rebase-and-rebootstrap
/// pipeline.
const ROTATE_AFTER: usize = 1;
const P_STORE: &str = "/p/store";
const OUTBOX: &str = "/p/outbox";
const INBOX: &str = "/f/inbox";
const F_STORE: &str = "/f/store";

/// The recorded fault-free workload the sweeps replay.
struct Reference {
    deltas: Vec<TreeDelta>,
    /// `answers[e]` = probe answers published at epoch `e`.
    answers: Vec<Vec<Result<Answer, EngineError>>>,
    /// Filesystem operations the follower side performs fault-free.
    follower_ops: u64,
}

fn build_engine(tree: &AndXorTree, seed: u64) -> ConsensusEngine {
    let n = tree.keys().len();
    ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .build()
        .expect("replication conformance configuration is valid")
}

fn options(vfs: &FaultVfs) -> StoreOptions {
    StoreOptions {
        vfs: Arc::new(vfs.clone()),
        retry: RetryPolicy::no_delay(3),
        ..StoreOptions::default()
    }
}

fn arc(vfs: &FaultVfs) -> Arc<dyn Vfs> {
    Arc::new(vfs.clone())
}

/// A durable primary attached to its outbox, with the epoch-0 anchor
/// already shipped.
fn start_primary(tree: &AndXorTree, seed: u64, pvfs: &FaultVfs) -> Primary {
    let live =
        LiveEngine::new_durable_with(build_engine(tree, seed), Path::new(P_STORE), options(pvfs))
            .expect("fresh in-memory primary store is creatable");
    let primary =
        Primary::attach(live, arc(pvfs), Path::new(OUTBOX)).expect("fresh outbox is claimable");
    primary.ship().expect("fault-free anchor ship succeeds");
    primary
}

fn open_follower(pvfs: &FaultVfs, rvfs: &FaultVfs) -> Result<Follower, ReplicaError> {
    let transport = Transport::new(arc(pvfs), Path::new(OUTBOX), arc(rvfs), Path::new(INBOX))?;
    Follower::open(transport, Path::new(F_STORE), options(rvfs))
}

/// The follower must only ever serve a verified epoch: its answers are
/// bit-identical to the reference answers at its applied epoch.
fn assert_serves_reference(
    follower: &Follower,
    probe: &[Query],
    reference: &Reference,
    context: &str,
) {
    let epoch = follower.applied_epoch() as usize;
    assert!(
        epoch < reference.answers.len(),
        "{context}: follower applied epoch {epoch} beyond the reference run"
    );
    assert_eq!(
        follower.snapshot().run_batch_serial(probe),
        reference.answers[epoch],
        "{context}: follower at epoch {epoch} served answers that differ from the reference"
    );
}

/// Drives the fault-free primary/follower pair, recording the workload and
/// asserting epoch-for-epoch bit-identity plus the full divergence check
/// at every ship. Returns the recording and the number of checks.
fn reference_run(tree: &AndXorTree, seed: u64, probe: &[Query]) -> (Reference, usize) {
    let pvfs = FaultVfs::new();
    let rvfs = FaultVfs::new();
    let primary = start_primary(tree, seed, &pvfs);
    let mut follower = open_follower(&pvfs, &rvfs).expect("fault-free follower opens");
    assert_eq!(follower.sync().expect("fault-free sync succeeds"), 0);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x05E6_6E27);
    let mut deltas = Vec::new();
    let mut answers = vec![primary.snapshot().run_batch_serial(probe)];
    let mut checks = 1;
    for step in 0..STEPS {
        let delta = random_live_delta(primary.snapshot().tree(), step, &mut rng);
        primary.apply(&delta).expect("generated deltas are valid");
        deltas.push(delta);
        answers.push(primary.snapshot().run_batch_serial(probe));
        if step == ROTATE_AFTER {
            primary
                .rotate_anchor()
                .expect("fault-free rotation succeeds");
        } else {
            primary.ship().expect("fault-free ship succeeds");
        }
        assert_eq!(
            follower.sync().expect("fault-free sync succeeds"),
            step as u64 + 1,
            "fault-free follower failed to reach the shipped epoch"
        );
        assert_eq!(
            follower.snapshot().run_batch_serial(probe),
            answers[step + 1],
            "fault-free follower diverged from the primary at epoch {}",
            step + 1
        );
        check_divergence(&primary.snapshot(), &follower.snapshot(), probe)
            .expect("fault-free follower passes the divergence check");
        assert_eq!(follower.lag(), 0);
        checks += 4;
    }
    let follower_ops = rvfs.op_count();
    (
        Reference {
            deltas,
            answers,
            follower_ops,
        },
        checks,
    )
}

/// Replays the recorded workload with one fault armed on the follower's
/// filesystem (inbox + local store) at operation `at_op`; the primary
/// side stays fault-free. Returns the number of checks performed.
fn faulted_follower_run(
    tree: &AndXorTree,
    seed: u64,
    probe: &[Query],
    reference: &Reference,
    mode: FaultMode,
    at_op: u64,
) -> usize {
    let pvfs = FaultVfs::new();
    let rvfs = FaultVfs::new();
    match mode {
        FaultMode::TransientOnce => rvfs.fail_at(at_op, io::ErrorKind::Interrupted, false),
        FaultMode::Permanent => rvfs.fail_at(at_op, io::ErrorKind::StorageFull, true),
        FaultMode::TornWrite => rvfs.short_write_at(at_op, io::ErrorKind::StorageFull),
        FaultMode::PowerCut => rvfs.halt_at(at_op),
    }
    let primary = start_primary(tree, seed, &pvfs);
    let mut checks = 0;
    let mut follower = open_follower(&pvfs, &rvfs).ok();

    for (step, delta) in reference.deltas.iter().enumerate() {
        primary
            .apply(delta)
            .expect("the fault-free primary applies");
        if step == ROTATE_AFTER {
            primary
                .rotate_anchor()
                .expect("the fault-free primary rotates");
        } else {
            primary.ship().expect("the fault-free primary ships");
        }
        let shipped = step as u64 + 1;

        let synced = match follower.as_mut() {
            Some(f) => match f.sync() {
                Ok(epoch) => {
                    assert_eq!(epoch, shipped, "a clean sync stopped short of the ship");
                    checks += 1;
                    true
                }
                Err(e) => {
                    assert!(
                        !matches!(e, ReplicaError::Engine(_)),
                        "fault injection surfaced as an engine error: {e}"
                    );
                    // The failed sync must not have poisoned the served
                    // state, and the health endpoint must show the outage.
                    assert_serves_reference(f, probe, reference, "after a failed sync");
                    assert!(
                        f.health().replication.is_none_or(|r| !r.link.is_healthy()),
                        "a failed sync left the replication link green"
                    );
                    checks += 3;
                    false
                }
            },
            None => false,
        };

        if !synced {
            // End the outage the mode's way, then the follower must catch
            // back up to the shipped epoch exactly.
            if mode == FaultMode::PowerCut {
                drop(follower.take());
                rvfs.crash();
            } else {
                rvfs.clear_faults();
                drop(follower.take());
            }
            let mut reopened =
                open_follower(&pvfs, &rvfs).expect("the follower reopens once the outage ends");
            assert_serves_reference(&reopened, probe, reference, "after reopening");
            assert_eq!(
                reopened.sync().expect("sync succeeds once the outage ends"),
                shipped,
                "the recovered follower failed to catch up"
            );
            checks += 2;
            follower = Some(reopened);
        }

        let f = follower.as_ref().expect("follower is live after recovery");
        assert_serves_reference(f, probe, reference, "at the shipped epoch");
        checks += 1;
    }

    // The completed replica is bit-identical to the never-faulted primary.
    let f = follower.as_ref().expect("follower is live at the end");
    check_divergence(&primary.snapshot(), &f.snapshot(), probe)
        .expect("the recovered follower passes the divergence check");
    checks + 1
}

/// Strided sweep of every fault mode over the follower's operation trace,
/// phase-shifted by `seed`. `stride` = 1 is exhaustive. Returns the number
/// of assertions performed.
pub fn check_replication_sweep(tree: &AndXorTree, seed: u64, stride: usize) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let (reference, mut checks) = reference_run(tree, seed, &probe);
    let stride = stride.max(1) as u64;
    let mut at_op = seed % stride;
    while at_op < reference.follower_ops {
        for mode in FAULT_MODES {
            checks += faulted_follower_run(tree, seed, &probe, &reference, mode, at_op);
        }
        at_op += stride;
    }
    checks
}

/// One follower fault schedule drawn from `schedule`, for property-based
/// sweeps over random trees and random ship schedules. Returns the number
/// of assertions performed.
pub fn check_replication_recovery(tree: &AndXorTree, seed: u64, schedule: u64) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let (reference, checks) = reference_run(tree, seed, &probe);
    let at_op = schedule % reference.follower_ops;
    let mode = FAULT_MODES[(schedule / reference.follower_ops) as usize % FAULT_MODES.len()];
    checks + faulted_follower_run(tree, seed, &probe, &reference, mode, at_op)
}

/// The fault-free epoch-for-epoch replication conformance check used by
/// the main oracle sweep: ship, replay, and divergence-check a follower on
/// every conformance seed. Returns the number of assertions performed.
pub fn check_replication(tree: &AndXorTree, seed: u64) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    reference_run(tree, seed, &probe).1
}

/// Power-cuts the primary at every `stride`-th filesystem operation of its
/// final ship, then promotes the follower and asserts the failover
/// contract: the promoted writer serves a verified reference epoch,
/// finishes the workload bit-identically to the never-faulted reference,
/// and the revived old primary is refused with a typed fencing error.
/// Returns the number of assertions performed.
pub fn check_promotion_sweep(tree: &AndXorTree, seed: u64, stride: usize) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let (reference, mut checks) = reference_run(tree, seed, &probe);

    // Dry run to measure the primary-side operation window of the final
    // ship (the replays are trace-identical up to that point).
    let (window_start, window_end) = {
        let pvfs = FaultVfs::new();
        let rvfs = FaultVfs::new();
        let primary = start_primary(tree, seed, &pvfs);
        let mut follower = open_follower(&pvfs, &rvfs).expect("dry-run follower opens");
        follower.sync().expect("dry-run sync succeeds");
        for (step, delta) in reference.deltas.iter().enumerate() {
            primary.apply(delta).expect("dry-run apply succeeds");
            if step + 1 < reference.deltas.len() {
                if step == ROTATE_AFTER {
                    primary.rotate_anchor().expect("dry-run rotation succeeds");
                } else {
                    primary.ship().expect("dry-run ship succeeds");
                }
                follower.sync().expect("dry-run sync succeeds");
            }
        }
        let start = pvfs.op_count();
        primary.ship().expect("dry-run final ship succeeds");
        (start, pvfs.op_count())
    };

    let stride = stride.max(1) as u64;
    let mut at_op = window_start + seed % stride;
    // One schedule past the window covers the power cut landing after the
    // ship fully committed.
    while at_op <= window_end {
        checks += promotion_run(tree, seed, &probe, &reference, at_op);
        at_op += stride;
    }
    checks
}

/// One promotion schedule: the primary loses power at operation `at_op`
/// during (or just after) its final ship.
fn promotion_run(
    tree: &AndXorTree,
    seed: u64,
    probe: &[Query],
    reference: &Reference,
    at_op: u64,
) -> usize {
    let pvfs = FaultVfs::new();
    let rvfs = FaultVfs::new();
    let primary = start_primary(tree, seed, &pvfs);
    let mut follower = open_follower(&pvfs, &rvfs).expect("follower opens");
    follower.sync().expect("initial sync succeeds");
    for (step, delta) in reference.deltas.iter().enumerate() {
        primary.apply(delta).expect("apply before the cut succeeds");
        if step + 1 < reference.deltas.len() {
            if step == ROTATE_AFTER {
                primary
                    .rotate_anchor()
                    .expect("rotation before the cut succeeds");
            } else {
                primary.ship().expect("ship before the cut succeeds");
            }
            follower.sync().expect("sync before the cut succeeds");
        }
    }
    let mut checks = 0;

    // Power fails at `at_op` somewhere inside the final ship; the primary
    // host is dead from here on.
    pvfs.halt_at(at_op);
    let _ = primary.ship();
    drop(primary);
    pvfs.crash();

    // The follower sees either the old manifest or the fully committed new
    // one — never a torn intermediate — and serves only verified epochs.
    let last = STEPS as u64;
    match follower.sync() {
        Ok(epoch) => assert!(
            epoch == last - 1 || epoch == last,
            "sync after the cut landed on unshipped epoch {epoch}"
        ),
        Err(_) => assert_serves_reference(&follower, probe, reference, "after the primary died"),
    }
    assert_serves_reference(&follower, probe, reference, "before promotion");
    checks += 2;

    let applied = follower.applied_epoch();
    let new_primary = follower.promote().expect("promotion succeeds");
    assert_eq!(new_primary.epoch(), applied, "promotion moved the epoch");
    assert_eq!(
        new_primary.snapshot().run_batch_serial(probe),
        reference.answers[applied as usize],
        "the promoted writer serves answers that differ from the reference"
    );
    checks += 2;

    // The promoted writer finishes the workload and matches the
    // never-faulted reference bit-for-bit.
    for delta in &reference.deltas[applied as usize..] {
        new_primary
            .apply(delta)
            .expect("the promoted writer applies");
    }
    assert_eq!(new_primary.epoch(), last);
    assert_eq!(
        new_primary.snapshot().run_batch_serial(probe),
        reference.answers[last as usize],
        "the promoted writer finished the workload with different answers"
    );
    new_primary.ship().expect("the promoted writer ships");
    checks += 2;

    // A revived old primary holds a stale fencing token and is refused
    // with the typed error before it can split the brain.
    let revived = LiveEngine::open_with(Path::new(P_STORE), options(&pvfs))
        .expect("the old primary's store reopens after the power cut");
    match Primary::attach(revived, arc(&pvfs), Path::new(OUTBOX)) {
        Err(ReplicaError::Fenced { held, manifest }) => {
            assert!(
                manifest > held,
                "fencing refused without a newer manifest token ({held} vs {manifest})"
            );
        }
        Err(e) => panic!("revived old primary failed with the wrong error: {e}"),
        Ok(_) => panic!("revived old primary was allowed to reattach"),
    }
    checks + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn replication_sweep_covers_every_mode_on_one_fixture() {
        // A coarse stride keeps this unit test fast; the dedicated
        // replication_sweep suite runs the fine-grained sweep.
        let checks = check_replication_sweep(&fixtures::small_bid_tree(0), 0, 29);
        assert!(checks > 50, "sweep performed only {checks} checks");
    }

    #[test]
    fn promotion_sweep_fences_on_one_fixture() {
        let checks = check_promotion_sweep(&fixtures::small_tuple_independent_tree(1), 1, 7);
        assert!(
            checks > 20,
            "promotion sweep performed only {checks} checks"
        );
    }

    #[test]
    fn single_replication_schedule_runs() {
        let checks = check_replication_recovery(&fixtures::small_bid_tree(2), 2, 137);
        assert!(checks > 5, "single schedule performed only {checks} checks");
    }
}
