//! The model-checked concurrency suite: the real `cpdb_live` /
//! `cpdb_engine` / `cpdb_store` protocols driven through every
//! interleaving (within the preemption bound) by the `cpdb_check`
//! explorer.
//!
//! Only compiled under `RUSTFLAGS="--cfg cpdb_check"` — that flag flips
//! the `cpdb_sync` facades to the instrumented shims in *all* crates of
//! the dependency graph, so the `LiveEngine`/`ConsensusEngine` exercised
//! here are the production types, scheduled one shim-operation at a time.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg cpdb_check" cargo test -p cpdb_check --test interleavings -- --nocapture
//! ```
//! Each scenario prints its explored-schedule count; any violation panics
//! with a schedule ID replayable via `Checker::replay`.
#![cfg(cpdb_check)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_check::Checker;
use cpdb_engine::{ConsensusEngine, ConsensusEngineBuilder, Obs, Query, TopKMetric, Variant};
use cpdb_live::{LiveEngine, Snapshot, TreeDelta};
use cpdb_sync::thread;

/// Every checked scenario must cover at least this many distinct
/// schedules (the acceptance bar for the suite), unless it tried every
/// schedule within its preemption bound.
const MIN_SCHEDULES: usize = 1000;

/// Cap per exploration so the suite stays time-boxed in CI.
const MAX_SCHEDULES: usize = 2000;

/// The floor of every scenario: an exploration covers its scenario when it
/// tried every schedule within its preemption bound, or at least
/// `MIN_SCHEDULES` of them. One stopped by `MAX_SCHEDULES` is not
/// exhausted, so it must reach the floor.
fn assert_covered(ex: &cpdb_check::Exploration) {
    assert!(
        ex.exhausted || ex.schedules >= MIN_SCHEDULES,
        "only {} schedules explored, and the space is not exhausted",
        ex.schedules
    );
}

fn tiny_tree() -> AndXorTree {
    let mut b = AndXorTreeBuilder::new();
    let l1 = b.leaf_parts(1, 30.0);
    let x1 = b.xor_node(vec![(l1, 0.8)]);
    let l2 = b.leaf_parts(2, 20.0);
    let x2 = b.xor_node(vec![(l2, 0.4)]);
    let root = b.and_node(vec![x1, x2]);
    b.build(root).expect("tiny tree is valid")
}

fn tiny_engine() -> ConsensusEngine {
    ConsensusEngineBuilder::new(tiny_tree())
        .seed(7)
        .threads(1)
        .build()
        .expect("tiny engine builds")
}

fn topk() -> Query {
    topk_at(1)
}

fn topk_at(k: usize) -> Query {
    Query::TopK {
        k,
        metric: TopKMetric::SymmetricDifference,
        variant: Variant::Mean,
    }
}

fn reweight(snapshot: &Snapshot, key: u64, probability: f64) -> TreeDelta {
    let leaf = snapshot.tree().leaves_of_key(key)[0];
    TreeDelta::XorEdgeProbability {
        xor: snapshot
            .tree()
            .parent_of(leaf)
            .expect("leaf has xor parent"),
        child: leaf,
        probability,
    }
}

/// A fresh directory per execution (schedules must not share store state).
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cpdb_check_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scenario dir");
    dir
}

/// Copies a store directory byte-for-byte — the crash image a recovery
/// scenario reopens. Taken while the writer is parked at a shim yield
/// point, it is exactly the on-disk state a crash there would leave.
fn crash_copy(dir: &PathBuf, tag: &str) -> PathBuf {
    let copy = fresh_dir(tag);
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy store file");
    }
    copy
}

fn cleanup(tag: &str) {
    let tmp = std::env::temp_dir();
    if let Ok(entries) = std::fs::read_dir(&tmp) {
        let prefix = format!("cpdb_check_{tag}_{}", std::process::id());
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Scenario 1 — epoch publish: a reader pins a snapshot while a writer
/// publishes the next epoch. On every interleaving the snapshot's epoch
/// and answers stay frozen, and the final published epoch is the
/// writer's.
#[test]
fn epoch_publish_never_tears_a_pinned_snapshot() {
    let ex = Checker::new("epoch-publish")
        .max_schedules(MAX_SCHEDULES)
        .preemptions(4)
        .explore(|| {
            let live = Arc::new(LiveEngine::new(tiny_engine()));
            let seed_snap = live.snapshot();
            let delta = reweight(&seed_snap, 2, 0.75);
            let live2 = Arc::clone(&live);
            let writer = thread::spawn(move || {
                live2.apply(&delta).expect("delta applies");
            });
            let pinned = live.snapshot();
            let pinned_epoch = pinned.epoch();
            let a1 = pinned.run(&topk()).expect("pinned query");
            let a2 = pinned.run(&topk()).expect("pinned query again");
            assert_eq!(a1, a2, "pinned snapshot changed answers mid-publish");
            assert_eq!(pinned.epoch(), pinned_epoch, "snapshot epoch moved");
            writer.join().expect("writer");
            assert_eq!(live.epoch(), 1, "publish lost");
        });
    println!("{}", ex.report());
    ex.assert_ok();
    assert_covered(&ex);
}

/// Scenario 2 — WAL-before-publish: crash-copy the store directory at an
/// arbitrary yield point of a concurrent `apply` and recover the copy. An
/// epoch a reader has *observed as published* must always survive
/// recovery — the WAL append happens strictly before the publish.
#[test]
fn wal_append_precedes_publish_on_every_interleaving() {
    let ex = Checker::new("wal-before-publish")
        .max_schedules(1200)
        .preemptions(4)
        .explore(|| {
            let dir = fresh_dir("wal");
            let live =
                Arc::new(LiveEngine::new_durable(tiny_engine(), &dir).expect("durable engine"));
            let seed_snap = live.snapshot();
            let delta = reweight(&seed_snap, 2, 0.9);
            let live2 = Arc::clone(&live);
            let writer = thread::spawn(move || {
                live2.apply(&delta).expect("delta applies");
            });
            // Observe, then crash: whatever epoch was published at the
            // observation must be recoverable from the copied image.
            let observed = live.epoch();
            let image = crash_copy(&dir, "wal");
            let recovered = LiveEngine::open(&image).expect("crash image recovers");
            assert!(
                recovered.epoch() >= observed,
                "acknowledged epoch {observed} lost: recovered only {}",
                recovered.epoch()
            );
            drop(recovered);
            writer.join().expect("writer");
            // After the ack, the delta must be durable unconditionally.
            let image = crash_copy(&dir, "wal");
            let recovered = LiveEngine::open(&image).expect("final image recovers");
            assert_eq!(recovered.epoch(), 1, "acknowledged delta not durable");
        });
    println!("{}", ex.report());
    cleanup("wal");
    ex.assert_ok();
    assert_covered(&ex);
}

/// Scenario 3 — group commit: `apply_all` publishes all-or-nothing. A
/// concurrent reader may see the batch's final epoch or the base epoch,
/// never an intermediate one; a failing batch publishes nothing.
#[test]
fn apply_all_is_atomic_under_every_interleaving() {
    let ex = Checker::new("apply-all-atomic")
        .max_schedules(MAX_SCHEDULES)
        .preemptions(5)
        .explore(|| {
            let live = Arc::new(LiveEngine::new(tiny_engine()));
            let snap = live.snapshot();
            let batch = vec![reweight(&snap, 1, 0.6), reweight(&snap, 2, 0.7)];
            let live2 = Arc::clone(&live);
            let writer = thread::spawn(move || {
                live2.apply_all(&batch).expect("batch applies");
            });
            let seen = live.epoch();
            assert!(
                seen == 0 || seen == 2,
                "intermediate epoch {seen} observed during apply_all"
            );
            let snap_mid = live.snapshot();
            assert!(
                snap_mid.epoch() == 0 || snap_mid.epoch() == 2,
                "snapshot pinned intermediate epoch {}",
                snap_mid.epoch()
            );
            writer.join().expect("writer");
            assert_eq!(live.epoch(), 2, "batch publish lost");

            // A failing batch (invalid probability) must publish nothing.
            let bad = vec![
                reweight(&snap, 1, 0.5),
                reweight(&snap, 2, 1.5), // invalid: probability > 1
            ];
            assert!(live.apply_all(&bad).is_err(), "invalid batch accepted");
            assert_eq!(live.epoch(), 2, "failed batch moved the epoch");
        });
    println!("{}", ex.report());
    ex.assert_ok();
    assert_covered(&ex);
}

/// Scenario 4 — exactly-once builds: three threads race the same query on
/// a shared engine. On every interleaving all answers are identical, the
/// rank context is built exactly once, and the build/hit counters
/// conserve (one counter bump per lookup).
#[test]
fn concurrent_runs_build_each_artifact_exactly_once() {
    let ex = Checker::new("exactly-once-builds")
        .max_schedules(MAX_SCHEDULES)
        .preemptions(4)
        .explore(|| {
            let engine = Arc::new(tiny_engine());
            let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));
            let h1 = thread::spawn(move || e1.run(&topk()).expect("t1 answer"));
            let h2 = thread::spawn(move || e2.run(&topk()).expect("t2 answer"));
            let a0 = engine.run(&topk()).expect("root answer");
            let a1 = h1.join().expect("t1");
            let a2 = h2.join().expect("t2");
            assert_eq!(a0, a1, "answers diverged across threads");
            assert_eq!(a0, a2, "answers diverged across threads");
            let stats = engine.cache_stats();
            assert_eq!(
                stats.rank_context_builds, 1,
                "rank context built {} times",
                stats.rank_context_builds
            );
            assert_eq!(
                stats.rank_context_builds + stats.rank_context_hits,
                3,
                "context lookups not conserved: {stats:?}"
            );
        });
    println!("{}", ex.report());
    ex.assert_ok();
    assert_covered(&ex);
}

/// Scenario 4b — one rank context at mixed `k`: three threads run the same
/// query on a shared engine, two at k = 1 and one at k = 2. On every
/// interleaving each answer equals the serial one, the context is built at
/// most twice and each build is at a larger `k` than the one before, the
/// larger `k` ends up resident, and the build/hit counters conserve (one
/// counter bump per lookup). The space is explored exhaustively at two
/// preemptions: a build at k = 1 that overtakes the k = 2 one takes an early
/// preemption, which a capped search at a deeper bound never reaches.
#[test]
fn mixed_k_runs_grow_one_rank_context() {
    let serial: Vec<_> = [1, 2]
        .map(|k| tiny_engine().run(&topk_at(k)).expect("serial answer"))
        .to_vec();
    let ex = Checker::new("one-rank-context")
        .max_schedules(20_000)
        .preemptions(2)
        .explore(move || {
            let obs = Obs::enabled();
            let engine = Arc::new(tiny_engine().with_obs(obs.clone()));
            let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));
            let h1 = thread::spawn(move || e1.run(&topk_at(1)).expect("t1 answer"));
            let h2 = thread::spawn(move || e2.run(&topk_at(2)).expect("t2 answer"));
            let a0 = engine.run(&topk_at(1)).expect("root answer");
            let a1 = h1.join().expect("t1");
            let a2 = h2.join().expect("t2");
            assert_eq!(a0, serial[0], "k = 1 answer diverged from the serial one");
            assert_eq!(a1, serial[0], "k = 1 answer diverged from the serial one");
            assert_eq!(a2, serial[1], "k = 2 answer diverged from the serial one");
            let stats = engine.cache_stats();
            let built: Vec<usize> = obs
                .recent_events(usize::MAX)
                .iter()
                .filter_map(|e| {
                    let rest = e.detail.strip_prefix("rank_context[k=")?;
                    rest.split(']').next()?.parse().ok()
                })
                .collect();
            assert!(
                stats.rank_context_builds <= 2,
                "rank context built {} times",
                stats.rank_context_builds
            );
            assert_eq!(built.len(), stats.rank_context_builds, "{built:?}");
            assert!(
                built.windows(2).all(|w| w[0] < w[1]),
                "rank-context builds not at increasing k: {built:?}"
            );
            assert_eq!(
                engine.export().context.map(|c| c.k),
                Some(2),
                "the larger k is not resident"
            );
            assert_eq!(
                stats.rank_context_builds + stats.rank_context_hits,
                3,
                "context lookups not conserved: {stats:?}"
            );
        });
    println!("{}", ex.report());
    ex.assert_ok();
    assert!(ex.exhausted, "schedule space not exhausted");
    assert_covered(&ex);
}

/// Scenario 5 — compaction shutdown: a publish that crosses the snapshot
/// cadence spawns the background compactor; dropping the engine must join
/// it on every interleaving (no leaked thread, snapshot on disk).
#[test]
fn compaction_thread_joins_cleanly_on_drop() {
    let ex = Checker::new("compaction-shutdown")
        .max_schedules(1200)
        .preemptions(4)
        .explore(|| {
            let dir = fresh_dir("compact");
            let live = LiveEngine::new_durable(tiny_engine(), &dir).expect("durable engine");
            live.set_snapshot_every(1); // every delta triggers compaction
            let snap = live.snapshot();
            let live = Arc::new(live);
            let live2 = Arc::clone(&live);
            let reader = thread::spawn(move || {
                let pinned = live2.snapshot();
                pinned.run(&topk()).expect("reader answer");
                pinned.epoch()
            });
            live.apply(&reweight(&snap, 2, 0.85))
                .expect("delta applies");
            let reader_epoch = reader.join().expect("reader");
            assert!(reader_epoch <= 1, "reader saw unpublished epoch");
            assert!(
                live.last_compaction_error().is_none(),
                "background compaction failed"
            );
            let live = Arc::into_inner(live).expect("sole owner at shutdown");
            drop(live); // joins the compactor through the scheduler
            assert_eq!(
                cpdb_sync::runtime::other_live_tasks(),
                0,
                "background compactor leaked past Drop"
            );
        });
    println!("{}", ex.report());
    cleanup("compact");
    ex.assert_ok();
    assert_covered(&ex);
}
