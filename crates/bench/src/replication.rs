//! Replication workload: the `replication` suite of the `ledger` driver.
//!
//! Three questions the read-replica layer must answer with numbers:
//!
//! * **How fast does a fresh follower catch up, as a function of shipped
//!   WAL length?** Per segment length the workload ships one anchor plus
//!   one segment of that many records, then times a cold
//!   [`Follower`] bootstrap-and-replay
//!   (`open` + `sync`, `reps` times). Every measurement runs the full
//!   divergence check of the caught-up follower against the primary —
//!   digest and probe answers bit-identical — and counts the followers
//!   that fail it.
//!
//! * **What is the ship throughput?** The one-shot segment cut
//!   ([`Primary::ship`]: WAL filter, CRC
//!   framing, atomic write, manifest commit) is timed against the shipped
//!   segment bytes.
//!
//! * **How stale does a steady-state replica run?** With the primary
//!   applying and shipping every delta and the follower syncing every
//!   `sync_every` deltas, the epoch lag is sampled before every sync;
//!   the mean and maximum quantify the staleness a read replica serves at
//!   a given sync cadence.

use crate::persistence::temp_dir;
use crate::sample::Sample;
use crate::update_throughput::{leaf_deltas, live_engine, live_tree};
use cpdb_engine::{Query, TopKMetric, Variant};
use cpdb_live::LiveEngine;
use cpdb_replica::{check_divergence, Follower, Primary, Transport};
use cpdb_store::{std_vfs, StoreOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Catch-up and ship-throughput numbers at one shipped-segment length.
pub struct CatchUpResult {
    /// Records in the shipped segment.
    pub shipped_records: usize,
    /// Total shipped bytes (anchor + segment + manifest).
    pub shipped_bytes: u64,
    /// Bytes the measured segment ship added.
    pub segment_bytes: u64,
    /// Milliseconds for the one-shot segment cut and manifest commit.
    pub ship_ms: f64,
    /// Milliseconds for a cold follower to bootstrap from the anchor and
    /// replay the segment (`Follower::open` + `sync`).
    pub catch_up_ms: Sample,
    /// Caught-up followers that were not bit-identical to the primary.
    pub diverged: usize,
}

/// Steady-state staleness at one sync cadence.
pub struct StalenessResult {
    /// Deltas between follower syncs.
    pub sync_every: usize,
    /// Mean epoch lag sampled before every sync.
    pub mean_lag: f64,
    /// Maximum epoch lag observed.
    pub max_lag: u64,
    /// Whether the follower failed the final divergence check.
    pub diverged: bool,
}

/// The conformance probe checked on every measured catch-up.
fn probe() -> Vec<Query> {
    [1usize, 2]
        .into_iter()
        .map(|k| Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        })
        .collect()
}

/// A primary over `n` blocks with its store and outbox on fresh on-disk
/// temp directories, anchor already shipped. Returns the primary and the
/// two directories (store, outbox).
fn on_disk_primary(n: usize, seed: u64) -> (Primary, PathBuf, PathBuf) {
    let store_dir = temp_dir("replication_pstore");
    let outbox = temp_dir("replication_outbox");
    let live = LiveEngine::new_durable(live_engine(live_tree(n, seed), seed), &store_dir)
        .expect("fresh store directory is creatable");
    live.set_snapshot_every(u64::MAX); // hold compaction off: pure WAL shipping
    let primary = Primary::attach(live, std_vfs(), &outbox).expect("fresh outbox is claimable");
    primary.ship().expect("anchor ship succeeds");
    (primary, store_dir, outbox)
}

/// Total size of the shipped files in `outbox`.
fn shipped_bytes(outbox: &std::path::Path) -> u64 {
    std::fs::read_dir(outbox)
        .expect("outbox is readable")
        .map(|e| e.expect("outbox entry is readable"))
        .map(|e| e.metadata().expect("outbox entry has metadata").len())
        .sum()
}

/// A cold follower catch-up over fresh inbox and local-store directories;
/// returns the elapsed milliseconds and whether the follower reached the
/// primary's epoch with full divergence parity.
fn cold_catch_up(primary: &Primary, outbox: &std::path::Path, probe: &[Query]) -> (f64, bool) {
    let inbox = temp_dir("replication_inbox");
    let fstore = temp_dir("replication_fstore");
    let start = Instant::now();
    let transport =
        Transport::new(std_vfs(), outbox, std_vfs(), &inbox).expect("inbox directory is creatable");
    let mut follower = Follower::open(transport, &fstore, StoreOptions::default())
        .expect("follower bootstraps from the shipped anchor");
    follower.sync().expect("catch-up sync succeeds");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let identical = follower.applied_epoch() == primary.epoch()
        && check_divergence(&primary.snapshot(), &follower.snapshot(), probe).is_ok();
    drop(follower);
    let _ = std::fs::remove_dir_all(&inbox);
    let _ = std::fs::remove_dir_all(&fstore);
    (elapsed, identical)
}

/// Measures ship throughput and cold-follower catch-up latency at each
/// shipped-segment length in `lens` for an `n`-block fleet.
pub fn measure_catch_up(n: usize, seed: u64, reps: usize, lens: &[usize]) -> Vec<CatchUpResult> {
    let probe = probe();
    lens.iter()
        .map(|&records| {
            let (primary, store_dir, outbox) = on_disk_primary(n, seed);
            let deltas = leaf_deltas(primary.snapshot().tree(), records);
            for delta in &deltas {
                primary.apply(delta).expect("leaf updates are valid");
            }
            let before = shipped_bytes(&outbox);
            let start = Instant::now();
            primary.ship().expect("segment ship succeeds");
            let ship_ms = start.elapsed().as_secs_f64() * 1e3;
            let bytes = shipped_bytes(&outbox);
            let (mut catch_up_ms, mut diverged) = (Vec::with_capacity(reps.max(1)), 0);
            for _ in 0..reps.max(1) {
                let (ms, identical) = cold_catch_up(&primary, &outbox, &probe);
                catch_up_ms.push(ms);
                diverged += usize::from(!identical);
            }
            let _ = std::fs::remove_dir_all(&store_dir);
            let _ = std::fs::remove_dir_all(&outbox);
            CatchUpResult {
                shipped_records: records,
                shipped_bytes: bytes,
                segment_bytes: bytes.saturating_sub(before),
                ship_ms,
                catch_up_ms: Sample::new(catch_up_ms),
                diverged,
            }
        })
        .collect()
}

/// Measures steady-state staleness over `total` deltas at each sync
/// cadence in `cadences`: the primary ships every delta, the follower
/// syncs every `sync_every`-th, and the epoch lag is sampled before every
/// sync.
pub fn measure_staleness(
    n: usize,
    seed: u64,
    total: usize,
    cadences: &[usize],
) -> Vec<StalenessResult> {
    let probe = probe();
    cadences
        .iter()
        .map(|&sync_every| {
            let (primary, store_dir, outbox) = on_disk_primary(n, seed);
            let inbox = temp_dir("replication_inbox");
            let fstore = temp_dir("replication_fstore");
            let transport = Transport::new(std_vfs(), &outbox, std_vfs(), &inbox)
                .expect("inbox directory is creatable");
            let mut follower = Follower::open(transport, &fstore, StoreOptions::default())
                .expect("follower bootstraps");
            follower.sync().expect("initial sync succeeds");

            let deltas = leaf_deltas(primary.snapshot().tree(), total);
            let mut lags = Vec::with_capacity(total);
            for (i, delta) in deltas.iter().enumerate() {
                primary.apply(delta).expect("leaf updates are valid");
                primary.ship().expect("per-delta ship succeeds");
                lags.push(primary.epoch() - follower.applied_epoch());
                if (i + 1) % sync_every.max(1) == 0 {
                    follower.sync().expect("steady-state sync succeeds");
                }
            }
            follower.sync().expect("final sync succeeds");
            let diverged =
                check_divergence(&primary.snapshot(), &follower.snapshot(), &probe).is_err();

            let _ = std::fs::remove_dir_all(&store_dir);
            let _ = std::fs::remove_dir_all(&outbox);
            let _ = std::fs::remove_dir_all(&inbox);
            let _ = std::fs::remove_dir_all(&fstore);
            StalenessResult {
                sync_every,
                mean_lag: lags.iter().sum::<u64>() as f64 / lags.len().max(1) as f64,
                max_lag: lags.iter().copied().max().unwrap_or(0),
                diverged,
            }
        })
        .collect()
}
