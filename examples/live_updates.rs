//! Live sensor feed: streaming probability updates through a `LiveEngine`
//! while querying every epoch (the paper's motivating "probabilistic data
//! is born live" scenario — sensor readings drift as calibration evidence
//! arrives, but dashboards must keep getting consensus answers).
//!
//! A fleet of sensors reports uncertain temperatures (one ∨ block per
//! sensor: candidate readings + dropout mass). An ingestion loop re-weights
//! one sensor per tick; after every tick the current epoch serves the
//! consensus Top-k. A dashboard that pinned an old epoch keeps its snapshot
//! — writers never block or change answers under readers — and the cache
//! counters show the delta maintenance patching artifacts, and dropping only
//! the rank PMFs, instead of rebuilding everything.
//!
//! Run with: `cargo run --example live_updates`

use consensus_pdb::prelude::*;

fn main() {
    // Eight sensors, two calibrated candidate readings each; mass < 1 means
    // the sensor may have dropped out of the epoch entirely.
    let mut b = AndXorTreeBuilder::new();
    let mut xors = Vec::new();
    let fleet: &[(u64, f64, f64, f64, f64)] = &[
        // (sensor, hot reading, p, cool reading, p)
        (1, 71.2, 0.55, 68.4, 0.35),
        (2, 69.9, 0.85, 70.6, 0.15),
        (3, 75.3, 0.20, 64.0, 0.75),
        (4, 72.8, 0.90, 66.1, 0.10),
        (5, 73.9, 0.30, 67.5, 0.60),
        (6, 62.2, 0.95, 58.0, 0.03),
        (7, 74.4, 0.40, 63.3, 0.45),
        (8, 70.1, 0.70, 59.8, 0.30),
    ];
    for &(key, hot, p_hot, cool, p_cool) in fleet {
        let h = b.leaf_parts(key, hot);
        let c = b.leaf_parts(key, cool);
        xors.push(b.xor_node(vec![(h, p_hot), (c, p_cool)]));
    }
    let root = b.and_node(xors);
    let tree = b.build(root).expect("valid sensor tree");

    let k = 3;
    let live = LiveEngine::new(
        ConsensusEngineBuilder::new(tree)
            .seed(7)
            .build()
            .expect("valid engine configuration"),
    );
    let topk = Query::TopK {
        k,
        metric: TopKMetric::SymmetricDifference,
        variant: Variant::Mean,
    };
    // The dashboard's full refresh: warming these builds every artifact
    // family (rank PMFs, co-clustering weights, the marginal table), so
    // each arriving delta has real maintenance work to keep/patch/invalidate.
    let refresh = vec![
        topk.clone(),
        Query::TopK {
            k,
            metric: TopKMetric::Kendall,
            variant: Variant::Mean,
        },
        Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
        Query::SetConsensus {
            metric: SetMetric::Jaccard,
            variant: Variant::Mean,
        },
        Query::Clustering { restarts: 4 },
    ];

    println!("=== Live sensor feed: consensus Top-{k} across epochs ===\n");
    let dashboard = live.snapshot(); // a reader pins epoch 0
    let baseline = dashboard.run(&topk).expect("supported query");
    println!(
        "epoch 0 (dashboard pin): consensus Top-{k} = {}",
        baseline.value.as_topk().expect("list")
    );

    // The calibration stream: (sensor, which alternative, new probability).
    let stream: &[(u64, usize, f64)] = &[
        (3, 1, 0.30), // sensor 3's cool reading loses credibility…
        (3, 0, 0.65), // …and the "suspicious spike" gains it (mass stays ≤ 1)
        (4, 0, 0.35), // sensor 4's uplink degrades
        (1, 0, 0.64), // sensor 1 comes back strong
        (7, 1, 0.10), // sensor 7's cool candidate ruled out
    ];
    for &(sensor, alt_index, probability) in stream {
        let snap = live.snapshot();
        // Serve a dashboard refresh on the current epoch, then absorb the
        // calibration update into the next one.
        for answer in snap.run_batch_serial(&refresh) {
            answer.expect("refresh queries are supported");
        }
        let leaf = snap.tree().leaves_of_key(sensor)[alt_index];
        let xor = snap.tree().parent_of(leaf).expect("leaves live in blocks");
        let outcome = live
            .apply(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability,
            })
            .expect("stream deltas respect block mass");
        let now = live.snapshot();
        let answer = now.run(&topk).expect("supported query");
        println!(
            "epoch {} (sensor {sensor} → {probability:.2}): consensus Top-{k} = {} \
             [{} kept / {} patched / {} invalidated]",
            outcome.epoch,
            answer.value.as_topk().expect("list"),
            outcome.report.kept(),
            outcome.report.patched(),
            outcome.report.invalidated(),
        );
    }

    // The pinned dashboard still serves epoch 0, byte for byte.
    let replay = dashboard.run(&topk).expect("supported query");
    assert_eq!(replay, baseline);
    println!(
        "\ndashboard pinned at epoch {} still answers {} while the feed is at epoch {}",
        dashboard.epoch(),
        replay.value.as_topk().expect("list"),
        live.epoch()
    );

    let stats = live.snapshot().engine().cache_stats();
    println!(
        "cumulative delta maintenance: {} kept, {} patched, {} invalidated",
        stats.delta_kept, stats.delta_patched, stats.delta_invalidated
    );
    // Every probability update patches the co-clustering weights and the
    // marginal table.
    assert!(stats.delta_patched >= 1);
}
