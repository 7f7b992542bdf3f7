//! Sensor-network Top-k monitoring (the paper's motivating applications
//! include sensor data and probabilistic readings).
//!
//! A fleet of sensors reports temperature readings. Each reading is
//! uncertain at the attribute level (a sensor's true value is one of a few
//! calibrated possibilities, mutually exclusive) and at the tuple level (a
//! sensor may have dropped out entirely). The operator wants the Top-k
//! hottest sensors — but every possible world ranks them differently, so we
//! ask one `ConsensusEngine` for the consensus Top-k answers and compare them
//! with the older ad-hoc ranking semantics served by the same engine.
//!
//! Run with: `cargo run --example sensor_topk`

use consensus_pdb::prelude::*;

fn main() {
    // Build a BID relation: one block per sensor, alternatives = calibrated
    // candidate readings with their probabilities (mass < 1 means the sensor
    // may be offline).
    let sensors: Vec<BidBlock> = vec![
        BidBlock::from_pairs(1, &[(71.2, 0.55), (68.4, 0.35)]).unwrap(), // flaky uplink
        BidBlock::from_pairs(2, &[(69.9, 0.85), (70.6, 0.15)]).unwrap(),
        BidBlock::from_pairs(3, &[(75.3, 0.20), (64.0, 0.75)]).unwrap(), // suspicious spike
        BidBlock::from_pairs(4, &[(72.8, 0.90), (66.1, 0.10)]).unwrap(),
        BidBlock::from_pairs(5, &[(67.5, 0.60), (73.9, 0.30)]).unwrap(),
        BidBlock::from_pairs(6, &[(62.2, 0.95)]).unwrap(),
        BidBlock::from_pairs(7, &[(74.4, 0.40), (63.3, 0.45)]).unwrap(),
        BidBlock::from_pairs(8, &[(70.1, 0.70), (59.8, 0.30)]).unwrap(),
    ];
    let db = BidDb::new(sensors).unwrap();
    let tree = consensus_pdb::andxor::convert::from_bid(&db).unwrap();

    let k = 3;
    let engine = ConsensusEngineBuilder::new(tree)
        .seed(7)
        .build()
        .expect("valid engine configuration");

    println!("=== Sensor fleet: who are the {k} hottest sensors? ===\n");
    println!("Pr(sensor is in the true Top-{k}):");
    let probs = engine
        .context(k)
        .expect("k is in range")
        .keys_by_topk_probability();
    for (t, p) in probs {
        println!("  sensor {t}: {p:.4}");
    }

    // One batch covers the four consensus metrics AND the baseline ranking
    // semantics; the engine computes the rank PMFs once for all of them.
    let consensus_queries: Vec<(&str, Query)> = vec![
        (
            "symmetric difference (membership only)",
            Query::TopK {
                k,
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
            },
        ),
        (
            "intersection metric (prefix aware)    ",
            Query::TopK {
                k,
                metric: TopKMetric::Intersection,
                variant: Variant::Mean,
            },
        ),
        (
            "Spearman footrule (position aware)    ",
            Query::TopK {
                k,
                metric: TopKMetric::Footrule,
                variant: Variant::Mean,
            },
        ),
        (
            "Kendall tau (local search)            ",
            Query::TopK {
                k,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
        ),
    ];
    let baseline_queries: Vec<(&str, Query)> = vec![
        (
            "expected score",
            Query::Baseline {
                kind: BaselineKind::ExpectedScore { k },
            },
        ),
        (
            "expected rank ",
            Query::Baseline {
                kind: BaselineKind::ExpectedRank { k, samples: 20_000 },
            },
        ),
        (
            "U-Top-k       ",
            Query::Baseline {
                kind: BaselineKind::UTopKExact { k },
            },
        ),
        (
            "Global Top-k  ",
            Query::Baseline {
                kind: BaselineKind::GlobalTopK { k },
            },
        ),
    ];

    println!("\nConsensus answers (answer, E[d], guarantee):");
    let mut answers = Vec::new();
    for (name, query) in &consensus_queries {
        let answer = engine.run(query).expect("supported");
        println!("  {name} : {answer}");
        answers.push((*name, answer));
    }

    println!("\nPreviously proposed ranking semantics (served as baselines, scored under d_Δ):");
    for (name, query) in &baseline_queries {
        let answer = engine.run(query).expect("supported");
        println!("  {name} : {answer}");
        answers.push((*name, answer));
    }
    println!("  (Global Top-k is identical to the d_Δ consensus answer — Theorem 3.)");

    // Quantify how good each answer is under the footrule objective, using
    // the engine's cached context.
    println!("\nExpected footrule distance of each answer (lower is better):");
    let ctx = engine.context(k).expect("k is in range");
    for (name, answer) in &answers {
        let list = answer.value.as_topk().expect("all answers are lists");
        println!(
            "  {:<38} {:.4}",
            name.trim(),
            consensus_pdb::consensus::topk::footrule::expected_footrule_distance(&ctx, list)
        );
    }

    let stats = engine.cache_stats();
    println!(
        "\nengine cache: {} rank-PMF build(s), {} hit(s) across {} queries",
        stats.rank_context_builds,
        stats.rank_context_hits,
        consensus_queries.len() + baseline_queries.len()
    );
}
