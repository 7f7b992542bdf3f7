//! The experiment implementations (F1, F2, E1–E13).
//!
//! Every function returns one or more [`Table`]s; the `experiments` binary
//! prints them (see the README's "Benchmarks" section).

use crate::table::Table;
use cpdb_andxor::figure1;
use cpdb_andxor::AndXorTree;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_consensus::clustering::brute_force_clustering;
use cpdb_consensus::topk::{footrule, intersection, kendall, median_dp, sym_diff};
use cpdb_consensus::{jaccard, oracle, set_distance, TopKContext};
use cpdb_engine::{
    BaselineKind, ConsensusEngine, ConsensusEngineBuilder, Query, SetMetric, TopKMetric, Variant,
};
use cpdb_model::{TupleKey, WorldModel};
use cpdb_rankagg::metrics::{footrule_distance, intersection_metric, kendall_tau_topk};
use cpdb_rankagg::TopKList;
use cpdb_workloads::{
    groupby_tree, random_clustering_tree, random_groupby_instance, random_scored_bid_tree,
    random_tuple_independent, BidConfig, ClusteringConfig, GroupByConfig, ProbabilityDistribution,
    ScoreDistribution, TupleIndependentConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Default small-instance seeds used by the validation experiments.
pub const VALIDATION_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

fn fmt(x: f64) -> String {
    format!("{x:.6}")
}

fn fmt_ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Builds the standard scored-BID workload tree used by the Top-k scaling
/// experiments.
pub fn scaling_tree(num_blocks: usize, seed: u64) -> AndXorTree {
    random_scored_bid_tree(&BidConfig {
        num_blocks,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 1e6 },
        seed,
    })
}

/// Builds a small BID tree suitable for exhaustive enumeration.
pub fn small_tree(seed: u64) -> AndXorTree {
    random_scored_bid_tree(&BidConfig {
        num_blocks: 5,
        alternatives_per_block: 2,
        maybe_fraction: 0.4,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed,
    })
}

/// The standard engine the validation experiments run their queries through
/// (seeded so randomised paths are reproducible).
pub fn validation_engine(tree: AndXorTree, seed: u64) -> ConsensusEngine {
    ConsensusEngineBuilder::new(tree)
        .seed(seed)
        .build()
        .expect("default engine configuration is valid")
}

/// F1 — reproduces both generating functions of Figure 1.
pub fn figure1_table() -> Table {
    let mut t = Table::new(
        "F1: Figure 1 generating functions (paper value vs computed)",
        &["quantity", "paper", "computed"],
    );
    let tree_i = figure1::figure1_bid_tree();
    let dist = tree_i.world_size_distribution();
    for (size, coeff) in figure1::FIGURE1_I_SIZE_DISTRIBUTION {
        t.add_row(vec![
            format!("Fig 1(i) Pr(|pw| = {size})"),
            fmt(coeff),
            fmt(dist.coeff(size)),
        ]);
    }
    let tree_iii = figure1::figure1_correlated_tree();
    let poly = tree_iii.genfunc2(
        cpdb_genfunc::Truncation::None,
        cpdb_genfunc::Truncation::None,
        |a| {
            if *a == cpdb_model::Alternative::new(3, 6.0) {
                cpdb_andxor::VarAssignment::Y
            } else if a.value.0 > 6.0 {
                cpdb_andxor::VarAssignment::X
            } else {
                cpdb_andxor::VarAssignment::One
            }
        },
    );
    for ((i, j), coeff) in figure1::FIGURE1_III_COEFFICIENTS {
        t.add_row(vec![
            format!("Fig 1(iii) coefficient of x^{i} y^{j}"),
            fmt(coeff),
            fmt(poly.coeff(i, j)),
        ]);
    }
    t.add_row(vec![
        "Fig 1(iii) Pr(r(t3,6) = 1)".to_string(),
        fmt(0.3),
        fmt(poly.coeff(0, 1)),
    ]);
    t
}

/// F2 — validates the Figure 2 closed form of `E[F*(τ, τ_pw)]` against
/// brute-force enumeration on random instances.
pub fn figure2_table() -> Table {
    let mut t = Table::new(
        "F2: Figure 2 footrule decomposition vs enumeration (corrected sign)",
        &[
            "seed",
            "k",
            "candidate",
            "closed form",
            "enumeration",
            "|diff|",
        ],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        for k in [2usize, 3] {
            let ctx = TopKContext::new(&tree, k);
            let keys: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
            let candidate = TopKList::new(keys.into_iter().take(k).collect()).unwrap();
            let closed = footrule::expected_footrule_distance(&ctx, &candidate);
            let direct = oracle::expected_topk_distance(&candidate, &ws, k, footrule_distance);
            t.add_row(vec![
                seed.to_string(),
                k.to_string(),
                format!("{candidate}"),
                fmt(closed),
                fmt(direct),
                format!("{:.2e}", (closed - direct).abs()),
            ]);
        }
    }
    t
}

/// E1/E2 — consensus worlds under the symmetric difference: Theorem 2 /
/// Corollary 1 validation plus scaling of the closed-form computation.
pub fn set_distance_tables() -> Vec<Table> {
    vec![
        set_distance_validation_table(),
        set_distance_scaling_table(),
    ]
}

/// E1/E2 validation table only (cheap; used by the harness self-tests).
pub fn set_distance_validation_table() -> Table {
    let mut validation = Table::new(
        "E1/E2: mean world under symmetric difference (engine) vs brute force",
        &[
            "seed",
            "n alts",
            "engine E[d]",
            "brute force E[d]",
            "optimal?",
        ],
    );
    for &seed in &VALIDATION_SEEDS {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: 8,
            probabilities: ProbabilityDistribution::NearHalf,
            scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
            seed,
        });
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let engine = validation_engine(tree, seed);
        let answer = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Mean,
            })
            .expect("supported");
        let cost = answer.expected_distance;
        let (_, brute) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        validation.add_row(vec![
            seed.to_string(),
            db.len().to_string(),
            fmt(cost),
            fmt(brute),
            ((cost - brute).abs() < 1e-9).to_string(),
        ]);
    }
    validation
}

/// E1 scaling table only.
pub fn set_distance_scaling_table() -> Table {
    let mut scaling = Table::new(
        "E1 scaling: mean-world computation time (closed form)",
        &["n tuples", "time (ms)"],
    );
    for n in [1_000usize, 10_000, 100_000] {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: n,
            ..Default::default()
        });
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let start = Instant::now();
        let mean = set_distance::mean_world(&tree);
        let elapsed = start.elapsed().as_secs_f64();
        scaling.add_row(vec![
            format!("{n} ({} in answer)", mean.len()),
            fmt_ms(elapsed),
        ]);
    }
    scaling
}

/// E3 — Jaccard mean world (Lemmas 1–2) validation and scaling.
pub fn jaccard_tables() -> Vec<Table> {
    vec![jaccard_validation_table(), jaccard_scaling_table()]
}

/// E3 validation table only.
pub fn jaccard_validation_table() -> Table {
    let mut validation = Table::new(
        "E3: Jaccard mean world (engine prefix scan) vs brute force",
        &["seed", "n", "engine E[d]", "brute force E[d]", "optimal?"],
    );
    for &seed in &VALIDATION_SEEDS {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: 9,
            probabilities: ProbabilityDistribution::Uniform { lo: 0.1, hi: 0.95 },
            scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
            seed,
        });
        let ws = db.enumerate_worlds();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let engine = validation_engine(tree, seed);
        let answer = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            })
            .expect("supported");
        let (_, brute) = oracle::brute_force_mean_world(&ws, |a, b| a.jaccard_distance(b));
        validation.add_row(vec![
            seed.to_string(),
            db.len().to_string(),
            fmt(answer.expected_distance),
            fmt(brute),
            ((answer.expected_distance - brute).abs() < 1e-9).to_string(),
        ]);
    }
    validation
}

/// E3 scaling table only: one dual-number prefix sweep per answer, on a
/// tuple-independent relation (`O(n²)`) and on the scored-BID
/// [`scaling_tree`] the engine serves (`O(n³/6)`).
pub fn jaccard_scaling_table() -> Table {
    let mut scaling = Table::new(
        "E3 scaling: Jaccard prefix scan (one incremental dual-number sweep)",
        &["n", "tuple-independent mean (ms)", "scored-BID scan (ms)"],
    );
    for n in [50usize, 100, 200, 400, 1000] {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: n,
            ..Default::default()
        });
        let start = Instant::now();
        jaccard::mean_world_tuple_independent(&db).expect("generated relations are valid");
        let ti = start.elapsed().as_secs_f64();
        let tree = scaling_tree(n, 42);
        let candidates = jaccard::prefix_candidates(&tree);
        let start = Instant::now();
        jaccard::best_prefix_world(&tree, &candidates).expect("one candidate per key");
        let bid = start.elapsed().as_secs_f64();
        scaling.add_row(vec![n.to_string(), fmt_ms(ti), fmt_ms(bid)]);
    }
    scaling
}

/// E4 — mean Top-k under the symmetric difference (Theorem 3): validation
/// plus scaling in `n` and `k`.
pub fn topk_sym_diff_tables() -> Vec<Table> {
    vec![
        topk_sym_diff_validation_table(),
        topk_sym_diff_scaling_table(),
    ]
}

/// E4 validation table only.
pub fn topk_sym_diff_validation_table() -> Table {
    let mut validation = Table::new(
        "E4: mean Top-k under d_Δ (Theorem 3, engine) vs brute force",
        &["seed", "k", "engine E[d]", "brute force E[d]", "optimal?"],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let engine = validation_engine(tree, seed);
        for k in [2usize, 3] {
            let answer = engine
                .run(&Query::TopK {
                    k,
                    metric: TopKMetric::SymmetricDifference,
                    variant: Variant::Mean,
                })
                .expect("supported");
            let cost = answer.expected_distance;
            let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            validation.add_row(vec![
                seed.to_string(),
                k.to_string(),
                fmt(cost),
                fmt(brute),
                ((cost - brute).abs() < 1e-9).to_string(),
            ]);
        }
    }
    validation
}

/// E4 scaling table only.
pub fn topk_sym_diff_scaling_table() -> Table {
    let mut scaling = Table::new(
        "E4 scaling: Theorem 3 answer (rank distributions + selection)",
        &["n blocks", "k", "time (ms)"],
    );
    for &n in &[200usize, 500, 1000] {
        for &k in &[5usize, 25] {
            let tree = scaling_tree(n, 7);
            let start = Instant::now();
            let ctx = TopKContext::new(&tree, k);
            let _ = sym_diff::mean_topk_sym_diff(&ctx);
            scaling.add_row(vec![
                n.to_string(),
                k.to_string(),
                fmt_ms(start.elapsed().as_secs_f64()),
            ]);
        }
    }
    scaling
}

/// E5 — median Top-k under the symmetric difference (Theorem 4 DP).
pub fn topk_median_tables() -> Vec<Table> {
    let mut validation = Table::new(
        "E5: median Top-k under d_Δ (Theorem 4 DP, engine) vs brute force",
        &["seed", "k", "engine E[d]", "brute force E[d]", "optimal?"],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        let engine = validation_engine(tree, seed);
        for k in [2usize, 3] {
            let answer = engine
                .run(&Query::TopK {
                    k,
                    metric: TopKMetric::SymmetricDifference,
                    variant: Variant::Median,
                })
                .expect("supported");
            let median = answer.value.as_topk().expect("Top-k answer");
            let cost = oracle::expected_topk_distance(median, &ws, k, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            let (_, brute) = oracle::brute_force_median_topk(&ws, k, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            validation.add_row(vec![
                seed.to_string(),
                k.to_string(),
                fmt(cost),
                fmt(brute),
                ((cost - brute).abs() < 1e-9).to_string(),
            ]);
        }
    }

    let mut scaling = Table::new(
        "E5 scaling: Theorem 4 DP (one descending (max, +) threshold sweep)",
        &["n blocks", "k", "time (ms)"],
    );
    for &n in &[50usize, 100, 200] {
        for &k in &[5usize, 10] {
            let tree = scaling_tree(n, 3);
            let ctx = TopKContext::new(&tree, k);
            let start = Instant::now();
            let _ = median_dp::median_topk_sym_diff(&tree, &ctx)
                .expect("valid trees have distinct keys");
            scaling.add_row(vec![
                n.to_string(),
                k.to_string(),
                fmt_ms(start.elapsed().as_secs_f64()),
            ]);
        }
    }
    vec![validation, scaling]
}

/// E6 — intersection-metric mean answer: optimality of the assignment
/// formulation and measured quality of the Υ_H approximation.
pub fn topk_intersection_tables() -> Vec<Table> {
    let mut validation = Table::new(
        "E6: intersection-metric mean Top-k (engine assignment) vs brute force; Υ_H quality",
        &[
            "seed",
            "k",
            "assignment E[d]",
            "brute E[d]",
            "optimal?",
            "A(τ_H)/A(τ*)",
            "1/H_k bound",
        ],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        // The engine serves the exact assignment; the Υ_H shortcut is the
        // library function run on the engine's own rank context.
        let exact_engine = validation_engine(tree, seed);
        for k in [2usize, 3] {
            let query = Query::TopK {
                k,
                metric: TopKMetric::Intersection,
                variant: Variant::Mean,
            };
            let answer = exact_engine.run(&query).expect("supported");
            let opt = answer.value.as_topk().expect("Top-k answer").clone();
            let cost = answer.expected_distance;
            let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            let ctx = exact_engine.context(k).expect("k is in range");
            let approx = intersection::mean_topk_upsilon_h(&ctx);
            let ratio = intersection::objective_a(&ctx, &approx)
                / intersection::objective_a(&ctx, &opt).max(1e-12);
            validation.add_row(vec![
                seed.to_string(),
                k.to_string(),
                fmt(cost),
                fmt(brute),
                ((cost - brute).abs() < 1e-9).to_string(),
                fmt(ratio),
                fmt(1.0 / intersection::harmonic(k)),
            ]);
        }
    }

    let mut scaling = Table::new(
        "E6 scaling: assignment (Hungarian) vs Υ_H ranking shortcut",
        &["n blocks", "k", "assignment (ms)", "Υ_H (ms)"],
    );
    for &n in &[200usize, 500] {
        for &k in &[10usize, 25] {
            let tree = scaling_tree(n, 5);
            let ctx = TopKContext::new(&tree, k);
            let start = Instant::now();
            let _ = intersection::mean_topk_intersection(&ctx);
            let t_assign = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let _ = intersection::mean_topk_upsilon_h(&ctx);
            let t_upsilon = start.elapsed().as_secs_f64();
            scaling.add_row(vec![
                n.to_string(),
                k.to_string(),
                fmt_ms(t_assign),
                fmt_ms(t_upsilon),
            ]);
        }
    }
    vec![validation, scaling]
}

/// E7 — footrule mean answer optimality (the algorithmic side of Figure 2).
pub fn topk_footrule_tables() -> Vec<Table> {
    let mut validation = Table::new(
        "E7: footrule mean Top-k (engine assignment) vs brute force",
        &["seed", "k", "engine E[F*]", "brute E[F*]", "optimal?"],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let engine = validation_engine(tree, seed);
        for k in [2usize, 3] {
            let answer = engine
                .run(&Query::TopK {
                    k,
                    metric: TopKMetric::Footrule,
                    variant: Variant::Mean,
                })
                .expect("supported");
            let cost = answer.expected_distance;
            let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
            validation.add_row(vec![
                seed.to_string(),
                k.to_string(),
                fmt(cost),
                fmt(brute),
                ((cost - brute).abs() < 1e-9).to_string(),
            ]);
        }
    }
    let mut scaling = Table::new(
        "E7 scaling: footrule assignment",
        &["n blocks", "k", "time (ms)"],
    );
    for &n in &[200usize, 500] {
        for &k in &[10usize, 25] {
            let tree = scaling_tree(n, 9);
            let ctx = TopKContext::new(&tree, k);
            let start = Instant::now();
            let _ = footrule::mean_topk_footrule(&ctx);
            scaling.add_row(vec![
                n.to_string(),
                k.to_string(),
                fmt_ms(start.elapsed().as_secs_f64()),
            ]);
        }
    }
    vec![validation, scaling]
}

/// E8 — Kendall-tau consensus: measured approximation ratios of the served
/// local search, the pivot and the footrule answers against the brute-force
/// optimum.
pub fn topk_kendall_table() -> Table {
    let mut t = Table::new(
        "E8: Kendall-tau consensus answers (engine local search, pivot, footrule proxy) — measured approximation ratios",
        &[
            "seed",
            "k",
            "optimal E[d_K]",
            "served ratio",
            "pivot ratio",
            "footrule ratio",
        ],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = small_tree(seed);
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        // The engine serves the local search; the pivot (best of 8 on the
        // query's RNG stream) and the footrule proxy are library functions
        // run on the engine's own rank context.
        let engine = validation_engine(tree, seed);
        for k in [2usize, 3] {
            let query = Query::TopK {
                k,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            };
            let (_, opt) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
            let cost =
                |list: &TopKList| oracle::expected_topk_distance(list, &ws, k, kendall_tau_topk);
            let served = engine.run(&query).expect("supported");
            let served_cost = cost(served.value.as_topk().expect("Top-k answer"));
            let ctx = engine.context(k).expect("k is in range");
            let mut rng = engine.query_rng(&query);
            let pivot = kendall::mean_topk_kendall_pivot(engine.tree(), &ctx, 8, &mut rng);
            let foot = kendall::mean_topk_kendall_via_footrule(&ctx);
            let denom = opt.max(1e-12);
            t.add_row(vec![
                seed.to_string(),
                k.to_string(),
                fmt(opt),
                fmt(served_cost / denom),
                fmt(cost(&pivot) / denom),
                fmt(cost(&foot) / denom),
            ]);
        }
    }
    t
}

/// E9 — pairwise order probabilities: generating-function values vs
/// Monte-Carlo estimates on a non-enumerable instance.
pub fn rank_probability_table() -> Table {
    let mut t = Table::new(
        "E9: Pr(r(t_i) < r(t_j)) — generating functions vs Monte-Carlo (100k samples)",
        &["pair", "genfunc", "sampled", "|diff|"],
    );
    let tree = scaling_tree(60, 13);
    let keys = tree.keys();
    let mut rng = StdRng::seed_from_u64(99);
    let samples = 100_000;
    // Estimate for the five highest-presence tuples to keep the table small.
    let probs = tree.key_presence_probabilities();
    let mut sorted: Vec<TupleKey> = keys.clone();
    sorted.sort_by(|a, b| probs[b].partial_cmp(&probs[a]).unwrap());
    let chosen: Vec<TupleKey> = sorted.into_iter().take(4).collect();
    let mut counts = vec![vec![0usize; chosen.len()]; chosen.len()];
    for _ in 0..samples {
        let w = tree.sample_world(&mut rng);
        for (x, &a) in chosen.iter().enumerate() {
            for (y, &b) in chosen.iter().enumerate() {
                if x == y {
                    continue;
                }
                match (w.rank_of(a), w.rank_of(b)) {
                    (Some(ra), Some(rb)) if ra < rb => counts[x][y] += 1,
                    (Some(_), None) => counts[x][y] += 1,
                    _ => {}
                }
            }
        }
    }
    for (x, &a) in chosen.iter().enumerate() {
        for (y, &b) in chosen.iter().enumerate() {
            if x >= y {
                continue;
            }
            let exact = cpdb_testkit::rank::pairwise_order_probability(&tree, a, b);
            let sampled = counts[x][y] as f64 / samples as f64;
            t.add_row(vec![
                format!("Pr(r({a}) < r({b}))"),
                fmt(exact),
                fmt(sampled),
                format!("{:.4}", (exact - sampled).abs()),
            ]);
        }
    }
    t
}

/// E10 — aggregate consensus: Lemma 3 / Theorem 5 optimality of the rounded
/// vector among possible answers, measured 4-approximation ratio, scaling.
pub fn aggregate_tables() -> Vec<Table> {
    let mut validation = Table::new(
        "E10: group-by median 4-approximation (Theorem 5 / Corollary 2, engine)",
        &[
            "seed",
            "n×m",
            "approx E[d²]",
            "optimal median E[d²]",
            "ratio",
            "≤ 4?",
        ],
    );
    for &seed in &VALIDATION_SEEDS {
        let probs = random_groupby_instance(&GroupByConfig {
            num_tuples: 9,
            num_groups: 3,
            skew: 1.0,
            seed,
        });
        let inst = GroupByInstance::new(probs.clone()).unwrap();
        let engine = ConsensusEngineBuilder::new(groupby_tree(&probs))
            .seed(seed)
            .groupby(inst.clone())
            .build()
            .expect("valid configuration");
        let approx = engine
            .run(&Query::Aggregate {
                variant: Variant::Median,
            })
            .expect("instance attached");
        let approx_cost = approx.expected_distance;
        let (_, opt) = inst.median_answer_brute_force();
        let ratio = approx_cost / opt.max(1e-12);
        validation.add_row(vec![
            seed.to_string(),
            format!("{}×{}", inst.num_tuples(), inst.num_groups()),
            fmt(approx_cost),
            fmt(opt),
            fmt(ratio),
            (ratio <= 4.0 + 1e-9).to_string(),
        ]);
    }

    let mut scaling = Table::new(
        "E10 scaling: min-cost-flow rounding",
        &["n tuples", "m groups", "time (ms)"],
    );
    for &(n, m) in &[(1_000usize, 8usize), (2_000, 16), (5_000, 32)] {
        let probs = random_groupby_instance(&GroupByConfig {
            num_tuples: n,
            num_groups: m,
            skew: 1.2,
            seed: 5,
        });
        let inst = GroupByInstance::new(probs).unwrap();
        let start = Instant::now();
        let _ = inst.closest_possible_answer().unwrap();
        scaling.add_row(vec![
            n.to_string(),
            m.to_string(),
            fmt_ms(start.elapsed().as_secs_f64()),
        ]);
    }
    vec![validation, scaling]
}

/// E11 — consensus clustering: measured approximation ratio of the pivot
/// algorithm and scaling of the weight computation.
pub fn clustering_tables() -> Vec<Table> {
    let mut validation = Table::new(
        "E11: consensus clustering (engine) — pivot vs brute-force optimum",
        &["seed", "n", "pivot E[d]", "optimal E[d]", "ratio"],
    );
    for &seed in &VALIDATION_SEEDS {
        let tree = random_clustering_tree(&ClusteringConfig {
            num_tuples: 7,
            num_values: 3,
            cohesion: 0.75,
            absence: 0.1,
            seed,
        });
        let engine = validation_engine(tree, seed);
        let answer = engine
            .run(&Query::Clustering { restarts: 32 })
            .expect("supported");
        let (_, opt_cost) = brute_force_clustering(engine.coclustering_weights());
        validation.add_row(vec![
            seed.to_string(),
            "7".to_string(),
            fmt(answer.expected_distance),
            fmt(opt_cost),
            fmt(answer.expected_distance / opt_cost.max(1e-12)),
        ]);
    }

    let mut scaling = Table::new(
        "E11 scaling: pairwise weight computation (cold engine) + pivot reusing them (warm)",
        &["n tuples", "weights (ms)", "pivot (ms)"],
    );
    for &n in &[30usize, 60, 100] {
        let tree = random_clustering_tree(&ClusteringConfig {
            num_tuples: n,
            num_values: 5,
            cohesion: 0.7,
            absence: 0.1,
            seed: 17,
        });
        let engine = validation_engine(tree, 17);
        let start = Instant::now();
        let _ = engine.coclustering_weights();
        let t_weights = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let _ = engine
            .run(&Query::Clustering { restarts: 16 })
            .expect("supported");
        let t_pivot = start.elapsed().as_secs_f64();
        scaling.add_row(vec![n.to_string(), fmt_ms(t_weights), fmt_ms(t_pivot)]);
    }
    vec![validation, scaling]
}

/// E12 — how much the previously proposed ranking semantics diverge from the
/// consensus answers, measured by normalised symmetric difference and by
/// each answer's expected footrule distance.
pub fn baselines_table() -> Table {
    let mut t = Table::new(
        "E12: baseline ranking semantics vs consensus Top-k answers \
         (n = 300, k = 10, one engine batch)",
        &[
            "semantics",
            "overlap with d_Δ consensus",
            "E[d_Δ]",
            "E[F*] (footrule)",
        ],
    );
    let tree = scaling_tree(300, 21);
    let k = 10;
    let engine = validation_engine(tree, 7);
    // Consensus answers and baselines flow through one heterogeneous batch;
    // the rank-probability PMFs are computed once for all eight queries.
    let batch: Vec<(&str, Query)> = vec![
        (
            "consensus d_Δ / Global Top-k",
            Query::TopK {
                k,
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
            },
        ),
        (
            "consensus footrule",
            Query::TopK {
                k,
                metric: TopKMetric::Footrule,
                variant: Variant::Mean,
            },
        ),
        (
            "consensus intersection",
            Query::TopK {
                k,
                metric: TopKMetric::Intersection,
                variant: Variant::Mean,
            },
        ),
        (
            "expected score",
            Query::Baseline {
                kind: BaselineKind::ExpectedScore { k },
            },
        ),
        (
            "expected rank",
            Query::Baseline {
                kind: BaselineKind::ExpectedRank { k, samples: 20_000 },
            },
        ),
        (
            "U-Top-k (sampled)",
            Query::Baseline {
                kind: BaselineKind::UTopK { k, samples: 20_000 },
            },
        ),
    ];
    let queries: Vec<Query> = batch.iter().map(|(_, q)| q.clone()).collect();
    let results = engine.run_batch(&queries);
    assert_eq!(
        engine.cache_stats().rank_context_builds,
        1,
        "E12 batch must share one rank-PMF build"
    );
    let mut answers: Vec<(&str, TopKList)> = batch
        .iter()
        .zip(results)
        .map(|((name, _), r)| {
            let answer = r.expect("all E12 queries are supported");
            (*name, answer.value.as_topk().expect("Top-k answer").clone())
        })
        .collect();
    // The Υ_H shortcut is the library function on the engine's context.
    let ctx = engine.context(k).expect("k is in range");
    answers.insert(3, ("Υ_H ranking", intersection::mean_topk_upsilon_h(&ctx)));
    let consensus_sym = answers[0].1.clone();
    for (name, answer) in answers {
        let overlap = answer.overlap(&consensus_sym);
        t.add_row(vec![
            name.to_string(),
            format!("{overlap}/{k}"),
            fmt(sym_diff::expected_sym_diff_distance(&ctx, &answer)),
            fmt(footrule::expected_footrule_distance(&ctx, &answer)),
        ]);
    }
    t
}

/// E13 — scaling of the generating-function engine itself.
pub fn genfunc_scaling_table() -> Table {
    let mut t = Table::new(
        "E13: generating-function engine scaling",
        &[
            "n blocks",
            "world-size dist (ms)",
            "Pr(r ≤ 10) for all tuples (ms)",
        ],
    );
    for &n in &[100usize, 500, 1000, 2000] {
        let tree = scaling_tree(n, 23);
        let start = Instant::now();
        let _ = tree.world_size_distribution();
        let t_size = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let _ = tree.batch_rank_pmfs(10);
        let t_rank = start.elapsed().as_secs_f64();
        t.add_row(vec![n.to_string(), fmt_ms(t_size), fmt_ms(t_rank)]);
    }
    t
}

/// Runs every experiment, returning the tables in report order.
pub fn run_all() -> Vec<Table> {
    let mut tables = Vec::new();
    tables.push(figure1_table());
    tables.push(figure2_table());
    tables.extend(set_distance_tables());
    tables.extend(jaccard_tables());
    tables.extend(topk_sym_diff_tables());
    tables.extend(topk_median_tables());
    tables.extend(topk_intersection_tables());
    tables.extend(topk_footrule_tables());
    tables.push(topk_kendall_table());
    tables.push(rank_probability_table());
    tables.extend(aggregate_tables());
    tables.extend(clustering_tables());
    tables.push(baselines_table());
    tables.push(genfunc_scaling_table());
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_table_reports_exact_match() {
        let t = figure1_table();
        let rendered = t.render();
        // Paper and computed columns must coincide digit for digit at the
        // printed precision.
        assert!(rendered.contains("0.080000 | 0.080000"));
        assert!(rendered.contains("0.440000 | 0.440000"));
        assert!(rendered.contains("0.480000 | 0.480000"));
        assert!(rendered.contains("0.300000 | 0.300000"));
    }

    #[test]
    fn validation_experiments_report_optimal_everywhere() {
        for table in [
            set_distance_validation_table(),
            jaccard_validation_table(),
            topk_sym_diff_validation_table(),
        ] {
            let rendered = table.render();
            assert!(!rendered.contains("false"), "{rendered}");
        }
    }

    #[test]
    fn kendall_ratios_stay_below_two() {
        let t = topk_kendall_table();
        for row in t.render().lines().skip(4) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() >= 7 {
                let ratios: Vec<f64> = cols[4..7].iter().filter_map(|c| c.parse().ok()).collect();
                if let [served, pivot, foot] = ratios[..] {
                    assert!(served <= 2.0 + 1e-6, "served ratio {served}");
                    assert!(
                        served <= foot + 1e-6,
                        "served {served} above footrule {foot}"
                    );
                    assert!(pivot <= 2.0 + 1e-6, "pivot ratio {pivot}");
                    assert!(foot <= 2.0 + 1e-6, "footrule ratio {foot}");
                }
            }
        }
    }

    #[test]
    fn aggregate_ratios_stay_below_four() {
        let t = aggregate_tables().remove(0);
        assert!(!t.render().contains("false"));
    }
}
