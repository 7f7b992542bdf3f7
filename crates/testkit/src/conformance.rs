//! The oracle conformance runner.
//!
//! Each `check_*` function pits one consensus algorithm against its
//! brute-force definition on a small instance and panics with a labelled
//! message on divergence. Exact algorithms (Theorems 2–5, Lemmas 1–2) must
//! match the enumerated optimum to [`crate::TOL`]; approximation algorithms
//! (Υ_H, Kendall pivot/footrule, KwikCluster, the aggregate 4-approximation)
//! must respect their proven factor and never beat the enumerated optimum.
//! Every function returns the number of assertions it performed so suites
//! can report coverage.

use crate::fixtures;
use crate::oracle;
use crate::pivot::mean_topk_kendall_pivot;
use crate::rank;
use crate::reference;
use crate::TOL;
use cpdb_andxor::AndXorTree;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_consensus::jaccard::JaccardConsensus;
use cpdb_consensus::topk::{footrule, intersection, kendall, median_dp, sym_diff};
use cpdb_consensus::{baselines, clustering, jaccard, set_distance, TopKContext};
use cpdb_engine::{
    BaselineKind, CacheStats, ConsensusEngineBuilder, Query, SetMetric, TopKMetric, Variant,
};
use cpdb_model::{Alternative, BidDb, PossibleWorld, TupleIndependentDb, TupleKey, WorldModel};
use cpdb_rankagg::metrics::{footrule_distance, intersection_metric, kendall_tau_topk};
use cpdb_rankagg::TopKList;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts `got ≈ oracle` to [`TOL`] with a labelled failure message.
fn assert_close(label: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() < TOL,
        "{label}: algorithm returned {got}, oracle computed {want} (|Δ| = {})",
        (got - want).abs()
    );
}

/// Asserts an approximation lies in `[opt − TOL, factor·opt + slack]`.
fn assert_within_factor(label: &str, cost: f64, opt: f64, factor: f64) {
    assert!(
        cost + TOL >= opt,
        "{label}: approximation cost {cost} beats the enumerated optimum {opt}"
    );
    assert!(
        cost <= factor * opt + 1e-6,
        "{label}: approximation cost {cost} exceeds {factor}× optimum {opt}"
    );
}

fn sym_diff_world(a: &PossibleWorld, b: &PossibleWorld) -> f64 {
    a.symmetric_difference(b) as f64
}

/// Theorem 2 / Corollary 1: the closed-form mean world under symmetric
/// difference matches enumeration and is the enumerated optimum; for and/xor
/// trees whose majority set is possible, it is also the median world.
pub fn check_set_consensus(tree: &AndXorTree) -> usize {
    let ws = tree.enumerate_worlds();
    let mean = set_distance::mean_world(tree);
    let closed = set_distance::expected_distance(tree, &mean);
    let direct = oracle::expected_world_distance(&mean, &ws, sym_diff_world);
    assert_close("set/sym-diff closed-form expected distance", closed, direct);

    let (_, brute_mean) = oracle::brute_force_mean_world(&ws, sym_diff_world);
    assert_close("set/sym-diff mean-world optimality", closed, brute_mean);

    let median = set_distance::median_world(tree);
    assert!(
        ws.worlds().iter().any(|(w, p)| *p > 0.0 && *w == median),
        "set/sym-diff median world {median} is not a possible world of the fixture"
    );
    let (_, brute_median) = oracle::brute_force_median_world(&ws, sym_diff_world);
    assert_close(
        "set/sym-diff median-world optimality (Corollary 1)",
        set_distance::expected_distance(tree, &median),
        brute_median,
    );
    4
}

/// Largest `|ΔE|` allowed between the dual-number Jaccard scan and the
/// `Poly2` reference on any one prefix.
const JACCARD_REFERENCE_TOL: f64 = 1e-12;

fn jaccard_world(a: &PossibleWorld, b: &PossibleWorld) -> f64 {
    a.jaccard_distance(b)
}

/// The dual-number prefix scan over `candidates` against the `Poly2`
/// reference scan (every prefix score within [`JACCARD_REFERENCE_TOL`], the
/// same winning prefix) and against the worlds oracle (the winner's score
/// within [`TOL`]). Returns the scan's answer and the assertion count.
fn check_jaccard_scan(
    label: &str,
    tree: &AndXorTree,
    candidates: &[(Alternative, f64)],
) -> (JaccardConsensus, usize) {
    let fast = jaccard::prefix_distances(tree, candidates).expect("one alternative per key");
    let slow = reference::prefix_distances_poly2(tree, candidates);
    assert_eq!(
        fast.len(),
        candidates.len() + 1,
        "{label}: one score per prefix"
    );
    for (t, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert!(
            (f - s).abs() <= JACCARD_REFERENCE_TOL,
            "{label}: prefix {t} scores {f} in the dual sweep, {s} in the Poly2 reference"
        );
    }
    let got = jaccard::best_prefix_world(tree, candidates).expect("one alternative per key");
    let want = reference::best_prefix_world_poly2(tree, candidates);
    assert_eq!(
        got.world, want.world,
        "{label}: the dual sweep and the Poly2 reference pick different prefixes"
    );
    let ws = tree.enumerate_worlds();
    let brute = oracle::expected_world_distance(&got.world, &ws, jaccard_world);
    assert_close(
        &format!("{label}: scan score vs enumeration"),
        got.expected_distance,
        brute,
    );
    (got, fast.len() + 2)
}

/// Lemma 1 on the empty world and on up to 24 possible worlds of `tree`,
/// spread evenly over the enumeration: the dual-number score matches
/// enumeration and the `Poly2` reference.
fn check_jaccard_lemma1(label: &str, tree: &AndXorTree) -> usize {
    let ws = tree.enumerate_worlds();
    let mut checks = 0;
    let stride = ws.worlds().len().div_ceil(24).max(1);
    let candidates = std::iter::once(PossibleWorld::empty())
        .chain(ws.worlds().iter().step_by(stride).map(|(w, _)| w.clone()));
    for candidate in candidates {
        let exact = jaccard::expected_jaccard_distance(tree, &candidate);
        let brute = oracle::expected_world_distance(&candidate, &ws, jaccard_world);
        assert_close(&format!("{label}: Lemma 1 on {candidate}"), exact, brute);
        let poly2 = reference::expected_jaccard_distance_poly2(tree, &candidate);
        assert!(
            (exact - poly2).abs() <= JACCARD_REFERENCE_TOL,
            "{label}: Lemma 1 on {candidate}: dual {exact} vs Poly2 {poly2}"
        );
        checks += 2;
    }
    checks
}

/// Lemmas 1–2 on a tuple-independent relation: the Jaccard expectation is
/// exact for arbitrary candidates, the prefix scan agrees with the `Poly2`
/// reference, and its mean world is the enumerated optimum.
pub fn check_jaccard(db: &TupleIndependentDb) -> usize {
    let tree = cpdb_andxor::convert::from_tuple_independent(db)
        .expect("tuple-independent relations always convert");
    let ws = db.enumerate_worlds();
    let n = db.len();
    let mut checks = 0;

    // Candidate worlds: empty, full, alternating, and a hash-spread subset.
    let masks = [0u64, (1 << n) - 1, 0x5555_5555 & ((1 << n) - 1), {
        let h = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h & ((1 << n) - 1)
    }];
    for mask in masks {
        let chosen: Vec<_> = db
            .tuples()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, (a, _))| *a)
            .collect();
        let candidate = PossibleWorld::new(chosen).expect("distinct keys by construction");
        let exact = jaccard::expected_jaccard_distance(&tree, &candidate);
        let brute = oracle::expected_world_distance(&candidate, &ws, jaccard_world);
        assert_close("jaccard expectation (Lemma 1)", exact, brute);
        checks += 1;
    }

    let (scan, scan_checks) = check_jaccard_scan(
        "jaccard/tuple-independent",
        &tree,
        &db.sorted_by_probability_desc(),
    );
    let consensus = jaccard::mean_world_tuple_independent(db).expect("valid relation");
    assert_eq!(
        consensus, scan,
        "mean_world_tuple_independent is the tree scan"
    );
    let (_, brute) = oracle::brute_force_mean_world(&ws, jaccard_world);
    assert_close(
        "jaccard mean-world optimality (Lemma 2)",
        consensus.expected_distance,
        brute,
    );
    checks + scan_checks + 2
}

/// §4.2 on a BID relation: the block-best prefix scan agrees with the
/// `Poly2` reference, equals the engine-facing tree scan, and is the
/// enumerated median world.
pub fn check_jaccard_bid(db: &BidDb) -> usize {
    let tree = cpdb_andxor::convert::from_bid(db).expect("BID relations always convert");
    let median = jaccard::median_world_bid(db).expect("valid relation");
    let (scan, scan_checks) =
        check_jaccard_scan("jaccard/bid", &tree, &jaccard::prefix_candidates(&tree));
    assert_eq!(median, scan, "median_world_bid is the tree scan");
    let ws = tree.enumerate_worlds();
    assert!(
        ws.worlds()
            .iter()
            .any(|(w, p)| *p > 0.0 && *w == median.world),
        "jaccard/bid median {} is not a possible world",
        median.world
    );
    let (_, brute) = oracle::brute_force_median_world(&ws, jaccard_world);
    assert_close(
        "jaccard BID median-world optimality (§4.2)",
        median.expected_distance,
        brute,
    );
    check_jaccard_lemma1("jaccard/bid", &tree) + scan_checks + 3
}

/// Lemma 1 and the prefix scan on an arbitrary and/xor tree, where the scan
/// is a heuristic: sampled possible worlds are scored exactly, and the scan
/// agrees with the `Poly2` reference and with enumeration.
pub fn check_jaccard_tree(label: &str, tree: &AndXorTree) -> usize {
    let (_, scan_checks) = check_jaccard_scan(label, tree, &jaccard::prefix_candidates(tree));
    check_jaccard_lemma1(label, tree) + scan_checks
}

/// Theorem 3 / §5.3 / §5.4: the mean Top-k answers under symmetric
/// difference, the intersection metric, and the footrule metric all match
/// their closed-form expected distances and the enumerated optima; the Υ_H
/// heuristic respects its `1/H_k` guarantee.
pub fn check_topk_means(tree: &AndXorTree, k: usize) -> usize {
    let ws = tree.enumerate_worlds();
    let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
    let k = k.min(items.len());
    if k == 0 {
        return 0;
    }
    let ctx = TopKContext::new(tree, k);

    let mean = sym_diff::mean_topk_sym_diff(&ctx).expect("context keys are distinct");
    let closed = sym_diff::expected_sym_diff_distance(&ctx, &mean);
    let fixed_k = |a: &_, b: &_| oracle::sym_diff_distance_fixed_k(k, a, b);
    let direct = oracle::expected_topk_distance(&mean, &ws, k, fixed_k);
    assert_close(
        "topk/sym-diff closed-form expected distance",
        closed,
        direct,
    );
    let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, fixed_k);
    assert_close("topk/sym-diff mean optimality (Theorem 3)", closed, brute);

    let mean = intersection::mean_topk_intersection(&ctx).expect("context keys are distinct");
    let closed = intersection::expected_intersection_distance(&ctx, &mean);
    let direct = oracle::expected_topk_distance(&mean, &ws, k, intersection_metric);
    assert_close(
        "topk/intersection closed-form expected distance",
        closed,
        direct,
    );
    let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
    assert_close("topk/intersection mean optimality (§5.3)", closed, brute);

    let upsilon = intersection::mean_topk_upsilon_h(&ctx).expect("context keys are distinct");
    let a_opt = intersection::objective_a(&ctx, &mean);
    let a_ups = intersection::objective_a(&ctx, &upsilon);
    assert!(
        a_ups + TOL >= a_opt / intersection::harmonic(k) && a_ups <= a_opt + TOL,
        "topk/intersection Υ_H objective {a_ups} violates [opt/H_k, opt] = [{}, {a_opt}]",
        a_opt / intersection::harmonic(k)
    );

    let mean = footrule::mean_topk_footrule(&ctx).expect("context keys are distinct");
    let closed = footrule::expected_footrule_distance(&ctx, &mean);
    let direct = oracle::expected_topk_distance(&mean, &ws, k, footrule_distance);
    assert_close(
        "topk/footrule closed-form expected distance",
        closed,
        direct,
    );
    let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
    assert_close("topk/footrule mean optimality (§5.4)", closed, brute);
    7
}

/// Theorem 4: the median-Top-k sweep under symmetric difference reports an
/// exact expected distance, attains the enumerated median optimum, answers
/// the same on a repeat call and agrees with the literal per-threshold
/// program of [`mod@reference`].
pub fn check_topk_median_dp(tree: &AndXorTree, k: usize) -> usize {
    let ws = tree.enumerate_worlds();
    let k = k.min(tree.keys().len());
    if k == 0 {
        return 0;
    }
    let ctx = TopKContext::new(tree, k);
    let median =
        median_dp::median_topk_sym_diff(tree, &ctx).expect("valid trees have distinct keys");
    assert_eq!(
        median_dp::median_topk_sym_diff(tree, &ctx).ok().as_ref(),
        Some(&median),
        "topk/median-dp: a repeat call answered differently"
    );
    check_topk_median_reference(tree, k);
    let fixed_k = |a: &_, b: &_| oracle::sym_diff_distance_fixed_k(k, a, b);
    let direct = oracle::expected_topk_distance(&median.answer, &ws, k, fixed_k);
    assert_close(
        "topk/median-dp closed-form expected distance",
        median.expected_distance,
        direct,
    );
    let (_, brute) = oracle::brute_force_median_topk(&ws, k, fixed_k);
    assert_close(
        "topk/median-dp optimality (Theorem 4)",
        median.expected_distance,
        brute,
    );
    4
}

/// The served Kendall answer on a tree too large for world enumeration: its
/// reported `E[d_K]`, read off the pool table, is within `1e-9` of the
/// exact evaluator on the returned list, and no larger than the footrule
/// answer's (within `1e-12`). Returns `(served, footrule)` distances.
pub fn check_kendall_served(tree: &AndXorTree, k: usize) -> (f64, f64) {
    let ctx = TopKContext::new(tree, k);
    let (served, distance) =
        kendall::mean_topk_kendall(tree, &ctx).expect("context keys are distinct");
    assert_close(
        "topk/kendall served E[d_K] vs the exact evaluator",
        distance,
        kendall::expected_kendall_distance(tree, &ctx, &served),
    );
    let footrule = kendall::expected_kendall_distance(
        tree,
        &ctx,
        &footrule::mean_topk_footrule(&ctx).expect("context keys are distinct"),
    );
    assert!(
        distance <= footrule + 1e-12,
        "topk/kendall k={k}: served {distance} is worse than the footrule answer {footrule}"
    );
    (distance, footrule)
}

/// The median sweep against [`reference::median_topk_sym_diff_recursive`]:
/// both pick the same key set, or sets whose objectives
/// `Σ_{t ∈ τ} (Pr(r(t) ≤ k) − ½)` tie within `1e-12` (the two sum in a
/// different order, so an exact tie may fall either way). Needs no world
/// enumeration, so it runs on trees of any size. Returns whether the key
/// sets were equal.
pub fn check_topk_median_reference(tree: &AndXorTree, k: usize) -> bool {
    let ctx = TopKContext::new(tree, k);
    let sweep =
        median_dp::median_topk_sym_diff(tree, &ctx).expect("valid trees have distinct keys");
    let literal = reference::median_topk_sym_diff_recursive(tree, &ctx)
        .expect("valid trees have distinct keys");
    let key_set = |answer: &TopKList| {
        let mut keys = answer.items().to_vec();
        keys.sort_unstable();
        keys
    };
    if key_set(&sweep.answer) == key_set(&literal.answer) {
        return true;
    }
    let objective = |answer: &TopKList| {
        answer
            .items()
            .iter()
            .map(|&t| ctx.row_of(TupleKey(t)).map_or(0.0, |row| row.in_topk()) - 0.5)
            .sum::<f64>()
    };
    let (got, want) = (objective(&sweep.answer), objective(&literal.answer));
    assert!(
        (got - want).abs() < 1e-12,
        "topk/median-dp k={k}: sweep picked {} (objective {got}), the reference {} \
         (objective {want})",
        sweep.answer,
        literal.answer
    );
    false
}

/// §5.5: the Kendall consensus heuristics never beat the enumerated optimum
/// and stay within their factor-2 guarantee (footrule proxy by Diaconis–
/// Graham / Fagin et al.; pivot by the KwikSort expectation, taken best-of).
/// The served local search reports its exact `E[d_K]` and is never worse
/// than the footrule answer it starts from.
pub fn check_kendall(tree: &AndXorTree, k: usize, seed: u64) -> usize {
    let ws = tree.enumerate_worlds();
    let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
    let k = k.min(items.len());
    if k == 0 {
        return 0;
    }
    let ctx = TopKContext::new(tree, k);
    let (_, opt) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);

    let via_footrule = footrule::mean_topk_footrule(&ctx).expect("context keys are distinct");
    let cost_footrule = reference::expected_kendall_distance_enumerated(tree, &ctx, &via_footrule);
    // The enumerated-expectation helper must agree with the generic oracle.
    assert_close(
        "topk/kendall enumerated expectation helper",
        cost_footrule,
        oracle::expected_topk_distance(&via_footrule, &ws, k, kendall_tau_topk),
    );
    assert_within_factor("topk/kendall via footrule", cost_footrule, opt, 2.0);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_0FC4);
    let pivot = mean_topk_kendall_pivot(tree, &ctx, 4, &mut rng);
    let cost_pivot = reference::expected_kendall_distance_enumerated(tree, &ctx, &pivot);
    assert_within_factor("topk/kendall pivot", cost_pivot, opt, 2.0);

    let (served, distance) =
        kendall::mean_topk_kendall(tree, &ctx).expect("context keys are distinct");
    assert_close(
        "topk/kendall served E[d_K] vs enumeration",
        distance,
        reference::expected_kendall_distance_enumerated(tree, &ctx, &served),
    );
    let footrule_exact = kendall::expected_kendall_distance(tree, &ctx, &via_footrule);
    assert!(
        distance <= footrule_exact + 1e-12,
        "topk/kendall served {distance} is worse than the footrule answer {footrule_exact}"
    );
    assert_within_factor("topk/kendall served", distance, opt, 2.0);
    8 + check_kendall_exact(tree, k)
}

/// The exact `E[d_K]` evaluator against world enumeration, within `1e-12`,
/// on candidates of every length `0..=k`: prefixes of the keys in
/// increasing and in decreasing order, each followed by a key the tree does
/// not hold (so lists longer than the tree, and `k > n`, are covered too).
/// Returns the number of candidates checked.
pub fn check_kendall_exact(tree: &AndXorTree, k: usize) -> usize {
    let ctx = TopKContext::new(tree, k);
    let mut keys: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
    let unknown = keys.last().map_or(0, |&last| last + 1);
    keys.push(unknown);
    let mut checks = 0;
    for order in [keys.clone(), keys.into_iter().rev().collect()] {
        for len in 0..=k.min(order.len()) {
            let candidate = TopKList::new(order[..len].to_vec()).expect("keys are distinct");
            let exact = kendall::expected_kendall_distance(tree, &ctx, &candidate);
            let enumerated =
                reference::expected_kendall_distance_enumerated(tree, &ctx, &candidate);
            assert!(
                (exact - enumerated).abs() < 1e-12,
                "exact E[d_K] of {candidate:?} at k={k}: {exact} vs enumerated {enumerated}"
            );
            checks += 1;
        }
    }
    checks
}

/// §6.1 (Theorem 5 / Corollary 2): the mean aggregate is the exact
/// expectation, the closed-form expected squared distance matches
/// enumeration, the min-cost-flow answer is the closest *possible* answer,
/// and the flow answer 4-approximates the enumerated median.
pub fn check_aggregate(inst: &GroupByInstance) -> usize {
    let answers = inst.enumerate_answers();
    let total_mass: f64 = answers.iter().map(|(_, p)| *p).sum();
    assert_close("aggregate world-mass normalisation", total_mass, 1.0);

    let m = inst.num_groups();
    let mean = inst.mean_answer();
    for v in 0..m {
        let enumerated: f64 = answers.iter().map(|(c, p)| c[v] as f64 * p).sum();
        assert_close("aggregate mean answer (linearity)", mean[v], enumerated);
    }

    let brute_sq = |candidate: &[f64]| -> f64 {
        answers
            .iter()
            .map(|(c, p)| {
                p * c
                    .iter()
                    .enumerate()
                    .map(|(v, &x)| (candidate[v] - x as f64).powi(2))
                    .sum::<f64>()
            })
            .sum()
    };
    let floor_mean: Vec<f64> = mean.iter().map(|x| x.floor()).collect();
    let zeros = vec![0.0; m];
    let mut checks = 1 + m;
    for candidate in [&mean, &floor_mean, &zeros] {
        assert_close(
            "aggregate closed-form expected squared distance",
            inst.expected_squared_distance(candidate),
            brute_sq(candidate),
        );
        checks += 1;
    }

    let closest = inst
        .closest_possible_answer()
        .expect("flow construction succeeds on valid instances");
    let closest_f: Vec<f64> = closest.counts.iter().map(|&c| c as f64).collect();
    let closest_cost = inst.expected_squared_distance(&closest_f);
    assert!(
        answers
            .iter()
            .any(|(c, p)| *p > 0.0 && *c == closest.counts),
        "aggregate flow answer {:?} is not a possible count vector",
        closest.counts
    );
    let support_opt = answers
        .iter()
        .filter(|(_, p)| *p > 0.0)
        .map(|(c, _)| {
            let cf: Vec<f64> = c.iter().map(|&x| x as f64).collect();
            inst.expected_squared_distance(&cf)
        })
        .fold(f64::INFINITY, f64::min);
    assert_close(
        "aggregate closest-possible-answer optimality (Theorem 5)",
        closest_cost,
        support_opt,
    );

    let (_, median_cost) = inst.median_answer_brute_force();
    assert_within_factor(
        "aggregate median 4-approximation (Corollary 2)",
        closest_cost,
        median_cost,
        4.0,
    );
    checks + 4
}

/// §6.2: the generating-function co-clustering weights match enumeration
/// pair by pair, and best-of KwikCluster stays within its constant factor of
/// the enumerated optimal consensus clustering.
pub fn check_clustering(tree: &AndXorTree, seed: u64) -> usize {
    let ws = tree.enumerate_worlds();
    let weights = clustering::CoClusteringWeights::from_tree(tree, 0);
    let keys = weights.keys().to_vec();
    let mut checks = 0;

    for (idx, &i) in keys.iter().enumerate() {
        for &j in keys.iter().skip(idx + 1) {
            let enumerated: f64 = ws
                .worlds()
                .iter()
                .map(|(w, p)| {
                    let together = match (w.value_of(i), w.value_of(j)) {
                        (Some(a), Some(b)) => a == b,
                        (None, None) => true, // the artificial "absent" cluster
                        _ => false,
                    };
                    if together {
                        *p
                    } else {
                        0.0
                    }
                })
                .sum();
            assert_close(
                "clustering co-occurrence weight w_ij",
                weights.weight(i, j),
                enumerated,
            );
            checks += 1;
        }
    }

    let (_, opt) = clustering::brute_force_clustering(&weights);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_7E12);
    let (_, cost) = clustering::pivot_clustering_best_of(&weights, 8, &mut rng);
    assert_within_factor("clustering best-of KwikCluster", cost, opt, 2.0);
    checks + 2
}

/// The engine's positional KwikCluster against the keyed form it replaced
/// ([`reference::pivot_clustering_best_of_keyed`]): at every restart count,
/// on the engine's own RNG stream, the clustering is equal and the expected
/// distance bit-identical.
pub fn check_clustering_reference(tree: &AndXorTree, seed: u64) -> usize {
    let engine = ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .build()
        .expect("default engine configuration is valid");
    let mut checks = 0;
    for restarts in [0, 1, 4, 16] {
        let q = Query::Clustering { restarts };
        let got = engine.run(&q).expect("supported");
        let mut rng = engine.query_rng(&q);
        let (want, want_cost) = reference::pivot_clustering_best_of_keyed(
            engine.coclustering_weights(),
            restarts,
            &mut rng,
        );
        assert_eq!(
            got.value.as_clustering().expect("clustering"),
            &want,
            "positional KwikCluster diverges from the keyed reference at restarts={restarts}"
        );
        assert_eq!(
            got.expected_distance.to_bits(),
            want_cost.to_bits(),
            "positional clustering cost is not bit-identical to the keyed reference at \
             restarts={restarts}"
        );
        checks += 2;
    }
    checks
}

/// Batch ↔ per-tuple generating-function equivalence: the single-sweep batch
/// evaluator (`batch_rank_pmfs`, `batch_pairwise_order`,
/// `batch_cocluster_weights`) must agree with the per-tuple reference paths
/// within `1e-12` and with the brute-force possible-worlds oracle within
/// [`TOL`], and the pairwise builds must be **bit-identical at any thread
/// count**.
pub fn check_batch_genfunc(tree: &AndXorTree) -> usize {
    const BATCH_TOL: f64 = 1e-12;
    let ws = tree.enumerate_worlds();
    let keys = tree.keys();
    let n = keys.len();
    let mut checks = 0;

    // --- Rank PMFs: batch vs per-tuple vs enumeration, at k = 1 and k = n.
    for k in [1usize, n] {
        let batch = tree.batch_rank_pmfs(k);
        assert_eq!(batch.len(), n * k, "one rank pmf row per key");
        for (&key, row) in keys.iter().zip(batch.chunks_exact(k)) {
            let per_tuple = rank::rank_pmf(tree, key, k);
            for i in 0..k {
                assert!(
                    (row[i] - per_tuple[i]).abs() < BATCH_TOL,
                    "batch rank pmf diverges from per-tuple: key {key:?} rank {} ({} vs {})",
                    i + 1,
                    row[i],
                    per_tuple[i]
                );
                let brute: f64 = ws
                    .worlds()
                    .iter()
                    .filter(|(w, _)| w.rank_of(key) == Some(i + 1))
                    .map(|(_, p)| *p)
                    .sum();
                assert_close("batch rank pmf vs worlds oracle", row[i], brute);
                checks += 2;
            }
        }
    }

    // --- Pairwise order: batch vs per-pair vs enumeration.
    let batch = tree.batch_pairwise_order(&keys, 1);
    let threaded = tree.batch_pairwise_order(&keys, 3);
    for (x, y) in batch.iter().zip(&threaded) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "batch pairwise order depends on the thread count"
        );
    }
    checks += 1;
    for (i, &a) in keys.iter().enumerate() {
        for (j, &b) in keys.iter().enumerate() {
            if i == j {
                continue;
            }
            let got = batch[i * n + j];
            let per_pair = rank::pairwise_order_probability(tree, a, b);
            assert!(
                (got - per_pair).abs() < BATCH_TOL,
                "batch pairwise order diverges from per-pair: Pr(r({a:?}) < r({b:?})) \
                 {got} vs {per_pair}"
            );
            let brute = ws.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                (Some(ra), Some(rb)) => f64::from(ra < rb),
                (Some(_), None) => 1.0,
                _ => 0.0,
            });
            assert_close("batch pairwise order vs worlds oracle", got, brute);
            checks += 2;
        }
    }

    // --- Co-clustering weights: batch vs per-pair reference vs enumeration.
    let batch = clustering::CoClusteringWeights::from_tree(tree, 1);
    let per_pair = rank::coclustering_weights_per_pair(tree);
    let threaded = clustering::CoClusteringWeights::from_tree(tree, 3);
    for (idx, &i) in keys.iter().enumerate() {
        for &j in keys.iter().skip(idx + 1) {
            assert!(
                (batch.weight(i, j) - per_pair.weight(i, j)).abs() < BATCH_TOL,
                "batch cocluster weight diverges from per-pair: w({i:?},{j:?}) {} vs {}",
                batch.weight(i, j),
                per_pair.weight(i, j)
            );
            assert_eq!(
                batch.weight(i, j).to_bits(),
                threaded.weight(i, j).to_bits(),
                "batch cocluster weight depends on the thread count"
            );
            let brute = ws.expectation(|w| match (w.value_of(i), w.value_of(j)) {
                (Some(a), Some(b)) => f64::from(a == b),
                (None, None) => 1.0,
                _ => 0.0,
            });
            assert_close(
                "batch cocluster weight vs worlds oracle",
                batch.weight(i, j),
                brute,
            );
            checks += 3;
        }
    }
    checks
}

/// Engine ↔ direct equivalence: every [`Query`] variant executed through a
/// [`cpdb_engine::ConsensusEngine`] must return **bit-identical** results to
/// the free functions it unifies (replaying the engine's per-query RNG stream
/// for the randomised paths), and the exact answers must still attain the
/// enumerated oracle optimum. Exercises `run_batch` so the cached-artifact
/// path is what gets checked, and asserts the rank-probability PMFs were
/// built once, at the batch's largest `k`, rather than once per query or
/// per `k`.
pub fn check_engine(tree: &AndXorTree, groupby: &GroupByInstance, seed: u64) -> usize {
    const BASELINE_SAMPLES: usize = 500;
    let engine = ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .groupby(groupby.clone())
        .build()
        .expect("default engine configuration is valid");
    let n = tree.keys().len();
    let ws = tree.enumerate_worlds();
    let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
    let mut checks = 0;

    // --- Top-k: the whole metric × variant grid through one batch. ---
    let ks: Vec<usize> = (1..=n.min(3)).collect();
    let mut queries = Vec::new();
    for &k in &ks {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            queries.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        queries.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
    }
    let answers = engine.run_batch(&queries);
    for (query, answer) in queries.iter().zip(answers) {
        let answer = answer.expect("every grid query is supported");
        let Query::TopK { k, metric, variant } = query else {
            unreachable!()
        };
        let ctx = TopKContext::new(tree, *k);
        let got = answer.value.as_topk().expect("Top-k queries return lists");
        let (direct, direct_distance) = match (metric, variant) {
            (TopKMetric::SymmetricDifference, Variant::Mean) => {
                let list = sym_diff::mean_topk_sym_diff(&ctx).expect("context keys are distinct");
                let d = sym_diff::expected_sym_diff_distance(&ctx, &list);
                // Exact: must also attain the enumerated optimum.
                let fixed_k = |a: &_, b: &_| oracle::sym_diff_distance_fixed_k(*k, a, b);
                let (_, brute) = oracle::brute_force_mean_topk(&items, *k, &ws, fixed_k);
                assert_close("engine topk/sym-diff vs oracle", d, brute);
                checks += 1;
                (list, d)
            }
            (TopKMetric::SymmetricDifference, Variant::Median) => {
                let median = median_dp::median_topk_sym_diff(tree, &ctx)
                    .expect("valid trees have distinct keys");
                let fixed_k = |a: &_, b: &_| oracle::sym_diff_distance_fixed_k(*k, a, b);
                let (_, brute) = oracle::brute_force_median_topk(&ws, *k, fixed_k);
                assert_close(
                    "engine topk/median-dp vs oracle",
                    median.expected_distance,
                    brute,
                );
                checks += 1;
                (median.answer, median.expected_distance)
            }
            (TopKMetric::Intersection, Variant::Mean) => {
                let list =
                    intersection::mean_topk_intersection(&ctx).expect("context keys are distinct");
                let d = intersection::expected_intersection_distance(&ctx, &list);
                let (_, brute) =
                    oracle::brute_force_mean_topk(&items, *k, &ws, intersection_metric);
                assert_close("engine topk/intersection vs oracle", d, brute);
                checks += 1;
                (list, d)
            }
            (TopKMetric::Footrule, Variant::Mean) => {
                let list = footrule::mean_topk_footrule(&ctx).expect("context keys are distinct");
                let d = footrule::expected_footrule_distance(&ctx, &list);
                let (_, brute) = oracle::brute_force_mean_topk(&items, *k, &ws, footrule_distance);
                assert_close("engine topk/footrule vs oracle", d, brute);
                checks += 1;
                (list, d)
            }
            (TopKMetric::Kendall, Variant::Mean) => {
                // The free function the engine serves; it reads no RNG.
                let (list, d) =
                    kendall::mean_topk_kendall(tree, &ctx).expect("context keys are distinct");
                // Exact: the served list's E[d_K] over the enumerated worlds.
                assert_close(
                    "engine topk/kendall E[d_K] vs oracle",
                    d,
                    reference::expected_kendall_distance_enumerated(tree, &ctx, &list),
                );
                checks += 1;
                (list, d)
            }
            _ => unreachable!("grid only contains supported combinations"),
        };
        assert_eq!(
            *got, direct,
            "engine Top-k answer diverges from the free function for {query:?}"
        );
        assert_eq!(
            answer.expected_distance.to_bits(),
            direct_distance.to_bits(),
            "engine expected distance not bit-identical for {query:?}"
        );
        checks += 2;
    }
    // Rank PMFs must have been built once, at the batch's largest k: every
    // smaller k read a column prefix of that one context.
    let stats = engine.cache_stats();
    assert_eq!(
        stats.rank_context_builds,
        usize::from(!ks.is_empty()),
        "engine rebuilt rank PMFs within a batch: {stats:?}"
    );
    checks += 1;

    // --- Set consensus. ---
    let set_mean = engine
        .run(&Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        })
        .expect("supported");
    let direct_world = set_distance::mean_world(tree);
    assert_eq!(set_mean.value.as_world().expect("world"), &direct_world);
    let (_, brute) = oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
    assert_close(
        "engine set/sym-diff vs oracle",
        set_mean.expected_distance,
        brute,
    );
    let jac = engine
        .run(&Query::SetConsensus {
            metric: SetMetric::Jaccard,
            variant: Variant::Mean,
        })
        .expect("supported");
    let direct_jac = jaccard::best_prefix_world(tree, &jaccard::prefix_candidates(tree))
        .expect("prefix candidates hold one alternative per key");
    assert_eq!(jac.value.as_world().expect("world"), &direct_jac.world);
    assert_eq!(
        jac.expected_distance.to_bits(),
        direct_jac.expected_distance.to_bits(),
        "engine Jaccard distance not bit-identical"
    );
    checks += 3;

    // --- Clustering. ---
    let q = Query::Clustering { restarts: 8 };
    let got = engine.run(&q).expect("supported");
    let weights = clustering::CoClusteringWeights::from_tree(tree, 0);
    let mut rng = engine.query_rng(&q);
    let (direct, direct_cost) = clustering::pivot_clustering_best_of(&weights, 8, &mut rng);
    assert_eq!(got.value.as_clustering().expect("clustering"), &direct);
    assert_eq!(got.expected_distance.to_bits(), direct_cost.to_bits());
    checks += 2;

    // --- Aggregates. ---
    let mean = engine
        .run(&Query::Aggregate {
            variant: Variant::Mean,
        })
        .expect("supported");
    assert_eq!(
        mean.value.as_counts().expect("counts"),
        groupby.mean_answer()
    );
    let median = engine
        .run(&Query::Aggregate {
            variant: Variant::Median,
        })
        .expect("supported");
    let direct = groupby.median_answer_4approx().expect("valid instance");
    let got_counts = median.value.as_counts().expect("counts");
    let direct_counts: Vec<f64> = direct.counts.iter().map(|&c| c as f64).collect();
    assert_eq!(got_counts, direct_counts);
    checks += 2;

    // --- Baselines. ---
    let k = n.clamp(1, 2);
    let ctx = TopKContext::new(tree, k);
    for kind in [
        BaselineKind::ExpectedScore { k },
        BaselineKind::ExpectedRank {
            k,
            samples: BASELINE_SAMPLES,
        },
        BaselineKind::UTopK {
            k,
            samples: BASELINE_SAMPLES,
        },
        BaselineKind::UTopKExact { k },
        BaselineKind::GlobalTopK { k },
        BaselineKind::ProbabilisticThreshold { k, threshold: 0.5 },
    ] {
        let q = Query::Baseline { kind };
        let got = engine.run(&q).expect("supported");
        let mut rng = engine.query_rng(&q);
        let direct = match kind {
            BaselineKind::ExpectedScore { k } => {
                baselines::expected_score_topk(tree, k).expect("tree keys are distinct")
            }
            BaselineKind::ExpectedRank { k, samples } => {
                baselines::expected_rank_topk(tree, k, samples, &mut rng)
                    .expect("tree keys are distinct")
            }
            BaselineKind::UTopK { k, samples } => {
                baselines::u_topk(tree, k, samples, &mut rng).expect("tree keys are distinct")
            }
            BaselineKind::UTopKExact { k } => {
                baselines::u_topk_enumerated(tree, k).expect("tree keys are distinct")
            }
            BaselineKind::GlobalTopK { .. } => {
                baselines::global_topk(&ctx).expect("context keys are distinct")
            }
            BaselineKind::ProbabilisticThreshold { threshold, .. } => {
                baselines::ptk_answer(&ctx, threshold).expect("context keys are distinct")
            }
            _ => unreachable!("fixed list above"),
        };
        assert_eq!(
            got.value.as_topk().expect("list"),
            &direct,
            "engine baseline diverges for {kind:?}"
        );
        checks += 1;
    }

    checks
}

/// Concurrent ↔ serial engine equivalence: a mixed batch covering every
/// query family, executed through the parallel
/// [`cpdb_engine::ConsensusEngine::run_batch`] at several thread counts and
/// through a shared-engine multi-thread `run` loop, must be **bit-identical**
/// to the serial reference loop — including the errors — and the concurrent
/// traffic must build each shared artifact exactly once.
pub fn check_engine_concurrency(tree: &AndXorTree, groupby: &GroupByInstance, seed: u64) -> usize {
    let n = tree.keys().len();
    let build = |threads: usize| {
        ConsensusEngineBuilder::new(tree.clone())
            .seed(seed)
            .groupby(groupby.clone())
            .threads(threads)
            .build()
            .expect("default engine configuration is valid")
    };
    let mut queries = Vec::new();
    for k in 1..=n.min(3) {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            queries.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        queries.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
    }
    queries.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    queries.push(Query::SetConsensus {
        metric: SetMetric::Jaccard,
        variant: Variant::Mean,
    });
    queries.push(Query::Clustering { restarts: 8 });
    queries.push(Query::Aggregate {
        variant: Variant::Mean,
    });
    queries.push(Query::Baseline {
        kind: BaselineKind::GlobalTopK { k: 1 },
    });
    queries.push(Query::TopK {
        k: n + 5,
        metric: TopKMetric::Footrule,
        variant: Variant::Mean, // out of range: errors must round-trip too
    });

    let reference = build(1);
    let serial = reference.run_batch_serial(&queries);
    let serial_stats = reference.cache_stats();
    let mut checks = 0;

    // Parallel run_batch at several thread counts, fresh engine each time,
    // on the batch plus one repeat: the repeat is answered by dedup, and
    // the distinct queries leave the serial loop's counters, except that the
    // batch builds its rank context once, at its largest k.
    let batch_stats = CacheStats {
        rank_context_builds: n.min(1),
        rank_context_hits: serial_stats.rank_context_builds + serial_stats.rank_context_hits
            - n.min(1),
        ..serial_stats
    };
    let mut batch = queries.clone();
    batch.push(queries[0].clone());
    let mut expected = serial.clone();
    expected.push(serial[0].clone());
    for threads in [1usize, 2, 3, 8] {
        let engine = build(threads);
        let parallel = engine.run_batch(&batch);
        assert_eq!(
            expected, parallel,
            "parallel run_batch diverges from the serial loop at {threads} threads"
        );
        let stats = engine.cache_stats();
        assert_eq!(
            stats.preference_builds, 0,
            "run_batch built a tournament at {threads} threads: {stats:?}"
        );
        assert_eq!(stats.coclustering_builds, 1, "{stats:?}");
        assert_eq!(stats.marginal_builds, 1, "{stats:?}");
        assert_eq!(stats.batch_dedup_hits, 1, "{stats:?}");
        assert_eq!(
            CacheStats {
                batch_dedup_hits: 0,
                ..stats
            },
            batch_stats,
            "run_batch counters differ from the serial loop at {threads} threads"
        );
        checks += 6;
    }

    // A shared engine hammered by raw `run` calls from several threads, each
    // walking the query list in a different rotation.
    let engine = build(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let (engine, queries, serial) = (&engine, &queries, &serial);
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        let at = (i + t * 7) % queries.len();
                        assert_eq!(
                            engine.run(&queries[at]),
                            serial[at],
                            "shared-engine thread {t} diverges on {:?}",
                            queries[at]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
    });
    // How often the rank context grows depends on the schedule, but never
    // more than once per distinct k.
    let stats = engine.cache_stats();
    assert!(
        stats.rank_context_builds <= n.min(3),
        "shared-engine traffic rebuilt a rank context: {stats:?}"
    );
    assert_eq!(stats.preference_builds, 0, "{stats:?}");
    checks + 2
}

/// The probe batch for the live-update checks: every query family the
/// engine can serve without a group-by instance, at the given `k`s.
pub(crate) fn live_probe(ks: &[usize]) -> Vec<Query> {
    let mut probe = Vec::new();
    for &k in ks {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            probe.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        probe.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        probe.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k },
        });
    }
    probe.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    probe.push(Query::SetConsensus {
        metric: SetMetric::Jaccard,
        variant: Variant::Mean,
    });
    probe.push(Query::Clustering { restarts: 8 });
    probe
}

/// A single-∨-edge probability update whose dependency footprint is a
/// *strict* subset of the keys (`None` when every ∨ edge covers all keys —
/// e.g. a one-block tree — and selective maintenance cannot be observed).
fn selective_probability_delta<R: rand::Rng + ?Sized>(
    tree: &AndXorTree,
    rng: &mut R,
) -> Option<cpdb_live::TreeDelta> {
    let n = tree.keys().len();
    tree.xor_nodes().into_iter().find_map(|xor| {
        let children = tree.children(xor);
        children.iter().find_map(|&(child, p)| {
            if tree.subtree_keys(child).len() >= n {
                return None;
            }
            let others: f64 = children.iter().map(|(_, w)| *w).sum::<f64>() - p;
            let available = (1.0 - others).max(0.0);
            Some(cpdb_live::TreeDelta::XorEdgeProbability {
                xor,
                child,
                probability: available * rng.gen_range(0.05..0.95),
            })
        })
    })
}

/// A valid single-∨-edge probability update drawn at random: the new
/// probability is scaled into the block's available mass.
fn random_probability_delta<R: rand::Rng + ?Sized>(
    tree: &AndXorTree,
    rng: &mut R,
) -> cpdb_live::TreeDelta {
    let xors = tree.xor_nodes();
    let xor = xors[rng.gen_range(0..xors.len())];
    let children = tree.children(xor);
    let (child, p) = children[rng.gen_range(0..children.len())];
    let others: f64 = children.iter().map(|(_, w)| *w).sum::<f64>() - p;
    let available = (1.0 - others).max(0.0);
    cpdb_live::TreeDelta::XorEdgeProbability {
        xor,
        child,
        probability: available * rng.gen_range(0.05..0.95),
    }
}

/// A valid random delta of the kind selected by `step` (falling back to a
/// probability update when the tree offers no target of that kind).
pub(crate) fn random_live_delta<R: rand::Rng + ?Sized>(
    tree: &AndXorTree,
    step: usize,
    rng: &mut R,
) -> cpdb_live::TreeDelta {
    use cpdb_live::TreeDelta;
    match step % 5 {
        // A leaf value update (roughly half of them order-preserving).
        1 => {
            let leaves = tree.leaf_nodes();
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            TreeDelta::LeafValue {
                leaf,
                value: rng.gen_range(0.0..100.0),
            }
        }
        // Insert an alternative next to an existing leaf of some block.
        2 => {
            let candidate = tree.xor_nodes().into_iter().find_map(|xor| {
                let children = tree.children(xor);
                let leaf_key = children
                    .iter()
                    .find_map(|&(c, _)| tree.leaf_alternative(c))?
                    .key;
                let available = 1.0 - children.iter().map(|(_, w)| *w).sum::<f64>();
                (available > 0.02).then_some((xor, leaf_key, available))
            });
            match candidate {
                Some((xor, key, available)) => TreeDelta::InsertAlternative {
                    xor,
                    key: key.0,
                    value: rng.gen_range(0.0..100.0),
                    probability: available * 0.5,
                },
                None => random_probability_delta(tree, rng),
            }
        }
        // Remove a leaf alternative from a multi-child block.
        3 => {
            let candidate = tree.xor_nodes().into_iter().find_map(|xor| {
                let children = tree.children(xor);
                if children.len() < 2 {
                    return None;
                }
                children
                    .iter()
                    .find(|&&(c, _)| tree.leaf_alternative(c).is_some())
                    .map(|&(leaf, _)| (xor, leaf))
            });
            match candidate {
                Some((xor, leaf)) => TreeDelta::RemoveAlternative { xor, leaf },
                None => random_probability_delta(tree, rng),
            }
        }
        // Add a whole new tuple block under the root ∧.
        4 => {
            let root = tree.root();
            if tree.node_kind(root) == Some(cpdb_andxor::NodeKind::And) {
                let key = tree.keys().iter().map(|k| k.0).max().unwrap_or(0) + 7;
                TreeDelta::InsertTupleBlock {
                    under: root,
                    key,
                    alternatives: vec![
                        (rng.gen_range(0.0..100.0), rng.gen_range(0.05..0.5)),
                        (rng.gen_range(0.0..100.0), rng.gen_range(0.05..0.4)),
                    ],
                }
            } else {
                random_probability_delta(tree, rng)
            }
        }
        // Probability updates (also the fallback above).
        _ => random_probability_delta(tree, rng),
    }
}

/// Valid random deltas for `steps`, each drawn (kind by its step, as in
/// [`random_live_delta`]) against the tree the deltas before it produce, so
/// the whole run applies in order.
pub(crate) fn random_live_run<R: rand::Rng + ?Sized>(
    tree: &AndXorTree,
    steps: std::ops::Range<usize>,
    rng: &mut R,
) -> Vec<cpdb_live::TreeDelta> {
    let mut tree = tree.clone();
    steps
        .map(|step| {
            let delta = random_live_delta(&tree, step, rng);
            tree = tree
                .apply_delta(&delta)
                .expect("generated deltas are valid")
                .0;
            delta
        })
        .collect()
}

/// `cpdb_live` end-to-end conformance: a [`cpdb_live::LiveEngine`] absorbs a
/// seeded random delta sequence covering every [`cpdb_live::TreeDelta`]
/// kind; after **every** delta, the patched engine's answers over a probe
/// batch spanning every query family must equal — bit for bit, including
/// the expected distances — those of a **from-scratch engine** built from
/// the mutated tree with the same knobs. Additionally pins the selective-
/// invalidation contract: a single-∨ probability update against a warm
/// engine must *keep* at least one artifact and *patch* at least one (no
/// blanket full rebuild), and pinned pre-delta snapshots keep answering
/// from their own epoch.
pub fn check_live_updates(tree: &AndXorTree, seed: u64) -> usize {
    use cpdb_live::LiveEngine;
    const STEPS: usize = 6;
    let n = tree.keys().len();
    let k_range = 1..=n.max(1);
    let build = |t: &AndXorTree| {
        ConsensusEngineBuilder::new(t.clone())
            .seed(seed)
            .k_range(k_range.clone())
            .build()
            .expect("live conformance configuration is valid")
    };
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_C0DE);
    let live = LiveEngine::new(build(tree));
    let mut checks = 0;

    // Selective invalidation on a warm engine (the acceptance criterion).
    // Only observable when some ∨ edge covers a strict subset of the keys;
    // a delta touching every key legitimately invalidates everything.
    for answer in live.snapshot().run_batch_serial(&probe) {
        answer.expect("probe queries are all supported");
    }
    let pinned = live.snapshot();
    let pinned_answers = pinned.run_batch_serial(&probe);
    if let Some(delta) = selective_probability_delta(pinned.tree(), &mut rng) {
        let outcome = live.apply(&delta).expect("generated delta is valid");
        // Only the rank context, whose every row reads every presence, may
        // drop; the other built artifacts are patched.
        assert!(
            outcome.report.invalidated() <= 1,
            "single-∨ probability update invalidated more than the rank context: {:?}",
            outcome.report
        );
        assert!(
            outcome.report.patched() >= 1,
            "single-∨ probability update patched no artifact: {:?}",
            outcome.report
        );
        checks += 2;
    }
    // Snapshot isolation: the pinned pre-delta epoch still answers as before.
    assert_eq!(
        pinned.run_batch_serial(&probe),
        pinned_answers,
        "pinned snapshot changed answers after an epoch swap"
    );
    checks += 1;

    // Random delta sequence: every kind, fresh-engine equality after each.
    for step in 0..STEPS {
        let snap = live.snapshot();
        // Warm the current epoch so the maintenance has artifacts to manage.
        for answer in snap.run_batch_serial(&probe) {
            answer.expect("probe queries are all supported");
        }
        let delta = random_live_delta(snap.tree(), step, &mut rng);
        live.apply(&delta).expect("generated deltas are valid");
        let now = live.snapshot();
        let fresh = build(now.tree());
        let live_answers = now.run_batch_serial(&probe);
        let fresh_answers = fresh.run_batch_serial(&probe);
        assert_eq!(
            live_answers,
            fresh_answers,
            "live epoch {} diverges from a from-scratch engine after {delta:?}",
            now.epoch()
        );
        checks += probe.len();
    }
    checks
}

/// Batched-replay conformance: a run of deltas applied as one
/// [`cpdb_live::LiveEngine::apply_all`] batch (artifacts maintained once,
/// against the run's combined impact) must publish exactly what applying
/// them one at a time publishes — the same epoch, an equal
/// [`export`](cpdb_engine::ConsensusEngine::export), and the same `Debug`
/// text for every probe answer.
///
/// Both sides start from one warm engine with every artifact built. The
/// runs have 1, 2, 8 and 31 deltas, drawn across every
/// [`cpdb_live::TreeDelta`] kind; one more run updates a leaf value of every
/// key, so its combined impact covers every key and the batch takes the
/// all-keys invalidation path while each single delta is patched.
pub fn check_batched_apply(tree: &AndXorTree, seed: u64) -> usize {
    use cpdb_live::{ArtifactDecision, LiveEngine, TreeDelta};
    use rand::Rng;
    const RUNS: [usize; 4] = [1, 2, 8, 31];

    let n = tree.keys().len();
    let warm = ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .build()
        .expect("batched-apply conformance configuration is valid");
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    for answer in warm.run_batch_serial(&probe) {
        answer.expect("probe queries are all supported");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_4ED0);

    // The step counter runs on across runs, so short runs cover other kinds.
    let mut step = 0;
    let mut runs: Vec<Vec<TreeDelta>> = RUNS
        .iter()
        .map(|&len| {
            step += len;
            random_live_run(tree, step - len..step, &mut rng)
        })
        .collect();
    let every_key: Vec<TreeDelta> = tree
        .keys()
        .iter()
        .map(|key| TreeDelta::LeafValue {
            leaf: tree.leaves_of_key(key.0)[0],
            value: rng.gen_range(0.0..100.0),
        })
        .collect();
    runs.push(every_key);

    let mut checks = 0;
    for (r, run) in runs.iter().enumerate() {
        let batched = LiveEngine::new(warm.clone());
        let outcome = batched
            .apply_all(run)
            .expect("generated runs are valid")
            .expect("runs are non-empty");
        let sequential = LiveEngine::new(warm.clone());
        for delta in run {
            sequential.apply(delta).expect("generated runs are valid");
        }
        assert_eq!(outcome.epoch, run.len() as u64, "run {r}: batch epoch");
        assert_eq!(batched.epoch(), sequential.epoch(), "run {r}: epochs");
        if r == RUNS.len() {
            assert!(
                outcome
                    .report
                    .decisions
                    .iter()
                    .any(|(label, d)| label == "coclustering_weights"
                        && *d == ArtifactDecision::Invalidated),
                "run {r}: a run touching every key must invalidate the co-clustering \
                 weights: {:?}",
                outcome.report
            );
            checks += 1;
        }
        let (b, s) = (batched.snapshot(), sequential.snapshot());
        let answers = |snap: &cpdb_live::Snapshot| {
            snap.run_batch_serial(&probe)
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            answers(&b),
            answers(&s),
            "run {r} of {} deltas: batched answers diverge from sequential",
            run.len()
        );
        // After the probe both sides hold the same built artifacts, whether
        // each was kept, patched, or rebuilt after an invalidation.
        assert!(
            b.export() == s.export(),
            "run {r} of {} deltas: batched export diverges from sequential",
            run.len()
        );
        checks += 2 + probe.len();
    }
    checks
}

/// `cpdb_store` end-to-end conformance: a durable
/// [`cpdb_live::LiveEngine`] absorbs a seeded random delta sequence (with a
/// compacting snapshot mid-way), is dropped, and is **warm-started** from
/// its store directory. The recovered engine must report the exact
/// pre-shutdown epoch and answer a probe batch spanning every query family
/// bit-for-bit like (a) the engine that wrote the store and (b) a
/// from-scratch engine built from the final tree. A crash is then simulated
/// by tearing the final WAL record (truncating the file mid-record):
/// recovery must come back at the last acknowledged epoch with unchanged
/// answers.
pub fn check_persistence(tree: &AndXorTree, seed: u64) -> usize {
    use cpdb_live::LiveEngine;
    use std::sync::atomic::{AtomicU64, Ordering};
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    const STEPS: usize = 6;

    let n = tree.keys().len();
    let k_range = 1..=n.max(1);
    let build = |t: &AndXorTree| {
        ConsensusEngineBuilder::new(t.clone())
            .seed(seed)
            .k_range(k_range.clone())
            .build()
            .expect("persistence conformance configuration is valid")
    };
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_ED0A);
    let dir = std::env::temp_dir().join(format!(
        "cpdb_persistence_conformance_{}_{}_{}",
        std::process::id(),
        seed,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut checks = 0;

    let live =
        LiveEngine::new_durable(build(tree), &dir).expect("fresh store directory is creatable");
    for step in 0..STEPS {
        let snap = live.snapshot();
        // Warm the epoch so snapshots carry built artifacts.
        for answer in snap.run_batch_serial(&probe) {
            answer.expect("probe queries are all supported");
        }
        let delta = random_live_delta(snap.tree(), step, &mut rng);
        live.apply(&delta).expect("generated deltas are valid");
        if step == STEPS / 2 {
            // Mid-sequence compacting snapshot: recovery below exercises
            // snapshot + WAL-suffix replay, not WAL-only replay.
            live.persist_snapshot().expect("snapshot write succeeds");
        }
    }
    let final_epoch = live.epoch();
    let expected = live.snapshot().run_batch_serial(&probe);
    let final_tree = live.snapshot().tree().clone();
    drop(live);

    // Clean warm start: exact epoch, bit-identical to the writer and to a
    // from-scratch engine over the same tree.
    let reopened = LiveEngine::open(&dir).expect("store recovers after clean shutdown");
    assert_eq!(reopened.epoch(), final_epoch, "recovered epoch diverged");
    let warm_answers = reopened.snapshot().run_batch_serial(&probe);
    assert_eq!(
        warm_answers, expected,
        "warm start diverged from the engine that wrote the store"
    );
    assert_eq!(
        warm_answers,
        build(&final_tree).run_batch_serial(&probe),
        "warm start diverged from a from-scratch engine"
    );
    checks += 2 * probe.len() + 1;

    // Crash simulation: apply one more delta, then tear its WAL record by
    // truncating the file one byte short. Recovery must drop the torn
    // record and come back at the last acknowledged epoch.
    let snap = reopened.snapshot();
    let extra = random_live_delta(snap.tree(), 0, &mut rng);
    reopened.apply(&extra).expect("generated deltas are valid");
    drop(reopened);
    let wal = dir.join("wal.cpdb");
    let bytes = std::fs::read(&wal).expect("wal file exists");
    std::fs::write(&wal, &bytes[..bytes.len() - 1]).expect("wal is truncatable");
    let recovered = LiveEngine::open(&dir).expect("store recovers from a torn tail");
    assert_eq!(
        recovered.epoch(),
        final_epoch,
        "torn-tail recovery did not return to the last acknowledged epoch"
    );
    assert_eq!(
        recovered.snapshot().run_batch_serial(&probe),
        expected,
        "torn-tail recovery changed answers"
    );
    checks += probe.len() + 1;

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    checks
}

/// Exhaustive crash-point sweep: a durable [`cpdb_live::LiveEngine`]
/// absorbs a seeded random delta sequence, then the WAL is truncated at
/// **every byte boundary of the final record** — simulating a crash at each
/// instant of the final append — and recovered. Every cut must yield a
/// valid engine at the last fully-acknowledged epoch (the full length
/// recovers the final epoch; every shorter cut recovers the previous one),
/// answering bit-for-bit like the engine that wrote the store and like a
/// from-scratch engine on the same tree.
pub fn check_crash_recovery(tree: &AndXorTree, seed: u64) -> usize {
    use cpdb_live::LiveEngine;
    use std::sync::atomic::{AtomicU64, Ordering};
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    const STEPS: usize = 3;

    let n = tree.keys().len();
    let k_range = 1..=n.max(1);
    let build = |t: &AndXorTree| {
        ConsensusEngineBuilder::new(t.clone())
            .seed(seed)
            .k_range(k_range.clone())
            .build()
            .expect("crash-recovery conformance configuration is valid")
    };
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_11ED);
    let dir = std::env::temp_dir().join(format!(
        "cpdb_crash_recovery_{}_{}_{}",
        std::process::id(),
        seed,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_path = dir.join("wal.cpdb");

    let live =
        LiveEngine::new_durable(build(tree), &dir).expect("fresh store directory is creatable");
    let mut final_record_start = 0;
    let mut expected_prev = Vec::new();
    let mut prev_tree = tree.clone();
    for step in 0..STEPS {
        let snap = live.snapshot();
        if step == STEPS - 1 {
            // The crash window under test: everything from here on is the
            // final record's bytes.
            final_record_start =
                std::fs::metadata(&wal_path).expect("wal file exists").len() as usize;
            expected_prev = snap.run_batch_serial(&probe);
            prev_tree = snap.tree().clone();
        }
        let delta = random_live_delta(snap.tree(), step, &mut rng);
        live.apply(&delta).expect("generated deltas are valid");
    }
    let expected_full = live.snapshot().run_batch_serial(&probe);
    let final_tree = live.snapshot().tree().clone();
    drop(live);

    // The writer's answers must themselves match from-scratch engines —
    // anchors the bit-for-bit comparisons below to an independent oracle.
    assert_eq!(expected_prev, build(&prev_tree).run_batch_serial(&probe));
    assert_eq!(expected_full, build(&final_tree).run_batch_serial(&probe));
    let mut checks = 2;

    let full = std::fs::read(&wal_path).expect("wal file exists");
    assert!(final_record_start < full.len());
    for cut in final_record_start..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).expect("wal is rewritable");
        let recovered =
            LiveEngine::open(&dir).unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let (want_epoch, want_answers) = if cut == full.len() {
            (STEPS as u64, &expected_full)
        } else {
            (STEPS as u64 - 1, &expected_prev)
        };
        assert_eq!(
            recovered.epoch(),
            want_epoch,
            "cut at byte {cut} of {} recovered the wrong epoch",
            full.len()
        );
        assert_eq!(
            &recovered.snapshot().run_batch_serial(&probe),
            want_answers,
            "cut at byte {cut} changed answers"
        );
        checks += 2;
    }

    let _ = std::fs::remove_dir_all(&dir);
    checks
}

/// `cpdb_sync` facade transparency: on a normal (non-`cpdb_check`) build
/// the synchronization facades must be invisible — the always-compiled
/// instrumented primitives behave exactly like their `std` counterparts
/// outside an exploration, and the facade-routed engine/live paths answer
/// **bit-identically** whether driven serially, through concurrent
/// `cpdb_sync::thread` traffic, or compared against a from-scratch engine
/// after an `ArcCell` epoch swap.
pub fn check_sync_shims(tree: &AndXorTree, seed: u64) -> usize {
    use cpdb_live::LiveEngine;
    use cpdb_sync::atomic::Ordering;
    use cpdb_sync::{checked, Arc, ArcCell};
    let mut checks = 0;

    // The instrumented primitives are plain std wrappers when no
    // exploration is active (exactly the state tier-1 tests run in).
    let m = checked::Mutex::new(1u32);
    *m.lock().expect("fresh mutex") += 1;
    assert_eq!(*m.lock().expect("fresh mutex"), 2, "checked Mutex diverged");
    let rw = checked::RwLock::new(3u32);
    *rw.write().expect("fresh rwlock") += 1;
    assert_eq!(
        *rw.read().expect("fresh rwlock"),
        4,
        "checked RwLock diverged"
    );
    let once = checked::OnceLock::new();
    assert_eq!(*once.get_or_init(|| 5u32), 5, "checked OnceLock diverged");
    assert_eq!(once.get(), Some(&5), "checked OnceLock lost its value");
    let counter = checked::AtomicUsize::new(6);
    assert_eq!(counter.fetch_add(1, Ordering::Relaxed), 6);
    assert_eq!(
        counter.load(Ordering::Relaxed),
        7,
        "checked atomic diverged"
    );
    let cell = ArcCell::new(Arc::new(8u64));
    let pinned = cell.load();
    cell.store(Arc::new(9));
    assert_eq!(
        (*pinned, *cell.load()),
        (8, 9),
        "ArcCell swap disturbed a pinned clone"
    );
    checks += 6;

    // The facade-routed engine under concurrent `cpdb_sync::thread`
    // traffic answers bit-identically to its own serial loop.
    let n = tree.keys().len();
    let engine = ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .build()
        .expect("sync-shim conformance configuration is valid");
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let serial = engine.run_batch_serial(&probe);
    cpdb_sync::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (engine, probe, serial) = (&engine, &probe, &serial);
                scope.spawn(move || {
                    for i in 0..probe.len() {
                        let at = (i + t * 5) % probe.len();
                        assert_eq!(
                            engine.run(&probe[at]),
                            serial[at],
                            "facade-routed engine diverges on {:?}",
                            probe[at]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shim conformance thread panicked");
        }
    });
    checks += 2 * probe.len();

    // An epoch published through the facade `ArcCell` swap and read from a
    // facade-spawned thread matches a from-scratch engine on the new tree.
    let live = Arc::new(LiveEngine::new(
        ConsensusEngineBuilder::new(tree.clone())
            .seed(seed)
            .k_range(1..=n.max(1))
            .build()
            .expect("sync-shim conformance configuration is valid"),
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51AC_517F);
    let delta = random_probability_delta(live.snapshot().tree(), &mut rng);
    live.apply(&delta).expect("generated delta is valid");
    let live2 = Arc::clone(&live);
    let probe2 = probe.clone();
    let published = cpdb_sync::thread::spawn(move || {
        let snap = live2.snapshot();
        (snap.epoch(), snap.run_batch_serial(&probe2))
    })
    .join()
    .expect("facade reader thread panicked");
    let fresh = ConsensusEngineBuilder::new(live.snapshot().tree().clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .build()
        .expect("sync-shim conformance configuration is valid");
    assert_eq!(published.0, 1, "facade reader missed the published epoch");
    assert_eq!(
        published.1,
        fresh.run_batch_serial(&probe),
        "facade-published epoch diverges from a from-scratch engine"
    );
    checks + probe.len() + 1
}

/// Outcome of a full conformance sweep for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceSummary {
    /// The fixture seed that was swept.
    pub seed: u64,
    /// Total number of oracle assertions that passed.
    pub checks: usize,
}

/// Runs every conformance check against the full fixture family for one
/// seed: set consensus on tuple-independent instances, the Jaccard scan on
/// tuple-independent, BID, clustering and nested trees, all Top-k
/// algorithms on BID trees (k = 1..3) and tuple-independent trees, aggregates
/// on group-by instances, clustering on attribute-uncertainty trees, the
/// batch ↔ per-tuple generating-function equivalence on all three tree
/// families, the engine ↔ free-function equivalence sweep on both ranked
/// tree families, the concurrent ↔ serial engine equivalence check
/// (parallel `run_batch` and multi-thread shared-engine traffic bit-identical
/// to the serial loop), the live-update conformance (delta-patched
/// epochs ≡ from-scratch engines after every mutation, with selective
/// artifact invalidation), batched replay (`apply_all` ≡ one-at-a-time
/// `apply` on BID, tuple-independent, nested and clustering trees), and the
/// `cpdb_sync` facade-transparency check (the synchronization shims are
/// bit-invisible on normal builds).
pub fn run_seed(seed: u64) -> ConformanceSummary {
    let ti_db = fixtures::small_tuple_independent(seed);
    let ti_tree = fixtures::small_tuple_independent_tree(seed);
    let bid_tree = fixtures::small_bid_tree(seed);

    let mut checks = 0;
    checks += check_set_consensus(&ti_tree);
    checks += check_set_consensus(&bid_tree);
    checks += check_jaccard(&ti_db);
    checks += check_jaccard_bid(&fixtures::small_bid(seed));
    checks += check_jaccard_tree("jaccard/clustering", &fixtures::small_clustering_tree(seed));
    checks += check_jaccard_tree("jaccard/nested", &fixtures::small_nested_tree(seed));
    for k in 1..=3 {
        checks += check_topk_means(&bid_tree, k);
        checks += check_topk_median_dp(&bid_tree, k);
    }
    checks += check_topk_means(&ti_tree, 2);
    checks += check_topk_median_dp(&ti_tree, 2);
    for k in [1, 3] {
        checks += check_topk_median_dp(&fixtures::small_nested_tree(seed), k);
        checks += check_topk_median_dp(&fixtures::small_clustering_tree(seed), k);
    }
    checks += check_kendall(&bid_tree, 2, seed);
    checks += check_kendall(&ti_tree, 2, seed);
    checks += check_aggregate(&fixtures::small_groupby(seed));
    checks += check_clustering(&fixtures::small_clustering_tree(seed), seed);
    for tree in [
        &bid_tree,
        &ti_tree,
        &fixtures::small_clustering_tree(seed),
        &fixtures::small_nested_tree(seed),
    ] {
        checks += check_clustering_reference(tree, seed);
    }
    checks += check_batch_genfunc(&ti_tree);
    checks += check_batch_genfunc(&bid_tree);
    checks += check_batch_genfunc(&fixtures::small_clustering_tree(seed));
    let groupby = fixtures::small_groupby(seed);
    checks += check_engine(&bid_tree, &groupby, seed);
    checks += check_engine(&ti_tree, &groupby, seed);
    checks += check_engine_concurrency(&bid_tree, &groupby, seed);
    checks += check_live_updates(&bid_tree, seed);
    checks += check_live_updates(&ti_tree, seed);
    checks += check_batched_apply(&bid_tree, seed);
    checks += check_batched_apply(&ti_tree, seed);
    checks += check_batched_apply(&fixtures::small_nested_tree(seed), seed);
    checks += check_batched_apply(&fixtures::small_clustering_tree(seed), seed);
    checks += check_persistence(&bid_tree, seed);
    checks += check_persistence(&ti_tree, seed);
    checks += check_sync_shims(&bid_tree, seed);
    checks += crate::replication::check_replication(&bid_tree, seed);
    checks += crate::observability::check_observability(&bid_tree, seed);
    ConformanceSummary { seed, checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seed_reports_all_checks() {
        let summary = run_seed(0);
        assert!(
            summary.checks > 40,
            "expected a full sweep, got {summary:?}"
        );
    }

    #[test]
    fn batched_apply_matches_sequential_on_every_tree_family() {
        for tree in [
            fixtures::small_bid_tree(1),
            fixtures::small_tuple_independent_tree(1),
            fixtures::small_nested_tree(1),
            fixtures::small_clustering_tree(1),
        ] {
            assert!(check_batched_apply(&tree, 1) > 0);
        }
    }

    #[test]
    fn assert_close_accepts_rounding_noise() {
        assert_close("noise", 1.0, 1.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "oracle computed")]
    fn assert_close_rejects_real_divergence() {
        assert_close("divergence", 1.0, 1.1);
    }

    #[test]
    #[should_panic(expected = "beats the enumerated optimum")]
    fn approximations_may_not_beat_the_oracle() {
        assert_within_factor("impossible", 0.5, 1.0, 2.0);
    }
}
