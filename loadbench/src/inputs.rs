//! Seeded inputs: the scored-BID tree, the engine configuration, the query
//! sets of each workload, and the stationary delta stream.
//!
//! Everything here is a pure function of the workload seed (plus, for
//! deltas, the tree the delta will mutate — node ids are renumbered by
//! membership changes, so a delta is always addressed against the current
//! tree).

use cpdb_andxor::{AndXorTree, NodeId, TreeDelta};
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_engine::{
    BaselineKind, ConsensusEngine, ConsensusEngineBuilder, Obs, Query, SetMetric, TopKMetric,
    Variant,
};
use cpdb_workloads::{random_scored_bid_tree, BidConfig, ScoreDistribution};
use rand::prelude::*;

/// Blocks in the tree: the reference size the performance roadmap quotes.
pub const N: usize = 120;

/// Upper end of the uniform score distribution.
const SCORE_HI: f64 = 1e6;

/// The `scaling_tree` scored-BID family: `N` blocks × 2 alternatives, 30%
/// "maybe" blocks, uniform scores.
pub fn tree(seed: u64) -> AndXorTree {
    random_scored_bid_tree(&BidConfig {
        num_blocks: N,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        scores: ScoreDistribution::Uniform {
            lo: 0.0,
            hi: SCORE_HI,
        },
        seed,
    })
}

/// The seed of the `j`-th tree a run with workload seed `seed` serves.
pub fn tree_seed(seed: u64, j: usize) -> u64 {
    seed ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A deterministic 4-group × 12-tuple instance so aggregate queries run.
fn groupby() -> GroupByInstance {
    let probs: Vec<Vec<f64>> = (0..12)
        .map(|t| {
            let mut row: Vec<f64> = (0..4)
                .map(|v| ((t * 7 + v * 13) % 10) as f64 + 1.0)
                .collect();
            let total: f64 = row.iter().sum();
            row.iter_mut().for_each(|p| *p /= total);
            row
        })
        .collect();
    GroupByInstance::new(probs).expect("rows are normalised")
}

/// The serving engine: one thread, 64 Kendall distance samples, group-by
/// attached. `obs` is a disabled sink except in the traced run. One thread
/// keeps every engine computation on the client's thread: on a host with
/// two shared vCPUs, a fork-join split measures the other tenants as much
/// as the code.
pub fn engine(tree: AndXorTree, seed: u64, obs: Obs) -> ConsensusEngine {
    ConsensusEngineBuilder::new(tree)
        .seed(seed)
        .threads(1)
        .kendall_distance_samples(64)
        .groupby(groupby())
        .obs(obs)
        .build()
        .expect("valid engine configuration")
}

fn topk(k: usize, metric: TopKMetric, variant: Variant) -> Query {
    Query::TopK { k, metric, variant }
}

const MEAN_METRICS: [TopKMetric; 4] = [
    TopKMetric::SymmetricDifference,
    TopKMetric::Intersection,
    TopKMetric::Footrule,
    TopKMetric::Kendall,
];

/// `serve_mix`: the 18-query mixed set — every query kind at k ∈ {5, 10}.
pub fn mixed_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for k in [5, 10] {
        qs.extend(MEAN_METRICS.map(|m| topk(k, m, Variant::Mean)));
        qs.push(topk(k, TopKMetric::SymmetricDifference, Variant::Median));
        qs.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k },
        });
        qs.push(Query::Baseline {
            kind: BaselineKind::ProbabilisticThreshold { k, threshold: 0.4 },
        });
    }
    for metric in [SetMetric::SymmetricDifference, SetMetric::Jaccard] {
        qs.push(Query::SetConsensus {
            metric,
            variant: Variant::Mean,
        });
    }
    qs.push(Query::Aggregate {
        variant: Variant::Mean,
    });
    qs.push(Query::Clustering { restarts: 4 });
    qs
}

/// The `k` of the reads that follow each write.
pub const WRITE_READ_K: usize = 10;

/// The cheap reads that follow each write on `write_mix` (and probe a
/// recovered epoch on `recover`): no Jaccard, no median.
pub fn write_reads() -> Vec<Query> {
    vec![
        topk(WRITE_READ_K, TopKMetric::SymmetricDifference, Variant::Mean),
        topk(WRITE_READ_K, TopKMetric::Footrule, Variant::Mean),
        topk(WRITE_READ_K, TopKMetric::Kendall, Variant::Mean),
        Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
        Query::Clustering { restarts: 4 },
    ]
}

/// The answer-layer family a query is attributed to.
pub fn family(q: &Query) -> &'static str {
    match q {
        Query::SetConsensus {
            metric: SetMetric::Jaccard,
            ..
        } => "set.jaccard",
        Query::SetConsensus { .. } => "set.sym_diff",
        Query::TopK {
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
            ..
        } => "topk.sym_diff.mean",
        Query::TopK {
            metric: TopKMetric::SymmetricDifference,
            ..
        } => "topk.sym_diff.median",
        Query::TopK {
            metric: TopKMetric::Intersection,
            ..
        } => "topk.intersection",
        Query::TopK {
            metric: TopKMetric::Footrule,
            ..
        } => "topk.footrule",
        Query::TopK {
            metric: TopKMetric::Kendall,
            ..
        } => "topk.kendall",
        Query::Clustering { .. } => "clustering",
        Query::Aggregate { .. } => "aggregate",
        _ => "baseline",
    }
}

/// Every answer family, in report order.
pub const FAMILIES: [&str; 10] = [
    "set.jaccard",
    "set.sym_diff",
    "topk.sym_diff.mean",
    "topk.sym_diff.median",
    "topk.intersection",
    "topk.footrule",
    "topk.kendall",
    "clustering",
    "aggregate",
    "baseline",
];

/// Delta kinds in the order the stream cycles through them.
pub const DELTA_KINDS: [&str; 5] = [
    "xor_probability",
    "leaf_value_same_order",
    "leaf_value_new_order",
    "insert_alternative",
    "remove_alternative",
];

/// A stationary delta stream: it cycles through [`DELTA_KINDS`], draws
/// targets and values from its own seeded generator, and removes every
/// alternative it inserts on the next step, so the tree keeps `N` blocks
/// and its size and score distribution do not drift.
pub struct DeltaStream {
    rng: StdRng,
    step: usize,
    /// `(key, value)` of the alternative the last insert added.
    inserted: Option<(u64, f64)>,
}

impl DeltaStream {
    pub fn new(seed: u64) -> Self {
        DeltaStream {
            rng: StdRng::seed_from_u64(seed ^ 0xde17_a5ee_d000_0001),
            step: 0,
            inserted: None,
        }
    }

    /// The next delta, addressed against `tree`, with its kind label.
    pub fn next(&mut self, tree: &AndXorTree) -> (&'static str, TreeDelta) {
        let kind = DELTA_KINDS[self.step % DELTA_KINDS.len()];
        self.step += 1;
        let delta = match kind {
            "xor_probability" => self.reweight(tree),
            "leaf_value_same_order" => self.nudge(tree),
            "leaf_value_new_order" => {
                let leaf = self.random_leaf(tree);
                TreeDelta::LeafValue {
                    leaf,
                    value: self.rng.gen_range(0.0..SCORE_HI),
                }
            }
            "insert_alternative" => self.insert(tree),
            _ => self.remove(tree),
        };
        (kind, delta)
    }

    fn random_leaf(&mut self, tree: &AndXorTree) -> NodeId {
        *tree
            .leaf_nodes()
            .choose(&mut self.rng)
            .expect("the tree has leaves")
    }

    /// Re-draws one edge probability inside its block's slack.
    fn reweight(&mut self, tree: &AndXorTree) -> TreeDelta {
        let leaf = self.random_leaf(tree);
        let xor = tree.parent_of(leaf).expect("BID leaves live in blocks");
        let edges = tree.children(xor);
        let mass: f64 = edges.iter().map(|(_, p)| p).sum();
        let old = edges
            .iter()
            .find(|(c, _)| *c == leaf)
            .map(|(_, p)| *p)
            .expect("leaf is a child of its parent");
        let hi = (old + (1.0 - mass)).min(1.0) * 0.999;
        let lo = 0.05_f64.min(hi * 0.5);
        TreeDelta::XorEdgeProbability {
            xor,
            child: leaf,
            probability: self.rng.gen_range(lo..=hi),
        }
    }

    /// Moves one leaf's value strictly between its neighbours in the
    /// sorted value sequence, so the global score order is unchanged.
    fn nudge(&mut self, tree: &AndXorTree) -> TreeDelta {
        let leaf = self.random_leaf(tree);
        let value = tree.leaf_alternative(leaf).expect("leaf").value.0;
        let values = tree.distinct_values();
        let below = values
            .iter()
            .copied()
            .filter(|&v| v < value)
            .max_by(f64::total_cmp);
        let above = values
            .iter()
            .copied()
            .filter(|&v| v > value)
            .min_by(f64::total_cmp);
        let target = if self.rng.gen_bool(0.5) {
            above.unwrap_or(value + 1.0)
        } else {
            below.unwrap_or(value - 1.0)
        };
        TreeDelta::LeafValue {
            leaf,
            value: value + (target - value) * 0.5,
        }
    }

    /// Adds an alternative to a block with slack, remembering it so the next
    /// step removes it again.
    fn insert(&mut self, tree: &AndXorTree) -> TreeDelta {
        let keys = tree.keys();
        let start = self.rng.gen_range(0..keys.len());
        let (xor, key, slack) = (0..keys.len())
            .map(|i| keys[(start + i) % keys.len()].0)
            .find_map(|key| {
                let xor = tree.parent_of(tree.leaves_of_key(key)[0])?;
                let mass: f64 = tree.children(xor).iter().map(|(_, p)| p).sum();
                (mass < 0.98).then_some((xor, key, 1.0 - mass))
            })
            .expect("a stationary stream keeps blocks with slack");
        let value = self.rng.gen_range(0.0..SCORE_HI);
        self.inserted = Some((key, value));
        TreeDelta::InsertAlternative {
            xor,
            key,
            value,
            probability: slack * 0.5,
        }
    }

    /// Removes the alternative the previous step inserted.
    fn remove(&mut self, tree: &AndXorTree) -> TreeDelta {
        let (key, value) = self
            .inserted
            .take()
            .expect("removal always follows an insert");
        let leaf = tree
            .leaves_of_key(key)
            .into_iter()
            .find(|&l| tree.leaf_alternative(l).is_some_and(|a| a.value.0 == value))
            .expect("the inserted alternative is still present");
        TreeDelta::RemoveAlternative {
            xor: tree.parent_of(leaf).expect("BID leaves live in blocks"),
            leaf,
        }
    }
}
