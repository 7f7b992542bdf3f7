//! The [`ConsensusEngine`]: one typed entry point over every consensus
//! algorithm, with memoised shared artifacts, concurrent execution, and
//! parallel batch dispatch.

use crate::answer::{Answer, Optimality, Value};
use crate::builder::{IntersectionStrategy, KendallStrategy};
use crate::delta::DeltaReport;
use crate::error::EngineError;
use crate::export::{CoClusterExport, EngineExport, PreferenceExport, RankContextExport};
use crate::obs::{Artifact, EngineObs};
use crate::query::{splitmix64, BaselineKind, Query, SetMetric, TopKMetric, Variant};
use cpdb_andxor::{AndXorTree, DeltaImpact, NodeKind, TreeDelta};
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_consensus::clustering::{self, CoClusteringWeights};
use cpdb_consensus::topk::{footrule, intersection, kendall, median_dp, sym_diff};
use cpdb_consensus::{baselines, jaccard, set_distance, TopKContext};
use cpdb_model::Alternative;
use cpdb_obs::MetricsSnapshot;
use cpdb_parallel::parallel_map_indexed;
use cpdb_rankagg::pivot::PreferenceMatrix;
use cpdb_sync::atomic::{AtomicUsize, Ordering::Relaxed};
use cpdb_sync::{OnceLock, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Cache instrumentation: how many times each shared artifact was built from
/// scratch vs. served from memory. `run_batch` amortisation shows up here —
/// a batch of Top-k queries at the same `k` builds the rank-probability PMFs
/// once and hits the cache thereafter. Builds are counted inside the
/// artifact's `OnceLock` initialiser, so even under concurrent query traffic
/// every artifact's build is counted exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`TopKContext`] constructions (one set of rank PMFs per distinct `k`).
    pub rank_context_builds: usize,
    /// Queries served from an already-built [`TopKContext`].
    pub rank_context_hits: usize,
    /// Full Kendall preference-matrix constructions (n² generating-function
    /// evaluations each).
    pub preference_builds: usize,
    /// Queries served from the cached preference matrix.
    pub preference_hits: usize,
    /// Co-clustering weight-matrix constructions.
    pub coclustering_builds: usize,
    /// Queries served from the cached co-clustering weights.
    pub coclustering_hits: usize,
    /// Marginal-probability table constructions (set queries, Jaccard scans).
    pub marginal_builds: usize,
    /// Queries served from cached marginals / Jaccard candidate lists.
    pub marginal_hits: usize,
    /// Duplicate queries inside one [`ConsensusEngine::run_batch`] call that
    /// were answered by cloning the answer of their first occurrence instead
    /// of being executed again.
    pub batch_dedup_hits: usize,
    /// Key-index constructions (the sorted tuple-key table the query paths
    /// share instead of re-sorting `tree.keys()` per query).
    pub key_index_builds: usize,
    /// Queries served from the cached key index.
    pub key_index_hits: usize,
    /// Built artifacts `Arc`-shared unchanged into a delta-built next-epoch
    /// engine ([`ConsensusEngine::apply_delta`]): their dependencies were
    /// untouched by the mutation.
    pub delta_kept: usize,
    /// Built artifacts selectively patched (affected keys only, bit-identical
    /// to a full rebuild) across delta applications.
    pub delta_patched: usize,
    /// Built artifacts invalidated (dropped for lazy rebuild) across delta
    /// applications.
    pub delta_invalidated: usize,
}

/// The atomic counters behind [`CacheStats`]: plain relaxed counters, safe to
/// bump from any thread holding `&ConsensusEngine`.
#[derive(Debug, Default)]
struct AtomicCacheStats {
    rank_context_builds: AtomicUsize,
    rank_context_hits: AtomicUsize,
    preference_builds: AtomicUsize,
    preference_hits: AtomicUsize,
    coclustering_builds: AtomicUsize,
    coclustering_hits: AtomicUsize,
    marginal_builds: AtomicUsize,
    marginal_hits: AtomicUsize,
    batch_dedup_hits: AtomicUsize,
    key_index_builds: AtomicUsize,
    key_index_hits: AtomicUsize,
    delta_kept: AtomicUsize,
    delta_patched: AtomicUsize,
    delta_invalidated: AtomicUsize,
}

impl AtomicCacheStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            rank_context_builds: self.rank_context_builds.load(Relaxed),
            rank_context_hits: self.rank_context_hits.load(Relaxed),
            preference_builds: self.preference_builds.load(Relaxed),
            preference_hits: self.preference_hits.load(Relaxed),
            coclustering_builds: self.coclustering_builds.load(Relaxed),
            coclustering_hits: self.coclustering_hits.load(Relaxed),
            marginal_builds: self.marginal_builds.load(Relaxed),
            marginal_hits: self.marginal_hits.load(Relaxed),
            batch_dedup_hits: self.batch_dedup_hits.load(Relaxed),
            key_index_builds: self.key_index_builds.load(Relaxed),
            key_index_hits: self.key_index_hits.load(Relaxed),
            delta_kept: self.delta_kept.load(Relaxed),
            delta_patched: self.delta_patched.load(Relaxed),
            delta_invalidated: self.delta_invalidated.load(Relaxed),
        }
    }

    fn from_snapshot(s: CacheStats) -> Self {
        AtomicCacheStats {
            rank_context_builds: AtomicUsize::new(s.rank_context_builds),
            rank_context_hits: AtomicUsize::new(s.rank_context_hits),
            preference_builds: AtomicUsize::new(s.preference_builds),
            preference_hits: AtomicUsize::new(s.preference_hits),
            coclustering_builds: AtomicUsize::new(s.coclustering_builds),
            coclustering_hits: AtomicUsize::new(s.coclustering_hits),
            marginal_builds: AtomicUsize::new(s.marginal_builds),
            marginal_hits: AtomicUsize::new(s.marginal_hits),
            batch_dedup_hits: AtomicUsize::new(s.batch_dedup_hits),
            key_index_builds: AtomicUsize::new(s.key_index_builds),
            key_index_hits: AtomicUsize::new(s.key_index_hits),
            delta_kept: AtomicUsize::new(s.delta_kept),
            delta_patched: AtomicUsize::new(s.delta_patched),
            delta_invalidated: AtomicUsize::new(s.delta_invalidated),
        }
    }
}

/// A memoised artifact slot: the `Arc` lets engine clones share the built
/// value (a cloned engine starts warm), the `OnceLock` makes concurrent
/// builders race safely — many threads may reach an empty slot, exactly one
/// runs the initialiser, the rest block and then read the same value.
type Slot<T> = Arc<OnceLock<T>>;

/// Clone policy for [`Slot`]s: share the cell only when its artifact is
/// already built. Sharing an *empty* cell would let builds that happen after
/// the clone leak across engines, violating the documented "built artifacts
/// only, in neither direction afterwards" contract (and misattributing the
/// clone's build/hit counters).
fn clone_built_slot<T>(slot: &Slot<T>) -> Slot<T> {
    if slot.get().is_some() {
        Arc::clone(slot)
    } else {
        Slot::default()
    }
}

/// Clone policy for the sharded artifact maps: keep only the entries whose
/// cell is built (empty cells are recreated on demand, unshared).
fn clone_built_map<K, T>(map: &RwLock<HashMap<K, Slot<T>>>) -> RwLock<HashMap<K, Slot<T>>>
where
    K: Copy + Eq + std::hash::Hash,
{
    RwLock::new(
        map.read()
            .expect("artifact map lock poisoned")
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(&k, cell)| (k, Arc::clone(cell)))
            .collect(),
    )
}

/// Fetches (or inserts) the slot for `key` in a sharded per-key artifact map.
/// The map lock is only held to look up / insert the `Arc` cell — never
/// across an artifact build — so queries at different `k` build their
/// artifacts concurrently.
fn shard<K, T>(map: &RwLock<HashMap<K, Slot<T>>>, key: K) -> Slot<T>
where
    K: Copy + Eq + std::hash::Hash,
{
    if let Some(cell) = map.read().expect("artifact map lock poisoned").get(&key) {
        return cell.clone();
    }
    map.write()
        .expect("artifact map lock poisoned")
        .entry(key)
        .or_default()
        .clone()
}

/// Initialises a slot (exactly once, even under races) and keeps the
/// build/hit counters truthful: the build counter is bumped by the one thread
/// whose closure ran; every other access bumps `hits`.
fn slot_get_or_build<'a, T>(
    slot: &'a OnceLock<T>,
    builds: &AtomicUsize,
    hits: &AtomicUsize,
    build: impl FnOnce() -> T,
) -> &'a T {
    let mut built = false;
    let value = slot.get_or_init(|| {
        built = true;
        build()
    });
    if built {
        builds.fetch_add(1, Relaxed);
    } else {
        hits.fetch_add(1, Relaxed);
    }
    value
}

/// Leaf-count ceiling for exhaustive U-Top-k world enumeration.
const UTOPK_EXACT_LEAF_BUDGET: usize = 20;

/// Which model class the engine's tree belongs to — decides whether the
/// Jaccard prefix scans carry their proven guarantees (Lemma 2 is stated for
/// tuple-independent relations, the §4.2 median scan for BID relations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreeShape {
    /// Root ∧ of single-alternative ∨ blocks: tuple-independent.
    TupleIndependent,
    /// Root ∧ of multi-alternative ∨ blocks of leaves: BID.
    Bid,
    /// Anything deeper: general and/xor correlations.
    General,
}

/// A unified, memoising query engine over one probabilistic and/xor tree.
///
/// Every consensus notion of the paper — set consensus (§4), Top-k under the
/// four distance metrics (§5), group-by aggregates (§6.1), clustering (§6.2)
/// — plus the baseline ranking semantics is a [`Query`] value, answered by
/// [`run`](Self::run) with a uniform [`Answer`] carrying the result, its
/// expected distance, and an optimality tag.
///
/// The engine lazily computes and memoises the expensive shared artifacts:
/// the rank-probability PMFs `Pr(r(t) = i)` per `k` (one [`TopKContext`]
/// each), the Kendall pairwise-order tournament, the co-clustering weight
/// matrix, and the marginal-probability tables driving the set-query scans.
/// [`run_batch`](Self::run_batch) therefore amortises the generating-function
/// work across queries: four Top-k queries at the same `k` build the PMFs
/// once. [`cache_stats`](Self::cache_stats) exposes the build/hit counters.
///
/// Randomised paths (Kendall pivot, clustering restarts, sampled baselines)
/// draw from an owned seeded RNG: each query's stream is derived from the
/// engine seed and the query's [`rng_tag`](Query::rng_tag), so results are
/// deterministic and independent of batch order — *and* of which thread
/// answers the query.
///
/// # Thread safety
///
/// The engine is `Sync`: every entry point takes `&self`, so one warm engine
/// can be shared across threads (`&ConsensusEngine`, or an
/// `Arc<ConsensusEngine>`) and answer queries concurrently. The memoised
/// artifacts live in interior-mutable slots — per-`k` sharded maps of
/// [`std::sync::OnceLock`] cells behind a briefly-held [`std::sync::RwLock`]
/// (never held across a build), atomic [`CacheStats`] counters — so
/// concurrent queries that need the same artifact build it exactly once
/// (the losers of the race block on the `OnceLock` and then read the winner's
/// value), while queries needing *different* artifacts build them in
/// parallel. Answers are bit-identical to a serial [`run`](Self::run) loop at
/// any thread count and under any interleaving.
///
/// [`Clone`] is cheap and shares the built artifacts (`Arc` per slot): a
/// cloned engine starts warm, with its own independent [`CacheStats`]
/// starting from a snapshot of the source's counters.
#[derive(Debug)]
pub struct ConsensusEngine {
    tree: AndXorTree,
    shape: TreeShape,
    seed: u64,
    k_range: (usize, usize),
    kendall: KendallStrategy,
    intersection: IntersectionStrategy,
    kendall_distance_samples: usize,
    groupby: Option<GroupByInstance>,
    /// Thread count for batch artifact builds and [`Self::run_batch`] query
    /// dispatch (`0` = auto); answers never depend on it, only latency does.
    threads: usize,
    /// Per-`k` rank-PMF contexts, sharded so distinct `k`s build in parallel.
    contexts: RwLock<HashMap<usize, Slot<Arc<TopKContext>>>>,
    /// The full n² pairwise-order tournament every Kendall pivot runs on.
    prefs: Slot<PreferenceMatrix>,
    cocluster: Slot<CoClusteringWeights>,
    marginals: Slot<HashMap<Alternative, f64>>,
    jaccard_candidates: Slot<Vec<(Alternative, f64)>>,
    /// The sorted tuple-key table the tournament is built over; caching it
    /// replaces an `O(n log n)` re-sort per build with a shared read. It
    /// depends only on tuple *membership* — not on probabilities or values —
    /// so it is the artifact live updates keep across probability-only
    /// epochs.
    key_index: Slot<Arc<Vec<cpdb_model::TupleKey>>>,
    stats: AtomicCacheStats,
    /// Pre-registered observability handles (inert unless a sink was
    /// attached via [`crate::ConsensusEngineBuilder::obs`]). Purely
    /// additive: records timings and events, never touches answers.
    obs: EngineObs,
}

impl Clone for ConsensusEngine {
    /// Cheap clone that `Arc`-shares every *built* artifact: the clone starts
    /// warm, but artifacts built after the clone are not shared in either
    /// direction. The clone's [`CacheStats`] continue from a snapshot of the
    /// source's counters.
    fn clone(&self) -> Self {
        ConsensusEngine {
            tree: self.tree.clone(),
            shape: self.shape,
            seed: self.seed,
            k_range: self.k_range,
            kendall: self.kendall,
            intersection: self.intersection,
            kendall_distance_samples: self.kendall_distance_samples,
            groupby: self.groupby.clone(),
            threads: self.threads,
            contexts: clone_built_map(&self.contexts),
            prefs: clone_built_slot(&self.prefs),
            cocluster: clone_built_slot(&self.cocluster),
            marginals: clone_built_slot(&self.marginals),
            jaccard_candidates: clone_built_slot(&self.jaccard_candidates),
            key_index: clone_built_slot(&self.key_index),
            stats: AtomicCacheStats::from_snapshot(self.stats.snapshot()),
            obs: self.obs.clone(),
        }
    }
}

impl ConsensusEngine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        tree: AndXorTree,
        seed: u64,
        k_range: (usize, usize),
        kendall: KendallStrategy,
        intersection: IntersectionStrategy,
        kendall_distance_samples: usize,
        groupby: Option<GroupByInstance>,
        threads: usize,
        obs: cpdb_obs::Obs,
    ) -> Self {
        let shape = detect_shape(&tree);
        ConsensusEngine {
            tree,
            shape,
            seed,
            k_range,
            kendall,
            intersection,
            kendall_distance_samples,
            groupby,
            threads,
            contexts: RwLock::new(HashMap::new()),
            prefs: Slot::default(),
            cocluster: Slot::default(),
            marginals: Slot::default(),
            jaccard_candidates: Slot::default(),
            key_index: Slot::default(),
            stats: AtomicCacheStats::default(),
            obs: EngineObs::new(obs),
        }
    }

    /// The and/xor tree the engine serves.
    pub fn tree(&self) -> &AndXorTree {
        &self.tree
    }

    /// The attached group-by instance, if any.
    pub fn groupby(&self) -> Option<&GroupByInstance> {
        self.groupby.as_ref()
    }

    /// The engine seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Admissible `k` values for Top-k and baseline queries.
    pub fn k_range(&self) -> RangeInclusive<usize> {
        self.k_range.0..=self.k_range.1
    }

    /// Cache build/hit counters since construction (a consistent snapshot of
    /// the atomic counters). A thin view over the same counters
    /// [`metrics_snapshot`](Self::metrics_snapshot) folds in — kept so
    /// existing callers need not change.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The engine's slice of the unified metrics read path: the attached
    /// sink's registered metrics (query/artifact latency histograms — empty
    /// without a sink) with the [`CacheStats`] counters folded in as
    /// `engine.cache.*` entries.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.obs.sink().snapshot();
        let stats = self.stats.snapshot();
        for (name, value) in [
            ("rank_context_builds", stats.rank_context_builds),
            ("rank_context_hits", stats.rank_context_hits),
            ("preference_builds", stats.preference_builds),
            ("preference_hits", stats.preference_hits),
            ("coclustering_builds", stats.coclustering_builds),
            ("coclustering_hits", stats.coclustering_hits),
            ("marginal_builds", stats.marginal_builds),
            ("marginal_hits", stats.marginal_hits),
            ("batch_dedup_hits", stats.batch_dedup_hits),
            ("key_index_builds", stats.key_index_builds),
            ("key_index_hits", stats.key_index_hits),
            ("delta_kept", stats.delta_kept),
            ("delta_patched", stats.delta_patched),
            ("delta_invalidated", stats.delta_invalidated),
        ] {
            snapshot.push_counter(&format!("engine.cache.{name}"), value as u64);
        }
        snapshot
    }

    /// The attached observability sink (disabled unless one was passed to
    /// [`crate::ConsensusEngineBuilder::obs`]).
    pub fn obs(&self) -> &cpdb_obs::Obs {
        self.obs.sink()
    }

    /// Attaches an observability sink post-construction — how a durable
    /// live engine threads its store's sink into an engine recovered via
    /// [`ConsensusEngine::from_export`]. Purely additive: caches and
    /// answers are untouched.
    #[must_use = "with_obs returns the engine it instruments"]
    pub fn with_obs(mut self, obs: cpdb_obs::Obs) -> Self {
        self.obs = EngineObs::new(obs);
        self
    }

    /// The deterministic RNG stream for the randomised parts of `query`,
    /// derived from the engine seed and [`Query::rng_tag`]. Public so
    /// conformance tests can replay exactly the stream the engine uses.
    pub fn query_rng(&self, query: &Query) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ query.rng_tag()))
    }

    /// The memoised [`TopKContext`] for `k`, building it on first use. The
    /// returned `Arc` is a shared handle into the engine's cache, valid
    /// independently of the engine's lifetime.
    pub fn context(&self, k: usize) -> Result<Arc<TopKContext>, EngineError> {
        self.check_k(k)?;
        Ok(self.context_arc(k))
    }

    /// The memoised sorted tuple-key table the tournament build reads.
    fn key_index_arc(&self) -> Arc<Vec<cpdb_model::TupleKey>> {
        slot_get_or_build(
            &self.key_index,
            &self.stats.key_index_builds,
            &self.stats.key_index_hits,
            || {
                let _build = self
                    .obs
                    .artifact_span(Artifact::KeyIndex, || "key_index".to_string());
                Arc::new(self.tree.keys())
            },
        )
        .clone()
    }

    /// The memoised full pairwise-order tournament `Pr(r(t_i) < r(t_j))`,
    /// building it on first use (n² generating-function evaluations).
    pub fn preference_matrix(&self) -> &PreferenceMatrix {
        slot_get_or_build(
            &self.prefs,
            &self.stats.preference_builds,
            &self.stats.preference_hits,
            || {
                let _build = self.obs.artifact_span(Artifact::PreferenceMatrix, || {
                    "preference_matrix".to_string()
                });
                kendall::preference_matrix_with_parallelism(
                    &self.tree,
                    &self.key_index_arc(),
                    self.threads,
                )
            },
        )
    }

    /// The memoised co-clustering weight matrix `w_ij`, building it on first
    /// use.
    pub fn coclustering_weights(&self) -> &CoClusteringWeights {
        slot_get_or_build(
            &self.cocluster,
            &self.stats.coclustering_builds,
            &self.stats.coclustering_hits,
            || {
                let _build = self
                    .obs
                    .artifact_span(Artifact::CoClustering, || "coclustering".to_string());
                CoClusteringWeights::from_tree_with_parallelism(&self.tree, self.threads)
            },
        )
    }

    /// Answers one query. Cached artifacts are reused across calls — and
    /// across threads: `run` takes `&self`, so any number of threads may call
    /// it on one shared engine; see the type-level docs for the determinism
    /// contract.
    pub fn run(&self, query: &Query) -> Result<Answer, EngineError> {
        // Timing + flight-recorder events only — the span never touches the
        // answer, so results are bit-identical with the recorder on or off.
        let _span = self.obs.query_span(query);
        match query {
            Query::SetConsensus { metric, variant } => self.run_set(query, *metric, *variant),
            Query::TopK { k, metric, variant } => self.run_topk(query, *k, *metric, *variant),
            Query::Aggregate { variant } => self.run_aggregate(*variant),
            Query::Clustering { restarts } => self.run_clustering(query, *restarts),
            Query::Baseline { kind } => self.run_baseline(query, *kind),
        }
    }

    /// Answers a batch of queries: duplicates are answered once and their
    /// [`Answer`] cloned for the other occurrences
    /// ([`CacheStats::batch_dedup_hits`] counts them), and the distinct
    /// queries fan out over [`run`](Self::run) on the engine's thread pool
    /// (the [`threads`](crate::ConsensusEngineBuilder::threads) knob). Each
    /// artifact is built by the first query that needs it, exactly as in the
    /// serial loop.
    ///
    /// Every query's result is **bit-identical** to what the serial loop
    /// [`run_batch_serial`](Self::run_batch_serial) returns, at any thread
    /// count: the per-query seeded RNG streams are order-independent, and the
    /// cached artifacts do not depend on which thread built them.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<Answer, EngineError>> {
        // Dedup: answer each distinct query once, clone for repeats. Queries
        // are small enums, so the quadratic scan is cheap at realistic batch
        // sizes (and `Query` is only `PartialEq`, so no hashing).
        let mut uniques: Vec<&Query> = Vec::new();
        let mut canonical = Vec::with_capacity(queries.len());
        for query in queries {
            match uniques.iter().position(|u| **u == *query) {
                Some(at) => {
                    canonical.push(at);
                    self.stats.batch_dedup_hits.fetch_add(1, Relaxed);
                }
                None => {
                    uniques.push(query);
                    canonical.push(uniques.len() - 1);
                }
            }
        }
        let answers = parallel_map_indexed(self.threads, uniques.len(), |i| self.run(uniques[i]));
        canonical
            .into_iter()
            .map(|at| answers[at].clone())
            .collect()
    }

    /// The serial reference executor: answers the batch with a plain
    /// `for` loop over [`run`](Self::run) on the calling thread — no dispatch
    /// parallelism, no dedup.
    /// [`run_batch`](Self::run_batch) is required
    /// (and tested) to return bit-identical results; this loop exists as the
    /// baseline for that contract and for throughput comparisons.
    pub fn run_batch_serial(&self, queries: &[Query]) -> Vec<Result<Answer, EngineError>> {
        queries.iter().map(|q| self.run(q)).collect()
    }

    // ---- dispatch arms -----------------------------------------------------

    fn run_set(
        &self,
        _query: &Query,
        metric: SetMetric,
        variant: Variant,
    ) -> Result<Answer, EngineError> {
        match metric {
            SetMetric::SymmetricDifference => {
                let marginals = self.marginals_ref();
                // Theorem 2 (mean) and Corollary 1 (median coincides with the
                // mean for and/xor trees): one algorithm serves both variants.
                let world = set_distance::mean_world_from_marginals(marginals);
                let expected_distance =
                    set_distance::expected_symmetric_difference(&world, marginals);
                // Corollary 1 assumes the majority set is itself a possible
                // world; that can fail (e.g. a ∨ node with total mass exactly
                // 1 and no alternative above ½ cannot yield the empty
                // restriction). When it fails, the returned world is a lower
                // bound on the median, not the median — tag it honestly.
                let optimality = match variant {
                    Variant::Mean => Optimality::Exact,
                    Variant::Median => {
                        if world_is_attainable(&self.tree, &world) {
                            Optimality::Exact
                        } else {
                            Optimality::Heuristic
                        }
                    }
                };
                Ok(Answer::new(
                    Value::World(world),
                    expected_distance,
                    optimality,
                ))
            }
            SetMetric::Jaccard => {
                let candidates = self.jaccard_candidates_ref();
                let consensus = jaccard::best_prefix_world(&self.tree, candidates)?;
                // Lemma 2 proves the prefix structure for tuple-independent
                // mean worlds; the §4.2 scan over block-best alternatives is
                // the BID median. Outside those classes the scan is served as
                // a heuristic.
                let optimality = match (variant, self.shape) {
                    (_, TreeShape::TupleIndependent) => Optimality::Exact,
                    (Variant::Median, TreeShape::Bid) => Optimality::Exact,
                    _ => Optimality::Heuristic,
                };
                Ok(Answer::new(
                    Value::World(consensus.world),
                    consensus.expected_distance,
                    optimality,
                ))
            }
        }
    }

    fn run_topk(
        &self,
        query: &Query,
        k: usize,
        metric: TopKMetric,
        variant: Variant,
    ) -> Result<Answer, EngineError> {
        self.check_k(k)?;
        // Each supported (metric, variant) pair fetches its rank context; the
        // unsupported pairs are rejected before any artifact is touched.
        match (metric, variant) {
            (TopKMetric::SymmetricDifference, Variant::Mean) => {
                let ctx = self.context_arc(k);
                let answer = sym_diff::mean_topk_sym_diff(&ctx);
                let expected_distance = sym_diff::expected_sym_diff_distance(&ctx, &answer);
                Ok(Answer::new(
                    Value::TopK(answer),
                    expected_distance,
                    Optimality::Exact,
                ))
            }
            (TopKMetric::SymmetricDifference, Variant::Median) => {
                let ctx = self.context_arc(k);
                let median = median_dp::median_topk_sym_diff(&self.tree, &ctx)?;
                Ok(Answer::new(
                    Value::TopK(median.answer),
                    median.expected_distance,
                    Optimality::Exact,
                ))
            }
            (TopKMetric::Intersection, Variant::Mean) => {
                let ctx = self.context_arc(k);
                let (answer, optimality) = match self.intersection {
                    IntersectionStrategy::Assignment => (
                        intersection::mean_topk_intersection(&ctx),
                        Optimality::Exact,
                    ),
                    IntersectionStrategy::Harmonic => (
                        intersection::mean_topk_upsilon_h(&ctx),
                        Optimality::Approx {
                            factor: intersection::harmonic(k),
                        },
                    ),
                };
                let expected_distance = intersection::expected_intersection_distance(&ctx, &answer);
                Ok(Answer::new(
                    Value::TopK(answer),
                    expected_distance,
                    optimality,
                ))
            }
            (TopKMetric::Footrule, Variant::Mean) => {
                let ctx = self.context_arc(k);
                let answer = footrule::mean_topk_footrule(&ctx);
                let expected_distance = footrule::expected_footrule_distance(&ctx, &answer);
                Ok(Answer::new(
                    Value::TopK(answer),
                    expected_distance,
                    Optimality::Exact,
                ))
            }
            (TopKMetric::Kendall, Variant::Mean) => {
                let ctx = self.context_arc(k);
                let mut rng = self.query_rng(query);
                let answer = match self.kendall {
                    KendallStrategy::Pivot { trials } => {
                        kendall::mean_topk_kendall_pivot_from_prefs(
                            &ctx,
                            self.preference_matrix(),
                            trials,
                            &mut rng,
                        )
                    }
                    KendallStrategy::FootruleProxy => kendall::mean_topk_kendall_via_footrule(&ctx),
                };
                // Evaluating E[d_K] exactly is exponential: report a seeded
                // Monte-Carlo estimate (sample count is a builder knob).
                let expected_distance = kendall::expected_kendall_distance_sampled(
                    &self.tree,
                    &ctx,
                    &answer,
                    self.kendall_distance_samples,
                    &mut rng,
                );
                Ok(Answer::new(
                    Value::TopK(answer),
                    expected_distance,
                    Optimality::Approx { factor: 2.0 },
                ))
            }
            (_, Variant::Median) => Err(EngineError::Unsupported {
                query: format!("{query:?}"),
                reason: "only the symmetric-difference metric has a polynomial median \
                         algorithm (Theorem 4)"
                    .to_string(),
            }),
        }
    }

    fn run_aggregate(&self, variant: Variant) -> Result<Answer, EngineError> {
        let instance = self.groupby.as_ref().ok_or(EngineError::MissingInput {
            input: "group-by instance (attach one with ConsensusEngineBuilder::groupby)",
        })?;
        match variant {
            Variant::Mean => {
                let mean = instance.mean_answer();
                let expected_distance = instance.expected_squared_distance(&mean);
                Ok(Answer::new(
                    Value::Counts(mean),
                    expected_distance,
                    Optimality::Exact,
                ))
            }
            Variant::Median => {
                let possible = instance.median_answer_4approx()?;
                let as_f64: Vec<f64> = possible.counts.iter().map(|&c| c as f64).collect();
                let expected_distance = instance.expected_squared_distance(&as_f64);
                Ok(Answer::new(
                    Value::PossibleCounts(possible),
                    expected_distance,
                    Optimality::Approx { factor: 4.0 },
                ))
            }
        }
    }

    fn run_clustering(&self, query: &Query, restarts: usize) -> Result<Answer, EngineError> {
        let weights = self.coclustering_weights();
        let mut rng = self.query_rng(query);
        let (best, cost) = clustering::pivot_clustering_best_of(weights, restarts, &mut rng);
        Ok(Answer::new(
            Value::Clustering(best),
            cost,
            Optimality::Approx { factor: 2.0 },
        ))
    }

    fn run_baseline(&self, query: &Query, kind: BaselineKind) -> Result<Answer, EngineError> {
        let k = kind.k();
        self.check_k(k)?;
        if let BaselineKind::UTopKExact { .. } = kind {
            // World count is bounded by 2^leaves (each ∨ block of m leaves
            // has at most m + 1 outcomes), so gate on leaves — a key count
            // would let multi-alternative BID blocks through to an
            // exponential enumeration far past the stated budget.
            let leaves = self.tree.leaf_count();
            if leaves > UTOPK_EXACT_LEAF_BUDGET {
                return Err(EngineError::Unsupported {
                    query: format!("{query:?}"),
                    reason: format!(
                        "exact U-Top-k enumerates every possible world; {leaves} leaf \
                         alternatives is past the enumeration budget \
                         ({UTOPK_EXACT_LEAF_BUDGET})"
                    ),
                });
            }
        }
        let mut rng = self.query_rng(query);
        let ctx = self.context_arc(k);
        let ctx = &*ctx;
        let answer = match kind {
            BaselineKind::ExpectedScore { k } => baselines::expected_score_topk(&self.tree, k),
            BaselineKind::ExpectedRank { k, samples } => {
                baselines::expected_rank_topk(&self.tree, k, samples, &mut rng)
            }
            BaselineKind::UTopK { k, samples } => {
                baselines::u_topk(&self.tree, k, samples, &mut rng)
            }
            BaselineKind::UTopKExact { k } => baselines::u_topk_enumerated(&self.tree, k),
            BaselineKind::GlobalTopK { .. } => baselines::global_topk(ctx),
            BaselineKind::ProbabilisticThreshold { threshold, .. } => {
                baselines::ptk_answer(ctx, threshold)
            }
        };
        // Baselines are scored under d_Δ so they are directly comparable with
        // the consensus answer (which minimises it).
        let expected_distance = sym_diff::expected_sym_diff_distance(ctx, &answer);
        Ok(Answer::new(
            Value::TopK(answer),
            expected_distance,
            Optimality::Heuristic,
        ))
    }

    // ---- cache management --------------------------------------------------

    fn check_k(&self, k: usize) -> Result<(), EngineError> {
        let (lo, hi) = self.k_range;
        if k < lo || k > hi {
            return Err(EngineError::KOutOfRange { k, lo, hi });
        }
        Ok(())
    }

    /// The shared handle to the memoised [`TopKContext`] for `k`, building it
    /// (exactly once, even under concurrent callers) on first use.
    fn context_arc(&self, k: usize) -> Arc<TopKContext> {
        let cell = shard(&self.contexts, k);
        slot_get_or_build(
            &cell,
            &self.stats.rank_context_builds,
            &self.stats.rank_context_hits,
            || {
                let _build = self
                    .obs
                    .artifact_span(Artifact::RankContext, || format!("rank_context[k={k}]"));
                Arc::new(TopKContext::new_with_parallelism(
                    &self.tree,
                    k,
                    self.threads,
                ))
            },
        )
        .clone()
    }

    /// The memoised marginal-probability table.
    fn marginals_ref(&self) -> &HashMap<Alternative, f64> {
        slot_get_or_build(
            &self.marginals,
            &self.stats.marginal_builds,
            &self.stats.marginal_hits,
            || {
                let _build = self
                    .obs
                    .artifact_span(Artifact::Marginals, || "marginals".to_string());
                self.tree.alternative_probabilities()
            },
        )
    }

    /// The memoised Jaccard candidate list — a cheap derivation of the
    /// marginal table, so it shares that table with the symmetric-difference
    /// set queries instead of walking the tree a second time.
    fn jaccard_candidates_ref(&self) -> &[(Alternative, f64)] {
        let mut built = false;
        let candidates = self.jaccard_candidates.get_or_init(|| {
            built = true;
            jaccard::prefix_candidates_from_marginals(self.marginals_ref())
        });
        if !built {
            self.stats.marginal_hits.fetch_add(1, Relaxed);
        }
        candidates
    }

    // ---- delta-aware artifact maintenance (live-update epoch builds) -------

    /// Builds the **next-epoch engine** after a [`TreeDelta`]: applies the
    /// mutation to the tree (validated, via typed errors) and carries every
    /// *built* artifact across according to the delta's dependency extract —
    /// [`Kept`](crate::ArtifactDecision::Kept) (`Arc`-shared, untouched
    /// dependencies), [`Patched`](crate::ArtifactDecision::Patched) (only the
    /// affected keys' slice recomputed; **bit-identical** to a from-scratch
    /// rebuild), or [`Invalidated`](crate::ArtifactDecision::Invalidated)
    /// (dropped, rebuilt lazily). `self` is untouched: in-flight readers of
    /// the current epoch keep serving its snapshot.
    ///
    /// The per-artifact decisions come back as a [`DeltaReport`]; the running
    /// totals accumulate in [`CacheStats::delta_kept`] /
    /// [`CacheStats::delta_patched`] / [`CacheStats::delta_invalidated`] on
    /// the returned engine. Configuration (seed, k-range, strategies,
    /// threads, group-by) is inherited unchanged — in particular a k-range
    /// defaulted at build time does not widen when tuples are inserted.
    pub fn apply_delta(
        &self,
        delta: &TreeDelta,
    ) -> Result<(ConsensusEngine, DeltaReport), EngineError> {
        let (tree, impact) = self.tree.apply_delta(delta)?;
        Ok(self.maintained(tree, impact))
    }

    /// [`apply_delta`](Self::apply_delta) for a run of deltas that only
    /// their final epoch serves, such as a WAL tail replayed on open: the
    /// tree takes every delta in order and the artifacts are maintained
    /// once, against the combined impact
    /// ([`AndXorTree::apply_deltas`](cpdb_andxor::AndXorTree::apply_deltas)).
    /// The result answers bit-identically to applying the deltas one at a
    /// time; the one [`DeltaReport`] describes the whole run.
    pub fn apply_deltas<'a>(
        &self,
        deltas: impl IntoIterator<Item = &'a TreeDelta>,
    ) -> Result<(ConsensusEngine, DeltaReport), EngineError> {
        let (tree, impact) = self.tree.apply_deltas(deltas)?;
        Ok(self.maintained(tree, impact))
    }

    /// The next-epoch engine on the mutated `tree`, carrying every built
    /// artifact across according to `impact`.
    fn maintained(&self, tree: AndXorTree, impact: DeltaImpact) -> (ConsensusEngine, DeltaReport) {
        use crate::delta::ArtifactDecision::{Invalidated, Kept, Patched};

        let mut report = DeltaReport::new(impact);
        let impact = report.impact.clone();
        let affected = &impact.affected_keys;
        let new_keys = tree.keys();
        // When the delta touches (essentially) every key, selective
        // maintenance degenerates into a disguised full rebuild — drop the
        // pairwise artifacts instead so the counters stay honest.
        let all_touched = affected.len() >= new_keys.len();

        // Key index: depends on tuple membership only.
        let key_index = match self.key_index.get() {
            None => Slot::default(),
            Some(_) if !impact.membership_changed => {
                report.record("key_index", Kept);
                Arc::clone(&self.key_index)
            }
            Some(_) => {
                report.record("key_index", Patched);
                prebuilt_slot(Arc::new(new_keys.clone()))
            }
        };

        // Marginal table: recompute the affected keys' entries with the same
        // filtered depth-first accumulation the full walk performs.
        let marginals = match self.marginals.get() {
            None => Slot::default(),
            Some(_) if all_touched => {
                report.record("marginals", Invalidated);
                Slot::default()
            }
            Some(old) => {
                let mut table: HashMap<Alternative, f64> = old
                    .iter()
                    .filter(|(alt, _)| !affected.contains(&alt.key))
                    .map(|(alt, p)| (*alt, *p))
                    .collect();
                table.extend(tree.alternative_probabilities_for_keys(affected));
                report.record("marginals", Patched);
                prebuilt_slot(table)
            }
        };

        // Jaccard candidates derive from the marginal table.
        let jaccard_candidates = match self.jaccard_candidates.get() {
            None => Slot::default(),
            Some(_) => match marginals.get() {
                Some(table) => {
                    report.record("jaccard_candidates", Patched);
                    prebuilt_slot(jaccard::prefix_candidates_from_marginals(table))
                }
                None => {
                    report.record("jaccard_candidates", Invalidated);
                    Slot::default()
                }
            },
        };

        // Full pairwise-order tournament: rebuild affected rows/columns only.
        let prefs = match self.prefs.get() {
            None => Slot::default(),
            Some(_) if all_touched => {
                report.record("preference_matrix", Invalidated);
                Slot::default()
            }
            Some(old) => {
                report.record("preference_matrix", Patched);
                prebuilt_slot(kendall::preference_matrix_patched(
                    &tree,
                    &new_keys,
                    affected,
                    old,
                    self.threads,
                ))
            }
        };

        // Co-clustering weights: same row/column patch.
        let cocluster = match self.cocluster.get() {
            None => Slot::default(),
            Some(_) if all_touched => {
                report.record("coclustering_weights", Invalidated);
                Slot::default()
            }
            Some(old) => {
                report.record("coclustering_weights", Patched);
                prebuilt_slot(old.patched(&tree, affected, self.threads))
            }
        };

        // Rank contexts hold global rank PMFs: every tuple's PMF reads every
        // other tuple's presence, so they survive only the deltas whose
        // rank-sweep inputs are untouched (order-preserving value updates).
        let contexts = {
            let built: Vec<usize> = self
                .contexts
                .read()
                .expect("artifact map lock poisoned")
                .iter()
                .filter(|(_, cell)| cell.get().is_some())
                .map(|(&k, _)| k)
                .collect();
            for &k in &built {
                report.record(
                    format!("rank_context[k={k}]"),
                    if impact.rank_order_preserved {
                        Kept
                    } else {
                        Invalidated
                    },
                );
            }
            if impact.rank_order_preserved {
                clone_built_map(&self.contexts)
            } else {
                RwLock::new(HashMap::new())
            }
        };

        let stats = AtomicCacheStats::from_snapshot(self.stats.snapshot());
        stats.delta_kept.fetch_add(report.kept(), Relaxed);
        stats.delta_patched.fetch_add(report.patched(), Relaxed);
        stats
            .delta_invalidated
            .fetch_add(report.invalidated(), Relaxed);

        let shape = detect_shape(&tree);
        let next = ConsensusEngine {
            tree,
            shape,
            seed: self.seed,
            k_range: self.k_range,
            kendall: self.kendall,
            intersection: self.intersection,
            kendall_distance_samples: self.kendall_distance_samples,
            groupby: self.groupby.clone(),
            threads: self.threads,
            contexts,
            prefs,
            cocluster,
            marginals,
            jaccard_candidates,
            key_index,
            stats,
            obs: self.obs.clone(),
        };
        (next, report)
    }
}

/// The co-clustering weights of a snapshot. [`ConsensusEngine::export`]
/// writes every upper-triangle pair once, in key order, so each pair lands
/// at the next matrix position; an export in any other layout is rejected.
fn cocluster_from_export(ce: &CoClusterExport) -> Result<CoClusteringWeights, EngineError> {
    let n = ce.keys.len();
    let mut weights = vec![0.0; n * n];
    let mut pairs = ce.pairs.iter();
    for a in 0..n {
        weights[a * n + a] = 1.0;
        for b in a + 1..n {
            match pairs.next() {
                Some(&(i, j, w)) if i == ce.keys[a] && j == ce.keys[b] => {
                    weights[a * n + b] = w;
                    weights[b * n + a] = w;
                }
                _ => {
                    return Err(EngineError::InvalidConfig {
                        context: format!(
                            "co-clustering export lacks the pair ({}, {}) at its place",
                            ce.keys[a], ce.keys[b]
                        ),
                    })
                }
            }
        }
    }
    if pairs.next().is_some() {
        return Err(EngineError::InvalidConfig {
            context: format!("co-clustering export has more than the {n}-key pairs"),
        });
    }
    let keys = ce.keys.iter().map(|&k| cpdb_model::TupleKey(k)).collect();
    CoClusteringWeights::from_row_major(keys, weights).ok_or_else(|| EngineError::InvalidConfig {
        context: "co-clustering export does not fit its key count".to_string(),
    })
}

/// Rejects an exported artifact whose key list is not exactly `keys`, the
/// tree's sorted tuple keys: injected as is, it would answer over foreign or
/// missing tuples.
fn check_tree_keys(artifact: &str, got: &[u64], keys: &[u64]) -> Result<(), EngineError> {
    if got == keys {
        return Ok(());
    }
    Err(EngineError::InvalidConfig {
        context: format!(
            "{artifact} lists {} keys that are not the tree's {} sorted keys",
            got.len(),
            keys.len()
        ),
    })
}

/// Rejects an exported `(key, value, probability)` table with a row naming
/// an alternative the tree does not have.
fn check_tree_alternatives(
    artifact: &str,
    rows: &[(u64, f64, f64)],
    alternatives: &HashSet<Alternative>,
) -> Result<(), EngineError> {
    match rows
        .iter()
        .find(|&&(key, value, _)| !alternatives.contains(&Alternative::new(key, value)))
    {
        None => Ok(()),
        Some((key, value, _)) => Err(EngineError::InvalidConfig {
            context: format!("{artifact} names ({key}, {value}), which is not a tree alternative"),
        }),
    }
}

/// A slot whose artifact is already built (the delta-maintenance patch
/// paths construct these eagerly on the writer's clock).
fn prebuilt_slot<T>(value: T) -> Slot<T> {
    let cell = OnceLock::new();
    let _ = cell.set(value);
    Arc::new(cell)
}

impl ConsensusEngine {
    /// Exports the engine's configuration plus every artifact it has *built*
    /// as plain data ([`EngineExport`]) — the image the `cpdb_store` snapshot
    /// format persists. Unbuilt artifacts are absent from the export (there
    /// is nothing to save); [`ConsensusEngine::from_export`] rebuilds them
    /// lazily. All `f64`s are exported bit-exactly.
    pub fn export(&self) -> EngineExport {
        let mut contexts: Vec<RankContextExport> = self
            .contexts
            .read()
            .expect("artifact map lock poisoned")
            .iter()
            .filter_map(|(&k, cell)| cell.get().map(|ctx| (k, Arc::clone(ctx))))
            .map(|(k, ctx)| {
                let pmf = ctx
                    .keys()
                    .iter()
                    .map(|&t| (t.0, (1..=k).map(|i| ctx.rank_probability(t, i)).collect()))
                    .collect();
                RankContextExport { k, pmf }
            })
            .collect();
        contexts.sort_by_key(|c| c.k);

        let prefs = self.prefs.get().map(|m| PreferenceExport {
            items: m.items().to_vec(),
            weights: m.row_major().to_vec(),
        });

        let cocluster = self.cocluster.get().map(|w| CoClusterExport {
            keys: w.keys().iter().map(|k| k.0).collect(),
            pairs: w.pairs().map(|(i, j, p)| (i.0, j.0, p)).collect(),
        });

        let marginals = self.marginals.get().map(|m| {
            let mut rows: Vec<(u64, f64, f64)> = m
                .iter()
                .map(|(alt, &p)| (alt.key.0, alt.value.value(), p))
                .collect();
            rows.sort_by_key(|a| (a.0, a.1.to_bits()));
            rows
        });

        let jaccard_candidates = self.jaccard_candidates.get().map(|c| {
            c.iter()
                .map(|(alt, p)| (alt.key.0, alt.value.value(), *p))
                .collect()
        });

        let key_index = self
            .key_index
            .get()
            .map(|idx| idx.iter().map(|k| k.0).collect());

        EngineExport {
            tree: self.tree.to_raw(),
            seed: self.seed,
            k_range: self.k_range,
            kendall: self.kendall,
            intersection: self.intersection,
            kendall_distance_samples: self.kendall_distance_samples,
            threads: self.threads,
            groupby: self.groupby.as_ref().map(|g| g.probabilities().to_vec()),
            contexts,
            prefs,
            cocluster,
            marginals,
            jaccard_candidates,
            key_index,
        }
    }

    /// Reconstructs an engine from an [`EngineExport`] **without rebuilding**
    /// the exported artifacts: the tree is re-validated
    /// ([`AndXorTree::from_raw`]), the configuration goes through the
    /// ordinary builder validation, and every exported artifact is injected
    /// pre-built. The result answers bit-identically to the engine that
    /// produced the export (its cache counters start from zero).
    ///
    /// Malformed exports — an invalid tree, a bad configuration, artifact
    /// tables whose shapes do not match, artifacts over other keys or
    /// alternatives than the tree's, rank contexts at a `k` outside the
    /// k-range or repeated — surface as typed [`EngineError`]s.
    pub fn from_export(export: &EngineExport) -> Result<ConsensusEngine, EngineError> {
        let tree = AndXorTree::from_raw(&export.tree)?;
        let mut builder = crate::builder::ConsensusEngineBuilder::new(tree)
            .seed(export.seed)
            .k_range(export.k_range.0..=export.k_range.1)
            .kendall_strategy(export.kendall)
            .intersection_strategy(export.intersection)
            .kendall_distance_samples(export.kendall_distance_samples)
            .threads(export.threads);
        if let Some(probs) = &export.groupby {
            builder = builder.groupby(GroupByInstance::new(probs.clone())?);
        }
        let mut engine = builder.build()?;
        let keys: Vec<u64> = engine.tree.keys().iter().map(|k| k.0).collect();
        let alternatives: HashSet<Alternative> =
            if export.marginals.is_some() || export.jaccard_candidates.is_some() {
                engine.tree.alternatives().into_iter().collect()
            } else {
                HashSet::new()
            };

        let mut contexts = HashMap::with_capacity(export.contexts.len());
        let (lo, hi) = engine.k_range;
        let mut previous_k = None;
        for rce in &export.contexts {
            if rce.k < lo || rce.k > hi || previous_k.is_some_and(|p| rce.k <= p) {
                return Err(EngineError::InvalidConfig {
                    context: format!(
                        "rank-context export at k={} is outside the k-range [{lo}, {hi}], \
                         repeated, or out of order",
                        rce.k
                    ),
                });
            }
            previous_k = Some(rce.k);
            let pmf_keys: Vec<u64> = rce.pmf.iter().map(|(key, _)| *key).collect();
            check_tree_keys(
                &format!("rank-context export at k={}", rce.k),
                &pmf_keys,
                &keys,
            )?;
            let mut pmf = HashMap::with_capacity(rce.pmf.len());
            for (key, row) in &rce.pmf {
                if row.len() != rce.k {
                    return Err(EngineError::InvalidConfig {
                        context: format!(
                            "rank-context export at k={} has a row of length {}",
                            rce.k,
                            row.len()
                        ),
                    });
                }
                pmf.insert(cpdb_model::TupleKey(*key), row.clone());
            }
            contexts.insert(
                rce.k,
                prebuilt_slot(Arc::new(TopKContext::from_pmf(rce.k, pmf))),
            );
        }
        engine.contexts = RwLock::new(contexts);

        if let Some(pe) = &export.prefs {
            check_tree_keys("preference export", &pe.items, &keys)?;
            let m = PreferenceMatrix::from_row_major(&pe.items, pe.weights.clone()).ok_or_else(
                || EngineError::InvalidConfig {
                    context: format!(
                        "preference export has {} weights for {} items",
                        pe.weights.len(),
                        pe.items.len()
                    ),
                },
            )?;
            engine.prefs = prebuilt_slot(m);
        }

        if let Some(ce) = &export.cocluster {
            check_tree_keys("co-clustering export", &ce.keys, &keys)?;
            engine.cocluster = prebuilt_slot(cocluster_from_export(ce)?);
        }

        if let Some(rows) = &export.marginals {
            check_tree_alternatives("marginal export", rows, &alternatives)?;
            let map = rows
                .iter()
                .map(|&(key, value, p)| (Alternative::new(key, value), p))
                .collect::<HashMap<_, _>>();
            engine.marginals = prebuilt_slot(map);
        }

        if let Some(rows) = &export.jaccard_candidates {
            check_tree_alternatives("Jaccard-candidate export", rows, &alternatives)?;
            let list = rows
                .iter()
                .map(|&(key, value, p)| (Alternative::new(key, value), p))
                .collect::<Vec<_>>();
            engine.jaccard_candidates = prebuilt_slot(list);
        }

        if let Some(index) = &export.key_index {
            check_tree_keys("key-index export", index, &keys)?;
            let idx: Vec<cpdb_model::TupleKey> =
                index.iter().map(|&k| cpdb_model::TupleKey(k)).collect();
            engine.key_index = prebuilt_slot(Arc::new(idx));
        }

        Ok(engine)
    }
}

/// Whether `world` is a possible world of `tree` (some outcome of the ∨
/// choices generates exactly it). Linear in tree size × world size: each
/// subtree checks that it can generate precisely the restriction of `world`
/// to its own keys. Used to certify the Corollary-1 median tag.
fn world_is_attainable(tree: &AndXorTree, world: &cpdb_model::PossibleWorld) -> bool {
    let want: HashMap<cpdb_model::TupleKey, Alternative> =
        world.alternatives().iter().map(|a| (a.key, *a)).collect();

    /// Returns `(feasible, keys)`: whether the subtree can generate exactly
    /// the restriction of `want` to its leaf keys, and which wanted keys
    /// appear among its leaves.
    fn go(
        tree: &AndXorTree,
        node: cpdb_andxor::NodeId,
        want: &HashMap<cpdb_model::TupleKey, Alternative>,
    ) -> (bool, HashSet<cpdb_model::TupleKey>) {
        match tree.node_kind(node) {
            None => {
                let alt = tree
                    .leaf_alternative(node)
                    .expect("nodes are either leaves or inner nodes");
                let mut keys = HashSet::new();
                if want.contains_key(&alt.key) {
                    keys.insert(alt.key);
                }
                // A leaf always materialises its alternative, so the subtree
                // matches exactly when that alternative is the wanted one.
                (want.get(&alt.key) == Some(&alt), keys)
            }
            Some(NodeKind::And) => {
                // ∧ realises every child; keys are disjoint across children.
                let mut feasible = true;
                let mut keys = HashSet::new();
                for &(child, _) in tree.children(node) {
                    let (f, k) = go(tree, child, want);
                    feasible &= f;
                    keys.extend(k);
                }
                (feasible, keys)
            }
            Some(NodeKind::Xor) => {
                // ∨ realises exactly one child (or nothing, when mass < 1);
                // the chosen child must cover every wanted key of the block.
                let children = tree.children(node);
                let leftover: f64 = 1.0 - children.iter().map(|(_, p)| *p).sum::<f64>();
                let results: Vec<(f64, bool, HashSet<cpdb_model::TupleKey>)> = children
                    .iter()
                    .map(|&(child, p)| {
                        let (f, k) = go(tree, child, want);
                        (p, f, k)
                    })
                    .collect();
                let mut keys = HashSet::new();
                for (_, _, k) in &results {
                    keys.extend(k.iter().copied());
                }
                let via_child = results.iter().any(|(p, f, k)| *p > 0.0 && *f && *k == keys);
                let via_nothing = keys.is_empty() && leftover > 1e-12;
                (via_child || via_nothing, keys)
            }
        }
    }

    let (feasible, _) = go(tree, tree.root(), &want);
    feasible
}

/// Classifies the tree: a root ∧ of ∨-blocks whose children are all leaves of
/// one key is BID-shaped (tuple-independent when every block has exactly one
/// alternative); anything else is a general and/xor correlation structure.
fn detect_shape(tree: &AndXorTree) -> TreeShape {
    let root = tree.root();
    if tree.node_kind(root) != Some(NodeKind::And) {
        return TreeShape::General;
    }
    let mut tuple_independent = true;
    for &(child, _) in tree.children(root) {
        if tree.node_kind(child) != Some(NodeKind::Xor) {
            return TreeShape::General;
        }
        let leaves = tree.children(child);
        let mut block_key = None;
        for &(leaf, _) in leaves {
            match tree.leaf_alternative(leaf) {
                Some(alt) => match block_key {
                    None => block_key = Some(alt.key),
                    Some(k) if k == alt.key => {}
                    Some(_) => return TreeShape::General,
                },
                None => return TreeShape::General,
            }
        }
        if leaves.len() != 1 {
            tuple_independent = false;
        }
    }
    if tuple_independent {
        TreeShape::TupleIndependent
    } else {
        TreeShape::Bid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConsensusEngineBuilder;
    use cpdb_andxor::AndXorTreeBuilder;

    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let l = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(l, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn small_engine() -> ConsensusEngine {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
        ]);
        ConsensusEngineBuilder::new(tree).seed(7).build().unwrap()
    }

    #[test]
    fn batch_of_four_metrics_builds_one_context() {
        let engine = small_engine();
        let queries: Vec<Query> = [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ]
        .into_iter()
        .map(|metric| Query::TopK {
            k: 2,
            metric,
            variant: Variant::Mean,
        })
        .collect();
        let results = engine.run_batch(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = engine.cache_stats();
        // As in the serial loop: the first query builds the context, the
        // other three hit it.
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
        assert_eq!(stats.rank_context_hits, 3, "{stats:?}");
        assert_eq!(stats.batch_dedup_hits, 0, "{stats:?}");
    }

    #[test]
    fn serial_run_batch_counts_the_builder_query_as_a_build() {
        let engine = small_engine();
        let queries: Vec<Query> = [TopKMetric::SymmetricDifference, TopKMetric::Footrule]
            .into_iter()
            .map(|metric| Query::TopK {
                k: 2,
                metric,
                variant: Variant::Mean,
            })
            .collect();
        let results = engine.run_batch_serial(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = engine.cache_stats();
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
        assert_eq!(stats.rank_context_hits, 1, "{stats:?}");
    }

    #[test]
    fn parallel_run_batch_is_bit_identical_to_the_serial_loop() {
        let mut queries: Vec<Query> = Vec::new();
        for k in [1usize, 2, 3] {
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
        }
        queries.push(Query::TopK {
            k: 2,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        queries.push(Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Median, // unsupported: errors must round-trip too
        });
        queries.push(Query::TopK {
            k: 9,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean, // out of range
        });
        queries.push(Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        });
        queries.push(Query::SetConsensus {
            metric: SetMetric::Jaccard,
            variant: Variant::Mean,
        });
        queries.push(Query::Clustering { restarts: 8 });
        queries.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k: 2 },
        });
        let serial = small_engine().run_batch_serial(&queries);
        for threads in [1usize, 2, 4, 8] {
            let tree = independent_tree(&[
                (1, 90.0, 0.3),
                (2, 80.0, 0.9),
                (3, 70.0, 0.6),
                (4, 60.0, 0.7),
            ]);
            let engine = ConsensusEngineBuilder::new(tree)
                .seed(7)
                .threads(threads)
                .build()
                .unwrap();
            let parallel = engine.run_batch(&queries);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn duplicate_batch_queries_are_answered_once_and_cloned() {
        let engine = small_engine();
        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        };
        let other = Query::TopK {
            k: 2,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        };
        let batch = vec![q.clone(), other.clone(), q.clone(), q.clone(), other];
        let answers = engine.run_batch(&batch);
        assert_eq!(answers[0], answers[2]);
        assert_eq!(answers[0], answers[3]);
        assert_eq!(answers[1], answers[4]);
        let stats = engine.cache_stats();
        assert_eq!(stats.batch_dedup_hits, 3, "{stats:?}");
        // Only the two distinct queries executed: one build + one hit.
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
        assert_eq!(stats.rank_context_hits, 1, "{stats:?}");
        // The dedup answers are bit-identical to the serial loop's.
        let serial = small_engine().run_batch_serial(&batch);
        assert_eq!(answers, serial);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConsensusEngine>();
    }

    #[test]
    fn clones_share_built_artifacts_and_start_warm() {
        let engine = small_engine();
        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        };
        let answer = engine.run(&q).unwrap();
        let warm = engine.clone();
        // The clone's counters continue from the source's snapshot…
        assert_eq!(warm.cache_stats(), engine.cache_stats());
        // …and its first query is a cache hit, not a rebuild.
        assert_eq!(warm.run(&q).unwrap(), answer);
        let stats = warm.cache_stats();
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
        assert_eq!(stats.rank_context_hits, 1, "{stats:?}");
        // Artifacts built after the clone are not shared back: the source
        // still builds k = 3 itself.
        let _ = warm.context(3).unwrap();
        assert_eq!(engine.cache_stats().rank_context_builds, 1);
    }

    #[test]
    fn artifacts_built_after_the_clone_are_not_shared_forward() {
        // Clone while every slot is still empty, then build on the source:
        // the clone must do its own builds (empty cells are never shared).
        let engine = small_engine();
        let cold_clone = engine.clone();
        let _ = engine.preference_matrix();
        let _ = engine.coclustering_weights();
        let _ = engine.context(2).unwrap();
        assert_eq!(cold_clone.cache_stats(), CacheStats::default());
        let _ = cold_clone.preference_matrix();
        let _ = cold_clone.context(2).unwrap();
        let stats = cold_clone.cache_stats();
        assert_eq!(stats.preference_builds, 1, "{stats:?}");
        assert_eq!(stats.preference_hits, 0, "{stats:?}");
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
    }

    #[test]
    fn threads_sharing_one_engine_agree_with_the_serial_loop() {
        let queries: Vec<Query> = vec![
            Query::TopK {
                k: 2,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
            Query::TopK {
                k: 3,
                metric: TopKMetric::Intersection,
                variant: Variant::Mean,
            },
            Query::Clustering { restarts: 8 },
            Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            },
        ];
        let serial = small_engine().run_batch_serial(&queries);
        let engine = small_engine();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let engine = &engine;
                    let queries = &queries;
                    let serial = &serial;
                    scope.spawn(move || {
                        // Each thread walks the shared engine in a different
                        // order; every answer must match the serial loop.
                        for i in 0..queries.len() {
                            let at = (i + t) % queries.len();
                            assert_eq!(engine.run(&queries[at]), serial[at], "thread {t}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // Concurrent traffic built each artifact exactly once.
        let stats = engine.cache_stats();
        assert_eq!(stats.rank_context_builds, 2, "{stats:?}");
        assert_eq!(stats.coclustering_builds, 1, "{stats:?}");
        assert_eq!(stats.preference_builds, 1, "{stats:?}");
        assert_eq!(stats.marginal_builds, 1, "{stats:?}");
    }

    #[test]
    fn answers_match_the_direct_free_functions() {
        let engine = small_engine();
        let ctx = TopKContext::new(engine.tree(), 2);

        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        };
        let a = engine.run(&q).unwrap();
        assert_eq!(
            a.value.as_topk().unwrap(),
            &sym_diff::mean_topk_sym_diff(&ctx)
        );
        assert_eq!(a.optimality, Optimality::Exact);

        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        };
        let a = engine.run(&q).unwrap();
        assert_eq!(
            a.value.as_topk().unwrap(),
            &footrule::mean_topk_footrule(&ctx)
        );
        assert!(
            (a.expected_distance
                - footrule::expected_footrule_distance(&ctx, a.value.as_topk().unwrap()))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn kendall_pivot_replays_through_query_rng() {
        let engine = small_engine();
        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::Kendall,
            variant: Variant::Mean,
        };
        let a = engine.run(&q).unwrap();
        // Replay the engine's stream through the free function.
        let ctx = TopKContext::new(engine.tree(), 2);
        let mut rng = engine.query_rng(&q);
        let direct = kendall::mean_topk_kendall_pivot(engine.tree(), &ctx, 8, &mut rng);
        assert_eq!(a.value.as_topk().unwrap(), &direct);
        assert_eq!(a.optimality, Optimality::Approx { factor: 2.0 });
        // Determinism: running the same query again gives the same answer.
        assert_eq!(engine.run(&q).unwrap(), a);
    }

    #[test]
    fn median_variants_are_gated_by_metric() {
        let engine = small_engine();
        let ok = engine.run(&Query::TopK {
            k: 2,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        assert!(ok.is_ok());
        let err = engine.run(&Query::TopK {
            k: 2,
            metric: TopKMetric::Footrule,
            variant: Variant::Median,
        });
        assert!(matches!(err, Err(EngineError::Unsupported { .. })));
    }

    #[test]
    fn k_range_is_enforced() {
        let engine = small_engine();
        let err = engine.run(&Query::TopK {
            k: 9,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        });
        assert!(matches!(
            err,
            Err(EngineError::KOutOfRange { k: 9, lo: 1, hi: 4 })
        ));
    }

    #[test]
    fn aggregate_queries_need_an_instance() {
        let engine = small_engine();
        let err = engine.run(&Query::Aggregate {
            variant: Variant::Mean,
        });
        assert!(matches!(err, Err(EngineError::MissingInput { .. })));

        let inst =
            GroupByInstance::new(vec![vec![0.6, 0.4], vec![0.2, 0.8], vec![0.5, 0.5]]).unwrap();
        let tree = independent_tree(&[(1, 1.0, 0.5)]);
        let engine = ConsensusEngineBuilder::new(tree)
            .groupby(inst.clone())
            .build()
            .unwrap();
        let mean = engine
            .run(&Query::Aggregate {
                variant: Variant::Mean,
            })
            .unwrap();
        assert_eq!(mean.value.as_counts().unwrap(), inst.mean_answer());
        let median = engine
            .run(&Query::Aggregate {
                variant: Variant::Median,
            })
            .unwrap();
        assert_eq!(median.optimality, Optimality::Approx { factor: 4.0 });
        let counts = median.value.as_counts().unwrap();
        assert_eq!(counts.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn shape_detection_tags_jaccard_guarantees() {
        // Tuple-independent: exact.
        let engine = small_engine();
        let a = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            })
            .unwrap();
        assert_eq!(a.optimality, Optimality::Exact);

        // BID (two alternatives in one block): the scan is the §4.2 median;
        // the mean variant is served as a heuristic.
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 10.0);
        let a2 = b.leaf_parts(1, 20.0);
        let x1 = b.xor_node(vec![(a1, 0.4), (a2, 0.3)]);
        let l2 = b.leaf_parts(2, 30.0);
        let x2 = b.xor_node(vec![(l2, 0.8)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).build().unwrap();
        let median = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Median,
            })
            .unwrap();
        assert_eq!(median.optimality, Optimality::Exact);
        let mean = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            })
            .unwrap();
        assert_eq!(mean.optimality, Optimality::Heuristic);
    }

    #[test]
    fn baselines_run_through_the_engine() {
        let engine = small_engine();
        for kind in [
            BaselineKind::ExpectedScore { k: 2 },
            BaselineKind::ExpectedRank { k: 2, samples: 500 },
            BaselineKind::UTopK { k: 2, samples: 500 },
            BaselineKind::UTopKExact { k: 2 },
            BaselineKind::GlobalTopK { k: 2 },
            BaselineKind::ProbabilisticThreshold {
                k: 2,
                threshold: 0.5,
            },
        ] {
            let a = engine.run(&Query::Baseline { kind }).unwrap();
            assert_eq!(a.optimality, Optimality::Heuristic, "{kind:?}");
            assert!(a.expected_distance.is_finite());
        }
        // Global Top-k is the d_Δ consensus answer, through the same engine.
        let consensus = engine
            .run(&Query::TopK {
                k: 2,
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
            })
            .unwrap();
        let global = engine
            .run(&Query::Baseline {
                kind: BaselineKind::GlobalTopK { k: 2 },
            })
            .unwrap();
        assert_eq!(consensus.value, global.value);
    }

    #[test]
    fn set_median_tag_reflects_attainability() {
        // Every block can yield "nothing": the majority set is a possible
        // world and Corollary 1 applies.
        let engine = small_engine();
        let a = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Median,
            })
            .unwrap();
        assert_eq!(a.optimality, Optimality::Exact);

        // A ∨ block with total mass exactly 1 and no alternative above ½:
        // the majority set is empty, but the empty world is unattainable, so
        // the answer is only a lower bound on the median.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 10.0);
        let l2 = b.leaf_parts(2, 20.0);
        let l3 = b.leaf_parts(3, 30.0);
        let root = b.xor_node(vec![(l1, 0.4), (l2, 0.3), (l3, 0.3)]);
        let tree = b.build(root).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).build().unwrap();
        let a = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Median,
            })
            .unwrap();
        assert!(a.value.as_world().unwrap().is_empty());
        assert_eq!(a.optimality, Optimality::Heuristic);
        // The mean variant is unconditionally exact (Theorem 2 has no
        // attainability requirement).
        let mean = engine
            .run(&Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Mean,
            })
            .unwrap();
        assert_eq!(mean.optimality, Optimality::Exact);
    }

    #[test]
    fn exact_u_topk_budget_counts_leaves_not_keys() {
        // 11 BID blocks × 2 alternatives = 22 leaves but only 11 keys: the
        // enumeration guard must trip on the leaves.
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for key in 0..11u64 {
            let l1 = b.leaf_parts(key, key as f64 * 10.0);
            let l2 = b.leaf_parts(key, key as f64 * 10.0 + 1.0);
            xors.push(b.xor_node(vec![(l1, 0.4), (l2, 0.3)]));
        }
        let root = b.and_node(xors);
        let tree = b.build(root).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).build().unwrap();
        let err = engine.run(&Query::Baseline {
            kind: BaselineKind::UTopKExact { k: 2 },
        });
        assert!(matches!(err, Err(EngineError::Unsupported { .. })));
    }

    #[test]
    fn kendall_at_every_k_shares_one_tournament() {
        let obs = cpdb_obs::Obs::enabled();
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .kendall_distance_samples(16)
            .obs(obs.clone())
            .build()
            .unwrap();
        let queries: Vec<Query> = engine
            .k_range()
            .map(|k| Query::TopK {
                k,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            })
            .collect();
        for r in engine.run_batch_serial(&queries) {
            r.unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.preference_builds, 1, "{stats:?}");
        assert_eq!(stats.preference_hits, queries.len() - 1, "{stats:?}");
        // One build histogram per artifact family, none per k.
        let snapshot = obs.snapshot();
        let artifacts: Vec<&str> = snapshot
            .entries()
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("engine.artifact."))
            .collect();
        assert_eq!(
            artifacts,
            [
                "coclustering",
                "key_index",
                "marginals",
                "preference_matrix",
                "rank_context"
            ]
        );
        // A write patches that one tournament; the only per-k decisions are
        // the rank contexts'.
        let leaf = engine.tree().leaves_of_key(2)[0];
        let (_, report) = engine
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 81.0 })
            .unwrap();
        let mut names: Vec<&str> = report
            .decisions
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.starts_with("rank_context[k="))
            .collect();
        names.sort_unstable();
        assert_eq!(names, ["key_index", "preference_matrix"], "{report:?}");
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n == "preference_matrix" && *d == crate::ArtifactDecision::Patched),
            "{report:?}"
        );
    }

    #[test]
    fn clustering_uses_cached_weights_across_queries() {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, options) in [
            (1u64, [(10.0, 0.8), (20.0, 0.2)]),
            (2u64, [(10.0, 0.7), (20.0, 0.3)]),
            (3u64, [(10.0, 0.1), (20.0, 0.9)]),
        ] {
            let edges: Vec<_> = options
                .iter()
                .map(|&(v, p)| (b.leaf_parts(key, v), p))
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        let tree = b.build(root).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).seed(3).build().unwrap();
        let a = engine.run(&Query::Clustering { restarts: 16 }).unwrap();
        let b = engine.run(&Query::Clustering { restarts: 32 }).unwrap();
        assert!(a.value.as_clustering().is_some());
        assert!(b.value.as_clustering().is_some());
        // Distinct restart counts draw from independent RNG streams (restarts
        // feeds rng_tag), so no cost ordering holds between them — what the
        // cache guarantees is that the weights were built exactly once and
        // that repeating a query reproduces its answer.
        assert_eq!(engine.run(&Query::Clustering { restarts: 32 }).unwrap(), b);
        let stats = engine.cache_stats();
        assert_eq!(stats.coclustering_builds, 1);
        assert_eq!(stats.coclustering_hits, 2);
    }

    /// BID tree for the delta tests: two alternatives per key so there is a
    /// real ∨ block to mutate.
    fn bid_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, alts) in [
            (1u64, vec![(95.0, 0.3), (40.0, 0.5)]),
            (2, vec![(80.0, 0.6), (55.0, 0.2)]),
            (3, vec![(70.0, 0.9)]),
            (4, vec![(60.0, 0.45), (50.0, 0.25)]),
        ] {
            let edges: Vec<_> = alts
                .iter()
                .map(|&(v, p)| (b.leaf_parts(key, v), p))
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    /// A batch warming every artifact family `apply_delta` maintains.
    fn warming_batch() -> Vec<Query> {
        vec![
            Query::TopK {
                k: 2,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
            Query::TopK {
                k: 3,
                metric: TopKMetric::Footrule,
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
            Query::Clustering { restarts: 8 },
        ]
    }

    fn delta_engine(tree: AndXorTree) -> ConsensusEngine {
        ConsensusEngineBuilder::new(tree)
            .seed(11)
            .kendall_distance_samples(64)
            .build()
            .unwrap()
    }

    #[test]
    fn probability_delta_keeps_and_patches_selectively() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        let leaf = engine.tree().leaves_of_key(2)[0];
        let xor = engine.tree().parent_of(leaf).unwrap();
        let (next, report) = engine
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.7,
            })
            .unwrap();
        // No blanket rebuild: the key index survives untouched, the pairwise
        // artifacts are patched, only the global-rank artifacts drop.
        assert!(report.kept() >= 1, "{report:?}");
        assert!(report.patched() >= 3, "{report:?}");
        let kept: Vec<&str> = report
            .decisions
            .iter()
            .filter(|(_, d)| *d == crate::ArtifactDecision::Kept)
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(kept.contains(&"key_index"), "{report:?}");
        for name in [
            "marginals",
            "jaccard_candidates",
            "preference_matrix",
            "coclustering_weights",
        ] {
            assert!(
                report
                    .decisions
                    .iter()
                    .any(|(n, d)| n == name && *d == crate::ArtifactDecision::Patched),
                "{name} not patched: {report:?}"
            );
        }
        let stats = next.cache_stats();
        assert_eq!(stats.delta_kept, report.kept(), "{stats:?}");
        assert_eq!(stats.delta_patched, report.patched(), "{stats:?}");
        assert_eq!(stats.delta_invalidated, report.invalidated(), "{stats:?}");
        // Every answer on the next epoch is bit-identical to a from-scratch
        // engine on the mutated tree.
        let fresh = delta_engine(next.tree().clone());
        assert_eq!(
            next.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
        // The patched epoch did not rebuild the patched artifacts.
        let after = next.cache_stats();
        assert_eq!(after.preference_builds, stats.preference_builds);
        assert_eq!(after.coclustering_builds, stats.coclustering_builds);
        assert_eq!(after.marginal_builds, stats.marginal_builds);
    }

    #[test]
    fn order_preserving_value_delta_keeps_rank_contexts() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        let builds_before = engine.cache_stats().rank_context_builds;
        let leaf = engine.tree().leaves_of_key(3)[0]; // 70.0 → 72.5 keeps order
        let (next, report) = engine
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 72.5 })
            .unwrap();
        assert!(report.impact.rank_order_preserved, "{report:?}");
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n.starts_with("rank_context") && *d == crate::ArtifactDecision::Kept),
            "{report:?}"
        );
        let fresh = delta_engine(next.tree().clone());
        assert_eq!(
            next.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
        // The kept contexts served the re-run without a single rebuild.
        assert_eq!(next.cache_stats().rank_context_builds, builds_before);
    }

    #[test]
    fn membership_deltas_produce_consistent_next_epochs() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        let (next, report) = engine
            .apply_delta(&TreeDelta::InsertTupleBlock {
                under: engine.tree().root(),
                key: 9,
                alternatives: vec![(77.0, 0.4), (52.0, 0.35)],
            })
            .unwrap();
        // The key index must follow the membership change…
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n == "key_index" && *d == crate::ArtifactDecision::Patched),
            "{report:?}"
        );
        // …and the k-range stays as configured (it does not silently widen).
        assert_eq!(next.k_range(), engine.k_range());
        let fresh = delta_engine(next.tree().clone());
        // Compare on the old k-range (the fresh engine defaults to 1..=5).
        assert_eq!(
            next.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
    }

    /// Applies `deltas` one epoch at a time and as one batch, and checks
    /// that both engines hold the same tree, the same artifacts bit for bit,
    /// and answer alike.
    fn assert_batch_matches_sequence(
        engine: &ConsensusEngine,
        deltas: &[TreeDelta],
    ) -> DeltaReport {
        let (batched, report) = engine.apply_deltas(deltas).unwrap();
        let mut sequential = engine.apply_delta(&deltas[0]).unwrap().0;
        for delta in &deltas[1..] {
            sequential = sequential.apply_delta(delta).unwrap().0;
        }
        assert_eq!(batched.tree(), sequential.tree());
        assert_eq!(batched.export(), sequential.export());
        assert_eq!(
            batched.run_batch_serial(&warming_batch()),
            sequential.run_batch_serial(&warming_batch())
        );
        report
    }

    #[test]
    fn batched_deltas_match_one_at_a_time() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        // Each delta addresses the tree the previous ones produced; the
        // structural ones renumber node ids.
        let mut tree = engine.tree().clone();
        let mut deltas = Vec::new();
        for step in 0..3 {
            let delta = match step {
                0 => TreeDelta::InsertTupleBlock {
                    under: tree.root(),
                    key: 9,
                    alternatives: vec![(77.0, 0.4)],
                },
                1 => {
                    let leaf = tree.leaves_of_key(2)[0];
                    TreeDelta::XorEdgeProbability {
                        xor: tree.parent_of(leaf).unwrap(),
                        child: leaf,
                        probability: 0.7,
                    }
                }
                _ => {
                    let leaf = tree.leaves_of_key(4)[1];
                    TreeDelta::RemoveAlternative {
                        xor: tree.parent_of(leaf).unwrap(),
                        leaf,
                    }
                }
            };
            tree = tree.apply_delta(&delta).unwrap().0;
            deltas.push(delta);
        }
        let report = assert_batch_matches_sequence(&engine, &deltas);
        let affected: Vec<u64> = report.impact.affected_keys.iter().map(|k| k.0).collect();
        assert_eq!(affected, vec![2, 4, 9]);
        assert!(report.impact.membership_changed && !report.impact.rank_order_preserved);
    }

    #[test]
    fn batched_order_preserving_deltas_keep_rank_contexts() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        // 70 → 72.5 and 40 → 41 both keep the global score order.
        let deltas = [
            TreeDelta::LeafValue {
                leaf: engine.tree().leaves_of_key(3)[0],
                value: 72.5,
            },
            TreeDelta::LeafValue {
                leaf: engine.tree().leaves_of_key(1)[1],
                value: 41.0,
            },
        ];
        let report = assert_batch_matches_sequence(&engine, &deltas);
        assert!(report.impact.rank_order_preserved, "{report:?}");
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n.starts_with("rank_context") && *d == crate::ArtifactDecision::Kept),
            "{report:?}"
        );
    }

    #[test]
    fn delta_application_errors_are_typed_and_leave_self_untouched() {
        let engine = delta_engine(bid_tree());
        let leaf = engine.tree().leaves_of_key(1)[0];
        let xor = engine.tree().parent_of(leaf).unwrap();
        let err = engine
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.9, // 0.9 + 0.5 > 1
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Model(_)), "{err:?}");
        // The source engine still serves the original tree.
        assert_eq!(engine.tree(), &bid_tree());
    }

    #[test]
    fn cold_engines_apply_deltas_with_nothing_to_maintain() {
        let engine = delta_engine(bid_tree());
        let leaf = engine.tree().leaves_of_key(2)[0];
        let xor = engine.tree().parent_of(leaf).unwrap();
        let (next, report) = engine
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.7,
            })
            .unwrap();
        assert!(report.decisions.is_empty(), "{report:?}");
        let fresh = delta_engine(next.tree().clone());
        assert_eq!(
            next.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
    }

    #[test]
    fn export_round_trips_warm_engines_bit_identically() {
        let engine = delta_engine(bid_tree());
        let answers: Vec<_> = engine.run_batch_serial(&warming_batch());
        let export = engine.export();
        // The warming batch built every artifact family.
        assert!(!export.contexts.is_empty());
        assert!(export.prefs.is_some());
        assert!(export.cocluster.is_some());
        assert!(export.marginals.is_some());
        assert!(export.key_index.is_some());

        let imported = ConsensusEngine::from_export(&export).unwrap();
        // The import injected the artifacts pre-built: answering the same
        // batch performs zero builds and byte-identical answers.
        assert_eq!(imported.run_batch_serial(&warming_batch()), answers);
        let stats = imported.cache_stats();
        assert_eq!(stats.rank_context_builds, 0, "{stats:?}");
        assert_eq!(stats.preference_builds, 0, "{stats:?}");
        assert_eq!(stats.coclustering_builds, 0, "{stats:?}");
        assert_eq!(stats.key_index_builds, 0, "{stats:?}");
        // The export itself is reproducible from the imported engine.
        assert_eq!(imported.export(), export);
    }

    #[test]
    fn export_of_cold_engines_carries_no_artifacts() {
        let engine = delta_engine(bid_tree());
        let export = engine.export();
        assert!(export.contexts.is_empty());
        assert!(export.prefs.is_none());
        assert!(export.cocluster.is_none());
        assert!(export.marginals.is_none());
        assert!(export.jaccard_candidates.is_none());
        assert!(export.key_index.is_none());
        // A cold import still answers identically (ordinary lazy builds).
        let imported = ConsensusEngine::from_export(&export).unwrap();
        assert_eq!(
            imported.run_batch_serial(&warming_batch()),
            engine.run_batch_serial(&warming_batch())
        );
    }

    #[test]
    fn malformed_exports_are_typed_errors() {
        let engine = delta_engine(bid_tree());
        for r in engine.run_batch_serial(&warming_batch()) {
            r.unwrap();
        }
        let mut export = engine.export();
        export.contexts[0].pmf[0].1.pop();
        assert!(matches!(
            ConsensusEngine::from_export(&export),
            Err(EngineError::InvalidConfig { .. })
        ));

        let mut export = engine.export();
        if let Some(pe) = &mut export.prefs {
            pe.weights.pop();
        }
        assert!(matches!(
            ConsensusEngine::from_export(&export),
            Err(EngineError::InvalidConfig { .. })
        ));

        // Co-clustering pairs out of their upper-triangle order, missing, or
        // surplus are rejected rather than silently zeroed.
        for corrupt in [
            |pairs: &mut Vec<(u64, u64, f64)>| pairs.swap(0, 1),
            |pairs: &mut Vec<(u64, u64, f64)>| {
                pairs.pop();
            },
            |pairs: &mut Vec<(u64, u64, f64)>| pairs.push((1, 2, 0.5)),
        ] {
            let mut export = engine.export();
            if let Some(ce) = &mut export.cocluster {
                corrupt(&mut ce.pairs);
            }
            assert!(matches!(
                ConsensusEngine::from_export(&export),
                Err(EngineError::InvalidConfig { .. })
            ));
        }

        // Artifacts over other keys or alternatives than the tree's, and rank
        // contexts at an inadmissible or repeated `k`, are rejected rather
        // than injected as is.
        fn rename_key_1(key: &mut u64) {
            if *key == 1 {
                *key = 99;
            }
        }
        type Corruption = (&'static str, fn(&mut EngineExport));
        let corruptions: [Corruption; 8] = [
            ("key index misses a key", |e| {
                e.key_index.as_mut().unwrap().pop();
            }),
            ("preference items out of order", |e| {
                e.prefs.as_mut().unwrap().items.swap(0, 1);
            }),
            ("co-clustering over a foreign key", |e| {
                let ce = e.cocluster.as_mut().unwrap();
                ce.keys.iter_mut().for_each(rename_key_1);
                for (i, j, _) in &mut ce.pairs {
                    rename_key_1(i);
                    rename_key_1(j);
                }
            }),
            ("rank PMFs over a foreign key", |e| {
                for (key, _) in &mut e.contexts[0].pmf {
                    rename_key_1(key);
                }
            }),
            ("rank context above the k-range", |e| {
                let k = e.k_range.1 + 1;
                e.contexts[0].k = k;
                for (_, row) in &mut e.contexts[0].pmf {
                    row.resize(k, 0.0);
                }
            }),
            ("rank context repeated", |e| {
                let again = e.contexts[0].clone();
                e.contexts.push(again);
            }),
            ("marginal row for a foreign alternative", |e| {
                e.marginals.as_mut().unwrap().push((9, 1.0, 0.1));
            }),
            ("Jaccard candidate for a foreign alternative", |e| {
                e.jaccard_candidates.as_mut().unwrap()[0].1 = 12345.0;
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut export = engine.export();
            corrupt(&mut export);
            assert!(
                matches!(
                    ConsensusEngine::from_export(&export),
                    Err(EngineError::InvalidConfig { .. })
                ),
                "{what} was accepted"
            );
        }

        // A corrupted tree (mass overflow) is caught by re-validation.
        let mut export = engine.export();
        if let cpdb_andxor::RawNode::Inner { children, .. } = &mut export.tree.nodes[2] {
            children[0].1 = 0.9;
        }
        assert!(matches!(
            ConsensusEngine::from_export(&export),
            Err(EngineError::Model(_))
        ));
    }
}
