//! The [`ConsensusEngine`]: one typed entry point over every consensus
//! algorithm, with memoised shared artifacts, concurrent execution, and
//! parallel batch dispatch.

use crate::answer::{Answer, Optimality, Value};
use crate::delta::DeltaReport;
use crate::error::EngineError;
use crate::export::{CoClusterExport, EngineExport, RankContextExport};
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
use cpdb_sync::atomic::{AtomicUsize, Ordering::Relaxed};
use cpdb_sync::{OnceLock, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
use std::sync::{Arc, PoisonError, Weak};

/// Cache instrumentation: how many times each shared artifact was built from
/// scratch vs. served from memory. `run_batch` amortisation shows up here —
/// a batch of Top-k queries builds the rank-probability PMFs once, at its
/// largest `k`, and hits the cache thereafter. Builds are counted inside the
/// artifact's `OnceLock` initialiser, so even under concurrent query traffic
/// every artifact's build is counted exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`TopKContext`] constructions: one each time a query's `k` exceeds
    /// that of the resident context (or no context is resident yet).
    pub rank_context_builds: usize,
    /// Queries served from the resident [`TopKContext`] (a view at their
    /// `k` of a context built at that `k` or above).
    pub rank_context_hits: usize,
    /// Always 0: the engine keeps no Kendall tournament (a Kendall query
    /// prices its moves on a per-query pool table). Kept while callers
    /// outside the workspace read it.
    pub preference_builds: usize,
    /// Always 0, like [`CacheStats::preference_builds`].
    pub preference_hits: usize,
    /// Co-clustering weight-matrix constructions.
    pub coclustering_builds: usize,
    /// Queries served from the cached co-clustering weights.
    pub coclustering_hits: usize,
    /// Marginal-probability table constructions (set queries, Jaccard scans).
    pub marginal_builds: usize,
    /// Set queries served from the cached marginals.
    pub marginal_hits: usize,
    /// Duplicate queries inside one [`ConsensusEngine::run_batch`] call that
    /// were answered by cloning the answer of their first occurrence instead
    /// of being executed again.
    pub batch_dedup_hits: usize,
    /// Always 0: the engine caches no key index. Kept while callers outside
    /// the workspace read it.
    pub key_index_builds: usize,
    /// Always 0, like [`CacheStats::key_index_builds`].
    pub key_index_hits: usize,
    /// Built artifacts `Arc`-shared unchanged into a delta-built next-epoch
    /// engine ([`ConsensusEngine::apply_delta`]): their dependencies were
    /// untouched by the mutation. The three `delta_*` counters count one
    /// maintenance round per call, so a run maintained as one batch
    /// ([`ConsensusEngine::apply_deltas`], `LiveEngine::apply_all`) counts
    /// each artifact once, not once per delta.
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
    coclustering_builds: AtomicUsize,
    coclustering_hits: AtomicUsize,
    marginal_builds: AtomicUsize,
    marginal_hits: AtomicUsize,
    batch_dedup_hits: AtomicUsize,
    delta_kept: AtomicUsize,
    delta_patched: AtomicUsize,
    delta_invalidated: AtomicUsize,
}

impl AtomicCacheStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            rank_context_builds: self.rank_context_builds.load(Relaxed),
            rank_context_hits: self.rank_context_hits.load(Relaxed),
            preference_builds: 0,
            preference_hits: 0,
            coclustering_builds: self.coclustering_builds.load(Relaxed),
            coclustering_hits: self.coclustering_hits.load(Relaxed),
            marginal_builds: self.marginal_builds.load(Relaxed),
            marginal_hits: self.marginal_hits.load(Relaxed),
            batch_dedup_hits: self.batch_dedup_hits.load(Relaxed),
            key_index_builds: 0,
            key_index_hits: 0,
            delta_kept: self.delta_kept.load(Relaxed),
            delta_patched: self.delta_patched.load(Relaxed),
            delta_invalidated: self.delta_invalidated.load(Relaxed),
        }
    }

    fn from_snapshot(s: CacheStats) -> Self {
        AtomicCacheStats {
            rank_context_builds: AtomicUsize::new(s.rank_context_builds),
            rank_context_hits: AtomicUsize::new(s.rank_context_hits),
            coclustering_builds: AtomicUsize::new(s.coclustering_builds),
            coclustering_hits: AtomicUsize::new(s.coclustering_hits),
            marginal_builds: AtomicUsize::new(s.marginal_builds),
            marginal_hits: AtomicUsize::new(s.marginal_hits),
            batch_dedup_hits: AtomicUsize::new(s.batch_dedup_hits),
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

/// The resident rank context: one cell at the largest `k` asked for in this
/// epoch, whose views ([`TopKContext::at`]) serve every smaller `k`.
#[derive(Debug, Default)]
struct RankSlot {
    /// The `k` the cell builds at (`0` until a query asks for one).
    k: usize,
    /// The context at `k`; `None` when a slot at a larger `k` replaced this
    /// one before any thread began to build it.
    cell: OnceLock<Option<TopKContext>>,
    /// The slot this one replaced: a build of it still running finishes
    /// before this slot's begins, so builds run at strictly increasing `k`.
    replaced: Weak<RankSlot>,
}

impl RankSlot {
    /// An unbuilt slot at `k`.
    fn at(k: usize, replaced: Weak<RankSlot>) -> Arc<Self> {
        let cell = OnceLock::new();
        Arc::new(RankSlot { k, cell, replaced })
    }

    /// The built context, if any.
    fn resident(&self) -> Option<&TopKContext> {
        self.cell.get().and_then(Option::as_ref)
    }

    /// The slot a clone or a next epoch starts with: this one when it is
    /// built and `keep` holds, else an unbuilt one at the same `k`.
    fn carried(self: Arc<Self>, keep: bool) -> Arc<Self> {
        if keep && self.resident().is_some() {
            self
        } else {
            RankSlot::at(self.k, Weak::new())
        }
    }
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
/// the rank-probability PMFs `Pr(r(t) = i)` (one [`TopKContext`] at the
/// largest `k` asked for so far, whose column prefixes serve every smaller
/// `k`), the co-clustering weight matrix, and the marginal-probability
/// tables driving the set-query scans.
/// [`run_batch`](Self::run_batch) therefore amortises the generating-function
/// work across queries: a batch of Top-k queries builds the PMFs once, at
/// its largest `k`. [`cache_stats`](Self::cache_stats) exposes the build/hit
/// counters.
///
/// Randomised paths (clustering restarts, sampled baselines)
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
/// artifacts live in interior-mutable slots — [`std::sync::OnceLock`] cells,
/// the rank context's behind a briefly-held [`std::sync::RwLock`] (never held
/// across a build) that swaps in a cell at a larger `k` — and atomic
/// [`CacheStats`] counters. Concurrent queries that need the same artifact
/// build it exactly once (the losers of the race block on the `OnceLock` and
/// then read the winner's value), while queries needing *different*
/// artifacts build them in parallel. Rank-context builds run one at a time,
/// each at a larger `k` than the one before. Answers are bit-identical to a
/// serial [`run`](Self::run) loop at any thread count and under any
/// interleaving.
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
    groupby: Option<GroupByInstance>,
    /// Thread count for batch artifact builds and [`Self::run_batch`] query
    /// dispatch (`0` = auto); answers never depend on it, only latency does.
    threads: usize,
    /// The resident rank-PMF context; the lock guards only the swap to a
    /// slot at a larger `k`.
    context: RwLock<Arc<RankSlot>>,
    cocluster: Slot<CoClusteringWeights>,
    /// `(alternative, Pr(alternative))`, sorted by alternative; the Jaccard
    /// candidates are derived from it per query.
    marginals: Slot<Vec<(Alternative, f64)>>,
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
            groupby: self.groupby.clone(),
            threads: self.threads,
            context: RwLock::new(self.resident_slot().carried(true)),
            cocluster: clone_built_slot(&self.cocluster),
            marginals: clone_built_slot(&self.marginals),
            stats: AtomicCacheStats::from_snapshot(self.stats.snapshot()),
            obs: self.obs.clone(),
        }
    }
}

impl ConsensusEngine {
    pub(crate) fn from_parts(
        tree: AndXorTree,
        seed: u64,
        k_range: (usize, usize),
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
            groupby,
            threads,
            context: RwLock::default(),
            cocluster: Slot::default(),
            marginals: Slot::default(),
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
            ("coclustering_builds", stats.coclustering_builds),
            ("coclustering_hits", stats.coclustering_hits),
            ("marginal_builds", stats.marginal_builds),
            ("marginal_hits", stats.marginal_hits),
            ("batch_dedup_hits", stats.batch_dedup_hits),
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

    /// The memoised [`TopKContext`] at `k`: a view of the resident context,
    /// which is first built at `k` (exactly once, even under concurrent
    /// callers) when no context at `k` or above is resident. The view shares
    /// the engine's cached tables and stays valid independently of the
    /// engine's lifetime. Each call bumps one counter: a build if it ran the
    /// build, else a hit.
    pub fn context(&self, k: usize) -> Result<TopKContext, EngineError> {
        self.check_k(k)?;
        loop {
            let slot = self.rank_slot(k);
            let mut built = false;
            let resident = slot.cell.get_or_init(|| {
                // A slot replaced before its build began is never built: its
                // callers retry on the slot that replaced it.
                if !Arc::ptr_eq(&slot, &self.resident_slot()) {
                    return None;
                }
                if let Some(replaced) = slot.replaced.upgrade() {
                    replaced.cell.get_or_init(|| None);
                }
                built = true;
                let _build = self.obs.artifact_span(Artifact::RankContext, || {
                    format!("rank_context[k={}]", slot.k)
                });
                Some(TopKContext::new(&self.tree, slot.k))
            });
            if let Some(view) = resident.as_ref().and_then(|ctx| ctx.at(k)) {
                let stats = &self.stats;
                let counter = [&stats.rank_context_hits, &stats.rank_context_builds];
                counter[usize::from(built)].fetch_add(1, Relaxed);
                return Ok(view);
            }
        }
    }

    /// Does nothing: the engine keeps no Kendall tournament. Kept while
    /// callers outside the workspace call it.
    #[deprecated(note = "the engine keeps no Kendall tournament; this does nothing")]
    pub fn preference_matrix(&self) {}

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
                CoClusteringWeights::from_tree(&self.tree, self.threads)
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
    /// artifact is built by the first query that needs it, as in the serial
    /// loop; the rank context is built at the batch's largest `k` (set
    /// before dispatch), so the batch builds it at most once.
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
        let ks = uniques.iter().filter_map(|q| match q {
            Query::TopK { k, .. } => Some(*k),
            Query::Baseline { kind } => Some(kind.k()),
            _ => None,
        });
        if let Some(k) = ks.filter(|&k| self.check_k(k).is_ok()).max() {
            self.rank_slot(k);
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
                let candidates = jaccard::prefix_candidates_from_marginals(self.marginals_ref());
                let consensus = jaccard::best_prefix_world(&self.tree, &candidates)?;
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
        if variant == Variant::Median && metric != TopKMetric::SymmetricDifference {
            return Err(EngineError::Unsupported {
                query: format!("{query:?}"),
                reason: "only the symmetric-difference metric has a polynomial median \
                         algorithm (Theorem 4)"
                    .to_string(),
            });
        }
        // Every supported (metric, variant) pair reads the rank context at k.
        let ctx = self.context(k)?;
        let (answer, expected_distance, optimality) = match metric {
            TopKMetric::SymmetricDifference if variant == Variant::Median => {
                let median = median_dp::median_topk_sym_diff(&self.tree, &ctx)?;
                (median.answer, median.expected_distance, Optimality::Exact)
            }
            TopKMetric::SymmetricDifference => {
                let answer = sym_diff::mean_topk_sym_diff(&ctx)?;
                let distance = sym_diff::expected_sym_diff_distance(&ctx, &answer);
                (answer, distance, Optimality::Exact)
            }
            TopKMetric::Intersection => {
                let answer = intersection::mean_topk_intersection(&ctx);
                let distance = intersection::expected_intersection_distance(&ctx, &answer);
                (answer, distance, Optimality::Exact)
            }
            TopKMetric::Footrule => {
                let answer = footrule::mean_topk_footrule(&ctx);
                let distance = footrule::expected_footrule_distance(&ctx, &answer);
                (answer, distance, Optimality::Exact)
            }
            TopKMetric::Kendall => {
                // Never worse than the footrule answer, so its factor 2
                // holds; E[d_K] is exact, read off the same pool table.
                let (answer, distance) = kendall::mean_topk_kendall(&self.tree, &ctx);
                (answer, distance, Optimality::Approx { factor: 2.0 })
            }
        };
        Ok(Answer::new(
            Value::TopK(answer),
            expected_distance,
            optimality,
        ))
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
        let ctx = &self.context(k)?;
        let answer = match kind {
            BaselineKind::ExpectedScore { k } => baselines::expected_score_topk(&self.tree, k),
            BaselineKind::ExpectedRank { k, samples } => {
                baselines::expected_rank_topk(&self.tree, k, samples, &mut rng)
            }
            BaselineKind::UTopK { k, samples } => {
                baselines::u_topk(&self.tree, k, samples, &mut rng)
            }
            BaselineKind::UTopKExact { k } => baselines::u_topk_enumerated(&self.tree, k),
            BaselineKind::GlobalTopK { .. } => baselines::global_topk(ctx)?,
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

    /// The resident rank slot.
    fn resident_slot(&self) -> Arc<RankSlot> {
        Arc::clone(&self.context.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The resident rank slot, first replaced by an unbuilt one at `k` when
    /// it sits below `k`. The lock guards nothing but the `Arc`, so a
    /// poisoned lock is read through.
    fn rank_slot(&self, k: usize) -> Arc<RankSlot> {
        let resident = self.resident_slot();
        if resident.k >= k {
            return resident;
        }
        let mut slot = self.context.write().unwrap_or_else(PoisonError::into_inner);
        if slot.k < k {
            *slot = RankSlot::at(k, Arc::downgrade(&slot));
        }
        Arc::clone(&slot)
    }

    /// The memoised marginal-probability table, sorted by alternative.
    fn marginals_ref(&self) -> &[(Alternative, f64)] {
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
        .as_slice()
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
    /// the returned engine. Configuration (seed, k-range, threads,
    /// group-by) is inherited unchanged — in particular a k-range
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
        // When the delta touches (essentially) every key, selective
        // maintenance degenerates into a disguised full rebuild — drop the
        // pairwise artifacts instead so the counters stay honest.
        let all_touched = affected.len() >= tree.keys().len();

        // Marginal table: recompute the affected keys' entries with the same
        // filtered depth-first accumulation the full walk performs, then
        // merge them into the untouched entries. Both runs are sorted by
        // alternative, and the stable sort merges two sorted runs in one
        // linear pass.
        let marginals = match self.marginals.get() {
            None => Slot::default(),
            Some(_) if all_touched => {
                report.record("marginals", Invalidated);
                Slot::default()
            }
            Some(old) => {
                let mut table: Vec<(Alternative, f64)> = old
                    .iter()
                    .filter(|(alt, _)| !affected.contains(&alt.key))
                    .copied()
                    .chain(tree.alternative_probabilities_for_keys(affected))
                    .collect();
                table.sort_by_key(|(alt, _)| *alt);
                report.record("marginals", Patched);
                prebuilt_slot(table)
            }
        };

        // Co-clustering weights: rebuild affected rows/columns only.
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

        // The rank context holds global rank PMFs: every tuple's PMF reads
        // every other tuple's presence, so it survives only the deltas whose
        // rank-sweep inputs are untouched (order-preserving value updates).
        // A dropped context keeps its `k`, so the next epoch rebuilds once.
        let (old, keep) = (self.resident_slot(), impact.rank_order_preserved);
        if old.resident().is_some() {
            report.record("rank_context", if keep { Kept } else { Invalidated });
        }
        let context = old.carried(keep);

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
            groupby: self.groupby.clone(),
            threads: self.threads,
            context: RwLock::new(context),
            cocluster,
            marginals,
            stats,
            obs: self.obs.clone(),
        };
        (next, report)
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
        let context = self
            .resident_slot()
            .resident()
            .map(|ctx| RankContextExport {
                k: ctx.k(),
                rows: ctx.pmf_rows(),
            });

        let cocluster = self.cocluster.get().map(|w| CoClusterExport {
            weights: w.upper_triangle().to_vec(),
        });

        let marginals = self
            .marginals
            .get()
            .map(|m| m.iter().map(|(_, p)| *p).collect());

        EngineExport {
            tree: self.tree.to_raw(),
            seed: self.seed,
            k_range: self.k_range,
            threads: self.threads,
            groupby: self.groupby.as_ref().map(|g| g.probabilities().to_vec()),
            context,
            cocluster,
            marginals,
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
    /// tables whose lengths do not match the tree's key or alternative
    /// count, a rank context at a `k` outside the k-range — surface as typed
    /// [`EngineError`]s.
    pub fn from_export(export: &EngineExport) -> Result<ConsensusEngine, EngineError> {
        let tree = AndXorTree::from_raw(&export.tree)?;
        let mut builder = crate::builder::ConsensusEngineBuilder::new(tree)
            .seed(export.seed)
            .k_range(export.k_range.0..=export.k_range.1)
            .threads(export.threads);
        if let Some(probs) = &export.groupby {
            builder = builder.groupby(GroupByInstance::new(probs.clone())?);
        }
        let mut engine = builder.build()?;
        // Every artifact is over the tree's sorted keys, so one length check
        // per section is all there is to check.
        let tree_keys = engine.tree.keys();
        let key_count = tree_keys.len();

        if let Some(rce) = &export.context {
            let ctx = engine
                .check_k(rce.k)
                .ok()
                .and_then(|()| TopKContext::from_rows(rce.k, tree_keys.clone(), &rce.rows))
                .ok_or_else(|| EngineError::InvalidConfig {
                    context: format!(
                        "rank-context export at k={} with {} entries for {} keys is outside \
                         the k-range {:?} or of the wrong length",
                        rce.k,
                        rce.rows.len(),
                        key_count,
                        engine.k_range()
                    ),
                })?;
            let slot = RankSlot::at(rce.k, Weak::new());
            let _ = slot.cell.set(Some(ctx));
            engine.context = RwLock::new(slot);
        }

        if let Some(ce) = &export.cocluster {
            let w = CoClusteringWeights::from_upper_triangle(tree_keys, ce.weights.clone())
                .ok_or_else(|| EngineError::InvalidConfig {
                    context: format!(
                        "co-clustering export has {} weights for {} keys",
                        ce.weights.len(),
                        key_count
                    ),
                })?;
            engine.cocluster = prebuilt_slot(w);
        }

        if let Some(probabilities) = &export.marginals {
            let alternatives = engine.tree.alternatives();
            if probabilities.len() != alternatives.len() {
                return Err(EngineError::InvalidConfig {
                    context: format!(
                        "marginal export has {} probabilities for {} alternatives",
                        probabilities.len(),
                        alternatives.len()
                    ),
                });
            }
            engine.marginals = prebuilt_slot(
                alternatives
                    .into_iter()
                    .zip(probabilities.iter().copied())
                    .collect(),
            );
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
        match (tree.node_kind(node), tree.leaf_alternative(node)) {
            // An id outside the tree generates no world at all.
            (None, None) => (false, HashSet::new()),
            (None, Some(alt)) => {
                let mut keys = HashSet::new();
                if want.contains_key(&alt.key) {
                    keys.insert(alt.key);
                }
                // A leaf always materialises its alternative, so the subtree
                // matches exactly when that alternative is the wanted one.
                (want.get(&alt.key) == Some(&alt), keys)
            }
            (Some(NodeKind::And), _) => {
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
            (Some(NodeKind::Xor), _) => {
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

    /// The `k` of every rank-context build `obs` recorded, in the order the
    /// builds finished.
    fn rank_build_ks(obs: &cpdb_obs::Obs) -> Vec<usize> {
        obs.recent_events(usize::MAX)
            .iter()
            .filter_map(|e| {
                let rest = e.detail.strip_prefix("rank_context[k=")?;
                rest.split(']').next()?.parse().ok()
            })
            .collect()
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
        let _ = engine.coclustering_weights();
        let _ = engine.context(2).unwrap();
        assert_eq!(cold_clone.cache_stats(), CacheStats::default());
        let _ = cold_clone.coclustering_weights();
        let _ = cold_clone.context(2).unwrap();
        let stats = cold_clone.cache_stats();
        assert_eq!(stats.coclustering_builds, 1, "{stats:?}");
        assert_eq!(stats.coclustering_hits, 0, "{stats:?}");
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
        let obs = cpdb_obs::Obs::enabled();
        let engine = small_engine().with_obs(obs.clone());
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
        // Concurrent traffic built each artifact exactly once, except the
        // rank context: a thread may build it at k = 2 before another asks
        // for k = 3. Whatever the schedule, builds run at increasing k, the
        // largest k stays resident, and each of the 4 × 2 lookups bumps one
        // counter.
        let stats = engine.cache_stats();
        assert!(stats.rank_context_builds <= 2, "{stats:?}");
        assert_eq!(rank_build_ks(&obs).len(), stats.rank_context_builds);
        assert!(rank_build_ks(&obs).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(engine.export().context.map(|c| c.k), Some(3));
        assert_eq!(stats.rank_context_builds + stats.rank_context_hits, 8);
        assert_eq!(stats.coclustering_builds, 1, "{stats:?}");
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
            &sym_diff::mean_topk_sym_diff(&ctx).unwrap()
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
    fn kendall_replays_the_free_function() {
        let engine = small_engine();
        let q = Query::TopK {
            k: 2,
            metric: TopKMetric::Kendall,
            variant: Variant::Mean,
        };
        let a = engine.run(&q).unwrap();
        // The free function on the same tree and rank context, bit for bit.
        let ctx = TopKContext::new(engine.tree(), 2);
        let (direct, distance) = kendall::mean_topk_kendall(engine.tree(), &ctx);
        assert_eq!(a.value.as_topk().unwrap(), &direct);
        assert_eq!(a.expected_distance.to_bits(), distance.to_bits());
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
    fn set_consensus_answers_when_two_alternatives_of_a_key_exceed_half() {
        // One ∨ block of mass 1 + 8e-10, inside the builder's 1 + 1e-9
        // tolerance, whose two alternatives both sit just above ½.
        let mut b = AndXorTreeBuilder::new();
        let low = b.leaf_parts(1, 1.0);
        let high = b.leaf_parts(1, 2.0);
        let block = b.xor_node(vec![(low, 0.5 + 4e-10), (high, 0.5 + 4e-10)]);
        let other = b.leaf_parts(2, 3.0);
        let second = b.xor_node(vec![(other, 0.3)]);
        let root = b.and_node(vec![block, second]);
        let engine = ConsensusEngineBuilder::new(b.build(root).unwrap())
            .build()
            .unwrap();
        for metric in [SetMetric::SymmetricDifference, SetMetric::Jaccard] {
            for variant in [Variant::Mean, Variant::Median] {
                let answer = engine
                    .run(&Query::SetConsensus { metric, variant })
                    .unwrap();
                assert_eq!(
                    answer.value.as_world().unwrap().alternatives(),
                    &[Alternative::new(1, 2.0)],
                    "{metric:?} {variant:?}"
                );
            }
        }
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
    fn kendall_at_every_k_shares_one_rank_context() {
        let obs = cpdb_obs::Obs::enabled();
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
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
        for r in engine.run_batch(&queries) {
            r.unwrap();
        }
        // The batch builds the rank context once, at its largest k; the
        // per-query pool tables are no artifact.
        let stats = engine.cache_stats();
        assert_eq!(stats.rank_context_builds, 1, "{stats:?}");
        assert_eq!(stats.rank_context_hits, queries.len() - 1, "{stats:?}");
        assert_eq!(stats.preference_builds, 0, "{stats:?}");
        // One build histogram per artifact family, none per k.
        let snapshot = obs.snapshot();
        let artifacts: Vec<&str> = snapshot
            .entries()
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("engine.artifact."))
            .collect();
        assert_eq!(artifacts, ["coclustering", "marginals", "rank_context"]);
        // A write has only that one rank context to maintain, and keeps it.
        let leaf = engine.tree().leaves_of_key(2)[0];
        let (_, report) = engine
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 81.0 })
            .unwrap();
        assert_eq!(
            report.decisions,
            [("rank_context".to_string(), crate::ArtifactDecision::Kept)],
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
        ConsensusEngineBuilder::new(tree).seed(11).build().unwrap()
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
        // No blanket rebuild: the pairwise artifacts are patched, only the
        // global-rank artifact drops. Every built artifact reads the
        // probabilities, so none is kept as is.
        assert_eq!(report.kept(), 0, "{report:?}");
        assert!(report.patched() >= 2, "{report:?}");
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n == "rank_context" && *d == crate::ArtifactDecision::Invalidated),
            "{report:?}"
        );
        for name in ["marginals", "coclustering_weights"] {
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
        let rank = |report: &DeltaReport| {
            report
                .decisions
                .iter()
                .find(|(n, _)| n == "rank_context")
                .map(|(_, d)| *d)
        };
        assert_eq!(rank(&report), Some(crate::ArtifactDecision::Kept));
        let fresh = delta_engine(next.tree().clone());
        assert_eq!(
            next.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
        // The kept context served the re-run without a single rebuild.
        assert_eq!(next.cache_stats().rank_context_builds, builds_before);

        // An invalidating delta drops the table but keeps its `k`: the next
        // epoch rebuilds exactly once, at the old K, though its first query
        // asks for a smaller k.
        let resident_k = next.export().context.map(|c| c.k);
        assert_eq!(resident_k, Some(3));
        let leaf = next.tree().leaves_of_key(2)[0];
        let (dropped, report) = next
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor: next.tree().parent_of(leaf).unwrap(),
                child: leaf,
                probability: 0.7,
            })
            .unwrap();
        assert_eq!(rank(&report), Some(crate::ArtifactDecision::Invalidated));
        assert_eq!(dropped.export().context, None);
        let fresh = delta_engine(dropped.tree().clone());
        assert_eq!(
            dropped.run_batch_serial(&warming_batch()),
            fresh.run_batch_serial(&warming_batch())
        );
        assert_eq!(dropped.cache_stats().rank_context_builds, builds_before + 1);
        assert_eq!(dropped.export().context.map(|c| c.k), resident_k);
    }

    /// Every query that reads the rank context, at `k`.
    fn rank_queries(k: usize) -> Vec<Query> {
        let mut queries: Vec<Query> = [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ]
        .into_iter()
        .map(|metric| Query::TopK {
            k,
            metric,
            variant: Variant::Mean,
        })
        .collect();
        queries.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        for kind in [
            BaselineKind::ExpectedScore { k },
            BaselineKind::ExpectedRank { k, samples: 64 },
            BaselineKind::UTopK { k, samples: 64 },
            BaselineKind::UTopKExact { k },
            BaselineKind::GlobalTopK { k },
            BaselineKind::ProbabilisticThreshold { k, threshold: 0.4 },
        ] {
            queries.push(Query::Baseline { kind });
        }
        queries
    }

    #[test]
    fn one_context_serves_a_k_sweep_in_either_order() {
        let tree = bid_tree();
        let n = tree.keys().len();
        let build = || {
            ConsensusEngineBuilder::new(tree.clone())
                .seed(11)
                .build()
                .unwrap()
        };
        // Each k answered by an engine whose context was built at that
        // k: `TopKContext::new(tree, k)` fed to the same §5 functions.
        let fresh: Vec<_> = (1..=n)
            .map(|k| build().run_batch_serial(&rank_queries(k)))
            .collect();
        let engine = build();
        let sweep = |ks: Vec<usize>| {
            for k in ks {
                let got = engine.run_batch_serial(&rank_queries(k));
                for ((query, got), want) in rank_queries(k).iter().zip(got).zip(&fresh[k - 1]) {
                    let (got, want) = (got.unwrap(), want.as_ref().unwrap());
                    assert_eq!(got.value, want.value, "{query:?}");
                    assert_eq!(
                        got.expected_distance.to_bits(),
                        want.expected_distance.to_bits(),
                        "{query:?}"
                    );
                    assert_eq!(got.optimality, want.optimality, "{query:?}");
                }
            }
        };
        sweep((1..=n).collect());
        assert_eq!(engine.cache_stats().rank_context_builds, n);
        sweep((1..=n).rev().collect());
        assert_eq!(engine.cache_stats().rank_context_builds, n);

        // One context stays resident: every view shares one slab at K = n,
        // and the library's Υ_H shortcut reads a column-prefix view exactly
        // as it reads a context built at that k.
        for k in 1..=n {
            let view = engine.context(k).unwrap();
            assert_eq!((view.k(), view.slab_len()), (k, n * 3 * n));
            let own = TopKContext::new(&tree, k);
            let bits = |rows: Vec<f64>| rows.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(view.pmf_rows()), bits(own.pmf_rows()));
            let (got, want) = (
                intersection::mean_topk_upsilon_h(&view),
                intersection::mean_topk_upsilon_h(&own),
            );
            assert_eq!(got, want, "k={k}");
            assert_eq!(
                intersection::expected_intersection_distance(&view, &got).to_bits(),
                intersection::expected_intersection_distance(&own, &want).to_bits(),
                "k={k}"
            );
        }
        assert_eq!(engine.cache_stats().rank_context_builds, n);
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
        // The co-clustering weights must follow the membership change…
        assert!(
            report
                .decisions
                .iter()
                .any(|(n, d)| n == "coclustering_weights"
                    && *d == crate::ArtifactDecision::Patched),
            "{report:?}"
        );
        assert!(next
            .coclustering_weights()
            .keys()
            .contains(&cpdb_model::TupleKey(9)));
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
                .any(|(n, d)| n == "rank_context" && *d == crate::ArtifactDecision::Kept),
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
    fn a_poisoned_artifact_map_is_read_through() {
        let engine = delta_engine(bid_tree());
        let batch = warming_batch();
        let answers = engine.run_batch_serial(&batch);
        let export = engine.export();
        let leaf = engine.tree().leaves_of_key(2)[0];
        let xor = engine.tree().parent_of(leaf).unwrap();
        let delta = TreeDelta::XorEdgeProbability {
            xor,
            child: leaf,
            probability: 0.7,
        };
        let next_answers = engine
            .apply_delta(&delta)
            .unwrap()
            .0
            .run_batch_serial(&batch);

        // A thread panics while it holds the rank slot's write lock.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = engine.context.write().unwrap();
                panic!("panic while holding the rank slot lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(engine.context.is_poisoned());

        assert_eq!(engine.run_batch_serial(&batch), answers);
        assert_eq!(engine.clone().run_batch_serial(&batch), answers);
        assert_eq!(engine.export(), export);
        let (next, _) = engine.apply_delta(&delta).unwrap();
        assert_eq!(next.run_batch_serial(&batch), next_answers);
        // A `k` above the resident one swaps in its slot through the
        // poisoned lock.
        let fresh_k = Query::TopK {
            k: 4,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        };
        assert_eq!(engine.run(&fresh_k), delta_engine(bid_tree()).run(&fresh_k));
    }

    #[test]
    fn export_round_trips_warm_engines_bit_identically() {
        let engine = delta_engine(bid_tree());
        let answers: Vec<_> = engine.run_batch_serial(&warming_batch());
        let export = engine.export();
        // The warming batch built every artifact family.
        assert!(export.context.is_some());
        assert!(export.cocluster.is_some());
        assert!(export.marginals.is_some());

        let imported = ConsensusEngine::from_export(&export).unwrap();
        // The import injected the artifacts pre-built: answering the same
        // batch performs zero builds and byte-identical answers.
        assert_eq!(imported.run_batch_serial(&warming_batch()), answers);
        let stats = imported.cache_stats();
        assert_eq!(stats.rank_context_builds, 0, "{stats:?}");
        assert_eq!(stats.coclustering_builds, 0, "{stats:?}");
        // The export itself is reproducible from the imported engine.
        assert_eq!(imported.export(), export);
    }

    #[test]
    fn export_of_cold_engines_carries_no_artifacts() {
        let engine = delta_engine(bid_tree());
        let export = engine.export();
        assert!(export.context.is_none());
        assert!(export.cocluster.is_none());
        assert!(export.marginals.is_none());
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
        // A rank-context table, co-clustering triangle or marginal table one entry short or one entry long is rejected rather
        // than silently zeroed or truncated.
        for corrupt in [
            |weights: &mut Vec<f64>| {
                weights.pop();
            },
            |weights: &mut Vec<f64>| weights.push(0.5),
        ] {
            type Section = (&'static str, fn(&mut EngineExport) -> &mut Vec<f64>);
            let sections: [Section; 3] = [
                ("rank context", |e| &mut e.context.as_mut().unwrap().rows),
                ("co-clustering triangle", |e| {
                    &mut e.cocluster.as_mut().unwrap().weights
                }),
                ("marginal table", |e| e.marginals.as_mut().unwrap()),
            ];
            for (what, section) in sections {
                let mut export = engine.export();
                corrupt(section(&mut export));
                assert!(
                    matches!(
                        ConsensusEngine::from_export(&export),
                        Err(EngineError::InvalidConfig { .. })
                    ),
                    "{what} of the wrong length was accepted"
                );
            }
        }

        // A rank context above the k-range is rejected rather than injected
        // as is, even when its table has the right length for its `k`.
        let mut export = engine.export();
        let context = export.context.as_mut().unwrap();
        let n = context.rows.len() / context.k;
        context.k = export.k_range.1 + 1;
        context.rows.resize(n * context.k, 0.0);
        assert!(
            matches!(
                ConsensusEngine::from_export(&export),
                Err(EngineError::InvalidConfig { .. })
            ),
            "rank context above the k-range was accepted"
        );

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
