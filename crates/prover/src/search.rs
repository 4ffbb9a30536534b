//! The search engine: saturation of safe moves + iterative deepening over
//! risky (case-splitting) instantiations.
//!
//! Four session-lifetime caches (see `SearchCaches`) and two structural
//! ideas keep the per-state cost near-constant.  Every cache keys on
//! interned handles — 8-byte [`Shared<Formula>`] pointers and interned
//! [`InContext`]s, hashed by a cached word and compared by pointer — and
//! hands handles back, so a probe copies no formula, and a hit hands the
//! search the very node every sequent already points at:
//!
//! * the **failure memo** (below), keyed by the refuted state;
//! * the **specialization cache**, `(∃-handle, context) → [(result, rank,
//!   risky?)]`: per quantifier and context, the maximal specializations
//!   that used an atom, at exact size, with the rank and class the
//!   candidate lists sort by precomputed;
//! * the **rewrite-candidate cache**, `(≠-handle, literal-handle) →
//!   Option<(rewritten handle, cost)>`, sound to share globally because the
//!   rewrite depends on nothing but the two nodes; across branches,
//!   deepening levels and batched goals the overwhelming majority of pairs
//!   repeat, turning a subtree rewrite into an O(1) hash probe;
//! * the **goal-outcome cache**, which replays the proof (or failure) of a
//!   root goal the session has already settled, sound because every budget
//!   that could change the outcome is fixed in the session's
//!   [`ProverConfig`].
//!
//! The handles the caches return go into candidate [`Rule`]s and from
//! there into premises and proof nodes as they are: nothing on the
//! per-state path interns a formula the caches already interned.  Candidate
//! joins are further narrowed by the sequents' variable-occurrence index
//! ([`Sequent::eq_literals_with_var`]): a new (in)equality is paired only
//! against literals sharing a term, not the whole `inequalities() ×
//! eq_literals()` product.  Neither device changes which candidates are
//! generated or their order — unproductive pairs never consumed a sequence
//! number — so proofs are bit-identical to an uncached search's.
//!
//! The structural ideas:
//!
//! * **Candidate-move inheritance.**  Within an existential-leading phase the
//!   right-hand side only ever *grows*, so the candidate ≠-rewrites and ∃
//!   specializations computed at a state remain valid at every descendant.
//!   Each state therefore inherits its parent's ranked candidate list and
//!   extends it with just the pairs involving the newly added formula — an
//!   indexed join over the sequent's per-kind slices — instead of rescanning
//!   all O(|Δ|²) pairs.  Filters that depend on growing state (the rewrite
//!   budget, "already present", "already used") are re-checked at application
//!   time; both checks are pointer compares of interned handles.
//! * **A failure memo shared across goals.**  Failures are keyed by the
//!   search-relevant state — (sequent, rewrites used, used-spec set) — so a
//!   hit prunes re-entry at the same or lower risky budget.  The memo lives
//!   in a [`crate::ProverSession`], so later goals of a synthesis run (and
//!   later deepening levels) prune subtrees the earlier ones already
//!   refuted.  One caveat keeps this a *bounded-search* device rather than a
//!   semantic theorem: equal-cost candidates scan in discovery order, which
//!   is path-dependent for inherited lists, so two paths reaching the same
//!   state may saturate in different orders and — exactly at a rewrite/state
//!   budget boundary — reach different verdicts.  A memo hit can then prune
//!   an exploration that a cold scan would have ordered more luckily.  This
//!   stays within the engine's existing incompleteness envelope (budgets
//!   already make the search incomplete, and every returned proof is checked
//!   independently); the session-equivalence property test exercises goal
//!   families whose budgets are far from binding.

use crate::session::ProverSession;
use nrs_delta0::specialize::{max_specializations, MaxSpecialization};
use nrs_delta0::{Formula, InContext, Term};
use nrs_proof::{formula_hash_mixed, LiteralsIter, Proof, ProofError, Rule, Sequent, SequentKey};
use nrs_shared::{ShardStats, ShardedMap, Shared};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles into the global [`nrs_obs`] registry: one name lookup per
/// process, relaxed atomic adds afterwards.  Every counter here mirrors a
/// [`ProverStats`] field, so the per-goal struct readout and the process-wide
/// registry stay two views of the same accounting.
struct ObsMetrics {
    goals: Arc<nrs_obs::Counter>,
    goal_cache_hits: Arc<nrs_obs::Counter>,
    proved: Arc<nrs_obs::Counter>,
    failed: Arc<nrs_obs::Counter>,
    timeouts: Arc<nrs_obs::Counter>,
    cancelled: Arc<nrs_obs::Counter>,
    visited: Arc<nrs_obs::Counter>,
    memo_hits: Arc<nrs_obs::Counter>,
    memo_misses: Arc<nrs_obs::Counter>,
    rewrite_cache_hits: Arc<nrs_obs::Counter>,
    rewrite_cache_misses: Arc<nrs_obs::Counter>,
    memo_lock_acquisitions: Arc<nrs_obs::Counter>,
    memo_lock_contended: Arc<nrs_obs::Counter>,
    goal_seconds: Arc<nrs_obs::Histogram>,
    proof_size: Arc<nrs_obs::Histogram>,
    risky_level: Arc<nrs_obs::Histogram>,
}

fn obs() -> &'static ObsMetrics {
    static METRICS: OnceLock<ObsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        ObsMetrics {
            goals: r.counter("prover.goals_total"),
            goal_cache_hits: r.counter("prover.goal_cache_hits_total"),
            proved: r.counter("prover.proved_total"),
            failed: r.counter("prover.failed_total"),
            timeouts: r.counter("prover.timeouts_total"),
            cancelled: r.counter("prover.cancelled_total"),
            visited: r.counter("prover.visited_total"),
            memo_hits: r.counter("prover.memo_hits_total"),
            memo_misses: r.counter("prover.memo_misses_total"),
            rewrite_cache_hits: r.counter("prover.rewrite_cache_hits_total"),
            rewrite_cache_misses: r.counter("prover.rewrite_cache_misses_total"),
            memo_lock_acquisitions: r.counter("prover.memo_lock_acquisitions_total"),
            memo_lock_contended: r.counter("prover.memo_lock_contended_total"),
            goal_seconds: r.timer("prover.goal_seconds"),
            proof_size: r.histogram("prover.proof_size"),
            risky_level: r.histogram("prover.risky_level"),
        }
    })
}

impl ObsMetrics {
    /// Fold one goal's [`ProverStats`] into the process-wide registry.
    fn record_stats(&self, stats: &ProverStats) {
        self.visited.add(stats.visited as u64);
        self.memo_hits.add(stats.memo_hits as u64);
        self.memo_misses.add(stats.memo_misses as u64);
        self.rewrite_cache_hits.add(stats.rewrite_cache_hits as u64);
        self.rewrite_cache_misses
            .add(stats.rewrite_cache_misses as u64);
        self.memo_lock_acquisitions
            .add(stats.memo_lock.reads + stats.memo_lock.writes);
        self.memo_lock_contended
            .add(stats.memo_lock.reads_contended + stats.memo_lock.writes_contended);
        self.proof_size.record(stats.proof_size as u64);
        self.risky_level.record(stats.risky_level as u64);
    }
}

/// Budgets controlling the proof search.
#[derive(Debug, Clone)]
pub struct ProverConfig {
    /// Maximum number of "risky" (conjunction-introducing) ∃ instantiations
    /// along any branch; iterative deepening explores 0..=max_risky.
    pub max_risky: usize,
    /// Cap on the number of formulas in a sequent before safe saturation stops.
    pub max_formulas: usize,
    /// Cap on ≠-congruence rewrites along a branch.
    pub max_rewrites: usize,
    /// Cap on candidate specializations enumerated per existential formula.
    pub spec_limit: usize,
    /// Global cap on visited search states.
    pub max_states: usize,
    /// Wall-clock deadline per goal.  Checked at every visited state; when
    /// it fires the search returns [`ProofError::Timeout`] — distinct from
    /// [`ProofError::BudgetExhausted`], and **never cached** in the session's
    /// goal-outcome cache, since a retry under better conditions (or a longer
    /// deadline) could succeed.  `None` (the default) means no deadline.
    pub deadline: Option<Duration>,
    /// No effect: proof search is sequential.  Kept only so that existing
    /// struct literals naming it still compile.
    #[doc(hidden)]
    #[deprecated(note = "no effect: proof search is sequential")]
    pub parallel_branches: bool,
}

impl Default for ProverConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        ProverConfig {
            max_risky: 6,
            max_formulas: 220,
            max_rewrites: 48,
            spec_limit: 64,
            max_states: 400_000,
            deadline: None,
            parallel_branches: false,
        }
    }
}

impl ProverConfig {
    /// A configuration with small budgets, for quick validity checks in tests.
    pub fn quick() -> Self {
        ProverConfig {
            max_risky: 3,
            max_formulas: 90,
            max_rewrites: 24,
            spec_limit: 32,
            max_states: 40_000,
            ..ProverConfig::default()
        }
    }

    /// A configuration with generous budgets for the harder example goals.
    pub fn thorough() -> Self {
        ProverConfig {
            max_risky: 10,
            max_formulas: 420,
            max_rewrites: 96,
            spec_limit: 128,
            max_states: 4_000_000,
            ..ProverConfig::default()
        }
    }
}

/// Statistics reported alongside a successful proof.
#[derive(Debug, Clone, Default)]
pub struct ProverStats {
    /// Number of search states visited.
    pub visited: usize,
    /// Risky budget at which the proof was found.
    pub risky_level: usize,
    /// Size (node count) of the returned proof.
    pub proof_size: usize,
    /// Failure-memo probes that pruned a subtree.
    pub memo_hits: usize,
    /// Failure-memo probes that found nothing (or nothing strong enough).
    pub memo_misses: usize,
    /// Formula/term interner constructions that reused an existing node
    /// during this search.
    pub interner_hits: u64,
    /// Formula/term interner constructions that allocated a fresh node
    /// during this search.
    pub interner_misses: u64,
    /// Rewrite-candidate probes answered by the session cache.
    pub rewrite_cache_hits: usize,
    /// Rewrite-candidate probes that had to compute (and then cache) the
    /// rewrite.
    pub rewrite_cache_misses: usize,
    /// (inequality, literal) pairs enumerated by the occurrence-indexed
    /// congruence joins.
    pub occ_join_pairs: usize,
    /// Additional pairs the unindexed full `inequalities() × eq_literals()`
    /// joins would have enumerated (all provably unproductive).
    pub occ_join_pruned: usize,
    /// Whole root goals answered from the session's goal-outcome cache
    /// (1 for a replayed goal, 0 for a searched one).
    pub goal_cache_hits: usize,
    /// Lock traffic on the failure memo's [`ShardedMap`] during this goal:
    /// acquisitions and how many of them found their shard held by another
    /// worker.  `memo_lock.shards` is the shard count; `memo_lock.
    /// contention_ratio()` quantifies the PR-6 "first contention point"
    /// observation instead of assuming it.
    pub memo_lock: ShardStats,
}

/// The memo key: the search-relevant state besides the risky budget.
/// Failure recorded at risky budget `r` refutes re-entry at any budget ≤ `r`
/// (fewer rewrites used and fewer used specs can only *enlarge* the move
/// set) — up to the discovery-order caveat described in the module docs.
/// The sequent enters as its [`SequentKey`]: the two sides, shared with the
/// searched sequent, without its occurrence index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    seq: SequentKey,
    rewrites_used: usize,
    used_hash: u64,
}

/// The session-lifetime caches, shared by every goal and worker of one
/// [`ProverSession`].  All four are [`ShardedMap`]s —
/// concurrent probes of different shards (the common case: keys are interned
/// nodes with well-mixed cached hashes) don't serialize, and concurrent
/// readers of one shard share a read lock; the former `Mutex` wrappers made
/// every probe exclusive.  Poisoning is recovered by the map itself, keeping
/// the sessions' existing panic-tolerance behavior.
pub(crate) struct SearchCaches {
    /// Sequents known to fail, mapping to the largest risky budget refuted.
    /// The largest table of a cold derivation (one entry per refuted
    /// state), so its keys hold only what equality needs: each
    /// [`SequentKey`] shares the context and right-hand side with the
    /// searched sequent and leaves its occurrence index to be freed with it.
    /// The right-hand sides are vectors of 8-byte interned handles, so the
    /// thousands of keys a derivation leaves here point into one set of
    /// formula nodes (a cold `overlapping(8)` derivation: 2,364 keys with
    /// 91,143 slots over 134 distinct formulas) instead of each holding
    /// 56-byte copies.
    pub(crate) memo: ShardedMap<MemoKey, usize>,
    /// Cached `max_specializations` results, keyed by (quantifier handle,
    /// ∈-context): the per-depth goals of one synthesis run decompose the
    /// same specification formulas under the same contexts, so a warm
    /// session stops re-enumerating their specializations goal after goal —
    /// the shared saturation prefix of a batched synthesis run.  An entry
    /// is an exact-size slice of [`SpecEntry`]s — only what the candidate
    /// generation reads — whose results are handles, so the many keys that
    /// yield the same specialization share its one node.
    pub(crate) specs: ShardedMap<(Shared<Formula>, InContext), Arc<[SpecEntry]>>,
    /// Cached ≠-congruence candidates: `(inequality, literal) →
    /// Option<(rewritten, cost)>`, all three formulas interned handles.
    /// Branch-independent (the value depends only on the two interned
    /// nodes), so one entry serves every branch, deepening level and goal
    /// that re-derives the pair.
    pub(crate) rewrites: ShardedMap<(Shared<Formula>, Shared<Formula>), Option<Rewrite>>,
    /// Completed root-goal outcomes.  A session asked to settle a goal it
    /// has already settled — the watch-mode loop re-deriving an unchanged
    /// view, a synthesis batch repeating a goal at two depths — answers from
    /// here without searching.  Keying by the goal sequent alone is sound
    /// because every search budget that could change the outcome lives in
    /// the session's [`ProverConfig`], fixed at session construction.
    pub(crate) goals: ShardedMap<Sequent, GoalOutcome>,
}

/// A settled root goal, as remembered by a session: the proof found (with
/// the deepening level that found it) or the failure report.
#[derive(Debug, Clone)]
pub(crate) enum GoalOutcome {
    /// Proved; replaying returns a clone of the same proof object.
    Proved {
        proof: Box<Proof>,
        risky_level: usize,
    },
    /// Search exhausted its budgets; replaying returns the same error.
    Failed(String),
}

impl SearchCaches {
    pub(crate) fn new() -> SearchCaches {
        SearchCaches {
            memo: ShardedMap::new(),
            specs: ShardedMap::new(),
            rewrites: ShardedMap::new(),
            goals: ShardedMap::new(),
        }
    }

    /// Recompute every specialization and rewrite entry from its key and
    /// compare: a specialization entry must list, in order, the results of
    /// `max_specializations` that used an atom, each ranked `size` when it
    /// contains a conjunction (risky) and `2 + size` otherwise; a rewrite
    /// entry must equal [`compute_rewrite`].  Returns the numbers of
    /// specialization and rewrite entries checked, or the first
    /// disagreement.
    pub(crate) fn verify(&self, cfg: &ProverConfig) -> Result<(usize, usize), String> {
        let mut first_error = None;
        let mut specs = 0;
        self.specs.for_each(|(quant, ctx), entries| {
            specs += 1;
            let expected: Vec<(Formula, usize, bool)> =
                max_specializations(quant, ctx, cfg.spec_limit)
                    .into_iter()
                    .filter(|ms| !ms.used.is_empty())
                    .map(|ms| {
                        let (size, risky) = (ms.result.size(), contains_and(&ms.result));
                        (ms.result, if risky { size } else { 2 + size }, risky)
                    })
                    .collect();
            let cached: Vec<(Formula, usize, bool)> = entries
                .iter()
                .map(|e| (e.result.value().clone(), e.cost as usize, e.risky))
                .collect();
            if cached != expected && first_error.is_none() {
                first_error = Some(format!(
                    "specializations of {quant} under [{ctx}]: cached {cached:?}, expected {expected:?}"
                ));
            }
        });
        let mut rewrites = 0;
        self.rewrites.for_each(|(ineq, atom), cached| {
            rewrites += 1;
            // only ≠ literals are ever probed as rewriters
            let expected = match ineq.value() {
                Formula::NeqUr(t, u) => Some(compute_rewrite(atom, t, u)),
                _ => None,
            };
            if expected.as_ref() != Some(cached) && first_error.is_none() {
                first_error = Some(format!(
                    "rewrite of {atom} by {ineq}: cached {cached:?}, expected {expected:?}"
                ));
            }
        });
        match first_error {
            Some(e) => Err(e),
            None => Ok((specs, rewrites)),
        }
    }
}

/// The set of specializations introduced along the current branch (they may
/// later disappear from the right-hand side when the invertible phase
/// decomposes them, and must not be re-introduced, which would loop forever).
///
/// A persistent cons list: extending is an O(1) push sharing the whole tail
/// with the parent state, and the order-independent combined hash makes the
/// set usable inside memo keys without materializing it.
#[derive(Debug, Clone, Default)]
struct UsedSpecs {
    head: Option<Arc<UsedNode>>,
    hash: u64,
}

#[derive(Debug)]
struct UsedNode {
    spec: Shared<Formula>,
    prev: Option<Arc<UsedNode>>,
}

impl UsedSpecs {
    fn contains(&self, f: &Shared<Formula>) -> bool {
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            if node.spec.ptr_eq(f) {
                return true;
            }
            cur = node.prev.as_deref();
        }
        false
    }

    /// A copy with one more spec (specs are never pushed twice: candidate
    /// generation filters out already-used specs).
    fn push(&self, spec: Shared<Formula>) -> UsedSpecs {
        UsedSpecs {
            hash: self.hash ^ formula_hash_mixed(&spec),
            head: Some(Arc::new(UsedNode {
                spec,
                prev: self.head.clone(),
            })),
        }
    }
}

/// A candidate rule with its rank; candidate lists are ordered by
/// `(cost, seqno)`, where `seqno` is the deterministic generation counter
/// (so ties preserve discovery order).
#[derive(Debug, Clone)]
struct RankedRule {
    cost: usize,
    seqno: usize,
    rule: Rule,
}

/// An append-only persistent sequence of candidate batches: extending is an
/// O(1) cons of the new batch, sharing the whole tail with the parent state.
/// Used for the two high-volume constant-cost candidate classes, where
/// generation order already equals rank order.
#[derive(Debug, Clone, Default)]
struct Chain {
    head: Option<Arc<ChainNode>>,
    len: usize,
}

#[derive(Debug)]
struct ChainNode {
    batch: Vec<RankedRule>,
    prev: Option<Arc<ChainNode>>,
}

impl Chain {
    fn push_batch(&mut self, batch: Vec<RankedRule>) {
        if batch.is_empty() {
            return;
        }
        self.len += batch.len();
        self.head = Some(Arc::new(ChainNode {
            batch,
            prev: self.head.take(),
        }));
    }

    /// Iterate oldest-first, skipping the first `skip` items.
    fn iter_from(&self, skip: usize) -> ChainIter<'_> {
        let mut nodes = Vec::new();
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            nodes.push(node);
            cur = node.prev.as_deref();
        }
        nodes.reverse();
        let mut it = ChainIter {
            nodes,
            node: 0,
            item: 0,
        };
        let mut remaining = skip;
        while remaining > 0 && it.node < it.nodes.len() {
            let avail = it.nodes[it.node].batch.len() - it.item;
            if remaining >= avail {
                remaining -= avail;
                it.node += 1;
                it.item = 0;
            } else {
                it.item += remaining;
                remaining = 0;
            }
        }
        it
    }
}

struct ChainIter<'a> {
    nodes: Vec<&'a ChainNode>,
    node: usize,
    item: usize,
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = &'a RankedRule;
    fn next(&mut self) -> Option<&'a RankedRule> {
        while self.node < self.nodes.len() {
            let batch = &self.nodes[self.node].batch;
            if self.item < batch.len() {
                let out = &batch[self.item];
                self.item += 1;
                return Some(out);
            }
            self.node += 1;
            self.item = 0;
        }
        None
    }
}

/// Per-class counts of leading candidates known to be dead.  Every skip
/// condition of the scan (`rewritten`/`spec` already present, spec already
/// used, rewrite budget exhausted) is *monotone along a branch*, so a
/// candidate skipped at a state stays skippable at every descendant — the
/// child starts its scan past the prefix the parent already refuted.
///
/// Positional counts are only sound for the **append-only** classes (the
/// chains and the closing vector): extensions there always land after the
/// counted prefix.  The `specs`/`risky` classes use sorted insertion, where
/// a cheaper new candidate could slip *inside* a counted prefix, so those
/// two are always scanned from the start (they stay small).
#[derive(Debug, Clone, Copy, Default)]
struct DeadCounts {
    closing: usize,
    eqs: usize,
    noisy: usize,
}

/// The candidate moves of an existential-leading phase, inherited and
/// extended down the branch, bucketed by rank class.  The scan order is
/// closing rewrites (cost 0), then specializations merged with equality
/// rewrites by `(cost, seqno)`, then the noisy inequality rewrites — the
/// same ranking the engine used when it kept one flat sorted list.
#[derive(Debug, Clone, Default)]
struct Moves {
    /// Closing rewrites (the premise gains `a = a`); cost 0.
    closing: Arc<Vec<RankedRule>>,
    /// Safe ∃ specializations, sorted by `(2 + size, seqno)`.
    specs: Arc<Vec<RankedRule>>,
    /// Equality-atom rewrites; constant cost 6, generation-ordered.
    eqs: Chain,
    /// Inequality-atom rewrites (equation composition); constant cost 1000,
    /// generation-ordered.
    noisy: Chain,
    /// Risky (conjunction-introducing) ∃ specializations, sorted by
    /// `(size, seqno)`.
    risky: Arc<Vec<RankedRule>>,
    /// Leading candidates this branch has already refuted, per class.
    dead: DeadCounts,
}

fn insert_ranked(list: &mut Arc<Vec<RankedRule>>, item: RankedRule) {
    let pos = list.partition_point(|r| (r.cost, r.seqno) <= (item.cost, item.seqno));
    Arc::make_mut(list).insert(pos, item);
}

/// Freshly generated candidates, collected per class before being merged
/// into a [`Moves`] (so the chain classes get one O(1) batch push).
#[derive(Debug, Default)]
struct MoveBatch {
    closing: Vec<RankedRule>,
    specs: Vec<RankedRule>,
    eqs: Vec<RankedRule>,
    noisy: Vec<RankedRule>,
    risky: Vec<RankedRule>,
}

impl MoveBatch {
    fn merge_into(self, moves: &mut Moves) {
        if !self.closing.is_empty() {
            Arc::make_mut(&mut moves.closing).extend(self.closing);
        }
        for item in self.specs {
            insert_ranked(&mut moves.specs, item);
        }
        moves.eqs.push_batch(self.eqs);
        moves.noisy.push_batch(self.noisy);
        for item in self.risky {
            insert_ranked(&mut moves.risky, item);
        }
    }
}

struct State<'a> {
    cfg: &'a ProverConfig,
    visited: usize,
    aborted: bool,
    /// The absolute wall-clock deadline ([`ProverConfig::deadline`] resolved
    /// against this goal's start time), if any.
    deadline: Option<Instant>,
    /// Set alongside `aborted` when the abort came from the wall-clock
    /// deadline: the whole search stops and reports [`ProofError::Timeout`],
    /// and nothing is recorded in the goal-outcome cache.
    timed_out: bool,
    /// The session's cooperative cancellation token
    /// ([`ProverSession::cancel`]), if the search runs under one.
    ext_cancel: Option<&'a AtomicBool>,
    /// Set alongside `aborted` when the abort came from `ext_cancel`: the
    /// whole search stops and reports [`ProofError::Cancelled`], uncached.
    ext_cancelled: bool,
    trace: bool,
    /// The session-shared caches (failure memo, specializations, rewrite
    /// candidates) — see `SearchCaches`.
    caches: &'a SearchCaches,
    memo_hits: usize,
    memo_misses: usize,
    rewrite_hits: usize,
    rewrite_misses: usize,
    occ_pairs: usize,
    occ_pruned: usize,
    move_seqno: usize,
}

/// Prove `Θ ; ⊢ Δ` (one-sided), returning a checked proof object.
///
/// The search recursion can get deep (one stack frame per saturation step),
/// so the search runs on a dedicated thread with a large stack; callers see an
/// ordinary synchronous function.  This convenience entry point spins up a
/// throwaway [`ProverSession`]; callers proving several related goals should
/// create one session and reuse it, which shares the failure memo (and the
/// worker thread) across the goals.
pub fn prove_sequent(
    sequent: &Sequent,
    cfg: &ProverConfig,
) -> Result<(Proof, ProverStats), ProofError> {
    ProverSession::new(cfg.clone()).prove_sequent(sequent)
}

/// The search proper; runs on a session worker thread (big stack).
/// `ext_cancel` is the session's cooperative cancellation token, observed at
/// state-visit granularity alongside the wall-clock deadline.
pub(crate) fn prove_sequent_inner(
    sequent: &Sequent,
    cfg: &ProverConfig,
    caches: &SearchCaches,
    ext_cancel: Option<&AtomicBool>,
) -> Result<(Proof, ProverStats), ProofError> {
    nrs_obs::init_from_env();
    let m = obs();
    m.goals.inc();
    let mut goal_span = nrs_obs::span("prover.goal");
    if let Some(outcome) = caches.goals.get(sequent) {
        m.goal_cache_hits.inc();
        goal_span.record("cached", true);
        return match outcome {
            GoalOutcome::Proved { proof, risky_level } => {
                let stats = ProverStats {
                    risky_level,
                    proof_size: proof.size(),
                    goal_cache_hits: 1,
                    ..ProverStats::default()
                };
                Ok((*proof, stats))
            }
            // Only budget verdicts are ever cached (timeouts and
            // cancellations return before the insertion below), so a replayed
            // failure is by construction a budget exhaustion.
            GoalOutcome::Failed(msg) => Err(ProofError::BudgetExhausted(msg)),
        };
    }
    let interner_before = nrs_delta0::intern_stats();
    let memo_before = caches.memo.stats();
    let start = Instant::now();
    let mut st = State {
        cfg,
        visited: 0,
        aborted: false,
        deadline: cfg.deadline.map(|d| start + d),
        timed_out: false,
        ext_cancel,
        ext_cancelled: false,
        // Per-visit events are expensive (one formatted event per search
        // state); they ride the span layer's `detailed` flag, which
        // `NRS_PROVER_TRACE` still turns on via `init_from_env` above.
        trace: nrs_obs::detailed(),
        caches,
        memo_hits: 0,
        memo_misses: 0,
        rewrite_hits: 0,
        rewrite_misses: 0,
        occ_pairs: 0,
        occ_pruned: 0,
        move_seqno: 0,
    };
    for level in 0..=cfg.max_risky {
        st.aborted = false;
        let used = UsedSpecs::default();
        let mut level_span = nrs_obs::span("prover.deepen").with("level", level);
        let visited_before = st.visited;
        let outcome = attempt(sequent, level, 0, &used, None, &mut st);
        level_span.record("visited", st.visited - visited_before);
        level_span.record("proved", outcome.is_some());
        drop(level_span);
        if let Some(proof) = outcome {
            let interner_after = nrs_delta0::intern_stats();
            let stats = ProverStats {
                visited: st.visited,
                risky_level: level,
                proof_size: proof.size(),
                memo_hits: st.memo_hits,
                memo_misses: st.memo_misses,
                interner_hits: interner_after.hits - interner_before.hits,
                interner_misses: interner_after.misses - interner_before.misses,
                rewrite_cache_hits: st.rewrite_hits,
                rewrite_cache_misses: st.rewrite_misses,
                occ_join_pairs: st.occ_pairs,
                occ_join_pruned: st.occ_pruned,
                goal_cache_hits: 0,
                memo_lock: caches.memo.stats() - memo_before,
            };
            caches.goals.insert(
                sequent.clone(),
                GoalOutcome::Proved {
                    proof: Box::new(proof.clone()),
                    risky_level: level,
                },
            );
            m.proved.inc();
            m.record_stats(&stats);
            m.goal_seconds.record_duration(start.elapsed());
            goal_span.record("proved", true);
            goal_span.record("level", level);
            goal_span.record("visited", stats.visited);
            return Ok((proof, stats));
        }
        // Transient aborts return immediately and are NOT cached: the same
        // goal retried with more time (or without the cancellation) could
        // succeed, and the session's goal-outcome cache must only remember
        // verdicts that are stable for its configuration.
        if st.timed_out {
            m.timeouts.inc();
            m.visited.add(st.visited as u64);
            m.goal_seconds.record_duration(start.elapsed());
            nrs_obs::error("prover.timeout", format_args!("visited {}", st.visited));
            return Err(ProofError::Timeout {
                elapsed_ms: start.elapsed().as_millis() as u64,
                visited: st.visited,
            });
        }
        if st.ext_cancelled {
            m.cancelled.inc();
            m.visited.add(st.visited as u64);
            m.goal_seconds.record_duration(start.elapsed());
            return Err(ProofError::Cancelled);
        }
        if st.visited >= cfg.max_states {
            break;
        }
    }
    let msg = format!(
        "no proof found within budgets (visited {} states, max risky {})",
        st.visited, cfg.max_risky
    );
    caches
        .goals
        .insert(sequent.clone(), GoalOutcome::Failed(msg.clone()));
    m.failed.inc();
    m.visited.add(st.visited as u64);
    m.memo_hits.add(st.memo_hits as u64);
    m.memo_misses.add(st.memo_misses as u64);
    m.rewrite_cache_hits.add(st.rewrite_hits as u64);
    m.rewrite_cache_misses.add(st.rewrite_misses as u64);
    m.goal_seconds.record_duration(start.elapsed());
    goal_span.record("proved", false);
    goal_span.record("visited", st.visited);
    Err(ProofError::BudgetExhausted(msg))
}

/// Convenience wrapper: prove that `assumptions` entail one of `goals` under
/// the membership context `ctx` (a two-sided sequent `Θ; Γ ⊢ Δ`).
pub fn prove(
    ctx: &InContext,
    assumptions: &[Formula],
    goals: &[Formula],
    cfg: &ProverConfig,
) -> Result<(Proof, ProverStats), ProofError> {
    let seq = Sequent::two_sided(
        ctx.clone(),
        assumptions.iter().cloned(),
        goals.iter().cloned(),
    );
    prove_sequent(&seq, cfg)
}

/// Does the formula contain a conjunction anywhere?  Specializations with
/// conjunctions force case splits when decomposed, so they are the "risky"
/// moves explored with backtracking.
fn contains_and(f: &Formula) -> bool {
    match f {
        Formula::And(_, _) => true,
        Formula::Or(a, b) => contains_and(a) || contains_and(b),
        Formula::Forall { body, .. } | Formula::Exists { body, .. } => contains_and(body),
        _ => false,
    }
}

/// Remember that a specialization has been introduced along the current
/// branch.  Only the ∃ rule extends the set; every other rule shares it.
fn extend_used(used: &UsedSpecs, rule: &Rule) -> UsedSpecs {
    match rule {
        Rule::Exists { spec, .. } => used.push(spec.clone()),
        _ => used.clone(),
    }
}

fn find_axiom(seq: &Sequent) -> Option<Rule> {
    for f in seq.equalities() {
        if let Formula::EqUr(t, u) = f.value() {
            if t == u {
                return Some(Rule::EqRefl { term: t.clone() });
            }
        }
    }
    if seq.contains(&Formula::True) {
        return Some(Rule::Top);
    }
    None
}

impl<'a> State<'a> {
    /// The ∃ candidates of `quant` under `ctx`, through the session cache.
    fn specializations(&mut self, quant: &Shared<Formula>, ctx: &InContext) -> Arc<[SpecEntry]> {
        let key = (quant.clone(), ctx.clone());
        if let Some(cached) = self.caches.specs.get(&key) {
            return cached;
        }
        // computed outside any lock: enumeration can be expensive, and two
        // workers racing on the same key simply overwrite with equal values
        let entries = spec_entries(max_specializations(quant, ctx, self.cfg.spec_limit));
        self.caches.specs.insert(key, entries.clone());
        entries
    }

    /// The branch-independent rewrite for an (inequality, literal) pair,
    /// through the session cache (both keys are interned nodes, so the
    /// probe is O(1) and the cached value is valid for every state that
    /// re-derives the pair).
    fn rewrite_candidate(
        &mut self,
        ineq: &Shared<Formula>,
        atom: &Shared<Formula>,
        t: &Term,
        u: &Term,
    ) -> Option<Rewrite> {
        let key = (ineq.clone(), atom.clone());
        if let Some(cached) = self.caches.rewrites.get(&key) {
            self.rewrite_hits += 1;
            return cached;
        }
        self.rewrite_misses += 1;
        let computed = compute_rewrite(atom, t, u);
        self.caches.rewrites.insert(key, computed.clone());
        computed
    }

    fn next_seqno(&mut self) -> usize {
        self.move_seqno += 1;
        self.move_seqno
    }
}

/// The branch-independent part of a ≠-congruence candidate: the rewritten
/// atom (interned) and its rank, or `None` when the pair can never yield a
/// move.
fn compute_rewrite(atom: &Formula, t: &Term, u: &Term) -> Option<Rewrite> {
    let rewritten = atom.replace_term(t, u);
    if &rewritten == atom || matches!(&rewritten, Formula::NeqUr(a, b) if a == b) {
        return None;
    }
    let cost = if matches!(&rewritten, Formula::EqUr(a, b) if a == b) {
        0
    } else if matches!(atom, Formula::EqUr(_, _)) {
        6
    } else {
        1000
    };
    Some((Shared::new(rewritten), cost))
}

/// A ≠-congruence candidate's branch-independent part: the rewritten
/// literal and its rank.
type Rewrite = (Shared<Formula>, usize);

/// What the search reads of one maximal specialization: the result, its
/// rank and its class.  The specialization cache keeps these, at exact
/// size, for the specializations that used at least one atom — the others
/// leave the quantifier as it is and are never candidates.
#[derive(Debug)]
pub(crate) struct SpecEntry {
    /// The added maximal specialization.
    result: Shared<Formula>,
    /// Its rank: `size` for a risky result, `2 + size` for a safe one.
    cost: u32,
    /// Does the result contain a conjunction (a risky, case-splitting move)?
    risky: bool,
}

/// The cached form of a `max_specializations` enumeration, in its order.
fn spec_entries(specs: Vec<MaxSpecialization>) -> Arc<[SpecEntry]> {
    specs
        .into_iter()
        .filter(|ms| !ms.used.is_empty())
        .map(|ms| {
            let risky = contains_and(&ms.result);
            let size = ms.result.size();
            let cost = if risky { size } else { 2 + size };
            SpecEntry {
                result: Shared::new(ms.result),
                cost: u32::try_from(cost).unwrap_or(u32::MAX),
                risky,
            }
        })
        .collect()
}

/// Generate the ≠-congruence candidates for one (inequality, atom) pair.
/// Rewriting equality atoms is how positive equational reasoning happens in
/// the one-sided calculus; rewriting inequality atoms composes equations and
/// is occasionally needed, but mostly generates noise, so it ranks last.
/// Closing rewrites (producing `a = a`) rank first.
fn push_neq_candidates(
    seq: &Sequent,
    ineq: &Shared<Formula>,
    atom: &Shared<Formula>,
    batch: &mut MoveBatch,
    st: &mut State,
) {
    let (t, u) = match ineq.value() {
        Formula::NeqUr(t, u) if t != u => (t, u),
        _ => return,
    };
    if !matches!(atom.value(), Formula::EqUr(_, _) | Formula::NeqUr(_, _)) {
        return;
    }
    let Some((rewritten, cost)) = st.rewrite_candidate(ineq, atom, t, u) else {
        return;
    };
    if seq.contains_handle(&rewritten) {
        return;
    }
    let rule = Rule::Neq {
        ineq: ineq.clone(),
        atom: atom.clone(),
        rewritten,
    };
    let item = RankedRule {
        cost,
        seqno: st.next_seqno(),
        rule,
    };
    match cost {
        0 => batch.closing.push(item),
        6 => batch.eqs.push(item),
        _ => batch.noisy.push(item),
    }
}

/// Generate the ∃ candidates for one existential: its maximal specializations
/// with respect to the ∈-context.  Safe specializations (no conjunction) rank
/// by size among the safe moves — large ones spawn fresh universals and can
/// otherwise starve the finishing moves; conjunction-introducing ones are the
/// risky backtracking points, smallest (goal-instantiation-like) first.
fn push_exists_candidates(
    seq: &Sequent,
    quant: &Shared<Formula>,
    used: &UsedSpecs,
    batch: &mut MoveBatch,
    st: &mut State,
) {
    let specs = st.specializations(quant, &seq.ctx);
    for entry in specs.iter() {
        if used.contains(&entry.result) {
            continue;
        }
        // "Already present" may only be used as a *generation-time* filter
        // for shapes the calculus never removes from the right-hand side:
        // an ∧/∨/∀ result that currently coincides with a formula in Δ can
        // become absent again once the invertible phase decomposes that
        // formula, and an inherited list must not have dropped it for good.
        // (Application time re-checks presence either way.)
        let removable = matches!(
            entry.result.value(),
            Formula::And(_, _) | Formula::Or(_, _) | Formula::Forall { .. }
        );
        if !removable && seq.contains_handle(&entry.result) {
            continue;
        }
        let item = RankedRule {
            cost: entry.cost as usize,
            seqno: st.next_seqno(),
            rule: Rule::Exists {
                quant: quant.clone(),
                spec: entry.result.clone(),
            },
        };
        if entry.risky {
            batch.risky.push(item);
        } else {
            batch.specs.push(item);
        }
    }
}

/// The literals a given inequality `t ≠ u` can rewrite, via the sequent's
/// occurrence index: the bucket of one free variable of `t` (a superset of
/// the literals `t` occurs in — see [`Sequent::eq_literals_with_var`]), or
/// the full literal slice when `t` is ground.  Restriction of a sorted slice
/// preserves iteration order, and no *productive* pair is ever dropped, so
/// the generated candidates (and their sequence numbers) are identical to
/// the full join's.
fn atoms_for<'s>(seq: &'s Sequent, t: &Term, st: &mut State) -> Atoms<'s> {
    let atoms = match t.first_free_var() {
        Some(v) => Atoms::Bucket(seq.eq_literals_with_var(&v).iter()),
        None => Atoms::All(seq.eq_literals().iter()),
    };
    st.occ_pairs += atoms.len();
    st.occ_pruned += seq.eq_literals().len() - atoms.len();
    atoms
}

/// Iterator behind [`atoms_for`]: one occurrence-index bucket, or the whole
/// literal slice; both in sorted order.
enum Atoms<'s> {
    Bucket(LiteralsIter<'s>),
    All(std::slice::Iter<'s, Shared<Formula>>),
}

impl<'s> Iterator for Atoms<'s> {
    type Item = &'s Shared<Formula>;

    fn next(&mut self) -> Option<&'s Shared<Formula>> {
        match self {
            Atoms::Bucket(it) => it.next(),
            Atoms::All(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Atoms::Bucket(it) => it.size_hint(),
            Atoms::All(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Atoms<'_> {}

/// The inequalities whose left term can occur in the literal `f`, visited in
/// sorted (full-scan) order without allocating.  Single-variable literals —
/// the common case — iterate one occurrence-index bucket directly: buckets
/// sort variant-first, so their ≠ literals form a contiguous suffix and the
/// whole visit is a subslice walk.  Other shapes scan the inequality slice
/// with a free-variable subset test read off the cached node sets (if the
/// left term occurs in `f`, every free variable of the term is free in `f`).
/// Both paths are sorted supersets of the productive rewriters: only pairs
/// `compute_rewrite` would reject are skipped, so the generated candidates
/// (and their sequence numbers) are identical to the full join's.
fn rewriters_for<'s>(seq: &'s Sequent, f: &'s Formula) -> Rewriters<'s> {
    if seq.ground_lhs_inequalities().is_empty() {
        if let Some(v) = sole_free_var(f) {
            let bucket = seq.eq_literals_with_var(&v);
            return Rewriters::Bucket(bucket.inequalities().iter());
        }
    }
    Rewriters::Scan {
        inner: seq.inequalities().iter(),
        lit: f,
    }
}

/// The one free variable of `f`, if it has exactly one.
fn sole_free_var(f: &Formula) -> Option<nrs_value::Name> {
    let mut sole = None;
    let mut several = false;
    f.for_each_free_var(&mut |v| match sole {
        None => sole = Some(*v),
        Some(s) if s != *v => several = true,
        Some(_) => {}
    });
    if several {
        None
    } else {
        sole
    }
}

/// Is `v` free in the literal `lit`?  (Literals have no binders.)
fn literal_mentions(lit: &Formula, v: &nrs_value::Name) -> bool {
    match lit {
        Formula::EqUr(t, u) | Formula::NeqUr(t, u) | Formula::Mem(t, u) | Formula::NotMem(t, u) => {
            t.mentions(v) || u.mentions(v)
        }
        _ => lit.free_vars_arc().contains(v),
    }
}

/// Iterator behind [`rewriters_for`]; both variants borrow the sequent's
/// slices and yield in sorted order.
enum Rewriters<'s> {
    /// The ≠ suffix of one occurrence-index bucket.
    Bucket(LiteralsIter<'s>),
    /// The inequality slice, filtered by the subset test against the
    /// literal's free variables.
    Scan {
        inner: std::slice::Iter<'s, Shared<Formula>>,
        lit: &'s Formula,
    },
}

impl<'s> Iterator for Rewriters<'s> {
    type Item = &'s Shared<Formula>;
    fn next(&mut self) -> Option<&'s Shared<Formula>> {
        match self {
            Rewriters::Bucket(it) => it.next(),
            Rewriters::Scan { inner, lit } => {
                for ineq in inner {
                    let Formula::NeqUr(t, _) = ineq.value() else {
                        continue;
                    };
                    let mut inside = true;
                    t.for_each_free_var(&mut |v| inside &= literal_mentions(lit, v));
                    if inside {
                        return Some(ineq);
                    }
                }
                None
            }
        }
    }
}

/// The witness for a ∀ step: the smallest `ev#k` name fresh for the sequent.
/// Equivalent to `NameGen::avoiding(seq.free_vars().iter()).fresh("ev")` —
/// and it must stay exactly that, so identical sequents keep introducing
/// identical witnesses — but it reads the names straight off the context's
/// terms and the formulas' cached free-variable sets, and each name's
/// suffix as the interner parsed it ([`nrs_value::Name::numeric_suffix`]):
/// no set is built and no string is parsed, so the step allocates only the
/// witness name.
fn fresh_eigenvariable(seq: &Sequent) -> nrs_value::Name {
    let mut max = 0u64;
    let mut scan = |n: &nrs_value::Name| {
        if let Some(k) = n.numeric_suffix() {
            max = max.max(k + 1);
        }
    };
    for atom in seq.ctx.iter() {
        atom.elem.for_each_free_var(&mut scan);
        atom.set.for_each_free_var(&mut scan);
    }
    for f in seq.rhs() {
        f.free_vars_set().iter().for_each(&mut scan);
    }
    nrs_value::Name::new(format!("ev#{max}"))
}

/// Full candidate scan, used when (re-)entering an existential-leading phase:
/// an occurrence-indexed join of the inequality slice against the literal
/// buckets, plus the specializations of the existential slice.
fn full_moves(seq: &Sequent, used: &UsedSpecs, st: &mut State) -> Moves {
    let mut moves = Moves::default();
    let mut batch = MoveBatch::default();
    for ineq in seq.inequalities() {
        let Formula::NeqUr(t, _) = ineq.value() else {
            unreachable!("the inequality slice holds only ≠ literals")
        };
        for atom in atoms_for(seq, t, st) {
            push_neq_candidates(seq, ineq, atom, &mut batch, st);
        }
    }
    for quant in seq.existentials() {
        push_exists_candidates(seq, quant, used, &mut batch, st);
    }
    batch.merge_into(&mut moves);
    moves
}

/// Build the candidate moves a premise inherits: the parent's moves (shared),
/// the dead-prefix counts the parent's scan established, and the new
/// candidates arising from the formulas the applied rule added (the
/// "delta") — occurrence-indexed joins against the per-kind slices.
fn child_moves(
    premise: &Sequent,
    parent: &Moves,
    delta: &[&Shared<Formula>],
    dead: DeadCounts,
    used: &UsedSpecs,
    st: &mut State,
) -> Moves {
    let mut moves = parent.clone();
    moves.dead = dead;
    let mut batch = MoveBatch::default();
    for &f in delta {
        match f.value() {
            Formula::EqUr(_, _) => {
                // a new atom for every inequality that can rewrite it
                let total = premise.inequalities().len();
                let mut seen = 0;
                for ineq in rewriters_for(premise, f) {
                    seen += 1;
                    push_neq_candidates(premise, ineq, f, &mut batch, st);
                }
                st.occ_pairs += seen;
                st.occ_pruned += total - seen;
            }
            Formula::NeqUr(t, _) => {
                // as a new inequality against every literal containing its
                // left term (including itself)…
                for atom in atoms_for(premise, t, st) {
                    push_neq_candidates(premise, f, atom, &mut batch, st);
                }
                // …and as a new atom for the other inequalities
                let total = premise.inequalities().len();
                let mut seen = 0;
                for ineq in rewriters_for(premise, f) {
                    seen += 1;
                    if ineq != f {
                        push_neq_candidates(premise, ineq, f, &mut batch, st);
                    }
                }
                st.occ_pairs += seen;
                st.occ_pruned += total - seen;
            }
            Formula::Exists { .. } => push_exists_candidates(premise, f, used, &mut batch, st),
            _ => {}
        }
    }
    batch.merge_into(&mut moves);
    moves
}

/// Find the highest-ranked applicable safe move: closing rewrites, then
/// specializations merged with equality rewrites by `(cost, seqno)`, then
/// the noisy rewrites.  Every candidate examined before the chosen one is
/// dead (its skip condition is monotone), so the returned [`DeadCounts`]
/// tell the child where to resume.
/// Forward candidate moves through one invertible step.  The decomposed
/// principal (∧/∨/∀) is never a candidate source, and every scan skip is
/// monotone, so the premise keeps the parent's candidates and dead counts;
/// only the pieces the step adds contribute new candidates.  A ∀ step also
/// extends the ∈-context, which can enable new specializations of *every*
/// existential, so its premise rebuilds the two specialization classes from
/// the per-kind slice (memoized per (quantifier, context) in the spec cache).
fn forward_moves(
    parent: &Moves,
    principal: &Formula,
    rule: &Rule,
    premise_index: usize,
    premise: &Sequent,
    used: &UsedSpecs,
    st: &mut State,
) -> Moves {
    match (principal, rule) {
        (Formula::And(a, b), Rule::And { .. }) => {
            let component = if premise_index == 0 { a } else { b };
            child_moves(premise, parent, &[component], parent.dead, used, st)
        }
        (Formula::Or(a, b), Rule::Or { .. }) => {
            child_moves(premise, parent, &[a, b], parent.dead, used, st)
        }
        (Formula::Forall { var, body, .. }, Rule::Forall { witness, .. }) => {
            let mut base = parent.clone();
            base.specs = Arc::new(Vec::new());
            base.risky = Arc::new(Vec::new());
            let mut batch = MoveBatch::default();
            for quant in premise.existentials() {
                push_exists_candidates(premise, quant, used, &mut batch, st);
            }
            batch.merge_into(&mut base);
            match forall_instance_literal(premise, var, body, witness) {
                Some(literal) => child_moves(premise, &base, &[literal], base.dead, used, st),
                None => base,
            }
        }
        _ => unreachable!("invertible phase only decomposes ∧/∨/∀"),
    }
}

/// The instantiation `body[witness/var]` a ∀ premise holds, when it is an
/// (in)equality literal — the only instantiations that seed candidates —
/// read off the premise instead of substituted a second time.  The witness
/// is fresh for the conclusion, so when the body mentions `var` the
/// instantiation is the one formula of the premise containing the witness:
/// a literal instantiation is the witness's whole occurrence bucket.  A body
/// without `var` is its own instantiation.
fn forall_instance_literal<'s>(
    premise: &'s Sequent,
    var: &nrs_value::Name,
    body: &'s Shared<Formula>,
    witness: &nrs_value::Name,
) -> Option<&'s Shared<Formula>> {
    let instance = if body.free_vars_set().contains(var) {
        let bucket = premise.eq_literals_with_var(witness);
        debug_assert!(bucket.len() <= 1, "the witness occurs in one formula");
        bucket.first()?
    } else {
        body
    };
    debug_assert_eq!(
        instance.value(),
        &body.subst_var(var, &Term::Var(*witness)),
        "the premise holds the instantiation"
    );
    matches!(instance.value(), Formula::EqUr(_, _) | Formula::NeqUr(_, _)).then_some(instance)
}

/// The outcome of the safe-move scan: the chosen rule (if any) with the dead
/// counts its child inherits (prefix + the chosen rule itself), plus the
/// dead prefix alone — what risky children may resume from, since the chosen
/// rule stays applicable on their branches.
struct SafePick<'m> {
    chosen: Option<(&'m RankedRule, DeadCounts)>,
    dead_prefix: DeadCounts,
}

fn pick_safe_move<'m>(
    seq: &Sequent,
    moves: &'m Moves,
    rewrites_used: usize,
    used: &UsedSpecs,
    st: &mut State,
) -> SafePick<'m> {
    let mut dead = moves.dead;
    for r in moves.closing.iter().skip(dead.closing) {
        if still_applicable(seq, &r.rule, rewrites_used, used, st.cfg) {
            let mut child = dead;
            child.closing += 1;
            return SafePick {
                chosen: Some((r, child)),
                dead_prefix: dead,
            };
        }
        dead.closing += 1;
    }
    let mut specs = moves.specs.iter().peekable();
    let mut eqs = moves.eqs.iter_from(dead.eqs).peekable();
    loop {
        let take_spec = match (specs.peek(), eqs.peek()) {
            (Some(sp), Some(eq)) => (sp.cost, sp.seqno) <= (eq.cost, eq.seqno),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (r, class) = if take_spec {
            (*specs.peek().expect("peeked"), 0)
        } else {
            (*eqs.peek().expect("peeked"), 1)
        };
        if still_applicable(seq, &r.rule, rewrites_used, used, st.cfg) {
            let mut child = dead;
            if class == 1 {
                child.eqs += 1;
            }
            return SafePick {
                chosen: Some((r, child)),
                dead_prefix: dead,
            };
        }
        if class == 0 {
            specs.next();
        } else {
            eqs.next();
            dead.eqs += 1;
        }
    }
    for r in moves.noisy.iter_from(dead.noisy) {
        if still_applicable(seq, &r.rule, rewrites_used, used, st.cfg) {
            let mut child = dead;
            child.noisy += 1;
            return SafePick {
                chosen: Some((r, child)),
                dead_prefix: dead,
            };
        }
        dead.noisy += 1;
    }
    SafePick {
        chosen: None,
        dead_prefix: dead,
    }
}

/// Filters that depend on state accumulated since a candidate was generated,
/// re-checked at application time.  All probes compare handles by pointer:
/// a scan of one variant-rank slice of Δ, and a walk of the used specs.
fn still_applicable(
    seq: &Sequent,
    rule: &Rule,
    rewrites_used: usize,
    used: &UsedSpecs,
    cfg: &ProverConfig,
) -> bool {
    match rule {
        Rule::Neq { rewritten, .. } => {
            rewrites_used < cfg.max_rewrites && !seq.contains_handle(rewritten)
        }
        Rule::Exists { spec, .. } => !seq.contains_handle(spec) && !used.contains(spec),
        _ => true,
    }
}

/// The formula a safe/risky move adds to its premise (the "delta" its child
/// state extends the inherited candidates with).
fn added_formula(rule: &Rule) -> &Shared<Formula> {
    match rule {
        Rule::Neq { rewritten, .. } => rewritten,
        Rule::Exists { spec, .. } => spec,
        other => unreachable!("saturation applies only ≠/∃ rules, got {}", other.name()),
    }
}

fn attempt(
    seq: &Sequent,
    risky_budget: usize,
    rewrites_used: usize,
    used: &UsedSpecs,
    inherited: Option<Moves>,
    st: &mut State,
) -> Option<Proof> {
    if st.aborted {
        return None;
    }
    if st.trace {
        // The span-layer successor of the old `NRS_PROVER_TRACE` eprintln:
        // one detailed event per visited state, attached to the enclosing
        // deepening span (the text sink renders it as a single stderr line).
        nrs_obs::event(
            "prover.visit",
            vec![
                ("visited", st.visited.into()),
                ("risky", risky_budget.into()),
                ("rewrites", rewrites_used.into()),
                ("sequent", seq.to_string().into()),
            ],
        );
    }
    st.visited += 1;
    if st.visited >= st.cfg.max_states {
        st.aborted = true;
        return None;
    }
    if let Some(deadline) = st.deadline {
        if Instant::now() >= deadline {
            st.aborted = true;
            st.timed_out = true;
            return None;
        }
    }
    if let Some(flag) = st.ext_cancel {
        if flag.load(Ordering::Relaxed) {
            st.aborted = true;
            st.ext_cancelled = true;
            return None;
        }
    }

    // 1. axioms
    if let Some(rule) = find_axiom(seq) {
        return Some(Proof::by_unchecked(seq.clone(), rule, vec![]));
    }

    // 2. invertible decomposition (∧ / ∨ / ∀ are invertible, so no
    //    backtracking over them).  Candidate moves flow *through* the phase:
    //    the principal formula is never a candidate source, so ∧/∨ premises
    //    inherit everything plus the deltas from their components, and the ∀
    //    premise inherits the rewrite classes while its specialization
    //    classes are rebuilt under the extended ∈-context.
    if let Some(f) = seq.first_invertible() {
        let f = f.clone();
        let rule = match f.value() {
            Formula::And(_, _) => Rule::And { conj: f.clone() },
            Formula::Or(_, _) => Rule::Or { disj: f.clone() },
            // The eigenvariable is a deterministic function of the state
            // (the smallest fresh `ev#k`), not of the path that reached it:
            // identical sequents reached along different branches — or while
            // proving different goals — introduce identical witnesses, so
            // their subtrees coincide and the failure memo can see it.
            Formula::Forall { .. } => Rule::Forall {
                quant: f.clone(),
                witness: fresh_eigenvariable(seq),
            },
            _ => unreachable!(),
        };
        let premises = rule.premises_unchecked(seq);
        let mut sub = Vec::with_capacity(premises.len());
        for (i, p) in premises.iter().enumerate() {
            let forwarded = inherited
                .as_ref()
                .map(|m| forward_moves(m, &f, &rule, i, p, used, st));
            sub.push(attempt(
                p,
                risky_budget,
                rewrites_used,
                used,
                forwarded,
                st,
            )?);
        }
        return Some(Proof::by_unchecked(seq.clone(), rule, sub));
    }

    // 3. memoized failure?  (a cheap hash probe: the sequent hash is cached)
    let key = MemoKey {
        seq: seq.key(),
        rewrites_used,
        used_hash: used.hash,
    };
    if let Some(known) = st.caches.memo.get(&key) {
        if risky_budget <= known {
            st.memo_hits += 1;
            return None;
        }
    }
    st.memo_misses += 1;

    // 4. candidate moves: inherited (already extended by the parent) when
    //    possible, recomputed from the per-kind slices otherwise
    let moves = match inherited {
        Some(moves) => moves,
        None => full_moves(seq, used, st),
    };

    let room = seq.rhs().len() < st.cfg.max_formulas;

    // 5. apply the highest-ranked applicable safe move (saturation proceeds
    //    one deterministic step at a time; the recursive call picks up the
    //    remaining moves).
    if room {
        let picked = pick_safe_move(seq, &moves, rewrites_used, used, st);
        let safe_dead_prefix = picked.dead_prefix;
        if let Some((ranked, child_dead)) = picked.chosen {
            {
                let premises = ranked.rule.premises_unchecked(seq);
                let rewrites = rewrites_used + usize::from(matches!(ranked.rule, Rule::Neq { .. }));
                let extended_used = extend_used(used, &ranked.rule);
                let delta = [added_formula(&ranked.rule)];
                let inherited =
                    child_moves(&premises[0], &moves, &delta, child_dead, &extended_used, st);
                if let Some(sub) = attempt(
                    &premises[0],
                    risky_budget,
                    rewrites,
                    &extended_used,
                    Some(inherited),
                    st,
                ) {
                    return Some(Proof::by_unchecked(
                        seq.clone(),
                        ranked.rule.clone(),
                        vec![sub],
                    ));
                }
                // a safe move never needs alternatives: it only adds
                // information, so if the extended sequent is unprovable
                // within budget, so is this one — fall through to the risky
                // moves.
            }
        }

        // 6. risky moves with backtracking (smallest specializations first:
        //    they tend to be goal instantiations).
        if risky_budget > 0 {
            let cfg = st.cfg;
            for ranked in moves
                .risky
                .iter()
                .filter(|r| still_applicable(seq, &r.rule, rewrites_used, used, cfg))
            {
                if st.aborted {
                    return None;
                }
                let premises = ranked.rule.premises_unchecked(seq);
                let extended_used = extend_used(used, &ranked.rule);
                let delta = [added_formula(&ranked.rule)];
                // the append-only safe classes resume from the prefix the
                // safe scan refuted; the sorted classes rescan from 0
                let inherited = child_moves(
                    &premises[0],
                    &moves,
                    &delta,
                    safe_dead_prefix,
                    &extended_used,
                    st,
                );
                if let Some(sub) = attempt(
                    &premises[0],
                    risky_budget - 1,
                    rewrites_used,
                    &extended_used,
                    Some(inherited),
                    st,
                ) {
                    return Some(Proof::by_unchecked(
                        seq.clone(),
                        ranked.rule.clone(),
                        vec![sub],
                    ));
                }
            }
        }
    }

    // 7. record failure — but never while aborting, which would poison the
    //    shared memo with states that merely ran out of the state budget
    if !st.aborted {
        st.caches
            .memo
            .merge(key, risky_budget, |cur, new| *cur = (*cur).max(new));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::entail::{check_sequent_bounded, BoundedCheck};
    use nrs_delta0::macros as d0;
    use nrs_delta0::typing::TypeEnv;
    use nrs_delta0::MemAtom;
    use nrs_delta0::Term;
    use nrs_proof::check_proof;
    use nrs_value::{Name, NameGen, Type};

    fn cfg() -> ProverConfig {
        ProverConfig::default()
    }

    #[test]
    fn proves_propositional_tautologies() {
        // ⊢ x = y ∨ x ≠ y   (excluded middle for Ur equality)
        let goal = Formula::or(Formula::eq_ur("x", "y"), Formula::neq_ur("x", "y"));
        let (proof, stats) = prove(&InContext::new(), &[], &[goal], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());
        assert_eq!(stats.risky_level, 0);

        // ⊤ and reflexivity
        let (p2, _) = prove(&InContext::new(), &[], &[Formula::True], &cfg()).unwrap();
        assert!(check_proof(&p2).is_ok());
        let (p3, _) = prove(&InContext::new(), &[], &[Formula::eq_ur("a", "a")], &cfg()).unwrap();
        assert!(check_proof(&p3).is_ok());
    }

    #[test]
    fn rejects_invalid_goals() {
        // ⊢ x = y is not valid
        let out = prove(
            &InContext::new(),
            &[],
            &[Formula::eq_ur("x", "y")],
            &ProverConfig::quick(),
        );
        assert!(out.is_err());
        // ⊢ ⊥ is not valid
        let out = prove(
            &InContext::new(),
            &[],
            &[Formula::False],
            &ProverConfig::quick(),
        );
        assert!(out.is_err());
    }

    #[test]
    fn equality_reasoning_via_congruence() {
        // x = y, y = z ⊢ x = z   (two-sided: assumptions on the left)
        let assumptions = [Formula::eq_ur("x", "y"), Formula::eq_ur("y", "z")];
        let goal = Formula::eq_ur("x", "z");
        let (proof, _) = prove(&InContext::new(), &assumptions, &[goal], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());
        // symmetry
        let (proof, _) = prove(
            &InContext::new(),
            &[Formula::eq_ur("x", "y")],
            &[Formula::eq_ur("y", "x")],
            &cfg(),
        )
        .unwrap();
        assert!(check_proof(&proof).is_ok());
    }

    #[test]
    fn bounded_quantifier_reasoning() {
        // x ∈ S ⊢ ∃z ∈ S . z = x
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let goal = Formula::exists("z", "S", Formula::eq_ur("z", "x"));
        let (proof, _) = prove(&ctx, &[], &[goal], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());

        // ∀-introduction: ⊢ ∀z ∈ S . z = z
        let goal = Formula::forall("z", "S", Formula::eq_ur("z", "z"));
        let (proof, _) = prove(&InContext::new(), &[], &[goal], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());

        // the paper's primitive-membership example:
        // x ∈ y, x ∈ y' ⊢ ∃z ∈ y . z ∈ y'
        let ctx = InContext::from_atoms([MemAtom::new("x", "y"), MemAtom::new("x", "y2")]);
        let goal = Formula::exists("z", "y", Formula::mem("z", "y2"));
        // the goal uses a primitive membership, which cannot be closed by the
        // Δ0 rules (there is no membership axiom); instead prove the ∈̂ variant
        let mut gen = NameGen::new();
        let goal_hat = Formula::exists(
            "z",
            "y",
            d0::member_hat(&Type::Ur, &Term::var("z"), &Term::var("y2"), &mut gen),
        );
        let _ = goal; // the primitive variant is exercised in the entailment tests
        let (proof, _) = prove(&ctx, &[], &[goal_hat], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());
    }

    #[test]
    fn subset_transitivity_over_sets_of_atoms() {
        // A ⊆ B, B ⊆ C ⊢ A ⊆ C   where ⊆ is the Δ0 macro
        let mut gen = NameGen::new();
        let ab = d0::subset(&Type::Ur, &Term::var("A"), &Term::var("B"), &mut gen);
        let bc = d0::subset(&Type::Ur, &Term::var("B"), &Term::var("C"), &mut gen);
        let ac = d0::subset(&Type::Ur, &Term::var("A"), &Term::var("C"), &mut gen);
        let (proof, _) = prove(&InContext::new(), &[ab, bc], &[ac], &cfg()).unwrap();
        assert!(check_proof(&proof).is_ok());
    }

    #[test]
    fn proves_a_small_view_determinacy_goal_and_result_is_semantically_valid() {
        // Views V1 = {x ∈ S | x ∈̂ F}, V2 = {x ∈ S | ¬(x ∈̂ F)} determine S: S ≡ V1 ∪ V2,
        // stated as implicit definability of S from V1, V2 relative to the specs.
        // Here we prove a core piece: the two view specs entail S ⊆ "V1 ∪ V2",
        // expressed without ∪ as  ∀x ∈ S. x ∈̂ V1 ∨ x ∈̂ V2.
        let mut gen = NameGen::new();
        let ur = Type::Ur;
        let in_f =
            |x: &str, g: &mut NameGen| d0::member_hat(&ur, &Term::var(x), &Term::var("F"), g);
        // soundness+completeness specs for V1 and V2 (only the directions needed)
        let v1_complete = Formula::forall(
            "x",
            "S",
            d0::implies(
                in_f("x", &mut gen),
                d0::member_hat(&ur, &Term::var("x"), &Term::var("V1"), &mut gen),
            ),
        );
        let v2_complete = Formula::forall(
            "x",
            "S",
            d0::implies(
                in_f("x", &mut gen).negate(),
                d0::member_hat(&ur, &Term::var("x"), &Term::var("V2"), &mut gen),
            ),
        );
        let goal = Formula::forall(
            "x",
            "S",
            Formula::or(
                d0::member_hat(&ur, &Term::var("x"), &Term::var("V1"), &mut gen),
                d0::member_hat(&ur, &Term::var("x"), &Term::var("V2"), &mut gen),
            ),
        );
        let (proof, _) = prove(
            &InContext::new(),
            &[v1_complete.clone(), v2_complete.clone()],
            std::slice::from_ref(&goal),
            &cfg(),
        )
        .unwrap();
        assert!(check_proof(&proof).is_ok());
        // cross-check the sequent semantically on a small universe
        let env = TypeEnv::from_pairs([
            (Name::new("S"), Type::set(Type::Ur)),
            (Name::new("F"), Type::set(Type::Ur)),
            (Name::new("V1"), Type::set(Type::Ur)),
            (Name::new("V2"), Type::set(Type::Ur)),
        ]);
        let out = check_sequent_bounded(
            &InContext::new(),
            &[v1_complete, v2_complete],
            &[goal],
            &env,
            &BoundedCheck {
                universe: 2,
                max_models: 2_000_000,
            },
        )
        .unwrap();
        assert!(out.is_valid());
    }

    #[test]
    fn unprovable_quantified_goal_fails_quickly() {
        // x ∈ S ⊢ ∀z ∈ S . z = x   is invalid
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let goal = Formula::forall("z", "S", Formula::eq_ur("z", "x"));
        assert!(prove(&ctx, &[], &[goal], &ProverConfig::quick()).is_err());
    }

    #[test]
    fn stats_are_reported() {
        let goal = Formula::or(Formula::eq_ur("x", "y"), Formula::neq_ur("x", "y"));
        let (_, stats) = prove(&InContext::new(), &[], &[goal], &cfg()).unwrap();
        assert!(stats.visited >= 1);
        assert!(stats.proof_size >= 2);
        // a quantified goal over structured terms makes the search construct
        // (hence intern) the instantiated bodies
        let goal = Formula::forall(
            "z",
            "S",
            Formula::eq_ur(Term::proj1(Term::var("z")), Term::proj1(Term::var("z"))),
        );
        let (_, stats) = prove(&InContext::new(), &[], &[goal], &cfg()).unwrap();
        assert!(stats.interner_hits + stats.interner_misses > 0);
    }

    #[test]
    fn deadlines_report_timeout_distinct_from_budget_exhaustion() {
        // an unprovable goal: both configurations give up, for different reasons
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let goal = Formula::forall("z", "S", Formula::eq_ur("z", "x"));
        let seq = Sequent::two_sided(ctx, [], [goal]);
        // a zero deadline fires at the very first state visit
        let session = ProverSession::new(ProverConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..ProverConfig::quick()
        });
        let err = session.prove_sequent(&seq).unwrap_err();
        assert!(err.is_timeout(), "expected Timeout, got {err:?}");
        assert_eq!(
            session.goal_cache_len(),
            0,
            "timeouts must never enter the goal-outcome cache"
        );
        // the same goal without a deadline exhausts its budgets instead —
        // a stable verdict, which the session does remember
        let session = ProverSession::new(ProverConfig::quick());
        let err = session.prove_sequent(&seq).unwrap_err();
        assert!(
            matches!(err, ProofError::BudgetExhausted(_)),
            "expected BudgetExhausted, got {err:?}"
        );
        assert_eq!(session.goal_cache_len(), 1);
        let replayed = session.prove_sequent(&seq).unwrap_err();
        assert!(matches!(replayed, ProofError::BudgetExhausted(_)));
    }

    #[test]
    fn cancelled_sessions_refuse_goals_until_reset() {
        let session = ProverSession::new(ProverConfig::quick());
        let seq = Sequent::goals([Formula::True]);
        session.cancel();
        assert!(session.is_cancelled());
        let err = session.prove_sequent(&seq).unwrap_err();
        assert!(matches!(err, ProofError::Cancelled), "got {err:?}");
        assert_eq!(session.goal_cache_len(), 0, "cancellations are not cached");
        session.reset_cancel();
        assert!(session.prove_sequent(&seq).is_ok());
    }

    #[test]
    fn spec_entries_keep_the_used_results_in_order_with_their_ranks() {
        let safe = Formula::exists("w", "S", Formula::eq_ur("w", "c"));
        let risky = Formula::exists(
            "w",
            "S",
            Formula::and(Formula::eq_ur("w", "c"), Formula::neq_ur("w", "d")),
        );
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "S")]);
        for (quant, is_risky) in [(&safe, false), (&risky, true)] {
            let specs = max_specializations(quant, &ctx, 10);
            let entries = spec_entries(specs.clone());
            assert_eq!(entries.len(), 2);
            for (entry, ms) in entries.iter().zip(&specs) {
                assert_eq!(
                    entry.result.value(),
                    &ms.result,
                    "enumeration order is kept"
                );
                assert_eq!(entry.risky, is_risky);
                let size = ms.result.size();
                let cost = if is_risky { size } else { 2 + size };
                assert_eq!(entry.cost as usize, cost);
            }
        }
        // a quantifier no atom applies to is its own (atom-free) maximal
        // specialization, which is never a candidate
        let unbound = Formula::exists("w", "T", Formula::eq_ur("w", "c"));
        assert_eq!(max_specializations(&unbound, &ctx, 10).len(), 1);
        assert!(spec_entries(max_specializations(&unbound, &ctx, 10)).is_empty());
    }

    #[test]
    fn used_specs_behave_as_a_persistent_set() {
        let a = Shared::new(Formula::eq_ur("x", "y"));
        let b = Shared::new(Formula::eq_ur("u", "v"));
        let base = UsedSpecs::default();
        let one = base.push(a.clone());
        let two = one.push(b.clone());
        assert!(!base.contains(&a));
        assert!(one.contains(&a) && !one.contains(&b));
        assert!(two.contains(&a) && two.contains(&b));
        // pushes share the tail; hashes are order-independent
        let two_rev = base.push(b).push(a);
        assert_eq!(two.hash, two_rev.hash);
        assert_ne!(two.hash, one.hash);
    }
}
