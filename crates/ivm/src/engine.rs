//! The delta-propagation engine over the physical-plan IR.
//!
//! A [`MaintainedQuery`] instantiates a [`Plan`] as a tree of stateful
//! operator nodes, each holding whatever cache its delta rule needs:
//!
//! * `Union`/`Diff` keep their own materialized output and re-derive
//!   membership transitions of touched elements from the children's exact
//!   deltas;
//! * a **filter** — the loop shape `⋃{ guard(φ(x); {x}) | x ∈ R }`, i.e.
//!   `{x ∈ R | φ(x)}`, which every synthesized view compiles to (an answer
//!   or shared fragment whose condition only probes the operands of its
//!   `∪`-range plans as their union instead) — keeps **no per-member state**: each output
//!   element is produced only by the member equal to it, so the output set
//!   itself records which members pass.  A round retires deleted members,
//!   re-evaluates `φ` for the surviving members a probe delta lists, and
//!   evaluates `φ` for inserted members, each an exact transition against
//!   the output.  The fill (build, refill) is the set-at-a-time kernel
//!   [`exec_filter`]: a `φ` over probes `member(x, H)` evaluates each
//!   haystack once and walks `R` in order against it, merging (or probing
//!   a haystack much larger than `R`), so a fill allocates per output node,
//!   not per member.  Per-member tests go through [`holds_bound`], which
//!   decides `φ` without building `Set(Unit)` Booleans;
//! * every other `ForUnion` (projections, flattens, nested loops) keeps a
//!   per-member cache of evaluated loop bodies plus **multiset support
//!   counts** of the output elements, so deletions (a member leaving, or a
//!   body shrinking) are sound even when several members contribute the
//!   same tuple;
//! * `HashJoin` keeps both key indexes and applies the bilinear rule
//!   `Δ(A ⋈ B) = ΔA ⋈ B ∪ A' ⋈ ΔB`, with the same support counts on the
//!   produced tuples;
//! * `Guard` caches its condition's emptiness and flips between `∅` and the
//!   maintained body wholesale;
//! * `Let` maintains the bound subplan once and feeds its delta to the
//!   body's `Var` references through the update context — the maintained
//!   counterpart of the evaluator's shared values;
//! * every other operator falls back to recompute-on-dirty: re-execute the
//!   subplan when a dependency changed and diff the outputs.
//!
//! ### Correlated loop bodies
//!
//! Loop bodies are evaluated per member, so a delta on a relation the body
//! mentions can invalidate cached bodies.  At build time each loop analyses
//! its body: a relation whose only occurrences are membership probes with
//! the loop binder as the needle (`member(x, R)` under binder `x` — the
//! shape every synthesized filter takes) is a **probe dependency**, and a
//! delta on it invalidates exactly the cached members it lists.  Anything
//! else is a **hard dependency** and falls back to a full refill of that
//! node.  This is what makes the synthesized rewritings maintainable in
//! O(|Δ| log n): their bodies only touch other relations through such
//! probes.  Bodies, conditions and join keys are evaluated with the binder
//! on the executor's frame stack ([`exec_plan_bound`]), not in a copied
//! environment.
//!
//! All node outputs, and every per-operator cache, index and support count,
//! live on persistent B-trees ([`SetValue`], [`PMap`]): a delta edits only
//! the `O(|Δ| log n)` nodes on its paths, in place while nothing else
//! shares them, by path copying while a published snapshot or a rollback
//! point does.  A [`MaintainedPlan`] keeps its operator tree behind an
//! `Arc` too, so cloning one is `O(1)` and the next propagation copies only
//! the `O(#operators)` node structure, never the data.  That is how
//! [`apply_transactional`][MaintainedQuery::apply_transactional] takes its
//! rollback point on every batch and rolls back by assignment.
//!
//! A `ForUnion`/`Filter`/`HashJoin` delta runs in **evaluation rounds**:
//! it first evaluates loop bodies, filter conditions or join bodies for
//! every affected member (pure work that touches no state), then replays
//! the cache, index, count and output mutations in member order.  A failed
//! evaluation therefore leaves the round's state untouched.  The rounds and
//! the members they touched are reported through
//! [`MaintainedQuery::maint_stats`].

use crate::batch::{DeltaSet, UpdateBatch};
use crate::IvmError;
use nrs_nrc::{
    exec_filter, exec_plan, exec_plan_bound, filter_cond, holds_bound, CompiledQuery, Plan,
};
use nrs_value::{Instance, Name, PMap, SetValue, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached handles into the global [`nrs_obs`] registry.  The counters mirror
/// [`MaintStats`] (per-apply deltas are folded in at the end of
/// [`MaintainedQuery::apply`]); the histograms carry apply latency and
/// batch size.
struct ObsMetrics {
    applies: Arc<nrs_obs::Counter>,
    rounds: Arc<nrs_obs::Counter>,
    touched_members: Arc<nrs_obs::Counter>,
    apply_seconds: Arc<nrs_obs::Histogram>,
    delta_tuples: Arc<nrs_obs::Histogram>,
}

fn obs() -> &'static ObsMetrics {
    static METRICS: OnceLock<ObsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        ObsMetrics {
            applies: r.counter("ivm.applies_total"),
            rounds: r.counter("ivm.rounds_total"),
            touched_members: r.counter("ivm.touched_members_total"),
            apply_seconds: r.timer("ivm.apply_seconds"),
            delta_tuples: r.histogram("ivm.delta_tuples"),
        }
    })
}

/// Per-operator-kind delta timers, recorded only under
/// [`nrs_obs::detailed`] (one clock pair per operator visit is too much for
/// the always-on path).
fn op_timer(kind: &'static str) -> Arc<nrs_obs::Histogram> {
    static TIMERS: OnceLock<HashMap<&'static str, Arc<nrs_obs::Histogram>>> = OnceLock::new();
    let map = TIMERS.get_or_init(|| {
        let r = nrs_obs::global();
        [
            "var",
            "union",
            "difference",
            "guard",
            "for-union",
            "join",
            "let",
            "opaque",
        ]
        .into_iter()
        .map(|k| (k, r.timer(&format!("ivm.op.{k}_seconds"))))
        .collect()
    });
    Arc::clone(&map[kind])
}

/// A compiled query's maintained operator tree, apart from the instance it
/// reads: every call that reads inputs takes the environment.  Several
/// plans over the same inputs — the view stages of a workload, its answers
/// — share one instance this way, so a batch is applied to the inputs once
/// and no plan holds a private copy of a relation.  [`MaintainedQuery`]
/// pairs a plan with its own environment.
///
/// Every operator of the plan carries a stable **preorder index** (its
/// position in a preorder walk of the [`Plan`] tree), reported by
/// [`coverage`][MaintainedPlan::coverage] and used by
/// [`IvmError::Operator`] to say *where* a batch failed.  An operator whose
/// delta rule misbehaves can be [degraded][MaintainedPlan::degrade] to the
/// recompute-on-dirty fallback without touching the rest of the plan —
/// indices do not shift when operators are degraded.
///
/// A clone shares every maintained set and operator state with the
/// original (see the module docs), so it is a cheap rollback point.
#[derive(Debug, Clone)]
pub struct MaintainedPlan {
    query: Arc<CompiledQuery>,
    /// The operator tree; shared by clones until the next propagation
    /// copies its (data-independent) node structure.
    root: Arc<Node>,
    /// Preorder indices forced to the recompute-on-dirty fallback.
    degraded: BTreeSet<usize>,
    /// Cumulative round counters (see [`MaintStats`]).
    stats: MaintStats,
}

/// A compiled query kept incrementally up to date under [`UpdateBatch`]es:
/// a [`MaintainedPlan`] over an environment of its own.
#[derive(Debug, Clone)]
pub struct MaintainedQuery {
    plan: MaintainedPlan,
    env: Instance,
}

/// Cumulative counters of the evaluation rounds of one [`MaintainedQuery`]
/// (or, summed by the serving layer, one maintained rewriting).  Snapshot
/// before and after a workload and subtract to attribute rounds to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Evaluation rounds executed (see the module docs).
    pub rounds: u64,
    /// Work items (members / delta tuples) evaluated across all rounds.
    pub touched_members: u64,
}

impl std::ops::AddAssign for MaintStats {
    fn add_assign(&mut self, rhs: MaintStats) {
        self.rounds += rhs.rounds;
        self.touched_members += rhs.touched_members;
    }
}

impl std::ops::Sub for MaintStats {
    type Output = MaintStats;
    /// Counter delta between two snapshots (saturating).
    fn sub(self, before: MaintStats) -> MaintStats {
        MaintStats {
            rounds: self.rounds.saturating_sub(before.rounds),
            touched_members: self.touched_members.saturating_sub(before.touched_members),
        }
    }
}

impl MaintainedPlan {
    /// Materialize the query over `env` and set up the operator caches.
    ///
    /// The environment must bind every free variable of the plan; a missing
    /// binding is reported as [`IvmError::UnboundRelation`] here rather
    /// than panicking mid-maintenance later.
    pub fn new(query: &CompiledQuery, env: &Instance) -> Result<MaintainedPlan, IvmError> {
        MaintainedPlan::with_degraded(query, env, BTreeSet::new())
    }

    /// Like [`MaintainedPlan::new`], but with the given operators (by
    /// preorder index) forced to the recompute-on-dirty fallback from the
    /// start.
    pub fn with_degraded(
        query: &CompiledQuery,
        env: &Instance,
        degraded: BTreeSet<usize>,
    ) -> Result<MaintainedPlan, IvmError> {
        check_env_binds(query.plan(), env)?;
        check_degradable(query.plan(), &degraded)?;
        let root = Builder::new(&degraded).build(query.plan(), env)?;
        Ok(MaintainedPlan {
            query: Arc::new(query.clone()),
            root: Arc::new(root),
            degraded,
            stats: MaintStats::default(),
        })
    }

    /// Cumulative round counters since construction.
    pub fn maint_stats(&self) -> MaintStats {
        self.stats
    }

    /// The maintained output value over `env`, the instance the plan was
    /// last built or propagated over.
    pub fn value<'a>(&'a self, env: &'a Instance) -> &'a Value {
        self.root.value(env)
    }

    /// Propagate an **exact** batch whose effect `env` already includes:
    /// `env` is the previous environment with `exact` applied (as
    /// [`UpdateBatch::apply`] computes it), and `exact` is normalized
    /// against the previous environment
    /// ([`UpdateBatch::normalize_against`]).  Returns the exact delta of
    /// the output.
    ///
    /// The output must be set-valued (views are); maintaining a scalar query
    /// is reported as [`IvmError::NotASet`].
    pub fn propagate(&mut self, env: &Instance, exact: &UpdateBatch) -> Result<DeltaSet, IvmError> {
        if exact.is_empty() {
            return Ok(DeltaSet::new());
        }
        let m = obs();
        let mut apply_span = nrs_obs::span("ivm.apply");
        let apply_start = Instant::now();
        let stats_before = self.stats;
        let delta_tuples = exact.len();
        let mut ctx = Ctx::default();
        for (name, delta) in exact.relations() {
            ctx.changes.insert(
                *name,
                NameChange {
                    delta: Some(delta.clone()),
                    old: None,
                },
            );
        }
        let change = Arc::make_mut(&mut self.root).update(&mut ctx, env);
        self.stats += ctx.stats;
        let applied = self.stats - stats_before;
        m.applies.inc();
        m.rounds.add(applied.rounds);
        m.touched_members.add(applied.touched_members);
        m.delta_tuples.record(delta_tuples as u64);
        m.apply_seconds.record_duration(apply_start.elapsed());
        apply_span.record("delta_tuples", delta_tuples);
        apply_span.record("rounds", applied.rounds);
        apply_span.record("touched_members", applied.touched_members);
        drop(apply_span);
        match change? {
            Change::None => Ok(DeltaSet::new()),
            Change::Delta(d) => Ok(d),
            Change::Replaced { old } => {
                let new = self.root.value(env);
                match (old.as_set(), new.as_set()) {
                    (Ok(o), Ok(n)) => Ok(DeltaSet::diff(o, n)),
                    _ => Err(IvmError::NotASet(Name::new("<output>"))),
                }
            }
        }
    }

    /// Throw away all operator caches and re-materialize over `env` (keeping
    /// the degraded-operator set) — how [`degrade`][MaintainedPlan::degrade]
    /// takes effect, and the recovery path after a failed
    /// [`propagate`][MaintainedPlan::propagate] left the caches
    /// unspecified.
    pub fn rebuild(&mut self, env: &Instance) -> Result<(), IvmError> {
        check_env_binds(self.query.plan(), env)?;
        self.root = Arc::new(Builder::new(&self.degraded).build(self.query.plan(), env)?);
        Ok(())
    }

    /// Record operator `op` (preorder index) as degraded without rebuilding.
    /// Takes effect at the next [`rebuild`][MaintainedPlan::rebuild].
    pub fn mark_degraded(&mut self, op: usize) -> Result<(), IvmError> {
        check_degradable(self.query.plan(), &BTreeSet::from([op]))?;
        self.degraded.insert(op);
        Ok(())
    }

    /// Degrade operator `op` to the recompute-on-dirty fallback and rebuild
    /// the operator tree over `env`.  Maintenance stays correct (the
    /// fallback re-executes the subplan when a dependency changes); only
    /// the per-batch cost of that subtree grows.
    pub fn degrade(&mut self, op: usize, env: &Instance) -> Result<(), IvmError> {
        self.mark_degraded(op)?;
        self.rebuild(env)
    }

    /// The operators currently degraded (by preorder index).
    pub fn degraded(&self) -> &BTreeSet<usize> {
        &self.degraded
    }

    /// Per-operator maintenance coverage: how each operator of the plan is
    /// kept up to date (exact delta rule, recompute-on-dirty fallback, or
    /// explicitly degraded).
    pub fn coverage(&self) -> CoverageReport {
        let mut ops = Vec::new();
        collect_coverage(&self.root, &self.degraded, &mut ops);
        CoverageReport { ops }
    }

    /// Re-execute the plan from scratch on `env` and compare with the
    /// maintained value — the engine's internal consistency oracle.
    pub fn consistency_check(&self, env: &Instance) -> Result<bool, IvmError> {
        let fresh = self.query.execute(env)?;
        Ok(&fresh == self.value(env))
    }
}

impl MaintainedQuery {
    /// Materialize the query over `env` and set up the operator caches (see
    /// [`MaintainedPlan::new`]).
    pub fn new(query: &CompiledQuery, env: &Instance) -> Result<MaintainedQuery, IvmError> {
        MaintainedQuery::with_degraded(query, env, BTreeSet::new())
    }

    /// Like [`MaintainedQuery::new`], but with the given operators (by
    /// preorder index) forced to the recompute-on-dirty fallback from the
    /// start.
    pub fn with_degraded(
        query: &CompiledQuery,
        env: &Instance,
        degraded: BTreeSet<usize>,
    ) -> Result<MaintainedQuery, IvmError> {
        Ok(MaintainedQuery {
            plan: MaintainedPlan::with_degraded(query, env, degraded)?,
            env: env.clone(),
        })
    }

    /// Cumulative round counters since construction.
    pub fn maint_stats(&self) -> MaintStats {
        self.plan.maint_stats()
    }

    /// The maintained output value.
    pub fn value(&self) -> &Value {
        self.plan.value(&self.env)
    }

    /// The current input instance (base relations at their post-batch state).
    pub fn env(&self) -> &Instance {
        &self.env
    }

    /// Apply a batch: update the inputs, propagate deltas through the
    /// operator tree, and return the exact delta of the output.
    ///
    /// The output must be set-valued (views are); maintaining a scalar query
    /// is reported as [`IvmError::NotASet`].
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<DeltaSet, IvmError> {
        let exact = batch.normalize_against(&self.env)?;
        // the touched sets are edited in place where nothing else shares
        // them and path-copied where something does
        exact.apply_mut(&mut self.env)?;
        self.plan.propagate(&self.env, &exact)
    }

    /// Apply a batch **transactionally**: on success this is exactly
    /// [`apply`][MaintainedQuery::apply]; on failure the query is rolled
    /// back to its pre-batch state (environment and operator caches) before
    /// the error is returned, so the maintained value stays consistent and
    /// further batches may be applied.
    ///
    /// The rollback point is a clone taken before the batch — `O(1)` in the
    /// data, since every maintained structure is persistent — and rolling
    /// back is an assignment, so it cannot fail.
    pub fn apply_transactional(&mut self, batch: &UpdateBatch) -> Result<DeltaSet, IvmError> {
        let before = self.clone();
        self.apply(batch).inspect_err(|_| *self = before)
    }

    /// Throw away all operator caches and re-materialize over `env` (see
    /// [`MaintainedPlan::rebuild`]); `env` becomes the query's environment.
    pub fn rebuild(&mut self, env: &Instance) -> Result<(), IvmError> {
        self.plan.rebuild(env)?;
        self.env = env.clone();
        Ok(())
    }

    /// Record operator `op` (preorder index) as degraded without rebuilding.
    /// Takes effect at the next [`rebuild`][MaintainedQuery::rebuild].
    pub fn mark_degraded(&mut self, op: usize) -> Result<(), IvmError> {
        self.plan.mark_degraded(op)
    }

    /// Degrade operator `op` to the recompute-on-dirty fallback and rebuild
    /// the operator tree over the current environment (see
    /// [`MaintainedPlan::degrade`]).
    pub fn degrade(&mut self, op: usize) -> Result<(), IvmError> {
        self.plan.degrade(op, &self.env)
    }

    /// The operators currently degraded (by preorder index).
    pub fn degraded(&self) -> &BTreeSet<usize> {
        self.plan.degraded()
    }

    /// Per-operator maintenance coverage (see [`MaintainedPlan::coverage`]).
    pub fn coverage(&self) -> CoverageReport {
        self.plan.coverage()
    }

    /// Re-execute the plan from scratch on the current inputs and compare
    /// with the maintained value — the engine's internal consistency oracle.
    pub fn consistency_check(&self) -> Result<bool, IvmError> {
        self.plan.consistency_check(&self.env)
    }
}

/// Reject plans whose free variables the environment does not bind — the
/// one user error that could otherwise only surface as a panic deep inside
/// an update round.
fn check_env_binds(plan: &Plan, env: &Instance) -> Result<(), IvmError> {
    for n in plan.free_vars() {
        if env.try_get(&n).is_none() {
            return Err(IvmError::UnboundRelation(n));
        }
    }
    Ok(())
}

fn check_degradable(plan: &Plan, degraded: &BTreeSet<usize>) -> Result<(), IvmError> {
    let size = plan_size(plan);
    if let Some(op) = degraded.iter().find(|op| **op >= size) {
        return Err(IvmError::Internal(format!(
            "cannot degrade operator #{op}: the plan has {size} operators"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coverage report (ROADMAP item 5)
// ---------------------------------------------------------------------------

/// How an operator's output is kept up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// A targeted delta rule updates the output in O(|Δ| log n).
    DeltaMaintained,
    /// The subplan is re-executed whenever a dependency changes (the
    /// engine's fallback for operators without a delta rule).
    RecomputeOnDirty,
    /// Explicitly degraded to recompute-on-dirty after its delta rule
    /// failed (see [`MaintainedQuery::degrade`]).
    Degraded,
}

impl std::fmt::Display for Maintenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Maintenance::DeltaMaintained => "delta-maintained",
            Maintenance::RecomputeOnDirty => "recompute-on-dirty",
            Maintenance::Degraded => "degraded",
        })
    }
}

/// One operator's entry in a [`CoverageReport`].
#[derive(Debug, Clone)]
pub struct OperatorCoverage {
    /// Preorder index of the operator in the plan.
    pub op: usize,
    /// Operator kind (`"join"`, `"for-union"`, …).
    pub kind: &'static str,
    /// How the operator is maintained.
    pub mode: Maintenance,
}

/// Per-operator maintenance coverage of one maintained plan: which
/// operators are delta-maintained and which fall back to recomputation.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Entries in preorder (the root operator first).
    pub ops: Vec<OperatorCoverage>,
}

impl CoverageReport {
    /// Number of operators maintained by an exact delta rule.
    pub fn delta_maintained(&self) -> usize {
        self.count(Maintenance::DeltaMaintained)
    }

    /// Number of operators on the recompute-on-dirty fallback by
    /// construction (no delta rule exists for them).
    pub fn recompute_on_dirty(&self) -> usize {
        self.count(Maintenance::RecomputeOnDirty)
    }

    /// Number of operators explicitly degraded after a failure.
    pub fn degraded(&self) -> usize {
        self.count(Maintenance::Degraded)
    }

    /// Every operator runs an exact delta rule (nothing recomputes).
    pub fn fully_incremental(&self) -> bool {
        self.delta_maintained() == self.ops.len()
    }

    fn count(&self, mode: Maintenance) -> usize {
        self.ops.iter().filter(|o| o.mode == mode).count()
    }
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} operators: {} delta-maintained, {} recompute-on-dirty, {} degraded",
            self.ops.len(),
            self.delta_maintained(),
            self.recompute_on_dirty(),
            self.degraded()
        )?;
        for o in &self.ops {
            if o.mode != Maintenance::DeltaMaintained {
                write!(f, "\n  #{} {}: {}", o.op, o.kind, o.mode)?;
            }
        }
        Ok(())
    }
}

fn collect_coverage(node: &Node, degraded: &BTreeSet<usize>, out: &mut Vec<OperatorCoverage>) {
    let mode = match &node.kind {
        Kind::Opaque { .. } if degraded.contains(&node.id) => Maintenance::Degraded,
        Kind::Opaque { .. } => Maintenance::RecomputeOnDirty,
        _ => Maintenance::DeltaMaintained,
    };
    out.push(OperatorCoverage {
        op: node.id,
        kind: kind_name(&node.kind),
        mode,
    });
    match &node.kind {
        Kind::Var(_) | Kind::Opaque { .. } => {}
        Kind::Union(a, b) | Kind::Diff(a, b) => {
            collect_coverage(a, degraded, out);
            collect_coverage(b, degraded, out);
        }
        Kind::Guard { cond, body, .. } => {
            collect_coverage(cond, degraded, out);
            collect_coverage(body, degraded, out);
        }
        Kind::ForUnion(st) => collect_coverage(&st.over, degraded, out),
        Kind::Filter(st) => collect_coverage(&st.over, degraded, out),
        Kind::HashJoin(st) => {
            collect_coverage(&st.left, degraded, out);
            collect_coverage(&st.right, degraded, out);
        }
        Kind::Let { value, body, .. } => {
            collect_coverage(value, degraded, out);
            collect_coverage(body, degraded, out);
        }
    }
}

fn kind_name(kind: &Kind) -> &'static str {
    match kind {
        Kind::Var(_) => "var",
        Kind::Union(..) => "union",
        Kind::Diff(..) => "difference",
        Kind::Guard { .. } => "guard",
        // a filter is a `ForUnion` of the plan: same coverage kind, fault
        // site and operator timer
        Kind::ForUnion(_) | Kind::Filter(_) => "for-union",
        Kind::HashJoin(_) => "join",
        Kind::Let { .. } => "let",
        Kind::Opaque { .. } => "opaque",
    }
}

/// The fault-injection site for an operator kind (see [`crate::fault`]).
fn fault_site(kind: &Kind) -> &'static str {
    match kind {
        Kind::Var(_) => "ivm.var.update",
        Kind::Union(..) => "ivm.union.update",
        Kind::Diff(..) => "ivm.difference.update",
        Kind::Guard { .. } => "ivm.guard.update",
        Kind::ForUnion(_) | Kind::Filter(_) => "ivm.for-union.update",
        Kind::HashJoin(_) => "ivm.join.update",
        Kind::Let { .. } => "ivm.let.update",
        Kind::Opaque { .. } => "ivm.opaque.update",
    }
}

fn apply_delta_value(v: &mut Value, delta: &DeltaSet, what: &str) -> Result<(), IvmError> {
    match v {
        Value::Set(sv) => {
            delta.apply_to(sv);
            Ok(())
        }
        _ if delta.is_empty() => Ok(()),
        _ => Err(IvmError::Internal(format!("{what} output is not a set"))),
    }
}

// ---------------------------------------------------------------------------
// Update context
// ---------------------------------------------------------------------------

/// How one name's binding changed in the current round.
struct NameChange {
    /// Exact set delta; `None` when the change is not set-shaped (then `old`
    /// carries the previous value).
    delta: Option<DeltaSet>,
    /// The previous value for non-set changes.
    old: Option<Value>,
}

/// The per-round update context: base relations changed by the batch plus
/// `Let`-bound names changed by their maintained subplans, and the round
/// counters.
#[derive(Default)]
struct Ctx {
    changes: HashMap<Name, NameChange>,
    stats: MaintStats,
}

/// Run the evaluation phase of a delta round: `f` over every item, in
/// order, returning `(item, f(item))` pairs for the caller to replay its
/// state mutations from.  The first failing item's error is returned.
fn eval_round<T, R>(
    ctx: &mut Ctx,
    items: Vec<T>,
    f: impl Fn(&T) -> Result<R, IvmError>,
) -> Result<Vec<(T, R)>, IvmError> {
    ctx.stats.rounds += 1;
    ctx.stats.touched_members += items.len() as u64;
    let mut out = Vec::with_capacity(items.len());
    for t in items {
        let r = f(&t)?;
        out.push((t, r));
    }
    Ok(out)
}

/// What a node reports about its output after an update round.
enum Change {
    /// Output identical to the previous round.
    None,
    /// Set-valued output changed by exactly this delta.
    Delta(DeltaSet),
    /// Output replaced wholesale (possibly non-set); carries the old value.
    Replaced { old: Value },
}

impl Change {
    fn from_delta(d: DeltaSet) -> Change {
        if d.is_empty() {
            Change::None
        } else {
            Change::Delta(d)
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, Change::None)
    }

    /// View the change as an exact set delta, diffing old vs. new for
    /// wholesale replacements.  `None` means "unchanged".
    fn into_set_delta(self, new: &Value, what: &str) -> Result<Option<DeltaSet>, IvmError> {
        match self {
            Change::None => Ok(None),
            Change::Delta(d) => Ok(Some(d)),
            Change::Replaced { old } => match (old.as_set(), new.as_set()) {
                (Ok(o), Ok(n)) => Ok(Some(DeltaSet::diff(o, n))),
                _ => Err(IvmError::Internal(format!("{what} is not set-valued"))),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Operator nodes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Node {
    /// Preorder index of the operator's plan node — stable across rebuilds
    /// and degradations, so errors and coverage entries can name it.
    id: usize,
    /// The node's materialized output.  Meaningless for `Var` (read from the
    /// environment) and `Let` (pass-through to the body).
    current: Value,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// Environment lookup; the batch is the delta source.
    Var(Name),
    Union(Box<Node>, Box<Node>),
    Diff(Box<Node>, Box<Node>),
    Guard {
        cond: Box<Node>,
        body: Box<Node>,
        nonempty: bool,
    },
    ForUnion(Box<ForUnionState>),
    Filter(Box<FilterState>),
    HashJoin(Box<HashJoinState>),
    Let {
        var: Name,
        value: Box<Node>,
        body: Box<Node>,
        /// The extended environment the body lives in (outer env + binding).
        env_body: Instance,
    },
    /// Recompute-on-dirty fallback for every other operator.
    Opaque {
        plan: Arc<Plan>,
        deps: BTreeSet<Name>,
    },
}

#[derive(Debug, Clone)]
struct ForUnionState {
    var: Name,
    over: Node,
    body: Arc<Plan>,
    deps: LoopDeps,
    /// member → evaluated body (a set value).
    cache: PMap<Value, Value>,
    /// Multiset support: output element → number of members producing it.
    counts: PMap<Value, usize>,
}

/// `{var ∈ over | cond(var)}`: the output (`Node::current`) is the whole
/// state — a member passes exactly when it is in the output.
#[derive(Debug, Clone)]
struct FilterState {
    var: Name,
    over: Node,
    cond: Arc<Plan>,
    deps: LoopDeps,
}

/// The free relations of a loop body (or filter condition), split by how a
/// delta on them reaches the loop (see [`analyze_body`]).
#[derive(Debug, Clone)]
struct LoopDeps {
    /// Relations touched only through `member(var, R)` probes.
    probe: BTreeSet<Name>,
    /// Relations touched any other way (delta ⇒ full refill).
    hard: BTreeSet<Name>,
}

impl LoopDeps {
    /// Did a dependency change in a way the targeted rules don't cover — a
    /// hard dependency, or a probe dependency without a set delta?
    fn need_refill(&self, ctx: &Ctx) -> bool {
        self.hard.iter().any(|n| ctx.changes.contains_key(n))
            || self
                .probe
                .iter()
                .any(|n| matches!(ctx.changes.get(n), Some(nc) if nc.delta.is_none()))
    }

    fn probe_changed(&self, ctx: &Ctx) -> bool {
        self.probe.iter().any(|n| ctx.changes.contains_key(n))
    }

    /// The members whose probes this round's deltas answer differently:
    /// exactly the delta elements (the probe needle is the member), kept
    /// when `live`.
    fn probed(&self, ctx: &Ctx, live: impl Fn(&Value) -> bool) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for n in &self.probe {
            if let Some(NameChange { delta: Some(d), .. }) = ctx.changes.get(n) {
                out.extend(d.elems().filter(|x| live(x)).cloned());
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
struct HashJoinState {
    lvar: Name,
    lkey: Arc<Plan>,
    rvar: Name,
    rkey: Arc<Plan>,
    body: Arc<Plan>,
    left: Node,
    right: Node,
    /// key → probe-side members with that key.
    lindex: PMap<Value, SetValue>,
    /// key → build-side members with that key.
    rindex: PMap<Value, SetValue>,
    /// Multiset support of the produced tuples.
    counts: PMap<Value, usize>,
    /// Free names of keys/body beyond the binders (delta ⇒ full refill).
    hard_deps: BTreeSet<Name>,
}

/// Support-count mutator recording membership transitions of touched
/// elements, from which the node's exact output delta falls out.
struct CountDelta<'a> {
    counts: &'a mut PMap<Value, usize>,
    /// element → was it in the output before this round?
    touched: HashMap<Value, bool>,
}

impl<'a> CountDelta<'a> {
    fn new(counts: &'a mut PMap<Value, usize>) -> CountDelta<'a> {
        CountDelta {
            counts,
            touched: HashMap::new(),
        }
    }

    fn inc(&mut self, v: &Value) {
        match self.counts.get_mut(v) {
            Some(c) => {
                self.touched.entry(v.clone()).or_insert(true);
                *c += 1;
            }
            None => {
                self.touched.entry(v.clone()).or_insert(false);
                self.counts.insert(v.clone(), 1);
            }
        }
    }

    fn dec(&mut self, v: &Value) -> Result<(), IvmError> {
        let Some(c) = self.counts.get_mut(v) else {
            return Err(IvmError::Internal(format!(
                "support count underflow for {v}"
            )));
        };
        self.touched.entry(v.clone()).or_insert(*c > 0);
        *c -= 1;
        if *c == 0 {
            self.counts.remove(v);
        }
        Ok(())
    }

    fn into_delta(self) -> DeltaSet {
        let mut delta = DeltaSet::new();
        for (v, was_in) in self.touched {
            let is_in = self.counts.get(&v).is_some_and(|c| *c > 0);
            match (was_in, is_in) {
                (false, true) => {
                    delta.inserts.insert(v);
                }
                (true, false) => {
                    delta.deletes.insert(v);
                }
                _ => {}
            }
        }
        delta
    }
}

// ---------------------------------------------------------------------------
// Build: instantiate the node tree and materialize the initial state
// ---------------------------------------------------------------------------

/// Number of plan nodes in the subtree — the id space one operator's
/// subtree occupies in the preorder numbering.  Subplans that never become
/// engine nodes (loop bodies, join keys, opaque innards) still own their
/// indices, which is what keeps indices stable when an operator is
/// degraded to an [`Kind::Opaque`] leaf.
fn plan_size(p: &Plan) -> usize {
    1 + match p {
        Plan::Var(_) | Plan::Unit | Plan::Empty => 0,
        Plan::Pair(a, b) | Plan::Union(a, b) | Plan::Diff(a, b) | Plan::Eq(a, b) => {
            plan_size(a) + plan_size(b)
        }
        Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => plan_size(x),
        Plan::Get { arg, .. } => plan_size(arg),
        Plan::Guard { cond, body } => plan_size(cond) + plan_size(body),
        Plan::Member { elem, set } => plan_size(elem) + plan_size(set),
        Plan::ForUnion { over, body, .. } => plan_size(over) + plan_size(body),
        Plan::Let { value, body, .. } => plan_size(value) + plan_size(body),
        Plan::HashJoin {
            left,
            lkey,
            right,
            rkey,
            body,
            ..
        } => {
            plan_size(left) + plan_size(lkey) + plan_size(right) + plan_size(rkey) + plan_size(body)
        }
    }
}

/// Instantiates the node tree, assigning each operator its preorder index
/// and forcing operators in the `degraded` set to the opaque fallback.
struct Builder<'a> {
    degraded: &'a BTreeSet<usize>,
    next: usize,
}

impl<'a> Builder<'a> {
    fn new(degraded: &'a BTreeSet<usize>) -> Builder<'a> {
        Builder { degraded, next: 0 }
    }

    /// Take the next preorder index for `plan`'s root operator.
    fn take(&mut self) -> usize {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Skip over a subplan that does not become an engine node, keeping the
    /// preorder numbering aligned with the plan tree.
    fn skip(&mut self, sub: &Plan) {
        self.next += plan_size(sub);
    }

    fn opaque(&mut self, id: usize, plan: &Plan, env: &Instance) -> Result<Node, IvmError> {
        self.next = id + plan_size(plan); // the whole subtree collapses
        Ok(Node {
            id,
            current: exec_plan(plan, env)?,
            kind: Kind::Opaque {
                plan: Arc::new(plan.clone()),
                deps: plan.free_vars(),
            },
        })
    }

    fn build(&mut self, plan: &Plan, env: &Instance) -> Result<Node, IvmError> {
        let id = self.take();
        if self.degraded.contains(&id) {
            return self.opaque(id, plan, env);
        }
        match plan {
            Plan::Var(n) => Ok(Node {
                id,
                current: Value::Unit, // read through the environment instead
                kind: Kind::Var(*n),
            }),
            Plan::Union(a, b) => {
                let a = self.build(a, env)?;
                let b = self.build(b, env)?;
                let current = a
                    .value(env)
                    .union(b.value(env))
                    .map_err(|e| IvmError::Internal(format!("union: {e}")))?;
                Ok(Node {
                    id,
                    current,
                    kind: Kind::Union(Box::new(a), Box::new(b)),
                })
            }
            Plan::Diff(a, b) => {
                let a = self.build(a, env)?;
                let b = self.build(b, env)?;
                let current = a
                    .value(env)
                    .difference(b.value(env))
                    .map_err(|e| IvmError::Internal(format!("difference: {e}")))?;
                Ok(Node {
                    id,
                    current,
                    kind: Kind::Diff(Box::new(a), Box::new(b)),
                })
            }
            Plan::Guard { cond, body } => {
                let cond = self.build(cond, env)?;
                let body = self.build(body, env)?;
                let nonempty = !set_of(cond.value(env), "guard condition")?.is_empty();
                let current = if nonempty {
                    body.value(env).clone()
                } else {
                    Value::empty_set()
                };
                Ok(Node {
                    id,
                    current,
                    kind: Kind::Guard {
                        cond: Box::new(cond),
                        body: Box::new(body),
                        nonempty,
                    },
                })
            }
            Plan::ForUnion { var, over, body } => {
                let over = self.build(over, env)?;
                self.skip(body);
                let deps = analyze_body(body, &[*var]);
                if let Some(cond) = filter_cond(*var, body) {
                    let state = FilterState {
                        var: *var,
                        over,
                        cond: Arc::new(cond.clone()),
                        deps,
                    };
                    let current = state.fill(env)?;
                    return Ok(Node {
                        id,
                        current,
                        kind: Kind::Filter(Box::new(state)),
                    });
                }
                let mut state = ForUnionState {
                    var: *var,
                    over,
                    body: Arc::new((**body).clone()),
                    deps,
                    cache: PMap::new(),
                    counts: PMap::new(),
                };
                let current = state.fill(env)?;
                Ok(Node {
                    id,
                    current,
                    kind: Kind::ForUnion(Box::new(state)),
                })
            }
            Plan::HashJoin {
                left,
                lvar,
                lkey,
                right,
                rvar,
                rkey,
                body,
            } => {
                let left = self.build(left, env)?;
                self.skip(lkey);
                let right = self.build(right, env)?;
                self.skip(rkey);
                self.skip(body);
                let mut hard_deps = BTreeSet::new();
                for (p, bound) in [
                    (&**lkey, vec![*lvar]),
                    (&**rkey, vec![*rvar]),
                    (&**body, vec![*lvar, *rvar]),
                ] {
                    for n in p.free_vars() {
                        if !bound.contains(&n) {
                            hard_deps.insert(n);
                        }
                    }
                }
                let mut state = HashJoinState {
                    lvar: *lvar,
                    lkey: Arc::new((**lkey).clone()),
                    rvar: *rvar,
                    rkey: Arc::new((**rkey).clone()),
                    body: Arc::new((**body).clone()),
                    left,
                    right,
                    lindex: PMap::new(),
                    rindex: PMap::new(),
                    counts: PMap::new(),
                    hard_deps,
                };
                let current = state.fill(env)?;
                Ok(Node {
                    id,
                    current,
                    kind: Kind::HashJoin(Box::new(state)),
                })
            }
            Plan::Let { var, value, body } => {
                let value = self.build(value, env)?;
                let env_body = env.with(*var, value.value(env).clone());
                let body = self.build(body, &env_body)?;
                Ok(Node {
                    id,
                    current: Value::Unit, // pass-through to the body
                    kind: Kind::Let {
                        var: *var,
                        value: Box::new(value),
                        body: Box::new(body),
                        env_body,
                    },
                })
            }
            other => self.opaque(id, other, env),
        }
    }
}

fn set_of<'a>(v: &'a Value, what: &str) -> Result<&'a SetValue, IvmError> {
    v.as_set()
        .map_err(|_| IvmError::Internal(format!("{what} is not a set")))
}

/// Classify the free names of a loop body (w.r.t. the loop binders): names
/// occurring only as `member(binder, R)` probe haystacks are probe
/// dependencies; every other occurrence makes a name a hard dependency.
fn analyze_body(body: &Plan, binders: &[Name]) -> LoopDeps {
    let mut probe = BTreeSet::new();
    let mut hard = BTreeSet::new();
    let mut bound: Vec<Name> = binders.to_vec();
    walk_body(body, binders, &mut bound, &mut probe, &mut hard);
    probe.retain(|n| !hard.contains(n));
    LoopDeps { probe, hard }
}

fn walk_body(
    p: &Plan,
    binders: &[Name],
    bound: &mut Vec<Name>,
    probe: &mut BTreeSet<Name>,
    hard: &mut BTreeSet<Name>,
) {
    if let Plan::Member { elem, set } = p {
        if let (Plan::Var(needle), Plan::Var(hay)) = (&**elem, &**set) {
            // `member(x, R)` with x a (non-shadowed) loop binder and R free:
            // a delta on R affects exactly the members it lists.
            if binders.contains(needle)
                && bound.iter().filter(|b| *b == needle).count() == 1
                && !bound.contains(hay)
            {
                probe.insert(*hay);
                return;
            }
        }
    }
    match p {
        Plan::Var(n) => {
            if !bound.contains(n) {
                hard.insert(*n);
            }
        }
        Plan::Unit | Plan::Empty => {}
        Plan::Pair(a, b) | Plan::Union(a, b) | Plan::Diff(a, b) | Plan::Eq(a, b) => {
            walk_body(a, binders, bound, probe, hard);
            walk_body(b, binders, bound, probe, hard);
        }
        Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => {
            walk_body(x, binders, bound, probe, hard)
        }
        Plan::Get { arg, .. } => walk_body(arg, binders, bound, probe, hard),
        Plan::Guard { cond, body } => {
            walk_body(cond, binders, bound, probe, hard);
            walk_body(body, binders, bound, probe, hard);
        }
        Plan::Member { elem, set } => {
            walk_body(elem, binders, bound, probe, hard);
            walk_body(set, binders, bound, probe, hard);
        }
        Plan::ForUnion { var, over, body } => {
            walk_body(over, binders, bound, probe, hard);
            bound.push(*var);
            walk_body(body, binders, bound, probe, hard);
            bound.pop();
        }
        Plan::Let { var, value, body } => {
            walk_body(value, binders, bound, probe, hard);
            bound.push(*var);
            walk_body(body, binders, bound, probe, hard);
            bound.pop();
        }
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => {
            walk_body(left, binders, bound, probe, hard);
            walk_body(right, binders, bound, probe, hard);
            bound.push(*lvar);
            walk_body(lkey, binders, bound, probe, hard);
            bound.push(*rvar);
            walk_body(rkey, binders, bound, probe, hard);
            walk_body(body, binders, bound, probe, hard);
            bound.pop();
            bound.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Update
// ---------------------------------------------------------------------------

impl Node {
    /// The node's current output (routing `Var` through the environment and
    /// `Let` through its extended environment).
    fn value<'a>(&'a self, env: &'a Instance) -> &'a Value {
        match &self.kind {
            Kind::Var(n) => env.try_get(n).expect(
                "invariant: MaintainedQuery::new/rebuild validated that the \
                 environment binds every free variable of the plan",
            ),
            Kind::Let { body, env_body, .. } => body.value(env_body),
            _ => &self.current,
        }
    }

    /// Run the operator's delta rule, tagging any failure (including an
    /// injected fault) with this operator's preorder index and kind.
    fn update(&mut self, ctx: &mut Ctx, env: &Instance) -> Result<Change, IvmError> {
        let (id, kind) = (self.id, kind_name(&self.kind));
        if nrs_obs::detailed() {
            // Fine-grained per-operator delta timing: one clock pair per
            // operator visit, so it only runs under the `detailed` flag.
            let start = Instant::now();
            let result = crate::fault::hit(fault_site(&self.kind))
                .and_then(|()| self.update_inner(ctx, env))
                .map_err(|e| e.at(id, kind));
            op_timer(kind).record_duration(start.elapsed());
            if let Err(e) = &result {
                nrs_obs::error("ivm.op_failed", e);
            }
            return result;
        }
        crate::fault::hit(fault_site(&self.kind))
            .and_then(|()| self.update_inner(ctx, env))
            .map_err(|e| e.at(id, kind))
    }

    fn update_inner(&mut self, ctx: &mut Ctx, env: &Instance) -> Result<Change, IvmError> {
        match &mut self.kind {
            Kind::Var(n) => match ctx.changes.get(n) {
                None => Ok(Change::None),
                Some(NameChange { delta: Some(d), .. }) => Ok(Change::from_delta(d.clone())),
                Some(NameChange {
                    delta: None,
                    old: Some(old),
                }) => Ok(Change::Replaced { old: old.clone() }),
                Some(NameChange {
                    delta: None,
                    old: None,
                }) => Err(IvmError::Internal(
                    "name change without delta or old value".into(),
                )),
            },
            Kind::Opaque { plan, deps } => {
                if !deps.iter().any(|n| ctx.changes.contains_key(n)) {
                    return Ok(Change::None);
                }
                let new = exec_plan(plan, env)?;
                if new == self.current {
                    return Ok(Change::None);
                }
                let old = std::mem::replace(&mut self.current, new);
                Ok(Change::Replaced { old })
            }
            Kind::Union(a, b) => {
                let ca = a.update(ctx, env)?;
                let da = ca.into_set_delta(a.value(env), "union lhs")?;
                let cb = b.update(ctx, env)?;
                let db = cb.into_set_delta(b.value(env), "union rhs")?;
                if da.is_none() && db.is_none() {
                    return Ok(Change::None);
                }
                let av = set_of(a.value(env), "union lhs")?;
                let bv = set_of(b.value(env), "union rhs")?;
                let mut delta = DeltaSet::new();
                for x in touched_elems(&da, &db) {
                    let was = was_in(av, &da, x) || was_in(bv, &db, x);
                    let is = av.contains(x) || bv.contains(x);
                    record(&mut delta, x, was, is);
                }
                apply_delta_value(&mut self.current, &delta, "union")?;
                Ok(Change::from_delta(delta))
            }
            Kind::Diff(a, b) => {
                let ca = a.update(ctx, env)?;
                let da = ca.into_set_delta(a.value(env), "difference lhs")?;
                let cb = b.update(ctx, env)?;
                let db = cb.into_set_delta(b.value(env), "difference rhs")?;
                if da.is_none() && db.is_none() {
                    return Ok(Change::None);
                }
                let av = set_of(a.value(env), "difference lhs")?;
                let bv = set_of(b.value(env), "difference rhs")?;
                let mut delta = DeltaSet::new();
                for x in touched_elems(&da, &db) {
                    let was = was_in(av, &da, x) && !was_in(bv, &db, x);
                    let is = av.contains(x) && !bv.contains(x);
                    record(&mut delta, x, was, is);
                }
                apply_delta_value(&mut self.current, &delta, "difference")?;
                Ok(Change::from_delta(delta))
            }
            Kind::Guard {
                cond,
                body,
                nonempty,
            } => {
                cond.update(ctx, env)?;
                let cb = body.update(ctx, env)?;
                let was_ne = *nonempty;
                let is_ne = !set_of(cond.value(env), "guard condition")?.is_empty();
                *nonempty = is_ne;
                match (was_ne, is_ne) {
                    (false, false) => Ok(Change::None),
                    (true, true) => {
                        let db = cb.into_set_delta(body.value(env), "guard body")?;
                        match db {
                            None => Ok(Change::None),
                            Some(d) => {
                                self.current = body.value(env).clone();
                                Ok(Change::from_delta(d))
                            }
                        }
                    }
                    (false, true) => {
                        self.current = body.value(env).clone();
                        let delta = DeltaSet {
                            inserts: set_of(&self.current, "guard body")?
                                .iter()
                                .cloned()
                                .collect(),
                            deletes: BTreeSet::new(),
                        };
                        Ok(Change::from_delta(delta))
                    }
                    (true, false) => {
                        let old = std::mem::replace(&mut self.current, Value::empty_set());
                        let delta = DeltaSet {
                            inserts: BTreeSet::new(),
                            deletes: set_of(&old, "guard output")?.iter().cloned().collect(),
                        };
                        Ok(Change::from_delta(delta))
                    }
                }
            }
            Kind::ForUnion(state) => {
                let delta = state.update(ctx, env, &mut self.current)?;
                Ok(Change::from_delta(delta))
            }
            Kind::Filter(state) => {
                let delta = state.update(ctx, env, &mut self.current)?;
                Ok(Change::from_delta(delta))
            }
            Kind::HashJoin(state) => {
                let delta = state.update(ctx, env, &mut self.current)?;
                Ok(Change::from_delta(delta))
            }
            Kind::Let {
                var,
                value,
                body,
                env_body,
            } => {
                let cv = value.update(ctx, env)?;
                *env_body = env.with(*var, value.value(env).clone());
                let saved = if cv.is_none() {
                    None
                } else {
                    let nc = match cv {
                        Change::Delta(d) => NameChange {
                            delta: Some(d),
                            old: None,
                        },
                        Change::Replaced { old } => NameChange {
                            delta: None,
                            old: Some(old),
                        },
                        Change::None => {
                            unreachable!("invariant: the cv.is_none() branch above handled None")
                        }
                    };
                    Some(ctx.changes.insert(*var, nc))
                };
                let out = body.update(ctx, env_body);
                // restore the outer scope's view of the name
                match saved {
                    None => {}
                    Some(None) => {
                        ctx.changes.remove(var);
                    }
                    Some(Some(prev)) => {
                        ctx.changes.insert(*var, prev);
                    }
                }
                out
            }
        }
    }
}

/// All elements touched by either child delta, deduplicated.
fn touched_elems<'a>(da: &'a Option<DeltaSet>, db: &'a Option<DeltaSet>) -> BTreeSet<&'a Value> {
    let mut out = BTreeSet::new();
    for d in [da, db].into_iter().flatten() {
        out.extend(d.elems());
    }
    out
}

fn was_in(new: &SetValue, delta: &Option<DeltaSet>, x: &Value) -> bool {
    match delta {
        Some(d) => d.was_member(new, x),
        None => new.contains(x),
    }
}

fn record(delta: &mut DeltaSet, x: &Value, was: bool, is: bool) {
    match (was, is) {
        (false, true) => {
            delta.inserts.insert(x.clone());
        }
        (true, false) => {
            delta.deletes.insert(x.clone());
        }
        _ => {}
    }
}

impl ForUnionState {
    /// Evaluate from scratch: fill the member cache and support counts and
    /// return the materialized output.
    fn fill(&mut self, env: &Instance) -> Result<Value, IvmError> {
        let members = set_of(self.over.value(env), "binding union over")?;
        let mut counts = PMap::new();
        let mut cache = Vec::with_capacity(members.len());
        for m in members {
            let body_v = bound_exec1(&self.body, self.var, m, env)?;
            for e in set_of(&body_v, "binding union body")? {
                let c = counts.get(e).copied().unwrap_or(0);
                counts.insert(e.clone(), c + 1);
            }
            cache.push((m.clone(), body_v));
        }
        let out = Value::Set(counts.iter().map(|(e, _)| e.clone()).collect());
        // members arrive in order: the cache is one bulk build
        self.cache = PMap::from_sorted(cache);
        self.counts = counts;
        Ok(out)
    }

    fn update(
        &mut self,
        ctx: &mut Ctx,
        env: &Instance,
        current: &mut Value,
    ) -> Result<DeltaSet, IvmError> {
        let co = self.over.update(ctx, env)?;
        let over_delta = co.into_set_delta(self.over.value(env), "binding union over")?;
        if self.deps.need_refill(ctx) {
            let new = self.fill(env)?;
            return replace_output(current, new, "binding union output");
        }
        if over_delta.is_none() && !self.deps.probe_changed(ctx) {
            return Ok(DeltaSet::new());
        }
        let mut trans = CountDelta::new(&mut self.counts);
        // 1. members leaving the loop: retire their cached contributions
        if let Some(d) = &over_delta {
            for m in &d.deletes {
                let cached = self.cache.remove(m).ok_or_else(|| {
                    IvmError::Internal("deleted member missing from body cache".into())
                })?;
                for e in set_of(&cached, "cached body")? {
                    trans.dec(e)?;
                }
            }
        }
        // 2. members whose cached body a probe delta invalidates: exactly
        //    the delta's own elements (the probe needle is the member).
        //    Body evaluations are pure, so they run as one round; the
        //    cache/count mutations replay in member order below.
        let affected = self.deps.probed(ctx, |x| self.cache.contains_key(x));
        let (body, var) = (&*self.body, self.var);
        let evals = eval_round(ctx, affected.into_iter().collect(), |m| {
            bound_exec1(body, var, m, env)
        })?;
        for (m, new_body) in evals {
            let old_body = self
                .cache
                .get(&m)
                .ok_or_else(|| IvmError::Internal("affected member missing from cache".into()))?;
            if new_body == *old_body {
                continue;
            }
            for e in set_of(old_body, "cached body")? {
                trans.dec(e)?;
            }
            for e in set_of(&new_body, "binding union body")? {
                trans.inc(e);
            }
            self.cache.insert(m, new_body);
        }
        // 3. members entering the loop: evaluate their bodies fresh (same
        //    evaluate-then-replay split)
        if let Some(d) = &over_delta {
            let evals = eval_round(ctx, d.inserts.iter().cloned().collect(), |m| {
                bound_exec1(body, var, m, env)
            })?;
            for (m, body_v) in evals {
                for e in set_of(&body_v, "binding union body")? {
                    trans.inc(e);
                }
                self.cache.insert(m, body_v);
            }
        }
        let delta = trans.into_delta();
        apply_delta_value(current, &delta, "binding union")?;
        Ok(delta)
    }
}

impl FilterState {
    /// Does member `m` pass the condition?
    fn passes(cond: &Plan, var: Name, m: &Value, env: &Instance) -> Result<bool, IvmError> {
        Ok(holds_bound(cond, env, &[(var, m.clone())])?)
    }

    /// Evaluate from scratch: the members that pass, as the output (one
    /// merge walk of `over` for probe-shaped conditions, see
    /// [`exec_filter`]).
    fn fill(&self, env: &Instance) -> Result<Value, IvmError> {
        let over = set_of(self.over.value(env), "filter over")?;
        Ok(exec_filter(self.var, over, &self.cond, env)?)
    }

    fn update(
        &mut self,
        ctx: &mut Ctx,
        env: &Instance,
        current: &mut Value,
    ) -> Result<DeltaSet, IvmError> {
        let co = self.over.update(ctx, env)?;
        let over_delta = co.into_set_delta(self.over.value(env), "filter over")?;
        if self.deps.need_refill(ctx) {
            let new = self.fill(env)?;
            return replace_output(current, new, "filter output");
        }
        if over_delta.is_none() && !self.deps.probe_changed(ctx) {
            return Ok(DeltaSet::new());
        }
        let out = set_of(current, "filter output")?;
        let mut delta = DeltaSet::new();
        // 1. members leaving the loop leave the output if they were in it
        if let Some(d) = &over_delta {
            delta
                .deletes
                .extend(d.deletes.iter().filter(|m| out.contains(m)).cloned());
        }
        // 2. surviving members a probe delta lists: re-evaluate the
        //    condition (one pure round) and record each member's
        //    transition in member order
        let over_now = set_of(self.over.value(env), "filter over")?;
        let inserted = |x: &Value| over_delta.as_ref().is_some_and(|d| d.inserts.contains(x));
        let affected = self
            .deps
            .probed(ctx, |x| over_now.contains(x) && !inserted(x));
        let (cond, var) = (&*self.cond, self.var);
        let evals = eval_round(ctx, affected.into_iter().collect(), |m| {
            FilterState::passes(cond, var, m, env)
        })?;
        for (m, pass) in evals {
            let was = out.contains(&m);
            record(&mut delta, &m, was, pass);
        }
        // 3. members entering the loop are kept when the condition holds
        if let Some(d) = &over_delta {
            let evals = eval_round(ctx, d.inserts.iter().cloned().collect(), |m| {
                FilterState::passes(cond, var, m, env)
            })?;
            delta
                .inserts
                .extend(evals.into_iter().filter(|(_, pass)| *pass).map(|(m, _)| m));
        }
        apply_delta_value(current, &delta, "filter")?;
        Ok(delta)
    }
}

/// Replace an operator's output after a refill — the fallback when a
/// dependency changed in a way the targeted rules don't cover — and report
/// the exact diff.
fn replace_output(current: &mut Value, new: Value, what: &str) -> Result<DeltaSet, IvmError> {
    let old = std::mem::replace(current, new);
    Ok(DeltaSet::diff(set_of(&old, what)?, set_of(current, what)?))
}

/// Evaluate a plan (loop body, filter condition, join key) under one binder.
fn bound_exec1(plan: &Plan, var: Name, m: &Value, env: &Instance) -> Result<Value, IvmError> {
    Ok(exec_plan_bound(plan, env, &[(var, m.clone())])?)
}

/// Evaluate a join body under both binders (a set value).
fn bound_exec2(
    plan: &Plan,
    lvar: Name,
    x: &Value,
    rvar: Name,
    y: &Value,
    env: &Instance,
) -> Result<Value, IvmError> {
    Ok(exec_plan_bound(
        plan,
        env,
        &[(lvar, x.clone()), (rvar, y.clone())],
    )?)
}

/// Add `member` under `key` in a join index.
fn index_insert(index: &mut PMap<Value, SetValue>, key: Value, member: Value) {
    match index.get_mut(&key) {
        Some(members) => {
            members.insert(member);
        }
        None => {
            index.insert(key, SetValue::from_iter([member]));
        }
    }
}

/// Drop `member` from under `key` in a join index.
fn index_remove(index: &mut PMap<Value, SetValue>, key: &Value, member: &Value) {
    if let Some(members) = index.get_mut(key) {
        members.remove(member);
        if members.is_empty() {
            index.remove(key);
        }
    }
}

impl HashJoinState {
    /// Evaluate from scratch: rebuild both key indexes and the support
    /// counts and return the materialized output.
    fn fill(&mut self, env: &Instance) -> Result<Value, IvmError> {
        let left = set_of(self.left.value(env), "join probe side")?;
        let right = set_of(self.right.value(env), "join build side")?;
        let (mut lindex, mut rindex, mut counts) = (PMap::new(), PMap::new(), PMap::new());
        for y in right {
            let k = bound_exec1(&self.rkey, self.rvar, y, env)?;
            index_insert(&mut rindex, k, y.clone());
        }
        for x in left {
            let k = bound_exec1(&self.lkey, self.lvar, x, env)?;
            for y in rindex.get(&k).into_iter().flat_map(SetValue::iter) {
                let body_v = bound_exec2(&self.body, self.lvar, x, self.rvar, y, env)?;
                for e in set_of(&body_v, "join body")? {
                    let c = counts.get(e).copied().unwrap_or(0);
                    counts.insert(e.clone(), c + 1);
                }
            }
            index_insert(&mut lindex, k, x.clone());
        }
        let out = Value::Set(counts.iter().map(|(e, _)| e.clone()).collect());
        (self.lindex, self.rindex, self.counts) = (lindex, rindex, counts);
        Ok(out)
    }

    fn update(
        &mut self,
        ctx: &mut Ctx,
        env: &Instance,
        current: &mut Value,
    ) -> Result<DeltaSet, IvmError> {
        let cl = self.left.update(ctx, env)?;
        let dl = cl.into_set_delta(self.left.value(env), "join probe side")?;
        let cr = self.right.update(ctx, env)?;
        let dr = cr.into_set_delta(self.right.value(env), "join build side")?;
        if self.hard_deps.iter().any(|n| ctx.changes.contains_key(n)) {
            let new = self.fill(env)?;
            return replace_output(current, new, "join output");
        }
        if dl.is_none() && dr.is_none() {
            return Ok(DeltaSet::new());
        }
        let mut trans = CountDelta::new(&mut self.counts);
        // Each bilinear part's evaluations (key + matching body values) read
        // only the index the part never mutates — part 1 reads `rindex`
        // (mutated in part 2 only), part 2 reads the post-part-1 `lindex` —
        // so they run as one pure round per part, and the index/count
        // mutations replay in delta order.
        //
        // Bilinear rule, part 1: Δleft against the *old* build side.
        if let Some(d) = &dl {
            let n_dels = d.deletes.len();
            let items: Vec<Value> = d.deletes.iter().chain(d.inserts.iter()).cloned().collect();
            let (lkey, lvar, rvar, body, rindex) =
                (&*self.lkey, self.lvar, self.rvar, &*self.body, &self.rindex);
            let evals = eval_round(ctx, items, |x| {
                let k = bound_exec1(lkey, lvar, x, env)?;
                let mut elems = Vec::new();
                if let Some(matches) = rindex.get(&k) {
                    for y in matches {
                        let body_v = bound_exec2(body, lvar, x, rvar, y, env)?;
                        elems.extend(set_of(&body_v, "join body")?.iter().cloned());
                    }
                }
                Ok((k, elems))
            })?;
            for (i, (x, (k, elems))) in evals.into_iter().enumerate() {
                if i < n_dels {
                    index_remove(&mut self.lindex, &k, &x);
                    for e in &elems {
                        trans.dec(e)?;
                    }
                } else {
                    for e in &elems {
                        trans.inc(e);
                    }
                    index_insert(&mut self.lindex, k, x);
                }
            }
        }
        // Part 2: Δright against the *new* probe side.
        if let Some(d) = &dr {
            let n_dels = d.deletes.len();
            let items: Vec<Value> = d.deletes.iter().chain(d.inserts.iter()).cloned().collect();
            let (rkey, lvar, rvar, body, lindex) =
                (&*self.rkey, self.lvar, self.rvar, &*self.body, &self.lindex);
            let evals = eval_round(ctx, items, |y| {
                let k = bound_exec1(rkey, rvar, y, env)?;
                let mut elems = Vec::new();
                if let Some(matches) = lindex.get(&k) {
                    for x in matches {
                        let body_v = bound_exec2(body, lvar, x, rvar, y, env)?;
                        elems.extend(set_of(&body_v, "join body")?.iter().cloned());
                    }
                }
                Ok((k, elems))
            })?;
            for (i, (y, (k, elems))) in evals.into_iter().enumerate() {
                if i < n_dels {
                    index_remove(&mut self.rindex, &k, &y);
                    for e in &elems {
                        trans.dec(e)?;
                    }
                } else {
                    for e in &elems {
                        trans.inc(e);
                    }
                    index_insert(&mut self.rindex, k, y);
                }
            }
        }
        let delta = trans.into_delta();
        apply_delta_value(current, &delta, "join")?;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_nrc::{macros, Expr};
    use nrs_value::{NameGen, Type};

    fn inst(pairs: Vec<(&str, Value)>) -> Instance {
        Instance::from_bindings(pairs.into_iter().map(|(n, v)| (Name::new(n), v)))
    }

    fn atoms(ids: impl IntoIterator<Item = u64>) -> Value {
        Value::set(ids.into_iter().map(Value::atom))
    }

    /// Apply the batch to both the maintained query and a fresh evaluation
    /// of the same plan, and require identical values plus an exact delta.
    fn step(mq: &mut MaintainedQuery, batch: &UpdateBatch) -> DeltaSet {
        let before = mq.value().clone();
        let delta = mq.apply(batch).expect("maintenance step");
        assert!(
            mq.consistency_check().expect("re-evaluation"),
            "maintained value diverged from recomputation"
        );
        let after = mq.value().as_set().expect("set output").clone();
        assert_eq!(
            delta,
            DeltaSet::diff(before.as_set().expect("set output"), &after),
            "reported delta is not the exact output diff"
        );
        delta
    }

    #[test]
    fn union_and_diff_track_membership_transitions() {
        let e = Expr::union(Expr::var("A"), Expr::diff(Expr::var("B"), Expr::var("C")));
        let q = CompiledQuery::compile(&e);
        let env = inst(vec![
            ("A", atoms([1, 2])),
            ("B", atoms([2, 3, 4])),
            ("C", atoms([4])),
        ]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([1, 2, 3]));
        // delete 4 from C: B \ C gains 4
        let mut b = UpdateBatch::new();
        b.delete("C", Value::atom(4));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts, atoms([4]).into_set().unwrap());
        // delete 2 from A: still present through B \ C
        let mut b = UpdateBatch::new();
        b.delete("A", Value::atom(2));
        let d = step(&mut mq, &b);
        assert!(d.is_empty());
        // now delete 2 from B as well: it finally leaves
        let mut b = UpdateBatch::new();
        b.delete("B", Value::atom(2));
        let d = step(&mut mq, &b);
        assert_eq!(d.deletes, atoms([2]).into_set().unwrap());
        assert_eq!(mq.value(), &atoms([1, 3, 4]));
    }

    #[test]
    fn membership_filter_is_probe_maintained() {
        // { x ∈ S | x ∈ F } — the synthesized-filter shape.
        let mut gen = NameGen::new();
        let member = macros::member(&Type::Ur, Expr::var("x"), Expr::var("F"), &mut gen);
        let e = Expr::big_union(
            "x",
            Expr::var("S"),
            macros::guard(member, Expr::singleton(Expr::var("x")), &mut gen),
        );
        let q = CompiledQuery::compile(&e);
        let env = inst(vec![("S", atoms([1, 2, 3])), ("F", atoms([2, 3, 9]))]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([2, 3]));
        // inserting into S evaluates one body
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(9)).insert("S", Value::atom(5));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts, atoms([9]).into_set().unwrap());
        // a probe-dependency delta re-evaluates exactly the listed members
        let mut b = UpdateBatch::new();
        b.delete("F", Value::atom(2)).insert("F", Value::atom(5));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts, atoms([5]).into_set().unwrap());
        assert_eq!(d.deletes, atoms([2]).into_set().unwrap());
        // deleting from S retires the cached contribution
        let mut b = UpdateBatch::new();
        b.delete("S", Value::atom(3));
        let d = step(&mut mq, &b);
        assert_eq!(d.deletes, atoms([3]).into_set().unwrap());
        assert_eq!(mq.value(), &atoms([5, 9]));
    }

    /// Per-member operator state held in a node subtree: cached loop bodies
    /// plus support-count entries.
    fn member_state(node: &Node) -> usize {
        match &node.kind {
            Kind::Var(_) | Kind::Opaque { .. } => 0,
            Kind::Union(a, b) | Kind::Diff(a, b) => member_state(a) + member_state(b),
            Kind::Guard { cond, body, .. } => member_state(cond) + member_state(body),
            Kind::ForUnion(st) => st.cache.len() + st.counts.len() + member_state(&st.over),
            Kind::Filter(st) => member_state(&st.over),
            Kind::HashJoin(st) => {
                st.counts.len() + member_state(&st.left) + member_state(&st.right)
            }
            Kind::Let { value, body, .. } => member_state(value) + member_state(body),
        }
    }

    #[test]
    fn filter_loops_keep_no_per_member_state() {
        // { x ∈ S | x ∈ F } is filter-shaped; the projection ⋃{ {π1 b} | b ∈ B }
        // is not, and keeps the general body cache and support counts.
        let mut gen = NameGen::new();
        let member = macros::member(&Type::Ur, Expr::var("x"), Expr::var("F"), &mut gen);
        let filter = Expr::big_union(
            "x",
            Expr::var("S"),
            macros::guard(member, Expr::singleton(Expr::var("x")), &mut gen),
        );
        let env = inst(vec![("S", atoms([1, 2, 3])), ("F", atoms([2, 3, 9]))]);
        let mut mq = MaintainedQuery::new(&CompiledQuery::compile(&filter), &env).unwrap();
        assert!(
            matches!(mq.plan.root.kind, Kind::Filter(_)),
            "{}",
            mq.plan.query.plan()
        );
        assert_eq!(member_state(&mq.plan.root), 0);
        let cov = mq.coverage();
        assert!(cov.fully_incremental());
        assert_eq!(cov.ops[0].kind, "for-union");
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(9)).delete("S", Value::atom(2));
        step(&mut mq, &b);
        let mut b = UpdateBatch::new();
        b.delete("F", Value::atom(3)).insert("F", Value::atom(1));
        step(&mut mq, &b);
        assert_eq!(mq.value(), &atoms([1, 9]));
        assert_eq!(member_state(&mq.plan.root), 0);

        let projection = Expr::big_union(
            "b",
            Expr::var("B"),
            Expr::singleton(Expr::proj1(Expr::var("b"))),
        );
        let r = |k: u64, v: u64| Value::pair(Value::atom(k), Value::atom(v));
        let env = inst(vec![("B", Value::set([r(1, 10), r(1, 11), r(2, 12)]))]);
        let mut mq = MaintainedQuery::new(&CompiledQuery::compile(&projection), &env).unwrap();
        assert!(matches!(mq.plan.root.kind, Kind::ForUnion(_)));
        assert_eq!(
            member_state(&mq.plan.root),
            3 + 2,
            "three cached bodies, two counts"
        );
        let mut b = UpdateBatch::new();
        b.delete("B", r(1, 10));
        step(&mut mq, &b);
        assert_eq!(member_state(&mq.plan.root), 2 + 2);
    }

    #[test]
    fn support_counts_make_deletions_sound() {
        // projection: ⋃{ {π1 b} | b ∈ B } — two rows share a key
        let e = Expr::big_union(
            "b",
            Expr::var("B"),
            Expr::singleton(Expr::proj1(Expr::var("b"))),
        );
        let q = CompiledQuery::compile(&e);
        let r = |k: u64, v: u64| Value::pair(Value::atom(k), Value::atom(v));
        let env = inst(vec![("B", Value::set([r(1, 10), r(1, 11), r(2, 12)]))]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([1, 2]));
        // deleting one of the two key-1 rows must NOT delete key 1
        let mut b = UpdateBatch::new();
        b.delete("B", r(1, 10));
        let d = step(&mut mq, &b);
        assert!(d.is_empty(), "support count should keep key 1 alive");
        // deleting the last producer finally removes it
        let mut b = UpdateBatch::new();
        b.delete("B", r(1, 11));
        let d = step(&mut mq, &b);
        assert_eq!(d.deletes, atoms([1]).into_set().unwrap());
    }

    #[test]
    fn hash_join_applies_the_bilinear_rule() {
        let mut gen = NameGen::new();
        let join = Expr::big_union(
            "a",
            Expr::var("R"),
            Expr::big_union(
                "b",
                Expr::var("T"),
                macros::guard(
                    macros::eq_ur(Expr::proj1(Expr::var("a")), Expr::proj1(Expr::var("b"))),
                    Expr::singleton(Expr::pair(
                        Expr::proj2(Expr::var("a")),
                        Expr::proj2(Expr::var("b")),
                    )),
                    &mut gen,
                ),
            ),
        );
        let q = CompiledQuery::compile(&join);
        assert!(
            matches!(q.plan(), Plan::HashJoin { .. }),
            "test expects a join plan, got {}",
            q.plan()
        );
        let r = |k: u64, v: u64| Value::pair(Value::atom(k), Value::atom(v));
        let env = inst(vec![
            ("R", Value::set([r(1, 10), r(2, 20)])),
            ("T", Value::set([r(1, 100), r(3, 300)])),
        ]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &Value::set([r(10, 100)]));
        // insert a matching right row, delete the matching left row, and
        // insert a new joining pair — all in one batch
        let mut b = UpdateBatch::new();
        b.insert("T", r(1, 101))
            .delete("R", r(2, 20))
            .insert("R", r(3, 30));
        let d = step(&mut mq, &b);
        assert_eq!(
            mq.value(),
            &Value::set([r(10, 100), r(10, 101), r(30, 300)])
        );
        assert_eq!(d.inserts.len(), 2);
        // duplicate-support: two left rows with the same key and payload
        // producer counted twice
        let mut b = UpdateBatch::new();
        b.insert("T", r(3, 300)); // no-op (already there)
        b.insert("R", r(3, 30)); // no-op
        let d = step(&mut mq, &b);
        assert!(d.is_empty());
    }

    #[test]
    fn let_bound_shared_values_propagate_their_deltas() {
        let mut gen = NameGen::new();
        // { x ∈ S | x ∈ (A ∪ B) }: the union is hoisted into a Let.
        let member = macros::member(
            &Type::Ur,
            Expr::var("x"),
            Expr::union(Expr::var("A"), Expr::var("B")),
            &mut gen,
        );
        let e = Expr::big_union(
            "x",
            Expr::var("S"),
            macros::guard(member, Expr::singleton(Expr::var("x")), &mut gen),
        );
        let q = CompiledQuery::compile(&e);
        assert!(
            matches!(q.plan(), Plan::Let { .. }),
            "test expects a hoisted Let, got {}",
            q.plan()
        );
        let env = inst(vec![
            ("S", atoms([1, 2, 3])),
            ("A", atoms([1])),
            ("B", atoms([5])),
        ]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([1]));
        // a delta on B flows through the Let into the probe dependency
        let mut b = UpdateBatch::new();
        b.insert("B", Value::atom(3)).delete("A", Value::atom(1));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts, atoms([3]).into_set().unwrap());
        assert_eq!(d.deletes, atoms([1]).into_set().unwrap());
        assert_eq!(mq.value(), &atoms([3]));
    }

    #[test]
    fn guard_flips_wholesale() {
        let mut gen = NameGen::new();
        // if F nonempty then S else ∅ (top-level guard)
        let e = macros::guard(
            macros::nonempty(Expr::var("F"), &mut gen),
            Expr::var("S"),
            &mut gen,
        );
        let q = CompiledQuery::compile(&e);
        let env = inst(vec![("S", atoms([1, 2])), ("F", atoms([]))]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([]));
        let mut b = UpdateBatch::new();
        b.insert("F", Value::atom(7));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts.len(), 2);
        // body deltas pass through while the guard holds
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(3));
        step(&mut mq, &b);
        assert_eq!(mq.value(), &atoms([1, 2, 3]));
        // and the guard collapsing empties the output
        let mut b = UpdateBatch::new();
        b.delete("F", Value::atom(7));
        let d = step(&mut mq, &b);
        assert_eq!(d.deletes.len(), 3);
    }

    #[test]
    fn hard_dependencies_fall_back_to_refill() {
        // body mentions T outside a probe shape: ⋃{ T | x ∈ S } with x used
        // so it is not a guard: ⋃{ {x} ∪ T | x ∈ S }
        let e = Expr::big_union(
            "x",
            Expr::var("S"),
            Expr::union(Expr::singleton(Expr::var("x")), Expr::var("T")),
        );
        let q = CompiledQuery::compile(&e);
        let env = inst(vec![("S", atoms([1])), ("T", atoms([8]))]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        assert_eq!(mq.value(), &atoms([1, 8]));
        let mut b = UpdateBatch::new();
        b.insert("T", Value::atom(9)).insert("S", Value::atom(2));
        let d = step(&mut mq, &b);
        assert_eq!(d.inserts, atoms([2, 9]).into_set().unwrap());
        let mut b = UpdateBatch::new();
        b.delete("T", Value::atom(8));
        step(&mut mq, &b);
        assert_eq!(mq.value(), &atoms([1, 2, 9]));
    }

    #[test]
    fn noop_and_unknown_relations_are_ignored() {
        let q = CompiledQuery::compile(&Expr::var("S"));
        let env = inst(vec![("S", atoms([1]))]);
        let mut mq = MaintainedQuery::new(&q, &env).unwrap();
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(1)); // already present
        b.insert("Unrelated", Value::atom(5)); // not an input
        let d = mq.apply(&b).unwrap();
        assert!(d.is_empty());
        assert_eq!(mq.value(), &atoms([1]));
        assert!(mq.consistency_check().unwrap());
    }
}
