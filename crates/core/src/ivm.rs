//! Maintained synthesized views (the paper's use case, kept live).
//!
//! Corollary 3 turns views + queries into rewritings over the views; the
//! rewritings are *views over changing data*.  [`MaintainedWorkload`] keeps
//! a whole [`WorkloadRewriting`] materialized over a *base* instance under
//! [`UpdateBatch`]es, using the delta engine of `nrs-ivm` instead of
//! re-running the compiled plans per update: a batch on the base relations
//! is propagated through every maintained view materialization, the view
//! deltas are assembled into a batch on the view names, and that batch
//! drives the shared fragments and every query answer — so a single-tuple
//! base update reaches the answers in O(|Δ| · log n) end to end.  A single
//! query is a one-entry workload.
//!
//! [`MaintainedWorkload::cross_check`] re-evaluates naively from scratch —
//! every maintained value doubles as an incremental-vs-oracle equivalence
//! check (see `nrs-ivm`'s `tests/maintenance_equivalence.rs` for the
//! randomized harness).

use crate::synthesis::SynthesisError;
use crate::workload::WorkloadRewriting;
use nrs_ivm::{CoverageReport, DeltaSet, IvmError, MaintainedPlan, UpdateBatch};
use nrs_nrc::{eval as nrc_eval, CompiledQuery};
use nrs_value::{Instance, Name, Value};
use std::fmt;
use std::sync::Arc;

impl From<IvmError> for SynthesisError {
    fn from(e: IvmError) -> Self {
        SynthesisError::Maintenance(e)
    }
}

/// One maintained view-materialization stage of a rewriting pipeline.
#[derive(Debug, Clone)]
struct MaintainedStage {
    name: Name,
    plan: MaintainedPlan,
}

/// Where in a maintained workload a failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailLoc {
    /// The view-materialization stage at this index.
    Stage(usize),
    /// The shared-fragment stage at this index.
    Shared(usize),
    /// The answer query at this index.
    Answer(usize),
}

/// An operator the self-healing apply demoted to recompute-on-dirty:
/// which plan it belongs to and its stable preorder id within that plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedOperator {
    /// The owning plan: a view, a shared fragment or a query answer.
    pub view: Name,
    /// Stable preorder operator id within the owning plan.
    pub op: usize,
}

impl fmt::Display for DegradedOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} operator #{}", self.view, self.op)
    }
}

/// Per-query coverage of a maintained workload: one [`CoverageReport`] per
/// view stage, per shared fragment, and per query answer.
#[derive(Debug, Clone)]
pub struct WorkloadCoverage {
    /// Coverage of each view-materialization stage, in pipeline order.
    pub views: Vec<(Name, CoverageReport)>,
    /// Coverage of each shared-fragment materialization.
    pub shared: Vec<(Name, CoverageReport)>,
    /// Coverage of each query answer, in workload order.
    pub answers: Vec<(Name, CoverageReport)>,
}

impl WorkloadCoverage {
    /// Is every operator of every stage delta-maintained?
    pub fn fully_incremental(&self) -> bool {
        self.views.iter().all(|(_, c)| c.fully_incremental())
            && self.shared.iter().all(|(_, c)| c.fully_incremental())
            && self.answers.iter().all(|(_, c)| c.fully_incremental())
    }

    /// Total number of degraded operators across the workload.
    pub fn degraded(&self) -> usize {
        self.views
            .iter()
            .chain(&self.shared)
            .chain(&self.answers)
            .map(|(_, c)| c.degraded())
            .sum()
    }
}

impl fmt::Display for WorkloadCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, c) in &self.views {
            writeln!(f, "view {name}: {c}")?;
        }
        for (name, c) in &self.shared {
            writeln!(f, "shared {name}: {c}")?;
        }
        for (i, (name, c)) in self.answers.iter().enumerate() {
            if i + 1 == self.answers.len() {
                write!(f, "answer {name}: {c}")?;
            } else {
                writeln!(f, "answer {name}: {c}")?;
            }
        }
        Ok(())
    }
}

/// One maintained query answer of a workload, with its per-query flush
/// timer.
#[derive(Debug, Clone)]
struct MaintainedAnswer {
    name: Name,
    plan: MaintainedPlan,
    apply_seconds: Arc<nrs_obs::Histogram>,
}

/// Per-query deltas of one maintenance round: one `(query name, delta)`
/// entry per named workload answer, in workload entry order.
pub type AnswerDeltas = Vec<(Name, DeltaSet)>;

/// A whole multi-query workload kept materialized under *base* updates:
/// the view materializations, the **shared fragments** (each maintained
/// exactly once per batch, however many answers read it), and every named
/// query answer — the maintenance half of the workload amortization story.
///
/// Propagation order per [`UpdateBatch`]: base → views (their deltas become
/// a batch over the view names) → shared fragments (their deltas extend
/// that batch) → every answer, delta-fed from the combined batch.  The
/// `ivm.views_shared_total` counter advances by `views + shared` per apply,
/// which is what the acceptance test pins: each shared view is maintained
/// once per flush, not once per dependent query.
///
/// The workload keeps **one** base instance, read by every view stage, and
/// **one** view instance (views + shared fragments), read by every shared
/// stage and answer.  A batch is applied to the base once; each stage's
/// output is bound into the view instance by reference, so no stage holds
/// a private copy of any relation.  Every maintained structure is
/// persistent, so a clone is cheap — it is the rollback point of the
/// transactional applies and the serving layer.
#[derive(Debug, Clone)]
pub struct MaintainedWorkload {
    base: Instance,
    views: Instance,
    stages: Vec<MaintainedStage>,
    shared: Vec<MaintainedStage>,
    answers: Vec<MaintainedAnswer>,
}

fn workload_obs() -> (
    &'static Arc<nrs_obs::Counter>,
    &'static Arc<nrs_obs::Counter>,
) {
    static METRICS: std::sync::OnceLock<(Arc<nrs_obs::Counter>, Arc<nrs_obs::Counter>)> =
        std::sync::OnceLock::new();
    let (shared, applies) = METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        (
            r.counter("ivm.views_shared_total"),
            r.counter("ivm.workload_applies_total"),
        )
    });
    (shared, applies)
}

/// Bind a stage's output into the view instance unless the instance
/// already holds that very tree: the instance and the stage share one copy,
/// whether the stage edited its output or replaced it with an equal one.
fn share_output(views: &mut Instance, name: Name, out: Value) {
    let shared = match (views.try_get(&name), &out) {
        (Some(Value::Set(bound)), Value::Set(out)) => bound.ptr_eq(out),
        _ => false,
    };
    if !shared {
        views.bind(name, out);
    }
}

impl MaintainedWorkload {
    /// Materialize every view over `base`, every shared fragment over the
    /// views, and every query answer over views + shared fragments, and set
    /// up maintenance state for all of them.  A rewriting without queries
    /// has nothing to maintain and is rejected as [`SynthesisError::Ill`].
    pub fn new(
        rewriting: &WorkloadRewriting,
        base: &Instance,
    ) -> Result<MaintainedWorkload, SynthesisError> {
        if rewriting.queries().is_empty() {
            return Err(SynthesisError::Ill(
                "cannot maintain a workload without queries".into(),
            ));
        }
        let env = rewriting.problem.base_env();
        let mut gen = nrs_value::NameGen::new();
        let mut stages = Vec::with_capacity(rewriting.problem.views.len());
        let mut view_inst = Instance::new();
        for view in &rewriting.problem.views {
            let expr = view
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let compiled = CompiledQuery::compile(&expr);
            let plan = MaintainedPlan::new(&compiled, base)?;
            view_inst.bind(view.name, plan.value(base).clone());
            stages.push(MaintainedStage {
                name: view.name,
                plan,
            });
        }
        let shared_set = rewriting.shared();
        let mut shared = Vec::with_capacity(shared_set.views.len());
        for (name, expr) in &shared_set.views {
            let compiled = CompiledQuery::compile(expr);
            let plan = MaintainedPlan::new(&compiled, &view_inst)?;
            view_inst.bind(*name, plan.value(&view_inst).clone());
            shared.push(MaintainedStage { name: *name, plan });
        }
        let registry = nrs_obs::global();
        let mut answers = Vec::with_capacity(shared_set.queries.len());
        for (name, expr) in &shared_set.queries {
            let compiled = CompiledQuery::compile(expr);
            answers.push(MaintainedAnswer {
                name: *name,
                plan: MaintainedPlan::new(&compiled, &view_inst)?,
                apply_seconds: registry.timer(&format!("ivm.workload.answer.{name}.apply_seconds")),
            });
        }
        Ok(MaintainedWorkload {
            base: base.clone(),
            views: view_inst,
            stages,
            shared,
            answers,
        })
    }

    /// Use up to `workers` threads for the evaluation phase of every
    /// stage's delta rounds (bit-identical state for every count).
    pub fn set_workers(&mut self, workers: usize) {
        for stage in self.stages.iter_mut().chain(&mut self.shared) {
            stage.plan.set_workers(workers);
        }
        for answer in &mut self.answers {
            answer.plan.set_workers(workers);
        }
    }

    /// Cumulative sharded-evaluation counters summed across every stage,
    /// shared fragment and answer.
    pub fn maint_stats(&self) -> nrs_ivm::MaintStats {
        let mut total = nrs_ivm::MaintStats::default();
        for stage in self.stages.iter().chain(&self.shared) {
            total += stage.plan.maint_stats();
        }
        for answer in &self.answers {
            total += answer.plan.maint_stats();
        }
        total
    }

    /// Apply a batch of *base* updates through the whole workload; returns
    /// the exact per-query answer deltas (empty deltas included, so the
    /// result always has one entry per query, in workload order).
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<AnswerDeltas, SynthesisError> {
        self.apply_inner(batch, true).map_err(|(_, e)| e.into())
    }

    /// The shared propagation step: the batch is normalized against and
    /// applied to the one base instance; each view and each shared fragment
    /// is maintained exactly once, its new output bound into the one view
    /// instance; every answer is delta-fed from the combined view + shared
    /// batch.  A failure names the stage it came from (`None`: the batch
    /// itself was rejected).
    ///
    /// With `in_place`, each stage's output is unbound from the view
    /// instance while the stage propagates (no stage reads its own name):
    /// unless some clone of the workload holds it too, the stage then owns
    /// it alone and edits it in place.  The transactional applies pass
    /// `false` — their rollback clone holds every output, so unbinding
    /// would save nothing — and an output the stage left unchanged then
    /// keeps its binding.
    fn apply_inner(
        &mut self,
        batch: &UpdateBatch,
        in_place: bool,
    ) -> Result<AnswerDeltas, (Option<FailLoc>, IvmError)> {
        let (shared_ctr, applies_ctr) = workload_obs();
        let exact = batch.normalize_against(&self.base).map_err(|e| (None, e))?;
        exact.apply_mut(&mut self.base).map_err(|e| (None, e))?;
        let mut view_batch = UpdateBatch::new();
        for (i, stage) in self.stages.iter_mut().enumerate() {
            if in_place {
                self.views.unbind(&stage.name);
            }
            let delta = stage.plan.propagate(&self.base, &exact);
            let out = stage.plan.value(&self.base).clone();
            share_output(&mut self.views, stage.name, out);
            let delta = delta.map_err(|e| (Some(FailLoc::Stage(i)), e))?;
            if !delta.is_empty() {
                view_batch.push_delta(stage.name, delta);
            }
        }
        let mut combined = view_batch.clone();
        for (i, stage) in self.shared.iter_mut().enumerate() {
            if in_place {
                self.views.unbind(&stage.name);
            }
            let delta = stage.plan.propagate(&self.views, &view_batch);
            let out = stage.plan.value(&self.views).clone();
            share_output(&mut self.views, stage.name, out);
            let delta = delta.map_err(|e| (Some(FailLoc::Shared(i)), e))?;
            if !delta.is_empty() {
                combined.push_delta(stage.name, delta);
            }
        }
        shared_ctr.add((self.stages.len() + self.shared.len()) as u64);
        applies_ctr.inc();
        let mut out = Vec::with_capacity(self.answers.len());
        for (i, answer) in self.answers.iter_mut().enumerate() {
            let delta = if combined.is_empty() {
                DeltaSet::new()
            } else {
                let start = std::time::Instant::now();
                let delta = answer
                    .plan
                    .propagate(&self.views, &combined)
                    .map_err(|e| (Some(FailLoc::Answer(i)), e))?;
                answer.apply_seconds.record_duration(start.elapsed());
                delta
            };
            out.push((answer.name, delta));
        }
        Ok(out)
    }

    /// Like [`MaintainedWorkload::apply`], but all-or-nothing across every
    /// stage and every answer: on failure the workload is rolled back to its
    /// pre-batch state (a clone taken before the batch) and the error is
    /// returned.
    pub fn apply_transactional(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<AnswerDeltas, SynthesisError> {
        let before = self.clone();
        self.apply_inner(batch, false).map_err(|(_, e)| {
            *self = before;
            e.into()
        })
    }

    /// Self-healing apply: transactional, and an operator failure
    /// additionally **degrades** the failing operator to recompute-on-dirty
    /// (visible in [`MaintainedWorkload::coverage`]) and retries the batch
    /// through the degraded plan.  Returns the answer deltas together with
    /// the operators degraded while processing this batch.  Validation
    /// errors are returned as-is — there is nothing to heal.
    pub fn apply_resilient(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(AnswerDeltas, Vec<DegradedOperator>), SynthesisError> {
        let mut degraded = Vec::new();
        loop {
            let before = self.clone();
            let (loc, e) = match self.apply_inner(batch, false) {
                Ok(d) => return Ok((d, degraded)),
                Err(failure) => failure,
            };
            *self = before;
            // a rejected batch has nothing to heal, and a failure without
            // an operator to blame (e.g. an internal invariant violation)
            // cannot be healed by degradation
            let (Some(loc), Some(op), false) = (loc, e.operator(), e.is_validation()) else {
                return Err(e.into());
            };
            let (owner, plan, env) = match loc {
                FailLoc::Stage(i) => (self.stages[i].name, &mut self.stages[i].plan, &self.base),
                FailLoc::Shared(i) => (self.shared[i].name, &mut self.shared[i].plan, &self.views),
                FailLoc::Answer(i) => {
                    (self.answers[i].name, &mut self.answers[i].plan, &self.views)
                }
            };
            if plan.degraded().contains(&op) {
                // the operator failed *again* while already degraded (its
                // recompute path is broken too): give up rather than loop
                return Err(e.into());
            }
            plan.degrade(op, env).map_err(SynthesisError::from)?;
            degraded.push(DegradedOperator { view: owner, op });
        }
    }

    /// Per-stage maintenance coverage across views, shared fragments and
    /// answers.
    pub fn coverage(&self) -> WorkloadCoverage {
        WorkloadCoverage {
            views: self
                .stages
                .iter()
                .map(|s| (s.name, s.plan.coverage()))
                .collect(),
            shared: self
                .shared
                .iter()
                .map(|s| (s.name, s.plan.coverage()))
                .collect(),
            answers: self
                .answers
                .iter()
                .map(|a| (a.name, a.plan.coverage()))
                .collect(),
        }
    }

    /// The operators currently degraded across the workload.
    pub fn degraded_operators(&self) -> Vec<DegradedOperator> {
        let stages = self
            .stages
            .iter()
            .chain(&self.shared)
            .map(|s| (s.name, &s.plan));
        let answers = self.answers.iter().map(|a| (a.name, &a.plan));
        stages
            .chain(answers)
            .flat_map(|(view, plan)| {
                plan.degraded()
                    .iter()
                    .map(move |&op| DegradedOperator { view, op })
            })
            .collect()
    }

    /// The maintained answers, in workload order.
    pub fn answers(&self) -> Vec<(Name, &Value)> {
        self.answers
            .iter()
            .map(|a| (a.name, a.plan.value(&self.views)))
            .collect()
    }

    /// The maintained answer of one query.
    pub fn answer(&self, name: &Name) -> Option<&Value> {
        self.answers
            .iter()
            .find(|a| &a.name == name)
            .map(|a| a.plan.value(&self.views))
    }

    /// The maintained materialization of one view or shared fragment.
    pub fn view(&self, name: &Name) -> Option<&Value> {
        self.views.try_get(name)
    }

    /// Number of shared-fragment stages.
    pub fn shared_count(&self) -> usize {
        self.shared.len()
    }

    /// Number of view stages.
    pub fn view_count(&self) -> usize {
        self.stages.len()
    }

    /// The base instance at its current (post-batch) state.
    pub fn base(&self) -> &Instance {
        &self.base
    }

    /// The current view instance: view and shared-fragment names bound to
    /// their maintained values (shared with the stages, not copies).
    pub fn view_instance(&self) -> &Instance {
        &self.views
    }

    /// The instance the shared fragments and answers are maintained over —
    /// the [view instance][MaintainedWorkload::view_instance].
    pub fn answer_instance(&self) -> &Instance {
        &self.views
    }

    /// Naive end-to-end check: every maintained view, shared fragment and
    /// answer is compared against from-scratch naive evaluation, and every
    /// answer additionally against the *original* (unrewritten) query
    /// evaluated directly on the current base — incremental maintenance,
    /// fragment sharing and rewriting all checked against the oracle.
    pub fn cross_check(&self, rewriting: &WorkloadRewriting) -> Result<bool, SynthesisError> {
        let env = rewriting.problem.base_env();
        let mut gen = nrs_value::NameGen::new();
        let base = self.base();
        let mut view_inst = Instance::new();
        for view in &rewriting.problem.views {
            let expr = view
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let naive =
                nrc_eval::eval(&expr, base).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            match self.view(&view.name) {
                Some(v) if v == &naive => view_inst.bind(view.name, naive),
                _ => return Ok(false),
            };
        }
        let mut aug = view_inst;
        for (name, expr) in &rewriting.shared().views {
            let naive =
                nrc_eval::eval(expr, &aug).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            match self.view(name) {
                Some(v) if v == &naive => aug.bind(*name, naive),
                _ => return Ok(false),
            };
        }
        for (name, expr) in &rewriting.shared().queries {
            let naive =
                nrc_eval::eval(expr, &aug).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            if self.answer(name) != Some(&naive) {
                return Ok(false);
            }
        }
        for query in &rewriting.problem.queries {
            let mut qgen = nrs_value::NameGen::new();
            let q_expr = query
                .to_nrc(&env, &mut qgen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let direct =
                nrc_eval::eval(&q_expr, base).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            if self.answer(&query.name) != Some(&direct) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{partition_instance, partition_problem};
    use crate::workload::{overlapping_workload_problem, WorkloadProblem};
    use crate::SynthesisConfig;

    /// The one-query partition problem, maintained as a one-entry workload.
    fn partition_rewriting() -> (WorkloadProblem, WorkloadRewriting) {
        let problem = partition_problem();
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("rewriting exists");
        (problem, rewriting)
    }

    #[test]
    fn maintained_rewriting_tracks_base_updates() {
        let (problem, rewriting) = partition_rewriting();
        let q = problem.queries[0].name;
        let base = partition_instance(40, 7);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        // the initial answer agrees with answering from fresh views
        let fresh = rewriting
            .answers_from_views(&problem.materialize_views(&base).unwrap())
            .unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(mw.answer(&q), Some(&fresh[0].1));
        // stream single-tuple updates through S and F, checking naively
        for i in 0..30u64 {
            let mut batch = UpdateBatch::new();
            match i % 4 {
                0 => batch.insert("S", Value::atom(500 + i)),
                1 => batch.insert("F", Value::atom(500 + i - 1)),
                2 => batch.delete("S", Value::atom(500 + i - 2)),
                _ => batch.delete("F", Value::atom(i % 7)),
            };
            mw.apply(&batch).expect("maintenance step");
            assert!(
                mw.cross_check(&rewriting).expect("oracle re-evaluation"),
                "diverged from the naive oracle at step {i}"
            );
        }
    }

    #[test]
    fn transactional_apply_rejects_malformed_batches_without_state_change() {
        let (problem, rewriting) = partition_rewriting();
        let q = problem.queries[0].name;
        let base = partition_instance(20, 3);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        let before = mw.answer(&q).expect("answer for Q").clone();
        // a delta with overlapping sides is malformed on every path
        let mut ds = DeltaSet::new();
        ds.inserts.insert(Value::atom(1));
        ds.deletes.insert(Value::atom(1));
        // the insert/delete builders cancel opposite sides, so an overlap is
        // only constructible by wrapping a hand-built delta verbatim
        let batch = UpdateBatch::from_delta("S", ds);
        let err = mw.apply_transactional(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::Maintenance(IvmError::OverlappingDelta { .. })
            ),
            "got {err}"
        );
        assert_eq!(
            mw.answer(&q),
            Some(&before),
            "validation errors leave state untouched"
        );
        assert!(mw.cross_check(&rewriting).unwrap());
        // a healthy pipeline is fully incremental with nothing degraded
        assert!(mw.coverage().fully_incremental());
        assert!(mw.degraded_operators().is_empty());
        // and a resilient apply of a good batch degrades nothing
        let mut good = UpdateBatch::new();
        good.insert("S", Value::atom(7777));
        let (_, degraded) = mw.apply_resilient(&good).expect("resilient apply");
        assert!(degraded.is_empty());
        assert!(mw.cross_check(&rewriting).unwrap());
    }

    #[test]
    fn maintained_workload_tracks_base_updates() {
        let problem = overlapping_workload_problem(4);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(30, 11);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        // the initial answers agree with answering from fresh views
        let fresh = rewriting
            .answers_from_views(&problem.materialize_views(&base).unwrap())
            .unwrap();
        let initial: Vec<(Name, Value)> = mw
            .answers()
            .into_iter()
            .map(|(n, v)| (n, v.clone()))
            .collect();
        assert_eq!(initial, fresh);
        assert!(mw.cross_check(&rewriting).unwrap());
        assert!(mw.coverage().fully_incremental());
        // stream single-tuple updates through S and F, checking naively
        for i in 0..24u64 {
            let mut batch = UpdateBatch::new();
            match i % 4 {
                0 => batch.insert("S", Value::atom(700 + i)),
                1 => batch.insert("F", Value::atom(700 + i - 1)),
                2 => batch.delete("S", Value::atom(700 + i - 2)),
                _ => batch.delete("F", Value::atom(i % 5)),
            };
            let deltas = mw.apply(&batch).expect("maintenance step");
            assert_eq!(deltas.len(), problem.queries.len(), "one delta per query");
            assert!(
                mw.cross_check(&rewriting).expect("oracle re-evaluation"),
                "diverged from the naive oracle at step {i}"
            );
        }
    }

    #[test]
    fn workload_maintains_each_shared_view_once_per_apply() {
        let problem = overlapping_workload_problem(4);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        assert!(
            mw_shared_count(&rewriting) > 0,
            "the fixture must produce at least one shared fragment"
        );
        let base = partition_instance(16, 5);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        let per_apply = (mw.view_count() + mw.shared_count()) as u64;
        let counter = nrs_obs::global().counter("ivm.views_shared_total");
        for i in 0..5u64 {
            let before = counter.get();
            let mut batch = UpdateBatch::new();
            batch.insert("S", Value::atom(900 + i));
            mw.apply(&batch).expect("apply");
            assert_eq!(
                counter.get() - before,
                per_apply,
                "each view and shared fragment is maintained exactly once per apply"
            );
        }
        assert!(mw.cross_check(&rewriting).unwrap());
    }

    fn mw_shared_count(rewriting: &WorkloadRewriting) -> usize {
        rewriting.shared().views.len()
    }

    #[test]
    fn workload_transactional_apply_rejects_malformed_batches() {
        let problem = overlapping_workload_problem(2);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(12, 9);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        let before: Vec<(Name, Value)> = mw
            .answers()
            .into_iter()
            .map(|(n, v)| (n, v.clone()))
            .collect();
        // a delta with overlapping sides is malformed on every path; the
        // insert/delete builders cancel opposite sides, so an overlap is
        // only constructible by wrapping a hand-built delta verbatim
        let mut ds = DeltaSet::new();
        ds.inserts.insert(Value::atom(1));
        ds.deletes.insert(Value::atom(1));
        let batch = UpdateBatch::from_delta("S", ds);
        let err = mw.apply_transactional(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::Maintenance(IvmError::OverlappingDelta { .. })
            ),
            "got {err}"
        );
        let after: Vec<(Name, Value)> = mw
            .answers()
            .into_iter()
            .map(|(n, v)| (n, v.clone()))
            .collect();
        assert_eq!(before, after, "validation errors leave state untouched");
        assert!(mw.cross_check(&rewriting).unwrap());
        // a healthy pipeline is fully incremental with nothing degraded
        assert!(mw.coverage().fully_incremental());
        assert!(mw.degraded_operators().is_empty());
        // and a resilient apply of a good batch degrades nothing
        let (deltas, degraded) = mw
            .apply_resilient(&UpdateBatch::new().insert("S", Value::atom(424242)).clone())
            .expect("resilient apply");
        assert!(degraded.is_empty());
        assert_eq!(deltas.len(), problem.queries.len());
        assert!(mw.cross_check(&rewriting).unwrap());
    }
}
