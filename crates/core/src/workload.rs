//! Workload synthesis: many specs, one shared view set (ROADMAP item 2).
//!
//! The paper's pipeline synthesizes *one* rewriting from *one* implicit
//! specification.  A production service maintains materialized views for
//! *dozens* of query templates over the same schema — and those templates
//! overlap: they share view definitions, integrity constraints and whole
//! sub-queries.  This module amortizes both halves of the pipeline across
//! such a batch (the shape of cozy's `synthesize_queries`):
//!
//! 1. **One proving pass.**  [`synthesize_workload_with`] pre-walks every
//!    entry's Theorem-10 recursion (`plan_collect`) into one
//!    `GoalBatch` in **deduping** mode: structurally identical sequents —
//!    cheap to detect, the formulas are hash-consed — collapse onto a
//!    single batch slot, so a proof obligation shared by several specs is
//!    dispatched to [`ProverSession::prove_batch`] exactly once.  Goals
//!    that are *similar* but not identical still prune each other through
//!    the session's failure memo, goal-outcome cache and specialization
//!    cache.  The collapse count is reported as
//!    [`WorkloadReport::shared_goals_dedup`] and the
//!    `synth.shared_goals_dedup` counter.
//! 2. **One shared view set.**  After per-entry assembly, the simplified
//!    rewriting expressions are scanned for *closed set-typed fragments*
//!    (no locally bound variables escape) that occur in two or more
//!    queries, compared up to alpha-equivalence (binders renamed in
//!    fragment-local preorder, so structurally equal fragments with
//!    different generated names match).  Each such fragment is hoisted
//!    into a named shared view and every occurrence replaced by a
//!    reference — the [`SharedViewSet`] the maintenance layer
//!    ([`MaintainedWorkload`](crate::ivm::MaintainedWorkload)) materializes
//!    once and delta-feeds into every dependent answer.
//!
//! The per-entry outputs are bit-identical to what single-spec
//! [`synthesize`](crate::synthesis::synthesize) produces for the same spec
//! (property-tested): planning mirrors the single-spec recursion name-for-
//! name, and deduplication only short-circuits proofs that would have been
//! found identically.
//!
//! [`WorkloadProblem`] is the Corollary 3 packaging: one base schema, one
//! view set, N named queries; [`derive_workload`](WorkloadProblem::derive_workload)
//! canonicalizes every query's output name so that structurally equal
//! queries produce *identical* specifications (maximal goal dedup) and
//! returns a [`WorkloadRewriting`] ready for maintenance and serving.

use crate::synthesis::{
    assemble_collect, merge_report, observed_run, plan_collect, record_stats, synthesize_with,
    CollectPlan, Ctx, GoalBatch, ImplicitSpec, SynthesisConfig, SynthesisError, SynthesisReport,
    SynthesizedDefinition,
};
use nrs_delta0::macros as d0;
use nrs_delta0::typing::TypeEnv;
use nrs_delta0::{Formula, InContext, MemAtom, Term};
use nrs_interp::interpolate;
use nrs_interp::partition::Partition;
use nrs_nrc::spec::ViewDef;
use nrs_nrc::{compile, eval as nrc_eval, macros as nrc_macros, Expr};
use nrs_proof::Sequent;
use nrs_prover::{prove_sequent, ProverSession};
use nrs_value::{Instance, Name, NameGen, Type, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Cached handles into the global [`nrs_obs`] registry for workload runs.
struct ObsMetrics {
    workloads: std::sync::Arc<nrs_obs::Counter>,
    entries: std::sync::Arc<nrs_obs::Counter>,
    shared_goals_dedup: std::sync::Arc<nrs_obs::Counter>,
    shared_views: std::sync::Arc<nrs_obs::Counter>,
    interpolations: std::sync::Arc<nrs_obs::Counter>,
    interpolants_reused: std::sync::Arc<nrs_obs::Counter>,
}

fn obs() -> &'static ObsMetrics {
    static METRICS: std::sync::OnceLock<ObsMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        ObsMetrics {
            workloads: r.counter("synth.workloads_total"),
            entries: r.counter("synth.workload_entries_total"),
            shared_goals_dedup: r.counter("synth.shared_goals_dedup"),
            shared_views: r.counter("synth.workload_shared_views_total"),
            interpolations: r.counter("synth.interpolations_total"),
            interpolants_reused: r.counter("synth.interpolants_reused_total"),
        }
    })
}

/// A batch of named implicit specifications over one schema, synthesized
/// together so shared proof obligations are proved once.
///
/// Entry names must be distinct — they key the per-query answers all the way
/// through maintenance ([`MaintainedWorkload`](crate::ivm::MaintainedWorkload))
/// and serving.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    entries: Vec<(Name, ImplicitSpec)>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Workload {
        Workload::default()
    }

    /// Builder-style: the workload extended with one named spec.
    pub fn with_entry(mut self, name: impl Into<Name>, spec: ImplicitSpec) -> Workload {
        self.push(name, spec);
        self
    }

    /// Append one named spec.
    pub fn push(&mut self, name: impl Into<Name>, spec: ImplicitSpec) -> &mut Workload {
        self.entries.push((name.into(), spec));
        self
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[(Name, ImplicitSpec)] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the workload empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn check_distinct_names(&self) -> Result<(), SynthesisError> {
        let mut seen = BTreeSet::new();
        for (name, _) in &self.entries {
            if !seen.insert(*name) {
                return Err(SynthesisError::Ill(format!(
                    "duplicate workload entry name {name}"
                )));
            }
        }
        Ok(())
    }
}

/// Aggregated counters of one workload synthesis run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Number of specs in the workload.
    pub entries: usize,
    /// Goals recorded across all entries *before* deduplication.
    pub goals_recorded: usize,
    /// Goals that collapsed onto an identical earlier goal — proof
    /// obligations shared across specs and proved exactly once.
    pub shared_goals_dedup: usize,
    /// Entries synthesized through the single-spec fallback path (product
    /// outputs, whose component recursion cannot be pre-walked).
    pub fallback_entries: usize,
    /// Interpolants the assembly phase asked for, reused ones included.
    pub interpolations: usize,
    /// Interpolants answered from an earlier entry that split the same
    /// deduplicated proof the same way, instead of interpolating again.
    pub interpolants_reused: usize,
    /// The merged [`SynthesisReport`] across every entry: unique goals are
    /// counted once (attributed to the entry that first recorded them), so
    /// `synthesis.states_visited` is the true total prover work of the run —
    /// the number the dedup acceptance test compares against N independent
    /// runs.
    pub synthesis: SynthesisReport,
}

/// A common view set extracted from the per-query rewritings: fragments that
/// occur (up to alpha-equivalence) in two or more queries, hoisted into
/// named shared views, plus the query expressions rewritten to reference
/// them.
///
/// Evaluating `queries` over an instance binding the original inputs *and*
/// the `views` (in order — later shared views may not reference earlier
/// ones; they are all defined over the inputs) yields exactly the same
/// answers as the unrewritten definitions; the maintenance layer exploits
/// this to materialize each shared fragment once per update batch.
#[derive(Debug, Clone, Default)]
pub struct SharedViewSet {
    /// The hoisted shared materializations, defined over the input names.
    /// The names are generated (`__shared#k`) and cannot collide with user
    /// names (`#` is rejected in user-facing names).
    pub views: Vec<(Name, Expr)>,
    /// Per-query answer expressions over the inputs plus the shared names.
    pub queries: Vec<(Name, Expr)>,
    /// Fragment occurrences eliminated by sharing: total replaced
    /// occurrences minus one definition per shared view.
    pub fragments_collapsed: usize,
}

impl SharedViewSet {
    /// The rewritten expression of one query.
    pub fn query(&self, name: &Name) -> Option<&Expr> {
        self.queries.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }
}

/// The result of synthesizing a [`Workload`]: one definition per entry
/// (bit-identical to single-spec synthesis of the same spec), the shared
/// view set across them, and the aggregated report.
#[derive(Debug, Clone)]
pub struct WorkloadSynthesis {
    /// Per-entry synthesized definitions, in workload order.
    pub definitions: Vec<(Name, SynthesizedDefinition)>,
    /// Fragments shared across the definitions, hoisted into named views.
    pub shared: SharedViewSet,
    /// Aggregated counters.
    pub report: WorkloadReport,
}

impl WorkloadSynthesis {
    /// The definition synthesized for one entry.
    pub fn definition(&self, name: &Name) -> Option<&SynthesizedDefinition> {
        self.definitions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }
}

/// The pre-walked shape of one workload entry: everything the assembly
/// phase needs besides the proofs.
enum OutputShape {
    /// Unit output: the definition is `()` — no goals.
    Unit,
    /// Ur output: one interpolation goal at `goal_idx`.
    Ur { goal_idx: usize },
    /// Set output: the Theorem 10 plan plus the membership goal.
    Set {
        r: Name,
        elem_ty: Type,
        ctx_atoms: Vec<MemAtom>,
        env_r: TypeEnv,
        plan: CollectPlan,
        mem_idx: usize,
    },
    /// Product output: synthesized through the single-spec path on the
    /// shared session (the component recursion spawns fresh specs that
    /// cannot be pre-walked into this batch).
    Fallback,
}

/// One planned entry, carried from the plan phase to the assembly phase.
struct EntryPlan {
    name: Name,
    spec: ImplicitSpec,
    ctx: Ctx,
    gen: NameGen,
    env: TypeEnv,
    shape: OutputShape,
    /// Unique goal indices this entry recorded *first* (its exclusive share
    /// of the batch); stats of deduplicated goals are attributed to their
    /// first owner, so summing per-entry reports never double counts.
    first_recorded: Vec<usize>,
    report: SynthesisReport,
}

/// Synthesize every entry of a workload through one shared prover session
/// created from `cfg` (see [`synthesize_workload_with`]).
pub fn synthesize_workload(
    workload: &Workload,
    cfg: &SynthesisConfig,
) -> Result<WorkloadSynthesis, SynthesisError> {
    let session = ProverSession::new(cfg.prover.clone());
    synthesize_workload_with(workload, cfg, &session)
}

/// Synthesize every entry of a workload against a caller-provided session:
/// all goals of all entries are pre-walked into **one** deduplicated
/// `GoalBatch` and proved in a single [`ProverSession::prove_batch`]
/// dispatch, then each entry is assembled from the shared proof vector.
///
/// Prefer [`Synthesizer::synthesize_workload`](crate::Synthesizer::synthesize_workload)
/// for the session-owning facade.
pub fn synthesize_workload_with(
    workload: &Workload,
    cfg: &SynthesisConfig,
    session: &ProverSession,
) -> Result<WorkloadSynthesis, SynthesisError> {
    // the whole workload is one synthesis run (`synth.run` span and counters)
    observed_run(|span| {
        span.record("entries", workload.len());
        synthesize_workload_inner(workload, cfg, session, span)
    })
}

fn synthesize_workload_inner(
    workload: &Workload,
    cfg: &SynthesisConfig,
    session: &ProverSession,
    span: &mut nrs_obs::Span,
) -> Result<WorkloadSynthesis, SynthesisError> {
    let m = obs();
    m.workloads.inc();
    m.entries.add(workload.len() as u64);
    workload.check_distinct_names()?;

    // ---- plan phase: walk every entry, recording goals into one batch ----
    let mut batch = GoalBatch::deduping();
    let mut plans = Vec::with_capacity(workload.len());
    let plan_span = nrs_obs::span("synth.workload.plan");
    for (name, spec) in workload.entries() {
        plans.push(plan_entry(*name, spec, cfg, session, &mut batch)?);
    }
    drop(plan_span);
    let goals_recorded = batch.seqs.len() + batch.dedup_hits;
    let shared_goals_dedup = batch.dedup_hits;
    m.shared_goals_dedup.add(shared_goals_dedup as u64);

    // ---- prove phase: one batched dispatch over the unique goals ----
    let prove_span = nrs_obs::span("synth.workload.prove_batch").with("goals", batch.seqs.len());
    let outcomes = if cfg.share_prover_session {
        session.prove_batch(&batch.seqs)
    } else {
        batch
            .seqs
            .iter()
            .map(|s| prove_sequent(s, session.config()))
            .collect()
    };
    let mut proofs = Vec::with_capacity(outcomes.len());
    let mut stats = Vec::with_capacity(outcomes.len());
    for (outcome, purpose) in outcomes.into_iter().zip(&batch.purposes) {
        match outcome {
            Ok((proof, st)) => {
                proofs.push(proof);
                stats.push(st);
            }
            Err(error) => {
                return Err(SynthesisError::ProofNotFound {
                    purpose: purpose.clone(),
                    error,
                })
            }
        }
    }
    drop(prove_span);

    // ---- assembly phase: replay each entry over the shared proof vector ----
    let mut assemble_span = nrs_obs::span("synth.workload.assemble").with("proofs", proofs.len());
    let mut interpolants = Interpolants::default();
    let mut definitions = Vec::with_capacity(plans.len());
    let mut aggregate = SynthesisReport::default();
    let mut fallback_entries = 0usize;
    for mut plan in plans {
        // attribute each first-recorded unique goal's stats to this entry
        for &idx in &plan.first_recorded {
            record_stats(
                &batch.purposes[idx],
                proofs[idx].size(),
                &stats[idx],
                &mut plan.report,
            );
        }
        let def = assemble_entry(
            plan,
            &proofs,
            &mut interpolants,
            cfg,
            session,
            &mut fallback_entries,
        )?;
        merge_report(&mut aggregate, def.1.report.clone());
        definitions.push(def);
    }
    m.interpolations.add(interpolants.requested as u64);
    m.interpolants_reused.add(interpolants.reused as u64);
    assemble_span.record("interpolations", interpolants.requested);
    assemble_span.record("interpolants_reused", interpolants.reused);
    drop(assemble_span);

    // ---- shared view set across the simplified rewritings ----
    let shared = extract_shared_views(
        definitions
            .iter()
            .map(|(n, d)| (*n, d.expr().clone()))
            .collect(),
    );
    m.shared_views.add(shared.views.len() as u64);
    span.record("goals", goals_recorded);
    span.record("dedup", shared_goals_dedup);
    span.record("shared_views", shared.views.len());

    Ok(WorkloadSynthesis {
        definitions,
        shared,
        report: WorkloadReport {
            entries: workload.len(),
            goals_recorded,
            shared_goals_dedup,
            fallback_entries,
            interpolations: interpolants.requested,
            interpolants_reused: interpolants.reused,
            synthesis: aggregate,
        },
    })
}

/// The plan phase of one entry: mirrors `synthesize_with_inner` +
/// `synth_output` name-for-name so a singleton workload is bit-identical to
/// single-spec synthesis, but records goals instead of proving them.
fn plan_entry(
    name: Name,
    spec: &ImplicitSpec,
    cfg: &SynthesisConfig,
    session: &ProverSession,
    batch: &mut GoalBatch,
) -> Result<EntryPlan, SynthesisError> {
    let mut report = SynthesisReport::default();
    let mut first_recorded = Vec::new();
    let mut gen = NameGen::avoiding(
        spec.formula
            .free_vars()
            .iter()
            .chain(spec.inputs.iter().map(|(n, _)| n))
            .chain(std::iter::once(&spec.output.0)),
    );
    let (phi_primed, primed_out, primed_aux) = spec.primed();
    let mut env = spec.env();
    env.insert(primed_out, spec.output.1.clone());
    for (n, t) in &primed_aux {
        env.insert(*n, t.clone());
    }

    let push_tracked = |batch: &mut GoalBatch,
                        first: &mut Vec<usize>,
                        report: &mut SynthesisReport,
                        seq: Sequent,
                        purpose: String| {
        let before = batch.seqs.len();
        let idx = batch.push(seq, purpose);
        if batch.seqs.len() > before {
            first.push(idx);
        } else {
            report
                .notes
                .push("goal shared with an earlier workload entry (deduplicated)".into());
        }
        idx
    };

    if cfg.check_determinacy {
        let goal = d0::equiv(
            &spec.output.1,
            &Term::Var(spec.output.0),
            &Term::Var(primed_out),
            &mut gen,
        );
        let seq = Sequent::two_sided(
            InContext::new(),
            [spec.formula.clone(), phi_primed.clone()],
            [goal],
        );
        push_tracked(
            batch,
            &mut first_recorded,
            &mut report,
            seq,
            format!("the determinacy of the output (entry {name})"),
        );
        report
            .notes
            .push("determinacy established by proof search".into());
    }

    let ctx = Ctx {
        phi: spec.formula.clone(),
        phi_primed: phi_primed.clone(),
        primed_out,
        inputs: spec.inputs.clone(),
        cfg: cfg.clone(),
        session: session.clone(),
    };
    let shape = match &spec.output.1 {
        Type::Unit => {
            report
                .notes
                .push("output has type Unit: the definition is ()".into());
            OutputShape::Unit
        }
        Type::Ur => {
            let goal = Formula::eq_ur(Term::Var(spec.output.0), Term::Var(ctx.primed_out));
            let seq = Sequent::two_sided(
                InContext::new(),
                [ctx.phi.clone(), ctx.phi_primed.clone()],
                [goal],
            );
            let goal_idx = push_tracked(
                batch,
                &mut first_recorded,
                &mut report,
                seq,
                format!("the Ur-output interpolation goal (entry {name})"),
            );
            OutputShape::Ur { goal_idx }
        }
        Type::Set(elem_ty) => {
            let r = gen.fresh("r");
            let ctx_atoms = vec![MemAtom::new(Term::Var(r), Term::Var(spec.output.0))];
            let mut env_r = env.clone();
            env_r.insert(r, (**elem_ty).clone());
            let before = batch.seqs.len();
            let dedup_before = batch.dedup_hits;
            let plan = plan_collect(
                &ctx,
                &ctx_atoms,
                &Term::Var(r),
                elem_ty,
                1,
                &env_r,
                &mut gen,
                batch,
            )?;
            first_recorded.extend(before..batch.seqs.len());
            for _ in dedup_before..batch.dedup_hits {
                report
                    .notes
                    .push("goal shared with an earlier workload entry (deduplicated)".into());
            }
            // the membership interpolation goal, exactly as in synth_output
            let rp = gen.fresh("rp");
            let goal = Formula::exists(
                rp,
                Term::Var(ctx.primed_out),
                d0::equiv(elem_ty, &Term::Var(r), &Term::Var(rp), &mut gen),
            );
            let seq = Sequent::two_sided(
                InContext::from_atoms(ctx_atoms.clone()),
                [ctx.phi.clone(), ctx.phi_primed.clone()],
                [goal],
            );
            let mem_idx = push_tracked(
                batch,
                &mut first_recorded,
                &mut report,
                seq,
                format!("the membership interpolation goal (entry {name})"),
            );
            OutputShape::Set {
                r,
                elem_ty: (**elem_ty).clone(),
                ctx_atoms,
                env_r,
                plan,
                mem_idx,
            }
        }
        Type::Prod(_, _) => {
            report.notes.push(
                "product output: synthesized through the single-spec fallback on the shared \
                 session"
                    .into(),
            );
            OutputShape::Fallback
        }
    };
    Ok(EntryPlan {
        name,
        spec: spec.clone(),
        ctx,
        gen,
        env,
        shape,
        first_recorded,
        report,
    })
}

/// The interpolants of one workload's assembly, keyed by (proof index,
/// partition).  Entries whose goals deduplicated onto one proof usually
/// split it the same way too, and then share one interpolation: the
/// interpolant is a function of the proof and the partition alone.
#[derive(Default)]
struct Interpolants {
    computed: Vec<(usize, Partition, Formula)>,
    /// Interpolants asked for, reused ones included.
    requested: usize,
    /// Interpolants answered from `computed`.
    reused: usize,
}

impl Interpolants {
    /// The interpolant of `proofs[idx]` under `partition`, computed on first
    /// request.
    fn get(
        &mut self,
        proofs: &[nrs_proof::Proof],
        idx: usize,
        partition: Partition,
    ) -> Result<Formula, SynthesisError> {
        self.requested += 1;
        if let Some((.., kappa)) = self
            .computed
            .iter()
            .find(|(i, p, _)| *i == idx && *p == partition)
        {
            self.reused += 1;
            return Ok(kappa.clone());
        }
        let kappa = interpolate(&proofs[idx], &partition)?;
        self.computed.push((idx, partition, kappa.clone()));
        Ok(kappa)
    }
}

/// The assembly phase of one entry: replay the plan over the shared proof
/// vector, mirroring the single-spec `synth_output` assembly.
fn assemble_entry(
    plan: EntryPlan,
    proofs: &[nrs_proof::Proof],
    interpolants: &mut Interpolants,
    cfg: &SynthesisConfig,
    session: &ProverSession,
    fallback_entries: &mut usize,
) -> Result<(Name, SynthesizedDefinition), SynthesisError> {
    let EntryPlan {
        name,
        spec,
        ctx,
        mut gen,
        env,
        shape,
        first_recorded: _,
        mut report,
    } = plan;
    let expr = match shape {
        OutputShape::Unit => Expr::Unit,
        OutputShape::Ur { goal_idx } => {
            let partition = Partition::with_left([], [ctx.phi.negate()]);
            let kappa = interpolants.get(proofs, goal_idx, partition)?;
            report.notes.push(format!("Ur-output interpolant: {kappa}"));
            let atoms = nrc_macros::atoms_of_inputs(&ctx.inputs, &mut gen);
            let filtered =
                compile::comprehension(spec.output.0, atoms, &Type::Ur, &kappa, &env, &mut gen)?;
            Expr::get(Type::Ur, filtered)
        }
        OutputShape::Set {
            r,
            elem_ty,
            ctx_atoms,
            env_r,
            plan,
            mem_idx,
        } => {
            let superset = assemble_collect(&ctx, &plan, proofs, &mut gen, &mut report)?;
            let partition = Partition::with_left(ctx_atoms.iter().cloned(), [ctx.phi.negate()]);
            let kappa = interpolants.get(proofs, mem_idx, partition)?;
            report
                .notes
                .push(format!("membership interpolant: {kappa}"));
            compile::comprehension(r, superset, &elem_ty, &kappa, &env_r, &mut gen)?
        }
        OutputShape::Fallback => {
            *fallback_entries += 1;
            let def = synthesize_with(&spec, cfg, session)?;
            merge_report(&mut report, def.report.clone());
            return Ok((name, def));
        }
    };
    Ok((name, SynthesizedDefinition::new(expr, spec, report)))
}

// ---------------------------------------------------------------------------
// Shared-fragment extraction
// ---------------------------------------------------------------------------

/// Minimum AST size of a fragment worth hoisting into a shared view.
const MIN_FRAGMENT_SIZE: usize = 3;

/// The fragment-local alpha-canonical form of a *closed* subexpression:
/// every binder is renamed to `__frag#i` in preorder, so two fragments that
/// differ only in generated binder names compare equal.  Only valid for
/// subtrees that reference no binder bound outside themselves.
fn canon_fragment(e: &Expr, map: &BTreeMap<Name, Name>, counter: &mut usize) -> Expr {
    match e {
        Expr::Var(v) => Expr::Var(*map.get(v).unwrap_or(v)),
        Expr::Unit => Expr::Unit,
        Expr::Pair(a, b) => Expr::pair(
            canon_fragment(a, map, counter),
            canon_fragment(b, map, counter),
        ),
        Expr::Proj1(a) => Expr::proj1(canon_fragment(a, map, counter)),
        Expr::Proj2(a) => Expr::proj2(canon_fragment(a, map, counter)),
        Expr::Singleton(a) => Expr::singleton(canon_fragment(a, map, counter)),
        Expr::Get { ty, arg } => Expr::get(ty.clone(), canon_fragment(arg, map, counter)),
        Expr::BigUnion { var, over, body } => {
            let over = canon_fragment(over, map, counter);
            let fresh = Name::new(format!("__frag#{counter}"));
            *counter += 1;
            let mut inner = map.clone();
            inner.insert(*var, fresh);
            Expr::big_union(fresh, over, canon_fragment(body, &inner, counter))
        }
        Expr::Empty(ty) => Expr::empty(ty.clone()),
        Expr::Union(a, b) => Expr::union(
            canon_fragment(a, map, counter),
            canon_fragment(b, map, counter),
        ),
        Expr::Diff(a, b) => Expr::diff(
            canon_fragment(a, map, counter),
            canon_fragment(b, map, counter),
        ),
    }
}

/// Is this node a set-typed candidate worth sharing, closed with respect to
/// the binders currently in scope?
fn is_candidate(e: &Expr, scope: &BTreeSet<Name>) -> bool {
    if !matches!(
        e,
        Expr::BigUnion { .. } | Expr::Union(_, _) | Expr::Diff(_, _)
    ) || e.size() < MIN_FRAGMENT_SIZE
    {
        return false;
    }
    let free = e.free_vars();
    !free.is_empty() && free.iter().all(|v| !scope.contains(v))
}

fn canon_key(e: &Expr) -> Expr {
    canon_fragment(e, &BTreeMap::new(), &mut 0)
}

/// Record every candidate fragment of `e` into `found` (canonical form →
/// set of query indices), walking with the in-scope binder set.
fn collect_candidates(
    e: &Expr,
    query: usize,
    scope: &mut BTreeSet<Name>,
    found: &mut BTreeMap<Expr, BTreeSet<usize>>,
) {
    if is_candidate(e, scope) {
        found.entry(canon_key(e)).or_default().insert(query);
    }
    match e {
        Expr::Var(_) | Expr::Unit | Expr::Empty(_) => {}
        Expr::Pair(a, b) | Expr::Union(a, b) | Expr::Diff(a, b) => {
            collect_candidates(a, query, scope, found);
            collect_candidates(b, query, scope, found);
        }
        Expr::Proj1(a) | Expr::Proj2(a) | Expr::Singleton(a) | Expr::Get { arg: a, .. } => {
            collect_candidates(a, query, scope, found);
        }
        Expr::BigUnion { var, over, body } => {
            collect_candidates(over, query, scope, found);
            let fresh_in_scope = scope.insert(*var);
            collect_candidates(body, query, scope, found);
            if fresh_in_scope {
                scope.remove(var);
            }
        }
    }
}

/// Replace every closed occurrence of the fragment `key` (up to
/// alpha-equivalence) in `e` with `Var(name)`, returning the rewrite and
/// the number of occurrences replaced.
fn hoist(e: &Expr, key: &Expr, name: Name, scope: &mut BTreeSet<Name>) -> (Expr, usize) {
    if is_candidate(e, scope) && &canon_key(e) == key {
        return (Expr::var(name), 1);
    }
    let mut n = 0;
    let out = match e {
        Expr::Var(_) | Expr::Unit | Expr::Empty(_) => e.clone(),
        Expr::Pair(a, b) => {
            let (a, na) = hoist(a, key, name, scope);
            let (b, nb) = hoist(b, key, name, scope);
            n = na + nb;
            Expr::pair(a, b)
        }
        Expr::Union(a, b) => {
            let (a, na) = hoist(a, key, name, scope);
            let (b, nb) = hoist(b, key, name, scope);
            n = na + nb;
            Expr::union(a, b)
        }
        Expr::Diff(a, b) => {
            let (a, na) = hoist(a, key, name, scope);
            let (b, nb) = hoist(b, key, name, scope);
            n = na + nb;
            Expr::diff(a, b)
        }
        Expr::Proj1(a) => {
            let (a, na) = hoist(a, key, name, scope);
            n = na;
            Expr::proj1(a)
        }
        Expr::Proj2(a) => {
            let (a, na) = hoist(a, key, name, scope);
            n = na;
            Expr::proj2(a)
        }
        Expr::Singleton(a) => {
            let (a, na) = hoist(a, key, name, scope);
            n = na;
            Expr::singleton(a)
        }
        Expr::Get { ty, arg } => {
            let (a, na) = hoist(arg, key, name, scope);
            n = na;
            Expr::get(ty.clone(), a)
        }
        Expr::BigUnion { var, over, body } => {
            let (over, no) = hoist(over, key, name, scope);
            let fresh_in_scope = scope.insert(*var);
            let (body, nb) = hoist(body, key, name, scope);
            if fresh_in_scope {
                scope.remove(var);
            }
            n = no + nb;
            Expr::big_union(*var, over, body)
        }
    };
    (out, n)
}

/// Extract the common view set of a batch of query expressions: closed
/// set-typed fragments occurring (alpha-canonically) in ≥ 2 distinct
/// queries are hoisted into named shared views, largest first, and every
/// occurrence is replaced by a reference.
pub(crate) fn extract_shared_views(queries: Vec<(Name, Expr)>) -> SharedViewSet {
    let mut found: BTreeMap<Expr, BTreeSet<usize>> = BTreeMap::new();
    for (i, (_, e)) in queries.iter().enumerate() {
        collect_candidates(e, i, &mut BTreeSet::new(), &mut found);
    }
    // largest fragments first; the BTreeMap key order breaks size ties
    // deterministically
    let mut candidates: Vec<(Expr, BTreeSet<usize>)> =
        found.into_iter().filter(|(_, qs)| qs.len() >= 2).collect();
    candidates.sort_by(|a, b| b.0.size().cmp(&a.0.size()).then_with(|| a.0.cmp(&b.0)));

    let mut rewritten: Vec<(Name, Expr)> = queries;
    let mut views = Vec::new();
    let mut replaced_total = 0usize;
    for (key, _) in candidates {
        // the fragment may have disappeared inside an already-hoisted larger
        // one: hoist tentatively and keep the result only if it still spans
        // two or more queries
        let name = Name::new(format!("__shared#{}", views.len()));
        let mut attempts = Vec::with_capacity(rewritten.len());
        let mut hit_queries = 0usize;
        let mut occurrences = 0usize;
        for (_, e) in &rewritten {
            let (out, n) = hoist(e, &key, name, &mut BTreeSet::new());
            if n > 0 {
                hit_queries += 1;
            }
            occurrences += n;
            attempts.push(out);
        }
        if hit_queries >= 2 {
            for ((_, slot), out) in rewritten.iter_mut().zip(attempts) {
                *slot = out;
            }
            views.push((name, key));
            replaced_total += occurrences;
        }
    }
    let fragments_collapsed = replaced_total.saturating_sub(views.len());
    SharedViewSet {
        views,
        queries: rewritten,
        fragments_collapsed,
    }
}

// ---------------------------------------------------------------------------
// Corollary 3 packaging: one base, one view set, N queries
// ---------------------------------------------------------------------------

/// A multi-query rewriting problem: one base schema, one set of
/// composition-free views, optional Δ0 constraints, and N named queries to
/// rewrite over the views — the production shape of Corollary 3.
#[derive(Debug, Clone)]
pub struct WorkloadProblem {
    /// Base objects and their types.
    pub base: Vec<(Name, Type)>,
    /// The views, as composition-free definitions over the base.
    pub views: Vec<ViewDef>,
    /// Δ0 integrity constraints on the base data (may be empty).
    pub constraints: Vec<Formula>,
    /// The queries, as composition-free definitions over the base; their
    /// names key the answers through maintenance and serving.
    pub queries: Vec<ViewDef>,
}

impl WorkloadProblem {
    /// The typing environment of base objects.
    pub fn base_env(&self) -> TypeEnv {
        TypeEnv::from_pairs(self.base.iter().cloned())
    }

    /// The base declarations as a [`Schema`][nrs_value::Schema].
    pub fn base_schema(&self) -> Result<nrs_value::Schema, SynthesisError> {
        nrs_value::Schema::from_decls(self.base.iter().cloned())
            .map_err(|e| SynthesisError::Ill(e.to_string()))
    }

    /// The [`Workload`] of per-query implicit specifications.  Every query's
    /// output name is canonicalized to the same generated name, so queries
    /// that are structurally equal produce **identical** specifications —
    /// their goals collapse completely in the deduplicated batch.  (The
    /// output name never appears in a synthesized expression, so the
    /// canonicalization is invisible in the result.)
    pub fn workload(&self) -> Result<Workload, SynthesisError> {
        let env = self.base_env();
        let canon_out = NameGen::avoiding(
            self.base
                .iter()
                .map(|(n, _)| n)
                .chain(self.views.iter().map(|v| &v.name))
                .chain(self.queries.iter().map(|q| &q.name)),
        )
        .fresh("__q");
        let mut workload = Workload::new();
        for query in &self.queries {
            // a fresh generator per query: structurally equal queries build
            // identical (hash-consed) formulas
            let mut gen = NameGen::new();
            let mut conjuncts = Vec::new();
            let mut inputs = Vec::new();
            for view in &self.views {
                let io = view
                    .io_spec(&env, &mut gen)
                    .map_err(|e| SynthesisError::Ill(e.to_string()))?;
                conjuncts.push(io);
                let ty = view
                    .output_type(&env)
                    .map_err(|e| SynthesisError::Ill(e.to_string()))?;
                inputs.push((view.name, ty));
            }
            let canon_query = ViewDef::new(canon_out, query.def.clone());
            let q_io = canon_query
                .io_spec(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            conjuncts.push(q_io);
            conjuncts.extend(self.constraints.iter().cloned());
            let out_ty = canon_query
                .output_type(&env)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            workload.push(
                query.name,
                ImplicitSpec {
                    formula: d0::and_all(conjuncts),
                    inputs,
                    auxiliaries: self.base.clone(),
                    output: (canon_out, out_ty),
                },
            );
        }
        Ok(workload)
    }

    /// Run the full multi-query Corollary 3 pipeline with a fresh session.
    pub fn derive_workload(
        &self,
        cfg: &SynthesisConfig,
    ) -> Result<WorkloadRewriting, SynthesisError> {
        let session = ProverSession::new(cfg.prover.clone());
        self.derive_workload_with(cfg, &session)
    }

    /// [`derive_workload`](Self::derive_workload) through a caller-owned
    /// [`ProverSession`].
    pub fn derive_workload_with(
        &self,
        cfg: &SynthesisConfig,
        session: &ProverSession,
    ) -> Result<WorkloadRewriting, SynthesisError> {
        let workload = self.workload()?;
        let synthesis = synthesize_workload_with(&workload, cfg, session)?;
        Ok(WorkloadRewriting {
            problem: self.clone(),
            synthesis,
        })
    }

    /// Materialize only the views over a base instance.
    pub fn materialize_views(&self, base: &Instance) -> Result<Instance, SynthesisError> {
        let env = self.base_env();
        let mut gen = NameGen::new();
        let mut out = Instance::new();
        for view in &self.views {
            let expr = view
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let value = nrs_nrc::eval_optimized(&expr, base)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            out.bind(view.name, value);
        }
        Ok(out)
    }
}

/// The outcome of multi-query rewriting synthesis: per-query definitions
/// over the view names, plus the shared view set they reference.
#[derive(Debug, Clone)]
pub struct WorkloadRewriting {
    /// The problem this was synthesized for.
    pub problem: WorkloadProblem,
    /// The workload synthesis result (definitions, shared set, report).
    pub synthesis: WorkloadSynthesis,
}

impl WorkloadRewriting {
    /// The rewriting definition of one query (expression over view names).
    pub fn definition(&self, name: &Name) -> Option<&SynthesizedDefinition> {
        self.synthesis.definition(name)
    }

    /// Per-query `(name, definition)` pairs, in problem order.
    pub fn queries(&self) -> &[(Name, SynthesizedDefinition)] {
        &self.synthesis.definitions
    }

    /// The shared view set across the query rewritings.
    pub fn shared(&self) -> &SharedViewSet {
        &self.synthesis.shared
    }

    /// The aggregated synthesis report.
    pub fn report(&self) -> &WorkloadReport {
        &self.synthesis.report
    }

    /// Answer every query from materialized views only, through the shared
    /// view set: each shared fragment is evaluated once and every dependent
    /// answer reads it.
    pub fn answers_from_views(
        &self,
        views: &Instance,
    ) -> Result<Vec<(Name, Value)>, SynthesisError> {
        let mut aug = views.clone();
        for (name, expr) in &self.synthesis.shared.views {
            let v = nrs_nrc::eval_optimized(expr, &aug)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            aug.bind(*name, v);
        }
        let mut out = Vec::with_capacity(self.synthesis.shared.queries.len());
        for (name, expr) in &self.synthesis.shared.queries {
            let v = nrs_nrc::eval_optimized(expr, &aug)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            out.push((*name, v));
        }
        Ok(out)
    }

    /// End-to-end check on a base instance: materialize the views, answer
    /// every query through the shared view set, and compare against each
    /// query evaluated directly on the base by the naive evaluator — the
    /// rewritings, the fragment sharing and the optimizer are all checked
    /// against the oracle in one call.
    pub fn verify_on_base(&self, base: &Instance) -> Result<bool, SynthesisError> {
        let env = self.problem.base_env();
        let views = self.problem.materialize_views(base)?;
        let answers: HashMap<Name, Value> = self.answers_from_views(&views)?.into_iter().collect();
        for query in &self.problem.queries {
            let mut gen = NameGen::new();
            let q_expr = query
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let direct =
                nrc_eval::eval(&q_expr, base).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            match answers.get(&query.name) {
                Some(v) if v == &direct => {}
                _ => return Ok(false),
            }
            // the unrewritten definition must agree too
            let def = self
                .definition(&query.name)
                .ok_or_else(|| SynthesisError::Ill(format!("no definition for {}", query.name)))?;
            if def.evaluate(&views)? != direct {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A workload of `n` overlapping queries over the partition views (the
/// fixture of the E10 benches and the workload tests): base `S, F`, views
/// `V1 = S ∩ F`, `V2 = S \ F`, and queries cycling through `S` (the whole
/// set, rewriting `V1 ∪ V2`), `S ∩ F` (rewriting `V1`), `S \ F` (rewriting
/// `V2`) and `S` again — so consecutive windows of four queries share whole
/// goal sets (the repeats) and fragments (the unions).
pub fn overlapping_workload_problem(n: usize) -> WorkloadProblem {
    use nrs_nrc::spec::{GenExpr, Generator};
    let base = vec![
        (Name::new("S"), Type::set(Type::Ur)),
        (Name::new("F"), Type::set(Type::Ur)),
    ];
    let in_f =
        |gen: &mut NameGen| d0::member_hat(&Type::Ur, &Term::var("gx"), &Term::var("F"), gen);
    let mut gen = NameGen::new();
    let v1 = ViewDef::new(
        "V1",
        GenExpr::comprehension(
            vec![Generator::new("gx", Term::var("S"))],
            in_f(&mut gen),
            Term::var("gx"),
        ),
    );
    let mut gen = NameGen::new();
    let v2 = ViewDef::new(
        "V2",
        GenExpr::comprehension(
            vec![Generator::new("gx", Term::var("S"))],
            in_f(&mut gen).negate(),
            Term::var("gx"),
        ),
    );
    let mut queries = Vec::with_capacity(n);
    for i in 0..n {
        let def = match i % 4 {
            // the whole set: rewriting V1 ∪ V2
            0 | 3 => GenExpr::collect(vec![Generator::new("gq", Term::var("S"))], Term::var("gq")),
            // the filtered half: rewriting V1
            1 => {
                let mut gen = NameGen::new();
                GenExpr::comprehension(
                    vec![Generator::new("gx", Term::var("S"))],
                    in_f(&mut gen),
                    Term::var("gx"),
                )
            }
            // the complement half: rewriting V2
            _ => {
                let mut gen = NameGen::new();
                GenExpr::comprehension(
                    vec![Generator::new("gx", Term::var("S"))],
                    in_f(&mut gen).negate(),
                    Term::var("gx"),
                )
            }
        };
        queries.push(ViewDef::new(format!("Q{i}"), def));
    }
    WorkloadProblem {
        base,
        views: vec![v1, v2],
        constraints: vec![],
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::partition_instance;

    #[test]
    fn overlapping_workload_synthesizes_and_verifies() {
        let problem = overlapping_workload_problem(4);
        let wl = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload synthesizes");
        assert_eq!(wl.queries().len(), 4);
        // Q0 and Q3 are identical: their goals must have collapsed
        assert!(
            wl.report().shared_goals_dedup > 0,
            "identical specs share goals: {:?}",
            wl.report()
        );
        // ... and Q3 reuses Q0's membership interpolant
        assert_eq!(wl.report().interpolations, 4);
        assert_eq!(wl.report().interpolants_reused, 1);
        // the rewritings mention only view names
        for (name, def) in wl.queries() {
            for v in def.expr().free_vars() {
                assert!(
                    ["V1", "V2"].contains(&v.as_str()),
                    "query {name}: unexpected free variable {v}"
                );
            }
        }
        for seed in 0..6 {
            let base = partition_instance(8, seed);
            assert!(wl.verify_on_base(&base).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn identical_queries_share_a_hoisted_view() {
        let problem = overlapping_workload_problem(4);
        let wl = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload synthesizes");
        let shared = wl.shared();
        // Q0 and Q3 are both the whole set: at least their common rewriting
        // is hoisted
        assert!(
            !shared.views.is_empty(),
            "expected a shared fragment across Q0/Q3: {shared:?}"
        );
        let q0 = shared.query(&Name::new("Q0")).unwrap();
        let q3 = shared.query(&Name::new("Q3")).unwrap();
        assert_eq!(q0, q3, "identical queries collapse onto the same answer");
        assert!(shared.fragments_collapsed >= 1);
    }

    #[test]
    fn shared_view_extraction_replaces_alpha_equivalent_fragments() {
        // two queries whose common fragment differs only in binder names
        let frag_a = Expr::big_union("x", Expr::var("V1"), Expr::singleton(Expr::var("x")));
        let frag_b = Expr::big_union("y", Expr::var("V1"), Expr::singleton(Expr::var("y")));
        let q1 = Expr::union(frag_a.clone(), Expr::var("V2"));
        let q2 = Expr::diff(frag_b, Expr::var("V2"));
        let shared = extract_shared_views(vec![(Name::new("A"), q1), (Name::new("B"), q2)]);
        assert_eq!(shared.views.len(), 1, "{shared:?}");
        let (name, _) = shared.views[0];
        let a = shared.query(&Name::new("A")).unwrap();
        let b = shared.query(&Name::new("B")).unwrap();
        assert_eq!(a, &Expr::union(Expr::var(name), Expr::var("V2")));
        assert_eq!(b, &Expr::diff(Expr::var(name), Expr::var("V2")));
        // evaluating through the shared set agrees with the originals
        let inst = Instance::from_bindings([
            (
                Name::new("V1"),
                Value::set([Value::atom(1), Value::atom(2)]),
            ),
            (
                Name::new("V2"),
                Value::set([Value::atom(2), Value::atom(3)]),
            ),
        ]);
        let mut aug = inst.clone();
        for (n, e) in &shared.views {
            let v = nrc_eval::eval(e, &aug).unwrap();
            aug.bind(*n, v);
        }
        assert_eq!(
            nrc_eval::eval(a, &aug).unwrap(),
            nrc_eval::eval(&Expr::union(frag_a.clone(), Expr::var("V2")), &inst).unwrap()
        );
    }

    #[test]
    fn fragments_under_binders_are_not_hoisted_when_open() {
        // the inner singleton references the binder x: not closed, so only
        // the outer closed fragment may be shared
        let open_body = Expr::big_union(
            "x",
            Expr::var("V1"),
            Expr::union(Expr::singleton(Expr::var("x")), Expr::var("V2")),
        );
        let shared = extract_shared_views(vec![
            (Name::new("A"), open_body.clone()),
            (Name::new("B"), open_body),
        ]);
        // the whole (closed) expression is shared; the open inner union is not
        assert_eq!(shared.views.len(), 1);
        for (_, q) in &shared.queries {
            assert!(matches!(q, Expr::Var(_)));
        }
    }

    #[test]
    fn duplicate_entry_names_are_rejected() {
        let problem = overlapping_workload_problem(1);
        let wl = problem.workload().unwrap();
        let (name, spec) = wl.entries()[0].clone();
        let dup = Workload::new()
            .with_entry(name, spec.clone())
            .with_entry(name, spec);
        let err = synthesize_workload(&dup, &SynthesisConfig::default()).unwrap_err();
        assert!(matches!(err, SynthesisError::Ill(_)), "got {err}");
    }
}
