//! Workload synthesis: many specs, one shared view set — the one synthesis
//! path.
//!
//! The paper's pipeline synthesizes *one* rewriting from *one* implicit
//! specification.  A production service maintains materialized views for
//! *dozens* of query templates over the same schema — and those templates
//! overlap: they share view definitions, integrity constraints and whole
//! sub-queries.  This module amortizes both halves of the pipeline across
//! such a batch (the shape of cozy's `synthesize_queries`, which treats one
//! query as the list of length one — so does
//! [`synthesize`](crate::synthesis::synthesize)):
//!
//! 1. **One proving pass.**
//!    [`Synthesizer::synthesize_workload`](crate::Synthesizer::synthesize_workload)
//!    pre-walks every entry's Theorem 2 case analysis into one deduplicating
//!    `GoalBatch`: the Ur and membership interpolation goals, the Theorem
//!    10 recursion (`plan_collect`) of set outputs, and both components of
//!    a product output, each over `φ[⟨o1, o2⟩/o]`.  Structurally
//!    identical sequents — cheap to detect, the formulas are hash-consed —
//!    collapse onto a single batch slot, so a proof obligation shared by
//!    several specs is dispatched to [`ProverSession::prove_batch`] exactly
//!    once.  Goals that are *similar* but not identical still prune each
//!    other through the session's failure memo, goal-outcome cache and
//!    specialization cache.  The collapse count is reported as
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
//! Each entry's definition is what a one-entry workload of the same spec
//! produces: every output level draws its names from a generator of its own,
//! and deduplication only short-circuits proofs that would have been found
//! identically.
//!
//! [`WorkloadProblem`] is the Corollary 3 packaging: one base schema, one
//! view set, N named queries; [`derive_workload`](WorkloadProblem::derive_workload)
//! canonicalizes every query's output name so that structurally equal
//! queries produce *identical* specifications (maximal goal dedup) and
//! returns a [`WorkloadRewriting`] ready for maintenance and serving.

use crate::synthesis::{
    assemble_collect, collect_aux, merge_report, observed_run, plan_collect, record_stats,
    CollectPlan, Ctx, GoalBatch, ImplicitSpec, InterpolantKind, SynthesisConfig, SynthesisError,
    SynthesisReport, SynthesizedDefinition,
};
use nrs_delta0::macros as d0;
use nrs_delta0::typing::TypeEnv;
use nrs_delta0::{Formula, InContext, MemAtom, Term};
use nrs_interp::interpolate;
use nrs_interp::partition::Partition;
use nrs_nrc::spec::ViewDef;
use nrs_nrc::{compile, eval as nrc_eval, macros as nrc_macros, Expr};
use nrs_proof::{ProofError, Sequent};
use nrs_prover::{ProverSession, ProverStats};
use nrs_value::{Instance, Name, NameGen, Type, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

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
/// (bit-identical to synthesizing the same spec alone), the shared
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

/// The pre-walked Theorem 2 case analysis of one output: everything the
/// assembly phase needs besides the proofs.
struct OutputPlan {
    ctx: Ctx,
    gen: NameGen,
    env: TypeEnv,
    output: Name,
    shape: OutputShape,
}

/// The output-type case of an [`OutputPlan`].
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
    /// Product output: one plan per component, each over `φ[⟨o1, o2⟩/o]`.
    Prod(Box<OutputPlan>, Box<OutputPlan>),
}

/// One planned entry, carried from the plan phase to the assembly phase.
struct EntryPlan {
    name: Name,
    spec: ImplicitSpec,
    /// The batch slots this entry recorded *first* (its exclusive share of
    /// the batch); stats of deduplicated goals are attributed to their first
    /// owner, so summing per-entry reports never double counts.
    first_recorded: Range<usize>,
    output: OutputPlan,
}

/// Synthesize every entry of a workload against `session`: all goals of all
/// entries are pre-walked into **one** deduplicated `GoalBatch` and proved
/// in a single [`ProverSession::prove_batch`] dispatch, then each entry is
/// assembled from the shared proof vector.  The public entry point is
/// [`Synthesizer::synthesize_workload`](crate::Synthesizer::synthesize_workload).
pub(crate) fn synthesize_in_session(
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
    let (batch, plans) = plan_workload(workload, cfg)?;
    let outcomes = {
        let _span = nrs_obs::span("synth.workload.prove_batch").with("goals", batch.seqs.len());
        session.prove_batch(&batch.seqs)
    };
    let run = assemble_workload(batch, plans, outcomes)?;
    span.record("goals", run.report.goals_recorded);
    span.record("dedup", run.report.shared_goals_dedup);
    span.record("shared_views", run.shared.views.len());
    Ok(run)
}

/// The plan phase: walk every entry, recording its goals into one
/// deduplicating batch.
fn plan_workload(
    workload: &Workload,
    cfg: &SynthesisConfig,
) -> Result<(GoalBatch, Vec<EntryPlan>), SynthesisError> {
    let _span = nrs_obs::span("synth.workload.plan");
    let mut batch = GoalBatch::default();
    let mut plans = Vec::with_capacity(workload.len());
    for (name, spec) in workload.entries() {
        let before = batch.seqs.len();
        let output = plan_output(*name, spec, cfg.check_determinacy, &mut batch)?;
        plans.push(EntryPlan {
            name: *name,
            spec: spec.clone(),
            first_recorded: before..batch.seqs.len(),
            output,
        });
    }
    let m = obs();
    m.shared_goals_dedup.add(batch.dedup_hits as u64);
    Ok((batch, plans))
}

/// The plan phase of one output (Theorem 2): record its goals and pre-walk
/// the case analysis on its type.  A product output recurses into its two
/// components; they do not prove determinacy again, because the top-level
/// goal implies it.
fn plan_output(
    name: Name,
    spec: &ImplicitSpec,
    determinacy: bool,
    batch: &mut GoalBatch,
) -> Result<OutputPlan, SynthesisError> {
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
    let (output, out_ty) = &spec.output;
    let ctx = Ctx {
        phi: spec.formula.clone(),
        phi_primed,
        primed_out,
        inputs: spec.inputs.clone(),
    };
    let two_sided = |atoms: Vec<MemAtom>, goal: Formula| {
        Sequent::two_sided(
            InContext::from_atoms(atoms),
            [ctx.phi.clone(), ctx.phi_primed.clone()],
            [goal],
        )
    };

    if determinacy {
        let goal = d0::equiv(
            out_ty,
            &Term::Var(*output),
            &Term::Var(primed_out),
            &mut gen,
        );
        batch.push(
            two_sided(vec![], goal),
            format!("the determinacy of the output (entry {name})"),
        );
    }

    let shape = match out_ty {
        Type::Unit => OutputShape::Unit,
        Type::Ur => {
            // κ(ī, o) via interpolation of  φ ⊢ φ' → o = o'
            let goal = Formula::eq_ur(Term::Var(*output), Term::Var(primed_out));
            let goal_idx = batch.push(
                two_sided(vec![], goal),
                format!("the Ur-output interpolation goal (entry {name})"),
            );
            OutputShape::Ur { goal_idx }
        }
        Type::Set(elem_ty) => {
            // Theorem 10: a superset expression for the members of the
            // output…
            let r = gen.fresh("r");
            let ctx_atoms = vec![MemAtom::new(Term::Var(r), Term::Var(*output))];
            let mut env_r = env.clone();
            env_r.insert(r, (**elem_ty).clone());
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
            // …and the interpolant κ(ī, r) of  ∃ r' ∈ o' . r ≡ r'  that
            // filters it down to exactly o
            let rp = gen.fresh("rp");
            let goal = Formula::exists(
                rp,
                Term::Var(primed_out),
                d0::equiv(elem_ty, &Term::Var(r), &Term::Var(rp), &mut gen),
            );
            let mem_idx = batch.push(
                two_sided(ctx_atoms.clone(), goal),
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
        Type::Prod(t1, t2) => {
            // φ̃(ī, ā, o1, o2) := φ(ī, ā, ⟨o1, o2⟩); each component is the
            // output of a spec of its own, with its sibling as an auxiliary
            let o1 = gen.fresh(&format!("{output}_1"));
            let o2 = gen.fresh(&format!("{output}_2"));
            let pair = Term::pair(Term::Var(o1), Term::Var(o2));
            let phi = spec.formula.subst_var(output, &pair).beta_normalize();
            let mut component = |o: Name, ty: &Type, sibling: Name, sibling_ty: &Type| {
                let spec = ImplicitSpec {
                    formula: phi.clone(),
                    inputs: spec.inputs.clone(),
                    auxiliaries: collect_aux(
                        &phi,
                        &spec.inputs,
                        &o,
                        &env,
                        &sibling,
                        sibling_ty.clone(),
                    ),
                    output: (o, ty.clone()),
                };
                plan_output(name, &spec, false, batch)
            };
            let p1 = component(o1, t1, o2, t2)?;
            let p2 = component(o2, t2, o1, t1)?;
            OutputShape::Prod(Box::new(p1), Box::new(p2))
        }
    };
    Ok(OutputPlan {
        ctx,
        gen,
        env,
        output: *output,
        shape,
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

/// The assembly phase: unwrap the batch's proofs, replay every entry over
/// them, and extract the shared view set across the simplified rewritings.
fn assemble_workload(
    batch: GoalBatch,
    plans: Vec<EntryPlan>,
    outcomes: Vec<Result<(nrs_proof::Proof, ProverStats), ProofError>>,
) -> Result<WorkloadSynthesis, SynthesisError> {
    let mut proofs = Vec::with_capacity(outcomes.len());
    let mut stats = Vec::with_capacity(outcomes.len());
    for (outcome, purpose) in outcomes.into_iter().zip(&batch.purposes) {
        let (proof, st) = outcome.map_err(|error| SynthesisError::ProofNotFound {
            purpose: purpose.clone(),
            error,
        })?;
        proofs.push(proof);
        stats.push(st);
    }

    let mut assemble_span = nrs_obs::span("synth.workload.assemble").with("proofs", proofs.len());
    let mut interpolants = Interpolants::default();
    let mut definitions = Vec::with_capacity(plans.len());
    let mut aggregate = SynthesisReport::default();
    for plan in plans {
        let mut report = SynthesisReport::default();
        for idx in plan.first_recorded {
            record_stats(
                &batch.purposes[idx],
                proofs[idx].size(),
                &stats[idx],
                &mut report,
            );
        }
        let expr = assemble_output(plan.output, &proofs, &mut interpolants, &mut report)?;
        let def = SynthesizedDefinition::new(expr, plan.spec, report);
        merge_report(&mut aggregate, def.report.clone());
        definitions.push((plan.name, def));
    }
    let m = obs();
    m.interpolations.add(interpolants.requested as u64);
    m.interpolants_reused.add(interpolants.reused as u64);
    assemble_span.record("interpolations", interpolants.requested);
    assemble_span.record("interpolants_reused", interpolants.reused);
    drop(assemble_span);

    let shared = extract_shared_views(
        definitions
            .iter()
            .map(|(n, d)| (*n, d.expr().clone()))
            .collect(),
    );
    m.shared_views.add(shared.views.len() as u64);
    Ok(WorkloadSynthesis {
        report: WorkloadReport {
            entries: definitions.len(),
            goals_recorded: batch.seqs.len() + batch.dedup_hits,
            shared_goals_dedup: batch.dedup_hits,
            interpolations: interpolants.requested,
            interpolants_reused: interpolants.reused,
            synthesis: aggregate,
        },
        definitions,
        shared,
    })
}

/// The assembly phase of one output: replay its plan over the shared proof
/// vector into a raw (unsimplified) NRC expression.
fn assemble_output(
    plan: OutputPlan,
    proofs: &[nrs_proof::Proof],
    interpolants: &mut Interpolants,
    report: &mut SynthesisReport,
) -> Result<Expr, SynthesisError> {
    let OutputPlan {
        ctx,
        mut gen,
        env,
        output,
        shape,
    } = plan;
    Ok(match shape {
        OutputShape::Unit => Expr::Unit,
        OutputShape::Ur { goal_idx } => {
            let partition = Partition::with_left([], [ctx.phi.negate()]);
            let kappa = interpolants.get(proofs, goal_idx, partition)?;
            // E := get_𝔘({ o ∈ atoms(ī) | κ })
            let atoms = nrc_macros::atoms_of_inputs(&ctx.inputs, &mut gen);
            let filtered =
                compile::comprehension(output, atoms, &Type::Ur, &kappa, &env, &mut gen)?;
            report.interpolants.push((InterpolantKind::Ur, kappa));
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
            let superset = assemble_collect(&ctx, &plan, proofs, &mut gen, report)?;
            let partition = Partition::with_left(ctx_atoms, [ctx.phi.negate()]);
            let kappa = interpolants.get(proofs, mem_idx, partition)?;
            let filtered = compile::comprehension(r, superset, &elem_ty, &kappa, &env_r, &mut gen)?;
            report
                .interpolants
                .push((InterpolantKind::Membership, kappa));
            filtered
        }
        OutputShape::Prod(p1, p2) => Expr::pair(
            assemble_output(*p1, proofs, interpolants, report)?,
            assemble_output(*p2, proofs, interpolants, report)?,
        ),
    })
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

    /// Run the full multi-query Corollary 3 pipeline with a fresh session
    /// (see [`Synthesizer::derive_workload`](crate::Synthesizer::derive_workload)).
    pub fn derive_workload(
        &self,
        cfg: &SynthesisConfig,
    ) -> Result<WorkloadRewriting, SynthesisError> {
        crate::Synthesizer::with_config(cfg.clone()).derive_workload(self)
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
    use crate::views::{partition_instance, partition_problem};
    use nrs_proof::Rule;
    use std::collections::HashSet;

    /// The planned batch proved through one warm `prove_batch` and, as the
    /// oracle, goal by goal with cold provers: every goal is proved both
    /// ways, session sharing searches no more, and both assemble the same
    /// definitions, which answer the query on the base.
    #[test]
    fn shared_batch_matches_cold_goal_by_goal_proving() {
        let problem = partition_problem();
        let workload = problem.workload().unwrap();
        let cfg = SynthesisConfig {
            check_determinacy: true,
            ..Default::default()
        };
        let (batch, plans) = plan_workload(&workload, &cfg).unwrap();
        let shared = ProverSession::new(cfg.prover.clone()).prove_batch(&batch.seqs);
        let (cold_batch, cold_plans) = plan_workload(&workload, &cfg).unwrap();
        let cold: Vec<_> = cold_batch
            .seqs
            .iter()
            .map(|seq| nrs_prover::prove_sequent(seq, &cfg.prover))
            .collect();
        assert_eq!(shared.len(), cold.len());
        assert!(shared.iter().chain(&cold).all(Result::is_ok));
        let shared = assemble_workload(batch, plans, shared).unwrap();
        let cold = assemble_workload(cold_batch, cold_plans, cold).unwrap();
        let (s, c) = (&shared.report.synthesis, &cold.report.synthesis);
        assert_eq!(s.goals_proved, c.goals_proved);
        assert!(
            s.states_visited <= c.states_visited,
            "session sharing must not search more ({} vs {})",
            s.states_visited,
            c.states_visited
        );
        for ((_, a), (_, b)) in shared.definitions.iter().zip(&cold.definitions) {
            assert_eq!(a.expr(), b.expr());
        }
        let rewriting = WorkloadRewriting {
            problem,
            synthesis: shared,
        };
        for seed in 0..6 {
            assert!(rewriting
                .verify_on_base(&partition_instance(6, seed))
                .unwrap());
        }
    }

    /// The prover's specialization and rewrite caches keep a compact form
    /// of each entry, and a ∀ step shares its conclusion's specialization
    /// lists where the atom it adds cannot apply; after a cold derivation
    /// of `problem` every entry — shared or not — must still say what
    /// recomputation from its key says.
    fn assert_exact_cache_entries(problem: &WorkloadProblem) {
        let synth = crate::Synthesizer::with_config(SynthesisConfig {
            check_determinacy: true,
            ..Default::default()
        });
        synth.derive_workload(problem).unwrap();
        let session = synth.session();
        let (specs, rewrites) = session.verify_caches().unwrap();
        assert_eq!(specs, session.spec_cache_len());
        assert_eq!(rewrites, session.rewrite_cache_len());
        assert!(specs > 100 && rewrites > 100, "{specs} / {rewrites}");
    }

    #[test]
    fn a_cold_partition_derivation_leaves_exact_cache_entries() {
        assert_exact_cache_entries(&partition_problem());
    }

    #[test]
    fn a_cold_overlapping_derivation_leaves_exact_cache_entries() {
        assert_exact_cache_entries(&overlapping_workload_problem(8));
    }

    /// The structural partition that the handle-keyed [`Partition`]
    /// replaced, kept as the reference: formula marks are values and
    /// membership is the structural `Sequent::contains`.
    #[derive(Clone)]
    struct ReferencePartition {
        atoms: HashSet<MemAtom>,
        formulas: HashSet<Formula>,
    }

    impl ReferencePartition {
        fn of(p: &Partition) -> Self {
            ReferencePartition {
                atoms: p.left_atoms.clone(),
                formulas: p.left_formulas.iter().map(|f| f.value().clone()).collect(),
            }
        }

        fn is_left(&self, f: &Formula) -> bool {
            self.formulas.contains(f)
        }

        fn premise_partition(
            &self,
            conclusion: &Sequent,
            rule: &Rule,
            premise: &Sequent,
        ) -> ReferencePartition {
            let principal_left = match rule {
                Rule::EqRefl { .. } | Rule::Top | Rule::ProdEta { .. } | Rule::ProdBeta { .. } => {
                    false
                }
                Rule::Neq { atom, .. } => self.is_left(atom),
                Rule::And { conj: f } | Rule::Or { disj: f } => self.is_left(f),
                Rule::Forall { quant, .. } | Rule::Exists { quant, .. } => self.is_left(quant),
            };
            let mut out = ReferencePartition {
                atoms: HashSet::new(),
                formulas: HashSet::new(),
            };
            // the search applies no × step, so only the other rules'
            // branch of the old derivation is kept
            assert!(!matches!(
                rule,
                Rule::ProdEta { .. } | Rule::ProdBeta { .. }
            ));
            for a in &self.atoms {
                if conclusion.ctx.contains(a) {
                    out.atoms.insert(a.clone());
                }
            }
            for f in &self.formulas {
                if conclusion.contains(f) && premise.contains(f) {
                    out.formulas.insert(f.clone());
                }
            }
            if principal_left {
                for a in premise.ctx.iter() {
                    if !conclusion.ctx.contains(a) {
                        out.atoms.insert(a.clone());
                    }
                }
                for f in premise.rhs() {
                    if !conclusion.contains(f) {
                        out.formulas.insert(f.value().clone());
                    }
                }
            }
            out
        }
    }

    /// The goals the assembly extracts from, each with the partition its
    /// extraction starts from, and whether it yields an interpolant (in the
    /// order the report lists them) or a parameter collection.
    fn extraction_roots(plan: &OutputPlan, out: &mut Vec<(usize, Partition, bool)>) {
        fn collect_roots(plan: &CollectPlan, out: &mut Vec<(usize, Partition, bool)>) {
            match plan {
                CollectPlan::Unit | CollectPlan::Ur => {}
                CollectPlan::Prod(a, b) => {
                    collect_roots(a, out);
                    collect_roots(b, out);
                }
                CollectPlan::Set {
                    member,
                    goal_idx,
                    input,
                    ..
                } => {
                    collect_roots(member, out);
                    out.push((*goal_idx, input.partition.clone(), false));
                }
            }
        }
        let phi = plan.ctx.phi.negate();
        match &plan.shape {
            OutputShape::Unit => {}
            OutputShape::Ur { goal_idx } => {
                out.push((*goal_idx, Partition::with_left([], [phi]), true));
            }
            OutputShape::Set {
                ctx_atoms,
                plan: collect,
                mem_idx,
                ..
            } => {
                collect_roots(collect, out);
                let partition = Partition::with_left(ctx_atoms.iter().cloned(), [phi]);
                out.push((*mem_idx, partition, true));
            }
            OutputShape::Prod(a, b) => {
                extraction_roots(a, out);
                extraction_roots(b, out);
            }
        }
    }

    /// Walk `proof`, deriving every premise's partition both ways from the
    /// same parent; both must mark the same atoms and formulas left.
    /// Returns the number of (node, premise) pairs compared.
    fn compare_partitions(
        proof: &nrs_proof::Proof,
        partition: &Partition,
        reference: &ReferencePartition,
    ) -> usize {
        let mut compared = 0;
        for premise in proof.premises.iter() {
            let (conclusion, rule) = (&proof.conclusion, &proof.rule);
            let new = partition.premise_partition(conclusion, rule, &premise.conclusion);
            let old = reference.premise_partition(conclusion, rule, &premise.conclusion);
            assert_eq!(
                new.left_atoms,
                old.atoms,
                "left atoms under {}",
                rule.name()
            );
            assert_eq!(
                ReferencePartition::of(&new).formulas,
                old.formulas,
                "left formulas under {}",
                rule.name()
            );
            compared += 1 + compare_partitions(premise, &new, &old);
        }
        compared
    }

    /// Every premise partition of every goal proof of the partition and
    /// `overlapping(8)` derivations is what the structural reference
    /// derives, and the interpolants recomputed from those proofs are the
    /// ones the derivation reports.
    #[test]
    fn premise_partitions_match_the_structural_reference() {
        for (problem, min_pairs) in [
            (partition_problem(), 100),
            (overlapping_workload_problem(8), 200),
        ] {
            let workload = problem.workload().unwrap();
            let cfg = SynthesisConfig::default();
            let (batch, plans) = plan_workload(&workload, &cfg).unwrap();
            let outcomes = ProverSession::new(cfg.prover.clone()).prove_batch(&batch.seqs);
            let proofs: Vec<_> = outcomes
                .iter()
                .map(|o| o.as_ref().expect("every goal is proved").0.clone())
                .collect();
            let mut roots = Vec::new();
            for plan in &plans {
                extraction_roots(&plan.output, &mut roots);
            }
            let mut pairs = 0;
            let mut interpolants = Vec::new();
            for (idx, partition, interpolated) in &roots {
                let reference = ReferencePartition::of(partition);
                pairs += compare_partitions(&proofs[*idx], partition, &reference);
                if *interpolated {
                    interpolants.push(interpolate(&proofs[*idx], partition).unwrap());
                }
            }
            eprintln!(
                "{} goal roots, {pairs} premise partitions compared",
                roots.len()
            );
            assert!(pairs >= min_pairs, "only {pairs} premises compared");
            let run = assemble_workload(batch, plans, outcomes).unwrap();
            let reported: Vec<Formula> = run
                .definitions
                .iter()
                .flat_map(|(_, d)| d.report.interpolants.iter().map(|(_, k)| k.clone()))
                .collect();
            assert_eq!(interpolants, reported);
        }
    }

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
        let err = crate::Synthesizer::new()
            .synthesize_workload(&dup)
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Ill(_)), "got {err}");
    }
}
