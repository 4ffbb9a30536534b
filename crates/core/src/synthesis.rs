//! The main synthesis pipeline (Theorems 2 and 10).

use crate::collect::{collect_parameters, CollectInput};
use nrs_delta0::macros as d0;
use nrs_delta0::typing::TypeEnv;
use nrs_delta0::{Formula, InContext, LogicError, MemAtom, Term};
use nrs_interp::partition::Partition;
use nrs_interp::InterpolationError;
use nrs_nrc::{eval as nrc_eval, macros as nrc_macros, Expr, NrcError};
use nrs_proof::{ProofError, Sequent};
use nrs_prover::ProverConfig;
use nrs_value::{Instance, Name, NameGen, Type, Value};

/// An implicit Δ0 specification `φ(ī, ā, o)` of an output object in terms of
/// input objects, possibly using auxiliary objects.
#[derive(Debug, Clone)]
pub struct ImplicitSpec {
    /// The Δ0 specification.
    pub formula: Formula,
    /// The input objects `ī` the explicit definition may use.
    pub inputs: Vec<(Name, Type)>,
    /// Auxiliary objects mentioned by the specification (neither inputs nor
    /// the output); they are duplicated in the primed copy.
    pub auxiliaries: Vec<(Name, Type)>,
    /// The output object `o` and its type.
    pub output: (Name, Type),
}

impl ImplicitSpec {
    /// The typing environment induced by the declaration.
    pub fn env(&self) -> TypeEnv {
        let mut env = TypeEnv::new();
        for (n, t) in self.inputs.iter().chain(self.auxiliaries.iter()) {
            env.insert(*n, t.clone());
        }
        env.insert(self.output.0, self.output.1.clone());
        env
    }

    /// The "primed" copy `φ(ī, ā', o')`: inputs are shared, the output and the
    /// auxiliaries are replaced by fresh primed variables.
    pub fn primed(&self) -> (Formula, Name, Vec<(Name, Type)>) {
        let primed_out = Name::new(format!("{}__prime", self.output.0));
        let mut formula = self
            .formula
            .subst_var(&self.output.0, &Term::Var(primed_out));
        let mut primed_aux = Vec::new();
        for (a, t) in &self.auxiliaries {
            let pa = Name::new(format!("{a}__prime"));
            formula = formula.subst_var(a, &Term::Var(pa));
            primed_aux.push((pa, t.clone()));
        }
        (formula, primed_out, primed_aux)
    }
}

/// Configuration of the synthesis pipeline.
#[derive(Debug, Clone, Default)]
pub struct SynthesisConfig {
    /// Budgets for the proof-search engine used on every sub-goal.
    pub prover: ProverConfig,
    /// Whether to establish the top-level determinacy entailment first (a
    /// sanity check that also reproduces the paper's input assumption).
    pub check_determinacy: bool,
}

/// Errors of the synthesis pipeline.
#[derive(Debug, Clone)]
pub enum SynthesisError {
    /// A required sequent could not be proven within the prover's budgets;
    /// the specification may not be an implicit definition, or the goal may be
    /// beyond the bounded search.
    ProofNotFound {
        /// What the sequent was needed for.
        purpose: String,
        /// The underlying prover error.
        error: ProofError,
    },
    /// Interpolation failed on a found proof.
    Interpolation(String),
    /// The parameter-collection extraction failed on a found proof.
    Extraction(String),
    /// Incremental maintenance of a materialized view or rewriting failed.
    /// The typed [`IvmError`](nrs_ivm::IvmError) is preserved so serving
    /// layers can tell
    /// validation errors (reject the batch, state untouched) from operator
    /// failures (roll back and degrade the failing operator).
    Maintenance(nrs_ivm::IvmError),
    /// Types or expressions were inconsistent.
    Ill(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::ProofNotFound { purpose, error } => {
                write!(f, "no proof found for {purpose}: {error}")
            }
            SynthesisError::Interpolation(m) => write!(f, "interpolation failed: {m}"),
            SynthesisError::Extraction(m) => write!(f, "parameter collection failed: {m}"),
            SynthesisError::Maintenance(e) => write!(f, "view maintenance failed: {e}"),
            SynthesisError::Ill(m) => write!(f, "inconsistent synthesis input: {m}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<InterpolationError> for SynthesisError {
    fn from(e: InterpolationError) -> Self {
        SynthesisError::Interpolation(e.to_string())
    }
}

impl From<NrcError> for SynthesisError {
    fn from(e: NrcError) -> Self {
        SynthesisError::Ill(e.to_string())
    }
}

impl From<LogicError> for SynthesisError {
    fn from(e: LogicError) -> Self {
        SynthesisError::Ill(e.to_string())
    }
}

/// Statistics and provenance collected while synthesizing.
#[derive(Debug, Clone, Default)]
pub struct SynthesisReport {
    /// Number of sequents proved by the search engine.
    pub goals_proved: usize,
    /// Total search states visited across all goals.
    pub states_visited: usize,
    /// Sizes of the proofs found, in the order they were needed.
    pub proof_sizes: Vec<usize>,
    /// The interpolants the definition filters by, in assembly order.
    pub interpolants: Vec<(InterpolantKind, Formula)>,
    /// The side formula θ of every parameter collection, with its nesting
    /// depth, in assembly order.
    pub collections: Vec<(usize, Formula)>,
    /// Machine-readable counters: per-goal prover statistics and sums.
    pub metrics: SynthesisMetrics,
}

/// Which step of the Theorem 2 case analysis an interpolant filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpolantKind {
    /// `κ(ī, o)` of a Ur output, defining `o` as `get({o ∈ atoms(ī) | κ})`.
    Ur,
    /// `κ(ī, r)` of a set output, cutting the collected superset down to
    /// `{r ∈ superset | κ}`.
    Membership,
}

/// Aggregated machine-readable counters for one synthesis run, with a
/// per-goal breakdown in proving order.  Everything the run's prover goals
/// report ([`nrs_prover::ProverStats`]) is summed here; the same counters
/// also flow into the process-wide [`nrs_obs`] registry.
#[derive(Debug, Clone, Default)]
pub struct SynthesisMetrics {
    /// Goals answered from the session's goal-outcome cache.
    pub goal_cache_hits: usize,
    /// Failure-memo probes that pruned a subtree, across all goals.
    pub memo_hits: usize,
    /// Failure-memo probes that found nothing, across all goals.
    pub memo_misses: usize,
    /// Interner constructions that reused an existing node.
    pub interner_hits: u64,
    /// Interner constructions that allocated a fresh node.
    pub interner_misses: u64,
    /// Rewrite-candidate probes answered by the session cache.
    pub rewrite_cache_hits: usize,
    /// Rewrite-candidate probes that had to compute the rewrite.
    pub rewrite_cache_misses: usize,
    /// (inequality, literal) pairs enumerated by the variable-filtered
    /// congruence joins.
    pub occ_join_pairs: usize,
    /// Pairs the unindexed joins would additionally have enumerated.
    pub occ_join_pruned: usize,
    /// AST size of the synthesized expression before algebraic
    /// simplification (0 until [`SynthesizedDefinition::new`] runs).
    pub raw_ast_size: usize,
    /// AST size after simplification.
    pub simplified_ast_size: usize,
    /// Per-goal breakdown, in proving order.
    pub per_goal: Vec<GoalMetrics>,
}

/// One proved goal's contribution to [`SynthesisMetrics`].
#[derive(Debug, Clone)]
pub struct GoalMetrics {
    /// What the goal was for (same phrasing as the error-path `purpose`).
    pub purpose: String,
    /// Size of the proof found.
    pub proof_size: usize,
    /// The prover's full statistics for this goal.
    pub stats: nrs_prover::ProverStats,
}

impl SynthesisMetrics {
    fn absorb(&mut self, purpose: &str, proof_size: usize, stats: &nrs_prover::ProverStats) {
        self.goal_cache_hits += stats.goal_cache_hits;
        self.memo_hits += stats.memo_hits;
        self.memo_misses += stats.memo_misses;
        self.interner_hits += stats.interner_hits;
        self.interner_misses += stats.interner_misses;
        self.rewrite_cache_hits += stats.rewrite_cache_hits;
        self.rewrite_cache_misses += stats.rewrite_cache_misses;
        self.occ_join_pairs += stats.occ_join_pairs;
        self.occ_join_pruned += stats.occ_join_pruned;
        self.per_goal.push(GoalMetrics {
            purpose: purpose.to_string(),
            proof_size,
            stats: stats.clone(),
        });
    }

    fn merge(&mut self, from: SynthesisMetrics) {
        self.goal_cache_hits += from.goal_cache_hits;
        self.memo_hits += from.memo_hits;
        self.memo_misses += from.memo_misses;
        self.interner_hits += from.interner_hits;
        self.interner_misses += from.interner_misses;
        self.rewrite_cache_hits += from.rewrite_cache_hits;
        self.rewrite_cache_misses += from.rewrite_cache_misses;
        self.occ_join_pairs += from.occ_join_pairs;
        self.occ_join_pruned += from.occ_join_pruned;
        // AST sizes describe one definition each and are not summed.
        self.per_goal.extend(from.per_goal);
    }

    /// Fraction of failure-memo probes that pruned a subtree.
    pub fn memo_hit_rate(&self) -> f64 {
        ratio(self.memo_hits as u64, self.memo_misses as u64)
    }

    /// Fraction of rewrite-candidate probes answered by the cache.
    pub fn rewrite_cache_hit_rate(&self) -> f64 {
        ratio(
            self.rewrite_cache_hits as u64,
            self.rewrite_cache_misses as u64,
        )
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Cached handles into the global [`nrs_obs`] registry.  Goal-level counters
/// are bumped in [`record_stats`] (once per actually-proved goal, so merged
/// reports are not double counted); run-level counters in [`observed_run`].
struct ObsMetrics {
    runs: std::sync::Arc<nrs_obs::Counter>,
    failed_runs: std::sync::Arc<nrs_obs::Counter>,
    goals_proved: std::sync::Arc<nrs_obs::Counter>,
    states_visited: std::sync::Arc<nrs_obs::Counter>,
    run_seconds: std::sync::Arc<nrs_obs::Histogram>,
}

fn obs() -> &'static ObsMetrics {
    static METRICS: std::sync::OnceLock<ObsMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        ObsMetrics {
            runs: r.counter("synth.runs_total"),
            failed_runs: r.counter("synth.failed_runs_total"),
            goals_proved: r.counter("synth.goals_proved_total"),
            states_visited: r.counter("synth.states_visited_total"),
            run_seconds: r.timer("synth.run_seconds"),
        }
    })
}

/// The result of synthesis: an explicit NRC definition of the output over the
/// inputs, together with provenance.
#[derive(Debug, Clone)]
pub struct SynthesizedDefinition {
    /// The synthesized NRC expression (already algebraically simplified);
    /// its free variables are input names.  Private so it cannot drift from
    /// the lazily compiled plan below — read it via
    /// [`SynthesizedDefinition::expr`].
    expr: Expr,
    /// The specification it was synthesized from.
    pub spec: ImplicitSpec,
    /// Provenance and statistics.
    pub report: SynthesisReport,
    /// Lazily compiled physical plan, shared by every evaluation.
    compiled: std::sync::OnceLock<nrs_nrc::CompiledQuery>,
}

impl SynthesizedDefinition {
    /// Package a raw synthesized expression: run it through the algebraic
    /// simplifier (recording the size win in the report) and set up the lazy
    /// plan cache.
    pub fn new(expr: Expr, spec: ImplicitSpec, mut report: SynthesisReport) -> Self {
        let raw_size = expr.size();
        let expr = nrs_nrc::opt::simplify(&expr);
        report.metrics.raw_ast_size = raw_size;
        report.metrics.simplified_ast_size = expr.size();
        SynthesizedDefinition {
            expr,
            spec,
            report,
            compiled: std::sync::OnceLock::new(),
        }
    }

    /// The synthesized NRC expression; its free variables are input names.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The compiled physical plan of the definition (compiled on first use).
    pub fn compiled(&self) -> &nrs_nrc::CompiledQuery {
        self.compiled
            .get_or_init(|| nrs_nrc::CompiledQuery::compile(&self.expr))
    }

    /// Evaluate the definition on an instance binding the input objects,
    /// through the optimizing plan pipeline.
    pub fn evaluate(&self, instance: &Instance) -> Result<Value, SynthesisError> {
        self.compiled()
            .execute(instance)
            .map_err(SynthesisError::from)
    }

    /// Evaluate with the naive NRC evaluator — the oracle the optimized
    /// pipeline is checked against.
    pub fn evaluate_naive(&self, instance: &Instance) -> Result<Value, SynthesisError> {
        nrc_eval::eval(&self.expr, instance).map_err(SynthesisError::from)
    }

    /// Check the definition against an instance that binds the inputs, the
    /// auxiliaries and the output: if the instance satisfies the
    /// specification, the evaluated definition must equal the bound output.
    ///
    /// Returns `Ok(None)` when the instance does not satisfy the
    /// specification (nothing to check), and `Ok(Some(result))` otherwise.
    pub fn check_against(&self, instance: &Instance) -> Result<Option<bool>, SynthesisError> {
        let holds = nrs_delta0::eval::eval_formula(&self.spec.formula, instance)?;
        if !holds {
            return Ok(None);
        }
        let produced = self.evaluate(instance)?;
        let expected = instance
            .get(&self.spec.output.0)
            .map_err(|e| SynthesisError::Ill(e.to_string()))?;
        Ok(Some(&produced == expected))
    }
}

/// Synthesize an explicit NRC definition from an implicit Δ0 specification
/// (Theorem 2).
///
/// The spec is synthesized as a one-entry [`Workload`](crate::Workload): all
/// its proof goals — the determinacy check, the per-depth
/// parameter-collection goals and the interpolation goals of every product
/// component — are proved in one
/// [`ProverSession::prove_batch`](nrs_prover::ProverSession::prove_batch)
/// call, so the failure memo built while proving one goal prunes the
/// searches of the others.
///
/// This is a thin wrapper over the session-owning
/// [`Synthesizer`](crate::Synthesizer) facade — prefer the builder when
/// running more than one spec, workload or rewriting problem, so they share
/// a warm session.
pub fn synthesize(
    spec: &ImplicitSpec,
    cfg: &SynthesisConfig,
) -> Result<SynthesizedDefinition, SynthesisError> {
    crate::Synthesizer::with_config(cfg.clone()).synthesize(spec)
}

/// Run-level observability of a synthesis run: one `synth.run` span, one
/// `synth.run_seconds` sample, and the `synth.runs_total` /
/// `synth.failed_runs_total` counters per run.
pub(crate) fn observed_run<T>(
    run: impl FnOnce(&mut nrs_obs::Span) -> Result<T, SynthesisError>,
) -> Result<T, SynthesisError> {
    nrs_obs::init_from_env();
    let mut run_span = nrs_obs::span("synth.run");
    let run_start = std::time::Instant::now();
    let m = obs();
    m.runs.inc();
    let result = run(&mut run_span);
    m.run_seconds.record_duration(run_start.elapsed());
    if let Err(e) = &result {
        m.failed_runs.inc();
        nrs_obs::error("synth.run_failed", e);
    }
    result
}

/// The spec-level data of one output's Theorem 10 recursion.
pub(crate) struct Ctx {
    pub(crate) phi: Formula,
    pub(crate) phi_primed: Formula,
    pub(crate) primed_out: Name,
    pub(crate) inputs: Vec<(Name, Type)>,
}

/// The proof goals of one batched proving pass, in generation order.
///
/// A workload ([`crate::workload`]) records the goals of all its specs into
/// one batch.  Structurally identical sequents (hash-consed formulas make the
/// comparison cheap) collapse onto one batch slot, so a proof obligation
/// shared across specs is dispatched to the prover exactly once.
#[derive(Debug, Default)]
pub(crate) struct GoalBatch {
    pub(crate) seqs: Vec<Sequent>,
    pub(crate) purposes: Vec<String>,
    /// Sequent → index of its first occurrence.
    index: std::collections::HashMap<Sequent, usize>,
    /// Goals collapsed onto an earlier identical one.
    pub(crate) dedup_hits: usize,
}

impl GoalBatch {
    /// Record a goal; returns its index into the batch (and into the proof
    /// vector the batched prover call produces).  An already-recorded
    /// sequent returns the index of its first occurrence.
    pub(crate) fn push(&mut self, seq: Sequent, purpose: String) -> usize {
        if let Some(&i) = self.index.get(&seq) {
            self.dedup_hits += 1;
            return i;
        }
        self.index.insert(seq.clone(), self.seqs.len());
        self.seqs.push(seq);
        self.purposes.push(purpose);
        self.seqs.len() - 1
    }
}

/// The pre-walked shape of the Theorem 10 recursion: the type-directed case
/// analysis on the output's element type, with each set-case goal
/// *recorded* into a [`GoalBatch`] instead of proven on the spot.  After one
/// batched prover call resolves every goal, [`assemble_collect`] replays the
/// recursion bottom-up over the proofs.
#[derive(Debug)]
pub(crate) enum CollectPlan {
    Unit,
    Ur,
    Prod(Box<CollectPlan>, Box<CollectPlan>),
    Set {
        /// The recursion one level down (the Lemma 6 step).
        member: Box<CollectPlan>,
        /// Index of this level's parameter-collection goal in the batch.
        goal_idx: usize,
        /// Nesting depth, reported with the collection's θ.
        depth: usize,
        /// Everything the Lemma 9 extraction needs besides the proof
        /// (boxed: it dwarfs the other variants).
        input: Box<CollectInput>,
    },
}

pub(crate) fn record_stats(
    purpose: &str,
    proof_size: usize,
    stats: &nrs_prover::ProverStats,
    report: &mut SynthesisReport,
) {
    report.goals_proved += 1;
    report.states_visited += stats.visited;
    report.proof_sizes.push(proof_size);
    report.metrics.absorb(purpose, proof_size, stats);
    let m = obs();
    m.goals_proved.inc();
    m.states_visited.add(stats.visited as u64);
}

/// The plan phase of the Theorem 10 recursion, which builds an NRC
/// expression over the inputs that contains the value of `subject` (a term
/// denoting a piece of the output) as a member in every model of the
/// specification pair.  Records each set-case goal into the batch and
/// returns the plan tree that [`assemble_collect`] later replays over the
/// batch's proofs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_collect(
    ctx: &Ctx,
    ctx_atoms: &[MemAtom],
    subject: &Term,
    subject_ty: &Type,
    depth: usize,
    env: &TypeEnv,
    gen: &mut NameGen,
    batch: &mut GoalBatch,
) -> Result<CollectPlan, SynthesisError> {
    match subject_ty {
        Type::Unit => Ok(CollectPlan::Unit),
        Type::Ur => Ok(CollectPlan::Ur),
        Type::Prod(t1, t2) => {
            let p1 = plan_collect(
                ctx,
                ctx_atoms,
                &Term::proj1(subject.clone()).beta_normalize(),
                t1,
                depth,
                env,
                gen,
                batch,
            )?;
            let p2 = plan_collect(
                ctx,
                ctx_atoms,
                &Term::proj2(subject.clone()).beta_normalize(),
                t2,
                depth,
                env,
                gen,
                batch,
            )?;
            Ok(CollectPlan::Prod(Box::new(p1), Box::new(p2)))
        }
        Type::Set(inner) => {
            // (a) the recursion one level down (the Lemma 6 step)
            let z = gen.fresh("z");
            let mut deeper_atoms = ctx_atoms.to_vec();
            deeper_atoms.push(MemAtom::new(Term::Var(z), subject.clone()));
            let mut env_z = env.clone();
            env_z.insert(z, (**inner).clone());
            let member = plan_collect(
                ctx,
                &deeper_atoms,
                &Term::Var(z),
                inner,
                depth + 1,
                &env_z,
                gen,
                batch,
            )?;

            // (b) the parameter-collection goal (the Lemma 7 step):
            //     ∃y ∈^p o' . ∀w ∈ a . (w ∈̂ subject ↔ w ∈̂ y)
            let a = gen.fresh("a");
            let mut env_a = env.clone();
            env_a.insert(a, subject_ty.clone());
            let w = gen.fresh("w");
            let y = gen.fresh("y");
            let lam = d0::member_hat(inner, &Term::Var(w), subject, gen);
            let rho = d0::member_hat(inner, &Term::Var(w), &Term::Var(y), gen);
            let body = Formula::forall(w, Term::Var(a), d0::iff(lam, rho));
            let path = nrs_value::SubtypePath(vec![nrs_value::SubtypeStep::Member; depth]);
            let goal = d0::exists_path(&y, &path, &Term::Var(ctx.primed_out), body, gen);
            let seq = Sequent::two_sided(
                InContext::from_atoms(ctx_atoms.iter().cloned()),
                [ctx.phi.clone(), ctx.phi_primed.clone()],
                [goal.clone()],
            );
            let goal_idx = batch.push(
                seq,
                format!("the parameter-collection goal at nesting depth {depth}"),
            );
            let partition = Partition::with_left(ctx_atoms.iter().cloned(), [ctx.phi.negate()]);
            let input = Box::new(CollectInput {
                goal,
                c: a,
                elem_ty: (**inner).clone(),
                partition,
                env: env_a,
            });
            Ok(CollectPlan::Set {
                member: Box::new(member),
                goal_idx,
                depth,
                input,
            })
        }
    }
}

/// The assembly phase of the Theorem 10 recursion: replay the plan
/// bottom-up, running the Lemma 9 extraction over each set-case proof and
/// instantiating the common parameter with the member superset.
pub(crate) fn assemble_collect(
    ctx: &Ctx,
    plan: &CollectPlan,
    proofs: &[nrs_proof::Proof],
    gen: &mut NameGen,
    report: &mut SynthesisReport,
) -> Result<Expr, SynthesisError> {
    match plan {
        CollectPlan::Unit => Ok(Expr::singleton(Expr::Unit)),
        CollectPlan::Ur => Ok(nrc_macros::atoms_of_inputs(&ctx.inputs, gen)),
        CollectPlan::Prod(p1, p2) => {
            let e1 = assemble_collect(ctx, p1, proofs, gen, report)?;
            let e2 = assemble_collect(ctx, p2, proofs, gen, report)?;
            Ok(nrc_macros::product(e1, e2, gen))
        }
        CollectPlan::Set {
            member,
            goal_idx,
            depth,
            input,
        } => {
            let member_superset = assemble_collect(ctx, member, proofs, gen, report)?;
            let collected = collect_parameters(&proofs[*goal_idx], input, gen)?;
            report.collections.push((*depth, collected.theta));
            // instantiate the common parameter a with the member superset
            Ok(collected.expr.subst(&input.c, &member_superset))
        }
    }
}

/// The auxiliaries of a derived specification: every free variable of the
/// formula that is neither an input nor the output (including the sibling
/// component in the product case).
pub(crate) fn collect_aux(
    phi: &Formula,
    inputs: &[(Name, Type)],
    output: &Name,
    env: &TypeEnv,
    sibling: &Name,
    sibling_ty: Type,
) -> Vec<(Name, Type)> {
    let mut out = Vec::new();
    for v in phi.free_vars() {
        if &v == output || inputs.iter().any(|(n, _)| n == &v) {
            continue;
        }
        if &v == sibling {
            out.push((v, sibling_ty.clone()));
        } else if let Some(t) = env.get(&v) {
            out.push((v, t.clone()));
        }
    }
    out
}

pub(crate) fn merge_report(into: &mut SynthesisReport, from: SynthesisReport) {
    into.goals_proved += from.goals_proved;
    into.states_visited += from.states_visited;
    into.proof_sizes.extend(from.proof_sizes);
    into.interpolants.extend(from.interpolants);
    into.collections.extend(from.collections);
    into.metrics.merge(from.metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_value::generate::GenConfig;

    /// The "union split" scenario: views V1 = {x ∈ S | x ∈̂ F},
    /// V2 = {x ∈ S | ¬ x ∈̂ F} determine S (the rewriting is V1 ∪ V2).
    fn union_split_spec() -> ImplicitSpec {
        let mut gen = NameGen::new();
        let ur = Type::Ur;
        let in_f =
            |x: &str, g: &mut NameGen| d0::member_hat(&ur, &Term::var(x), &Term::var("F"), g);
        let view = |vname: &str, positive: bool, gen: &mut NameGen| {
            let filt = if positive {
                in_f("x", gen)
            } else {
                in_f("x", gen).negate()
            };
            let sound = Formula::forall(
                "zv",
                Term::var(vname),
                Formula::exists(
                    "x",
                    "S",
                    Formula::and(filt.clone(), Formula::eq_ur("zv", "x")),
                ),
            );
            let complete = Formula::forall(
                "x",
                "S",
                d0::implies(
                    filt,
                    d0::member_hat(&ur, &Term::var("x"), &Term::var(vname), gen),
                ),
            );
            Formula::and(sound, complete)
        };
        let formula = Formula::and(view("V1", true, &mut gen), view("V2", false, &mut gen));
        ImplicitSpec {
            formula,
            inputs: vec![
                (Name::new("V1"), Type::set(Type::Ur)),
                (Name::new("V2"), Type::set(Type::Ur)),
            ],
            auxiliaries: vec![(Name::new("F"), Type::set(Type::Ur))],
            output: (Name::new("S"), Type::set(Type::Ur)),
        }
    }

    fn union_split_instance(seed: u64) -> Instance {
        let cfg = GenConfig {
            universe: 8,
            max_set_size: 5,
            seed,
        };
        let s = nrs_value::generate::random_value(&Type::set(Type::Ur), &cfg);
        let f = nrs_value::generate::random_value(
            &Type::set(Type::Ur),
            &GenConfig {
                seed: seed + 77,
                ..cfg
            },
        );
        let v1 = s.intersection(&f).unwrap();
        let v2 = s.difference(&f).unwrap();
        Instance::from_bindings([
            (Name::new("S"), s),
            (Name::new("F"), f),
            (Name::new("V1"), v1),
            (Name::new("V2"), v2),
        ])
    }

    #[test]
    fn union_split_synthesis_is_correct_on_instances() {
        let spec = union_split_spec();
        let cfg = SynthesisConfig {
            check_determinacy: true,
            ..Default::default()
        };
        let def = synthesize(&spec, &cfg).expect("synthesis succeeds");
        assert!(def.report.goals_proved >= 2);
        // the definition uses only the view names
        for v in def.expr.free_vars() {
            assert!(
                ["V1", "V2"].contains(&v.as_str()),
                "unexpected free variable {v}"
            );
        }
        for seed in 0..10 {
            let inst = union_split_instance(seed);
            let verdict = def.check_against(&inst).unwrap();
            assert_eq!(
                verdict,
                Some(true),
                "seed {seed}: synthesized definition disagrees"
            );
        }
    }

    #[test]
    fn union_split_definition_rejects_wrong_outputs() {
        let spec = union_split_spec();
        let def = synthesize(&spec, &SynthesisConfig::default()).unwrap();
        // an instance that does NOT satisfy the spec is simply skipped
        let bad = Instance::from_bindings([
            (Name::new("S"), Value::set([Value::atom(1)])),
            (Name::new("F"), Value::empty_set()),
            (Name::new("V1"), Value::set([Value::atom(9)])),
            (Name::new("V2"), Value::empty_set()),
        ]);
        assert_eq!(def.check_against(&bad).unwrap(), None);
    }

    #[test]
    fn unit_and_product_outputs() {
        // Unit output: trivial
        let spec = ImplicitSpec {
            formula: Formula::True,
            inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
            auxiliaries: vec![],
            output: (Name::new("O"), Type::Unit),
        };
        let def = synthesize(&spec, &SynthesisConfig::default()).unwrap();
        assert_eq!(def.expr, Expr::Unit);

        // Ur output determined as "the unique member of the singleton input":
        // φ := ∀x ∈ I . x = o  ∧  ∃x ∈ I . ⊤
        let phi = Formula::and(
            Formula::forall("x", "I", Formula::eq_ur("x", "o")),
            Formula::exists("x", "I", Formula::True),
        );
        let spec = ImplicitSpec {
            formula: phi,
            inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
            auxiliaries: vec![],
            output: (Name::new("o"), Type::Ur),
        };
        let def = synthesize(&spec, &SynthesisConfig::default()).unwrap();
        let inst = Instance::from_bindings([
            (Name::new("I"), Value::set([Value::atom(7)])),
            (Name::new("o"), Value::atom(7)),
        ]);
        assert_eq!(def.check_against(&inst).unwrap(), Some(true));

        // Ur × Set(Ur) output: π1 o is the unique member of I, and π2 o is
        // {x ∈ J}, written as a sound and a complete conjunct
        let mut gen = NameGen::new();
        let second = Term::proj2(Term::var("o"));
        let phi = d0::and_all([
            Formula::forall("x", "I", Formula::eq_ur("x", Term::proj1(Term::var("o")))),
            Formula::exists("x", "I", Formula::True),
            Formula::forall(
                "z",
                second.clone(),
                Formula::exists("x", "J", Formula::eq_ur("z", "x")),
            ),
            Formula::forall(
                "x",
                "J",
                d0::member_hat(&Type::Ur, &Term::var("x"), &second, &mut gen),
            ),
        ]);
        let spec = ImplicitSpec {
            formula: phi,
            inputs: vec![
                (Name::new("I"), Type::set(Type::Ur)),
                (Name::new("J"), Type::set(Type::Ur)),
            ],
            auxiliaries: vec![],
            output: (Name::new("o"), Type::prod(Type::Ur, Type::set(Type::Ur))),
        };
        let def = synthesize(&spec, &SynthesisConfig::default()).unwrap();
        let j = Value::set([Value::atom(1), Value::atom(2)]);
        let inst = Instance::from_bindings([
            (Name::new("I"), Value::set([Value::atom(7)])),
            (Name::new("J"), j.clone()),
            (Name::new("o"), Value::pair(Value::atom(7), j)),
        ]);
        assert_eq!(def.check_against(&inst).unwrap(), Some(true));
    }
}
