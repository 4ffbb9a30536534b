//! NRC Parameter Collection (Theorem 8, via Lemma 9).
//!
//! Given a focused proof of
//!
//! ```text
//!   Θ_L, Θ_R ⊢ Δ_L, Δ_R, ∃y ∈^p r . ∀z ∈ c (λ(z) ↔ ρ(z, y))
//! ```
//!
//! with `λ` a "left" formula, `ρ` a "right" formula and `c` a common variable,
//! the extraction computes an NRC expression `E` over the common variables and
//! a Δ0 formula `θ` over the common variables such that (over nested
//! relations)
//!
//! ```text
//!   Θ_L ⊨ Δ_L ∨ θ ∨ ({z ∈ c | λ(z)} ∈ E)      and      Θ_R ⊨ Δ_R ∨ ¬θ .
//! ```
//!
//! In particular, when `Δ_L` and `Δ_R` come from a satisfiable specification,
//! the set `{z ∈ c | λ(z)}` — for the synthesis pipeline this is `c ∩ r` with
//! `r` the object being reconstructed — is an *element* of the definable set
//! `E`, which is how the main theorem turns "membership below the other copy"
//! into an explicit definition.

use crate::synthesis::SynthesisError;
use nrs_delta0::typing::TypeEnv;
use nrs_delta0::{Formula, Term};
use nrs_interp::partition::{Partition, Side};
use nrs_nrc::{compile, Expr};
use nrs_proof::{Proof, Rule, Sequent};
use nrs_value::{Name, NameGen, Type};
use std::collections::BTreeSet;

/// The instance data of a parameter-collection extraction.
#[derive(Debug, Clone)]
pub struct CollectInput {
    /// The goal formula `G = ∃y ∈^p r . ∀z ∈ c (λ(z) ↔ ρ(z, y))`, exactly as
    /// it occurs in the proof's conclusion.
    pub goal: Formula,
    /// The common bound variable `c`.
    pub c: Name,
    /// The element type of `c` (i.e. `c : Set(elem_ty)`).
    pub elem_ty: Type,
    /// The left/right partition of the root sequent (the goal itself belongs
    /// to neither side).
    pub partition: Partition,
    /// Types for every variable that may occur in filters (inputs, auxiliary
    /// variables and proof eigenvariables).
    pub env: TypeEnv,
}

/// The result of a parameter-collection extraction.
#[derive(Debug, Clone)]
pub struct CollectOutput {
    /// The NRC expression `E` containing `{z ∈ c | λ(z)}` as an element.
    pub expr: Expr,
    /// The side formula `θ` over common variables.
    pub theta: Formula,
}

/// Run the Lemma 9 extraction over `proof`.
pub fn collect_parameters(
    proof: &Proof,
    input: &CollectInput,
    gen: &mut NameGen,
) -> Result<CollectOutput, SynthesisError> {
    let out = extract(proof, &input.partition, &input.goal, input, gen)?;
    Ok(CollectOutput {
        expr: out.expr,
        theta: out.theta.beta_normalize(),
    })
}

struct Extraction {
    expr: Expr,
    theta: Formula,
}

fn empty_family(input: &CollectInput) -> Expr {
    // E has type Set(Set(elem_ty)): a set of candidate definitions for Λ.
    Expr::empty(Type::set(input.elem_ty.clone()))
}

fn extract(
    proof: &Proof,
    partition: &Partition,
    goal: &Formula,
    input: &CollectInput,
    gen: &mut NameGen,
) -> Result<Extraction, SynthesisError> {
    let seq = &proof.conclusion;
    match &proof.rule {
        Rule::Top => Ok(axiom_case(partition.formula_side(&Formula::True), input)),
        Rule::EqRefl { term } => {
            let ax = Formula::EqUr(term.clone(), term.clone());
            Ok(axiom_case(partition.formula_side(&ax), input))
        }
        Rule::And { conj } => {
            let side = partition.formula_side(conj);
            let premises = premises_of(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let p1 = partition.premise_partition(seq, &proof.rule, &premises[1]);
            let e0 = extract(&proof.premises[0], &p0, goal, input, gen)?;
            let e1 = extract(&proof.premises[1], &p1, goal, input, gen)?;
            let theta = match side {
                Side::Left => simplify_or(e0.theta, e1.theta),
                Side::Right => simplify_and(e0.theta, e1.theta),
            };
            Ok(Extraction {
                expr: union_exprs(e0.expr, e1.expr),
                theta,
            })
        }
        Rule::Or { .. } | Rule::Forall { .. } | Rule::ProdBeta { .. } => {
            let premises = premises_of(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            extract(&proof.premises[0], &p0, goal, input, gen)
        }
        Rule::ProdEta { var, fst, snd } => {
            let premises = premises_of(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let inner = extract(&proof.premises[0], &p0, goal, input, gen)?;
            let p1 = Term::proj1(Term::Var(*var));
            let p2 = Term::proj2(Term::Var(*var));
            Ok(Extraction {
                expr: inner
                    .expr
                    .subst(fst, &compile::compile_term(&p1))
                    .subst(snd, &compile::compile_term(&p2)),
                theta: inner
                    .theta
                    .replace_term(&Term::Var(*fst), &p1)
                    .replace_term(&Term::Var(*snd), &p2),
            })
        }
        Rule::Neq { ineq, atom, .. } => {
            let premises = premises_of(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let inner = extract(&proof.premises[0], &p0, goal, input, gen)?;
            let (t, u) = match ineq.value() {
                Formula::NeqUr(t, u) => (t.clone(), u.clone()),
                other => {
                    return Err(SynthesisError::Extraction(format!(
                        "≠ rule with non-inequality principal {other}"
                    )))
                }
            };
            let ineq_side = partition.formula_side(ineq);
            let atom_side = partition.formula_side(atom);
            if ineq_side == atom_side {
                return Ok(inner);
            }
            let common = partition.common_vars(seq);
            let u_common = u.free_vars().iter().all(|v| common.contains(v));
            if u_common {
                let theta = match atom_side {
                    Side::Right => simplify_and(inner.theta, Formula::EqUr(t, u)),
                    Side::Left => simplify_or(inner.theta, Formula::NeqUr(t, u)),
                };
                Ok(Extraction {
                    expr: inner.expr,
                    theta,
                })
            } else {
                // fold the non-common term back into the common one
                let expr = match u.as_var() {
                    Some(v) => inner.expr.subst(v, &compile::compile_term(&t)),
                    None => inner.expr,
                };
                Ok(Extraction {
                    expr,
                    theta: inner.theta.replace_term(&u, &t),
                })
            }
        }
        Rule::Exists { quant, spec } => {
            if quant.value() == goal {
                main_case(proof, partition, goal, spec, input, gen)
            } else {
                side_case(proof, partition, goal, quant, input, gen)
            }
        }
    }
}

fn axiom_case(side: Side, input: &CollectInput) -> Extraction {
    Extraction {
        expr: empty_family(input),
        theta: match side {
            Side::Left => Formula::False,
            Side::Right => Formula::True,
        },
    }
}

/// The crucial case: the ∃ rule instantiated the goal
/// `∃y ∈^p r . ∀z ∈ c (λ ↔ ρ)` at some witness.  The focusing discipline
/// forces the sub-proof to decompose the added specialization by ∀, then ∧,
/// then ∨ / ∨, yielding two branches from which the induction hypotheses are
/// taken (paper §5 / Appendix E).
fn main_case(
    proof: &Proof,
    partition: &Partition,
    goal: &Formula,
    spec: &Formula,
    input: &CollectInput,
    gen: &mut NameGen,
) -> Result<Extraction, SynthesisError> {
    // walk: premise of the ∃ node, then a chain of ∀ / ∧ / ∨ decompositions of
    // the spec until the two iff branches are exposed.
    let premises = premises_of(proof)?;
    let after_exists = &proof.premises[0];
    let p_after = partition.premise_partition(&proof.conclusion, &proof.rule, &premises[0]);

    // the spec must be a ∀z ∈ c . (…); find the node that decomposes it
    let (forall_node, p_forall) = descend_to_principal(after_exists, &p_after, spec)?;
    let Rule::Forall { witness, .. } = &forall_node.rule else {
        return Err(SynthesisError::Extraction(format!(
            "expected the specialization {spec} to be decomposed by ∀, found {}",
            forall_node.rule.name()
        )));
    };
    let x = *witness;
    let body = match spec {
        Formula::Forall { var, body, .. } => body.subst_var(var, &Term::Var(x)),
        other => {
            return Err(SynthesisError::Extraction(format!(
                "goal specialization {other} is not a universal formula"
            )))
        }
    };
    // body = (¬λ(x) ∨ ρ(x,w)) ∧ (¬ρ(x,w) ∨ λ(x))
    let Formula::And(imp1, imp2) = &body else {
        return Err(SynthesisError::Extraction(format!(
            "goal body {body} is not a bi-implication"
        )));
    };
    let forall_premises = premises_of(forall_node)?;
    let p_inner = p_forall.premise_partition(
        &forall_node.conclusion,
        &forall_node.rule,
        &forall_premises[0],
    );
    let (and_node, p_and) = descend_to_principal(&forall_node.premises[0], &p_inner, &body)?;
    let Rule::And { .. } = &and_node.rule else {
        return Err(SynthesisError::Extraction(format!(
            "expected the bi-implication {body} to be decomposed by ∧, found {}",
            and_node.rule.name()
        )));
    };
    let and_premises = premises_of(and_node)?;

    // Branch A proves Δ, ¬λ(x) ∨ ρ(x,w): after its ∨ decomposition it contains
    // ¬λ(x) [left] and ρ(x,w) [right]  → this is the paper's second subproof
    // (θ2, E2).  Branch B proves Δ, ¬ρ(x,w) ∨ λ(x) → the first subproof (θ1, E1).
    let extract_branch = |branch: &Proof,
                          branch_premise: &Sequent,
                          imp: &Formula,
                          lambda_part: &Formula,
                          rho_part: &Formula,
                          gen: &mut NameGen|
     -> Result<Extraction, SynthesisError> {
        let mut p_branch =
            p_and.premise_partition(&and_node.conclusion, &and_node.rule, branch_premise);
        // make sure the iff parts carry the intended sides once decomposed
        p_branch.assign_formula(lambda_part.clone(), Side::Left);
        p_branch.assign_formula(rho_part.clone(), Side::Right);
        let (or_node, p_or) = descend_to_principal(branch, &p_branch, imp)?;
        let Rule::Or { .. } = &or_node.rule else {
            return Err(SynthesisError::Extraction(format!(
                "expected the implication {imp} to be decomposed by ∨, found {}",
                or_node.rule.name()
            )));
        };
        let or_premises = premises_of(or_node)?;
        let mut p_next =
            p_or.premise_partition(&or_node.conclusion, &or_node.rule, &or_premises[0]);
        p_next.assign_formula(lambda_part.clone(), Side::Left);
        p_next.assign_formula(rho_part.clone(), Side::Right);
        extract(&or_node.premises[0], &p_next, goal, input, gen)
    };

    let (lam_a, rho_a) = split_implication(imp1)?; // (¬λ(x) , ρ(x,w))
    let (rho_b, lam_b) = split_implication(imp2)?; // (¬ρ(x,w) , λ(x))
    let branch_a = extract_branch(
        &and_node.premises[0],
        &and_premises[0],
        imp1,
        &lam_a,
        &rho_a,
        gen,
    )?;
    let branch_b = extract_branch(
        &and_node.premises[1],
        &and_premises[1],
        imp2,
        &lam_b,
        &rho_b,
        gen,
    )?;
    // paper naming: (θ1, E1) from the branch containing λ(x) positively (B),
    //               (θ2, E2) from the branch containing ¬λ(x) (A).
    let (theta1, e1) = (branch_b.theta, branch_b.expr);
    let (theta2, e2) = (branch_a.theta, branch_a.expr);

    // θ := ∃x ∈ c . θ1 ∧ θ2
    let theta = Formula::exists(x, Term::Var(input.c), simplify_and(theta1, theta2.clone()));
    // E := { {x ∈ c | θ2} } ∪ ⋃ { E1 ∪ E2 | x ∈ c }
    let candidate = compile::comprehension(
        x,
        Expr::Var(input.c),
        &input.elem_ty,
        &theta2,
        &input.env,
        gen,
    )
    .map_err(|e| SynthesisError::Extraction(e.to_string()))?;
    let family = Expr::big_union(x, Expr::Var(input.c), union_exprs(e1, e2));
    Ok(Extraction {
        expr: union_exprs(Expr::singleton(candidate), family),
        theta,
    })
}

/// The ∃ rule applied to a formula other than the goal (Lemma 11 and its
/// dual): recurse and then bound away variables that are no longer common.
fn side_case(
    proof: &Proof,
    partition: &Partition,
    goal: &Formula,
    quant: &Formula,
    input: &CollectInput,
    gen: &mut NameGen,
) -> Result<Extraction, SynthesisError> {
    let premises = premises_of(proof)?;
    let p0 = partition.premise_partition(&proof.conclusion, &proof.rule, &premises[0]);
    let inner = extract(&proof.premises[0], &p0, goal, input, gen)?;
    let quant_side = partition.formula_side(quant);
    let common = partition.common_vars(&proof.conclusion);
    let mut theta = inner.theta;
    let mut expr = inner.expr;
    for _ in 0..64 {
        let mut offending: BTreeSet<Name> = BTreeSet::new();
        offending.extend(
            theta
                .free_vars()
                .into_iter()
                .filter(|v| !common.contains(v)),
        );
        offending.extend(
            expr.free_vars()
                .into_iter()
                .filter(|v| !common.contains(v) && v != &input.c),
        );
        let Some(var) = offending.into_iter().next() else {
            return Ok(Extraction { expr, theta });
        };
        let atom = proof
            .conclusion
            .ctx
            .iter()
            .find(|a| a.elem == Term::Var(var))
            .cloned()
            .ok_or_else(|| {
                SynthesisError::Extraction(format!(
                    "cannot bound away non-common variable {var} (no ∈-context atom)"
                ))
            })?;
        theta = match quant_side {
            Side::Left => Formula::forall(var, atom.set.clone(), theta),
            Side::Right => Formula::exists(var, atom.set.clone(), theta),
        };
        expr = Expr::big_union(var, compile::compile_term(&atom.set), expr);
    }
    Err(SynthesisError::Extraction(
        "too many rounds of variable repair".into(),
    ))
}

/// Split `¬A ∨ B` into `(¬A, B)`.
fn split_implication(f: &Formula) -> Result<(Formula, Formula), SynthesisError> {
    match f {
        Formula::Or(a, b) => Ok(((**a).clone(), (**b).clone())),
        other => Err(SynthesisError::Extraction(format!(
            "expected an implication, found {other}"
        ))),
    }
}

/// Descend through nodes whose principal formula is *not* `target` until the
/// node whose rule decomposes `target` is found; keeps the partition in sync.
fn descend_to_principal<'a>(
    mut node: &'a Proof,
    partition: &Partition,
    target: &Formula,
) -> Result<(&'a Proof, Partition), SynthesisError> {
    let mut part = partition.clone();
    for _ in 0..10_000 {
        let principal = match &node.rule {
            Rule::And { conj } => Some(conj.value()),
            Rule::Or { disj } => Some(disj.value()),
            Rule::Forall { quant, .. } => Some(quant.value()),
            _ => None,
        };
        if principal == Some(target) {
            return Ok((node, part));
        }
        if node.premises.is_empty() {
            return Err(SynthesisError::Extraction(format!(
                "the proof closed before decomposing {target}"
            )));
        }
        if node.premises.len() != 1 {
            return Err(SynthesisError::Extraction(format!(
                "unexpected branching before decomposing {target}"
            )));
        }
        let premises = premises_of(node)?;
        part = part.premise_partition(&node.conclusion, &node.rule, &premises[0]);
        node = &node.premises[0];
    }
    Err(SynthesisError::Extraction(
        "proof too deep while searching for a principal formula".into(),
    ))
}

fn premises_of(proof: &Proof) -> Result<Vec<Sequent>, SynthesisError> {
    proof
        .rule
        .premises(&proof.conclusion)
        .map_err(|e| SynthesisError::Extraction(format!("malformed proof: {e}")))
}

fn union_exprs(a: Expr, b: Expr) -> Expr {
    match (&a, &b) {
        (Expr::Empty(_), _) => b,
        (_, Expr::Empty(_)) => a,
        _ if a == b => a,
        _ => Expr::union(a, b),
    }
}

fn simplify_and(a: Formula, b: Formula) -> Formula {
    match (&a, &b) {
        (Formula::True, _) => b,
        (_, Formula::True) => a,
        (Formula::False, _) | (_, Formula::False) => Formula::False,
        _ if a == b => a,
        _ => Formula::and(a, b),
    }
}

fn simplify_or(a: Formula, b: Formula) -> Formula {
    match (&a, &b) {
        (Formula::False, _) => b,
        (_, Formula::False) => a,
        (Formula::True, _) | (_, Formula::True) => Formula::True,
        _ if a == b => a,
        _ => Formula::or(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::macros as d0;
    use nrs_delta0::InContext;
    use nrs_nrc::eval::eval;
    use nrs_prover::{prove_sequent, ProverConfig};
    use nrs_value::generate::GenConfig;
    use nrs_value::{Instance, Value};

    /// A small scenario exercising the main case of Lemma 9.
    ///
    /// Right variable `O2`, common variables `c`, `D`.
    /// * right assumption: D ∈̂ O2
    /// * goal G:           ∃y ∈ O2 . ∀z ∈ c . (z ∈̂ D ↔ z ∈̂ y)
    ///
    /// Here the "left" formula λ(z) is `z ∈̂ D` (the same shape the synthesis
    /// pipeline uses, with `D` playing the role of the object being
    /// reconstructed).  The extraction must produce an NRC expression over
    /// {c, D} containing the set Λ = {z ∈ c | z ∈̂ D} = c ∩ D as an element.
    fn scenario() -> (Vec<Formula>, Vec<Formula>, Formula, CollectInput) {
        let mut gen = NameGen::new();
        let ur = Type::Ur;
        let set_ur = Type::set(Type::Ur);
        let in_d =
            |z: &str, g: &mut NameGen| d0::member_hat(&ur, &Term::var(z), &Term::var("D"), g);
        let right = d0::member_hat(&set_ur, &Term::var("D"), &Term::var("O2"), &mut gen);
        // G, built with the same λ / ρ shapes the synthesis pipeline uses
        let lam = in_d("zz", &mut gen);
        let rho = d0::member_hat(&ur, &Term::var("zz"), &Term::var("yy"), &mut gen);
        let goal = Formula::exists("yy", "O2", Formula::forall("zz", "c", d0::iff(lam, rho)));
        let env = TypeEnv::from_pairs([
            (Name::new("D"), set_ur.clone()),
            (Name::new("c"), set_ur.clone()),
            (Name::new("O2"), Type::set(set_ur.clone())),
        ]);
        let partition = Partition::new();
        let input = CollectInput {
            goal: goal.clone(),
            c: Name::new("c"),
            elem_ty: Type::Ur,
            partition,
            env,
        };
        (vec![], vec![right], goal, input)
    }

    #[test]
    fn parameter_collection_produces_a_containing_family() {
        let (left, right, goal, input) = scenario();
        let seq = Sequent::two_sided(
            InContext::new(),
            left.iter().cloned().chain(right.iter().cloned()),
            [goal.clone()],
        );
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).expect("goal is provable");
        let mut gen = NameGen::avoiding(seq.free_vars().iter());
        let out = collect_parameters(&proof, &input, &mut gen).expect("extraction succeeds");

        // E and θ only use common variables (c, D)
        for v in out.expr.free_vars() {
            assert!(
                ["c", "D"].contains(&v.as_str()),
                "collected expression mentions non-common variable {v}"
            );
        }
        for v in out.theta.free_vars() {
            assert!(
                ["c", "D"].contains(&v.as_str()),
                "θ mentions non-common variable {v}"
            );
        }

        // semantic check on random instances satisfying the assumptions:
        // Λ = c ∩ D must be an element of the evaluated family.
        let cfg = GenConfig {
            universe: 6,
            max_set_size: 4,
            seed: 3,
        };
        for seed in 0..8u64 {
            let c_val =
                nrs_value::generate::random_value(&Type::set(Type::Ur), &GenConfig { seed, ..cfg });
            let d_val = nrs_value::generate::random_value(
                &Type::set(Type::Ur),
                &GenConfig {
                    seed: seed + 50,
                    ..cfg
                },
            );
            // choose O2 to contain D (so the right assumption holds)
            let o2_val = Value::set([d_val.clone(), Value::empty_set()]);
            let inst = Instance::from_bindings([
                (Name::new("c"), c_val.clone()),
                (Name::new("D"), d_val.clone()),
                (Name::new("O2"), o2_val),
            ]);
            let family = eval(&out.expr, &inst).expect("family evaluates");
            let lambda_set = c_val.intersection(&d_val).unwrap();
            assert!(
                family.contains(&lambda_set).unwrap(),
                "seed {seed}: {lambda_set} not in {family}"
            );
        }
    }

    #[test]
    fn extraction_rejects_proofs_of_unrelated_sequents_gracefully() {
        // a proof in which the goal G never gets instantiated: extraction still
        // returns (its result is vacuously correct since Δ_L holds), and must
        // not panic.
        let (_, _, goal, input) = scenario();
        let seq = Sequent::goals([Formula::eq_ur("q", "q"), goal.clone()]);
        let (proof, _) = prove_sequent(&seq, &ProverConfig::quick()).unwrap();
        let mut gen = NameGen::new();
        let out = collect_parameters(&proof, &input, &mut gen).unwrap();
        // the trivial proof closes by the axiom, which is on the right by default
        assert_eq!(out.theta, Formula::True);
    }
}
