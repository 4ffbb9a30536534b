//! The interpolant extraction (Theorem 4), by Maehara's method over focused
//! proofs.

use crate::partition::{Partition, Side};
use nrs_delta0::{Formula, Shared, Term};
use nrs_proof::{Proof, Rule, Sequent};
use std::collections::BTreeSet;

/// Errors raised during interpolant extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpolationError {
    /// A variable of the candidate interpolant is not common to the two sides
    /// and no ∈-context atom was available to bound it away.
    UnboundedVariable(String),
    /// The proof had a shape the extraction does not recognise (it would not
    /// pass the proof checker either).
    MalformedProof(String),
}

impl std::fmt::Display for InterpolationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpolationError::UnboundedVariable(m) => {
                write!(
                    f,
                    "interpolation: cannot eliminate non-common variable: {m}"
                )
            }
            InterpolationError::MalformedProof(m) => {
                write!(f, "interpolation: malformed proof: {m}")
            }
        }
    }
}

impl std::error::Error for InterpolationError {}

/// Compute a Craig interpolant for the root sequent of `proof` under the given
/// left/right partition (Theorem 4).
///
/// The result `θ` satisfies, over nested relations,
/// `Θ_L ⊨ Δ_L ∨ θ` and `Θ_R ⊨ Δ_R ∨ ¬θ`, with `FV(θ)` contained in the
/// variables common to the two parts.
pub fn interpolate(proof: &Proof, partition: &Partition) -> Result<Formula, InterpolationError> {
    let theta = extract(proof, partition)?;
    Ok(theta.beta_normalize())
}

fn extract(proof: &Proof, partition: &Partition) -> Result<Formula, InterpolationError> {
    let seq = &proof.conclusion;
    match &proof.rule {
        Rule::Top => {
            // the ⊤ axiom closes on whichever side ⊤ lives
            Ok(match partition.formula_side(&Shared::new(Formula::True)) {
                Side::Left => Formula::False,
                Side::Right => Formula::True,
            })
        }
        Rule::EqRefl { term } => {
            let ax = Shared::new(Formula::EqUr(term.clone(), term.clone()));
            Ok(match partition.formula_side(&ax) {
                Side::Left => Formula::False,
                Side::Right => Formula::True,
            })
        }
        Rule::And { conj } => {
            let side = partition.formula_side(conj);
            let premises = rule_premises(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let p1 = partition.premise_partition(seq, &proof.rule, &premises[1]);
            let t0 = extract(&proof.premises[0], &p0)?;
            let t1 = extract(&proof.premises[1], &p1)?;
            Ok(match side {
                Side::Left => simplify_or(t0, t1),
                Side::Right => simplify_and(t0, t1),
            })
        }
        Rule::Or { .. } | Rule::Forall { .. } | Rule::ProdBeta { .. } => {
            let premises = rule_premises(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            extract(&proof.premises[0], &p0)
        }
        Rule::ProdEta { var, fst, snd } => {
            let premises = rule_premises(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let inner = extract(&proof.premises[0], &p0)?;
            // rewrite the fresh components back to projections of the original
            Ok(inner
                .replace_term(&Term::Var(*fst), &Term::proj1(Term::Var(*var)))
                .replace_term(&Term::Var(*snd), &Term::proj2(Term::Var(*var))))
        }
        Rule::Neq {
            ineq,
            atom,
            rewritten: _,
        } => {
            let premises = rule_premises(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let inner = extract(&proof.premises[0], &p0)?;
            let (t, u) = match ineq.value() {
                Formula::NeqUr(t, u) => (t.clone(), u.clone()),
                other => {
                    return Err(InterpolationError::MalformedProof(format!(
                        "≠ rule with non-inequality {other}"
                    )))
                }
            };
            let ineq_side = partition.formula_side(ineq);
            let atom_side = partition.formula_side(atom);
            if ineq_side == atom_side {
                // the rewritten atom stays within one side: nothing to repair
                return Ok(inner);
            }
            let common = partition.common_vars(seq);
            // mixed sides (appendix E, ≠ cases): the rewritten atom crosses the
            // partition, so the equation `t = u` itself becomes part of the
            // interpolant, unless `u` is not common, in which case occurrences
            // of `u` are folded back into `t`.
            let u_common = u.free_vars().iter().all(|v| common.contains(v));
            if u_common {
                Ok(match atom_side {
                    // atom on the right, inequality on the left
                    Side::Right => simplify_and(inner, Formula::EqUr(t, u)),
                    // atom on the left, inequality on the right
                    Side::Left => simplify_or(inner, Formula::NeqUr(t, u)),
                })
            } else {
                Ok(inner.replace_term(&u, &t))
            }
        }
        Rule::Exists { quant, .. } => {
            let premises = rule_premises(proof)?;
            let p0 = partition.premise_partition(seq, &proof.rule, &premises[0]);
            let inner = extract(&proof.premises[0], &p0)?;
            // Variables legal in the premise interpolant may be illegal for the
            // conclusion (they occurred in the added specialization only);
            // bound them away, universally when the principal existential is on
            // the left and existentially when it is on the right (Lemma 11).
            let quant_side = partition.formula_side(quant);
            repair_variables(inner, seq, partition, quant_side)
        }
    }
}

fn rule_premises(proof: &Proof) -> Result<Vec<Sequent>, InterpolationError> {
    proof
        .rule
        .premises(&proof.conclusion)
        .map_err(|e| InterpolationError::MalformedProof(e.to_string()))
}

/// Bound away every free variable of `theta` that is not common to the two
/// sides of `seq`, using its ∈-context atom as the Δ0 bound.
fn repair_variables(
    mut theta: Formula,
    seq: &Sequent,
    partition: &Partition,
    quant_side: Side,
) -> Result<Formula, InterpolationError> {
    let common = partition.common_vars(seq);
    // iterate: wrapping may expose bound terms whose variables need treatment too
    for _ in 0..64 {
        let offending: BTreeSet<_> = theta
            .free_vars()
            .into_iter()
            .filter(|v| !common.contains(v))
            .collect();
        let Some(var) = offending.into_iter().next() else {
            return Ok(theta);
        };
        // find a context atom `var ∈ t` to use as the bound
        let atom = seq
            .ctx
            .iter()
            .find(|a| a.elem == Term::Var(var))
            .cloned()
            .ok_or_else(|| InterpolationError::UnboundedVariable(format!("{var}")))?;
        theta = match quant_side {
            Side::Left => Formula::forall(var, atom.set.clone(), theta),
            Side::Right => Formula::exists(var, atom.set.clone(), theta),
        };
    }
    Err(InterpolationError::UnboundedVariable(
        "too many rounds of variable repair; the proof is unexpectedly deep".into(),
    ))
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
    use nrs_delta0::entail::{check_sequent_bounded, BoundedCheck, CheckOutcome};
    use nrs_delta0::macros as d0;
    use nrs_delta0::typing::TypeEnv;
    use nrs_delta0::{InContext, MemAtom};
    use nrs_prover::{prove_sequent, ProverConfig};
    use nrs_value::{Name, NameGen, Type};

    /// Check the two interpolation invariants semantically over a small universe.
    fn check_interpolant(seq: &Sequent, partition: &Partition, theta: &Formula, env: &TypeEnv) {
        // variable condition
        let common = partition.common_vars(seq);
        for v in theta.free_vars() {
            assert!(
                common.contains(&v),
                "interpolant variable {v} is not common"
            );
        }
        let cfg = BoundedCheck {
            universe: 2,
            max_models: 2_000_000,
        };
        // left: Θ_L ⊨ Δ_L ∨ θ
        let left_ctx: InContext = seq
            .ctx
            .iter()
            .filter(|a| partition.atom_side(a) == Side::Left)
            .cloned()
            .collect();
        let mut left_goals: Vec<Formula> = partition.left_of(seq).into_iter().cloned().collect();
        left_goals.push(theta.clone());
        let out = check_sequent_bounded(&left_ctx, &[], &left_goals, env, &cfg).unwrap();
        assert_eq!(out, CheckOutcome::Valid, "left invariant fails");
        // right: Θ_R ⊨ Δ_R ∨ ¬θ
        let right_ctx: InContext = seq
            .ctx
            .iter()
            .filter(|a| partition.atom_side(a) == Side::Right)
            .cloned()
            .collect();
        let mut right_goals: Vec<Formula> = partition.right_of(seq).into_iter().cloned().collect();
        right_goals.push(theta.negate());
        let out = check_sequent_bounded(&right_ctx, &[], &right_goals, env, &cfg).unwrap();
        assert_eq!(out, CheckOutcome::Valid, "right invariant fails");
    }

    #[test]
    fn interpolates_a_propositional_split() {
        // Left: ¬(x = y); Right: x = y ∨ anything — i.e. prove ⊢ x≠y [L], x=y [R].
        // Wait: that sequent isn't valid.  Use: Left x≠y ∨ x=y? Keep it simple:
        // prove ⊢ x=y [L], x≠y [R]: valid (excluded middle split across sides).
        let f_l = Formula::eq_ur("x", "y");
        let f_r = Formula::neq_ur("x", "y");
        let seq = Sequent::goals([f_l.clone(), f_r.clone()]);
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
        let partition = Partition::with_left([], [f_l.clone()]);
        let theta = interpolate(&proof, &partition).unwrap();
        let env = TypeEnv::from_pairs([(Name::new("x"), Type::Ur), (Name::new("y"), Type::Ur)]);
        check_interpolant(&seq, &partition, &theta, &env);
    }

    #[test]
    fn interpolates_equality_chains() {
        // Θ; x=a, a=y ⊢ x=y  with the chain split across the two sides:
        // Left: ¬(x=a)  Right: ¬(a=y), x=y.  Common variables: x, a, y... the
        // interpolant should only mention x and a (left) ∩ (a, y, x) = {x, a}.
        let left = Formula::neq_ur("x", "a");
        let right1 = Formula::neq_ur("a", "y");
        let goal = Formula::eq_ur("x", "y");
        let seq = Sequent::goals([left.clone(), right1.clone(), goal.clone()]);
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
        let partition = Partition::with_left([], [left.clone()]);
        let theta = interpolate(&proof, &partition).unwrap();
        let env = TypeEnv::from_pairs([
            (Name::new("x"), Type::Ur),
            (Name::new("a"), Type::Ur),
            (Name::new("y"), Type::Ur),
        ]);
        check_interpolant(&seq, &partition, &theta, &env);
    }

    #[test]
    fn interpolates_quantified_view_reasoning() {
        // Left: ¬(S ⊆ V); Right: ¬(V ⊆ W), S ⊆ W   — transitivity split.
        let mut gen = NameGen::new();
        let sv = d0::subset(&Type::Ur, &Term::var("S"), &Term::var("V"), &mut gen);
        let vw = d0::subset(&Type::Ur, &Term::var("V"), &Term::var("W"), &mut gen);
        let sw = d0::subset(&Type::Ur, &Term::var("S"), &Term::var("W"), &mut gen);
        let seq = Sequent::two_sided(InContext::new(), [sv.clone(), vw.clone()], [sw.clone()]);
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
        // left part: the first assumption (negated in the one-sided encoding)
        let partition = Partition::with_left([], [sv.negate()]);
        let theta = interpolate(&proof, &partition).unwrap();
        // the interpolant may only mention S and V (common to both sides: S
        // appears on the right in the goal, V on the right assumption)
        let env = TypeEnv::from_pairs([
            (Name::new("S"), Type::set(Type::Ur)),
            (Name::new("V"), Type::set(Type::Ur)),
            (Name::new("W"), Type::set(Type::Ur)),
        ]);
        check_interpolant(&seq, &partition, &theta, &env);
        assert!(theta.is_delta0());
    }

    #[test]
    fn interpolates_with_context_atoms_on_both_sides() {
        // Θ_L: r ∈ S ; Θ_R: (empty) ; Left: ¬(∀z∈S. z ∈̂ V) ; Right: r ∈̂ V
        let mut gen = NameGen::new();
        let subset = d0::subset(&Type::Ur, &Term::var("S"), &Term::var("V"), &mut gen);
        let goal = d0::member_hat(&Type::Ur, &Term::var("r"), &Term::var("V"), &mut gen);
        let atom = MemAtom::new("r", "S");
        let seq = Sequent::two_sided(
            InContext::from_atoms([atom.clone()]),
            [subset.clone()],
            [goal.clone()],
        );
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
        let partition = Partition::with_left([atom.clone()], [subset.negate()]);
        let theta = interpolate(&proof, &partition).unwrap();
        let env = TypeEnv::from_pairs([
            (Name::new("S"), Type::set(Type::Ur)),
            (Name::new("V"), Type::set(Type::Ur)),
            (Name::new("r"), Type::Ur),
        ]);
        check_interpolant(&seq, &partition, &theta, &env);
    }

    #[test]
    fn trivial_partitions_give_trivial_interpolants() {
        // everything on the left: θ may be ⊥; everything on the right: θ may be ⊤.
        let goal = Formula::or(Formula::eq_ur("x", "y"), Formula::neq_ur("x", "y"));
        let seq = Sequent::goals([goal.clone()]);
        let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
        let env = TypeEnv::from_pairs([(Name::new("x"), Type::Ur), (Name::new("y"), Type::Ur)]);
        let all_left = Partition::with_left([], [goal.clone()]);
        let t1 = interpolate(&proof, &all_left).unwrap();
        check_interpolant(&seq, &all_left, &t1, &env);
        let all_right = Partition::new();
        let t2 = interpolate(&proof, &all_right).unwrap();
        check_interpolant(&seq, &all_right, &t2, &env);
    }

    #[test]
    fn interpolant_extraction_is_linear_in_proof_size() {
        // build a family of proofs of growing size and check the interpolant
        // stays within a constant factor of the proof
        for n in [2usize, 4, 8] {
            let mut gen = NameGen::new();
            let mut assumptions = Vec::new();
            // chain x0 = x1, x1 = x2, ..., x_{n-1} = x_n
            for i in 0..n {
                assumptions.push(Formula::eq_ur(
                    Term::var(format!("x{i}")),
                    Term::var(format!("x{}", i + 1)),
                ));
            }
            let goal = Formula::eq_ur("x0", Term::var(format!("x{n}")));
            let seq = Sequent::two_sided(InContext::new(), assumptions.clone(), [goal]);
            let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).unwrap();
            // split the chain in the middle
            let partition =
                Partition::with_left([], assumptions[..n / 2].iter().map(|f| f.negate()));
            let theta = interpolate(&proof, &partition).unwrap();
            assert!(
                theta.size() <= 4 * proof.size(),
                "interpolant disproportionately large"
            );
            let _ = &mut gen;
        }
    }
}
