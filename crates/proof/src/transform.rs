//! Admissible-rule transformations on focused proofs.
//!
//! The paper's §5 / Appendix F establish a toolbox of rules that are
//! *polytime admissible* in the focused calculus; the synthesis pipeline uses
//! them to massage the user-supplied determinacy proof into the shapes its
//! inductions need.  This module implements the ones that are pure structural
//! rewrites of the proof tree:
//!
//! * variable renaming (the substitution rule, Lemma 16, for fresh targets);
//! * weakening (Lemma 12), for extra ∈-context atoms and extra EL formulas;
//! * invertibility of ∧ (Lemma 13);
//! * invertibility of ∀ (Lemma 14).
//!
//! The remaining admissible rules of the paper (generalized congruence,
//! Lemmas 6 and 7) are *goal* transformations whose output proofs the
//! synthesis driver re-derives with the proof-search engine; see the
//! `nrs-synthesis` crate for the discussion of that design choice.
//!
//! Every transformation rebuilds nodes through [`Proof::by`], so the output
//! is re-validated rule application by rule application.  Formulas a
//! transformation adds to every node are interned once up front, so each
//! rebuilt sequent takes a handle to the same node.

use crate::check::ProofError;
use crate::proof::{Proof, Rule};
use crate::sequent::subst_handle;
use nrs_delta0::{Formula, MemAtom, Shared, Term};
use nrs_value::{Name, NameGen};

/// Rename a free variable throughout a proof.  The new name must not occur
/// anywhere in the proof (free or as an eigenvariable), and the old name must
/// not be used as an eigenvariable; both conditions hold for the generated
/// `#`-suffixed eigenvariables versus user-level names.
pub fn rename_free_var(proof: &Proof, old: &Name, new: &Name) -> Result<Proof, ProofError> {
    // sanity: `new` must be globally fresh and `old` must not be an eigenvariable
    for node in proof.nodes() {
        if node.conclusion.free_vars().contains(new) {
            return Err(ProofError::TransformFailed(format!(
                "rename: target name {new} already occurs in the proof"
            )));
        }
        match &node.rule {
            Rule::Forall { witness, .. } if witness == old || witness == new => {
                return Err(ProofError::TransformFailed(format!(
                    "rename: {old} or {new} is used as an eigenvariable"
                )))
            }
            Rule::ProdEta { fst, snd, .. }
                if fst == old || snd == old || fst == new || snd == new =>
            {
                return Err(ProofError::TransformFailed(format!(
                    "rename: {old} or {new} is used as a ×η component variable"
                )))
            }
            _ => {}
        }
    }
    rename_unchecked(proof, old, new)
}

fn rename_unchecked(proof: &Proof, old: &Name, new: &Name) -> Result<Proof, ProofError> {
    let repl = Term::Var(*new);
    let conclusion = proof.conclusion.subst_var(old, &repl);
    let rule = match &proof.rule {
        Rule::EqRefl { term } => Rule::EqRefl {
            term: term.subst_var(old, &repl),
        },
        Rule::Top => Rule::Top,
        Rule::Neq {
            ineq,
            atom,
            rewritten,
        } => Rule::Neq {
            ineq: subst_handle(ineq, old, &repl),
            atom: subst_handle(atom, old, &repl),
            rewritten: subst_handle(rewritten, old, &repl),
        },
        Rule::And { conj } => Rule::And {
            conj: subst_handle(conj, old, &repl),
        },
        Rule::Or { disj } => Rule::Or {
            disj: subst_handle(disj, old, &repl),
        },
        Rule::Forall { quant, witness } => Rule::Forall {
            quant: subst_handle(quant, old, &repl),
            witness: *witness,
        },
        Rule::Exists { quant, spec } => Rule::Exists {
            quant: subst_handle(quant, old, &repl),
            spec: subst_handle(spec, old, &repl),
        },
        Rule::ProdEta { var, fst, snd } => Rule::ProdEta {
            var: if var == old { *new } else { *var },
            fst: *fst,
            snd: *snd,
        },
        Rule::ProdBeta { fst, snd, first } => Rule::ProdBeta {
            fst: if fst == old { *new } else { *fst },
            snd: if snd == old { *new } else { *snd },
            first: *first,
        },
    };
    let premises = proof
        .premises
        .iter()
        .map(|p| rename_unchecked(p, old, new))
        .collect::<Result<Vec<_>, _>>()?;
    Proof::by(conclusion, rule, premises)
}

/// Weakening (Lemma 12): add ∈-context atoms and extra **existential-leading**
/// formulas to every sequent of the proof.  Eigenvariables clashing with the
/// new material are renamed on the fly.
pub fn weaken(
    proof: &Proof,
    extra_atoms: &[MemAtom],
    extra_formulas: &[Formula],
    gen: &mut NameGen,
) -> Result<Proof, ProofError> {
    if let Some(bad) = extra_formulas.iter().find(|f| !f.is_el()) {
        return Err(ProofError::TransformFailed(format!(
            "weakening by the alternative-leading formula {bad} is not supported; \
             decompose it first"
        )));
    }
    let mut extra_vars: std::collections::BTreeSet<Name> = Default::default();
    for a in extra_atoms {
        extra_vars.extend(a.free_vars());
    }
    for f in extra_formulas {
        extra_vars.extend(f.free_vars());
    }
    let extra_formulas: Vec<Shared<Formula>> =
        extra_formulas.iter().cloned().map(Shared::new).collect();
    weaken_rec(proof, extra_atoms, &extra_formulas, &extra_vars, gen)
}

fn weaken_rec(
    proof: &Proof,
    extra_atoms: &[MemAtom],
    extra_formulas: &[Shared<Formula>],
    extra_vars: &std::collections::BTreeSet<Name>,
    gen: &mut NameGen,
) -> Result<Proof, ProofError> {
    // rename clashing eigenvariables before touching this node
    let mut proof = proof.clone();
    loop {
        let clashing = match &proof.rule {
            Rule::Forall { witness, .. } if extra_vars.contains(witness) => Some(*witness),
            Rule::ProdEta { fst, snd, .. } => {
                if extra_vars.contains(fst) {
                    Some(*fst)
                } else if extra_vars.contains(snd) {
                    Some(*snd)
                } else {
                    None
                }
            }
            _ => None,
        };
        match clashing {
            Some(old) => {
                let fresh = gen.fresh(old.as_str());
                // the eigenvariable is free in the sub-proofs, bound "at" this node:
                // rename it in the premises and in the rule payload only.
                let premises = proof
                    .premises
                    .iter()
                    .map(|p| rename_unchecked(p, &old, &fresh))
                    .collect::<Result<Vec<_>, _>>()?;
                let rule = match &proof.rule {
                    Rule::Forall { quant, .. } => Rule::Forall {
                        quant: quant.clone(),
                        witness: fresh,
                    },
                    Rule::ProdEta { var, fst, snd } => Rule::ProdEta {
                        var: *var,
                        fst: if *fst == old { fresh } else { *fst },
                        snd: if *snd == old { fresh } else { *snd },
                    },
                    other => other.clone(),
                };
                proof = Proof::by(proof.conclusion.clone(), rule, premises)?;
            }
            None => break,
        }
    }

    let mut conclusion = proof.conclusion.clone();
    for a in extra_atoms {
        conclusion = conclusion.with_atom(a.clone());
    }
    for f in extra_formulas {
        conclusion = conclusion.with_formula(f.clone());
    }
    let premises = proof
        .premises
        .iter()
        .map(|p| weaken_rec(p, extra_atoms, extra_formulas, extra_vars, gen))
        .collect::<Result<Vec<_>, _>>()?;
    Proof::by(conclusion, proof.rule.clone(), premises)
}

/// Invertibility of ∧ (Lemma 13): from a proof of `Θ ⊢ φ1 ∧ φ2, Δ` obtain a
/// proof of `Θ ⊢ φ_i, Δ`.
pub fn invert_and(proof: &Proof, conj: &Formula, keep_first: bool) -> Result<Proof, ProofError> {
    let (a, b) = match conj {
        Formula::And(a, b) => (a.clone(), b.clone()),
        other => {
            return Err(ProofError::TransformFailed(format!(
                "invert_and: {other} is not a conjunction"
            )))
        }
    };
    let selected = if keep_first { a } else { b };
    invert_and_rec(proof, conj, &selected, keep_first)
}

fn invert_and_rec(
    proof: &Proof,
    conj: &Formula,
    selected: &Shared<Formula>,
    keep_first: bool,
) -> Result<Proof, ProofError> {
    if !proof.conclusion.contains(conj) {
        return Ok(proof.clone());
    }
    if let Rule::And { conj: principal } = &proof.rule {
        if principal.value() == conj {
            let idx = if keep_first { 0 } else { 1 };
            return Ok(proof.premises[idx].clone());
        }
    }
    let conclusion = proof
        .conclusion
        .without_formula(conj)
        .with_formula(selected.clone());
    let premises = proof
        .premises
        .iter()
        .map(|p| invert_and_rec(p, conj, selected, keep_first))
        .collect::<Result<Vec<_>, _>>()?;
    Proof::by(conclusion, proof.rule.clone(), premises)
}

/// Invertibility of ∀ (Lemma 14): from a proof of `Θ ⊢ ∀x ∈ t . φ, Δ` obtain a
/// proof of `Θ, y ∈ t ⊢ φ[y/x], Δ` for a caller-chosen fresh `y`.
pub fn invert_forall(proof: &Proof, quant: &Formula, fresh: &Name) -> Result<Proof, ProofError> {
    let (var, bound, body) = match quant {
        Formula::Forall { var, bound, body } => (var, bound, body),
        other => {
            return Err(ProofError::TransformFailed(format!(
                "invert_forall: {other} is not a universal formula"
            )))
        }
    };
    for node in proof.nodes() {
        if node.conclusion.free_vars().contains(fresh) {
            return Err(ProofError::TransformFailed(format!(
                "invert_forall: target variable {fresh} is not fresh for the proof"
            )));
        }
    }
    let instantiated = Shared::new(body.subst_var(var, &Term::Var(*fresh)));
    let atom = MemAtom::new(Term::Var(*fresh), bound.clone());
    invert_forall_rec(proof, quant, &instantiated, &atom, fresh)
}

fn invert_forall_rec(
    proof: &Proof,
    quant: &Formula,
    instantiated: &Shared<Formula>,
    atom: &MemAtom,
    fresh: &Name,
) -> Result<Proof, ProofError> {
    if !proof.conclusion.contains(quant) {
        return Ok(proof.clone());
    }
    if let Rule::Forall {
        quant: principal,
        witness,
    } = &proof.rule
    {
        if principal.value() == quant {
            // the sub-proof proves the premise with eigenvariable `witness`;
            // rename it to the requested fresh variable
            return rename_free_var(&proof.premises[0], witness, fresh);
        }
    }
    let conclusion = proof
        .conclusion
        .without_formula(quant)
        .with_formula(instantiated.clone())
        .with_atom(atom.clone());
    let premises = proof
        .premises
        .iter()
        .map(|p| invert_forall_rec(p, quant, instantiated, atom, fresh))
        .collect::<Result<Vec<_>, _>>()?;
    Proof::by(conclusion, proof.rule.clone(), premises)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_proof;
    use crate::sequent::Sequent;

    /// Build a small proof of  ⊢ (x = x ∧ ⊤), a = b ∨ b ≠ b.
    fn sample_proof() -> Proof {
        let conj = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let disj = Formula::or(Formula::eq_ur("a", "b"), Formula::neq_ur("b", "b"));
        let root = Sequent::goals([conj.clone(), disj.clone()]);
        let and_rule = Rule::And { conj: conj.into() };
        let prems = and_rule.premises(&root).unwrap();
        let p1 = Proof::eq_refl(prems[0].clone(), Term::var("x")).unwrap();
        let p2 = Proof::top(prems[1].clone()).unwrap();
        Proof::by(root, and_rule, vec![p1, p2]).unwrap()
    }

    /// Build a proof of  ⊢ ∀z ∈ S . z = z, extra
    fn forall_proof(extra: Formula) -> (Proof, Formula) {
        let quant = Formula::forall("z", "S", Formula::eq_ur("z", "z"));
        let root = Sequent::goals([quant.clone(), extra]);
        let rule = Rule::Forall {
            quant: quant.clone().into(),
            witness: Name::new("w#0"),
        };
        let prem = rule.premises(&root).unwrap().remove(0);
        let leaf = Proof::eq_refl(prem, Term::var("w#0")).unwrap();
        (Proof::by(root, rule, vec![leaf]).unwrap(), quant)
    }

    #[test]
    fn rename_preserves_validity() {
        let p = sample_proof();
        let renamed = rename_free_var(&p, &Name::new("x"), &Name::new("q")).unwrap();
        assert!(check_proof(&renamed).is_ok());
        assert!(renamed
            .conclusion
            .contains(&Formula::and(Formula::eq_ur("q", "q"), Formula::True)));
        // renaming onto an existing name is rejected
        assert!(rename_free_var(&p, &Name::new("x"), &Name::new("a")).is_err());
    }

    #[test]
    fn weakening_adds_material_everywhere() {
        let p = sample_proof();
        let mut gen = NameGen::new();
        let atom = MemAtom::new("m", "S");
        let extra = Formula::eq_ur("u", "v");
        let weakened = weaken(
            &p,
            std::slice::from_ref(&atom),
            std::slice::from_ref(&extra),
            &mut gen,
        )
        .unwrap();
        assert!(check_proof(&weakened).is_ok());
        for node in weakened.nodes() {
            assert!(node.conclusion.ctx.contains(&atom));
            assert!(node.conclusion.contains(&extra));
        }
        // AL extras are rejected
        let al = Formula::forall("y", "S", Formula::True);
        assert!(weaken(&p, &[], &[al], &mut gen).is_err());
    }

    #[test]
    fn weakening_renames_clashing_eigenvariables() {
        let (p, _) = forall_proof(Formula::eq_ur("a", "b"));
        let mut gen = NameGen::new();
        // weaken by a formula mentioning the eigenvariable w#0
        let extra = Formula::eq_ur("w#0", "w#0");
        let weakened = weaken(&p, &[], std::slice::from_ref(&extra), &mut gen).unwrap();
        assert!(check_proof(&weakened).is_ok());
        assert!(weakened.conclusion.contains(&extra));
    }

    #[test]
    fn and_inversion_extracts_each_conjunct() {
        let p = sample_proof();
        let conj = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let left = invert_and(&p, &conj, true).unwrap();
        assert!(check_proof(&left).is_ok());
        assert!(left.conclusion.contains(&Formula::eq_ur("x", "x")));
        assert!(!left.conclusion.contains(&conj));
        let right = invert_and(&p, &conj, false).unwrap();
        assert!(check_proof(&right).is_ok());
        assert!(right.conclusion.contains(&Formula::True));
        // inverting a non-conjunction fails
        assert!(invert_and(&p, &Formula::True, true).is_err());
    }

    #[test]
    fn and_inversion_works_below_other_rules() {
        // wrap the sample proof's conclusion under a ∨ decomposition:
        // root: ⊢ (x=x ∧ ⊤) ∨ (x=x ∧ ⊤)   — both disjuncts identical, so the
        // premise is the sample sequent and inversion must pass through ∨.
        let conj = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let disj = Formula::or(Formula::eq_ur("a", "b"), Formula::neq_ur("b", "b"));
        // root: ⊢ conj, disj is sample; build: ⊢ conj ∨ conj ... simpler: use ∨ on disj
        let root = Sequent::goals([conj.clone(), disj.clone()]);
        let or_rule = Rule::Or {
            disj: disj.clone().into(),
        };
        let prem = or_rule.premises(&root).unwrap().remove(0);
        // prove the premise: it contains conj, a=b, b≠b ; use ∧ rule then axioms
        let and_rule = Rule::And {
            conj: conj.clone().into(),
        };
        let prems = and_rule.premises(&prem).unwrap();
        let p1 = Proof::eq_refl(prems[0].clone(), Term::var("x")).unwrap();
        let p2 = Proof::top(prems[1].clone()).unwrap();
        let inner = Proof::by(prem, and_rule, vec![p1, p2]).unwrap();
        let whole = Proof::by(root, or_rule, vec![inner]).unwrap();
        assert!(check_proof(&whole).is_ok());
        let inverted = invert_and(&whole, &conj, true).unwrap();
        assert!(check_proof(&inverted).is_ok());
        assert!(inverted.conclusion.contains(&Formula::eq_ur("x", "x")));
        assert!(inverted.conclusion.contains(&disj));
    }

    #[test]
    fn forall_inversion_instantiates_the_quantifier() {
        let (p, quant) = forall_proof(Formula::eq_ur("a", "b"));
        let inverted = invert_forall(&p, &quant, &Name::new("fresh#9")).unwrap();
        assert!(check_proof(&inverted).is_ok());
        assert!(inverted
            .conclusion
            .ctx
            .contains(&MemAtom::new("fresh#9", "S")));
        assert!(inverted
            .conclusion
            .contains(&Formula::eq_ur("fresh#9", "fresh#9")));
        assert!(!inverted.conclusion.contains(&quant));
        // requesting a non-fresh variable fails
        assert!(invert_forall(&p, &quant, &Name::new("a")).is_err());
        // inverting a non-universal fails
        assert!(invert_forall(&p, &Formula::True, &Name::new("zz")).is_err());
    }

    #[test]
    fn forall_inversion_passes_through_passive_nodes() {
        // root: ⊢ ∀z∈S. z=z, (a=a ∧ ⊤); prove by ∧ first, then ∀ in each branch.
        let quant = Formula::forall("z", "S", Formula::eq_ur("z", "z"));
        let conj = Formula::and(Formula::eq_ur("a", "a"), Formula::True);
        let root = Sequent::goals([quant.clone(), conj.clone()]);
        let and_rule = Rule::And {
            conj: conj.clone().into(),
        };
        let prems = and_rule.premises(&root).unwrap();
        // left branch: close by a = a axiom (∀ stays passive)
        let left = Proof::eq_refl(prems[0].clone(), Term::var("a")).unwrap();
        // right branch: close by ⊤
        let right = Proof::top(prems[1].clone()).unwrap();
        let whole = Proof::by(root, and_rule, vec![left, right]).unwrap();
        let inverted = invert_forall(&whole, &quant, &Name::new("y#7")).unwrap();
        assert!(check_proof(&inverted).is_ok());
        assert!(inverted.conclusion.ctx.contains(&MemAtom::new("y#7", "S")));
        assert!(!inverted.conclusion.contains(&quant));
        // the instantiated body is present even though the ∀ was never principal
        assert!(inverted.conclusion.contains(&Formula::eq_ur("y#7", "y#7")));
    }

    #[test]
    fn sample_proofs_check() {
        assert!(check_proof(&sample_proof()).is_ok());
        let (p, _) = forall_proof(Formula::True);
        assert!(check_proof(&p).is_ok());
    }
}
