//! Proof objects for the focused calculus (paper Figure 3).
//!
//! A [`Proof`] is a tree of rule applications.  Each [`Rule`] knows how to
//! compute the premises it requires from a given conclusion, which is used
//! both by the checker ([`crate::check`]) and by the proof search engine in
//! `nrs-prover` (which explores rule applications by enumerating candidate
//! rules and recursing on the computed premises).

use crate::check::ProofError;
use crate::sequent::Sequent;
use nrs_delta0::specialize::is_specialization;
use nrs_delta0::{Formula, Shared, Term};
use nrs_value::Name;
use std::fmt;

/// A rule application of the focused calculus.
///
/// Each variant stores the data identifying the application (principal
/// formula, witnesses, eigenvariables) so that proof-consuming algorithms can
/// pattern-match on it without re-deriving the information.  Formula payloads
/// are interned handles ([`Shared<Formula>`], 8 bytes each): the prover keeps
/// thousands of candidate rules and proof nodes over the same hundred or so
/// formulas, and a handle both points at the node every sequent already
/// holds and goes into a premise without being interned again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// `=` axiom: the conclusion contains `t =𝔘 t`.
    EqRefl {
        /// The reflexive term.
        term: Term,
    },
    /// `⊤` axiom: the conclusion contains `⊤`.
    Top,
    /// `≠` congruence rule: from `t ≠ u` and an atomic formula containing `t`,
    /// the premise may additionally use the formula with some occurrences of
    /// `t` replaced by `u`.
    Neq {
        /// The inequality `t ≠𝔘 u` (must occur in the conclusion).
        ineq: Shared<Formula>,
        /// The atomic formula `α[t/x]` occurring in the conclusion.
        atom: Shared<Formula>,
        /// The rewritten atomic formula `α[u/x]` added to the premise.
        rewritten: Shared<Formula>,
    },
    /// `∧` rule on a right-hand-side conjunction.
    And {
        /// The principal conjunction.
        conj: Shared<Formula>,
    },
    /// `∨` rule on a right-hand-side disjunction.
    Or {
        /// The principal disjunction.
        disj: Shared<Formula>,
    },
    /// `∀` rule: introduce a fresh eigenvariable that is a member of the bound.
    Forall {
        /// The principal universal formula.
        quant: Shared<Formula>,
        /// The fresh eigenvariable.
        witness: Name,
    },
    /// `∃` rule: add a maximal specialization of the principal existential
    /// with respect to the ∈-context (the existential itself is kept).
    Exists {
        /// The principal existential formula.
        quant: Shared<Formula>,
        /// The added maximal specialization.
        spec: Shared<Formula>,
    },
    /// `×η` rule: replace a pair-typed variable by an explicit pair of fresh
    /// variables throughout the sequent.
    ProdEta {
        /// The variable being expanded.
        var: Name,
        /// Fresh variable for the first component.
        fst: Name,
        /// Fresh variable for the second component.
        snd: Name,
    },
    /// `×β` rule: contract a redex `π_i(⟨x1, x2⟩)` to `x_i` throughout the
    /// sequent (the conclusion is the un-contracted form).
    ProdBeta {
        /// First component variable of the explicit pair.
        fst: Name,
        /// Second component variable of the explicit pair.
        snd: Name,
        /// Which projection the redex uses.
        first: bool,
    },
}

impl Rule {
    /// Human-readable rule name (used in displays and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::EqRefl { .. } => "=",
            Rule::Top => "⊤",
            Rule::Neq { .. } => "≠",
            Rule::And { .. } => "∧",
            Rule::Or { .. } => "∨",
            Rule::Forall { .. } => "∀",
            Rule::Exists { .. } => "∃",
            Rule::ProdEta { .. } => "×η",
            Rule::ProdBeta { .. } => "×β",
        }
    }

    /// Compute the premises this rule requires when applied to `conclusion`,
    /// or explain why it does not apply.
    pub fn premises(&self, conclusion: &Sequent) -> Result<Vec<Sequent>, ProofError> {
        match self {
            Rule::EqRefl { term } => {
                let ax = Formula::EqUr(term.clone(), term.clone());
                if conclusion.contains(&ax) {
                    Ok(vec![])
                } else {
                    Err(ProofError::RuleNotApplicable(format!(
                        "= axiom: conclusion does not contain {ax}"
                    )))
                }
            }
            Rule::Top => {
                if conclusion.contains(&Formula::True) {
                    Ok(vec![])
                } else {
                    Err(ProofError::RuleNotApplicable(
                        "⊤ axiom: conclusion does not contain ⊤".into(),
                    ))
                }
            }
            Rule::Neq {
                ineq,
                atom,
                rewritten,
            } => {
                let (t, u) = match ineq.value() {
                    Formula::NeqUr(t, u) => (t, u),
                    other => {
                        return Err(ProofError::RuleNotApplicable(format!(
                            "≠ rule: {other} is not an inequality"
                        )))
                    }
                };
                if !conclusion.contains(ineq) {
                    return Err(ProofError::RuleNotApplicable(format!(
                        "≠ rule: conclusion does not contain {ineq}"
                    )));
                }
                if !conclusion.contains(atom) {
                    return Err(ProofError::RuleNotApplicable(format!(
                        "≠ rule: conclusion does not contain {atom}"
                    )));
                }
                if !atom.is_literal() || !rewritten.is_literal() {
                    return Err(ProofError::RuleNotApplicable(
                        "≠ rule: principal formulas must be literals".into(),
                    ));
                }
                if !conclusion.rhs_all_el() {
                    return Err(ProofError::RuleNotApplicable(
                        "≠ rule: right-hand side must be existential-leading".into(),
                    ));
                }
                if !is_partial_replacement(atom, rewritten, t, u) {
                    return Err(ProofError::RuleNotApplicable(format!(
                        "≠ rule: {rewritten} is not {atom} with occurrences of {t} replaced by {u}"
                    )));
                }
                Ok(vec![conclusion.with_formula(rewritten.clone())])
            }
            Rule::And { conj } => match conj.value() {
                Formula::And(a, b) if conclusion.contains(conj) => {
                    let base = conclusion.without_formula(conj);
                    Ok(vec![
                        base.with_formula(a.clone()),
                        base.with_formula(b.clone()),
                    ])
                }
                _ => Err(ProofError::RuleNotApplicable(format!(
                    "∧ rule: {conj} is not a conjunction in the conclusion"
                ))),
            },
            Rule::Or { disj } => match disj.value() {
                Formula::Or(a, b) if conclusion.contains(disj) => {
                    let base = conclusion.without_formula(disj);
                    Ok(vec![base.with_formulas([a.clone(), b.clone()])])
                }
                _ => Err(ProofError::RuleNotApplicable(format!(
                    "∨ rule: {disj} is not a disjunction in the conclusion"
                ))),
            },
            Rule::Forall { quant, witness } => match quant.value() {
                Formula::Forall { var, bound, body } if conclusion.contains(quant) => {
                    if conclusion.free_vars().contains(witness) {
                        return Err(ProofError::RuleNotApplicable(format!(
                            "∀ rule: eigenvariable {witness} is not fresh"
                        )));
                    }
                    let instantiated = body.subst_var(var, &Term::Var(*witness));
                    Ok(vec![conclusion
                        .without_formula(quant)
                        .with_formula(instantiated)
                        .with_atom(nrs_delta0::MemAtom::new(
                            Term::Var(*witness),
                            bound.clone(),
                        ))])
                }
                _ => Err(ProofError::RuleNotApplicable(format!(
                    "∀ rule: {quant} is not a universal formula in the conclusion"
                ))),
            },
            Rule::Exists { quant, spec } => {
                if !matches!(quant.value(), Formula::Exists { .. }) || !conclusion.contains(quant) {
                    return Err(ProofError::RuleNotApplicable(format!(
                        "∃ rule: {quant} is not an existential formula in the conclusion"
                    )));
                }
                if !conclusion.rhs_all_el() {
                    return Err(ProofError::RuleNotApplicable(
                        "∃ rule: right-hand side must be existential-leading".into(),
                    ));
                }
                // The generalized ∃ rule (Lemma 15) is admissible in the focused
                // calculus, so the checker accepts any (not necessarily maximal)
                // specialization; the prover still prefers maximal ones.
                if !is_specialization(quant, &conclusion.ctx, spec) {
                    return Err(ProofError::RuleNotApplicable(format!(
                        "∃ rule: {spec} is not a specialization of {quant} w.r.t. the ∈-context"
                    )));
                }
                Ok(vec![conclusion.with_formula(spec.clone())])
            }
            Rule::ProdEta { var, fst, snd } => {
                if !conclusion.rhs_all_el() {
                    return Err(ProofError::RuleNotApplicable(
                        "×η rule: right-hand side must be existential-leading".into(),
                    ));
                }
                let fv = conclusion.free_vars();
                if fv.contains(fst) || fv.contains(snd) {
                    return Err(ProofError::RuleNotApplicable(
                        "×η rule: replacement variables must be fresh".into(),
                    ));
                }
                let pair = Term::pair(Term::Var(*fst), Term::Var(*snd));
                Ok(vec![conclusion.subst_var(var, &pair)])
            }
            Rule::ProdBeta { fst, snd, first } => {
                if !conclusion.rhs_all_el() {
                    return Err(ProofError::RuleNotApplicable(
                        "×β rule: right-hand side must be existential-leading".into(),
                    ));
                }
                let pair = Term::pair(Term::Var(*fst), Term::Var(*snd));
                let redex = if *first {
                    Term::proj1(pair)
                } else {
                    Term::proj2(pair)
                };
                let reduct = Term::Var(if *first { *fst } else { *snd });
                Ok(vec![conclusion.replace_term(&redex, &reduct)])
            }
        }
    }

    /// Compute the premises **without** re-validating applicability.  This is
    /// the proof-search fast path: the prover only applies rules whose side
    /// conditions it has already established (candidates are generated from
    /// the conclusion's own slices, and re-checked via `still_applicable`),
    /// so the containment / partial-replacement / phase checks of
    /// [`Rule::premises`] would each be recomputed per visited state for no
    /// information.  Callers **must** guarantee the rule applies; the final
    /// proof object is still independently validated (by [`check_proof`],
    /// and by [`Proof::by`] unless assembled through
    /// [`Proof::by_unchecked`]).  Debug builds assert agreement with the
    /// checked computation.
    ///
    /// [`check_proof`]: crate::check_proof
    pub fn premises_unchecked(&self, conclusion: &Sequent) -> Vec<Sequent> {
        let out = match self {
            Rule::EqRefl { .. } | Rule::Top => vec![],
            Rule::Neq { rewritten, .. } => vec![conclusion.with_formula(rewritten.clone())],
            // Each premise edits an owned copy in place: chaining the
            // copying `with_*` builders would copy the side once per step.
            // The payloads and the components of ∧ and ∨ are interned
            // handles already and go in as they are; a ∀ instantiation is
            // interned once, here.
            Rule::And { conj } => match conj.value() {
                Formula::And(a, b) => {
                    let mut second = conclusion.without_formula(conj);
                    let first = second.with_formula(a.clone());
                    second.insert(b.clone());
                    vec![first, second]
                }
                _ => unreachable!("∧ rule with a non-conjunction principal"),
            },
            Rule::Or { disj } => match disj.value() {
                Formula::Or(a, b) => {
                    let mut premise = conclusion.without_formula(disj);
                    premise.insert(a.clone());
                    premise.insert(b.clone());
                    vec![premise]
                }
                _ => unreachable!("∨ rule with a non-disjunction principal"),
            },
            Rule::Forall { quant, witness } => match quant.value() {
                Formula::Forall { var, bound, body } => {
                    let mut premise = conclusion.without_formula(quant);
                    premise.insert(body.subst_var(var, &Term::Var(*witness)));
                    vec![premise
                        .with_atom(nrs_delta0::MemAtom::new(Term::Var(*witness), bound.clone()))]
                }
                _ => unreachable!("∀ rule with a non-universal principal"),
            },
            Rule::Exists { spec, .. } => vec![conclusion.with_formula(spec.clone())],
            // the product rules are applied by proof *transformations*, not
            // by the search loop — no fast path needed
            Rule::ProdEta { .. } | Rule::ProdBeta { .. } => self
                .premises(conclusion)
                .expect("caller guarantees applicability"),
        };
        debug_assert_eq!(
            Some(&out),
            self.premises(conclusion).ok().as_ref(),
            "premises_unchecked caller broke the applicability contract for {}",
            self.name()
        );
        out
    }
}

/// Is `result` obtainable from `orig` by replacing *some* occurrences of `t`
/// by `u`?  (The partial-replacement check of the ≠ rule.)
pub fn is_partial_replacement(orig: &Formula, result: &Formula, t: &Term, u: &Term) -> bool {
    fn terms_of(f: &Formula) -> Option<(&Term, &Term, u8)> {
        match f {
            Formula::EqUr(a, b) => Some((a, b, 0)),
            Formula::NeqUr(a, b) => Some((a, b, 1)),
            Formula::Mem(a, b) => Some((a, b, 2)),
            Formula::NotMem(a, b) => Some((a, b, 3)),
            _ => None,
        }
    }
    let (Some((a1, b1, k1)), Some((a2, b2, k2))) = (terms_of(orig), terms_of(result)) else {
        return false;
    };
    k1 == k2 && term_partial_replacement(a1, a2, t, u) && term_partial_replacement(b1, b2, t, u)
}

fn term_partial_replacement(orig: &Term, result: &Term, t: &Term, u: &Term) -> bool {
    if orig == result {
        return true;
    }
    if orig == t && result == u {
        return true;
    }
    match (orig, result) {
        (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
            term_partial_replacement(a1, a2, t, u) && term_partial_replacement(b1, b2, t, u)
        }
        (Term::Proj1(a1), Term::Proj1(a2)) | (Term::Proj2(a1), Term::Proj2(a2)) => {
            term_partial_replacement(a1, a2, t, u)
        }
        _ => false,
    }
}

/// A proof tree in the focused calculus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    /// The conclusion sequent.
    pub conclusion: Sequent,
    /// The rule applied at the root.
    pub rule: Rule,
    /// The sub-proofs of the premises, in rule order.
    pub premises: Vec<Proof>,
}

impl Proof {
    /// Build a proof node, checking that the rule applies to the conclusion
    /// and that the supplied sub-proofs prove exactly the required premises.
    pub fn by(conclusion: Sequent, rule: Rule, premises: Vec<Proof>) -> Result<Proof, ProofError> {
        let expected = rule.premises(&conclusion)?;
        if expected.len() != premises.len() {
            return Err(ProofError::PremiseCount {
                rule: rule.name(),
                expected: expected.len(),
                found: premises.len(),
            });
        }
        for (want, have) in expected.iter().zip(premises.iter()) {
            if want != &have.conclusion {
                return Err(ProofError::PremiseMismatch {
                    rule: rule.name(),
                    expected: Box::new(want.clone()),
                    found: Box::new(have.conclusion.clone()),
                });
            }
        }
        Ok(Proof {
            conclusion,
            rule,
            premises,
        })
    }

    /// Build a proof node **without** re-validating the rule application —
    /// the proof-search counterpart of [`Rule::premises_unchecked`].  The
    /// search constructs each premise with `premises_unchecked` and proves
    /// exactly those sequents, so re-deriving the expected premises at every
    /// assembled node (what [`Proof::by`] does) only repeats work; external
    /// consumers still validate the finished tree with [`check_proof`].
    /// Debug builds assert the node would also pass the checked constructor.
    ///
    /// [`check_proof`]: crate::check_proof
    pub fn by_unchecked(conclusion: Sequent, rule: Rule, premises: Vec<Proof>) -> Proof {
        debug_assert!(
            {
                let expected = rule.premises(&conclusion);
                matches!(
                    &expected,
                    Ok(want) if want.len() == premises.len()
                        && want.iter().zip(&premises).all(|(w, h)| w == &h.conclusion)
                )
            },
            "by_unchecked caller broke the applicability contract for {}",
            rule.name()
        );
        Proof {
            conclusion,
            rule,
            premises,
        }
    }

    /// Axiom node for `t = t`.
    pub fn eq_refl(conclusion: Sequent, term: Term) -> Result<Proof, ProofError> {
        Proof::by(conclusion, Rule::EqRefl { term }, vec![])
    }

    /// Axiom node for `⊤`.
    pub fn top(conclusion: Sequent) -> Result<Proof, ProofError> {
        Proof::by(conclusion, Rule::Top, vec![])
    }

    /// Number of nodes in the proof.
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(Proof::size).sum::<usize>()
    }

    /// Height of the proof tree.
    pub fn depth(&self) -> usize {
        1 + self.premises.iter().map(Proof::depth).max().unwrap_or(0)
    }

    /// Iterate over all nodes (pre-order).
    pub fn nodes(&self) -> Vec<&Proof> {
        let mut out = vec![self];
        for p in &self.premises {
            out.extend(p.nodes());
        }
        out
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Proof, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(
                f,
                "{:indent$}[{}] {}",
                "",
                p.rule.name(),
                p.conclusion,
                indent = indent
            )?;
            for q in &p.premises {
                go(q, indent + 2, f)?;
            }
            Ok(())
        }
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::{InContext, MemAtom};

    #[test]
    fn axioms_apply_only_when_present() {
        let s = Sequent::goals([Formula::eq_ur("x", "x"), Formula::eq_ur("a", "b")]);
        assert!(Proof::eq_refl(s.clone(), Term::var("x")).is_ok());
        assert!(Proof::eq_refl(s.clone(), Term::var("a")).is_err());
        assert!(Proof::top(s).is_err());
        let t = Sequent::goals([Formula::True]);
        assert!(Proof::top(t).is_ok());
    }

    #[test]
    fn and_rule_produces_two_premises() {
        let conj = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let s = Sequent::goals([conj.clone(), Formula::eq_ur("a", "b")]);
        let rule = Rule::And {
            conj: conj.clone().into(),
        };
        let prems = rule.premises(&s).unwrap();
        assert_eq!(prems.len(), 2);
        assert!(prems[0].contains(&Formula::eq_ur("x", "x")));
        assert!(!prems[0].contains(&conj));
        assert!(prems[1].contains(&Formula::True));
        // full proof
        let p1 = Proof::eq_refl(prems[0].clone(), Term::var("x")).unwrap();
        let p2 = Proof::top(prems[1].clone()).unwrap();
        let proof = Proof::by(s, rule, vec![p1, p2]).unwrap();
        assert_eq!(proof.size(), 3);
        assert_eq!(proof.depth(), 2);
        assert_eq!(proof.nodes().len(), 3);
    }

    #[test]
    fn or_and_forall_rules() {
        let disj = Formula::or(Formula::eq_ur("x", "x"), Formula::False);
        let s = Sequent::goals([disj.clone()]);
        let prems = Rule::Or {
            disj: disj.clone().into(),
        }
        .premises(&s)
        .unwrap();
        assert_eq!(prems.len(), 1);
        assert!(prems[0].contains(&Formula::eq_ur("x", "x")));
        assert!(prems[0].contains(&Formula::False));

        let all = Formula::forall("z", "S", Formula::eq_ur("z", "z"));
        let s2 = Sequent::goals([all.clone()]);
        let rule = Rule::Forall {
            quant: all.clone().into(),
            witness: Name::new("w0"),
        };
        let prems = rule.premises(&s2).unwrap();
        assert!(prems[0].ctx.contains(&MemAtom::new("w0", "S")));
        assert!(prems[0].contains(&Formula::eq_ur("w0", "w0")));
        // non-fresh eigenvariable rejected
        let bad = Rule::Forall {
            quant: all.into(),
            witness: Name::new("S"),
        };
        assert!(bad.premises(&s2).is_err());
    }

    #[test]
    fn exists_rule_requires_el_and_max_spec() {
        let ex = Formula::exists("z", "S", Formula::eq_ur("z", "c"));
        let ctx = InContext::from_atoms([MemAtom::new("m", "S")]);
        let s = Sequent::new(ctx, [ex.clone(), Formula::eq_ur("a", "b")]);
        let good = Rule::Exists {
            quant: ex.clone().into(),
            spec: Formula::eq_ur("m", "c").into(),
        };
        let prems = good.premises(&s).unwrap();
        assert!(prems[0].contains(&Formula::eq_ur("m", "c")));
        assert!(prems[0].contains(&ex), "the existential is retained");
        // a non-specialization is rejected
        let bad = Rule::Exists {
            quant: ex.clone().into(),
            spec: Formula::eq_ur("q", "c").into(),
        };
        assert!(bad.premises(&s).is_err());
        // an AL formula in the context blocks the rule
        let s_with_al = s.with_formula(Formula::forall("y", "S", Formula::True));
        assert!(good.premises(&s_with_al).is_err());
    }

    #[test]
    fn neq_rule_rewrites_atoms() {
        // from x ≠ y and goal atom x = z we may add y = z
        let s = Sequent::goals([Formula::neq_ur("x", "y"), Formula::eq_ur("x", "z")]);
        let rule = Rule::Neq {
            ineq: Formula::neq_ur("x", "y").into(),
            atom: Formula::eq_ur("x", "z").into(),
            rewritten: Formula::eq_ur("y", "z").into(),
        };
        let prems = rule.premises(&s).unwrap();
        assert!(prems[0].contains(&Formula::eq_ur("y", "z")));
        // a bogus rewrite is rejected
        let bad = Rule::Neq {
            ineq: Formula::neq_ur("x", "y").into(),
            atom: Formula::eq_ur("x", "z").into(),
            rewritten: Formula::eq_ur("y", "w").into(),
        };
        assert!(bad.premises(&s).is_err());
        // replacement may touch only some occurrences
        let s2 = Sequent::goals([Formula::neq_ur("x", "y"), Formula::eq_ur("x", "x")]);
        let partial = Rule::Neq {
            ineq: Formula::neq_ur("x", "y").into(),
            atom: Formula::eq_ur("x", "x").into(),
            rewritten: Formula::eq_ur("x", "y").into(),
        };
        assert!(partial.premises(&s2).is_ok());
    }

    #[test]
    fn prod_rules_substitute_terms() {
        let goal = Formula::exists("z", Term::proj2(Term::var("p")), Formula::eq_ur("z", "z"));
        let s = Sequent::goals([goal.clone()]);
        let eta = Rule::ProdEta {
            var: Name::new("p"),
            fst: Name::new("p1"),
            snd: Name::new("p2"),
        };
        let prems = eta.premises(&s).unwrap();
        let expected_bound = Term::proj2(Term::pair(Term::var("p1"), Term::var("p2")));
        assert!(prems[0].contains(&Formula::exists(
            "z",
            expected_bound.clone(),
            Formula::eq_ur("z", "z")
        )));
        // now contract the redex with ×β
        let beta = Rule::ProdBeta {
            fst: Name::new("p1"),
            snd: Name::new("p2"),
            first: false,
        };
        let prems2 = beta.premises(&prems[0]).unwrap();
        assert!(prems2[0].contains(&Formula::exists(
            "z",
            Term::var("p2"),
            Formula::eq_ur("z", "z")
        )));
        // freshness is enforced for ×η
        let stale = Rule::ProdEta {
            var: Name::new("p"),
            fst: Name::new("p"),
            snd: Name::new("q"),
        };
        assert!(stale.premises(&s).is_err());
    }

    #[test]
    fn rules_and_proof_nodes_are_a_few_words() {
        // formula payloads are 8-byte handles and contexts interned
        // handles: a rule held up to three 56-byte formulas (168 bytes on a
        // 64-bit target), a proof node 240 bytes
        let word = std::mem::size_of::<usize>();
        assert!(std::mem::size_of::<Rule>() <= 4 * word);
        assert!(std::mem::size_of::<Proof>() <= 12 * word);
    }

    #[test]
    fn premise_mismatch_is_detected() {
        let conj = Formula::and(Formula::True, Formula::True);
        let s = Sequent::goals([conj.clone()]);
        let rule = Rule::And { conj: conj.into() };
        let wrong = Proof::top(Sequent::goals([Formula::True, Formula::eq_ur("x", "x")])).unwrap();
        let right = Proof::top(Sequent::goals([Formula::True])).unwrap();
        assert!(matches!(
            Proof::by(s.clone(), rule.clone(), vec![wrong, right.clone()]),
            Err(ProofError::PremiseMismatch { .. })
        ));
        assert!(matches!(
            Proof::by(s, rule, vec![right]),
            Err(ProofError::PremiseCount { .. })
        ));
    }
}
