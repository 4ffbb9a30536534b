//! The proof checker and proof-level errors.

use crate::proof::Proof;
use crate::sequent::Sequent;
use std::fmt;

/// Errors raised when constructing, checking or transforming proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A rule was applied to a conclusion it does not match.
    RuleNotApplicable(String),
    /// A rule application had the wrong number of sub-proofs.
    PremiseCount {
        /// Rule name.
        rule: &'static str,
        /// Number of premises the rule requires.
        expected: usize,
        /// Number of sub-proofs supplied.
        found: usize,
    },
    /// A sub-proof proves a different sequent than the rule requires.
    PremiseMismatch {
        /// Rule name.
        rule: &'static str,
        /// The premise the rule requires.
        expected: Box<Sequent>,
        /// The conclusion of the supplied sub-proof.
        found: Box<Sequent>,
    },
    /// A transformation could not be applied to a proof of this shape.
    TransformFailed(String),
    /// Proof search gave up for a reason other than its budgets (no rule
    /// applies, a worker died, a batch was short-circuited, …).
    SearchFailed(String),
    /// Proof search exhausted its state/risky budgets without settling the
    /// goal.  Distinct from [`ProofError::Timeout`]: this verdict is stable
    /// for a given configuration (the same budgets will fail the same way)
    /// and is therefore safe to remember per session.
    BudgetExhausted(String),
    /// Proof search hit its wall-clock deadline.  Transient by nature — a
    /// retry (or a longer deadline) may succeed — so sessions never cache
    /// this verdict.
    Timeout {
        /// Milliseconds elapsed when the deadline fired.
        elapsed_ms: u64,
        /// Search states visited before giving up.
        visited: usize,
    },
    /// Proof search was cancelled cooperatively (the session's cancellation
    /// token was set).  Never cached.
    Cancelled,
}

impl ProofError {
    /// Is this a wall-clock timeout (as opposed to a budget exhaustion or a
    /// genuine search failure)?
    pub fn is_timeout(&self) -> bool {
        matches!(self, ProofError::Timeout { .. })
    }
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::RuleNotApplicable(m) => write!(f, "rule not applicable: {m}"),
            ProofError::PremiseCount {
                rule,
                expected,
                found,
            } => {
                write!(f, "rule {rule} requires {expected} premises, found {found}")
            }
            ProofError::PremiseMismatch {
                rule,
                expected,
                found,
            } => {
                write!(
                    f,
                    "rule {rule} premise mismatch: expected `{expected}`, found `{found}`"
                )
            }
            ProofError::TransformFailed(m) => write!(f, "proof transformation failed: {m}"),
            ProofError::SearchFailed(m) => write!(f, "proof search failed: {m}"),
            ProofError::BudgetExhausted(m) => write!(f, "proof search budget exhausted: {m}"),
            ProofError::Timeout {
                elapsed_ms,
                visited,
            } => {
                write!(
                    f,
                    "proof search timed out after {elapsed_ms} ms ({visited} states visited)"
                )
            }
            ProofError::Cancelled => write!(f, "proof search cancelled"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Check an entire proof tree: every node must be a valid rule application
/// and every sub-proof must prove exactly the premise its parent requires.
pub fn check_proof(proof: &Proof) -> Result<(), ProofError> {
    let expected = proof.rule.premises(&proof.conclusion)?;
    if expected.len() != proof.premises.len() {
        return Err(ProofError::PremiseCount {
            rule: proof.rule.name(),
            expected: expected.len(),
            found: proof.premises.len(),
        });
    }
    for (want, have) in expected.iter().zip(proof.premises.iter()) {
        if want != &have.conclusion {
            return Err(ProofError::PremiseMismatch {
                rule: proof.rule.name(),
                expected: Box::new(want.clone()),
                found: Box::new(have.conclusion.clone()),
            });
        }
        check_proof(have)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::Rule;
    use nrs_delta0::{Formula, Term};

    #[test]
    fn valid_proofs_pass_the_checker() {
        // ⊢ (x = x ∧ ⊤) ∨ ⊥
        let inner = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let goal = Formula::or(inner.clone(), Formula::False);
        let root = Sequent::goals([goal.clone()]);
        let or_rule = Rule::Or { disj: goal.into() };
        let after_or = or_rule.premises(&root).unwrap().remove(0);
        let and_rule = Rule::And { conj: inner.into() };
        let prems = and_rule.premises(&after_or).unwrap();
        let p1 = Proof::eq_refl(prems[0].clone(), Term::var("x")).unwrap();
        let p2 = Proof::top(prems[1].clone()).unwrap();
        let and_proof = Proof::by(after_or, and_rule, vec![p1, p2]).unwrap();
        let proof = Proof::by(root, or_rule, vec![and_proof]).unwrap();
        assert!(check_proof(&proof).is_ok());
        assert_eq!(proof.size(), 4);
    }

    #[test]
    fn tampered_proofs_fail_the_checker() {
        let inner = Formula::and(Formula::eq_ur("x", "x"), Formula::True);
        let root = Sequent::goals([inner.clone()]);
        let and_rule = Rule::And { conj: inner.into() };
        let prems = and_rule.premises(&root).unwrap();
        let p1 = Proof::eq_refl(prems[0].clone(), Term::var("x")).unwrap();
        let p2 = Proof::top(prems[1].clone()).unwrap();
        let mut proof = Proof::by(root, and_rule, vec![p1, p2]).unwrap();
        // tamper with a leaf: claim the axiom closes a different sequent
        proof.premises[0].conclusion = Sequent::goals([Formula::eq_ur("a", "b")]);
        assert!(check_proof(&proof).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProofError::SearchFailed("budget exhausted".into());
        assert!(e.to_string().contains("budget"));
        let e = ProofError::PremiseCount {
            rule: "∧",
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains("requires 2"));
    }
}
