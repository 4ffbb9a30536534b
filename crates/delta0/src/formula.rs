//! Δ0 formulas and the extended membership literals.
//!
//! The grammar (paper §3):
//!
//! ```text
//! φ, ψ ::= t =𝔘 u | t ≠𝔘 u | ⊤ | ⊥ | φ ∨ ψ | φ ∧ ψ | ∀x ∈ t φ | ∃x ∈ t φ
//! ```
//!
//! There is **no primitive negation** and no equality at higher sorts; both
//! are macros (see [`crate::macros`]).  *Extended* Δ0 formulas additionally
//! allow membership literals `t ∈ u` / `t ∉ u`; in proofs these only ever
//! appear inside ∈-contexts, and [`Formula::is_delta0`] distinguishes the two
//! classes.
//!
//! Subformulas are hash-consed [`Shared`] nodes (see [`nrs_shared`]):
//! clones are O(1), equality/hashing are O(1), and every node caches its
//! free-variable set, which substitution uses to return untouched subtrees
//! shared instead of rebuilding them.

use crate::term::{TargetVars, Term};
use nrs_shared::{empty_name_set, HashConsed, InternTable, Shared};
use nrs_value::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A (possibly extended) Δ0 formula.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Formula {
    /// Equality of Ur-elements `t =𝔘 u`.
    EqUr(Term, Term),
    /// Inequality of Ur-elements `t ≠𝔘 u`.
    NeqUr(Term, Term),
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Conjunction.
    And(Shared<Formula>, Shared<Formula>),
    /// Disjunction.
    Or(Shared<Formula>, Shared<Formula>),
    /// Bounded universal quantification `∀ var ∈ bound . body`.
    Forall {
        /// The bound variable.
        var: Name,
        /// The set-typed term the quantifier ranges over.
        bound: Term,
        /// The body.
        body: Shared<Formula>,
    },
    /// Bounded existential quantification `∃ var ∈ bound . body`.
    Exists {
        /// The bound variable.
        var: Name,
        /// The set-typed term the quantifier ranges over.
        bound: Term,
        /// The body.
        body: Shared<Formula>,
    },
    /// Extended membership literal `t ∈ u` (not Δ0).
    Mem(Term, Term),
    /// Extended non-membership literal `t ∉ u` (not Δ0).
    NotMem(Term, Term),
}

static FORMULA_TABLE: OnceLock<InternTable<Formula>> = OnceLock::new();

impl HashConsed for Formula {
    fn intern_table() -> &'static InternTable<Formula> {
        FORMULA_TABLE.get_or_init(InternTable::default)
    }

    fn compute_free_vars(&self) -> Arc<BTreeSet<Name>> {
        self.free_vars_arc()
    }

    fn compute_size(&self) -> usize {
        self.size()
    }
}

/// The focusing classification of a formula (paper §4).
///
/// Atomic formulas are both existential-leading and alternative-leading; the
/// only other EL formulas are existentials, all other shapes are AL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Atomic: both EL and AL.
    Atomic,
    /// Existential-leading (a bounded existential).
    ExistentialLeading,
    /// Alternative-leading (∧, ∨, ⊤, ⊥, ∀).
    AlternativeLeading,
}

impl Formula {
    /// `t =𝔘 u`.
    pub fn eq_ur(t: impl Into<Term>, u: impl Into<Term>) -> Formula {
        Formula::EqUr(t.into(), u.into())
    }

    /// `t ≠𝔘 u`.
    pub fn neq_ur(t: impl Into<Term>, u: impl Into<Term>) -> Formula {
        Formula::NeqUr(t.into(), u.into())
    }

    /// Conjunction.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Shared::new(a), Shared::new(b))
    }

    /// Disjunction.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Shared::new(a), Shared::new(b))
    }

    /// `∀ var ∈ bound . body`.
    pub fn forall(var: impl Into<Name>, bound: impl Into<Term>, body: Formula) -> Formula {
        Formula::Forall {
            var: var.into(),
            bound: bound.into(),
            body: Shared::new(body),
        }
    }

    /// `∃ var ∈ bound . body`.
    pub fn exists(var: impl Into<Name>, bound: impl Into<Term>, body: Formula) -> Formula {
        Formula::Exists {
            var: var.into(),
            bound: bound.into(),
            body: Shared::new(body),
        }
    }

    /// Extended membership `t ∈ u`.
    pub fn mem(t: impl Into<Term>, u: impl Into<Term>) -> Formula {
        Formula::Mem(t.into(), u.into())
    }

    /// Extended non-membership `t ∉ u`.
    pub fn not_mem(t: impl Into<Term>, u: impl Into<Term>) -> Formula {
        Formula::NotMem(t.into(), u.into())
    }

    /// The position of this formula's variant in the derived `Ord` (variants
    /// compare by declaration order before contents).  A sorted formula
    /// sequence is therefore grouped by rank — `nrs-proof` uses this to slice
    /// a sequent's right-hand side into per-kind index ranges.
    pub fn variant_rank(&self) -> u8 {
        match self {
            Formula::EqUr(_, _) => 0,
            Formula::NeqUr(_, _) => 1,
            Formula::True => 2,
            Formula::False => 3,
            Formula::And(_, _) => 4,
            Formula::Or(_, _) => 5,
            Formula::Forall { .. } => 6,
            Formula::Exists { .. } => 7,
            Formula::Mem(_, _) => 8,
            Formula::NotMem(_, _) => 9,
        }
    }

    /// Is this a proper Δ0 formula (no primitive membership literals)?
    pub fn is_delta0(&self) -> bool {
        match self {
            Formula::Mem(_, _) | Formula::NotMem(_, _) => false,
            Formula::EqUr(_, _) | Formula::NeqUr(_, _) | Formula::True | Formula::False => true,
            Formula::And(a, b) | Formula::Or(a, b) => a.is_delta0() && b.is_delta0(),
            Formula::Forall { body, .. } | Formula::Exists { body, .. } => body.is_delta0(),
        }
    }

    /// Is this formula atomic (an (in)equality, membership literal, ⊤ or ⊥)?
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            Formula::EqUr(_, _)
                | Formula::NeqUr(_, _)
                | Formula::Mem(_, _)
                | Formula::NotMem(_, _)
                | Formula::True
                | Formula::False
        )
    }

    /// Is this formula a literal in the sense of the ≠ rule (an (in)equality
    /// or membership literal, excluding ⊤/⊥)?
    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            Formula::EqUr(_, _) | Formula::NeqUr(_, _) | Formula::Mem(_, _) | Formula::NotMem(_, _)
        )
    }

    /// The focusing polarity (EL / AL / both) of the formula.
    pub fn polarity(&self) -> Polarity {
        match self {
            Formula::EqUr(_, _)
            | Formula::NeqUr(_, _)
            | Formula::Mem(_, _)
            | Formula::NotMem(_, _) => Polarity::Atomic,
            // The paper classifies ⊥ as AL-only, but gives no right-hand rule
            // for it, so a ⊥ left over on the right-hand side (e.g. from the
            // negation of a non-emptiness constraint) would block the focused
            // ∃ rule forever.  Treating ⊥ as atomic (both EL and AL) keeps the
            // calculus sound and the generalized rules admissible while making
            // such sequents provable; this is the one deliberate deviation
            // from Figure 3.
            Formula::False => Polarity::Atomic,
            Formula::Exists { .. } => Polarity::ExistentialLeading,
            Formula::True | Formula::And(_, _) | Formula::Or(_, _) | Formula::Forall { .. } => {
                Polarity::AlternativeLeading
            }
        }
    }

    /// Existential-leading: atomic or an existential.
    pub fn is_el(&self) -> bool {
        !matches!(self.polarity(), Polarity::AlternativeLeading)
    }

    /// Alternative-leading: atomic or any non-existential connective.
    pub fn is_al(&self) -> bool {
        !matches!(self.polarity(), Polarity::ExistentialLeading)
    }

    /// Negation, defined as a macro by dualizing every connective (paper §3).
    pub fn negate(&self) -> Formula {
        match self {
            Formula::EqUr(t, u) => Formula::NeqUr(t.clone(), u.clone()),
            Formula::NeqUr(t, u) => Formula::EqUr(t.clone(), u.clone()),
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::And(a, b) => Formula::or(a.negate(), b.negate()),
            Formula::Or(a, b) => Formula::and(a.negate(), b.negate()),
            Formula::Forall { var, bound, body } => {
                Formula::exists(*var, bound.clone(), body.negate())
            }
            Formula::Exists { var, bound, body } => {
                Formula::forall(*var, bound.clone(), body.negate())
            }
            Formula::Mem(t, u) => Formula::NotMem(t.clone(), u.clone()),
            Formula::NotMem(t, u) => Formula::Mem(t.clone(), u.clone()),
        }
    }

    /// Free variables of the formula, as a shareable set (children cache
    /// theirs, so only the top level is assembled).
    pub fn free_vars_arc(&self) -> Arc<BTreeSet<Name>> {
        use nrs_shared::union_name_sets as union;
        match self {
            Formula::EqUr(t, u)
            | Formula::NeqUr(t, u)
            | Formula::Mem(t, u)
            | Formula::NotMem(t, u) => union(&t.free_vars_arc(), &u.free_vars_arc()),
            Formula::True | Formula::False => empty_name_set(),
            Formula::And(a, b) | Formula::Or(a, b) => union(a.free_vars_set(), b.free_vars_set()),
            Formula::Forall { var, bound, body } | Formula::Exists { var, bound, body } => {
                let body_fv = body.free_vars_set();
                let bound_fv = bound.free_vars_arc();
                if body_fv.contains(var) {
                    let mut out: BTreeSet<Name> = (**body_fv).clone();
                    out.remove(var);
                    out.extend(bound_fv.iter().copied());
                    Arc::new(out)
                } else {
                    union(&bound_fv, body_fv)
                }
            }
        }
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        (*self.free_vars_arc()).clone()
    }

    /// Visit the free variables of the formula without building a set:
    /// literals visit their terms ([`Term::for_each_free_var`]), compound
    /// formulas read their children's cached sets.  A name free in two
    /// children is visited once per child.
    pub fn for_each_free_var(&self, f: &mut impl FnMut(&Name)) {
        match self {
            Formula::EqUr(t, u)
            | Formula::NeqUr(t, u)
            | Formula::Mem(t, u)
            | Formula::NotMem(t, u) => {
                t.for_each_free_var(f);
                u.for_each_free_var(f);
            }
            Formula::True | Formula::False => {}
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.free_vars_set().iter().for_each(&mut *f);
                b.free_vars_set().iter().for_each(f);
            }
            Formula::Forall { var, bound, body } | Formula::Exists { var, bound, body } => {
                bound.for_each_free_var(f);
                body.free_vars_set()
                    .iter()
                    .filter(|v| *v != var)
                    .for_each(f);
            }
        }
    }

    /// Capture-avoiding substitution of a term for a free variable.  Subtrees
    /// that do not mention the variable are returned as-is, shared.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> Formula {
        fn child(c: &Shared<Formula>, var: &Name, replacement: &Term) -> Shared<Formula> {
            if c.free_vars_set().contains(var) {
                Shared::new(c.value().subst_var(var, replacement))
            } else {
                c.clone()
            }
        }
        match self {
            Formula::EqUr(t, u) => {
                Formula::EqUr(t.subst_var(var, replacement), u.subst_var(var, replacement))
            }
            Formula::NeqUr(t, u) => {
                Formula::NeqUr(t.subst_var(var, replacement), u.subst_var(var, replacement))
            }
            Formula::Mem(t, u) => {
                Formula::Mem(t.subst_var(var, replacement), u.subst_var(var, replacement))
            }
            Formula::NotMem(t, u) => {
                Formula::NotMem(t.subst_var(var, replacement), u.subst_var(var, replacement))
            }
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::And(a, b) => {
                Formula::And(child(a, var, replacement), child(b, var, replacement))
            }
            Formula::Or(a, b) => {
                Formula::Or(child(a, var, replacement), child(b, var, replacement))
            }
            Formula::Forall {
                var: bv,
                bound,
                body,
            } => {
                let (bv, body) = Self::subst_under_binder(bv, body, var, replacement);
                Formula::Forall {
                    var: bv,
                    bound: bound.subst_var(var, replacement),
                    body,
                }
            }
            Formula::Exists {
                var: bv,
                bound,
                body,
            } => {
                let (bv, body) = Self::subst_under_binder(bv, body, var, replacement);
                Formula::Exists {
                    var: bv,
                    bound: bound.subst_var(var, replacement),
                    body,
                }
            }
        }
    }

    fn subst_under_binder(
        bv: &Name,
        body: &Shared<Formula>,
        var: &Name,
        replacement: &Term,
    ) -> (Name, Shared<Formula>) {
        if bv == var || !body.free_vars_set().contains(var) {
            // the substituted variable is shadowed, or absent from the body
            return (*bv, body.clone());
        }
        if replacement.mentions(bv) {
            // rename the binder to avoid capturing a variable of the replacement
            let mut avoid: BTreeSet<Name> = replacement.free_vars();
            avoid.extend(body.free_vars_set().iter().copied());
            avoid.insert(*var);
            let fresh = Self::fresh_variant(bv, &avoid);
            let renamed = body.subst_var(bv, &Term::Var(fresh));
            (fresh, Shared::new(renamed.subst_var(var, replacement)))
        } else {
            (*bv, Shared::new(body.value().subst_var(var, replacement)))
        }
    }

    fn fresh_variant(base: &Name, avoid: &BTreeSet<Name>) -> Name {
        let mut candidate = Name::new(format!("{}'", base.as_str()));
        while avoid.contains(&candidate) {
            candidate = Name::new(format!("{}'", candidate.as_str()));
        }
        candidate
    }

    /// Replace every syntactic occurrence of a whole sub-term by another term
    /// (used by congruence-style proof rules).  Bound variables are *not*
    /// protected: callers must ensure the target and replacement are free for
    /// the formula, which holds for the proof-rule usages (the target never
    /// contains bound variables of the formula).  Unchanged subformulas keep
    /// their shared nodes, and subtrees that miss a free variable of the
    /// target (or, at the term layer, are too small to contain it) are
    /// skipped without descending — the target's free variables (its name,
    /// for a variable target: no set is built) and size are read once here,
    /// not once per term, which matters to the prover's per-candidate
    /// rewrites over large literals.
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> Formula {
        self.replace_term_gated(target, replacement, &TargetVars::of(target), target.size())
    }

    fn replace_term_gated(
        &self,
        target: &Term,
        replacement: &Term,
        target_fv: &TargetVars,
        target_size: usize,
    ) -> Formula {
        let child = |c: &Shared<Formula>| -> Shared<Formula> {
            // a subformula missing a free variable of the target cannot
            // contain it (the proof-rule contract above rules out capture,
            // so occurrences are purely syntactic)
            if !target_fv.within(c.free_vars_set()) {
                return c.clone();
            }
            let replaced =
                c.value()
                    .replace_term_gated(target, replacement, target_fv, target_size);
            if &replaced == c.value() {
                c.clone()
            } else {
                Shared::new(replaced)
            }
        };
        let term = |t: &Term| t.replace_term_gated(target, replacement, target_fv, target_size);
        match self {
            Formula::EqUr(t, u) => Formula::EqUr(term(t), term(u)),
            Formula::NeqUr(t, u) => Formula::NeqUr(term(t), term(u)),
            Formula::Mem(t, u) => Formula::Mem(term(t), term(u)),
            Formula::NotMem(t, u) => Formula::NotMem(term(t), term(u)),
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::And(a, b) => Formula::And(child(a), child(b)),
            Formula::Or(a, b) => Formula::Or(child(a), child(b)),
            Formula::Forall { var, bound, body } => Formula::Forall {
                var: *var,
                bound: term(bound),
                body: child(body),
            },
            Formula::Exists { var, bound, body } => Formula::Exists {
                var: *var,
                bound: term(bound),
                body: child(body),
            },
        }
    }

    /// β-normalize all terms occurring in the formula.
    pub fn beta_normalize(&self) -> Formula {
        fn child(c: &Shared<Formula>) -> Shared<Formula> {
            let normal = c.value().beta_normalize();
            if &normal == c.value() {
                c.clone()
            } else {
                Shared::new(normal)
            }
        }
        match self {
            Formula::EqUr(t, u) => Formula::EqUr(t.beta_normalize(), u.beta_normalize()),
            Formula::NeqUr(t, u) => Formula::NeqUr(t.beta_normalize(), u.beta_normalize()),
            Formula::Mem(t, u) => Formula::Mem(t.beta_normalize(), u.beta_normalize()),
            Formula::NotMem(t, u) => Formula::NotMem(t.beta_normalize(), u.beta_normalize()),
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::And(a, b) => Formula::And(child(a), child(b)),
            Formula::Or(a, b) => Formula::Or(child(a), child(b)),
            Formula::Forall { var, bound, body } => Formula::Forall {
                var: *var,
                bound: bound.beta_normalize(),
                body: child(body),
            },
            Formula::Exists { var, bound, body } => Formula::Exists {
                var: *var,
                bound: bound.beta_normalize(),
                body: child(body),
            },
        }
    }

    /// Structural size of the formula (number of connectives, atoms and term
    /// nodes).  O(1): children cache their sizes.
    pub fn size(&self) -> usize {
        match self {
            Formula::EqUr(t, u)
            | Formula::NeqUr(t, u)
            | Formula::Mem(t, u)
            | Formula::NotMem(t, u) => 1 + t.size() + u.size(),
            Formula::True | Formula::False => 1,
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
            Formula::Forall { bound, body, .. } | Formula::Exists { bound, body, .. } => {
                1 + bound.size() + body.size()
            }
        }
    }

    /// The top-level conjuncts of a formula (flattening nested `And`s).
    pub fn conjuncts(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        fn go<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
            match f {
                Formula::And(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                other => out.push(other),
            }
        }
        go(self, &mut out);
        out
    }

    /// The top-level disjuncts of a formula (flattening nested `Or`s).
    pub fn disjuncts(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        fn go<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
            match f {
                Formula::Or(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                other => out.push(other),
            }
        }
        go(self, &mut out);
        out
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::EqUr(t, u) => write!(f, "{t} = {u}"),
            Formula::NeqUr(t, u) => write!(f, "{t} != {u}"),
            Formula::True => write!(f, "T"),
            Formula::False => write!(f, "F"),
            Formula::And(a, b) => write!(f, "({a} & {b})"),
            Formula::Or(a, b) => write!(f, "({a} | {b})"),
            Formula::Forall { var, bound, body } => write!(f, "(all {var} in {bound}. {body})"),
            Formula::Exists { var, bound, body } => write!(f, "(ex {var} in {bound}. {body})"),
            Formula::Mem(t, u) => write!(f, "{t} in {u}"),
            Formula::NotMem(t, u) => write!(f, "{t} notin {u}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Formula {
        // ∀v ∈ V ∃b ∈ B. π1(v) = π1(b)
        Formula::forall(
            "v",
            "V",
            Formula::exists(
                "b",
                "B",
                Formula::eq_ur(Term::proj1(Term::var("v")), Term::proj1(Term::var("b"))),
            ),
        )
    }

    #[test]
    fn delta0_and_polarity_classification() {
        let f = sample();
        assert!(f.is_delta0());
        assert!(f.is_al());
        assert!(!f.is_el());
        let m = Formula::mem("x", "y");
        assert!(!m.is_delta0());
        assert!(m.is_atomic());
        assert!(m.is_el() && m.is_al());
        let e = Formula::exists("x", "y", Formula::True);
        assert_eq!(e.polarity(), Polarity::ExistentialLeading);
        assert!(e.is_el() && !e.is_al());
        assert!(Formula::True.is_al());
        assert!(Formula::eq_ur("x", "y").is_literal());
        assert!(!Formula::True.is_literal());
    }

    #[test]
    fn negation_dualizes_and_is_involutive() {
        let f = sample();
        let n = f.negate();
        assert_eq!(
            n,
            Formula::exists(
                "v",
                "V",
                Formula::forall(
                    "b",
                    "B",
                    Formula::neq_ur(Term::proj1(Term::var("v")), Term::proj1(Term::var("b"))),
                )
            )
        );
        assert_eq!(n.negate(), f);
        assert_eq!(Formula::mem("x", "y").negate(), Formula::not_mem("x", "y"));
        assert_eq!(Formula::True.negate(), Formula::False);
    }

    #[test]
    fn free_vars_exclude_bound_occurrences() {
        let f = sample();
        let fv: Vec<String> = f
            .free_vars()
            .into_iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        assert_eq!(fv, vec!["B".to_string(), "V".to_string()]);
        // a free occurrence of a name that is bound elsewhere still shows up
        let g = Formula::and(Formula::eq_ur("v", "v"), sample());
        assert!(g.free_vars().contains(&Name::new("v")));
    }

    #[test]
    fn visiting_free_vars_agrees_with_the_set() {
        let g = Formula::and(Formula::eq_ur("v", "w"), sample());
        for f in [
            sample(),
            g.clone(),
            g.negate(),
            Formula::True,
            Formula::neq_ur("x", "x"),
        ] {
            let mut seen = BTreeSet::new();
            f.for_each_free_var(&mut |v| {
                seen.insert(*v);
            });
            assert_eq!(seen, f.free_vars(), "{f}");
        }
    }

    #[test]
    fn substitution_is_capture_avoiding() {
        // (∃ v ∈ S . v = x)[v / x]  must not capture: the bound v gets renamed.
        let f = Formula::exists("v", "S", Formula::eq_ur(Term::var("v"), Term::var("x")));
        let s = f.subst_var(&Name::new("x"), &Term::var("v"));
        match s {
            Formula::Exists { var, body, .. } => {
                assert_ne!(var, Name::new("v"));
                assert_eq!(*body, Formula::eq_ur(Term::var(var), Term::var("v")));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        // substituting the bound variable itself only affects the bound term
        let g = Formula::exists("v", Term::var("x"), Formula::eq_ur("v", "v"));
        let s = g.subst_var(&Name::new("v"), &Term::var("w"));
        assert_eq!(s, g, "bound occurrences are shadowed");
        // normal substitution in bodies and bounds
        let h = Formula::exists("z", Term::var("x"), Formula::eq_ur("z", "x"));
        let s = h.subst_var(&Name::new("x"), &Term::var("y"));
        assert_eq!(
            s,
            Formula::exists("z", Term::var("y"), Formula::eq_ur("z", "y"))
        );
    }

    #[test]
    fn substitution_shares_untouched_subtrees() {
        let stable = Formula::eq_ur("a", "b");
        let f = Formula::and(stable.clone(), Formula::eq_ur("x", "c"));
        let s = f.subst_var(&Name::new("x"), &Term::var("y"));
        match (&f, &s) {
            (Formula::And(l1, _), Formula::And(l2, r2)) => {
                assert!(l1.ptr_eq(l2), "untouched conjunct must be shared");
                assert_eq!(**r2, Formula::eq_ur("y", "c"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn replace_term_and_beta_normalize() {
        let f = Formula::eq_ur(
            Term::proj1(Term::pair(Term::var("a"), Term::var("b"))),
            Term::var("c"),
        );
        assert_eq!(f.beta_normalize(), Formula::eq_ur("a", "c"));
        let g = f.replace_term(&Term::var("c"), &Term::var("d"));
        assert!(matches!(g, Formula::EqUr(_, ref u) if *u == Term::var("d")));
    }

    #[test]
    fn conjuncts_and_disjuncts_flatten() {
        let f = Formula::and(
            Formula::and(Formula::True, Formula::False),
            Formula::eq_ur("x", "y"),
        );
        assert_eq!(f.conjuncts().len(), 3);
        let g = Formula::or(Formula::True, Formula::or(Formula::False, Formula::True));
        assert_eq!(g.disjuncts().len(), 3);
        assert_eq!(Formula::True.conjuncts().len(), 1);
    }

    #[test]
    fn size_and_display() {
        let f = sample();
        assert!(f.size() > 5);
        let printed = f.to_string();
        assert!(printed.contains("all v in V"));
        assert!(printed.contains("ex b in B"));
    }

    #[test]
    fn variant_rank_is_consistent_with_ord() {
        let mut formulas = vec![
            Formula::not_mem("x", "y"),
            Formula::exists("z", "S", Formula::True),
            Formula::True,
            Formula::eq_ur("a", "b"),
            Formula::mem("x", "y"),
            Formula::forall("z", "S", Formula::True),
            Formula::neq_ur("a", "b"),
            Formula::False,
            Formula::or(Formula::True, Formula::False),
            Formula::and(Formula::True, Formula::False),
        ];
        formulas.sort();
        let ranks: Vec<u8> = formulas.iter().map(Formula::variant_rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "sorted formulas must be grouped by rank");
        assert_eq!(ranks, (0..=9).collect::<Vec<u8>>());
    }
}
