//! Δ0 terms: variables, the unit value, tupling and projections.
//!
//! Subterms are hash-consed [`Shared`] nodes (see [`nrs_shared`]): cloning
//! a term is O(1), equality and hashing are O(1), and the cached per-node
//! free-variable sets let [`Term::subst_var`] and [`Term::replace_term`]
//! return entire shared subtrees untouched when the rewrite cannot apply.

use nrs_shared::{empty_name_set, HashConsed, InternTable, Shared};
use nrs_value::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A Δ0 term (paper §3): `t, u ::= x | () | ⟨t, u⟩ | π1(t) | π2(t)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A variable.
    Var(Name),
    /// The unit value `()`.
    Unit,
    /// A pair `⟨t, u⟩`.
    Pair(Shared<Term>, Shared<Term>),
    /// First projection.
    Proj1(Shared<Term>),
    /// Second projection.
    Proj2(Shared<Term>),
}

static TERM_TABLE: OnceLock<InternTable<Term>> = OnceLock::new();

impl HashConsed for Term {
    fn intern_table() -> &'static InternTable<Term> {
        TERM_TABLE.get_or_init(InternTable::default)
    }

    fn compute_free_vars(&self) -> Arc<BTreeSet<Name>> {
        self.free_vars_arc()
    }

    fn compute_size(&self) -> usize {
        self.size()
    }
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<Name>) -> Term {
        Term::Var(name.into())
    }

    /// A pair term.
    pub fn pair(a: Term, b: Term) -> Term {
        Term::Pair(Shared::new(a), Shared::new(b))
    }

    /// First projection.
    pub fn proj1(t: Term) -> Term {
        Term::Proj1(Shared::new(t))
    }

    /// Second projection.
    pub fn proj2(t: Term) -> Term {
        Term::Proj2(Shared::new(t))
    }

    /// A right-nested tuple term.
    pub fn tuple(parts: Vec<Term>) -> Term {
        let mut it = parts.into_iter().rev();
        let last = it
            .next()
            .expect("Term::tuple requires at least one component");
        it.fold(last, |acc, t| Term::pair(t, acc))
    }

    /// The i-th component (0-based) of a right-nested `arity`-tuple term.
    pub fn tuple_proj(t: Term, index: usize, arity: usize) -> Term {
        assert!(index < arity && arity >= 1);
        if arity == 1 {
            return t;
        }
        if index == 0 {
            Term::proj1(t)
        } else {
            Term::tuple_proj(Term::proj2(t), index - 1, arity - 1)
        }
    }

    /// Is this term a bare variable?  Returns its name if so.
    pub fn as_var(&self) -> Option<&Name> {
        match self {
            Term::Var(n) => Some(n),
            _ => None,
        }
    }

    /// Free variables of the term, as a shareable set (the children's sets
    /// are cached on their nodes, so this only assembles the top level).
    pub fn free_vars_arc(&self) -> Arc<BTreeSet<Name>> {
        match self {
            Term::Var(n) => Arc::new(BTreeSet::from([*n])),
            Term::Unit => empty_name_set(),
            Term::Pair(a, b) => nrs_shared::union_name_sets(a.free_vars_set(), b.free_vars_set()),
            Term::Proj1(t) | Term::Proj2(t) => t.free_vars_set().clone(),
        }
    }

    /// Free variables of the term.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        (*self.free_vars_arc()).clone()
    }

    /// Visit the free variables of the term without building a set: a bare
    /// variable is visited directly, compound terms read their children's
    /// cached sets.  A name shared by both sides of a pair is visited twice.
    pub fn for_each_free_var(&self, f: &mut impl FnMut(&Name)) {
        match self {
            Term::Var(n) => f(n),
            Term::Unit => {}
            Term::Pair(a, b) => {
                a.free_vars_set().iter().for_each(&mut *f);
                b.free_vars_set().iter().for_each(f);
            }
            Term::Proj1(t) | Term::Proj2(t) => t.free_vars_set().iter().for_each(f),
        }
    }

    /// Is the term ground (free of variables)?  Allocation-free.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Unit => true,
            Term::Pair(a, b) => a.free_vars_set().is_empty() && b.free_vars_set().is_empty(),
            Term::Proj1(t) | Term::Proj2(t) => t.free_vars_set().is_empty(),
        }
    }

    /// The smallest free variable of the term (the first of
    /// [`Term::free_vars`]), without building a set.
    pub fn first_free_var(&self) -> Option<Name> {
        match self {
            Term::Var(n) => Some(*n),
            Term::Unit => None,
            Term::Pair(a, b) => {
                let (a, b) = (a.free_vars_set().first(), b.free_vars_set().first());
                a.into_iter().chain(b).min().copied()
            }
            Term::Proj1(t) | Term::Proj2(t) => t.free_vars_set().first().copied(),
        }
    }

    /// Does the variable occur in this term?
    pub fn mentions(&self, var: &Name) -> bool {
        match self {
            Term::Var(n) => n == var,
            Term::Unit => false,
            Term::Pair(a, b) => a.free_vars_set().contains(var) || b.free_vars_set().contains(var),
            Term::Proj1(t) | Term::Proj2(t) => t.free_vars_set().contains(var),
        }
    }

    /// Capture-free substitution of a term for a variable (terms have no
    /// binders, so this is plain substitution).  Subtrees that do not mention
    /// the variable are returned as-is, shared.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> Term {
        fn child(c: &Shared<Term>, var: &Name, replacement: &Term) -> Shared<Term> {
            if c.free_vars_set().contains(var) {
                Shared::new(c.value().subst_var(var, replacement))
            } else {
                c.clone()
            }
        }
        match self {
            Term::Var(n) if n == var => replacement.clone(),
            Term::Var(_) | Term::Unit => self.clone(),
            Term::Pair(a, b) => Term::Pair(child(a, var, replacement), child(b, var, replacement)),
            Term::Proj1(t) => Term::Proj1(child(t, var, replacement)),
            Term::Proj2(t) => Term::Proj2(child(t, var, replacement)),
        }
    }

    /// Replace every syntactic occurrence of `target` (a whole sub-term) by
    /// `replacement`.  Used by the ×β / ×η proof rules and by the congruence
    /// transformations, which substitute terms for terms.  Subtrees that are
    /// too small to contain the target, or that miss one of its free
    /// variables, are returned as-is, shared.
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> Term {
        let target_fv = target.free_vars_arc();
        self.replace_term_gated(target, replacement, &target_fv, target.size())
    }

    pub(crate) fn replace_term_gated(
        &self,
        target: &Term,
        replacement: &Term,
        target_fv: &BTreeSet<Name>,
        target_size: usize,
    ) -> Term {
        fn child(
            c: &Shared<Term>,
            target: &Term,
            replacement: &Term,
            target_fv: &BTreeSet<Name>,
            target_size: usize,
        ) -> Shared<Term> {
            if c.size() < target_size || !target_fv.iter().all(|v| c.free_vars_set().contains(v)) {
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
        }
        if self == target {
            return replacement.clone();
        }
        match self {
            Term::Var(_) | Term::Unit => self.clone(),
            Term::Pair(a, b) => Term::Pair(
                child(a, target, replacement, target_fv, target_size),
                child(b, target, replacement, target_fv, target_size),
            ),
            Term::Proj1(t) => Term::Proj1(child(t, target, replacement, target_fv, target_size)),
            Term::Proj2(t) => Term::Proj2(child(t, target, replacement, target_fv, target_size)),
        }
    }

    /// β-normalize projections applied to explicit pairs: `π_i(⟨t1, t2⟩) → t_i`.
    pub fn beta_normalize(&self) -> Term {
        match self {
            Term::Var(_) | Term::Unit => self.clone(),
            Term::Pair(a, b) => Term::pair(a.beta_normalize(), b.beta_normalize()),
            Term::Proj1(t) => match t.beta_normalize() {
                Term::Pair(a, _) => (*a).clone(),
                other => Term::proj1(other),
            },
            Term::Proj2(t) => match t.beta_normalize() {
                Term::Pair(_, b) => (*b).clone(),
                other => Term::proj2(other),
            },
        }
    }

    /// Structural size of the term (O(1): children cache their sizes).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Unit => 1,
            Term::Pair(a, b) => 1 + a.size() + b.size(),
            Term::Proj1(t) | Term::Proj2(t) => 1 + t.size(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(n) => write!(f, "{n}"),
            Term::Unit => write!(f, "()"),
            Term::Pair(a, b) => write!(f, "<{a}, {b}>"),
            Term::Proj1(t) => write!(f, "p1({t})"),
            Term::Proj2(t) => write!(f, "p2({t})"),
        }
    }
}

impl From<Name> for Term {
    fn from(n: Name) -> Self {
        Term::Var(n)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term::var(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let t = Term::pair(Term::proj1(Term::var("b")), Term::var("c"));
        assert_eq!(t.to_string(), "<p1(b), c>");
        assert_eq!(Term::Unit.to_string(), "()");
        let v: Term = "x".into();
        assert_eq!(v, Term::var("x"));
    }

    #[test]
    fn free_vars_and_mentions() {
        let t = Term::pair(Term::proj1(Term::var("b")), Term::var("c"));
        let fv: Vec<String> = t
            .free_vars()
            .into_iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        assert_eq!(fv, vec!["b".to_string(), "c".to_string()]);
        assert!(t.mentions(&Name::new("b")));
        assert!(!t.mentions(&Name::new("z")));
    }

    #[test]
    fn free_var_readers_agree_with_the_set() {
        for t in [
            Term::Unit,
            Term::var("x"),
            Term::pair(Term::proj1(Term::var("c")), Term::var("b")),
            Term::pair(Term::var("a"), Term::proj2(Term::var("a"))),
            Term::pair(Term::Unit, Term::Unit),
            Term::proj1(Term::pair(Term::var("y"), Term::Unit)),
        ] {
            let mut seen = BTreeSet::new();
            t.for_each_free_var(&mut |v| {
                seen.insert(*v);
            });
            assert_eq!(seen, t.free_vars(), "{t}");
            assert_eq!(t.first_free_var(), t.free_vars().first().copied(), "{t}");
            assert_eq!(t.is_ground(), t.free_vars().is_empty(), "{t}");
        }
    }

    #[test]
    fn substitution_replaces_variables() {
        let t = Term::pair(Term::var("x"), Term::proj2(Term::var("x")));
        let s = t.subst_var(&Name::new("x"), &Term::var("y"));
        assert_eq!(s, Term::pair(Term::var("y"), Term::proj2(Term::var("y"))));
        // substituting an absent variable is the identity
        assert_eq!(t.subst_var(&Name::new("z"), &Term::Unit), t);
    }

    #[test]
    fn substitution_shares_untouched_subtrees() {
        let left = Term::proj1(Term::var("a"));
        let t = Term::pair(left.clone(), Term::var("x"));
        let s = t.subst_var(&Name::new("x"), &Term::Unit);
        match (&t, &s) {
            (Term::Pair(l1, _), Term::Pair(l2, r2)) => {
                assert!(l1.ptr_eq(l2), "untouched subtree must be shared");
                assert_eq!(**r2, Term::Unit);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn replace_term_substitutes_whole_subterms() {
        let t = Term::proj1(Term::pair(Term::var("x"), Term::var("y")));
        let r = t.replace_term(&Term::var("x"), &Term::Unit);
        assert_eq!(r, Term::proj1(Term::pair(Term::Unit, Term::var("y"))));
        // replacing the whole term
        let whole = t.replace_term(&t, &Term::var("z"));
        assert_eq!(whole, Term::var("z"));
        // a ground target still replaces (the free-variable gate is vacuous)
        let u = Term::pair(Term::Unit, Term::var("w"));
        let r2 = u.replace_term(&Term::Unit, &Term::var("q"));
        assert_eq!(r2, Term::pair(Term::var("q"), Term::var("w")));
    }

    #[test]
    fn beta_normalization() {
        let t = Term::proj1(Term::pair(Term::var("x"), Term::var("y")));
        assert_eq!(t.beta_normalize(), Term::var("x"));
        let u = Term::proj2(Term::pair(
            Term::var("x"),
            Term::proj2(Term::pair(Term::Unit, Term::var("y"))),
        ));
        assert_eq!(u.beta_normalize(), Term::var("y"));
        // nothing to do on a plain projection of a variable
        let v = Term::proj1(Term::var("x"));
        assert_eq!(v.beta_normalize(), v);
    }

    #[test]
    fn tuples_and_tuple_projection() {
        let t = Term::tuple(vec![Term::var("a"), Term::var("b"), Term::var("c")]);
        assert_eq!(
            t,
            Term::pair(Term::var("a"), Term::pair(Term::var("b"), Term::var("c")))
        );
        let p0 = Term::tuple_proj(t.clone(), 0, 3).beta_normalize();
        let p1 = Term::tuple_proj(t.clone(), 1, 3).beta_normalize();
        let p2 = Term::tuple_proj(t.clone(), 2, 3).beta_normalize();
        assert_eq!(p0, Term::var("a"));
        assert_eq!(p1, Term::var("b"));
        assert_eq!(p2, Term::var("c"));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Term::var("x").size(), 1);
        assert_eq!(
            Term::pair(Term::var("x"), Term::proj1(Term::var("y"))).size(),
            4
        );
    }
}
