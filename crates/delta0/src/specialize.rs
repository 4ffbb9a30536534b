//! Specialization of existential blocks with respect to ∈-contexts
//! (paper §3, "instantiating a block of bounded quantifiers at a time").
//!
//! Given `φ0 = ∃w ∈ y . φ1` and a membership atom `x ∈ y`, the specialization
//! of `φ0` using `x ∈ y` is `φ1[x/w]`.  Specializing with an *ordered*
//! sequence of atoms iterates this, and a *maximal* specialization is one to
//! which no further atom of the context applies (equivalently, the focused
//! ∃-rule instantiates a whole block of leading existentials at once).

use crate::context::{InContext, MemAtom};
use crate::formula::Formula;
use crate::term::Term;

/// One specialization step: if `formula` is `∃w ∈ b . ψ` and `atom.set == b`,
/// return `ψ[atom.elem / w]`.
pub fn specialize_once(formula: &Formula, atom: &MemAtom) -> Option<Formula> {
    match formula {
        Formula::Exists { var, bound, body } if *bound == atom.set => {
            Some(body.subst_var(var, &atom.elem))
        }
        _ => None,
    }
}

/// Specialize using an ordered sequence of membership atoms; `None` if any
/// step does not apply.
pub fn specialize_seq(formula: &Formula, atoms: &[MemAtom]) -> Option<Formula> {
    let mut current = formula.clone();
    for atom in atoms {
        current = specialize_once(&current, atom)?;
    }
    Some(current)
}

/// A maximal specialization together with the ordered atoms that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxSpecialization {
    /// The atoms used, in order.
    pub used: Vec<MemAtom>,
    /// The resulting formula (not existential-leading w.r.t. the context).
    pub result: Formula,
}

/// All maximal specializations of `formula` with respect to the ∈-context
/// (paper §3).  A specialization is maximal when no atom of the context can be
/// applied to specialize it further.  The formula itself (with an empty atom
/// sequence) is returned when it is not an applicable existential at all.
///
/// `limit` bounds the number of results, protecting callers from the
/// combinatorial explosion of large contexts.
pub fn max_specializations(
    formula: &Formula,
    ctx: &InContext,
    limit: usize,
) -> Vec<MaxSpecialization> {
    max_specializations_with_bounds(formula, ctx, limit).0
}

/// [`max_specializations`], together with the distinct bounds of the
/// existentials the enumeration examined, in the order first met.
///
/// An atom whose set is none of these bounds changes nothing when appended
/// to the context: it applies at no examined node, so the enumeration under
/// the extended context pops the same nodes in the same order, with the
/// same results and the same bounds — and stops at the same point under
/// `limit`.  The prover relies on this to reuse a ∀ step's specializations
/// across the atom the step adds.
pub fn max_specializations_with_bounds(
    formula: &Formula,
    ctx: &InContext,
    limit: usize,
) -> (Vec<MaxSpecialization>, Vec<Term>) {
    let mut out = Vec::new();
    let mut bounds: Vec<Term> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut stack: Vec<(Vec<MemAtom>, Formula)> = vec![(Vec::new(), formula.clone())];
    while let Some((used, current)) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        let mut extended = false;
        if let Formula::Exists { bound, .. } = &current {
            if !bounds.contains(bound) {
                bounds.push(bound.clone());
            }
            for atom in ctx.iter() {
                if let Some(next) = specialize_once(&current, atom) {
                    extended = true;
                    let mut used2 = used.clone();
                    used2.push(atom.clone());
                    stack.push((used2, next));
                }
            }
        }
        if !extended {
            // maximal: either not an existential, or no context atom matches its bound
            if seen.insert(current.clone()) {
                out.push(MaxSpecialization {
                    used,
                    result: current,
                });
            }
        }
    }
    (out, bounds)
}

/// Is `candidate` a maximal specialization of `formula` with respect to `ctx`?
/// Used by the focused proof checker to validate ∃-rule applications.
pub fn is_max_specialization(formula: &Formula, ctx: &InContext, candidate: &Formula) -> bool {
    // The number of distinct maximal specializations is bounded by
    // |ctx|^(depth of the existential block); proof checking only needs to
    // confirm membership, so a generous limit suffices for realistic proofs.
    max_specializations(formula, ctx, 100_000)
        .iter()
        .any(|m| &m.result == candidate)
}

/// All formulas reachable from `formula` by **one or more** specialization
/// steps with atoms from the context (not necessarily maximal).  This is the
/// reach set of the *generalized* ∃ rule (Lemma 15), which the paper proves
/// admissible in the focused calculus; the proof checker accepts it directly.
pub fn all_specializations(formula: &Formula, ctx: &InContext, limit: usize) -> Vec<Formula> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut stack: Vec<Formula> = vec![formula.clone()];
    while let Some(current) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        if matches!(current, Formula::Exists { .. }) {
            for atom in ctx.iter() {
                if let Some(next) = specialize_once(&current, atom) {
                    if seen.insert(next.clone()) {
                        out.push(next.clone());
                        stack.push(next);
                    }
                }
            }
        }
    }
    out
}

/// Is `candidate` reachable from `formula` by one or more specialization
/// steps (the side condition of the generalized ∃ rule, Lemma 15)?
pub fn is_specialization(formula: &Formula, ctx: &InContext, candidate: &Formula) -> bool {
    all_specializations(formula, ctx, 100_000)
        .iter()
        .any(|f| f == candidate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(var: &str, bound: &str, body: Formula) -> Formula {
        Formula::exists(var, bound, body)
    }

    #[test]
    fn single_step_specialization() {
        let f = ex("w", "Y", Formula::eq_ur("w", "c"));
        let atom = MemAtom::new("x", "Y");
        assert_eq!(specialize_once(&f, &atom), Some(Formula::eq_ur("x", "c")));
        // bound mismatch
        assert_eq!(specialize_once(&f, &MemAtom::new("x", "Z")), None);
        // not an existential
        assert_eq!(specialize_once(&Formula::True, &atom), None);
    }

    #[test]
    fn sequence_specialization_follows_order() {
        // ∃a ∈ S ∃b ∈ a . b = c
        let f = ex(
            "a",
            "S",
            Formula::exists("b", Term::var("a"), Formula::eq_ur("b", "c")),
        );
        let atoms = vec![MemAtom::new("x", "S"), MemAtom::new("y", "x")];
        let spec = specialize_seq(&f, &atoms).unwrap();
        assert_eq!(spec, Formula::eq_ur("y", "c"));
        // wrong order fails: y ∈ x is not applicable first
        assert_eq!(
            specialize_seq(&f, &[MemAtom::new("y", "x"), MemAtom::new("x", "S")]),
            None
        );
    }

    #[test]
    fn max_specializations_enumerate_all_choices() {
        // ∃w ∈ S . w = c, with two members of S in the context
        let f = ex("w", "S", Formula::eq_ur("w", "c"));
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "S")]);
        let specs = max_specializations(&f, &ctx, 10);
        let results: Vec<Formula> = specs.iter().map(|m| m.result.clone()).collect();
        assert!(results.contains(&Formula::eq_ur("x", "c")));
        assert!(results.contains(&Formula::eq_ur("y", "c")));
        assert_eq!(specs.len(), 2);
        assert!(is_max_specialization(&f, &ctx, &Formula::eq_ur("x", "c")));
        assert!(!is_max_specialization(&f, &ctx, &Formula::eq_ur("z", "c")));
    }

    #[test]
    fn blocks_are_instantiated_all_at_once() {
        // ∃a ∈ S ∃b ∈ T . a = b
        let f = ex(
            "a",
            "S",
            Formula::exists("b", "T", Formula::eq_ur("a", "b")),
        );
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "T")]);
        let specs = max_specializations(&f, &ctx, 10);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].result, Formula::eq_ur("x", "y"));
        assert_eq!(
            specs[0].used,
            vec![MemAtom::new("x", "S"), MemAtom::new("y", "T")]
        );
    }

    #[test]
    fn partially_applicable_blocks_stop_at_the_unmatched_bound() {
        // ∃a ∈ S ∃b ∈ Missing . ⊤ : only the outer existential can be specialized,
        // and the result (an existential over Missing) is still maximal.
        let f = ex("a", "S", Formula::exists("b", "Missing", Formula::True));
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let specs = max_specializations(&f, &ctx, 10);
        assert_eq!(specs.len(), 1);
        assert_eq!(
            specs[0].result,
            Formula::exists("b", "Missing", Formula::True)
        );
    }

    #[test]
    fn non_existential_formula_is_its_own_max_specialization() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let specs = max_specializations(&Formula::True, &ctx, 10);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].result, Formula::True);
        assert!(specs[0].used.is_empty());
    }

    #[test]
    fn limit_caps_the_enumeration() {
        let f = ex("w", "S", Formula::eq_ur("w", "c"));
        let ctx = InContext::from_atoms(
            (0..20).map(|i| MemAtom::new(Term::var(format!("x{i}")), Term::var("S"))),
        );
        let specs = max_specializations(&f, &ctx, 5);
        assert_eq!(specs.len(), 5);
    }
}
