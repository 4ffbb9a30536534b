//! Left/right partitions of sequents, shared by interpolation (Theorem 4) and
//! by the parameter-collection extraction (Lemma 9) in `nrs-synthesis`.
//!
//! A [`Partition`] tags every ∈-context atom and every right-hand-side formula
//! of a sequent as *Left* or *Right*.  As an extraction descends through a
//! proof, the premise's partition is derived from the conclusion's: formulas
//! already present keep their side, and material introduced by the rule
//! inherits the side of its principal formula.
//!
//! Side lookups are hot inside the extraction inductions (`formula_side` is
//! probed once per formula per proof node, and every proof node derives a
//! premise partition), so the marks are kept in hash sets and the formula
//! marks are interned handles: a probe hashes the node's cached hash and
//! compares pointers, and [`Partition::premise_partition`] walks the
//! premise's right-hand side once, testing membership in the conclusion by
//! pointer ([`Sequent::contains_handle`]).  No step clones or compares a
//! formula structurally.

use nrs_delta0::{Formula, FxBuildHasher, MemAtom, Shared};
use nrs_proof::{Rule, Sequent};
use nrs_value::Name;
use std::collections::{BTreeSet, HashSet};

/// Which side of the partition an item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The "left" part (e.g. the first copy of the specification).
    Left,
    /// The "right" part.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A partition of a sequent into left and right parts.
///
/// Items not explicitly marked as left are right.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    /// ∈-context atoms assigned to the left part.
    pub left_atoms: HashSet<MemAtom>,
    /// Right-hand-side formulas assigned to the left part, as interned
    /// handles.
    pub left_formulas: HashSet<Shared<Formula>, FxBuildHasher>,
}

impl Partition {
    /// An empty partition (everything on the right).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a partition from explicit left atoms and formulas (interned
    /// here).
    pub fn with_left<F: Into<Shared<Formula>>>(
        atoms: impl IntoIterator<Item = MemAtom>,
        formulas: impl IntoIterator<Item = F>,
    ) -> Self {
        Partition {
            left_atoms: atoms.into_iter().collect(),
            left_formulas: formulas.into_iter().map(Into::into).collect(),
        }
    }

    /// The side of an ∈-context atom.
    pub fn atom_side(&self, atom: &MemAtom) -> Side {
        if self.left_atoms.contains(atom) {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// The side of a right-hand-side formula.
    pub fn formula_side(&self, f: &Shared<Formula>) -> Side {
        if self.left_formulas.contains(f) {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Mark a formula (interned here) as belonging to the given side.
    pub fn assign_formula(&mut self, f: impl Into<Shared<Formula>>, side: Side) {
        let f = f.into();
        match side {
            Side::Left => {
                self.left_formulas.insert(f);
            }
            Side::Right => {
                self.left_formulas.remove(&f);
            }
        }
    }

    /// Mark an atom as belonging to the given side.
    pub fn assign_atom(&mut self, a: MemAtom, side: Side) {
        match side {
            Side::Left => {
                self.left_atoms.insert(a);
            }
            Side::Right => {
                self.left_atoms.remove(&a);
            }
        }
    }

    /// The free variables of the left and of the right part of `seq`, read
    /// off the context's terms and the right-hand side's interned nodes,
    /// which cache their free-variable sets, in one pass.  Each side comes
    /// sorted by [`Name::id`] without duplicates: only the set a caller
    /// returns is ordered by string.
    fn side_vars(&self, seq: &Sequent) -> [Vec<Name>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        let slot = |side: Side| usize::from(side == Side::Right);
        for a in seq.ctx.iter() {
            let vars = &mut out[slot(self.atom_side(a))];
            let mut add = |v: &Name| vars.push(*v);
            a.elem.for_each_free_var(&mut add);
            a.set.for_each_free_var(&mut add);
        }
        for f in seq.rhs() {
            out[slot(self.formula_side(f))].extend(f.free_vars_set().iter().copied());
        }
        for vars in &mut out {
            vars.sort_unstable_by_key(Name::id);
            vars.dedup();
        }
        out
    }

    /// The free variables of the left part of `seq`.
    pub fn left_vars(&self, seq: &Sequent) -> BTreeSet<Name> {
        let [left, _] = self.side_vars(seq);
        left.into_iter().collect()
    }

    /// The free variables of the right part of `seq`.
    pub fn right_vars(&self, seq: &Sequent) -> BTreeSet<Name> {
        let [_, right] = self.side_vars(seq);
        right.into_iter().collect()
    }

    /// The variables common to the two parts of `seq` — the vocabulary an
    /// interpolant is allowed to use.
    pub fn common_vars(&self, seq: &Sequent) -> BTreeSet<Name> {
        let [left, right] = self.side_vars(seq);
        left.into_iter()
            .filter(|v| right.binary_search_by_key(&v.id(), Name::id).is_ok())
            .collect()
    }

    /// The left formulas of `seq`, in order.
    pub fn left_of<'a>(&self, seq: &'a Sequent) -> Vec<&'a Formula> {
        seq.rhs()
            .iter()
            .filter(|f| self.formula_side(f) == Side::Left)
            .map(|f| f.value())
            .collect()
    }

    /// The right formulas of `seq`, in order.
    pub fn right_of<'a>(&self, seq: &'a Sequent) -> Vec<&'a Formula> {
        seq.rhs()
            .iter()
            .filter(|f| self.formula_side(f) == Side::Right)
            .map(|f| f.value())
            .collect()
    }

    /// Derive the partition for the `idx`-th premise of a rule applied to
    /// `conclusion` under this partition: existing items keep their side, new
    /// items inherit the side of the rule's principal formula.
    pub fn premise_partition(
        &self,
        conclusion: &Sequent,
        rule: &Rule,
        premise: &Sequent,
    ) -> Partition {
        let principal_side = match rule {
            Rule::EqRefl { .. } | Rule::Top => None,
            Rule::Neq { atom, .. } => Some(self.formula_side(atom)),
            Rule::And { conj } => Some(self.formula_side(conj)),
            Rule::Or { disj } => Some(self.formula_side(disj)),
            Rule::Forall { quant, .. } => Some(self.formula_side(quant)),
            Rule::Exists { quant, .. } => Some(self.formula_side(quant)),
            // the ×-rules substitute terms; sides of rewritten items are
            // recomputed below by matching against the substituted originals
            Rule::ProdEta { .. } | Rule::ProdBeta { .. } => None,
        };
        let inherit = principal_side == Some(Side::Left);
        let mut out = Partition::new();
        match rule {
            Rule::ProdEta { var, fst, snd } => {
                let pair = nrs_delta0::Term::pair(
                    nrs_delta0::Term::Var(*fst),
                    nrs_delta0::Term::Var(*snd),
                );
                for a in conclusion.ctx.iter() {
                    out.assign_atom(a.subst_var(var, &pair), self.atom_side(a));
                }
                for f in conclusion.rhs() {
                    out.assign_formula(f.subst_var(var, &pair), self.formula_side(f));
                }
            }
            Rule::ProdBeta { fst, snd, first } => {
                let pair = nrs_delta0::Term::pair(
                    nrs_delta0::Term::Var(*fst),
                    nrs_delta0::Term::Var(*snd),
                );
                let redex = if *first {
                    nrs_delta0::Term::proj1(pair)
                } else {
                    nrs_delta0::Term::proj2(pair)
                };
                let reduct = nrs_delta0::Term::Var(if *first { *fst } else { *snd });
                for a in conclusion.ctx.iter() {
                    out.assign_atom(a.replace_term(&redex, &reduct), self.atom_side(a));
                }
                for f in conclusion.rhs() {
                    out.assign_formula(f.replace_term(&redex, &reduct), self.formula_side(f));
                }
            }
            // Only left marks are stored, and `out` starts empty, so the
            // right items need no work here: assigning one Right would
            // remove a mark that is not there.  A premise formula the
            // conclusion has keeps its side; one the rule added inherits
            // the principal's.
            _ => {
                for a in &self.left_atoms {
                    if conclusion.ctx.contains(a) {
                        out.left_atoms.insert(a.clone());
                    }
                }
                for f in premise.rhs() {
                    let left = if conclusion.contains_handle(f) {
                        self.left_formulas.contains(f)
                    } else {
                        inherit
                    };
                    if left {
                        out.left_formulas.insert(f.clone());
                    }
                }
            }
        }
        // new context atoms inherit the principal side (default Right when
        // no principal)
        if inherit {
            for a in premise.ctx.iter() {
                if !conclusion.ctx.contains(a) {
                    out.left_atoms.insert(a.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::InContext;

    #[test]
    fn sides_and_vars() {
        let a_l = MemAtom::new("x", "L");
        let a_r = MemAtom::new("y", "R");
        let f_l = Formula::eq_ur("x", "c");
        let f_r = Formula::eq_ur("y", "c");
        let seq = Sequent::new(
            InContext::from_atoms([a_l.clone(), a_r.clone()]),
            [f_l.clone(), f_r.clone()],
        );
        let p = Partition::with_left([a_l.clone()], [f_l.clone()]);
        assert_eq!(p.atom_side(&a_l), Side::Left);
        assert_eq!(p.atom_side(&a_r), Side::Right);
        assert_eq!(p.formula_side(&Shared::new(f_l.clone())), Side::Left);
        assert_eq!(p.formula_side(&Shared::new(f_r.clone())), Side::Right);
        assert_eq!(Side::Left.flip(), Side::Right);
        let common: Vec<String> = p
            .common_vars(&seq)
            .into_iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        assert_eq!(common, vec!["c".to_string()]);
        assert_eq!(p.left_of(&seq).len(), 1);
        assert_eq!(p.right_of(&seq).len(), 1);
    }

    #[test]
    fn premise_partition_inherits_principal_side() {
        // conclusion: ⊢ (a=b ∧ c=d) [Left], e=f [Right]
        let conj = Formula::and(Formula::eq_ur("a", "b"), Formula::eq_ur("c", "d"));
        let other = Formula::eq_ur("e", "f");
        let seq = Sequent::goals([conj.clone(), other.clone()]);
        let p = Partition::with_left([], [conj.clone()]);
        let rule = Rule::And {
            conj: conj.clone().into(),
        };
        let prems = rule.premises(&seq).unwrap();
        let p0 = p.premise_partition(&seq, &rule, &prems[0]);
        // the new conjunct a=b is Left, the passive e=f stays Right
        assert_eq!(
            p0.formula_side(&Shared::new(Formula::eq_ur("a", "b"))),
            Side::Left
        );
        assert_eq!(p0.formula_side(&Shared::new(other.clone())), Side::Right);
        // a ∀ on the Right introduces a Right atom
        let quant = Formula::forall("z", "S", Formula::eq_ur("z", "z"));
        let seq2 = Sequent::goals([quant.clone(), conj.clone()]);
        let p2 = Partition::with_left([], [conj.clone()]);
        let rule2 = Rule::Forall {
            quant: quant.clone().into(),
            witness: Name::new("w#1"),
        };
        let prem2 = rule2.premises(&seq2).unwrap().remove(0);
        let pp = p2.premise_partition(&seq2, &rule2, &prem2);
        assert_eq!(pp.atom_side(&MemAtom::new("w#1", "S")), Side::Right);
        assert_eq!(
            pp.formula_side(&Shared::new(Formula::eq_ur("w#1", "w#1"))),
            Side::Right
        );
        assert_eq!(pp.formula_side(&Shared::new(conj.clone())), Side::Left);
    }
}
