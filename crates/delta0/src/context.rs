//! ∈-contexts: the sets of primitive membership atoms that appear on the left
//! of sequents in both proof calculi (paper §3–4).

use crate::formula::Formula;
use crate::term::Term;
use nrs_value::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A primitive membership atom `elem ∈ set`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemAtom {
    /// The element term.
    pub elem: Term,
    /// The set term.
    pub set: Term,
}

impl MemAtom {
    /// Build a membership atom.
    pub fn new(elem: impl Into<Term>, set: impl Into<Term>) -> Self {
        MemAtom {
            elem: elem.into(),
            set: set.into(),
        }
    }

    /// Is this a *variable* membership atom (both sides bare variables)?
    /// These are the atoms that may drive specialization (paper §3).
    pub fn is_variable_atom(&self) -> bool {
        self.elem.as_var().is_some() && self.set.as_var().is_some()
    }

    /// View as the extended Δ0 formula `elem ∈ set`.
    pub fn to_formula(&self) -> Formula {
        Formula::Mem(self.elem.clone(), self.set.clone())
    }

    /// Free variables of the atom.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut s = self.elem.free_vars();
        s.extend(self.set.free_vars());
        s
    }

    /// Substitute a term for a variable in both sides.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> MemAtom {
        MemAtom {
            elem: self.elem.subst_var(var, replacement),
            set: self.set.subst_var(var, replacement),
        }
    }

    /// Replace a whole sub-term everywhere in the atom.
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> MemAtom {
        MemAtom {
            elem: self.elem.replace_term(target, replacement),
            set: self.set.replace_term(target, replacement),
        }
    }
}

impl fmt::Display for MemAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.elem, self.set)
    }
}

/// An ∈-context: an ordered collection of membership atoms.
///
/// Contexts behave as sets (duplicates are not stored twice) but preserve
/// insertion order so that proofs and their transformations stay reproducible.
/// The atom vector is `Arc`-shared copy-on-write: cloning a context (which
/// the prover does for every visited sequent) is O(1), and only the rare
/// extension pays a copy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct InContext {
    atoms: std::sync::Arc<Vec<MemAtom>>,
}

impl InContext {
    /// The empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from atoms, dropping duplicates while keeping first occurrence order.
    pub fn from_atoms(atoms: impl IntoIterator<Item = MemAtom>) -> Self {
        let mut ctx = InContext::new();
        for a in atoms {
            ctx.insert(a);
        }
        ctx
    }

    /// Insert an atom (no-op if already present).  Returns whether it was new.
    pub fn insert(&mut self, atom: MemAtom) -> bool {
        if self.atoms.contains(&atom) {
            false
        } else {
            std::sync::Arc::make_mut(&mut self.atoms).push(atom);
            true
        }
    }

    /// A copy of this context extended with one atom.
    pub fn with(&self, atom: MemAtom) -> InContext {
        if self.contains(&atom) {
            return self.clone();
        }
        // one allocation of the final size: `insert` on a shared copy would
        // clone the atoms and then grow the clone to double capacity
        let mut atoms = Vec::with_capacity(self.atoms.len() + 1);
        atoms.extend_from_slice(&self.atoms);
        atoms.push(atom);
        InContext {
            atoms: std::sync::Arc::new(atoms),
        }
    }

    /// Does the context contain the atom?
    pub fn contains(&self, atom: &MemAtom) -> bool {
        self.atoms.contains(atom)
    }

    /// Iterate the atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &MemAtom> {
        self.atoms.iter()
    }

    /// The atoms as a slice.
    pub fn as_slice(&self) -> &[MemAtom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Union of two contexts.
    pub fn union(&self, other: &InContext) -> InContext {
        let mut out = self.clone();
        for a in other.iter() {
            out.insert(a.clone());
        }
        out
    }

    /// Free variables of all atoms.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for a in self.atoms.iter() {
            out.extend(a.free_vars());
        }
        out
    }

    /// Substitute a term for a variable in every atom.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> InContext {
        InContext::from_atoms(self.atoms.iter().map(|a| a.subst_var(var, replacement)))
    }

    /// Replace a whole sub-term in every atom.
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> InContext {
        InContext::from_atoms(
            self.atoms
                .iter()
                .map(|a| a.replace_term(target, replacement)),
        )
    }

    /// Does the context mention the variable at all?
    pub fn mentions(&self, var: &Name) -> bool {
        self.atoms
            .iter()
            .any(|a| a.elem.mentions(var) || a.set.mentions(var))
    }

    /// Split the context into the part whose free variables are all contained
    /// in `left_vars` and the rest — used when partitioning sequents into
    /// "left" and "right" for interpolation and parameter collection.
    pub fn split_by_vars(&self, left_vars: &BTreeSet<Name>) -> (InContext, InContext) {
        let mut l = InContext::new();
        let mut r = InContext::new();
        for a in self.atoms.iter() {
            if a.free_vars().iter().all(|v| left_vars.contains(v)) {
                l.insert(a.clone());
            } else {
                r.insert(a.clone());
            }
        }
        (l, r)
    }
}

impl fmt::Display for InContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl FromIterator<MemAtom> for InContext {
    fn from_iter<T: IntoIterator<Item = MemAtom>>(iter: T) -> Self {
        InContext::from_atoms(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_and_variable_atoms() {
        let a = MemAtom::new("x", "S");
        assert!(a.is_variable_atom());
        let b = MemAtom::new(Term::proj1(Term::var("x")), "S");
        assert!(!b.is_variable_atom());
        assert_eq!(a.to_formula(), Formula::mem("x", "S"));
        assert_eq!(a.to_string(), "x in S");
    }

    #[test]
    fn context_deduplicates_and_preserves_order() {
        let mut ctx = InContext::new();
        assert!(ctx.insert(MemAtom::new("x", "S")));
        assert!(ctx.insert(MemAtom::new("y", "S")));
        assert!(!ctx.insert(MemAtom::new("x", "S")));
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.as_slice()[0], MemAtom::new("x", "S"));
        assert!(ctx.contains(&MemAtom::new("y", "S")));
        assert!(!ctx.is_empty());
        let ext = ctx.with(MemAtom::new("z", "T"));
        assert_eq!(ext.len(), 3);
        assert_eq!(ctx.len(), 2);
    }

    #[test]
    fn substitution_and_union() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "x")]);
        let s = ctx.subst_var(&Name::new("x"), &Term::var("w"));
        assert!(s.contains(&MemAtom::new("w", "S")));
        assert!(s.contains(&MemAtom::new("y", "w")));
        let u = ctx.union(&InContext::from_atoms([
            MemAtom::new("x", "S"),
            MemAtom::new("q", "R"),
        ]));
        assert_eq!(u.len(), 3);
        assert!(ctx.mentions(&Name::new("y")));
        assert!(!ctx.mentions(&Name::new("q")));
    }

    #[test]
    fn free_vars_and_split() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "R")]);
        let fv = ctx.free_vars();
        assert_eq!(fv.len(), 4);
        let left_vars: BTreeSet<Name> = ["x", "S"].into_iter().map(Name::new).collect();
        let (l, r) = ctx.split_by_vars(&left_vars);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
        assert!(l.contains(&MemAtom::new("x", "S")));
    }

    #[test]
    fn display_joins_atoms() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "R")]);
        assert_eq!(ctx.to_string(), "x in S, y in R");
    }
}
