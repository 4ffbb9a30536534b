//! ∈-contexts: the sets of primitive membership atoms that appear on the left
//! of sequents in both proof calculi (paper §3–4).

use crate::formula::Formula;
use crate::term::Term;
use nrs_shared::{structural_hash, HashConsed, InternTable, Shared};
use nrs_value::Name;
use serde::{Content, Deserialize, Error, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

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
///
/// A context is an **interned handle** to its atom sequence (see
/// [`nrs_shared`]): every context built with the same atoms in the same
/// order points at one shared node, so cloning is O(1), equality is a
/// pointer compare, and the thousands of sequents a proof search visits —
/// and the refuted ones its failure memo keeps — share the few dozen
/// distinct contexts they are made of instead of each holding a copy.
/// Extending a context builds the extended sequence once, at exact size,
/// and interns it.
///
/// A context carries its own hash, extended atom by atom wherever the
/// context is built or grown, so `Hash` writes one cached word — the
/// prover's caches key on contexts and probe them far more often than they
/// build them.  Ordering, `Debug` and the serialized form are those of the
/// atom sequence alone.
#[derive(Clone)]
pub struct InContext {
    atoms: Shared<Atoms>,
}

/// The interned payload of an [`InContext`]: the atoms, stored at exact
/// size, and their order-dependent hash (0 for the empty context).  Its
/// `Hash` writes the cached word, so interning hashes one `u64`.
#[derive(Clone)]
struct Atoms {
    hash: u64,
    atoms: Box<[MemAtom]>,
}

impl PartialEq for Atoms {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.atoms == other.atoms
    }
}

impl Eq for Atoms {}

impl Hash for Atoms {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

static ATOMS_TABLE: OnceLock<InternTable<Atoms>> = OnceLock::new();

impl HashConsed for Atoms {
    fn intern_table() -> &'static InternTable<Atoms> {
        ATOMS_TABLE.get_or_init(InternTable::default)
    }

    fn compute_free_vars(&self) -> Arc<BTreeSet<Name>> {
        Arc::new(self.atoms.iter().flat_map(MemAtom::free_vars).collect())
    }

    fn compute_size(&self) -> usize {
        self.atoms
            .iter()
            .map(|a| a.elem.size() + a.set.size())
            .sum()
    }
}

/// Extend an ∈-context hash by one appended atom (the atom's structural
/// hash, folded in Fx fashion: order-dependent).
fn extend_hash(hash: u64, atom: &MemAtom) -> u64 {
    (hash.rotate_left(5) ^ structural_hash(atom)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

impl Default for InContext {
    /// The empty context (one node, shared by every empty context).
    fn default() -> Self {
        static EMPTY: OnceLock<InContext> = OnceLock::new();
        EMPTY
            .get_or_init(|| InContext::intern_hashed(0, Vec::new()))
            .clone()
    }
}

impl InContext {
    /// The empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of distinct contexts interned so far in this process.
    pub fn interned_count() -> usize {
        nrs_shared::interned_nodes::<Atoms>()
    }

    /// Intern a duplicate-free atom sequence.
    fn intern(atoms: Vec<MemAtom>) -> Self {
        InContext::intern_hashed(atoms.iter().fold(0, extend_hash), atoms)
    }

    /// Intern a duplicate-free atom sequence whose hash is already known.
    fn intern_hashed(hash: u64, atoms: Vec<MemAtom>) -> Self {
        InContext {
            atoms: Shared::new(Atoms {
                hash,
                atoms: atoms.into_boxed_slice(),
            }),
        }
    }

    /// Build from atoms, dropping duplicates while keeping first occurrence order.
    pub fn from_atoms(atoms: impl IntoIterator<Item = MemAtom>) -> Self {
        let mut unique: Vec<MemAtom> = Vec::new();
        for a in atoms {
            if !unique.contains(&a) {
                unique.push(a);
            }
        }
        InContext::intern(unique)
    }

    /// Insert an atom (no-op if already present).  Returns whether it was new.
    pub fn insert(&mut self, atom: MemAtom) -> bool {
        if self.contains(&atom) {
            false
        } else {
            *self = self.with(atom);
            true
        }
    }

    /// A copy of this context extended with one atom.
    pub fn with(&self, atom: MemAtom) -> InContext {
        if self.contains(&atom) {
            return self.clone();
        }
        let hash = extend_hash(self.atoms.hash, &atom);
        let mut atoms = Vec::with_capacity(self.len() + 1);
        atoms.extend_from_slice(self.as_slice());
        atoms.push(atom);
        InContext::intern_hashed(hash, atoms)
    }

    /// Does the context contain the atom?
    pub fn contains(&self, atom: &MemAtom) -> bool {
        self.as_slice().contains(atom)
    }

    /// Iterate the atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &MemAtom> {
        self.as_slice().iter()
    }

    /// The atoms as a slice.
    pub fn as_slice(&self) -> &[MemAtom] {
        &self.atoms.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Union of two contexts.
    pub fn union(&self, other: &InContext) -> InContext {
        InContext::from_atoms(self.iter().chain(other.iter()).cloned())
    }

    /// Free variables of all atoms.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        (**self.atoms.free_vars_set()).clone()
    }

    /// One past the largest numeric `#` suffix among the atoms' free
    /// variables, or 0 (cached on the interned node — see
    /// [`Shared::suffix_bound`]).
    pub fn suffix_bound(&self) -> u64 {
        self.atoms.suffix_bound()
    }

    /// Substitute a term for a variable in every atom.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> InContext {
        InContext::from_atoms(self.iter().map(|a| a.subst_var(var, replacement)))
    }

    /// Replace a whole sub-term in every atom.
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> InContext {
        InContext::from_atoms(self.iter().map(|a| a.replace_term(target, replacement)))
    }

    /// Does the context mention the variable at all?
    pub fn mentions(&self, var: &Name) -> bool {
        self.iter()
            .any(|a| a.elem.mentions(var) || a.set.mentions(var))
    }

    /// Split the context into the part whose free variables are all contained
    /// in `left_vars` and the rest — used when partitioning sequents into
    /// "left" and "right" for interpolation and parameter collection.
    pub fn split_by_vars(&self, left_vars: &BTreeSet<Name>) -> (InContext, InContext) {
        let (l, r): (Vec<MemAtom>, Vec<MemAtom>) = self
            .iter()
            .cloned()
            .partition(|a| a.free_vars().iter().all(|v| left_vars.contains(v)));
        (InContext::intern(l), InContext::intern(r))
    }
}

impl PartialEq for InContext {
    fn eq(&self, other: &Self) -> bool {
        // interning makes equal atom sequences one node
        self.atoms.ptr_eq(&other.atoms)
    }
}

impl Eq for InContext {}

impl PartialOrd for InContext {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InContext {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for InContext {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.atoms.hash);
    }
}

impl fmt::Debug for InContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InContext")
            .field("atoms", &self.as_slice())
            .finish()
    }
}

impl Serialize for InContext {
    fn serialize(&self) -> Content {
        Content::Map(vec![(
            Content::Str("atoms".to_owned()),
            Content::Seq(self.iter().map(Serialize::serialize).collect()),
        )])
    }
}

impl Deserialize for InContext {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let field = content
            .get_field("atoms")
            .ok_or_else(|| Error::custom("missing field `atoms`"))?;
        let atoms: Vec<MemAtom> = Deserialize::deserialize(field)?;
        Ok(InContext::intern(atoms))
    }
}

impl fmt::Display for InContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.iter().enumerate() {
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
    use std::collections::hash_map::DefaultHasher;

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

    fn hash_of(ctx: &InContext) -> u64 {
        let mut h = DefaultHasher::new();
        ctx.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cached_hash_agrees_however_the_context_was_built() {
        let (x, y) = (MemAtom::new("x", "S"), MemAtom::new("y", "x"));
        let built = InContext::from_atoms([x.clone(), y.clone(), x.clone()]);
        let mut inserted = InContext::new();
        inserted.insert(x.clone());
        inserted.insert(y.clone());
        let extended = InContext::new().with(x.clone()).with(y.clone());
        for other in [&inserted, &extended] {
            assert_eq!(&built, other);
            assert_eq!(hash_of(&built), hash_of(other));
        }
        // the order of the atoms is part of the context
        let swapped = InContext::from_atoms([y.clone(), x.clone()]);
        assert_ne!(built, swapped);
        assert!(built < swapped);
        // substitution and replacement rebuild the hash
        let w = Name::new("w");
        let substituted = built.subst_var(&Name::new("x"), &Term::Var(w));
        let expected = InContext::from_atoms([MemAtom::new("w", "S"), MemAtom::new("y", "w")]);
        assert_eq!(substituted, expected);
        assert_eq!(hash_of(&substituted), hash_of(&expected));
        let replaced = built.replace_term(&Term::var("x"), &Term::var("w"));
        assert_eq!(hash_of(&replaced), hash_of(&expected));
        assert_eq!(hash_of(&InContext::new()), hash_of(&InContext::default()));
    }

    #[test]
    fn equal_contexts_are_one_node() {
        let (x, y) = (MemAtom::new("x", "S"), MemAtom::new("y", "x"));
        let built = InContext::from_atoms([x.clone(), y.clone(), x.clone()]);
        let extended = InContext::new().with(x.clone()).with(y.clone());
        let split = built.union(&InContext::from_atoms([MemAtom::new("z", "T")]));
        let (left, _) = split.split_by_vars(&["x", "y", "S"].into_iter().map(Name::new).collect());
        for other in [&extended, &left] {
            assert!(built.atoms.ptr_eq(&other.atoms));
        }
        assert!(InContext::new()
            .atoms
            .ptr_eq(&InContext::from_atoms([]).atoms));
        // the atoms are stored at exact size
        assert_eq!(built.len(), 2);
        assert_eq!(built.free_vars().len(), 3);
    }

    #[test]
    fn debug_and_serde_show_only_the_atoms() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        assert!(format!("{ctx:?}").starts_with("InContext { atoms: [MemAtom {"));
        let json = serde::json::to_string(&ctx);
        assert!(json.starts_with("{\"atoms\":["), "{json}");
        let back: InContext = serde::json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(hash_of(&back), hash_of(&ctx));
    }

    #[test]
    fn display_joins_atoms() {
        let ctx = InContext::from_atoms([MemAtom::new("x", "S"), MemAtom::new("y", "R")]);
        assert_eq!(ctx.to_string(), "x in S, y in R");
    }
}
