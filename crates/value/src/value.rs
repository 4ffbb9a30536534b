//! Nested relational values.
//!
//! A [`Value`] is an element of the interpretation of some [`Type`]: the unit
//! value, an atom, a pair, or a finite set.  Sets are stored as `BTreeSet`s so
//! that the representation is canonical: extensional equality coincides with
//! structural (`Eq`) equality, and iteration order is deterministic.
//!
//! # Sharing
//!
//! Pairs and sets are **structurally shared**: `Pair` holds `Arc<Value>`
//! children and `Set` holds a [`SetValue`] — an `Arc`-wrapped `BTreeSet` with
//! a lazily cached structural hash.  `Value::clone` is therefore O(1)
//! (reference-count bumps), which is what lets the NRC evaluators rebind the
//! same large sets in environment frames millions of times without deep
//! copies.  Equality, ordering, iteration order and the serialized form are
//! unchanged from the previous deep representation: `SetValue` compares and
//! orders through the underlying `BTreeSet` (with pointer-equality and
//! cached-hash fast paths), so extensional canonicity is preserved.

use crate::error::ValueError;
use crate::types::Type;
use crate::Atom;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The shared payload of a set value: the canonical `BTreeSet` plus a cached
/// structural hash, computed at most once per node.
#[derive(Debug, Clone)]
struct SetNode {
    elems: BTreeSet<Value>,
    hash: OnceLock<u64>,
}

/// An `Arc`-shared, hash-cached set of values.
///
/// Dereferences to the underlying `BTreeSet<Value>`, so member access reads
/// exactly like the plain representation.  Cloning is O(1); two clones share
/// the same node (and the same cached hash).
#[derive(Clone)]
pub struct SetValue(Arc<SetNode>);

impl SetValue {
    /// The empty set (no allocation is shared between empties; they are tiny).
    pub fn empty() -> SetValue {
        BTreeSet::new().into()
    }

    /// The underlying canonical set.
    pub fn elems(&self) -> &BTreeSet<Value> {
        &self.0.elems
    }

    /// The cached structural hash of the set (computed on first use).
    ///
    /// A pure function of the member set, so `a == b` implies
    /// `a.hash64() == b.hash64()`; the converse is (overwhelmingly likely but)
    /// not guaranteed, so the hash is only ever used as a fast *negative*.
    pub fn hash64(&self) -> u64 {
        *self.0.hash.get_or_init(|| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.0.elems.len().hash(&mut h);
            for e in &self.0.elems {
                e.hash(&mut h);
            }
            h.finish()
        })
    }

    /// Do two handles point at the very same node?
    pub fn ptr_eq(&self, other: &SetValue) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Mutable access to the member set, copying on write: when this handle is
    /// the sole owner of the node the mutation is in place (so a k-element
    /// delta costs O(k log n)); when the node is shared the set is cloned once
    /// first, exactly like any persistent update.  The cached hash is
    /// invalidated either way, so the canonicity/hash contract is preserved.
    ///
    /// This is what lets the incremental view-maintenance layer keep a
    /// maintained output up to date under single-tuple updates without paying
    /// a full-set copy per batch.
    pub fn make_mut(&mut self) -> &mut BTreeSet<Value> {
        let node = Arc::make_mut(&mut self.0);
        node.hash = OnceLock::new();
        &mut node.elems
    }

    /// Recover the owned `BTreeSet`, cloning only if the node is shared.
    pub fn into_elems(self) -> BTreeSet<Value> {
        match Arc::try_unwrap(self.0) {
            Ok(node) => node.elems,
            Err(shared) => shared.elems.clone(),
        }
    }
}

impl From<BTreeSet<Value>> for SetValue {
    fn from(elems: BTreeSet<Value>) -> Self {
        SetValue(Arc::new(SetNode {
            elems,
            hash: OnceLock::new(),
        }))
    }
}

impl FromIterator<Value> for SetValue {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        iter.into_iter().collect::<BTreeSet<Value>>().into()
    }
}

impl std::ops::Deref for SetValue {
    type Target = BTreeSet<Value>;
    fn deref(&self) -> &BTreeSet<Value> {
        &self.0.elems
    }
}

impl PartialEq for SetValue {
    fn eq(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        if self.0.elems.len() != other.0.elems.len() {
            return false;
        }
        // Cached hashes are a cheap negative once both sides are warm.
        if let (Some(a), Some(b)) = (self.0.hash.get(), other.0.hash.get()) {
            if a != b {
                return false;
            }
        }
        self.0.elems == other.0.elems
    }
}

impl Eq for SetValue {}

impl PartialOrd for SetValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SetValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.ptr_eq(other) {
            std::cmp::Ordering::Equal
        } else {
            // Lexicographic on the canonical member sequence — identical to
            // the ordering of the previous plain-`BTreeSet` representation,
            // which Display stability and serialized artefacts rely on.
            self.0.elems.cmp(&other.0.elems)
        }
    }
}

impl Hash for SetValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl fmt::Debug for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.elems.fmt(f)
    }
}

impl Serialize for SetValue {
    fn serialize(&self) -> serde::Content {
        self.0.elems.serialize()
    }
}

impl Deserialize for SetValue {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        BTreeSet::<Value>::deserialize(content).map(SetValue::from)
    }
}

/// A nested relational value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// The unique inhabitant of `Unit`.
    Unit,
    /// An Ur-element.
    Atom(Atom),
    /// A pair (children are shared, see the module docs).
    Pair(Arc<Value>, Arc<Value>),
    /// A finite set (shared and hash-cached, see [`SetValue`]).
    Set(SetValue),
}

impl Value {
    /// An atom value from a raw id.
    pub fn atom(id: u64) -> Value {
        Value::Atom(Atom::new(id))
    }

    /// A pair value.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Arc::new(a), Arc::new(b))
    }

    /// A set value from any iterator of elements (duplicates collapse).
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// A set value from an already canonical `BTreeSet`.
    pub fn from_set(items: BTreeSet<Value>) -> Value {
        Value::Set(items.into())
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(SetValue::empty())
    }

    /// A right-nested tuple `⟨v1, ⟨v2, …⟩⟩`; the 1-ary tuple is the value itself.
    pub fn tuple(parts: Vec<Value>) -> Value {
        let mut it = parts.into_iter().rev();
        let last = it
            .next()
            .expect("Value::tuple requires at least one component");
        it.fold(last, |acc, v| Value::pair(v, acc))
    }

    /// The encoding of `true`: `{()} : Set(Unit)`.
    pub fn bool_true() -> Value {
        Value::set([Value::Unit])
    }

    /// The encoding of `false`: `∅ : Set(Unit)`.
    pub fn bool_false() -> Value {
        Value::empty_set()
    }

    /// Encode a Rust boolean.
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::bool_true()
        } else {
            Value::bool_false()
        }
    }

    /// Decode a `Set(Unit)` value as a boolean (any nonempty set counts as true).
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Set(s) => Ok(!s.is_empty()),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// View as a set.
    pub fn as_set(&self) -> Result<&BTreeSet<Value>, ValueError> {
        match self {
            Value::Set(s) => Ok(s.elems()),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// View the shared set handle (clones are O(1)).
    pub fn as_set_value(&self) -> Result<&SetValue, ValueError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// Consume as a set.
    pub fn into_set(self) -> Result<BTreeSet<Value>, ValueError> {
        match self {
            Value::Set(s) => Ok(s.into_elems()),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// View as a pair.
    pub fn as_pair(&self) -> Result<(&Value, &Value), ValueError> {
        match self {
            Value::Pair(a, b) => Ok((a, b)),
            other => Err(ValueError::NotAPair(other.to_string())),
        }
    }

    /// View as an atom.
    pub fn as_atom(&self) -> Result<Atom, ValueError> {
        match self {
            Value::Atom(a) => Ok(*a),
            other => Err(ValueError::NotAnAtom(other.to_string())),
        }
    }

    /// First projection (error if not a pair).
    pub fn proj1(&self) -> Result<&Value, ValueError> {
        Ok(self.as_pair()?.0)
    }

    /// Second projection (error if not a pair).
    pub fn proj2(&self) -> Result<&Value, ValueError> {
        Ok(self.as_pair()?.1)
    }

    /// Does this value inhabit the given type?
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Unit, Type::Unit) => true,
            (Value::Atom(_), Type::Ur) => true,
            (Value::Pair(a, b), Type::Prod(ta, tb)) => a.has_type(ta) && b.has_type(tb),
            (Value::Set(s), Type::Set(te)) => s.iter().all(|v| v.has_type(te)),
            _ => false,
        }
    }

    /// Infer *a* type for this value.  Empty sets are ambiguous; they default
    /// to `Set(Ur)` unless a surrounding context refines them, so prefer
    /// [`Value::has_type`] when a type is known.
    pub fn infer_type(&self) -> Type {
        match self {
            Value::Unit => Type::Unit,
            Value::Atom(_) => Type::Ur,
            Value::Pair(a, b) => Type::prod(a.infer_type(), b.infer_type()),
            Value::Set(s) => match s.iter().next() {
                Some(v) => Type::set(v.infer_type()),
                None => Type::set(Type::Ur),
            },
        }
    }

    /// The canonical "default" value of a type, used to give `get` a total
    /// semantics on non-singletons, as in the paper ("some default object of
    /// the appropriate type").  For `Ur` we use atom 0.
    pub fn default_of(ty: &Type) -> Value {
        match ty {
            Type::Unit => Value::Unit,
            Type::Ur => Value::atom(0),
            Type::Prod(a, b) => Value::pair(Value::default_of(a), Value::default_of(b)),
            Type::Set(_) => Value::empty_set(),
        }
    }

    /// Structural size (number of constructors), a convenient cost measure for
    /// benches and proptest shrinking diagnostics.
    pub fn size(&self) -> usize {
        match self {
            Value::Unit | Value::Atom(_) => 1,
            Value::Pair(a, b) => 1 + a.size() + b.size(),
            Value::Set(s) => 1 + s.iter().map(Value::size).sum::<usize>(),
        }
    }

    /// All atoms occurring hereditarily inside this value (its "active
    /// domain"), in sorted order.  This is the transitive-closure collection
    /// that the base case of Theorem 10 relies on.
    pub fn atoms(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<Atom>) {
        match self {
            Value::Unit => {}
            Value::Atom(a) => {
                out.insert(*a);
            }
            Value::Pair(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
            Value::Set(s) => {
                for v in s.iter() {
                    v.collect_atoms(out);
                }
            }
        }
    }

    /// Membership test for set values.
    pub fn contains(&self, elem: &Value) -> Result<bool, ValueError> {
        Ok(self.as_set()?.contains(elem))
    }

    /// Set union (errors if either value is not a set).
    pub fn union(&self, other: &Value) -> Result<Value, ValueError> {
        let (lhs, rhs) = (self.as_set_value()?, other.as_set_value()?);
        // Share instead of copying when one side contributes nothing.
        if rhs.is_empty() || lhs.ptr_eq(rhs) {
            return Ok(Value::Set(lhs.clone()));
        }
        if lhs.is_empty() {
            return Ok(Value::Set(rhs.clone()));
        }
        // one ordered merge of the two sides, then a bulk build of the
        // (already sorted) result
        let (mut l, mut r) = (lhs.iter().peekable(), rhs.iter().peekable());
        let merged = std::iter::from_fn(|| match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => match a.cmp(b) {
                std::cmp::Ordering::Less => l.next(),
                std::cmp::Ordering::Greater => r.next(),
                std::cmp::Ordering::Equal => r.next().and(l.next()),
            },
            _ => l.next().or_else(|| r.next()),
        });
        Ok(Value::set(merged.cloned()))
    }

    /// Set difference (errors if either value is not a set).
    pub fn difference(&self, other: &Value) -> Result<Value, ValueError> {
        let rhs = other.as_set()?;
        let s = self
            .as_set()?
            .iter()
            .filter(|v| !rhs.contains(*v))
            .cloned()
            .collect();
        Ok(Value::from_set(s))
    }

    /// Set intersection (errors if either value is not a set).
    pub fn intersection(&self, other: &Value) -> Result<Value, ValueError> {
        let rhs = other.as_set()?;
        let s = self
            .as_set()?
            .iter()
            .filter(|v| rhs.contains(*v))
            .cloned()
            .collect();
        Ok(Value::from_set(s))
    }

    /// The number of values [`Value::enumerate`] would produce for this type
    /// over a universe of `universe` atoms (saturating at `u128::MAX`).
    /// Callers use this to refuse enumerations that would blow up.
    pub fn enumeration_size(ty: &Type, universe: usize) -> u128 {
        match ty {
            Type::Unit => 1,
            Type::Ur => universe as u128,
            Type::Prod(a, b) => Value::enumeration_size(a, universe)
                .saturating_mul(Value::enumeration_size(b, universe)),
            Type::Set(elem) => {
                let n = Value::enumeration_size(elem, universe);
                if n >= 120 {
                    u128::MAX
                } else {
                    1u128 << (n as u32)
                }
            }
        }
    }

    /// Enumerate **all** values of the given type whose atoms are drawn from
    /// `universe`.  This is exponential (power sets!) and intended only for the
    /// small-universe bounded entailment checks used in tests; callers should
    /// keep `universe` and the type's set height tiny.
    pub fn enumerate(ty: &Type, universe: &[Atom]) -> Vec<Value> {
        match ty {
            Type::Unit => vec![Value::Unit],
            Type::Ur => universe.iter().map(|a| Value::Atom(*a)).collect(),
            Type::Prod(a, b) => {
                let va = Value::enumerate(a, universe);
                let vb = Value::enumerate(b, universe);
                let mut out = Vec::with_capacity(va.len() * vb.len());
                for x in &va {
                    for y in &vb {
                        out.push(Value::pair(x.clone(), y.clone()));
                    }
                }
                out
            }
            Type::Set(elem) => {
                let base = Value::enumerate(elem, universe);
                // all subsets of `base`
                let n = base.len();
                assert!(
                    n < 20,
                    "Value::enumerate would build 2^{n} sets; universe too large"
                );
                let mut out = Vec::with_capacity(1 << n);
                for mask in 0u32..(1u32 << n) {
                    let mut s = BTreeSet::new();
                    for (i, v) in base.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            s.insert(v.clone());
                        }
                    }
                    out.push(Value::from_set(s));
                }
                out
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Atom(a) => write!(f, "{a}"),
            Value::Pair(a, b) => write!(f, "<{a}, {b}>"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_values_are_extensional() {
        let a = Value::set([Value::atom(1), Value::atom(2), Value::atom(1)]);
        let b = Value::set([Value::atom(2), Value::atom(1)]);
        assert_eq!(a, b);
        assert_eq!(a.as_set().unwrap().len(), 2);
    }

    #[test]
    fn typing_checks_structure() {
        let ty = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
        let good = Value::set([Value::pair(Value::atom(4), Value::set([Value::atom(6)]))]);
        let bad = Value::set([Value::pair(Value::atom(4), Value::atom(6))]);
        assert!(good.has_type(&ty));
        assert!(!bad.has_type(&ty));
        // empty set inhabits any set type
        assert!(Value::empty_set().has_type(&ty));
        assert!(Value::empty_set().has_type(&Type::set(Type::Unit)));
    }

    #[test]
    fn booleans_encode_as_set_unit() {
        assert!(Value::bool_true().as_bool().unwrap());
        assert!(!Value::bool_false().as_bool().unwrap());
        assert!(Value::from_bool(true).has_type(&Type::bool()));
        assert!(Value::atom(3).as_bool().is_err());
    }

    #[test]
    fn projections_and_accessors() {
        let p = Value::pair(Value::atom(1), Value::Unit);
        assert_eq!(p.proj1().unwrap(), &Value::atom(1));
        assert_eq!(p.proj2().unwrap(), &Value::Unit);
        assert!(Value::Unit.proj1().is_err());
        assert_eq!(p.as_pair().unwrap().0, &Value::atom(1));
        assert_eq!(Value::atom(7).as_atom().unwrap(), Atom::new(7));
        assert!(Value::Unit.as_atom().is_err());
    }

    #[test]
    fn tuple_builder_matches_type_tuple() {
        let v = Value::tuple(vec![Value::atom(1), Value::atom(2), Value::atom(3)]);
        let t = Type::tuple(vec![Type::Ur, Type::Ur, Type::Ur]);
        assert!(v.has_type(&t));
        assert_eq!(
            v,
            Value::pair(Value::atom(1), Value::pair(Value::atom(2), Value::atom(3)))
        );
    }

    #[test]
    fn set_operations() {
        let a = Value::set([Value::atom(1), Value::atom(2)]);
        let b = Value::set([Value::atom(2), Value::atom(3)]);
        assert_eq!(a.union(&b).unwrap().as_set().unwrap().len(), 3);
        assert_eq!(a.difference(&b).unwrap(), Value::set([Value::atom(1)]));
        assert_eq!(a.intersection(&b).unwrap(), Value::set([Value::atom(2)]));
        assert!(a.contains(&Value::atom(1)).unwrap());
        assert!(!a.contains(&Value::atom(3)).unwrap());
        assert!(Value::Unit.union(&a).is_err());
    }

    #[test]
    fn atoms_collects_active_domain() {
        let v = Value::set([
            Value::pair(Value::atom(4), Value::set([Value::atom(6), Value::atom(9)])),
            Value::pair(Value::atom(7), Value::empty_set()),
        ]);
        let atoms: Vec<u64> = v.atoms().into_iter().map(|a| a.id()).collect();
        assert_eq!(atoms, vec![4, 6, 7, 9]);
    }

    #[test]
    fn default_values_have_their_type() {
        for ty in [
            Type::Unit,
            Type::Ur,
            Type::prod(Type::Ur, Type::bool()),
            Type::set(Type::prod(Type::Ur, Type::Ur)),
        ] {
            assert!(Value::default_of(&ty).has_type(&ty));
        }
    }

    #[test]
    fn enumerate_small_types() {
        let atoms = [Atom::new(0), Atom::new(1)];
        assert_eq!(Value::enumerate(&Type::Unit, &atoms).len(), 1);
        assert_eq!(Value::enumerate(&Type::Ur, &atoms).len(), 2);
        assert_eq!(
            Value::enumerate(&Type::prod(Type::Ur, Type::Ur), &atoms).len(),
            4
        );
        // Set(U) over 2 atoms: 4 subsets
        assert_eq!(Value::enumerate(&Type::set(Type::Ur), &atoms).len(), 4);
        // Bool has exactly two elements regardless of the universe
        assert_eq!(Value::enumerate(&Type::bool(), &atoms).len(), 2);
        for v in Value::enumerate(&Type::set(Type::Ur), &atoms) {
            assert!(v.has_type(&Type::set(Type::Ur)));
        }
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Value::Unit.size(), 1);
        assert_eq!(Value::pair(Value::atom(1), Value::atom(2)).size(), 3);
        assert_eq!(Value::set([Value::atom(1), Value::atom(2)]).size(), 3);
    }

    #[test]
    fn make_mut_copies_on_write_and_invalidates_the_hash() {
        let mut a = Value::set([Value::atom(1), Value::atom(2)])
            .as_set_value()
            .unwrap()
            .clone();
        let warm = a.hash64();
        let shared = a.clone();
        // mutating through the shared handle leaves the sibling untouched
        a.make_mut().insert(Value::atom(3));
        assert_eq!(a.len(), 3);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.hash64(), warm, "sibling keeps its cached hash");
        assert_ne!(a.hash64(), warm, "mutated set recomputes its hash");
        // sole-owner mutation is in place (no observable copy, same contract)
        drop(shared);
        a.make_mut().remove(&Value::atom(3));
        assert_eq!(
            Value::Set(a),
            Value::set([Value::atom(1), Value::atom(2)]),
            "canonical equality after in-place edits"
        );
    }

    #[test]
    fn display_is_stable() {
        let v = Value::set([Value::pair(Value::atom(2), Value::atom(1)), Value::Unit]);
        assert_eq!(v.to_string(), "{(), <a2, a1>}");
    }

    #[test]
    fn infer_type_agrees_with_has_type_on_nonempty() {
        let v = Value::set([Value::pair(Value::atom(1), Value::set([Value::atom(2)]))]);
        let ty = v.infer_type();
        assert!(v.has_type(&ty));
        assert_eq!(ty, Type::set(Type::prod(Type::Ur, Type::set(Type::Ur))));
    }
}
