//! Nested relational values.
//!
//! A [`Value`] is an element of the interpretation of some [`Type`]: the unit
//! value, an atom, a pair, or a finite set.  Sets are kept sorted and
//! duplicate-free, so the representation is canonical: extensional equality
//! coincides with structural (`Eq`) equality, and iteration order is
//! deterministic.
//!
//! # Sharing
//!
//! Pairs and sets are **persistent**: `Pair` holds `Arc<Value>` children and
//! `Set` holds a [`SetValue`] — a path-copying B-tree of `Arc`-shared sorted
//! chunks ([`PMap`]) with an incrementally maintained structural hash.
//! `Value::clone` is therefore O(1) (reference-count bumps), which is what
//! lets the NRC evaluators rebind the same large sets in environment frames
//! millions of times, and lets a published snapshot hold every maintained
//! set while the writer keeps updating it: an insert or remove copies only
//! the `O(log n)` chunks on its path, never the whole set, however many
//! versions share it.  Equality, ordering, iteration order and the
//! serialized form are those of a sorted set: `SetValue` compares and orders
//! element-wise in order (with pointer-equality and cached-hash fast
//! paths), so extensional canonicity is preserved.  The empty set is a null
//! handle and allocates nothing; `true` (`{()}`) is one shared node.

use crate::error::ValueError;
use crate::pmap::{self, PMap};
use crate::types::Type;
use crate::Atom;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One member's contribution to a set's order-independent hash: the
/// member's hash diffused through splitmix64, so XOR-combining members does
/// not cancel structured patterns.
fn member_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A persistent, hash-cached set of values (see the module docs).
///
/// Cloning is O(1); [`insert`][SetValue::insert] and
/// [`remove`][SetValue::remove] copy the `O(log n)` nodes on their path when
/// another clone shares them and mutate in place when none does.
#[derive(Clone, Default)]
pub struct SetValue(PMap<Value, ()>);

impl SetValue {
    /// The empty set (a null handle: no allocation).
    pub const fn empty() -> SetValue {
        SetValue(PMap::new())
    }

    /// A set from members in strictly increasing order, built bottom-up in
    /// O(n).
    pub(crate) fn from_sorted(members: impl IntoIterator<Item = Value>) -> SetValue {
        SetValue(PMap::from_sorted(members.into_iter().map(|v| (v, ()))))
    }

    /// Number of members, O(1).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No members?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership, O(log n).
    pub fn contains(&self, v: &Value) -> bool {
        self.0.contains_key(v)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// A forward cursor at the smallest member, for merge walks.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor(self.0.walk())
    }

    /// Add a member; `false` (and nothing copied) if it was present.
    pub fn insert(&mut self, v: Value) -> bool {
        if self.contains(&v) {
            return false;
        }
        let hash = self.known_hash().map(|h| h ^ member_hash(&v));
        self.0.insert(v, ());
        if let Some(h) = hash {
            self.0.set_hash(h);
        }
        true
    }

    /// Drop a member; `false` (and nothing copied) if it was absent.
    pub fn remove(&mut self, v: &Value) -> bool {
        let hash = self.known_hash();
        if self.0.remove(v).is_none() {
            return false;
        }
        if let Some(h) = hash {
            self.0.set_hash(h ^ member_hash(v));
        }
        true
    }

    /// The hash if it is cached (the empty set's is always known: 0).
    fn known_hash(&self) -> Option<u64> {
        match self.0.hash_slot() {
            None => Some(0),
            Some(slot) => slot.get().copied(),
        }
    }

    /// The structural hash of the set: the XOR of its members' mixed hashes,
    /// so it does not depend on the order members arrived in.  Computed in
    /// O(n) on first use and cached; [`insert`][SetValue::insert] and
    /// [`remove`][SetValue::remove] keep a cached hash up to date in O(1).
    ///
    /// A pure function of the member set, so `a == b` implies
    /// `a.hash64() == b.hash64()`; the converse is (overwhelmingly likely but)
    /// not guaranteed, so the hash is only ever used as a fast *negative*.
    pub fn hash64(&self) -> u64 {
        match self.0.hash_slot() {
            None => 0,
            Some(slot) => *slot.get_or_init(|| self.iter().fold(0, |h, v| h ^ member_hash(v))),
        }
    }

    /// The underlying tree, for invariant checks.
    #[cfg(test)]
    pub(crate) fn tree(&self) -> &PMap<Value, ()> {
        &self.0
    }

    /// Do two handles share the very same tree?  (Two empty sets do.)
    pub fn ptr_eq(&self, other: &SetValue) -> bool {
        self.0.ptr_eq(&other.0)
    }
}

/// In-order iterator over a [`SetValue`]'s members.
#[derive(Clone)]
pub struct Iter<'a>(pmap::Iter<'a, Value, ()>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        self.0.next().map(|(v, _)| v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A forward cursor over a [`SetValue`]: [`seek`][Cursor::seek] to the
/// first member at or after a value, [`peek`][Cursor::peek] at it.
#[derive(Clone)]
pub struct Cursor<'a>(pmap::Walk<'a, Value, ()>);

impl<'a> Cursor<'a> {
    /// Skip forward to the first member `>= v`; a `v` at or below the
    /// current member leaves the cursor where it is.
    pub fn seek(&mut self, v: &Value) {
        self.0.seek(v);
    }

    /// The member under the cursor.
    pub fn peek(&mut self) -> Option<&'a Value> {
        self.0.peek().map(|(v, _)| v)
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        self.0.next().map(|(v, _)| v)
    }
}

impl<'a> IntoIterator for &'a SetValue {
    type Item = &'a Value;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl From<BTreeSet<Value>> for SetValue {
    fn from(elems: BTreeSet<Value>) -> Self {
        SetValue::from_sorted(elems)
    }
}

impl FromIterator<Value> for SetValue {
    /// Members in any order; duplicates collapse.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut members: Vec<Value> = iter.into_iter().collect();
        if !members.windows(2).all(|w| w[0] < w[1]) {
            members.sort_unstable();
            members.dedup();
        }
        // `(Value, ())` has `Value`'s layout, so this reuses the buffer
        let entries = members.into_iter().map(|v| (v, ())).collect();
        SetValue(PMap::from_sorted_vec(entries))
    }
}

impl PartialEq for SetValue {
    fn eq(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        if self.len() != other.len() {
            return false;
        }
        // Cached hashes are a cheap negative once both sides are warm.
        if let (Some(a), Some(b)) = (self.known_hash(), other.known_hash()) {
            if a != b {
                return false;
            }
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for SetValue {}

impl PartialEq<BTreeSet<Value>> for SetValue {
    fn eq(&self, other: &BTreeSet<Value>) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

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
            // Lexicographic on the canonical member sequence — the ordering
            // of a plain sorted set, which Display stability and serialized
            // artefacts rely on.
            self.iter().cmp(other.iter())
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
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Serialize for SetValue {
    fn serialize(&self) -> serde::Content {
        serde::Content::Seq(self.iter().map(Serialize::serialize).collect())
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

    /// A set value from an already canonical set (a `BTreeSet` is bulk
    /// built in O(n); a [`SetValue`] is wrapped as is).
    pub fn from_set(items: impl Into<SetValue>) -> Value {
        Value::Set(items.into())
    }

    /// The empty set (allocates nothing).
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

    /// The encoding of `true`: `{()} : Set(Unit)` — one shared node, so
    /// building it allocates nothing.
    pub fn bool_true() -> Value {
        static TRUE: OnceLock<SetValue> = OnceLock::new();
        Value::Set(
            TRUE.get_or_init(|| SetValue::from_sorted([Value::Unit]))
                .clone(),
        )
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

    /// View as a set (the shared handle: clones are O(1)).
    pub fn as_set(&self) -> Result<&SetValue, ValueError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// Copy the members out into a `BTreeSet` (O(n)).
    pub fn into_set(self) -> Result<BTreeSet<Value>, ValueError> {
        Ok(self.as_set()?.iter().cloned().collect())
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
        let (lhs, rhs) = (self.as_set()?, other.as_set()?);
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
        })
        // at most |lhs| + |rhs| members: saying so sizes the first chunk
        .take(lhs.len() + rhs.len());
        Ok(Value::Set(SetValue::from_sorted(merged.cloned())))
    }

    /// Set difference (errors if either value is not a set): one ordered
    /// walk of the left side against a cursor over the right, then a bulk
    /// build.
    pub fn difference(&self, other: &Value) -> Result<Value, ValueError> {
        let (lhs, rhs) = (self.as_set()?, other.as_set()?);
        if lhs.is_empty() || rhs.is_empty() {
            return Ok(Value::Set(lhs.clone()));
        }
        if lhs.ptr_eq(rhs) {
            return Ok(Value::empty_set());
        }
        let mut probe = rhs.cursor();
        let kept = lhs.iter().filter(|x| {
            probe.seek(x);
            probe.peek() != Some(*x)
        });
        Ok(Value::Set(SetValue::from_sorted(kept.cloned())))
    }

    /// Set intersection (errors if either value is not a set): the smaller
    /// side walked in order against a cursor over the larger, then a bulk
    /// build.
    pub fn intersection(&self, other: &Value) -> Result<Value, ValueError> {
        let (lhs, rhs) = (self.as_set()?, other.as_set()?);
        if lhs.ptr_eq(rhs) {
            return Ok(Value::Set(lhs.clone()));
        }
        let (small, large) = if lhs.len() <= rhs.len() {
            (lhs, rhs)
        } else {
            (rhs, lhs)
        };
        let mut probe = large.cursor();
        let kept = small.iter().filter(|x| {
            probe.seek(x);
            probe.peek() == Some(*x)
        });
        Ok(Value::Set(SetValue::from_sorted(kept.cloned())))
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
    fn insert_copies_on_write_and_updates_the_hash() {
        let mut a = Value::set([Value::atom(1), Value::atom(2)])
            .as_set()
            .unwrap()
            .clone();
        let warm = a.hash64();
        let shared = a.clone();
        // mutating through the shared handle leaves the sibling untouched
        assert!(a.insert(Value::atom(3)));
        assert!(!a.insert(Value::atom(3)), "already present");
        assert_eq!(a.len(), 3);
        assert_eq!(shared.len(), 2);
        assert!(!a.ptr_eq(&shared));
        assert_eq!(shared.hash64(), warm, "sibling keeps its cached hash");
        assert_ne!(a.hash64(), warm, "the edited set carries its own hash");
        assert_eq!(
            a.hash64(),
            Value::set([Value::atom(3), Value::atom(2), Value::atom(1)])
                .as_set()
                .unwrap()
                .hash64(),
            "the incrementally kept hash is the from-scratch one"
        );
        // sole-owner mutation is in place (no observable copy, same contract)
        drop(shared);
        assert!(a.remove(&Value::atom(3)));
        assert!(!a.remove(&Value::atom(3)), "already absent");
        assert_eq!(a.hash64(), warm, "removal restores the hash exactly");
        assert_eq!(
            Value::Set(a),
            Value::set([Value::atom(1), Value::atom(2)]),
            "canonical equality after in-place edits"
        );
    }

    #[test]
    fn empty_sets_and_booleans_share_one_representation() {
        // the empty set is a null handle: every empty is pointer-equal to
        // every other, so none of them allocated a node
        let empties = [
            SetValue::empty(),
            Value::empty_set().as_set().unwrap().clone(),
            Value::bool_false().as_set().unwrap().clone(),
            Value::set([]).as_set().unwrap().clone(),
        ];
        for e in &empties {
            assert!(e.ptr_eq(&empties[0]));
            assert_eq!(e.hash64(), 0);
        }
        // `true` is one shared node
        let (t1, t2) = (Value::bool_true(), Value::bool_true());
        assert!(t1.as_set().unwrap().ptr_eq(t2.as_set().unwrap()));
        assert_eq!(t1, Value::set([Value::Unit]));
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
