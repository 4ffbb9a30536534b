//! Persistent ordered maps: path-copying B-trees of `Arc`-shared sorted
//! chunks.
//!
//! A [`PMap`] is a B+-tree whose entries live in sorted leaf chunks of at
//! most 64 entries; branch nodes hold up to 32 child pointers plus
//! separator keys.  Every child is an `Arc`, so a clone is one
//! reference-count bump, and a mutation copies only the nodes on the path
//! it walks (`Arc::make_mut`): a node that no other version shares is
//! updated in place, a shared one is copied once and the copy is mutated.
//! An update of `k` keys therefore copies `O(k log n)` nodes however many
//! versions of the map are alive.
//!
//! Chunked leaves keep the per-entry footprint close to a flat array (the
//! node headers amortize over up to 64 entries) and make in-order iteration
//! a slice walk; [`Walk::seek`] moves a cursor forward to the first entry at
//! or after a key, binary-searching the current chunk before re-descending
//! from the root.  [`PMap::from_sorted`] builds a tree bottom-up from
//! sorted input in `O(n)`.
//!
//! The map is the representation behind [`SetValue`][crate::SetValue] (a
//! `PMap<Value, ()>`) and behind the maintenance engine's per-operator
//! state, so every maintained structure clones in `O(1)`.

use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Most entries a leaf chunk holds before it splits.
const LEAF_MAX: usize = 64;
/// Fewest entries a non-root leaf keeps before it borrows or merges.
const LEAF_MIN: usize = LEAF_MAX / 4;
/// Most children a branch node holds before it splits.
const BRANCH_MAX: usize = 32;
/// Fewest children a non-root branch keeps before it borrows or merges.
const BRANCH_MIN: usize = BRANCH_MAX / 4;
/// Branch levels a [`Walk`] can record.  Non-root branches have at least
/// `BRANCH_MIN` children and non-root leaves at least `LEAF_MIN` entries,
/// so a tree this deep would hold more than `2⁴⁷` entries — more than fit
/// in memory.
const MAX_DEPTH: usize = 16;
// a walk records child indices as `u8`
const _: () = assert!(BRANCH_MAX < u8::MAX as usize);

#[derive(Clone)]
enum Node<K, V> {
    /// Sorted entries, `LEAF_MIN..=LEAF_MAX` of them unless the leaf is the
    /// root.
    Leaf(Vec<(K, V)>),
    /// `kids[j]` holds the keys `keys[j - 1] <= k < keys[j]`.
    Branch { keys: Vec<K>, kids: Kids<K, V> },
}

/// The shared root record: entry count, the root node, and a hash slot
/// that [`SetValue`][crate::SetValue] uses for its cached structural hash
/// (every mutation through [`PMap`] clears it).
#[derive(Clone)]
struct Top<K, V> {
    len: usize,
    hash: OnceLock<u64>,
    node: Node<K, V>,
}

/// A persistent ordered map (see the module docs).  `PMap::default()` is
/// the empty map and allocates nothing.
pub struct PMap<K, V> {
    top: Option<Arc<Top<K, V>>>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            top: self.top.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { top: None }
    }
}

impl<K, V> Node<K, V> {
    fn underfull(&self) -> bool {
        match self {
            Node::Leaf(items) => items.len() < LEAF_MIN,
            Node::Branch { kids, .. } => kids.len() < BRANCH_MIN,
        }
    }
}

/// The separator and right half of a split node.
type Split<K, V> = Option<(K, Node<K, V>)>;

/// A branch's children.
type Kids<K, V> = Vec<Arc<Node<K, V>>>;

/// Child index of `key` in a branch with separators `keys`.
fn child_of<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], key: &Q) -> usize {
    keys.partition_point(|s| s.borrow() <= key)
}

/// Insert into a `Vec` without letting its capacity run ahead of its
/// length: chunks are copied on write, and a doubled buffer would be
/// copied (and kept) with them.
fn insert_exact<T>(v: &mut Vec<T>, i: usize, x: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(1);
    }
    v.insert(i, x);
}

/// Split an over-full node in two halves, returning the separator and the
/// right half.
fn split<K: Clone, V>(node: &mut Node<K, V>) -> (K, Node<K, V>) {
    match node {
        Node::Leaf(items) => {
            let right = items.split_off(items.len() / 2);
            items.shrink_to_fit();
            (right[0].0.clone(), Node::Leaf(right))
        }
        Node::Branch { keys, kids } => {
            let mid = kids.len() / 2;
            let rkids = kids.split_off(mid);
            let rkeys = keys.split_off(mid);
            let sep = keys.pop().expect("a split branch has separators");
            keys.shrink_to_fit();
            kids.shrink_to_fit();
            (
                sep,
                Node::Branch {
                    keys: rkeys,
                    kids: rkids,
                },
            )
        }
    }
}

fn overfull<K, V>(node: &Node<K, V>) -> bool {
    match node {
        Node::Leaf(items) => items.len() > LEAF_MAX,
        Node::Branch { kids, .. } => kids.len() > BRANCH_MAX,
    }
}

/// Insert below `node` (uniquely borrowed: its path is already copied);
/// returns the replaced value and the right half of a split.
fn insert_in<K: Ord + Clone, V: Clone>(
    node: &mut Node<K, V>,
    key: K,
    val: V,
) -> (Option<V>, Split<K, V>) {
    let old = match node {
        Node::Leaf(items) => match items.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => return (Some(std::mem::replace(&mut items[i].1, val)), None),
            Err(i) => {
                insert_exact(items, i, (key, val));
                None
            }
        },
        Node::Branch { keys, kids } => {
            let i = child_of(keys, &key);
            let (old, split) = insert_in(Arc::make_mut(&mut kids[i]), key, val);
            if let Some((sep, right)) = split {
                insert_exact(keys, i, sep);
                insert_exact(kids, i + 1, Arc::new(right));
            }
            old
        }
    };
    let split = overfull(node).then(|| split(node));
    (old, split)
}

/// Remove `key` below `node` (uniquely borrowed), rebalancing any child
/// that falls under its minimum.
fn remove_in<K, V, Q>(node: &mut Node<K, V>, key: &Q) -> Option<(K, V)>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    match node {
        Node::Leaf(items) => {
            let i = items.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
            Some(items.remove(i))
        }
        Node::Branch { keys, kids } => {
            let i = child_of(keys, key);
            let out = remove_in(Arc::make_mut(&mut kids[i]), key)?;
            if kids[i].underfull() {
                rebalance(keys, kids, i);
            }
            Some(out)
        }
    }
}

/// Repair the under-full child `i` of a branch: merge it with a sibling, or
/// — when the two would overflow one node — split their entries evenly.
fn rebalance<K: Ord + Clone, V: Clone>(keys: &mut Vec<K>, kids: &mut Kids<K, V>, i: usize) {
    let l = i.saturating_sub(1);
    let sep = keys.remove(l);
    let right = Arc::unwrap_or_clone(kids.remove(l + 1));
    let left = Arc::make_mut(&mut kids[l]);
    match (&mut *left, right) {
        (Node::Leaf(a), Node::Leaf(b)) => {
            a.reserve_exact(b.len());
            a.extend(b);
        }
        (Node::Branch { keys: ak, kids: ac }, Node::Branch { keys: bk, kids: bc }) => {
            ak.reserve_exact(bk.len() + 1);
            ak.push(sep);
            ak.extend(bk);
            ac.reserve_exact(bc.len());
            ac.extend(bc);
        }
        _ => unreachable!("invariant: siblings sit on the same level"),
    }
    if overfull(left) {
        let (sep, right) = split(left);
        keys.insert(l, sep);
        kids.insert(l + 1, Arc::new(right));
    }
}

fn get_mut_in<'a, K, V, Q>(node: &'a mut Node<K, V>, key: &Q) -> Option<&'a mut V>
where
    K: Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    match node {
        Node::Leaf(items) => {
            let i = items.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
            Some(&mut items[i].1)
        }
        Node::Branch { keys, kids } => {
            let i = child_of(keys, key);
            get_mut_in(Arc::make_mut(&mut kids[i]), key)
        }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// The empty map (no allocation).
    pub const fn new() -> PMap<K, V> {
        PMap { top: None }
    }

    /// Number of entries, `O(1)`.
    pub fn len(&self) -> usize {
        self.top.as_ref().map_or(0, |t| t.len)
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.top.is_none()
    }

    /// Do two maps share their root (and hence every entry)?  Two empty
    /// maps do.
    pub fn ptr_eq(&self, other: &PMap<K, V>) -> bool {
        match (&self.top, &other.top) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &self.top.as_ref()?.node;
        loop {
            match node {
                Node::Leaf(items) => {
                    return items
                        .binary_search_by(|(k, _)| k.borrow().cmp(key))
                        .ok()
                        .map(|i| &items[i].1)
                }
                Node::Branch { keys, kids } => node = &kids[child_of(keys, key)],
            }
        }
    }

    /// Is `key` present?
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// The root record, copied first if another version shares it, with
    /// its cached hash cleared.
    fn top_mut(&mut self) -> Option<&mut Top<K, V>> {
        let top = Arc::make_mut(self.top.as_mut()?);
        top.hash.take();
        Some(top)
    }

    /// Mutable access to the value under `key`, copying the path to it.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // a miss must not copy anything
        self.get(key)?;
        get_mut_in(&mut self.top_mut()?.node, key)
    }

    /// Insert or replace; returns the previous value.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let Some(top) = self.top_mut() else {
            self.top = Some(Arc::new(Top {
                len: 1,
                hash: OnceLock::new(),
                node: Node::Leaf(vec![(key, val)]),
            }));
            return None;
        };
        let (old, split) = insert_in(&mut top.node, key, val);
        if let Some((sep, right)) = split {
            let left = std::mem::replace(&mut top.node, Node::Leaf(Vec::new()));
            top.node = Node::Branch {
                keys: vec![sep],
                kids: vec![Arc::new(left), Arc::new(right)],
            };
        }
        if old.is_none() {
            top.len += 1;
        }
        old
    }

    /// Remove `key`; returns its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // a miss must not copy anything
        self.get(key)?;
        let top = self.top_mut()?;
        let (_, val) = remove_in(&mut top.node, key)?;
        top.len -= 1;
        if top.len == 0 {
            self.top = None;
        } else if let Node::Branch { kids, .. } = &mut top.node {
            if kids.len() == 1 {
                let only = kids.pop().expect("one child");
                top.node = Arc::unwrap_or_clone(only);
            }
        }
        Some(val)
    }

    /// Build from entries in strictly increasing key order, bottom-up, in
    /// `O(n)`: leaves are packed full (the last two share out their
    /// entries if the last would fall under the minimum), then each branch
    /// level is packed the same way over the one below.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> PMap<K, V> {
        let entries = entries.into_iter();
        // small inputs (the common case: singletons, Booleans) get a chunk
        // of exactly their size
        let (lower, upper) = entries.size_hint();
        let mut cur = Vec::with_capacity(upper.unwrap_or(lower).clamp(1, LEAF_MAX));
        let mut full: Vec<Vec<(K, V)>> = Vec::new();
        let mut len = 0;
        for e in entries {
            debug_assert!(
                cur.last()
                    .or_else(|| full.last().and_then(|l| l.last()))
                    .is_none_or(|(k, _): &(K, V)| *k < e.0),
                "PMap::from_sorted needs strictly increasing keys"
            );
            if cur.len() == LEAF_MAX {
                cur.shrink_to_fit();
                full.push(std::mem::replace(&mut cur, Vec::with_capacity(LEAF_MAX)));
            }
            cur.push(e);
            len += 1;
        }
        if len == 0 {
            return PMap::new();
        }
        cur.shrink_to_fit();
        let Some(prev) = full.last_mut() else {
            return PMap::with_root(len, Node::Leaf(cur));
        };
        if cur.len() < LEAF_MIN {
            // even out the last two chunks
            let mut last = prev.split_off((prev.len() + cur.len()) / 2);
            prev.shrink_to_fit();
            last.reserve_exact(cur.len());
            last.append(&mut cur);
            cur = last;
        }
        full.push(cur);
        let mut level: Vec<(K, Arc<Node<K, V>>)> = full
            .into_iter()
            .map(|items| (items[0].0.clone(), Arc::new(Node::Leaf(items))))
            .collect();
        while level.len() > BRANCH_MAX {
            level = pack(level);
        }
        let (keys, kids) = unzip_branch(level);
        PMap::with_root(len, Node::Branch { keys, kids })
    }

    /// [`from_sorted`][PMap::from_sorted] of a vector, which becomes the
    /// one chunk as is when it fits in one.
    pub fn from_sorted_vec(mut entries: Vec<(K, V)>) -> PMap<K, V> {
        match entries.len() {
            0 => PMap::new(),
            len if len <= LEAF_MAX => {
                entries.shrink_to_fit();
                PMap::with_root(len, Node::Leaf(entries))
            }
            _ => PMap::from_sorted(entries),
        }
    }

    fn with_root(len: usize, node: Node<K, V>) -> PMap<K, V> {
        PMap {
            top: Some(Arc::new(Top {
                len,
                hash: OnceLock::new(),
                node,
            })),
        }
    }

    /// In-order iteration over the entries.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            walk: self.walk(),
            remaining: self.len(),
        }
    }

    /// A forward cursor at the first entry.
    pub fn walk(&self) -> Walk<'_, K, V> {
        let mut w = Walk {
            root: self.top.as_deref().map(|t| &t.node),
            leaf: [].iter(),
            kids: [None; MAX_DEPTH],
            at: [0; MAX_DEPTH],
            depth: 0,
        };
        if let Some(root) = w.root {
            w.descend(root, |_| 0);
        }
        w
    }

    /// The cached hash slot of the root (see [`Top`]).
    pub(crate) fn hash_slot(&self) -> Option<&OnceLock<u64>> {
        self.top.as_deref().map(|t| &t.hash)
    }

    /// Set the cached hash of a root no other version shares — the state
    /// right after a mutation.
    pub(crate) fn set_hash(&mut self, hash: u64) {
        if let Some(top) = self.top.as_mut().and_then(Arc::get_mut) {
            top.hash = OnceLock::from(hash);
        }
    }
}

/// Group one level of `(min key, node)` pairs into branches of at most
/// `BRANCH_MAX` children each, evenly.
fn pack<K: Clone, V>(level: Vec<(K, Arc<Node<K, V>>)>) -> Vec<(K, Arc<Node<K, V>>)> {
    let groups = level.len().div_ceil(BRANCH_MAX);
    let (base, extra) = (level.len() / groups, level.len() % groups);
    let mut it = level.into_iter();
    (0..groups)
        .map(|g| {
            let take = base + usize::from(g < extra);
            let group: Vec<_> = it.by_ref().take(take).collect();
            let min = group[0].0.clone();
            let (keys, kids) = unzip_branch(group);
            (min, Arc::new(Node::Branch { keys, kids }))
        })
        .collect()
}

/// Separators and children of a branch over `(min key, child)` pairs.
fn unzip_branch<K, V>(group: Vec<(K, Arc<Node<K, V>>)>) -> (Vec<K>, Vec<Arc<Node<K, V>>>) {
    let mut keys = Vec::with_capacity(group.len() - 1);
    let mut kids = Vec::with_capacity(group.len());
    for (i, (min, kid)) in group.into_iter().enumerate() {
        if i > 0 {
            keys.push(min);
        }
        kids.push(kid);
    }
    (keys, kids)
}

/// A forward cursor over a [`PMap`]: the current leaf's remaining entries
/// plus the branch path above it, kept in fixed arrays so walking never
/// allocates.
pub struct Walk<'a, K, V> {
    root: Option<&'a Node<K, V>>,
    leaf: std::slice::Iter<'a, (K, V)>,
    /// The children of each branch on the path (`depth` levels of them)…
    kids: [Option<&'a Kids<K, V>>; MAX_DEPTH],
    /// …and the index of the child the walk is in, per level.
    at: [u8; MAX_DEPTH],
    depth: usize,
}

impl<K, V> Clone for Walk<'_, K, V> {
    fn clone(&self) -> Self {
        Walk {
            root: self.root,
            leaf: self.leaf.clone(),
            kids: self.kids,
            at: self.at,
            depth: self.depth,
        }
    }
}

impl<'a, K, V> Walk<'a, K, V> {
    /// Descend from `node` to a leaf, choosing each child with `pick`
    /// (given the branch separators), and stand at the leaf's start.
    fn descend(&mut self, mut node: &'a Node<K, V>, pick: impl Fn(&[K]) -> usize) {
        loop {
            match node {
                Node::Leaf(items) => {
                    self.leaf = items.iter();
                    break;
                }
                Node::Branch { keys, kids } => {
                    let i = pick(keys);
                    self.kids[self.depth] = Some(kids);
                    self.at[self.depth] = i as u8;
                    self.depth += 1;
                    node = &kids[i];
                }
            }
        }
    }

    /// Move to the first entry of the next leaf; `false` at the end.
    fn next_leaf(&mut self) -> bool {
        while self.depth > 0 {
            let d = self.depth - 1;
            let (kids, i) = (self.kids[d].expect("a recorded level"), self.at[d] as usize);
            if i + 1 < kids.len() {
                self.at[d] += 1;
                self.descend(&kids[i + 1], |_| 0);
                return true;
            }
            self.depth -= 1;
        }
        false
    }

    /// The entry the next [`Iterator::next`] returns.
    pub fn peek(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.leaf.as_slice().first() {
                return Some((k, v));
            }
            if !self.next_leaf() {
                return None;
            }
        }
    }

    /// Skip forward to the first entry whose key is `>= key`.  The cursor
    /// never moves backwards: a key at or below the current entry leaves
    /// it where it is.  A merge walk mostly moves a step or two, so the
    /// next few entries are tried first; then a binary search of the
    /// current chunk; past it, one descent from the root.
    pub fn seek<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        const NEAR: usize = 4;
        // Stand on an entry first, so a drained chunk is never mistaken
        // for "the target lies past it" and re-descended to from the root.
        if self.peek().is_none() {
            return;
        }
        let rest = self.leaf.as_slice();
        if let Some(i) = rest.iter().take(NEAR).position(|(k, _)| k.borrow() >= key) {
            self.leaf = rest[i..].iter();
            return;
        }
        match rest.last() {
            Some((last, _)) if last.borrow() >= key => {
                let skip = NEAR + rest[NEAR..].partition_point(|(k, _)| k.borrow() < key);
                self.leaf = rest[skip..].iter();
            }
            _ => {
                // every entry left in the chunk is below the target, so
                // the first one at or after it lies in a later chunk
                let Some(root) = self.root else { return };
                self.depth = 0;
                self.descend(root, |keys| child_of(keys, key));
                let rest = self.leaf.as_slice();
                let skip = rest.partition_point(|(k, _)| k.borrow() < key);
                self.leaf = rest[skip..].iter();
            }
        }
    }
}

impl<'a, K, V> Iterator for Walk<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            if !self.next_leaf() {
                return None;
            }
        }
    }
}

/// In-order iterator over a [`PMap`]'s entries (exact length).
pub struct Iter<'a, K, V> {
    walk: Walk<'a, K, V>,
    remaining: usize,
}

impl<K, V> Clone for Iter<'_, K, V> {
    fn clone(&self) -> Self {
        Iter {
            walk: self.walk.clone(),
            remaining: self.remaining,
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.walk.next()?;
        self.remaining -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// The addresses of the leaf chunks, for sharing checks.
    pub(crate) fn leaves(&self) -> Vec<*const ()> {
        fn collect<K, V>(node: &Node<K, V>, out: &mut Vec<*const ()>) {
            if let Node::Branch { kids, .. } = node {
                for kid in kids {
                    if matches!(**kid, Node::Leaf(_)) {
                        out.push(Arc::as_ptr(kid).cast());
                    } else {
                        collect(kid, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if let Some(top) = &self.top {
            collect(&top.node, &mut out);
        }
        out
    }

    /// Check the structural invariants: sorted keys, separator bounds,
    /// node fill, uniform leaf depth and the cached length.
    pub(crate) fn check_invariants(&self) {
        fn walk<K: Ord, V>(
            node: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            if !root {
                assert!(!node.underfull(), "non-root node under its minimum");
            }
            assert!(!overfull(node), "node over its maximum");
            match node {
                Node::Leaf(items) => {
                    assert!(!items.is_empty(), "empty leaf");
                    assert_eq!(*leaf_depth.get_or_insert(depth), depth, "ragged leaves");
                    for w in items.windows(2) {
                        assert!(w[0].0 < w[1].0, "leaf keys out of order");
                    }
                    for (k, _) in items {
                        assert!(lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi));
                    }
                    items.len()
                }
                Node::Branch { keys, kids } => {
                    assert!(kids.len() >= 2, "branch with one child");
                    assert_eq!(keys.len() + 1, kids.len());
                    (0..kids.len())
                        .map(|j| {
                            let lo = if j == 0 { lo } else { Some(&keys[j - 1]) };
                            let hi = keys.get(j).or(hi);
                            walk(&kids[j], lo, hi, false, depth + 1, leaf_depth)
                        })
                        .sum()
                }
            }
        }
        if let Some(top) = &self.top {
            let n = walk(&top.node, None, None, true, 0, &mut None);
            assert_eq!(n, top.len, "cached length");
            assert!(n > 0, "empty maps have no root");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SetValue, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A value drawn from a universe of atoms, pairs and small nested sets,
    /// so members of every variant interleave in the order.
    fn draw(rng: &mut TestRng, universe: u64) -> Value {
        let x = rng.next_u64() % universe;
        match rng.next_u64() % 16 {
            0 => Value::pair(Value::atom(x), Value::atom(x % 7)),
            1 => Value::set([Value::atom(x), Value::atom(x / 2)]),
            _ => Value::atom(x),
        }
    }

    /// `{a, b}` rendered from the model, independently of `SetValue`.
    fn render(model: &BTreeSet<Value>) -> String {
        let items: Vec<String> = model.iter().map(Value::to_string).collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The persistent set agrees with the model on everything observable,
    /// and its tree satisfies the B-tree invariants.
    fn agree(
        set: &SetValue,
        model: &BTreeSet<Value>,
        rng: &mut TestRng,
    ) -> Result<(), TestCaseError> {
        set.tree().check_invariants();
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert!(set.iter().eq(model.iter()), "iteration order");
        prop_assert_eq!(set.iter().len(), model.len());
        prop_assert_eq!(set.iter().next(), model.first());
        let as_value = Value::Set(set.clone());
        prop_assert_eq!(as_value.to_string(), render(model));
        // a set built along another history (one bulk build) is equal,
        // hashes equal, and orders equal
        let rebuilt: SetValue = model.iter().cloned().collect();
        prop_assert!(*set == rebuilt);
        prop_assert_eq!(set.hash64(), rebuilt.hash64());
        prop_assert_eq!(set.cmp(&rebuilt), std::cmp::Ordering::Equal);
        // membership and seeks, including values outside the set
        let mut probes: Vec<Value> = (0..24).map(|_| draw(rng, 6000)).collect();
        probes.extend(model.iter().step_by(model.len() / 8 + 1).cloned());
        probes.sort();
        let mut cursor = set.cursor();
        for p in &probes {
            prop_assert_eq!(set.contains(p), model.contains(p));
            cursor.seek(p);
            prop_assert!(cursor.peek() == model.range(p..).next(), "seek to {p}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A random history of inserts, removes, bulk builds and set
        /// operations, large enough to split and merge leaves and branches,
        /// replayed against `BTreeSet<Value>`.  Clones taken along the way
        /// must never change.
        #[test]
        fn prop_persistent_set_matches_the_btreeset_model(seed in 0u64..1_000_000, universe in 50u64..6000) {
            let mut rng = TestRng::deterministic(&format!("pset {seed}"));
            let mut set = SetValue::empty();
            let mut model = BTreeSet::new();
            let mut held: Vec<(SetValue, BTreeSet<Value>)> = Vec::new();
            for step in 0..48 {
                match rng.next_u64() % 8 {
                    // grow by single inserts (splits)
                    0 | 1 => {
                        for _ in 0..rng.next_u64() % 600 {
                            let v = draw(&mut rng, universe);
                            prop_assert_eq!(set.insert(v.clone()), model.insert(v));
                        }
                    }
                    // shrink by single removes (merges and redistribution),
                    // mostly of present members
                    2 | 3 => {
                        for _ in 0..rng.next_u64() % 900 {
                            let v = if model.is_empty() || rng.next_u64().is_multiple_of(4) {
                                draw(&mut rng, universe)
                            } else {
                                let i = (rng.next_u64() as usize) % model.len();
                                model.iter().nth(i).cloned().expect("member")
                            };
                            prop_assert_eq!(set.remove(&v), model.remove(&v));
                        }
                    }
                    // bulk build from unsorted input with duplicates
                    4 => {
                        let n = rng.next_u64() % 4000;
                        let items: Vec<Value> = (0..n).map(|_| draw(&mut rng, universe)).collect();
                        model = items.iter().cloned().collect();
                        set = items.into_iter().collect();
                    }
                    // set algebra against another random set
                    5 | 6 => {
                        let n = rng.next_u64() % 3000;
                        let other_model: BTreeSet<Value> =
                            (0..n).map(|_| draw(&mut rng, universe)).collect();
                        let other = Value::from_set(other_model.clone());
                        let this = Value::Set(set.clone());
                        let (out, want): (Value, BTreeSet<Value>) = match rng.next_u64() % 3 {
                            0 => (this.union(&other).unwrap(), model.union(&other_model).cloned().collect()),
                            1 => (this.difference(&other).unwrap(), model.difference(&other_model).cloned().collect()),
                            _ => (this.intersection(&other).unwrap(), model.intersection(&other_model).cloned().collect()),
                        };
                        // the result orders against the operand as the models do
                        let other_set = other.as_set().unwrap();
                        prop_assert_eq!(out.as_set().unwrap().cmp(other_set), want.cmp(&other_model));
                        set = out.as_set().unwrap().clone();
                        model = want;
                    }
                    // hold a clone (a published snapshot)
                    _ => held.push((set.clone(), model.clone())),
                }
                if step % 6 == 0 {
                    agree(&set, &model, &mut rng)?;
                }
            }
            agree(&set, &model, &mut rng)?;
            for (snapshot, at) in &held {
                agree(snapshot, at, &mut rng)?;
            }
        }

        /// The general map: inserts that replace, `get_mut` edits and
        /// removes, against `BTreeMap`, with clones frozen along the way.
        #[test]
        fn prop_persistent_map_matches_the_btreemap_model(seed in 0u64..1_000_000) {
            let mut rng = TestRng::deterministic(&format!("pmap {seed}"));
            let mut map: PMap<u64, u64> = PMap::new();
            let mut model = std::collections::BTreeMap::new();
            let mut held = Vec::new();
            for step in 0..6000u64 {
                let k = rng.next_u64() % 3000;
                match rng.next_u64() % 5 {
                    0 | 1 => prop_assert_eq!(map.insert(k, step), model.insert(k, step)),
                    2 => {
                        if let Some(v) = map.get_mut(&k) {
                            *v += 1;
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v += 1;
                        }
                    }
                    3 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    _ => prop_assert_eq!(map.get(&k), model.get(&k)),
                }
                if step % 500 == 0 {
                    held.push((map.clone(), model.clone()));
                }
            }
            map.check_invariants();
            prop_assert!(map.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
            for (m, at) in &held {
                m.check_invariants();
                prop_assert!(m.iter().map(|(k, v)| (*k, *v)).eq(at.iter().map(|(k, v)| (*k, *v))));
            }
        }
    }

    #[test]
    fn bulk_builds_are_balanced_at_every_size() {
        for n in [
            0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 81, 2047, 2048, 2049, 2100, 70_000,
        ] {
            let m: PMap<u64, ()> = PMap::from_sorted((0..n).map(|i| (i, ())));
            m.check_invariants();
            assert_eq!(m.len(), n as usize);
            assert!(m.iter().map(|(k, _)| *k).eq(0..n));
        }
    }

    #[test]
    fn seeks_never_move_a_cursor_backwards() {
        // even keys only, so an odd target can fall between two chunks
        let m: PMap<u64, ()> = PMap::from_sorted((0..2000).map(|i| (2 * i, ())));
        // drain the first chunk with `next`: the walk still stands in it
        let mut walk = m.walk();
        let last = loop {
            let (k, _) = walk.next().unwrap();
            if walk.leaf.as_slice().is_empty() {
                break *k;
            }
        };
        walk.seek(&0);
        assert_eq!(walk.peek().map(|(k, _)| *k), Some(last + 2));
        walk.seek(&last);
        assert_eq!(walk.next().map(|(k, _)| *k), Some(last + 2));
        // a seek into the gap after a later chunk lands at that chunk's end
        let mut walk = m.walk();
        walk.seek(&(last + 2));
        let gap = walk.leaf.as_slice().last().unwrap().0 + 1;
        let mut walk = m.walk();
        walk.seek(&gap);
        walk.seek(&0);
        assert_eq!(walk.peek().map(|(k, _)| *k), Some(gap + 1));
        // at the end it stays at the end
        walk.seek(&u64::MAX);
        assert!(walk.peek().is_none());
        walk.seek(&0);
        assert!(walk.next().is_none());
    }

    #[test]
    fn a_one_member_update_copies_only_its_path() {
        let n = 100_000u64;
        let base: SetValue = (0..n).map(Value::atom).collect();
        let mut next = base.clone();
        next.insert(Value::atom(n + 1));
        next.remove(&Value::atom(17));
        // every leaf but the two touched ones is still shared
        let shared = |a: &SetValue, b: &SetValue| {
            let (la, lb) = (a.tree().leaves(), b.tree().leaves());
            la.iter().filter(|p| lb.contains(p)).count()
        };
        let total = base.tree().leaves().len();
        assert!(
            shared(&base, &next) >= total - 2,
            "{} of {total} leaves shared",
            shared(&base, &next)
        );
        assert_eq!(base.len(), n as usize);
        assert_eq!(next.len(), n as usize);
    }
}
