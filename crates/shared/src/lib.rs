//! # nrs-shared
//!
//! Hash-consed shared syntax nodes, factored out of `nrs-delta0` so every
//! syntax layer (the Δ0 formulas/terms, the first-order formulas of
//! `nrs-fol`, and any future calculus) can share one implementation.
//!
//! [`Shared<T>`] is the handle used for the children of syntax trees: an
//! 8-byte reference to an immortal node carrying a cached structural hash, a
//! cached node count, and a lazily cached free-variable set (with its
//! suffix bound, below).  Nodes are
//! **interned**: every `Shared::new` consults a global per-type table and
//! returns the existing node when a structurally equal one exists.  The
//! payoff, relied on throughout the provers' hot paths:
//!
//! * `clone` is a pointer copy, and a handle has no drop glue — copying or
//!   dropping a sequent's side touches no reference count;
//! * `Hash` is O(1) (the cached hash is written out);
//! * `==` is O(1) (interning makes structural equality pointer equality);
//! * free-variable queries are O(log |vars|) after the first computation,
//!   which lets substitution and term replacement skip entire subtrees that
//!   cannot contain the variable being rewritten.
//!
//! `Ord` remains a structural comparison (with a pointer-equality fast path)
//! so that `BTreeSet`/sorted-`Vec` orderings are identical to a `Box`-based
//! representation, and the serialized form is transparent — the wire format
//! is unchanged.
//!
//! # Immortal nodes
//!
//! The intern tables leak each new node once (`Box::leak`) and keep
//! `&'static` entries, as the `Name` interner in `nrs-value` does for
//! strings: a node lives for the rest of the process, whether or not a
//! handle to it is still held.  That is what makes a handle a plain pointer,
//! and it makes pointer identity structural identity unconditionally (no
//! node is ever freed and re-created at another address).
//!
//! The trade-off is that the tables only grow: a process that keeps
//! building *new* formulas keeps all of them.  The proof search builds few
//! distinct nodes — deriving the whole synthesis mix of the benchmarks
//! (partition with 0–2 redundant constraints and the overlapping workloads)
//! interns about a thousand nodes of all types, and deriving it again adds
//! none (`crates/core/tests/intern_growth.rs` checks this).
//! [`interned_nodes`] reports a table's size.
//!
//! # The structural hash
//!
//! A node's hash is the [`FxHasher`] hash of its value — one multiply and
//! rotate per word written, where a compound value writes its children's
//! cached hashes — passed through the murmur3 finalizer `fmix64`
//! ([`structural_hash`]).  The finalizer is what makes the hash usable as
//! an index: each intern table is split into 32 locked shards picked by
//! the hash's low five bits, which an Fx hash alone mixes poorly.  Neither function resists adversarial input:
//! a specification built so that many of its nodes share one 64-bit hash
//! would make interning them scan one long bucket — slower, but with the
//! same nodes, since a bucket is searched by structural equality.
//!
//! # The suffix bound
//!
//! Besides its free-variable set, a node caches [`Shared::suffix_bound`]:
//! one past the largest numeric `#` suffix ([`Name::numeric_suffix`]) among
//! its free variables, or 0 — where a [`nrs_value::NameGen`] avoiding those
//! names starts counting, read as one word, so the prover finds a
//! fresh eigenvariable for a sequent from one word per formula instead of
//! walking name sets.  Both are computed together, once per node.

mod fx;

pub use fx::{structural_hash, FxBuildHasher, FxHasher};

use nrs_value::name::suffix_bound;
use nrs_value::Name;
use serde::{Content, Deserialize, Error, Serialize};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently locked shards per intern table (a power of two).
const SHARDS: usize = 32;

/// The shared payload of a hash-consed node.
#[derive(Debug)]
pub struct Node<T> {
    hash: u64,
    size: u32,
    free_vars: OnceLock<FreeVars>,
    value: T,
}

/// A node's free variables and their suffix bound, computed together.
#[derive(Debug)]
struct FreeVars {
    set: Arc<BTreeSet<Name>>,
    suffix_bound: u64,
}

/// Types that can be hash-consed by [`Shared`].
pub trait HashConsed: Clone + Eq + Hash + Send + Sync + Sized + 'static {
    /// The global intern table for this type.
    fn intern_table() -> &'static InternTable<Self>;
    /// Free variables of a node, computed from the (already cached) sets of
    /// its children — called at most once per interned node.
    fn compute_free_vars(&self) -> Arc<BTreeSet<Name>>;
    /// Structural node count, computed from the cached sizes of children.
    fn compute_size(&self) -> usize;
}

/// A handle to an interned, immortal syntax node.  See the crate docs.
pub struct Shared<T: HashConsed>(&'static Node<T>);

impl<T: HashConsed> Shared<T> {
    /// Intern a value: return the existing node when a structurally equal one
    /// exists, otherwise allocate (and remember) a new one.
    pub fn new(value: T) -> Shared<T> {
        T::intern_table().intern(structural_hash(&value), value)
    }

    /// The cached structural hash of the subtree.
    pub fn hash64(&self) -> u64 {
        self.0.hash
    }

    /// The cached structural size (node count) of the subtree.
    pub fn size(&self) -> usize {
        self.0.size as usize
    }

    /// The underlying value.
    pub fn value(&self) -> &T {
        &self.0.value
    }

    /// The free variables of the subtree (computed once, then cached).
    pub fn free_vars_set(&self) -> &Arc<BTreeSet<Name>> {
        &self.free_vars().set
    }

    /// One past the largest numeric `#` suffix among the subtree's free
    /// variables, or 0 ([`nrs_value::name::suffix_bound`] of
    /// [`Shared::free_vars_set`]; computed with it, then cached).
    pub fn suffix_bound(&self) -> u64 {
        self.free_vars().suffix_bound
    }

    fn free_vars(&self) -> &FreeVars {
        self.0.free_vars.get_or_init(|| {
            let set = self.0.value.compute_free_vars();
            FreeVars {
                suffix_bound: suffix_bound(set.iter()),
                set,
            }
        })
    }

    /// Do two handles point at the very same node?  Because every handle is
    /// interned, this is *equivalent* to structural equality.
    pub fn ptr_eq(&self, other: &Shared<T>) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

/// The empty free-variable set, shared by all leaf nodes.
pub fn empty_name_set() -> Arc<BTreeSet<Name>> {
    static EMPTY: OnceLock<Arc<BTreeSet<Name>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(BTreeSet::new())).clone()
}

/// Union of two shared name sets, reusing an operand's `Arc` when it already
/// subsumes the other side (the common case when merging child caches).
pub fn union_name_sets(a: &Arc<BTreeSet<Name>>, b: &Arc<BTreeSet<Name>>) -> Arc<BTreeSet<Name>> {
    if b.is_subset(a) {
        a.clone()
    } else if a.is_subset(b) {
        b.clone()
    } else {
        Arc::new(a.union(b).copied().collect())
    }
}

impl<T: HashConsed> From<T> for Shared<T> {
    /// Intern a value (see [`Shared::new`]).
    fn from(value: T) -> Shared<T> {
        Shared::new(value)
    }
}

impl<T: HashConsed> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(self.0)
    }
}

impl<T: HashConsed> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        // Interning guarantees at most one node per structural value, so
        // pointer equality *is* structural equality.
        self.ptr_eq(other)
    }
}

impl<T: HashConsed> Eq for Shared<T> {}

impl<T: HashConsed + Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: HashConsed + Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.ptr_eq(other) {
            return std::cmp::Ordering::Equal;
        }
        self.0.value.cmp(&other.0.value)
    }
}

impl<T: HashConsed> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl<T: HashConsed> std::ops::Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: HashConsed + fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: HashConsed + fmt::Display> fmt::Display for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: HashConsed + Serialize> Serialize for Shared<T> {
    fn serialize(&self) -> Content {
        self.0.value.serialize()
    }
}

impl<T: HashConsed + Deserialize> Deserialize for Shared<T> {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        T::deserialize(content).map(Shared::new)
    }
}

// ---------------------------------------------------------------------------
// The intern table
// ---------------------------------------------------------------------------

/// One shard: the interned nodes by structural hash (colliding hashes share a
/// bucket).
type Shard<T> = HashMap<u64, Vec<&'static Node<T>>, FxBuildHasher>;

/// A sharded intern table of immortal nodes; one static instance exists per
/// consed type.
pub struct InternTable<T: 'static> {
    shards: [Mutex<Shard<T>>; SHARDS],
}

impl<T: HashConsed> Default for InternTable<T> {
    fn default() -> Self {
        InternTable {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        }
    }
}

impl<T: HashConsed> InternTable<T> {
    fn intern(&self, hash: u64, value: T) -> Shared<T> {
        let shard = &self.shards[(hash as usize) & (SHARDS - 1)];
        let mut guard = shard.lock().expect("intern table poisoned");
        let bucket = guard.entry(hash).or_default();
        if let Some(node) = bucket.iter().find(|node| node.value == value) {
            tally(1, 0);
            return Shared(node);
        }
        tally(0, 1);
        let node: &'static Node<T> = Box::leak(Box::new(Node {
            hash,
            size: value.compute_size().min(u32::MAX as usize) as u32,
            free_vars: OnceLock::new(),
            value,
        }));
        bucket.push(node);
        Shared(node)
    }
}

/// The number of `T` nodes interned so far in this process (the tables only
/// grow).
pub fn interned_nodes<T: HashConsed>() -> usize {
    let shards = &T::intern_table().shards;
    shards
        .iter()
        .map(|shard| {
            shard
                .lock()
                .expect("intern table poisoned")
                .values()
                .map(Vec::len)
                .sum::<usize>()
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Interner statistics (per thread)
// ---------------------------------------------------------------------------

/// Interner hit/miss counters for the **current thread** (a hit is a
/// `Shared::new` that found an existing node).  Thread-local so that a
/// prover worker can attribute interner traffic to its own search exactly,
/// even when sessions run goals in parallel.  The counters are global across
/// all consed types — they measure interner *traffic*, not per-type tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Constructions that reused an existing node.
    pub hits: u64,
    /// Constructions that allocated a fresh node.
    pub misses: u64,
}

thread_local! {
    static STATS: Cell<InternStats> = const { Cell::new(InternStats { hits: 0, misses: 0 }) };
}

fn tally(hits: u64, misses: u64) {
    STATS.with(|s| {
        let cur = s.get();
        s.set(InternStats {
            hits: cur.hits + hits,
            misses: cur.misses + misses,
        });
    });
}

/// Snapshot the current thread's interner counters (monotone; subtract two
/// snapshots to attribute traffic to a region of work).
pub fn intern_stats() -> InternStats {
    STATS.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal cons-able tree for exercising the table generically; the
    /// real syntax types live in `nrs-delta0` and `nrs-fol` (whose test
    /// suites cover interning through their constructors).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Tree {
        Leaf(Name),
        Pair(Shared<Tree>, Shared<Tree>),
    }

    static TREE_TABLE: OnceLock<InternTable<Tree>> = OnceLock::new();

    impl HashConsed for Tree {
        fn intern_table() -> &'static InternTable<Tree> {
            TREE_TABLE.get_or_init(InternTable::default)
        }
        fn compute_free_vars(&self) -> Arc<BTreeSet<Name>> {
            match self {
                Tree::Leaf(n) => Arc::new([*n].into_iter().collect()),
                Tree::Pair(a, b) => union_name_sets(a.free_vars_set(), b.free_vars_set()),
            }
        }
        fn compute_size(&self) -> usize {
            match self {
                Tree::Leaf(_) => 1,
                Tree::Pair(a, b) => 1 + a.size() + b.size(),
            }
        }
    }

    fn leaf(n: &str) -> Shared<Tree> {
        Shared::new(Tree::Leaf(Name::new(n)))
    }

    #[test]
    fn interning_dedupes_and_caches() {
        let a = Shared::new(Tree::Pair(leaf("shared_lib_x"), leaf("shared_lib_y")));
        let b = Shared::new(Tree::Pair(leaf("shared_lib_x"), leaf("shared_lib_y")));
        assert!(a.ptr_eq(&b));
        assert_eq!(a.hash64(), b.hash64());
        assert_eq!(a.size(), 3);
        let fv = a.free_vars_set();
        assert!(fv.contains(&Name::new("shared_lib_x")));
        assert!(Arc::ptr_eq(fv, a.free_vars_set()));
    }

    #[test]
    fn counters_and_reinterning() {
        let before = intern_stats();
        let nodes = interned_nodes::<Tree>();
        let t = leaf("shared_lib_unique_probe");
        let mid = intern_stats();
        assert!(mid.misses > before.misses);
        assert!(interned_nodes::<Tree>() > nodes);
        let u = leaf("shared_lib_unique_probe");
        assert!(intern_stats().hits > mid.hits);
        assert_eq!(t, u);
        // nodes are immortal: interning the value again after its handles are
        // gone returns the very same node
        let addr: *const Tree = leaf("shared_lib_other_probe").value();
        assert!(std::ptr::eq(addr, leaf("shared_lib_other_probe").value()));
    }

    #[test]
    fn handles_are_one_word_without_drop_glue() {
        assert_eq!(std::mem::size_of::<Shared<Tree>>(), 8);
        assert!(!std::mem::needs_drop::<Shared<Tree>>());
        assert!(!std::mem::needs_drop::<Option<Shared<Tree>>>());
    }

    /// The structural hash spreads thousands of distinct nodes evenly over
    /// the 32 shards (no shard holds more than twice its share) and into
    /// distinct buckets (no bucket holds more than 2 nodes).
    #[test]
    fn interning_hashes_spread_over_shards_and_buckets() {
        let leaves: Vec<Shared<Tree>> = (0..2048)
            .map(|i| leaf(&format!("shared_lib_spread_{i}")))
            .collect();
        let mut nodes = leaves.clone();
        nodes.extend(
            leaves
                .windows(2)
                .map(|w| Shared::new(Tree::Pair(w[0].clone(), w[1].clone()))),
        );
        let mut shards = [0usize; SHARDS];
        for node in &nodes {
            shards[(node.hash64() as usize) & (SHARDS - 1)] += 1;
        }
        let share = nodes.len() / SHARDS;
        assert!(
            shards.iter().all(|&n| n <= 2 * share),
            "shard loads {shards:?} against a share of {share}"
        );
        for shard in &Tree::intern_table().shards {
            let shard = shard.lock().expect("intern table poisoned");
            let fullest = shard.values().map(Vec::len).max().unwrap_or(0);
            assert!(fullest <= 2, "a bucket holds {fullest} nodes");
        }
    }

    #[test]
    fn empty_set_is_shared_and_unions_reuse_arcs() {
        let e1 = empty_name_set();
        let e2 = empty_name_set();
        assert!(Arc::ptr_eq(&e1, &e2));
        let a: Arc<BTreeSet<Name>> = Arc::new([Name::new("a")].into_iter().collect());
        let ab: Arc<BTreeSet<Name>> =
            Arc::new([Name::new("a"), Name::new("b")].into_iter().collect());
        assert!(Arc::ptr_eq(&union_name_sets(&a, &ab), &ab));
        assert!(Arc::ptr_eq(&union_name_sets(&ab, &a), &ab));
        let c: Arc<BTreeSet<Name>> = Arc::new([Name::new("c")].into_iter().collect());
        assert_eq!(union_name_sets(&a, &c).len(), 2);
    }
}
