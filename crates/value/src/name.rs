//! Interned symbols.
//!
//! # Design
//!
//! [`Name`] is a `Copy` 4-byte handle into a process-wide string interner.
//! The prover's saturation loop copies names on every substitution,
//! specialization and sequent duplication; with the previous
//! `Name(pub String)` representation each of those copies was a heap
//! allocation on the hottest path of proof search.  Interning turns them into
//! word copies, and `Name` equality into an integer compare.
//!
//! The interner has two halves.  The *intern* path (string → id) is a global
//! `RwLock`-protected `HashMap`, taken only in [`Name::new`].  The *resolve*
//! path (id → string) is lock-free: ids index into an append-only chunked
//! table of `&'static str` published through atomic chunk pointers, so
//! [`Name::as_str`], `Display` and the unequal-id arm of `cmp` never touch a
//! lock — important because `BTreeMap`/`BTreeSet` operations over formulas
//! and sequents perform `Name::cmp` constantly on the prover's hot path.
//! Next to each string the table records the number after its last `#`
//! ([`Name::numeric_suffix`]), parsed once at interning: fresh-name
//! generation reads it for every free variable of a sequent at each ∀ step.
//! Interned strings are leaked (`Box::leak`); the table only ever grows, and
//! in this workload the universe of distinct names is small (variables,
//! schema objects, `prefix#counter` fresh names), so the leak is bounded and
//! deliberate.
//!
//! # Determinism guarantee
//!
//! The numeric ids depend on interning order and therefore on execution
//! order — two runs (or two threads) may assign different ids to the same
//! string.  Nothing observable is allowed to depend on the id:
//!
//! * **`Ord`/`PartialOrd` resolve through the interned string**, not the id,
//!   so `Name` ordering is lexicographic exactly as it was for
//!   `Name(String)`.  This is load-bearing: synthesized artefacts serialize
//!   `BTreeMap`/`BTreeSet` containers keyed by `Name`, and their byte
//!   reproducibility across runs requires an ordering that is a pure function
//!   of the strings.  A fast path short-circuits `cmp` when the ids are equal
//!   (equal id ⟺ equal string, since the table is deduplicated).
//! * **`Eq` compares ids** — sound for the same reason the fast path is: the
//!   interner never maps one string to two ids or two strings to one id.
//! * **`Hash` hashes the id**, which is consistent with `Eq` (all Rust
//!   requires) and fast, but — unlike `Ord` — *not* stable across processes.
//!   Hash-keyed containers are execution-local caches (e.g. the prover's
//!   memo table), never serialized artefacts, so this asymmetry is safe.
//! * **`serde` round-trips the string**: a `Name` serializes exactly like the
//!   `String` it denotes and deserializes by re-interning, so persisted data
//!   never sees an id.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of chunks in the resolve table; chunk `k` holds `FIRST << k`
/// entries, so 27 chunks cover every `u32` id.
const CHUNKS: usize = 27;
/// Size of chunk 0.
const FIRST: usize = 64;

/// One resolve-table slot: the interned string and its parsed `#` suffix.
#[derive(Clone, Copy)]
struct Entry {
    text: &'static str,
    suffix: Option<u64>,
}

/// The number after the last `#` of `s` — the whole of `s` when it has no
/// `#` — if that is a `u64`.
fn parse_suffix(s: &str) -> Option<u64> {
    s.rsplit('#').next().and_then(|r| r.parse::<u64>().ok())
}

/// The lock-free id → entry half of the interner: an append-only chunked
/// vector.  Chunks are allocated by writers (which are serialized by the
/// intern-path write lock) and published with `Release` stores; readers load
/// the chunk pointer with `Acquire`.  Slot writes are plain writes — a reader
/// can only hold an id after a happens-before edge with the write that
/// published it (the `RwLock` on the lookup map, or whatever synchronization
/// carried the `Name` between threads).
struct ResolveTable {
    chunks: [AtomicPtr<Entry>; CHUNKS],
}

/// Chunk index and offset for an id: chunk `k` covers
/// `[FIRST * (2^k - 1), FIRST * (2^(k+1) - 1))`.
fn locate(id: u32) -> (usize, usize) {
    let m = id as usize / FIRST + 1;
    let k = (usize::BITS - 1 - m.leading_zeros()) as usize;
    let start = FIRST * ((1 << k) - 1);
    (k, id as usize - start)
}

impl ResolveTable {
    const fn new() -> Self {
        ResolveTable {
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNKS],
        }
    }

    /// Record `s` at `id`.  Caller must hold the intern-path write lock and
    /// hand out ids densely (so every chunk before `id`'s is full).
    fn publish(&self, id: u32, s: &'static str) {
        let (k, off) = locate(id);
        let mut ptr = self.chunks[k].load(Ordering::Acquire);
        if ptr.is_null() {
            let empty = Entry {
                text: "",
                suffix: None,
            };
            let chunk: Box<[Entry]> = vec![empty; FIRST << k].into_boxed_slice();
            ptr = Box::into_raw(chunk) as *mut Entry;
            self.chunks[k].store(ptr, Ordering::Release);
        }
        let entry = Entry {
            text: s,
            suffix: parse_suffix(s),
        };
        // SAFETY: `off < FIRST << k` by `locate`, and no reader touches this
        // slot until `id` is published (see the type-level comment).
        unsafe { *ptr.add(off) = entry };
    }

    /// Resolve a previously published id without locking.
    fn get(&self, id: u32) -> Entry {
        let (k, off) = locate(id);
        let ptr = self.chunks[k].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "resolve of unpublished Name id {id}");
        // SAFETY: `id` was returned by `intern`, so its slot was written
        // before the id could reach us.
        unsafe { *ptr.add(off) }
    }
}

static RESOLVE: ResolveTable = ResolveTable::new();

/// The string → id half of the interner, plus the next id to hand out.
#[derive(Default)]
struct Lookup {
    map: HashMap<&'static str, u32>,
}

fn lookup() -> &'static RwLock<Lookup> {
    static LOOKUP: OnceLock<RwLock<Lookup>> = OnceLock::new();
    LOOKUP.get_or_init(|| RwLock::new(Lookup::default()))
}

fn intern(s: &str) -> u32 {
    // Poisoning is harmless here: the table is only ever appended to, and an
    // id is published to RESOLVE before it is inserted, so state observed
    // through a poisoned lock is still consistent.  Recover instead of
    // cascading a panic from an unrelated thread into every Name::new.
    // Fast path: already interned, shared read lock only.
    if let Some(&id) = lookup()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .map
        .get(s)
    {
        return id;
    }
    let mut table = lookup().write().unwrap_or_else(|p| p.into_inner());
    // Re-check: another thread may have interned `s` between the locks.
    if let Some(&id) = table.map.get(s) {
        return id;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let id = u32::try_from(table.map.len()).expect("interner exhausted u32 ids");
    RESOLVE.publish(id, leaked);
    table.map.insert(leaked, id);
    id
}

fn resolve(id: u32) -> Entry {
    RESOLVE.get(id)
}

/// An interned variable / object name, used across the whole workspace.
///
/// `Copy`, 4 bytes, `O(1)` equality; ordering and display resolve through the
/// interned string so behaviour is indistinguishable from the earlier
/// `Name(String)` representation (see the module docs for the full contract).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(u32);

impl Name {
    /// Create (or look up) a name from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Name(intern(s.as_ref()))
    }

    /// View the underlying string.
    ///
    /// The returned reference is `'static`: interned strings live for the
    /// lifetime of the process.
    pub fn as_str(&self) -> &'static str {
        resolve(self.0).text
    }

    /// The number after the last `#` of the name (of the whole name when it
    /// has no `#`), if it parses as a `u64` — the counter of a
    /// [`NameGen`]-made name.  Parsed once when the name was interned, so
    /// reading it costs no lock and no parse.
    pub fn numeric_suffix(&self) -> Option<u64> {
        resolve(self.0).suffix
    }

    /// The raw interner id — execution-local: it may order tables that
    /// live within one process (a sequent's occurrence index sorts by it,
    /// which needs no string comparison), but never anything persisted or
    /// printed.
    pub fn id(&self) -> u32 {
        self.0
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Name").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name::new(s)
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// Note: no `Borrow<str>` impl on purpose.  `Borrow` requires `Hash` to agree
// between `Name` and `str`, but `Name` hashes its interner id (see the module
// docs); offering `Borrow<str>` would make `HashMap<Name, _>` lookups by
// `&str` silently miss.  String-keyed lookups go through `Name::new` instead.

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl serde::Serialize for Name {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for Name {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Str(s) => Ok(Name::new(s)),
            other => Err(serde::Error::custom(format!(
                "expected a name string, found {other:?}"
            ))),
        }
    }
}

/// A generator of fresh names, shared by the proof transformations and the
/// synthesis pipeline to maintain variable hygiene.
#[derive(Debug, Default, Clone)]
pub struct NameGen {
    counter: u64,
}

impl NameGen {
    /// A fresh generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator that will never clash with the given names, assuming all
    /// generated names use the reserved `#` separator (user-facing APIs reject
    /// `#` in names).
    pub fn avoiding<'a>(names: impl IntoIterator<Item = &'a Name>) -> Self {
        let mut max = 0;
        for n in names {
            if let Some(k) = n.numeric_suffix() {
                max = max.max(k + 1);
            }
        }
        NameGen { counter: max }
    }

    /// Produce a fresh name with the given human-readable prefix.
    pub fn fresh(&mut self, prefix: &str) -> Name {
        let n = Name::new(format!("{prefix}#{}", self.counter));
        self.counter += 1;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX), (26, 63));
        // every id maps inside its chunk
        for id in (0u32..100_000).chain([u32::MAX - 1, u32::MAX]) {
            let (k, off) = locate(id);
            assert!(k < CHUNKS, "chunk out of range for {id}");
            assert!(off < FIRST << k, "offset out of range for {id}");
        }
    }

    #[test]
    fn resolve_survives_chunk_growth() {
        // Intern enough distinct names to span several chunks and check that
        // ids keep resolving to the right strings afterwards.
        let names: Vec<Name> = (0..500).map(|i| Name::new(format!("grow#{i}"))).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(n.as_str(), format!("grow#{i}"));
        }
    }

    #[test]
    fn interning_deduplicates() {
        let a = Name::new("same");
        let b = Name::new(String::from("same"));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn name_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Name>();
        assert_eq!(std::mem::size_of::<Name>(), 4);
    }

    /// Regression for the byte-reproducibility contract: ordering must be a
    /// pure function of the strings, independent of interning order.
    #[test]
    fn ord_is_lexicographic_regardless_of_interning_order() {
        // Interned deliberately out of lexicographic order.
        let z = Name::new("ord#z");
        let a = Name::new("ord#a");
        let m = Name::new("ord#m");
        assert!(a < m && m < z);
        assert!(z > a);
        let mut sorted = [z, m, a];
        sorted.sort();
        let strings: Vec<&str> = sorted.iter().map(Name::as_str).collect();
        assert_eq!(strings, vec!["ord#a", "ord#m", "ord#z"]);
        // Prefixes come first, exactly like str ordering.
        assert!(Name::new("x") < Name::new("x#0"));
        assert_eq!(Name::new("ord#m").cmp(&m), std::cmp::Ordering::Equal);
    }

    /// Equal ids ⟺ equal strings: determinism of the table across orderings.
    #[test]
    fn determinism_across_orderings() {
        let round1: Vec<Name> = ["d0", "d1", "d2"].iter().map(Name::new).collect();
        let round2: Vec<Name> = ["d2", "d0", "d1"].iter().map(Name::new).collect();
        assert_eq!(round1[0], round2[1]);
        assert_eq!(round1[1], round2[2]);
        assert_eq!(round1[2], round2[0]);
        assert_eq!(round1[0].id(), round2[1].id());
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        let n = Name::new("view#V1");
        let json = serde::json::to_string(&n);
        // The wire format is indistinguishable from a String.
        assert_eq!(json, serde::json::to_string(&"view#V1".to_owned()));
        assert_eq!(json, "\"view#V1\"");
        let back: Name = serde::json::from_str(&json).unwrap();
        assert_eq!(back, n);
        // And a String can be read back as a Name (and vice versa).
        let as_string: String = serde::json::from_str(&json).unwrap();
        assert_eq!(as_string, n.as_str());
    }

    #[test]
    fn display_and_debug_show_the_string() {
        let n = Name::new("hello");
        assert_eq!(format!("{n}"), "hello");
        assert_eq!(format!("{n:?}"), "Name(\"hello\")");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| Name::new(format!("conc#{}", (i + t) % 64)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Name>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for names in &results {
            for n in names {
                assert_eq!(*n, Name::new(n.as_str()));
            }
        }
    }

    /// Strings over an alphabet weighted towards the shapes a suffix parse
    /// distinguishes: `#` separators, digit runs (past `u64::MAX` too),
    /// signs, letters, multi-byte characters and the empty string.
    struct ArbitraryName;

    impl Strategy for ArbitraryName {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            const PIECES: [&str; 14] = [
                "#",
                "#",
                "0",
                "7",
                "42",
                "18446744073709551615",
                "18446744073709551616",
                "+",
                "-",
                "x",
                "ev",
                "é",
                " ",
                "'",
            ];
            let len = rng.next_u64() % 7;
            (0..len)
                .map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize])
                .collect()
        }
    }

    #[test]
    fn numeric_suffix_reads_the_last_hash_segment() {
        assert_eq!(Name::new("ev#12").numeric_suffix(), Some(12));
        assert_eq!(Name::new("a#3#4").numeric_suffix(), Some(4));
        assert_eq!(Name::new("a#3#").numeric_suffix(), None);
        assert_eq!(Name::new("x").numeric_suffix(), None);
        assert_eq!(Name::new("17").numeric_suffix(), Some(17));
        assert_eq!(Name::new("s#-1").numeric_suffix(), None);
        let gen = NameGen::avoiding(&[Name::new("v#4"), Name::new("w#9"), Name::new("z")]);
        assert_eq!(gen.counter, 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Name` equality and ordering agree with the underlying strings.
        #[test]
        fn prop_name_cmp_agrees_with_str_cmp(a in 0u64..40, b in 0u64..40, salt in 0u64..4) {
            // Small colliding universe so equality cases actually occur.
            let sa = format!("p{}#{}", salt, a % 20);
            let sb = format!("p{}#{}", salt, b % 20);
            let na = Name::new(&sa);
            let nb = Name::new(&sb);
            prop_assert_eq!(na == nb, sa == sb);
            prop_assert_eq!(na.cmp(&nb), sa.as_str().cmp(sb.as_str()));
            prop_assert_eq!(na.partial_cmp(&nb), sa.partial_cmp(&sb));
        }

        /// The suffix recorded at interning is the one a parse of the
        /// string gives.
        #[test]
        fn prop_numeric_suffix_agrees_with_parsing(s in ArbitraryName) {
            let expected = s.rsplit('#').next().and_then(|r| r.parse::<u64>().ok());
            prop_assert_eq!(Name::new(&s).numeric_suffix(), expected);
        }

        /// Round-tripping through serde preserves identity.
        #[test]
        fn prop_serde_round_trip(k in 0u64..500) {
            let n = Name::new(format!("rt#{k}"));
            let back: Name = serde::json::from_str(&serde::json::to_string(&n)).unwrap();
            prop_assert_eq!(back, n);
        }
    }
}
