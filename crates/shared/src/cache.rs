//! A sharded, poison-recovering concurrent hash map for identity-keyed
//! caches.
//!
//! The prover keeps several session-lifetime caches keyed by interned syntax
//! nodes — specialization enumerations, ≠-rewrite candidates, refuted search
//! states.  All of them share a profile: keys hash in O(1) (the nodes cache
//! their hashes), probes vastly outnumber inserts, and several search workers
//! may probe concurrently.  A single `Mutex<HashMap>` serializes those
//! probes; [`ShardedMap`] splits the key space across `RwLock`-protected
//! shards instead, so concurrent readers of different keys (and even the same
//! key) proceed in parallel and writers only exclude their own shard.
//!
//! Lock poisoning is **recovered**, not propagated: a worker that panics
//! mid-insert leaves at worst an absent or stale cache entry, never a torn
//! one (entries are inserted whole), so later workers can safely keep using
//! the map — the same policy the prover already applied to its mutex-guarded
//! caches.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Number of shards; a power of two so the shard index is a mask of the
/// key's hash.  32 matches the intern tables: enough to make cross-worker
/// collisions rare at the session's worker counts without bloating the
/// per-map footprint.
const SHARDS: usize = 32;

/// A fast multiply-rotate hasher (the FxHash construction) for the cache
/// keys.  The keys are interned nodes whose `Hash` writes out a few cached
/// 64-bit structural hashes, so the per-probe cost is dominated by the
/// hasher's fixed overhead — SipHash's finalization alone costs more than
/// the whole probe should.  Not DoS-resistant, which is fine for process-
/// internal caches whose keys the process itself constructs.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        // the Firefox hash: rotate, xor, multiply by a large odd constant
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`]; usable directly as the `S`
/// parameter of `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A point-in-time view of a [`ShardedMap`]'s sharding behaviour: how many
/// lock acquisitions there were and how many of them found their shard
/// already held by another thread.  The PR-6 parallel-search work flagged
/// the failure memo as "the first contention point at higher core counts";
/// these counters make that claim *observable* — a session can report
/// `contended / (reads + writes)` instead of assuming the 32-way split is
/// enough.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of lock shards the map splits its key space across.
    pub shards: usize,
    /// Read-lock acquisitions (`get`).
    pub reads: u64,
    /// Write-lock acquisitions (`insert` / `merge`).
    pub writes: u64,
    /// Read acquisitions that found the shard write-locked and had to block.
    pub reads_contended: u64,
    /// Write acquisitions that found the shard locked and had to block.
    pub writes_contended: u64,
}

impl ShardStats {
    /// Fraction of acquisitions that blocked, in `[0, 1]`; `0.0` when the
    /// map was never touched.
    pub fn contention_ratio(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            (self.reads_contended + self.writes_contended) as f64 / total as f64
        }
    }
}

impl std::ops::Sub for ShardStats {
    type Output = ShardStats;
    /// Counter delta between two snapshots of the *same* map (saturating,
    /// so a stale "before" snapshot never underflows).
    fn sub(self, before: ShardStats) -> ShardStats {
        ShardStats {
            shards: self.shards,
            reads: self.reads.saturating_sub(before.reads),
            writes: self.writes.saturating_sub(before.writes),
            reads_contended: self.reads_contended.saturating_sub(before.reads_contended),
            writes_contended: self
                .writes_contended
                .saturating_sub(before.writes_contended),
        }
    }
}

/// A concurrent hash map split into `SHARDS` `RwLock`-guarded shards.
/// See the module docs for the intended cache profile and the poisoning
/// policy.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V, FxBuildHasher>>>,
    reads: AtomicU64,
    writes: AtomicU64,
    reads_contended: AtomicU64,
    writes_contended: AtomicU64,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            reads_contended: AtomicU64::new(0),
            writes_contended: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V, FxBuildHasher>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // use the high bits for shard selection: the map inside each shard
        // indexes by the low bits of the same hash function
        &self.shards[(h.finish() >> 57) as usize & (SHARDS - 1)]
    }

    /// Acquire a shard's read lock, counting the acquisition and whether it
    /// had to block behind a writer.  Contention is detected with a
    /// `try_read` probe *before* the blocking wait — cheap, and exact
    /// enough for a trend counter (a shard released between the probe and
    /// the wait over-counts by one).
    fn read_shard<'a>(
        &'a self,
        shard: &'a RwLock<HashMap<K, V, FxBuildHasher>>,
    ) -> std::sync::RwLockReadGuard<'a, HashMap<K, V, FxBuildHasher>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        match shard.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.reads_contended.fetch_add(1, Ordering::Relaxed);
                shard.read().unwrap_or_else(|p| p.into_inner())
            }
        }
    }

    /// Write-lock counterpart of [`read_shard`](Self::read_shard).
    fn write_shard<'a>(
        &'a self,
        shard: &'a RwLock<HashMap<K, V, FxBuildHasher>>,
    ) -> std::sync::RwLockWriteGuard<'a, HashMap<K, V, FxBuildHasher>> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        match shard.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.writes_contended.fetch_add(1, Ordering::Relaxed);
                shard.write().unwrap_or_else(|p| p.into_inner())
            }
        }
    }

    /// Look up a key, cloning the value out (values are cheap handles:
    /// `Arc`s, shared formulas, small copies).
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.read_shard(self.shard(key)).get(key).cloned()
    }

    /// Insert a value, returning the previous one (if any).  Two workers
    /// racing on the same key simply overwrite each other with values
    /// computed from the same inputs.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.write_shard(self.shard(&key)).insert(key, value)
    }

    /// Merge a value into the map: insert it when the key is absent,
    /// otherwise let `f` combine it into the existing entry (e.g. a
    /// `max`-merge for the failure memo's refuted budgets).
    pub fn merge(&self, key: K, value: V, f: impl FnOnce(&mut V, V)) {
        let mut shard = self.write_shard(self.shard(&key));
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => f(e.get_mut(), value),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    /// Lifetime totals of this map's lock traffic.  Counters are `Relaxed`
    /// atomics: exact under quiescence (when the caller snapshots between
    /// workloads), approximate while workers are still running.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: SHARDS,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            reads_contended: self.reads_contended.load(Ordering::Relaxed),
            writes_contended: self.writes_contended.load(Ordering::Relaxed),
        }
    }

    /// Visit every entry, one shard (read-locked) at a time.  Not counted
    /// in [`ShardedMap::stats`]: it audits the map, it does not probe it.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(|p| p.into_inner());
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.read().unwrap_or_else(|p| p.into_inner()).is_empty())
    }
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

impl<K: Hash + Eq, V> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_merge_len() {
        let map: ShardedMap<u64, usize> = ShardedMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.insert(1, 10), None);
        assert_eq!(map.insert(1, 11), Some(10));
        assert_eq!(map.get(&1), Some(11));
        map.merge(1, 5, |cur, new| *cur = (*cur).max(new));
        assert_eq!(map.get(&1), Some(11), "max-merge keeps the larger value");
        map.merge(1, 20, |cur, new| *cur = (*cur).max(new));
        assert_eq!(map.get(&1), Some(20));
        map.merge(2, 7, |cur, new| *cur = (*cur).max(new));
        assert_eq!(map.get(&2), Some(7), "merge inserts absent keys");
        // keys spread across shards still count once each
        for k in 0..100u64 {
            map.insert(k, k as usize);
        }
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
        // `for_each` visits each entry once, without counting as probes
        let before = map.stats();
        let mut seen = Vec::new();
        map.for_each(|k, v| seen.push((*k, *v)));
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..100u64).map(|k| (k, k as usize)).collect::<Vec<_>>()
        );
        assert_eq!(map.stats(), before);
    }

    #[test]
    fn concurrent_probes_and_inserts() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let _ = map.get(&(i / 2));
                        map.merge(i, t, |cur, new| *cur = (*cur).max(new));
                    }
                });
            }
        });
        assert_eq!(map.len(), 500);
        for i in 0..500u64 {
            assert_eq!(
                map.get(&i),
                Some(3),
                "max-merge converges to the largest writer"
            );
        }
    }

    #[test]
    fn stats_count_lock_traffic() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        let zero = map.stats();
        assert_eq!(zero.shards, SHARDS);
        assert_eq!((zero.reads, zero.writes), (0, 0));
        assert_eq!(zero.contention_ratio(), 0.0);
        for k in 0..10u64 {
            map.insert(k, k);
            let _ = map.get(&k);
        }
        map.merge(3, 9, |cur, new| *cur = (*cur).max(new));
        let after = map.stats() - zero;
        assert_eq!(after.reads, 10);
        assert_eq!(after.writes, 11, "merge counts as a write acquisition");
        // single-threaded traffic never contends
        assert_eq!((after.reads_contended, after.writes_contended), (0, 0));
        assert_eq!(after.contention_ratio(), 0.0);
    }

    #[test]
    fn contention_counter_fires_when_a_shard_is_held() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        map.insert(7, 7);
        let shard = map.shard(&7);
        std::thread::scope(|scope| {
            let guard = shard.write().unwrap();
            let t = scope.spawn(|| map.get(&7));
            // wait until the prober has registered the read and blocked on
            // the held shard, then release it
            while (map.stats().reads_contended) == 0 {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(t.join().unwrap(), Some(7));
        });
        let stats = map.stats();
        assert!(stats.reads_contended >= 1);
        assert!(stats.contention_ratio() > 0.0);
    }

    #[test]
    fn poisoned_shards_recover() {
        let map: std::sync::Arc<ShardedMap<u8, u8>> = std::sync::Arc::new(ShardedMap::new());
        // poison every shard by panicking while holding its write lock
        for k in 0..=255u8 {
            let map = map.clone();
            let _ = std::thread::spawn(move || {
                let shard = map.shard(&k);
                let _guard = shard.write().unwrap();
                panic!("poison shard");
            })
            .join();
        }
        map.insert(1, 2);
        assert_eq!(map.get(&1), Some(2), "reads and writes survive poisoning");
        assert_eq!(map.len(), 1);
    }
}
