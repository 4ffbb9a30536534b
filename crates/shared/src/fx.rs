//! A fast hasher for identity-keyed tables: the intern tables here and the
//! prover's session caches, whose keys are interned nodes that hash in O(1);
//! and the finalizer that turns an Fx hash into a node's structural hash.

use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// The murmur3 64-bit finalizer (`fmix64`): every input bit affects every
/// output bit.  An Fx hash mixes little into its low bits (a product's low
/// bits depend only on the factors' low bits), and the intern tables pick a
/// shard by the low five bits of a node's hash, so structural hashes are Fx
/// hashes passed through this.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The structural hash of a value: its [`FxHasher`] hash, finalized by
/// `fmix64`.  What [`crate::Shared::new`] interns by.
#[inline]
pub fn structural_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    fmix64(hasher.finish())
}
