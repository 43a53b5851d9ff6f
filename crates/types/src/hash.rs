//! A small, fast hasher for integer-keyed maps on the simulator hot path.
//!
//! The standard library's SipHash resists hash flooding, which the
//! simulator's internal tables (page numbers, block numbers) never face,
//! and costs tens of nanoseconds per probe. [`IntHasher`] is one multiply
//! per word plus a final rotate, in the style of FxHash: the multiply
//! spreads the key's low bits upwards, and the rotate brings the
//! well-mixed high bits down to where the table picks its bucket.
//!
//! Every walk over the simulator's hash maps either sorts the keys first
//! or folds them in an order-independent way (a minimum, a count), so the
//! choice of hasher never shows in any result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// FxHash-style hasher for integer keys. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        IntBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct_for_small_keys() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        let hashes: std::collections::HashSet<u64> = (0..4096u64).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Block numbers of a page's first block are multiples of 64; the
        // bucket index (low bits of the hash) must still vary.
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|i| hash_of(i * 64) & 255).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets used", buckets.len());
    }

    #[test]
    fn byte_writes_fold_into_words() {
        let mut a = IntHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = IntHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn int_map_round_trips() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        assert!((0..1000u64).all(|i| m[&(i * 4096)] == i as u32));
    }
}
