//! The crate's word hasher for its internal `u64`-keyed maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: one rotate, xor and multiply per `u64` word. The
/// maps it serves are internal (no untrusted keys) — canonical-key pivot
/// patterns in the memo, block addresses in the profiler's recency window,
/// and the profiler's conflict vectors of `2^16` and above (smaller ones,
/// every vector at `n ≤ 16`, are counted in a flat table instead) — so
/// SipHash's DoS resistance buys nothing there and costs several times the
/// probe.
///
/// `finish` rotates the product's well-mixed high bits down. `HashMap` picks
/// a bucket by the low bits of the hash, and a bare product keeps the word's
/// trailing zeros, so keys at a power-of-two stride — block addresses, and
/// the conflict vectors between them — would all probe one run of buckets.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` hashed through [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn strided_blocks_spread_over_the_low_bits() {
        // `HashMap` buckets by the low bits of the hash, so 4,096 keys at a
        // power-of-two stride must not crowd into a few of 4,096 buckets (a
        // bare product puts them into 4,096 >> shift).
        let map: WordMap<u64, ()> = WordMap::default();
        for shift in [0, 4, 8, 12, 16, 20, 24, 32] {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|k| map.hasher().hash_one(k << shift) & 0xfff)
                .collect();
            assert!(
                buckets.len() >= 1024,
                "stride 2^{shift}: {} buckets",
                buckets.len()
            );
        }
    }
}
