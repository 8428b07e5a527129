//! Fast, deterministic hashing for simulator hot paths.
//!
//! `std`'s default `SipHash`-with-`RandomState` is DoS-resistant but costly
//! for the small integer and newtype keys the simulator hashes millions of
//! times per run, and its per-process random seed makes iteration order vary
//! run-to-run. [`FxHasher`] implements the rustc `FxHash` word-at-a-time
//! multiply-rotate scheme: a handful of cycles per key, and fully
//! deterministic so simulations replay identically.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` function: per input word,
/// `hash = (hash.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (word, rest) = bytes.split_at(8);
            self.add_word(u64::from_ne_bytes(word.try_into().expect("8 bytes")));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (word, rest) = bytes.split_at(4);
            self.add_word(u32::from_ne_bytes(word.try_into().expect("4 bytes")) as u64);
            bytes = rest;
        }
        for &b in bytes {
            self.add_word(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"lane"), hash_of(&"lane"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000, "sequential keys must not collide");
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
    }

    #[test]
    fn mixed_width_writes_differ_from_wide_write() {
        // Sanity: the hasher consumes all bytes of a string, not just a prefix.
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefgi"));
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefgh"));
    }
}
