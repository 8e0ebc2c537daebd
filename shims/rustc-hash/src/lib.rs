//! Offline stand-in for the `rustc-hash` crate.
//!
//! Implements the same Fx (Firefox/rustc) multiply-rotate hash the real crate
//! ships: a non-cryptographic, *fixed-seed* hasher, so hash maps built on it
//! are fast and — unlike `std`'s `RandomState` — behave identically across
//! processes and runs. The workspace uses it for hot-path lookup tables whose
//! iteration order is never observable (or is sorted before use).

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A speedy, fixed-seed hash map keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A speedy, fixed-seed hash set keyed with [`FxHasher`].
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

/// [`BuildHasherDefault`] specialized to [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hash function: for each word, rotate the state, xor in the word,
/// multiply by a large odd constant. Not cryptographic, not DoS-resistant —
/// strictly an in-process lookup accelerator.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world, this spans two words");
        b.write(b"hello world, this spans two words");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<String, i64> = FxHashMap::default();
        m.insert("k".into(), 7);
        assert_eq!(m.get("k"), Some(&7));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn tail_bytes_change_hash() {
        // The length-marked tail means "ab" and "ab\0" must differ.
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}
