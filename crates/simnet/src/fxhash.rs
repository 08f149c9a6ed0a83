//! A fast, deterministic hasher for the simulation's hot maps.
//!
//! The simulator spends a measurable share of host CPU hashing small keys
//! (node ids, operation ids, metadata keys) through std's SipHash. This
//! FxHash-style multiply-xor hasher is ~5× cheaper and — unlike
//! `RandomState` — seed-free, so map iteration orders are identical across
//! processes, which strengthens the determinism story rather than weakening
//! it. (Collision hardening is irrelevant here: keys come from the
//! simulation itself, never from an adversary.)

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash-style hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

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
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Deterministic `BuildHasher` for [`FxHashMap`] / [`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast deterministic hasher.
#[allow(
    clippy::disallowed_types,
    reason = "alias definition site: the explicit FxBuildHasher replaces RandomState"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast deterministic hasher.
#[allow(
    clippy::disallowed_types,
    reason = "alias definition site: the explicit FxBuildHasher replaces RandomState"
)]
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_spread() {
        let h = |n: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(7), h(7), "same input, same hash");
        let distinct: std::collections::BTreeSet<u64> = (0..1000).map(h).collect();
        assert_eq!(distinct.len(), 1000, "no trivial collisions on small ints");
    }

    #[test]
    fn string_keys_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("ab".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.get("ab"), Some(&2));
    }

    #[test]
    fn partial_chunks_do_not_collide_with_padding() {
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        // A short key must not hash like its zero-padded 8-byte form.
        assert_ne!(h(b"abc"), h(b"abc\0\0\0\0\0"));
    }
}
