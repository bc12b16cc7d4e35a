//! A fast multiplicative hasher for simulator-internal integer keys.
//!
//! Hot paths (the MSHR files, the rolling entropy count-map) hash small
//! fixed-size keys millions of times per run. The keys are simulator
//! data, not attacker-controlled, so SipHash's DoS hardening is wasted
//! cost there; this SplitMix64-style mix is a few instructions per word.

use std::hash::{BuildHasherDefault, Hasher};

/// A non-cryptographic hasher for small integer-structured keys.
#[derive(Default)]
pub struct FastHasher(u64);

/// `BuildHasher` for [`FastHasher`]: the hasher of [`FastMap`] and [`FastSet`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` with the deterministic [`FastHasher`]. Unlike the default
/// `RandomState`, iteration order is a pure function of the insertion
/// sequence — no per-process seed. The workspace bans the std names
/// (`clippy.toml`'s `disallowed-types`, see `docs/lint.md`), so this
/// alias and [`FastSet`] are the only way to spell a hash container.
/// Order is still arbitrary: sort before letting it reach output.
#[expect(
    clippy::disallowed_types,
    reason = "the one place the std map is named: every other use goes through this seedless alias"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` with the deterministic [`FastHasher`]; see [`FastMap`].
#[expect(
    clippy::disallowed_types,
    reason = "the one place the std set is named: every other use goes through this seedless alias"
)]
pub type FastSet<T> = std::collections::HashSet<T, FastBuildHasher>;

/// 64-bit FNV-1a over a byte string: the content hash behind job keys
/// and schema fingerprints, where the value itself is stored or pinned
/// and so must never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.0 = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_and_roundtrips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 64, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
    }
}
