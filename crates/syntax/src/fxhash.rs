//! The one hasher of every internal hash table: the compile layers' (this
//! crate, the escape analysis, the bytecode lowering) and the runtime's
//! and the VM's (re-exported as `minigo_runtime::fxhash` and
//! `minigo_vm::fxhash`). Tables keyed by a dense id are not hashed at
//! all; they are [`IdMap`](crate::IdMap)s.
//!
//! `SipHash` (std's default) dominates profiles of map-heavy workloads;
//! these tables never face adversarial keys, so the firefox-style
//! multiply-rotate hash is a safe 5-10x cheaper drop-in. Determinism
//! matters more than speed here: the hasher is unseeded, so table
//! behaviour is identical across runs and processes.
//!
//! Observable-safety note: nothing any crate exposes depends on hash
//! *iteration* order — a guest map keeps its entries in insertion order
//! beside its index, every cost the runtime sums over a hash table
//! commutes (DESIGN.md §11), and a compile pass that loops over
//! a hashed table either sorts what it collects or only tests membership
//! — so swapping the hash function cannot change any metric, trace, or
//! output. The differential, golden and collector-fingerprint suites pin
//! this.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiply-rotate hasher (the rustc/firefox "fx" function):
/// `h = (rotl(h, 5) ^ word) * K` per 8-byte word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
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
    fn deterministic_across_instances() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("alloc-site"), hash("alloc-site"));
        assert_ne!(hash("a"), hash("b"));
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get("k42"), Some(&42));
        assert_eq!(m.remove("k42"), Some(42));
        assert_eq!(m.get("k42"), None);
    }
}
