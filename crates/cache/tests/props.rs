//! Property-based tests for the cache and MSHR substrates.

use proptest::prelude::*;
use valley_cache::{CacheConfig, MshrAllocation, MshrFile, SetAssocCache};

proptest! {
    /// Occupancy never exceeds capacity, regardless of the fill stream.
    #[test]
    fn occupancy_bounded(addrs in proptest::collection::vec(0u64..(1 << 20), 1..200)) {
        let cfg = CacheConfig::new(1024, 2, 64);
        let capacity = cfg.sets() * cfg.assoc();
        let mut c = SetAssocCache::new(cfg);
        for a in addrs {
            c.fill(a);
            prop_assert!(c.occupancy() <= capacity);
        }
    }

    /// A line just filled always hits (no spurious eviction of MRU).
    #[test]
    fn fill_then_probe_hits(addrs in proptest::collection::vec(0u64..(1 << 20), 1..100)) {
        let mut c = SetAssocCache::new(CacheConfig::new(2048, 4, 64));
        for a in addrs {
            c.fill(a);
            prop_assert!(c.probe(a), "just-filled line must hit");
        }
    }

    /// Within-associativity working sets never miss after warm-up
    /// (true-LRU guarantee).
    #[test]
    fn lru_retains_small_working_set(set_bits in 0u64..16, rounds in 1usize..8) {
        let cfg = CacheConfig::new(1024, 2, 64); // 8 sets, 2 ways
        let mut c = SetAssocCache::new(cfg);
        // Two lines in the same set (fits the associativity).
        let a = set_bits * 64;
        let b = a + (8 * 64); // same set, different tag
        c.fill(a);
        c.fill(b);
        for _ in 0..rounds {
            prop_assert!(c.probe(a));
            prop_assert!(c.probe(b));
        }
    }

    /// Hits + misses always equals the number of probes.
    #[test]
    fn stats_conservation(addrs in proptest::collection::vec(0u64..(1 << 14), 1..300)) {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 2, 64));
        for (i, a) in addrs.iter().enumerate() {
            if !c.probe(*a) {
                c.fill(*a);
            }
            let s = c.stats();
            prop_assert_eq!(s.accesses(), (i + 1) as u64);
        }
    }

    /// The MSHR file conserves waiters: everything allocated (new or
    /// merged) comes back exactly once on completion.
    #[test]
    fn mshr_waiter_conservation(
        lines in proptest::collection::vec(0u64..8, 1..60),
    ) {
        let mut m = MshrFile::new(8, 64);
        let mut expected: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        for (i, &l) in lines.iter().enumerate() {
            let line = l * 64;
            match m.allocate(line, i as u64) {
                MshrAllocation::NewEntry | MshrAllocation::Merged => {
                    expected.entry(line).or_default().push(i as u64);
                }
                MshrAllocation::Stalled => {}
            }
        }
        for (line, waiters) in expected {
            prop_assert_eq!(m.complete(line), Some(waiters));
        }
        prop_assert!(m.is_empty());
    }

    /// The MSHR never reports more outstanding lines than its capacity.
    #[test]
    fn mshr_capacity_respected(lines in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut m = MshrFile::new(4, 4);
        for (i, &l) in lines.iter().enumerate() {
            let _ = m.allocate(l * 64, i as u64);
            prop_assert!(m.len() <= 4);
        }
    }
}
