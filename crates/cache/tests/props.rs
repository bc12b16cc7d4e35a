//! Property-based tests for the cache and MSHR substrates.

use proptest::prelude::*;
use std::collections::VecDeque;
use valley_cache::{CacheConfig, CacheStats, MshrAllocation, MshrFile, SetAssocCache};

/// A naive true-LRU cache: per set, a queue of line addresses with the
/// most recently used line at the front. Shares no code with
/// `SetAssocCache`.
struct LruModel {
    line_bytes: u64,
    assoc: usize,
    sets: Vec<VecDeque<u64>>,
    stats: CacheStats,
}

impl LruModel {
    fn new(cfg: CacheConfig) -> Self {
        LruModel {
            line_bytes: cfg.line_bytes(),
            assoc: cfg.assoc(),
            sets: vec![VecDeque::new(); cfg.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The set of `addr`'s line, its line address, and the line's
    /// position in the set if resident.
    fn locate(&mut self, addr: u64) -> (&mut VecDeque<u64>, u64, Option<usize>) {
        let index = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(index % n) as usize];
        let line = index * self.line_bytes;
        let pos = set.iter().position(|&l| l == line);
        (set, line, pos)
    }

    /// Moves the line at `pos` to the front.
    fn touch(set: &mut VecDeque<u64>, pos: usize) {
        let line = set.remove(pos).unwrap();
        set.push_front(line);
    }

    fn lookup(&mut self, addr: u64) -> bool {
        let (set, _, pos) = self.locate(addr);
        pos.inspect(|&p| Self::touch(set, p)).is_some()
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    fn contains(&mut self, addr: u64) -> bool {
        self.locate(addr).2.is_some()
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        let assoc = self.assoc;
        let (set, line, pos) = self.locate(addr);
        if let Some(p) = pos {
            Self::touch(set, p);
            return None;
        }
        let victim = (set.len() == assoc).then(|| set.pop_back().unwrap());
        set.push_front(line);
        self.stats.evictions += u64::from(victim.is_some());
        victim
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(VecDeque::len).sum()
    }
}

proptest! {
    /// Every operation returns what the naive LRU model returns, and
    /// statistics and occupancy agree after each one: over random
    /// geometries (1..=16 ways, 1..=64 sets) and both shipped configs.
    #[test]
    fn matches_a_naive_lru_model(
        shape in 0usize..6,
        assoc in 1usize..=16,
        set_bits in 0u32..=6,
        line_shift in 5u32..=8,
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..400),
    ) {
        let cfg = match shape {
            0 => CacheConfig::new(16 * 1024, 4, 128), // the paper's L1
            1 => CacheConfig::new(64 * 1024, 8, 128), // one LLC slice
            _ => CacheConfig::new((assoc as u64) << (set_bits + line_shift), assoc, 1 << line_shift),
        };
        // Four times the capacity, so sets fill, evict and re-hit.
        let span = 4 * (cfg.sets() * cfg.assoc()) as u64 * cfg.line_bytes();
        let mut cache = SetAssocCache::new(cfg);
        let mut model = LruModel::new(cfg);
        for (i, &(op, raw)) in ops.iter().enumerate() {
            let addr = raw % span;
            match op {
                0 => prop_assert_eq!(cache.lookup(addr), model.lookup(addr), "op {} lookup {:#x}", i, addr),
                1 => {
                    let hit = raw >> 63 == 1;
                    cache.count(hit);
                    model.count(hit);
                }
                2 => {
                    let hit = model.lookup(addr);
                    model.count(hit);
                    prop_assert_eq!(cache.probe(addr), hit, "op {} probe {:#x}", i, addr);
                }
                3 => prop_assert_eq!(cache.fill(addr), model.fill(addr), "op {} fill {:#x}", i, addr),
                _ => prop_assert_eq!(cache.contains(addr), model.contains(addr), "op {} contains {:#x}", i, addr),
            }
            prop_assert_eq!(cache.stats(), model.stats, "op {} stats", i);
            prop_assert_eq!(cache.occupancy(), model.occupancy(), "op {} occupancy", i);
        }
    }

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

    /// The MSHR file is a map from line to waiters, bounded twice: under
    /// random allocations and completions, each outcome, the waiters a
    /// completion hands back and their order, `len` and `contains` match
    /// a `BTreeMap<u64, Vec<u64>>` that applies the capacity and merge
    /// limits itself.
    #[test]
    fn mshr_matches_a_bounded_map(
        capacity in 1usize..6,
        max_merges in 1usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0u64..10), 1..200),
    ) {
        let mut m = MshrFile::new(capacity, max_merges);
        let mut model: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        let mut out = Vec::new();
        for (i, &(complete, l)) in ops.iter().enumerate() {
            let line = l * 128;
            let waiter = i as u64;
            if complete {
                out.clear();
                let found = m.complete_into(line, &mut out);
                let expected = model.remove(&line);
                prop_assert_eq!(found, expected.is_some(), "op {}: complete {:#x}", i, line);
                prop_assert_eq!(&out, &expected.unwrap_or_default(), "op {}: waiters", i);
            } else {
                let expected = match model.get(&line).map(Vec::len) {
                    Some(n) if n == max_merges => MshrAllocation::Stalled,
                    None if model.len() == capacity => MshrAllocation::Stalled,
                    Some(_) => MshrAllocation::Merged,
                    None => MshrAllocation::NewEntry,
                };
                if expected != MshrAllocation::Stalled {
                    model.entry(line).or_default().push(waiter);
                }
                prop_assert_eq!(m.allocate(line, waiter), expected, "op {}: allocate {:#x}", i, line);
            }
            prop_assert_eq!(m.len(), model.len(), "op {}: len", i);
            prop_assert_eq!(m.is_empty(), model.is_empty());
            for probe in 0..10u64 {
                prop_assert_eq!(m.contains(probe * 128), model.contains_key(&(probe * 128)));
            }
        }
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
