//! A set-associative cache with true-LRU replacement.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use valley_cache::CacheConfig;
///
/// // The paper's per-SM L1: 16 KB, 4-way, 32 sets, 128 B lines.
/// let l1 = CacheConfig::new(16 * 1024, 4, 128);
/// assert_eq!(l1.sets(), 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: usize,
    line_bytes: u64,
}

impl CacheConfig {
    /// Creates a configuration of `size_bytes` capacity, `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and the capacity is an
    /// exact multiple of `assoc * line_bytes`.
    pub const fn new(size_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(assoc as u64 * line_bytes) && size_bytes > 0,
            "capacity must be a positive multiple of assoc * line size"
        );
        let cfg = CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        };
        assert!(
            (cfg.sets() as u64).is_power_of_two(),
            "set count must be a power of two"
        );
        cfg
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways.
    pub const fn assoc(&self) -> usize {
        self.assoc
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        (self.size_bytes / (self.assoc as u64 * self.line_bytes)) as usize
    }
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of valid lines evicted by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are full line addresses, so the structure never aliases. The cache
/// stores presence only (no data), which is all a timing simulator needs;
/// a line is its tag.
///
/// # Examples
///
/// ```
/// use valley_cache::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2, 64));
/// assert!(!c.probe(0x100));      // cold miss
/// c.fill(0x100);
/// assert!(c.probe(0x100));       // now resident
/// assert!(c.probe(0x13f));       // same 64 B line
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// Set count minus one (the set count is a power of two).
    set_mask: u64,
    /// `sets × assoc` slots; set `s` is `lines[s * assoc..][..len[s]]`,
    /// its resident line addresses in LRU order (front = MRU).
    lines: Vec<u64>,
    /// Per set: resident line count.
    len: Vec<usize>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            line_shift: cfg.line_bytes().trailing_zeros(),
            set_mask: cfg.sets() as u64 - 1,
            lines: vec![0; cfg.sets() * cfg.assoc()],
            len: vec![0; cfg.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        ((line >> self.line_shift) & self.set_mask) as usize
    }

    /// The set of `line` and, if `line` is resident, its way (0 = MRU).
    #[inline]
    fn find(&self, line: u64) -> (usize, Option<usize>) {
        let set = self.set_index(line);
        let ways = &self.lines[set * self.cfg.assoc()..][..self.len[set]];
        (set, ways.iter().position(|&l| l == line))
    }

    /// Moves way `pos` of `set` to the MRU front with one in-place
    /// rotation (remove + insert-at-front at half the moves) and returns
    /// it.
    #[inline]
    fn promote(&mut self, set: usize, pos: usize) -> &mut u64 {
        let start = set * self.cfg.assoc();
        let ways = &mut self.lines[start..=start + pos];
        ways.rotate_right(1);
        &mut ways[0]
    }

    /// Looks up `addr` and counts the lookup: [`SetAssocCache::lookup`]
    /// followed by [`SetAssocCache::count`]. Returns `true` on hit.
    pub fn probe(&mut self, addr: u64) -> bool {
        let hit = self.lookup(addr);
        self.count(hit);
        hit
    }

    /// Looks up `addr` without touching the statistics; on a hit the
    /// line becomes most-recently used (a miss changes nothing). For a
    /// requester that may have to stall on the outcome and look the
    /// address up again: it counts the lookup that lets it proceed, with
    /// [`SetAssocCache::count`], and no other.
    pub fn lookup(&mut self, addr: u64) -> bool {
        let (set, pos) = self.find(self.line_addr(addr));
        let Some(pos) = pos else {
            return false;
        };
        self.promote(set, pos);
        true
    }

    /// Counts one lookup with the given outcome.
    #[inline]
    pub fn count(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Checks residency without touching LRU state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.line_addr(addr)).1.is_some()
    }

    /// Installs the line containing `addr` as MRU, returning the evicted
    /// line address if the set was full. Filling an already-resident line
    /// just refreshes its LRU position.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = self.line_addr(addr);
        let (set, pos) = self.find(line);
        if let Some(pos) = pos {
            self.promote(set, pos);
            return None;
        }
        // Rotate the LRU victim (or, in a set with a free way, the first
        // free slot) to the front and overwrite it in place — one move
        // pass instead of pop + insert-at-front.
        let len = self.len[set];
        let full = len == self.cfg.assoc();
        let slot = self.promote(set, if full { len - 1 } else { len });
        let victim = std::mem::replace(slot, line);
        if full {
            self.stats.evictions += 1;
            Some(victim)
        } else {
            self.len[set] += 1;
            None
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.len.iter().sum()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets, 2 ways, 64 B lines.
        SetAssocCache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn config_geometry() {
        let l1 = CacheConfig::new(16 * 1024, 4, 128);
        assert_eq!(l1.sets(), 32);
        let llc = CacheConfig::new(64 * 1024, 8, 128);
        assert_eq!(llc.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_bad_line() {
        let _ = CacheConfig::new(256, 2, 48);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        c.fill(0x40);
        assert!(c.probe(0x40));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lookup_promotes_to_mru_and_counts_nothing() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x100);
        assert!(!c.lookup(0x200));
        assert!(c.lookup(0x000)); // now MRU, so the fill evicts 0x100
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.fill(0x200), Some(0x100));
        c.count(true);
        c.count(false);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn same_line_offsets_hit() {
        let mut c = tiny();
        c.fill(0x80);
        assert!(c.probe(0x81));
        assert!(c.probe(0xbf));
        assert!(!c.probe(0xc0)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 2 == 0): 0x000, 0x100, 0x200...
        c.fill(0x000);
        c.fill(0x100);
        assert!(c.probe(0x000)); // make 0x000 MRU
        let evicted = c.fill(0x200); // evicts LRU = 0x100
        assert_eq!(evicted, Some(0x100));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn fill_resident_line_is_idempotent() {
        let mut c = tiny();
        c.fill(0x40);
        assert_eq!(c.fill(0x40), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.fill(i * 64);
        }
        assert!(c.occupancy() <= 4); // 2 sets x 2 ways
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Lines 0x000 and 0x040 go to different sets; filling three lines
        // into set 0 never disturbs set 1.
        c.fill(0x040);
        c.fill(0x000);
        c.fill(0x100);
        c.fill(0x200);
        assert!(c.contains(0x040));
    }

    #[test]
    fn contains_does_not_touch_lru_or_stats() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x100);
        // contains() on LRU line must not promote it.
        assert!(c.contains(0x000) || c.contains(0x100));
        let stats_before = c.stats();
        let _ = c.contains(0x000);
        assert_eq!(c.stats(), stats_before);
    }
}
