//! Miss Status Holding Registers (MSHRs) with request merging.
//!
//! An MSHR file tracks outstanding cache misses by line address. A second
//! miss to a line that is already being fetched *merges* into the existing
//! entry instead of issuing a duplicate memory request — essential for GPU
//! L1s, where many warps touch the same lines in short order. The paper's
//! L1 configuration provides 32 MSHR entries per SM (Table I).
//!
//! The waiters live in one `capacity × max_merges` array, indexed by the
//! slot a map gives each outstanding line: no entry owns storage, and
//! nothing grows after [`MshrFile::new`].

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use valley_core::hash::FastMap;

/// Outcome of asking the MSHR file to track a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrAllocation {
    /// A new entry was allocated; the caller must issue the memory request.
    NewEntry,
    /// The line is already outstanding; the waiter was merged and no new
    /// memory request is needed.
    Merged,
    /// The file (or the entry's merge capacity) is full; the requester must
    /// stall and retry later.
    Stalled,
}

/// An MSHR file: outstanding miss lines, each with the waiters (opaque
/// `u64` tokens — warp ids, transaction ids, ...) to wake on fill.
///
/// # Examples
///
/// ```
/// use valley_cache::{MshrAllocation, MshrFile};
///
/// let mut m = MshrFile::new(2, 4);
/// assert_eq!(m.allocate(0x100, 7), MshrAllocation::NewEntry);
/// assert_eq!(m.allocate(0x100, 8), MshrAllocation::Merged);
/// assert_eq!(m.complete(0x100), Some(vec![7, 8]));
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    max_merges: usize,
    /// Each outstanding line's slot.
    lines: FastMap<u64, usize>,
    /// Slot `s`'s waiters, in allocation order, are the first
    /// `merged[s]` of the `max_merges` cells from `s * max_merges` on.
    waiters: Box<[u64]>,
    merged: Box<[usize]>,
    /// The free slots, the last freed on top.
    free: Vec<usize>,
}

impl MshrFile {
    /// Creates a file with `capacity` entries, each holding at most
    /// `max_merges` waiters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_merges` is zero.
    pub fn new(capacity: usize, max_merges: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        assert!(max_merges > 0, "merge capacity must be non-zero");
        MshrFile {
            max_merges,
            lines: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            waiters: vec![0; capacity * max_merges].into(),
            merged: vec![0; capacity].into(),
            free: (0..capacity).rev().collect(),
        }
    }

    /// Number of entry slots.
    pub fn capacity(&self) -> usize {
        self.merged.len()
    }

    /// Number of outstanding lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether `line` is already being fetched.
    pub fn contains(&self, line: u64) -> bool {
        self.lines.contains_key(&line)
    }

    /// Tracks a miss on `line` for `waiter`. See [`MshrAllocation`] for the
    /// three possible outcomes.
    pub fn allocate(&mut self, line: u64, waiter: u64) -> MshrAllocation {
        let (slot, outcome) = match self.lines.get(&line) {
            Some(&slot) if self.merged[slot] == self.max_merges => return MshrAllocation::Stalled,
            Some(&slot) => (slot, MshrAllocation::Merged),
            None => {
                let Some(slot) = self.free.pop() else {
                    return MshrAllocation::Stalled;
                };
                // The map's live size is bounded, but it may rehash under
                // insert/remove churn; declare that to the allocation
                // audit rather than count it as per-tick work.
                let _audit_pause = (self.lines.len() == self.lines.capacity())
                    .then(valley_core::alloc_audit::pause);
                self.lines.insert(line, slot);
                (slot, MshrAllocation::NewEntry)
            }
        };
        self.waiters[slot * self.max_merges + self.merged[slot]] = waiter;
        self.merged[slot] += 1;
        outcome
    }

    /// Completes the fetch of `line`, freeing its entry and returning the
    /// waiters to wake (in allocation order), or `None` if the line was not
    /// outstanding.
    pub fn complete(&mut self, line: u64) -> Option<Vec<u64>> {
        let mut waiters = Vec::new();
        self.complete_into(line, &mut waiters).then_some(waiters)
    }

    /// Allocation-free [`MshrFile::complete`]: appends the waiters of
    /// `line` to `out` (in allocation order) and frees its entry.
    /// Returns whether the line was outstanding.
    pub fn complete_into(&mut self, line: u64, out: &mut Vec<u64>) -> bool {
        let Some(slot) = self.lines.remove(&line) else {
            return false;
        };
        let n = std::mem::take(&mut self.merged[slot]);
        // Caller-buffer growth is declared to the allocation audit.
        let _audit_pause = (out.len() + n > out.capacity()).then(valley_core::alloc_audit::pause);
        out.extend_from_slice(&self.waiters[slot * self.max_merges..][..n]);
        self.free.push(slot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_complete() {
        let mut m = MshrFile::new(4, 8);
        assert_eq!(m.allocate(0x40, 1), MshrAllocation::NewEntry);
        assert!(m.contains(0x40));
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(0x40), Some(vec![1]));
        assert!(m.is_empty());
    }

    #[test]
    fn merging_preserves_order() {
        let mut m = MshrFile::new(4, 8);
        m.allocate(0x40, 10);
        assert_eq!(m.allocate(0x40, 11), MshrAllocation::Merged);
        assert_eq!(m.allocate(0x40, 12), MshrAllocation::Merged);
        assert_eq!(m.len(), 1, "merges must not consume entries");
        assert_eq!(m.complete(0x40), Some(vec![10, 11, 12]));
    }

    #[test]
    fn capacity_stalls_new_lines_but_not_merges() {
        let mut m = MshrFile::new(2, 8);
        m.allocate(0x000, 1);
        m.allocate(0x040, 2);
        assert_eq!(m.len(), m.capacity());
        assert_eq!(m.allocate(0x080, 3), MshrAllocation::Stalled);
        // Merging into an existing entry still works at capacity.
        assert_eq!(m.allocate(0x000, 4), MshrAllocation::Merged);
    }

    #[test]
    fn merge_capacity_stalls() {
        let mut m = MshrFile::new(2, 2);
        m.allocate(0x40, 1);
        m.allocate(0x40, 2);
        assert_eq!(m.allocate(0x40, 3), MshrAllocation::Stalled);
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.complete(0xdead), None);
    }
}
