//! DRAM command counters consumed by the power model and the
//! row-buffer figures.

/// Command counters for one DRAM channel.
///
/// `row_hits / (row_hits + row_empties + row_conflicts)` is the row-buffer
/// hit rate of Figure 15; `activates` drives the activate-power component
/// of Figure 16. There is no auto-precharge: a row conflict takes a PRE
/// and an ACT, an idle bank an ACT, so `activates == row_empties +
/// row_conflicts`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// ACT commands issued.
    pub activates: u64,
    /// Read column commands.
    pub reads: u64,
    /// Write column commands.
    pub writes: u64,
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses to an idle (closed) bank.
    pub row_empties: u64,
    /// Column accesses that required closing another row first.
    pub row_conflicts: u64,
}

impl DramStats {
    /// Row-buffer hit rate over all column accesses, in `[0, 1]`.
    /// Returns 0 when no accesses completed.
    pub fn row_buffer_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_empties + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Completed column accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Accumulates another channel's counters into this one
    /// (used to aggregate a whole memory system).
    pub fn merge(&mut self, other: &DramStats) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_empties += other.row_empties;
        self.row_conflicts += other.row_conflicts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_accesses() {
        let s = DramStats {
            row_hits: 6,
            row_empties: 2,
            row_conflicts: 2,
            reads: 8,
            writes: 2,
            ..Default::default()
        };
        assert!((s.row_buffer_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(s.accesses(), 10);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = DramStats::default();
        assert_eq!(s.row_buffer_hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DramStats {
            activates: 3,
            reads: 1,
            ..Default::default()
        };
        let b = DramStats {
            activates: 4,
            writes: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.activates, 7);
        assert_eq!(a.accesses(), 3);
    }
}
