//! DRAM timing and channel configuration.

/// DRAM command timing parameters, in DRAM clock cycles.
///
/// Only the constraints that shape GPU memory behavior at the paper's
/// granularity are modeled; exotic constraints (tWTR, tRTW turnarounds)
/// are folded into the burst occupancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency: column command to first data.
    pub cl: u64,
    /// RAS-to-CAS delay: ACT to column command.
    pub trcd: u64,
    /// Row precharge time: PRE to ACT.
    pub trp: u64,
    /// Minimum row-open time: ACT to PRE.
    pub tras: u64,
    /// ACT-to-ACT delay between different banks of one channel.
    pub trrd: u64,
    /// Column-to-column delay within a bank.
    pub tccd: u64,
    /// Data-bus occupancy of one transaction (128 B at 32 B/cycle = 4).
    pub tburst: u64,
}

impl DramTiming {
    /// Hynix GDDR5 at 924 MHz with 12-12-12 (CL-tRCD-tRP) timing, as in
    /// Table I. One channel moves 32 B per DRAM cycle (118.3 GB/s over 4
    /// channels), so a 128 B transaction occupies the bus for 4 cycles.
    pub const fn gddr5() -> Self {
        DramTiming {
            cl: 12,
            trcd: 12,
            trp: 12,
            tras: 28,
            trrd: 6,
            tccd: 2,
            tburst: 4,
        }
    }

    /// A 3D-stacked vault (Section VI-D): 64 TSVs at 1.25 Gb/s per vault
    /// (~10 GB/s, 8 B/cycle at 1.25 GHz), so a 128 B transaction occupies
    /// the vault's TSV bus for 16 cycles. Array timings are DDR3-like.
    pub const fn stacked_vault() -> Self {
        DramTiming {
            cl: 11,
            trcd: 11,
            trp: 11,
            tras: 26,
            trrd: 5,
            tccd: 2,
            tburst: 16,
        }
    }
}

/// Configuration of one DRAM channel (or 3D-stacked vault).
///
/// Every channel schedules FR-FCFS (Rixner et al.), as in the paper:
/// the oldest row-buffer hit first, then the oldest request whose bank
/// is ready. The policy is not configurable; the fields size and time
/// the channel. Its bank count is the address map's
/// (`DramAddressMap::banks_per_controller`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Scheduling queue capacity.
    pub queue_capacity: usize,
    /// Command timing.
    pub timing: DramTiming,
    /// DRAM clock frequency in GHz (used by callers for clock-domain
    /// conversion and by the power model for cycle-to-time conversion).
    pub clock_ghz: f64,
}

impl DramConfig {
    /// The paper's baseline GDDR5 channel: FR-FCFS with a 64-entry queue,
    /// 924 MHz.
    pub const fn gddr5() -> Self {
        DramConfig {
            queue_capacity: 64,
            timing: DramTiming::gddr5(),
            clock_ghz: 0.924,
        }
    }

    /// One vault of the 3D-stacked configuration: 1.25 GHz TSV clock,
    /// smaller per-vault queue.
    pub const fn stacked_vault() -> Self {
        DramConfig {
            queue_capacity: 16,
            timing: DramTiming::stacked_vault(),
            clock_ghz: 1.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gddr5_matches_table1() {
        let t = DramTiming::gddr5();
        assert_eq!((t.cl, t.trcd, t.trp), (12, 12, 12));
        let c = DramConfig::gddr5();
        assert!((c.clock_ghz - 0.924).abs() < 1e-9);
        // 32 B/cycle x 0.924 GHz x 4 channels = 118.3 GB/s.
        let bw = 32.0 * c.clock_ghz * 4.0;
        assert!((bw - 118.3).abs() < 0.3);
    }

    #[test]
    fn stacked_bandwidth_is_640gbs() {
        let c = DramConfig::stacked_vault();
        // 8 B/cycle x 1.25 GHz x 64 vaults = 640 GB/s.
        let per_vault_bytes = 128.0 / c.timing.tburst as f64;
        let bw = per_vault_bytes * c.clock_ghz * 64.0;
        assert!((bw - 640.0).abs() < 1.0);
    }
}
