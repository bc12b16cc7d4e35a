//! Simulated GPU configuration (Table I).

use valley_cache::CacheConfig;
use valley_dram::DramConfig;

/// Configuration of the simulated GPU (Table I).
///
/// The paper fixes its GPU in Table I and varies only the SM count and
/// the DRAM system (Figure 18), so what Table I fixes is a constant
/// here: the core clock, the warp width, the SM's residency limits and
/// issue width (GTO over 2 schedulers), the L1 with its merge limit and
/// hit latency, and the LLC latency. The scheduling and write policies
/// are the paper's and not configurable either.
///
/// The fields are what varies. The paper's four machines vary `num_sms`,
/// `noc_mhz` and `dram`: `table1()`, `table1().with_sms(24)` and
/// `with_sms(48)`, and `stacked()`, named by the harness's `ConfigId`.
/// A test varies the SM count freely, the MSHR sizes and `max_cycles`.
/// The line size, the LLC's slice count and geometry and the router
/// latency hold one value everywhere, but stay fields while the
/// benchmark's layer probes (`benchmark/src/layers.rs`, untouched until
/// ROADMAP item 1) read them from a `GpuConfig`.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// L1 MSHR entries per SM.
    pub l1_mshrs: usize,
    /// Number of LLC slices (2 per memory controller in the baseline).
    pub llc_slices: usize,
    /// Geometry of one LLC slice.
    pub llc_slice: CacheConfig,
    /// LLC MSHR entries per slice.
    pub llc_mshrs: usize,
    /// Maximum merged waiters per LLC MSHR entry.
    pub llc_mshr_merges: usize,
    /// NoC router pipeline latency in NoC cycles.
    pub noc_router_latency: u64,
    /// NoC clock in MHz (half the core clock in Table I).
    pub noc_mhz: u64,
    /// DRAM channel configuration (also fixes the DRAM clock).
    pub dram: DramConfig,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: u64,
    /// Safety limit on simulated core cycles.
    pub max_cycles: u64,
}

impl GpuConfig {
    /// Core clock in MHz. Every clock domain is a whole number of MHz,
    /// so each runs an exact ratio of core cycles.
    pub const CORE_CLOCK_MHZ: u64 = 1400;
    /// Threads per warp.
    pub const WARP_SIZE: usize = 32;
    /// Maximum resident warps per SM: 1536 threads at 32 per warp.
    pub const MAX_WARPS_PER_SM: usize = 48;
    /// Maximum resident thread blocks per SM.
    pub const MAX_TBS_PER_SM: usize = 8;
    /// Instructions issued per SM per cycle (2 warp schedulers).
    pub const ISSUE_WIDTH: usize = 2;
    /// Per-SM L1 data cache: 16 KB, 4-way, 128 B lines.
    pub const L1: CacheConfig = CacheConfig::new(16 * 1024, 4, 128);
    /// Maximum merged waiters per L1 MSHR entry.
    pub const L1_MSHR_MERGES: usize = 8;
    /// L1 hit latency in core cycles.
    pub const L1_HIT_LATENCY: u64 = 24;
    /// LLC access latency in core cycles.
    pub const LLC_LATENCY: u64 = 120;

    /// The paper's baseline configuration (Table I): 12 SMs, 32 L1
    /// MSHRs per SM, a 512 KB write-through LLC in 8 slices with 64
    /// MSHRs each, a 12×8 crossbar at 700 MHz, and 4 FR-FCFS GDDR5
    /// channels at 924 MHz.
    pub const fn table1() -> Self {
        GpuConfig {
            num_sms: 12,
            l1_mshrs: 32,
            llc_slices: 8,
            llc_slice: CacheConfig::new(64 * 1024, 8, 128),
            llc_mshrs: 64,
            llc_mshr_merges: 8,
            noc_router_latency: 4,
            noc_mhz: 700,
            dram: DramConfig::gddr5(),
            line_bytes: 128,
            max_cycles: 200_000_000,
        }
    }

    /// The baseline with a different SM count (Figure 18's 12/24/48-SM
    /// sweep). The memory system is unchanged, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `num_sms` is 0.
    pub fn with_sms(mut self, num_sms: usize) -> Self {
        assert!(num_sms > 0, "num_sms = 0: the machine needs at least one");
        self.num_sms = num_sms;
        self
    }

    /// The 3D-stacked configuration of Figure 18 (rightmost bars):
    /// 64 SMs, a wider NoC and 64 vault controllers. The LLC is kept at
    /// 8 slices as in the baseline; vaults are interleaved below them.
    pub fn stacked() -> Self {
        let mut cfg = GpuConfig::table1().with_sms(64);
        cfg.dram = DramConfig::stacked_vault();
        // "960 GB/s NoC": scale the NoC clock so 8 slices x 32 B keep up.
        cfg.noc_mhz = 1400;
        cfg
    }

    /// Resident TBs per SM for a kernel with `warps_per_block` warps.
    pub fn tbs_per_sm(warps_per_block: usize) -> usize {
        assert!(
            warps_per_block > 0,
            "kernel must have at least one warp per TB"
        );
        (Self::MAX_WARPS_PER_SM / warps_per_block).clamp(1, Self::MAX_TBS_PER_SM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = GpuConfig::table1();
        assert_eq!(c.num_sms, 12);
        assert_eq!(GpuConfig::L1.sets(), 32);
        assert_eq!(c.llc_slice.sets(), 64);
        // 8 slices x 64 KB = 512 KB total LLC.
        assert_eq!(c.llc_slices as u64 * c.llc_slice.size_bytes(), 512 * 1024);
        assert_eq!((GpuConfig::CORE_CLOCK_MHZ, c.noc_mhz), (1400, 700));
        assert_eq!(c.dram.clock_mhz, 924);
    }

    #[test]
    fn tb_residency_limits() {
        // 8 warps per TB (256 threads): min(48/8, 8) = 6.
        assert_eq!(GpuConfig::tbs_per_sm(8), 6);
        // 2 warps per TB: min(24, 8) = 8.
        assert_eq!(GpuConfig::tbs_per_sm(2), 8);
        // Huge TB still gets one slot.
        assert_eq!(GpuConfig::tbs_per_sm(64), 1);
    }

    #[test]
    fn sm_sweep_keeps_memory_system() {
        let c = GpuConfig::table1().with_sms(48);
        assert_eq!(c.num_sms, 48);
        assert_eq!(c.llc_slices, 8);
    }

    #[test]
    fn stacked_config() {
        let c = GpuConfig::stacked();
        assert_eq!(c.num_sms, 64);
        assert_eq!((c.noc_mhz, c.dram.clock_mhz), (1400, 1250));
    }
}
