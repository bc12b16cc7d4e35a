//! Simulated GPU configuration (Table I).

use valley_cache::CacheConfig;
use valley_dram::DramConfig;

/// Complete configuration of the simulated GPU (Table I).
///
/// The defaults reproduce the paper's baseline: 12 SMs at 1.4 GHz with 48
/// warps / 1536 threads each, GTO scheduling with 2 issue slots, a 16 KB
/// 4-way L1 with 32 MSHRs per SM, a 512 KB write-through LLC in 8 slices
/// (120-cycle latency), a 12×8 crossbar at 700 MHz, and 4 FR-FCFS GDDR5
/// channels at 924 MHz. The scheduling and write policies are the
/// paper's and not configurable; the fields size and clock the machine.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_tbs_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Instructions issued per SM per cycle (2 warp schedulers); 1 to 8.
    pub issue_width: usize,
    /// Per-SM L1 data cache geometry.
    pub l1: CacheConfig,
    /// L1 MSHR entries per SM.
    pub l1_mshrs: usize,
    /// Maximum merged waiters per L1 MSHR entry.
    pub l1_mshr_merges: usize,
    /// L1 hit latency in core cycles.
    pub l1_hit_latency: u64,
    /// Number of LLC slices (2 per memory controller in the baseline).
    pub llc_slices: usize,
    /// Geometry of one LLC slice.
    pub llc_slice: CacheConfig,
    /// LLC access latency in core cycles (Table I: 120).
    pub llc_latency: u64,
    /// LLC MSHR entries per slice.
    pub llc_mshrs: usize,
    /// Maximum merged waiters per LLC MSHR entry.
    pub llc_mshr_merges: usize,
    /// NoC router pipeline latency in NoC cycles.
    pub noc_router_latency: u64,
    /// Core clock in GHz.
    pub core_clock_ghz: f64,
    /// NoC clock in GHz (half the core clock in Table I).
    pub noc_clock_ghz: f64,
    /// DRAM channel configuration (also fixes the DRAM clock).
    pub dram: DramConfig,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: u64,
    /// Safety limit on simulated core cycles.
    pub max_cycles: u64,
}

impl GpuConfig {
    /// The paper's baseline configuration (Table I).
    pub fn table1() -> Self {
        GpuConfig {
            num_sms: 12,
            max_warps_per_sm: 48,
            max_threads_per_sm: 1536,
            max_tbs_per_sm: 8,
            warp_size: 32,
            issue_width: 2,
            l1: CacheConfig::new(16 * 1024, 4, 128),
            l1_mshrs: 32,
            l1_mshr_merges: 8,
            l1_hit_latency: 24,
            llc_slices: 8,
            llc_slice: CacheConfig::new(64 * 1024, 8, 128),
            llc_latency: 120,
            llc_mshrs: 64,
            llc_mshr_merges: 8,
            noc_router_latency: 4,
            core_clock_ghz: 1.4,
            noc_clock_ghz: 0.7,
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
        cfg.noc_clock_ghz = 1.4;
        cfg
    }

    /// Resident TBs per SM for a kernel with `warps_per_block` warps.
    pub fn tbs_per_sm(&self, warps_per_block: usize) -> usize {
        assert!(
            warps_per_block > 0,
            "kernel must have at least one warp per TB"
        );
        let by_warps = self.max_warps_per_sm / warps_per_block;
        let by_threads = self.max_threads_per_sm / (warps_per_block * self.warp_size);
        by_warps.min(by_threads).min(self.max_tbs_per_sm).max(1)
    }

    /// DRAM cycles advanced per core cycle (clock-domain ratio).
    pub fn dram_per_core(&self) -> f64 {
        self.dram.clock_ghz / self.core_clock_ghz
    }

    /// NoC cycles advanced per core cycle.
    pub fn noc_per_core(&self) -> f64 {
        self.noc_clock_ghz / self.core_clock_ghz
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = GpuConfig::table1();
        assert_eq!(c.num_sms, 12);
        assert_eq!(c.l1.sets(), 32);
        assert_eq!(c.llc_slice.sets(), 64);
        // 8 slices x 64 KB = 512 KB total LLC.
        assert_eq!(c.llc_slices as u64 * c.llc_slice.size_bytes(), 512 * 1024);
        assert!((c.noc_per_core() - 0.5).abs() < 1e-12);
        assert!((c.dram_per_core() - 0.924 / 1.4).abs() < 1e-12);
    }

    #[test]
    fn tb_residency_limits() {
        let c = GpuConfig::table1();
        // 8 warps per TB (256 threads): min(48/8, 1536/256, 8) = 6.
        assert_eq!(c.tbs_per_sm(8), 6);
        // 2 warps per TB: min(24, 24, 8) = 8.
        assert_eq!(c.tbs_per_sm(2), 8);
        // Huge TB still gets one slot.
        assert_eq!(c.tbs_per_sm(64), 1);
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
        assert!((c.dram.clock_ghz - 1.25).abs() < 1e-9);
    }
}
