//! # valley-power
//!
//! Power models for the Valley simulator:
//!
//! * [`DramPowerModel`] — a Micron-methodology DRAM power model (the
//!   paper uses Micron's DDR power calculator configured for Hynix
//!   GDDR5): background, activate/precharge, read and write components
//!   driven by the simulator's command counters. Address mapping mainly
//!   moves the **activate** component (Figure 16) via the row-buffer hit
//!   rate.
//! * [`GpuPowerModel`] — a GPUWattch-style whole-GPU substitute: static
//!   power plus SM activity-scaled dynamic power.
//!
//! Absolute Watts are calibrated to the paper's ballpark (total DRAM
//! power in the tens of Watts, DRAM up to ~40% of system power); the
//! paper's claims are about *relative* power across mapping schemes,
//! which these counters capture exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use valley_sim::SimReport;

/// Bytes moved per DRAM column access (one coalesced transaction).
const BYTES_PER_ACCESS: f64 = 128.0;

/// DRAM power broken into the paper's four components (Figure 16).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramPower {
    /// Always-on background power (clocking, refresh, standby), Watts.
    pub background: f64,
    /// Row activate + precharge power, Watts.
    pub activate: f64,
    /// Read burst power, Watts.
    pub read: f64,
    /// Write burst power, Watts.
    pub write: f64,
}

impl DramPower {
    /// Total DRAM power in Watts.
    pub fn total(&self) -> f64 {
        self.background + self.activate + self.read + self.write
    }
}

/// Micron-style DRAM power model: energy-per-event constants applied to
/// the simulator's command counters.
///
/// # Examples
///
/// ```
/// use valley_power::DramPowerModel;
///
/// let model = DramPowerModel::gddr5();
/// // 1e6 activates in 10 ms:
/// let act_w = model.activate_power(1_000_000, 0.01);
/// assert!(act_w > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramPowerModel {
    /// Background power per channel (device cluster), Watts.
    pub background_w_per_channel: f64,
    /// Energy of one ACT+PRE pair, nanojoules.
    pub act_energy_nj: f64,
    /// Read energy per byte, nanojoules.
    pub read_energy_nj_per_byte: f64,
    /// Write energy per byte, nanojoules.
    pub write_energy_nj_per_byte: f64,
}

impl DramPowerModel {
    /// Constants for the 1 GB Hynix GDDR5 configuration (Table I).
    pub const fn gddr5() -> Self {
        DramPowerModel {
            background_w_per_channel: 6.0,
            act_energy_nj: 25.0,
            read_energy_nj_per_byte: 0.08,
            write_energy_nj_per_byte: 0.09,
        }
    }

    /// Activate power for `activates` ACT commands over `seconds`.
    pub fn activate_power(&self, activates: u64, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        activates as f64 * self.act_energy_nj * 1e-9 / seconds
    }

    /// Evaluates the full breakdown from a simulation report.
    pub fn evaluate(&self, r: &SimReport) -> DramPower {
        let seconds = if r.dram_clock_ghz > 0.0 {
            r.dram_cycles as f64 / (r.dram_clock_ghz * 1e9)
        } else {
            0.0
        };
        if seconds <= 0.0 {
            return DramPower {
                background: self.background_w_per_channel * r.dram_channels as f64,
                ..DramPower::default()
            };
        }
        DramPower {
            background: self.background_w_per_channel * r.dram_channels as f64,
            activate: self.activate_power(r.dram.activates, seconds),
            read: r.dram.reads as f64 * BYTES_PER_ACCESS * self.read_energy_nj_per_byte * 1e-9
                / seconds,
            write: r.dram.writes as f64 * BYTES_PER_ACCESS * self.write_energy_nj_per_byte * 1e-9
                / seconds,
        }
    }
}

impl Default for DramPowerModel {
    fn default() -> Self {
        DramPowerModel::gddr5()
    }
}

/// GPUWattch-style whole-GPU power substitute: static leakage plus
/// activity-scaled SM dynamic power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuPowerModel {
    /// Static/idle GPU power (leakage, clocks, fans), Watts.
    pub idle_w: f64,
    /// Dynamic power of one fully-busy SM, Watts.
    pub sm_dynamic_w: f64,
}

impl GpuPowerModel {
    /// Constants for the 12-SM baseline GPU.
    pub const fn baseline() -> Self {
        GpuPowerModel {
            idle_w: 32.0,
            sm_dynamic_w: 4.5,
        }
    }

    /// GPU power for a simulation report.
    pub fn evaluate(&self, r: &SimReport) -> f64 {
        self.idle_w + self.sm_dynamic_w * r.num_sms as f64 * r.sm_busy_fraction
    }
}

impl Default for GpuPowerModel {
    fn default() -> Self {
        GpuPowerModel::baseline()
    }
}

/// Combined system power (GPU + DRAM) for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerSummary {
    /// GPU power in Watts.
    pub gpu_w: f64,
    /// DRAM power breakdown.
    pub dram: DramPower,
}

impl PowerSummary {
    /// Total system power in Watts.
    pub fn system_w(&self) -> f64 {
        self.gpu_w + self.dram.total()
    }
}

/// Evaluates both models with their default constants.
pub fn evaluate(r: &SimReport) -> PowerSummary {
    PowerSummary {
        gpu_w: GpuPowerModel::baseline().evaluate(r),
        dram: DramPowerModel::gddr5().evaluate(r),
    }
}

/// Normalized performance-per-Watt of `r` relative to `baseline`
/// (Figure 17): speedup × (baseline system power / this system power).
pub fn perf_per_watt(r: &SimReport, baseline: &SimReport) -> f64 {
    let pr = evaluate(r).system_w();
    let pb = evaluate(baseline).system_w();
    if pr <= 0.0 || r.cycles == 0 {
        return 0.0;
    }
    r.speedup_over(baseline) * pb / pr
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_cache::CacheStats;
    use valley_dram::DramStats;

    fn report(cycles: u64, activates: u64, reads: u64) -> SimReport {
        SimReport {
            benchmark: "T".into(),
            scheme: "BASE".into(),
            cycles,
            truncated: false,
            warp_instructions: 1000,
            thread_instructions: 32000,
            memory_transactions: reads,
            l1: CacheStats::default(),
            llc: CacheStats::default(),
            noc_latency: 0.0,
            llc_parallelism: 1.0,
            channel_parallelism: 1.0,
            bank_parallelism: 1.0,
            dram: DramStats {
                activates,
                reads,
                writes: reads / 4,
                ..Default::default()
            },
            kernels: 1,
            dram_cycles: (cycles as f64 * 0.66) as u64,
            dram_channels: 4,
            core_clock_ghz: 1.4,
            dram_clock_ghz: 0.924,
            num_sms: 12,
            sm_busy_fraction: 0.8,
        }
    }

    #[test]
    fn background_power_scales_with_channels() {
        let m = DramPowerModel::gddr5();
        let p = m.evaluate(&report(1_000_000, 0, 0));
        assert!((p.background - 24.0).abs() < 1e-9);
        assert_eq!(p.activate, 0.0);
    }

    #[test]
    fn activate_power_tracks_act_count() {
        let m = DramPowerModel::gddr5();
        let lo = m.evaluate(&report(1_000_000, 10_000, 50_000));
        let hi = m.evaluate(&report(1_000_000, 40_000, 50_000));
        assert!((hi.activate / lo.activate - 4.0).abs() < 1e-9);
        // Reads identical -> read power identical.
        assert!((hi.read - lo.read).abs() < 1e-12);
    }

    #[test]
    fn totals_compose() {
        let p = DramPower {
            background: 24.0,
            activate: 10.0,
            read: 5.0,
            write: 2.0,
        };
        assert!((p.total() - 41.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_power_tracks_activity() {
        let m = GpuPowerModel::baseline();
        let r = report(1_000_000, 0, 0);
        let p = m.evaluate(&r);
        assert!((p - (32.0 + 4.5 * 12.0 * 0.8)).abs() < 1e-9);
    }

    #[test]
    fn perf_per_watt_rewards_speed_and_efficiency() {
        let base = report(2_000_000, 50_000, 100_000);
        // Twice as fast with the same activity counters over less time:
        // higher power, but perf/W must still improve.
        let mut fast = report(1_000_000, 50_000, 100_000);
        fast.dram_cycles = base.dram_cycles / 2;
        let ppw = perf_per_watt(&fast, &base);
        assert!(ppw > 1.0, "ppw = {ppw}");
        assert!((perf_per_watt(&base, &base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_degrades_gracefully() {
        let mut r = report(0, 0, 0);
        r.dram_cycles = 0;
        let p = DramPowerModel::gddr5().evaluate(&r);
        assert!(p.activate == 0.0 && p.background > 0.0);
    }
}
