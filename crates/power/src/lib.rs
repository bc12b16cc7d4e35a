//! # valley-power
//!
//! Power models for the Valley simulator, their constants fixed for the
//! 1 GB Hynix GDDR5 and the 12-SM GPU of Table I:
//!
//! * DRAM — a Micron-methodology model (the paper uses Micron's DDR
//!   power calculator configured for Hynix GDDR5): background,
//!   activate/precharge, read and write components driven by the
//!   simulator's command counters. Address mapping mainly moves the
//!   **activate** component (Figure 16) via the row-buffer hit rate.
//! * GPU — a GPUWattch-style whole-GPU substitute: static power plus SM
//!   activity-scaled dynamic power.
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
/// Background power per GDDR5 channel (device cluster), Watts.
const BACKGROUND_W_PER_CHANNEL: f64 = 6.0;
/// Energy of one ACT+PRE pair, nanojoules.
const ACT_ENERGY_NJ: f64 = 25.0;
/// Read energy per byte, nanojoules.
const READ_ENERGY_NJ_PER_BYTE: f64 = 0.08;
/// Write energy per byte, nanojoules.
const WRITE_ENERGY_NJ_PER_BYTE: f64 = 0.09;
/// Static/idle GPU power (leakage, clocks, fans), Watts.
const GPU_IDLE_W: f64 = 32.0;
/// Dynamic power of one fully-busy SM, Watts.
const SM_DYNAMIC_W: f64 = 4.5;

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

/// The DRAM power breakdown of a simulation report: energy-per-event
/// constants applied to its command counters over its DRAM time. A run
/// of no DRAM time draws background power only.
pub fn dram_power(r: &SimReport) -> DramPower {
    let background = BACKGROUND_W_PER_CHANNEL * r.dram_channels as f64;
    let seconds = if r.dram_clock_ghz > 0.0 {
        r.dram_cycles as f64 / (r.dram_clock_ghz * 1e9)
    } else {
        0.0
    };
    if seconds <= 0.0 {
        return DramPower {
            background,
            ..DramPower::default()
        };
    }
    DramPower {
        background,
        activate: r.dram.activates as f64 * ACT_ENERGY_NJ * 1e-9 / seconds,
        read: r.dram.reads as f64 * BYTES_PER_ACCESS * READ_ENERGY_NJ_PER_BYTE * 1e-9 / seconds,
        write: r.dram.writes as f64 * BYTES_PER_ACCESS * WRITE_ENERGY_NJ_PER_BYTE * 1e-9 / seconds,
    }
}

/// GPU power of a simulation report, Watts.
fn gpu_power(r: &SimReport) -> f64 {
    GPU_IDLE_W + SM_DYNAMIC_W * r.num_sms as f64 * r.sm_busy_fraction
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

/// Evaluates both models.
pub fn evaluate(r: &SimReport) -> PowerSummary {
    PowerSummary {
        gpu_w: gpu_power(r),
        dram: dram_power(r),
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
            dram_clock_ghz: 0.924,
            num_sms: 12,
            sm_busy_fraction: 0.8,
        }
    }

    #[test]
    fn background_power_scales_with_channels() {
        let p = dram_power(&report(1_000_000, 0, 0));
        assert!((p.background - 24.0).abs() < 1e-9);
        assert_eq!(p.activate, 0.0);
    }

    #[test]
    fn activate_power_tracks_act_count() {
        let lo = dram_power(&report(1_000_000, 10_000, 50_000));
        let hi = dram_power(&report(1_000_000, 40_000, 50_000));
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
        let p = gpu_power(&report(1_000_000, 0, 0));
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
        let p = dram_power(&r);
        assert!(p.activate == 0.0 && p.background > 0.0);
    }
}
