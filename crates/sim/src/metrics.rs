//! Simulation metrics: everything the paper's evaluation figures report.

use crate::config::GpuConfig;
use crate::json::{self, Json};
use crate::record::Codec;
use valley_cache::CacheStats;
use valley_dram::DramStats;

/// Version of the [`SimReport`] JSON encoding. Bump whenever a field is
/// added, removed or changes meaning: stored results from an older schema
/// then fail loudly in [`SimReport::from_json`] instead of silently
/// misparsing into the new shape.
///
/// v2 carried an `epoch_hist` member, the telemetry of the deleted
/// phase-parallel engine. v3 drops it, and counts a cache lookup once
/// per transaction: `l1.misses` and `llc.misses` no longer grow by one
/// for every cycle an MSHR-stalled queue head waited, so `hits + misses`
/// is the number of lookups made.
///
/// v4 drops five `dram` members: `precharges` (always `row_conflicts`),
/// `total_cycles` (always `dram_cycles × dram_channels`), `busy_cycles`
/// and `data_bus_cycles` (Figure 14b's channel parallelism carries the
/// same occupancy) and `total_latency`, none of which anything read.
///
/// v5 drops `core_clock_ghz`, always the constant
/// [`GpuConfig::CORE_CLOCK_MHZ`] in GHz.
pub const REPORT_SCHEMA_VERSION: u32 = 5;

/// Incrementally-integrated occupancy metrics (Figures 13–14).
///
/// The paper defines the parallelism metrics "as the number of outstanding
/// requests if at least one is outstanding": we sample the busy-unit count
/// every `interval` cycles and average over the samples in which at least
/// one unit was busy. Bank-level parallelism is per *busy channel*
/// (Figure 14c), giving the multiplier effect the paper describes.
#[derive(Clone, Debug, Default)]
pub(crate) struct ParallelismIntegrator {
    llc_busy_sum: u64,
    llc_samples: u64,
    chan_busy_sum: u64,
    chan_samples: u64,
    bank_busy_sum: u64,
    bank_samples: u64,
}

impl ParallelismIntegrator {
    /// Records `n` identical samples: `busy_slices` LLC slices with
    /// outstanding requests, `busy_channels` DRAM channels with
    /// outstanding requests, and `busy_banks` banks with outstanding
    /// requests over all channels. Each busy channel is one bank sample,
    /// busy banks or not, so the bank mean is per busy channel. The drive
    /// loop passes the sampling points that elapsed since it last changed
    /// any state (one per dense cycle, a whole skipped window in the
    /// evented loop).
    pub(crate) fn sample_n(
        &mut self,
        busy_slices: usize,
        busy_channels: usize,
        busy_banks: usize,
        n: u64,
    ) {
        if busy_slices > 0 {
            self.llc_busy_sum += busy_slices as u64 * n;
            self.llc_samples += n;
        }
        if busy_channels > 0 {
            self.chan_busy_sum += busy_channels as u64 * n;
            self.chan_samples += n;
        }
        self.bank_busy_sum += busy_banks as u64 * n;
        self.bank_samples += busy_channels as u64 * n;
    }

    /// Mean number of busy LLC slices over busy samples (Figure 14a).
    pub(crate) fn llc_parallelism(&self) -> f64 {
        mean(self.llc_busy_sum, self.llc_samples)
    }

    /// Mean number of busy channels over busy samples (Figure 14b).
    pub(crate) fn channel_parallelism(&self) -> f64 {
        mean(self.chan_busy_sum, self.chan_samples)
    }

    /// Mean busy banks per busy channel (Figure 14c).
    pub(crate) fn bank_parallelism(&self) -> f64 {
        mean(self.bank_busy_sum, self.bank_samples)
    }
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// The complete result of one simulation run — the raw material for every
/// evaluation figure.
///
/// The wire order and the keys are declared once, in the `record!`
/// table below.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub benchmark: String,
    /// Address-mapping scheme label.
    pub scheme: String,
    /// Execution time in core cycles.
    pub cycles: u64,
    /// Whether the run was cut at its cycle limit (`GpuSim::run_to`'s,
    /// at most `GpuSim::CYCLE_CEILING`) before the workload finished.
    pub truncated: bool,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// Thread-level instructions (warp instructions × warp size).
    pub thread_instructions: u64,
    /// Coalesced memory transactions created.
    pub memory_transactions: u64,
    /// Aggregated L1 statistics over all SMs: one lookup per load
    /// transaction.
    pub l1: CacheStats,
    /// Aggregated LLC statistics over all slices: one lookup per
    /// transaction the request network delivered.
    pub llc: CacheStats,
    /// Mean NoC packet latency in **core** cycles (request + reply nets).
    pub noc_latency: f64,
    /// Mean busy LLC slices (Figure 14a).
    pub llc_parallelism: f64,
    /// Mean busy DRAM channels (Figure 14b).
    pub channel_parallelism: f64,
    /// Mean busy banks per busy channel (Figure 14c).
    pub bank_parallelism: f64,
    /// Aggregated DRAM counters (feeds the power model, Figures 15/16).
    pub dram: DramStats,
    /// Number of kernels executed.
    pub kernels: usize,
    /// DRAM cycles elapsed (for power-model time conversion).
    pub dram_cycles: u64,
    /// Number of DRAM channels (for power-model per-device scaling).
    pub dram_channels: usize,
    /// DRAM clock in GHz (for power-model time conversion).
    pub dram_clock_ghz: f64,
    /// Number of SMs (for the GPU power model).
    pub num_sms: usize,
    /// Fraction of cycles with at least one resident warp, averaged over
    /// SMs (GPU dynamic-power activity factor).
    pub sm_busy_fraction: f64,
}

impl SimReport {
    /// Execution time in seconds at the core clock,
    /// [`GpuConfig::CORE_CLOCK_MHZ`].
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (GpuConfig::CORE_CLOCK_MHZ as f64 * 1e6)
    }

    /// Warp instructions per cycle, aggregated over the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// LLC accesses per kilo (thread) instruction — Table II's APKI.
    pub fn apki(&self) -> f64 {
        per_kilo(self.llc.accesses(), self.thread_instructions)
    }

    /// LLC misses per kilo (thread) instruction — Table II's MPKI.
    pub fn mpki(&self) -> f64 {
        per_kilo(self.llc.misses, self.thread_instructions)
    }

    /// LLC miss rate (Figure 13b).
    pub fn llc_miss_rate(&self) -> f64 {
        self.llc.miss_rate()
    }

    /// DRAM row-buffer hit rate (Figure 15).
    pub fn row_buffer_hit_rate(&self) -> f64 {
        self.dram.row_buffer_hit_rate()
    }

    /// Speedup of this run relative to a baseline run of the same
    /// workload (baseline cycles / these cycles).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }
}

fn per_kilo(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instructions as f64
    }
}

// --- JSON round trip (the harness's persistent result store) ---

crate::record! {
    SimReport, version "v" = REPORT_SCHEMA_VERSION {
        benchmark: String = "benchmark",
        scheme: String = "scheme",
        cycles: u64 = "cycles",
        truncated: bool = "truncated",
        warp_instructions: u64 = "warp_instructions",
        thread_instructions: u64 = "thread_instructions",
        memory_transactions: u64 = "memory_transactions",
        l1: CacheStats = "l1",
        llc: CacheStats = "llc",
        noc_latency: f64 = "noc_latency",
        llc_parallelism: f64 = "llc_parallelism",
        channel_parallelism: f64 = "channel_parallelism",
        bank_parallelism: f64 = "bank_parallelism",
        dram: DramStats = "dram",
        kernels: usize = "kernels",
        dram_cycles: u64 = "dram_cycles",
        dram_channels: usize = "dram_channels",
        dram_clock_ghz: f64 = "dram_clock_ghz",
        num_sms: usize = "num_sms",
        sm_busy_fraction: f64 = "sm_busy_fraction",
    }
}

impl SimReport {
    /// Serializes the report as a versioned single-line JSON object.
    ///
    /// The inverse is [`SimReport::from_json`]; the two are pinned by a
    /// round-trip property test. Every counter is written as an exact
    /// integer, so equality (not just approximation) survives storage.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_string()
    }

    /// [`SimReport::to_json`] under the name the equivalence batteries
    /// compare by: every member of the report is a simulation result,
    /// and bit-identical results serialize to identical digit strings.
    pub fn results_json(&self) -> String {
        self.to_json()
    }

    /// The report as a [`Json`] value (for embedding in larger records).
    pub fn to_json_value(&self) -> Json {
        self.encode()
    }

    /// Deserializes a report written by [`SimReport::to_json`].
    ///
    /// # Errors
    ///
    /// Fails loudly on malformed JSON, a missing/mistyped field, or — the
    /// case the version field exists for — a schema version other than
    /// [`REPORT_SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<SimReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        SimReport::from_json_value(&v)
    }

    /// Deserializes a report from an already-parsed [`Json`] value.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimReport::from_json`].
    pub fn from_json_value(v: &Json) -> Result<SimReport, String> {
        SimReport::decode(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> SimReport {
        SimReport {
            benchmark: "T".into(),
            scheme: "BASE".into(),
            cycles,
            truncated: false,
            warp_instructions: 1000,
            thread_instructions: 32_000,
            memory_transactions: 100,
            l1: CacheStats::default(),
            llc: CacheStats {
                hits: 60,
                misses: 40,
                evictions: 0,
            },
            noc_latency: 50.0,
            llc_parallelism: 2.0,
            channel_parallelism: 1.5,
            bank_parallelism: 4.0,
            dram: DramStats::default(),
            kernels: 1,
            dram_cycles: 0,
            dram_channels: 4,
            dram_clock_ghz: 0.924,
            num_sms: 12,
            sm_busy_fraction: 0.9,
        }
    }

    #[test]
    fn derived_rates() {
        let r = report(10_000);
        assert!((r.apki() - 100.0 / 32.0).abs() < 1e-9);
        assert!((r.mpki() - 40.0 / 32.0).abs() < 1e-9);
        assert!((r.llc_miss_rate() - 0.4).abs() < 1e-12);
        assert!((r.ipc() - 0.1).abs() < 1e-12);
        assert!(r.seconds() > 0.0);
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let base = report(20_000);
        let fast = report(10_000);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integrator_averages_over_busy_samples() {
        let mut p = ParallelismIntegrator::default();
        p.sample_n(2, 1, 4, 1);
        // Idle samples are ignored.
        p.sample_n(0, 0, 0, 3);
        // Busy banks [2, 6, 4, 0]: the channel with none still counts.
        p.sample_n(4, 4, 12, 2);
        assert!((p.llc_parallelism() - 10.0 / 3.0).abs() < 1e-12);
        assert!((p.channel_parallelism() - 3.0).abs() < 1e-12);
        assert!((p.bank_parallelism() - 28.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_integrator_is_zero() {
        let p = ParallelismIntegrator::default();
        assert_eq!(p.llc_parallelism(), 0.0);
        assert_eq!(p.bank_parallelism(), 0.0);
    }
}
