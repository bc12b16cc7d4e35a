//! Simulation metrics: everything the paper's evaluation figures report.

use crate::json::{self, Json};
use valley_cache::CacheStats;
use valley_dram::DramStats;

/// Version of the [`SimReport`] JSON encoding. Bump whenever a field is
/// added, removed or changes meaning: stored results from an older schema
/// then fail loudly in [`SimReport::from_json`] instead of silently
/// misparsing into the new shape.
///
/// v2 added the [`EpochHist`] engine diagnostics.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// Epoch-length histogram written by the deleted phase-parallel engine.
///
/// No engine produces one any more — every run reports the all-zero
/// default — but stores written by that engine hold non-zero ones, and
/// the v2 encoding carries the field, so it is decoded and re-encoded
/// as is. It was **engine telemetry, not a simulation
/// result**, and stays excluded from [`SimReport`]'s equality and from
/// [`SimReport::results_json`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochHist {
    /// Epoch counts bucketed by length: bucket `i` counted epochs whose
    /// cycle count lay in `[2^i, 2^(i+1))`, the last bucket open-ended.
    pub lengths: [u64; 8],
    /// Multi-cycle epochs planned while a reply-net packet was in
    /// flight.
    pub in_flight_multi: u64,
}

/// Incrementally-integrated occupancy metrics (Figures 13–14).
///
/// The paper defines the parallelism metrics "as the number of outstanding
/// requests if at least one is outstanding": we sample the busy-unit count
/// every `interval` cycles and average over the samples in which at least
/// one unit was busy. Bank-level parallelism is per *busy channel*
/// (Figure 14c), giving the multiplier effect the paper describes.
#[derive(Clone, Debug, Default)]
pub struct ParallelismIntegrator {
    llc_busy_sum: u64,
    llc_samples: u64,
    chan_busy_sum: u64,
    chan_samples: u64,
    bank_busy_sum: u64,
    bank_samples: u64,
}

impl ParallelismIntegrator {
    /// Creates an empty integrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample: `busy_slices` LLC slices with outstanding
    /// requests, `busy_channels` DRAM channels with outstanding requests,
    /// and per-busy-channel busy-bank counts.
    pub fn sample(&mut self, busy_slices: usize, busy_channels: usize, banks_per_busy: &[usize]) {
        if busy_slices > 0 {
            self.llc_busy_sum += busy_slices as u64;
            self.llc_samples += 1;
        }
        if busy_channels > 0 {
            self.chan_busy_sum += busy_channels as u64;
            self.chan_samples += 1;
        }
        for &b in banks_per_busy {
            self.bank_busy_sum += b as u64;
            self.bank_samples += 1;
        }
    }

    /// Records the same sample `n` times — used by the event-driven fast
    /// path, where the sampled state is provably constant over a skipped
    /// window and each elapsed sampling point contributes one sample.
    pub fn sample_n(
        &mut self,
        busy_slices: usize,
        busy_channels: usize,
        banks_per_busy: &[usize],
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        if busy_slices > 0 {
            self.llc_busy_sum += busy_slices as u64 * n;
            self.llc_samples += n;
        }
        if busy_channels > 0 {
            self.chan_busy_sum += busy_channels as u64 * n;
            self.chan_samples += n;
        }
        for &b in banks_per_busy {
            self.bank_busy_sum += b as u64 * n;
            self.bank_samples += n;
        }
    }

    /// Mean number of busy LLC slices over busy samples (Figure 14a).
    pub fn llc_parallelism(&self) -> f64 {
        mean(self.llc_busy_sum, self.llc_samples)
    }

    /// Mean number of busy channels over busy samples (Figure 14b).
    pub fn channel_parallelism(&self) -> f64 {
        mean(self.chan_busy_sum, self.chan_samples)
    }

    /// Mean busy banks per busy channel (Figure 14c).
    pub fn bank_parallelism(&self) -> f64 {
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
/// Equality compares the simulation *results* only; the
/// [`epoch_hist`](SimReport::epoch_hist) engine diagnostics are excluded
/// (see [`EpochHist`]).
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Workload name.
    pub benchmark: String,
    /// Address-mapping scheme label.
    pub scheme: String,
    /// Execution time in core cycles.
    pub cycles: u64,
    /// Whether the safety cycle limit truncated the run.
    pub truncated: bool,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// Thread-level instructions (warp instructions × warp size).
    pub thread_instructions: u64,
    /// Coalesced memory transactions created.
    pub memory_transactions: u64,
    /// Aggregated L1 statistics over all SMs.
    pub l1: CacheStats,
    /// Aggregated LLC statistics over all slices.
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
    /// Core clock in GHz (for time conversion).
    pub core_clock_ghz: f64,
    /// DRAM clock in GHz (for power-model time conversion).
    pub dram_clock_ghz: f64,
    /// Number of SMs (for the GPU power model).
    pub num_sms: usize,
    /// Fraction of cycles with at least one resident warp, averaged over
    /// SMs (GPU dynamic-power activity factor).
    pub sm_busy_fraction: f64,
    /// Engine diagnostics, all-zero unless decoded from an old store.
    /// Excluded from equality and from [`SimReport::results_json`] —
    /// see [`EpochHist`].
    pub epoch_hist: EpochHist,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `epoch_hist` (engine telemetry — see the
        // struct docs). Listed explicitly so adding a result field
        // without extending the comparison is a compile error… it is
        // not, with a plain `&&` chain — so destructure instead.
        let SimReport {
            benchmark,
            scheme,
            cycles,
            truncated,
            warp_instructions,
            thread_instructions,
            memory_transactions,
            l1,
            llc,
            noc_latency,
            llc_parallelism,
            channel_parallelism,
            bank_parallelism,
            dram,
            kernels,
            dram_cycles,
            dram_channels,
            core_clock_ghz,
            dram_clock_ghz,
            num_sms,
            sm_busy_fraction,
            epoch_hist: _,
        } = self;
        benchmark == &other.benchmark
            && scheme == &other.scheme
            && cycles == &other.cycles
            && truncated == &other.truncated
            && warp_instructions == &other.warp_instructions
            && thread_instructions == &other.thread_instructions
            && memory_transactions == &other.memory_transactions
            && l1 == &other.l1
            && llc == &other.llc
            && noc_latency == &other.noc_latency
            && llc_parallelism == &other.llc_parallelism
            && channel_parallelism == &other.channel_parallelism
            && bank_parallelism == &other.bank_parallelism
            && dram == &other.dram
            && kernels == &other.kernels
            && dram_cycles == &other.dram_cycles
            && dram_channels == &other.dram_channels
            && core_clock_ghz == &other.core_clock_ghz
            && dram_clock_ghz == &other.dram_clock_ghz
            && num_sms == &other.num_sms
            && sm_busy_fraction == &other.sm_busy_fraction
    }
}

impl SimReport {
    /// Execution time in seconds at the configured core clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.core_clock_ghz * 1e9)
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

fn cache_stats_json(s: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::UInt(s.hits)),
        ("misses".into(), Json::UInt(s.misses)),
        ("evictions".into(), Json::UInt(s.evictions)),
    ])
}

fn dram_stats_json(s: &DramStats) -> Json {
    Json::Obj(vec![
        ("activates".into(), Json::UInt(s.activates)),
        ("precharges".into(), Json::UInt(s.precharges)),
        ("reads".into(), Json::UInt(s.reads)),
        ("writes".into(), Json::UInt(s.writes)),
        ("row_hits".into(), Json::UInt(s.row_hits)),
        ("row_empties".into(), Json::UInt(s.row_empties)),
        ("row_conflicts".into(), Json::UInt(s.row_conflicts)),
        ("busy_cycles".into(), Json::UInt(s.busy_cycles)),
        ("data_bus_cycles".into(), Json::UInt(s.data_bus_cycles)),
        ("total_cycles".into(), Json::UInt(s.total_cycles)),
        ("total_latency".into(), Json::UInt(s.total_latency)),
    ])
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("SimReport JSON is missing field '{key}'"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("SimReport field '{key}' is not an unsigned integer"))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("SimReport field '{key}' is not a number"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, key)?).map_err(|_| format!("SimReport field '{key}' overflows"))
}

fn get_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("SimReport field '{key}' is not a string"))?
        .to_string())
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("SimReport field '{key}' is not a boolean"))
}

fn cache_stats_from(v: &Json, key: &str) -> Result<CacheStats, String> {
    let o = field(v, key)?;
    Ok(CacheStats {
        hits: get_u64(o, "hits")?,
        misses: get_u64(o, "misses")?,
        evictions: get_u64(o, "evictions")?,
    })
}

fn dram_stats_from(v: &Json, key: &str) -> Result<DramStats, String> {
    let o = field(v, key)?;
    Ok(DramStats {
        activates: get_u64(o, "activates")?,
        precharges: get_u64(o, "precharges")?,
        reads: get_u64(o, "reads")?,
        writes: get_u64(o, "writes")?,
        row_hits: get_u64(o, "row_hits")?,
        row_empties: get_u64(o, "row_empties")?,
        row_conflicts: get_u64(o, "row_conflicts")?,
        busy_cycles: get_u64(o, "busy_cycles")?,
        data_bus_cycles: get_u64(o, "data_bus_cycles")?,
        total_cycles: get_u64(o, "total_cycles")?,
        total_latency: get_u64(o, "total_latency")?,
    })
}

impl SimReport {
    /// Serializes the report as a versioned single-line JSON object,
    /// including the [`EpochHist`] engine diagnostics.
    ///
    /// The inverse is [`SimReport::from_json`]; the two are pinned by a
    /// round-trip property test. Every counter is written as an exact
    /// integer, so equality (not just approximation) survives storage.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_string()
    }

    /// The simulation *results* as a single-line JSON string — every
    /// field of [`SimReport::to_json`] except the engine diagnostics.
    /// This is the canonical byte form the equivalence batteries
    /// compare: bit-identical results serialize to identical digit
    /// strings.
    pub fn results_json(&self) -> String {
        Json::Obj(self.result_fields()).to_json_string()
    }

    /// The report as a [`Json`] value (for embedding in larger records).
    pub fn to_json_value(&self) -> Json {
        let mut fields = self.result_fields();
        fields.push((
            "epoch_hist".into(),
            Json::Obj(vec![
                (
                    "lengths".into(),
                    Json::Arr(
                        self.epoch_hist
                            .lengths
                            .iter()
                            .map(|&n| Json::UInt(n))
                            .collect(),
                    ),
                ),
                (
                    "in_flight_multi".into(),
                    Json::UInt(self.epoch_hist.in_flight_multi),
                ),
            ]),
        ));
        Json::Obj(fields)
    }

    /// Every result field in canonical order (shared by
    /// [`SimReport::to_json_value`] and [`SimReport::results_json`] so
    /// the two can never drift apart).
    fn result_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("v".into(), Json::UInt(u64::from(REPORT_SCHEMA_VERSION))),
            ("benchmark".into(), Json::Str(self.benchmark.clone())),
            ("scheme".into(), Json::Str(self.scheme.clone())),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("truncated".into(), Json::Bool(self.truncated)),
            (
                "warp_instructions".into(),
                Json::UInt(self.warp_instructions),
            ),
            (
                "thread_instructions".into(),
                Json::UInt(self.thread_instructions),
            ),
            (
                "memory_transactions".into(),
                Json::UInt(self.memory_transactions),
            ),
            ("l1".into(), cache_stats_json(&self.l1)),
            ("llc".into(), cache_stats_json(&self.llc)),
            ("noc_latency".into(), Json::Num(self.noc_latency)),
            ("llc_parallelism".into(), Json::Num(self.llc_parallelism)),
            (
                "channel_parallelism".into(),
                Json::Num(self.channel_parallelism),
            ),
            ("bank_parallelism".into(), Json::Num(self.bank_parallelism)),
            ("dram".into(), dram_stats_json(&self.dram)),
            ("kernels".into(), Json::UInt(self.kernels as u64)),
            ("dram_cycles".into(), Json::UInt(self.dram_cycles)),
            (
                "dram_channels".into(),
                Json::UInt(self.dram_channels as u64),
            ),
            ("core_clock_ghz".into(), Json::Num(self.core_clock_ghz)),
            ("dram_clock_ghz".into(), Json::Num(self.dram_clock_ghz)),
            ("num_sms".into(), Json::UInt(self.num_sms as u64)),
            ("sm_busy_fraction".into(), Json::Num(self.sm_busy_fraction)),
        ]
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
        let version = get_u64(v, "v")?;
        if version != u64::from(REPORT_SCHEMA_VERSION) {
            return Err(format!(
                "SimReport schema version {version} is not the supported \
                 {REPORT_SCHEMA_VERSION}; re-run the sweep to regenerate stored results"
            ));
        }
        let hist = field(v, "epoch_hist")?;
        let lengths_json = field(hist, "lengths")?
            .as_arr()
            .ok_or("SimReport field 'epoch_hist.lengths' is not an array")?;
        let mut lengths = [0u64; 8];
        if lengths_json.len() != lengths.len() {
            return Err(format!(
                "SimReport field 'epoch_hist.lengths' has {} buckets, expected {}",
                lengths_json.len(),
                lengths.len()
            ));
        }
        for (slot, j) in lengths.iter_mut().zip(lengths_json) {
            *slot = j
                .as_u64()
                .ok_or("SimReport field 'epoch_hist.lengths' holds a non-integer")?;
        }
        let epoch_hist = EpochHist {
            lengths,
            in_flight_multi: get_u64(hist, "in_flight_multi")?,
        };
        Ok(SimReport {
            benchmark: get_str(v, "benchmark")?,
            scheme: get_str(v, "scheme")?,
            cycles: get_u64(v, "cycles")?,
            truncated: get_bool(v, "truncated")?,
            warp_instructions: get_u64(v, "warp_instructions")?,
            thread_instructions: get_u64(v, "thread_instructions")?,
            memory_transactions: get_u64(v, "memory_transactions")?,
            l1: cache_stats_from(v, "l1")?,
            llc: cache_stats_from(v, "llc")?,
            noc_latency: get_f64(v, "noc_latency")?,
            llc_parallelism: get_f64(v, "llc_parallelism")?,
            channel_parallelism: get_f64(v, "channel_parallelism")?,
            bank_parallelism: get_f64(v, "bank_parallelism")?,
            dram: dram_stats_from(v, "dram")?,
            kernels: get_usize(v, "kernels")?,
            dram_cycles: get_u64(v, "dram_cycles")?,
            dram_channels: get_usize(v, "dram_channels")?,
            core_clock_ghz: get_f64(v, "core_clock_ghz")?,
            dram_clock_ghz: get_f64(v, "dram_clock_ghz")?,
            num_sms: get_usize(v, "num_sms")?,
            sm_busy_fraction: get_f64(v, "sm_busy_fraction")?,
            epoch_hist,
        })
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
            core_clock_ghz: 1.4,
            dram_clock_ghz: 0.924,
            num_sms: 12,
            sm_busy_fraction: 0.9,
            epoch_hist: EpochHist::default(),
        }
    }

    #[test]
    fn report_equality_ignores_engine_diagnostics() {
        let a = report(10);
        let mut b = report(10);
        b.epoch_hist.lengths[2] = 1;
        b.epoch_hist.in_flight_multi = 1;
        assert_eq!(a, b, "epoch telemetry must not break result equality");
        assert_eq!(a.results_json(), b.results_json());
        assert_ne!(
            a.to_json(),
            b.to_json(),
            "the full serialization does carry the histogram"
        );
        let mut c = report(10);
        c.cycles += 1;
        assert_ne!(a, c, "result fields still compare");
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
        let mut p = ParallelismIntegrator::new();
        p.sample(2, 1, &[4]);
        p.sample(0, 0, &[]); // idle sample: ignored
        p.sample(4, 3, &[2, 6, 4]);
        assert!((p.llc_parallelism() - 3.0).abs() < 1e-12);
        assert!((p.channel_parallelism() - 2.0).abs() < 1e-12);
        assert!((p.bank_parallelism() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_integrator_is_zero() {
        let p = ParallelismIntegrator::new();
        assert_eq!(p.llc_parallelism(), 0.0);
        assert_eq!(p.bank_parallelism(), 0.0);
    }
}
