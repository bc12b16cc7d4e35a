//! The job model: a [`SweepSpec`] expands the experiment grid
//! (benchmark × scheme × seed × scale × config) into deterministic,
//! content-hashed [`JobSpec`]s, and [`execute_job`] runs one of them.
//!
//! Every job has a canonical key string (see [`JobKey`]) that includes
//! the harness schema version; its FNV-1a hash addresses the result
//! store. Two jobs collide only if they are the same experiment, so a
//! stored result can be reused by any future sweep, figure or ablation
//! that asks for the same point of the grid.

use crate::store::StoredResult;
use std::collections::hash_map::Entry;
use valley_core::hash::{fnv1a, FastMap, FastSet};
use valley_core::{AddressMapper, GddrMap, SchemeKind, StackedMap};
use valley_sim::{GpuConfig, GpuSim, SimReport};
use valley_workloads::{Benchmark, Scale};

/// Version of the job-key schema. Bump when the canonical key format,
/// the simulator's observable semantics, or the stored record layout
/// changes incompatibly: old store entries then fail loudly on load
/// instead of silently serving stale results. `crates/fabric/schema.manifest`
/// keeps one `records` line per version, the digest of the ref records
/// CI fills under it; a change that moves one of them bumps this and
/// appends a line.
///
/// v2: stored reports gained the epoch-histogram engine diagnostics
/// (report schema v2), so v1 records no longer parse.
///
/// v3: a cache lookup is counted once per transaction — `l1.misses`
/// and `llc.misses` mean something else than in a v2 record — and the
/// report lost `epoch_hist` (report schema v3), so v2 records no longer
/// parse; run `valley gc` to drop them and re-sweep.
///
/// v4: the report's `dram` object lost five counters nothing read
/// (report schema v4), so v3 records no longer parse.
pub const SCHEMA_VERSION: u32 = 4;

/// The BIM seed used for the headline results (the paper generates three
/// random BIMs per scheme and reports the best; Figure 19 shows the
/// spread).
pub const DEFAULT_SEED: u64 = 1;

/// Identifies the GPU/memory configuration a job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigId {
    /// The paper's baseline GDDR5 GPU (Table I).
    Table1,
    /// The 3D-stacked memory configuration (Figure 18, rightmost group).
    Stacked,
    /// Table I with a different SM count (Figure 18's scaling sweep).
    Sms(u32),
}

impl ConfigId {
    /// Stable identifier used in job keys and CLI flags.
    pub fn name(self) -> String {
        match self {
            ConfigId::Table1 => "table1".to_string(),
            ConfigId::Stacked => "stacked".to_string(),
            ConfigId::Sms(n) => format!("sms{n}"),
        }
    }

    /// Parses a [`ConfigId::name`] string.
    pub fn parse(s: &str) -> Option<ConfigId> {
        match s {
            "table1" => Some(ConfigId::Table1),
            "stacked" => Some(ConfigId::Stacked),
            _ => {
                let n: u32 = s.strip_prefix("sms")?.parse().ok()?;
                (n > 0).then_some(ConfigId::Sms(n))
            }
        }
    }

    /// The simulator configuration this id denotes.
    pub fn gpu_config(self) -> GpuConfig {
        match self {
            ConfigId::Table1 => GpuConfig::table1(),
            ConfigId::Stacked => GpuConfig::stacked(),
            ConfigId::Sms(n) => GpuConfig::table1().with_sms(n as usize),
        }
    }

    /// Whether this configuration uses the 3D-stacked address map.
    pub fn is_stacked(self) -> bool {
        self == ConfigId::Stacked
    }
}

valley_sim::name_coded!(ConfigId, name, ConfigId::parse);

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// One point of the experiment grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The workload.
    pub bench: Benchmark,
    /// The address-mapping scheme.
    pub scheme: SchemeKind,
    /// The BIM seed (ignored by the deterministic BASE/PM/RMP schemes,
    /// but still part of the key — keys describe the request, not the
    /// scheme's internals).
    pub seed: u64,
    /// The workload scale.
    pub scale: Scale,
    /// The GPU/memory configuration.
    pub config: ConfigId,
}

// The job's coordinates as they travel: nested under a `job` member on
// the fabric wire, flattened into the store line.
valley_sim::record!(JobSpec {
    bench: Benchmark = "bench",
    scheme: SchemeKind = "scheme",
    seed: u64 = "seed",
    scale: Scale = "scale",
    config: ConfigId = "config",
});

impl JobSpec {
    /// The job's content-addressed key.
    pub fn key(&self) -> JobKey {
        JobKey::of(self)
    }

    /// Short human-readable label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{}/{} s{} @{} {}",
            self.bench, self.scheme, self.seed, self.scale, self.config
        )
    }

    /// The simulation this job runs: the job itself with the seed zeroed
    /// unless the scheme reads it. The seed only reaches a simulation
    /// through the randomized schemes' BIM construction, so BASE, PM and
    /// RMP build the same machine for every seed; two jobs with equal
    /// `simulation()`s are the same run and produce the same report.
    pub fn simulation(&self) -> JobSpec {
        JobSpec {
            seed: if self.scheme.is_randomized() {
                self.seed
            } else {
                0
            },
            ..*self
        }
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The content-addressed identity of a job: a canonical key string (the
/// exact experiment coordinates plus [`SCHEMA_VERSION`]) and its 64-bit
/// FNV-1a hash, which addresses the store.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    canonical: String,
    hash: u64,
}

impl JobKey {
    /// Builds the key of a job spec.
    pub fn of(spec: &JobSpec) -> JobKey {
        let canonical = format!(
            "schema={};bench={};scheme={};seed={};scale={};config={}",
            SCHEMA_VERSION,
            spec.bench.label(),
            spec.scheme.label(),
            spec.seed,
            spec.scale.name(),
            spec.config.name(),
        );
        let hash = fnv1a(canonical.as_bytes());
        JobKey { canonical, hash }
    }

    /// The canonical key string.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 64-bit content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The hash in fixed-width hex (file-name and JSON friendly).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// A sweep over the cross product of benchmarks × schemes × seeds ×
/// configs at one scale. Expansion order is deterministic (and
/// independent of how many workers later run the jobs): configs, then
/// benchmarks, then schemes, then seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// The benchmarks to run.
    pub benches: Vec<Benchmark>,
    /// The mapping schemes to run.
    pub schemes: Vec<SchemeKind>,
    /// The BIM seeds to run (the paper uses best-of-3 for PAE/FAE/ALL).
    pub seeds: Vec<u64>,
    /// The workload scale.
    pub scale: Scale,
    /// The GPU/memory configurations.
    pub configs: Vec<ConfigId>,
}

impl SweepSpec {
    /// A single-seed, baseline-config sweep — the shape every figure
    /// consumes.
    pub fn new(benches: &[Benchmark], schemes: &[SchemeKind], scale: Scale) -> Self {
        SweepSpec {
            benches: benches.to_vec(),
            schemes: schemes.to_vec(),
            seeds: vec![DEFAULT_SEED],
            scale,
            configs: vec![ConfigId::Table1],
        }
    }

    /// Replaces the seed list (builder style).
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Replaces the config list (builder style).
    pub fn with_configs(mut self, configs: &[ConfigId]) -> Self {
        self.configs = configs.to_vec();
        self
    }

    /// Expands the grid into concrete jobs, deterministically ordered.
    /// A value repeated on an axis (`--seeds 1,1`) names the same jobs
    /// again, not more jobs: each distinct job is yielded once, at its
    /// first position, so no caller ever holds two slots for one key.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(
            self.configs.len() * self.benches.len() * self.schemes.len() * self.seeds.len(),
        );
        let mut seen = FastSet::default();
        for &config in &self.configs {
            for &bench in &self.benches {
                for &scheme in &self.schemes {
                    for &seed in &self.seeds {
                        let job = JobSpec {
                            bench,
                            scheme,
                            seed,
                            scale: self.scale,
                            config,
                        };
                        if seen.insert(job) {
                            jobs.push(job);
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// Runs one job to completion and returns its report. This is the only
/// place the harness touches the simulator; everything above it deals in
/// keys and stored results.
pub fn execute_job(spec: &JobSpec) -> SimReport {
    let cfg = spec.config.gpu_config();
    let workload = Box::new(spec.bench.workload(spec.scale));
    if spec.config.is_stacked() {
        let map = StackedMap::baseline();
        let mapper = AddressMapper::build(spec.scheme, &map, spec.seed);
        GpuSim::new(cfg, mapper, map, workload).run()
    } else {
        let map = GddrMap::baseline();
        let mapper = AddressMapper::build(spec.scheme, &map, spec.seed);
        GpuSim::new(cfg, mapper, map, workload).run()
    }
}

/// How a result's `wall_ms` was obtained — stored with the record so
/// perf fingerprints (the bench gate, `valley status`) can tell genuine
/// measurements from the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallKind {
    /// The job's simulation was timed directly.
    Measured,
    /// The job's report was cloned from an identical lane (a
    /// deterministic scheme swept over seeds); its marginal cost is ~0
    /// and the stored value is 0.
    Cloned,
}

impl WallKind {
    /// Stable identifier used in stored records and wire messages.
    pub fn as_str(self) -> &'static str {
        match self {
            WallKind::Measured => "measured",
            WallKind::Cloned => "cloned",
        }
    }

    /// Parses [`WallKind::as_str`].
    pub fn parse(s: &str) -> Option<WallKind> {
        match s {
            "measured" => Some(WallKind::Measured),
            "cloned" => Some(WallKind::Cloned),
            _ => None,
        }
    }
}

valley_sim::name_coded!(WallKind, as_str, WallKind::parse);

/// Runs a slice of jobs (a sweep unit, a fabric lease, or any slice) and
/// returns their results in `specs` order — each report equal to what
/// [`execute_job`] produces for that spec alone, each record ready for
/// the store.
///
/// Lanes that are the same simulation ([`JobSpec::simulation`]) run
/// once: BASE/PM/RMP build the same BIM for every seed (the seed is part
/// of the job key because keys describe the request, but those schemes
/// never read it), so N seeds of a deterministic scheme cost one
/// simulation and the other lanes clone its report. Every unique lane
/// goes through [`execute_job`] on its own spec, one after another.
///
/// An executed lane is timed on its own and [`WallKind::Measured`]; a
/// clone is [`WallKind::Cloned`] at 0 ms.
pub fn execute_batch_timed(specs: &[JobSpec]) -> Vec<StoredResult> {
    let mut first: FastMap<JobSpec, usize> = FastMap::default();
    let mut lanes: Vec<StoredResult> = Vec::with_capacity(specs.len());
    for &spec in specs {
        let lane = match first.entry(spec.simulation()) {
            Entry::Occupied(ran) => StoredResult {
                spec,
                report: lanes[*ran.get()].report.clone(),
                wall_ms: 0.0,
                wall: WallKind::Cloned,
            },
            Entry::Vacant(slot) => {
                slot.insert(lanes.len());
                #[expect(
                    clippy::disallowed_methods,
                    reason = "measurement, not simulation: the lane's wall_ms is stored beside the report and never enters it"
                )]
                let start = std::time::Instant::now();
                let report = execute_job(&spec);
                StoredResult {
                    spec,
                    report,
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                    wall: WallKind::Measured,
                }
            }
        };
        lanes.push(lane);
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            bench: Benchmark::Mt,
            scheme: SchemeKind::Pae,
            seed: 1,
            scale: Scale::Test,
            config: ConfigId::Table1,
        }
    }

    #[test]
    fn keys_are_deterministic_and_canonical() {
        let k1 = spec().key();
        let k2 = spec().key();
        assert_eq!(k1, k2);
        assert_eq!(
            k1.canonical(),
            format!("schema={SCHEMA_VERSION};bench=MT;scheme=PAE;seed=1;scale=test;config=table1")
        );
        assert_eq!(k1.hash_hex().len(), 16);
    }

    #[test]
    fn keys_separate_every_grid_axis() {
        let base = spec();
        let variants = [
            JobSpec {
                bench: Benchmark::Lu,
                ..base
            },
            JobSpec {
                scheme: SchemeKind::Base,
                ..base
            },
            JobSpec { seed: 2, ..base },
            JobSpec {
                scale: Scale::Ref,
                ..base
            },
            JobSpec {
                config: ConfigId::Stacked,
                ..base
            },
            JobSpec {
                config: ConfigId::Sms(24),
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.key(), base.key(), "{v}");
            assert_ne!(v.key().hash(), base.key().hash(), "{v}");
        }
    }

    #[test]
    fn full_grid_has_no_hash_collisions() {
        let spec = SweepSpec {
            benches: Benchmark::ALL.to_vec(),
            schemes: SchemeKind::ALL_SCHEMES.to_vec(),
            seeds: vec![1, 2, 3],
            scale: Scale::Ref,
            configs: vec![ConfigId::Table1, ConfigId::Stacked, ConfigId::Sms(24)],
        };
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 16 * 6 * 3 * 3);
        let mut seen: FastMap<u64, String> = FastMap::default();
        for j in jobs {
            let k = j.key();
            if let Some(prev) = seen.insert(k.hash(), k.canonical().to_string()) {
                panic!("hash collision: {prev} vs {}", k.canonical());
            }
        }
    }

    #[test]
    fn expansion_order_is_deterministic() {
        let s = SweepSpec::new(
            &[Benchmark::Mt, Benchmark::Sp],
            &[SchemeKind::Base, SchemeKind::Pae],
            Scale::Test,
        );
        let jobs = s.expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].bench, Benchmark::Mt);
        assert_eq!(jobs[0].scheme, SchemeKind::Base);
        assert_eq!(jobs[1].scheme, SchemeKind::Pae);
        assert_eq!(jobs[2].bench, Benchmark::Sp);
        assert_eq!(s.expand(), jobs);
    }

    #[test]
    fn repeated_axis_values_expand_to_each_job_once() {
        let s = SweepSpec::new(
            &[Benchmark::Mt, Benchmark::Sp, Benchmark::Mt],
            &[SchemeKind::Base],
            Scale::Test,
        )
        .with_seeds(&[2, 1, 2])
        .with_configs(&[ConfigId::Table1, ConfigId::Table1]);
        let got: Vec<_> = s.expand().iter().map(|j| (j.bench, j.seed)).collect();
        let want = [
            (Benchmark::Mt, 2),
            (Benchmark::Mt, 1),
            (Benchmark::Sp, 2),
            (Benchmark::Sp, 1),
        ];
        assert_eq!(got, want, "first-occurrence order, no repeats");
    }

    #[test]
    fn config_names_round_trip() {
        for c in [ConfigId::Table1, ConfigId::Stacked, ConfigId::Sms(24)] {
            assert_eq!(ConfigId::parse(&c.name()), Some(c));
        }
        assert_eq!(ConfigId::parse("sms0"), None);
        assert_eq!(ConfigId::parse("nope"), None);
        assert_eq!(ConfigId::Sms(48).gpu_config().num_sms, 48);
    }
}
