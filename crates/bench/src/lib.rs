//! # valley-bench
//!
//! The experiment layer: shared figure printers used by the per-figure
//! binaries in `src/bin/` (one per table/figure of the paper).
//!
//! Since the `valley-harness` refactor this crate is a *thin consumer*
//! of the sweep engine: [`run_suite`] builds a
//! [`SweepSpec`](valley_harness::SweepSpec), hands it to
//! [`valley_harness::run_sweep`], and returns cached
//! [`SimReport`]s — the ad-hoc thread-pool driver that used to live here
//! is gone. Every figure binary therefore resumes from the persistent
//! result store under `results/` (override with `$VALLEY_RESULTS_DIR`):
//! the first binary to need a (benchmark, scheme) simulation pays for
//! it, every later one is a pure cache read.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;

use valley_core::{AddressMapper, GddrMap, SchemeKind};
use valley_harness::{
    execute_job, run_sweep, ConfigId, JobSpec, ResultStore, SweepOptions, SweepSpec,
};
use valley_sim::{GpuConfig, GpuSim, SimReport};
use valley_workloads::{Benchmark, Scale};

pub use valley_harness::figures::{speedup, Suite};
pub use valley_harness::util::{amean, hmean, row, scheme_header};
pub use valley_harness::DEFAULT_SEED;

/// Runs one (benchmark, scheme) simulation on the baseline GDDR5 GPU.
/// Direct execution — no store involved; sweeps should use [`run_suite`].
pub fn run_one(bench: Benchmark, scheme: SchemeKind, seed: u64, scale: Scale) -> SimReport {
    execute_job(&JobSpec {
        bench,
        scheme,
        seed,
        scale,
        config: ConfigId::Table1,
    })
}

/// Runs one simulation with an explicit, possibly hand-built mapper
/// (ablations: density-constrained or profile-guided BIMs).
pub fn run_custom(
    bench: Benchmark,
    mapper: AddressMapper,
    cfg: GpuConfig,
    scale: Scale,
) -> SimReport {
    let map = GddrMap::baseline();
    GpuSim::new(cfg, mapper, map, Box::new(bench.workload(scale))).run()
}

/// Opens the default result store ([`valley_harness::default_results_dir`]).
fn default_store() -> ResultStore {
    let dir = valley_harness::default_results_dir();
    ResultStore::open(&dir)
        .unwrap_or_else(|e| panic!("cannot open result store {}: {e}", dir.display()))
}

/// Runs the cross product of `benches × schemes` through the sweep
/// harness against the default result store: already-stored jobs are
/// served from disk, the rest run in parallel on the thread pool with
/// per-job panic isolation, and every fresh result is persisted for the
/// next consumer.
///
/// # Panics
///
/// Panics after all jobs have been attempted if any simulation panicked
/// (naming every failed pair — a suite with holes would silently skew
/// every downstream figure), or if the result store cannot be
/// opened/written.
pub fn run_suite(benches: &[Benchmark], schemes: &[SchemeKind], scale: Scale) -> Suite {
    run_suite_with_store(benches, schemes, scale, &default_store())
}

/// Runs an arbitrary [`SweepSpec`] — any benchmarks × schemes × seeds ×
/// configs grid — through the sweep harness against the default result
/// store, returning per-job outcomes in expansion order. This is what
/// the sensitivity figures (fig18's SM-count/3D-stacked grid, fig19's
/// multi-seed BIM grid) use so their points are cached like every other
/// experiment instead of silently re-simulating on each invocation.
///
/// # Panics
///
/// Panics if any job fails or the store cannot be opened/written (same
/// contract as [`run_suite`]).
pub fn run_spec(spec: &SweepSpec) -> Vec<valley_harness::JobOutcome> {
    run_spec_with_store(spec, &default_store())
}

/// [`run_spec`] against an already-open store — callers running several
/// specs (fig19's BASE reference + multi-seed grid) open and parse the
/// store once instead of once per spec.
///
/// # Panics
///
/// Same contract as [`run_spec`].
pub fn run_spec_with_store(
    spec: &SweepSpec,
    store: &ResultStore,
) -> Vec<valley_harness::JobOutcome> {
    let opts = SweepOptions {
        workers: None,
        verbose: true,
        force: false,
        batch: 1,
    };
    match run_sweep(spec, store, &opts) {
        Ok(outcome) => outcome.jobs,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_suite`] against an explicit store (tests, scratch sweeps).
///
/// # Panics
///
/// Same contract as [`run_suite`].
pub fn run_suite_with_store(
    benches: &[Benchmark],
    schemes: &[SchemeKind],
    scale: Scale,
    store: &ResultStore,
) -> Suite {
    run_spec_with_store(&SweepSpec::new(benches, schemes, scale), store)
        .into_iter()
        .map(|j| ((j.spec.bench, j.spec.scheme), j.report))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_tiny_sim() {
        // An end-to-end run of the smallest benchmark at test scale.
        let r = run_one(Benchmark::Sp, SchemeKind::Base, 1, Scale::Test);
        assert!(!r.truncated, "tiny run must terminate");
        assert!(r.cycles > 0);
        assert!(r.memory_transactions > 0);
        assert!(r.warp_instructions > 0);
    }

    #[test]
    fn run_one_matches_harness_execution_exactly() {
        // `run_one` is a thin wrapper over `execute_job`; the two paths
        // must stay bit-identical or cached suite results would diverge
        // from direct runs.
        let direct = run_one(Benchmark::Sp, SchemeKind::Pae, DEFAULT_SEED, Scale::Test);
        let via_harness = execute_job(&JobSpec {
            bench: Benchmark::Sp,
            scheme: SchemeKind::Pae,
            seed: DEFAULT_SEED,
            scale: Scale::Test,
            config: ConfigId::Table1,
        });
        assert_eq!(direct, via_harness);
    }
}
