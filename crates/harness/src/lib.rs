//! # valley-harness
//!
//! The resumable sweep engine behind every figure, table and
//! ablation of the Valley reproduction:
//!
//! * a **job model** ([`SweepSpec`] → content-hashed [`JobSpec`]s /
//!   [`JobKey`]s) that expands the paper's experiment grid — benchmark ×
//!   scheme × BIM seed × scale × GPU config — deterministically;
//! * a **thread pool** ([`pool`]) with per-job panic isolation, progress
//!   reporting, and result ordering that is independent of the worker
//!   count;
//! * a **persistent content-addressed result store** ([`ResultStore`]):
//!   one append-only JSON-lines file under `results/`, keyed by job
//!   hash and written in grid order as jobs finish (the [`Committer`]),
//!   so a killed sweep keeps what it finished, re-running a sweep skips
//!   completed jobs (*resume*) and figure regeneration is a pure cache
//!   read;
//! * the **figure registry** ([`figures::FIGURES`]): every table and
//!   figure of the paper's evaluation as a name, the sweeps it reads and
//!   a render function, which `valley figures --fig` prints from the
//!   store without simulating;
//! * the `valley` CLI (`sweep`, `status`, `query`, `figures`, `gc` —
//!   the latter compacts `--force` duplicates and orphaned-schema
//!   records out of the file).
//!
//! See `docs/harness.md` for the store format and resume semantics.
//!
//! ## Quick start
//!
//! ```
//! use valley_harness::{run_sweep, ResultStore, SweepOptions, SweepSpec};
//! use valley_core::SchemeKind;
//! use valley_workloads::{Benchmark, Scale};
//!
//! let dir = std::env::temp_dir().join(format!("valley-harness-doc-{}", std::process::id()));
//! let store = ResultStore::open(&dir).unwrap();
//! let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test);
//! let first = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
//! assert_eq!(first.executed + first.cache_hits, 1);
//! // The second run is a pure cache read; the result lives in the store.
//! let second = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
//! assert_eq!((second.cache_hits, second.executed), (1, 0));
//! assert!(store.get(&spec.expand()[0]).unwrap().report.cycles > 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
mod job;
pub mod pool;
mod store;
mod sweep;

pub use job::{
    execute_batch_timed, execute_job, ConfigId, JobKey, JobSpec, SmCount, SweepSpec, WallKind,
    DEFAULT_SEED, SCHEMA_VERSION,
};
pub use store::{
    gc, scan, store_line_description, GcReport, ResultStore, StoreError, StoreScan, StoredResult,
    STORE_FILE, STORE_VERSION,
};
pub use sweep::{
    run_sweep, take_unit, Committer, FailureKind, JobFailure, SweepError, SweepOptions,
    SweepOutcome,
};

use std::path::PathBuf;

/// The default result-store directory: `$VALLEY_RESULTS_DIR` if set,
/// otherwise `results/` under the current directory.
pub fn default_results_dir() -> PathBuf {
    std::env::var_os("VALLEY_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}
