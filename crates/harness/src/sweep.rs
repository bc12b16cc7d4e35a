//! Sweep orchestration: expand a [`SweepSpec`], serve what the store
//! already has, run the rest on the thread pool, persist every fresh
//! result, and hand back the full grid in deterministic order.

use crate::job::{execute_batch_timed, JobSpec, SweepSpec, WallKind};
use crate::pool;
use crate::store::{ResultStore, StoreError};
use std::time::{Duration, Instant};
use valley_core::hash::FastMap;
use valley_sim::SimReport;

/// Options controlling one sweep run.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses all available cores (capped at the
    /// job count).
    pub workers: Option<usize>,
    /// Print per-job progress and a summary to stderr.
    pub verbose: bool,
    /// Re-run every job even if a stored result exists (the fresh result
    /// overwrites the stored one).
    pub force: bool,
    /// Batch width: pending jobs that share a machine (config, scale,
    /// scheme) become one pool unit in groups of up to this many lanes,
    /// within which lanes that are the same simulation run once (see
    /// [`execute_batch_timed`]). `0` and `1` both mean one job per unit.
    /// Batch width is pure scheduling — per-lane results are identical
    /// to unbatched runs — so it is deliberately not part of job keys.
    pub batch: usize,
}

/// One job's outcome within a sweep.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job.
    pub spec: JobSpec,
    /// Its report (from the store or freshly computed).
    pub report: SimReport,
    /// Wall time in milliseconds: the original execution time for cache
    /// hits, this run's execution time for misses.
    pub wall_ms: f64,
    /// How `wall_ms` was obtained (see [`WallKind`]): a genuine per-job
    /// measurement, or 0 for a lane cloned from an identical one (a
    /// cache hit from an older store may also say `averaged`).
    pub wall: WallKind,
    /// Whether the result came from the store.
    pub cached: bool,
}

/// The result of a sweep: every job of the spec, in expansion order
/// (independent of worker count and interleaving).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-job outcomes in [`SweepSpec::expand`] order.
    pub jobs: Vec<JobOutcome>,
    /// Jobs served from the store.
    pub cache_hits: usize,
    /// Jobs executed by this run.
    pub executed: usize,
    /// Wall time of the whole sweep (lookup + execution + persistence).
    pub wall: Duration,
}

impl SweepOutcome {
    /// Fraction of jobs served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs.len() as f64
        }
    }
}

/// Why one job of a sweep failed — machine-readable, so a consumer (the
/// distributed-fabric coordinator re-leasing a crashed job, `valley
/// status` attaching a reason) can act on the kind without parsing the
/// human message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The simulation panicked; the pool's per-job isolation caught it.
    Panic,
    /// The simulation finished but the result store rejected the write.
    StoreWrite,
}

impl FailureKind {
    /// Stable identifier, used on the fabric wire and in status output.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::StoreWrite => "store-write",
        }
    }

    /// Parses a [`FailureKind::name`] string.
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "panic" => Some(FailureKind::Panic),
            "store-write" => Some(FailureKind::StoreWrite),
            _ => None,
        }
    }
}

valley_sim::name_coded!(FailureKind, name, FailureKind::parse);

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One job's structured failure: which job, what kind of failure, and
/// the human-readable detail (the panic payload or store error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure {
    /// The job that failed.
    pub spec: JobSpec,
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic message / store error text).
    pub message: String,
}

valley_sim::record!(JobFailure {
    spec: JobSpec = "job",
    kind: FailureKind = "kind",
    message: String = "message",
});

impl JobFailure {
    /// A panic-isolation failure.
    pub fn panic(spec: JobSpec, message: impl Into<String>) -> JobFailure {
        JobFailure {
            spec,
            kind: FailureKind::Panic,
            message: message.into(),
        }
    }

    /// A store-write failure.
    pub fn store_write(spec: JobSpec, message: impl Into<String>) -> JobFailure {
        JobFailure {
            spec,
            kind: FailureKind::StoreWrite,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.spec, self.kind, self.message)
    }
}

/// Errors from running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// One or more jobs failed; every failure is listed with a
    /// structured [`JobFailure`]. The survivors were still executed and
    /// persisted, so a re-run only retries the failures.
    Failures(Vec<JobFailure>),
    /// The result store rejected a read or write.
    Store(StoreError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Failures(failures) => {
                writeln!(f, "{} sweep job(s) failed:", failures.len())?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                Ok(())
            }
            SweepError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// Persists one freshly computed report and slots its outcome; a store
/// write error becomes that job's failure.
#[allow(clippy::too_many_arguments)]
fn record_fresh(
    store: &ResultStore,
    opts: &SweepOptions,
    idx: usize,
    report: SimReport,
    wall_ms: f64,
    wall: WallKind,
    jobs: &[JobSpec],
    outcomes: &mut [Option<JobOutcome>],
    failures: &mut Vec<JobFailure>,
) {
    let job = jobs[idx];
    if let Err(e) = store.put(&job, &report, wall_ms, wall) {
        failures.push(JobFailure::store_write(job, e.to_string()));
        return;
    }
    if opts.verbose && report.truncated {
        eprintln!("  WARNING: {job} hit the cycle limit");
    }
    outcomes[idx] = Some(JobOutcome {
        spec: job,
        report,
        wall_ms,
        wall,
        cached: false,
    });
}

/// Runs a sweep against a store: cache hits are served without
/// simulation, misses run in parallel with per-job panic isolation
/// (per-batch when batching via [`SweepOptions::batch`]), and every
/// fresh result is persisted before the function returns.
pub fn run_sweep(
    spec: &SweepSpec,
    store: &ResultStore,
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement, not simulation: the sweep's wall time is telemetry in SweepOutcome, outside every stored report"
    )]
    let start = Instant::now();
    let jobs = spec.expand();

    // Phase 1: serve from the store.
    let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
    let mut todo: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match (!opts.force).then(|| store.get(job)).flatten() {
            Some(stored) => outcomes.push(Some(JobOutcome {
                spec: *job,
                report: stored.report,
                wall_ms: stored.wall_ms,
                wall: stored.wall,
                cached: true,
            })),
            None => {
                outcomes.push(None);
                todo.push(i);
            }
        }
    }
    let cache_hits = jobs.len() - todo.len();

    // Phase 2: execute the misses on the thread pool, one pool
    // unit per group of same-machine jobs: an order-preserving group-by
    // on (config, scale, scheme), each group chunked to at most `width`
    // lanes, so width 1 is one job per unit. Phase 3 persists and
    // assembles; failures are collected for a loud, full report (a
    // suite with holes would silently skew every figure). A store write
    // error becomes that job's failure rather than aborting the drain:
    // the remaining computed results still get persisted and every
    // failure is reported together.
    let width = opts.batch.max(1);
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut open: FastMap<
        (
            crate::job::ConfigId,
            valley_workloads::Scale,
            valley_core::SchemeKind,
        ),
        usize,
    > = FastMap::default();
    for &idx in &todo {
        let job = &jobs[idx];
        let key = (job.config, job.scale, job.scheme);
        match open.get(&key) {
            Some(&b) if batches[b].len() < width => batches[b].push(idx),
            _ => {
                open.insert(key, batches.len());
                batches.push(vec![idx]);
            }
        }
    }
    let workers = opts
        .workers
        .unwrap_or_else(|| pool::default_workers(batches.len()));
    if opts.verbose && !todo.is_empty() {
        eprintln!(
            "sweep: {} jobs, {} cached, running {} in {} unit(s) of <= {} on {} worker(s)",
            jobs.len(),
            cache_hits,
            todo.len(),
            batches.len(),
            width,
            workers.clamp(1, batches.len()),
        );
    }
    // What a progress or failure line calls a pool unit: the job itself
    // for a singleton, the lead job and the lane count otherwise.
    let unit_name = |batch: &[usize]| match batch {
        [one] => jobs[*one].to_string(),
        _ => format!("batch x{} ({}, ...)", batch.len(), jobs[batch[0]]),
    };
    let results = pool::run_jobs(
        batches.len(),
        workers,
        |b| {
            let specs: Vec<JobSpec> = batches[b].iter().map(|&i| jobs[i]).collect();
            // Wall attribution happens inside: the executor knows which
            // lanes it ran and which it cloned.
            execute_batch_timed(&specs)
        },
        |done| {
            if opts.verbose {
                let unit = unit_name(&batches[done.index]);
                match done.error {
                    None => eprintln!(
                        "  [{}/{}] {unit}: {:.2?} (worker {})",
                        done.completed, done.total, done.elapsed, done.worker
                    ),
                    Some(msg) => eprintln!(
                        "  [{}/{}] {unit}: PANIC after {:.2?}: {msg}",
                        done.completed, done.total, done.elapsed
                    ),
                }
            }
        },
    );
    let mut failures = Vec::new();
    for (batch, result) in batches.iter().zip(results) {
        match result {
            Ok(lanes) => {
                for (&idx, lane) in batch.iter().zip(lanes) {
                    record_fresh(
                        store,
                        opts,
                        idx,
                        lane.report,
                        lane.wall_ms,
                        lane.wall,
                        &jobs,
                        &mut outcomes,
                        &mut failures,
                    );
                }
            }
            // The whole group shares one panic: every lane in it needs a
            // re-run, so every lane reports the failure.
            Err(msg) => {
                let msg = match batch.len() {
                    1 => msg,
                    _ => format!("batched lane: {msg}"),
                };
                failures.extend(
                    batch
                        .iter()
                        .map(|&idx| JobFailure::panic(jobs[idx], msg.clone())),
                );
            }
        }
    }
    if !failures.is_empty() {
        return Err(SweepError::Failures(failures));
    }

    let executed = jobs.len() - cache_hits;
    Ok(SweepOutcome {
        jobs: outcomes
            .into_iter()
            .map(|o| o.expect("every non-failed job has an outcome"))
            .collect(),
        cache_hits,
        executed,
        wall: start.elapsed(),
    })
}
