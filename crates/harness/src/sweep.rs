//! Sweep orchestration: expand a [`SweepSpec`], serve what the store
//! already has, run the rest on the thread pool, and commit every fresh
//! result in grid order as it finishes (the [`Committer`]). The store is
//! the one home of the results: a sweep hands back counts and times
//! ([`SweepOutcome`]), and a caller that wants a report reads it from
//! the store.

use crate::job::{execute_batch_timed, JobSpec, SweepSpec};
use crate::pool;
use crate::store::{ResultStore, StoreError, StoredResult};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
}

/// What a successful sweep did. Every job of the grid is in the store
/// by then; this counts how it got there.
#[derive(Clone, Copy, Debug)]
pub struct SweepOutcome {
    /// Jobs in the grid, [`SweepSpec::expand`]'s length.
    pub jobs: usize,
    /// Jobs served from the store.
    pub cache_hits: usize,
    /// Jobs executed by this run.
    pub executed: usize,
    /// The summed `wall_ms` of the jobs this run executed: its time
    /// spent simulating (a lane cloned from an identical one adds 0).
    pub simulated_ms: f64,
    /// Wall time of the whole sweep (lookup + execution + persistence).
    pub wall: Duration,
}

impl SweepOutcome {
    /// Fraction of jobs served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
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

/// One grid slot's turn at the store.
#[derive(Debug)]
enum Turn {
    /// Still running, leased or queued: everything behind it waits.
    Open,
    /// Nothing to write: already stored, dead, or written.
    Settled,
    /// A fresh result waiting for every slot before it to settle.
    Fresh(Box<StoredResult>),
}

/// The one writer of a sweep's results: fresh results are appended to
/// the store in grid order, each as soon as every slot before it is
/// settled — so at any moment the store holds the finished prefix of the
/// grid, whichever worker finished first, and a killed sweep keeps it.
/// The local sweep and the fabric coordinator share it.
#[derive(Debug)]
pub struct Committer<'a> {
    store: &'a ResultStore,
    slots: Vec<Turn>,
    /// The first slot not yet settled.
    next: usize,
}

impl<'a> Committer<'a> {
    /// A committer for a grid of `slots` jobs, all open.
    pub fn new(store: &'a ResultStore, slots: usize) -> Self {
        Committer {
            store,
            slots: (0..slots).map(|_| Turn::Open).collect(),
            next: 0,
        }
    }

    /// Slots settled so far from the front of the grid.
    pub fn committed(&self) -> usize {
        self.next
    }

    /// Slot `idx` has nothing to write (already stored, or dead) and
    /// gives up its turn. Returns what [`complete`](Self::complete) does.
    pub fn skip(&mut self, idx: usize) -> Vec<JobFailure> {
        self.settle(idx, Turn::Settled)
    }

    /// Slot `idx` finished with a fresh `result`. Flushes the settled
    /// prefix of the grid to the store and returns the store-write
    /// failures of what it flushed — a failed write gives up its turn
    /// rather than wedging the slots behind it.
    pub fn complete(&mut self, idx: usize, result: StoredResult) -> Vec<JobFailure> {
        self.settle(idx, Turn::Fresh(Box::new(result)))
    }

    fn settle(&mut self, idx: usize, turn: Turn) -> Vec<JobFailure> {
        debug_assert!(
            matches!(self.slots[idx], Turn::Open),
            "slot {idx} settled twice"
        );
        self.slots[idx] = turn;
        let mut failures = Vec::new();
        while let Some(slot) = self.slots.get_mut(self.next) {
            if matches!(slot, Turn::Open) {
                break;
            }
            if let Turn::Fresh(r) = std::mem::replace(slot, Turn::Settled) {
                if let Err(e) = self.store.put(&r.spec, &r.report, r.wall_ms, r.wall) {
                    failures.push(JobFailure::store_write(r.spec, e.to_string()));
                }
            }
            self.next += 1;
        }
        failures
    }
}

/// Takes the next unit of work off `pending`: one simulation. That is
/// the first live job plus every live job right behind it that is the
/// same simulation ([`JobSpec::simulation`]), which
/// [`execute_batch_timed`] runs once. Seeds are the innermost axis of
/// [`SweepSpec::expand`], so a deterministic scheme's seeds are adjacent
/// and units come off in grid order. Indices that are no longer `live`
/// are dropped on the way. Empty when nothing live is pending.
pub fn take_unit(
    pending: &mut VecDeque<usize>,
    jobs: &[JobSpec],
    live: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut unit: Vec<usize> = Vec::new();
    while let Some(&i) = pending.front() {
        match unit.first() {
            _ if !live(i) => {}
            Some(&lead) if jobs[i].simulation() != jobs[lead].simulation() => break,
            _ => unit.push(i),
        }
        pending.pop_front();
    }
    unit
}

/// Runs a sweep against a store: cache hits are served without
/// simulation, misses run in parallel one simulation per pool unit (see
/// [`take_unit`]) with per-unit panic isolation, and every fresh result
/// is committed in grid order as its unit finishes — the store always
/// holds the finished prefix of the grid, and on success all of it.
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

    // Phase 1: what the store already has is settled. Failures are
    // collected for a loud, full report (a suite with holes would
    // silently skew every figure); a store write error becomes that
    // job's failure rather than aborting the sweep, so the remaining
    // results still get persisted and every failure is reported together.
    let mut committer = Committer::new(store, jobs.len());
    let mut failures: Vec<JobFailure> = Vec::new();
    let mut pending: VecDeque<usize> = VecDeque::new();
    for (i, job) in jobs.iter().enumerate() {
        if !opts.force && store.contains(job) {
            failures.extend(committer.skip(i));
        } else {
            pending.push_back(i);
        }
    }
    let todo = pending.len();
    let cache_hits = jobs.len() - todo;

    // Phase 2: execute the misses on the thread pool, one pool unit per
    // simulation (see `take_unit`), each handing its lanes to the
    // committer before it reports done. That is the last look at a
    // fresh report, so a run the cycle limit cut is named there.
    let units: Vec<Vec<usize>> =
        std::iter::from_fn(|| Some(take_unit(&mut pending, &jobs, |_| true)))
            .take_while(|unit| !unit.is_empty())
            .collect();
    let workers = opts
        .workers
        .unwrap_or_else(|| pool::default_workers(units.len()));
    if opts.verbose && todo > 0 {
        eprintln!(
            "sweep: {} jobs, {} cached, running {} jobs as {} simulation(s) on {} worker(s)",
            jobs.len(),
            cache_hits,
            todo,
            units.len(),
            workers.clamp(1, units.len()),
        );
    }
    // What a progress or failure line calls a pool unit: its lead job,
    // and how many more seeds it serves.
    let unit_name = |unit: &[usize]| match unit {
        [one] => jobs[*one].to_string(),
        _ => format!("{} (+{} seed(s))", jobs[unit[0]], unit.len() - 1),
    };
    let commit = Mutex::new((committer, failures, 0.0));
    pool::run_jobs(
        units.len(),
        workers,
        |u| {
            let specs: Vec<JobSpec> = units[u].iter().map(|&i| jobs[i]).collect();
            // Wall attribution happens inside: the executor knows which
            // lanes it ran and which it cloned.
            let lanes = execute_batch_timed(&specs);
            let (committer, failures, simulated_ms) =
                &mut *commit.lock().expect("committer poisoned");
            for (&idx, lane) in units[u].iter().zip(lanes) {
                if opts.verbose && lane.report.truncated {
                    eprintln!("  WARNING: {} hit the cycle limit", lane.spec);
                }
                *simulated_ms += lane.wall_ms;
                failures.extend(committer.complete(idx, lane));
            }
        },
        |done| {
            let unit = &units[done.index];
            if let Some(msg) = done.error {
                // The whole unit is one simulation: every lane in it needs
                // a re-run, so every lane reports the failure and gives up
                // its turn at the store.
                let (committer, failures, _) = &mut *commit.lock().expect("committer poisoned");
                for &idx in unit {
                    failures.push(JobFailure::panic(jobs[idx], msg));
                    failures.extend(committer.skip(idx));
                }
            }
            if opts.verbose {
                let unit = unit_name(unit);
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
    let (_, failures, simulated_ms) = commit.into_inner().expect("committer poisoned");
    if !failures.is_empty() {
        return Err(SweepError::Failures(failures));
    }
    Ok(SweepOutcome {
        jobs: jobs.len(),
        cache_hits,
        executed: todo,
        simulated_ms,
        wall: start.elapsed(),
    })
}
