//! The fabric worker: lease, execute, report, repeat.
//!
//! A worker is a thin network shell around the harness's executor,
//! [`execute_batch_timed`]: a lease is one simulation (a job, or the
//! seeds of a deterministic scheme, which run once), exactly the unit a
//! local sweep hands its thread pool, and what the executor returns is
//! what travels in `Done`. Panics are caught per lease and reported as
//! structured [`JobFailure`]s, so a crashed job is re-leased with its
//! reason attached instead of silently vanishing.

use crate::proto::{Msg, Role, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame, WireError};
use crate::FabricError;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use valley_harness::pool::panic_message;
use valley_harness::{execute_batch_timed, JobFailure, JobSpec};

/// Connection attempts before a worker gives up (the coordinator may
/// start after the worker).
const CONNECT_ATTEMPTS: u32 = 25;

/// Base reconnect backoff in milliseconds (doubles per attempt, capped
/// at 5 s).
const BACKOFF_MS: u64 = 200;

/// Options controlling one worker run.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Telemetry name (stable across reconnects).
    pub name: String,
    /// Print per-lease progress to stderr.
    pub verbose: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
            verbose: false,
        }
    }
}

/// What one worker run accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases completed successfully.
    pub leases: u64,
    /// Jobs executed and reported.
    pub completed: u64,
    /// Jobs whose execution panicked (reported as structured failures).
    pub failed: u64,
}

/// One framed connection to the coordinator (shared with the read-side
/// clients in [`crate::client`]).
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str, name: &str, role: Role) -> Result<Conn, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        match conn.roundtrip(&Msg::Hello {
            version: PROTOCOL_VERSION,
            role,
            name: name.to_string(),
        })? {
            Msg::Ack { .. } => Ok(conn),
            other => Err(WireError::Protocol(format!(
                "coordinator answered hello with {other:?}"
            ))),
        }
    }

    pub(crate) fn roundtrip(&mut self, msg: &Msg) -> Result<Msg, WireError> {
        write_frame(&mut self.writer, &msg.to_json())?;
        let reply = read_frame(&mut self.reader)?;
        Msg::from_json(&reply).map_err(WireError::Protocol)
    }
}

/// Connects with exponential backoff from [`BACKOFF_MS`] — the
/// coordinator may not be up yet (CI starts both concurrently).
pub(crate) fn connect_with_backoff(
    addr: &str,
    name: &str,
    role: Role,
    attempts: u32,
) -> Result<Conn, FabricError> {
    let mut delay = Duration::from_millis(BACKOFF_MS);
    let mut last: Option<WireError> = None;
    for attempt in 0..attempts.max(1) {
        match Conn::open(addr, name, role) {
            Ok(conn) => return Ok(conn),
            Err(e @ WireError::Protocol(_)) => return Err(e.into()),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < attempts.max(1) {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_secs(5));
                }
            }
        }
    }
    Err(last.expect("at least one connection attempt").into())
}

/// Runs a worker against the coordinator at `addr` until the grid is
/// drained. Connection loss mid-lease is survivable by design: the
/// coordinator re-leases the jobs, and any results this worker manages
/// to deliver late are dropped idempotently.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerSummary, FabricError> {
    let mut summary = WorkerSummary::default();
    let mut reconnects_left = CONNECT_ATTEMPTS;
    let mut ever_connected = false;
    'session: loop {
        // Reconnects after a successful session get a short budget: an
        // unreachable coordinator then means it exited — and it only
        // exits once the grid is complete (or an admin shut it down) —
        // so the worker is done, not broken.
        let attempts = if ever_connected {
            reconnects_left.min(3)
        } else {
            reconnects_left
        };
        let mut conn = match connect_with_backoff(addr, &opts.name, Role::Worker, attempts) {
            Ok(conn) => conn,
            Err(FabricError::Wire(WireError::Io(_))) if ever_connected => {
                if opts.verbose {
                    eprintln!(
                        "work: coordinator gone after {} lease(s) — serve complete",
                        summary.leases
                    );
                }
                return Ok(summary);
            }
            Err(e) => return Err(e),
        };
        ever_connected = true;
        loop {
            let reply = match conn.roundtrip(&Msg::Request) {
                Ok(reply) => reply,
                Err(WireError::Io(_)) if reconnects_left > 1 => {
                    // The coordinator went away mid-conversation; any
                    // lease we held will be re-issued. Try again.
                    reconnects_left -= 1;
                    continue 'session;
                }
                Err(e) => return Err(e.into()),
            };
            match reply {
                Msg::Drained => {
                    if opts.verbose {
                        eprintln!("work: drained after {} lease(s)", summary.leases);
                    }
                    return Ok(summary);
                }
                Msg::Wait { retry_ms } => {
                    std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 10_000)));
                }
                Msg::Lease { lease, jobs, .. } => {
                    let report = execute_lease(lease, &jobs, opts, &mut summary);
                    match conn.roundtrip(&report) {
                        Ok(Msg::Ack { .. }) => {}
                        Ok(other) => {
                            return Err(WireError::Protocol(format!(
                                "coordinator answered a lease report with {other:?}"
                            ))
                            .into())
                        }
                        Err(WireError::Io(_)) if reconnects_left > 1 => {
                            reconnects_left -= 1;
                            continue 'session;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "coordinator answered a work request with {other:?}"
                    ))
                    .into())
                }
            }
        }
    }
}

/// Executes one lease with panic isolation and builds the report frame.
fn execute_lease(
    lease: u64,
    jobs: &[JobSpec],
    opts: &WorkerOptions,
    summary: &mut WorkerSummary,
) -> Msg {
    if opts.verbose {
        eprintln!(
            "work: lease {lease}: {} job(s) ({}, ...)",
            jobs.len(),
            jobs[0]
        );
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement, not simulation: the lease's wall time is printed in the verbose log line and nowhere else"
    )]
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute_batch_timed(jobs)));
    let elapsed = start.elapsed();
    match outcome {
        Ok(results) => {
            summary.leases += 1;
            summary.completed += jobs.len() as u64;
            if opts.verbose {
                eprintln!("work: lease {lease} done in {elapsed:.2?}");
            }
            Msg::Done { lease, results }
        }
        Err(panic) => {
            let message = panic_message(panic.as_ref());
            summary.failed += jobs.len() as u64;
            if opts.verbose {
                eprintln!("work: lease {lease} PANICKED: {message}");
            }
            Msg::Failed {
                lease,
                failures: jobs
                    .iter()
                    .map(|&spec| JobFailure::panic(spec, message.clone()))
                    .collect(),
            }
        }
    }
}
