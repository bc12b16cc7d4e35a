//! The sweep coordinator: expands a [`SweepSpec`], serves what the
//! store already holds, and leases the rest to remote workers with
//! crash-tolerant deadlines.
//!
//! ## Lease lifecycle
//!
//! A worker's `Request` takes one simulation off the queue — the next
//! pending job and the pending jobs right behind it that are the same
//! run (`take_unit`, the unit the local sweep hands its thread pool, so
//! `execute_batch_timed` runs it once) — and wraps it in a lease with a
//! deadline. Three things can happen:
//!
//! * **`Done`** — the results are accepted (idempotently: a job that
//!   was already completed by a faster replica counts as a duplicate
//!   and is dropped; the store is content-addressed, so nothing can be
//!   stored twice) and the lease is retired.
//! * **`Failed`** — the worker's panic isolation tripped. The jobs go
//!   back to the queue with the structured [`JobFailure`] attached to
//!   telemetry; after [`MAX_ATTEMPTS`] failures a job is
//!   declared dead and reported in the serve summary instead of
//!   looping forever.
//! * **Nothing** — the worker disconnected or its deadline passed.
//!   The jobs return to the front of the queue and the re-lease is
//!   counted. A worker that later completes the stale lease anyway is
//!   handled by the idempotent path above: zero results lost, zero
//!   duplicated.
//!
//! ## Determinism
//!
//! Fresh results go through the harness's [`Committer`] — the one the
//! local sweep uses — which appends them to the store **in grid
//! expansion order**, no matter which worker finishes first: the file is
//! the grid in expansion order, identical to a local sequential `valley
//! sweep`'s modulo only the measured `wall_ms` values, and a coordinator
//! killed mid-sweep leaves the finished prefix for its restart to resume
//! from. The loopback and CLI tests pin exactly that.
//!
//! ## Read side
//!
//! `Query` and `Status` frames are answered purely from the store and
//! the in-memory lease table; the coordinator never simulates. With
//! [`CoordOptions::linger`] it keeps answering them after the grid
//! completes, until an admin `Shutdown` frame arrives.

use crate::proto::{FailureNote, Msg, QueryFilters, Role, Telemetry, WorkerStat, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame, WireError};
use crate::FabricError;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use valley_core::hash::FastMap;
use valley_harness::{
    take_unit, Committer, JobFailure, JobSpec, ResultStore, StoredResult, SweepSpec,
};

/// Backoff in milliseconds suggested to workers when every pending job
/// is leased.
const RETRY_MS: u64 = 500;

/// Structured failures tolerated per job before it is declared dead (a
/// deterministic panic would otherwise re-lease forever).
pub const MAX_ATTEMPTS: u32 = 3;

/// Options controlling one serve run.
#[derive(Clone, Debug)]
pub struct CoordOptions {
    /// Lease deadline: a leased job whose worker neither completes nor
    /// fails it within this window is re-leased to the next requester.
    pub lease_ms: u64,
    /// Keep serving read-side queries after the grid completes, until a
    /// `Shutdown` frame arrives. Without it the coordinator exits as
    /// soon as every job is stored.
    pub linger: bool,
    /// Print per-lease progress to stderr.
    pub verbose: bool,
}

impl Default for CoordOptions {
    fn default() -> Self {
        CoordOptions {
            lease_ms: 60_000,
            linger: false,
            verbose: false,
        }
    }
}

/// What one serve run accomplished.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Final telemetry snapshot.
    pub telemetry: Telemetry,
    /// Jobs that exhausted their failure attempts (empty on success).
    pub dead: Vec<JobFailure>,
    /// Wall time of the whole serve.
    pub wall: Duration,
}

impl ServeSummary {
    /// Whether every job of the grid ended up stored.
    pub fn complete(&self) -> bool {
        self.dead.is_empty()
            && self.telemetry.cache_hits + self.telemetry.executed == self.telemetry.jobs_total
    }
}

/// Per-job lifecycle within one serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Pending,
    Leased(u64),
    Done,
    Dead,
}

struct LeaseEntry {
    jobs: Vec<usize>,
    conn: u64,
    worker: String,
    deadline: Instant,
}

struct State<'a> {
    status: Vec<Slot>,
    pending: VecDeque<usize>,
    // BTreeMap: reap_expired/release_conn iterate these maps and requeue
    // jobs, so iteration order is scheduling order — keep it ordered.
    leases: BTreeMap<u64, LeaseEntry>,
    next_lease: u64,
    /// Writes fresh results to the store in grid order.
    commit: Committer<'a>,
    attempts: Vec<u32>,
    cache_hits: u64,
    executed: u64,
    releases: u64,
    duplicates: u64,
    workers: BTreeMap<String, (u64, u64)>,
    failures: Vec<FailureNote>,
    dead: Vec<JobFailure>,
    /// Admin shutdown received (only meaning while lingering).
    shutdown: bool,
}

impl State<'_> {
    fn grid_complete(&self) -> bool {
        self.status
            .iter()
            .all(|s| matches!(s, Slot::Done | Slot::Dead))
    }

    fn telemetry(&self, jobs_total: u64) -> Telemetry {
        Telemetry {
            jobs_total,
            cache_hits: self.cache_hits,
            executed: self.executed,
            active_leases: self.leases.len() as u64,
            releases: self.releases,
            duplicates: self.duplicates,
            workers: self
                .workers
                .iter()
                .map(|(name, &(completed, failed))| WorkerStat {
                    name: name.clone(),
                    completed,
                    failed,
                })
                .collect(),
            failures: self.failures.clone(),
        }
    }
}

struct Shared<'a> {
    jobs: Vec<JobSpec>,
    index_of: FastMap<JobSpec, usize>,
    state: Mutex<State<'a>>,
    store: &'a ResultStore,
    opts: &'a CoordOptions,
    finished: AtomicBool,
    conn_seq: AtomicU64,
}

/// A bound coordinator, ready to [`Coordinator::run`]. Binding is split
/// from running so callers (tests, the CLI) can learn the actual
/// listening address before any worker connects.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
}

impl Coordinator {
    /// Binds the coordinator's listener.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Coordinator> {
        Ok(Coordinator {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves the sweep: leases every job not already in the store to
    /// connecting workers, commits results in expansion order, and
    /// answers read-side queries from the store. Returns when the grid
    /// is complete (or, with [`CoordOptions::linger`], when a
    /// `Shutdown` frame arrives).
    pub fn run(
        self,
        spec: &SweepSpec,
        store: &ResultStore,
        opts: &CoordOptions,
    ) -> Result<ServeSummary, FabricError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measurement, not simulation: the serve wall time is telemetry in ServeSummary, outside every stored report"
        )]
        let start = Instant::now();
        let jobs = spec.expand();
        let n = jobs.len();
        let index_of: FastMap<JobSpec, usize> =
            jobs.iter().enumerate().map(|(i, &j)| (j, i)).collect();

        let mut state = State {
            status: vec![Slot::Pending; n],
            pending: VecDeque::new(),
            leases: BTreeMap::new(),
            next_lease: 1,
            commit: Committer::new(store, n),
            attempts: vec![0; n],
            cache_hits: 0,
            executed: 0,
            releases: 0,
            duplicates: 0,
            workers: BTreeMap::new(),
            failures: Vec::new(),
            dead: Vec::new(),
            shutdown: false,
        };
        // Resume: everything the store already holds is done before any
        // worker connects — the fabric never re-runs a stored job.
        for (i, job) in jobs.iter().enumerate() {
            if store.contains(job) {
                state.status[i] = Slot::Done;
                state.cache_hits += 1;
                settle(&mut state, &index_of, i, None);
            } else {
                state.pending.push_back(i);
            }
        }
        if opts.verbose {
            eprintln!(
                "serve: {} job(s), {} cached, {} to lease",
                n,
                state.cache_hits,
                state.pending.len()
            );
        }
        let shared = Shared {
            jobs,
            index_of,
            state: Mutex::new(state),
            store,
            opts,
            finished: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
        };
        let wake_addr = self.local_addr()?;
        if shared.state.lock().expect("fabric state").grid_complete() && !opts.linger {
            shared.finished.store(true, Ordering::SeqCst);
        }

        if !shared.finished.load(Ordering::SeqCst) {
            std::thread::scope(|scope| -> Result<(), FabricError> {
                loop {
                    let (stream, _peer) = self.listener.accept()?;
                    if shared.finished.load(Ordering::SeqCst) {
                        break Ok(());
                    }
                    let shared = &shared;
                    let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                    scope.spawn(move || {
                        // A peer dying mid-frame is normal fabric
                        // weather (that is what leases are for);
                        // only protocol violations are worth noise.
                        if let Err(WireError::Protocol(msg)) =
                            handle_conn(stream, conn, shared, wake_addr)
                        {
                            eprintln!("fabric: connection {conn}: {msg}");
                        }
                        // Whatever the exit reason, the connection's
                        // outstanding leases go back to the queue.
                        release_conn(conn, shared, wake_addr);
                    });
                }
            })?;
        }

        let state = shared.state.into_inner().expect("fabric state");
        Ok(ServeSummary {
            telemetry: state.telemetry(n as u64),
            dead: state.dead,
            wall: start.elapsed(),
        })
    }
}

/// Settles grid slot `i` with the committer — a fresh result to write in
/// its turn, or nothing (already stored, or dead) — and demotes the jobs
/// whose store write that flushed and failed to structured dead entries
/// (they had counted as executed).
fn settle(
    state: &mut State<'_>,
    index_of: &FastMap<JobSpec, usize>,
    i: usize,
    fresh: Option<StoredResult>,
) {
    let unwritten = match fresh {
        Some(result) => state.commit.complete(i, result),
        None => state.commit.skip(i),
    };
    for failure in unwritten {
        state.failures.push(FailureNote {
            job: failure.spec.label(),
            kind: failure.kind,
            message: failure.message.clone(),
        });
        state.status[index_of[&failure.spec]] = Slot::Dead;
        state.dead.push(failure);
        state.executed -= 1;
    }
}

/// Returns expired leases' jobs to the queue. Called lazily from the
/// `Request` path and from every read-side frame — `Status` and `Query`
/// alike — so deadlines stay honest even when the only traffic is a
/// fetch/status poller watching a stalled sweep. A waiting worker
/// additionally polls on [`RETRY_MS`], which bounds how
/// stale a deadline check can get without any timer thread.
fn reap_expired(state: &mut State<'_>, verbose: bool) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the lease clock: a deadline decides which worker runs a job, never what the job computes"
    )]
    let now = Instant::now();
    let expired: Vec<u64> = state
        .leases
        .iter()
        .filter(|(_, l)| l.deadline <= now)
        .map(|(&id, _)| id)
        .collect();
    for id in expired {
        let lease = state.leases.remove(&id).expect("expired lease exists");
        if verbose {
            eprintln!(
                "serve: lease {id} ({} job(s), worker {}) expired — re-leasing",
                lease.jobs.len(),
                lease.worker
            );
        }
        requeue_lease_jobs(state, &lease, id);
    }
}

/// Puts a dropped lease's unfinished jobs back at the front of the
/// queue (oldest grid positions first, which keeps few results waiting
/// for their turn at the store) and counts the re-leases.
fn requeue_lease_jobs(state: &mut State<'_>, lease: &LeaseEntry, id: u64) {
    for &i in lease.jobs.iter().rev() {
        if state.status[i] == Slot::Leased(id) {
            state.status[i] = Slot::Pending;
            state.pending.push_front(i);
            state.releases += 1;
        }
    }
}

/// Drops every lease owned by a closed connection; wakes the accept
/// loop if that completed the grid (it cannot have — completion needs a
/// `Done` — but a lingering shutdown may be waiting on the release).
fn release_conn(conn: u64, shared: &Shared<'_>, wake_addr: SocketAddr) {
    let mut state = shared.state.lock().expect("fabric state");
    let owned: Vec<u64> = state
        .leases
        .iter()
        .filter(|(_, l)| l.conn == conn)
        .map(|(&id, _)| id)
        .collect();
    for id in owned {
        let lease = state.leases.remove(&id).expect("owned lease exists");
        if shared.opts.verbose {
            eprintln!(
                "serve: worker {} disconnected with lease {id} ({} job(s)) — re-leasing",
                lease.worker,
                lease.jobs.len()
            );
        }
        requeue_lease_jobs(&mut state, &lease, id);
    }
    drop(state);
    maybe_finish(shared, wake_addr);
}

/// Checks for completion and, when the serve is over, trips the
/// `finished` flag and pokes the accept loop with a throwaway
/// connection so it can observe the flag.
fn maybe_finish(shared: &Shared<'_>, wake_addr: SocketAddr) {
    let state = shared.state.lock().expect("fabric state");
    let over = if shared.opts.linger {
        state.shutdown
    } else {
        state.grid_complete() || state.shutdown
    };
    drop(state);
    if over && !shared.finished.swap(true, Ordering::SeqCst) {
        // Unblock `accept`; if the listener already went away there is
        // nothing to wake.
        let _ = TcpStream::connect(wake_addr);
    }
}

/// Serves one connection until the peer disconnects, the serve
/// finishes, or a protocol violation occurs. Strict request/reply: one
/// frame in, one frame out.
fn handle_conn(
    stream: TcpStream,
    conn: u64,
    shared: &Shared<'_>,
    wake_addr: SocketAddr,
) -> Result<(), WireError> {
    // A short read timeout lets the loop notice `finished` between
    // frames — an idle peer cannot pin the coordinator open forever.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);

    let mut peer_name = format!("conn-{conn}");
    let mut greeted = false;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) if e.is_timeout() => {
                if shared.finished.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(WireError::Io(_)) => return Ok(()), // peer went away
            Err(e) => return Err(e),
        };
        let msg = Msg::from_json(&frame).map_err(WireError::Protocol)?;
        let reply = match msg {
            Msg::Hello {
                version,
                role,
                name,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(WireError::Protocol(format!(
                        "peer speaks protocol v{version}, this coordinator v{PROTOCOL_VERSION}"
                    )));
                }
                if role == Role::Worker {
                    peer_name = name;
                    let mut state = shared.state.lock().expect("fabric state");
                    state.workers.entry(peer_name.clone()).or_insert((0, 0));
                }
                greeted = true;
                Msg::Ack {
                    stored: 0,
                    duplicates: 0,
                }
            }
            _ if !greeted => {
                return Err(WireError::Protocol(
                    "first frame on a connection must be hello".into(),
                ))
            }
            Msg::Request => handle_request(shared, conn, &peer_name),
            Msg::Done { lease, results } => {
                let reply = handle_done(shared, &peer_name, lease, results);
                maybe_finish(shared, wake_addr);
                reply
            }
            Msg::Failed { lease, failures } => {
                let reply = handle_failed(shared, &peer_name, lease, failures);
                maybe_finish(shared, wake_addr);
                reply
            }
            Msg::Query { filters } => {
                // The fetch path reaps too: a client polling for
                // results must not let an expired lease pin its jobs
                // while idle workers wait for them to re-queue.
                {
                    let mut state = shared.state.lock().expect("fabric state");
                    reap_expired(&mut state, shared.opts.verbose);
                }
                Msg::Results {
                    records: filter_store(shared.store, &filters),
                }
            }
            Msg::Status => {
                let mut state = shared.state.lock().expect("fabric state");
                reap_expired(&mut state, shared.opts.verbose);
                Msg::Telemetry {
                    telemetry: state.telemetry(shared.jobs.len() as u64),
                }
            }
            Msg::Shutdown => {
                shared.state.lock().expect("fabric state").shutdown = true;
                let _ = write_frame(
                    &mut writer,
                    &Msg::Ack {
                        stored: 0,
                        duplicates: 0,
                    }
                    .to_json(),
                );
                maybe_finish(shared, wake_addr);
                return Ok(());
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected message from peer: {other:?}"
                )))
            }
        };
        write_frame(&mut writer, &reply.to_json())?;
    }
}

/// Grants a lease on the next pending simulation, or tells the worker
/// to wait / go home.
fn handle_request(shared: &Shared<'_>, conn: u64, worker: &str) -> Msg {
    let mut state = shared.state.lock().expect("fabric state");
    reap_expired(&mut state, shared.opts.verbose);
    if state.grid_complete() || (state.pending.is_empty() && state.leases.is_empty()) {
        // The second disjunct covers an abandoned grid (dead jobs only):
        // nothing will ever become pending again, so workers go home.
        return Msg::Drained;
    }
    // The pending deque can hold stale indices: a reaped lease's job
    // re-queues as pending, and a later stale `Done` for it flips the
    // status to done while the queue slot remains. Leasing such a job
    // again would double-execute it, so only what is still pending is
    // live. Same unit as the local sweep: one simulation.
    let State {
        pending, status, ..
    } = &mut *state;
    let taken = take_unit(pending, &shared.jobs, |i| status[i] == Slot::Pending);
    if taken.is_empty() {
        return Msg::Wait { retry_ms: RETRY_MS };
    }
    let lease = state.next_lease;
    state.next_lease += 1;
    #[expect(
        clippy::disallowed_methods,
        reason = "the lease clock: a deadline decides which worker runs a job, never what the job computes"
    )]
    let deadline = Instant::now() + Duration::from_millis(shared.opts.lease_ms);
    for &i in &taken {
        state.status[i] = Slot::Leased(lease);
    }
    state.leases.insert(
        lease,
        LeaseEntry {
            jobs: taken.clone(),
            conn,
            worker: worker.to_string(),
            deadline,
        },
    );
    if shared.opts.verbose {
        eprintln!(
            "serve: lease {lease} -> {worker}: {} job(s) ({}, ...)",
            taken.len(),
            shared.jobs[taken[0]]
        );
    }
    Msg::Lease {
        lease,
        deadline_ms: shared.opts.lease_ms,
        jobs: taken.iter().map(|&i| shared.jobs[i]).collect(),
    }
}

/// Accepts a lease's results idempotently and hands them to the
/// committer.
fn handle_done(shared: &Shared<'_>, worker: &str, lease: u64, results: Vec<StoredResult>) -> Msg {
    let mut state = shared.state.lock().expect("fabric state");
    let mut stored = 0u64;
    let mut duplicates = 0u64;
    for r in results {
        let Some(&i) = shared.index_of.get(&r.spec) else {
            // Not part of this grid — a confused or stale worker. The
            // result is dropped; completing it would corrupt the
            // expansion-order commit.
            eprintln!(
                "fabric: dropping result for job outside the grid: {}",
                r.spec
            );
            continue;
        };
        match state.status[i] {
            Slot::Done | Slot::Dead => duplicates += 1,
            _ => {
                state.status[i] = Slot::Done;
                state.executed += 1;
                stored += 1;
                state.workers.entry(worker.to_string()).or_insert((0, 0)).0 += 1;
                settle(&mut state, &shared.index_of, i, Some(r));
            }
        }
    }
    state.duplicates += duplicates;
    // Retire the lease; any of its jobs *not* in the results (a partial
    // completion would be a worker bug, but the queue must not leak
    // them) go back to pending.
    if let Some(entry) = state.leases.remove(&lease) {
        requeue_lease_jobs(&mut state, &entry, lease);
    }
    if shared.opts.verbose {
        eprintln!(
            "serve: lease {lease} done by {worker}: {stored} stored, {duplicates} duplicate(s) \
             ({} / {} committed)",
            state.commit.committed(),
            shared.jobs.len()
        );
    }
    Msg::Ack { stored, duplicates }
}

/// Records a lease's structured failures and re-queues (or kills) the
/// jobs.
fn handle_failed(shared: &Shared<'_>, worker: &str, lease: u64, failures: Vec<JobFailure>) -> Msg {
    let mut state = shared.state.lock().expect("fabric state");
    let entry = state.leases.remove(&lease);
    let mut acked = 0u64;
    for failure in failures {
        let Some(&i) = shared.index_of.get(&failure.spec) else {
            continue;
        };
        if matches!(state.status[i], Slot::Done | Slot::Dead) {
            continue;
        }
        acked += 1;
        state.workers.entry(worker.to_string()).or_insert((0, 0)).1 += 1;
        state.failures.push(FailureNote {
            job: failure.spec.label(),
            kind: failure.kind,
            message: failure.message.clone(),
        });
        state.attempts[i] += 1;
        if state.attempts[i] >= MAX_ATTEMPTS {
            state.status[i] = Slot::Dead;
            state.dead.push(failure);
            settle(&mut state, &shared.index_of, i, None);
        } else {
            state.status[i] = Slot::Pending;
            state.pending.push_front(i);
        }
    }
    // Leaked lease jobs without an explicit failure entry go back too.
    if let Some(entry) = entry {
        requeue_lease_jobs(&mut state, &entry, lease);
    }
    if shared.opts.verbose {
        eprintln!("serve: lease {lease} FAILED on {worker}: {acked} job(s) affected");
    }
    Msg::Ack {
        stored: 0,
        duplicates: 0,
    }
}

/// The read side's one filter definition (the `Query` arm, the CLI and
/// tests share it with the protocol): the stored results `filters`
/// accepts, in the store's canonical order.
pub fn filter_store(store: &ResultStore, filters: &QueryFilters) -> Vec<StoredResult> {
    store.entries_where(|r| filters.matches(r))
}
