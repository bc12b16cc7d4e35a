//! The fabric protocol: typed request/reply messages and their JSON
//! encoding.
//!
//! Every connection starts with a [`Msg::Hello`] naming the peer's
//! [`Role`]; after that the protocol is strict request/reply — the peer
//! sends one frame and the coordinator answers with exactly one frame,
//! so framing never desynchronizes and a reply can always be attributed.
//! Job specs, results and reports travel as the harness and simulator
//! declare them (`JobSpec`, [`StoredResult`], `SimReport`), so the wire
//! format is the store's record vocabulary over [`crate::wire`] frames.
//! The layout of every message is the `tagged!` table at the bottom of
//! this file and nowhere else; `tests/byte_goldens.rs` pins its bytes
//! and `tests/wire_props.rs` the encode→frame→decode round trip.

use valley_core::SchemeKind;
use valley_harness::{ConfigId, FailureKind, JobFailure, JobSpec, StoredResult, SweepSpec};
use valley_sim::json::Json;
use valley_sim::record::Codec;
use valley_workloads::{Benchmark, Scale};

/// Protocol version, carried in every [`Msg::Hello`]. A coordinator
/// rejects mismatched peers loudly instead of misparsing their frames.
/// v2 added the `wall` attribution field to result records (see
/// [`valley_harness::WallKind`]); a v1 peer would drop it silently, so
/// the version gates it out. v3 dropped `request`'s `capacity`: a lease
/// is always one simulation.
pub const PROTOCOL_VERSION: u32 = 3;

/// What a connecting peer is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Executes leased jobs and returns reports.
    Worker,
    /// Read-side consumer: queries, status, admin shutdown.
    Client,
}

impl Role {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Client => "client",
        }
    }

    /// Parses a [`Role::name`] string.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "worker" => Some(Role::Worker),
            "client" => Some(Role::Client),
            _ => None,
        }
    }
}

/// Read-side query filters; `None` matches everything on that axis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryFilters {
    /// Benchmark filter.
    pub bench: Option<Benchmark>,
    /// Scheme filter.
    pub scheme: Option<SchemeKind>,
    /// Scale filter.
    pub scale: Option<Scale>,
    /// Seed filter.
    pub seed: Option<u64>,
    /// Config filter.
    pub config: Option<ConfigId>,
}

impl QueryFilters {
    /// The tightest filters that admit every job of `grid`: the scale,
    /// and each other axis on which the grid has exactly one value. The
    /// requester still intersects with the grid; this only keeps records
    /// it would discard off the wire.
    pub fn for_grid(grid: &SweepSpec) -> QueryFilters {
        fn sole<T: Copy + PartialEq>(axis: &[T]) -> Option<T> {
            let (&first, rest) = axis.split_first()?;
            rest.iter().all(|&v| v == first).then_some(first)
        }
        QueryFilters {
            bench: sole(&grid.benches),
            scheme: sole(&grid.schemes),
            scale: Some(grid.scale),
            seed: sole(&grid.seeds),
            config: sole(&grid.configs),
        }
    }

    /// Whether a stored result passes every set filter.
    pub fn matches(&self, r: &StoredResult) -> bool {
        self.bench.is_none_or(|b| b == r.spec.bench)
            && self.scheme.is_none_or(|s| s == r.spec.scheme)
            && self.scale.is_none_or(|s| s == r.spec.scale)
            && self.seed.is_none_or(|s| s == r.spec.seed)
            && self.config.is_none_or(|c| c == r.spec.config)
    }
}

/// Per-worker fabric telemetry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// The worker's self-reported name (stable across reconnects).
    pub name: String,
    /// Jobs this worker completed (accepted results only; a duplicate
    /// completion of an already-stored job does not count).
    pub completed: u64,
    /// Structured failures this worker reported.
    pub failed: u64,
}

/// One recorded job failure, for `valley status` and the serve summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureNote {
    /// The failed job's human label.
    pub job: String,
    /// The structured failure kind ([`FailureKind::name`]).
    pub kind: FailureKind,
    /// Human-readable detail.
    pub message: String,
}

/// A snapshot of the coordinator's state, served to `valley status
/// --fabric` and returned in the serve summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// Jobs in the sweep grid.
    pub jobs_total: u64,
    /// Jobs already in the store when the coordinator started.
    pub cache_hits: u64,
    /// Jobs completed by workers this serve (excludes cache hits).
    pub executed: u64,
    /// Leases currently outstanding.
    pub active_leases: u64,
    /// Jobs returned to the queue after a lease timed out or its worker
    /// disconnected.
    pub releases: u64,
    /// Completions for jobs that were already done (idempotently
    /// dropped — the store is content-addressed, nothing is lost).
    pub duplicates: u64,
    /// Per-worker statistics, sorted by worker name.
    pub workers: Vec<WorkerStat>,
    /// Structured failures recorded so far (includes re-leased crashes).
    pub failures: Vec<FailureNote>,
}

/// One fabric message. See the module docs for the request/reply
/// pairing; [`Msg::to_json`] / [`Msg::from_json`] are exact inverses.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// First frame on every connection.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u32,
        /// What the peer is.
        role: Role,
        /// Peer name (telemetry key for workers).
        name: String,
    },
    /// Worker asks for work.
    Request,
    /// Coordinator grants a lease on one simulation.
    Lease {
        /// Lease id, echoed back in [`Msg::Done`] / [`Msg::Failed`].
        lease: u64,
        /// Milliseconds until the coordinator may re-lease these jobs.
        deadline_ms: u64,
        /// The leased jobs: one job, or the seeds of a deterministic
        /// scheme that are the same simulation (`JobSpec::simulation`),
        /// which `execute_batch_timed` runs once.
        jobs: Vec<JobSpec>,
    },
    /// Coordinator has jobs outstanding but none available; retry after
    /// the backoff.
    Wait {
        /// Suggested retry backoff in milliseconds.
        retry_ms: u64,
    },
    /// The grid is complete (or abandoned): the worker should exit.
    Drained,
    /// Worker returns the results of a lease.
    Done {
        /// The lease being completed.
        lease: u64,
        /// One result per leased job.
        results: Vec<StoredResult>,
    },
    /// Worker reports a structured failure for a lease; the
    /// coordinator re-leases the jobs (up to its attempt cap) with the
    /// reason attached to telemetry.
    Failed {
        /// The lease that failed.
        lease: u64,
        /// The structured failures, one per affected job.
        failures: Vec<JobFailure>,
    },
    /// Generic acknowledgement. `stored`/`duplicates` report what a
    /// [`Msg::Done`] actually changed (idempotency is observable).
    Ack {
        /// Results accepted and queued for the store.
        stored: u64,
        /// Results dropped because the job was already done.
        duplicates: u64,
    },
    /// Read-side query, answered purely from the store.
    Query {
        /// The filters.
        filters: QueryFilters,
    },
    /// Reply to [`Msg::Query`].
    Results {
        /// Matching stored results, in the store's canonical order.
        records: Vec<StoredResult>,
    },
    /// Read-side telemetry request.
    Status,
    /// Reply to [`Msg::Status`].
    Telemetry {
        /// The coordinator's counters.
        telemetry: Telemetry,
    },
    /// Admin: ask a lingering coordinator to exit.
    Shutdown,
}

// ---------------------------------------------------------------------
// Wire shapes
// ---------------------------------------------------------------------

valley_sim::name_coded!(Role, name, Role::parse);

valley_sim::record!(QueryFilters {
    bench: Option<Benchmark> = "bench",
    scheme: Option<SchemeKind> = "scheme",
    scale: Option<Scale> = "scale",
    seed: Option<u64> = "seed",
    config: Option<ConfigId> = "config",
});

valley_sim::record!(WorkerStat {
    name: String = "name",
    completed: u64 = "completed",
    failed: u64 = "failed",
});

valley_sim::record!(FailureNote {
    job: String = "job",
    kind: FailureKind = "kind",
    message: String = "message",
});

valley_sim::record!(Telemetry {
    jobs_total: u64 = "jobs_total",
    cache_hits: u64 = "cache_hits",
    executed: u64 = "executed",
    active_leases: u64 = "active_leases",
    releases: u64 = "releases",
    duplicates: u64 = "duplicates",
    workers: Vec<WorkerStat> = "workers",
    failures: Vec<FailureNote> = "failures",
});

valley_sim::tagged!(Msg, tag "t" {
    "hello" => Hello { version: u32 = "version", role: Role = "role", name: String = "name" },
    "request" => Request {},
    "lease" => Lease {
        lease: u64 = "lease",
        deadline_ms: u64 = "deadline_ms",
        jobs: Vec<JobSpec> = "jobs",
    },
    "wait" => Wait { retry_ms: u64 = "retry_ms" },
    "drained" => Drained {},
    "done" => Done { lease: u64 = "lease", results: Vec<StoredResult> = "results" },
    "failed" => Failed { lease: u64 = "lease", failures: Vec<JobFailure> = "failures" },
    "ack" => Ack { stored: u64 = "stored", duplicates: u64 = "duplicates" },
    "query" => Query { filters: QueryFilters = "filters" },
    "results" => Results { records: Vec<StoredResult> = "records" },
    "status" => Status {},
    "telemetry" => Telemetry { telemetry: Telemetry = "telemetry" },
    "shutdown" => Shutdown {},
});

impl Msg {
    /// Encodes the message as one JSON value (the frame payload).
    pub fn to_json(&self) -> Json {
        self.encode()
    }

    /// Decodes [`Msg::to_json`]. Every malformed shape fails loudly.
    pub fn from_json(v: &Json) -> Result<Msg, String> {
        Msg::decode(v)
    }
}
