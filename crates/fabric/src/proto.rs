//! The fabric protocol: typed request/reply messages and their JSON
//! encoding.
//!
//! Every connection starts with a [`Msg::Hello`] naming the peer's
//! [`Role`]; after that the protocol is strict request/reply — the peer
//! sends one frame and the coordinator answers with exactly one frame,
//! so framing never desynchronizes and a reply can always be attributed.
//! Job specs and reports reuse the harness's canonical field encoding
//! (`bench`/`scheme`/`seed`/`scale`/`config`, [`SimReport::to_json_value`]),
//! so the wire format is the store's record vocabulary over
//! [`crate::wire`] frames — property tests pin the encode→frame→decode
//! round trip bit-identical.

use valley_harness::{parse_scheme, ConfigId};
use valley_harness::{FailureKind, JobFailure, JobSpec, StoredResult, SweepSpec, WallKind};
use valley_sim::json::Json;
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

/// Protocol version, carried in every [`Msg::Hello`]. A coordinator
/// rejects mismatched peers loudly instead of misparsing their frames.
/// v2 added the `wall` attribution field to result records (see
/// [`WallKind`]); a v1 peer would drop it silently, so the version gates
/// it out.
pub const PROTOCOL_VERSION: u32 = 2;

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
    pub scheme: Option<valley_core::SchemeKind>,
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
    /// Worker asks for work; `capacity` is the widest same-machine batch
    /// it will accept (its `--batch` width).
    Request {
        /// Maximum jobs per lease.
        capacity: u64,
    },
    /// Coordinator grants a lease on a batch of same-machine jobs.
    Lease {
        /// Lease id, echoed back in [`Msg::Done`] / [`Msg::Failed`].
        lease: u64,
        /// Milliseconds until the coordinator may re-lease these jobs.
        deadline_ms: u64,
        /// The leased jobs (all sharing config × scale × scheme, so the
        /// worker can run them through `execute_batch`).
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
    /// Worker reports a structured failure for a leased batch; the
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
    Telemetry(Telemetry),
    /// Admin: ask a lingering coordinator to exit.
    Shutdown,
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

/// Encodes a job spec with the store's canonical field vocabulary.
pub fn job_to_json(spec: &JobSpec) -> Json {
    Json::Obj(vec![
        ("bench".into(), Json::Str(spec.bench.label().into())),
        ("scheme".into(), Json::Str(spec.scheme.label().into())),
        ("seed".into(), Json::UInt(spec.seed)),
        ("scale".into(), Json::Str(spec.scale.name().into())),
        ("config".into(), Json::Str(spec.config.name())),
    ])
}

/// Decodes [`job_to_json`]. Unknown names fail loudly — a mixed-version
/// fleet must not silently run the wrong experiment.
pub fn job_from_json(v: &Json) -> Result<JobSpec, String> {
    let text = |key: &str| -> Result<&str, String> {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("job field '{key}' missing or not a string"))
    };
    let bench_name = text("bench")?;
    let bench =
        Benchmark::parse(bench_name).ok_or_else(|| format!("unknown benchmark '{bench_name}'"))?;
    let scheme_name = text("scheme")?;
    let scheme =
        parse_scheme(scheme_name).ok_or_else(|| format!("unknown scheme '{scheme_name}'"))?;
    let scale_name = text("scale")?;
    let scale = Scale::parse(scale_name).ok_or_else(|| format!("unknown scale '{scale_name}'"))?;
    let config_name = text("config")?;
    let config =
        ConfigId::parse(config_name).ok_or_else(|| format!("unknown config '{config_name}'"))?;
    let seed = v
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("job field 'seed' missing or not an integer")?;
    Ok(JobSpec {
        bench,
        scheme,
        seed,
        scale,
        config,
    })
}

/// Encodes a stored result (job + wall time + attribution + report).
pub fn record_to_json(r: &StoredResult) -> Json {
    Json::Obj(vec![
        ("job".into(), job_to_json(&r.spec)),
        ("wall_ms".into(), Json::Num(r.wall_ms)),
        ("wall".into(), Json::Str(r.wall.as_str().into())),
        ("report".into(), r.report.to_json_value()),
    ])
}

/// Decodes [`record_to_json`].
pub fn record_from_json(v: &Json) -> Result<StoredResult, String> {
    let spec = job_from_json(v.get("job").ok_or("record has no job")?)?;
    let wall_ms = v
        .get("wall_ms")
        .and_then(Json::as_f64)
        .ok_or("record field 'wall_ms' missing or not a number")?;
    let wall_name = v
        .get("wall")
        .and_then(Json::as_str)
        .ok_or("record field 'wall' missing or not a string")?;
    let wall =
        WallKind::parse(wall_name).ok_or_else(|| format!("unknown wall kind '{wall_name}'"))?;
    let report = SimReport::from_json_value(v.get("report").ok_or("record has no report")?)?;
    Ok(StoredResult {
        spec,
        report,
        wall_ms,
        wall,
    })
}

fn failure_to_json(f: &JobFailure) -> Json {
    Json::Obj(vec![
        ("job".into(), job_to_json(&f.spec)),
        ("kind".into(), Json::Str(f.kind.name().into())),
        ("message".into(), Json::Str(f.message.clone())),
    ])
}

fn failure_from_json(v: &Json) -> Result<JobFailure, String> {
    let spec = job_from_json(v.get("job").ok_or("failure has no job")?)?;
    let kind_name = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("failure field 'kind' missing or not a string")?;
    let kind = FailureKind::parse(kind_name)
        .ok_or_else(|| format!("unknown failure kind '{kind_name}'"))?;
    let message = v
        .get("message")
        .and_then(Json::as_str)
        .ok_or("failure field 'message' missing or not a string")?
        .to_string();
    Ok(JobFailure {
        spec,
        kind,
        message,
    })
}

fn telemetry_to_json(t: &Telemetry) -> Json {
    Json::Obj(vec![
        ("jobs_total".into(), Json::UInt(t.jobs_total)),
        ("cache_hits".into(), Json::UInt(t.cache_hits)),
        ("executed".into(), Json::UInt(t.executed)),
        ("active_leases".into(), Json::UInt(t.active_leases)),
        ("releases".into(), Json::UInt(t.releases)),
        ("duplicates".into(), Json::UInt(t.duplicates)),
        (
            "workers".into(),
            Json::Arr(
                t.workers
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.clone())),
                            ("completed".into(), Json::UInt(w.completed)),
                            ("failed".into(), Json::UInt(w.failed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Json::Arr(
                t.failures
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("job".into(), Json::Str(f.job.clone())),
                            ("kind".into(), Json::Str(f.kind.name().into())),
                            ("message".into(), Json::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn telemetry_from_json(v: &Json) -> Result<Telemetry, String> {
    let int = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("telemetry field '{key}' missing or not an integer"))
    };
    let workers = v
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("telemetry field 'workers' missing or not an array")?
        .iter()
        .map(|w| {
            Ok(WorkerStat {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("worker stat has no name")?
                    .to_string(),
                completed: w
                    .get("completed")
                    .and_then(Json::as_u64)
                    .ok_or("worker stat has no completed count")?,
                failed: w
                    .get("failed")
                    .and_then(Json::as_u64)
                    .ok_or("worker stat has no failed count")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let failures = v
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("telemetry field 'failures' missing or not an array")?
        .iter()
        .map(|f| {
            let kind_name = f
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("failure note has no kind")?;
            Ok(FailureNote {
                job: f
                    .get("job")
                    .and_then(Json::as_str)
                    .ok_or("failure note has no job")?
                    .to_string(),
                kind: FailureKind::parse(kind_name)
                    .ok_or_else(|| format!("unknown failure kind '{kind_name}'"))?,
                message: f
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("failure note has no message")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Telemetry {
        jobs_total: int("jobs_total")?,
        cache_hits: int("cache_hits")?,
        executed: int("executed")?,
        active_leases: int("active_leases")?,
        releases: int("releases")?,
        duplicates: int("duplicates")?,
        workers,
        failures,
    })
}

fn filters_to_json(f: &QueryFilters) -> Json {
    let mut members = Vec::new();
    if let Some(b) = f.bench {
        members.push(("bench".to_string(), Json::Str(b.label().into())));
    }
    if let Some(s) = f.scheme {
        members.push(("scheme".to_string(), Json::Str(s.label().into())));
    }
    if let Some(s) = f.scale {
        members.push(("scale".to_string(), Json::Str(s.name().into())));
    }
    if let Some(s) = f.seed {
        members.push(("seed".to_string(), Json::UInt(s)));
    }
    if let Some(c) = f.config {
        members.push(("config".to_string(), Json::Str(c.name())));
    }
    Json::Obj(members)
}

fn filters_from_json(v: &Json) -> Result<QueryFilters, String> {
    let mut f = QueryFilters::default();
    if let Some(name) = v.get("bench").map(|b| b.as_str().ok_or("bad bench filter")) {
        f.bench = Some(Benchmark::parse(name?).ok_or("unknown bench filter")?);
    }
    if let Some(name) = v
        .get("scheme")
        .map(|s| s.as_str().ok_or("bad scheme filter"))
    {
        f.scheme = Some(parse_scheme(name?).ok_or("unknown scheme filter")?);
    }
    if let Some(name) = v.get("scale").map(|s| s.as_str().ok_or("bad scale filter")) {
        f.scale = Some(Scale::parse(name?).ok_or("unknown scale filter")?);
    }
    if let Some(seed) = v.get("seed") {
        f.seed = Some(seed.as_u64().ok_or("bad seed filter")?);
    }
    if let Some(name) = v
        .get("config")
        .map(|c| c.as_str().ok_or("bad config filter"))
    {
        f.config = Some(ConfigId::parse(name?).ok_or("unknown config filter")?);
    }
    Ok(f)
}

impl Msg {
    /// Encodes the message as one JSON value (the frame payload).
    pub fn to_json(&self) -> Json {
        let tag = |t: &str| ("t".to_string(), Json::Str(t.into()));
        match self {
            Msg::Hello {
                version,
                role,
                name,
            } => Json::Obj(vec![
                tag("hello"),
                ("version".into(), Json::UInt(u64::from(*version))),
                ("role".into(), Json::Str(role.name().into())),
                ("name".into(), Json::Str(name.clone())),
            ]),
            Msg::Request { capacity } => Json::Obj(vec![
                tag("request"),
                ("capacity".into(), Json::UInt(*capacity)),
            ]),
            Msg::Lease {
                lease,
                deadline_ms,
                jobs,
            } => Json::Obj(vec![
                tag("lease"),
                ("lease".into(), Json::UInt(*lease)),
                ("deadline_ms".into(), Json::UInt(*deadline_ms)),
                (
                    "jobs".into(),
                    Json::Arr(jobs.iter().map(job_to_json).collect()),
                ),
            ]),
            Msg::Wait { retry_ms } => Json::Obj(vec![
                tag("wait"),
                ("retry_ms".into(), Json::UInt(*retry_ms)),
            ]),
            Msg::Drained => Json::Obj(vec![tag("drained")]),
            Msg::Done { lease, results } => Json::Obj(vec![
                tag("done"),
                ("lease".into(), Json::UInt(*lease)),
                (
                    "results".into(),
                    Json::Arr(results.iter().map(record_to_json).collect()),
                ),
            ]),
            Msg::Failed { lease, failures } => Json::Obj(vec![
                tag("failed"),
                ("lease".into(), Json::UInt(*lease)),
                (
                    "failures".into(),
                    Json::Arr(failures.iter().map(failure_to_json).collect()),
                ),
            ]),
            Msg::Ack { stored, duplicates } => Json::Obj(vec![
                tag("ack"),
                ("stored".into(), Json::UInt(*stored)),
                ("duplicates".into(), Json::UInt(*duplicates)),
            ]),
            Msg::Query { filters } => Json::Obj(vec![
                tag("query"),
                ("filters".into(), filters_to_json(filters)),
            ]),
            Msg::Results { records } => Json::Obj(vec![
                tag("results"),
                (
                    "records".into(),
                    Json::Arr(records.iter().map(record_to_json).collect()),
                ),
            ]),
            Msg::Status => Json::Obj(vec![tag("status")]),
            Msg::Telemetry(t) => Json::Obj(vec![
                tag("telemetry"),
                ("telemetry".into(), telemetry_to_json(t)),
            ]),
            Msg::Shutdown => Json::Obj(vec![tag("shutdown")]),
        }
    }

    /// Decodes [`Msg::to_json`]. Every malformed shape fails loudly.
    pub fn from_json(v: &Json) -> Result<Msg, String> {
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or("message has no 't' tag")?;
        let int = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("message field '{key}' missing or not an integer"))
        };
        let arr = |key: &str| -> Result<&[Json], String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("message field '{key}' missing or not an array"))
        };
        match t {
            "hello" => {
                let role_name = v
                    .get("role")
                    .and_then(Json::as_str)
                    .ok_or("hello has no role")?;
                Ok(Msg::Hello {
                    version: u32::try_from(int("version")?)
                        .map_err(|_| "hello version out of range".to_string())?,
                    role: Role::parse(role_name)
                        .ok_or_else(|| format!("unknown role '{role_name}'"))?,
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("hello has no name")?
                        .to_string(),
                })
            }
            "request" => Ok(Msg::Request {
                capacity: int("capacity")?,
            }),
            "lease" => Ok(Msg::Lease {
                lease: int("lease")?,
                deadline_ms: int("deadline_ms")?,
                jobs: arr("jobs")?
                    .iter()
                    .map(job_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "wait" => Ok(Msg::Wait {
                retry_ms: int("retry_ms")?,
            }),
            "drained" => Ok(Msg::Drained),
            "done" => Ok(Msg::Done {
                lease: int("lease")?,
                results: arr("results")?
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "failed" => Ok(Msg::Failed {
                lease: int("lease")?,
                failures: arr("failures")?
                    .iter()
                    .map(failure_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "ack" => Ok(Msg::Ack {
                stored: int("stored")?,
                duplicates: int("duplicates")?,
            }),
            "query" => Ok(Msg::Query {
                filters: filters_from_json(v.get("filters").ok_or("query has no filters")?)?,
            }),
            "results" => Ok(Msg::Results {
                records: arr("records")?
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "status" => Ok(Msg::Status),
            "telemetry" => Ok(Msg::Telemetry(telemetry_from_json(
                v.get("telemetry").ok_or("telemetry message has no body")?,
            )?)),
            "shutdown" => Ok(Msg::Shutdown),
            other => Err(format!("unknown message tag '{other}'")),
        }
    }
}
