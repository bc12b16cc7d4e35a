//! End-to-end fabric tests over 127.0.0.1: a coordinator and in-process
//! workers exercising the real TCP protocol. Pins the two headline
//! guarantees — a distributed sweep's store file is identical to a local
//! sequential sweep's (the grid in expansion order, modulo only the
//! `wall_ms` value and its `wall` attribution), and a worker killed mid-job loses
//! nothing: its lease is re-issued and the grid completes with zero
//! lost and zero duplicated results.

mod common;

use common::{filed_jobs, normalized_store, without_wall_ms};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use valley_core::SchemeKind;
use valley_fabric::{
    fetch, read_frame, run_worker, shutdown, write_frame, CoordOptions, Coordinator, Msg,
    QueryFilters, Role, ServeSummary, WorkerOptions, MAX_ATTEMPTS, PROTOCOL_VERSION,
};
use valley_harness::{
    execute_batch_timed, run_sweep, JobFailure, JobSpec, ResultStore, StoredResult, SweepOptions,
    SweepSpec,
};
use valley_workloads::{Benchmark, Scale};

/// A fresh store directory that cleans itself up.
struct TempStore(std::path::PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("valley-fabric-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempStore(dir)
    }

    fn open(&self) -> ResultStore {
        ResultStore::open(&self.0).expect("store opens")
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Four test-scale jobs, each its own simulation (one lease each).
fn grid() -> SweepSpec {
    SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
}

fn quiet(worker: &str) -> WorkerOptions {
    WorkerOptions {
        name: worker.to_string(),
        verbose: false,
    }
}

fn coord_opts() -> CoordOptions {
    CoordOptions {
        verbose: false,
        ..CoordOptions::default()
    }
}

/// A hand-driven protocol peer for fault injection: speaks real frames
/// over a real socket but does exactly (and only) what each test says.
struct RawPeer {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RawPeer {
    fn connect(addr: &str, name: &str) -> RawPeer {
        let stream = TcpStream::connect(addr).expect("raw peer connects");
        let mut peer = RawPeer {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        };
        let ack = peer.roundtrip(&Msg::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Worker,
            name: name.to_string(),
        });
        assert!(matches!(ack, Msg::Ack { .. }), "hello rejected: {ack:?}");
        peer
    }

    fn roundtrip(&mut self, msg: &Msg) -> Msg {
        write_frame(&mut self.writer, &msg.to_json()).expect("raw peer writes");
        let reply = read_frame(&mut self.reader).expect("raw peer reads");
        Msg::from_json(&reply).expect("raw peer decodes")
    }

    fn lease(&mut self) -> (u64, Vec<JobSpec>) {
        match self.roundtrip(&Msg::Request) {
            Msg::Lease { lease, jobs, .. } => (lease, jobs),
            other => panic!("expected a lease, got {other:?}"),
        }
    }
}

/// Runs a coordinator over `spec`/`store` while `drive` injects faults
/// and workers; returns the serve summary.
fn serve_while(
    spec: &SweepSpec,
    store: &ResultStore,
    opts: &CoordOptions,
    drive: impl FnOnce(&str) + Send,
) -> ServeSummary {
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    std::thread::scope(|s| {
        let serve = s.spawn(move || coordinator.run(spec, store, opts));
        drive(&addr);
        serve.join().expect("serve thread").expect("serve succeeds")
    })
}

/// Tentpole acceptance: a sweep distributed over two loopback workers
/// produces a store file identical to a local sequential sweep's — same
/// records, in grid expansion order — modulo only `wall_ms`.
#[test]
fn distributed_store_matches_local_sequential_sweep() {
    let spec = grid();

    let local = TempStore::new("local");
    run_sweep(
        &spec,
        &local.open(),
        &SweepOptions {
            workers: Some(1),
            verbose: false,
            ..SweepOptions::default()
        },
    )
    .expect("local sweep");

    let remote = TempStore::new("remote");
    let store = remote.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        std::thread::scope(|s| {
            s.spawn(|| run_worker(addr, &quiet("w1")).expect("worker 1"));
            s.spawn(|| run_worker(addr, &quiet("w2")).expect("worker 2"));
        });
    });

    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 4);
    assert_eq!(summary.telemetry.cache_hits, 0);
    assert_eq!(summary.telemetry.duplicates, 0);
    assert_eq!(normalized_store(&local.0), normalized_store(&remote.0));
    assert_eq!(
        filed_jobs(&remote.0),
        spec.expand(),
        "the file is not the grid in order"
    );

    // Resume: a second serve over the full store completes without any
    // worker connecting at all.
    let resumed = {
        let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind loopback");
        coordinator
            .run(&spec, &store, &coord_opts())
            .expect("resumed serve")
    };
    assert!(resumed.complete());
    assert_eq!(resumed.telemetry.cache_hits, 4);
    assert_eq!(resumed.telemetry.executed, 0);
}

/// Over a multi-seed grid, a lease is one simulation: BASE's seeds run
/// once and the others are cloned, so two default workers store exactly
/// the local sweep's records — `wall` kinds included — modulo `wall_ms`.
#[test]
fn multi_seed_leases_store_the_local_sweeps_records() {
    let spec = grid().with_seeds(&[1, 2, 3]);
    let local = TempStore::new("seeds-local");
    run_sweep(&spec, &local.open(), &SweepOptions::default()).expect("local sweep");

    let remote = TempStore::new("seeds-remote");
    let store = remote.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        std::thread::scope(|s| {
            s.spawn(|| run_worker(addr, &quiet("w1")).expect("worker 1"));
            s.spawn(|| run_worker(addr, &quiet("w2")).expect("worker 2"));
        });
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 12);
    let records = without_wall_ms(&remote.0);
    assert_eq!(records, without_wall_ms(&local.0));
    let cloned = records.iter().filter(|r| r.contains("\"wall\":\"cloned\""));
    assert_eq!(cloned.count(), 4, "two BASE seeds per bench run as clones");
}

/// A grid value given twice names the same job, not a second one. The
/// coordinator matches results to grid slots by key, so a second slot
/// for one key would never fill: the grid would not complete and the
/// worker would never be sent home.
#[test]
fn repeated_grid_values_drain_with_one_record_per_key() {
    let spec = SweepSpec::new(
        &[Benchmark::Mt, Benchmark::Mt],
        &[SchemeKind::Base],
        Scale::Test,
    )
    .with_seeds(&[1, 1]);
    let tmp = TempStore::new("repeated-grid");
    let store = tmp.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        run_worker(addr, &quiet("solo")).expect("worker");
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 1);
    assert_eq!(store.len(), 1);
    drop(store);
    let scan = valley_harness::scan(&tmp.0).expect("store scans");
    assert_eq!((scan.records.len(), scan.duplicates), (1, 0));
}

/// A worker killed mid-job loses nothing: the dropped connection's
/// lease is re-issued to a healthy worker and the grid completes with
/// zero lost and zero duplicated results.
#[test]
fn killed_worker_mid_job_loses_nothing() {
    let spec = grid();
    let tmp = TempStore::new("killed");
    let store = tmp.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        // The victim takes a lease and dies without reporting.
        let mut victim = RawPeer::connect(addr, "victim");
        let (_lease, jobs) = victim.lease();
        assert_eq!(jobs.len(), 1);
        drop(victim);
        // A healthy worker drains the whole grid, including the
        // re-leased job.
        run_worker(addr, &quiet("healthy")).expect("healthy worker");
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 4, "a result was lost");
    assert_eq!(summary.telemetry.duplicates, 0, "a result was duplicated");
    assert!(
        summary.telemetry.releases >= 1,
        "the victim's lease was never re-issued"
    );
    assert_eq!(store.len(), 4);
    let healthy = summary
        .telemetry
        .workers
        .iter()
        .find(|w| w.name == "healthy")
        .expect("healthy worker in telemetry");
    assert_eq!(healthy.completed, 4);
}

/// A worker that stalls past its lease deadline is reaped: the job is
/// re-leased, and the stale worker's late completion is dropped
/// idempotently.
#[test]
fn expired_lease_is_reaped_and_late_completion_is_idempotent() {
    let spec = grid();
    let tmp = TempStore::new("expired");
    let store = tmp.open();
    // Linger keeps the coordinator answering after the grid completes,
    // so the stale worker's late `Done` is deterministically processed
    // (and then `Shutdown` ends the serve).
    let opts = CoordOptions {
        lease_ms: 50,
        linger: true,
        ..coord_opts()
    };
    let summary = serve_while(&spec, &store, &opts, |addr| {
        let mut stalled = RawPeer::connect(addr, "stalled");
        let (lease, jobs) = stalled.lease();
        // Outlive the deadline, then let a healthy worker drain the
        // grid (re-leasing our job on its first request).
        std::thread::sleep(std::time::Duration::from_millis(120));
        run_worker(addr, &quiet("healthy")).expect("healthy worker");
        // The stale completion arrives after the job is already done:
        // dropped idempotently, reported in the ack.
        let results = execute_batch_timed(&jobs);
        match stalled.roundtrip(&Msg::Done { lease, results }) {
            Msg::Ack { stored, duplicates } => {
                assert_eq!(stored, 0, "a stale result was stored twice");
                assert_eq!(duplicates, 1);
            }
            other => panic!("expected an ack, got {other:?}"),
        }
        match stalled.roundtrip(&Msg::Shutdown) {
            Msg::Ack { .. } => {}
            other => panic!("expected a shutdown ack, got {other:?}"),
        }
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 4);
    assert_eq!(summary.telemetry.duplicates, 1);
    assert!(
        summary.telemetry.releases >= 1,
        "expired lease never reaped"
    );
    assert_eq!(store.len(), 4);
}

/// The fetch path reaps too: with every job of the grid stuck behind
/// expired leases, a read-side `Query` alone re-queues them — the
/// releases are counted at query time, before any worker asks for work
/// or reports in — and the stale worker's late completions still land
/// through the idempotent stale-done path. If only the request path
/// reaped, the late `Done` frames would retire their own leases
/// normally and the final `releases` count would fall short.
#[test]
fn query_path_reaps_expired_leases() {
    let spec = grid();
    let tmp = TempStore::new("query-reap");
    let store = tmp.open();
    let opts = CoordOptions {
        lease_ms: 50,
        linger: true,
        ..coord_opts()
    };
    let summary = serve_while(&spec, &store, &opts, |addr| {
        // The victim leases the whole grid (four one-job leases), then
        // stalls past every deadline.
        let mut victim = RawPeer::connect(addr, "victim");
        let leases: Vec<(u64, Vec<JobSpec>)> = (0..4).map(|_| victim.lease()).collect();
        assert!(
            leases.iter().all(|(_, jobs)| jobs.len() == 1),
            "the grid was not leased one job at a time"
        );
        std::thread::sleep(std::time::Duration::from_millis(120));
        // A fetch-only watcher triggers the reap: no Request, no Status.
        let mut watcher = RawPeer::connect(addr, "watcher");
        match watcher.roundtrip(&Msg::Query {
            filters: QueryFilters::default(),
        }) {
            Msg::Results { records } => assert!(records.is_empty(), "nothing is stored yet"),
            other => panic!("expected results, got {other:?}"),
        }
        // The victim's late completions arrive after its leases were
        // reaped; the jobs re-queued at query time, so the results are
        // accepted through the stale-done path.
        for (lease, jobs) in leases {
            let results = execute_batch_timed(&jobs);
            match victim.roundtrip(&Msg::Done { lease, results }) {
                Msg::Ack { stored, duplicates } => {
                    assert_eq!(stored, 1, "a late completion was lost");
                    assert_eq!(duplicates, 0);
                }
                other => panic!("expected an ack, got {other:?}"),
            }
        }
        match victim.roundtrip(&Msg::Shutdown) {
            Msg::Ack { .. } => {}
            other => panic!("expected a shutdown ack, got {other:?}"),
        }
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 4);
    assert_eq!(summary.telemetry.duplicates, 0);
    assert_eq!(
        summary.telemetry.releases, 4,
        "the fetch path did not reap the expired leases"
    );
    assert_eq!(summary.telemetry.active_leases, 0);
    assert_eq!(store.len(), 4);
}

/// A worker-reported panic re-leases the job with the structured reason
/// attached to telemetry; the grid still completes.
#[test]
fn structured_failure_is_re_leased_with_reason() {
    let spec = grid();
    let tmp = TempStore::new("failure");
    let store = tmp.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        let mut flaky = RawPeer::connect(addr, "flaky");
        let (lease, jobs) = flaky.lease();
        let failures = jobs
            .iter()
            .map(|&spec| JobFailure::panic(spec, "injected crash".to_string()))
            .collect();
        match flaky.roundtrip(&Msg::Failed { lease, failures }) {
            Msg::Ack { .. } => {}
            other => panic!("expected an ack, got {other:?}"),
        }
        run_worker(addr, &quiet("healthy")).expect("healthy worker");
    });
    assert!(summary.complete(), "the failed job was never re-leased");
    assert_eq!(summary.telemetry.executed, 4);
    assert_eq!(store.len(), 4);
    let note = summary
        .telemetry
        .failures
        .iter()
        .find(|f| f.message == "injected crash")
        .expect("structured failure reason in telemetry");
    assert_eq!(note.kind, valley_harness::FailureKind::Panic);
    let flaky = summary
        .telemetry
        .workers
        .iter()
        .find(|w| w.name == "flaky")
        .expect("flaky worker in telemetry");
    assert_eq!(flaky.failed, 1);
}

/// A job that fails deterministically on every attempt is declared dead
/// after `MAX_ATTEMPTS` instead of re-leasing forever; the rest of the
/// grid still completes and the serve reports the dead job.
#[test]
fn deterministic_failure_dies_after_max_attempts() {
    let spec = grid();
    let tmp = TempStore::new("dead");
    let store = tmp.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        let mut flaky = RawPeer::connect(addr, "flaky");
        let (mut lease, jobs) = flaky.lease();
        let poisoned = jobs[0];
        for attempt in 1..=MAX_ATTEMPTS {
            let failures = vec![JobFailure::panic(poisoned, "always crashes".to_string())];
            match flaky.roundtrip(&Msg::Failed { lease, failures }) {
                Msg::Ack { .. } => {}
                other => panic!("expected an ack, got {other:?}"),
            }
            if attempt < MAX_ATTEMPTS {
                // Re-lease the same job (it went back to the queue
                // front) and fail it again, the last time for good.
                let (release, rejobs) = flaky.lease();
                assert_eq!(rejobs, jobs, "the failed job was not re-leased first");
                lease = release;
            }
        }
        run_worker(addr, &quiet("healthy")).expect("healthy worker");
    });
    assert!(!summary.complete(), "a dead job must fail the serve");
    assert_eq!(summary.dead.len(), 1);
    assert_eq!(summary.dead[0].message, "always crashes");
    // The other three jobs all made it into the store.
    assert_eq!(summary.telemetry.executed, 3);
    assert_eq!(store.len(), 3);
}

/// The frame parser runs before the `hello` check, so its recursion
/// depth is the first thing a stranger controls: 10 000 `[` as a
/// connection's first frame used to overflow the handler thread's stack
/// and abort the whole process, buffered results included. Now the peer
/// is dropped as a protocol violation and the sweep completes.
#[test]
fn hostile_nesting_as_first_frame_leaves_the_coordinator_serving() {
    use std::io::{Read, Write};
    let spec = grid();
    let tmp = TempStore::new("hostile-nesting");
    let store = tmp.open();
    let summary = serve_while(&spec, &store, &coord_opts(), |addr| {
        let payload = "[".repeat(10_000);
        let mut hostile = TcpStream::connect(addr).expect("hostile peer connects");
        hostile
            .write_all(&(payload.len() as u32).to_be_bytes())
            .and_then(|()| hostile.write_all(payload.as_bytes()))
            .expect("hostile frame sent");
        // No reply frame: the coordinator closes the connection.
        let mut reply = Vec::new();
        hostile
            .read_to_end(&mut reply)
            .expect("the coordinator hangs up cleanly");
        assert!(reply.is_empty(), "a hostile frame was answered: {reply:?}");
        run_worker(addr, &quiet("healthy")).expect("healthy worker");
    });
    assert!(summary.complete(), "grid incomplete: {summary:?}");
    assert_eq!(summary.telemetry.executed, 4);
    assert_eq!(store.len(), 4);
}

/// `fetch` sets every axis its grid pins, and the coordinator ships only
/// what those filters admit, in the store's canonical order.
#[test]
fn query_ships_only_what_the_grid_filters_admit() {
    let spec = grid();
    let tmp = TempStore::new("query-filters");
    let store = tmp.open();
    run_sweep(
        &spec,
        &store,
        &SweepOptions {
            workers: Some(1),
            verbose: false,
            ..SweepOptions::default()
        },
    )
    .expect("local sweep");
    let opts = CoordOptions {
        linger: true,
        ..coord_opts()
    };
    let wanted = SweepSpec::new(&[Benchmark::Mt], &spec.schemes, Scale::Test);
    let filters = QueryFilters::for_grid(&wanted);
    assert_eq!(filters.bench, Some(Benchmark::Mt));
    assert_eq!(filters.scheme, None);
    let expected: Vec<StoredResult> = store
        .entries()
        .into_iter()
        .filter(|r| r.spec.bench == Benchmark::Mt)
        .collect();
    assert_eq!(expected.len(), 2);
    serve_while(&spec, &store, &opts, |addr| {
        assert_eq!(fetch(addr, &filters).expect("fetch"), expected);
        assert_eq!(
            fetch(addr, &QueryFilters::default()).expect("fetch all"),
            store.entries()
        );
        shutdown(addr).expect("shutdown");
    });
}
