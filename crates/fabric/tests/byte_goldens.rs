//! Byte-level pins for everything that crosses a process or filesystem
//! boundary: the store line, `SimReport::{to_json, results_json}`, and
//! one frame payload per [`Msg`] variant, all for one fixed
//! [`StoredResult`]. The fixture (`fixtures/byte_goldens.txt`, one
//! `name payload` pair per line) was generated by the hand-written
//! encoders this workspace had before the record tables replaced them;
//! encode must reproduce it byte for byte and decode must give back the
//! value, so "round-trips" can never hide "changed the bytes".

use valley_cache::CacheStats;
use valley_core::SchemeKind;
use valley_dram::DramStats;
use valley_fabric::proto::{Msg, QueryFilters, Role, Telemetry, WorkerStat, PROTOCOL_VERSION};
use valley_fabric::wire::{read_frame, write_frame};
use valley_fabric::FailureNote;
use valley_harness::{
    ConfigId, FailureKind, JobFailure, JobSpec, ResultStore, StoredResult, WallKind, STORE_FILE,
};
use valley_sim::json;
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

const FIXTURE: &str = include_str!("fixtures/byte_goldens.txt");

fn golden(name: &str) -> &'static str {
    FIXTURE
        .lines()
        .find_map(|l| l.split_once(' ').filter(|(n, _)| *n == name))
        .unwrap_or_else(|| panic!("fixture has no line '{name}'"))
        .1
}

fn spec() -> JobSpec {
    JobSpec {
        bench: Benchmark::Mt,
        scheme: SchemeKind::Pae,
        seed: 3,
        scale: Scale::Ref,
        config: ConfigId::Sms24,
    }
}

fn stored() -> StoredResult {
    StoredResult {
        spec: spec(),
        report: SimReport {
            benchmark: "MT".into(),
            scheme: "PAE".into(),
            cycles: 41_137,
            truncated: false,
            warp_instructions: u64::MAX,
            thread_instructions: (1 << 53) + 1,
            memory_transactions: 135_168,
            l1: CacheStats {
                hits: 1_024,
                misses: 134_144,
                evictions: 133_120,
            },
            llc: CacheStats {
                hits: 7,
                misses: 135_161,
                evictions: 0,
            },
            noc_latency: 61.370_468_75,
            llc_parallelism: 6.25,
            channel_parallelism: 3.999_999_999_999_999_6,
            bank_parallelism: 1e-7,
            dram: DramStats {
                activates: 9_001,
                reads: 135_161,
                writes: 65_536,
                row_hits: 191_696,
                row_empties: 11,
                row_conflicts: 8_990,
            },
            kernels: 2,
            dram_cycles: 27_150,
            dram_channels: 6,
            dram_clock_ghz: 0.924,
            num_sms: 24,
            sm_busy_fraction: 0.987_654_321,
        },
        wall_ms: 139.437_5,
        wall: WallKind::Measured,
    }
}

/// One of every [`Msg`] variant, in declaration order, with its fixture
/// name.
fn messages() -> Vec<(&'static str, Msg)> {
    let other = JobSpec {
        bench: Benchmark::Sp,
        scheme: SchemeKind::Base,
        seed: u64::MAX,
        scale: Scale::Test,
        config: ConfigId::Stacked,
    };
    vec![
        (
            "msg.hello",
            Msg::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Worker,
                name: "w-1 \"quoted\"\n😀".into(),
            },
        ),
        ("msg.request", Msg::Request),
        (
            "msg.lease",
            Msg::Lease {
                lease: 7,
                deadline_ms: 60_000,
                jobs: vec![spec(), other],
            },
        ),
        ("msg.wait", Msg::Wait { retry_ms: 250 }),
        ("msg.drained", Msg::Drained),
        (
            "msg.done",
            Msg::Done {
                lease: 7,
                results: vec![stored()],
            },
        ),
        (
            "msg.failed",
            Msg::Failed {
                lease: u64::MAX,
                failures: vec![JobFailure {
                    spec: other,
                    kind: FailureKind::StoreWrite,
                    message: "disk full:\n\t\"ENOSPC\"".into(),
                }],
            },
        ),
        (
            "msg.ack",
            Msg::Ack {
                stored: 1,
                duplicates: 0,
            },
        ),
        (
            "msg.query",
            Msg::Query {
                filters: QueryFilters {
                    bench: Some(Benchmark::Mt),
                    scheme: None,
                    scale: Some(Scale::Ref),
                    seed: Some(3),
                    config: None,
                },
            },
        ),
        (
            "msg.results",
            Msg::Results {
                records: vec![
                    stored(),
                    StoredResult {
                        spec: other,
                        wall_ms: 0.0,
                        wall: WallKind::Cloned,
                        ..stored()
                    },
                ],
            },
        ),
        ("msg.status", Msg::Status),
        (
            "msg.telemetry",
            Msg::Telemetry {
                telemetry: Telemetry {
                    jobs_total: 96,
                    cache_hits: 12,
                    executed: 80,
                    active_leases: 2,
                    releases: 1,
                    duplicates: 3,
                    workers: vec![
                        WorkerStat {
                            name: "w-1".into(),
                            completed: 50,
                            failed: 1,
                        },
                        WorkerStat {
                            name: "w-2".into(),
                            completed: 30,
                            failed: 0,
                        },
                    ],
                    failures: vec![FailureNote {
                        job: other.label(),
                        kind: FailureKind::Panic,
                        message: "index out of bounds".into(),
                    }],
                },
            },
        ),
        ("msg.shutdown", Msg::Shutdown),
    ]
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("valley-byte-goldens-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Equality, down to the bits of the wall.
fn assert_same(got: &StoredResult, want: &StoredResult) {
    assert_eq!(got, want);
    assert_eq!(got.wall_ms.to_bits(), want.wall_ms.to_bits());
}

#[test]
fn store_line_bytes_are_pinned() {
    let want = stored();
    let written = TempDir::new("put");
    ResultStore::open(&written.0)
        .unwrap()
        .put(&want.spec, &want.report, want.wall_ms, want.wall)
        .unwrap();
    let line = std::fs::read_to_string(written.0.join(STORE_FILE)).unwrap();
    assert_eq!(line, format!("{}\n", golden("store.line")));

    let read = TempDir::new("open");
    std::fs::create_dir_all(&read.0).unwrap();
    std::fs::write(
        read.0.join(STORE_FILE),
        format!("{}\n", golden("store.line")),
    )
    .unwrap();
    let got = ResultStore::open(&read.0).unwrap().get(&want.spec).unwrap();
    assert_same(&got, &want);
}

#[test]
fn report_bytes_are_pinned() {
    let report = stored().report;
    assert_eq!(report.to_json(), golden("report.to_json"));
    assert_eq!(report.results_json(), golden("report.results_json"));
    assert_eq!(
        report.to_json_value().to_json_string(),
        golden("report.to_json")
    );
    let back = SimReport::from_json(golden("report.to_json")).unwrap();
    assert_eq!(back, report);
}

#[test]
fn every_msg_variant_frames_to_its_pinned_payload() {
    let messages = messages();
    assert_eq!(messages.len(), 13, "one fixture line per Msg variant");
    for (name, msg) in messages {
        let payload = golden(name);
        assert_eq!(msg.to_json().to_json_string(), payload, "{name} encode");
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg.to_json()).unwrap();
        assert_eq!(frame[..4], (payload.len() as u32).to_be_bytes(), "{name}");
        assert_eq!(&frame[4..], payload.as_bytes(), "{name} frame");

        let back = Msg::from_json(&read_frame(&mut frame.as_slice()).unwrap()).unwrap();
        assert_eq!(back, msg, "{name} decode");
        let parsed = Msg::from_json(&json::parse(payload).unwrap()).unwrap();
        assert_eq!(parsed.to_json().to_json_string(), payload, "{name}");
    }
}
