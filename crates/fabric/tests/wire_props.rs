//! Property tests for the fabric wire format: every protocol message —
//! and in particular the [`JobSpec`] and [`StoredResult`] payloads that
//! carry the science — must survive encode → frame → decode
//! bit-identically. A fleet whose frames drift even one bit would store
//! results under the wrong keys, so these properties are the fabric's
//! foundation.

use proptest::prelude::*;
use valley_cache::CacheStats;
use valley_core::SchemeKind;
use valley_dram::DramStats;
use valley_fabric::proto::{Msg, QueryFilters, Role, Telemetry, WorkerStat, PROTOCOL_VERSION};
use valley_fabric::wire::{read_frame, write_frame, WireError};
use valley_fabric::{FailureNote, WorkerOptions};
use valley_harness::{
    ConfigId, FailureKind, JobFailure, JobSpec, StoredResult, SweepSpec, WallKind,
};

const WALL_KINDS: [WallKind; 2] = [WallKind::Measured, WallKind::Cloned];
use valley_sim::json::Json;
use valley_sim::record::Codec;
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

const SCALES: [Scale; 3] = [Scale::Test, Scale::Small, Scale::Ref];

fn job(bench: usize, scheme: usize, seed: u64, scale: usize, config: usize) -> JobSpec {
    JobSpec {
        bench: Benchmark::ALL[bench % Benchmark::ALL.len()],
        scheme: SchemeKind::ALL_SCHEMES[scheme % SchemeKind::ALL_SCHEMES.len()],
        seed,
        scale: SCALES[scale % SCALES.len()],
        config: ConfigId::ALL[config % ConfigId::ALL.len()],
    }
}

/// A synthetic report exercising the full field vocabulary, including
/// `u64` counters beyond f64's exact integer range.
fn report(cycles: u64, big: u64, frac: f64, spec: &JobSpec) -> SimReport {
    SimReport {
        benchmark: spec.bench.label().to_string(),
        scheme: spec.scheme.label().to_string(),
        cycles,
        truncated: cycles.is_multiple_of(2),
        warp_instructions: big,
        thread_instructions: big.wrapping_mul(32),
        memory_transactions: cycles / 2,
        l1: CacheStats {
            hits: big / 3,
            misses: cycles,
            evictions: 7,
        },
        llc: CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
        },
        noc_latency: frac * 100.0,
        llc_parallelism: frac * 8.0,
        channel_parallelism: frac * 4.0,
        bank_parallelism: frac * 16.0,
        dram: DramStats {
            activates: big,
            reads: cycles,
            writes: cycles / 3,
            row_hits: 5,
            row_empties: 6,
            row_conflicts: 7,
        },
        kernels: (cycles % 97) as usize,
        dram_cycles: big,
        dram_channels: 4,
        dram_clock_ghz: 0.924,
        num_sms: 12,
        sm_busy_fraction: frac,
    }
}

/// Encode → frame-write → frame-read → decode; returns the decoded
/// value and asserts the reread frame is byte-identical to the sent one.
fn frame_round_trip(v: &Json) -> Json {
    let mut buf = Vec::new();
    write_frame(&mut buf, v).expect("write_frame to memory");
    let back = read_frame(&mut buf.as_slice()).expect("read_frame from memory");
    let mut rebuf = Vec::new();
    write_frame(&mut rebuf, &back).expect("re-encode");
    assert_eq!(buf, rebuf, "frame bytes drifted across a round trip");
    back
}

/// `T`'s declared shape survives encode → frame → decode: the value
/// compares equal and re-encodes to the same bytes (which also covers
/// what equality leaves out — the exact bits of an `f64`).
fn round_trips<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
    let sent = value.encode();
    let back = T::decode(&frame_round_trip(&sent)).expect("decodes");
    assert_eq!(&back, value);
    assert_eq!(back.encode().to_json_string(), sent.to_json_string());
}

/// The [`Msg`] of each variant index, filled from the given numbers.
fn message(variant: usize, n: u64, m: u64, bench: usize, frac: f64) -> Msg {
    let spec = job(bench, bench / 2, n, bench, bench / 3);
    match variant {
        0 => Msg::Hello {
            version: PROTOCOL_VERSION,
            role: if n.is_multiple_of(2) {
                Role::Worker
            } else {
                Role::Client
            },
            name: format!("peer-{m} \"quoted\"\n😀"),
        },
        1 => Msg::Request,
        2 => Msg::Lease {
            lease: n,
            deadline_ms: m,
            jobs: vec![spec, job(bench + 1, bench / 2, n ^ 1, bench, bench / 3)],
        },
        3 => Msg::Wait { retry_ms: m },
        4 => Msg::Drained,
        5 => Msg::Done {
            lease: n,
            results: vec![StoredResult {
                spec,
                report: report(n, (1 << 53) | n, frac, &spec),
                wall_ms: frac * 1e4,
                wall: WALL_KINDS[(n % 2) as usize],
            }],
        },
        6 => Msg::Failed {
            lease: n,
            failures: vec![JobFailure {
                spec,
                kind: if n.is_multiple_of(2) {
                    FailureKind::Panic
                } else {
                    FailureKind::StoreWrite
                },
                message: format!("lane {m} panicked:\n\t\"{frac}\""),
            }],
        },
        7 => Msg::Ack {
            stored: n,
            duplicates: m,
        },
        8 => Msg::Query {
            filters: QueryFilters {
                bench: n.is_multiple_of(2).then_some(spec.bench),
                scheme: n.is_multiple_of(3).then_some(spec.scheme),
                scale: n.is_multiple_of(5).then_some(spec.scale),
                seed: n.is_multiple_of(7).then_some(m),
                config: n.is_multiple_of(11).then_some(spec.config),
            },
        },
        9 => Msg::Results {
            records: vec![StoredResult {
                spec,
                report: report(m, (1 << 54) | m, frac, &spec),
                wall_ms: frac,
                wall: WALL_KINDS[(m % 2) as usize],
            }],
        },
        10 => Msg::Status,
        11 => Msg::Telemetry {
            telemetry: Telemetry {
                jobs_total: n,
                cache_hits: m,
                executed: n / 2,
                active_leases: n % 17,
                releases: m / 3,
                duplicates: m % 5,
                workers: vec![WorkerStat {
                    name: format!("w{m}"),
                    completed: n / 3,
                    failed: m / 7,
                }],
                failures: vec![FailureNote {
                    job: spec.label(),
                    kind: FailureKind::Panic,
                    message: "index out of bounds".into(),
                }],
            },
        },
        _ => Msg::Shutdown,
    }
}

/// The generator above reaches every row of the `Msg` table, in table
/// order: a variant added to the table without a case here fails this
/// test instead of going unexercised.
#[test]
fn generator_covers_every_msg_tag() {
    let produced: Vec<String> = (0..Msg::TAGS.len())
        .map(|variant| {
            let encoded = message(variant, 7, 3, 1, 0.5).to_json();
            encoded.get("t").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(produced, Msg::TAGS);
}

proptest! {
    /// Every declared record survives encode → frame → decode exactly:
    /// job specs for every bench × scheme × scale × config and arbitrary
    /// 64-bit seeds, stored results with counters above 2^53, the exact
    /// f64 bits of `wall_ms` and every `wall` kind, and the shapes that
    /// only ever travel inside a message.
    #[test]
    fn every_declared_record_round_trips(
        bench in 0usize..64,
        cycles in 0u64..=u64::MAX,
        big in (1u64 << 53)..=u64::MAX,
        frac in 0.0f64..=1.0,
        wall_ms in 0.0f64..1e9,
        wall_kind in 0usize..2,
    ) {
        let spec = job(bench, bench / 7, cycles, bench / 3, bench / 5);
        let stored = StoredResult {
            spec,
            report: report(cycles, big, frac, &spec),
            wall_ms,
            wall: WALL_KINDS[wall_kind],
        };
        round_trips(&spec);
        round_trips(&stored);
        round_trips(&stored.report);
        round_trips(&stored.report.l1);
        round_trips(&stored.report.dram);
        round_trips(&JobFailure::store_write(spec, format!("disk {big}:\n\t\"{frac}\"")));
        for variant in [8, 11] {
            match message(variant, cycles, big >> 11, bench, frac) {
                Msg::Query { filters } => round_trips(&filters),
                Msg::Telemetry { telemetry } => {
                    round_trips(&telemetry.workers[0]);
                    round_trips(&telemetry.failures[0]);
                    round_trips(&telemetry);
                }
                other => panic!("variant {variant} is {other:?}"),
            }
        }
    }

    /// The single-record property at the size a `fetch` moves: a
    /// 288-record `Results` frame (≈ 300 KB, where decode used to be
    /// quadratic) decodes to the records that were encoded.
    #[test]
    fn results_frame_of_a_whole_store_round_trips(
        cycles in 0u64..=u64::MAX,
        big in (1u64 << 53)..=u64::MAX,
        frac in 0.0f64..=1.0,
    ) {
        let records: Vec<StoredResult> = (0..288u64)
            .map(|i| {
                let n = i as usize;
                let spec = job(n, n / 16, cycles ^ i, n / 96, n / 7);
                StoredResult {
                    spec,
                    report: report(cycles.wrapping_add(i), big - i, frac, &spec),
                    wall_ms: frac * i as f64,
                    wall: WALL_KINDS[n % 2],
                }
            })
            .collect();
        let msg = Msg::Results { records };
        let back = Msg::from_json(&frame_round_trip(&msg.to_json())).unwrap();
        prop_assert!(back == msg, "a 288-record frame drifted (cycles {cycles}, big {big}, frac {frac})");
    }

    /// `QueryFilters::for_grid` pins exactly the axes on which the grid
    /// has one value, so it admits every job of the grid.
    #[test]
    fn grid_filters_pin_single_valued_axes(
        benches in collection::vec(0usize..64, 1..4),
        schemes in collection::vec(0usize..64, 1..4),
        seeds in collection::vec(0u64..3, 1..4),
        configs in collection::vec(0usize..8, 1..3),
        scale in 0usize..3,
    ) {
        let grid = SweepSpec {
            benches: benches.iter().map(|&b| job(b, 0, 0, 0, 0).bench).collect(),
            schemes: schemes.iter().map(|&s| job(0, s, 0, 0, 0).scheme).collect(),
            seeds,
            scale: SCALES[scale],
            configs: configs.iter().map(|&c| ConfigId::ALL[c % ConfigId::ALL.len()]).collect(),
        };
        let filters = QueryFilters::for_grid(&grid);
        let jobs = grid.expand();
        let distinct = |axis: &dyn Fn(&JobSpec) -> String| {
            jobs.iter().map(axis).collect::<std::collections::BTreeSet<_>>().len()
        };
        prop_assert_eq!(filters.scale, Some(grid.scale));
        prop_assert_eq!(filters.bench.is_some(), distinct(&|j| j.bench.label().into()) == 1);
        prop_assert_eq!(filters.scheme.is_some(), distinct(&|j| j.scheme.label().into()) == 1);
        prop_assert_eq!(filters.seed.is_some(), distinct(&|j| j.seed.to_string()) == 1);
        prop_assert_eq!(filters.config.is_some(), distinct(&|j| j.config.name().into()) == 1);
        for spec in jobs {
            let r = StoredResult {
                spec,
                report: report(1, 1 << 53, 0.5, &spec),
                wall_ms: 0.0,
                wall: WallKind::Measured,
            };
            prop_assert!(filters.matches(&r), "{filters:?} rejects {spec} of its own grid");
        }
    }

    /// Every protocol message round-trips exactly through its frame.
    #[test]
    fn msg_round_trip(
        variant in 0usize..Msg::TAGS.len(),
        n in 0u64..=u64::MAX,
        m in 0u64..1_000_000,
        bench in 0usize..64,
        frac in 0.0f64..=1.0,
    ) {
        round_trips(&message(variant, n, m, bench, frac));
    }
}

/// A peer speaking a different protocol version is detectable before
/// any payload parsing: the version survives the frame exactly.
#[test]
fn hello_version_is_exact() {
    for version in [0, 1, 2, u32::MAX] {
        let msg = Msg::Hello {
            version,
            role: Role::Worker,
            name: WorkerOptions::default().name,
        };
        let Msg::Hello { version: back, .. } =
            Msg::from_json(&frame_round_trip(&msg.to_json())).unwrap()
        else {
            panic!("hello decoded as a different variant");
        };
        assert_eq!(back, version);
    }
}

/// Frames larger than the protocol cap are refused on read — a
/// corrupted length prefix cannot make the coordinator allocate
/// gigabytes.
#[test]
fn oversized_frame_is_refused() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&u32::MAX.to_be_bytes());
    buf.extend_from_slice(b"junk");
    match read_frame(&mut buf.as_slice()) {
        Err(WireError::Protocol(msg)) => assert!(msg.contains("frame"), "{msg}"),
        other => panic!("oversized frame accepted: {other:?}"),
    }
}

/// A frame truncated mid-payload fails as an I/O error (the peer died),
/// never as a misparse.
#[test]
fn truncated_frame_fails_loudly() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Msg::Status.to_json()).unwrap();
    buf.truncate(buf.len() - 1);
    assert!(matches!(
        read_frame(&mut buf.as_slice()),
        Err(WireError::Io(_))
    ));
}
