//! Wall-time benchmark of the simulation suite, for the repository's
//! perf trajectory: writes `BENCH_suite.json` (machine-readable) and a
//! human summary to stdout.
//!
//! Two sections feed the trajectory:
//!
//! * the historical Test-scale suite timing, run on the work-stealing
//!   pool *without* store persistence — the same work the pre-harness
//!   `run_suite` timed, so `mcycles_per_second` stays comparable across
//!   PRs and measures the simulator, not the store;
//! * a harness-driven `Scale::Ref` smoke slice run twice against a
//!   scratch store — cold (all simulated) and warm (all cache hits) —
//!   recording per-job wall times and cache-hit counts, i.e. the cost of
//!   a sweep and the cost of resuming one.
//!
//! Run with: `cargo run --release -p valley-bench --bin bench_wall`
//!
//! With `--gate PCT` (CI), the freshly measured Ref-scale smoke slice is
//! compared against the committed `BENCH_suite.json` *before* it is
//! overwritten: if the per-job geomean of cold wall times regressed by
//! more than `PCT` percent, the run fails. Only **measured** per-job
//! walls are fingerprinted that way (see [`valley_harness::WallKind`]);
//! the batched row tracks what lane dedupe saves a whole sweep, so it
//! gates on its median sweep wall instead. Wall-clock
//! gating is noisy by nature, so CI uses a generous threshold (25%)
//! meant to catch real order-of-magnitude regressions, not jitter.

use std::time::Instant;
use valley_compute::{matgen, BvrTable, ComputeBackend, ComputeScratch, CpuBackend};
use valley_core::entropy::{Bvr, EntropyMethod};
use valley_core::SchemeKind;
use valley_harness::{
    execute_job, pool, run_sweep, ResultStore, SweepOptions, SweepSpec, WallKind,
};
use valley_sim::json::{self, Json};
use valley_workloads::{Benchmark, Scale};

/// Reads a section's per-job smoke wall times from the committed
/// snapshot, if present.
fn committed_smoke_walls(section: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string("BENCH_suite.json").ok()?;
    let v = json::parse(&text).ok()?;
    let walls = v.get(section)?.get("job_wall_ms")?;
    match walls {
        Json::Obj(entries) => Some(
            entries
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        ),
        _ => None,
    }
}

/// Reads a section's committed median cold wall, if present.
fn committed_median(section: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_suite.json").ok()?;
    let v = json::parse(&text).ok()?;
    v.get(section)?.get("cold_wall_seconds_median")?.as_f64()
}

/// Geometric mean of new/old per-job wall ratios over the jobs present
/// in both snapshots.
fn smoke_regression_ratio(old: &[(String, f64)], new: &[(String, f64)]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for (name, new_ms) in new {
        let Some((_, old_ms)) = old.iter().find(|(k, _)| k == name) else {
            continue;
        };
        if *old_ms > 0.0 && *new_ms > 0.0 {
            log_sum += (new_ms / old_ms).ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate_pct: Option<f64> = match args.as_slice() {
        [] => None,
        [flag, pct] if flag == "--gate" => {
            Some(pct.parse().expect("--gate takes a percentage, e.g. 25"))
        }
        other => panic!("unknown arguments {other:?} (usage: bench_wall [--gate PCT])"),
    };
    let committed = gate_pct.and_then(|_| committed_smoke_walls("harness_smoke"));
    let committed_batched = gate_pct.and_then(|_| committed_median("harness_smoke_batched"));
    let committed_kbim = gate_pct.and_then(|_| committed_median("kernel_bim_bitsliced"));
    let committed_ksweep = gate_pct.and_then(|_| committed_median("kernel_entropy_sweep"));
    let scratch = std::env::temp_dir().join(format!("valley-bench-wall-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    // A representative slice of the full sweep: a valley benchmark (MT),
    // a streaming one (SP) and a random one (MUM), under the baseline and
    // the paper's headline scheme.
    let benches = [Benchmark::Mt, Benchmark::Sp, Benchmark::Mum];
    let schemes = [SchemeKind::Base, SchemeKind::Pae];

    // Historical trajectory: pool-parallel simulation only, no store.
    let test_jobs = SweepSpec::new(&benches, &schemes, Scale::Test).expand();
    let start = Instant::now();
    let reports = pool::run_jobs(
        test_jobs.len(),
        pool::default_workers(test_jobs.len()),
        |i| execute_job(&test_jobs[i]),
        |_| {},
    );
    let wall = start.elapsed();
    let reports: Vec<_> = reports
        .into_iter()
        .map(|r| r.expect("test-scale suite job panicked"))
        .collect();

    let jobs = reports.len();
    let total_cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let sim_mcps = total_cycles as f64 / 1e6 / wall.as_secs_f64();
    println!(
        "bench_wall: {jobs} jobs, {total_cycles} simulated cycles in {wall:.2?} \
         ({sim_mcps:.2} Mcycles/s)"
    );

    // Harness smoke slice at Ref scale: cold sweep, then resumed sweep.
    let store = ResultStore::open(&scratch).expect("scratch store opens");
    let spec = SweepSpec::new(&benches, &schemes, Scale::Ref);
    // `batch: 1` pins the per-job sequential path even when the caller's
    // environment sets VALLEY_SIM_BATCH (the option, when non-zero, wins
    // over the knob).
    let quiet = SweepOptions {
        workers: None,
        verbose: false,
        force: false,
        batch: 1,
    };
    let cold = run_sweep(&spec, &store, &quiet).expect("cold smoke sweep");
    let warm = run_sweep(&spec, &store, &quiet).expect("warm smoke sweep");
    println!(
        "harness smoke (ref scale, {} jobs): cold {:.2?} ({} executed), \
         warm {:.2?} ({} cache hits)",
        cold.jobs.len(),
        cold.wall,
        cold.executed,
        warm.wall,
        warm.cache_hits,
    );

    // Batched smoke row: the Ref slice widened to a same-config
    // multi-seed group (seeds 1–3 — the paper's best-of-3 shape), cold.
    // `--batch 9` makes each scheme's nine jobs (3 benches × 3 seeds)
    // one batch: the BASE group's seeds collapse to one simulation per
    // bench (deterministic schemes never read the seed — see
    // `execute_batch`), the PAE group runs all nine lanes. The wall
    // times track what that lane dedupe buys on ONE worker, where it is
    // the only lever, not pool parallelism. Sequential and batched runs
    // interleave and the medians are compared, so drift in machine load
    // hits both measurements evenly.
    const BATCH_ROUNDS: usize = 3;
    const BATCH_WIDTH: usize = 9;
    let seeds_spec = spec.clone().with_seeds(&[1, 2, 3]);
    let one_seq = SweepOptions {
        workers: Some(1),
        verbose: false,
        force: true,
        batch: 1,
    };
    let one_bat = SweepOptions {
        workers: Some(1),
        verbose: false,
        force: true,
        batch: BATCH_WIDTH,
    };
    let bat_scratch =
        std::env::temp_dir().join(format!("valley-bench-wall-bat-{}", std::process::id()));
    std::fs::remove_dir_all(&bat_scratch).ok();
    let bat_store = ResultStore::open(&bat_scratch).expect("batched scratch store opens");
    let seq1_scratch =
        std::env::temp_dir().join(format!("valley-bench-wall-seq1-{}", std::process::id()));
    std::fs::remove_dir_all(&seq1_scratch).ok();
    let seq1_store = ResultStore::open(&seq1_scratch).expect("1-worker scratch store opens");
    let mut seq_walls = Vec::new();
    let mut bat_walls = Vec::new();
    let mut seq_cold = None;
    let mut bat_cold = None;
    for _ in 0..BATCH_ROUNDS {
        let s = run_sweep(&seeds_spec, &seq1_store, &one_seq).expect("1-worker sequential sweep");
        seq_walls.push(s.wall.as_secs_f64());
        seq_cold = Some(s);
        let b = run_sweep(&seeds_spec, &bat_store, &one_bat).expect("batched smoke sweep");
        bat_walls.push(b.wall.as_secs_f64());
        bat_cold = Some(b);
    }
    let seq_cold = seq_cold.expect("at least one sequential round ran");
    let bat_cold = bat_cold.expect("at least one batched round ran");
    std::fs::remove_dir_all(&bat_scratch).ok();
    std::fs::remove_dir_all(&seq1_scratch).ok();
    for (seq, bat) in seq_cold.jobs.iter().zip(&bat_cold.jobs) {
        assert_eq!(
            seq.report, bat.report,
            "batched sweep diverged on {} — bit-identity broken",
            seq.spec
        );
    }
    // Wall attribution sanity: every sequential job carries a measured
    // wall, and a batched lane is either measured (it ran) or cloned.
    assert!(
        seq_cold.jobs.iter().all(|j| j.wall.is_measured()),
        "a sequential job's wall is not flagged as measured"
    );
    let cloned_lanes = bat_cold
        .jobs
        .iter()
        .filter(|j| j.wall == WallKind::Cloned)
        .count();
    let measured_lanes = bat_cold
        .jobs
        .iter()
        .filter(|j| j.wall.is_measured())
        .count();
    assert_eq!(
        measured_lanes + cloned_lanes,
        bat_cold.jobs.len(),
        "a batched lane is neither measured nor cloned — attribution broken"
    );
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        xs[xs.len() / 2]
    };
    let seq_median = median(&mut seq_walls);
    let bat_median = median(&mut bat_walls);
    let batch_speedup = seq_median / bat_median;
    println!(
        "harness smoke batched (seeds 1-3, --batch {BATCH_WIDTH}, 1 worker, median of \
         {BATCH_ROUNDS}): cold {:.0} ms vs sequential {:.0} ms — {batch_speedup:.2}x \
         ({measured_lanes} measured + {cloned_lanes} cloned lane walls)",
        bat_median * 1e3,
        seq_median * 1e3,
    );

    // Compute-plane kernel rows: the bit-sliced BIM batch kernel against
    // the scalar per-address loop on a dense full-rank 30-bit matrix
    // (the mapping schemes are identity-heavy and ride the sparse fast
    // path, where both backends run the same code). Scalar and
    // bit-sliced reps interleave round by round and the medians are
    // compared, so machine-load drift hits both measurements evenly —
    // the same discipline as the batched row above.
    const KERNEL_ROUNDS: usize = 5;
    const KERNEL_REPS: usize = 64;
    let kernel_bim = matgen::dense_invertible(30, 1);
    let kernel_addrs: Vec<u64> = {
        let mut a = 0x1234_5678u64;
        (0..4096)
            .map(|_| {
                a = (a.wrapping_mul(0x9e37_79b9) ^ a) & 0x3fff_ffff;
                a
            })
            .collect()
    };
    let scalar_be = CpuBackend::with_sparse_cutoff(usize::MAX);
    let sliced_be = CpuBackend::with_sparse_cutoff(0);
    let mut kscratch = ComputeScratch::new();
    let mut kout = Vec::new();
    let mut kernel_scalar_walls = Vec::new();
    let mut kernel_sliced_walls = Vec::new();
    for _ in 0..KERNEL_ROUNDS {
        let t = Instant::now();
        for _ in 0..KERNEL_REPS {
            scalar_be.bim_apply_batch(&kernel_bim, &kernel_addrs, &mut kout, &mut kscratch);
        }
        kernel_scalar_walls.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..KERNEL_REPS {
            sliced_be.bim_apply_batch(&kernel_bim, &kernel_addrs, &mut kout, &mut kscratch);
        }
        kernel_sliced_walls.push(t.elapsed().as_secs_f64());
    }
    let kernel_scalar_median = median(&mut kernel_scalar_walls);
    let kernel_sliced_median = median(&mut kernel_sliced_walls);
    let kernel_speedup = kernel_scalar_median / kernel_sliced_median;
    println!(
        "kernel bim bitsliced (dense30, {} addrs x {KERNEL_REPS} reps, median of \
         {KERNEL_ROUNDS}): {:.2} ms vs scalar {:.2} ms — {kernel_speedup:.2}x",
        kernel_addrs.len(),
        kernel_sliced_median * 1e3,
        kernel_scalar_median * 1e3,
    );
    assert!(
        kernel_speedup >= 4.0,
        "bit-sliced bim_apply_batch is only {kernel_speedup:.2}x the scalar loop on a dense \
         full-rank matrix (acceptance floor is 4x)"
    );

    // The all-bits window-entropy sweep over a fig05-shaped table
    // (30 address bits x 1024 TBs, the paper's window of 12).
    const SWEEP_REPS: usize = 16;
    let sweep_rows: Vec<Vec<Bvr>> = (0..30)
        .map(|bit| (0..1024u64).map(|i| Bvr::new((i + bit) % 13, 16)).collect())
        .collect();
    let sweep_table = BvrTable::from_bit_rows(&sweep_rows, 1024);
    let mut sweep_out = Vec::new();
    let mut sweep_walls = Vec::new();
    for _ in 0..KERNEL_ROUNDS {
        let t = Instant::now();
        for _ in 0..SWEEP_REPS {
            sliced_be.window_entropy_sweep(
                &sweep_table,
                12,
                EntropyMethod::MixtureBvr,
                &mut sweep_out,
                &mut kscratch,
            );
        }
        sweep_walls.push(t.elapsed().as_secs_f64());
    }
    let sweep_median = median(&mut sweep_walls);
    println!(
        "kernel entropy sweep (30 bits x 1024 TBs, w=12 mixture x {SWEEP_REPS} reps, median \
         of {KERNEL_ROUNDS}): {:.2} ms",
        sweep_median * 1e3,
    );

    let cycles_per_job = test_jobs
        .iter()
        .zip(&reports)
        .map(|(j, r)| (format!("{}/{}", j.bench, j.scheme), Json::UInt(r.cycles)))
        .collect();
    let smoke_walls = cold
        .jobs
        .iter()
        .map(|j| {
            (
                format!("{}/{}", j.spec.bench, j.spec.scheme),
                Json::Num((j.wall_ms * 1e3).round() / 1e3),
            )
        })
        .collect();
    let snapshot = Json::Obj(vec![
        (
            "suite".into(),
            Json::Str("mt+sp+mum x base+pae @ test scale".into()),
        ),
        ("jobs".into(), Json::UInt(jobs as u64)),
        ("wall_seconds".into(), Json::Num(wall.as_secs_f64())),
        ("simulated_cycles".into(), Json::UInt(total_cycles)),
        (
            "mcycles_per_second".into(),
            Json::Num((sim_mcps * 1e3).round() / 1e3),
        ),
        ("cycles_per_job".into(), Json::Obj(cycles_per_job)),
        (
            "harness_smoke".into(),
            Json::Obj(vec![
                (
                    "slice".into(),
                    Json::Str("mt+sp+mum x base+pae @ ref scale".into()),
                ),
                ("jobs".into(), Json::UInt(cold.jobs.len() as u64)),
                (
                    "cold_wall_seconds".into(),
                    Json::Num(cold.wall.as_secs_f64()),
                ),
                ("cold_cache_hits".into(), Json::UInt(cold.cache_hits as u64)),
                (
                    "warm_wall_seconds".into(),
                    Json::Num(warm.wall.as_secs_f64()),
                ),
                ("warm_cache_hits".into(), Json::UInt(warm.cache_hits as u64)),
                ("job_wall_ms".into(), Json::Obj(smoke_walls)),
            ]),
        ),
        (
            "harness_smoke_batched".into(),
            Json::Obj(vec![
                (
                    "slice".into(),
                    Json::Str(
                        "mt+sp+mum x base+pae x seeds 1-3 @ ref scale, --batch 9, 1 worker".into(),
                    ),
                ),
                ("batch".into(), Json::UInt(BATCH_WIDTH as u64)),
                ("jobs".into(), Json::UInt(bat_cold.jobs.len() as u64)),
                ("rounds".into(), Json::UInt(BATCH_ROUNDS as u64)),
                (
                    "cold_wall_seconds_median".into(),
                    Json::Num((bat_median * 1e6).round() / 1e6),
                ),
                (
                    "sequential_wall_seconds_median".into(),
                    Json::Num((seq_median * 1e6).round() / 1e6),
                ),
                (
                    "speedup_vs_sequential".into(),
                    Json::Num((batch_speedup * 1e3).round() / 1e3),
                ),
                ("measured_lanes".into(), Json::UInt(measured_lanes as u64)),
                ("cloned_lanes".into(), Json::UInt(cloned_lanes as u64)),
            ]),
        ),
        (
            "kernel_bim_bitsliced".into(),
            Json::Obj(vec![
                (
                    "case".into(),
                    Json::Str(format!(
                        "dense30 full-rank, {} addrs x {KERNEL_REPS} reps, interleaved",
                        kernel_addrs.len()
                    )),
                ),
                ("rounds".into(), Json::UInt(KERNEL_ROUNDS as u64)),
                (
                    "cold_wall_seconds_median".into(),
                    Json::Num((kernel_sliced_median * 1e6).round() / 1e6),
                ),
                (
                    "scalar_wall_seconds_median".into(),
                    Json::Num((kernel_scalar_median * 1e6).round() / 1e6),
                ),
                (
                    "speedup_vs_scalar".into(),
                    Json::Num((kernel_speedup * 1e3).round() / 1e3),
                ),
            ]),
        ),
        (
            "kernel_entropy_sweep".into(),
            Json::Obj(vec![
                (
                    "case".into(),
                    Json::Str(format!(
                        "30 bits x 1024 TBs, w=12 mixture x {SWEEP_REPS} reps"
                    )),
                ),
                ("rounds".into(), Json::UInt(KERNEL_ROUNDS as u64)),
                (
                    "cold_wall_seconds_median".into(),
                    Json::Num((sweep_median * 1e6).round() / 1e6),
                ),
            ]),
        ),
    ]);
    let mut json = snapshot.to_json_string();
    json.push('\n');
    std::fs::write("BENCH_suite.json", &json).expect("writing BENCH_suite.json");
    println!("wrote BENCH_suite.json");

    std::fs::remove_dir_all(&scratch).ok();

    if let Some(pct) = gate_pct {
        let fresh: Vec<(String, f64)> = cold
            .jobs
            .iter()
            .map(|j| (format!("{}/{}", j.spec.bench, j.spec.scheme), j.wall_ms))
            .collect();
        match committed
            .as_deref()
            .and_then(|c| smoke_regression_ratio(c, &fresh))
        {
            Some(ratio) => {
                println!(
                    "smoke gate: per-job cold wall geomean is {ratio:.3}x the committed \
                     BENCH_suite.json (threshold {:.3}x)",
                    1.0 + pct / 100.0
                );
                assert!(
                    ratio <= 1.0 + pct / 100.0,
                    "Ref-scale smoke slice regressed {:.1}% (> {pct}%) vs committed BENCH_suite.json",
                    (ratio - 1.0) * 100.0
                );
            }
            None => println!(
                "smoke gate: no comparable committed BENCH_suite.json — gate skipped \
                 (first run on this branch?)"
            ),
        }
        // The batched row gates on its median sweep wall: what it
        // tracks is the whole sweep's cost after lane dedupe, and a
        // third of its lanes are zero-cost clones.
        let gate_median = |label: &str, committed: Option<f64>, fresh: f64| match committed {
            Some(old) if old > 0.0 => {
                let ratio = fresh / old;
                println!(
                    "{label} smoke gate: median cold wall is {ratio:.3}x the committed \
                     BENCH_suite.json (threshold {:.3}x)",
                    1.0 + pct / 100.0
                );
                assert!(
                    ratio <= 1.0 + pct / 100.0,
                    "{label} Ref-scale smoke slice regressed {:.1}% (> {pct}%) vs committed \
                     BENCH_suite.json",
                    (ratio - 1.0) * 100.0
                );
            }
            _ => println!(
                "{label} smoke gate: no comparable committed BENCH_suite.json — gate skipped \
                 (first {label} run on this branch?)"
            ),
        };
        gate_median("batched", committed_batched, bat_median);
        gate_median("kernel-bim", committed_kbim, kernel_sliced_median);
        gate_median("kernel-sweep", committed_ksweep, sweep_median);
    }
}
