//! The traced run: per-layer numbers for one workload.
//!
//! It re-does the workload's jobs in-process — what `valley sweep` does
//! per job, through library calls, each wrapped in a benchmark-owned
//! span — alternating with the same sweep through the CLI (the
//! difference is `trace.overhead_pct`), takes the CLI phase walls from
//! `io_plane` rounds, and runs the replay probes of [`crate::layers`]
//! on the address streams of the workload's own benchmarks. Spans stay
//! in memory until the end and go to `out/trace_<workload>.json`.

use crate::layers;
use crate::proc;
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{Ctx, Kind, Workload};
use crate::{metric, Metric, Outcome, Row};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use valley_core::{AddressMapper, GddrMap};
use valley_harness::{execute_batch_timed, ConfigId, JobSpec, ResultStore, WallKind};
use valley_sim::json::Json;
use valley_sim::{GpuSim, SimReport};

/// `io_plane` rounds taken for the phase walls.
const IO_ROUNDS: usize = 3;
/// `valley help` spawns timed for `cli.spawn_ms`.
const SPAWNS: usize = 20;

/// One job's result from a traced pass.
struct Lane {
    job: JobSpec,
    report: SimReport,
    /// Whether a simulation ran for it (false for a lane cloned from an
    /// identical one).
    executed: bool,
}

/// One in-process pass over `jobs`, the way `valley sweep` runs them
/// (per job, or per same-machine batch of at most `batch` lanes), every
/// library call in a span.
fn traced_pass(jobs: &[JobSpec], batch: usize, store_dir: &Path, t: &mut Tracer) -> Vec<Lane> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = ResultStore::open(store_dir).expect("open scratch store");
    let persist =
        |t: &mut Tracer, job: &JobSpec, report: &SimReport, wall_ms: f64, wall: WallKind| {
            let id = job.key().hash();
            t.span("json.encode", id, |_| black_box(report.to_json()));
            t.span("store.put", id, |_| {
                store
                    .put(job, report, wall_ms, wall)
                    .expect("put into scratch store")
            });
        };
    let mut lanes_out = Vec::new();
    if batch > 1 {
        for group in layers::batch_groups(jobs, batch) {
            let id = group[0].key().hash();
            t.span("batch", id, |t| {
                let lanes = t.span("sim.run", id, |_| execute_batch_timed(&group));
                for (job, lane) in group.iter().zip(lanes) {
                    persist(t, job, &lane.report, lane.wall_ms, lane.wall);
                    lanes_out.push(Lane {
                        job: *job,
                        report: lane.report,
                        executed: lane.wall != WallKind::Cloned,
                    });
                }
            });
        }
    } else {
        for job in jobs {
            assert_eq!(
                job.config,
                ConfigId::Table1,
                "every workload runs the Table I machine"
            );
            let id = job.key().hash();
            t.span("job", id, |t| {
                let workload = t.span("workloads.gen", id, |_| {
                    Box::new(job.bench.workload(job.scale))
                });
                let (map, mapper) = t.span("core.mapper_build", id, |_| {
                    let map = GddrMap::baseline();
                    let mapper = AddressMapper::build(job.scheme, &map, job.seed);
                    (map, mapper)
                });
                let sim = t.span("sim.build", id, |_| {
                    GpuSim::new(job.config.gpu_config(), mapper, map, workload)
                });
                let start = Instant::now();
                let report = t.span("sim.run", id, |_| sim.run());
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                persist(t, job, &report, wall_ms, WallKind::Measured);
                lanes_out.push(Lane {
                    job: *job,
                    report,
                    executed: true,
                });
            });
        }
    }
    lanes_out
}

/// Median wall milliseconds of each CLI phase over a few `io_plane`
/// rounds, the fabric lease overhead per job, and the store's records.
struct IoNumbers {
    metrics: Vec<Metric>,
    records: Vec<valley_harness::StoredResult>,
    ops: u64,
    failed: u64,
}

fn io_numbers(io: &mut Workload) -> IoNumbers {
    let (mut ops, mut failed) = (0, 0);
    let rounds: Vec<_> = (0..IO_ROUNDS).map(|_| io.round()).collect();
    let mut metrics = Vec::new();
    for (i, (name, _)) in rounds[0].phases.iter().enumerate() {
        let walls: Vec<f64> = rounds.iter().map(|r| r.phases[i].1).collect();
        metrics.push(metric(name, median(&walls), "ms"));
    }
    for r in &rounds {
        ops += r.ops;
        failed += r.failed;
    }
    let state = io.io().expect("io_plane is set up");
    let fabric_ms = metrics
        .iter()
        .find(|m| m.0 == "fabric.sweep_ms")
        .expect("io_plane rounds report the fabric sweep")
        .1;
    metrics.push(metric(
        "fabric.lease_overhead_ms_per_job",
        (fabric_ms - state.local_sweep_s * 1e3) / state.fabric_jobs() as f64,
        "ms",
    ));
    let records = ResultStore::open(state.store_dir())
        .expect("open the populated store")
        .entries();
    assert_eq!(records.len() as u64, state.store_records());
    IoNumbers {
        metrics,
        records,
        ops,
        failed,
    }
}

/// `sim.est_share.*`: isolated cost per unit × the units the executed
/// simulations report, over the time `sim.run` took. Proxies: what is
/// left over (`residual`) is SM issue, scheduling and event-gating glue
/// that cannot be reached from outside the simulator.
fn est_shares(
    probes: &[Metric],
    executed: &[&Lane],
    captured: &layers::Captured,
    run_ns: f64,
) -> Vec<Metric> {
    let unit = |name: &str| probes.iter().find(|m| m.0 == name).expect("probe ran").1;
    let sum =
        |f: &dyn Fn(&SimReport) -> u64| executed.iter().map(|l| f(&l.report)).sum::<u64>() as f64;
    let txns = sum(&|r| r.memory_transactions);
    let mem_insts: f64 = executed
        .iter()
        .map(|l| captured.per_bench[&l.job.bench].0 as f64)
        .sum();
    // The caches' own miss counters include one modelled retry per
    // stalled cycle, which costs the host nothing; count real lookups
    // instead: every transaction probes its L1 once, and every LLC
    // lookup either hits or becomes a DRAM access.
    let dram_accesses = sum(&|r| r.dram.reads + r.dram.writes);
    let llc_lookups = sum(&|r| r.llc.hits) + dram_accesses;
    let shares = [
        ("gen", unit("workloads.gen_ns_per_addr") * txns),
        ("map", unit("core.map_ns_per_addr") * txns),
        ("coalesce", unit("sim.coalesce_ns_per_inst") * mem_insts),
        ("cache", unit("cache.probe_fill_ns") * (txns + llc_lookups)),
        // One request and one reply packet per LLC lookup.
        ("noc", unit("noc.ns_per_packet") * 2.0 * llc_lookups),
        ("dram", unit("dram.ns_per_request") * dram_accesses),
    ];
    let mut out = Vec::new();
    let mut residual = 1.0;
    for (layer, ns) in shares {
        residual -= ns / run_ns;
        out.push(metric(
            &format!("sim.est_share.{layer}"),
            ns / run_ns,
            "ratio",
        ));
    }
    out.push(metric("sim.est_share.residual", residual, "ratio"));
    out
}

pub fn run(workload: &mut Workload, seconds: f64, build_s: f64, out: &Path) -> Outcome {
    let ctx = workload.ctx.clone();
    let seed = ctx.seed;
    let (mut ops, mut failed) = workload.setup();
    let mut metrics: Vec<Metric> = Vec::new();

    // CLI phase walls from io_plane rounds (this workload's own, or a
    // separate io_plane set up beside it).
    let io = if workload.kind == Kind::IoPlane {
        io_numbers(workload)
    } else {
        let mut beside = Workload::new(
            Kind::IoPlane,
            Ctx {
                dir: ctx.dir.join("io"),
                ..ctx.clone()
            },
        );
        let (setup_ops, setup_failed) = beside.setup();
        ops += setup_ops;
        failed += setup_failed;
        io_numbers(&mut beside)
    };
    ops += io.ops;
    failed += io.failed;
    metrics.extend(io.metrics);

    let help = ["help".to_string()];
    let spawns: Vec<f64> = (0..SPAWNS)
        .map(|_| proc::run(&ctx.valley, &help, &ctx.dir.join("help.out")).1 * 1e3)
        .collect();
    metrics.push(metric("cli.spawn_ms", median(&spawns), "ms"));

    // The workload's grid through the CLI and through traced library
    // calls, alternating so both see the same machine phases, for half
    // the run's seconds (the probes below take about the other half).
    let grid = workload.grid.clone();
    let jobs = workload.jobs.clone();
    // Each traced pass over the CLI sweep right before it.
    let mut overheads = Vec::new();
    let mut last = None;
    let budget = Instant::now();
    while overheads.len() < 2 || budget.elapsed().as_secs_f64() < seconds / 2.0 {
        let cli = workload.sweep_round();
        let mut tracer = Tracer::new();
        let start = Instant::now();
        let lanes = traced_pass(
            &jobs,
            grid.batch,
            &ctx.dir.join("traced-store"),
            &mut tracer,
        );
        overheads.push(start.elapsed().as_secs_f64() / cli.wall_s);
        // The library calls must produce what the CLI stored.
        let got = lanes
            .iter()
            .map(|l| (l.job, l.report.results_json()))
            .collect();
        ops += cli.ops + jobs.len() as u64;
        failed += cli.failed + workload.wrong(&got);
        last = Some((tracer, lanes));
    }
    let (tracer, lanes) = last.expect("at least one traced pass ran");
    let executed: Vec<&Lane> = lanes.iter().filter(|l| l.executed).collect();
    let totals = spans::totals_by_name(tracer.spans());
    let total_of = |name: &str| totals.iter().find(|t| t.0 == name).map_or(0, |t| t.1) as f64;
    let self_of = |name: &str| totals.iter().find(|t| t.0 == name).map_or(0, |t| t.2) as f64;
    let run_ns = total_of("sim.run");
    let root_ns = total_of("job") + total_of("batch");

    let sum_all =
        |f: &dyn Fn(&SimReport) -> u64| lanes.iter().map(|l| f(&l.report)).sum::<u64>() as f64;
    let cycles = sum_all(&|r| r.cycles);
    let txns = sum_all(&|r| r.memory_transactions);
    metrics.extend([
        metric("sim.run_ns_per_cycle", run_ns / cycles, "ns"),
        metric("sim.run_ns_per_txn", run_ns / txns, "ns"),
        metric("sim.mcycles_per_s", cycles / run_ns * 1e3, "1/s"),
        metric("sim.cycles", cycles, "count"),
        metric("sim.txns", txns, "count"),
        metric(
            "sim.thread_instructions",
            sum_all(&|r| r.thread_instructions),
            "count",
        ),
        metric(
            "harness.job_overhead_us",
            (root_ns - run_ns) / 1e3 / jobs.len() as f64,
            "us",
        ),
        metric(
            "trace.overhead_pct",
            (median(&overheads) - 1.0) * 100.0,
            "%",
        ),
        metric("trace.spans", tracer.spans().len() as f64, "count"),
        metric(
            "trace.self_share.sim_run",
            self_of("sim.run") / root_ns,
            "ratio",
        ),
        metric(
            "trace.self_share.harness",
            (self_of("job")
                + self_of("batch")
                + self_of("core.mapper_build")
                + self_of("sim.build"))
                / root_ns,
            "ratio",
        ),
        metric(
            "trace.self_share.workloads_gen",
            self_of("workloads.gen") / root_ns,
            "ratio",
        ),
        metric(
            "trace.self_share.json_encode",
            self_of("json.encode") / root_ns,
            "ratio",
        ),
        metric(
            "trace.self_share.store_put",
            self_of("store.put") / root_ns,
            "ratio",
        ),
        metric("build.cargo_s", build_s, "s"),
    ]);

    metrics.extend(layers::sim_build(&jobs));

    // Replay probes on the streams of the grid's own benchmarks.
    let scale = grid.spec.scale;
    let captured = layers::capture(&grid.spec.benches, scale);
    let mut probes = captured.metrics.clone();
    probes.extend(layers::coalesce(&captured));
    probes.extend(layers::core_and_compute(&captured, seed));
    probes.extend(layers::cache(&captured, seed));
    probes.extend(layers::noc(&captured, seed));
    probes.extend(layers::dram(&captured, seed));
    metrics.extend(est_shares(&probes, &executed, &captured, run_ns));
    metrics.extend(probes);

    metrics.extend(layers::batch_ratio(scale, seed));
    // What the CLI's own batching deduplicated: this workload's last
    // round if it is the batched one, else one batched sweep beside it.
    if workload.kind == Kind::MultiseedBatched {
        metrics.extend(layers::batch_dedupe_ratio(&workload.round_store(), &jobs));
    } else {
        let mut batched = Workload::new(
            Kind::MultiseedBatched,
            Ctx {
                dir: ctx.dir.join("batched"),
                ..ctx.clone()
            },
        );
        let round = batched.sweep_round();
        ops += round.ops;
        failed += round.failed;
        metrics.extend(layers::batch_dedupe_ratio(
            &batched.round_store(),
            &batched.jobs,
        ));
    }
    let mut by_cycles: Vec<(u64, JobSpec)> =
        executed.iter().map(|l| (l.report.cycles, l.job)).collect();
    by_cycles.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.key().hash().cmp(&b.1.key().hash()))
    });
    let heaviest: Vec<JobSpec> = by_cycles.iter().take(4).map(|(_, j)| *j).collect();
    metrics.extend(layers::sharded2_ratio(&heaviest));
    metrics.extend(layers::harness(&ctx.dir, scale, seed));
    metrics.extend(layers::store(&ctx.dir, &io.records));
    metrics.extend(layers::codecs(&io.records));

    let trace_file = out.join(format!("trace_{}.json", workload.kind.name()));
    std::fs::write(&trace_file, spans::to_json(tracer.spans()).to_json_string())
        .expect("write the span file");

    Outcome {
        rows: metrics.into_iter().map(Row::single).collect(),
        ops,
        failed,
        raw: Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_spans_every_job_and_persists_it() {
        let grid = crate::workloads::grid(Kind::IoPlane, 3);
        let jobs: Vec<JobSpec> = grid.spec.expand().into_iter().take(4).collect();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-traced-{}", std::process::id()));
        let mut t = Tracer::new();
        let lanes = traced_pass(&jobs, 0, &dir, &mut t);
        assert_eq!(lanes.len(), 4);
        assert!(lanes.iter().all(|l| l.executed));
        let roots = t.spans().iter().filter(|s| s.name == "job").count();
        assert_eq!(roots, 4);
        assert_eq!(t.spans().len(), 4 * 7, "job + six layer calls each");
        let store = ResultStore::open(&dir).unwrap();
        for lane in &lanes {
            assert_eq!(
                store.get(&lane.job).unwrap().report.results_json(),
                lane.report.results_json()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
