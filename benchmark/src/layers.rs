//! Per-layer probes: the benchmark calls each crate's public functions
//! directly, on address streams captured from the workload's own
//! benchmarks, and times the calls. Every probe works on a fixed amount
//! of work, so its counts repeat exactly and its unit costs compare
//! across commits.
//!
//! A probe's unit cost is a proxy for what the layer costs inside a
//! simulation (a tight loop has warmer caches than the simulator's
//! interleaving), which is what `sim.est_share.*` says about itself.

use crate::stats::median;
use crate::{metric, Metric};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use valley_cache::{MshrAllocation, MshrFile, SetAssocCache};
use valley_compute::{backend, matgen, BvrTable, ComputeScratch};
use valley_core::entropy::{kernel_entropy, EntropyMethod, TbBitStats};
use valley_core::{AddressMapper, DramAddressMap, GddrMap, PhysAddr, SchemeKind};
use valley_dram::DramSystem;
use valley_fabric::proto::Msg;
use valley_fabric::{read_frame, write_frame};
use valley_harness::{
    gc, pool, run_sweep, JobSpec, ResultStore, StoredResult, SweepOptions, SweepSpec, WallKind,
};
use valley_noc::{Crossbar, Packet, DATA_FLITS, REQUEST_FLITS};
use valley_sim::json;
use valley_sim::{
    coalesce_into, tb_request_addresses, BatchSim, GpuConfig, GpuSim, Instruction, LaneAddrs,
    SimReport, WorkloadSource,
};
use valley_workloads::{Benchmark, Scale};

/// Request addresses the replay probes capture, shared equally between
/// the grid's benchmarks (a thread-block-aligned prefix of each, so a
/// `ref`-scale stream still holds every benchmark's access pattern).
const STREAM_CAP: usize = 400_000;
/// Memory instructions the coalescer probe replays, shared likewise.
const INST_CAP: usize = 100_000;
/// Timed repetitions of each probe; the median is reported.
const REPS: usize = 3;
/// Probes that run whole simulations stop repeating once they have used
/// this many seconds (one repetition at `ref` scale can take ten).
const WHOLE_SIM_BUDGET_S: f64 = 4.0;

/// Median seconds of `reps` runs of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median of up to `REPS` values of `sample`, fewer once
/// `WHOLE_SIM_BUDGET_S` is used up (but at least one).
fn median_within_budget(mut sample: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = vec![sample()];
    while samples.len() < REPS && start.elapsed().as_secs_f64() < WHOLE_SIM_BUDGET_S {
        samples.push(sample());
    }
    median(&samples)
}

/// What walking the workload's benchmarks produced.
pub struct Captured {
    /// Coalesced 128-byte request addresses, in TB order.
    pub stream: Vec<u64>,
    /// `stream[tb_ends[i-1]..tb_ends[i]]` is one thread block.
    pub tb_ends: Vec<usize>,
    /// Lane addresses of the first memory instructions.
    pub insts: Vec<LaneAddrs>,
    /// Per benchmark: memory instructions and request addresses of one
    /// complete walk (what one simulation of it issues).
    pub per_bench: HashMap<Benchmark, (u64, u64)>,
    pub metrics: Vec<Metric>,
}

/// `workloads.*`: walks every TB of every kernel through
/// `Workload::kernel` / `warp_program` / `tb_request_addresses`.
pub fn capture(benches: &[Benchmark], scale: Scale) -> Captured {
    let line = GpuConfig::table1().line_bytes;
    let mut stream = Vec::new();
    let mut tb_ends = Vec::new();
    let mut insts = Vec::new();
    let mut per_bench = HashMap::new();
    let mut walk_s = 0.0;
    let mut walked = 0u64;
    for (i, &bench) in benches.iter().enumerate() {
        let workload = bench.workload(scale);
        let (mut mem_insts, mut addrs) = (0u64, 0u64);
        // This benchmark's share of the caps, plus what earlier ones
        // left unused.
        let stream_cap = STREAM_CAP * (i + 1) / benches.len();
        let inst_cap = INST_CAP * (i + 1) / benches.len();
        for k in 0..workload.num_kernels() {
            let kernel = workload.kernel(k);
            for tb in 0..kernel.num_thread_blocks() {
                let start = Instant::now();
                let reqs = tb_request_addresses(kernel.as_ref(), tb, line);
                walk_s += start.elapsed().as_secs_f64();
                addrs += reqs.len() as u64;
                if stream.len() < stream_cap {
                    stream.extend_from_slice(&reqs);
                    tb_ends.push(stream.len());
                }
                // Untimed second pass over the same TB for the
                // instruction-level counts the request walk hides.
                for w in 0..kernel.warps_per_block() {
                    let mut prog = kernel.warp_program(tb, w);
                    while let Some(inst) = prog.next_instruction() {
                        if let Instruction::Load(a) | Instruction::Store(a) = inst {
                            mem_insts += 1;
                            if insts.len() < inst_cap {
                                insts.push(a);
                            }
                        }
                    }
                }
            }
        }
        walked += addrs;
        per_bench.insert(bench, (mem_insts, addrs));
    }
    let metrics = vec![
        metric(
            "workloads.gen_ns_per_addr",
            walk_s * 1e9 / walked as f64,
            "ns",
        ),
        metric("workloads.addrs", walked as f64, "count"),
    ];
    Captured {
        stream,
        tb_ends,
        insts,
        per_bench,
        metrics,
    }
}

/// `sim.coalesce_ns_per_inst`: `coalesce_into` over the captured memory
/// instructions, with the issue path's reused output buffer.
pub fn coalesce(c: &Captured) -> Vec<Metric> {
    let line = GpuConfig::table1().line_bytes;
    let mut out = Vec::with_capacity(32);
    let secs = timed(REPS, || {
        for a in &c.insts {
            coalesce_into(black_box(a), line, &mut out);
            black_box(out.len());
        }
    });
    vec![metric(
        "sim.coalesce_ns_per_inst",
        secs * 1e9 / c.insts.len() as f64,
        "ns",
    )]
}

fn mapped(stream: &[u64], kind: SchemeKind, seed: u64) -> Vec<u64> {
    let mapper = AddressMapper::build(kind, &GddrMap::baseline(), seed);
    stream
        .iter()
        .map(|&a| mapper.map(PhysAddr::new(a)).raw())
        .collect()
}

/// The thread blocks of the captured stream as entropy inputs.
fn tb_stats(c: &Captured) -> Vec<TbBitStats> {
    let mut begin = 0;
    c.tb_ends
        .iter()
        .enumerate()
        .map(|(tb, &end)| {
            let stats = TbBitStats::from_addrs(tb as u64, 30, c.stream[begin..end].iter().copied());
            begin = end;
            stats
        })
        .collect()
}

/// `core.*` and `compute.*`: the six mapping schemes over the captured
/// stream, the window entropy (w = 12) over its thread blocks, and the
/// bit-sliced batch kernels of the analytics plane.
pub fn core_and_compute(c: &Captured, seed: u64) -> Vec<Metric> {
    let map = GddrMap::baseline();
    let mappers: Vec<AddressMapper> = SchemeKind::ALL_SCHEMES
        .iter()
        .map(|&k| AddressMapper::build(k, &map, seed))
        .collect();
    let map_s = timed(REPS, || {
        for mapper in &mappers {
            let mut acc = 0u64;
            for &a in &c.stream {
                acc ^= mapper.map(PhysAddr::new(a)).raw();
            }
            black_box(acc);
        }
    });

    let tbs = tb_stats(c);
    let entropy_s = timed(REPS, || {
        black_box(kernel_entropy(black_box(&tbs), 12));
    });

    let be = backend();
    let mut scratch = ComputeScratch::new();
    let dense = matgen::dense_invertible(30, 1);
    let batch = &c.stream[..c.stream.len().min(1 << 16)];
    let mut out = Vec::new();
    let bim_s = timed(REPS, || {
        be.bim_apply_batch(&dense, black_box(batch), &mut out, &mut scratch);
        black_box(out.last().copied());
    });
    let table = BvrTable::from_tb_stats(&tbs);
    let mut per_bit = Vec::new();
    let sweep_s = timed(REPS, || {
        be.window_entropy_sweep(
            &table,
            12,
            EntropyMethod::MixtureBvr,
            &mut per_bit,
            &mut scratch,
        );
        black_box(per_bit.last().copied());
    });

    vec![
        metric(
            "core.map_ns_per_addr",
            map_s * 1e9 / (mappers.len() * c.stream.len()) as f64,
            "ns",
        ),
        metric(
            "core.entropy_ns_per_tb",
            entropy_s * 1e9 / tbs.len() as f64,
            "ns",
        ),
        metric(
            "compute.bim_batch_ns_per_addr",
            bim_s * 1e9 / batch.len() as f64,
            "ns",
        ),
        metric("compute.entropy_sweep_ms", sweep_s * 1e3, "ms"),
    ]
}

/// The LLC slice a mapped address is served by (two per controller, the
/// low bank bit picking between them — the simulator's routing).
fn slice_of(map: &GddrMap, addr: u64) -> usize {
    let a = PhysAddr::new(addr);
    map.controller_of(a) * 2 + map.bank_of(a) % 2
}

/// `cache.*`: the PAE-mapped stream replayed through eight
/// `SetAssocCache`s of LLC-slice geometry, misses tracked in an
/// `MshrFile` and filled 32 accesses later.
pub fn cache(c: &Captured, seed: u64) -> Vec<Metric> {
    let cfg = GpuConfig::table1();
    let map = GddrMap::baseline();
    let stream = mapped(&c.stream, SchemeKind::Pae, seed);
    let (mut hits, mut accesses, mut merged, mut allocations) = (0u64, 0u64, 0u64, 0u64);
    let secs = timed(REPS, || {
        let mut slices: Vec<SetAssocCache> = (0..cfg.llc_slices)
            .map(|_| SetAssocCache::new(cfg.llc_slice))
            .collect();
        let mut mshrs = MshrFile::new(cfg.llc_mshrs, cfg.llc_mshr_merges);
        let mut in_flight: VecDeque<u64> = VecDeque::with_capacity(64);
        let mut woken = Vec::new();
        (hits, accesses, merged, allocations) = (0, 0, 0, 0);
        for (i, &addr) in stream.iter().enumerate() {
            let slice = slice_of(&map, addr);
            accesses += 1;
            if slices[slice].probe(addr) {
                hits += 1;
                continue;
            }
            let line = slices[slice].line_addr(addr);
            loop {
                allocations += 1;
                match mshrs.allocate(line, i as u64) {
                    MshrAllocation::NewEntry => {
                        in_flight.push_back(addr);
                        break;
                    }
                    MshrAllocation::Merged => {
                        merged += 1;
                        break;
                    }
                    MshrAllocation::Stalled => {
                        fill_oldest(&mut in_flight, &mut mshrs, &mut slices, &map, &mut woken)
                    }
                }
            }
            if in_flight.len() > 32 {
                fill_oldest(&mut in_flight, &mut mshrs, &mut slices, &map, &mut woken);
            }
        }
        black_box(woken.len());
    });
    vec![
        metric("cache.probe_fill_ns", secs * 1e9 / accesses as f64, "ns"),
        metric("cache.hit_ratio", hits as f64 / accesses as f64, "ratio"),
        metric(
            "cache.mshr_merge_ratio",
            merged as f64 / allocations as f64,
            "ratio",
        ),
    ]
}

fn fill_oldest(
    in_flight: &mut VecDeque<u64>,
    mshrs: &mut MshrFile,
    slices: &mut [SetAssocCache],
    map: &GddrMap,
    woken: &mut Vec<u64>,
) {
    let Some(addr) = in_flight.pop_front() else {
        return;
    };
    let slice = slice_of(map, addr);
    woken.clear();
    mshrs.complete_into(slices[slice].line_addr(addr), woken);
    slices[slice].fill(addr);
}

/// `noc.*`: one packet per NoC cycle into a 12×8 `Crossbar`, request and
/// data packets alternating, destination = the slice of the mapped
/// address; `tick_evented` every cycle until drained.
pub fn noc(c: &Captured, seed: u64) -> Vec<Metric> {
    let cfg = GpuConfig::table1();
    let map = GddrMap::baseline();
    let stream = mapped(&c.stream, SchemeKind::Pae, seed);
    let dsts: Vec<usize> = stream.iter().map(|&a| slice_of(&map, a)).collect();
    let (mut packets, mut flits) = (0u64, 0u64);
    let secs = timed(REPS, || {
        let mut xbar = Crossbar::new(cfg.num_sms, cfg.llc_slices, cfg.noc_router_latency);
        let mut done = Vec::with_capacity(64);
        let mut cycle = 0u64;
        for (i, &dst) in dsts.iter().enumerate() {
            xbar.inject(Packet {
                payload: i as u64,
                src: i % cfg.num_sms,
                dst,
                flits: if i % 2 == 0 {
                    REQUEST_FLITS
                } else {
                    DATA_FLITS
                },
                injected_at: cycle,
            });
            done.clear();
            xbar.tick_evented(cycle, &mut done);
            cycle += 1;
        }
        while xbar.is_busy() {
            done.clear();
            xbar.tick_evented(cycle, &mut done);
            cycle += 1;
        }
        xbar.flush_deferred(cycle);
        let stats = xbar.stats();
        (packets, flits) = (stats.delivered, stats.flits);
    });
    vec![
        metric("noc.ns_per_packet", secs * 1e9 / packets as f64, "ns"),
        metric("noc.ns_per_flit", secs * 1e9 / flits as f64, "ns"),
    ]
}

/// `dram.*`: the mapped stream through `DramSystem::try_enqueue_at` +
/// `tick_evented` with back-pressure (a refused enqueue ticks and
/// retries), once BASE-mapped and once PAE-mapped. Unit costs are over
/// both streams; the row-hit ratio is reported per stream because it is
/// what the mapping changes.
pub fn dram(c: &Captured, seed: u64) -> Vec<Metric> {
    let cfg = GpuConfig::table1();
    let map: Arc<GddrMap> = Arc::new(GddrMap::baseline());
    let (mut secs, mut cycles, mut requests, mut refused, mut attempts) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut out = Vec::new();
    for kind in [SchemeKind::Base, SchemeKind::Pae] {
        let stream = mapped(&c.stream, kind, seed);
        let mut run = (0u64, 0u64, 0u64, 0.0f64);
        secs += timed(REPS, || {
            let mut sys = DramSystem::new(map.clone(), cfg.dram);
            let mut done = Vec::with_capacity(64);
            let mut cycle = 0u64;
            let (mut tries, mut nacks) = (0u64, 0u64);
            for (i, &addr) in stream.iter().enumerate() {
                let (ctrl, bank, row) = sys.decode(PhysAddr::new(addr));
                loop {
                    tries += 1;
                    let accepted = sys.try_enqueue_at(ctrl, bank, row, i as u64, i % 4 == 0, cycle);
                    done.clear();
                    sys.tick_evented(cycle, &mut done);
                    cycle += 1;
                    if accepted {
                        break;
                    }
                    nacks += 1;
                }
            }
            while sys.is_busy() {
                done.clear();
                sys.tick_evented(cycle, &mut done);
                cycle += 1;
            }
            sys.flush_deferred(cycle);
            run = (cycle, tries, nacks, sys.total_stats().row_buffer_hit_rate());
        });
        cycles += run.0;
        attempts += run.1;
        refused += run.2;
        requests += stream.len() as u64;
        out.push(metric(
            &format!("dram.row_hit_ratio.{}", kind.label().to_lowercase()),
            run.3,
            "ratio",
        ));
    }
    out.extend([
        metric("dram.ns_per_request", secs * 1e9 / requests as f64, "ns"),
        metric("dram.ns_per_dram_cycle", secs * 1e9 / cycles as f64, "ns"),
        metric(
            "dram.retry_ratio",
            refused as f64 / attempts as f64,
            "ratio",
        ),
    ]);
    out
}

/// Everything `GpuSim::new` takes for `job` (all workloads run the
/// Table I GDDR5 machine).
fn sim_parts(job: &JobSpec) -> (GpuConfig, AddressMapper, GddrMap, Box<dyn WorkloadSource>) {
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(job.scheme, &map, job.seed);
    (
        job.config.gpu_config(),
        mapper,
        map,
        Box::new(job.bench.workload(job.scale)),
    )
}

fn build_sim(job: &JobSpec) -> GpuSim {
    let (cfg, mapper, map, workload) = sim_parts(job);
    GpuSim::new(cfg, mapper, map, workload)
}

/// `sim.build_us`: `GpuSim::new` alone, median over `jobs`.
pub fn sim_build(jobs: &[JobSpec]) -> Vec<Metric> {
    let builds: Vec<f64> = jobs
        .iter()
        .map(|job| {
            let (cfg, mapper, map, workload) = sim_parts(job);
            let start = Instant::now();
            black_box(GpuSim::new(cfg, mapper, map, workload));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    vec![metric("sim.build_us", median(&builds), "us")]
}

/// `sim.batch_ratio`: nine distinct lanes through `BatchSim::run` over
/// the same nine run one after another.
pub fn batch_ratio(scale: Scale, seed: u64) -> Vec<Metric> {
    let lanes: Vec<JobSpec> = SweepSpec::new(
        &[Benchmark::Mt, Benchmark::Sp, Benchmark::Mum],
        &[SchemeKind::Pae],
        scale,
    )
    .with_seeds(&[seed, seed + 1, seed + 2])
    .expand();
    let ratio = median_within_budget(|| {
        let sims: Vec<GpuSim> = lanes.iter().map(build_sim).collect();
        let start = Instant::now();
        black_box(BatchSim::new(sims).run());
        let batched = start.elapsed().as_secs_f64();
        let sims: Vec<GpuSim> = lanes.iter().map(build_sim).collect();
        let start = Instant::now();
        for sim in sims {
            black_box(sim.run());
        }
        batched / start.elapsed().as_secs_f64()
    });
    vec![metric("sim.batch_ratio", ratio, "ratio")]
}

/// `sim.batch_dedupe_ratio`: simulations executed over jobs requested,
/// read off the store a `valley sweep --batch` of `jobs` wrote — a lane
/// cloned from an identical one is stored as `WallKind::Cloned`. Exact.
pub fn batch_dedupe_ratio(store: &Path, jobs: &[JobSpec]) -> Vec<Metric> {
    let store = ResultStore::open(store).expect("open the batched sweep's store");
    let executed = jobs
        .iter()
        .filter(|job| store.get(job).is_some_and(|r| r.wall != WallKind::Cloned))
        .count();
    vec![metric(
        "sim.batch_dedupe_ratio",
        executed as f64 / jobs.len() as f64,
        "ratio",
    )]
}

/// Same-machine batches of at most `width` lanes for the traced pass:
/// an order-preserving group-by on (config, scale, scheme), as
/// `run_sweep` documents its own. Any such grouping gives the same
/// per-lane results; the traced pass only needs one to put spans around.
pub fn batch_groups(jobs: &[JobSpec], width: usize) -> Vec<Vec<JobSpec>> {
    let mut groups: Vec<Vec<JobSpec>> = Vec::new();
    let mut open: HashMap<_, usize> = HashMap::new();
    for job in jobs {
        let machine = (job.config, job.scale, job.scheme);
        match open.get(&machine) {
            Some(&g) if groups[g].len() < width => groups[g].push(*job),
            _ => {
                open.insert(machine, groups.len());
                groups.push(vec![*job]);
            }
        }
    }
    groups
}

/// `sim.sharded2_ratio`: `run_sharded(2, 2)` over `run()` on the given
/// (heaviest) jobs. With fewer than two host threads the number says
/// what the engine costs, not what it gains.
pub fn sharded2_ratio(heaviest: &[JobSpec]) -> Vec<Metric> {
    let ratio = median_within_budget(|| {
        let (mut sharded, mut sequential) = (0.0, 0.0);
        for job in heaviest {
            let sim = build_sim(job);
            let start = Instant::now();
            black_box(sim.run_sharded(2, 2));
            sharded += start.elapsed().as_secs_f64();
            let sim = build_sim(job);
            let start = Instant::now();
            black_box(sim.run());
            sequential += start.elapsed().as_secs_f64();
        }
        sharded / sequential
    });
    vec![metric("sim.sharded2_ratio", ratio, "ratio")]
}

/// `harness.key_ns`, `harness.expand_us`, `harness.pool.*`.
pub fn harness(dir: &Path, scale: Scale, seed: u64) -> Vec<Metric> {
    let full = SweepSpec::new(&Benchmark::ALL, &SchemeKind::ALL_SCHEMES, Scale::Ref)
        .with_seeds(&[1, 2, 3]);
    let expand_s = timed(REPS, || {
        black_box(black_box(&full).expand());
    });
    let jobs = full.expand();
    let key_s = timed(REPS, || {
        for job in &jobs {
            black_box(job.key());
        }
    });
    const TRIVIAL_JOBS: usize = 20_000;
    let dispatch_s = timed(REPS, || {
        black_box(pool::run_jobs(TRIVIAL_JOBS, 1, |i| i, |_| {}));
    });

    // One worker over two on the valley grid, alternating, fresh stores.
    let valley =
        SweepSpec::new(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, scale).with_seeds(&[seed]);
    let sweep_s = |workers: usize| {
        let store_dir = dir.join(format!("pool-{workers}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ResultStore::open(&store_dir).expect("open scratch store");
        let opts = SweepOptions {
            workers: Some(workers),
            ..SweepOptions::default()
        };
        let start = Instant::now();
        run_sweep(&valley, &store, &opts).expect("sweep the valley grid in-process");
        start.elapsed().as_secs_f64()
    };
    let scaling = median_within_budget(|| sweep_s(1) / sweep_s(2));

    vec![
        metric("harness.key_ns", key_s * 1e9 / jobs.len() as f64, "ns"),
        metric("harness.expand_us", expand_s * 1e6, "us"),
        metric(
            "harness.pool.dispatch_ns",
            dispatch_s * 1e9 / TRIVIAL_JOBS as f64,
            "ns",
        ),
        metric("harness.pool.scaling_2w", scaling, "ratio"),
    ]
}

/// `harness.store.*`: the records of the populated `io_plane` store put
/// into a fresh store, reopened, looked up and compacted.
pub fn store(dir: &Path, records: &[StoredResult]) -> Vec<Metric> {
    let store_dir = dir.join("store-probe");
    let n = records.len() as f64;
    let (mut put_s, mut open_s, mut get_s, mut gc_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0u64;
    for _ in 0..REPS {
        let _ = std::fs::remove_dir_all(&store_dir);
        let fresh = ResultStore::open(&store_dir).expect("open scratch store");
        let start = Instant::now();
        for r in records {
            fresh
                .put(&r.spec, &r.report, r.wall_ms, r.wall)
                .expect("put into scratch store");
        }
        put_s.push(start.elapsed().as_secs_f64());
        bytes = fresh.shard_sizes().iter().map(|(_, b)| b).sum();
        drop(fresh);

        let start = Instant::now();
        let reopened = ResultStore::open(&store_dir).expect("reopen scratch store");
        open_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for r in records {
            black_box(reopened.get(&r.spec));
        }
        get_s.push(start.elapsed().as_secs_f64());
        drop(reopened);

        let start = Instant::now();
        black_box(gc(&store_dir).expect("gc scratch store"));
        gc_s.push(start.elapsed().as_secs_f64());
    }
    vec![
        metric("harness.store.put_us", median(&put_s) * 1e6 / n, "us"),
        metric(
            "harness.store.open_us_per_record",
            median(&open_s) * 1e6 / n,
            "us",
        ),
        metric("harness.store.get_ns", median(&get_s) * 1e9 / n, "ns"),
        metric(
            "harness.store.gc_us_per_record",
            median(&gc_s) * 1e6 / n,
            "us",
        ),
        metric("harness.store.bytes_per_record", bytes as f64 / n, "B"),
    ]
}

/// `json.*`, `fabric.wire.*`, `fabric.proto.*`, `power.*`: the codecs
/// over the same stored records. `parse_mb_per_s_1k` parses the records
/// one ~1 KB document at a time, `parse_mb_per_s_256k` the same records
/// as one 256 KB array — a parser linear in its input gives equal rates.
/// (Today's is quadratic in string content: a 1 MB array takes 9 s,
/// which is why the large document stops at 256 KB.)
pub fn codecs(records: &[StoredResult]) -> Vec<Metric> {
    let n = records.len() as f64;
    let reports: Vec<&SimReport> = records.iter().map(|r| &r.report).collect();
    let encode_s = timed(REPS, || {
        for r in &reports {
            black_box(r.to_json());
        }
    });
    let texts: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let decode_s = timed(REPS, || {
        for t in &texts {
            black_box(SimReport::from_json(t).expect("stored report decodes"));
        }
    });
    let small_bytes: usize = texts.iter().map(String::len).sum();
    let small_s = timed(REPS, || {
        for t in &texts {
            black_box(json::parse(t).expect("stored report parses"));
        }
    });
    let mut big = String::from("[");
    for t in texts.iter().cycle() {
        if big.len() >= 1 << 18 {
            break;
        }
        if big.len() > 1 {
            big.push(',');
        }
        big.push_str(t);
    }
    big.push(']');
    let big_s = timed(1, || {
        black_box(json::parse(&big).expect("array of stored reports parses"));
    });

    let frame_of = |rs: &[StoredResult]| {
        Msg::Results {
            records: rs.to_vec(),
        }
        .to_json()
    };
    let (one, all) = (frame_of(&records[..1]), frame_of(records));
    let mut buf = Vec::new();
    let write_s = timed(REPS, || {
        buf.clear();
        write_frame(&mut buf, &one).expect("write frame to memory");
        write_frame(&mut buf, &all).expect("write frame to memory");
    });
    let read_s = timed(1, || {
        let mut cursor = Cursor::new(&buf);
        black_box(read_frame(&mut cursor).expect("read frame from memory"));
        black_box(read_frame(&mut cursor).expect("read frame from memory"));
    });
    let lease = Msg::Lease {
        lease: 7,
        deadline_ms: 30_000,
        jobs: records.iter().take(9).map(|r| r.spec).collect(),
    };
    const ROUNDTRIPS: usize = 2_000;
    let msg_s = timed(REPS, || {
        for _ in 0..ROUNDTRIPS {
            let text = lease.to_json().to_json_string();
            let back =
                Msg::from_json(&json::parse(&text).expect("lease parses")).expect("lease decodes");
            black_box(back);
        }
    });
    let power_s = timed(REPS, || {
        for r in &reports {
            black_box(valley_power::evaluate(r));
        }
    });
    vec![
        metric("json.report_encode_us", encode_s * 1e6 / n, "us"),
        metric("json.report_decode_us", decode_s * 1e6 / n, "us"),
        metric(
            "json.parse_mb_per_s_1k",
            small_bytes as f64 / 1e6 / small_s,
            "MB/s",
        ),
        metric(
            "json.parse_mb_per_s_256k",
            big.len() as f64 / 1e6 / big_s,
            "MB/s",
        ),
        metric(
            "fabric.wire.write_us_per_record",
            write_s * 1e6 / (n + 1.0),
            "us",
        ),
        metric(
            "fabric.wire.read_us_per_record",
            read_s * 1e6 / (n + 1.0),
            "us",
        ),
        metric(
            "fabric.proto.msg_roundtrip_us",
            msg_s * 1e6 / ROUNDTRIPS as f64,
            "us",
        ),
        metric("power.evaluate_ns", power_s * 1e9 / n, "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_groups_mirror_the_sweep_grouping() {
        let grid = crate::workloads::grid(crate::workloads::Kind::MultiseedBatched, 1);
        let groups = batch_groups(&grid.spec.expand(), grid.batch);
        // 12 lanes per scheme, nine to a batch: 9 + 3 for each of three schemes.
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![9, 9, 9, 3, 3, 3]);
        for g in &groups {
            assert!(g.iter().all(|j| j.scheme == g[0].scheme));
        }
    }
}
