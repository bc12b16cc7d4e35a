//! A lower bound on a run's DRAM time, read off the trace alone: an
//! oracle independent of the DRAM channel, the LLC and the NoC. It uses
//! only the workload's warp programs, the coalescer, the address maps,
//! the mapping schemes and the DRAM timing constants.
//!
//! Caches start cold, the LLC fills only from DRAM and a store never
//! allocates, so every distinct line loaded anywhere in the application
//! is read from DRAM at least once. The LLC is write-through, so every
//! store transaction is written to DRAM once. From those requests,
//! mapped by the scheme and decoded by the map:
//!
//! - **channel term:** a channel's data bus serializes its bursts, so it
//!   is busy at least (reads + writes) × tBURST;
//! - **bank term:** each distinct row of a bank takes an ACT, and ACTs to
//!   one bank are at least tRAS + tRP apart; after the last one the
//!   access still needs tRCD + CL + tBURST.
//!
//! The run's DRAM cycles must reach the larger term on every channel and
//! bank. A DRAM model that moves data faster than its bus or reopens a
//! row faster than its array allows fails here, whatever the drive loop.

use valley::core::{AddressMapper, DramAddressMap, GddrMap, PhysAddr, SchemeKind, StackedMap};
use valley::sim::{coalesce_into, GpuConfig, GpuSim, Instruction, WorkloadSource};
use valley::workloads::{Benchmark, Scale};

/// The DRAM requests a run must make at least: every distinct line
/// loaded (sorted), and one write per store transaction.
struct Traffic {
    loads: Vec<u64>,
    stores: Vec<u64>,
}

/// Walks every warp program of `workload`, coalescing each load and
/// store into `line_bytes` lines.
fn traffic(workload: &dyn WorkloadSource, line_bytes: u64) -> Traffic {
    let (mut loads, mut stores, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..workload.num_kernels() {
        let kernel = workload.kernel(k);
        for tb in 0..kernel.num_thread_blocks() {
            for warp in 0..kernel.warps_per_block() {
                let mut program = kernel.warp_program(tb, warp);
                while let Some(inst) = program.next_instruction() {
                    let (lanes, out) = match inst {
                        Instruction::Load(lanes) => (lanes, &mut loads),
                        Instruction::Store(lanes) => (lanes, &mut stores),
                        Instruction::Compute { .. } => continue,
                    };
                    coalesce_into(&lanes, line_bytes, &mut lines);
                    out.extend_from_slice(&lines);
                }
            }
        }
    }
    loads.sort_unstable();
    loads.dedup();
    Traffic { loads, stores }
}

/// The bound for `traffic` under `scheme` on the machine `cfg` + `map`,
/// in DRAM cycles: the channel term and the bank term.
fn bound<M: DramAddressMap>(
    traffic: &Traffic,
    scheme: SchemeKind,
    cfg: &GpuConfig,
    map: &M,
) -> (u64, u64) {
    let t = cfg.dram.timing;
    let mapper = AddressMapper::build(scheme, map, 1);
    let banks = map.banks_per_controller();
    let mut per_channel = vec![0u64; map.num_controllers()];
    // (bank across all channels, row) of every request.
    let mut rows: Vec<(usize, usize)> =
        Vec::with_capacity(traffic.loads.len() + traffic.stores.len());
    for &line in traffic.loads.iter().chain(&traffic.stores) {
        let addr = mapper.map(PhysAddr::new(line));
        let ctrl = map.controller_of(addr);
        per_channel[ctrl] += 1;
        rows.push((ctrl * banks + map.bank_of(addr), map.row_of(addr)));
    }
    let channel = per_channel.iter().max().map_or(0, |&n| n * t.tburst);
    rows.sort_unstable();
    rows.dedup();
    let mut per_bank = vec![0u64; per_channel.len() * banks];
    for &(bank, _) in &rows {
        per_bank[bank] += 1;
    }
    let bank = per_bank
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| (n - 1) * (t.tras + t.trp) + t.trcd + t.cl + t.tburst)
        .max()
        .unwrap_or(0);
    (channel, bank)
}

/// Which machine a job runs on.
#[derive(Clone, Copy, Debug)]
enum Machine {
    Table1,
    Stacked,
}

/// Runs `bench` under each of `schemes` on `machine` at `scale` and
/// checks each run's DRAM cycles against the bound. Returns the
/// smallest ratio of DRAM cycles to bound seen.
fn check(bench: Benchmark, schemes: &[SchemeKind], machine: Machine, scale: Scale) -> f64 {
    match machine {
        Machine::Table1 => {
            let (cfg, map) = (GpuConfig::table1(), GddrMap::baseline());
            check_on(bench, schemes, machine, cfg, map, scale)
        }
        Machine::Stacked => {
            let (cfg, map) = (GpuConfig::stacked(), StackedMap::baseline());
            check_on(bench, schemes, machine, cfg, map, scale)
        }
    }
}

fn check_on<M>(
    bench: Benchmark,
    schemes: &[SchemeKind],
    machine: Machine,
    cfg: GpuConfig,
    map: M,
    scale: Scale,
) -> f64
where
    M: DramAddressMap + Copy + Send + Sync + 'static,
{
    let traffic = traffic(&bench.workload(scale), cfg.line_bytes);
    let mut tightest = f64::INFINITY;
    for &scheme in schemes {
        let tag = format!("{bench:?}/{scheme:?} on {machine:?} at {scale:?}");
        let (channel, bank) = bound(&traffic, scheme, &cfg, &map);
        let mapper = AddressMapper::build(scheme, &map, 1);
        let report = GpuSim::new(cfg.clone(), mapper, map, Box::new(bench.workload(scale))).run();
        assert!(!report.truncated, "{tag}: the run hit its cycle limit");
        let floor = channel.max(bank);
        assert!(
            report.dram_cycles >= floor,
            "{tag}: {} DRAM cycles, under the trace's bound of {floor} (channel term {channel}, bank term {bank})",
            report.dram_cycles
        );
        tightest = tightest.min(report.dram_cycles as f64 / floor as f64);
    }
    tightest
}

/// The paper's valley benchmarks under the baseline and PAE on the
/// Table I machine, and one valley and one streaming benchmark on the
/// 64-vault stacked machine, at test scale.
#[test]
fn dram_time_reaches_the_trace_bound_at_test_scale() {
    let both = [SchemeKind::Base, SchemeKind::Pae];
    for bench in Benchmark::VALLEY {
        check(bench, &both, Machine::Table1, Scale::Test);
    }
    check(
        Benchmark::Mt,
        &[SchemeKind::Base],
        Machine::Stacked,
        Scale::Test,
    );
    check(
        Benchmark::Sp,
        &[SchemeKind::Pae],
        Machine::Stacked,
        Scale::Test,
    );
}

/// Every benchmark under every scheme on both machines at ref scale:
/// 192 runs (≈ 12 s single-threaded in release).
#[test]
#[ignore = "192 ref-scale runs; run with --release -- --ignored"]
fn dram_time_reaches_the_trace_bound_on_the_whole_ref_grid() {
    let mut tightest = f64::INFINITY;
    for bench in Benchmark::ALL {
        for machine in [Machine::Table1, Machine::Stacked] {
            tightest = tightest.min(check(bench, &SchemeKind::ALL_SCHEMES, machine, Scale::Ref));
        }
    }
    eprintln!("tightest DRAM cycles / bound: {tightest:.4}");
}
