//! Behavioral tests of the full simulator on hand-built micro-workloads:
//! cache filtering, MSHR merging, write-through stores and kernel
//! serialization, all observable through the `SimReport` counters.

use std::sync::Arc;
use valley_cache::CacheConfig;
use valley_core::{AddressMapper, DramMap, SchemeKind};
use valley_sim::{GpuConfig, GpuSim, Instruction, LaneAddrs, SimReport};
use valley_workloads::{Benchmark, KernelSpec, Scale, Workload};

type Gen = Arc<dyn Fn(u64, usize) -> Vec<Instruction> + Send + Sync>;

fn run_workload(w: Workload) -> SimReport {
    let map = DramMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Base, &map, 0);
    GpuSim::new(GpuConfig::table1(), mapper, map, Box::new(w)).run()
}

fn single_kernel(gen: Gen, tbs: u64, warps: usize) -> Workload {
    Workload::new("micro", vec![KernelSpec::new("k", tbs, warps, gen)])
}

#[test]
fn single_coalesced_load() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Load(LaneAddrs::contiguous(0x1000, 32, 4))]);
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.memory_transactions, 1);
    assert_eq!(r.llc.accesses(), 1);
    assert_eq!(r.dram.reads, 1);
    assert_eq!(r.l1.misses, 1);
    // Full path: L1 miss + NoC + LLC miss + DRAM + replies; the cycle
    // count must be in a plausible window, not runaway.
    assert!(r.cycles > 50 && r.cycles < 2_000, "cycles = {}", r.cycles);
}

#[test]
fn l1_filters_repeated_loads() {
    // The same line loaded 8 times by one warp: one LLC access, the rest
    // L1 hits.
    let gen: Gen = Arc::new(|_, _| {
        (0..8)
            .map(|_| Instruction::Load(LaneAddrs::contiguous(0x2000, 32, 4)))
            .collect()
    });
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.llc.accesses(), 1);
    assert_eq!(r.l1.hits, 7);
    assert_eq!(r.dram.reads, 1);
}

#[test]
fn mshr_merges_cross_warp_misses() {
    // Two warps of the same TB load the same cold line in back-to-back
    // cycles: the second merges into the first's MSHR entry, so only one
    // LLC access and one DRAM read happen.
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Load(LaneAddrs::contiguous(0x4000, 32, 4))]);
    let r = run_workload(single_kernel(gen, 1, 2));
    assert_eq!(r.memory_transactions, 2);
    assert_eq!(
        r.dram.reads, 1,
        "merged misses must not duplicate DRAM reads"
    );
    assert!(r.llc.accesses() <= 1);
}

#[test]
fn a_stalled_lookup_is_counted_once() {
    // One MSHR per L1 and per LLC slice, and 48 warps (12 TBs, one per
    // SM) each loading its own line of one slice and one DRAM bank: LSU
    // and slice-input heads stall for hundreds of cycles at a time. A
    // lookup is counted when its transaction leaves the head, however
    // long it waited there.
    const WARPS: u64 = 48;
    let sim = || {
        let gen: Gen = Arc::new(|tb, w| {
            let line = (tb * 4 + w as u64) << 20;
            vec![Instruction::Load(LaneAddrs::contiguous(line, 32, 4))]
        });
        let map = DramMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 0);
        let mut cfg = GpuConfig::table1();
        cfg.l1_mshrs = 1;
        cfg.llc_mshrs = 1;
        GpuSim::new(cfg, mapper, map, Box::new(single_kernel(gen, 12, 4)))
    };
    for r in [sim().run(), sim().run_dense()] {
        assert!(!r.truncated);
        assert!(r.cycles > 1_000, "the heads did stall: {}", r.cycles);
        assert_eq!(r.memory_transactions, WARPS);
        assert_eq!((r.l1.hits, r.l1.misses), (0, WARPS));
        assert_eq!((r.llc.hits, r.llc.misses), (0, WARPS));
        assert_eq!(r.dram.reads, WARPS);
    }
}

#[test]
fn stores_are_write_through_to_dram() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Store(LaneAddrs::contiguous(0x8000, 32, 4))]);
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.dram.writes, 1);
    assert_eq!(r.dram.reads, 0);
    // Stores don't block the warp; the run still drains fully.
    assert!(!r.truncated);
}

#[test]
fn uncoalesced_load_explodes_into_transactions() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Load(LaneAddrs::strided(0, 32, 4096))]);
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.memory_transactions, 32);
    assert_eq!(r.dram.reads, 32);
}

#[test]
fn compute_only_warps_retire_without_memory() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 10 }; 5]);
    let r = run_workload(single_kernel(gen, 4, 2));
    assert!(!r.truncated);
    assert_eq!(r.memory_transactions, 0);
    assert_eq!(r.warp_instructions, 4 * 2 * 5);
    assert!(r.cycles >= 50, "5 dependent 10-cycle chains");
}

#[test]
fn kernels_run_serially() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 100 }]);
    let one = Workload::new("one", vec![KernelSpec::new("k0", 1, 1, gen.clone())]);
    let two = Workload::new(
        "two",
        vec![
            KernelSpec::new("k0", 1, 1, gen.clone()),
            KernelSpec::new("k1", 1, 1, gen),
        ],
    );
    let r1 = run_workload(one);
    let r2 = run_workload(two);
    assert!(
        r2.cycles >= r1.cycles + 100,
        "kernels must not overlap: {} vs {}",
        r2.cycles,
        r1.cycles
    );
    assert_eq!(r2.kernels, 2);
}

#[test]
fn more_tbs_than_slots_still_completes() {
    // 100 TBs of 8 warps on 12 SMs with 6-TB residency: the TB scheduler
    // must stream them through.
    let gen: Gen = Arc::new(|tb, w| {
        vec![Instruction::Load(LaneAddrs::contiguous(
            tb * 65536 + w as u64 * 128,
            32,
            4,
        ))]
    });
    let r = run_workload(single_kernel(gen, 100, 8));
    assert!(!r.truncated);
    assert_eq!(r.memory_transactions, 800);
}

#[test]
fn gto_prefers_greedy_then_oldest() {
    // Indirect check: with many independent compute warps the SM should
    // sustain ~`GpuConfig::ISSUE_WIDTH` instructions per cycle per busy SM.
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 1 }; 50]);
    let r = run_workload(single_kernel(gen, 12, 8));
    let total_insts = 12 * 8 * 50u64;
    assert_eq!(r.warp_instructions, total_insts);
    // 12 TBs land one per SM; each SM has 8 warps and 2 issue slots:
    // the run must be far faster than serial issue.
    assert!(r.cycles < total_insts / 4, "cycles = {}", r.cycles);
}

#[test]
fn write_through_llc_forwards_every_store() {
    // One warp stores to the same line 16 times: the LLC absorbs none of
    // them, so DRAM sees all 16 writes and no read.
    let gen: Gen = Arc::new(|_, _| {
        (0..16)
            .map(|_| Instruction::Store(LaneAddrs::contiguous(0x2000, 32, 4)))
            .collect()
    });
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.dram.writes, 16);
    assert_eq!(r.dram.reads, 0);
    assert!(!r.truncated);
}

#[test]
fn report_labels_carry_workload_and_scheme() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 1 }]);
    let r = run_workload(single_kernel(gen, 1, 1));
    assert_eq!(r.benchmark, "micro");
    assert_eq!(r.scheme, "BASE");
    assert_eq!(r.dram_channels, 4);
    assert_eq!(r.num_sms, 12);
}

/// Builds a one-TB, one-warp, one-instruction machine under `cfg`.
fn build(cfg: GpuConfig) -> GpuSim {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 1 }]);
    let map = DramMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Base, &map, 0);
    GpuSim::new(cfg, mapper, map, Box::new(single_kernel(gen, 1, 1)))
}

/// A transaction record holds an SM index in 16 bits: a machine whose
/// SM indices would not fit is refused at construction, naming the
/// field, instead of silently aliasing SMs.
#[test]
#[should_panic(expected = "num_sms = 70000 does not fit")]
fn an_sm_count_a_transaction_cannot_name_is_refused() {
    let _ = build(GpuConfig::table1().with_sms(70_000));
}

/// More than 64 LLC slices: the stacked machine with two slices per
/// vault (128) builds, and the hint gate agrees with the open gate, which
/// runs the DRAM hand-off every cycle, on a valley and a streaming run.
#[test]
fn a_machine_with_128_llc_slices_runs_gated_as_dense() {
    let cfg = GpuConfig {
        llc_slices: 128,
        ..GpuConfig::stacked()
    };
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Sp, SchemeKind::Pae),
    ] {
        let sim = || {
            let map = DramMap::stacked();
            let mapper = AddressMapper::build(scheme, &map, 1);
            GpuSim::new(
                cfg.clone(),
                mapper,
                map,
                Box::new(bench.workload(Scale::Test)),
            )
        };
        let (fast, dense) = (sim().run(), sim().run_dense());
        assert!(
            fast.memory_transactions > 0,
            "{bench:?}/{scheme:?}: empty run"
        );
        assert_eq!(
            fast.results_json(),
            dense.results_json(),
            "{bench:?}/{scheme:?} on 128 slices"
        );
    }
}

/// A transaction record holds its LLC slice in 8 bits: a
/// machine with more slices is refused at construction, naming the
/// field.
#[test]
#[should_panic(expected = "llc_slices = 257 does not fit a transaction record (at most 256)")]
fn a_slice_index_over_8_bits_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.llc_slices = 257;
    let _ = build(cfg);
}

/// Fewer controllers than slices each own `llc_slices / controllers`
/// slices: 4 channels over 6 slices would leave 2 slices over.
#[test]
#[should_panic(expected = "4 DRAM controllers do not divide llc_slices = 6")]
fn controllers_that_leave_slices_unused_are_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.llc_slices = 6;
    let _ = build(cfg);
}

/// A DRAM queue with no slot refuses every request: a slice's DRAM
/// queue head would wait on it for good and the run idle to its limit.
#[test]
#[should_panic(expected = "dram.queue_capacity = 0: the machine needs at least one")]
fn a_dram_queue_without_slots_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.dram.queue_capacity = 0;
    let _ = build(cfg);
}

/// A machine needs an SM and an LLC slice: a zero count is refused by
/// name at construction, not by a bare assertion inside the crossbar.
#[test]
#[should_panic(expected = "num_sms = 0: the machine needs at least one")]
fn a_machine_without_sms_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.num_sms = 0;
    let _ = build(cfg);
}

/// The same refusal, by name, from the SM-count builder.
#[test]
#[should_panic(expected = "num_sms = 0: the machine needs at least one")]
fn a_zero_sm_count_is_refused_by_the_builder() {
    let _ = GpuConfig::table1().with_sms(0);
}

#[test]
#[should_panic(expected = "llc_slices = 0: the machine needs at least one")]
fn a_machine_without_llc_slices_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.llc_slices = 0;
    let _ = build(cfg);
}

/// A transaction is one line: the L1 and the LLC index by it and a data
/// packet carries it in 32-byte flits behind its header. A `line_bytes`
/// any of them disagrees with is refused by name, not run against
/// caches and packets of another line size. The L1's line and a data
/// packet's are Table I constants that agree at compile time.
#[test]
#[should_panic(expected = "line_bytes = 64 differs from the L1's and a data packet's line = 128")]
fn a_line_size_the_l1_disagrees_with_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.line_bytes = 64;
    let _ = build(cfg);
}

#[test]
#[should_panic(expected = "line_bytes = 128 differs from llc_slice.line_bytes() = 64")]
fn a_line_size_the_llc_disagrees_with_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.llc_slice = CacheConfig::new(64 * 1024, 8, 64);
    let _ = build(cfg);
}

/// A longer line the LLC agrees with is still refused: a data packet
/// carries 128 bytes.
#[test]
#[should_panic(expected = "line_bytes = 256 differs from the L1's and a data packet's line = 128")]
fn a_line_size_a_data_packet_disagrees_with_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.line_bytes = 256;
    cfg.llc_slice = CacheConfig::new(64 * 1024, 8, 256);
    let _ = build(cfg);
}

/// A thread block is resident on one SM. One that cannot fit an empty
/// SM would never be assigned, and the run would idle to its limit
/// and report a truncated run with no instruction: refused at
/// construction, naming the kernel and the limit. Table I's SM holds 48
/// warps of 32 threads.
#[test]
#[should_panic(expected = "kernel 1: 64 warps per thread block exceed MAX_WARPS_PER_SM = 48")]
fn a_thread_block_wider_than_an_sm_in_warps_is_refused() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 1 }]);
    let w = Workload::new(
        "wide",
        vec![
            KernelSpec::new("fits", 1, 48, gen.clone()),
            KernelSpec::new("wide", 1, 64, gen),
        ],
    );
    let _ = run_workload(w);
}

/// The crossbars queue a packet with its injection NoC cycle in 32 bits:
/// a NoC clock whose cycles would pass that before the cycle ceiling is
/// refused. By `GpuSim::CYCLE_CEILING` = 200,000,000 core cycles a
/// 30,065 MHz NoC reaches NoC cycle 4,295,000,000, past `u32::MAX`, and
/// is refused; 30,064 MHz reaches 4,294,857,142 and is accepted.
#[test]
#[should_panic(
    expected = "noc_mhz = 30065 reaches NoC cycle 4295000000 by GpuSim::CYCLE_CEILING = 200000000, past the crossbar's 32-bit injection stamp"
)]
fn a_cycle_limit_past_the_32_bit_noc_stamp_is_refused() {
    let mut cfg = GpuConfig::table1();
    cfg.noc_mhz = 30_065;
    let _ = build(cfg);
}

#[test]
fn the_last_cycle_limit_the_noc_stamp_holds_is_accepted() {
    let mut cfg = GpuConfig::table1();
    cfg.noc_mhz = 30_064;
    let r = build(cfg).run();
    assert!(!r.truncated);
}

/// A cut is at most the ceiling every clock domain was checked against.
#[test]
#[should_panic(expected = "run_to(200000001) is past GpuSim::CYCLE_CEILING = 200000000")]
fn a_cut_past_the_cycle_ceiling_is_refused() {
    let _ = build(GpuConfig::table1()).run_to(GpuSim::CYCLE_CEILING + 1);
}

/// A run only goes forward: a cut behind where it stands is refused.
#[test]
#[should_panic(expected = "run_to(5) is behind the run, which stands at cycle 10")]
fn a_cut_behind_the_run_is_refused() {
    let gen: Gen = Arc::new(|_, _| vec![Instruction::Compute { cycles: 1_000 }]);
    let map = DramMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Base, &map, 0);
    let w = Box::new(single_kernel(gen, 1, 1));
    let mut sim = GpuSim::new(GpuConfig::table1(), mapper, map, w);
    assert!(sim.run_to(10).truncated);
    let _ = sim.run_to(5);
}
