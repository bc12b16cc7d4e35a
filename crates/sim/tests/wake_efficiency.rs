//! Wake efficiency of the evented loop, pinned with counts instead of a
//! clock: a unit should be ticked when its state can change and not
//! otherwise (see `valley_sim`'s `wake` module). The counters only
//! exist under `--features wake-audit`; without it this file compiles
//! to nothing.
//!
//! The three cases are the ones the wake-ups were tuned on, at
//! `Scale::Ref`, where back-pressure is real: MT/BASE is the paper's
//! valley at its worst (one channel saturated, every slice's DRAM
//! queue backed up behind it), LPS/BASE is a milder valley with stores,
//! SRAD2/PAE is spread traffic with the most transactions in flight. A
//! slice is not woken for its DRAM queue (the drive loop's hand-off
//! pass drains it), so effective slice ticks stay close to tag
//! accesses.
//!
//! Each count is pinned exactly. A change to when a unit wakes moves
//! one of them, and the diff of this file then shows by how much; the
//! bounds below say which direction is a regression.
#![cfg(feature = "wake-audit")]

use valley_core::{AddressMapper, DramMap, SchemeKind};
use valley_sim::wake_audit::{take, Counter};
use valley_sim::{GpuConfig, GpuSim, WorkloadSource};
use valley_workloads::{Benchmark, Scale};

/// What one evented run counted.
#[derive(Debug, PartialEq, Eq)]
struct Wakes {
    iterations: u64,
    idle_iterations: u64,
    slice_ticks: u64,
    tag_accesses: u64,
    scheduler_passes: u64,
}

fn assert_wakes(bench: Benchmark, scheme: SchemeKind, want: Wakes) {
    let map = DramMap::baseline();
    let mapper = AddressMapper::build(scheme, &map, 1);
    let workload = bench.workload(Scale::Ref);
    let kernels = workload.num_kernels() as u64;
    let tbs: u64 = (0..workload.num_kernels())
        .map(|k| workload.kernel(k).num_thread_blocks())
        .sum();
    let sim = GpuSim::new(GpuConfig::table1(), mapper, map, Box::new(workload));
    // Counters are per thread; zero whatever an earlier run left here.
    for c in [
        Counter::Iterations,
        Counter::IdleIterations,
        Counter::SliceTicks,
        Counter::TagAccesses,
        Counter::SchedulerPasses,
    ] {
        take(c);
    }
    let report = sim.run();
    let tag = format!("{bench:?}/{scheme:?}");
    let got = Wakes {
        iterations: take(Counter::Iterations),
        idle_iterations: take(Counter::IdleIterations),
        slice_ticks: take(Counter::SliceTicks),
        tag_accesses: take(Counter::TagAccesses),
        scheduler_passes: take(Counter::SchedulerPasses),
    };
    let issues = report.dram.reads + report.dram.writes;
    eprintln!(
        "{tag}: {} cycles, {got:?}, {issues} DRAM issues, {} transactions",
        report.cycles, report.memory_transactions
    );
    assert!(
        got.iterations <= report.cycles,
        "{tag}: more iterations than cycles"
    );
    assert_eq!(
        got.idle_iterations, 0,
        "{tag}: iterations in which no unit was due"
    );
    assert!(
        got.slice_ticks <= 3 * got.tag_accesses,
        "{tag}: {} effective slice ticks for {} tag accesses",
        got.slice_ticks,
        got.tag_accesses
    );
    // A pass runs at the first load, in a cycle that retired a TB, and
    // in the cycle after a finished kernel.
    assert!(
        got.scheduler_passes <= tbs + kernels + 1,
        "{tag}: {} scheduler passes for {tbs} thread blocks in {kernels} kernels",
        got.scheduler_passes
    );
    assert_eq!(got, want, "{tag}: the wake-up counts moved");
}

#[test]
fn saturated_valley_mt_base() {
    assert_wakes(
        Benchmark::Mt,
        SchemeKind::Base,
        Wakes {
            iterations: 409_522,
            idle_iterations: 0,
            slice_ticks: 136_472,
            tag_accesses: 136_464,
            scheduler_passes: 514,
        },
    );
}

#[test]
fn valley_with_stores_lps_base() {
    assert_wakes(
        Benchmark::Lps,
        SchemeKind::Base,
        Wakes {
            iterations: 436_813,
            idle_iterations: 0,
            slice_ticks: 153_060,
            tag_accesses: 151_953,
            scheduler_passes: 2_038,
        },
    );
}

#[test]
fn spread_traffic_srad2_pae() {
    assert_wakes(
        Benchmark::Srad2,
        SchemeKind::Pae,
        Wakes {
            iterations: 522_064,
            idle_iterations: 0,
            slice_ticks: 532_777,
            tag_accesses: 519_598,
            scheduler_passes: 397,
        },
    );
}
