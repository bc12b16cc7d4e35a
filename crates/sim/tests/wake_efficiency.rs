//! Wake efficiency of the evented loop, pinned with counts instead of a
//! clock: a unit should be ticked when its state can change and not
//! otherwise (see `valley_sim`'s `wake` module). The counters only
//! exist under `--features wake-audit`; without it this file compiles
//! to nothing.
//!
//! The three cases are the ones the wake-ups were tuned on: MT/BASE is
//! the paper's valley at its worst (one channel saturated, every slice
//! back-pressured, the regime where a slice woken by the wrong event
//! is refused over and over), LPS/BASE is a milder valley with stores,
//! SRAD2/PAE is spread traffic with the most transactions in flight.
#![cfg(feature = "wake-audit")]

use valley_core::{AddressMapper, GddrMap, SchemeKind};
use valley_sim::wake_audit::{take, Counter};
use valley_sim::{GpuConfig, GpuSim};
use valley_workloads::{Benchmark, Scale};

fn assert_wakes_only_for_work(bench: Benchmark, scheme: SchemeKind) {
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(scheme, &map, 1);
    let sim = GpuSim::new(
        GpuConfig::table1(),
        mapper,
        map,
        Box::new(bench.workload(Scale::Small)),
    );
    // Counters are per thread; zero whatever an earlier run left here.
    for c in [
        Counter::Iterations,
        Counter::IdleIterations,
        Counter::SliceTicks,
        Counter::TagAccesses,
        Counter::RefusedEnqueues,
    ] {
        take(c);
    }
    let report = sim.run();
    let tag = format!("{bench:?}/{scheme:?}");
    let iterations = take(Counter::Iterations);
    let idle = take(Counter::IdleIterations);
    let slice_ticks = take(Counter::SliceTicks);
    let tag_accesses = take(Counter::TagAccesses);
    let refused = take(Counter::RefusedEnqueues);
    let issues = report.dram.reads + report.dram.writes;
    eprintln!(
        "{tag}: {} cycles, {iterations} iterations ({idle} idle), {slice_ticks} slice ticks for \
         {tag_accesses} tag accesses, {refused} refused enqueues for {issues} DRAM issues and {} \
         transactions",
        report.cycles, report.memory_transactions
    );
    assert!(iterations > 0 && tag_accesses > 0, "{tag}: nothing counted");
    assert!(
        iterations <= report.cycles,
        "{tag}: more iterations than cycles"
    );
    assert_eq!(idle, 0, "{tag}: iterations in which no unit was due");
    assert!(
        slice_ticks <= 3 * tag_accesses,
        "{tag}: {slice_ticks} effective slice ticks for {tag_accesses} tag accesses"
    );
    assert!(
        refused <= 2 * issues + report.memory_transactions,
        "{tag}: {refused} refused enqueues for {issues} DRAM issues"
    );
}

#[test]
fn saturated_valley_mt_base() {
    assert_wakes_only_for_work(Benchmark::Mt, SchemeKind::Base);
}

#[test]
fn valley_with_stores_lps_base() {
    assert_wakes_only_for_work(Benchmark::Lps, SchemeKind::Base);
}

#[test]
fn spread_traffic_srad2_pae() {
    assert_wakes_only_for_work(Benchmark::Srad2, SchemeKind::Pae);
}
