//! The event-driven fast path and the phase-parallel engine must both be
//! *exact* optimizations: for any (benchmark, scheme) pair,
//! `GpuSim::run`, the dense reference loop `GpuSim::run_dense`, and the
//! sharded engine `GpuSim::run_sharded(n, t)` must produce bit-identical
//! results — cycle counts, every counter, and the full `SimReport` JSON
//! — for every shard count and worker-thread count. These tests pin that
//! contract for a spread of workload behaviors: streaming (SP), the
//! paper's headline valley benchmark (MT), and a pointer-chasing random
//! workload (MUM); the randomized cross-product battery lives in
//! `crates/sim/tests/parallel_equivalence.rs`.

use valley::core::{AddressMapper, GddrMap, SchemeKind};
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{Benchmark, Scale};

/// The shard counts the battery pins: even/odd splits of the 12 SMs and
/// 4 memory groups, plus one (7) that leaves some shards without any
/// memory group.
const SHARD_COUNTS: [usize; 4] = [2, 3, 4, 7];

fn build(bench: Benchmark, scheme: SchemeKind) -> GpuSim {
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(scheme, &map, 1);
    GpuSim::new(
        GpuConfig::table1(),
        mapper,
        map,
        Box::new(bench.workload(Scale::Test)),
    )
}

fn assert_equivalent(bench: Benchmark, scheme: SchemeKind) {
    let fast: SimReport = build(bench, scheme).run();
    let dense: SimReport = build(bench, scheme).run_dense();
    let tag = format!("{bench:?}/{scheme:?}");
    assert_eq!(fast.cycles, dense.cycles, "{tag}: cycle count diverged");
    assert_eq!(fast.dram, dense.dram, "{tag}: DRAM stats diverged");
    assert_eq!(fast.l1, dense.l1, "{tag}: L1 stats diverged");
    assert_eq!(fast.llc, dense.llc, "{tag}: LLC stats diverged");
    assert_eq!(
        fast.dram_cycles, dense.dram_cycles,
        "{tag}: DRAM clock diverged"
    );
    assert_eq!(
        fast.warp_instructions, dense.warp_instructions,
        "{tag}: instruction count diverged"
    );
    assert_eq!(
        fast.memory_transactions, dense.memory_transactions,
        "{tag}: transaction count diverged"
    );
    assert_eq!(
        fast.truncated, dense.truncated,
        "{tag}: truncation diverged"
    );
    assert_eq!(fast.kernels, dense.kernels, "{tag}: kernel count diverged");
    // The parallelism integrals are sums of identical integer samples.
    assert_eq!(
        fast.llc_parallelism.to_bits(),
        dense.llc_parallelism.to_bits(),
        "{tag}: LLC parallelism diverged"
    );
    assert_eq!(
        fast.bank_parallelism.to_bits(),
        dense.bank_parallelism.to_bits(),
        "{tag}: bank parallelism diverged"
    );
    // The full results JSON pins every remaining field (floats included
    // — bit-identical inputs serialize to identical digit strings).
    // `results_json` is the canonical byte form of the simulation
    // *results*; the epoch-length histogram is engine telemetry and is
    // the one field allowed to differ between engines.
    assert_eq!(
        fast.results_json(),
        dense.results_json(),
        "{tag}: report JSON diverged"
    );
    // And the fast path must not be a trivial no-op either: the run did
    // real work.
    assert!(
        fast.cycles > 0 && fast.memory_transactions > 0,
        "{tag}: empty run"
    );
    // The dense reference loop has no epochs to report. (`fast` may be
    // either engine — `run()` honors `VALLEY_SIM_THREADS`, and the CI
    // matrix runs this battery under it.)
    assert_eq!(dense.epoch_hist.epochs(), 0, "{tag}: dense epochs?");

    // Phase-parallel engine: every shard count must reproduce the
    // sequential report byte for byte.
    let golden = fast.results_json();
    for shards in SHARD_COUNTS {
        let par = build(bench, scheme).run_sharded(shards, 1);
        assert_eq!(par.cycles, fast.cycles, "{tag}: parallel({shards}) cycles");
        assert_eq!(
            par.results_json(),
            golden,
            "{tag}: parallel({shards}) report JSON diverged from sequential"
        );
        assert!(
            par.epoch_hist.epochs() > 0,
            "{tag}: parallel({shards}) recorded no epochs"
        );
    }
}

#[test]
fn streaming_benchmark_base_scheme() {
    assert_equivalent(Benchmark::Sp, SchemeKind::Base);
}

#[test]
fn valley_benchmark_base_and_pae() {
    assert_equivalent(Benchmark::Mt, SchemeKind::Base);
    assert_equivalent(Benchmark::Mt, SchemeKind::Pae);
}

#[test]
fn random_benchmark_fae_scheme() {
    assert_equivalent(Benchmark::Mum, SchemeKind::Fae);
}

#[test]
fn threaded_transport_is_bit_identical() {
    // Worker threads are pure transport: the same shard count must give
    // the same bytes whether the shards tick inline (threads = 1) or on
    // parked worker threads — including more shards than threads, which
    // exercises the multi-shard-per-worker path.
    let golden = build(Benchmark::Mt, SchemeKind::Pae).run().results_json();
    for (shards, threads) in [(4, 2), (4, 4), (7, 3)] {
        let par = build(Benchmark::Mt, SchemeKind::Pae).run_sharded(shards, threads);
        assert_eq!(
            par.results_json(),
            golden,
            "MT/PAE parallel({shards} shards, {threads} threads) diverged"
        );
    }
}

#[test]
fn fcfs_scheduling_policy_equivalence() {
    // The indexed bank scheduler serves both arbitration policies; pin
    // the FCFS path (the scheduling-orthogonality ablation) end to end.
    let build = || {
        let mut cfg = GpuConfig::table1();
        cfg.dram.policy = valley::dram::SchedulingPolicy::Fcfs;
        let map = GddrMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
        GpuSim::new(
            cfg,
            mapper,
            map,
            Box::new(Benchmark::Mt.workload(Scale::Test)),
        )
    };
    let fast = build().run();
    let dense = build().run_dense();
    assert_eq!(fast.cycles, dense.cycles, "fcfs: cycle count diverged");
    assert_eq!(fast.dram, dense.dram, "fcfs: DRAM stats diverged");
    assert_eq!(fast.llc, dense.llc, "fcfs: LLC stats diverged");
    assert!(fast.cycles > 0 && fast.memory_transactions > 0, "empty run");
    let par = build().run_sharded(4, 1);
    assert_eq!(
        par.results_json(),
        fast.results_json(),
        "fcfs: parallel(4) diverged"
    );
}

#[test]
fn stacked_memory_equivalence() {
    use valley::core::StackedMap;
    let build = || {
        let map = StackedMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Pae, &map, 1);
        GpuSim::new(
            GpuConfig::stacked(),
            mapper,
            map,
            Box::new(Benchmark::Sp.workload(Scale::Test)),
        )
    };
    let fast = build().run();
    let dense = build().run_dense();
    assert_eq!(fast.cycles, dense.cycles, "stacked: cycle count diverged");
    assert_eq!(fast.dram, dense.dram, "stacked: DRAM stats diverged");
    assert_eq!(fast.llc, dense.llc, "stacked: LLC stats diverged");
    // 64 vaults interleave across 8 slices: shards own strided channel
    // sets here, the other memory-group topology.
    for shards in [2, 5, 8] {
        let par = build().run_sharded(shards, 1);
        assert_eq!(
            par.results_json(),
            fast.results_json(),
            "stacked: parallel({shards}) diverged"
        );
    }
}
