//! End-to-end integration tests: the full pipeline (workload → coalescer
//! → mapper → L1 → NoC → LLC → DRAM) at test scale.

use valley::core::{AddressMapper, GddrMap, SchemeKind, StackedMap};
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{Benchmark, Scale};

fn run(bench: Benchmark, scheme: SchemeKind, seed: u64) -> SimReport {
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(scheme, &map, seed);
    let sim = GpuSim::new(
        GpuConfig::table1(),
        mapper,
        map,
        Box::new(bench.workload(Scale::Test)),
    );
    sim.run()
}

#[test]
fn every_benchmark_terminates_under_every_scheme() {
    for bench in Benchmark::ALL {
        let mut work = None;
        for scheme in SchemeKind::ALL_SCHEMES {
            let r = run(bench, scheme, 1);
            assert!(!r.truncated, "{bench}/{scheme} hit the cycle limit");
            assert!(r.cycles > 0);
            assert!(r.warp_instructions > 0, "{bench}: no instructions issued");
            assert!(r.memory_transactions > 0, "{bench}: no memory traffic");

            let at = format!("{bench}/{scheme}");
            assert_eq!(
                r.thread_instructions,
                32 * r.warp_instructions,
                "{at}: 32 threads per warp instruction"
            );

            // The paper's premise: a mapping moves *where* requests go,
            // never *how many* there are.
            let this = (r.warp_instructions, r.memory_transactions, r.kernels);
            assert_eq!(
                *work.get_or_insert(this),
                this,
                "{at}: (warp instructions, transactions, kernels) moved with the scheme"
            );
        }
    }
}

#[test]
fn metrics_are_sane() {
    for bench in [Benchmark::Mt, Benchmark::Mum, Benchmark::Gs] {
        let r = run(bench, SchemeKind::Pae, 1);
        assert!(
            (0.0..=1.0).contains(&r.llc_miss_rate()),
            "{bench} miss rate"
        );
        assert!(
            (0.0..=1.0).contains(&r.row_buffer_hit_rate()),
            "{bench} row hit rate"
        );
        assert!((0.0..=1.0).contains(&r.sm_busy_fraction));
        assert!(r.noc_latency >= 0.0);
        assert!(r.llc_parallelism >= 0.0 && r.llc_parallelism <= 8.0);
        assert!(r.channel_parallelism >= 0.0 && r.channel_parallelism <= 4.0);
        assert!(r.bank_parallelism >= 0.0 && r.bank_parallelism <= 16.0);
        // Conservation: a transaction is looked up in the LLC at most
        // once, and every DRAM read fetches a line some lookup missed.
        assert!(r.llc.accesses() <= r.memory_transactions);
        assert!(r.dram.reads <= r.llc.misses);
        // L1 sees at least as many accesses as LLC load traffic.
        assert!(r.l1.accesses() > 0);
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run(Benchmark::Sc, SchemeKind::Fae, 7);
    let b = run(Benchmark::Sc, SchemeKind::Fae, 7);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.memory_transactions, b.memory_transactions);
    assert_eq!(a.dram.activates, b.dram.activates);
    assert_eq!(a.llc.misses, b.llc.misses);
}

#[test]
fn pae_beats_base_on_valley_benchmarks() {
    // The headline result, at test scale, for the two motivating
    // benchmarks of the paper's Figure 12 left panel.
    for bench in [Benchmark::Mt, Benchmark::Nw] {
        let base = run(bench, SchemeKind::Base, 0);
        let pae = run(bench, SchemeKind::Pae, 1);
        let speedup = pae.speedup_over(&base);
        assert!(
            speedup > 1.5,
            "{bench}: PAE speedup {speedup:.2} too small at test scale"
        );
    }
}

#[test]
fn mapping_barely_moves_non_valley_benchmarks() {
    let base = run(Benchmark::Lm, SchemeKind::Base, 0);
    let pae = run(Benchmark::Lm, SchemeKind::Pae, 1);
    let speedup = pae.speedup_over(&base);
    assert!(
        (0.7..=1.4).contains(&speedup),
        "LM should be mapping-insensitive, got {speedup:.2}"
    );
}

#[test]
fn pae_raises_channel_parallelism_on_mt() {
    let base = run(Benchmark::Mt, SchemeKind::Base, 0);
    let pae = run(Benchmark::Mt, SchemeKind::Pae, 1);
    assert!(
        pae.channel_parallelism > base.channel_parallelism + 0.5,
        "PAE {:.2} vs BASE {:.2}",
        pae.channel_parallelism,
        base.channel_parallelism
    );
    assert!(pae.noc_latency < base.noc_latency);
}

#[test]
fn stacked_memory_configuration_runs() {
    let map = StackedMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Pae, &map, 1);
    let sim = GpuSim::new(
        GpuConfig::stacked(),
        mapper,
        map,
        Box::new(Benchmark::Sp.workload(Scale::Test)),
    );
    let r = sim.run();
    assert!(!r.truncated);
    assert_eq!(r.dram_channels, 64);
    assert!(r.cycles > 0);
}

#[test]
fn sm_count_sweep_runs() {
    for sms in [12usize, 24, 48] {
        let map = GddrMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Fae, &map, 1);
        let sim = GpuSim::new(
            GpuConfig::table1().with_sms(sms),
            mapper,
            map,
            Box::new(Benchmark::Hs.workload(Scale::Test)),
        );
        let r = sim.run();
        assert!(!r.truncated, "{sms} SMs truncated");
        assert_eq!(r.num_sms, sms);
    }
}
