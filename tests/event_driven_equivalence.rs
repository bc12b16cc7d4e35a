//! The event-driven fast path must be an *exact* optimization: for any
//! (benchmark, scheme) pair, `GpuSim::run` and the dense reference loop
//! `GpuSim::run_dense` must produce bit-identical results — cycle
//! counts, every counter, and the full `SimReport` JSON. These tests pin
//! that contract for a spread of workload behaviors: streaming (SP),
//! the paper's headline valley benchmark (MT), and a pointer-chasing
//! random workload (MUM), on the Table I machine and the 64-vault
//! stacked one.

use valley::core::{AddressMapper, DramMap, SchemeKind};
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{Benchmark, Scale};

fn build(bench: Benchmark, scheme: SchemeKind) -> GpuSim {
    build_with(
        bench,
        scheme,
        GpuConfig::table1(),
        DramMap::baseline(),
        Scale::Test,
    )
}

/// The `scale` workload of `bench` cut at core cycle `max_cycles`. At
/// `Scale::Ref`, a prefix reaches the full DRAM queues and parked slices
/// of a ref run in a fraction of its time.
fn build_limited(bench: Benchmark, scheme: SchemeKind, scale: Scale, max_cycles: u64) -> GpuSim {
    let cfg = GpuConfig {
        max_cycles,
        ..GpuConfig::table1()
    };
    build_with(bench, scheme, cfg, DramMap::baseline(), scale)
}

/// The machine `cfg` over `map` (Table I over the baseline map, or the
/// 64-SM stacked machine over its 64 vaults).
fn build_with(
    bench: Benchmark,
    scheme: SchemeKind,
    cfg: GpuConfig,
    map: DramMap,
    scale: Scale,
) -> GpuSim {
    let mapper = AddressMapper::build(scheme, &map, 1);
    GpuSim::new(cfg, mapper, map, Box::new(bench.workload(scale)))
}

fn assert_equivalent(bench: Benchmark, scheme: SchemeKind) {
    let table1 = GpuConfig::table1();
    assert_equivalent_with(bench, scheme, &table1, DramMap::baseline(), Scale::Test, "");
}

fn assert_equivalent_with(
    bench: Benchmark,
    scheme: SchemeKind,
    cfg: &GpuConfig,
    map: DramMap,
    scale: Scale,
    note: &str,
) {
    assert_same(
        || build_with(bench, scheme, cfg.clone(), map, scale),
        &format!("{bench:?}/{scheme:?}{note}"),
    );
}

/// `run()` and `run_dense()` of the machine `build` makes agree on every
/// counter and on the whole results JSON.
fn assert_same(build: impl Fn() -> GpuSim, tag: &str) {
    let fast: SimReport = build().run();
    let dense: SimReport = build().run_dense();
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

/// The wake audit's three runs at `Scale::Ref`, where DRAM back-pressure
/// and parked LLC slices are the common case rather than the rare one:
/// MT/BASE saturates one channel, LPS/BASE is a milder valley with
/// stores, SRAD2/PAE keeps the most transactions in flight. A few
/// seconds in release; CI runs it with `--ignored`.
#[test]
#[ignore = "ref scale: run in release with --ignored"]
fn wake_audit_runs_at_ref_scale() {
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Lps, SchemeKind::Base),
        (Benchmark::Srad2, SchemeKind::Pae),
    ] {
        assert_equivalent_with(
            bench,
            scheme,
            &GpuConfig::table1(),
            DramMap::baseline(),
            Scale::Ref,
            " at ref scale",
        );
    }
}

/// A DRAM clock above the core clock ticks several DRAM cycles in some
/// core cycles; the evented loop runs it like any other, with no dense
/// fallback.
#[test]
fn dram_clocks_above_the_core_clock() {
    for dram_mhz in [1_500, 2_000, 3_300] {
        let mut cfg = GpuConfig::table1();
        cfg.dram.clock_mhz = dram_mhz;
        assert!(cfg.dram.clock_mhz > GpuConfig::CORE_CLOCK_MHZ);
        for (bench, scheme) in [
            (Benchmark::Mt, SchemeKind::Base),
            (Benchmark::Lps, SchemeKind::Base),
            (Benchmark::Srad2, SchemeKind::Pae),
            (Benchmark::Mum, SchemeKind::All),
        ] {
            assert_equivalent_with(
                bench,
                scheme,
                &cfg,
                DramMap::baseline(),
                Scale::Test,
                &format!(" at DRAM {dram_mhz} MHz"),
            );
        }
    }
}

#[test]
fn stacked_memory_equivalence() {
    assert_equivalent_with(
        Benchmark::Sp,
        SchemeKind::Pae,
        &GpuConfig::stacked(),
        DramMap::stacked(),
        Scale::Test,
        " stacked",
    );
}

/// The 64-vault machine at `Scale::Ref` on the deepest valley (MT/BASE)
/// and a streaming run under PAE. About two seconds in release; CI runs
/// it with `--ignored`.
#[test]
#[ignore = "ref scale: run in release with --ignored"]
fn stacked_runs_at_ref_scale() {
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Sp, SchemeKind::Pae),
    ] {
        assert_equivalent_with(
            bench,
            scheme,
            &GpuConfig::stacked(),
            DramMap::stacked(),
            Scale::Ref,
            " stacked at ref scale",
        );
    }
}

/// The truncation exit: a run cut at the cycle safety limit — the
/// fast-forward stopping at it, packets and DRAM bursts cut
/// mid-transfer, each SM's open busy span counted up to the cut — must
/// report what the dense loop reports for the same limit. Cut points are
/// spread over the whole run and bracket the untruncated length; the
/// wake audit's three ref runs are cut early, inside their first DRAM
/// back-pressure.
#[test]
fn truncated_runs_match_dense_at_every_cut() {
    for (bench, scheme, limit) in [
        (Benchmark::Mt, SchemeKind::Base, 20_000),
        (Benchmark::Lps, SchemeKind::Base, 50_000),
        (Benchmark::Srad2, SchemeKind::Pae, 30_000),
    ] {
        let fast = build_limited(bench, scheme, Scale::Ref, limit).run();
        let dense = build_limited(bench, scheme, Scale::Ref, limit).run_dense();
        let tag = format!("{bench:?}/{scheme:?} at ref scale, cut at {limit}");
        assert!(fast.truncated, "{tag}: ran to completion");
        assert_eq!(fast.results_json(), dense.results_json(), "{tag}");
    }
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Sp, SchemeKind::Pae),
        (Benchmark::Mum, SchemeKind::Fae),
        (Benchmark::Lps, SchemeKind::Base),
    ] {
        let full = build(bench, scheme).run().cycles;
        let step = (full / 100).max(1);
        let cuts = (0..full)
            .step_by(step as usize)
            .chain([full - 1, full, full + 1]);
        for limit in cuts {
            let fast = build_limited(bench, scheme, Scale::Test, limit).run();
            let dense = build_limited(bench, scheme, Scale::Test, limit).run_dense();
            let tag = format!("{bench:?}/{scheme:?} cut at {limit} of {full}");
            assert_eq!(fast.truncated, dense.truncated, "{tag}: truncation");
            assert_eq!(fast.truncated, limit < full, "{tag}: truncated flag");
            assert_eq!(fast.results_json(), dense.results_json(), "{tag}");
        }
    }
}
