//! The event-driven fast path must be an *exact* optimization: for any
//! (benchmark, scheme) pair, `GpuSim::run` and the dense reference loop
//! `GpuSim::run_dense` must produce bit-identical results — cycle
//! counts, every counter, and the full `SimReport` JSON, whole and at
//! any cut (`GpuSim::run_to`, `GpuSim::run_dense_to`). These tests pin
//! that contract for a spread of workload behaviors: streaming (SP),
//! the paper's headline valley benchmark (MT), and a pointer-chasing
//! random workload (MUM), on the Table I machine and the 64-vault
//! stacked one; and that a run resumed at a cut reports what a fresh one
//! does.

use valley::core::{AddressMapper, DramMap, SchemeKind};
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{Benchmark, Scale};

fn build(bench: Benchmark, scheme: SchemeKind, scale: Scale) -> GpuSim {
    build_with(
        bench,
        scheme,
        GpuConfig::table1(),
        DramMap::baseline(),
        scale,
    )
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
    assert_reports_match(&fast, &dense, tag);
    assert_nonempty(&fast, tag);
}

/// The fast path must not be a trivial no-op either: the run did real
/// work, so the loops' agreement checked something.
fn assert_nonempty(report: &SimReport, tag: &str) {
    assert!(
        report.cycles > 0 && report.memory_transactions > 0,
        "{tag}: empty run"
    );
}

/// The hint gate's report `fast` equals the open gate's `dense`.
fn assert_reports_match(fast: &SimReport, dense: &SimReport, tag: &str) {
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
}

/// One simulator per loop, advanced together through ascending cuts:
/// the hint gate (`GpuSim::run_to`) and the open gate
/// (`GpuSim::run_dense_to`).
struct Pair {
    fast: GpuSim,
    dense: GpuSim,
    tag: String,
}

impl Pair {
    fn new(build: impl Fn() -> GpuSim, tag: String) -> Self {
        Pair {
            fast: build(),
            dense: build(),
            tag,
        }
    }

    /// Runs both on to `cut` and asserts that they report alike there;
    /// returns the report.
    fn cut_at(&mut self, cut: u64) -> SimReport {
        let fast = self.fast.run_to(cut);
        let dense = self.dense.run_dense_to(cut);
        assert_reports_match(&fast, &dense, &format!("{}, cut at {cut}", self.tag));
        fast
    }
}

/// The seam of a resumable run: a simulator from `build`, resumed
/// through five cuts spread over `0..=end`, reports at each what a fresh
/// simulator run to that cut reports.
fn assert_resumable(build: impl Fn() -> GpuSim, end: u64, tag: &str) {
    let mut resumed = build();
    for k in 0..=4 {
        let cut = end * k / 4;
        let fresh = build().run_to(cut);
        assert_eq!(
            resumed.run_to(cut).results_json(),
            fresh.results_json(),
            "{tag}: resumed to {cut} of {end}"
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

/// The wake audit's three runs at `Scale::Ref`, where DRAM back-pressure
/// and LLC slices waiting on full DRAM queues are the common case rather
/// than the rare one:
/// MT/BASE saturates one channel, LPS/BASE is a milder valley with
/// stores, SRAD2/PAE keeps the most transactions in flight. Each pair is
/// compared at every 100,000-cycle cut up to and past its end. A few
/// seconds in release; CI runs it with `--ignored`.
#[test]
#[ignore = "ref scale: run in release with --ignored"]
fn wake_audit_runs_at_ref_scale() {
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Lps, SchemeKind::Base),
        (Benchmark::Srad2, SchemeKind::Pae),
    ] {
        let tag = format!("{bench:?}/{scheme:?} at ref scale");
        let mut pair = Pair::new(|| build(bench, scheme, Scale::Ref), tag);
        let mut cuts = (1..).map(|k| k * 100_000);
        let mut report = pair.cut_at(cuts.next().unwrap());
        while report.truncated {
            report = pair.cut_at(cuts.next().unwrap());
        }
        assert_nonempty(&report, &pair.tag);
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

/// The 64-vault machine: SP/PAE at test scale, and MT/BASE at
/// `Scale::Ref` cut at core cycle 20,000. In that prefix each of the 8
/// LLC slices hands off to 8 vaults, and a head waiting on a full vault
/// holds up work behind it bound for the other 7: the hand-off's
/// head-of-line wait, its gate opened by DRAM phases and new heads.
#[test]
fn stacked_memory_equivalence() {
    let (stacked, map) = (GpuConfig::stacked(), DramMap::stacked());
    assert_equivalent_with(
        Benchmark::Sp,
        SchemeKind::Pae,
        &stacked,
        map,
        Scale::Test,
        " stacked",
    );
    let (bench, scheme) = (Benchmark::Mt, SchemeKind::Base);
    let tag = format!("{bench:?}/{scheme:?} stacked at ref scale");
    let mut prefix = Pair::new(
        || build_with(bench, scheme, stacked.clone(), map, Scale::Ref),
        tag,
    );
    let report = prefix.cut_at(20_000);
    assert!(report.truncated, "{}: ran to completion", prefix.tag);
    assert_nonempty(&report, &prefix.tag);
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

/// The truncation exit: a run cut at a cycle limit — the fast-forward
/// stopping at it, packets and DRAM bursts cut mid-transfer, each SM's
/// open busy span counted up to the cut — must report what the dense
/// loop reports for the same limit. Each pair of runs is one simulator
/// per loop, resumed from cut to cut. Cut points are spread over the
/// whole run and bracket the untruncated length; the wake audit's three
/// ref runs are cut every 5,000 cycles inside their first DRAM
/// back-pressure.
#[test]
fn truncated_runs_match_dense_at_every_cut() {
    for (bench, scheme, limit) in [
        (Benchmark::Mt, SchemeKind::Base, 20_000),
        (Benchmark::Lps, SchemeKind::Base, 50_000),
        (Benchmark::Srad2, SchemeKind::Pae, 30_000),
    ] {
        let tag = format!("{bench:?}/{scheme:?} at ref scale");
        let mut pair = Pair::new(|| build(bench, scheme, Scale::Ref), tag);
        for cut in (5_000..=limit).step_by(5_000) {
            assert!(
                pair.cut_at(cut).truncated,
                "{}: ran to completion",
                pair.tag
            );
        }
    }
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Sp, SchemeKind::Pae),
        (Benchmark::Mum, SchemeKind::Fae),
        (Benchmark::Lps, SchemeKind::Base),
    ] {
        let full = build(bench, scheme, Scale::Test).run().cycles;
        let step = (full / 100).max(1);
        let cuts = (0..full)
            .step_by(step as usize)
            .chain([full - 1, full, full + 1]);
        let tag = format!("{bench:?}/{scheme:?} of {full}");
        let mut pair = Pair::new(|| build(bench, scheme, Scale::Test), tag);
        for limit in cuts {
            let truncated = pair.cut_at(limit).truncated;
            assert_eq!(truncated, limit < full, "{}, cut at {limit}", pair.tag);
        }
    }
}

/// The seam itself, which the loops' agreement cannot see: both loops
/// keep the same state across a cut, so a fault in what a cut keeps
/// passes `truncated_runs_match_dense_at_every_cut` when both loops
/// share it (a parallelism integrator that restarts at every call does).
/// At five cuts over each run, a resumed simulator reports what a fresh
/// one cut there does: four test-scale runs and the stacked MT/BASE ref
/// prefix.
#[test]
fn a_resumed_run_reports_what_a_fresh_run_cut_there_reports() {
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Sp, SchemeKind::Pae),
        (Benchmark::Mum, SchemeKind::Fae),
        (Benchmark::Lps, SchemeKind::Base),
    ] {
        let sim = || build(bench, scheme, Scale::Test);
        let full = sim().run().cycles;
        assert_resumable(sim, full, &format!("{bench:?}/{scheme:?}"));
    }
    let (bench, scheme) = (Benchmark::Mt, SchemeKind::Base);
    assert_resumable(
        || {
            build_with(
                bench,
                scheme,
                GpuConfig::stacked(),
                DramMap::stacked(),
                Scale::Ref,
            )
        },
        20_000,
        "MT/BASE stacked at ref scale",
    );
}
