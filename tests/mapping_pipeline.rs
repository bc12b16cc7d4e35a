//! Cross-crate integration: the entropy analysis and the simulator must
//! tell a consistent story, and the power model must react to the
//! simulator's counters the way the paper describes.

use valley::core::{AddressMapper, DramMap, SchemeKind};
use valley::power::dram_power;
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{analysis, Benchmark, Scale};

fn run(bench: Benchmark, scheme: SchemeKind, seed: u64) -> SimReport {
    let map = DramMap::baseline();
    let mapper = AddressMapper::build(scheme, &map, seed);
    GpuSim::new(
        GpuConfig::table1(),
        mapper,
        map,
        Box::new(bench.workload(Scale::Test)),
    )
    .run()
}

#[test]
fn valley_classification_matches_paper_groups() {
    // The entropy analyzer must classify all ten valley benchmarks as
    // valleys and none of the six non-valley ones (Figure 5's split),
    // at reference scale with the paper's window of 12.
    let map = DramMap::baseline();
    let targets = map.target_field_bits();
    let candidates = map.non_block_bits();
    for b in Benchmark::ALL {
        let w = b.workload(Scale::Ref);
        let p = analysis::application_profile(&w, 12, None);
        assert_eq!(
            p.has_valley(&targets, &candidates, 0.25),
            b.has_valley(),
            "{b}: valley classification mismatch (score {:.2})",
            p.valley_score(&targets, &candidates)
        );
    }
}

#[test]
fn pae_lifts_target_bit_entropy_without_touching_rows() {
    let map = DramMap::baseline();
    let targets = map.target_field_bits();
    let mt = Benchmark::Mt.workload(Scale::Test);
    let base = analysis::application_profile(&mt, 12, None);
    let profile = |kind| {
        let mapper = AddressMapper::build(kind, &map, 1);
        analysis::application_profile(&mt, 12, Some(&mapper))
    };
    let pae = profile(SchemeKind::Pae);
    for (kind, p) in [("PAE", &pae), ("FAE", &profile(SchemeKind::Fae))] {
        let (h, floor) = (p.mean_over(&targets), base.mean_over(&targets));
        assert!(h > floor + 0.2, "{kind} {h:.2} vs BASE {floor:.2}");
    }
    // PAE leaves column bits untouched: bits 6,7 and 14..17 identical.
    for b in [6u8, 7, 14, 15, 16, 17] {
        assert!(
            (pae.bit(b) - base.bit(b)).abs() < 1e-9,
            "PAE must not rewrite column bit {b}"
        );
    }
}

#[test]
fn all_rewrites_every_non_block_bit_profile() {
    let map = DramMap::baseline();
    let mt = Benchmark::Mt.workload(Scale::Test);
    let base = analysis::application_profile(&mt, 12, None);
    let all_mapper = AddressMapper::build(SchemeKind::All, &map, 1);
    let all = analysis::application_profile(&mt, 12, Some(&all_mapper));
    // ALL spreads entropy into bits where BASE had none (Figure 10f).
    let lifted = (6..30u8)
        .filter(|&b| all.bit(b) > base.bit(b) + 0.3)
        .count();
    assert!(lifted >= 6, "ALL lifted only {lifted} bits");
}

#[test]
fn activate_counts_drive_activate_power() {
    // The Figure 15 → Figure 16 causal chain: a scheme with a lower
    // row-buffer hit rate must show higher activate power on the same
    // benchmark (comparing the extremes, PAE vs ALL, on SRAD2 whose
    // same-row groups ALL scatters).
    let pae = run(Benchmark::Srad2, SchemeKind::Pae, 1);
    let all = run(Benchmark::Srad2, SchemeKind::All, 1);
    if all.row_buffer_hit_rate() < pae.row_buffer_hit_rate() - 0.05 {
        // More misses -> more ACTs per access.
        let acts_per_access_pae = pae.dram.activates as f64 / pae.dram.accesses() as f64;
        let acts_per_access_all = all.dram.activates as f64 / all.dram.accesses() as f64;
        assert!(
            acts_per_access_all > acts_per_access_pae,
            "ALL {acts_per_access_all:.3} vs PAE {acts_per_access_pae:.3}"
        );
    }
    // Power model monotonicity on raw counters regardless.
    let p = dram_power(&pae);
    assert!(p.total() > p.background);
}

#[test]
fn mapper_latency_is_charged() {
    // BASE has a 0-cycle mapping unit; every other scheme pays 1 cycle
    // on the L1 hit path. On an L1-resident workload the BASE run must
    // not be slower than the identity-with-latency run.
    let map = DramMap::baseline();
    let base = run(Benchmark::Nn, SchemeKind::Base, 0);
    // An identity BIM wrapped as a non-BASE scheme: same mapping, 1-cycle
    // latency.
    let identity = AddressMapper::from_bim(SchemeKind::Rmp, valley::core::Bim::identity(30), 1);
    let slow = GpuSim::new(
        GpuConfig::table1(),
        identity,
        map,
        Box::new(Benchmark::Nn.workload(Scale::Test)),
    )
    .run();
    assert!(slow.cycles >= base.cycles, "latency must cost cycles");
}

#[test]
fn per_channel_load_balance_improves_under_pae() {
    // Count per-channel DRAM accesses directly: the coefficient of
    // variation across channels must shrink under PAE on MT.
    let base = run(Benchmark::Mt, SchemeKind::Base, 0);
    let pae = run(Benchmark::Mt, SchemeKind::Pae, 1);
    assert!(pae.channel_parallelism > base.channel_parallelism);
    // The paper's multiplier effect: total outstanding parallelism is the
    // product of channel- and (per-channel) bank-level parallelism.
    let total = |r: &SimReport| r.channel_parallelism * r.bank_parallelism;
    assert!(
        total(&pae) > total(&base),
        "total parallelism must rise: PAE {:.2} vs BASE {:.2}",
        total(&pae),
        total(&base)
    );
}
