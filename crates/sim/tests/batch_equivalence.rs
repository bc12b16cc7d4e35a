//! `BatchSim::run` is its lanes in order: one report per lane, each
//! equal to that lane's own sequential run — for lanes that share
//! nothing, not even the machine's clocks.

use std::sync::Arc;
use valley_core::{AddressMapper, GddrMap, SchemeKind};
use valley_sim::{BatchSim, GpuConfig, GpuSim, Instruction, LaneAddrs};
use valley_workloads::{KernelSpec, Workload};

/// A splitmix-style hash: cheap, deterministic instruction streams.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One kernel of `tbs` single-warp TBs, each a short stream of loads,
/// stores and compute derived from `seed`.
fn micro_workload(seed: u64, tbs: u64) -> Workload {
    let gen = Arc::new(move |tb: u64, warp: usize| {
        let mut s = mix(seed ^ tb.wrapping_mul(0x1_0001) ^ (warp as u64));
        (0..1 + s % 10)
            .map(|_| {
                s = mix(s);
                let base = (s >> 8) % (1 << 22);
                match s % 3 {
                    0 => Instruction::Load(LaneAddrs::strided(base, 16, 128 << ((s >> 32) % 5))),
                    1 => Instruction::Store(LaneAddrs::contiguous(base, 32, 4)),
                    _ => Instruction::Compute {
                        cycles: 1 + (s >> 16) as u32 % 8,
                    },
                }
            })
            .collect()
    });
    Workload::new(
        format!("micro-{seed}"),
        vec![KernelSpec::new("k0", tbs, 1, gen)],
    )
}

/// Lane `l`: its own workload, mapper seed and core clock.
fn build_lane(l: u64) -> GpuSim {
    let mut cfg = GpuConfig::table1().with_sms(2);
    cfg.core_clock_ghz += 0.1 * l as f64;
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Fae, &map, l);
    GpuSim::new(cfg, mapper, map, Box::new(micro_workload(l, 3 + l)))
}

#[test]
fn batch_reports_are_the_solo_reports_in_lane_order() {
    const LANES: u64 = 4;
    let reports = BatchSim::new((0..LANES).map(build_lane).collect()).run();
    assert_eq!(reports.len(), LANES as usize);
    for (l, batched) in (0..LANES).zip(&reports) {
        let solo = build_lane(l).run();
        assert!(solo.cycles > 0, "lane {l} simulated nothing");
        assert_eq!(batched.benchmark, format!("micro-{l}"), "lane order");
        assert_eq!(batched.results_json(), solo.results_json(), "lane {l}");
    }
}
