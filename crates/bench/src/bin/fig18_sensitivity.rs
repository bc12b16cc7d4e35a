//! Figure 18: performance sensitivity to SM count (12/24/48 with
//! conventional GDDR5) and to 3D-stacked memory (64 SMs, 64 vaults).
//!
//! Paper shape: PAE/FAE/ALL improve performance consistently across SM
//! counts and memory organizations; RMP collapses toward BASE on the
//! 3D-stacked configuration.
//!
//! To keep runtime in check, this sweep uses a 4-benchmark representative
//! subset of the valley group (documented in EXPERIMENTS.md).
//!
//! The whole grid goes through the sweep harness as one multi-config
//! [`SweepSpec`] (`table1` doubles as the 12-SM point, `sms24`/`sms48`
//! are [`ConfigId::Sms`], the rightmost group is [`ConfigId::Stacked`]),
//! so every point lands in — and on re-runs is served from — the shared
//! result store instead of being silently re-simulated.

use std::collections::BTreeMap;
use valley_bench::{hmean, run_spec, DEFAULT_SEED};
use valley_core::SchemeKind;
use valley_harness::{ConfigId, JobOutcome, SweepSpec};
use valley_workloads::{Benchmark, Scale};

const SUBSET: [Benchmark; 4] = [
    Benchmark::Mt,
    Benchmark::Nw,
    Benchmark::Srad2,
    Benchmark::Sp,
];

fn main() {
    let schemes = SchemeKind::ALL_SCHEMES;
    // GpuConfig::table1() has 12 SMs, so the 12-SM point *is* the
    // baseline config — sharing its cache key with every other figure.
    let configs = [
        (ConfigId::Table1, "12 SMs conv. DRAM"),
        (ConfigId::Sms(24), "24 SMs conv. DRAM"),
        (ConfigId::Sms(48), "48 SMs conv. DRAM"),
        (ConfigId::Stacked, "64 SMs 3D DRAM"),
    ];

    let spec = SweepSpec::new(&SUBSET, &schemes, Scale::Ref)
        .with_seeds(&[DEFAULT_SEED])
        .with_configs(&configs.map(|(c, _)| c));
    let jobs = run_spec(&spec);
    let cycles: BTreeMap<(ConfigId, Benchmark, SchemeKind), u64> = jobs
        .iter()
        .map(|j: &JobOutcome| {
            (
                (j.spec.config, j.spec.bench, j.spec.scheme),
                j.report.cycles,
            )
        })
        .collect();

    println!("Figure 18: HMEAN speedup over BASE (subset: MT, NW, SRAD2, SP)\n");
    print!("{:<24}", "config");
    for &s in &schemes {
        print!("{:>8}", s.label());
    }
    println!();

    for (config, label) in configs {
        print!("{label:<24}");
        for &s in &schemes {
            let speedups: Vec<f64> = SUBSET
                .iter()
                .map(|&b| {
                    cycles[&(config, b, SchemeKind::Base)] as f64 / cycles[&(config, b, s)] as f64
                })
                .collect();
            print!("{:>8.2}", hmean(&speedups));
        }
        println!();
    }
    println!("\npaper: consistent PAE/FAE/ALL gains at every SM count; RMP ~ BASE on 3D-stacked");
}
