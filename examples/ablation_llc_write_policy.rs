//! Ablation: LLC write policy (write-through vs write-back).
//!
//! This reproduction's baseline LLC is write-through/no-allocate, which
//! forwards every store to DRAM (DESIGN.md §2.6 flags the resulting DRAM
//! write inflation). A write-back/write-validate LLC filters repeated
//! stores but emits dirty-eviction writebacks. The interesting question
//! for the paper's thesis: does the mapping-scheme ordering survive the
//! policy change? (It should — the valley is in the *addresses*, not in
//! the write policy.)
//!
//! Run with: `cargo run --release --example ablation_llc_write_policy`

mod common;

use common::{hmean, run};
use valley::core::{AddressMapper, GddrMap, SchemeKind};
use valley::harness::DEFAULT_SEED;
use valley::power::DramPowerModel;
use valley::sim::{GpuConfig, LlcWritePolicy};
use valley::workloads::Benchmark;

const SUBSET: [Benchmark; 3] = [Benchmark::Mt, Benchmark::Srad2, Benchmark::Dwt2d];

fn main() {
    let map = GddrMap::baseline();
    let model = DramPowerModel::gddr5();

    println!("Ablation: LLC write policy (subset: MT, SRAD2, DWT2D — store-heavy)\n");
    println!(
        "{:<15}{:<8}{:>12}{:>14}{:>14}",
        "LLC policy", "scheme", "HMEAN spd", "DRAM writes", "DRAM power W"
    );
    for (policy, pname) in [
        (LlcWritePolicy::WriteThrough, "write-through"),
        (LlcWritePolicy::WriteBack, "write-back"),
    ] {
        let cfg = GpuConfig::table1().with_llc_write_policy(policy);
        let mut base_cycles = std::collections::BTreeMap::new();
        for b in SUBSET {
            eprintln!("  {pname} / BASE / {b} ...");
            let r = run(
                b,
                AddressMapper::build(SchemeKind::Base, &map, 0),
                cfg.clone(),
            );
            base_cycles.insert(b, r.cycles);
        }
        for scheme in [
            SchemeKind::Base,
            SchemeKind::Pm,
            SchemeKind::Pae,
            SchemeKind::Fae,
        ] {
            let mut speedups = Vec::new();
            let mut writes = 0u64;
            let mut power = Vec::new();
            for b in SUBSET {
                eprintln!("  {pname} / {scheme} / {b} ...");
                let r = run(
                    b,
                    AddressMapper::build(scheme, &map, DEFAULT_SEED),
                    cfg.clone(),
                );
                speedups.push(base_cycles[&b] as f64 / r.cycles as f64);
                writes += r.dram.writes;
                power.push(model.evaluate(&r).total());
            }
            println!(
                "{:<15}{:<8}{:>12.2}{:>14}{:>14.1}",
                pname,
                scheme.label(),
                hmean(&speedups),
                writes,
                power.iter().sum::<f64>() / power.len() as f64
            );
        }
    }
    println!("\nexpected: write-back cuts DRAM writes; PAE > PM > BASE under both policies");
}
