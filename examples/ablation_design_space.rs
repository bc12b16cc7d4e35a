//! Ablation: the Broad-BIM design space beyond the paper.
//!
//! (a) **Input density** — how many page-address bits each channel/bank
//!     output row XORs together. The paper samples each input with
//!     probability 1/2 (expected 9 of 18); here we pin the row weight to
//!     2/4/6/9/12/18 and measure both the speedup and the XOR-gate cost,
//!     exposing the robustness-vs-hardware-cost trade-off behind the
//!     paper's "harvest entropy from broad ranges" argument.
//!
//! (b) **Profile-guided harvesting** — an extension: include each input
//!     bit with probability proportional to its *measured* window entropy
//!     instead of uniformly. With enough density the uniform scheme
//!     already saturates, so guidance mainly helps at low densities.
//!
//! Run with: `cargo run --release --example ablation_design_space`

mod common;

use common::{hmean, run};
use valley::core::{AddressMapper, GddrMap, SchemeKind};
use valley::harness::DEFAULT_SEED;
use valley::sim::GpuConfig;
use valley::workloads::{analysis, Benchmark, Scale};

const SUBSET: [Benchmark; 3] = [Benchmark::Mt, Benchmark::Nw, Benchmark::Sp];

fn main() {
    let map = GddrMap::baseline();
    let mut base_cycles = std::collections::BTreeMap::new();
    for b in SUBSET {
        eprintln!("  BASE / {b} ...");
        let base = AddressMapper::build(SchemeKind::Base, &map, 0);
        base_cycles.insert(b, run(b, base, GpuConfig::table1()).cycles);
    }
    let speedup_of = |mapper: AddressMapper| {
        let gates = mapper.bim().xor_gate_count();
        let mut speedups = Vec::new();
        for b in SUBSET {
            let r = run(b, mapper.clone(), GpuConfig::table1());
            speedups.push(base_cycles[&b] as f64 / r.cycles as f64);
        }
        (hmean(&speedups), gates)
    };

    println!("Ablation (a): PAE input density (subset: MT, NW, SP)");
    println!("{:<10}{:>10}{:>12}", "density", "speedup", "XOR gates");
    for density in [2usize, 4, 6, 9, 12, 17] {
        eprintln!("  density {density} ...");
        let (s, g) = speedup_of(AddressMapper::pae_with_density(&map, DEFAULT_SEED, density));
        println!("{:<10}{:>10.2}{:>12}", density, s, g);
    }
    let (s, g) = speedup_of(AddressMapper::build(SchemeKind::Pae, &map, DEFAULT_SEED));
    println!("{:<10}{:>10.2}{:>12}", "paper", s, g);

    println!("\nAblation (b): profile-guided vs uniform harvesting");
    println!("{:<22}{:>10}{:>12}", "variant", "speedup", "XOR gates");
    // Derive per-bit weights from the subset's aggregate BASE profiles.
    let profiles: Vec<_> = SUBSET
        .iter()
        .map(|b| analysis::application_profile(&b.workload(Scale::Ref), 12, None))
        .collect();
    let global = valley::core::entropy::global_mean_profile(&profiles);
    for (name, mapper) in [
        (
            "uniform PAE",
            AddressMapper::build(SchemeKind::Pae, &map, DEFAULT_SEED),
        ),
        (
            "guided PAE",
            AddressMapper::guided(SchemeKind::Pae, &map, global.per_bit(), DEFAULT_SEED),
        ),
        (
            "uniform FAE",
            AddressMapper::build(SchemeKind::Fae, &map, DEFAULT_SEED),
        ),
        (
            "guided FAE",
            AddressMapper::guided(SchemeKind::Fae, &map, global.per_bit(), DEFAULT_SEED),
        ),
    ] {
        eprintln!("  {name} ...");
        let (s, g) = speedup_of(mapper);
        println!("{:<22}{:>10.2}{:>12}", name, s, g);
    }
}
