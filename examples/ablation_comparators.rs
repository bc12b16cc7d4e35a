//! Ablation: extra Remap-strategy comparators from the related work.
//!
//! * **MOP** — minimalist open-page (Kaseridis et al.), the paper's cited
//!   Remap instance: channel/bank bits move just above the block offset.
//!   Great for streaming (CPU-style) access; on GPU valley workloads the
//!   bits it promotes are often as starved as the originals.
//! * **RMP-profile** — RMP re-derived from *this suite's* measured global
//!   entropy profile instead of the paper's fixed bits 8-11/15/16,
//!   showing how fragile static remapping is to the profiling set.
//!
//! Run with: `cargo run --release --example ablation_comparators`

mod common;

use common::{hmean, run};
use valley::core::{AddressMapper, DramAddressMap, GddrMap, SchemeKind};
use valley::harness::DEFAULT_SEED;
use valley::sim::GpuConfig;
use valley::workloads::{analysis, Benchmark, Scale};

const SUBSET: [Benchmark; 4] = [
    Benchmark::Mt,
    Benchmark::Nw,
    Benchmark::Srad2,
    Benchmark::Sp,
];

fn main() {
    let map = GddrMap::baseline();
    let mut base_cycles = std::collections::BTreeMap::new();
    for b in SUBSET {
        eprintln!("  BASE / {b} ...");
        let base = AddressMapper::build(SchemeKind::Base, &map, 0);
        base_cycles.insert(b, run(b, base, GpuConfig::table1()).cycles);
    }
    let eval = |name: &str, mapper: AddressMapper| {
        let mut speedups = Vec::new();
        for b in SUBSET {
            eprintln!("  {name} / {b} ...");
            let r = run(b, mapper.clone(), GpuConfig::table1());
            speedups.push(base_cycles[&b] as f64 / r.cycles as f64);
        }
        println!("{:<14}{:>10.2}", name, hmean(&speedups));
    };

    // Derive this suite's own global-entropy hot bits for RMP.
    let profiles: Vec<_> = SUBSET
        .iter()
        .map(|b| analysis::application_profile(&b.workload(Scale::Ref), 12, None))
        .collect();
    let global = valley::core::entropy::global_mean_profile(&profiles);
    let hot = global.top_bits(&map.non_block_bits(), map.target_field_bits().len());
    println!("suite-derived RMP hot bits: {hot:?} (paper used 8-11, 15, 16)\n");

    println!("{:<14}{:>10}", "scheme", "HMEAN");
    eval("MOP", AddressMapper::minimalist_open_page(&map));
    eval("RMP-paper", AddressMapper::build(SchemeKind::Rmp, &map, 0));
    eval("RMP-profile", AddressMapper::rmp_from_hot_bits(&map, &hot));
    eval("PM", AddressMapper::build(SchemeKind::Pm, &map, 0));
    eval(
        "PAE",
        AddressMapper::build(SchemeKind::Pae, &map, DEFAULT_SEED),
    );
    println!("\nexpected: all static remaps trail PAE; a better profile helps RMP");
    println!("but cannot adapt to per-application valleys (the paper's argument).");
}
