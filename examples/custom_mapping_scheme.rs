//! Designing a custom mapping scheme with the BIM toolkit: build a
//! hand-crafted Binary Invertible Matrix, verify its algebraic
//! properties (invertibility, hardware cost), and race it against the
//! paper's schemes on a real benchmark.
//!
//! Run with: `cargo run --release --example custom_mapping_scheme`

use valley::core::{AddressMapper, Bim, DramMap, SchemeKind};
use valley::sim::{GpuConfig, GpuSim};
use valley::workloads::{Benchmark, Scale};

fn main() {
    let dram = DramMap::baseline();

    // A hand-built Broad-strategy BIM: each channel/bank output bit XORs
    // its own bit with two row bits chosen by hand (a "poor man's PAE").
    let mut bim = Bim::identity(30);
    let row_bits = dram.row_bits();
    for (k, &t) in dram.target_field_bits().iter().enumerate() {
        let r1 = row_bits[(2 * k) % row_bits.len()];
        let r2 = row_bits[(2 * k + 5) % row_bits.len()];
        bim.set_row(t, (1u64 << t) | (1u64 << r1) | (1u64 << r2));
    }
    assert!(bim.is_invertible(), "hand-built BIM must stay invertible");
    println!("custom BIM:");
    println!("  XOR gates:      {}", bim.xor_gate_count());
    println!("  XOR tree depth: {}", bim.xor_tree_depth());
    println!("  decode matrix exists: {}", bim.inverse().is_some());

    let custom = AddressMapper::from_bim(SchemeKind::Pae, bim, 1);

    // Race it on NW (test scale) against BASE, PM and the real PAE.
    let bench = Benchmark::Nw;
    println!("\nsimulating {} (test scale) ...", bench.label());
    let run = |mapper: AddressMapper| {
        let workload = Box::new(bench.workload(Scale::Test));
        GpuSim::new(GpuConfig::table1(), mapper, dram, workload).run()
    };
    let base = run(AddressMapper::build(SchemeKind::Base, &dram, 0));
    let contenders = [
        ("PM", run(AddressMapper::build(SchemeKind::Pm, &dram, 0))),
        ("PAE", run(AddressMapper::build(SchemeKind::Pae, &dram, 1))),
        ("custom", run(custom)),
    ];
    println!("  {:<8}{:>10}{:>10}", "scheme", "cycles", "speedup");
    println!("  {:<8}{:>10}{:>10.2}", "BASE", base.cycles, 1.0);
    for (name, r) in contenders {
        println!(
            "  {:<8}{:>10}{:>10.2}",
            name,
            r.cycles,
            r.speedup_over(&base)
        );
    }
}
