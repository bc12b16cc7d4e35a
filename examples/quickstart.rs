//! Quickstart: build the paper's PAE address mapper, inspect what it does
//! to a pathological (column-major) access stream, then run the full GPU
//! simulator on the Matrix Transpose benchmark under BASE and PAE and
//! compare.
//!
//! Run with: `cargo run --release --example quickstart`

use valley::core::{AddressMapper, DramMap, PhysAddr, SchemeKind};
use valley::sim::{GpuConfig, GpuSim};
use valley::workloads::{Benchmark, Scale};

fn main() {
    // 1. The baseline Hynix GDDR5 address map (Figure 4) and the PAE
    //    mapping scheme built for it.
    let dram = DramMap::baseline();
    let base = AddressMapper::build(SchemeKind::Base, &dram, 0);
    let pae = AddressMapper::build(SchemeKind::Pae, &dram, 1);

    // 2. A column-major walk striding whole DRAM rows (256 KiB apart):
    //    under BASE every access lands in channel 0; PAE harvests the
    //    row-bit entropy and spreads the stream.
    println!("column-major stream, (channel, bank) under BASE vs PAE:");
    for i in 0..16u64 {
        let addr = PhysAddr::new(i * 256 * 1024);
        let (b, p) = (base.map(addr), pae.map(addr));
        println!(
            "  addr {:#010x} -> BASE (ch {}, bank {:2})  |  PAE (ch {}, bank {:2})",
            addr.raw(),
            dram.controller_of(b),
            dram.bank_of(b),
            dram.controller_of(p),
            dram.bank_of(p),
        );
    }

    // 3. The mapping is a bijection: unmap recovers the original address.
    let a = PhysAddr::new(0x1234_5678 & 0x3fff_ffff);
    assert_eq!(pae.unmap(pae.map(a)), a);
    println!("\nround-trip check passed: PAE is one-to-one");

    // 4. Run the full simulator on MT (Table II) under both schemes.
    //    `Scale::Test` keeps this example fast; the experiment harness
    //    uses `Scale::Ref`.
    println!("\nsimulating MT (test scale) ...");
    let run = |kind: SchemeKind, seed: u64| {
        let mapper = AddressMapper::build(kind, &dram, seed);
        let workload = Box::new(Benchmark::Mt.workload(Scale::Test));
        GpuSim::new(GpuConfig::table1(), mapper, dram, workload).run()
    };
    let r_base = run(SchemeKind::Base, 0);
    let r_pae = run(SchemeKind::Pae, 1);
    println!(
        "  BASE: {:>9} cycles, row-buffer hit rate {:>5.1}%, channel parallelism {:.2}",
        r_base.cycles,
        r_base.row_buffer_hit_rate() * 100.0,
        r_base.channel_parallelism
    );
    println!(
        "  PAE : {:>9} cycles, row-buffer hit rate {:>5.1}%, channel parallelism {:.2}",
        r_pae.cycles,
        r_pae.row_buffer_hit_rate() * 100.0,
        r_pae.channel_parallelism
    );
    println!("  speedup: {:.2}x", r_pae.speedup_over(&r_base));
}
