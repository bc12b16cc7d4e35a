//! Entropy analysis of a user-defined workload: define a custom kernel
//! with the `valley_workloads` building blocks, compute its window-based
//! entropy profile (Section III), detect the entropy valley, and show how
//! the PAE mapping lifts it (the Figure 5 → Figure 10 pipeline for your
//! own code).
//!
//! Run with: `cargo run --release --example entropy_analysis`

use std::sync::Arc;
use valley::core::{AddressMapper, DramMap, SchemeKind};
use valley::sim::{Instruction, LaneAddrs};
use valley::workloads::{analysis, KernelSpec, Workload};

fn main() {
    // A column-major kernel: warp lanes stride by a 4 KiB row pitch, and
    // consecutive TBs work on columns 1 MiB apart — the classic valley.
    let gen = Arc::new(|tb: u64, warp: usize| -> Vec<Instruction> {
        let base = tb * (1 << 20) + warp as u64 * 32 * 4096;
        vec![
            Instruction::Load(LaneAddrs::strided(base, 32, 4096)),
            Instruction::Compute { cycles: 4 },
            Instruction::Store(LaneAddrs::strided(base, 32, 4096)),
        ]
    });
    let workload = Workload::new(
        "custom-column-walk",
        vec![KernelSpec::new("colwalk", 64, 8, gen)],
    );

    let dram = DramMap::baseline();
    let targets = dram.target_field_bits();
    let candidates = dram.non_block_bits();
    let window = 12; // TBs co-executing, the paper's SM-count heuristic

    // Profile under the BASE map.
    let profile = analysis::application_profile(&workload, window, None);
    println!("per-bit entropy under BASE (bits 29..6, MSB left):");
    print!("{}", profile.ascii_chart(6, 29));
    println!(
        "mean entropy over channel/bank bits (8-13): {:.2}",
        profile.mean_over(&targets)
    );
    println!(
        "valley score: {:.2} -> {}",
        profile.valley_score(&targets, &candidates),
        if profile.has_valley(&targets, &candidates, 0.25) {
            "ENTROPY VALLEY"
        } else {
            "no valley"
        }
    );

    // Same workload seen through the PAE mapper.
    let pae = AddressMapper::build(SchemeKind::Pae, &dram, 1);
    let mapped = analysis::application_profile(&workload, window, Some(&pae));
    println!("\nper-bit entropy under PAE:");
    print!("{}", mapped.ascii_chart(6, 29));
    println!(
        "mean entropy over channel/bank bits: {:.2} (was {:.2})",
        mapped.mean_over(&targets),
        profile.mean_over(&targets)
    );
    assert!(mapped.mean_over(&targets) > profile.mean_over(&targets));
}
