//! Ablation: substrate-policy orthogonality.
//!
//! The paper argues address mapping is orthogonal to memory-request
//! scheduling (Section VII) and ties its entropy-window heuristic to GTO
//! warp scheduling (Section III-A). This ablation swaps both substrate
//! policies and checks that the PAE-over-BASE gain survives:
//!
//! * warp scheduler: GTO (paper) vs loose round-robin (LRR);
//! * DRAM scheduler: FR-FCFS (paper) vs plain FCFS.
//!
//! Run with: `cargo run --release --example ablation_substrate`

mod common;

use common::{hmean, run};
use valley::core::{AddressMapper, GddrMap, SchemeKind};
use valley::dram::SchedulingPolicy;
use valley::harness::DEFAULT_SEED;
use valley::sim::{GpuConfig, WarpScheduler};
use valley::workloads::Benchmark;

const SUBSET: [Benchmark; 3] = [Benchmark::Mt, Benchmark::Srad2, Benchmark::Sp];

fn run_pair(warp: WarpScheduler, dram: SchedulingPolicy) -> (f64, f64) {
    let map = GddrMap::baseline();
    let mut cfg = GpuConfig::table1().with_scheduler(warp);
    cfg.dram.policy = dram;
    let mut speedups = Vec::new();
    let mut hitrates = Vec::new();
    for b in SUBSET {
        let base = run(
            b,
            AddressMapper::build(SchemeKind::Base, &map, 0),
            cfg.clone(),
        );
        let pae = run(
            b,
            AddressMapper::build(SchemeKind::Pae, &map, DEFAULT_SEED),
            cfg.clone(),
        );
        speedups.push(pae.speedup_over(&base));
        hitrates.push(pae.row_buffer_hit_rate());
    }
    (
        hmean(&speedups),
        hitrates.iter().sum::<f64>() / hitrates.len() as f64,
    )
}

fn main() {
    println!("Ablation: PAE speedup over BASE under substrate-policy swaps");
    println!("(subset: MT, SRAD2, SP)\n");
    println!(
        "{:<12}{:<12}{:>14}{:>18}",
        "warp sched", "DRAM sched", "PAE speedup", "PAE row-hit rate"
    );
    for (w, wname) in [(WarpScheduler::Gto, "GTO"), (WarpScheduler::Lrr, "LRR")] {
        for (d, dname) in [
            (SchedulingPolicy::FrFcfs, "FR-FCFS"),
            (SchedulingPolicy::Fcfs, "FCFS"),
        ] {
            eprintln!("  {wname} + {dname} ...");
            let (s, hr) = run_pair(w, d);
            println!("{:<12}{:<12}{:>14.2}{:>17.1}%", wname, dname, s, hr * 100.0);
        }
    }
    println!("\nexpected: the mapping gain survives every combination (orthogonality);");
    println!("FCFS shows lower row-hit rates (no row-hit-first reordering).");
}
