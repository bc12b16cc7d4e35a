//! Figure 11: normalized execution time vs normalized DRAM power for the
//! six mapping schemes, averaged over the valley benchmarks.
//!
//! Paper shape: PAE ≈ BASE's DRAM power (+3%) at a large speedup; FAE and
//! ALL are slightly faster but pay +35% / +45% DRAM power; PM and RMP sit
//! between BASE and PAE on performance.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    print!("{}", figures::fig11(&suite));
    println!("\npaper: PAE +3% DRAM power, FAE +35%, ALL +45%, PM +8%, RMP +16%");
}
