//! Figure 17: normalized performance per Watt (total GPU + DRAM system
//! power) under the six mapping schemes.
//!
//! Paper shape: PAE is the most power-efficient scheme (1.39× over BASE,
//! 1.25× over PM); FAE and ALL trail it despite similar performance
//! because of their activate-power overhead.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    print!("{}", figures::fig17(&suite));
    println!("\npaper: PAE 1.39x, FAE 1.36x, ALL 1.31x over BASE; PAE/PM = 1.25x");
}
