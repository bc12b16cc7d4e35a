//! Figure 20: normalized performance for the six non-entropy-valley
//! benchmarks.
//!
//! Paper shape: address mapping has a relatively minor impact; PAE and
//! FAE give small average improvements and no benchmark regresses badly.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::NON_VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    let title = "Figure 20: speedup over BASE (non-valley benchmarks)";
    print!("{}", figures::fig12_text(&suite, title));
    println!("\npaper: all schemes within a few percent of BASE on this group");
}
