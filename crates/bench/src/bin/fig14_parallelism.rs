//! Figure 14: memory-level parallelism under the six mapping schemes —
//! (a) LLC-level, (b) channel-level, (c) bank-level (per channel).
//!
//! Paper shape: PAE/FAE/ALL raise all three; the total outstanding
//! parallelism is the product of (b) and (c).

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    print!("{}", figures::fig14(&suite));
}
