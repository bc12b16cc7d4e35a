//! Figure 13: (a) average NoC packet latency and (b) LLC miss rate for
//! the valley benchmarks under the six mapping schemes.
//!
//! Paper shape: PAE/FAE/ALL dramatically reduce NoC packet latency and
//! substantially reduce the LLC miss rate by de-hot-spotting the slices.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    print!("{}{}", figures::fig13a(&suite), figures::fig13b(&suite));
}
