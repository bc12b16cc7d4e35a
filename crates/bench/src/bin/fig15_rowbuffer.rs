//! Figure 15: DRAM row-buffer hit rate under the six mapping schemes.
//!
//! Paper shape: PAE achieves the highest hit rate (it balances load while
//! keeping same-row requests in the same bank); FAE and ALL degrade
//! locality by scattering column-bit-differing (same-row) requests to
//! different banks.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);
    print!("{}", figures::fig15(&suite));
    println!("\npaper shape: PAE has the highest average hit rate; FAE/ALL degrade it");
}
