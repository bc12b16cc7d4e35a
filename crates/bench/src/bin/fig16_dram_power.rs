//! Figure 16: DRAM power breakdown (background / activate / read / write)
//! under the six mapping schemes.
//!
//! Paper shape: address mapping primarily moves the **activate**
//! component; FAE and ALL increase it substantially, PAE stays near BASE.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_power::DramPowerModel;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let schemes = SchemeKind::ALL_SCHEMES;
    let suite = run_suite(&Benchmark::VALLEY, &schemes, Scale::Ref);
    print!("{}", figures::fig16(&suite));

    println!("\nper-benchmark activate power (Watts):");
    let model = DramPowerModel::gddr5();
    print!("{:<8}", "bench");
    for &s in &schemes {
        print!("{:>8}", s.label());
    }
    println!();
    for b in Benchmark::VALLEY {
        print!("{:<8}", b.label());
        for &s in &schemes {
            print!("{:>8.1}", model.evaluate(&suite[&(b, s)]).activate);
        }
        println!();
    }
}
