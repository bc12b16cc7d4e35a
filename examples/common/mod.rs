//! Shared by the ablation examples: one Ref-scale simulation of a
//! benchmark under a hand-built mapper, and the paper's HMEAN.

use valley::core::{AddressMapper, GddrMap};
use valley::sim::{GpuConfig, GpuSim, SimReport};
use valley::workloads::{Benchmark, Scale};

/// Runs `bench` at Ref scale on `cfg` with the GDDR5 map under `mapper`.
pub fn run(bench: Benchmark, mapper: AddressMapper, cfg: GpuConfig) -> SimReport {
    let workload = Box::new(bench.workload(Scale::Ref));
    GpuSim::new(cfg, mapper, GddrMap::baseline(), workload).run()
}

/// Harmonic mean (the paper's HMEAN for speedups).
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        0.0
    } else {
        xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
    }
}
