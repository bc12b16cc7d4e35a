//! Extension experiment: per-kernel adaptive remapping.
//!
//! The paper observes that entropy valleys *move* across kernels and
//! phases (Section III-B, DWT2D vs DWT2DK1) and answers with a single
//! static Broad BIM robust to that movement. The natural follow-up (cf.
//! the cited DReAM work) is to *re-derive* the BIM at each kernel
//! boundary from that kernel's own entropy profile. This example
//! estimates the ceiling of such a scheme:
//!
//! * **static PAE** — one BIM for the whole application (the paper);
//! * **adaptive PAE** — each kernel simulated under a profile-guided BIM
//!   built from its own window-entropy profile, plus a per-remap penalty
//!   (data must physically move when the DRAM mapping changes; we charge
//!   a configurable flat cost per remap rather than modeling migration).
//!
//! Adaptive kernel runs are chained as independent simulations, which
//! forfeits cross-kernel cache warmth (a second, smaller handicap on top
//! of the remap penalty; the static run keeps its warmth).
//!
//! Run with: `cargo run --release --example ext_adaptive_remap`

use valley::core::{AddressMapper, GddrMap, SchemeKind};
use valley::harness::{execute_job, ConfigId, JobSpec, DEFAULT_SEED};
use valley::sim::{GpuConfig, GpuSim, WorkloadSource};
use valley::workloads::{analysis, Benchmark, Scale};

/// Flat cost charged per remap (cycles): a placeholder for data
/// migration / mapping-table switch overhead.
const REMAP_PENALTY: u64 = 100_000;

const SUBSET: [Benchmark; 3] = [Benchmark::Dwt2d, Benchmark::Mt, Benchmark::Lps];

fn main() {
    println!("Extension: per-kernel adaptive remapping vs static PAE");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>9}",
        "bench", "BASE cyc", "static PAE", "adaptive", "remaps"
    );
    for b in SUBSET {
        let job = |scheme, seed| JobSpec {
            bench: b,
            scheme,
            seed,
            scale: Scale::Ref,
            config: ConfigId::Table1,
        };
        eprintln!("  {b}: BASE ...");
        let base = execute_job(&job(SchemeKind::Base, 0));
        eprintln!("  {b}: static PAE ...");
        let statik = execute_job(&job(SchemeKind::Pae, DEFAULT_SEED));

        // Adaptive: per-kernel guided BIM.
        let workload = b.workload(Scale::Ref);
        let map = GddrMap::baseline();
        let mut total = 0u64;
        let mut remaps = 0u64;
        let kernels = workload.num_kernels();
        for k in 0..kernels {
            let single = workload.single_kernel(k);
            let profile = analysis::application_profile(&single, 12, None);
            let mapper =
                AddressMapper::guided(SchemeKind::Pae, &map, profile.per_bit(), DEFAULT_SEED);
            remaps += 1;
            eprintln!("  {b}: adaptive kernel {k}/{kernels} ...");
            let r = GpuSim::new(GpuConfig::table1(), mapper, map, Box::new(single)).run();
            total += r.cycles;
        }
        let adaptive = total + remaps * REMAP_PENALTY;
        println!(
            "{:<8}{:>12}{:>12}{:>12}{:>9}",
            b.label(),
            base.cycles,
            statik.cycles,
            adaptive,
            remaps
        );
        println!(
            "{:<8}{:>12}{:>12.2}{:>12.2}",
            "",
            "speedup:",
            base.cycles as f64 / statik.cycles as f64,
            base.cycles as f64 / adaptive as f64
        );
    }
    println!(
        "\nremap penalty charged: {REMAP_PENALTY} cycles per kernel boundary.\n\
         expected: adaptivity rarely beats the static Broad BIM — the paper's\n\
         robustness argument — and pays the migration cost on many-kernel apps."
    );
}
