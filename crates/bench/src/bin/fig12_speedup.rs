//! Figure 12: per-benchmark speedup over BASE for the ten entropy-valley
//! benchmarks under PM, RMP, PAE, FAE and ALL, plus the harmonic mean.
//!
//! Paper shape: PAE/FAE/ALL ≈ 1.5× average (up to ~7.5× for MT/LU),
//! PM ≈ 1.16×, RMP ≈ 1.21×.
//!
//! Thin harness consumer: the suite comes from the sweep engine's
//! result store (`results/`), so a second invocation — or any other
//! figure binary needing the same grid — is a pure cache read. The table
//! rendering is pinned byte-for-byte by the golden tests.

use valley_bench::{figures, run_suite};
use valley_core::SchemeKind;
use valley_workloads::{Benchmark, Scale};

fn main() {
    let suite = run_suite(&Benchmark::VALLEY, &SchemeKind::ALL_SCHEMES, Scale::Ref);

    print!(
        "{}",
        figures::fig12_text(&suite, "Figure 12: speedup over BASE (valley benchmarks)")
    );

    // Context line matching the paper's headline claims, from the same
    // aggregation that produced the table's HMEAN row.
    let hmeans = figures::fig12_hmeans(&suite);
    let of = |kind: SchemeKind| {
        hmeans
            .iter()
            .find(|(s, _)| *s == kind)
            .map(|&(_, h)| h)
            .expect("scheme present in suite")
    };
    let (pae, fae, pm) = (of(SchemeKind::Pae), of(SchemeKind::Fae), of(SchemeKind::Pm));
    println!(
        "\npaper: PAE 1.52x, FAE 1.56x, ALL 1.54x, PM 1.16x, RMP 1.21x (HMEAN over valley set)"
    );
    println!(
        "measured: PAE {pae:.2}x, FAE {fae:.2}x; PAE over PM: {:.2}x (paper: 1.31x)",
        pae / pm
    );
}
