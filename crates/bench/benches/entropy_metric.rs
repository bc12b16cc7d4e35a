//! Criterion bench: the window-based entropy metric (Section III) —
//! per-bit sliding-window cost and a whole-application profile.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use valley_core::entropy::{window_entropy, window_entropy_method, Bvr, EntropyMethod, TbBitStats};
use valley_workloads::{analysis, Benchmark, Scale};

fn entropy_metric(c: &mut Criterion) {
    // One address bit over 1024 TBs, window 12 (the paper's setup).
    let bvrs: Vec<Bvr> = (0..1024u64).map(|i| Bvr::new(i % 13, 16)).collect();
    c.bench_function("window_entropy_1024tbs_w12_mixture", |b| {
        b.iter(|| black_box(window_entropy(black_box(&bvrs), 12)))
    });
    c.bench_function("window_entropy_1024tbs_w12_distinct", |b| {
        b.iter(|| {
            black_box(window_entropy_method(
                black_box(&bvrs),
                12,
                EntropyMethod::DistinctBvr,
            ))
        })
    });

    // A wide window (the 3D-stacked configuration runs 64+ SMs, and the
    // window-size ablation sweeps to 128): the regime where the rolling
    // O(n) implementation's asymptotic win over O(n·w) shows fully.
    c.bench_function("window_entropy_1024tbs_w128_mixture", |b| {
        b.iter(|| black_box(window_entropy(black_box(&bvrs), 128)))
    });
    c.bench_function("window_entropy_1024tbs_w128_distinct", |b| {
        b.iter(|| {
            black_box(window_entropy_method(
                black_box(&bvrs),
                128,
                EntropyMethod::DistinctBvr,
            ))
        })
    });

    // Recording cost: one 30-bit address into a TB's bit statistics.
    c.bench_function("tb_bitstats_record", |b| {
        let mut stats = TbBitStats::new(0, 30);
        let mut a = 0x1357_9bdfu64;
        b.iter(|| {
            a = a.wrapping_mul(0x9e37_79b9) & 0x3fff_ffff;
            stats.record(black_box(a));
        })
    });

    // A full Figure-5 panel at test scale (trace walk + 30-bit analysis).
    c.bench_function("application_profile_mt_test", |b| {
        let w = Benchmark::Mt.workload(Scale::Test);
        b.iter(|| black_box(analysis::application_profile(black_box(&w), 12, None)))
    });
}

/// Tile-transposed bit counting (`TbBitStats::from_addrs`) against the
/// per-address `record` reference it is property-tested against.
fn bit_counting(c: &mut Criterion) {
    let addrs: Vec<u64> = {
        let mut a = 0x1357_9bdfu64;
        (0..4096)
            .map(|_| {
                a = a.wrapping_mul(0x9e37_79b9) & 0x3fff_ffff;
                a
            })
            .collect()
    };

    c.bench_function("bvr_accumulate_4096addrs_record", |b| {
        b.iter(|| {
            let mut stats = TbBitStats::new(0, 30);
            for &a in &addrs {
                stats.record(black_box(a));
            }
            black_box(stats.requests())
        })
    });
    c.bench_function("bvr_accumulate_4096addrs_tiles", |b| {
        b.iter(|| {
            let stats = TbBitStats::from_addrs(0, 30, black_box(&addrs).iter().copied());
            black_box(stats.requests())
        })
    });
}

criterion_group!(benches, entropy_metric, bit_counting);
criterion_main!(benches);
