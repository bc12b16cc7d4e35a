//! Golden tests pinning figure output across the harness refactor.
//!
//! The snapshot files under `tests/golden/` were captured from the
//! *pre-refactor* binaries (commit `8d907f2`, direct `run_suite` driver,
//! Test scale). The harness-backed paths must reproduce them
//! byte-for-byte — both on a cold store (fresh simulation through the
//! thread pool) and on a warm store (pure cache read through the
//! JSON round trip), so the store's serialization provably does not
//! perturb a single digit of any figure.

use valley_bench::{figures, run_suite_with_store};
use valley_core::SchemeKind;
use valley_harness::ResultStore;
use valley_workloads::{Benchmark, Scale};

const FIG12_TITLE: &str = "Figure 12: speedup over BASE (valley benchmarks)";

#[test]
fn fig02_output_is_byte_identical_to_pre_refactor_snapshot() {
    assert_eq!(
        figures::fig02_text(),
        include_str!("golden/fig02_motivation.txt")
    );
}

#[test]
fn fig03_output_is_byte_identical_to_pre_compute_snapshot() {
    // Captured from `window_entropy_method`, which `fig03_text` calls.
    assert_eq!(
        figures::fig03_text(),
        include_str!("golden/fig03_window_entropy.txt")
    );
}

#[test]
fn fig12_harness_output_is_byte_identical_cold_and_cached() {
    let golden = include_str!("golden/fig12_speedup_test_scale.txt");
    let dir = std::env::temp_dir().join(format!("valley-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let store = ResultStore::open(&dir).expect("store opens");

    // Cold: every job simulated through the harness pool.
    let suite = run_suite_with_store(
        &Benchmark::VALLEY,
        &SchemeKind::ALL_SCHEMES,
        Scale::Test,
        &store,
    );
    assert_eq!(
        figures::fig12_text(&suite, FIG12_TITLE),
        golden,
        "cold harness suite diverges from the pre-refactor snapshot"
    );

    // Warm: the same grid served exclusively from the store (reopened,
    // so the reports have been through the JSON round trip on disk).
    drop(store);
    let store = ResultStore::open(&dir).expect("store reopens");
    assert_eq!(
        store.len(),
        Benchmark::VALLEY.len() * SchemeKind::ALL_SCHEMES.len()
    );
    let cached = run_suite_with_store(
        &Benchmark::VALLEY,
        &SchemeKind::ALL_SCHEMES,
        Scale::Test,
        &store,
    );
    assert_eq!(
        figures::fig12_text(&cached, FIG12_TITLE),
        golden,
        "cached (store-served) suite diverges from the pre-refactor snapshot"
    );

    std::fs::remove_dir_all(&dir).ok();
}
