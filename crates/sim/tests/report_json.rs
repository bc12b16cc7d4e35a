//! Property tests for the versioned `SimReport` JSON round trip: stored
//! sweep results must either reparse exactly or fail loudly.

use proptest::prelude::*;
use valley_cache::CacheStats;
use valley_dram::DramStats;
use valley_sim::{EpochHist, SimReport, REPORT_SCHEMA_VERSION};

fn report(
    cycles: u64,
    big: u64,
    frac: f64,
    truncated: bool,
    name: String,
    scheme: String,
) -> SimReport {
    SimReport {
        benchmark: name,
        scheme,
        cycles,
        truncated,
        warp_instructions: big,
        thread_instructions: big.wrapping_mul(32),
        memory_transactions: cycles / 2,
        l1: CacheStats {
            hits: big / 3,
            misses: cycles,
            evictions: 7,
        },
        llc: CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
        },
        noc_latency: frac * 100.0,
        llc_parallelism: frac * 8.0,
        channel_parallelism: frac * 4.0,
        bank_parallelism: frac * 16.0,
        dram: DramStats {
            activates: big,
            precharges: big / 2,
            reads: cycles,
            writes: cycles / 3,
            row_hits: 5,
            row_empties: 6,
            row_conflicts: 7,
            busy_cycles: big,
            data_bus_cycles: big / 5,
            total_cycles: big,
            total_latency: big,
        },
        kernels: (cycles % 97) as usize,
        dram_cycles: big,
        dram_channels: 4,
        core_clock_ghz: 1.4,
        dram_clock_ghz: 0.924,
        num_sms: 12,
        sm_busy_fraction: frac,
        epoch_hist: EpochHist {
            lengths: [
                cycles,
                big / 7,
                cycles / 3,
                1,
                0,
                2,
                big / 11,
                u64::from(truncated),
            ],
            in_flight_multi: cycles / 5,
        },
    }
}

proptest! {
    /// Serialize → parse reproduces the report exactly, including `u64`
    /// counters beyond f64's 2^53 integer range and arbitrary floats.
    #[test]
    fn round_trip_is_exact(
        cycles in 0u64..=u64::MAX,
        big in (1u64 << 53)..=u64::MAX,
        frac in 0.0f64..=1.0,
        truncated in any::<bool>(),
    ) {
        let r = report(cycles, big, frac, truncated, "MT".into(), "PAE".into());
        let back = SimReport::from_json(&r.to_json()).unwrap();
        // `PartialEq` deliberately ignores the engine diagnostics, so
        // the histogram round trip is pinned separately.
        prop_assert_eq!(back.epoch_hist, r.epoch_hist);
        prop_assert_eq!(back, r);
    }

    /// Any version tag other than the current one is rejected with a
    /// message naming both versions — never silently misparsed.
    #[test]
    fn other_schema_versions_fail_loudly(v in 0u64..1000) {
        prop_assume!(v != u64::from(REPORT_SCHEMA_VERSION));
        let r = report(1, 1 << 60, 0.5, false, "MT".into(), "BASE".into());
        let json = r.to_json().replacen(
            &format!("\"v\":{REPORT_SCHEMA_VERSION}"),
            &format!("\"v\":{v}"),
            1,
        );
        let err = SimReport::from_json(&json).unwrap_err();
        prop_assert!(err.contains("schema version"), "{}", err);
    }

    /// Dropping any field fails loudly (no defaulting of missing data).
    #[test]
    fn missing_fields_fail_loudly(idx in 0usize..23) {
        let r = report(12, 1 << 57, 0.25, true, "LU".into(), "PM".into());
        let json = r.to_json();
        // Strip the idx-th top-level member by rebuilding the object.
        let v = valley_sim::json::parse(&json).unwrap();
        let valley_sim::json::Json::Obj(members) = v else { panic!("not an object") };
        prop_assume!(idx < members.len() && members[idx].0 != "v");
        let kept: Vec<_> = members
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, m)| m.clone())
            .collect();
        let err = SimReport::from_json(
            &valley_sim::json::Json::Obj(kept).to_json_string(),
        )
        .unwrap_err();
        prop_assert!(err.contains("missing field"), "{}", err);
    }
}

#[test]
fn benchmark_names_with_special_chars_survive() {
    let r = report(
        5,
        1 << 54,
        0.1,
        false,
        "weird \"name\"\nwith\tescapes \\ 😀".into(),
        "PAE".into(),
    );
    let back = SimReport::from_json(&r.to_json()).unwrap();
    assert_eq!(back, r);
}

/// Stores written by the deleted phase-parallel engine hold non-zero
/// epoch histograms in their v2 reports. Such a record still decodes,
/// re-encodes to the same bytes, and equals the report the sequential
/// engine writes for the same job (zero histogram) — so those stores
/// keep resuming as cache hits.
#[test]
fn old_store_epoch_hist_loads_and_compares_equal() {
    let mut sequential = report(41_137, 1 << 54, 0.5, false, "MT".into(), "BASE".into());
    sequential.epoch_hist = EpochHist::default();
    const ZERO: &str = r#""epoch_hist":{"lengths":[0,0,0,0,0,0,0,0],"in_flight_multi":0}"#;
    const SHARDED: &str =
        r#""epoch_hist":{"lengths":[30211,1207,844,96,3,0,0,0],"in_flight_multi":512}"#;
    let zero_text = sequential.to_json();
    assert!(zero_text.contains(ZERO), "{zero_text}");
    let stored = zero_text.replacen(ZERO, SHARDED, 1);

    let loaded = SimReport::from_json(&stored).unwrap();
    assert_eq!(
        loaded.epoch_hist.lengths,
        [30211, 1207, 844, 96, 3, 0, 0, 0]
    );
    assert_eq!(loaded.epoch_hist.in_flight_multi, 512);
    assert_eq!(loaded.to_json(), stored, "re-encode is not byte-for-byte");
    assert_eq!(loaded, sequential);
}

#[test]
fn garbage_fails_loudly() {
    assert!(SimReport::from_json("").is_err());
    assert!(SimReport::from_json("{}").is_err());
    assert!(SimReport::from_json("not json at all").is_err());
}
