//! Property tests for the versioned `SimReport` JSON round trip: stored
//! sweep results must either reparse exactly or fail loudly.

use proptest::prelude::*;
use valley_cache::CacheStats;
use valley_dram::DramStats;
use valley_sim::{SimReport, REPORT_SCHEMA_VERSION};

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
            reads: cycles,
            writes: cycles / 3,
            row_hits: 5,
            row_empties: 6,
            row_conflicts: 7,
        },
        kernels: (cycles % 97) as usize,
        dram_cycles: big,
        dram_channels: 4,
        core_clock_ghz: 1.4,
        dram_clock_ghz: 0.924,
        num_sms: 12,
        sm_busy_fraction: frac,
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
        prop_assert_eq!(&back, &r);
        // Two names, one encoding: every member is a result.
        prop_assert_eq!(r.results_json(), r.to_json());
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

/// A v2 report — what every store written before the lookup-counting
/// change holds, `epoch_hist` member and all — is refused with both
/// versions named, never read as a current one whose miss counters mean
/// something else.
#[test]
fn a_v2_report_is_refused_naming_both_versions() {
    let now = report(41_137, 1 << 54, 0.5, false, "MT".into(), "BASE".into()).to_json();
    let v2 = format!(
        r#"{},"epoch_hist":{{"lengths":[0,0,0,0,0,0,0,0],"in_flight_multi":0}}}}"#,
        now.strip_suffix('}').unwrap()
    )
    .replacen(
        &format!(r#"{{"v":{REPORT_SCHEMA_VERSION},"#),
        r#"{"v":2,"#,
        1,
    );
    assert!(v2.starts_with(r#"{"v":2,"#), "{v2}");
    let err = SimReport::from_json(&v2).unwrap_err();
    assert!(
        err.starts_with(&format!(
            "SimReport schema version 2 is not the supported {REPORT_SCHEMA_VERSION}"
        )),
        "{err}"
    );
}

#[test]
fn garbage_fails_loudly() {
    assert!(SimReport::from_json("").is_err());
    assert!(SimReport::from_json("{}").is_err());
    assert!(SimReport::from_json("not json at all").is_err());
}
