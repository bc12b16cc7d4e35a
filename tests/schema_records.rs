//! The manifest's `records` lines (`crates/fabric/schema.manifest`): one
//! per job-key version ever shipped, each pinning the digest of the ref
//! records CI fills under it. CI checks the fill against the last line;
//! this checks that the last line is the version this build keys
//! stores with, so a change that moves a record cannot append a line
//! without bumping `SCHEMA_VERSION`, nor bump it without a line.

use valley::fabric::schema::records;
use valley::harness::SCHEMA_VERSION;

#[test]
fn records_versions_rise_to_the_schema_version() {
    let lines = records(include_str!("../crates/fabric/schema.manifest")).unwrap();
    let versions: Vec<u32> = lines.iter().map(|&(v, _)| v).collect();
    assert!(
        versions.windows(2).all(|w| w[0] < w[1]),
        "records versions must be unique and increasing: {versions:?}"
    );
    assert_eq!(
        versions.last(),
        Some(&SCHEMA_VERSION),
        "the last records line must pin SCHEMA_VERSION"
    );
}
