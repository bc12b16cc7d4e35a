//! The schema drift check (`cargo test -p valley-fabric --test
//! schema_manifest`): the committed manifest against the tables this
//! build declares, and — on a toy pin — what the check says in each of
//! the ways the two can disagree.

use valley_fabric::schema::{check, pins, records, Pin};

/// The drift check itself: the committed manifest against the
/// tables this build declares.
#[test]
fn manifest_pins_the_declared_shapes() {
    if let Err(problems) = check(&pins(), include_str!("../schema.manifest")) {
        panic!("crates/fabric/schema.manifest is out of date:\n{problems}");
    }
}

fn pin(version: u32, fingerprint: u64) -> [Pin; 1] {
    [Pin {
        name: "toy",
        version_const: "TOY_VERSION",
        version,
        fingerprint,
    }]
}

const PINNED: &str = "# comment\nother v1 fp=0000000000000001\ntoy v2 fp=00000000000000aa\n";

#[test]
fn a_clean_tree_passes() {
    assert_eq!(check(&pin(2, 0xaa), PINNED), Ok(()));
}

#[test]
fn drift_without_a_bump_says_which_constant_to_bump() {
    let err = check(&pin(2, 0xab), PINNED).unwrap_err();
    assert!(err.contains("bump `TOY_VERSION`"), "{err}");
    assert!(!err.contains("commit this line"), "{err}");
}

#[test]
fn a_bump_without_drift_is_refused() {
    let err = check(&pin(3, 0xaa), PINNED).unwrap_err();
    assert!(err.contains("revert the bump"), "{err}");
}

#[test]
fn drift_with_a_bump_prints_the_line_to_commit() {
    let err = check(&pin(3, 0xab), PINNED).unwrap_err();
    assert!(err.ends_with("\ntoy v3 fp=00000000000000ab"), "{err}");
    assert_eq!(check(&pin(3, 0xab), "toy v3 fp=00000000000000ab"), Ok(()));
    let unpinned = check(&pin(3, 0xab), "# nothing yet").unwrap_err();
    assert!(unpinned.contains("not pinned"), "{unpinned}");
    assert!(
        unpinned.ends_with("\ntoy v3 fp=00000000000000ab"),
        "{unpinned}"
    );
}

#[test]
fn records_lines_are_not_shapes() {
    let digest = "ab".repeat(32);
    let manifest = format!("{PINNED}records v2 fp={digest}\nrecords v3 fp={digest}\n");
    assert_eq!(check(&pin(2, 0xaa), &manifest), Ok(()));
    assert_eq!(
        records(&manifest),
        Ok(vec![(2, digest.as_str()), (3, digest.as_str())])
    );
    assert_eq!(records(PINNED), Ok(vec![]));
    for bad in [
        "records v2 fp=ab",
        "records 2 fp=",
        "records v2 fp=00 extra",
    ] {
        let err = records(bad).unwrap_err();
        assert!(err.contains(bad), "{err}");
    }
}
