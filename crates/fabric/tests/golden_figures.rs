//! Golden tests pinning `valley figures --fig` stdout.
//!
//! The snapshots under `tests/golden/` were captured from the per-figure
//! binaries `valley figures --fig` replaced: `fig02_motivation`,
//! `fig03_window_entropy` and `table1_config` need no simulation, and
//! `fig12_speedup_test_scale.txt` is Figure 12's table over a Test-scale
//! store (commit `8d907f2`, before the harness existed). The store's
//! JSON round trip must not perturb a digit of it.

use std::path::Path;
use std::process::Command;

fn valley(args: &[&str], results: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(args)
        .arg("--results")
        .arg(results)
        .output()
        .expect("valley runs")
}

/// `figures --fig` stdout after its header line, which names the store.
fn figure(args: &[&str], results: &Path) -> String {
    let out = valley(&[&["figures", "--fig"], args].concat(), results);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (header, body) = stdout.split_once('\n').expect("a header line");
    assert!(header.starts_with("figures from store "), "{header}");
    body.to_string()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("valley-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn analytic_rows_are_byte_identical_to_their_snapshots() {
    let dir = fresh_dir("analytic");
    for (name, golden) in [
        (
            "fig02_motivation",
            include_str!("golden/fig02_motivation.txt"),
        ),
        (
            "fig03_window_entropy",
            include_str!("golden/fig03_window_entropy.txt"),
        ),
        ("table1_config", include_str!("golden/table1_config.txt")),
    ] {
        assert_eq!(figure(&[name], &dir), golden, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig12_from_a_test_scale_store_is_the_snapshot_and_its_context() {
    let golden = include_str!("golden/fig12_speedup_test_scale.txt");
    let dir = fresh_dir("fig12");
    let out = valley(
        &["sweep", "--scale", "test", "--benches", "valley", "--quiet"],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = figure(&["fig12_speedup", "--scale", "test"], &dir);
    let context = body
        .strip_prefix(golden)
        .unwrap_or_else(|| panic!("the table drifted from the snapshot:\n{body}"));
    // The measured line quotes the table's own HMEAN row.
    let hmean: Vec<&str> = golden
        .lines()
        .last()
        .expect("an HMEAN row")
        .split_whitespace()
        .collect();
    let (pae, fae) = (hmean[4], hmean[5]);
    let expected = format!(
        "\npaper: PAE 1.52x, FAE 1.56x, ALL 1.54x, PM 1.16x, RMP 1.21x (HMEAN over valley set)\n\
         measured: PAE {pae}x, FAE {fae}x; PAE over PM: "
    );
    assert!(context.starts_with(&expected), "{context}");
    assert!(context.ends_with("x (paper: 1.31x)\n"), "{context}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--fig` names registry rows only, and chooses the tables itself.
#[test]
fn fig_rejects_an_unknown_name_and_set() {
    let dir = fresh_dir("rejects");
    let out = valley(&["figures", "--fig", "fig12_speedup,fig99"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("unknown figure 'fig99'"), "{stderr}");
    for listed in ["table1_config", "fig12_speedup", "ablation_entropy_window"] {
        assert!(stderr.contains(listed), "{listed} unlisted: {stderr}");
    }

    let out = valley(
        &["figures", "--fig", "fig02_motivation", "--set", "all"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("--fig") && stderr.contains("--set"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "rendered before refusing");
    std::fs::remove_dir_all(&dir).ok();
}
