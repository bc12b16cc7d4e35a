//! Integration battery for `valley-lint`: every rule family is
//! demonstrated on a fixture (one firing case, one allowlisted case),
//! and the workspace itself is asserted clean — the same check CI runs
//! via `--expect-clean`. (Schema drift is no longer a lint: the shapes
//! are declared tables, checked in `crates/fabric/src/schema.rs`.)
//!
//! Fixture sources live under `tests/fixtures/` (a directory the
//! workspace walker skips, since fixtures contain violations on
//! purpose) and are linted under virtual repo paths so crate-scoped
//! rules see them in the right crate.

use std::path::{Path, PathBuf};
use valley_lint::rules::Diagnostic;
use valley_lint::{lint_sources, LintOutcome};

const DEFAULT_HASHER: &str = include_str!("fixtures/default_hasher.rs");
const MAP_ITERATION: &str = include_str!("fixtures/map_iteration.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const UNSAFE_BLOCK: &str = include_str!("fixtures/unsafe_block.rs");
const PANIC_TICK: &str = include_str!("fixtures/panic_tick.rs");

fn lint_one(path: &str, src: &str, allowlist: &str) -> LintOutcome {
    lint_sources(&[(path.to_string(), src.to_string())], allowlist).expect("lint run")
}

fn rules_of(outcome: &LintOutcome) -> Vec<&'static str> {
    outcome.diagnostics.iter().map(|d| d.rule).collect()
}

/// An allowlist entry for `rule` covering the whole fixture `path`.
fn allow_entry(rule: &str, path: &str) -> String {
    format!(
        "[[allow]]\nrule = \"{rule}\"\npath = \"{path}\"\nwhy = \"fixture: \
         demonstrates that a justified allowlist entry suppresses this rule\"\n"
    )
}

#[test]
fn default_hasher_fires_in_engine_crates_and_allowlists() {
    let path = "crates/sim/src/fixture.rs";
    let out = lint_one(path, DEFAULT_HASHER, "");
    assert!(
        rules_of(&out).contains(&"default-hasher"),
        "expected default-hasher, got: {:?}",
        out.diagnostics
    );

    let allowed = lint_one(path, DEFAULT_HASHER, &allow_entry("default-hasher", path));
    assert!(
        !rules_of(&allowed).contains(&"default-hasher"),
        "allowlisted fixture still fired: {:?}",
        allowed.diagnostics
    );
    assert!(allowed.suppressed > 0, "suppression must be counted");
}

#[test]
fn map_iteration_fires_even_with_deterministic_hashers() {
    let path = "crates/sim/src/fixture.rs";
    let out = lint_one(path, MAP_ITERATION, "");
    assert!(
        rules_of(&out).contains(&"map-iteration"),
        "expected map-iteration, got: {:?}",
        out.diagnostics
    );

    let allowed = lint_one(path, MAP_ITERATION, &allow_entry("map-iteration", path));
    assert!(!rules_of(&allowed).contains(&"map-iteration"));
}

#[test]
fn wall_clock_fires_only_in_result_affecting_crates() {
    let out = lint_one("crates/core/src/fixture.rs", WALL_CLOCK, "");
    assert!(
        rules_of(&out).contains(&"wall-clock"),
        "expected wall-clock in crates/core, got: {:?}",
        out.diagnostics
    );

    // Harness timing (wall-clock telemetry, lease clocks) is exempt.
    let harness = lint_one("crates/harness/src/fixture.rs", WALL_CLOCK, "");
    assert!(
        !rules_of(&harness).contains(&"wall-clock"),
        "wall-clock must not fire outside result-affecting crates: {:?}",
        harness.diagnostics
    );

    let path = "crates/core/src/fixture.rs";
    let allowed = lint_one(path, WALL_CLOCK, &allow_entry("wall-clock", path));
    assert!(!rules_of(&allowed).contains(&"wall-clock"));
}

#[test]
fn unsafe_fires_everywhere_and_allowlists() {
    let path = "crates/harness/src/fixture.rs";
    let out = lint_one(path, UNSAFE_BLOCK, "");
    assert!(
        rules_of(&out).contains(&"no-unsafe"),
        "expected no-unsafe, got: {:?}",
        out.diagnostics
    );

    let allowed = lint_one(path, UNSAFE_BLOCK, &allow_entry("no-unsafe", path));
    assert!(!rules_of(&allowed).contains(&"no-unsafe"));
}

#[test]
fn panic_in_tick_path_fires_but_not_in_test_scopes() {
    // Linted under a real tick-path name so the rule applies; the
    // fixture's #[cfg(test)] unwrap must stay exempt, so exactly one
    // diagnostic fires.
    let path = "crates/sim/src/sm.rs";
    let out = lint_one(path, PANIC_TICK, "");
    let hits: Vec<&Diagnostic> = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-panic-tick")
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "one non-test unwrap in the fixture: {:?}",
        out.diagnostics
    );

    // The same source under a non-tick-path name is out of scope.
    let elsewhere = lint_one("crates/sim/src/metrics.rs", PANIC_TICK, "");
    assert!(!rules_of(&elsewhere).contains(&"no-panic-tick"));

    let allowed = lint_one(path, PANIC_TICK, &allow_entry("no-panic-tick", path));
    assert!(!rules_of(&allowed).contains(&"no-panic-tick"));
}

#[test]
fn unused_allowlist_entries_are_themselves_diagnostics() {
    let out = lint_one(
        "crates/sim/src/fixture.rs",
        "pub fn nothing() {}\n",
        &allow_entry("no-unsafe", "crates/sim/src/fixture.rs"),
    );
    assert!(
        rules_of(&out).contains(&"unused-allow"),
        "stale allowlist entries must rot loudly: {:?}",
        out.diagnostics
    );
}

// ---- The workspace itself ----

fn workspace_root() -> PathBuf {
    valley_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

#[test]
fn workspace_is_lint_clean() {
    let out = valley_lint::run(&workspace_root()).expect("lint run");
    assert!(
        out.clean(),
        "workspace must lint clean:\n{}",
        out.diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(out.files > 100, "walker should see the whole workspace");
}
