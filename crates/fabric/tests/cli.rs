//! The `valley` binary's flag surface: a removed flag is rejected like
//! any unknown one, before the subcommand does anything; `sweep --batch`
//! parses but changes nothing; a filter value
//! that names nothing is an error, not an empty result; a flag given
//! twice is an error, not the last value winning; a grid value given
//! twice names the same jobs, not more jobs; the commands `figures`
//! prints for missing results fill the gap, for every registry row; the
//! rows that need no store render as the pinned paper has them, and need
//! none; a command that only reads a store refuses a missing one;
//! `--expect-cached` takes a percentage; `valley help` is
//! generated from the same table that parses the flags; and a `sweep`
//! or a `serve` killed mid-grid keeps the prefix it finished, which the
//! next run resumes from.

mod common;

use common::{filed_jobs, normalized_store, without_wall_ms};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use valley_core::SchemeKind;
use valley_harness::figures::FIGURES;
use valley_harness::{JobSpec, ResultStore, SweepSpec, STORE_FILE};
use valley_workloads::{Benchmark, Scale};

/// The flag that selected the deleted phase-parallel engine. Spelled in
/// two pieces so a grep for the removed name finds nothing in the tree.
const REMOVED_FLAG: &str = concat!("--sim", "-threads");

#[test]
fn removed_flags_are_unknown_flags() {
    // `work` points at a port nothing listens on: flag parsing must fail
    // first, without a connection attempt. `--lint` was `status`'s switch
    // for a lint tool the repo no longer has; `work --batch` asked for
    // leases wider than one simulation. The last four set fabric retry
    // and backoff numbers that are constants now.
    let invocations: [(&[&str], &str); 8] = [
        (
            &["sweep", "--scale", "test", REMOVED_FLAG, "2"],
            REMOVED_FLAG,
        ),
        (
            &["work", "--addr", "127.0.0.1:9", REMOVED_FLAG, "2"],
            REMOVED_FLAG,
        ),
        (&["status", "--lint"], "--lint"),
        (
            &["work", "--addr", "127.0.0.1:9", "--batch", "2"],
            "--batch",
        ),
        (
            &["serve", "--addr", "127.0.0.1:9", "--retry-ms", "5"],
            "--retry-ms",
        ),
        (
            &["serve", "--addr", "127.0.0.1:9", "--max-attempts", "2"],
            "--max-attempts",
        ),
        (
            &["work", "--addr", "127.0.0.1:9", "--connect-attempts", "2"],
            "--connect-attempts",
        ),
        (
            &["work", "--addr", "127.0.0.1:9", "--backoff-ms", "5"],
            "--backoff-ms",
        ),
    ];
    for (args, flag) in invocations {
        let out = valley(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{args:?} failed without naming the flag: {stderr}"
        );
    }
}

/// `sweep --batch N` still parses, so a bad value is still an error,
/// but it changes nothing: every sweep runs each simulation once, and
/// the store is the default sweep's, cloned lanes included.
#[test]
fn sweep_batch_is_inert_and_hidden() {
    let grid = [
        "--scale",
        "test",
        "--benches",
        "SP,MT",
        "--schemes",
        "BASE,PAE",
        "--seeds",
        "1,2",
        "--quiet",
        "--results",
    ];
    let (plain, batched) = (fresh_dir("batch-plain"), fresh_dir("batch-nine"));
    for (dir, extra) in [(&plain, &[][..]), (&batched, &["--batch", "9"][..])] {
        let args = [
            &["sweep"][..],
            &grid,
            &[dir.to_str().expect("utf-8")],
            extra,
        ]
        .concat();
        let out = valley(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(without_wall_ms(&plain), without_wall_ms(&batched));
    let cloned = without_wall_ms(&plain)
        .into_iter()
        .filter(|r| r.contains("\"wall\":\"cloned\""))
        .count();
    assert_eq!(cloned, 2, "BASE's second seed of each bench is a clone");

    let out = valley(&["sweep", "--scale", "test", "--batch", "x"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad value 'x' for --batch"));
    let help = String::from_utf8_lossy(&valley(&["help"]).stdout).into_owned();
    assert!(
        !help.contains("--batch"),
        "help lists the inert flag:\n{help}"
    );
    for dir in [plain, batched] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A machine that is not one of the paper's four is refused at the flag,
/// before any job starts: no SM count but 24 and 48 names one, and
/// Table I's 12 is `table1`.
#[test]
fn an_unsupported_sm_count_fails_at_the_flag() {
    let dir = fresh_dir("sms-too-many");
    let results = dir.to_str().expect("utf-8");
    for config in ["sms70000", "sms32", "sms12"] {
        let out = valley(&[
            "sweep",
            "--scale",
            "test",
            "--benches",
            "SP",
            "--schemes",
            "BASE,PAE",
            "--configs",
            config,
            "--quiet",
            "--results",
            results,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "the sweep ran: {stderr}");
        assert!(
            stderr.contains(&format!("bad value '{config}' for --configs")),
            "the sweep failed without naming the flag: {stderr}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// `valley status | head -1` used to exit 101 with "failed printing to
/// stdout: Broken pipe" and a backtrace. A reader that goes away ends a
/// read-side command quietly and successfully. The pipe's reader is
/// dropped before the spawn, so every write fails, not just a late one.
#[test]
fn a_closed_stdout_ends_a_read_side_command_quietly() {
    let dir = fresh_dir("closed-pipe");
    let results = dir.to_str().expect("utf-8 temp dir");
    let fill = [
        "sweep",
        "--scale",
        "test",
        "--benches",
        "SP",
        "--schemes",
        "BASE",
        "--quiet",
    ];
    let out = valley(&[&fill[..], &["--results", results]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for args in [
        &["status", "--results", results][..],
        &["figures", "--fig", "table1_config"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_valley"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("valley runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(dir).ok();
}

fn valley(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(args)
        .output()
        .expect("valley runs")
}

/// `query` used to string-compare raw flag values against the records,
/// so a misspelt filter printed an empty table and exited 0.
#[test]
fn query_rejects_filter_values_that_name_nothing() {
    let dir = std::env::temp_dir().join(format!("valley-cli-query-{}", std::process::id()));
    let results = dir.to_str().expect("utf-8 temp dir");
    for (flag, value) in [
        ("--bench", "NOPE"),
        ("--scheme", "NOPE"),
        ("--scale", "huge"),
        ("--seed", "abc"),
        ("--config", "sms0"),
    ] {
        let out = valley(&["query", "--results", results, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "query {flag} {value} succeeded");
        assert!(
            stderr.contains(&format!("bad value '{value}' for {flag}")),
            "query {flag} {value} failed without naming the flag: {stderr}"
        );
    }
    // Well-formed filters on an empty store are an empty answer.
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = valley(&[
        "query",
        "--results",
        results,
        "--bench",
        "mt",
        "--seed",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).ends_with("0 result(s)\n"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `query` and `gc --expect-clean` on a mistyped `--results` path used to
/// make the directory, find nothing and exit 0, so a gate on either read
/// a store that is not there as a clean one. Only `sweep` and `serve`
/// make a store; the commands that read one refuse a missing path in one
/// line naming it, and leave nothing behind. A row that reads no jobs
/// still renders without a store.
#[test]
fn read_side_commands_refuse_a_missing_store() {
    let dir = fresh_dir("missing");
    let results = dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["query", "--bench", "MT"][..],
        &["figures", "--scale", "test"],
        &["figures", "--fig", "fig12_speedup", "--scale", "test"],
        &["gc", "--expect-clean"],
        &["status"],
    ] {
        let out = valley(&[args, &["--results", results]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} read a missing store");
        assert_eq!(
            stderr.trim_end(),
            format!("error: no result store at {results} (only `sweep` and `serve` make one)"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
        assert!(!dir.exists(), "{args:?} made the store it refused");
    }
    let args = ["figures", "--fig", "fig05_entropy", "--results", results];
    let out = valley(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.exists(), "a row that reads no jobs made a store");
}

/// `--expect-cached -5` used to pass with nothing checked ("100.0% ≥
/// -5%"), and `150` to run the whole grid before failing it. A bound
/// that is no percentage is refused at the flags, before anything runs.
#[test]
fn expect_cached_takes_a_percentage() {
    let dir = fresh_dir("expect-cached");
    let results = dir.to_str().expect("utf-8 temp dir");
    let sweep = [
        "sweep",
        "--scale",
        "test",
        "--benches",
        "SP",
        "--schemes",
        "BASE",
        "--quiet",
        "--results",
        results,
    ];
    // Nothing listens on the discard port: a fetch past its flags would
    // fail to connect instead.
    let fetch = ["fetch", "--addr", "127.0.0.1:9", "--scale", "test"];
    for pct in ["-5", "150", "NaN"] {
        for cmd in [&sweep[..], &fetch] {
            let args = [cmd, &["--expect-cached", pct]].concat();
            let out = valley(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{args:?} succeeded");
            assert!(
                stderr.contains(&format!("bad value '{pct}' for --expect-cached")),
                "{args:?}: {stderr}"
            );
            assert!(!dir.exists(), "{args:?} ran before refusing");
        }
    }
    // 100 is a percentage: the sweep runs, then the check holds it to it.
    let args = [&sweep[..], &["--expect-cached", "100"]].concat();
    let cold = valley(&args);
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(!cold.status.success(), "a cold sweep was all cache hits");
    assert!(stderr.contains("measured 0.0%"), "{stderr}");
    let warm = valley(&args);
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(warm.status.success(), "{stdout}");
    assert!(
        stdout.contains("cache-hit check passed: 100.0% ≥ 100%"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--seeds 1 --seeds 2` used to run seed 2 only: the second value
/// overwrote the first without a word (`--seeds 1,2` is the spelling).
#[test]
fn a_flag_given_twice_is_an_error_that_names_it() {
    // Nothing may run; the store is named so that a sweep that does
    // get past the parser leaves nothing in the working directory.
    let dir = std::env::temp_dir().join(format!("valley-cli-twice-{}", std::process::id()));
    let results = dir.to_str().expect("utf-8 temp dir");
    let sweep = ["sweep", "--scale", "test", "--results", results];
    for (twice, flag) in [
        (&["--seeds", "1", "--seeds", "2"][..], "--seeds"),
        (&["--quiet", "--quiet"][..], "--quiet"),
    ] {
        let args = [&sweep[..], twice].concat();
        let out = valley(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("flag '{flag}' given twice")),
            "{args:?} failed without naming the flag: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `gc --results --expect-clean` used to take `--expect-clean` as the
/// store's path: it made a directory of that name, skipped the clean
/// check and exited 0. A value flag followed by a flag has no value.
#[test]
fn a_value_flag_followed_by_a_flag_needs_a_value() {
    // Run where a store named after the next flag would land.
    let dir = fresh_dir("swallowed");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(["gc", "--results", "--expect-clean"])
        .current_dir(&dir)
        .output()
        .expect("valley runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "gc ran: {stderr}");
    assert!(
        stderr.contains("flag '--results' needs a value"),
        "gc failed without naming the flag: {stderr}"
    );
    assert!(!dir.join("--expect-clean").exists(), "a store was made");
    std::fs::remove_dir_all(&dir).ok();
}

/// A repeated grid value names the same job again: one simulation, one
/// record. Two records for one key are debris `gc --expect-clean` refuses.
#[test]
fn repeated_grid_values_run_one_job_and_leave_a_clean_store() {
    let dir = std::env::temp_dir().join(format!("valley-cli-dupes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let results = dir.to_str().expect("utf-8 temp dir");
    let out = valley(&[
        "sweep",
        "--scale",
        "test",
        "--benches",
        "MT,MT",
        "--schemes",
        "BASE",
        "--seeds",
        "1,1",
        "--quiet",
        "--results",
        results,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("sweep: 1 jobs") && stdout.contains("0 cache hit(s), 1 executed"),
        "{stdout}"
    );
    let out = valley(&["gc", "--results", results, "--expect-clean"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("gc: 1 kept, 0 removed"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `figures` on a store without the requested jobs names the sweeps that
/// fill the gap, one per grid: after running every printed command, it
/// renders. The inputs are the `--set` tables and each registry row that
/// reads the store, sharing one store.
#[test]
fn figures_hint_is_the_sweep_that_fills_the_gap() {
    let dir = std::env::temp_dir().join(format!("valley-cli-hint-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    // The default store too, so a hint without `--results` stays in `dir`.
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_valley"))
            .args(args)
            .env("VALLEY_RESULTS_DIR", &dir)
            .output()
            .expect("valley runs")
    };
    let at = ["--scale", "test", "--seed", "7"];
    let mut inputs: Vec<(Vec<&str>, usize)> = FIGURES
        .iter()
        .map(|row| (row.name, (row.grid)(Scale::Test, 7).len()))
        .filter(|&(_, grids)| grids > 0)
        .map(|(name, grids)| ([&["figures", "--fig", name][..], &at].concat(), grids))
        .collect();
    inputs.push(([&["figures"][..], &at].concat(), 1));

    // On the empty store every input fails, naming one sweep per grid.
    let hints: Vec<Vec<String>> = inputs
        .iter()
        .map(|(figures, grids)| {
            let out = run(figures);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(!out.status.success(), "{figures:?} rendered an empty store");
            let hints: Vec<String> = stderr
                .split('`')
                .skip(1)
                .step_by(2)
                .map(Into::into)
                .collect();
            assert_eq!(hints.len(), *grids, "{figures:?}: {stderr}");
            hints
        })
        .collect();
    for ((figures, _), hints) in inputs.iter().zip(hints) {
        for hint in hints {
            let mut words = hint.split_whitespace();
            assert_eq!(words.next(), Some("valley"), "{hint}");
            let sweep: Vec<&str> = words.collect();
            let out = run(&sweep);
            assert!(
                out.status.success(),
                "`{hint}`: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = run(figures);
        assert!(
            out.status.success(),
            "{figures:?} after its hints: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.lines().count() > 2, "{figures:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole paper, pinned: `valley figures --fig all --scale ref` after
/// its header line, which names the store. CI fills the ref grids and
/// diffs every row against it; a change that moves a published number
/// regenerates it and shows the moved lines in its diff.
const PAPER_REF: &str = include_str!("golden/paper_ref.txt");

/// The rows that read no jobs render with no store, so this suite holds
/// them to their sections of [`PAPER_REF`], in registry order.
#[test]
fn analytic_rows_render_as_pinned_in_the_paper_golden() {
    let dir = fresh_dir("analytic");
    let results = dir.to_str().expect("utf-8 temp dir");
    let mut at = 0;
    for row in FIGURES
        .iter()
        .filter(|row| (row.grid)(Scale::Ref, 1).is_empty())
    {
        let args = ["figures", "--fig", row.name, "--scale", "ref"];
        let out = valley(&[&args[..], &["--results", results]].concat());
        assert!(
            out.status.success(),
            "{}: {}",
            row.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (_, body) = stdout.split_once('\n').expect("a header line");
        let found = PAPER_REF[at..]
            .find(body)
            .unwrap_or_else(|| panic!("{} is not as pinned:\n{body}", row.name));
        at += found + body.len();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Figure 10 prints what a seed's BIMs measure: under seed 7 PAE lifts
/// MT's channel/bank bits by less than the 0.2 the paper's seed-1 trend
/// holds (`paper_trends.rs`), and the row used to panic on it.
#[test]
fn fig10_renders_under_every_seed() {
    let dir = fresh_dir("fig10-seed7");
    let results = dir.to_str().expect("utf-8 temp dir");
    let args = ["figures", "--fig", "fig10_mt_entropy", "--scale", "ref"];
    let out = valley(&[&args[..], &["--seed", "7", "--results", results]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "seed 7: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mean target-bit entropy: BASE"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--fig` names registry rows only, and chooses the tables itself.
#[test]
fn fig_rejects_an_unknown_name_and_set() {
    // Named, so a render that gets past the parser leaves nothing in the
    // working directory.
    let dir = fresh_dir("rejects");
    let results = dir.to_str().expect("utf-8 temp dir");
    let out = valley(&[
        "figures",
        "--fig",
        "fig12_speedup,fig99",
        "--results",
        results,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("unknown figure 'fig99'"), "{stderr}");
    for listed in ["table1_config", "fig12_speedup", "ablation_entropy_window"] {
        assert!(stderr.contains(listed), "{listed} unlisted: {stderr}");
    }

    let args = ["figures", "--fig", "fig02_motivation", "--set", "all"];
    let out = valley(&[&args[..], &["--results", results]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("--fig") && stderr.contains("--set"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "rendered before refusing");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every flag a subcommand accepts is in its `help` synopsis, switches
/// take no value, and a required flag is demanded before anything runs.
#[test]
fn help_lists_what_the_parser_accepts() {
    let out = valley(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    for listed in [
        "valley sweep",
        "[--expect-cached PCT]",
        "[--lease-ms N]",
        "[--linger]",
        "[--name W]",
        "valley fetch   --addr HOST:PORT",
        "[--quiet]",
    ] {
        assert!(help.contains(listed), "help lacks `{listed}`:\n{help}");
    }
    // `--quiet` is a switch: it must not swallow the next argument.
    let out = valley(&["sweep", "--quiet", "--bogus"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag '--bogus'"));
    let out = valley(&["fetch", "--scale", "test"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("fetch needs --addr HOST:PORT"));
}

/// The grid the kill tests run (every benchmark under two schemes: a
/// debug-build sweep of it takes seconds, a kill lands well inside it).
const GRID: [&str; 4] = ["--scale", "test", "--schemes", "BASE,PAE"];

/// [`GRID`] in expansion order.
fn test_grid() -> Vec<JobSpec> {
    let schemes = [SchemeKind::Base, SchemeKind::Pae];
    SweepSpec::new(&Benchmark::ALL, &schemes, Scale::Test).expand()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("valley-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// An uninterrupted sequential `valley sweep` of [`GRID`] into `dir`.
fn sequential_sweep(dir: &Path) -> std::process::Output {
    let results = dir.to_str().expect("utf-8 temp dir");
    let args = ["sweep", "--workers", "1", "--quiet", "--results", results];
    let out = valley(&[&args[..], &GRID].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The reproducer: a sweep SIGKILLed after its third progress line used
/// to leave an empty directory — nothing was persisted until the last
/// job returned. Now the store holds the finished prefix of the grid, in
/// grid order, and the re-run resumes from it to the file an
/// uninterrupted sweep writes.
#[test]
fn a_killed_sweep_keeps_what_it_finished_and_resumes_from_it() {
    let dir = fresh_dir("killed-sweep");
    let results = dir.to_str().expect("utf-8 temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(["sweep", "--workers", "1", "--results", results])
        .args(GRID)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("valley runs");
    let progress = BufReader::new(child.stderr.take().expect("piped stderr"));
    let reached = progress
        .lines()
        .map_while(Result::ok)
        .any(|line| line.contains("[3/"));
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    assert!(reached, "the sweep never printed its third progress line");

    let grid = test_grid();
    let kept = ResultStore::open(&dir).expect("killed store opens").len();
    assert!(
        (3..grid.len()).contains(&kept),
        "{kept} of {} results survived a kill after [3/",
        grid.len()
    );
    assert_eq!(filed_jobs(&dir), grid[..kept], "not the grid's prefix");

    let resumed = sequential_sweep(&dir);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let hits = format!("{kept} cache hit(s), {} executed", grid.len() - kept);
    assert!(stdout.contains(&hits), "expected `{hits}`: {stdout}");

    let whole = fresh_dir("unkilled-sweep");
    sequential_sweep(&whole);
    assert_eq!(filed_jobs(&whole), grid);
    assert_eq!(normalized_store(&dir), normalized_store(&whole));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&whole).ok();
}

/// Kills its process when dropped, so a failed assertion leaves none.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Starts `valley serve` on an ephemeral port over `dir`; returns it with
/// its stdout and the address off its `serve: listening on` line.
fn spawn_serve(dir: &Path) -> (Reaped, BufReader<std::process::ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
        .args(GRID)
        .arg("--results")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("valley serve runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("serve prints its address");
    let addr = line
        .strip_prefix("serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in `{line}`"))
        .to_string();
    (Reaped(child), stdout, addr)
}

fn spawn_work(addr: &str) -> Reaped {
    let child = Command::new(env!("CARGO_BIN_EXE_valley"))
        .args(["work", "--addr", addr, "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("valley work runs");
    Reaped(child)
}

/// The restart half of "kill the coordinator mid-commit-cursor": a
/// coordinator SIGKILLed once the store file has a line leaves the
/// committed prefix behind, and a restart on the same directory with a
/// fresh worker resumes to the file a local sequential sweep writes.
#[test]
fn a_killed_coordinator_restarts_to_the_local_sequential_store() {
    let dir = fresh_dir("killed-serve");
    {
        let (coordinator, _stdout, addr) = spawn_serve(&dir);
        let _worker = spawn_work(&addr);
        let file = dir.join(STORE_FILE);
        let committed = (0..30_000).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            std::fs::read_to_string(&file).is_ok_and(|text| text.contains('\n'))
        });
        assert!(committed, "nothing was committed within a minute");
        drop(coordinator); // SIGKILL
    }
    // The kill landed mid-grid: a prefix is on disk and work is left.
    let grid = test_grid();
    let kept = ResultStore::open(&dir).expect("killed store opens").len();
    assert!((1..grid.len()).contains(&kept), "{kept} of {}", grid.len());
    assert_eq!(filed_jobs(&dir), grid[..kept], "not the grid's prefix");

    let (mut coordinator, stdout, addr) = spawn_serve(&dir);
    let mut worker = spawn_work(&addr);
    let summary: String = stdout.lines().map_while(Result::ok).collect();
    assert!(
        coordinator.0.wait().expect("serve exits").success(),
        "{summary}"
    );
    assert!(worker.0.wait().expect("work exits").success());
    let hits = format!("{kept} cache hit(s), {} executed", grid.len() - kept);
    assert!(summary.contains(&hits), "expected `{hits}`: {summary}");

    let local = fresh_dir("local-for-serve");
    sequential_sweep(&local);
    assert_eq!(filed_jobs(&dir), grid);
    assert_eq!(normalized_store(&dir), normalized_store(&local));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&local).ok();
}
