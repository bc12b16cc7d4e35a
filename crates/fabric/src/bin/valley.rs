//! The `valley` CLI: drive the sweep engine, its content-addressed
//! result store, and the distributed sweep fabric from the command line.
//!
//! Every subcommand is one row of [`COMMANDS`]: its name, what it does,
//! its handler and the flags it takes. The allow-list, which flags are
//! switches and the text of `valley help` are all derived from that
//! table, so this comment does not repeat it — run `valley help`.
//! Nothing but `sweep` and `work` ever simulates: `status`, `query`,
//! `figures` and `fetch` read stored results only.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use valley_core::hash::FastMap;
use valley_core::SchemeKind;
use valley_fabric::{
    fabric_status, fetch, run_worker, shutdown, CoordOptions, Coordinator, QueryFilters,
    WorkerOptions,
};
use valley_harness::figures::{all_tables, suite_spec, Figure, Reports, Suite, FIGURES};
use valley_harness::{
    default_results_dir, run_sweep, ConfigId, JobSpec, ResultStore, StoredResult, SweepOptions,
    SweepSpec, WallKind, DEFAULT_SEED, STORE_FILE,
};
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

// This file's `print!` and `println!` shadow std's: every stdout write
// goes through `write_stdout`, including any added later.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Every write to stdout. A reader that went away (`valley status |
/// head -1`) ends the command quietly with exit 0: nobody reads the rest.
/// Any other write error ends it with an error naming stdout.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// One flag: its name without the dashes, the placeholder of the value
/// it takes (empty for a switch) and one line of help.
type Flag = (&'static str, &'static str, &'static str);

const ADDR: Flag = ("addr", "HOST:PORT", "the coordinator (`serve` binds it)");
const SCALE: Flag = ("scale", "test|small|ref", "workload scale (default ref)");
const BENCHES: Flag = (
    "benches",
    "all|valley|nonvalley|MT,LU,..",
    "grid benchmarks (default all)",
);
const SCHEMES: Flag = ("schemes", "all|BASE,PAE,..", "grid schemes (default all)");
const SEEDS: Flag = ("seeds", "1,2,3", "grid BIM seeds (default 1)");
const CONFIGS: Flag = (
    "configs",
    "table1,sms24,sms48,stacked",
    "grid machines (default table1)",
);
const RESULTS: Flag = (
    "results",
    "DIR",
    "store (default $VALLEY_RESULTS_DIR, else ./results)",
);
// Inert and hidden: kept only because benchmark/'s multiseed_batched
// passes `--batch 9`; ROADMAP item one's benchmark PR removes it.
const BATCH: Flag = ("batch", "N", "");
const QUIET: Flag = ("quiet", "", "print the summary lines only");
const EXPECT_CACHED: Flag = (
    "expect-cached",
    "PCT",
    "fail unless PCT% came from the store",
);
const SEED: Flag = ("seed", "N", "one BIM seed (`figures`: default 1)");

/// One subcommand: its name, summary and handler, the flags it fails
/// without and the flags it accepts. The allow-list, which flags are
/// switches and `valley help` all come from this table.
struct Command {
    name: &'static str,
    about: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    required: &'static [Flag],
    flags: &'static [Flag],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "sweep",
        about: "run the grid, skipping every job already in the store",
        run: cmd_sweep,
        required: &[],
        flags: &[
            SCALE,
            BENCHES,
            SCHEMES,
            SEEDS,
            CONFIGS,
            ("workers", "N", "threads (default one per core)"),
            BATCH,
            RESULTS,
            ("force", "", "re-run stored jobs too"),
            QUIET,
            EXPECT_CACHED,
        ],
    },
    Command {
        name: "status",
        about: "summarize the store or a live coordinator",
        run: cmd_status,
        required: &[],
        flags: &[
            RESULTS,
            (
                "fabric",
                "HOST:PORT",
                "that coordinator's telemetry instead",
            ),
        ],
    },
    Command {
        name: "query",
        about: "print the stored results that match every given filter",
        run: cmd_query,
        required: &[],
        flags: &[
            ("bench", "MT", "benchmark filter"),
            ("scheme", "PAE", "scheme filter"),
            ("scale", "ref", "scale filter"),
            SEED,
            ("config", "table1", "configuration filter"),
            RESULTS,
        ],
    },
    Command {
        name: "figures",
        about: "render the paper's tables and figures from stored results only (sweep first)",
        run: cmd_figures,
        required: &[],
        flags: &[
            SCALE,
            SEED,
            ("set", "valley|nonvalley|all", "benchmarks (default valley)"),
            (
                "fig",
                "NAME,..|all",
                "these tables and figures instead (an unknown NAME lists them)",
            ),
            RESULTS,
        ],
    },
    Command {
        name: "gc",
        about: "compact the store: drop duplicates, schema orphans and truncated tails",
        run: cmd_gc,
        required: &[],
        flags: &[
            RESULTS,
            ("expect-clean", "", "fail if anything was removed"),
        ],
    },
    Command {
        name: "serve",
        about: "lease the grid's uncached jobs to workers; commit results in grid order",
        run: cmd_serve,
        required: &[ADDR],
        flags: &[
            SCALE,
            BENCHES,
            SCHEMES,
            SEEDS,
            CONFIGS,
            RESULTS,
            ("lease-ms", "N", "lease deadline (default 60000)"),
            ("linger", "", "answer reads until `fetch --shutdown`"),
            QUIET,
        ],
    },
    Command {
        name: "work",
        about: "execute leases from a coordinator with the local engine",
        run: cmd_work,
        required: &[ADDR],
        flags: &[
            ("name", "W", "telemetry name, stable across reconnects"),
            QUIET,
        ],
    },
    Command {
        name: "fetch",
        about: "print the grid's stored results as fetched from a coordinator",
        run: cmd_fetch,
        required: &[ADDR],
        flags: &[
            SCALE,
            BENCHES,
            SCHEMES,
            SEEDS,
            CONFIGS,
            ("figures", "", "render the figure tables too"),
            EXPECT_CACHED,
            ("shutdown", "", "then ask the coordinator to exit"),
            QUIET,
        ],
    },
];

/// `valley help`: one synopsis per [`COMMANDS`] row, then every flag
/// once with its help. A flag without help is hidden.
fn usage() -> String {
    let mut text = String::from("valley — resumable sweep engine for the Valley reproduction\n");
    let mut glossary: Vec<Flag> = Vec::new();
    for cmd in COMMANDS {
        let mut line = format!("\n  valley {:<7}", cmd.name);
        let flags = cmd.required.iter().chain(cmd.flags).enumerate();
        for (n, flag) in flags.filter(|(_, flag)| !flag.2.is_empty()) {
            let item = match (n < cmd.required.len(), flag.1) {
                (true, value) => format!(" --{} {value}", flag.0),
                (false, "") => format!(" [--{}]", flag.0),
                (false, value) => format!(" [--{} {value}]", flag.0),
            };
            if line.len() + item.len() > 88 {
                text.push_str(&line);
                line = format!("\n{:16}", "");
            }
            line.push_str(&item);
            if !glossary.iter().any(|seen| seen.0 == flag.0) {
                glossary.push(*flag);
            }
        }
        text.push_str(&format!("{line}\n{:17}{}", "", cmd.about));
    }
    text.push_str("\n\nFLAGS:\n");
    for (name, _, help) in glossary {
        text.push_str(&format!("  --{name:<17} {help}\n"));
    }
    text.push_str(
        "\nSeeds are part of every job key, even for the schemes that never read them (BASE, PM, \
         RMP):\nsuch a scheme's seeds are one simulation, which always runs once and is stored \
         under each key.\n`serve` re-leases the jobs of a worker that panics, stalls past its \
         deadline or disconnects,\nand drops duplicate completions, so the distributed store \
         matches a local sequential sweep.",
    );
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|cmd| cmd.name == name) {
        Some(cmd) => Flags::parse(cmd, rest).and_then(|flags| (cmd.run)(&flags)),
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            println!("{}", usage());
            Ok(())
        }
        None => Err(format!("unknown subcommand '{name}'\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The flags given to one subcommand, checked against its table row.
struct Flags(BTreeMap<&'static str, String>);

impl Flags {
    /// Rejects a flag the row does not list, a value flag without its
    /// value (or followed by another flag), a flag given twice, and a
    /// missing required flag.
    fn parse(cmd: &Command, args: &[String]) -> Result<Flags, String> {
        let mut given = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            let &(flag, value, _) = cmd
                .required
                .iter()
                .chain(cmd.flags)
                .find(|flag| flag.0 == name)
                .ok_or_else(|| format!("unknown flag '--{name}'"))?;
            let value = match value {
                "" => String::new(),
                // A value never starts with `--`: that is the next flag.
                _ => it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag '--{name}' needs a value"))?
                    .clone(),
            };
            if given.insert(flag, value).is_some() {
                return Err(format!("flag '--{name}' given twice"));
            }
        }
        match cmd.required.iter().find(|flag| !given.contains_key(flag.0)) {
            Some((flag, value, _)) => Err(format!("{} needs --{flag} {value}", cmd.name)),
            None => Ok(Flags(given)),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The flag's value as a `T`, or an error naming the flag.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed_with(name, |v| v.parse().ok())
    }

    /// [`parsed`](Self::parsed) with the type's own name parser.
    fn parsed_with<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| parse(v).ok_or_else(|| format!("bad value '{v}' for --{name}")))
            .transpose()
    }

    /// A comma-separated list flag, each item through `parse`, or
    /// `default` when the flag was not given.
    fn list<T: Clone>(
        &self,
        name: &str,
        default: &[T],
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let item = |v| parse(v).ok_or_else(|| format!("bad value '{v}' for --{name}"));
        match self.get(name) {
            None => Ok(default.to_vec()),
            Some(csv) => csv.split(',').map(item).collect(),
        }
    }
}

/// Expands the sweep-shaped grid flags shared by `sweep`, `serve` and
/// `fetch`.
fn parse_grid(flags: &Flags) -> Result<SweepSpec, String> {
    let scale = flags.parsed_with("scale", Scale::parse)?;
    Ok(SweepSpec {
        benches: match flags.get("benches") {
            Some("all") => Benchmark::ALL.to_vec(),
            Some("valley") => Benchmark::VALLEY.to_vec(),
            Some("nonvalley") => Benchmark::NON_VALLEY.to_vec(),
            _ => flags.list("benches", &Benchmark::ALL, Benchmark::parse)?,
        },
        schemes: match flags.get("schemes") {
            Some("all") => SchemeKind::ALL_SCHEMES.to_vec(),
            _ => flags.list("schemes", &SchemeKind::ALL_SCHEMES, SchemeKind::parse)?,
        },
        seeds: flags.list("seeds", &[DEFAULT_SEED], |s| s.parse().ok())?,
        scale: scale.unwrap_or(Scale::Ref),
        configs: flags.list("configs", &[ConfigId::Table1], ConfigId::parse)?,
    })
}

fn results_dir(flags: &Flags) -> std::path::PathBuf {
    flags
        .get("results")
        .map(Into::into)
        .unwrap_or_else(default_results_dir)
}

/// The `--results` store of `sweep` and `serve`, made if it is missing.
fn open_store(flags: &Flags) -> Result<ResultStore, String> {
    ResultStore::open(results_dir(flags)).map_err(|e| e.to_string())
}

/// The `--results` directory of a command that only reads the store:
/// one that is missing is refused, not made, so a mistyped path fails
/// instead of reading as an empty store.
fn existing_results_dir(flags: &Flags) -> Result<PathBuf, String> {
    let dir = results_dir(flags);
    if dir.is_dir() {
        Ok(dir)
    } else {
        Err(format!(
            "no result store at {} (only `sweep` and `serve` make one)",
            dir.display()
        ))
    }
}

/// [`open_store`] for a command that only reads: see
/// [`existing_results_dir`].
fn open_existing_store(flags: &Flags) -> Result<ResultStore, String> {
    ResultStore::open(existing_results_dir(flags)?).map_err(|e| e.to_string())
}

/// `--expect-cached`, a percentage: refused outside 0–100 before anything
/// runs, since no run can fail a bound under 0 or meet one over 100.
fn expect_cached(flags: &Flags) -> Result<Option<f64>, String> {
    let percentage = |v: &str| v.parse().ok().filter(|p| (0.0..=100.0).contains(p));
    flags
        .parsed_with("expect-cached", percentage)
        .map_err(|e| format!("{e}: a percentage is 0 to 100"))
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let spec = parse_grid(flags)?;
    let scale = spec.scale;
    let workers = flags.parsed("workers")?;
    flags.parsed::<usize>("batch")?; // inert, see BATCH
    let expect_cached = expect_cached(flags)?;

    let store = open_store(flags)?;
    let opts = SweepOptions {
        workers,
        verbose: !flags.has("quiet"),
        force: flags.has("force"),
    };
    let outcome = run_sweep(&spec, &store, &opts).map_err(|e| e.to_string())?;
    println!(
        "sweep: {} jobs at scale {} — {} cache hit(s), {} executed ({:.1}% hit rate) \
         in {:.2?} ({:.0} ms simulating)",
        outcome.jobs,
        scale,
        outcome.cache_hits,
        outcome.executed,
        outcome.hit_rate() * 100.0,
        outcome.wall,
        outcome.simulated_ms,
    );
    println!(
        "store: {} result(s) in {}",
        store.len(),
        store.dir().display()
    );

    if let Some(pct) = expect_cached {
        let actual = outcome.hit_rate() * 100.0;
        if actual < pct {
            return Err(format!(
                "expected ≥ {pct}% cache hits but measured {actual:.1}% — \
                 the resume path did not serve stored results"
            ));
        }
        println!("cache-hit check passed: {actual:.1}% ≥ {pct}%");
    }
    Ok(())
}

fn cmd_status(flags: &Flags) -> Result<(), String> {
    if let Some(addr) = flags.get("fabric") {
        return fabric_status_report(addr);
    }
    let dir = existing_results_dir(flags)?;
    // One hash over every declared wire/store shape and its version: two
    // deployments printing the same line run under the same contract.
    println!("schema: {:016x}", valley_fabric::schema::identity());
    // A lenient scan instead of a strict open: a store full of schema
    // orphans should *report* its state (and point at `gc`), not error.
    let scan = valley_harness::scan(&dir).map_err(|e| e.to_string())?;
    println!(
        "store: {} ({} result(s))",
        dir.display(),
        scan.records.len()
    );

    let mut by_group: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for e in &scan.records {
        *by_group
            .entry((e.spec.scale.name(), e.spec.config.name()))
            .or_insert(0) += 1;
    }
    if !by_group.is_empty() {
        println!("\n{:<10}{:<12}{:>8}", "scale", "config", "results");
        for ((scale, config), n) in &by_group {
            println!("{scale:<10}{config:<12}{n:>8}");
        }
    }

    // Wall-attribution telemetry, straight from the records' `wall`
    // field: measured walls are genuine per-job timings, cloned walls
    // mark lanes served by an identical lane's simulation.
    let cloned = scan
        .records
        .iter()
        .filter(|e| e.wall == WallKind::Cloned)
        .count();
    if cloned > 0 {
        println!(
            "\nlane dedupe: {cloned} result(s) were cloned from an identical lane \
             ({} of {} measured)",
            scan.records.len() - cloned,
            scan.records.len()
        );
    }

    println!("\n{STORE_FILE}: {} bytes on disk", scan.bytes);
    println!(
        "hygiene: {} duplicate record(s) (--force debris), {} orphaned-schema record(s), \
         {} truncated tail(s)",
        scan.duplicates, scan.orphans, scan.truncated
    );
    if scan.duplicates + scan.orphans + scan.truncated > 0 {
        println!("run `valley gc` to compact");
    }
    Ok(())
}

fn cmd_gc(flags: &Flags) -> Result<(), String> {
    let dir = existing_results_dir(flags)?;
    let report = valley_harness::gc(&dir).map_err(|e| e.to_string())?;
    println!(
        "gc: {} kept, {} removed ({} duplicate(s), {} orphan(s), {} truncated tail(s)) in {}",
        report.kept,
        report.removed(),
        report.duplicates_removed,
        report.orphans_removed,
        report.truncated_removed,
        dir.display(),
    );
    println!(
        "{STORE_FILE}: {} -> {} bytes on disk",
        report.bytes_before, report.bytes_after
    );
    if flags.has("expect-clean") && report.removed() > 0 {
        return Err(format!(
            "expected a clean store but gc removed {} record(s)",
            report.removed()
        ));
    }
    // The compacted store must still open (and serve) cleanly.
    let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    println!("store reopens cleanly: {} result(s)", store.len());
    Ok(())
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    let filters = QueryFilters {
        bench: flags.parsed_with("bench", Benchmark::parse)?,
        scheme: flags.parsed_with("scheme", SchemeKind::parse)?,
        scale: flags.parsed_with("scale", Scale::parse)?,
        seed: flags.parsed("seed")?,
        config: flags.parsed_with("config", ConfigId::parse)?,
    };
    let store = open_existing_store(flags)?;
    let matching = store.entries_where(|e| filters.matches(e));
    print_result_table(&matching);
    println!("{} result(s)", matching.len());
    Ok(())
}

/// The shared result table (`query` locally, `fetch` over the wire).
fn print_result_table<'a>(rows: impl IntoIterator<Item = &'a StoredResult>) {
    println!(
        "{:<8}{:<8}{:>6}  {:<7}{:<9}{:>12}{:>8}{:>10}{:>10}  {:<9}",
        "bench", "scheme", "seed", "scale", "config", "cycles", "ipc", "rbhit%", "wall_ms", "wall"
    );
    for e in rows {
        println!(
            "{:<8}{:<8}{:>6}  {:<7}{:<9}{:>12}{:>8.3}{:>10.1}{:>10.1}  {:<9}",
            e.spec.bench.label(),
            e.spec.scheme.label(),
            e.spec.seed,
            e.spec.scale.name(),
            e.spec.config.name(),
            e.report.cycles,
            e.report.ipc(),
            e.report.row_buffer_hit_rate() * 100.0,
            e.wall_ms,
            e.wall.as_str(),
        );
    }
}

fn cmd_figures(flags: &Flags) -> Result<(), String> {
    let scale = flags
        .parsed_with("scale", Scale::parse)?
        .unwrap_or(Scale::Ref);
    let seed: u64 = flags.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    // Pure cache read: collect every report or fail with the exact sweep
    // command that would fill the gap.
    let hint = |spec: &SweepSpec| {
        let line = sweep_line(spec, flags.get("results"));
        format!("run `{line}` first — figures never simulate")
    };
    let header = |dir: &Path| {
        println!(
            "figures from store {} (scale {scale}, seed {seed}; pure cache read)",
            dir.display()
        );
    };
    if let Some(names) = flags.get("fig") {
        if flags.has("set") {
            return Err("--fig and --set cannot be combined: --fig names the tables itself".into());
        }
        let rows = parse_figs(names)?;
        let mut specs: Vec<SweepSpec> = Vec::new();
        for spec in rows.iter().flat_map(|row| (row.grid)(scale, seed)) {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
        // A row that reads no jobs needs no store.
        let reports: Reports = if specs.is_empty() {
            Reports::default()
        } else {
            let store = open_existing_store(flags)?;
            collect(&specs, |job| store.get(job), hint)?
                .into_iter()
                .collect()
        };
        header(&results_dir(flags));
        for row in rows {
            print!("{}", (row.render)(scale, seed, &reports));
        }
        return Ok(());
    }
    let benches: Vec<Benchmark> = match flags.get("set") {
        None | Some("valley") => Benchmark::VALLEY.to_vec(),
        Some("nonvalley") => Benchmark::NON_VALLEY.to_vec(),
        Some("all") => Benchmark::ALL.to_vec(),
        Some(other) => return Err(format!("unknown set '{other}' (valley|nonvalley|all)")),
    };
    let store = open_existing_store(flags)?;
    // `sweep` defaults to every benchmark, so that is the sweep it names.
    let every_bench = suite_spec(&Benchmark::ALL, scale, seed);
    let suite = collect_suite(
        &benches,
        scale,
        seed,
        |job| store.get(job),
        &hint(&every_bench),
    )?;
    header(store.dir());
    print!("{}", all_tables(&suite, FIG12_TITLE));
    Ok(())
}

const FIG12_TITLE: &str = "Figure 12/20: speedup over BASE";

/// The registry rows `--fig` names, in the order given; `all` is every
/// row.
fn parse_figs(names: &str) -> Result<Vec<&'static Figure>, String> {
    if names == "all" {
        return Ok(FIGURES.iter().collect());
    }
    names
        .split(',')
        .map(|name| {
            FIGURES.iter().find(|row| row.name == name).ok_or_else(|| {
                let known: Vec<&str> = FIGURES.iter().map(|row| row.name).collect();
                format!("unknown figure '{name}' (all|{})", known.join("|"))
            })
        })
        .collect()
}

/// The `valley sweep` command that runs exactly `spec`'s jobs: every
/// axis at `sweep`'s default is left out.
fn sweep_line(spec: &SweepSpec, results: Option<&str>) -> String {
    let csv = |items: Vec<String>| items.join(",");
    let mut line = format!("valley sweep --scale {}", spec.scale);
    if spec.benches != Benchmark::ALL {
        let benches = spec.benches.iter().map(|b| b.label().to_string());
        line.push_str(&format!(" --benches {}", csv(benches.collect())));
    }
    if spec.schemes != SchemeKind::ALL_SCHEMES {
        let schemes = spec.schemes.iter().map(|s| s.label().to_string());
        line.push_str(&format!(" --schemes {}", csv(schemes.collect())));
    }
    if spec.seeds != [DEFAULT_SEED] {
        let seeds = spec.seeds.iter().map(u64::to_string);
        line.push_str(&format!(" --seeds {}", csv(seeds.collect())));
    }
    if spec.configs != [ConfigId::Table1] {
        let configs = spec.configs.iter().map(|c| c.name().to_string());
        line.push_str(&format!(" --configs {}", csv(configs.collect())));
    }
    if let Some(dir) = results {
        line.push_str(&format!(" --results {dir}"));
    }
    line
}

/// Collects the complete (bench × scheme) suite the figure tables need
/// through [`collect`], with the caller's hint for filling a gap.
fn collect_suite(
    benches: &[Benchmark],
    scale: Scale,
    seed: u64,
    get: impl Fn(&JobSpec) -> Option<StoredResult>,
    hint: &str,
) -> Result<Suite, String> {
    let jobs = collect(&[suite_spec(benches, scale, seed)], get, |_| hint.into())?;
    Ok(jobs
        .into_iter()
        .map(|(job, report)| ((job.bench, job.scheme), report))
        .collect())
}

/// Collects every job of `specs`, in grid order, from any result source
/// — the local store for `figures`, a fetched record set for `fetch
/// --figures`. Fails with one line per spec that has a gap: its first
/// missing job and `hint(spec)` for filling it.
fn collect(
    specs: &[SweepSpec],
    get: impl Fn(&JobSpec) -> Option<StoredResult>,
    hint: impl Fn(&SweepSpec) -> String,
) -> Result<Vec<(JobSpec, SimReport)>, String> {
    let mut jobs = Vec::new();
    let mut gaps = Vec::new();
    for spec in specs {
        let grid = spec.expand();
        let mut missing = Vec::new();
        for job in &grid {
            match get(job) {
                Some(e) => jobs.push((*job, e.report)),
                None => missing.push(job),
            }
        }
        if let Some(first) = missing.first() {
            gaps.push(format!(
                "{} of {} results missing (e.g. {}); {}",
                missing.len(),
                grid.len(),
                first.label(),
                hint(spec),
            ));
        }
    }
    if gaps.is_empty() {
        Ok(jobs)
    } else {
        Err(gaps.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Fabric subcommands
// ---------------------------------------------------------------------

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or_default();
    let spec = parse_grid(flags)?;
    let store = open_store(flags)?;
    let defaults = CoordOptions::default();
    let opts = CoordOptions {
        lease_ms: flags
            .parsed("lease-ms")?
            .unwrap_or(defaults.lease_ms)
            .max(1),
        linger: flags.has("linger"),
        verbose: !flags.has("quiet"),
    };
    let coordinator = Coordinator::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = coordinator.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serve: listening on {local} — {} job(s) at scale {}{}",
        spec.expand().len(),
        spec.scale,
        if opts.linger {
            " (lingering until `valley fetch --shutdown`)"
        } else {
            ""
        },
    );
    let summary = coordinator
        .run(&spec, &store, &opts)
        .map_err(|e| e.to_string())?;
    let t = &summary.telemetry;
    println!(
        "serve: {} job(s) — {} cache hit(s), {} executed by {} worker(s), \
         {} re-lease(s), {} duplicate completion(s) in {:.2?}",
        t.jobs_total,
        t.cache_hits,
        t.executed,
        t.workers.len(),
        t.releases,
        t.duplicates,
        summary.wall,
    );
    println!(
        "store: {} result(s) in {}",
        store.len(),
        store.dir().display()
    );
    if !summary.complete() {
        let mut msg = format!(
            "{} job(s) died after exhausting their attempts:",
            summary.dead.len()
        );
        for f in &summary.dead {
            msg.push_str(&format!("\n  {f}"));
        }
        return Err(msg);
    }
    Ok(())
}

fn cmd_work(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or_default();
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        name: flags.get("name").map_or(defaults.name, str::to_string),
        verbose: !flags.has("quiet"),
    };
    let summary = run_worker(addr, &opts).map_err(|e| e.to_string())?;
    println!(
        "work: drained — {} lease(s), {} job(s) completed, {} failed",
        summary.leases, summary.completed, summary.failed
    );
    Ok(())
}

fn cmd_fetch(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or_default();
    let spec = parse_grid(flags)?;
    let expect_cached = expect_cached(flags)?;
    let grid = spec.expand();
    // Every axis the grid pins to one value is filtered at the
    // coordinator; the exact grid intersection happens here.
    let records = fetch(addr, &QueryFilters::for_grid(&spec)).map_err(|e| e.to_string())?;
    let by_spec: FastMap<JobSpec, StoredResult> =
        records.into_iter().map(|r| (r.spec, r)).collect();
    let have: Vec<&StoredResult> = grid.iter().filter_map(|j| by_spec.get(j)).collect();
    if !flags.has("quiet") {
        print_result_table(have.iter().copied());
    }
    println!(
        "fetch: {}/{} of the requested grid served from the coordinator's store",
        have.len(),
        grid.len()
    );
    if let Some(pct) = expect_cached {
        let actual = have.len() as f64 * 100.0 / grid.len().max(1) as f64;
        if actual < pct {
            return Err(format!(
                "expected ≥ {pct}% of the grid stored but measured {actual:.1}% — \
                 the fetch path did not serve stored results"
            ));
        }
        println!("cache check passed: {actual:.1}% ≥ {pct}%");
    }
    if flags.has("figures") {
        let [seed] = spec.seeds[..] else {
            return Err("`fetch --figures` needs exactly one seed (--seeds N)".into());
        };
        let suite = collect_suite(
            &spec.benches,
            spec.scale,
            seed,
            |job| by_spec.get(job).cloned(),
            "run the distributed sweep first — fetch never simulates",
        )?;
        println!(
            "figures fetched from {addr} (scale {}, seed {seed}; pure cache read)",
            spec.scale
        );
        print!("{}", all_tables(&suite, FIG12_TITLE));
    }
    if flags.has("shutdown") {
        shutdown(addr).map_err(|e| e.to_string())?;
        println!("fetch: coordinator acknowledged shutdown");
    }
    Ok(())
}

/// Renders live coordinator telemetry (`valley status --fabric`).
fn fabric_status_report(addr: &str) -> Result<(), String> {
    let t = fabric_status(addr).map_err(|e| e.to_string())?;
    println!(
        "fabric {addr}: {}/{} job(s) stored ({} cache hit(s), {} executed)",
        t.cache_hits + t.executed,
        t.jobs_total,
        t.cache_hits,
        t.executed
    );
    println!(
        "leases: {} active, {} re-lease(s), {} duplicate completion(s)",
        t.active_leases, t.releases, t.duplicates
    );
    if !t.workers.is_empty() {
        println!("\n{:<24}{:>10}{:>8}", "worker", "completed", "failed");
        for w in &t.workers {
            println!("{:<24}{:>10}{:>8}", w.name, w.completed, w.failed);
        }
    }
    if !t.failures.is_empty() {
        println!("\nfailures ({}):", t.failures.len());
        for f in &t.failures {
            println!("  {} [{}]: {}", f.job, f.kind, f.message);
        }
    }
    Ok(())
}
