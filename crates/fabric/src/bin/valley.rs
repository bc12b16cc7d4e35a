//! The `valley` CLI: drive the sweep engine, its content-addressed
//! result store, and the distributed sweep fabric from the command line.
//!
//! ```text
//! valley sweep   [--scale S] [--benches B] [--schemes C] [--seeds N,..]
//!                [--configs K,..] [--workers N] [--batch N] [--results DIR]
//!                [--force] [--quiet] [--expect-cached PCT]
//! valley status  [--results DIR] [--fabric HOST:PORT] [--lint]
//! valley query   [--bench B] [--scheme C] [--scale S] [--seed N]
//!                [--config K] [--results DIR]
//! valley figures [--scale S] [--seed N] [--set valley|nonvalley|all]
//!                [--results DIR]
//! valley gc      [--results DIR] [--expect-clean]
//! valley serve   --addr HOST:PORT [grid flags] [--results DIR]
//!                [--lease-ms N] [--max-attempts N] [--linger] [--quiet]
//! valley work    --addr HOST:PORT [--name W] [--batch N] [--quiet]
//! valley fetch   --addr HOST:PORT [grid flags] [--figures]
//!                [--expect-cached PCT] [--shutdown]
//! ```
//!
//! `sweep` runs the grid (resuming from the store), `status` summarizes
//! the store (including `--force` duplicates and orphaned-schema records
//! awaiting `gc`) or, with `--fabric`, a live coordinator's telemetry,
//! `query` prints matching stored results, `figures` renders the
//! headline tables — speedup, row-buffer hit rate, channel parallelism,
//! and the Figure 11/16 DRAM power tables (the power model is a pure
//! function of the stored report) — *exclusively* from stored results;
//! it never simulates. `gc` compacts the shards, dropping superseded
//! duplicates and schema orphans.
//!
//! The fabric trio: `serve` leases a sweep's uncached jobs to remote
//! workers with crash-tolerant deadlines and merges results into the
//! store in grid order; `work` executes leases via the unchanged local
//! engine; `fetch` is the read-side network endpoint — query and
//! figure tables straight from the coordinator's store, never
//! simulating.

use std::collections::BTreeMap;
use std::process::ExitCode;
use valley_core::hash::FastMap;
use valley_core::SchemeKind;
use valley_fabric::{
    fabric_status, fetch, run_worker, shutdown, ClientOptions, CoordOptions, Coordinator,
    QueryFilters, WorkerOptions,
};
use valley_harness::util::{amean, hmean, row, scheme_header};
use valley_harness::{
    default_results_dir, parse_scheme, run_sweep, ConfigId, JobSpec, ResultStore, StoreOptions,
    StoredResult, SweepOptions, SweepSpec, WallKind, DEFAULT_SEED,
};
use valley_power::DramPowerModel;
use valley_sim::Batching;
use valley_workloads::{Benchmark, Scale};

const USAGE: &str = "\
valley — sharded, resumable sweep engine for the Valley reproduction

USAGE:
  valley sweep   [--scale test|small|ref] [--benches all|valley|nonvalley|MT,LU,..]
                 [--schemes all|BASE,PAE,..] [--seeds 1,2,3] [--configs table1,stacked,sms24]
                 [--workers N] [--batch N] [--results DIR]
                 [--force] [--quiet] [--expect-cached PCT] [--max-shard-bytes N]
  valley status  [--results DIR] [--fabric HOST:PORT] [--lint]
  valley query   [--bench MT] [--scheme PAE] [--scale ref] [--seed 1] [--config table1]
                 [--results DIR]
  valley figures [--scale test|small|ref] [--seed N] [--set valley|nonvalley|all]
                 [--results DIR]
  valley gc      [--results DIR] [--expect-clean]
  valley serve   --addr HOST:PORT [--scale S] [--benches B] [--schemes C]
                 [--seeds N,..] [--configs K,..] [--results DIR] [--lease-ms N]
                 [--retry-ms N] [--max-attempts N] [--linger] [--quiet]
                 [--max-shard-bytes N]
  valley work    --addr HOST:PORT [--name W] [--batch N]
                 [--connect-attempts N] [--backoff-ms N] [--quiet]
  valley fetch   --addr HOST:PORT [--scale S] [--benches B] [--schemes C]
                 [--seeds N,..] [--configs K,..] [--figures]
                 [--expect-cached PCT] [--shutdown] [--quiet]

The store defaults to $VALLEY_RESULTS_DIR, else ./results. A sweep skips
every job already in the store; `--expect-cached 95` additionally fails
the invocation if fewer than 95% of the jobs were cache hits (CI uses
this to prove the resume path works). Each simulation runs on one
thread; `--workers N` is the way to use more cores.
`--batch N` groups pending jobs that share a machine configuration, up
to N per group, and runs lanes that are the same simulation (a
deterministic scheme swept over seeds) once (identical per lane for
every N — also settable via $VALLEY_SIM_BATCH; batch width is never part
of a job key). `--max-shard-bytes N` auto-compacts the store at open
when any shard file exceeds N bytes. `figures` reads the store only —
run the matching sweep first. `gc` compacts the shards: duplicate keys
left behind by `sweep --force` (only the newest survives a load anyway)
and records orphaned by a schema change are dropped; `--expect-clean`
fails if anything had to be removed (CI runs it after the double sweep
to prove a clean store stays clean).

Fabric: `serve` expands the grid, skips stored keys, and leases the rest
to connecting workers over std-TCP with `--lease-ms` deadlines — a
worker that panics, stalls, or disconnects mid-job loses nothing (the
job is re-leased; duplicate completions are dropped idempotently), and
results are committed to the store in grid order, so the distributed
store matches a local sequential sweep. `--linger` keeps the read side
up after the grid completes, until `fetch --shutdown`. `work` executes
leases with the unchanged local engine (`--batch`/$VALLEY_SIM_BATCH
asks for same-machine batch leases). `fetch` is the read-side endpoint: it
prints the grid's stored results (or `--figures` tables) fetched from
the coordinator — never simulating — and `--expect-cached PCT` fails
unless at least PCT% of the requested grid was already served from the
store (CI uses it to prove the read path is a pure cache read).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "sweep" => cmd_sweep(rest),
        "status" => cmd_status(rest),
        "query" => cmd_query(rest),
        "figures" => cmd_figures(rest),
        "gc" => cmd_gc(rest),
        "serve" => cmd_serve(rest),
        "work" => cmd_work(rest),
        "fetch" => cmd_fetch(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--flag value` parser: returns the map and rejects unknown
/// or valueless flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown flag '--{name}'"));
        }
        // Boolean flags take no value.
        if matches!(
            name,
            "force" | "quiet" | "expect-clean" | "linger" | "figures" | "shutdown" | "lint"
        ) {
            flags.insert(name.to_string(), String::new());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag '--{name}' needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse_scale(flags: &BTreeMap<String, String>) -> Result<Scale, String> {
    match flags.get("scale") {
        None => Ok(Scale::Ref),
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale '{s}' (test|small|ref)")),
    }
}

fn parse_benches(flags: &BTreeMap<String, String>) -> Result<Vec<Benchmark>, String> {
    match flags.get("benches").map(String::as_str) {
        None | Some("all") => Ok(Benchmark::ALL.to_vec()),
        Some("valley") => Ok(Benchmark::VALLEY.to_vec()),
        Some("nonvalley") => Ok(Benchmark::NON_VALLEY.to_vec()),
        Some(csv) => csv
            .split(',')
            .map(|s| Benchmark::parse(s).ok_or_else(|| format!("unknown benchmark '{s}'")))
            .collect(),
    }
}

fn parse_schemes(flags: &BTreeMap<String, String>) -> Result<Vec<SchemeKind>, String> {
    match flags.get("schemes").map(String::as_str) {
        None | Some("all") => Ok(SchemeKind::ALL_SCHEMES.to_vec()),
        Some(csv) => csv
            .split(',')
            .map(|s| parse_scheme(s).ok_or_else(|| format!("unknown scheme '{s}'")))
            .collect(),
    }
}

fn parse_seeds(flags: &BTreeMap<String, String>) -> Result<Vec<u64>, String> {
    match flags.get("seeds") {
        None => Ok(vec![DEFAULT_SEED]),
        Some(csv) => csv
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
            .collect(),
    }
}

fn parse_configs(flags: &BTreeMap<String, String>) -> Result<Vec<ConfigId>, String> {
    match flags.get("configs") {
        None => Ok(vec![ConfigId::Table1]),
        Some(csv) => csv
            .split(',')
            .map(|s| ConfigId::parse(s).ok_or_else(|| format!("unknown config '{s}'")))
            .collect(),
    }
}

/// Expands the sweep-shaped grid flags shared by `sweep`, `serve` and
/// `fetch`.
fn parse_grid(flags: &BTreeMap<String, String>) -> Result<SweepSpec, String> {
    Ok(SweepSpec {
        benches: parse_benches(flags)?,
        schemes: parse_schemes(flags)?,
        seeds: parse_seeds(flags)?,
        scale: parse_scale(flags)?,
        configs: parse_configs(flags)?,
    })
}

fn open_store(flags: &BTreeMap<String, String>) -> Result<ResultStore, String> {
    let dir = flags
        .get("results")
        .map(Into::into)
        .unwrap_or_else(default_results_dir);
    let max_shard_bytes = flags
        .get("max-shard-bytes")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad byte count '{v}' for --max-shard-bytes"))
        })
        .transpose()?;
    ResultStore::open_with_options(dir, StoreOptions { max_shard_bytes }).map_err(|e| e.to_string())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "scale",
            "benches",
            "schemes",
            "seeds",
            "configs",
            "workers",
            "batch",
            "results",
            "force",
            "quiet",
            "expect-cached",
            "max-shard-bytes",
        ],
    )?;
    let spec = parse_grid(&flags)?;
    let scale = spec.scale;
    let workers = flags
        .get("workers")
        .map(|w| {
            w.parse::<usize>()
                .map_err(|_| format!("bad worker count '{w}'"))
        })
        .transpose()?;
    // 0 defers to $VALLEY_SIM_BATCH inside run_sweep: the flag, when
    // given, wins over the environment.
    let batch = flags
        .get("batch")
        .map(|n| {
            n.parse::<usize>()
                .map_err(|_| format!("bad batch width '{n}' for --batch"))
                .map(|n| n.max(1))
        })
        .transpose()?
        .unwrap_or(0);
    let expect_cached: Option<f64> = flags
        .get("expect-cached")
        .map(|p| p.parse().map_err(|_| format!("bad percentage '{p}'")))
        .transpose()?;

    let store = open_store(&flags)?;
    let opts = SweepOptions {
        workers,
        verbose: !flags.contains_key("quiet"),
        force: flags.contains_key("force"),
        batch,
    };
    let outcome = run_sweep(&spec, &store, &opts).map_err(|e| e.to_string())?;

    let executed_ms = outcome
        .jobs
        .iter()
        .filter(|j| !j.cached)
        .map(|j| j.wall_ms)
        .sum::<f64>()
        .max(0.0); // an empty sum can be -0.0, which formats as "-0"
    println!(
        "sweep: {} jobs at scale {} — {} cache hit(s), {} executed ({:.1}% hit rate) \
         in {:.2?} ({:.0} ms simulating)",
        outcome.jobs.len(),
        scale,
        outcome.cache_hits,
        outcome.executed,
        outcome.hit_rate() * 100.0,
        outcome.wall,
        executed_ms,
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

fn results_dir(flags: &BTreeMap<String, String>) -> std::path::PathBuf {
    flags
        .get("results")
        .map(Into::into)
        .unwrap_or_else(default_results_dir)
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["results", "fabric", "lint"])?;
    if flags.contains_key("lint") {
        // The invariant set this build enforces: lint tool version plus
        // the fingerprint of the pinned schema manifest. Two deployments
        // printing the same line run under the same schema contract.
        println!(
            "lint: valley-lint {} schema-manifest {:016x}",
            valley_lint::LINT_VERSION,
            valley_lint::manifest_hash()
        );
        return Ok(());
    }
    if let Some(addr) = flags.get("fabric") {
        return fabric_status_report(addr);
    }
    // Which analytics compute plane this build runs its BIM/entropy
    // sweeps on (today always the bit-sliced CPU backend; a GPU backend
    // would slot in behind the same trait and report here).
    let be = valley_compute::backend();
    println!("compute: {} (tile width {})", be.name(), be.tile_width());
    let dir = results_dir(&flags);
    // A lenient scan instead of a strict open: a store full of schema
    // orphans should *report* its state (and point at `gc`), not error.
    let scan = valley_harness::scan(&dir).map_err(|e| e.to_string())?;
    println!(
        "store: {} ({} result(s))",
        dir.display(),
        scan.records.len()
    );

    let mut by_group: BTreeMap<(String, String), usize> = BTreeMap::new();
    for e in &scan.records {
        *by_group
            .entry((e.spec.scale.name().to_string(), e.spec.config.name()))
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
    // mark lanes served by an identical lane's simulation (batch width
    // itself is pure scheduling and never part of a job key), and
    // averaged walls — equal shares of one batch's wall — only come
    // from stores written before batches timed each lane.
    let mut averaged = 0usize;
    let mut cloned = 0usize;
    for e in &scan.records {
        match e.wall {
            WallKind::Measured => {}
            WallKind::Averaged => averaged += 1,
            WallKind::Cloned => cloned += 1,
        }
    }
    if averaged + cloned > 0 {
        let legacy = match averaged {
            0 => String::new(),
            n => format!(", {n} carry an older store's averaged batch wall"),
        };
        println!(
            "\nbatched runs: {cloned} result(s) were cloned from an identical lane{legacy} \
             ({} of {} measured)",
            scan.records.len() - averaged - cloned,
            scan.records.len()
        );
    }

    let total: u64 = scan.shard_bytes.iter().sum();
    let populated = scan.shard_bytes.iter().filter(|&&b| b > 0).count();
    println!(
        "\nshards: {populated}/{} populated, {total} bytes on disk",
        scan.shard_bytes.len()
    );
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

fn cmd_gc(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["results", "expect-clean"])?;
    let dir = results_dir(&flags);
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
        "{} shard(s) rewritten, {} -> {} bytes on disk",
        report.shards_rewritten, report.bytes_before, report.bytes_after
    );
    if flags.contains_key("expect-clean") && report.removed() > 0 {
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

fn matches_filters(e: &StoredResult, flags: &BTreeMap<String, String>) -> bool {
    let eq = |key: &str, actual: &str| {
        flags
            .get(key)
            .is_none_or(|want| want.eq_ignore_ascii_case(actual))
    };
    eq("bench", e.spec.bench.label())
        && eq("scheme", e.spec.scheme.label())
        && eq("scale", e.spec.scale.name())
        && eq("config", &e.spec.config.name())
        && flags
            .get("seed")
            .is_none_or(|want| want.parse() == Ok(e.spec.seed))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["bench", "scheme", "scale", "seed", "config", "results"],
    )?;
    let store = open_store(&flags)?;
    let matching = store.entries_where(|e| matches_filters(e, &flags));
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

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["scale", "seed", "set", "results"])?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = match flags.get("seed") {
        None => DEFAULT_SEED,
        Some(s) => s.parse().map_err(|_| format!("bad seed '{s}'"))?,
    };
    let benches: Vec<Benchmark> = match flags.get("set").map(String::as_str) {
        None | Some("valley") => Benchmark::VALLEY.to_vec(),
        Some("nonvalley") => Benchmark::NON_VALLEY.to_vec(),
        Some("all") => Benchmark::ALL.to_vec(),
        Some(other) => return Err(format!("unknown set '{other}' (valley|nonvalley|all)")),
    };
    let store = open_store(&flags)?;

    // Pure cache read: collect every (bench, scheme) report or fail with
    // the exact sweep command that would fill the gap.
    let suite = collect_suite(
        &benches,
        scale,
        seed,
        |job| store.get(job),
        &format!("run `valley sweep --scale {scale}` first — figures never simulate"),
    )?;
    println!(
        "figures from store {} (scale {scale}, seed {seed}; pure cache read)",
        store.dir().display()
    );
    render_figures(&suite, &benches);
    Ok(())
}

/// Collects the complete (bench × scheme) suite the figure tables need,
/// from any result source — the local store for `figures`, a fetched
/// record set for `fetch --figures`. Fails with the first gap and the
/// caller's hint for filling it.
fn collect_suite(
    benches: &[Benchmark],
    scale: Scale,
    seed: u64,
    get: impl Fn(&JobSpec) -> Option<StoredResult>,
    hint: &str,
) -> Result<BTreeMap<(Benchmark, SchemeKind), StoredResult>, String> {
    let mut suite = BTreeMap::new();
    let mut missing = Vec::new();
    let spec = SweepSpec::new(benches, &SchemeKind::ALL_SCHEMES, scale).with_seeds(&[seed]);
    for job in spec.expand() {
        match get(&job) {
            Some(e) => {
                suite.insert((job.bench, job.scheme), e);
            }
            None => missing.push(job.label()),
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "{} of {} results missing (e.g. {}); {hint}",
            missing.len(),
            benches.len() * SchemeKind::ALL_SCHEMES.len(),
            missing[0],
        ));
    }
    Ok(suite)
}

/// Renders the headline figure tables from a complete suite (shared by
/// `figures` and `fetch --figures` — neither ever simulates).
fn render_figures(suite: &BTreeMap<(Benchmark, SchemeKind), StoredResult>, benches: &[Benchmark]) {
    let schemes = SchemeKind::ALL_SCHEMES;
    let table = |title: &str,
                 metric: &dyn Fn(&StoredResult) -> f64,
                 agg: &dyn Fn(&[f64]) -> f64,
                 agg_label: &str,
                 precision: usize| {
        println!("\n{title}");
        println!("{}", scheme_header("bench", &schemes, 8));
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
        for &b in benches {
            let vals: Vec<f64> = schemes.iter().map(|&s| metric(&suite[&(b, s)])).collect();
            for (c, v) in vals.iter().enumerate() {
                cols[c].push(*v);
            }
            println!("{}", row(b.label(), &vals, 8, precision));
        }
        let aggs: Vec<f64> = cols.iter().map(|c| agg(c)).collect();
        println!("{}", row(agg_label, &aggs, 8, precision));
    };

    table(
        "Speedup over BASE (Figure 12/20)",
        &|e| {
            let base = &suite[&(e.spec.bench, SchemeKind::Base)];
            e.report.speedup_over(&base.report)
        },
        &hmean,
        "HMEAN",
        2,
    );
    table(
        "DRAM row-buffer hit rate % (Figure 15)",
        &|e| e.report.row_buffer_hit_rate() * 100.0,
        &amean,
        "AVG",
        1,
    );
    table(
        "Channel-level parallelism (Figure 14b)",
        &|e| e.report.channel_parallelism,
        &amean,
        "AVG",
        2,
    );

    // Power tables (Figures 11/16): the DRAM power model is a pure
    // function of the stored report, so these render from the store
    // like everything else — `figures` never simulates, for power
    // either.
    let model = DramPowerModel::gddr5();
    println!("\nNormalized execution time vs normalized DRAM power (Figure 11)");
    println!(
        "{:<8}{:>16}{:>18}",
        "scheme", "norm exec time", "norm DRAM power"
    );
    for &s in &schemes {
        let mut times = Vec::new();
        let mut powers = Vec::new();
        for &b in benches {
            let base = &suite[&(b, SchemeKind::Base)].report;
            let r = &suite[&(b, s)].report;
            times.push(r.cycles as f64 / base.cycles as f64);
            powers.push(model.evaluate(r).total() / model.evaluate(base).total());
        }
        println!(
            "{:<8}{:>16.3}{:>18.3}",
            s.label(),
            amean(&times),
            amean(&powers)
        );
    }
    println!("\nDRAM power breakdown in Watts, averaged over benchmarks (Figure 16)");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "scheme", "background", "activate", "read", "write", "total"
    );
    for &s in &schemes {
        let (mut bg, mut act, mut rd, mut wr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &b in benches {
            let p = model.evaluate(&suite[&(b, s)].report);
            bg.push(p.background);
            act.push(p.activate);
            rd.push(p.read);
            wr.push(p.write);
        }
        let (bg, act, rd, wr) = (amean(&bg), amean(&act), amean(&rd), amean(&wr));
        println!(
            "{:<8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>12.1}",
            s.label(),
            bg,
            act,
            rd,
            wr,
            bg + act + rd + wr
        );
    }
}

// ---------------------------------------------------------------------
// Fabric subcommands
// ---------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "addr",
            "scale",
            "benches",
            "schemes",
            "seeds",
            "configs",
            "results",
            "lease-ms",
            "retry-ms",
            "max-attempts",
            "linger",
            "quiet",
            "max-shard-bytes",
        ],
    )?;
    let addr = flags
        .get("addr")
        .ok_or("serve needs --addr HOST:PORT (use port 0 for an ephemeral port)")?;
    let spec = parse_grid(&flags)?;
    let store = open_store(&flags)?;
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        flags
            .get(key)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad value '{v}' for --{key}"))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let defaults = CoordOptions::default();
    let opts = CoordOptions {
        lease_ms: parse_u64("lease-ms", defaults.lease_ms)?.max(1),
        retry_ms: parse_u64("retry-ms", defaults.retry_ms)?.max(1),
        max_attempts: u32::try_from(parse_u64("max-attempts", u64::from(defaults.max_attempts))?)
            .map_err(|_| "bad value for --max-attempts".to_string())?
            .max(1),
        linger: flags.contains_key("linger"),
        verbose: !flags.contains_key("quiet"),
    };
    let coordinator =
        Coordinator::bind(addr.as_str()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
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

fn cmd_work(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "addr",
            "name",
            "batch",
            "connect-attempts",
            "backoff-ms",
            "quiet",
        ],
    )?;
    let addr = flags.get("addr").ok_or("work needs --addr HOST:PORT")?;
    // The lease capacity mirrors `sweep --batch`: the flag wins, else
    // $VALLEY_SIM_BATCH, else single-job leases.
    let capacity = match flags.get("batch") {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("bad batch width '{n}' for --batch"))?
            .max(1),
        None => Batching::from_env().width().max(1),
    };
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        name: flags.get("name").cloned().unwrap_or(defaults.name),
        capacity,
        connect_attempts: flags
            .get("connect-attempts")
            .map(|v| {
                v.parse::<u32>()
                    .map_err(|_| format!("bad value '{v}' for --connect-attempts"))
            })
            .transpose()?
            .unwrap_or(defaults.connect_attempts)
            .max(1),
        backoff_ms: flags
            .get("backoff-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad value '{v}' for --backoff-ms"))
            })
            .transpose()?
            .unwrap_or(defaults.backoff_ms)
            .max(1),
        verbose: !flags.contains_key("quiet"),
    };
    let summary = run_worker(addr, &opts).map_err(|e| e.to_string())?;
    println!(
        "work: drained — {} lease(s), {} job(s) completed, {} failed",
        summary.leases, summary.completed, summary.failed
    );
    Ok(())
}

fn cmd_fetch(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "addr",
            "scale",
            "benches",
            "schemes",
            "seeds",
            "configs",
            "figures",
            "expect-cached",
            "shutdown",
            "quiet",
        ],
    )?;
    let addr = flags.get("addr").ok_or("fetch needs --addr HOST:PORT")?;
    let spec = parse_grid(&flags)?;
    let grid = spec.expand();
    let copts = ClientOptions::default();
    // Every axis the grid pins to one value is filtered at the
    // coordinator; the exact grid intersection happens here.
    let records = fetch(addr, &QueryFilters::for_grid(&spec), &copts).map_err(|e| e.to_string())?;
    let by_spec: FastMap<JobSpec, StoredResult> =
        records.into_iter().map(|r| (r.spec, r)).collect();
    let have: Vec<&StoredResult> = grid.iter().filter_map(|j| by_spec.get(j)).collect();
    if !flags.contains_key("quiet") {
        print_result_table(have.iter().copied());
    }
    println!(
        "fetch: {}/{} of the requested grid served from the coordinator's store",
        have.len(),
        grid.len()
    );
    if let Some(p) = flags.get("expect-cached") {
        let pct: f64 = p.parse().map_err(|_| format!("bad percentage '{p}'"))?;
        let actual = have.len() as f64 * 100.0 / grid.len().max(1) as f64;
        if actual < pct {
            return Err(format!(
                "expected ≥ {pct}% of the grid stored but measured {actual:.1}% — \
                 the fetch path did not serve stored results"
            ));
        }
        println!("cache check passed: {actual:.1}% ≥ {pct}%");
    }
    if flags.contains_key("figures") {
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
        render_figures(&suite, &spec.benches);
    }
    if flags.contains_key("shutdown") {
        shutdown(addr, &copts).map_err(|e| e.to_string())?;
        println!("fetch: coordinator acknowledged shutdown");
    }
    Ok(())
}

/// Renders live coordinator telemetry (`valley status --fabric`).
fn fabric_status_report(addr: &str) -> Result<(), String> {
    let t = fabric_status(addr, &ClientOptions::default()).map_err(|e| e.to_string())?;
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
