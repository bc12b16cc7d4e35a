//! The repo benchmark: end-to-end numbers from driving the released
//! `valley` CLI as child processes, per-layer numbers from a separate
//! traced run that calls each layer's public functions. See `README.md`
//! for the metric glossary and `../BENCHMARK.json` for the contract.
//!
//! `run.sh` builds both programs and then calls this binary:
//!
//! ```text
//! valley-benchmark run --root DIR --valley BIN --build-ns N
//!                      [--workload W] --seed N --seconds S --trace 0|1
//! valley-benchmark compare --root DIR A.jsonl B.jsonl
//! ```

mod calib;
mod compare;
mod contract;
mod e2e;
mod io_plane;
mod layers;
mod proc;
mod spans;
mod stats;
mod traced;
mod workloads;

use contract::{in_declared_order, Contract};
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use valley_sim::json::Json;
use workloads::{Ctx, Kind, Workload};

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::cmd_compare(rest),
        Some((cmd, [])) if cmd == "probe" => {
            calib::serve_probe();
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: valley-benchmark run|compare … (see benchmark/README.md)".into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; every flag takes a value.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag '--{name}' needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
) -> Result<T, String> {
    let raw = flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
    raw.parse()
        .map_err(|_| format!("bad value '{raw}' for --{name}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(
        args,
        &[
            "root", "valley", "build-ns", "workload", "seed", "seconds", "trace",
        ],
    )?;
    let root: PathBuf = required(&flags, "root")?;
    let valley: PathBuf = required(&flags, "valley")?;
    let build_ns: u64 = required(&flags, "build-ns")?;
    let seed: u64 = required(&flags, "seed")?;
    let seconds: f64 = required(&flags, "seconds")?;
    let trace = match required::<u8>(&flags, "trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("bad value '{other}' for --trace (0|1)")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let kinds = match flags.get("workload") {
        None => Kind::ALL.to_vec(),
        Some(name) => vec![Kind::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?],
    };

    let contract = Contract::load(&root)?;
    if contract.workloads != Kind::ALL.map(Kind::name) {
        return Err("BENCHMARK.json does not declare the benchmark's four workloads".into());
    }
    let inv = Invocation {
        seed,
        seconds,
        trace,
        // Read before an end-to-end run confines itself to one CPU.
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for kind in kinds {
        let dir = out.join(format!("run-{}-{}", kind.name(), std::process::id()));
        let ctx = Ctx {
            valley: valley.clone(),
            dir: dir.clone(),
            seed,
        };
        let mut workload = Workload::new(kind, ctx);
        let (outcome, declared) = if trace {
            (
                traced::run(&mut workload, seconds, build_ns as f64 / 1e9, &out),
                &contract.per_layer,
            )
        } else {
            let e = e2e::run(&mut workload, seconds);
            let outcome = Outcome {
                rows: e.samples().iter().map(Row::of_samples).collect(),
                ops: e.ops,
                failed: e.failed,
                raw: e.raw_json(),
            };
            (outcome, &contract.end_to_end)
        };
        let _ = std::fs::remove_dir_all(&dir);
        report(&out, kind, &inv, &outcome, declared)?;
    }
    // A run that printed its result exits 0; failed operations are in the
    // result (`correct`, `failed`), not in the exit code.
    Ok(ExitCode::SUCCESS)
}

/// The arguments of a run that its report repeats.
struct Invocation {
    seed: u64,
    seconds: f64,
    trace: bool,
    host_threads: usize,
}

/// One reported metric and how it prints.
pub struct Row {
    pub metric: Metric,
    /// What follows the unit on the metric's line: quartiles and sample
    /// count of a median, empty for a single reading.
    pub note: String,
}

impl Row {
    pub fn single(metric: Metric) -> Row {
        Row {
            metric,
            note: String::new(),
        }
    }

    fn of_samples(s: &e2e::Samples) -> Row {
        let (q1, q3) = quartiles(&s.values);
        let mut note = format!("q1 {q1:.6} q3 {q3:.6} n {}", s.values.len());
        if let Some(raw) = &s.raw {
            note.push_str(&format!(" (as clocked: {:.6} s)", median(raw)));
        }
        Row {
            metric: metric(s.name, median(&s.values), s.unit),
            note,
        }
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Operations attempted and failed (see `workloads::Round`).
    pub ops: u64,
    pub failed: u64,
    /// Every raw value behind the metrics (`Json::Null` if none).
    pub raw: Json,
}

/// Prints every metric by name with its unit in `declared` order,
/// appends the run (with all raw round values) to `out/results.jsonl`,
/// and ends with the one-line JSON result.
fn report(
    out: &Path,
    kind: Kind,
    inv: &Invocation,
    outcome: &Outcome,
    declared: &[contract::Declared],
) -> Result<(), String> {
    let Invocation {
        seed,
        seconds,
        trace,
        host_threads,
    } = *inv;
    let Outcome {
        rows,
        ops,
        failed,
        raw,
    } = outcome;
    let measured: Vec<Metric> = rows.iter().map(|r| r.metric.clone()).collect();
    let metrics = in_declared_order(&measured, declared)?;
    println!(
        "# {} seed {seed} trace {} — model unvalidated (no hardware or GPGPU-sim reference in the repo), \
         modelled caches start empty; {} host thread(s)",
        kind.name(),
        u8::from(trace),
        host_threads,
    );
    if !trace {
        println!(
            "# medians over rounds; times are seconds at the machine-speed probe's nominal speed \
             (README.md, \"Machine speed\")"
        );
    }
    for (name, value, unit) in &metrics {
        let note = &rows
            .iter()
            .find(|r| r.metric.0 == *name)
            .expect("ordered metrics come from the rows")
            .note;
        println!("{name:<40} {value:>16.6} {unit:<5} {note}");
    }
    println!("{:<40} {ops:>16} count", "ops_total");
    println!("{:<40} {failed:>16} count", "ops_failed");

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = vec![
        ("correct".to_string(), Json::Bool(*failed == 0)),
        ("attempted".into(), Json::UInt(*ops.max(&1))),
        ("failed".into(), Json::UInt(*failed)),
        ("metrics".into(), metrics_json),
    ];
    let mut line = vec![
        ("workload".to_string(), Json::Str(kind.name().into())),
        ("seed".into(), Json::UInt(seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
    ];
    line.extend(result.iter().cloned());
    line.push(("raw".into(), raw.clone()));
    let path = out.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{}", Json::Obj(line).to_json_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    println!("{}", Json::Obj(result).to_json_string());
    Ok(())
}
