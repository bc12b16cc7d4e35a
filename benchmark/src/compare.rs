//! `compare A.jsonl B.jsonl`: two sets of runs → one row per workload ×
//! end-to-end metric reading unchanged / worse / unresolved, and
//! exact-equality rows for the counts a simulator-only change must leave
//! identical.
//!
//! Every run in a set is one sample (the acceptance check makes ten per
//! workload, each with another seed); a set's value is the median of its
//! samples and its spread the interquartile range over that median.

use crate::contract::Contract;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use valley_sim::json::{self, Json};

/// Per-layer values that are exact functions of (workload, seed).
const EXACT: [&str; 4] = [
    "sim.cycles",
    "sim.txns",
    "sim.thread_instructions",
    "sim.batch_dedupe_ratio",
];

/// The verdict on one workload × metric pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a` for a metric where `lower_is_better`,
/// allowed to worsen by `bound` (a share of `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    // Flip higher-is-better metrics so that "larger is worse" throughout.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let widest = spread(a).abs().max(spread(b).abs());
    let worst_b = b.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let b_always_better = worst_b < best_a;
    if widest > bound && !b_always_better {
        Verdict::Unresolved
    } else if sign * (mb - ma) > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One run read back from a results file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            let bad = |what: &str| format!("{} line {}: {what}", path.display(), n + 1);
            let v = json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let metrics = match v.get("metrics") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
                _ => return Err(bad("no metrics object")),
            };
            Ok(Run {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("no workload"))?
                    .to_string(),
                seed: v
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("no seed"))?,
                trace: v
                    .get("trace")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("no trace flag"))?,
                failed: v
                    .get("failed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("no failed count"))?,
                metrics,
            })
        })
        .collect()
}

pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [flag, root, a, b] = args else {
        return Err("usage: valley-benchmark compare --root DIR A.jsonl B.jsonl".into());
    };
    if flag != "--root" {
        return Err(format!("unexpected argument '{flag}'"));
    }
    let Contract {
        workloads,
        end_to_end: declared,
        ..
    } = Contract::load(Path::new(root))?;
    let (runs_a, runs_b) = (load_runs(Path::new(a))?, load_runs(Path::new(b))?);
    let mut regressed = false;

    println!(
        "{:<20}{:<14}{:>4}{:>12}{:>9}{:>4}{:>12}{:>9}{:>9}{:>7}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr A",
        "nB",
        "median B",
        "iqr B",
        "B vs A",
        "bound"
    );
    for w in &workloads {
        let samples = |runs: &[Run], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| !r.trace && r.workload == *w)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for m in &declared {
            let (xa, xb) = (samples(&runs_a, &m.name), samples(&runs_b, &m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("{w:<20}{:<14}  no runs on one side", m.name);
                continue;
            }
            let bound = m
                .bound
                .ok_or_else(|| format!("end-to-end metric {} has no bound", m.name))?;
            let v = verdict(&xa, &xb, bound, m.lower_is_better);
            regressed |= v == Verdict::Worse;
            println!(
                "{w:<20}{:<14}{:>4}{:>12.5}{:>8.1}%{:>4}{:>12.5}{:>8.1}%{:>+8.1}%{:>6.0}%  {}",
                m.name,
                xa.len(),
                median(&xa),
                spread(&xa) * 100.0,
                xb.len(),
                median(&xb),
                spread(&xb) * 100.0,
                (median(&xb) / median(&xa) - 1.0) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
            let failed: u64 = runs
                .iter()
                .filter(|r| r.workload == *w)
                .map(|r| r.failed)
                .sum();
            if failed > 0 {
                regressed = true;
                println!("{w:<20}ops_failed    set {side}: {failed} operation(s) FAILED");
            }
        }
    }

    // Counts repeat exactly for one (workload, seed); compare the traced
    // runs both sets share.
    println!(
        "\n{:<20}{:>8}  {:<28}{:>22}{:>22}  verdict",
        "workload", "seed", "count", "A", "B"
    );
    let traced = |runs: &[Run]| -> BTreeMap<(String, u64), BTreeMap<String, f64>> {
        runs.iter()
            .filter(|r| r.trace)
            .map(|r| ((r.workload.clone(), r.seed), r.metrics.clone()))
            .collect()
    };
    let (ta, tb) = (traced(&runs_a), traced(&runs_b));
    let mut shared = 0;
    for (key, ma) in &ta {
        let Some(mb) = tb.get(key) else { continue };
        shared += 1;
        for name in EXACT {
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            let same = va == vb;
            regressed |= !same;
            println!(
                "{:<20}{:>8}  {name:<28}{va:>22}{vb:>22}  {}",
                key.0,
                key.1,
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    if shared == 0 {
        println!("(no traced runs with the same workload and seed on both sides)");
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Ten runs around 1.0 with an interquartile range of about 2 %.
    const A: [f64; 10] = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02, 1.02];

    fn scaled(by: f64) -> Vec<f64> {
        A.iter().map(|x| x * by).collect()
    }

    #[test]
    fn same_runs_are_unchanged() {
        assert_eq!(verdict(&A, &A, 0.10, true), Verdict::Unchanged);
        assert_eq!(verdict(&A, &scaled(1.05), 0.10, true), Verdict::Unchanged);
    }

    #[test]
    fn a_shift_beyond_the_bound_is_worse() {
        assert_eq!(verdict(&A, &scaled(1.15), 0.10, true), Verdict::Worse);
        // For a higher-is-better metric, dropping is what is worse.
        assert_eq!(verdict(&A, &scaled(0.85), 0.10, false), Verdict::Worse);
        assert_eq!(verdict(&A, &scaled(1.15), 0.10, false), Verdict::Unchanged);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let noisy: Vec<f64> = A
            .iter()
            .enumerate()
            .map(|(i, x)| x * (0.8 + 0.05 * i as f64))
            .collect();
        assert_eq!(verdict(&A, &noisy, 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &A, 0.10, true), Verdict::Unresolved);
    }

    #[test]
    fn wide_runs_that_all_read_better_still_count() {
        let noisy_but_faster: Vec<f64> = A
            .iter()
            .enumerate()
            .map(|(i, x)| x * (0.4 + 0.04 * i as f64))
            .collect();
        assert_eq!(
            verdict(&A, &noisy_but_faster, 0.10, true),
            Verdict::Unchanged
        );
    }
}
