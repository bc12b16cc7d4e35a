//! The untraced run: set-up, then timed rounds of one workload for the
//! requested number of seconds, summarized as the four end-to-end
//! metrics.

use crate::calib::Probe;
use crate::workloads::{Round, Workload};
use std::time::Instant;
use valley_sim::json::Json;

/// Set-up is repeated so `setup_s` is a median, not one sample.
const SETUP_REPEATS: usize = 3;

/// A run never reports a median of fewer rounds than this.
const MIN_ROUNDS: usize = 3;

/// The values behind one end-to-end metric: one per round (or per
/// set-up). The metric is their median.
pub struct Samples {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
    /// For a time: the same intervals in seconds as the clock read them,
    /// before the division by the machine-speed probe.
    pub raw: Option<Vec<f64>>,
}

/// Everything one untraced run measured.
pub struct E2e {
    /// Per set-up: raw seconds and the probe's slowdown around it.
    pub setups: Vec<(f64, f64)>,
    /// Per round: what it cost, and the probe's slowdown around it.
    pub rounds: Vec<(Round, f64)>,
    pub ops: u64,
    pub failed: u64,
    /// Whether the run could confine itself to one CPU.
    pub pinned: bool,
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn samples(&self) -> Vec<Samples> {
        let time = |name, raw: Vec<f64>, slow: Vec<f64>| Samples {
            name,
            unit: "s",
            values: raw.iter().zip(&slow).map(|(s, slow)| s / slow).collect(),
            raw: Some(raw),
        };
        let per_round = |f: &dyn Fn(&Round) -> f64| self.rounds.iter().map(|(r, _)| f(r)).collect();
        let slow: Vec<f64> = self.rounds.iter().map(|(_, slow)| *slow).collect();
        vec![
            time("wall_s", per_round(&|r| r.wall_s), slow.clone()),
            time("cpu_s", per_round(&|r| r.cpu_s), slow),
            Samples {
                name: "peak_rss_mb",
                unit: "MB",
                values: per_round(&|r| r.rss_kb as f64 / 1024.0),
                raw: None,
            },
            time(
                "setup_s",
                self.setups.iter().map(|s| s.0).collect(),
                self.setups.iter().map(|s| s.1).collect(),
            ),
        ]
    }

    /// Every raw value behind the metrics, for `out/results.jsonl`.
    pub fn raw_json(&self) -> Json {
        let num = Json::Num;
        let setups = self
            .setups
            .iter()
            .map(|(raw_s, slow)| {
                Json::Obj(vec![
                    ("raw_s".into(), num(*raw_s)),
                    ("slowdown".into(), num(*slow)),
                ])
            })
            .collect();
        let rounds = self
            .rounds
            .iter()
            .map(|(r, slow)| {
                let mut fields = vec![
                    ("wall_s".to_string(), num(r.wall_s)),
                    ("cpu_s".into(), num(r.cpu_s)),
                    ("rss_kb".into(), Json::UInt(r.rss_kb)),
                    ("slowdown".into(), num(*slow)),
                    ("ops".into(), Json::UInt(r.ops)),
                    ("failed".into(), Json::UInt(r.failed)),
                ];
                fields.extend(
                    r.phases
                        .iter()
                        .map(|(name, ms)| (name.to_string(), num(*ms))),
                );
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("pinned".into(), Json::Bool(self.pinned)),
            ("setups".into(), Json::Arr(setups)),
            ("rounds".into(), Json::Arr(rounds)),
        ])
    }
}

/// Sets `workload` up, then runs timed rounds until `seconds` have been
/// measured. The probe is read between any two timed intervals; an
/// interval's slowdown is the mean of the readings on either side of it.
pub fn run(workload: &mut Workload, seconds: f64) -> E2e {
    let pinned = crate::proc::pin_to_current_cpu();
    let mut probe = Probe::start().expect("start the machine-speed probe");
    let (mut ops, mut failed) = (0, 0);
    let mut setups = Vec::new();
    let mut before = probe.slowdown();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (setup_ops, setup_failed) = workload.setup();
        ops += setup_ops;
        failed += setup_failed;
        let raw_s = start.elapsed().as_secs_f64();
        let after = probe.slowdown();
        setups.push((raw_s, (before + after) / 2.0));
        before = after;
    }

    let mut rounds = Vec::new();
    let measuring = Instant::now();
    while rounds.len() < MIN_ROUNDS || measuring.elapsed().as_secs_f64() < seconds {
        let round = workload.round();
        let after = probe.slowdown();
        ops += round.ops;
        failed += round.failed;
        rounds.push((round, (before + after) / 2.0));
        before = after;
    }
    warn_if_rss_is_our_own(&rounds);
    E2e {
        setups,
        rounds,
        ops,
        failed,
        pinned,
    }
}

/// A child's `ru_maxrss` is never below the resident size of the process
/// that spawned it (exec folds the old address space's high-water mark
/// into the new one). If this process ever outgrows the children it
/// measures, `peak_rss_mb` silently becomes its own footprint. Say so
/// instead.
fn warn_if_rss_is_our_own(rounds: &[(Round, f64)]) {
    let own_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    if rounds.iter().any(|(r, _)| r.rss_kb <= own_kb) {
        eprintln!(
            "warning: the benchmark's own peak RSS ({own_kb} KiB) reaches a round's peak_rss; \
             peak_rss_mb is a floor set by the benchmark, not the program's footprint"
        );
    }
}
