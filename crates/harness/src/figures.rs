//! The suite tables: each function renders one paper artifact from a
//! [`Suite`] of reports, as a string. `valley-bench`'s figure binaries
//! print them after running the simulations; `valley figures` and
//! `valley fetch --figures` print them from stored results.

use crate::util::{amean, hmean, row, scheme_header};
use std::collections::BTreeMap;
use valley_core::SchemeKind;
use valley_power::{perf_per_watt, DramPowerModel};
use valley_sim::SimReport;
use valley_workloads::Benchmark;

/// A suite of simulation results keyed by (benchmark, scheme).
pub type Suite = BTreeMap<(Benchmark, SchemeKind), SimReport>;

/// Speedup of `scheme` over BASE for `bench` within a suite.
///
/// # Panics
///
/// Panics if either run is missing from the suite.
pub fn speedup(suite: &Suite, bench: Benchmark, scheme: SchemeKind) -> f64 {
    let base = &suite[&(bench, SchemeKind::Base)];
    suite[&(bench, scheme)].speedup_over(base)
}

/// The suite's schemes, in the paper's order.
fn schemes_of(suite: &Suite) -> Vec<SchemeKind> {
    SchemeKind::ALL_SCHEMES
        .into_iter()
        .filter(|k| suite.keys().any(|(_, s)| s == k))
        .collect()
}

/// The suite's benchmarks, in the paper's order.
fn benches_of(suite: &Suite) -> Vec<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .filter(|x| suite.keys().any(|(b, _)| b == x))
        .collect()
}

/// Generic per-benchmark × per-scheme table with a final aggregate row
/// (`agg` = arithmetic or harmonic mean); also returns that row.
fn metric_table(
    title: &str,
    suite: &Suite,
    metric: impl Fn(Benchmark, SchemeKind) -> f64,
    agg: impl Fn(&[f64]) -> f64,
    agg_label: &str,
    precision: usize,
) -> (String, Vec<(SchemeKind, f64)>) {
    let schemes = schemes_of(suite);
    let mut out = format!("\n{title}\n{}\n", scheme_header("bench", &schemes, 8));
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for b in benches_of(suite) {
        let vals: Vec<f64> = schemes.iter().map(|&s| metric(b, s)).collect();
        for (c, v) in vals.iter().enumerate() {
            cols[c].push(*v);
        }
        out.push_str(&format!("{}\n", row(b.label(), &vals, 8, precision)));
    }
    let aggs: Vec<f64> = cols.iter().map(|c| agg(c)).collect();
    out.push_str(&format!("{}\n", row(agg_label, &aggs, 8, precision)));
    (out, schemes.into_iter().zip(aggs).collect())
}

/// [`metric_table`] over one report at a time, with an `AVG` row.
fn report_table(
    title: &str,
    suite: &Suite,
    metric: impl Fn(&SimReport) -> f64,
    precision: usize,
) -> String {
    let metric = |b, s| metric(&suite[&(b, s)]);
    metric_table(title, suite, metric, amean, "AVG", precision).0
}

/// Figure 11: normalized execution time vs normalized DRAM power,
/// averaged over the suite's benchmarks.
pub fn fig11(suite: &Suite) -> String {
    let benches = benches_of(suite);
    let model = DramPowerModel::gddr5();
    let mut out = format!(
        "\nFigure 11: normalized execution time vs normalized DRAM power\n{:<8}{:>16}{:>18}\n",
        "scheme", "norm exec time", "norm DRAM power"
    );
    for s in schemes_of(suite) {
        let mut times = Vec::new();
        let mut powers = Vec::new();
        for &b in &benches {
            let base = &suite[&(b, SchemeKind::Base)];
            let r = &suite[&(b, s)];
            times.push(r.cycles as f64 / base.cycles as f64);
            powers.push(model.evaluate(r).total() / model.evaluate(base).total());
        }
        out.push_str(&format!(
            "{:<8}{:>16.3}{:>18.3}\n",
            s.label(),
            amean(&times),
            amean(&powers)
        ));
    }
    out
}

/// Figure 12 (or 20 for the non-valley suite): speedup over BASE. Golden
/// tests pin this byte-for-byte, so the formatting must not drift.
pub fn fig12_text(suite: &Suite, title: &str) -> String {
    fig12_render(suite, title).0
}

/// The per-scheme HMEAN speedups of the suite, in the same scheme order
/// as [`fig12_text`]'s columns — the single source for both the table's
/// HMEAN row and any headline context lines.
pub fn fig12_hmeans(suite: &Suite) -> Vec<(SchemeKind, f64)> {
    fig12_render(suite, "").1
}

fn fig12_render(suite: &Suite, title: &str) -> (String, Vec<(SchemeKind, f64)>) {
    let metric = |b, s| speedup(suite, b, s);
    metric_table(title, suite, metric, hmean, "HMEAN", 2)
}

/// Figure 13a: mean NoC packet latency in core cycles.
pub fn fig13a(suite: &Suite) -> String {
    let title = "Figure 13a: average NoC packet latency (core cycles)";
    report_table(title, suite, |r| r.noc_latency, 1)
}

/// Figure 13b: LLC miss rate (%).
pub fn fig13b(suite: &Suite) -> String {
    let title = "Figure 13b: LLC miss rate (%)";
    report_table(title, suite, |r| r.llc_miss_rate() * 100.0, 1)
}

/// Figure 14a/b/c: LLC-, channel- and bank-level parallelism.
pub fn fig14(suite: &Suite) -> String {
    [
        report_table(
            "Figure 14a: LLC-level parallelism (busy slices)",
            suite,
            |r| r.llc_parallelism,
            2,
        ),
        report_table(
            "Figure 14b: channel-level parallelism (busy channels)",
            suite,
            |r| r.channel_parallelism,
            2,
        ),
        report_table(
            "Figure 14c: bank-level parallelism (busy banks per busy channel)",
            suite,
            |r| r.bank_parallelism,
            2,
        ),
    ]
    .concat()
}

/// Figure 15: DRAM row-buffer hit rate (%).
pub fn fig15(suite: &Suite) -> String {
    let title = "Figure 15: DRAM row-buffer hit rate (%)";
    report_table(title, suite, |r| r.row_buffer_hit_rate() * 100.0, 1)
}

/// Figure 16: DRAM power breakdown, averaged over benchmarks.
pub fn fig16(suite: &Suite) -> String {
    let benches = benches_of(suite);
    let model = DramPowerModel::gddr5();
    let mut out = format!(
        "\nFigure 16: DRAM power breakdown (Watts), averaged over benchmarks\n\
         {:<8}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
        "scheme", "background", "activate", "read", "write", "total"
    );
    for s in schemes_of(suite) {
        let (mut bg, mut act, mut rd, mut wr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &b in &benches {
            let p = model.evaluate(&suite[&(b, s)]);
            bg.push(p.background);
            act.push(p.activate);
            rd.push(p.read);
            wr.push(p.write);
        }
        let (bg, act, rd, wr) = (amean(&bg), amean(&act), amean(&rd), amean(&wr));
        out.push_str(&format!(
            "{:<8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>12.1}\n",
            s.label(),
            bg,
            act,
            rd,
            wr,
            bg + act + rd + wr
        ));
    }
    out
}

/// Figure 17: normalized performance per Watt.
pub fn fig17(suite: &Suite) -> String {
    let title = "Figure 17: normalized performance per Watt (GPU + DRAM)";
    let metric = |b, s| perf_per_watt(&suite[&(b, s)], &suite[&(b, SchemeKind::Base)]);
    metric_table(title, suite, metric, hmean, "HMEAN", 2).0
}

/// Every table above in figure order, the speedup table under
/// `fig12_title`.
pub fn all_tables(suite: &Suite, fig12_title: &str) -> String {
    [
        fig11(suite),
        fig12_text(suite, fig12_title),
        fig13a(suite),
        fig13b(suite),
        fig14(suite),
        fig15(suite),
        fig16(suite),
        fig17(suite),
    ]
    .concat()
}
