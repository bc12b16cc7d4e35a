//! Every table and figure of the paper's evaluation, one row of
//! [`FIGURES`] each: its name, the sweeps it reads, and a function that
//! renders it as a string. `valley figures --fig NAME` collects a row's
//! jobs from the result store — failing with the `valley sweep` line of
//! each sweep that has a gap, so figures never simulate — and prints its
//! render. Analytic rows (Table I, the worked examples of Figures 2 and
//! 3, the entropy profiles of Figures 5 and 10, the entropy-window
//! ablation) read no jobs.
//!
//! The paper's own numbers live here beside the measured ones: Table
//! II's `paper_row`, Figure 12's headline context and the worked
//! examples' asserts. [`all_tables`] renders the headline tables of
//! Figures 11–17 over one [`Suite`]; `valley figures --set` and `valley
//! fetch --figures` print it.

use crate::{ConfigId, JobSpec, SweepSpec};
use std::collections::BTreeMap;
use valley_core::hash::FastMap;
use valley_core::{AddressMapper, DramMap, SchemeKind};
use valley_power::{dram_power, perf_per_watt};
use valley_sim::{GpuConfig, SimReport, WorkloadSource};
use valley_workloads::{analysis, Benchmark, Scale};

/// A suite of simulation results keyed by (benchmark, scheme).
pub type Suite = BTreeMap<(Benchmark, SchemeKind), SimReport>;

/// Reports by job: what a [`Figure`] renders from.
pub type Reports = FastMap<JobSpec, SimReport>;

/// One artifact of the paper's evaluation.
pub struct Figure {
    /// Its name: `valley figures --fig NAME`.
    pub name: &'static str,
    /// The sweeps whose jobs it reads at a scale and seed; none for an
    /// analytic row.
    pub grid: fn(Scale, u64) -> Vec<SweepSpec>,
    /// Renders it at a scale and seed from reports holding every job of
    /// its grid.
    pub render: fn(Scale, u64, &Reports) -> String,
}

/// The registry, in the paper's order.
pub const FIGURES: [Figure; 17] = [
    Figure {
        name: "table1_config",
        grid: no_grid,
        render: |_, _, _| table1(),
    },
    Figure {
        name: "table2_workloads",
        grid: |scale, seed| vec![base_spec(&Benchmark::ALL, scale, seed)],
        render: table2,
    },
    Figure {
        name: "fig02_motivation",
        grid: no_grid,
        render: |_, _, _| fig02(),
    },
    Figure {
        name: "fig03_window_entropy",
        grid: no_grid,
        render: |_, _, _| fig03(),
    },
    Figure {
        name: "fig05_entropy",
        grid: no_grid,
        render: |scale, _, _| fig05(scale),
    },
    Figure {
        name: "fig10_mt_entropy",
        grid: no_grid,
        render: |scale, seed, _| fig10(scale, seed),
    },
    Figure {
        name: "fig11_perf_power",
        grid: valley_grid,
        render: |scale, seed, r| {
            fig11(&valley_suite(r, scale, seed))
                + "\npaper: PAE +3% DRAM power, FAE +35%, ALL +45%, PM +8%, RMP +16%\n"
        },
    },
    Figure {
        name: "fig12_speedup",
        grid: valley_grid,
        render: |scale, seed, r| fig12_with_context(&valley_suite(r, scale, seed)),
    },
    Figure {
        name: "fig13_noc_llc",
        grid: valley_grid,
        render: |scale, seed, r| {
            let suite = valley_suite(r, scale, seed);
            fig13a(&suite) + &fig13b(&suite)
        },
    },
    Figure {
        name: "fig14_parallelism",
        grid: valley_grid,
        render: |scale, seed, r| fig14(&valley_suite(r, scale, seed)),
    },
    Figure {
        name: "fig15_rowbuffer",
        grid: valley_grid,
        render: |scale, seed, r| {
            fig15(&valley_suite(r, scale, seed))
                + "\npaper shape: PAE has the highest average hit rate; FAE/ALL degrade it\n"
        },
    },
    Figure {
        name: "fig16_dram_power",
        grid: valley_grid,
        render: |scale, seed, r| fig16_with_activate(&valley_suite(r, scale, seed)),
    },
    Figure {
        name: "fig17_perf_per_watt",
        grid: valley_grid,
        render: |scale, seed, r| {
            fig17(&valley_suite(r, scale, seed))
                + "\npaper: PAE 1.39x, FAE 1.36x, ALL 1.31x over BASE; PAE/PM = 1.25x\n"
        },
    },
    Figure {
        name: "fig18_sensitivity",
        grid: |scale, seed| vec![suite_spec(&SUBSET, scale, seed).with_configs(&ConfigId::ALL)],
        render: fig18,
    },
    Figure {
        name: "fig19_bim_sensitivity",
        grid: |scale, seed| {
            vec![
                base_spec(&SUBSET, scale, seed),
                SweepSpec::new(&SUBSET, &FIG19_SCHEMES, scale).with_seeds(&fig19_seeds(seed)),
            ]
        },
        render: fig19,
    },
    Figure {
        name: "fig20_nonvalley",
        grid: |scale, seed| vec![suite_spec(&Benchmark::NON_VALLEY, scale, seed)],
        render: |scale, seed, r| {
            let suite = suite(r, &Benchmark::NON_VALLEY, scale, seed);
            let title = "Figure 20: speedup over BASE (non-valley benchmarks)";
            fig12(&suite, title).0
                + "\npaper: all schemes within a few percent of BASE on this group\n"
        },
    },
    Figure {
        name: "ablation_entropy_window",
        grid: no_grid,
        render: |scale, _, _| ablation_entropy_window(scale),
    },
];

/// Every table of Figures 11–17 in figure order, the speedup table
/// under `fig12_title`.
pub fn all_tables(suite: &Suite, fig12_title: &str) -> String {
    [
        fig11(suite),
        fig12(suite, fig12_title).0,
        fig13a(suite),
        fig13b(suite),
        fig14(suite),
        fig15(suite),
        fig16(suite),
        fig17(suite),
    ]
    .concat()
}

// ---------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------

fn no_grid(_: Scale, _: u64) -> Vec<SweepSpec> {
    Vec::new()
}

/// Every scheme on `benches` at one seed on the Table I machine: the
/// grid most rows read, and the one `valley figures --set` and `valley
/// fetch --figures` render.
pub fn suite_spec(benches: &[Benchmark], scale: Scale, seed: u64) -> SweepSpec {
    SweepSpec::new(benches, &SchemeKind::ALL_SCHEMES, scale).with_seeds(&[seed])
}

/// BASE alone on `benches` at one seed on the Table I machine.
fn base_spec(benches: &[Benchmark], scale: Scale, seed: u64) -> SweepSpec {
    SweepSpec::new(benches, &[SchemeKind::Base], scale).with_seeds(&[seed])
}

fn valley_grid(scale: Scale, seed: u64) -> Vec<SweepSpec> {
    vec![suite_spec(&Benchmark::VALLEY, scale, seed)]
}

/// The [`suite_spec`] grid of `benches`, out of `reports`.
fn suite(reports: &Reports, benches: &[Benchmark], scale: Scale, seed: u64) -> Suite {
    suite_spec(benches, scale, seed)
        .expand()
        .into_iter()
        .map(|job| ((job.bench, job.scheme), reports[&job].clone()))
        .collect()
}

fn valley_suite(reports: &Reports, scale: Scale, seed: u64) -> Suite {
    suite(reports, &Benchmark::VALLEY, scale, seed)
}

/// The cycles of one job of `reports`.
fn cycles(
    reports: &Reports,
    config: ConfigId,
    bench: Benchmark,
    scheme: SchemeKind,
    seed: u64,
    scale: Scale,
) -> u64 {
    let job = JobSpec {
        bench,
        scheme,
        seed,
        scale,
        config,
    };
    reports[&job].cycles
}

// ---------------------------------------------------------------------
// Table helpers
// ---------------------------------------------------------------------

/// Arithmetic mean.
fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Harmonic mean (the paper's HMEAN for speedups).
fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        0.0
    } else {
        xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
    }
}

/// One row of a fixed-width table.
fn row(label: &str, values: &[f64], width: usize, precision: usize) -> String {
    let mut s = format!("{label:<10}");
    for v in values {
        s.push_str(&format!("{v:>width$.precision$}"));
    }
    s
}

/// The header row of a scheme-column table.
fn scheme_header(label: &str, schemes: &[SchemeKind], width: usize) -> String {
    let mut s = format!("{label:<10}");
    for sc in schemes {
        s.push_str(&format!("{:>width$}", sc.label()));
    }
    s
}

/// Speedup of `scheme` over BASE for `bench` within a suite.
fn speedup(suite: &Suite, bench: Benchmark, scheme: SchemeKind) -> f64 {
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
    let mut rows: Vec<(&str, Vec<f64>)> = benches_of(suite)
        .into_iter()
        .map(|b| (b.label(), schemes.iter().map(|&s| metric(b, s)).collect()))
        .collect();
    let aggs: Vec<f64> = (0..schemes.len())
        .map(|c| agg(&rows.iter().map(|(_, vals)| vals[c]).collect::<Vec<_>>()))
        .collect();
    rows.push((agg_label, aggs.clone()));
    // Columns are 8 wide, wider when a value needs it: a space always
    // separates two values, however large (Figure 13a's latencies).
    let width = rows
        .iter()
        .flat_map(|(_, vals)| vals)
        .map(|v| format!("{v:.precision$}").len() + 1)
        .fold(8, usize::max);
    let mut out = format!("\n{title}\n{}\n", scheme_header("bench", &schemes, width));
    for (label, vals) in &rows {
        out.push_str(&format!("{}\n", row(label, vals, width, precision)));
    }
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

// ---------------------------------------------------------------------
// The suite tables (Figures 11–17 and 20)
// ---------------------------------------------------------------------

/// Figure 11: normalized execution time vs normalized DRAM power,
/// averaged over the suite's benchmarks.
fn fig11(suite: &Suite) -> String {
    let benches = benches_of(suite);
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
            powers.push(dram_power(r).total() / dram_power(base).total());
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

/// Figure 12 (or 20 for the non-valley suite): speedup over BASE, and
/// the per-scheme HMEAN row in column order. The paper golden pins the
/// table byte-for-byte, so the formatting must not drift.
fn fig12(suite: &Suite, title: &str) -> (String, Vec<(SchemeKind, f64)>) {
    let metric = |b, s| speedup(suite, b, s);
    metric_table(title, suite, metric, hmean, "HMEAN", 2)
}

/// Figure 12 and the paper's headline numbers beside the measured ones,
/// from the same HMEAN row.
fn fig12_with_context(suite: &Suite) -> String {
    let (table, hmeans) = fig12(suite, "Figure 12: speedup over BASE (valley benchmarks)");
    let of = |kind: SchemeKind| {
        hmeans
            .iter()
            .find(|(s, _)| *s == kind)
            .map(|&(_, h)| h)
            .expect("scheme present in suite")
    };
    let (pae, fae, pm) = (of(SchemeKind::Pae), of(SchemeKind::Fae), of(SchemeKind::Pm));
    format!(
        "{table}\npaper: PAE 1.52x, FAE 1.56x, ALL 1.54x, PM 1.16x, RMP 1.21x (HMEAN over valley set)\n\
         measured: PAE {pae:.2}x, FAE {fae:.2}x; PAE over PM: {:.2}x (paper: 1.31x)\n",
        pae / pm
    )
}

/// Figure 13a: mean NoC packet latency in core cycles.
fn fig13a(suite: &Suite) -> String {
    let title = "Figure 13a: average NoC packet latency (core cycles)";
    report_table(title, suite, |r| r.noc_latency, 1)
}

/// Figure 13b: LLC miss rate (%).
fn fig13b(suite: &Suite) -> String {
    let title = "Figure 13b: LLC miss rate (%)";
    report_table(title, suite, |r| r.llc_miss_rate() * 100.0, 1)
}

/// Figure 14a/b/c: LLC-, channel- and bank-level parallelism.
fn fig14(suite: &Suite) -> String {
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
fn fig15(suite: &Suite) -> String {
    let title = "Figure 15: DRAM row-buffer hit rate (%)";
    report_table(title, suite, |r| r.row_buffer_hit_rate() * 100.0, 1)
}

/// Figure 16: DRAM power breakdown, averaged over benchmarks.
fn fig16(suite: &Suite) -> String {
    let benches = benches_of(suite);
    let mut out = format!(
        "\nFigure 16: DRAM power breakdown (Watts), averaged over benchmarks\n\
         {:<8}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
        "scheme", "background", "activate", "read", "write", "total"
    );
    for s in schemes_of(suite) {
        let (mut bg, mut act, mut rd, mut wr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &b in &benches {
            let p = dram_power(&suite[&(b, s)]);
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

/// Figure 16 and the per-benchmark activate power it averages: the
/// component address mapping moves.
fn fig16_with_activate(suite: &Suite) -> String {
    let schemes = schemes_of(suite);
    let mut out = fig16(suite) + "\nper-benchmark activate power (Watts):\n";
    out.push_str(&format!("{:<8}", "bench"));
    for s in &schemes {
        out.push_str(&format!("{:>8}", s.label()));
    }
    out.push('\n');
    for b in benches_of(suite) {
        out.push_str(&format!("{:<8}", b.label()));
        for &s in &schemes {
            out.push_str(&format!("{:>8.1}", dram_power(&suite[&(b, s)]).activate));
        }
        out.push('\n');
    }
    out
}

/// Figure 17: normalized performance per Watt.
fn fig17(suite: &Suite) -> String {
    let title = "Figure 17: normalized performance per Watt (GPU + DRAM)";
    let metric = |b, s| perf_per_watt(&suite[&(b, s)], &suite[&(b, SchemeKind::Base)]);
    metric_table(title, suite, metric, hmean, "HMEAN", 2).0
}

// ---------------------------------------------------------------------
// The sensitivity figures (18, 19)
// ---------------------------------------------------------------------

/// The representative valley subset Figures 18 and 19 sweep.
const SUBSET: [Benchmark; 4] = [
    Benchmark::Mt,
    Benchmark::Nw,
    Benchmark::Srad2,
    Benchmark::Sp,
];

/// Figure 18: HMEAN speedup over BASE by SM count and DRAM
/// organization, one row per machine. Table I has 12 SMs, so the 12-SM
/// row shares its jobs with every other figure.
fn fig18(scale: Scale, seed: u64, reports: &Reports) -> String {
    let mut out =
        String::from("Figure 18: HMEAN speedup over BASE (subset: MT, NW, SRAD2, SP)\n\n");
    out.push_str(&format!("{:<24}", "config"));
    for s in SchemeKind::ALL_SCHEMES {
        out.push_str(&format!("{:>8}", s.label()));
    }
    out.push('\n');
    for config in ConfigId::ALL {
        let dram = if config.dram_map() == DramMap::stacked() {
            "3D"
        } else {
            "conv."
        };
        let label = format!("{} SMs {dram} DRAM", config.gpu_config().num_sms);
        out.push_str(&format!("{label:<24}"));
        for s in SchemeKind::ALL_SCHEMES {
            let speedups: Vec<f64> = SUBSET
                .iter()
                .map(|&b| {
                    let at = |s| cycles(reports, config, b, s, seed, scale) as f64;
                    at(SchemeKind::Base) / at(s)
                })
                .collect();
            out.push_str(&format!("{:>8.2}", hmean(&speedups)));
        }
        out.push('\n');
    }
    out + "\npaper: consistent PAE/FAE/ALL gains at every SM count; RMP ~ BASE on 3D-stacked\n"
}

const FIG19_SCHEMES: [SchemeKind; 3] = [SchemeKind::Pae, SchemeKind::Fae, SchemeKind::All];

/// Figure 19's three BIMs per scheme: seeds `seed`, `seed + 1`, `seed + 2`.
fn fig19_seeds(seed: u64) -> [u64; 3] {
    [seed, seed + 1, seed + 2]
}

/// Figure 19: HMEAN speedup of three random BIMs per scheme, over BASE
/// at `seed` (BASE reads no seed).
fn fig19(scale: Scale, seed: u64, reports: &Reports) -> String {
    let mut out = String::from("Figure 19: HMEAN speedup for three random BIMs per scheme\n");
    out.push_str(&format!(
        "{:<8}{:>8}{:>8}{:>8}\n",
        "scheme", "BIM-1", "BIM-2", "BIM-3"
    ));
    for s in FIG19_SCHEMES {
        out.push_str(&format!("{:<8}", s.label()));
        for bim in fig19_seeds(seed) {
            let speedups: Vec<f64> = SUBSET
                .iter()
                .map(|&b| {
                    let at = |s, seed| cycles(reports, ConfigId::Table1, b, s, seed, scale) as f64;
                    at(SchemeKind::Base, seed) / at(s, bim)
                })
                .collect();
            out.push_str(&format!("{:>8.2}", hmean(&speedups)));
        }
        out.push('\n');
    }
    out + "\npaper: different BIMs lead to similar improvements; PAE slightly more sensitive\n"
}

// ---------------------------------------------------------------------
// Tables I and II
// ---------------------------------------------------------------------

/// Table I: the simulated GPU architecture, as configured.
fn table1() -> String {
    let c = GpuConfig::table1();
    let map = DramMap::baseline();
    let t = c.dram.timing;
    let lines = [
        "Table I: simulated GPU architecture".to_string(),
        "--- SM configuration".to_string(),
        format!("  SMs:                {}", c.num_sms),
        format!(
            "  core clock:         {} GHz",
            ghz(GpuConfig::CORE_CLOCK_MHZ)
        ),
        format!("  warp size:          {}", GpuConfig::WARP_SIZE),
        format!(
            "  max warps/threads:  {} warps, {} threads per SM",
            GpuConfig::MAX_WARPS_PER_SM,
            GpuConfig::MAX_WARPS_PER_SM * GpuConfig::WARP_SIZE
        ),
        format!("  schedulers:         {} (GTO)", GpuConfig::ISSUE_WIDTH),
        format!(
            "  L1 data cache:      {} KB, {}-way, {} sets, {} B lines, {} MSHRs",
            GpuConfig::L1.size_bytes() / 1024,
            GpuConfig::L1.assoc(),
            GpuConfig::L1.sets(),
            GpuConfig::L1.line_bytes(),
            c.l1_mshrs
        ),
        format!(
            "  LLC:                {} KB total ({} slices x {} KB, {}-way), {}-cycle latency",
            c.llc_slices as u64 * c.llc_slice.size_bytes() / 1024,
            c.llc_slices,
            c.llc_slice.size_bytes() / 1024,
            c.llc_slice.assoc(),
            GpuConfig::LLC_LATENCY
        ),
        format!(
            "  NoC:                {}x{} crossbar @ {} GHz, 32 B channels",
            c.num_sms,
            c.llc_slices,
            ghz(c.noc_mhz)
        ),
        "--- DRAM configuration".to_string(),
        format!(
            "  {} channels x {} banks, {} rows x {} columns, {} GHz",
            map.num_controllers(),
            map.banks_per_controller(),
            map.rows_per_bank(),
            map.columns_per_row(),
            ghz(c.dram.clock_mhz)
        ),
        format!(
            "  timing: CL {} tRCD {} tRP {} tRAS {} tRRD {} tCCD {} burst {}",
            t.cl, t.trcd, t.trp, t.tras, t.trrd, t.tccd, t.tburst
        ),
        format!(
            "  bandwidth: {:.1} GB/s",
            32.0 * ghz(c.dram.clock_mhz) * map.num_controllers() as f64
        ),
        "  scheduling: FR-FCFS, open page".to_string(),
        "--- Address map (Figure 4, LSB -> MSB)".to_string(),
        format!("  {TABLE1_ADDRESS_MAP}"),
    ];
    lines.join("\n") + "\n"
}

/// A clock in whole MHz, in GHz.
fn ghz(mhz: u64) -> f64 {
    mhz as f64 / 1000.0
}

/// `DramMap::baseline()`'s fields, LSB first, as Table I prints them
/// (checked against the map by a unit test).
const TABLE1_ADDRESS_MAP: &str =
    "block[5:0] col_lo[7:6] channel[9:8] bank[13:10] col_hi[17:14] row[29:18]";

/// Table II as the paper reports it: (APKI, MPKI, #kernels, #instructions
/// in billions).
fn paper_row(b: Benchmark) -> (f64, f64, u64, f64) {
    match b {
        Benchmark::Mt => (7.44, 5.69, 4, 0.19),
        Benchmark::Lu => (12.32, 1.97, 1022, 2.22),
        Benchmark::Gs => (9.09, 0.01, 510, 0.43),
        Benchmark::Nw => (5.25, 5.12, 255, 0.21),
        Benchmark::Lps => (2.27, 1.66, 2, 2.33),
        Benchmark::Sc => (4.24, 3.58, 50, 1.71),
        Benchmark::Srad2 => (3.29, 1.85, 4, 2.43),
        Benchmark::Dwt2d => (1.56, 1.21, 10, 0.33),
        Benchmark::Hs => (0.71, 0.08, 1, 1.3),
        Benchmark::Sp => (2.17, 2.16, 1, 0.12),
        Benchmark::Fwt => (2.69, 1.38, 22, 4.38),
        Benchmark::Nn => (2.33, 0.2, 4, 0.31),
        Benchmark::Spmv => (5.95, 2.75, 50, 0.19),
        Benchmark::Lm => (18.23, 0.01, 1, 2.11),
        Benchmark::Mum => (25.63, 22.53, 2, 0.23),
        Benchmark::Bfs => (26.92, 18.14, 24, 0.46),
    }
}

/// Table II: workload characterization under BASE beside the paper's
/// values (the synthetic traces are scaled down, so instruction counts
/// and per-kilo-instruction rates differ from the paper's).
fn table2(scale: Scale, seed: u64, reports: &Reports) -> String {
    let header = |cols: [&str; 9]| {
        format!(
            "{:<8}{:>9}{:>9}{:>7}{:>10}   |{:>9}{:>9}{:>7}{:>9}\n",
            cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7], cols[8]
        )
    };
    let mut out = format!("Table II: workload characterization (BASE mapping, {scale:?} scale)\n");
    out.push_str(&header([
        "bench", "APKI", "MPKI", "#knls", "#insns", "paper", "paper", "paper", "paper",
    ]));
    out.push_str(&header([
        "",
        "",
        "",
        "",
        "(M)",
        "APKI",
        "MPKI",
        "#knls",
        "#insns(B)",
    ]));
    for job in base_spec(&Benchmark::ALL, scale, seed).expand() {
        let r = &reports[&job];
        let (papki, pmpki, pknls, pinsns) = paper_row(job.bench);
        out.push_str(&format!(
            "{:<8}{:>9.2}{:>9.2}{:>7}{:>10.2}   |{:>9.2}{:>9.2}{:>7}{:>9.2}\n",
            job.bench.label(),
            r.apki(),
            r.mpki(),
            r.kernels,
            r.thread_instructions as f64 / 1e6,
            papki,
            pmpki,
            pknls,
            pinsns
        ));
    }
    out + "\n(traces are scaled: absolute counts differ; the memory-intensity\n\
           \x20ordering and valley/non-valley split are the reproduced properties)\n"
}

// ---------------------------------------------------------------------
// The worked examples (Figures 2, 3)
// ---------------------------------------------------------------------

/// Figure 2 / Section II worked example: row-major vs column-major TB
/// allocation, the DRAM channel distribution each produces, the PM
/// scheme's partial fix, and the Broad BIM's perfect channel balance.
/// Pure BIM arithmetic; the golden test pins the output byte-for-byte.
///
/// # Panics
///
/// Panics if the worked example stops reproducing the paper's channel
/// counts (the asserts at the end are part of the figure's claim).
fn fig02() -> String {
    use valley_core::Bim;

    // The 6-bit example address map: the two LSBs select the channel.
    let channel = |addr: u64| (addr & 0b11) as usize;

    let distribution = |label: &str, addrs: &[u64], xform: &Bim| -> String {
        let mut chans = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for (i, &a) in addrs.iter().enumerate() {
            chans[channel(xform.apply(a))].push(i + 1);
        }
        let mut out = format!("{label}:\n");
        for (c, reqs) in chans.iter().enumerate() {
            let reqs = if reqs.is_empty() {
                "None".to_string()
            } else {
                reqs.iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!("  Ch. {c}: {reqs}\n"));
        }
        out
    };

    let mut out = String::new();

    // Figure 2c: TB-RM2 walks consecutive addresses; TB-CM0 strides by 8
    // elements (the column-major first TB).
    let tb_rm2: Vec<u64> = (16..24).collect();
    let tb_cm0: Vec<u64> = (0..8).map(|i| i * 8).collect();

    let identity = Bim::identity(6);
    out.push_str(&distribution(
        "TB-RM2 (row-major), BASE",
        &tb_rm2,
        &identity,
    ));
    out.push_str(&distribution(
        "TB-CM0 (column-major), BASE",
        &tb_cm0,
        &identity,
    ));

    // Figure 2c's PM matrix: channel bits XORed with one row bit each
    // (bit0 <- bit0 ^ bit3, bit1 <- bit1 ^ bit4).
    let mut pm = Bim::identity(6);
    pm.set_row(0, 0b001001);
    pm.set_row(1, 0b010010);
    out.push_str(&distribution("TB-CM0, PM", &tb_cm0, &pm));

    // Figure 2c's Broad BIM, converted to LSB-first row masks: the
    // paper's bottom row produces the new bit 0 from b5^b4^b3^b0, and
    // its fifth row produces bit 1 from b5^b3^b1.
    let broad = Bim::checked_invertible(vec![
        0b111001, // out0 = b5 ^ b4 ^ b3 ^ b0
        0b101010, // out1 = b5 ^ b3 ^ b1
        0b000100, 0b001000, 0b010000, 0b100000,
    ])
    .expect("the example BIM is invertible");
    out.push_str(&distribution("TB-CM0, Broad BIM", &tb_cm0, &broad));

    // The paper's observation in numbers:
    let count = |addrs: &[u64], x: &Bim| {
        let mut n = [0usize; 4];
        for &a in addrs {
            n[channel(x.apply(a))] += 1;
        }
        n
    };
    let base = count(&tb_cm0, &identity);
    let fixed = count(&tb_cm0, &broad);
    out.push_str(&format!(
        "\nTB-CM0 channel counts under BASE: {base:?} (all on one channel)\n"
    ));
    out.push_str(&format!(
        "TB-CM0 channel counts under Broad BIM: {fixed:?} (perfect balance)\n"
    ));
    assert_eq!(base, [8, 0, 0, 0]);
    assert_eq!(fixed, [2, 2, 2, 2]);
    out
}

/// Figure 3 worked example: window-based entropy of 8 TBs whose BVRs
/// are 0,0,1,1,0,0,1,1 under window sizes 2 and 4, plus footnote 1's
/// window. The golden test pins the output byte-for-byte.
///
/// # Panics
///
/// Panics if the computed entropies stop reproducing the paper's values
/// (the asserts are part of the figure's claim).
fn fig03() -> String {
    use valley_core::entropy::{shannon_entropy, window_entropy, Bvr};

    let bvrs: Vec<Bvr> = [0u64, 0, 1, 1, 0, 0, 1, 1]
        .iter()
        .map(|&o| Bvr::new(o, 1))
        .collect();

    let mut out = String::new();
    out.push_str("Figure 3: sorted TB BVRs = 0 0 1 1 0 0 1 1\n\n");
    let mut stars = Vec::new();
    for w in [2usize, 4] {
        let h = window_entropy(&bvrs, w);
        stars.push(h);
        out.push_str(&format!("window size {w}: H* = {h:.4}\n"));
    }
    out.push_str("\npaper: H* = 3/7 = 0.43 for w=2 and H* = 5/5 = 1 for w=4\n");

    // Footnote 1: a window of three TBs, BVRs {0, 0, 1}.
    let h = shannon_entropy(&[2.0 / 3.0, 1.0 / 3.0]);
    out.push_str(&format!(
        "\nfootnote 1: window with BVRs (0,0,1) -> H_W = {h:.2} (paper: 0.92)\n"
    ));

    assert!((stars[0] - 3.0 / 7.0).abs() < 1e-12);
    assert!((stars[1] - 1.0).abs() < 1e-12);
    out
}

// ---------------------------------------------------------------------
// The entropy profiles (Figures 5, 10, the window ablation)
// ---------------------------------------------------------------------

/// The window `w` of Section III-A: Table I's SM count.
fn window() -> usize {
    GpuConfig::table1().num_sms
}

/// The lowest and highest bit an entropy chart draws: `map`'s non-block
/// bits, which [`ENTROPY_AXIS`] names.
fn chart_bits(map: &DramMap) -> (u8, u8) {
    (map.block_bits(), map.addr_bits() - 1)
}

/// The entropy charts' axis over `DramMap::baseline()` (checked against
/// the map by a unit test).
const ENTROPY_AXIS: &str = "bits 29 (left) .. 6 (right); bank+channel bits are 8-13\n\n";

/// Figure 5: the per-bit window-based entropy of all 16 benchmarks plus
/// the SRAD2K1 and DWT2DK1 kernels under the BASE map, with the mean
/// over the bank and channel bits and the valley score.
fn fig05(scale: Scale) -> String {
    let map = DramMap::baseline();
    let targets = map.target_field_bits();
    let candidates = map.non_block_bits();
    let (lo, hi) = chart_bits(&map);

    let window = window();
    let mut out =
        format!("Figure 5: per-bit window-based entropy (BASE map, w = {window})\n{ENTROPY_AXIS}");
    let mut panels: Vec<(String, Box<dyn WorkloadSource>)> = Vec::new();
    for b in Benchmark::ALL {
        panels.push((b.label().to_string(), Box::new(b.workload(scale))));
        if b == Benchmark::Srad2 || b == Benchmark::Dwt2d {
            let k1 = b.workload(scale).single_kernel(0);
            panels.push((k1.name(), Box::new(k1)));
        }
    }
    for (name, w) in panels {
        let p = analysis::application_profile(w.as_ref(), window, None);
        let score = p.valley_score(&targets, &candidates);
        let has = p.has_valley(&targets, &candidates, 0.25);
        out.push_str(&format!(
            "--- {name}  (requests: {}, mean H* over ch/bank bits: {:.2}, valley score: {:.2}{})\n{}\n",
            p.requests(),
            p.mean_over(&targets),
            score,
            if has { ", VALLEY" } else { "" },
            p.ascii_chart(lo, hi)
        ));
    }
    out
}

/// Figure 10: MT's entropy under the six schemes, and the mean entropy
/// of the channel/bank bits (8–13) that PAE and FAE lift. It prints
/// whatever the seed's BIMs measure: the paper's lift is checked on the
/// seed-1 render, by `valley-fabric`'s `paper_trends.rs`.
fn fig10(scale: Scale, seed: u64) -> String {
    let map = DramMap::baseline();
    let targets = map.target_field_bits();
    let mt = Benchmark::Mt.workload(scale);
    let (lo, hi) = chart_bits(&map);

    let window = window();
    let mut out = format!(
        "Figure 10: MT entropy under the six mapping schemes (w = {window})\n{ENTROPY_AXIS}"
    );
    let (mut base, mut pae, mut fae) = (0.0, 0.0, 0.0);
    for kind in SchemeKind::ALL_SCHEMES {
        let mapper = AddressMapper::build(kind, &map, seed);
        let p = analysis::application_profile(&mt, window, Some(&mapper));
        let h = p.mean_over(&targets);
        match kind {
            SchemeKind::Base => base = h,
            SchemeKind::Pae => pae = h,
            SchemeKind::Fae => fae = h,
            _ => {}
        }
        out.push_str(&format!(
            "--- {} (mean H* over ch/bank bits: {h:.2})\n{}\n",
            kind.label(),
            p.ascii_chart(lo, hi)
        ));
    }
    out.push_str(&format!(
        "mean target-bit entropy: BASE {base:.2} -> PAE {pae:.2}, FAE {fae:.2}\n"
    ));
    out
}

/// The entropy metric's sensitivity to the window `w` on MT: too small
/// a window under-reports inter-TB entropy (Figure 3 at application
/// scale); past the real TB concurrency the profile saturates.
fn ablation_entropy_window(scale: Scale) -> String {
    let map = DramMap::baseline();
    let targets = map.target_field_bits();
    let candidates = map.non_block_bits();
    let mt = Benchmark::Mt.workload(scale);

    let mut out = format!(
        "Entropy-window ablation (MT, BASE map)\n{:<8}{:>18}{:>16}{:>10}\n",
        "window", "H*(ch/bank bits)", "valley score", "valley?"
    );
    for w in [1usize, 2, 4, 8, 12, 16, 24, 48] {
        let p = analysis::application_profile(&mt, w, None);
        out.push_str(&format!(
            "{:<8}{:>18.3}{:>16.2}{:>10}\n",
            w,
            p.mean_over(&targets),
            p.valley_score(&targets, &candidates),
            if p.has_valley(&targets, &candidates, 0.25) {
                "yes"
            } else {
                "no"
            }
        ));
    }
    out + "\npaper: w = #SMs (12) under GTO; larger windows raise measured\n\
           inter-TB entropy (Figure 3's w=2 vs w=4 example at benchmark scale)\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((hmean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(hmean(&[2.0, 2.0]) > 1.99);
        assert_eq!(hmean(&[]), 0.0);
        assert_eq!(hmean(&[1.0, 0.0]), 0.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn formatting() {
        let h = scheme_header("bench", &[SchemeKind::Base, SchemeKind::Pae], 8);
        assert!(h.contains("BASE") && h.contains("PAE"));
        let r = row("MT", &[1.0, 2.5], 8, 2);
        assert!(r.contains("1.00") && r.contains("2.50"));
    }

    /// Table I's address-map line and the entropy charts' axis restate
    /// `DramMap::baseline()`: every field's bit range, read off the text,
    /// is the map's.
    #[test]
    fn the_printed_address_map_is_the_baseline_map() {
        let map = DramMap::baseline();
        let range = |lo: &str, hi: &str| -> Vec<u8> {
            (lo.parse().unwrap()..=hi.parse().unwrap()).collect()
        };
        let mut fields: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        for field in TABLE1_ADDRESS_MAP.split_whitespace() {
            let (name, bits) = field.split_once('[').unwrap();
            let (hi, lo) = bits.trim_end_matches(']').split_once(':').unwrap();
            let name = name.trim_end_matches("_lo").trim_end_matches("_hi");
            fields.entry(name).or_default().extend(range(lo, hi));
        }
        fields.values_mut().for_each(|bits| bits.sort_unstable());
        let block: Vec<u8> = (0..map.block_bits()).collect();
        assert_eq!(fields["block"], block);
        assert_eq!(fields["col"], map.column_bits());
        assert_eq!(fields["channel"], map.controller_bits());
        assert_eq!(fields["bank"], map.bank_bits());
        assert_eq!(fields["row"], map.row_bits());
        assert_eq!(fields.len(), 5);

        // The axis label names the bits the charts draw.
        let (lo, hi) = chart_bits(&map);
        assert_eq!((lo..=hi).collect::<Vec<u8>>(), map.non_block_bits());
        let axis = format!("bits {hi} (left) .. {lo} (right); bank+channel bits are ");
        let targets = ENTROPY_AXIS.trim_end().strip_prefix(&axis).unwrap();
        let (lo, hi) = targets.split_once('-').unwrap();
        assert_eq!(range(lo, hi), map.target_field_bits());
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.name != f.name), "{}", f.name);
        }
    }
}
