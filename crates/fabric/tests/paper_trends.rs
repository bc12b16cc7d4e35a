//! The paper's published trends, held against the pinned whole paper.
//!
//! `golden/paper_ref.txt` is `valley figures --fig all --scale ref`, and
//! CI proves on every push that the model still renders exactly it. A
//! refactor leaves the file alone; a change that moves a published
//! number regenerates it and must keep every trend below. The bands are
//! directions and orderings, not the paper's magnitudes. Figure 20's
//! "within a few percent of BASE" is not one of them yet: ALL slows BFS
//! to 0.89x.

const PAPER_REF: &str = include_str!("golden/paper_ref.txt");

/// A table of the golden: a column header, then labelled rows of values.
struct Table {
    title: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<(&'static str, Vec<f64>)>,
}

impl Table {
    /// The table under the line `title`, up to the next blank line.
    fn under(title: &'static str) -> Table {
        let mut lines = PAPER_REF.lines().skip_while(|l| *l != title).skip(1);
        let header = lines.next().unwrap_or_else(|| panic!("no `{title}`"));
        let rows = lines
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let mut words = l.split_whitespace();
                let label = words.next().expect("a row label");
                let values = words.map(|v| v.parse().expect("a number")).collect();
                (label, values)
            })
            .collect();
        let columns = header.split_whitespace().skip(1).collect();
        Table {
            title,
            columns,
            rows,
        }
    }

    fn cell(&self, row: &str, column: &str) -> f64 {
        let c = self.columns.iter().position(|&h| h == column);
        let r = self.rows.iter().find(|(label, _)| *label == row);
        match (r, c) {
            (Some((_, values)), Some(c)) => values[c],
            _ => panic!("`{}` has no {row}/{column}", self.title),
        }
    }

    /// A column's per-benchmark cells: every row but the last, which
    /// aggregates them.
    fn benches(&self, column: &str) -> Vec<(&'static str, f64)> {
        let benches = &self.rows[..self.rows.len() - 1];
        benches
            .iter()
            .map(|&(label, _)| (label, self.cell(label, column)))
            .collect()
    }
}

const FIG12: &str = "Figure 12: speedup over BASE (valley benchmarks)";
const FIG20: &str = "Figure 20: speedup over BASE (non-valley benchmarks)";

/// Figure 12: over the valley set's HMEAN, PAE beats PM and PM beats
/// BASE.
#[test]
fn fig12_orders_pae_over_pm_over_base() {
    let fig12 = Table::under(FIG12);
    let [base, pm, pae] = ["BASE", "PM", "PAE"].map(|s| fig12.cell("HMEAN", s));
    assert!(pae >= pm && pm >= base, "PAE {pae}, PM {pm}, BASE {base}");
}

/// Figure 15: PAE has the highest average row-buffer hit rate; FAE and
/// ALL, which scatter row bits, fall below BASE.
#[test]
fn fig15_pae_keeps_the_most_row_hits_and_fae_all_lose_them() {
    let fig15 = Table::under("Figure 15: DRAM row-buffer hit rate (%)");
    let avg = |scheme| fig15.cell("AVG", scheme);
    for &scheme in &fig15.columns {
        assert!(scheme == "PAE" || avg("PAE") > avg(scheme), "{scheme}");
    }
    for scheme in ["FAE", "ALL"] {
        assert!(avg(scheme) < avg("BASE"), "{scheme}");
    }
}

/// Figures 11 and 16: DRAM power rises PAE < FAE < ALL, and activate
/// power rises with it.
#[test]
fn fig16_dram_power_rises_with_the_bits_a_scheme_rewrites() {
    let title = "Figure 16: DRAM power breakdown (Watts), averaged over benchmarks";
    let fig16 = Table::under(title);
    for part in ["activate", "total"] {
        let [pae, fae, all] = ["PAE", "FAE", "ALL"].map(|s| fig16.cell(s, part));
        assert!(
            pae < fae && fae < all,
            "{part}: PAE {pae}, FAE {fae}, ALL {all}"
        );
    }
}

/// Figure 10: on MT, PAE and FAE lift the channel/bank bits' mean
/// entropy well above BASE's valley.
#[test]
fn fig10_pae_and_fae_lift_the_valley() {
    // `mean target-bit entropy: BASE 0.42 -> PAE 0.88, FAE 1.00`
    let line = PAPER_REF
        .lines()
        .find_map(|l| l.strip_prefix("mean target-bit entropy: "))
        .expect("Figure 10's mean target-bit entropy line");
    let h = |scheme: &str| -> f64 {
        let (_, after) = line.split_once(&format!("{scheme} ")).expect(scheme);
        let value = after.split([' ', ',']).next().expect(scheme);
        value.parse().expect("a number")
    };
    let base = h("BASE");
    for scheme in ["PAE", "FAE"] {
        assert!(h(scheme) >= base + 0.2, "{line}");
    }
}

/// The paper's causal chain: Figure 5's valley score splits the
/// benchmarks into Figure 12's set and Figure 20's, and the speedup PAE
/// buys splits them the same way.
#[test]
fn the_valley_score_split_is_the_pae_speedup_split() {
    // `--- MT  (requests: .., valley score: 0.57, VALLEY)`
    let scores: Vec<(&str, f64, bool)> = PAPER_REF
        .lines()
        .filter_map(|l| {
            let (_, after) = l.split_once("valley score: ")?;
            let name = l.split_whitespace().nth(1)?;
            let score = after.split([',', ')']).next()?.parse().ok()?;
            Some((name, score, after.ends_with(", VALLEY)")))
        })
        .collect();
    let valley = |bench: &str| {
        let &(_, score, valley) = scores
            .iter()
            .find(|(name, _, _)| *name == bench)
            .unwrap_or_else(|| panic!("no Figure 5 profile of {bench}"));
        (score, valley)
    };
    let (fig12, fig20) = (Table::under(FIG12), Table::under(FIG20));
    let (inside, outside) = (fig12.benches("PAE"), fig20.benches("PAE"));
    for &(bench, _) in &inside {
        assert!(valley(bench).1, "{bench} is in Figure 12 but not a valley");
    }
    for &(bench, _) in &outside {
        assert!(!valley(bench).1, "{bench} is in Figure 20 but a valley");
    }

    let min = |xs: Vec<f64>| xs.into_iter().fold(f64::MAX, f64::min);
    let max = |xs: Vec<f64>| xs.into_iter().fold(f64::MIN, f64::max);
    let scores = |set: &[(&str, f64)]| set.iter().map(|&(b, _)| valley(b).0).collect();
    let speedups = |set: &[(&str, f64)]| set.iter().map(|&(_, x)| x).collect();
    let (lo, hi) = (min(scores(&inside)), max(scores(&outside)));
    assert!(
        lo > hi,
        "valley scores: lowest valley {lo}, highest other {hi}"
    );
    let (lo, hi) = (min(speedups(&inside)), max(speedups(&outside)));
    assert!(
        lo > hi,
        "PAE speedups: lowest valley {lo}x, highest other {hi}x"
    );
}
