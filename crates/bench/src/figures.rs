//! Shared figure printers. The tables over a [`Suite`](crate::Suite) of
//! reports live in `valley_harness::figures` (the `valley` CLI renders
//! them from stored results) and are re-exported here beside the two
//! worked examples that need no simulation.

pub use valley_harness::figures::{
    all_tables, fig11, fig12_hmeans, fig12_text, fig13a, fig13b, fig14, fig15, fig16, fig17,
};

/// Figure 2 / Section II worked example: row-major vs column-major TB
/// allocation, the DRAM channel distribution each produces, the PM
/// scheme's partial fix, and the Broad BIM's perfect channel balance.
/// Pure BIM arithmetic — no simulation; golden tests pin the output
/// byte-for-byte against the pre-harness-refactor snapshot.
///
/// # Panics
///
/// Panics if the worked example stops reproducing the paper's channel
/// counts (the asserts at the end are part of the figure's claim).
pub fn fig02_text() -> String {
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
pub fn fig03_text() -> String {
    use valley_core::entropy::{shannon_entropy, window_entropy_method, Bvr, EntropyMethod};

    let bvrs: Vec<Bvr> = [0u64, 0, 1, 1, 0, 0, 1, 1]
        .iter()
        .map(|&o| Bvr::new(o, 1))
        .collect();

    let mut out = String::new();
    out.push_str("Figure 3: sorted TB BVRs = 0 0 1 1 0 0 1 1\n\n");
    let mut stars = Vec::new();
    for w in [2usize, 4] {
        let h = window_entropy_method(&bvrs, w, EntropyMethod::MixtureBvr);
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
