//! Window-based address-bit entropy (Section III).
//!
//! GPU-compute workloads are so concurrent that any entropy metric relying
//! on request *ordering* is unreliable — requests from different thread
//! blocks (TBs) interleave arbitrarily. The paper's metric instead:
//!
//! 1. computes, per TB and per address bit, the **Bit Value Ratio**
//!    ([`Bvr`]): the fraction of 1-values of that bit across the TB's
//!    memory requests (order-free);
//! 2. sorts TBs by identifier (the TB scheduler issues them in order);
//! 3. slides a window of `w` TBs (`w` ≈ the number of TBs co-executing,
//!    heuristically the SM count) and computes the Shannon entropy of the
//!    distinct BVR values inside each window, with logarithm base `v` =
//!    the number of distinct values (Equation 1, so H ∈ [0, 1]);
//! 4. averages the per-window entropies over all `n − w + 1` windows
//!    (Equation 2) to obtain the window-based entropy `H*` of the bit;
//! 5. combines kernels into an application profile by weighting each
//!    kernel's per-bit `H*` with its request count.

use crate::hash::FastMap;

type BvrCounts = FastMap<Bvr, u32>;

/// A Bit Value Ratio: the fraction of requests in a TB for which a given
/// address bit is 1, kept as an exact reduced fraction so that equality
/// between windows is exact (floats would make "distinct BVR values"
/// fragile).
///
/// # Examples
///
/// ```
/// use valley_core::entropy::Bvr;
///
/// assert_eq!(Bvr::new(2, 4), Bvr::new(1, 2));
/// assert_eq!(Bvr::new(2, 4).value(), 0.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bvr {
    ones: u64,
    total: u64,
}

impl Bvr {
    /// Creates the ratio `ones / total`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or `ones > total`.
    pub fn new(ones: u64, total: u64) -> Self {
        assert!(total > 0, "BVR requires at least one request");
        assert!(ones <= total, "BVR cannot exceed 1");
        let g = gcd(ones.max(1), total);
        if ones == 0 {
            Bvr { ones: 0, total: 1 }
        } else {
            Bvr {
                ones: ones / g,
                total: total / g,
            }
        }
    }

    /// The ratio as a floating-point number in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.ones as f64 / self.total as f64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Shannon entropy of a discrete distribution with logarithm base `v`
/// (= the number of outcomes), per Equation 1. Returns a value in `[0, 1]`;
/// a single outcome has zero entropy by convention.
///
/// # Examples
///
/// The paper's footnote 1: a window of three TBs where two have BVR 0 and
/// one has BVR 1 — two unique values with probabilities 2/3 and 1/3:
///
/// ```
/// use valley_core::entropy::shannon_entropy;
///
/// let h = shannon_entropy(&[2.0 / 3.0, 1.0 / 3.0]);
/// assert!((h - 0.92).abs() < 0.005);
/// ```
pub fn shannon_entropy(probs: &[f64]) -> f64 {
    let v = probs.len();
    if v <= 1 {
        return 0.0;
    }
    let ln_v = (v as f64).ln();
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * (p.ln() / ln_v))
        .sum::<f64>()
}

/// Addresses per counting tile, and bit planes per transposed tile.
const TILE: usize = 64;

/// In-place 64×64 bit-matrix transpose: on input, word `i` is row `i`
/// (bit `j` = column `j`); on output, word `i` is the former column `i`.
/// Involutive. The classic recursive block swap (Hacker's Delight §7-3):
/// swap the two off-diagonal 32×32 blocks, then the four off-diagonal
/// 16×16 blocks, and so on down to 1×1 — six passes of shift/XOR/mask
/// over the 64 words.
fn transpose64(a: &mut [u64; TILE]) {
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < TILE {
            // Hacker's Delight writes this block swap for MSB-first
            // columns; with our LSB-first convention (bit j of word i =
            // column j of row i) the swapped halves trade places: the
            // *high* bits of the low word exchange with the *low* bits of
            // the high word.
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Per-TB, per-bit 1-value counts — the raw material of the BVR.
///
/// Build one per TB, feed it every (post-coalescing) request address the
/// TB issues, then hand the collection to [`kernel_entropy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TbBitStats {
    tb_id: u64,
    requests: u64,
    ones: Vec<u64>,
}

impl TbBitStats {
    /// Creates empty statistics for TB `tb_id` over `addr_bits` address bits.
    pub fn new(tb_id: u64, addr_bits: u8) -> Self {
        TbBitStats {
            tb_id,
            requests: 0,
            ones: vec![0; addr_bits as usize],
        }
    }

    /// Builds statistics from an iterator of request addresses.
    ///
    /// Counts by tiles of 64 addresses: one bit-matrix transpose turns 64
    /// per-address bit-counter updates into one `count_ones` per bit
    /// plane. The ragged tail goes through [`TbBitStats::record`], the
    /// per-address reference `tests/props.rs` compares this against.
    pub fn from_addrs<I: IntoIterator<Item = u64>>(tb_id: u64, addr_bits: u8, addrs: I) -> Self {
        let mut s = TbBitStats::new(tb_id, addr_bits);
        let mut addrs = addrs.into_iter();
        let mut tile = [0u64; TILE];
        loop {
            // `zip` asks the tile for a slot first, so a full tile does
            // not pull (and lose) a 65th address.
            let mut filled = 0;
            for (slot, a) in tile.iter_mut().zip(addrs.by_ref()) {
                *slot = a;
                filled += 1;
            }
            if filled < TILE {
                for &a in &tile[..filled] {
                    s.record(a);
                }
                return s;
            }
            transpose64(&mut tile);
            s.requests += TILE as u64;
            for (count, plane) in s.ones.iter_mut().zip(&tile) {
                *count += u64::from(plane.count_ones());
            }
        }
    }

    /// Records one request address.
    #[inline]
    pub fn record(&mut self, addr: u64) {
        self.requests += 1;
        for (b, count) in self.ones.iter_mut().enumerate() {
            *count += (addr >> b) & 1;
        }
    }

    /// The TB identifier (used for sorting into scheduler order).
    pub fn tb_id(&self) -> u64 {
        self.tb_id
    }

    /// Number of requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Number of address bits tracked.
    pub fn addr_bits(&self) -> u8 {
        self.ones.len() as u8
    }

    /// The BVR of address bit `bit`, or `None` if no requests were recorded.
    pub fn bvr(&self, bit: u8) -> Option<Bvr> {
        if self.requests == 0 {
            None
        } else {
            Some(Bvr::new(self.ones[bit as usize], self.requests))
        }
    }
}

/// How the per-window entropy `H_W` of Equation 2 is computed from the
/// window's BVR values. The paper's worked examples (Figure 3 and
/// footnote 1) only exercise BVRs of exactly 0 or 1, where both
/// interpretations coincide; they differ for fractional BVRs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EntropyMethod {
    /// Binary entropy of the window-mean BVR: the probability that an
    /// in-flight request has this bit set is the average of the TBs'
    /// BVRs, and `H_W` is the entropy of that Bernoulli variable. This
    /// captures both intra-TB entropy (a bit toggling inside every TB
    /// gives BVR 0.5 → H 1) and inter-TB entropy, matching the paper's
    /// framing of the two entropy sources — the default.
    #[default]
    MixtureBvr,
    /// Shannon entropy (log base v) over the *distinct BVR values* in
    /// the window, exactly as written in the paper's footnote 1. With
    /// idealized synthetic traces, identical fractional BVRs collapse to
    /// a single value and score zero, so this variant underestimates
    /// intra-TB entropy on perfectly regular patterns.
    DistinctBvr,
}

/// Binary (Bernoulli) entropy of probability `p`, in bits.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Window-based entropy of one address bit, per Equation 2:
/// the mean over all sliding windows of the window entropies, using the
/// default [`EntropyMethod::MixtureBvr`].
///
/// `bvrs` must be in ascending TB-identifier order. If there are fewer TBs
/// than the window size, a single window containing all TBs is used.
/// Returns 0 for an empty slice.
pub fn window_entropy(bvrs: &[Bvr], window: usize) -> f64 {
    window_entropy_method(bvrs, window, EntropyMethod::MixtureBvr)
}

/// [`window_entropy`] with an explicit per-window entropy method.
///
/// Runs in O(n) for both methods (the naive per-window recomputation is
/// O(n·w)): [`EntropyMethod::MixtureBvr`] evaluates window means from a
/// prefix-sum array, and [`EntropyMethod::DistinctBvr`] slides a value
/// count-map while rolling the `Σ c·ln c` term of the window entropy.
/// Results match [`window_entropy_naive_method`] to floating-point
/// round-off (the property tests in `tests/props.rs` pin this).
pub fn window_entropy_method(bvrs: &[Bvr], window: usize, method: EntropyMethod) -> f64 {
    if bvrs.is_empty() {
        return 0.0;
    }
    let w = window.max(1).min(bvrs.len());
    let num_windows = bvrs.len() - w + 1;
    let sum = match method {
        EntropyMethod::MixtureBvr => {
            // Prefix sums: window sums are two lookups, and the bounded
            // cancellation error keeps results within round-off of the
            // naive per-window summation.
            let mut prefix = Vec::with_capacity(bvrs.len() + 1);
            let mut acc = 0.0f64;
            prefix.push(0.0);
            for v in bvrs {
                acc += v.value();
                prefix.push(acc);
            }
            let mut sum = 0.0;
            for start in 0..num_windows {
                let p = (prefix[start + w] - prefix[start]) / w as f64;
                sum += binary_entropy(p);
            }
            sum
        }
        EntropyMethod::DistinctBvr => {
            // For a window with distinct-value counts c_i (Σ c_i = w) the
            // base-v Shannon entropy is (ln w − S/w) / ln v with
            // S = Σ c_i·ln c_i and v the number of distinct values. Both
            // S and v update in O(1) amortized as the window slides.
            let c_lnc = |c: u32| -> f64 {
                if c <= 1 {
                    0.0
                } else {
                    f64::from(c) * f64::from(c).ln()
                }
            };
            let mut counts = BvrCounts::default();
            let mut s = 0.0f64; // Σ c·ln c over the current window
            for &v in &bvrs[..w] {
                let c = counts.entry(v).or_insert(0);
                s += -c_lnc(*c);
                *c += 1;
                s += c_lnc(*c);
            }
            let ln_w = (w as f64).ln();
            let window_h = |s: f64, v: usize| -> f64 {
                if v <= 1 {
                    0.0
                } else {
                    (ln_w - s / w as f64) / (v as f64).ln()
                }
            };
            let mut sum = window_h(s, counts.len());
            for start in 1..num_windows {
                let out = bvrs[start - 1];
                let c = counts
                    .get_mut(&out)
                    .expect("outgoing value is in the window");
                s -= c_lnc(*c);
                *c -= 1;
                s += c_lnc(*c);
                if *c == 0 {
                    counts.remove(&out);
                }
                let inc = bvrs[start + w - 1];
                let c = counts.entry(inc).or_insert(0);
                s -= c_lnc(*c);
                *c += 1;
                s += c_lnc(*c);
                sum += window_h(s, counts.len());
            }
            sum
        }
    };
    sum / num_windows as f64
}

/// The reference O(n·w) implementation of [`window_entropy_method`]:
/// recomputes every window from scratch. Kept as the oracle for the
/// rolling implementation's property tests and as an unambiguous
/// statement of the metric's definition.
pub fn window_entropy_naive_method(bvrs: &[Bvr], window: usize, method: EntropyMethod) -> f64 {
    if bvrs.is_empty() {
        return 0.0;
    }
    let w = window.max(1).min(bvrs.len());
    let num_windows = bvrs.len() - w + 1;
    let mut sum = 0.0;
    let mut counts = BvrCounts::default();
    for start in 0..num_windows {
        let win = &bvrs[start..start + w];
        sum += match method {
            EntropyMethod::MixtureBvr => {
                let p = win.iter().map(|v| v.value()).sum::<f64>() / w as f64;
                binary_entropy(p)
            }
            EntropyMethod::DistinctBvr => {
                counts.clear();
                for &v in win {
                    *counts.entry(v).or_insert(0) += 1;
                }
                // Sum the entropy terms in sorted order: a float sum in
                // map-iteration order would differ run to run under a
                // seeded hasher (and build to build under a fixed one).
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the probabilities are collected and sorted on the next line before they are summed"
                )]
                let mut probs: Vec<f64> = counts.values().map(|&c| c as f64 / w as f64).collect();
                probs.sort_by(f64::total_cmp);
                shannon_entropy(&probs)
            }
        };
    }
    sum / num_windows as f64
}

/// The per-bit window-based entropy distribution of one kernel, plus its
/// request count (used as the weight when combining kernels).
#[derive(Clone, Debug, PartialEq)]
pub struct EntropyProfile {
    per_bit: Vec<f64>,
    requests: u64,
}

impl EntropyProfile {
    /// Builds a profile directly from per-bit values (mainly for tests and
    /// synthetic profiles).
    pub fn from_per_bit(per_bit: Vec<f64>, requests: u64) -> Self {
        EntropyProfile { per_bit, requests }
    }

    /// Entropy of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn bit(&self, bit: u8) -> f64 {
        self.per_bit[bit as usize]
    }

    /// All per-bit entropies, LSB first.
    pub fn per_bit(&self) -> &[f64] {
        &self.per_bit
    }

    /// Number of requests that contributed to the profile.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Mean entropy over the given bit positions.
    pub fn mean_over(&self, bits: &[u8]) -> f64 {
        if bits.is_empty() {
            return 0.0;
        }
        bits.iter().map(|&b| self.bit(b)).sum::<f64>() / bits.len() as f64
    }

    /// Valley score for a set of target bits: the mean entropy of the `k`
    /// highest-entropy bits *outside* the targets (within `candidate_bits`)
    /// minus the mean entropy of the target bits. Large positive values
    /// mean plenty of harvestable entropy exists elsewhere while the
    /// targets are starved — the paper's "entropy valley".
    pub fn valley_score(&self, target_bits: &[u8], candidate_bits: &[u8]) -> f64 {
        let k = target_bits.len().max(1);
        let mut others: Vec<f64> = candidate_bits
            .iter()
            .filter(|b| !target_bits.contains(b))
            .map(|&b| self.bit(b))
            .collect();
        others.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: Vec<f64> = others.into_iter().take(k).collect();
        if top.is_empty() {
            return 0.0;
        }
        let top_mean = top.iter().sum::<f64>() / top.len() as f64;
        top_mean - self.mean_over(target_bits)
    }

    /// Whether the profile has an entropy valley in `target_bits`:
    /// the valley score exceeds `threshold` (the paper's qualitative
    /// classification of Figure 5 corresponds to roughly 0.25).
    pub fn has_valley(&self, target_bits: &[u8], candidate_bits: &[u8], threshold: f64) -> bool {
        self.valley_score(target_bits, candidate_bits) > threshold
    }

    /// Renders the profile as a small ASCII bar chart (MSB on the left,
    /// like Figure 5), as `valley figures --fig fig05_entropy` prints it.
    pub fn ascii_chart(&self, lo_bit: u8, hi_bit: u8) -> String {
        let mut out = String::new();
        for level in (0..5).rev() {
            let threshold = (level as f64 + 0.5) / 5.0;
            for b in (lo_bit..=hi_bit).rev() {
                out.push(if self.bit(b) >= threshold { '#' } else { ' ' });
            }
            out.push('\n');
        }
        for b in (lo_bit..=hi_bit).rev() {
            out.push(char::from_digit((b % 10) as u32, 10).unwrap());
        }
        out.push('\n');
        out
    }
}

/// Computes the per-bit window-based entropy of one kernel from its TB
/// statistics (Equation 2) with the default method. TBs with zero
/// requests are skipped. The TBs are sorted by identifier internally,
/// matching the in-order TB scheduler.
pub fn kernel_entropy(tbs: &[TbBitStats], window: usize) -> EntropyProfile {
    kernel_entropy_method(tbs, window, EntropyMethod::MixtureBvr)
}

/// [`kernel_entropy`] with an explicit per-window entropy method.
pub fn kernel_entropy_method(
    tbs: &[TbBitStats],
    window: usize,
    method: EntropyMethod,
) -> EntropyProfile {
    let mut active: Vec<&TbBitStats> = tbs.iter().filter(|t| t.requests() > 0).collect();
    active.sort_by_key(|t| t.tb_id());
    let addr_bits = active.first().map_or(0, |t| t.addr_bits());
    let requests: u64 = active.iter().map(|t| t.requests()).sum();
    let per_bit = (0..addr_bits)
        .map(|b| {
            let bvrs: Vec<Bvr> = active.iter().map(|t| t.bvr(b).unwrap()).collect();
            window_entropy_method(&bvrs, window, method)
        })
        .collect();
    EntropyProfile::from_per_bit(per_bit, requests)
}

/// Combines per-kernel profiles into an application profile, weighting each
/// kernel by its request count (Section III-A: "the weight of each kernel is
/// the number of memory requests it contains").
pub fn application_entropy(kernels: &[EntropyProfile]) -> EntropyProfile {
    let total: u64 = kernels.iter().map(|k| k.requests()).sum();
    if total == 0 {
        return EntropyProfile::from_per_bit(Vec::new(), 0);
    }
    let bits = kernels.iter().map(|k| k.per_bit().len()).max().unwrap_or(0);
    let mut per_bit = vec![0.0; bits];
    for k in kernels {
        let w = k.requests() as f64 / total as f64;
        for (b, &h) in k.per_bit().iter().enumerate() {
            per_bit[b] += w * h;
        }
    }
    EntropyProfile::from_per_bit(per_bit, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_transpose(a: &[u64; TILE]) -> [u64; TILE] {
        let mut out = [0u64; TILE];
        for (i, row) in a.iter().enumerate() {
            for (j, out_row) in out.iter_mut().enumerate() {
                *out_row |= ((row >> j) & 1) << i;
            }
        }
        out
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn transpose_matches_naive_orientation() {
        let mut state = 0xdead_beefu64;
        for case in 0..50 {
            let mut tile = [0u64; TILE];
            for w in tile.iter_mut() {
                *w = splitmix(&mut state);
            }
            let expect = naive_transpose(&tile);
            let mut got = tile;
            transpose64(&mut got);
            assert_eq!(got, expect, "case {case}");
        }
    }

    #[test]
    fn transpose_is_involutive() {
        let mut state = 42u64;
        let mut tile = [0u64; TILE];
        for w in tile.iter_mut() {
            *w = splitmix(&mut state);
        }
        let orig = tile;
        transpose64(&mut tile);
        transpose64(&mut tile);
        assert_eq!(tile, orig);
    }

    #[test]
    fn transpose_fixes_the_diagonal_and_swaps_single_bits() {
        let mut diag = [0u64; TILE];
        for (i, w) in diag.iter_mut().enumerate() {
            *w = 1u64 << i;
        }
        let orig = diag;
        transpose64(&mut diag);
        assert_eq!(diag, orig);
        for (r, c) in [(0usize, 0usize), (0, 63), (63, 0), (17, 41), (63, 63)] {
            let mut tile = [0u64; TILE];
            tile[r] = 1u64 << c;
            transpose64(&mut tile);
            let mut expect = [0u64; TILE];
            expect[c] = 1u64 << r;
            assert_eq!(tile, expect, "bit ({r}, {c})");
        }
    }

    #[test]
    fn bvr_reduction_and_equality() {
        assert_eq!(Bvr::new(2, 4), Bvr::new(3, 6));
        assert_eq!(Bvr::new(0, 5), Bvr::new(0, 7));
        assert_eq!(Bvr::new(5, 5), Bvr::new(3, 3));
        assert_ne!(Bvr::new(1, 3), Bvr::new(1, 2));
        assert!((Bvr::new(3, 9).value() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn bvr_zero_total_panics() {
        let _ = Bvr::new(0, 0);
    }

    #[test]
    fn entropy_base_v_limits() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[1.0]), 0.0);
        // Uniform over v outcomes is exactly 1 for any v.
        for v in 2..6 {
            let probs = vec![1.0 / v as f64; v];
            assert!((shannon_entropy(&probs) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn footnote1_example() {
        // Two TBs with BVR 0 and one with BVR 1: p = 2/3, 1/3 -> 0.92.
        let h = shannon_entropy(&[2.0 / 3.0, 1.0 / 3.0]);
        assert!((h - 0.918295).abs() < 1e-5);
    }

    #[test]
    fn figure3_example_window2() {
        // 8 TBs, alternating pairs: BVRs 0 0 1 1 0 0 1 1 (half 0s, half 1s).
        let bvrs: Vec<Bvr> = [0, 0, 1, 1, 0, 0, 1, 1]
            .iter()
            .map(|&o| Bvr::new(o, 1))
            .collect();
        let h = window_entropy(&bvrs, 2);
        assert!((h - 3.0 / 7.0).abs() < 1e-12, "H* = {h}, expected 3/7");
    }

    #[test]
    fn figure3_example_window4() {
        let bvrs: Vec<Bvr> = [0, 0, 1, 1, 0, 0, 1, 1]
            .iter()
            .map(|&o| Bvr::new(o, 1))
            .collect();
        let h = window_entropy(&bvrs, 4);
        assert!((h - 1.0).abs() < 1e-12, "H* = {h}, expected 1");
    }

    #[test]
    fn window_larger_than_tbs_uses_single_window() {
        let bvrs = vec![Bvr::new(0, 1), Bvr::new(1, 1)];
        // w=12 clamps to 2 TBs: one window, two distinct values -> 1.
        assert_eq!(window_entropy(&bvrs, 12), 1.0);
    }

    #[test]
    fn constant_bit_has_zero_entropy() {
        let bvrs = vec![Bvr::new(1, 1); 50];
        assert_eq!(window_entropy(&bvrs, 12), 0.0);
    }

    #[test]
    fn intra_tb_entropy_counts() {
        // A TB whose addresses alternate bit 3 has BVR(3) = 1/2; mixed
        // with a constant TB the window-mean probability is 1/4.
        let a = TbBitStats::from_addrs(0, 8, [0b0000, 0b1000, 0b0000, 0b1000]);
        let b = TbBitStats::from_addrs(1, 8, [0b0000, 0b0000]);
        assert_eq!(a.bvr(3).unwrap(), Bvr::new(1, 2));
        assert_eq!(b.bvr(3).unwrap(), Bvr::new(0, 1));
        let p = kernel_entropy(&[a, b], 2);
        assert!((p.bit(3) - binary_entropy(0.25)).abs() < 1e-12);
        assert_eq!(p.bit(0), 0.0);
        assert_eq!(p.requests(), 6);
        // The distinct-BVR variant sees two unique values -> entropy 1.
        let a2 = TbBitStats::from_addrs(0, 8, [0b0000, 0b1000, 0b0000, 0b1000]);
        let b2 = TbBitStats::from_addrs(1, 8, [0b0000, 0b0000]);
        let pd = kernel_entropy_method(&[a2, b2], 2, EntropyMethod::DistinctBvr);
        assert!((pd.bit(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn methods_agree_on_binary_bvrs() {
        // With BVRs of exactly 0/1 (the paper's worked examples) the two
        // interpretations coincide. Tolerance: odd windows hit
        // non-dyadic means (1/3, 2/3), where the mixture path's lookup
        // table carries its ≤1e-9 interpolation error.
        let bvrs: Vec<Bvr> = [0, 0, 1, 1, 0, 0, 1, 1]
            .iter()
            .map(|&o| Bvr::new(o, 1))
            .collect();
        for w in [2, 3, 4] {
            let a = window_entropy_method(&bvrs, w, EntropyMethod::MixtureBvr);
            let b = window_entropy_method(&bvrs, w, EntropyMethod::DistinctBvr);
            assert!((a - b).abs() < 1e-9, "w={w}: {a} vs {b}");
        }
    }

    #[test]
    fn mixture_rewards_intra_tb_variability() {
        // Every TB toggles the bit internally: BVR 0.5 for all. The
        // mixture method reports full entropy; the strict distinct-value
        // method collapses to zero (one unique value).
        let bvrs = vec![Bvr::new(1, 2); 20];
        assert_eq!(
            window_entropy_method(&bvrs, 12, EntropyMethod::MixtureBvr),
            1.0
        );
        assert_eq!(
            window_entropy_method(&bvrs, 12, EntropyMethod::DistinctBvr),
            0.0
        );
    }

    #[test]
    fn binary_entropy_limits() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(1.0 / 3.0) - 0.918295).abs() < 1e-5);
    }

    #[test]
    fn kernel_entropy_sorts_by_tb_id() {
        // Same data delivered out of order must give the same profile.
        let t0 = TbBitStats::from_addrs(0, 4, [0b0000]);
        let t1 = TbBitStats::from_addrs(1, 4, [0b0001]);
        let t2 = TbBitStats::from_addrs(2, 4, [0b0000]);
        let in_order = kernel_entropy(&[t0.clone(), t1.clone(), t2.clone()], 2);
        let shuffled = kernel_entropy(&[t2, t0, t1], 2);
        assert_eq!(in_order, shuffled);
    }

    #[test]
    fn empty_tbs_are_skipped() {
        let empty = TbBitStats::new(0, 4);
        let full = TbBitStats::from_addrs(1, 4, [0b1010]);
        let p = kernel_entropy(&[empty, full], 2);
        assert_eq!(p.requests(), 1);
    }

    #[test]
    fn application_weighting() {
        // Kernel A: bit0 entropy 1.0 with 300 requests;
        // kernel B: bit0 entropy 0.0 with 100 requests -> 0.75.
        let a = EntropyProfile::from_per_bit(vec![1.0], 300);
        let b = EntropyProfile::from_per_bit(vec![0.0], 100);
        let app = application_entropy(&[a, b]);
        assert!((app.bit(0) - 0.75).abs() < 1e-12);
        assert_eq!(app.requests(), 400);
    }

    #[test]
    fn valley_detection() {
        // Bits 8-13 starved, bits 18-29 rich: a textbook valley.
        let mut per_bit = vec![0.0; 30];
        per_bit[18..30].fill(0.9);
        per_bit[6..8].fill(0.8);
        let p = EntropyProfile::from_per_bit(per_bit, 1000);
        let targets: Vec<u8> = (8..14).collect();
        let candidates: Vec<u8> = (6..30).collect();
        assert!(p.valley_score(&targets, &candidates) > 0.8);
        assert!(p.has_valley(&targets, &candidates, 0.25));
        // A flat high profile has no valley.
        let flat = EntropyProfile::from_per_bit(vec![0.9; 30], 1000);
        assert!(!flat.has_valley(&targets, &candidates, 0.25));
    }

    #[test]
    fn ascii_chart_shape() {
        let p = EntropyProfile::from_per_bit(vec![1.0, 0.0, 0.5], 1);
        let chart = p.ascii_chart(0, 2);
        // 5 levels + axis line, each 3 chars wide + newline.
        assert_eq!(chart.lines().count(), 6);
        assert!(chart.lines().all(|l| l.len() == 3));
    }
}
