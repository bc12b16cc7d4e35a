//! Binary Invertible Matrices (BIMs) over GF(2).
//!
//! The paper observes (Section IV-A) that every one-to-one address mapping
//! built from AND and XOR operations can be written as a matrix–vector
//! product over GF(2): `a_out = BIM × a_in`, where multiplication is AND and
//! addition is XOR. Invertibility of the matrix guarantees the mapping is a
//! bijection on the address space, so no two input addresses collide.
//!
//! A [`Bim`] of dimension `n ≤ 64` stores one `u64` mask per output bit:
//! output bit `i` is the XOR (parity) of the input bits selected by
//! `row(i)`. This is exactly the hardware realization in Figure 7 — input
//! lines selected where the matrix has ones, combined by a tree of XOR
//! gates — so [`Bim::apply`] also serves as a faithful cost model for the
//! mapping unit.

use std::fmt;

/// Errors produced when constructing a [`Bim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BimError {
    /// The requested dimension is zero or exceeds 64 bits.
    Dimension(usize),
    /// A row mask selects input bits at or above the matrix dimension.
    RowOutOfRange {
        /// Index of the offending row.
        row: usize,
        /// The offending mask.
        mask: u64,
    },
    /// The matrix is singular (rank < n), so it cannot represent a
    /// one-to-one address mapping.
    Singular,
}

impl fmt::Display for BimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BimError::Dimension(n) => write!(f, "invalid BIM dimension {n} (must be 1..=64)"),
            BimError::RowOutOfRange { row, mask } => {
                write!(
                    f,
                    "row {row} mask {mask:#x} selects bits outside the matrix"
                )
            }
            BimError::Singular => write!(f, "matrix is singular over GF(2)"),
        }
    }
}

impl std::error::Error for BimError {}

/// A square binary matrix over GF(2), stored row-wise as bit masks.
///
/// # Examples
///
/// The Broad-strategy example of Figure 6d/6e (5-bit address
/// `r2 r1 r0 c b`, with the new channel bit `c_out = r2 ⊕ r1 ⊕ r0 ⊕ c`):
///
/// ```
/// use valley_core::Bim;
///
/// // Bit order (LSB first): b=0, c=1, r0=2, r1=3, r2=4.
/// let mut m = Bim::identity(5);
/// m.set_row(1, 0b11110); // c_out = r2^r1^r0^c
/// m.set_row(0, 0b01101); // b_out = r1^r0^b
/// assert!(m.is_invertible());
///
/// let inv = m.inverse().unwrap();
/// let addr = 0b10110;
/// assert_eq!(inv.apply(m.apply(addr)), addr);
/// ```
#[derive(Clone)]
pub struct Bim {
    n: u8,
    rows: Vec<u64>,
    /// Cached: bits whose row is the identity row (`row(i) == 1 << i`).
    /// `apply` copies them with one AND instead of a parity reduction.
    identity_mask: u64,
    /// Cached: the non-identity rows as `(output bit, mask)` pairs — the
    /// only rows that need XOR-tree evaluation in `apply`. Mapping schemes
    /// modify a handful of target bits, so this is short (empty for BASE).
    special: Vec<(u8, u64)>,
}

impl PartialEq for Bim {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.rows == other.rows
    }
}

impl Eq for Bim {}

impl std::hash::Hash for Bim {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.rows.hash(state);
    }
}

impl Bim {
    /// The identity matrix of dimension `n` (the BASE mapping).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 64.
    pub fn identity(n: u8) -> Self {
        assert!((1..=64).contains(&n), "BIM dimension must be 1..=64");
        Bim::from_parts(n, (0..n).map(|i| 1u64 << i).collect())
    }

    /// Internal constructor: builds the `apply` fast-path cache.
    fn from_parts(n: u8, rows: Vec<u64>) -> Self {
        let mut bim = Bim {
            n,
            rows,
            identity_mask: 0,
            special: Vec::new(),
        };
        bim.rebuild_cache();
        bim
    }

    fn rebuild_cache(&mut self) {
        self.identity_mask = 0;
        self.special.clear();
        for (i, &mask) in self.rows.iter().enumerate() {
            if mask == 1u64 << i {
                self.identity_mask |= 1u64 << i;
            } else {
                self.special.push((i as u8, mask));
            }
        }
    }

    /// Builds a matrix from explicit row masks (row `i` produces output
    /// bit `i`). The matrix is *not* required to be invertible here; use
    /// [`Bim::is_invertible`] or [`Bim::checked_invertible`] to validate.
    ///
    /// # Errors
    ///
    /// Returns [`BimError::Dimension`] for invalid sizes and
    /// [`BimError::RowOutOfRange`] if a mask selects bits at or above `n`.
    pub fn from_rows(rows: Vec<u64>) -> Result<Self, BimError> {
        let n = rows.len();
        if n == 0 || n > 64 {
            return Err(BimError::Dimension(n));
        }
        let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        for (i, &mask) in rows.iter().enumerate() {
            if mask & !limit != 0 {
                return Err(BimError::RowOutOfRange { row: i, mask });
            }
        }
        Ok(Bim::from_parts(n as u8, rows))
    }

    /// Like [`Bim::from_rows`] but additionally requires invertibility.
    ///
    /// # Errors
    ///
    /// Returns [`BimError::Singular`] for singular matrices, plus the
    /// errors of [`Bim::from_rows`].
    pub fn checked_invertible(rows: Vec<u64>) -> Result<Self, BimError> {
        let m = Bim::from_rows(rows)?;
        if m.is_invertible() {
            Ok(m)
        } else {
            Err(BimError::Singular)
        }
    }

    /// The dimension of the matrix.
    #[inline]
    pub fn n(&self) -> u8 {
        self.n
    }

    /// The mask of input bits feeding output bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    pub fn row(&self, i: u8) -> u64 {
        self.rows[i as usize]
    }

    /// Replaces the row for output bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or if `mask` selects bits at or above `n`.
    pub fn set_row(&mut self, i: u8, mask: u64) {
        assert!(i < self.n, "row index out of range");
        let limit = if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        };
        assert!(mask & !limit == 0, "row mask selects bits outside matrix");
        self.rows[i as usize] = mask;
        self.rebuild_cache();
    }

    /// Applies the matrix to an address: output bit `i` is the parity of
    /// the input bits selected by row `i`.
    ///
    /// This mirrors the single-cycle XOR-tree hardware of Figure 7.
    #[inline]
    pub fn apply(&self, addr: u64) -> u64 {
        let mut out = addr & self.identity_mask;
        for &(i, mask) in &self.special {
            out |= (((mask & addr).count_ones() as u64) & 1) << i;
        }
        out
    }

    /// The rank of the matrix over GF(2).
    pub fn rank(&self) -> u8 {
        let mut rows = self.rows.clone();
        let mut rank = 0u8;
        for col in 0..self.n {
            let pivot = (rank as usize..rows.len()).find(|&r| rows[r] >> col & 1 == 1);
            if let Some(p) = pivot {
                rows.swap(rank as usize, p);
                let pivot_row = rows[rank as usize];
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != rank as usize && *row >> col & 1 == 1 {
                        *row ^= pivot_row;
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// Whether the matrix is invertible (full rank over GF(2)).
    pub fn is_invertible(&self) -> bool {
        self.rank() == self.n
    }

    /// Whether this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, &m)| m == 1u64 << i)
    }

    /// Computes the inverse matrix, or `None` if singular.
    ///
    /// The inverse is the decode direction: hardware that must recover the
    /// original address (e.g. for debugging or refresh bookkeeping) applies
    /// the inverse BIM, which is again a tree of XOR gates.
    pub fn inverse(&self) -> Option<Bim> {
        // Gauss-Jordan over GF(2) with an augmented identity.
        let n = self.n as usize;
        let mut a = self.rows.clone();
        let mut inv: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
        for col in 0..n {
            let pivot = (col..n).find(|&r| a[r] >> col & 1 == 1)?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let (pa, pi) = (a[col], inv[col]);
            for r in 0..n {
                if r != col && a[r] >> col & 1 == 1 {
                    a[r] ^= pa;
                    inv[r] ^= pi;
                }
            }
        }
        Some(Bim::from_parts(self.n, inv))
    }

    /// Matrix product `self × other` (apply `other` first, then `self`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn compose(&self, other: &Bim) -> Bim {
        assert_eq!(self.n, other.n, "BIM dimensions must match");
        // Row i of the product selects input bits via other's rows.
        let rows = self
            .rows
            .iter()
            .map(|&mask| {
                let mut acc = 0u64;
                let mut m = mask;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    acc ^= other.rows[j];
                    m &= m - 1;
                }
                acc
            })
            .collect();
        Bim::from_parts(self.n, rows)
    }

    /// An estimate of the two-input XOR gates required in hardware.
    pub fn xor_gate_count(&self) -> u32 {
        self.rows
            .iter()
            .map(|r| r.count_ones().saturating_sub(1))
            .sum()
    }

    /// XOR-tree depth of the widest row — the critical path of the mapping
    /// unit in gate levels (ceil(log2(k)) for a row with k inputs).
    pub fn xor_tree_depth(&self) -> u32 {
        self.rows
            .iter()
            .map(|r| {
                let k = r.count_ones();
                if k <= 1 {
                    0
                } else {
                    32 - (k - 1).leading_zeros()
                }
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for Bim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Bim(n={}) [msb row first]", self.n)?;
        for i in (0..self.n).rev() {
            writeln!(
                f,
                "  out[{:2}] <- {:0width$b}",
                i,
                self.rows[i as usize],
                width = self.n as usize
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for Bim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_to_self() {
        let id = Bim::identity(30);
        assert!(id.is_identity());
        assert!(id.is_invertible());
        assert_eq!(id.rank(), 30);
        for &a in &[0u64, 1, 0x2aaa_aaaa, 0x3fff_ffff] {
            assert_eq!(id.apply(a), a);
        }
    }

    #[test]
    fn figure6_broad_example() {
        // Figure 6d/6e, bit order LSB first: b=0, c=1, r0=2, r1=3, r2=4.
        let m = Bim::checked_invertible(vec![
            0b01101, // b_out = r1 ^ r0 ^ b
            0b11110, // c_out = r2 ^ r1 ^ r0 ^ c
            0b00100, // r0
            0b01000, // r1
            0b10000, // r2
        ])
        .unwrap();
        // Figure 6e: input (r2,r1,r0,c,b) = ... the mapping only rewrites
        // c and b. Check a concrete vector: r2=1,r1=1,r0=1,c=0,b=0.
        let a = 0b11100u64;
        let out = m.apply(a);
        // c_out = 1^1^1^0 = 1; b_out = 1^1^0 = 0; r bits unchanged.
        assert_eq!(out, 0b11110);
    }

    #[test]
    fn figure2_bim_example() {
        // Figure 2c: the 6x6 BIM (shown MSB-row first in the paper):
        //   1 0 0 0 0 0
        //   0 1 0 0 0 0
        //   0 0 1 0 0 0
        //   0 0 0 1 0 0
        //   1 0 1 0 1 0
        //   1 1 1 0 0 1
        // With paper columns ordered MSB..LSB, convert to LSB-first masks.
        // Paper row k (from top, k=0 is MSB output) has ones in columns
        // (from left, col 0 is MSB input).
        let paper_rows = [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [1, 0, 1, 0, 1, 0],
            [1, 1, 1, 0, 0, 1],
        ];
        let n = 6;
        let mut rows = vec![0u64; n];
        for (k, cols) in paper_rows.iter().enumerate() {
            let out_bit = n - 1 - k; // paper row 0 produces the MSB
            for (c, &v) in cols.iter().enumerate() {
                if v == 1 {
                    let in_bit = n - 1 - c;
                    rows[out_bit] |= 1 << in_bit;
                }
            }
        }
        let m = Bim::checked_invertible(rows).unwrap();
        // Paper: 111000 -> 111001.
        assert_eq!(m.apply(0b111000), 0b111001);
        // And the full TB-CM0 request set becomes perfectly channel-balanced
        // (Figure 2e): channel bits are the two LSBs here.
        let tb_cm0: [u64; 8] = [
            0b000000, 0b001000, 0b010000, 0b011000, 0b100000, 0b101000, 0b110000, 0b111000,
        ];
        let mut chan_counts = [0usize; 4];
        for &a in &tb_cm0 {
            chan_counts[(m.apply(a) & 0b11) as usize] += 1;
        }
        assert_eq!(chan_counts, [2, 2, 2, 2]);
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = Bim::from_rows(vec![0b01, 0b01]).unwrap();
        assert!(!m.is_invertible());
        assert_eq!(m.rank(), 1);
        assert!(m.inverse().is_none());
        assert_eq!(
            Bim::checked_invertible(vec![0b01, 0b01]),
            Err(BimError::Singular)
        );
    }

    #[test]
    fn zero_row_is_singular() {
        let m = Bim::from_rows(vec![0b10, 0b00]).unwrap();
        assert!(!m.is_invertible());
    }

    #[test]
    fn inverse_roundtrip() {
        let mut m = Bim::identity(8);
        m.set_row(0, 0b1010_0001);
        m.set_row(3, 0b0100_1010);
        assert!(m.is_invertible());
        let inv = m.inverse().unwrap();
        for a in 0..256u64 {
            assert_eq!(inv.apply(m.apply(a)), a);
            assert_eq!(m.apply(inv.apply(a)), a);
        }
        // Composition with the inverse is the identity.
        assert!(m.compose(&inv).is_identity());
        assert!(inv.compose(&m).is_identity());
    }

    #[test]
    fn compose_matches_sequential_apply() {
        let mut a = Bim::identity(6);
        a.set_row(1, 0b110010);
        let mut b = Bim::identity(6);
        b.set_row(4, 0b010011);
        let ab = a.compose(&b);
        for addr in 0..64u64 {
            assert_eq!(ab.apply(addr), a.apply(b.apply(addr)));
        }
    }

    #[test]
    fn from_rows_validation() {
        assert_eq!(Bim::from_rows(vec![]), Err(BimError::Dimension(0)));
        assert_eq!(
            Bim::from_rows(vec![0b100, 0b001]),
            Err(BimError::RowOutOfRange {
                row: 0,
                mask: 0b100
            })
        );
    }

    #[test]
    fn hardware_cost_metrics() {
        let mut m = Bim::identity(6);
        assert_eq!(m.xor_gate_count(), 0);
        assert_eq!(m.xor_tree_depth(), 0);
        m.set_row(0, 0b111111); // 6 inputs -> 5 gates, depth 3
        assert_eq!(m.xor_gate_count(), 5);
        assert_eq!(m.xor_tree_depth(), 3);
    }

    #[test]
    fn bijectivity_exhaustive_small() {
        // An invertible matrix must permute the whole space.
        let mut m = Bim::identity(10);
        m.set_row(2, 0b11_0000_0100);
        m.set_row(7, 0b10_1010_0000);
        assert!(m.is_invertible());
        let mut seen = vec![false; 1 << 10];
        for a in 0..(1u64 << 10) {
            let out = m.apply(a) as usize;
            assert!(!seen[out], "collision at {a}");
            seen[out] = true;
        }
    }

    #[test]
    fn error_display() {
        let e = BimError::Singular;
        assert_eq!(e.to_string(), "matrix is singular over GF(2)");
    }
}
