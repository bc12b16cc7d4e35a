//! Bit-sliced tile primitives.
//!
//! The analytics kernels operate on *tiles* of [`TILE`] addresses. A tile
//! is transposed in place — `tile[i]` stops being "address i" and becomes
//! "bit-plane i": bit j of plane i is bit i of address j. In plane form,
//! per-address bit arithmetic turns into whole-word operations across all
//! 64 addresses at once:
//!
//! * a GF(2) matrix row's parity reduction (`popcount(mask & addr) & 1`)
//!   becomes the XOR of the planes selected by the mask — output plane
//!   `i = ⊕ { plane j : row_i has bit j }`;
//! * a per-bit 1-counter update becomes one `count_ones` per plane.
//!
//! The transpose itself is the classic recursive block swap (Hacker's
//! Delight §7-3): swap the two off-diagonal 32×32 blocks, then the four
//! off-diagonal 16×16 blocks, and so on down to 1×1 — six passes of
//! shift/XOR/mask over the 64 words, no memory traffic beyond the tile.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Tile width: addresses per tile, and bit-planes per transposed tile.
pub const TILE: usize = 64;

/// In-place 64×64 bit-matrix transpose.
///
/// On input, word `i` is row `i` (bit `j` = column `j`); on output, word
/// `i` is the former column `i`. Involutive: applying it twice restores
/// the tile.
///
/// # Examples
///
/// ```
/// use valley_compute::{transpose64, TILE};
///
/// let mut tile = [0u64; TILE];
/// tile[3] = 1 << 7; // row 3, column 7
/// transpose64(&mut tile);
/// assert_eq!(tile[7], 1 << 3); // row 7, column 3
/// ```
pub fn transpose64(a: &mut [u64; TILE]) {
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
    fn matches_naive_orientation() {
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
    fn involutive() {
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
    fn identity_and_single_bits() {
        // The diagonal is a fixed point.
        let mut diag = [0u64; TILE];
        for (i, w) in diag.iter_mut().enumerate() {
            *w = 1u64 << i;
        }
        let orig = diag;
        transpose64(&mut diag);
        assert_eq!(diag, orig);
        // Every single (row, col) bit lands at (col, row).
        for (r, c) in [(0usize, 0usize), (0, 63), (63, 0), (17, 41), (63, 63)] {
            let mut tile = [0u64; TILE];
            tile[r] = 1u64 << c;
            transpose64(&mut tile);
            let mut expect = [0u64; TILE];
            expect[c] = 1u64 << r;
            assert_eq!(tile, expect, "bit ({r}, {c})");
        }
    }
}
