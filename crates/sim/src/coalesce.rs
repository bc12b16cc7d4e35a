//! The memory coalescer: collapses a warp's per-lane addresses into the
//! minimal set of line-sized memory transactions.
//!
//! GPUs coalesce the 32 lane accesses of a memory instruction into unique
//! 128 B transactions. A fully-coalesced row-major access produces one
//! transaction; a column-major (large-stride) access degenerates into 32 —
//! the very pattern whose addresses then exhibit the paper's entropy
//! valley. The paper's address-mapping unit sits *directly after* this
//! stage.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::trace::LaneAddrs;

/// Coalesces lane addresses into unique line-aligned transaction
/// addresses, preserving first-touch order (the order lanes would be
/// serviced).
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two.
///
/// # Examples
///
/// ```
/// use valley_sim::{coalesce, LaneAddrs};
///
/// // 32 consecutive 4-byte lanes: one 128 B transaction.
/// let a = LaneAddrs::contiguous(0x80, 32, 4);
/// assert_eq!(coalesce(&a, 128), vec![0x80]);
///
/// // Stride-4096 lanes: 32 distinct transactions.
/// let b = LaneAddrs::strided(0, 32, 4096);
/// assert_eq!(coalesce(&b, 128).len(), 32);
/// ```
pub fn coalesce(addrs: &LaneAddrs, line_bytes: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(4);
    coalesce_into(addrs, line_bytes, &mut out);
    out
}

/// [`coalesce`] into a caller-provided buffer (cleared first) — the
/// allocation-free form the simulator's issue path uses.
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two.
pub fn coalesce_into(addrs: &LaneAddrs, line_bytes: u64, out: &mut Vec<u64>) {
    assert!(
        line_bytes.is_power_of_two(),
        "transaction size must be a power of two"
    );
    let mask = !(line_bytes - 1);
    out.clear();
    for &a in &addrs.0 {
        let line = a & mask;
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_single_transaction() {
        let a = LaneAddrs::contiguous(0x1000, 32, 4);
        assert_eq!(coalesce(&a, 128), vec![0x1000]);
    }

    #[test]
    fn unaligned_contiguous_spans_two_lines() {
        let a = LaneAddrs::contiguous(0x1040, 32, 4); // 0x1040..0x10c0
        assert_eq!(coalesce(&a, 128), vec![0x1000, 0x1080]);
    }

    #[test]
    fn column_major_degenerates() {
        let a = LaneAddrs::strided(0, 32, 1 << 12);
        let t = coalesce(&a, 128);
        assert_eq!(t.len(), 32);
        assert_eq!(t[1], 1 << 12);
    }

    #[test]
    fn duplicate_lanes_merge() {
        let a = LaneAddrs(vec![0x100, 0x104, 0x100, 0x17f]);
        assert_eq!(coalesce(&a, 128), vec![0x100]);
    }

    #[test]
    fn order_is_first_touch() {
        let a = LaneAddrs(vec![0x200, 0x100, 0x200, 0x000]);
        assert_eq!(coalesce(&a, 128), vec![0x200, 0x100, 0x000]);
    }

    #[test]
    fn empty_warp_is_empty() {
        assert!(coalesce(&LaneAddrs::default(), 128).is_empty());
    }

    #[test]
    fn eight_byte_elements_two_lines() {
        // 32 lanes x 8 B = 256 B = two 128 B transactions (doubles).
        let a = LaneAddrs::contiguous(0, 32, 8);
        assert_eq!(coalesce(&a, 128), vec![0, 128]);
    }
}
