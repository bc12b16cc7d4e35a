//! The memory coalescer: collapses a warp's per-lane addresses into the
//! minimal set of line-sized memory transactions.
//!
//! GPUs coalesce the 32 lane accesses of a memory instruction into unique
//! 128 B transactions. A fully-coalesced row-major access produces one
//! transaction; a column-major (large-stride) access degenerates into 32 —
//! the very pattern whose addresses then exhibit the paper's entropy
//! valley. The paper's address-mapping unit sits *directly after* this
//! stage and maps one line address per transaction.
//!
//! An affine lane set ([`LaneAddrs::Affine`], every contiguous and
//! strided access) is coalesced arithmetically, without visiting lanes;
//! only a gather ([`LaneAddrs::Explicit`]) walks its lanes, and that walk
//! is also the oracle the affine arithmetic is tested against.

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
/// serviced; for an affine access that is ascending address order).
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
    match *addrs {
        LaneAddrs::Affine { lanes: 0, .. } => {}
        // Consecutive lanes are at least a line apart: each lane owns its
        // line, and lane order is ascending line order.
        LaneAddrs::Affine { base, step, lanes } if step >= line_bytes => {
            out.extend((0..lanes as u64).map(|l| (base + l * step) & mask));
        }
        // Consecutive lanes are less than a line apart: every line from
        // the first lane's to the last lane's is touched, in ascending
        // order.
        LaneAddrs::Affine { base, step, lanes } => {
            let last = (base + (lanes as u64 - 1) * step) & mask;
            out.extend((base & mask..=last).step_by(line_bytes as usize));
        }
        LaneAddrs::Explicit(ref lanes) => {
            for &a in lanes {
                let line = a & mask;
                if !out.contains(&line) {
                    out.push(line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-lane walk over the same lanes: the reference for the
    /// affine arithmetic.
    fn oracle(a: &LaneAddrs, line_bytes: u64) -> Vec<u64> {
        coalesce(&LaneAddrs::explicit(a.iter().collect()), line_bytes)
    }

    proptest! {
        /// The affine arithmetic equals the per-lane walk for every step
        /// class: broadcast, below a line, one line, above a line, and
        /// non-powers of two.
        #[test]
        fn affine_matches_the_per_lane_walk(
            base in 0u64..(1 << 30),
            aligned in any::<bool>(),
            lanes in 0usize..=32,
            step_class in 0usize..6,
            raw_step in 1u64..2048,
            line_shift in 5u32..=8,
        ) {
            let line_bytes = 1u64 << line_shift;
            let base = if aligned { base & !(line_bytes - 1) } else { base };
            let step = match step_class {
                0 => 0,
                1 => 1 + raw_step % (line_bytes - 1),
                2 => line_bytes,
                3 => line_bytes + raw_step,
                4 => 12,
                _ => 200,
            };
            let a = LaneAddrs::strided(base, lanes, step);
            prop_assert_eq!(coalesce(&a, line_bytes), oracle(&a, line_bytes), "{:?}", a);
        }
    }

    #[test]
    fn broadcast_is_one_line() {
        let a = LaneAddrs::strided(0x1234, 32, 0);
        assert_eq!(coalesce(&a, 128), vec![0x1200]);
        assert_eq!(coalesce(&a, 128), oracle(&a, 128));
    }

    #[test]
    fn sixteen_lanes_at_stride_512_are_sixteen_lines() {
        let a = LaneAddrs::strided(0x40, 16, 512);
        let t = coalesce(&a, 128);
        assert_eq!(t, (0..16).map(|l| l * 512).collect::<Vec<_>>());
        assert_eq!(t, oracle(&a, 128));
    }

    #[test]
    fn fully_coalesced_single_transaction() {
        let a = LaneAddrs::contiguous(0x1000, 32, 4);
        assert_eq!(coalesce(&a, 128), vec![0x1000]);
    }

    #[test]
    fn unaligned_contiguous_spans_two_lines() {
        let a = LaneAddrs::contiguous(0x1040, 32, 4); // 0x1040..0x10c0
        assert_eq!(coalesce(&a, 128), vec![0x1000, 0x1080]);
        assert_eq!(coalesce(&a, 128), oracle(&a, 128));
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
        let a = LaneAddrs::explicit(vec![0x100, 0x104, 0x100, 0x17f]);
        assert_eq!(coalesce(&a, 128), vec![0x100]);
    }

    #[test]
    fn order_is_first_touch() {
        let a = LaneAddrs::explicit(vec![0x200, 0x100, 0x200, 0x000]);
        assert_eq!(coalesce(&a, 128), vec![0x200, 0x100, 0x000]);
    }

    #[test]
    fn empty_warp_is_empty() {
        assert!(coalesce(&LaneAddrs::contiguous(0x80, 0, 4), 128).is_empty());
        assert!(coalesce(&LaneAddrs::explicit(Vec::new()), 128).is_empty());
    }

    #[test]
    fn eight_byte_elements_two_lines() {
        // 32 lanes x 8 B = 256 B = two 128 B transactions (doubles).
        let a = LaneAddrs::contiguous(0, 32, 8);
        assert_eq!(coalesce(&a, 128), vec![0, 128]);
    }
}
