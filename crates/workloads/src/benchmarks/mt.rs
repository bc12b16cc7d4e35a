//! MT — Matrix Transpose (CUDA SDK).
//!
//! Reads a band of matrix `A` row-major and writes the transpose into `B`
//! column-major. The column-major writes stride by `B`'s 4 KiB row pitch,
//! so every write of a concurrently-scheduled TB window lands in the same
//! channel/bank group under the BASE map — the paper's motivating valley
//! (Figure 2, Figure 10). Rows of `A` are padded to a 32 KiB pitch, which
//! places the row index in the DRAM row bits where PAE can harvest it.
//!
//! Table II: 4 kernels (one per 64-row band here), APKI 7.44, MPKI 5.69.

use crate::gen::{base_mb, compute, load_contig, store_strided, Scale, F32};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Pitch of one row of `A` in bytes. The large (pitched-allocation) row
/// stride places the row index at bit 20 and above, so concurrently
/// scheduled TBs differ in the *high* row bits — entropy PM's
/// fixed low-row-bit XOR cannot reach but PAE's broad harvest can.
const PITCH_A: u64 = 1024 * 1024;
/// Pitch of one *column* of the transposed output `B`.
const PITCH_B: u64 = 4 * 1024;
/// Rows handled per TB tile (one per warp).
const TILE_ROWS: u64 = 8;
/// Columns per TB tile (one warp-load wide).
const TILE_COLS: u64 = 32;

/// Builds the MT workload: one kernel per transposed row band.
pub fn workload(scale: Scale) -> Workload {
    let cols = scale.pick(128, 512);
    let band_rows = scale.pick(16, 64);
    let kernels_n = scale.pick(2, 4);
    // A spans 256 rows x 1 MiB pitch = 256 MiB; B (2 MiB) sits above it.
    let base_a = base_mb(0);
    let base_b = base_mb(384);

    let rblocks = band_rows / TILE_ROWS;
    let cblocks = cols / TILE_COLS;
    let kernels = (0..kernels_n)
        .map(|kid| {
            let band = kid as u64 * band_rows;
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                // TB enumeration is row-block minor: concurrent TBs differ
                // in the row (high bits), not the column (low bits).
                let rblk = tb % rblocks;
                let cblk = tb / rblocks;
                let r = band + rblk * TILE_ROWS + warp as u64;
                let c0 = cblk * TILE_COLS;
                vec![
                    load_contig(base_a + r * PITCH_A + c0 * F32, F32),
                    compute(4),
                    store_strided(base_b + c0 * PITCH_B + r * F32, PITCH_B),
                    compute(2),
                ]
            });
            KernelSpec::new(
                format!("transpose_band{kid}"),
                rblocks * cblocks,
                TILE_ROWS as usize,
                gen,
            )
        })
        .collect();
    Workload::new("MT", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn shape_matches_table2() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 4);
        let k = w.kernel(0);
        assert_eq!(k.num_thread_blocks(), 8 * 16);
        assert_eq!(k.warps_per_block(), 8);
    }

    #[test]
    fn writes_are_column_major_strided() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let mut p = k.warp_program(0, 0);
        let mut saw_store = false;
        while let Some(i) = p.next_instruction() {
            if let Instruction::Store(a) = i {
                saw_store = true;
                assert_eq!(a.lane(1) - a.lane(0), PITCH_B);
            }
        }
        assert!(saw_store);
    }

    #[test]
    fn concurrent_tbs_share_low_order_bits() {
        // Consecutive TBs (same column block) differ only at/above bit 15
        // in their read addresses — the valley precondition.
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let a0 = valley_sim::tb_request_addresses(k.as_ref(), 0, 64);
        let a1 = valley_sim::tb_request_addresses(k.as_ref(), 1, 64);
        let read0 = a0[0]; // first request is the row-major read
        let read1 = a1[0];
        assert_eq!(read0 & 0x7fff, read1 & 0x7fff, "low bits must match");
        assert_ne!(read0, read1);
    }
}
