//! LPS — 3D Laplace Solver.
//!
//! A 7-point stencil over a `64 × 128 × 32` grid with padded 4 KiB row
//! pitch and 512 KiB slab pitch. Each TB covers four x-rows at one
//! (y-block, z) coordinate; the narrow 256 B x-extent keeps bits 8–11
//! constant inside a TB while y/z place their entropy at bit 12 and
//! above. Table II: 2 kernels, MPKI 1.66.

use crate::gen::{base_mb, compute, load_contig, store_contig, Scale, F32};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Grid x-extent in elements (256 B per row — below the channel bits).
const NX: u64 = 64;
/// Padded row (y) pitch in bytes.
const ROW_PITCH: u64 = 4 * 1024;
/// Slab (z) pitch in bytes, padded to 4 MiB: with z-minor TB scheduling
/// the concurrent window's entropy lands at bit 22 and above — high row
/// bits PM cannot tap but PAE can.
const SLAB_PITCH: u64 = 4 * 1024 * 1024;

fn at(base: u64, x: u64, y: u64, z: u64) -> u64 {
    base + z * SLAB_PITCH + y * ROW_PITCH + x * F32
}

/// Builds the LPS workload: two stencil sweeps (ping-pong buffers).
pub fn workload(scale: Scale) -> Workload {
    let ny = scale.pick(16, 128u64);
    let nz = scale.pick(4, 32u64);
    // Two 128 MiB ping-pong volumes.
    let buf = [base_mb(0), base_mb(512)];

    let kernels = (0..2)
        .map(|sweep| {
            let src = buf[sweep % 2];
            let dst = buf[(sweep + 1) % 2];
            let yblocks = ny / 4;
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                // z-minor: concurrent TBs differ in the slab (bit 22+).
                let z = tb % nz;
                let yblk = tb / nz;
                let y = yblk * 4 + warp as u64 / 2;
                let x = (warp as u64 % (NX / 32)) * 32;
                let yn = y.saturating_sub(1);
                let ys = (y + 1).min(ny - 1);
                let zd = z.saturating_sub(1);
                let zu = (z + 1).min(nz - 1);
                vec![
                    load_contig(at(src, x, y, z), F32),
                    load_contig(at(src, x, yn, z), F32),
                    load_contig(at(src, x, ys, z), F32),
                    load_contig(at(src, x, y, zd), F32),
                    load_contig(at(src, x, y, zu), F32),
                    compute(8),
                    store_contig(at(dst, x, y, z), F32),
                ]
            });
            KernelSpec::new(format!("laplace3d_{sweep}"), yblocks * nz, 8, gen)
        })
        .collect();
    Workload::new("LPS", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn two_kernels_ping_pong() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 2);
        assert_eq!(w.kernel(0).num_thread_blocks(), 32 * 32);
    }

    #[test]
    fn x_extent_stays_below_channel_bits() {
        const { assert!(NX * F32 <= 256) };
    }

    #[test]
    fn neighbors_are_row_and_slab_offsets() {
        let c = at(0, 0, 5, 2);
        assert_eq!(at(0, 0, 6, 2) - c, ROW_PITCH);
        assert_eq!(at(0, 0, 5, 3) - c, SLAB_PITCH);
    }

    #[test]
    fn boundary_tbs_clamp() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        // First TB, first warp touches y=0: the north neighbor clamps.
        let mut p = k.warp_program(0, 0);
        let first = p.next_instruction().unwrap();
        let second = p.next_instruction().unwrap();
        match (first, second) {
            (Instruction::Load(a), Instruction::Load(b)) => assert_eq!(a.lane(0), b.lane(0)),
            other => panic!("expected loads, got {other:?}"),
        }
    }
}
