//! DWT2D — 2D Discrete Wavelet Transform (Rodinia).
//!
//! Alternating vertical/horizontal wavelet passes over a 512×512 image
//! (2 KiB row pitch), one kernel pair per decomposition level. The
//! vertical pass pairs rows `y` and `y + half` (an offset that halves
//! each level), so the location of the high-variability bit *moves across
//! kernels* — producing the paper's broad application-level valley with
//! narrow per-kernel valleys (Figure 5i vs 5j). Table II: 10 kernels.

use crate::gen::{compute, load_contig, region, store_contig, Scale, F32};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Image dimension in elements.
const N: u64 = 512;
/// Row pitch in bytes.
const PITCH: u64 = N * F32;

/// Builds the DWT2D workload: 5 levels × (vertical, horizontal).
pub fn workload(scale: Scale) -> Workload {
    let levels = scale.pick(2, 5u32);
    let src = region(0);
    let dst = region(1);

    let mut kernels = Vec::new();
    for level in 0..levels {
        let extent = N >> level; // active image extent at this level
        let half = extent / 2;

        // Vertical pass: combine rows y and y+half.
        let yblocks = (half / 8).max(1);
        let xblocks = (extent * F32 / 256).max(1);
        let gen_v = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
            let yblk = tb % yblocks;
            let xblk = tb / yblocks;
            let y = yblk * 8 + warp as u64;
            let x = xblk * 64 + (warp as u64 % 2) * 32;
            let x = x % extent.max(64);
            vec![
                load_contig(src + y * PITCH + x * F32, F32),
                load_contig(src + (y + half) * PITCH + x * F32, F32),
                compute(5),
                store_contig(dst + y * PITCH + x * F32, F32),
                store_contig(dst + (y + half) * PITCH + x * F32, F32),
            ]
        });
        kernels.push(KernelSpec::new(
            format!("dwt_v_l{level}"),
            yblocks * xblocks,
            8,
            gen_v,
        ));

        // Horizontal pass: combine columns x and x+half within a row.
        let rows = extent;
        let gen_h = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
            let y = (tb * 8 + warp as u64) % rows.max(1);
            let x0 = 0u64;
            vec![
                load_contig(dst + y * PITCH + x0 * F32, F32),
                load_contig(dst + y * PITCH + (x0 + half) * F32, F32),
                compute(5),
                store_contig(src + y * PITCH + x0 * F32, F32),
            ]
        });
        kernels.push(KernelSpec::new(
            format!("dwt_h_l{level}"),
            (rows / 8).max(1),
            8,
            gen_h,
        ));
    }
    Workload::new("DWT2D", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn ten_kernels_at_ref_scale() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 10);
    }

    #[test]
    fn pair_offset_halves_per_level() {
        let w = workload(Scale::Ref);
        // Vertical kernels at levels 0 and 1: row-pair offsets 256 and
        // 128 rows respectively.
        for (ki, half_rows) in [(0usize, 256u64), (2, 128)] {
            let k = w.kernel(ki);
            let mut p = k.warp_program(0, 0);
            let a = match p.next_instruction().unwrap() {
                Instruction::Load(a) => a.lane(0),
                other => panic!("expected load, got {other:?}"),
            };
            let b = match p.next_instruction().unwrap() {
                Instruction::Load(b) => b.lane(0),
                other => panic!("expected load, got {other:?}"),
            };
            assert_eq!(b - a, half_rows * PITCH);
        }
    }

    #[test]
    fn grids_shrink_with_level() {
        let w = workload(Scale::Ref);
        assert!(w.kernel(8).num_thread_blocks() < w.kernel(0).num_thread_blocks());
    }
}
