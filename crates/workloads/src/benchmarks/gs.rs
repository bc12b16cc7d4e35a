//! GS — Gaussian Elimination (Rodinia).
//!
//! Per elimination step: `Fan1` computes the multiplier column, `Fan2`
//! applies the rank-1 update. The matrix is small enough to be mostly
//! LLC-resident (Table II: MPKI 0.01 despite APKI 9.09), so GS exercises
//! *LLC-slice* balance rather than DRAM: the column walks at the padded
//! 4 KiB pitch pin all concurrent requests to one slice under BASE.

use crate::gen::{
    compute, load_contig, load_strided, region, store_contig, store_strided, Scale, F32,
};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Matrix dimension.
const N: u64 = 256;
/// Padded row pitch (places the row index at bit 12 and above).
const PITCH: u64 = 4 * 1024;
/// Column chunks updated per Fan2 launch (inter-TB dimension).
const COL_CHUNKS: u64 = 4;

/// Builds the GS workload: `Fan1`/`Fan2` kernel pairs per sampled step.
pub fn workload(scale: Scale) -> Workload {
    let steps = scale.pick(3, 48);
    let step_stride = scale.pick(16, 4);
    let base = region(0);
    let mvec = region(1);

    let mut kernels = Vec::new();
    for i in 0..steps {
        let k = i as u64 * step_stride;
        // Fan1: one TB computes the multiplier column.
        let gen1 = Arc::new(move |_tb: u64, warp: usize| -> Vec<Instruction> {
            let r0 = (k + 1 + warp as u64 * 32).min(N - 32);
            vec![
                load_strided(base + r0 * PITCH + k * F32, PITCH),
                compute(5),
                store_contig(mvec + r0 * F32, F32),
            ]
        });
        kernels.push(KernelSpec::new(format!("fan1_{k}"), 1, 4, gen1));

        // Fan2: rank-1 update, gridded (row block × column chunk) with
        // the row block minor so concurrent TBs differ in the row bits.
        let rblocks = 2u64;
        let gen2 = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
            let rblk = tb % rblocks;
            let cchunk = tb / rblocks;
            let r0 = (k + 1 + rblk * 128 + warp as u64 * 32).min(N - 32);
            // Sampled trailing column; chunk offsets stay below 64 B so
            // they vanish at coalescing granularity.
            let j = (k + 1 + cchunk * 4).min(N - 1);
            let col = base + r0 * PITCH + j * F32;
            vec![
                load_contig(mvec + r0 * F32, F32),
                load_contig(base + k * PITCH + j * F32, F32), // pivot row
                load_strided(col, PITCH),
                compute(4),
                store_strided(col, PITCH),
            ]
        });
        kernels.push(KernelSpec::new(
            format!("fan2_{k}"),
            rblocks * COL_CHUNKS,
            4,
            gen2,
        ));
    }
    Workload::new("GS", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn kernel_pairs() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 96);
        assert!(w.kernel(0).name().starts_with("fan1"));
        assert!(w.kernel(1).name().starts_with("fan2"));
    }

    #[test]
    fn footprint_is_near_llc_capacity() {
        // 256 rows x 4 KiB = 1 MiB: mostly LLC-resident after warm-up.
        assert_eq!(N * PITCH, 1024 * 1024);
    }

    #[test]
    fn fan2_has_concurrent_tbs() {
        let w = workload(Scale::Ref);
        assert_eq!(w.kernel(1).num_thread_blocks(), 8);
    }

    #[test]
    fn fan2_updates_are_strided() {
        let w = workload(Scale::Ref);
        let k = w.kernel(1);
        let insts: Vec<_> = {
            let mut p = k.warp_program(0, 0);
            std::iter::from_fn(move || p.next_instruction()).collect()
        };
        let strided_stores = insts
            .iter()
            .filter(|i| matches!(i, Instruction::Store(a) if a.lane(1) - a.lane(0) == PITCH))
            .count();
        assert_eq!(strided_stores, 1);
    }

    #[test]
    fn row_blocks_differ_in_high_bits_only() {
        let w = workload(Scale::Ref);
        let k = w.kernel(1);
        let a0 = valley_sim::tb_request_addresses(k.as_ref(), 0, 64);
        let a1 = valley_sim::tb_request_addresses(k.as_ref(), 1, 64);
        // TB 0 and TB 1 differ in the row block (128 rows × 4 KiB =
        // bit 19): their first column-walk requests agree below bit 12.
        let first_col = |v: &[u64]| {
            *v.iter()
                .find(|&&a| a < region(1) && a >= PITCH)
                .expect("fan2 touches the matrix")
        };
        let (x, y) = (first_col(&a0), first_col(&a1));
        assert_eq!(x & 0xfff, y & 0xfff);
        assert_ne!(x, y);
    }
}
