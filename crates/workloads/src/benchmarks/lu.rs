//! LU — LU Decomposition (CUDA SDK).
//!
//! Right-looking factorization over a 4096×4096 double matrix (8 KiB
//! pitch, 32 MiB): each step scales the pivot column below the diagonal
//! and applies a panel update. Lanes walk the column at the row pitch
//! (bits 13–17), and the row chunks owned by concurrent warps/TBs sit
//! 2 MiB apart (bit 21 and above) — so the window's entropy lives in the
//! *high* row bits, where PM's low-row-bit XOR cannot reach it (Figure
//! 12: LU gains little from PM, much from PAE/FAE). Table II: 1022
//! kernel launches, 2.22 B instructions; we sample the step cadence.

use crate::gen::{compute, load_contig, load_strided, region, store_strided, Scale, F64};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Matrix dimension (doubles).
const N: u64 = 4096;
/// Row pitch in bytes (`N` doubles = 8 KiB if N were 1024; here 32 KiB
/// would overflow the region, so rows are stored at 8 KiB pitch with the
/// trailing 3072 doubles of each row in a second panel — the factored
/// panel we touch lives in the first 1024 columns).
const PITCH: u64 = 8 * 1024;
/// Row chunk owned by one warp: 256 rows × PITCH = 2 MiB (bit 21+).
const CHUNK_ROWS: u64 = 256;

/// Builds the LU workload: one merged scale+update kernel per step.
pub fn workload(scale: Scale) -> Workload {
    let steps = scale.pick(4, 64);
    let step_stride = scale.pick(64, 16);
    let base = region(0); // 4096 rows x 8 KiB = 32 MiB

    let kernels = (0..steps)
        .map(|i| {
            let k = i as u64 * step_stride;
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                // Warp (tb*8 + w) owns a sparse 32-row sample of its
                // 2 MiB-aligned chunk below the diagonal.
                let chunk = tb * 8 + warp as u64;
                let r0 = (k + 1 + chunk * CHUNK_ROWS) % (N - 32);
                let col_k = base + r0 * PITCH + (k % 512) * F64;
                vec![
                    // Scale column k below the pivot.
                    load_strided(col_k, PITCH),
                    compute(6),
                    store_strided(col_k, PITCH),
                    // Panel update of column k+1 with the pivot row.
                    load_contig(base + (k % (N - 1)) * PITCH + (k % 512) * F64, F64),
                    load_strided(col_k + F64, PITCH),
                    compute(4),
                    store_strided(col_k + F64, PITCH),
                ]
            });
            KernelSpec::new(format!("lud_step{k}"), 2, 8, gen)
        })
        .collect();
    Workload::new("LU", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn many_small_kernels() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 64);
        assert_eq!(w.kernel(0).num_thread_blocks(), 2);
    }

    #[test]
    fn column_walks_use_row_pitch() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let mut p = k.warp_program(0, 0);
        match p.next_instruction().unwrap() {
            Instruction::Load(a) => assert_eq!(a.lane(1) - a.lane(0), PITCH),
            other => panic!("expected strided load, got {other:?}"),
        }
    }

    #[test]
    fn warp_chunks_are_2mib_apart() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let first = |warp: usize| {
            let mut p = k.warp_program(0, warp);
            match p.next_instruction().unwrap() {
                Instruction::Load(a) => a.lane(0),
                other => panic!("expected load, got {other:?}"),
            }
        };
        assert_eq!(first(1) - first(0), CHUNK_ROWS * PITCH);
        assert_eq!(CHUNK_ROWS * PITCH, 2 * 1024 * 1024);
    }

    #[test]
    fn footprint_is_one_region() {
        const { assert!(N * PITCH <= 64 * 1024 * 1024) };
    }
}
