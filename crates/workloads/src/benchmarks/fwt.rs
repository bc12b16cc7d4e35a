//! FWT — Fast Walsh Transform (CUDA SDK).
//!
//! Butterfly passes with partner offsets at every power of two: across
//! the 22 kernels the high-variability bit sweeps the whole address
//! range, so the aggregate profile has entropy everywhere and no valley
//! (Figure 5m / Figure 20). Table II: 22 kernels, MPKI 1.38.

use crate::gen::{compute, load_contig, region, store_contig, Scale, F32};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Transform length in elements (1 MiB of data).
const N: u64 = 1 << 18;

/// Builds the FWT workload: one butterfly kernel per stage.
pub fn workload(scale: Scale) -> Workload {
    let stages = scale.pick(4, 15u32);
    let extra = scale.pick(0, 7u32); // small fix-up kernels (22 total)
    let data = region(0);

    let mut kernels = Vec::new();
    for s in 0..stages {
        let partner = (1u64 << s) * F32; // 4 B .. 512 KiB
        let tbs = 16;
        // Each TB walks a full 16 KiB chunk (8 warps × 8 iterations ×
        // 256 B), so every channel/bank bit (8-13) toggles *inside* every
        // TB — the CPU-like profile that leaves nothing for mapping to fix.
        let per_tb = 16 * 1024u64;
        debug_assert!(tbs * per_tb <= N * F32, "chunks stay inside the array");
        let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
            let mut insts = Vec::new();
            for i in 0..8u64 {
                let x = data + tb * per_tb + (warp as u64 * 8 + i) * 256;
                // Butterfly partner: XOR keeps the pair inside the array.
                let y = data + ((x - data) ^ partner);
                insts.extend([
                    load_contig(x, F32),
                    load_contig(y, F32),
                    compute(3),
                    store_contig(x, F32),
                    store_contig(y, F32),
                ]);
            }
            insts
        });
        kernels.push(KernelSpec::new(format!("fwt_stage{s}"), tbs, 8, gen));
    }
    for e in 0..extra {
        let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
            let x = data + (tb * 8 + warp as u64) * 512 + e as u64 * 128;
            vec![load_contig(x, F32), compute(4), store_contig(x, F32)]
        });
        kernels.push(KernelSpec::new(format!("fwt_fixup{e}"), 16, 8, gen));
    }
    Workload::new("FWT", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn twenty_two_kernels_at_ref_scale() {
        assert_eq!(workload(Scale::Ref).num_kernels(), 22);
    }

    #[test]
    fn partner_offset_sweeps_powers_of_two() {
        let w = workload(Scale::Ref);
        for (s, expected) in [(0usize, 4u64), (10, 4096)] {
            let k = w.kernel(s);
            let mut p = k.warp_program(0, 0);
            let a = match p.next_instruction().unwrap() {
                Instruction::Load(a) => a.lane(0),
                other => panic!("expected load, got {other:?}"),
            };
            let b = match p.next_instruction().unwrap() {
                Instruction::Load(b) => b.lane(0),
                other => panic!("expected load, got {other:?}"),
            };
            assert_eq!(a ^ b, expected);
        }
    }

    #[test]
    fn butterfly_stays_in_array() {
        let w = workload(Scale::Ref);
        let k = w.kernel(17);
        let addrs = valley_sim::tb_request_addresses(k.as_ref(), 31, 64);
        for &a in &addrs {
            assert!(a >= region(0) && a < region(0) + N * F32);
        }
    }
}
