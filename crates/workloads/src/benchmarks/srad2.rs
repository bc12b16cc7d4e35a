//! SRAD2 — Speckle-Reducing Anisotropic Diffusion v2 (Rodinia).
//!
//! Two stencil kernels per iteration over a 1024×1024 image with 4 KiB row
//! pitch. Warps walk image *columns* (lane stride = row pitch), so a TB's
//! requests agree in bits 8–11 while spreading over bits 12–21; both
//! kernels share this structure, which is why the paper's SRAD2K1 profile
//! matches the whole application (Figure 5g/5h). Table II: 4 kernels.

use crate::gen::{compute, load_strided, region, store_strided, Scale, F32};
use crate::workload::{KernelSpec, Workload};
use std::sync::Arc;
use valley_sim::Instruction;

/// Image rows.
const ROWS: u64 = 1024;
/// Padded row pitch in bytes.
const PITCH: u64 = 4 * 1024;
/// Rows per TB: 8 warps × 32 strided lanes.
const ROWS_PER_TB: u64 = 256;

/// Builds the SRAD2 workload: (srad1, srad2) × iterations.
pub fn workload(scale: Scale) -> Workload {
    let iterations = scale.pick(1, 2);
    let cols = scale.pick(8, 32u64);
    let img = region(0);
    let deriv = region(1);

    let rblocks = ROWS / ROWS_PER_TB;
    let mut kernels = Vec::new();
    for it in 0..iterations {
        for (pass, (src, dst)) in [(img, deriv), (deriv, img)].into_iter().enumerate() {
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                // Row-block minor enumeration: concurrent TBs differ at
                // bit 20+ (r0 * PITCH), the column changes every rblocks TBs.
                let rblk = tb % rblocks;
                let c = tb / rblocks;
                let r0 = rblk * ROWS_PER_TB + warp as u64 * 32;
                let center = src + r0 * PITCH + c * F32;
                vec![
                    load_strided(center, PITCH),
                    load_strided(center + PITCH, PITCH), // south neighbors
                    load_strided(center + F32, PITCH),   // east (same lines)
                    compute(7),
                    store_strided(dst + r0 * PITCH + c * F32, PITCH),
                ]
            });
            kernels.push(KernelSpec::new(
                format!("srad{}_it{it}", pass + 1),
                rblocks * cols,
                8,
                gen,
            ));
        }
    }
    Workload::new("SRAD2", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn four_kernels_at_ref_scale() {
        let w = workload(Scale::Ref);
        assert_eq!(w.num_kernels(), 4);
    }

    #[test]
    fn kernels_share_column_walk_structure() {
        // The SRAD2K1-vs-SRAD2 similarity of Figure 5: both kernels walk
        // columns at the same pitch.
        let w = workload(Scale::Ref);
        for ki in 0..2 {
            let k = w.kernel(ki);
            let mut p = k.warp_program(0, 0);
            match p.next_instruction().unwrap() {
                Instruction::Load(a) => assert_eq!(a.lane(1) - a.lane(0), PITCH),
                other => panic!("expected strided load, got {other:?}"),
            }
        }
    }

    #[test]
    fn east_neighbor_shares_cache_lines() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let addrs = valley_sim::tb_request_addresses(k.as_ref(), 0, 128);
        // After 128 B coalescing, the +4 B east loads collapse onto the
        // center lines: expect far fewer unique lines than raw lane count.
        let unique: std::collections::BTreeSet<u64> = addrs.iter().copied().collect();
        assert!(unique.len() < addrs.len());
    }
}
