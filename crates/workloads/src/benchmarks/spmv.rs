//! SPMV — Sparse Matrix-Vector multiply (Parboil).
//!
//! CSR traversal: streaming value/column loads plus an irregular gather of
//! the dense vector. The random gather spreads entropy uniformly over the
//! footprint's bits, so no valley forms (Figure 20). Table II: 50
//! kernels, MPKI 2.75.

use crate::gen::{
    compute, load_contig, load_gather, region, store_contig, warp_rng, Scale, F32, WARP,
};
use crate::workload::{KernelSpec, Workload};
use rand::RngExt;
use std::sync::Arc;
use valley_sim::Instruction;

/// Dense-vector footprint the gather lands in.
const X_BYTES: u64 = 4 * 1024 * 1024;

/// Builds the SPMV workload: one kernel per multiply iteration.
pub fn workload(scale: Scale) -> Workload {
    let iterations = scale.pick(2, 10);
    let tbs = scale.pick(4, 32u64);
    let vals = region(0);
    let x = region(1);
    let y = region(2);

    let kernels = (0..iterations)
        .map(|it| {
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                let mut rng = warp_rng(0x5934 + it as u64, tb, warp);
                let row = tb * 8 + warp as u64;
                let mut insts = vec![
                    // Stream the row's values and column indices.
                    load_contig(vals + row * 4096, F32),
                    load_contig(vals + row * 4096 + 2048, F32),
                ];
                // Gather x[col[j]] at random offsets.
                let lanes: Vec<u64> = (0..WARP)
                    .map(|_| x + (rng.random_range(0..X_BYTES / 4)) * F32)
                    .collect();
                insts.push(load_gather(lanes));
                insts.push(compute(6));
                insts.push(store_contig(y + row * 128, F32));
                insts
            });
            KernelSpec::new(format!("spmv_it{it}"), tbs, 8, gen)
        })
        .collect();
    Workload::new("SPMV", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn iteration_kernels() {
        assert_eq!(workload(Scale::Ref).num_kernels(), 10);
    }

    #[test]
    fn gather_is_irregular_but_bounded() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let mut p = k.warp_program(0, 0);
        let mut saw_gather = false;
        while let Some(i) = p.next_instruction() {
            if let Instruction::Load(a) = i {
                if a.len() == WARP {
                    let min = a.iter().min().unwrap();
                    let max = a.iter().max().unwrap();
                    if max - min > 4096 {
                        saw_gather = true;
                        assert!(max < region(1) + X_BYTES);
                        assert!(min >= region(1));
                    }
                }
            }
        }
        assert!(saw_gather);
    }

    #[test]
    fn gather_differs_across_tbs() {
        let w = workload(Scale::Ref);
        let k = w.kernel(0);
        let a = valley_sim::tb_request_addresses(k.as_ref(), 0, 64);
        let b = valley_sim::tb_request_addresses(k.as_ref(), 1, 64);
        assert_ne!(a, b);
    }
}
