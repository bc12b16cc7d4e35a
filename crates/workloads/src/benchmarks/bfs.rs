//! BFS — Breadth-First Search (Rodinia).
//!
//! Level-synchronous traversal: one kernel per frontier level, with the
//! frontier growing then shrinking (a triangle over 24 levels). Node
//! metadata streams sequentially; edge targets gather randomly across an
//! 8 MiB adjacency footprint, so entropy fills the low and middle bits —
//! no valley (Figure 20). Table II: 24 kernels, MPKI 18.14.

use crate::gen::{compute, load_contig, load_gather, region, warp_rng, Scale, F32, WARP};
use crate::workload::{KernelSpec, Workload};
use rand::RngExt;
use std::sync::Arc;
use valley_sim::Instruction;

/// Adjacency-list footprint in bytes.
const EDGE_BYTES: u64 = 8 * 1024 * 1024;

/// Frontier size (in TBs) at each level: grow, plateau, shrink.
fn frontier_tbs(level: usize, peak: u64) -> u64 {
    let l = level as i64;
    let ramp = (l + 1).min(24 - l).max(1) as u64;
    (1 << ramp.min(6)).min(peak)
}

/// Builds the BFS workload: one kernel per traversal level.
pub fn workload(scale: Scale) -> Workload {
    let levels = scale.pick(4, 24);
    let peak = scale.pick(4, 32u64);
    let nodes = region(0);
    let edges = region(1);
    let dist = region(2);

    let kernels = (0..levels)
        .map(|level| {
            let tbs = frontier_tbs(level, peak);
            let gen = Arc::new(move |tb: u64, warp: usize| -> Vec<Instruction> {
                let mut rng = warp_rng(0xbf5 + level as u64, tb, warp);
                let frontier_node = (level as u64 * 4096 + tb * 8 + warp as u64) * 128;
                let mut insts = vec![
                    load_contig(nodes + frontier_node % (4 * 1024 * 1024), F32),
                    compute(2),
                ];
                // Visit this node's edges: irregular neighbor gather.
                let lanes: Vec<u64> = (0..WARP)
                    .map(|_| edges + rng.random_range(0..EDGE_BYTES / 64) * 64)
                    .collect();
                insts.push(load_gather(lanes));
                insts.push(compute(3));
                // Update distances of half the discovered neighbors.
                let updates: Vec<u64> = (0..WARP / 2)
                    .map(|_| dist + rng.random_range(0..4 * 1024 * 1024 / 64) * 64)
                    .collect();
                insts.push(Instruction::Store(valley_sim::LaneAddrs::explicit(updates)));
                insts
            });
            KernelSpec::new(format!("bfs_level{level}"), tbs, 8, gen)
        })
        .collect();
    Workload::new("BFS", kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::WorkloadSource;

    #[test]
    fn twenty_four_levels() {
        assert_eq!(workload(Scale::Ref).num_kernels(), 24);
    }

    #[test]
    fn frontier_grows_then_shrinks() {
        let early = frontier_tbs(0, 32);
        let mid = frontier_tbs(12, 32);
        let late = frontier_tbs(23, 32);
        assert!(early < mid);
        assert!(late < mid);
    }

    #[test]
    fn edge_gathers_span_footprint() {
        let w = workload(Scale::Ref);
        let k = w.kernel(12);
        let addrs = valley_sim::tb_request_addresses(k.as_ref(), 0, 64);
        let edge_addrs: Vec<u64> = addrs
            .iter()
            .copied()
            .filter(|&a| (region(1)..region(2)).contains(&a))
            .collect();
        assert!(!edge_addrs.is_empty());
        let spread = edge_addrs.iter().max().unwrap() - edge_addrs.iter().min().unwrap();
        assert!(spread > EDGE_BYTES / 8);
    }

    #[test]
    fn stores_are_scattered() {
        let w = workload(Scale::Ref);
        let k = w.kernel(12);
        let mut p = k.warp_program(0, 0);
        let mut scattered = false;
        while let Some(i) = p.next_instruction() {
            if let Instruction::Store(a) = i {
                if a.len() == WARP / 2 {
                    scattered = true;
                }
            }
        }
        assert!(scattered);
    }
}
