//! The 16 GPU-compute benchmarks of Table II, as synthetic trace
//! generators that preserve each benchmark's *address structure* (which
//! index bits vary within a TB, across concurrent TBs, and across
//! kernels) while scaling footprints to simulator-friendly sizes.
//!
//! The first ten exhibit address-bit entropy valleys (Figure 5, top); the
//! last six concentrate their entropy in the lower-order bits and serve
//! as the non-valley control group (Figure 20).

pub mod bfs;
pub mod dwt2d;
pub mod fwt;
pub mod gs;
pub mod hs;
pub mod lm;
pub mod lps;
pub mod lu;
pub mod mt;
pub mod mum;
pub mod nn;
pub mod nw;
pub mod sc;
pub mod sp;
pub mod spmv;
pub mod srad2;

use crate::gen::Scale;
use crate::workload::Workload;

/// Identifies one of the paper's 16 benchmarks (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(
    missing_docs,
    reason = "the variants are the benchmark names themselves"
)]
pub enum Benchmark {
    Mt,
    Lu,
    Gs,
    Nw,
    Lps,
    Sc,
    Srad2,
    Dwt2d,
    Hs,
    Sp,
    Fwt,
    Nn,
    Spmv,
    Lm,
    Mum,
    Bfs,
}

impl Benchmark {
    /// All 16 benchmarks in Table II order.
    pub const ALL: [Benchmark; 16] = [
        Benchmark::Mt,
        Benchmark::Lu,
        Benchmark::Gs,
        Benchmark::Nw,
        Benchmark::Lps,
        Benchmark::Sc,
        Benchmark::Srad2,
        Benchmark::Dwt2d,
        Benchmark::Hs,
        Benchmark::Sp,
        Benchmark::Fwt,
        Benchmark::Nn,
        Benchmark::Spmv,
        Benchmark::Lm,
        Benchmark::Mum,
        Benchmark::Bfs,
    ];

    /// The ten entropy-valley benchmarks (Figures 12–17).
    pub const VALLEY: [Benchmark; 10] = [
        Benchmark::Mt,
        Benchmark::Lu,
        Benchmark::Gs,
        Benchmark::Nw,
        Benchmark::Lps,
        Benchmark::Sc,
        Benchmark::Srad2,
        Benchmark::Dwt2d,
        Benchmark::Hs,
        Benchmark::Sp,
    ];

    /// The six non-valley benchmarks (Figure 20).
    pub const NON_VALLEY: [Benchmark; 6] = [
        Benchmark::Fwt,
        Benchmark::Nn,
        Benchmark::Spmv,
        Benchmark::Lm,
        Benchmark::Mum,
        Benchmark::Bfs,
    ];

    /// The abbreviation used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Mt => "MT",
            Benchmark::Lu => "LU",
            Benchmark::Gs => "GS",
            Benchmark::Nw => "NW",
            Benchmark::Lps => "LPS",
            Benchmark::Sc => "SC",
            Benchmark::Srad2 => "SRAD2",
            Benchmark::Dwt2d => "DWT2D",
            Benchmark::Hs => "HS",
            Benchmark::Sp => "SP",
            Benchmark::Fwt => "FWT",
            Benchmark::Nn => "NN",
            Benchmark::Spmv => "SPMV",
            Benchmark::Lm => "LM",
            Benchmark::Mum => "MUM",
            Benchmark::Bfs => "BFS",
        }
    }

    /// Parses a benchmark [`label`](Benchmark::label) (case-insensitive).
    /// The labels are stable identifiers: the sweep harness keys its
    /// content-addressed result store on them.
    pub fn parse(s: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(s))
    }

    /// Whether the paper classifies this benchmark as having an entropy
    /// valley (top group of Table II / Figure 5).
    pub fn has_valley(self) -> bool {
        Benchmark::VALLEY.contains(&self)
    }

    /// Builds the benchmark's synthetic workload at the given scale.
    pub fn workload(self, scale: Scale) -> Workload {
        match self {
            Benchmark::Mt => mt::workload(scale),
            Benchmark::Lu => lu::workload(scale),
            Benchmark::Gs => gs::workload(scale),
            Benchmark::Nw => nw::workload(scale),
            Benchmark::Lps => lps::workload(scale),
            Benchmark::Sc => sc::workload(scale),
            Benchmark::Srad2 => srad2::workload(scale),
            Benchmark::Dwt2d => dwt2d::workload(scale),
            Benchmark::Hs => hs::workload(scale),
            Benchmark::Sp => sp::workload(scale),
            Benchmark::Fwt => fwt::workload(scale),
            Benchmark::Nn => nn::workload(scale),
            Benchmark::Spmv => spmv::workload(scale),
            Benchmark::Lm => lm::workload(scale),
            Benchmark::Mum => mum::workload(scale),
            Benchmark::Bfs => bfs::workload(scale),
        }
    }
}

valley_sim::name_coded!(Benchmark, label, Benchmark::parse);

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_sim::{Instruction, WorkloadSource};

    #[test]
    fn groups_partition_all() {
        let mut combined: Vec<Benchmark> = Benchmark::VALLEY
            .iter()
            .chain(Benchmark::NON_VALLEY.iter())
            .copied()
            .collect();
        combined.sort();
        let mut all = Benchmark::ALL.to_vec();
        all.sort();
        assert_eq!(combined, all);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Benchmark::ALL.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 16);
    }

    #[test]
    fn labels_parse_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.label()), Some(b));
            assert_eq!(Benchmark::parse(&b.label().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::parse("NOPE"), None);
    }

    /// Every benchmark builds at test scale, has kernels, and every
    /// address of its first TB fits the 30-bit physical address space.
    #[test]
    fn all_benchmarks_build_and_stay_in_address_space() {
        for b in Benchmark::ALL {
            let w = b.workload(Scale::Test);
            assert_eq!(w.name(), b.label());
            assert!(w.num_kernels() > 0, "{b} has no kernels");
            let k = w.kernel(0);
            assert!(k.num_thread_blocks() > 0, "{b} kernel 0 has no TBs");
            for warp in 0..k.warps_per_block() {
                let mut p = k.warp_program(0, warp);
                let mut insts = 0;
                while let Some(i) = p.next_instruction() {
                    insts += 1;
                    if let Instruction::Load(a) | Instruction::Store(a) = i {
                        for addr in a.iter() {
                            assert!(
                                addr < (1 << 30),
                                "{b}: address {addr:#x} outside 1 GB space"
                            );
                        }
                    }
                }
                assert!(insts > 0, "{b}: empty warp program");
            }
        }
    }

    /// Trace determinism across walks (required by the dual consumers).
    #[test]
    fn traces_are_deterministic() {
        for b in Benchmark::ALL {
            let w = b.workload(Scale::Test);
            let k1 = w.kernel(0);
            let k2 = w.kernel(0);
            let a1 = valley_sim::tb_request_addresses(k1.as_ref(), 0, 64);
            let a2 = valley_sim::tb_request_addresses(k2.as_ref(), 0, 64);
            assert_eq!(a1, a2, "{b}: non-deterministic trace");
            assert!(!a1.is_empty(), "{b}: TB 0 issues no requests");
        }
    }
}
