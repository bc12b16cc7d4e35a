//! Bridges workload traces to the window-based entropy metric: walks
//! every kernel's TBs, coalesces their requests like the hardware would,
//! optionally applies an address-mapping scheme, and produces the
//! per-bit entropy profiles of Figures 5 and 10.

use valley_core::entropy::{application_entropy, kernel_entropy, TbBitStats};
use valley_core::{AddressMapper, EntropyProfile, PhysAddr};
use valley_sim::{tb_request_addresses, WorkloadSource};

/// Address bits analyzed (the 30-bit physical address space).
pub const ADDR_BITS: u8 = 30;

/// The paper's coalescing granularity for entropy analysis: requests are
/// considered at the 64 B DRAM-block granularity, so bits 6+ stay
/// meaningful (Figure 5 shows non-zero entropy at bit 6).
pub const ENTROPY_GRANULARITY: u64 = 64;

/// Computes the window-based entropy profile of one kernel of `workload`.
///
/// `window` is the concurrency window `w` (the paper uses the SM count,
/// 12). If `mapper` is given, every request address is transformed first
/// — this produces the per-scheme profiles of Figure 10.
pub fn kernel_profile(
    workload: &dyn WorkloadSource,
    kernel_index: usize,
    window: usize,
    mapper: Option<&AddressMapper>,
) -> EntropyProfile {
    let kernel = workload.kernel(kernel_index);
    let tbs: Vec<TbBitStats> = (0..kernel.num_thread_blocks())
        .map(|tb| {
            let addrs = tb_request_addresses(kernel.as_ref(), tb, ENTROPY_GRANULARITY);
            let mapped = addrs
                .into_iter()
                .map(|a| mapper.map_or(a, |m| m.map(PhysAddr::new(a)).raw()));
            TbBitStats::from_addrs(tb, ADDR_BITS, mapped)
        })
        .collect();
    kernel_entropy(&tbs, window)
}

/// Computes the application-level entropy profile of `workload`:
/// per-kernel window-based entropy, combined with request-count weights
/// (Section III-A). This regenerates one panel of Figure 5 (or, with a
/// `mapper`, of Figure 10).
pub fn application_profile(
    workload: &dyn WorkloadSource,
    window: usize,
    mapper: Option<&AddressMapper>,
) -> EntropyProfile {
    let kernels: Vec<EntropyProfile> = (0..workload.num_kernels())
        .map(|k| kernel_profile(workload, k, window, mapper))
        .collect();
    application_entropy(&kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::gen::Scale;
    use valley_core::{DramAddressMap, DramMap, SchemeKind};

    /// Figures 5 and 10 as an assertion: the channel/bank bits of the
    /// valley benchmarks are starved under BASE and filled by PAE and FAE,
    /// and a non-valley benchmark has no valley for any scheme to fill.
    #[test]
    fn entropy_valley_is_present_under_base_and_filled_by_pae_and_fae() {
        let map = DramMap::baseline();
        let targets = map.target_field_bits();
        let target_mean = |bench: Benchmark, kind: SchemeKind| {
            let mapper = AddressMapper::build(kind, &map, 1);
            application_profile(&bench.workload(Scale::Test), 12, Some(&mapper)).mean_over(&targets)
        };
        for bench in [Benchmark::Mt, Benchmark::Lu, Benchmark::Sp] {
            let base = target_mean(bench, SchemeKind::Base);
            assert!(base < 0.5, "{bench:?}/BASE: mean H* {base:.2}, no valley");
            for kind in [SchemeKind::Pae, SchemeKind::Fae] {
                let h = target_mean(bench, kind);
                assert!(h >= 0.85, "{bench:?}/{kind:?}: mean H* {h:.2}, valley left");
            }
        }
        for kind in SchemeKind::ALL_SCHEMES {
            let h = target_mean(Benchmark::Fwt, kind);
            assert!(h >= 0.95, "FWT/{kind:?}: mean H* {h:.2}");
        }
    }

    /// Figure 5's classification is the paper's: at Ref scale, with the
    /// SM-count window and the BASE map, the valley detector finds a
    /// valley in exactly Table II's top group, and in the SRAD2K1 and
    /// DWT2DK1 kernels the paper shows beside it.
    #[test]
    fn the_valley_detector_splits_the_benchmarks_like_the_paper() {
        let map = DramMap::baseline();
        let (targets, candidates) = (map.target_field_bits(), map.non_block_bits());
        let has_valley = |w: &dyn WorkloadSource| {
            application_profile(w, 12, None).has_valley(&targets, &candidates, 0.25)
        };
        for bench in Benchmark::ALL {
            let w = bench.workload(Scale::Ref);
            assert_eq!(has_valley(&w), bench.has_valley(), "{bench:?}");
        }
        for bench in [Benchmark::Srad2, Benchmark::Dwt2d] {
            let k1 = bench.workload(Scale::Ref).single_kernel(0);
            assert!(has_valley(&k1), "{}", k1.name());
        }
    }

    #[test]
    fn profiles_are_normalized() {
        let w = Benchmark::Mt.workload(Scale::Test);
        let p = application_profile(&w, 12, None);
        assert_eq!(p.per_bit().len(), ADDR_BITS as usize);
        for &h in p.per_bit() {
            assert!((0.0..=1.0 + 1e-9).contains(&h));
        }
        assert!(p.requests() > 0);
    }

    #[test]
    fn mapping_changes_the_profile() {
        let w = Benchmark::Mt.workload(Scale::Test);
        let base = application_profile(&w, 12, None);
        let map = DramMap::baseline();
        let pae = AddressMapper::build(SchemeKind::Pae, &map, 1);
        let mapped = application_profile(&w, 12, Some(&pae));
        assert_ne!(base.per_bit(), mapped.per_bit());
    }

    #[test]
    fn block_bits_have_zero_entropy() {
        // 64 B coalescing zeroes bits 0..6.
        let w = Benchmark::Sp.workload(Scale::Test);
        let p = application_profile(&w, 12, None);
        for b in 0..6 {
            assert_eq!(p.bit(b), 0.0, "block bit {b} must be constant");
        }
    }
}
