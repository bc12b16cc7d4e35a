//! Shared helpers for the benchmark generators: deterministic RNG,
//! instruction-stream building blocks and memory-region allocation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use valley_sim::{GpuConfig, Instruction, LaneAddrs};

/// Threads per warp: the simulated GPU's.
pub const WARP: usize = GpuConfig::WARP_SIZE;
/// Bytes in a `float`.
pub const F32: u64 = 4;
/// Bytes in a `double`.
pub const F64: u64 = 8;
/// One mebibyte.
pub const MB: u64 = 1 << 20;

/// The 30-bit physical address space is carved into 64 MiB regions; each
/// benchmark array lives in its own region so arrays never alias.
pub fn region(i: u64) -> u64 {
    assert!(i < 16, "only 16 regions fit in the 1 GB address space");
    i * (64 * MB)
}

/// An explicit base address at `mb` MiB, for benchmarks whose padded
/// arrays exceed one 64 MiB region (large-pitch layouts place TB spread
/// in the high row bits, per Figure 5's high-bit entropy).
pub fn base_mb(mb: u64) -> u64 {
    assert!(mb < 1024, "base must lie inside the 1 GB address space");
    mb * MB
}

/// A deterministic RNG for `(benchmark seed, tb, warp)` — warp programs
/// must be reproducible across the entropy and timing walks.
pub fn warp_rng(seed: u64, tb: u64, warp: usize) -> StdRng {
    // SplitMix64-style mixing so nearby coordinates decorrelate.
    let mut z = seed
        .wrapping_add(tb.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((warp as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A compute chain of `cycles` cycles.
pub fn compute(cycles: u32) -> Instruction {
    Instruction::Compute { cycles }
}

/// A fully-coalesced warp load of 32 consecutive `elem`-byte values.
pub fn load_contig(base: u64, elem: u64) -> Instruction {
    Instruction::Load(LaneAddrs::contiguous(base, WARP, elem))
}

/// A warp load where lane `l` reads `base + l * stride` (column walks).
pub fn load_strided(base: u64, stride: u64) -> Instruction {
    Instruction::Load(LaneAddrs::strided(base, WARP, stride))
}

/// A fully-coalesced warp store.
pub fn store_contig(base: u64, elem: u64) -> Instruction {
    Instruction::Store(LaneAddrs::contiguous(base, WARP, elem))
}

/// A strided warp store.
pub fn store_strided(base: u64, stride: u64) -> Instruction {
    Instruction::Store(LaneAddrs::strided(base, WARP, stride))
}

/// A gather load from explicit per-lane addresses.
pub fn load_gather(addrs: Vec<u64>) -> Instruction {
    Instruction::Load(LaneAddrs::explicit(addrs))
}

/// Workload sizing: `Test` keeps traces tiny for unit/integration tests;
/// `Ref` is the scaled-down-but-representative configuration used by the
/// experiment harness (the paper's billion-instruction runs are scaled to
/// simulator-friendly footprints; the address *structure* — which bits
/// vary within a thread block, across the TB window and across kernels —
/// is preserved). `Small` uses the test-sized footprints but lives in
/// its own sweep namespace: CI and smoke sweeps run the *complete*
/// benchmark × scheme grid at `Small` without touching (or being
/// shadowed by) `Ref` results in the content-addressed store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Minimal configuration for fast tests.
    Test,
    /// Test-sized footprints under a separate sweep namespace (full-grid
    /// smoke sweeps, CI resume checks).
    Small,
    /// Reference configuration for the experiment harness.
    Ref,
}

impl Scale {
    /// All scales, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Test, Scale::Small, Scale::Ref];

    /// Picks `t` under `Test`/`Small` and `r` under `Ref`.
    pub fn pick<T>(self, t: T, r: T) -> T {
        match self {
            Scale::Test | Scale::Small => t,
            Scale::Ref => r,
        }
    }

    /// Stable lower-case identifier, used in job keys and CLI flags.
    /// Renaming a variant here silently orphans stored sweep results, so
    /// these strings are part of the result-store schema.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Ref => "ref",
        }
    }

    /// Parses a [`Scale::name`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(s))
    }
}

valley_sim::name_coded!(Scale, name, Scale::parse);

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn regions_fit_address_space() {
        for i in 0..16 {
            assert!(region(i) + 64 * MB <= 1 << 30);
        }
    }

    #[test]
    #[should_panic(expected = "16 regions")]
    fn region_overflow_panics() {
        let _ = region(16);
    }

    #[test]
    fn warp_rng_is_deterministic_and_decorrelated() {
        let a: u64 = warp_rng(1, 2, 3).random();
        let b: u64 = warp_rng(1, 2, 3).random();
        assert_eq!(a, b);
        let c: u64 = warp_rng(1, 2, 4).random();
        assert_ne!(a, c);
        let d: u64 = warp_rng(1, 3, 3).random();
        assert_ne!(a, d);
    }

    #[test]
    fn builders_shape() {
        match load_contig(0x100, F32) {
            Instruction::Load(a) => {
                assert_eq!(a.len(), 32);
                assert_eq!(a.lane(1) - a.lane(0), 4);
            }
            _ => panic!("expected load"),
        }
        match store_strided(0, 4096) {
            Instruction::Store(a) => assert_eq!(a.lane(31), 31 * 4096),
            _ => panic!("expected store"),
        }
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Test.pick(1, 2), 1);
        assert_eq!(Scale::Small.pick(1, 2), 1);
        assert_eq!(Scale::Ref.pick(1, 2), 2);
    }

    #[test]
    fn scale_names_round_trip() {
        for s in Scale::ALL {
            assert_eq!(Scale::parse(s.name()), Some(s));
            assert_eq!(Scale::parse(&s.name().to_uppercase()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Scale::parse("medium"), None);
    }
}
