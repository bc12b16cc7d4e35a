//! The shell the frozen repo benchmark links: `benchmark/src/layers.rs`
//! names these six items for its `compute.*` probes. Each is a few lines
//! over `valley-core`, which holds the one implementation of the paper's
//! math. No workspace crate may depend on this one (`tests/lint_wiring.rs`);
//! the `benchmark` PR of ROADMAP item one deletes it with the probes.

use valley_core::entropy::{window_entropy, Bvr, EntropyMethod, TbBitStats};
use valley_core::Bim;

#[doc(hidden)]
pub struct CpuBackend;

#[doc(hidden)]
pub fn backend() -> &'static CpuBackend {
    &CpuBackend
}

#[doc(hidden)]
pub struct ComputeScratch;

impl ComputeScratch {
    #[doc(hidden)]
    pub fn new() -> Self {
        ComputeScratch
    }
}

/// Per address bit, the BVRs of the active TBs in identifier order —
/// `kernel_entropy`'s preamble.
#[doc(hidden)]
pub struct BvrTable(Vec<Vec<Bvr>>);

impl BvrTable {
    #[doc(hidden)]
    pub fn from_tb_stats(tbs: &[TbBitStats]) -> Self {
        let mut active: Vec<&TbBitStats> = tbs.iter().filter(|t| t.requests() > 0).collect();
        active.sort_by_key(|t| t.tb_id());
        let bits = active.first().map_or(0, |t| t.addr_bits());
        BvrTable(
            (0..bits)
                .map(|b| active.iter().filter_map(|t| t.bvr(b)).collect())
                .collect(),
        )
    }
}

impl CpuBackend {
    #[doc(hidden)]
    pub fn bim_apply_batch(
        &self,
        bim: &Bim,
        addrs: &[u64],
        out: &mut Vec<u64>,
        _scratch: &mut ComputeScratch,
    ) {
        out.clear();
        out.extend(addrs.iter().map(|&a| bim.apply(a)));
    }

    #[doc(hidden)]
    pub fn window_entropy_sweep(
        &self,
        table: &BvrTable,
        window: usize,
        _method: EntropyMethod,
        out: &mut Vec<f64>,
        _scratch: &mut ComputeScratch,
    ) {
        out.clear();
        for row in &table.0 {
            out.push(window_entropy(row, window));
        }
    }
}

#[doc(hidden)]
pub mod matgen {
    use valley_core::Bim;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Seeded random `n × n` rows of density ≈ 3/4, rerolled until full rank.
    #[doc(hidden)]
    pub fn dense_invertible(n: u8, seed: u64) -> Bim {
        assert!((1..=64).contains(&n), "matrix dimension must be 1..=64");
        let limit = u64::MAX >> (64 - u32::from(n));
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        loop {
            let rows = (0..n)
                .map(|_| (splitmix(&mut state) | splitmix(&mut state)) & limit)
                .collect();
            if let Ok(m) = Bim::checked_invertible(rows) {
                return m;
            }
        }
    }
}
