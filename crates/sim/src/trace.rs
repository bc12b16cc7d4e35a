//! The workload interface: how benchmarks describe their threads' work.
//!
//! A workload is a sequence of kernels; a kernel is a grid of thread
//! blocks (TBs); each TB contributes `warps_per_block` warps; each warp is
//! an in-order stream of [`Instruction`]s handed out by a [`WarpProgram`].
//! `valley-workloads` implements these traits for the paper's 16
//! benchmarks and builds a warp's whole stream when its TB is assigned;
//! the stream stays small because a memory instruction's lanes are a
//! closed form ([`LaneAddrs::Affine`]), with an address vector only for
//! gathers. The simulator and the entropy analyzer both consume them.

/// One warp-level instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instruction {
    /// A compute instruction chain: the warp cannot issue its next
    /// instruction for `cycles` core cycles (models dependent ALU work;
    /// other warps hide the latency).
    Compute {
        /// Stall cycles before the warp's next instruction.
        cycles: u32,
    },
    /// A warp-wide load: one address per active lane. The warp blocks
    /// until every coalesced transaction returns.
    Load(LaneAddrs),
    /// A warp-wide store: one address per active lane. Stores are
    /// fire-and-forget (write-through), so the warp continues immediately,
    /// but the transactions still consume L1/NoC/DRAM bandwidth.
    Store(LaneAddrs),
}

/// The per-lane byte addresses of one memory instruction (up to the warp
/// size; inactive lanes are simply absent).
///
/// Equality is structural: an `Affine` and an `Explicit` value naming the
/// same lanes compare unequal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaneAddrs {
    /// Lane `l` touches `base + l * step`, for `l` in `0..lanes` — every
    /// contiguous and strided access.
    Affine {
        /// Address of lane 0.
        base: u64,
        /// Bytes between consecutive lanes (0 is a broadcast).
        step: u64,
        /// Number of active lanes.
        lanes: usize,
    },
    /// One address per lane, for gathers.
    Explicit(Vec<u64>),
}

impl LaneAddrs {
    /// A fully-coalesced access: `lanes` consecutive `elem_bytes` elements
    /// starting at `base` (the common `a[tid]` pattern).
    pub fn contiguous(base: u64, lanes: usize, elem_bytes: u64) -> Self {
        LaneAddrs::Affine {
            base,
            step: elem_bytes,
            lanes,
        }
    }

    /// A strided access: lane `l` touches `base + l * stride_bytes`
    /// (column-major array walks, the paper's problem pattern).
    pub fn strided(base: u64, lanes: usize, stride_bytes: u64) -> Self {
        LaneAddrs::Affine {
            base,
            step: stride_bytes,
            lanes,
        }
    }

    /// A gather: lane `l` touches `addrs[l]`.
    pub fn explicit(addrs: Vec<u64>) -> Self {
        LaneAddrs::Explicit(addrs)
    }

    /// Number of active lanes.
    pub fn len(&self) -> usize {
        match self {
            LaneAddrs::Affine { lanes, .. } => *lanes,
            LaneAddrs::Explicit(addrs) => addrs.len(),
        }
    }

    /// Whether no lanes are active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The address of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.len()`.
    pub fn lane(&self, l: usize) -> u64 {
        match self {
            LaneAddrs::Affine { base, step, lanes } => {
                assert!(l < *lanes, "lane {l} of a {lanes}-lane access");
                base + l as u64 * step
            }
            LaneAddrs::Explicit(addrs) => addrs[l],
        }
    }

    /// The lanes' addresses in lane order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|l| self.lane(l))
    }
}

/// An in-order instruction stream for one warp, pulled one instruction
/// per issue.
pub trait WarpProgram {
    /// Produces the warp's next instruction, or `None` when the warp has
    /// retired.
    fn next_instruction(&mut self) -> Option<Instruction>;
}

/// A kernel launch: a grid of TBs with identical per-warp structure.
pub trait KernelSource {
    /// Kernel name (for reports).
    fn name(&self) -> String;

    /// Number of thread blocks in the grid.
    fn num_thread_blocks(&self) -> u64;

    /// Warps per thread block (TB size / 32).
    fn warps_per_block(&self) -> usize;

    /// Creates the instruction stream of warp `warp` of TB `tb`.
    ///
    /// Implementations must be deterministic: calling twice with the same
    /// coordinates yields identical streams (the entropy analyzer and the
    /// simulator both walk the trace).
    fn warp_program(&self, tb: u64, warp: usize) -> Box<dyn WarpProgram>;
}

/// A complete workload: an ordered list of kernel launches.
pub trait WorkloadSource {
    /// Benchmark name (e.g. "MT").
    fn name(&self) -> String;

    /// Number of kernel launches.
    fn num_kernels(&self) -> usize;

    /// Creates kernel `index` (0-based launch order).
    fn kernel(&self, index: usize) -> Box<dyn KernelSource>;
}

/// Convenience: iterate a kernel's per-TB *coalesced* request addresses,
/// applying `line_bytes` coalescing exactly like the simulator's LSU.
/// This is what the window-based entropy metric consumes (it analyzes the
/// memory requests that reach the memory system, i.e. post-coalescing).
pub fn tb_request_addresses(kernel: &dyn KernelSource, tb: u64, line_bytes: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut lines = Vec::new();
    for w in 0..kernel.warps_per_block() {
        let mut prog = kernel.warp_program(tb, w);
        while let Some(inst) = prog.next_instruction() {
            if let Instruction::Load(a) | Instruction::Store(a) = inst {
                crate::coalesce::coalesce_into(&a, line_bytes, &mut lines);
                out.extend_from_slice(&lines);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_lane_addrs() {
        let a = LaneAddrs::contiguous(0x100, 4, 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), [0x100, 0x104, 0x108, 0x10c]);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn strided_lane_addrs() {
        let a = LaneAddrs::strided(0, 3, 0x1000);
        assert_eq!(a.iter().collect::<Vec<_>>(), [0, 0x1000, 0x2000]);
        assert!(LaneAddrs::strided(0, 0, 0x1000).is_empty());
    }

    #[test]
    fn explicit_lane_addrs() {
        let a = LaneAddrs::explicit(vec![0x300, 0x100]);
        assert_eq!(a.iter().collect::<Vec<_>>(), [0x300, 0x100]);
        assert_eq!(a.len(), 2);
    }

    struct OneLoad(bool);
    impl WarpProgram for OneLoad {
        fn next_instruction(&mut self) -> Option<Instruction> {
            if self.0 {
                self.0 = false;
                Some(Instruction::Load(LaneAddrs::contiguous(0, 32, 4)))
            } else {
                None
            }
        }
    }
    struct OneKernel;
    impl KernelSource for OneKernel {
        fn name(&self) -> String {
            "k".into()
        }
        fn num_thread_blocks(&self) -> u64 {
            2
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn warp_program(&self, _tb: u64, _warp: usize) -> Box<dyn WarpProgram> {
            Box::new(OneLoad(true))
        }
    }

    #[test]
    fn tb_addresses_are_coalesced() {
        // 32 lanes x 4 B = 128 B = exactly one transaction.
        let addrs = tb_request_addresses(&OneKernel, 0, 128);
        assert_eq!(addrs, vec![0]);
    }
}
