//! # valley-sim
//!
//! A cycle-level GPU memory-system simulator reproducing the evaluation
//! platform of *"Get Out of the Valley"* (Table I): 12 SMs at 1.4 GHz with
//! GTO warp scheduling, per-SM L1 data caches with MSHRs, a memory
//! coalescer feeding the **address mapping unit**, a 12×8 crossbar NoC at
//! 700 MHz, 8 LLC slices (512 KB total, 120-cycle latency) and 4 FR-FCFS
//! GDDR5 channels at 924 MHz (or 64 3D-stacked vaults).
//!
//! The simulator is trace-driven: workloads implement [`WorkloadSource`]
//! (see `valley-workloads`) and the SM side reduces each warp to an
//! in-order stream of compute and memory instructions — everything the
//! paper's mechanisms act on (coalescing, mapping, caching, NoC and DRAM
//! contention) is modeled in full.
//!
//! Run one configuration with [`GpuSim::run`]; the returned [`SimReport`]
//! carries every metric the paper's figures plot.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use valley_core::alloc_audit;
mod batch;
mod coalesce;
mod config;
mod gpu;
pub mod json;
mod llc;
mod metrics;
pub mod record;
mod sm;
mod trace;
mod txn;
mod wake;

pub use batch::BatchSim;
pub use coalesce::{coalesce, coalesce_into};
pub use config::GpuConfig;
pub use gpu::GpuSim;
pub use metrics::{SimReport, REPORT_SCHEMA_VERSION};
pub use trace::{
    tb_request_addresses, Instruction, KernelSource, LaneAddrs, WarpProgram, WorkloadSource,
};
#[cfg(feature = "wake-audit")]
pub use wake::audit as wake_audit;
