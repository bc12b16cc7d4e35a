//! # valley
//!
//! Facade crate for the Valley reproduction of *"Get Out of the Valley:
//! Power-Efficient Address Mapping for GPUs"* (Liu et al., ISCA 2018).
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`core`] — BIM-based address mapping schemes and window-based entropy;
//! * [`dram`] — GDDR5 / 3D-stacked DRAM with FR-FCFS;
//! * [`cache`] — set-associative caches and MSHRs;
//! * [`noc`] — the SM↔LLC crossbar;
//! * [`sim`] — the full GPU memory-system simulator;
//! * [`workloads`] — the 16 synthetic GPU-compute benchmarks;
//! * [`power`] — DRAM and GPU power models;
//! * [`harness`] — the resumable sweep engine and its
//!   content-addressed result store (see `docs/harness.md`);
//! * [`fabric`] — the distributed sweep fabric: `valley serve` /
//!   `valley work` coordinator/worker protocol with crash-tolerant job
//!   leases and a read-side query endpoint.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![warn(missing_docs)]

pub use valley_cache as cache;
pub use valley_core as core;
pub use valley_dram as dram;
pub use valley_fabric as fabric;
pub use valley_harness as harness;
pub use valley_noc as noc;
pub use valley_power as power;
pub use valley_sim as sim;
pub use valley_workloads as workloads;
