//! # valley-workloads
//!
//! The 16 GPU-compute benchmarks of the paper's Table II, recreated as
//! deterministic synthetic trace generators (the paper's CUDA binaries and
//! GPGPU-sim traces are not available, so each generator reproduces its
//! benchmark's access pattern instead).
//! Each benchmark preserves the *address structure* that drives the
//! paper's results — which bits vary inside a thread block, across the
//! concurrently-scheduled TB window, and across kernels — while scaling
//! footprints and instruction counts to simulator-friendly sizes.
//!
//! ## Quick start
//!
//! ```
//! use valley_workloads::{analysis, Benchmark, Scale};
//!
//! // Regenerate MT's Figure 5 entropy panel (window = 12 SMs).
//! let mt = Benchmark::Mt.workload(Scale::Test);
//! let profile = analysis::application_profile(&mt, 12, None);
//! assert!(profile.per_bit().len() == 30);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
mod benchmarks;
mod gen;
mod workload;

pub use benchmarks::Benchmark;
pub use gen::Scale;
pub use workload::{KernelSpec, WarpGen, Workload};
