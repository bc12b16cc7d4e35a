//! # valley-cache
//!
//! Set-associative caches with true-LRU replacement and an MSHR file with
//! request merging — the building blocks for the Valley GPU simulator's
//! per-SM L1 data caches (16 KB, 4-way, 128 B lines, 32 MSHRs) and the
//! eight LLC slices (64 KB, 8-way) of Table I.
//!
//! The crate is deliberately policy-free: it models *presence* and
//! *replacement* only. Latency, the write policy and the memory-hierarchy
//! wiring live in `valley-sim`, which composes these parts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod mshr;
mod setassoc;

pub use mshr::{MshrAllocation, MshrFile};
pub use setassoc::{CacheConfig, CacheStats, SetAssocCache};
