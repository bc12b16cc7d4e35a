//! # valley-core
//!
//! The primary contribution of *"Get Out of the Valley: Power-Efficient
//! Address Mapping for GPUs"* (Liu et al., ISCA 2018), implemented as a
//! standalone library:
//!
//! * [`PhysAddr`] / [`BitField`] — physical addresses and bit-field
//!   manipulation over the 30-bit GDDR5 address space;
//! * [`DramMap`] — the DRAM address map, a plain value built as the
//!   baseline Hynix GDDR5 layout (Figure 4) or the 3D-stacked variant of
//!   Section VI-D;
//! * [`Bim`] — Binary Invertible Matrices over GF(2), the unified
//!   representation of all AND/XOR address mappings (Section IV-A);
//! * [`AddressMapper`] / [`SchemeKind`] — the six mapping schemes evaluated
//!   in the paper: BASE, PM, RMP, and the Broad-strategy schemes PAE, FAE
//!   and ALL (Section IV-B);
//! * [`entropy`] — the window-based entropy metric `H*` (Section III),
//!   with BVR computation, per-kernel profiles and application-level
//!   weighting.
//!
//! ## Quick start
//!
//! ```
//! use valley_core::{AddressMapper, DramMap, PhysAddr, SchemeKind};
//!
//! let dram = DramMap::baseline();
//! let pae = AddressMapper::build(SchemeKind::Pae, &dram, 1);
//!
//! // A column-major access stream that the BASE map would pin to channel 0:
//! let stride = 1u64 << 12; // strides only touch bank/column-high bits
//! let chan_of = |mapper: &AddressMapper, i: u64| {
//!     dram.controller_of(mapper.map(PhysAddr::new(i * stride)))
//! };
//! let base = AddressMapper::build(SchemeKind::Base, &dram, 0);
//! let base_chans: Vec<usize> = (0..8).map(|i| chan_of(&base, i)).collect();
//! assert!(base_chans.iter().all(|&c| c == base_chans[0]));
//!
//! // PAE spreads the same stream across channels.
//! let pae_chans: std::collections::HashSet<usize> =
//!     (0..8).map(|i| chan_of(&pae, i)).collect();
//! assert!(pae_chans.len() > 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod addr;
mod addrmap;
pub mod alloc_audit;
mod bim;
pub mod entropy;
pub mod hash;
mod schemes;

pub use addr::{BitField, PhysAddr};
pub use addrmap::{DramAddressMap, DramMap, GddrMap};
pub use bim::{Bim, BimError};
pub use entropy::EntropyProfile;
pub use schemes::{AddressMapper, SchemeKind};
