//! # valley-dram
//!
//! A cycle-level DRAM model for the Valley GPU simulator: GDDR5 channels
//! with FR-FCFS scheduling, open-page row-buffer policy and a detailed
//! command-timing state machine (Table I: Hynix GDDR5, 924 MHz, 4
//! channels, 16 banks/channel, 12-12-12 CL-tRCD-tRP), plus the 3D-stacked
//! (stack/vault) configuration of Section VI-D.
//!
//! The model's command counters (activates, reads, writes) feed the
//! Micron-style power model in `valley-power`, and its row-buffer and
//! bank-occupancy statistics reproduce Figures 14c and 15.
//!
//! Every channel has one per-cycle [`DramChannel::tick`], which
//! republishes [`DramChannel::cached_next_event`]: the *exact* cycle of
//! its next state change — the earlier of its next retirement and its
//! next **dequeue** (the first tick whose arbitration takes a request out
//! of the queue). A tick below it changes nothing, so
//! [`DramSystem::tick`] takes the caller's gate: under
//! `|now, next| now >= next` it ticks a channel only from that cycle
//! on, under `|_, _| true` every cycle, with the same results. A caller
//! refused by a full queue ([`DramChannel::try_enqueue`] returns `false`
//! and changes nothing) waits until [`DramChannel::queue_len`] drops
//! below the configured `queue_capacity`, which only a tick does.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod channel;
mod config;
mod stats;
mod system;

pub use channel::{DramChannel, DramCompletion, DramRequest};
pub use config::{DramConfig, DramTiming};
pub use stats::DramStats;
pub use system::DramSystem;
