//! # valley-fabric
//!
//! The distributed sweep fabric: a coordinator/worker protocol that
//! scales the harness's sweep engine across machines, over std-only
//! TCP with length-prefixed JSON frames (the store's own hand-rolled
//! encoding — no new dependencies, no new wire vocabulary).
//!
//! * [`wire`] — framing: 4-byte big-endian length + one JSON value;
//! * [`proto`] — the typed request/reply messages ([`Msg`]), declared
//!   once as a tag → variant → fields table;
//! * [`schema`] — the drift check: every declared wire/store shape's
//!   fingerprint against the pinned `schema.manifest`;
//! * [`coord`] — the coordinator: expands a sweep, skips stored keys,
//!   leases jobs with crash-tolerant deadlines, commits results in
//!   grid expansion order, and serves the read-side `query`/`status`
//!   endpoints purely from the store;
//! * [`worker`] — the worker loop: a network shell around
//!   `execute_batch_timed`, one simulation per lease;
//! * [`client`] — read-side fetch/status/shutdown.
//!
//! The failure model in one sentence: a worker that panics, stalls
//! past its lease deadline, or disconnects mid-job loses nothing —
//! the job is re-leased (with the structured reason in telemetry when
//! the worker could still report it), and duplicate completions are
//! dropped idempotently because job identity is the content-addressed
//! [`valley_harness::JobKey`]. See `docs/harness.md` for the protocol
//! reference.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod coord;
pub mod proto;
pub mod schema;
pub mod wire;
pub mod worker;

pub use client::{fabric_status, fetch, shutdown};
pub use coord::{CoordOptions, Coordinator, ServeSummary, MAX_ATTEMPTS};
pub use proto::{FailureNote, Msg, QueryFilters, Role, Telemetry, WorkerStat, PROTOCOL_VERSION};
pub use wire::{read_frame, write_frame, WireError, MAX_FRAME_BYTES};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

use valley_harness::StoreError;

/// Errors from fabric operations.
#[derive(Debug)]
pub enum FabricError {
    /// Transport or protocol failure.
    Wire(WireError),
    /// The result store rejected a read or write.
    Store(StoreError),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Wire(e) => write!(f, "{e}"),
            FabricError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> Self {
        FabricError::Wire(e)
    }
}

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> Self {
        FabricError::Store(e)
    }
}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Wire(WireError::Io(e))
    }
}
