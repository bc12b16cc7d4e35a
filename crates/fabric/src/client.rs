//! Read-side clients: fetch stored results, read fabric telemetry, and
//! request an admin shutdown — all answered by the coordinator purely
//! from its store and lease table (the read side never simulates).

use crate::proto::{Msg, QueryFilters, Role, Telemetry};
use crate::wire::WireError;
use crate::FabricError;
use valley_harness::StoredResult;

/// How a client reaches the coordinator.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Client name, for the coordinator's logs.
    pub name: String,
    /// Connection attempts before giving up.
    pub connect_attempts: u32,
    /// Base reconnect backoff in milliseconds.
    pub backoff_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            name: format!("client-{}", std::process::id()),
            connect_attempts: 10,
            backoff_ms: 200,
        }
    }
}

fn roundtrip(addr: &str, opts: &ClientOptions, msg: &Msg) -> Result<Msg, FabricError> {
    let mut conn = crate::worker::connect_with_backoff(
        addr,
        &opts.name,
        Role::Client,
        opts.connect_attempts,
        opts.backoff_ms,
    )?;
    Ok(conn.roundtrip(msg)?)
}

/// Fetches every stored result matching `filters` from the coordinator
/// at `addr`, in the store's canonical order.
pub fn fetch(
    addr: &str,
    filters: &QueryFilters,
    opts: &ClientOptions,
) -> Result<Vec<StoredResult>, FabricError> {
    match roundtrip(
        addr,
        opts,
        &Msg::Query {
            filters: filters.clone(),
        },
    )? {
        Msg::Results { records } => Ok(records),
        other => Err(WireError::Protocol(format!("query answered with {other:?}")).into()),
    }
}

/// Reads the coordinator's live telemetry.
pub fn fabric_status(addr: &str, opts: &ClientOptions) -> Result<Telemetry, FabricError> {
    match roundtrip(addr, opts, &Msg::Status)? {
        Msg::Telemetry { telemetry } => Ok(telemetry),
        other => Err(WireError::Protocol(format!("status answered with {other:?}")).into()),
    }
}

/// Asks a (lingering) coordinator to exit.
pub fn shutdown(addr: &str, opts: &ClientOptions) -> Result<(), FabricError> {
    match roundtrip(addr, opts, &Msg::Shutdown)? {
        Msg::Ack { .. } => Ok(()),
        other => Err(WireError::Protocol(format!("shutdown answered with {other:?}")).into()),
    }
}
