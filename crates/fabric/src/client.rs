//! Read-side clients: fetch stored results, read fabric telemetry, and
//! request an admin shutdown — all answered by the coordinator purely
//! from its store and lease table (the read side never simulates).

use crate::proto::{Msg, QueryFilters, Role, Telemetry};
use crate::wire::WireError;
use crate::FabricError;
use valley_harness::StoredResult;

/// Connection attempts before a client gives up.
const CONNECT_ATTEMPTS: u32 = 10;

fn roundtrip(addr: &str, msg: &Msg) -> Result<Msg, FabricError> {
    let name = format!("client-{}", std::process::id());
    let mut conn =
        crate::worker::connect_with_backoff(addr, &name, Role::Client, CONNECT_ATTEMPTS)?;
    Ok(conn.roundtrip(msg)?)
}

/// Fetches every stored result matching `filters` from the coordinator
/// at `addr`, in the store's canonical order.
pub fn fetch(addr: &str, filters: &QueryFilters) -> Result<Vec<StoredResult>, FabricError> {
    match roundtrip(
        addr,
        &Msg::Query {
            filters: filters.clone(),
        },
    )? {
        Msg::Results { records } => Ok(records),
        other => Err(WireError::Protocol(format!("query answered with {other:?}")).into()),
    }
}

/// Reads the coordinator's live telemetry.
pub fn fabric_status(addr: &str) -> Result<Telemetry, FabricError> {
    match roundtrip(addr, &Msg::Status)? {
        Msg::Telemetry { telemetry } => Ok(telemetry),
        other => Err(WireError::Protocol(format!("status answered with {other:?}")).into()),
    }
}

/// Asks a (lingering) coordinator to exit.
pub fn shutdown(addr: &str) -> Result<(), FabricError> {
    match roundtrip(addr, &Msg::Shutdown)? {
        Msg::Ack { .. } => Ok(()),
        other => Err(WireError::Protocol(format!("shutdown answered with {other:?}")).into()),
    }
}
