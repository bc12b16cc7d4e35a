//! The memory-transaction table: one record per coalesced transaction,
//! addressed by a monotonically-increasing token (its index).

use valley_core::PhysAddr;

/// Sentinel warp index for transactions not tied to a warp (stores).
pub(crate) const NO_WARP: u32 = u32::MAX;

/// One coalesced memory transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Txn {
    /// Originating SM.
    pub sm: u32,
    /// Originating warp slot, or [`NO_WARP`] for stores.
    pub warp: u32,
    /// Whether this is a store.
    pub is_store: bool,
    /// Original (pre-mapping) line-aligned address — the cache/MSHR key.
    pub line: u64,
    /// Mapped address — routes the LLC slice, DRAM channel, bank and row.
    pub mapped: PhysAddr,
    /// LLC slice serving this transaction (derived from `mapped`).
    pub slice: u16,
    /// Lazily-cached DRAM coordinates of `mapped` (controller, bank,
    /// row), decoded once at the LLC's DRAM hand-off so back-pressure
    /// retries don't re-decode every cycle.
    pub coords: Option<(u32, u32, u32)>,
}

/// Append-only transaction table; ids are indices.
#[derive(Debug, Default)]
pub(crate) struct TxnTable {
    txns: Vec<Txn>,
}

impl TxnTable {
    pub(crate) fn new() -> Self {
        TxnTable {
            txns: Vec::with_capacity(1 << 16),
        }
    }

    pub(crate) fn alloc(
        &mut self,
        sm: u32,
        warp: u32,
        is_store: bool,
        line: u64,
        mapped: PhysAddr,
        slice: u16,
    ) -> u64 {
        let id = self.txns.len() as u64;
        // Arena growth is amortized pool growth, not per-tick work;
        // declare the reallocation to the allocation audit.
        let _audit_pause =
            (self.txns.len() == self.txns.capacity()).then(crate::alloc_audit::pause);
        self.txns.push(Txn {
            sm,
            warp,
            is_store,
            line,
            mapped,
            slice,
            coords: None,
        });
        id
    }

    #[inline]
    pub(crate) fn get(&self, id: u64) -> &Txn {
        &self.txns[id as usize]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> &mut Txn {
        &mut self.txns[id as usize]
    }

    /// Transactions allocated — the report's transaction count.
    pub(crate) fn len(&self) -> u64 {
        self.txns.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_get() {
        let mut t = TxnTable::new();
        let a = t.alloc(1, 2, false, 0x100, PhysAddr::new(0x900), 3);
        let b = t.alloc(1, NO_WARP, true, 0x200, PhysAddr::new(0xa00), 0);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(t.get(a).line, 0x100);
        assert!(t.get(b).is_store);
        assert_eq!(t.get(b).warp, NO_WARP);
        assert_eq!(t.len(), 2);
    }
}
