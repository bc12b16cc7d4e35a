//! The memory-transaction table: one record per coalesced transaction
//! in flight, addressed by its slot index. A transaction's slot is
//! released where the transaction ends and reused by a later one, so the
//! table is as large as the most transactions ever in flight, not as the
//! run is long.
//!
//! A [`Txn`] is 24 bytes. It is decoded once, at issue, into everything
//! a later stage reads: the line that keys the caches and MSHRs, and the
//! [`Route`] of its mapped address — LLC slice, DRAM controller, bank and
//! row. The mapped address itself is not kept, because nothing after
//! issue needs more of it. The width matters because a valley is tens of
//! thousands of stores in flight at once, queued at one crossbar port:
//! this record, with the crossbar's 24-byte queue entry, is what each of
//! them costs. `GpuSim::new` refuses a configuration whose SM, warp,
//! slice, controller, bank or row indices would not fit.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Sentinel warp index for transactions not tied to a warp (stores).
pub(crate) const NO_WARP: u16 = u16::MAX;

/// Where a transaction goes: the LLC slice and the DRAM coordinates of
/// its mapped address, decoded once at issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Route {
    /// LLC slice serving the transaction.
    pub slice: u16,
    /// DRAM controller (channel or vault).
    pub ctrl: u16,
    /// Bank within the controller.
    pub bank: u16,
    /// Row within the bank.
    pub row: u32,
}

/// One coalesced memory transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Txn {
    /// Original (pre-mapping) line-aligned address — the cache/MSHR key.
    pub line: u64,
    /// DRAM row of the mapped address.
    pub row: u32,
    /// Originating SM.
    pub sm: u16,
    /// Originating warp slot, or [`NO_WARP`] for stores.
    pub warp: u16,
    /// LLC slice serving this transaction.
    pub slice: u16,
    /// DRAM controller of the mapped address.
    pub ctrl: u16,
    /// DRAM bank (within `ctrl`) of the mapped address.
    pub bank: u16,
    /// Whether this is a store.
    pub is_store: bool,
    /// Cleared by [`TxnTable::release`]; debug builds refuse access to a
    /// released slot.
    live: bool,
}

const _: () = assert!(std::mem::size_of::<Txn>() == 24);

/// Slot-recycling transaction table; ids are slot indices.
#[derive(Debug, Default)]
pub(crate) struct TxnTable {
    txns: Vec<Txn>,
    /// Released slots, reused last-released-first (deterministic, and
    /// the warmest memory).
    free: Vec<u32>,
    /// Transactions ever allocated.
    allocated: u64,
    /// Of those, the stores.
    stores: u64,
}

impl TxnTable {
    pub(crate) fn new() -> Self {
        TxnTable {
            txns: Vec::with_capacity(1 << 16),
            free: Vec::with_capacity(1 << 12),
            allocated: 0,
            stores: 0,
        }
    }

    pub(crate) fn alloc(
        &mut self,
        sm: u16,
        warp: u16,
        is_store: bool,
        line: u64,
        route: Route,
    ) -> u64 {
        self.allocated += 1;
        self.stores += u64::from(is_store);
        let txn = Txn {
            line,
            row: route.row,
            sm,
            warp,
            slice: route.slice,
            ctrl: route.ctrl,
            bank: route.bank,
            is_store,
            live: true,
        };
        if let Some(slot) = self.free.pop() {
            self.txns[slot as usize] = txn;
            return u64::from(slot);
        }
        // Arena growth is amortized pool growth, not per-tick work;
        // declare the reallocation to the allocation audit.
        let _audit_pause =
            (self.txns.len() == self.txns.capacity()).then(crate::alloc_audit::pause);
        self.txns.push(txn);
        self.txns.len() as u64 - 1
    }

    /// Ends transaction `id`: nothing holds the token any more, and its
    /// slot goes to the next [`TxnTable::alloc`].
    #[inline]
    pub(crate) fn release(&mut self, id: u64) {
        let t = &mut self.txns[id as usize];
        debug_assert!(t.live, "transaction {id} released twice");
        t.live = false;
        let _audit_pause =
            (self.free.len() == self.free.capacity()).then(crate::alloc_audit::pause);
        self.free.push(id as u32);
    }

    #[inline]
    pub(crate) fn get(&self, id: u64) -> &Txn {
        let t = &self.txns[id as usize];
        debug_assert!(t.live, "transaction {id} read after its release");
        t
    }

    /// Transactions ever allocated — the report's transaction count.
    pub(crate) fn len(&self) -> u64 {
        self.allocated
    }

    /// Stores ever allocated; the rest of [`TxnTable::len`] are loads.
    pub(crate) fn stores(&self) -> u64 {
        self.stores
    }

    /// Transactions allocated and not yet released.
    pub(crate) fn live(&self) -> usize {
        self.txns.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(slice: u16, row: u32) -> Route {
        Route {
            slice,
            ctrl: slice / 2,
            bank: 7,
            row,
        }
    }

    #[test]
    fn alloc_and_get() {
        let mut t = TxnTable::new();
        let a = t.alloc(1, 2, false, 0x100, route(3, 9));
        let b = t.alloc(1, NO_WARP, true, 0x200, route(0, 10));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(t.get(a).line, 0x100);
        assert_eq!((t.get(a).slice, t.get(a).ctrl, t.get(a).bank), (3, 1, 7));
        assert_eq!(t.get(a).row, 9);
        assert!(t.get(b).is_store);
        assert_eq!(t.get(b).warp, NO_WARP);
        assert_eq!((t.len(), t.stores(), t.live()), (2, 1, 2));
    }

    #[test]
    fn released_slots_are_reused_and_still_counted() {
        let mut t = TxnTable::new();
        let a = t.alloc(0, 0, false, 0x100, route(1, 1));
        let b = t.alloc(0, 1, false, 0x200, route(2, 2));
        t.release(a);
        let c = t.alloc(0, 2, false, 0x300, route(5, 3));
        assert_eq!(c, a, "the freed slot is handed out again");
        assert_eq!(t.get(c).line, 0x300);
        assert_eq!(
            (t.get(c).slice, t.get(c).row),
            (5, 3),
            "a reused slot is rewritten whole"
        );
        assert_eq!(t.get(b).line, 0x200);
        assert_eq!(t.len(), 3, "the count is of allocations, not slots");
        assert_eq!(t.live(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read after its release")]
    fn debug_builds_refuse_a_released_slot() {
        let mut t = TxnTable::new();
        let a = t.alloc(0, 0, false, 0x100, route(0, 0));
        t.release(a);
        let _ = t.get(a);
    }
}
