//! The memory-transaction table: one record per coalesced transaction
//! in flight, addressed by its slot index. A transaction's slot is
//! released where the transaction ends and reused by a later one, so the
//! table is as large as the most transactions ever in flight, not as the
//! run is long.
//!
//! A [`Txn`] is 16 bytes. It is decoded once, at issue, into everything
//! a later stage reads: the line that keys the caches and MSHRs, kept as
//! its line number, and the [`Route`] of its mapped address — LLC slice,
//! DRAM controller, bank and row. The mapped address itself is not kept,
//! because nothing after issue needs more of it, and whether it is a
//! store is its warp being [`NO_WARP`]. The width matters because a
//! valley is tens of thousands of stores in flight at once, queued at
//! one crossbar port: this record, with the crossbar's 12-byte queue
//! entry and the `u32` ids in the SM and slice queues, is what each of
//! them costs. `GpuSim::new` refuses a configuration whose SM, warp,
//! slice, controller, bank or row indices would not fit, and
//! [`TxnTable::alloc`] a line past the 32-bit line number.
//!
//! The free list lives in the released records: a released slot's
//! `line` field names the slot released before it, so the table needs
//! no side vector of free slots, which would grow to the most slots
//! ever released at once. With the crossbar's pooled queues, a store
//! in flight costs ≈ 34 heap bytes (`tests/alloc_audit.rs` pins it
//! under 44).

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

/// End of the free list: no slot is released.
const NO_SLOT: u32 = u32::MAX;

/// Where a transaction goes: the LLC slice and the DRAM coordinates of
/// its mapped address, decoded once at issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Route {
    /// LLC slice serving the transaction.
    pub slice: u8,
    /// DRAM controller (channel or vault).
    pub ctrl: u16,
    /// Bank within the controller.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
}

/// One coalesced memory transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Txn {
    /// Line number of the original (pre-mapping) address: the cache and
    /// MSHR key, shifted right by the line size ([`TxnTable::line`]). In
    /// a released slot, the next slot of the free list.
    line: u32,
    /// DRAM row of the mapped address.
    pub row: u32,
    /// Originating SM.
    pub sm: u16,
    /// Originating warp slot, or [`NO_WARP`] for stores.
    pub warp: u16,
    /// DRAM controller of the mapped address.
    pub ctrl: u16,
    /// LLC slice serving this transaction.
    pub slice: u8,
    /// DRAM bank (within `ctrl`) of the mapped address.
    pub bank: u8,
}

const _: () = assert!(std::mem::size_of::<Txn>() == 16);

impl Txn {
    /// Whether this is a store: a store belongs to no warp.
    #[inline]
    pub(crate) fn is_store(&self) -> bool {
        self.warp == NO_WARP
    }
}

/// A transaction id back from the `u64` token it travelled as — an MSHR
/// waiter, a DRAM request id or a NoC payload. Every such token was
/// minted from a `u32` slot index by this crate.
#[inline]
pub(crate) fn id_of(token: u64) -> u32 {
    debug_assert!(token <= u64::from(u32::MAX), "token {token} is no slot");
    token as u32
}

/// Slot-recycling transaction table; ids are `u32` slot indices.
#[derive(Debug)]
pub(crate) struct TxnTable {
    txns: Vec<Txn>,
    /// Debug builds only: whether each slot holds a transaction not yet
    /// released. Kept off the record so that it is 16 bytes in every
    /// build.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
    /// The last slot released, or [`NO_SLOT`]: the head of the free
    /// list, which runs through the released records themselves, each
    /// naming the slot released before it in its `line` field. Slots are
    /// reused last-released-first (deterministic, and the warmest
    /// memory).
    free: u32,
    /// Slots on the free list.
    free_len: usize,
    /// log2 of the line size: a line address is its line number shifted
    /// left by this.
    line_shift: u32,
    /// Transactions ever allocated.
    allocated: u64,
    /// Of those, the stores.
    stores: u64,
}

impl TxnTable {
    /// An empty table for lines of `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub(crate) fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line_bytes = {line_bytes} is not a power of two"
        );
        TxnTable {
            txns: Vec::with_capacity(1 << 16),
            #[cfg(debug_assertions)]
            live: Vec::with_capacity(1 << 16),
            free: NO_SLOT,
            free_len: 0,
            line_shift: line_bytes.trailing_zeros(),
            allocated: 0,
            stores: 0,
        }
    }

    /// Opens a transaction of warp `warp` of SM `sm` — a store when
    /// `warp` is [`NO_WARP`] — to the line-aligned address `line`, going
    /// where `route` says; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the line number of `line` does not fit 32 bits.
    pub(crate) fn alloc(&mut self, sm: u16, warp: u16, line: u64, route: Route) -> u32 {
        debug_assert_eq!(
            line & ((1 << self.line_shift) - 1),
            0,
            "{line:#x} is no line"
        );
        #[expect(
            clippy::expect_used,
            reason = "a line number past 32 bits is an address at or above 2^(32 + line bits) bytes (512 GiB at 128 B lines), far outside every modelled memory; refusing it beats aliasing it onto a lower line"
        )]
        let line = u32::try_from(line >> self.line_shift)
            .expect("the line number of a transaction fits 32 bits");
        let txn = Txn {
            line,
            row: route.row,
            sm,
            warp,
            ctrl: route.ctrl,
            slice: route.slice,
            bank: route.bank,
        };
        self.allocated += 1;
        self.stores += u64::from(txn.is_store());
        if self.free != NO_SLOT {
            let slot = self.free;
            self.free = self.txns[slot as usize].line;
            self.free_len -= 1;
            self.txns[slot as usize] = txn;
            #[cfg(debug_assertions)]
            {
                self.live[slot as usize] = true;
            }
            return slot;
        }
        // Arena growth is amortized pool growth, not per-tick work;
        // declare the reallocation to the allocation audit.
        let full = self.txns.len() == self.txns.capacity();
        #[cfg(debug_assertions)]
        let full = full || self.live.len() == self.live.capacity();
        let _audit_pause = full.then(crate::alloc_audit::pause);
        #[cfg(debug_assertions)]
        self.live.push(true);
        self.txns.push(txn);
        // A slot index: more than 2^32 records in flight would be
        // 64 GiB of them.
        (self.txns.len() - 1) as u32
    }

    /// Ends transaction `id`: nothing holds the token any more, and its
    /// slot goes to the next [`TxnTable::alloc`].
    #[inline]
    pub(crate) fn release(&mut self, id: u32) {
        #[cfg(debug_assertions)]
        {
            let live = &mut self.live[id as usize];
            debug_assert!(*live, "transaction {id} released twice");
            *live = false;
        }
        self.txns[id as usize].line = self.free;
        self.free = id;
        self.free_len += 1;
    }

    #[inline]
    pub(crate) fn get(&self, id: u32) -> &Txn {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.live[id as usize],
            "transaction {id} read after its release"
        );
        &self.txns[id as usize]
    }

    /// The line-aligned original address of transaction `id`.
    #[inline]
    pub(crate) fn line(&self, id: u32) -> u64 {
        u64::from(self.get(id).line) << self.line_shift
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
        self.txns.len() - self.free_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn route(slice: u8, row: u32) -> Route {
        Route {
            slice,
            ctrl: u16::from(slice / 2),
            bank: 7,
            row,
        }
    }

    #[test]
    fn alloc_and_get() {
        let mut t = TxnTable::new(128);
        let a = t.alloc(1, 2, 0x100, route(3, 9));
        let b = t.alloc(1, NO_WARP, 0x200, route(0, 10));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(t.line(a), 0x100);
        assert_eq!((t.get(a).slice, t.get(a).ctrl, t.get(a).bank), (3, 1, 7));
        assert_eq!(t.get(a).row, 9);
        assert!(!t.get(a).is_store());
        assert!(t.get(b).is_store());
        assert_eq!((t.len(), t.stores(), t.live()), (2, 1, 2));
    }

    #[test]
    fn released_slots_are_reused_and_still_counted() {
        let mut t = TxnTable::new(128);
        let a = t.alloc(0, 0, 0x100, route(1, 1));
        let b = t.alloc(0, 1, 0x200, route(2, 2));
        t.release(a);
        let c = t.alloc(0, 2, 0x300, route(5, 3));
        assert_eq!(c, a, "the freed slot is handed out again");
        assert_eq!(t.line(c), 0x300);
        assert_eq!(
            (t.get(c).slice, t.get(c).row),
            (5, 3),
            "a reused slot is rewritten whole"
        );
        assert_eq!(t.line(b), 0x200);
        assert_eq!(t.len(), 3, "the count is of allocations, not slots");
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn released_slots_come_back_last_released_first() {
        let mut t = TxnTable::new(128);
        let ids: Vec<u32> = (0..5).map(|i| t.alloc(0, 0, i << 7, route(0, 0))).collect();
        for &id in &[ids[3], ids[0], ids[4]] {
            t.release(id);
        }
        assert_eq!(t.live(), 2);
        let again: Vec<u32> = (0..4).map(|_| t.alloc(0, 0, 0, route(0, 0))).collect();
        assert_eq!(again, [ids[4], ids[0], ids[3], 5], "then a new slot");
        assert_eq!(t.live(), 6);
        assert_eq!(t.line(ids[1]), 1 << 7, "a live record is untouched");
    }

    #[test]
    #[should_panic(expected = "line number of a transaction fits 32 bits")]
    fn a_line_number_past_32_bits_is_refused() {
        let mut t = TxnTable::new(128);
        let _ = t.alloc(0, 0, 1 << (32 + 7), route(0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read after its release")]
    fn debug_builds_refuse_a_released_slot() {
        let mut t = TxnTable::new(128);
        let a = t.alloc(0, 0, 0x100, route(0, 0));
        t.release(a);
        let _ = t.get(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released twice")]
    fn debug_builds_refuse_a_slot_released_twice() {
        let mut t = TxnTable::new(128);
        let a = t.alloc(0, 0, 0x100, route(0, 0));
        t.release(a);
        t.release(a);
    }

    /// Draws from `0..=max`, each extreme one time in four.
    struct UpTo(u64);

    impl Strategy for UpTo {
        type Value = u64;
        fn sample(&self, rng: &mut TestRng) -> u64 {
            match rng.next_u64() % 4 {
                0 => 0,
                1 => self.0,
                _ => rng.next_u64() % (self.0 + 1),
            }
        }
    }

    proptest! {
        // Every field comes back as it went in, at its width's extremes
        // (line number and row `u32::MAX`, SM, warp, controller, slice
        // and bank up to their type's limit), through a reused slot, and
        // a transaction is a store exactly when it has no warp.
        #[test]
        fn every_field_round_trips_at_its_width(
            line_shift in 0u32..12,
            line_no in UpTo(u32::MAX.into()),
            row in UpTo(u32::MAX.into()),
            sm in UpTo(u16::MAX.into()),
            warp in UpTo(NO_WARP.into()),
            ctrl in UpTo(u16::MAX.into()),
            slice in UpTo(u8::MAX.into()),
            bank in UpTo(u8::MAX.into()),
        ) {
            let (row, sm, warp, ctrl) = (row as u32, sm as u16, warp as u16, ctrl as u16);
            let (slice, bank) = (slice as u8, bank as u8);
            let mut t = TxnTable::new(1 << line_shift);
            let line = line_no << line_shift;
            let first = t.alloc(0, 0, 0, route(0, 0));
            t.release(first);
            let id = t.alloc(sm, warp, line, Route { slice, ctrl, bank, row });
            prop_assert_eq!(id, first);
            let got = *t.get(id);
            prop_assert_eq!(t.line(id), line);
            prop_assert_eq!(
                (got.row, got.sm, got.warp, got.ctrl, got.slice, got.bank),
                (row, sm, warp, ctrl, slice, bank)
            );
            prop_assert_eq!(got.is_store(), warp == NO_WARP);
            prop_assert_eq!(t.stores(), u64::from(warp == NO_WARP));
        }
    }
}
