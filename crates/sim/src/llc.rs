//! An LLC slice: tag array, MSHRs and the DRAM hand-off.
//!
//! The LLC is partitioned into 8 slices across the 4 memory controllers
//! (Table I); the slice index is derived from the *mapped* address, so
//! address mapping directly controls LLC-level parallelism (Figure 14a).
//!
//! Stores are write-through/no-allocate: a hit updates the line, and
//! either way the store goes on to DRAM, so every store reaches DRAM
//! exactly once and no line is ever dirty.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::config::GpuConfig;
use crate::txn::TxnTable;
use crate::wake::audit::{count, Counter};
use std::collections::VecDeque;
use valley_cache::{CacheStats, MshrAllocation, MshrFile, SetAssocCache};
use valley_dram::DramSystem;

/// Whether DRAM channel `ctrl`'s queue has a free slot: what a slice
/// parked on it waits for.
#[inline]
pub(crate) fn has_room(dram: &DramSystem, ctrl: usize) -> bool {
    let ch = dram.channel(ctrl);
    ch.queue_len() < ch.config().queue_capacity
}

/// One LLC slice (64 KB, 8-way in the baseline; 120-cycle latency).
pub(crate) struct LlcSlice {
    cache: SetAssocCache,
    mshr: MshrFile,
    /// Transactions delivered by the NoC awaiting tag access.
    input: VecDeque<u32>,
    /// Hits in flight: (ready cycle, txn).
    hits: VecDeque<(u64, u32)>,
    /// Transactions waiting for a free DRAM queue slot.
    dram_retry: VecDeque<u32>,
    /// MSHR entries opened, each by a load miss that goes on to DRAM as
    /// one read — checked against the DRAM read count, not reported.
    mshr_entries: u64,
    /// The input head is MSHR-stalled and no DRAM completion has arrived
    /// since (completions are the only events that free this slice's
    /// MSHRs or fill lines), so retries cost nothing: the head is looked
    /// up again once a completion clears this. Set by the stalled
    /// allocation, cleared by [`LlcSlice::on_dram_completion`].
    input_stalled: bool,
    /// The exact next core cycle at which [`LlcSlice::tick`] changes
    /// anything (`u64::MAX` = nothing locally schedulable); republished
    /// by every tick and lowered by the deliveries and DRAM fills that
    /// give the slice something to do, and by [`LlcSlice::unpark`] (see
    /// `crate::wake`).
    cached_next: u64,
    /// `Some(ctrl)` while the DRAM-retry head is parked: DRAM channel
    /// `ctrl` refused it with a full queue, and only a dequeue there can
    /// let it in. A parked head publishes no wake-up and is not offered
    /// again, whatever else wakes the slice, until the drive loop sees a
    /// free slot in that channel and calls [`LlcSlice::unpark`]. Set by
    /// [`LlcSlice::tick`] step 2.
    parked_on: Option<u16>,
}

impl LlcSlice {
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        LlcSlice {
            cache: SetAssocCache::new(cfg.llc_slice),
            mshr: MshrFile::new(cfg.llc_mshrs, cfg.llc_mshr_merges),
            // Steady-state sized up front: every simulation run builds
            // fresh slices, and letting the queues grow from zero pays a
            // doubling-realloc ladder per run, per slice.
            input: VecDeque::with_capacity(64),
            hits: VecDeque::with_capacity(32),
            dram_retry: VecDeque::with_capacity(32),
            mshr_entries: 0,
            input_stalled: false,
            cached_next: 0,
            parked_on: None,
        }
    }

    /// Accepts a transaction delivered by the request NoC in core cycle
    /// `cycle`. Behind an MSHR-stalled head it changes nothing the slice
    /// could act on, so the slice's hint stays where it is.
    pub(crate) fn deliver(&mut self, txn: u32, cycle: u64) {
        let _audit_pause =
            (self.input.len() == self.input.capacity()).then(valley_core::alloc_audit::pause);
        self.input.push_back(txn);
        self.cached_next = self.cached_next.min(self.next_event_at(cycle));
    }

    /// Outstanding requests in this slice (non-zero is what Figure 14a
    /// counts as busy).
    pub(crate) fn outstanding(&self) -> usize {
        self.input.len() + self.hits.len() + self.dram_retry.len() + self.mshr.len()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// MSHR entries opened so far: the DRAM reads this slice issued.
    pub(crate) fn mshr_entries(&self) -> u64 {
        self.mshr_entries
    }

    /// Queues `txn` for the DRAM hand-off.
    fn send_to_dram(&mut self, txn: u32) {
        let _audit_pause = (self.dram_retry.len() == self.dram_retry.capacity())
            .then(valley_core::alloc_audit::pause);
        self.dram_retry.push_back(txn);
    }

    /// A DRAM read of `line` completed in core cycle `cycle`: fill the
    /// line and emit replies for every merged waiter into `replies`. The
    /// slice itself has something to do this cycle only if an input head
    /// can retry its lookup.
    pub(crate) fn on_dram_completion(&mut self, line: u64, cycle: u64, replies: &mut Vec<u64>) {
        self.input_stalled = false;
        self.cache.fill(line);
        self.mshr.complete_into(line, replies);
        self.cached_next = self.cached_next.min(self.next_event_at(cycle));
    }

    /// The DRAM channel whose full queue the retry head is parked on.
    #[inline]
    pub(crate) fn parked_on(&self) -> Option<usize> {
        self.parked_on.map(usize::from)
    }

    /// Offers the retry head again from core cycle `cycle`: the drive
    /// loop calls this once the channel the slice is parked on has a free
    /// slot, and under the open gate before every tick.
    pub(crate) fn unpark(&mut self, cycle: u64) {
        self.parked_on = None;
        self.cached_next = self.cached_next.min(self.next_event_at(cycle));
    }

    /// The cached next-event cycle republished by [`LlcSlice::tick`].
    #[inline]
    pub(crate) fn cached_next_event(&self) -> u64 {
        self.cached_next
    }

    /// The slice's hint as of core cycle `now` (the first cycle not yet
    /// ticked): now while the input head can be looked up or an unparked
    /// retry head waits, else the front of the hit pipeline. The one
    /// definition of "when is this slice next due": the tick republishes
    /// it for `cycle + 1`, and the out-of-band sources (a delivery, a
    /// fill, an unpark) lower `cached_next` to it for their own cycle —
    /// so a source that gives the slice nothing to do moves nothing.
    #[inline]
    fn next_event_at(&self, now: u64) -> u64 {
        if !self.input.is_empty() && !self.input_stalled {
            return now;
        }
        let mut next = u64::MAX;
        if !self.dram_retry.is_empty() && self.parked_on.is_none() {
            next = now;
        }
        if let Some(&(ready, _)) = self.hits.front() {
            next = next.min(ready.max(now));
        }
        next
    }

    /// One core cycle: complete hits, retry DRAM hand-offs, process one
    /// new transaction. Load hits produce replies; misses go to DRAM.
    /// `dram_cycle` is the next DRAM cycle, the one after this core
    /// cycle's DRAM phase: a hand-off arrives at its channel then.
    /// The driving loop may skip the cycles below
    /// [`LlcSlice::cached_next_event`], which the tick republishes for the
    /// next cycle.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        dram_cycle: u64,
        dram: &mut DramSystem,
        txns: &TxnTable,
        replies: &mut Vec<u64>,
    ) {
        // 1. Hits whose latency elapsed.
        while let Some(&(ready, txn)) = self.hits.front() {
            if ready > cycle {
                break;
            }
            self.hits.pop_front();
            replies.push(u64::from(txn));
        }

        // 2. Drain the DRAM retry queue while the channel accepts. A
        // refusal parks the slice on that channel: its queue is full, so
        // the head is not offered again until the drive loop unparks it.
        if let Some(ctrl) = self.parked_on {
            debug_assert!(
                !has_room(dram, usize::from(ctrl)),
                "a parked slice's channel has room"
            );
        } else {
            while let Some(&txn) = self.dram_retry.front() {
                let t = txns.get(txn);
                let (ctrl, bank) = (u32::from(t.ctrl), u32::from(t.bank));
                let (id, is_store) = (u64::from(txn), t.is_store());
                if dram.try_enqueue_at(ctrl, bank, t.row, id, is_store, dram_cycle) {
                    self.dram_retry.pop_front();
                } else {
                    count(Counter::RefusedEnqueues);
                    self.parked_on = Some(t.ctrl);
                    break;
                }
            }
        }

        // 3. Tag access: one transaction per cycle.
        self.tag_access(cycle, txns);
        self.cached_next = self.next_event_at(cycle + 1);
    }

    /// Step 3 of [`LlcSlice::tick`]: looks up the input head. A
    /// transaction's lookup is counted once, in the cycle it leaves the
    /// input head.
    fn tag_access(&mut self, cycle: u64, txns: &TxnTable) {
        let Some(&txn) = self.input.front() else {
            return;
        };
        if self.input_stalled {
            return;
        }
        let is_store = txns.get(txn).is_store();
        let line = txns.line(txn);
        count(Counter::TagAccesses);
        let hit = self.cache.lookup(line);
        if !hit && !is_store {
            match self.mshr.allocate(line, u64::from(txn)) {
                MshrAllocation::NewEntry => {
                    self.mshr_entries += 1;
                    self.send_to_dram(txn);
                }
                MshrAllocation::Merged => {}
                MshrAllocation::Stalled => {
                    // Head-of-line stall: cache the verdict until the next
                    // DRAM completion, so retries cost nothing.
                    self.input_stalled = true;
                    return;
                }
            }
        }
        self.cache.count(hit);
        self.input.pop_front();
        if is_store {
            // Write-through, no-allocate: a hit updates the line, and
            // either way the write goes on to DRAM.
            self.send_to_dram(txn);
        } else if hit {
            let _audit_pause =
                (self.hits.len() == self.hits.capacity()).then(valley_core::alloc_audit::pause);
            self.hits.push_back((cycle + GpuConfig::LLC_LATENCY, txn));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{id_of, Route, NO_WARP};
    use crate::wake::DomainClock;
    use proptest::prelude::*;
    use valley_core::{AddressMapper, DramMap, PhysAddr, SchemeKind};
    use valley_dram::DramConfig;

    /// The route of `line` under `mapper` — slice 0, the slice under test.
    fn route(mapper: &AddressMapper, dram: &DramSystem, line: u64) -> Route {
        let (ctrl, bank, row) = dram.decode(mapper.map(PhysAddr::new(line)));
        Route {
            slice: 0,
            ctrl: ctrl as u16,
            bank: bank as u8,
            row,
        }
    }

    /// The un-stall path: a load stalled on a full merge list is looked
    /// up again after the fill and counted as the hit it then is — not
    /// as a miss when it stalled and a hit when it left.
    #[test]
    fn a_head_filled_while_stalled_is_counted_as_one_hit() {
        let mut cfg = GpuConfig::table1();
        cfg.llc_mshr_merges = 1;
        let map = DramMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
        let mut dram = DramSystem::new(std::sync::Arc::new(map), cfg.dram);
        let mut txns = TxnTable::new(cfg.line_bytes);
        let mut slice = LlcSlice::new(&cfg);
        let mut replies = Vec::new();
        let line = 0x4000;
        let to = route(&mapper, &dram, line);
        let [first, second] = [0, 1].map(|warp| txns.alloc(0, warp, line, to));
        slice.deliver(first, 0);
        slice.deliver(second, 0);
        for cycle in 0..4 {
            slice.tick(cycle, 0, &mut dram, &txns, &mut replies);
        }
        assert!(slice.input_stalled, "the merge list holds one waiter");
        assert_eq!((slice.stats().hits, slice.stats().misses), (0, 1));

        slice.on_dram_completion(line, 4, &mut replies);
        assert_eq!(replies, [u64::from(first)]);
        slice.tick(4, 0, &mut dram, &txns, &mut replies);
        assert!(slice.input.is_empty());
        assert_eq!((slice.stats().hits, slice.stats().misses), (1, 1));
    }

    /// A slice with its own DRAM system: the unit the park property
    /// drives twice over the same traffic.
    struct Rig {
        slice: LlcSlice,
        dram: DramSystem,
        replies: Vec<u64>,
        completions: Vec<valley_dram::DramCompletion>,
    }

    impl Rig {
        fn new(cfg: &GpuConfig, dram_cfg: DramConfig) -> Self {
            Rig {
                slice: LlcSlice::new(cfg),
                dram: DramSystem::new(std::sync::Arc::new(DramMap::baseline()), dram_cfg),
                replies: Vec::new(),
                completions: Vec::new(),
            }
        }

        /// The DRAM domain's cycles `dram_cycles` under the gate `ticks`,
        /// fills delivered to the slice in core cycle `cycle`.
        fn tick_dram(
            &mut self,
            dram_cycles: std::ops::Range<u64>,
            ticks: impl Fn(u64, u64) -> bool + Copy,
            cycle: u64,
            txns: &TxnTable,
        ) {
            for dram_cycle in dram_cycles {
                self.completions.clear();
                self.dram.tick(dram_cycle, &mut self.completions, ticks);
                for c in &self.completions {
                    let id = id_of(c.id);
                    if !txns.get(id).is_store() {
                        self.slice
                            .on_dram_completion(txns.line(id), cycle, &mut self.replies);
                    }
                }
            }
        }

        /// What the DRAM hand-off has done so far: the transactions still
        /// waiting in the slice, and each channel's queue.
        fn hand_off(&self) -> (usize, Vec<usize>) {
            let queues = (0..self.dram.num_channels())
                .map(|c| self.dram.channel(c).queue_len())
                .collect();
            (self.slice.dram_retry.len(), queues)
        }
    }

    // Random slice traffic through a 2-entry DRAM queue, so refusals are
    // common: the slice driven as the evented loop drives it — ticked at
    // its own hint, parked by a refusal, unparked once its channel has
    // room — must hand DRAM the same transactions in the same cycles as
    // a shadow slice ticked densely that retries its head every cycle.
    proptest! {
        #[test]
        fn a_parked_slice_enqueues_when_an_every_cycle_retry_does(
            seed in 0u64..u64::MAX,
            txn_count in 1usize..200,
            burst in 1u64..6,
        ) {
            let cfg = GpuConfig::table1();
            let map = DramMap::baseline();
            let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
            let mut dram_cfg: DramConfig = cfg.dram;
            dram_cfg.queue_capacity = 2;
            let mut parked = Rig::new(&cfg, dram_cfg);
            let mut shadow = Rig::new(&cfg, dram_cfg);
            let mut txns = TxnTable::new(cfg.line_bytes);

            let mut s = seed;
            let mut next_mix = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut pending = txn_count;
            let dram_clock = DomainClock::new(cfg.dram.clock_mhz);
            for cycle in 0..6_000u64 {
                let dram_cycles = dram_clock.ticked_in(cycle);
                let dram_cycle = dram_cycles.end;
                parked.tick_dram(dram_cycles.clone(), |now, next| now >= next, cycle, &txns);
                shadow.tick_dram(dram_cycles, |_, _| true, cycle, &txns);
                // Random delivery bursts (hot lines force MSHR merges and
                // stalls; random stores exercise the write-through path).
                if pending > 0 && next_mix() % 3 == 0 {
                    for _ in 0..burst.min(pending as u64) {
                        let r = next_mix();
                        let line = (r % 64) << 7;
                        let is_store = r % 5 == 0;
                        let to = route(&mapper, &parked.dram, line);
                        let id = txns.alloc(0, if is_store { NO_WARP } else { 0 }, line, to);
                        parked.slice.deliver(id, cycle);
                        shadow.slice.deliver(id, cycle);
                        pending -= 1;
                    }
                }
                // The loop's unpark, after the DRAM phase.
                if let Some(ch) = parked.slice.parked_on() {
                    if has_room(&parked.dram, ch) {
                        parked.slice.unpark(cycle);
                    }
                }
                let Rig { slice, dram, replies, .. } = &mut parked;
                if cycle >= slice.cached_next_event() {
                    slice.tick(cycle, dram_cycle, dram, &txns, replies);
                }
                let Rig { slice, dram, replies, .. } = &mut shadow;
                slice.unpark(cycle);
                slice.tick(cycle, dram_cycle, dram, &txns, replies);

                if let Some(ch) = parked.slice.parked_on() {
                    prop_assert!(
                        !has_room(&parked.dram, ch),
                        "cycle {}: parked on channel {}, which has room", cycle, ch
                    );
                }
                prop_assert_eq!(
                    parked.hand_off(), shadow.hand_off(),
                    "cycle {}: the DRAM hand-off diverged", cycle
                );
                prop_assert_eq!(&parked.replies, &shadow.replies, "cycle {}", cycle);
                parked.replies.clear();
                shadow.replies.clear();
                if pending == 0 && parked.slice.is_idle() && !parked.dram.is_busy() {
                    break;
                }
            }
            prop_assert!(pending == 0, "traffic never fully delivered");
            prop_assert!(shadow.slice.is_idle() && !shadow.dram.is_busy());
        }
    }
}
