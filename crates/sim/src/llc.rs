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
use crate::wake::DomainClock;
use std::collections::VecDeque;
use valley_cache::{CacheStats, MshrAllocation, MshrFile, SetAssocCache};
use valley_dram::DramSystem;

/// One LLC slice (64 KB, 8-way in the baseline; 120-cycle latency).
pub(crate) struct LlcSlice {
    cache: SetAssocCache,
    mshr: MshrFile,
    /// Transactions delivered by the NoC awaiting tag access.
    input: VecDeque<u64>,
    /// Hits in flight: (ready cycle, txn).
    hits: VecDeque<(u64, u64)>,
    /// Transactions waiting for a free DRAM queue slot.
    dram_retry: VecDeque<u64>,
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
    /// by [`LlcSlice::tick_evented`] and lowered by the deliveries and
    /// DRAM fills that give the slice something to do (see
    /// `crate::wake`).
    cached_next: u64,
    /// `Some(gate)` while the DRAM-retry head is back-pressured: `gate`
    /// is the core cycle in which its channel's next dequeue is ticked,
    /// so the head first fits then and is not re-attempted before, even
    /// when something else wakes the slice. `None` means the head — if
    /// any — has not been attempted since it became the head and gates
    /// at the next cycle. Maintained by [`LlcSlice::tick`] step 2, so
    /// [`LlcSlice::tick_evented`] updates `cached_next` from this delta
    /// instead of re-deriving the gate through the transaction table
    /// and the DRAM channel on every effective tick.
    retry_gate: Option<u64>,
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
            retry_gate: None,
        }
    }

    /// Accepts a transaction delivered by the request NoC in core cycle
    /// `cycle`. Behind an MSHR-stalled head it changes nothing the slice
    /// could act on, so the slice's hint stays where it is.
    pub(crate) fn deliver(&mut self, txn: u64, cycle: u64) {
        let _audit_pause =
            (self.input.len() == self.input.capacity()).then(valley_core::alloc_audit::pause);
        self.input.push_back(txn);
        self.cached_next = self.cached_next.min(self.next_event_incremental(cycle));
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

    /// The earliest core cycle at or after `now` at which
    /// [`LlcSlice::tick`] would do real work, or `None` when the slice can
    /// only progress through off-slice events (DRAM completions filling
    /// MSHRs). Ticks before that cycle are no-ops.
    ///
    /// This is the recompute-from-scratch **oracle**: the hot path
    /// ([`LlcSlice::tick_evented`]) maintains the same value
    /// incrementally from the hit-queue/retry-head deltas of the tick it
    /// just ran (see [`LlcSlice::next_event_incremental`]); a property
    /// test pins the two against each other. Whether the retry head was
    /// attempted is state (`retry_gate`, like `hits.front()`); *when* a
    /// refused head fits is recomputed here from the channel it waits on
    /// and the DRAM clock as they stand — the queue must still be full
    /// and its next dequeue must translate to the very cycle stored.
    pub(crate) fn next_event_at_with_dram(
        &self,
        now: u64,
        txns: &TxnTable,
        dram: &DramSystem,
        dram_clock: &DomainClock,
    ) -> Option<u64> {
        if !self.input.is_empty() && !self.input_stalled {
            return Some(now);
        }
        let mut next: Option<u64> = None;
        if let Some(&txn) = self.dram_retry.front() {
            if self.retry_gate.is_none() {
                // Not attempted since it became the head.
                return Some(now);
            }
            assert!(
                self.retry_head_blocked(txns, dram),
                "a gated retry head whose channel has room"
            );
            // `now - 1` is the cycle `dram_clock` was last advanced in.
            let dequeue = dram.channel_next_dequeue(usize::from(txns.get(txn).ctrl));
            next = Some((now - 1).saturating_add(dram_clock.core_cycles_until(dequeue)));
        }
        if let Some(&(ready, _)) = self.hits.front() {
            let at = ready.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Whether there is a DRAM-retry head and its channel's queue is
    /// full — what a retry gate in the future asserts.
    fn retry_head_blocked(&self, txns: &TxnTable, dram: &DramSystem) -> bool {
        self.dram_retry.front().is_some_and(|&head| {
            let ch = dram.channel(usize::from(txns.get(head).ctrl));
            ch.queue_len() >= ch.config().queue_capacity
        })
    }

    /// Queues `txn` for the DRAM hand-off.
    fn send_to_dram(&mut self, txn: u64) {
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
        self.cached_next = self.cached_next.min(self.next_event_incremental(cycle));
    }

    /// The cached next-event cycle maintained by
    /// [`LlcSlice::tick_evented`].
    #[inline]
    pub(crate) fn cached_next_event(&self) -> u64 {
        self.cached_next
    }

    /// The DRAM back-pressure gate [`LlcSlice::tick`] step 2 maintains
    /// (`None` = the retry head, if any, has not been attempted yet) —
    /// surfaced so the wake-gate subsystem's recompute oracles can check
    /// the shared index against the slice's own bookkeeping.
    #[cfg(test)]
    pub(crate) fn retry_gate(&self) -> Option<u64> {
        self.retry_gate
    }

    /// The slice's hint as of core cycle `now` (the first cycle not yet
    /// ticked), derived incrementally: the input-head and hit-queue
    /// terms are O(1) peeks, and the DRAM back-pressure term reuses the
    /// gate [`LlcSlice::tick`] step 2 computed (while it already held
    /// the channel) instead of re-deriving it through the transaction
    /// table and the channel. The one definition of "when is this slice
    /// next due": the tick republishes it for `cycle + 1`, and the
    /// out-of-band sources (a delivery, a fill) lower `cached_next` to
    /// it for their own cycle — so a source that gives the slice nothing
    /// to do moves nothing. Must equal `next_event_at_with_dram(now, ..)`
    /// at every effective-tick boundary — pinned by the `retry_gate`
    /// property test.
    #[inline]
    fn next_event_incremental(&self, now: u64) -> u64 {
        if !self.input.is_empty() && !self.input_stalled {
            return now;
        }
        let mut next = u64::MAX;
        if !self.dram_retry.is_empty() {
            // A blocked head gates at the cycle its refusal computed; a
            // fresh (unattempted) head gates at once.
            next = self.retry_gate.unwrap_or(now);
            debug_assert!(next >= now, "retry gate must not be in the past");
        }
        if let Some(&(ready, _)) = self.hits.front() {
            next = next.min(ready.max(now));
        }
        next
    }

    /// Event-gated [`LlcSlice::tick`]: a no-op while the cached
    /// next-event cycle is in the future (the slice has no per-cycle
    /// counters, so there is nothing to defer). Bit-identical to ticking
    /// densely every cycle.
    #[inline]
    pub(crate) fn tick_evented(
        &mut self,
        cycle: u64,
        dram_clock: &DomainClock,
        cfg: &GpuConfig,
        dram: &mut DramSystem,
        txns: &TxnTable,
        replies: &mut Vec<u64>,
    ) {
        if cycle < self.cached_next {
            return;
        }
        count(Counter::SliceTicks);
        self.tick(cycle, dram_clock, cfg, dram, txns, replies);
        self.cached_next = self.next_event_incremental(cycle + 1);
        debug_assert_eq!(
            self.cached_next,
            self.next_event_at_with_dram(cycle + 1, txns, dram, dram_clock)
                .unwrap_or(u64::MAX),
            "incremental next-event diverged from the recompute oracle"
        );
    }

    /// One core cycle: complete hits, retry DRAM hand-offs, process one
    /// new transaction. Load hits produce replies; misses go to DRAM.
    /// A transaction's lookup is counted once, in the cycle it leaves
    /// the input head. `dram_clock` is the DRAM domain as advanced
    /// through this cycle.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        dram_clock: &DomainClock,
        cfg: &GpuConfig,
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
            replies.push(txn);
        }

        // 2. Drain the DRAM retry queue while the channel accepts. Each
        // head outcome updates `retry_gate`: a pop exposes a fresh head
        // (gate unknown → next cycle); a refusal records the cycle the
        // head first fits while the channel is already at hand. A head
        // still behind its gate (something else woke the slice) is not
        // offered again: its channel cannot have dequeued yet.
        if self.retry_gate.is_some_and(|gate| cycle < gate) {
            debug_assert!(
                self.retry_head_blocked(txns, dram),
                "retry gate is late: the channel dequeued before it"
            );
        } else {
            while let Some(&txn) = self.dram_retry.front() {
                let t = txns.get(txn);
                let (ctrl, bank) = (u32::from(t.ctrl), u32::from(t.bank));
                if dram.try_enqueue_at(ctrl, bank, t.row, txn, t.is_store, dram_clock.cycle()) {
                    self.dram_retry.pop_front();
                    self.retry_gate = None;
                } else {
                    // The queue is full until the channel's next dequeue;
                    // the head fits in the core cycle that ticks it.
                    count(Counter::RefusedEnqueues);
                    let dequeue = dram.channel_next_dequeue(usize::from(t.ctrl));
                    self.retry_gate =
                        Some(cycle.saturating_add(dram_clock.core_cycles_until(dequeue)));
                    break;
                }
            }
        }

        // 3. Tag access: one transaction per cycle.
        let Some(&txn) = self.input.front() else {
            return;
        };
        if self.input_stalled {
            return;
        }
        let t = *txns.get(txn);
        count(Counter::TagAccesses);
        let hit = self.cache.lookup(t.line);
        if !hit && !t.is_store {
            match self.mshr.allocate(t.line, txn) {
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
        if t.is_store {
            // Write-through, no-allocate: a hit updates the line, and
            // either way the write goes on to DRAM.
            self.send_to_dram(txn);
        } else if hit {
            let _audit_pause =
                (self.hits.len() == self.hits.capacity()).then(valley_core::alloc_audit::pause);
            self.hits.push_back((cycle + cfg.llc_latency, txn));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Route, NO_WARP};
    use proptest::prelude::*;
    use valley_core::{AddressMapper, GddrMap, PhysAddr, SchemeKind};
    use valley_dram::DramConfig;

    /// The route of `line` under `mapper` — slice 0, the slice under test.
    fn route(mapper: &AddressMapper, dram: &DramSystem, line: u64) -> Route {
        let (ctrl, bank, row) = dram.decode(mapper.map(PhysAddr::new(line)));
        Route {
            slice: 0,
            ctrl: ctrl as u16,
            bank: bank as u16,
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
        let map = GddrMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
        let mut dram = DramSystem::new(std::sync::Arc::new(map), cfg.dram);
        let dram_clock = DomainClock::new(cfg.dram_per_core());
        let mut txns = TxnTable::new();
        let mut slice = LlcSlice::new(&cfg);
        let mut replies = Vec::new();
        let line = 0x4000;
        let to = route(&mapper, &dram, line);
        let [first, second] = [0, 1].map(|warp| txns.alloc(0, warp, false, line, to));
        slice.deliver(first, 0);
        slice.deliver(second, 0);
        for cycle in 0..4 {
            slice.tick(cycle, &dram_clock, &cfg, &mut dram, &txns, &mut replies);
        }
        assert!(slice.input_stalled, "the merge list holds one waiter");
        assert_eq!((slice.stats().hits, slice.stats().misses), (0, 1));

        slice.on_dram_completion(line, 4, &mut replies);
        assert_eq!(replies, [first]);
        slice.tick(4, &dram_clock, &cfg, &mut dram, &txns, &mut replies);
        assert!(slice.input.is_empty());
        assert_eq!((slice.stats().hits, slice.stats().misses), (1, 1));
    }

    // Random slice traffic: the incrementally-maintained next-event
    // cache must equal the recompute-from-scratch oracle after every
    // effective tick — including the DRAM back-pressure translation,
    // which is the term the incremental path avoids re-deriving.
    proptest! {
        #[test]
        fn incremental_next_event_matches_oracle(
            seed in 0u64..u64::MAX,
            txn_count in 1usize..60,
            burst in 1u64..6,
        ) {
            let cfg = GpuConfig::table1();
            let map = GddrMap::baseline();
            let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
            // A tiny queue so back-pressure (the retry-gate path) is hit
            // often, not only under saturation.
            let mut dram_cfg: DramConfig = cfg.dram;
            dram_cfg.queue_capacity = 4;
            let mut dram = DramSystem::new(std::sync::Arc::new(map), dram_cfg);
            let mut txns = TxnTable::new();
            let mut slice = LlcSlice::new(&cfg);
            let mut replies = Vec::new();
            let mut completions: Vec<valley_dram::DramCompletion> = Vec::new();

            let mut s = seed;
            let mut next_mix = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut pending = txn_count;
            let mut dram_clock = DomainClock::new(cfg.dram_per_core());
            for cycle in 0..6_000u64 {
                // DRAM domain, as the GPU loop drives it.
                for dram_cycle in dram_clock.advance() {
                    completions.clear();
                    dram.tick_evented(dram_cycle, &mut completions);
                    for c in &completions {
                        let t = txns.get(c.id);
                        if !t.is_store {
                            slice.on_dram_completion(t.line, cycle, &mut replies);
                        }
                    }
                }
                // Random delivery bursts (hot lines force MSHR merges and
                // stalls; random stores exercise the write-through path).
                if pending > 0 && next_mix() % 3 == 0 {
                    for _ in 0..burst.min(pending as u64) {
                        let r = next_mix();
                        let line = (r % 64) << 7;
                        let is_store = r % 5 == 0;
                        let to = route(&mapper, &dram, line);
                        let id = txns.alloc(0, if is_store { NO_WARP } else { 0 }, is_store, line, to);
                        slice.deliver(id, cycle);
                        pending -= 1;
                    }
                }
                if cycle >= slice.cached_next_event() {
                    slice.tick(cycle, &dram_clock, &cfg, &mut dram, &txns, &mut replies);
                    let incremental = slice.next_event_incremental(cycle + 1);
                    slice.cached_next = incremental;
                    let oracle = slice
                        .next_event_at_with_dram(cycle + 1, &txns, &dram, &dram_clock)
                        .unwrap_or(u64::MAX);
                    prop_assert_eq!(
                        incremental, oracle,
                        "cycle {}: incremental {} vs oracle {}", cycle, incremental, oracle
                    );
                    // The retry gate feeds the wake-gate subsystem
                    // through `cached_next`: a blocked DRAM hand-off
                    // must never gate in the past, and the slice's
                    // published gate can never sit beyond it.
                    if let Some(g) = slice.retry_gate() {
                        prop_assert!(g > cycle, "cycle {}: retry gate {} in the past", cycle, g);
                        prop_assert!(
                            incremental <= g,
                            "cycle {}: published gate {} ignores the blocked retry head at {}",
                            cycle, incremental, g
                        );
                    }
                }
                replies.clear();
                if pending == 0 && slice.is_idle() && !dram.is_busy() {
                    break;
                }
            }
            prop_assert!(pending == 0, "traffic never fully delivered");
        }
    }
}
