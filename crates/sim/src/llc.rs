//! An LLC slice: tag array, MSHRs and the DRAM hand-off.
//!
//! The LLC is partitioned into 8 slices across the 4 memory controllers
//! (Table I); the slice index is derived from the *mapped* address, so
//! address mapping directly controls LLC-level parallelism (Figure 14a).
//!
//! Two write policies are supported (see
//! [`LlcWritePolicy`](crate::LlcWritePolicy)): write-through/no-allocate
//! (default) and write-back/write-validate, whose dirty evictions
//! generate their own DRAM writebacks.

use crate::config::{GpuConfig, LlcWritePolicy};
use crate::txn::{TxnTable, NO_WARP};
use std::collections::VecDeque;
use valley_cache::{CacheStats, MshrAllocation, MshrFile, SetAssocCache};
use valley_core::{AddressMapper, PhysAddr};
use valley_dram::DramSystem;

/// One LLC slice (64 KB, 8-way in the baseline; 120-cycle latency).
pub(crate) struct LlcSlice {
    /// This slice's index (needed to tag self-generated writeback txns).
    id: u16,
    cache: SetAssocCache,
    mshr: MshrFile,
    /// Transactions delivered by the NoC awaiting tag access.
    input: VecDeque<u64>,
    /// Hits in flight: (ready cycle, txn).
    hits: VecDeque<(u64, u64)>,
    /// Transactions waiting for a free DRAM queue slot.
    dram_retry: VecDeque<u64>,
    /// First core cycle whose stall-retry miss counter is still deferred.
    acct_from: u64,
    /// When `Some(v)`: the input head is MSHR-stalled and nothing that
    /// could unblock it has happened since version `v` (DRAM completions
    /// are the only events that free this slice's MSHRs or fill lines).
    input_stall: Option<u64>,
    /// Version counter for `input_stall`, incremented per completion.
    fill_version: u64,
    /// Cached earliest core cycle at which [`LlcSlice::tick`] does real
    /// work (`u64::MAX` = nothing locally schedulable); maintained by
    /// [`LlcSlice::tick_evented`] and invalidated by deliveries and DRAM
    /// completions.
    cached_next: u64,
    /// `Some(gate)` while the DRAM-retry head is known to be
    /// back-pressured: the head cannot enqueue before core cycle `gate`
    /// (the channel-event translation the last failed attempt computed).
    /// `None` means the head — if any — has not been attempted since it
    /// became the head and gates at the next cycle. Maintained by
    /// [`LlcSlice::tick`] step 2, so [`LlcSlice::tick_evented`] updates
    /// `cached_next` from this delta instead of re-deriving the gate
    /// through the transaction table and the DRAM channel on every
    /// effective tick (the recompute was ~10% of an MT/PAE run).
    retry_gate: Option<u64>,
}

impl LlcSlice {
    pub(crate) fn new(id: u16, cfg: &GpuConfig) -> Self {
        LlcSlice {
            id,
            cache: SetAssocCache::new(cfg.llc_slice),
            mshr: MshrFile::new(cfg.llc_mshrs, cfg.llc_mshr_merges),
            // Steady-state sized up front: every simulation run builds
            // fresh slices, and letting the queues grow from zero pays a
            // doubling-realloc ladder per run, per slice.
            input: VecDeque::with_capacity(64),
            hits: VecDeque::with_capacity(32),
            dram_retry: VecDeque::with_capacity(32),
            acct_from: 0,
            input_stall: None,
            fill_version: 0,
            cached_next: 0,
            retry_gate: None,
        }
    }

    /// Accepts a transaction delivered by the request NoC.
    pub(crate) fn deliver(&mut self, txn: u64) {
        let _audit_pause =
            (self.input.len() == self.input.capacity()).then(valley_core::alloc_audit::pause);
        self.input.push_back(txn);
        self.cached_next = 0;
    }

    /// Outstanding requests in this slice (the Figure 14a busy criterion).
    pub(crate) fn outstanding(&self) -> usize {
        self.input.len() + self.hits.len() + self.dram_retry.len() + self.mshr.len()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The earliest core cycle at or after `now` at which
    /// [`LlcSlice::tick`] would do real work, or `None` when the slice can
    /// only progress through off-slice events (DRAM completions filling
    /// MSHRs). Ticks before that cycle are no-ops.
    /// `next_event_at` with visibility into the DRAM system: a slice
    /// whose only pending work is a back-pressured DRAM hand-off cannot
    /// progress before the target channel's next event (channel queues
    /// drain only on channel ticks), so the gate extends to a
    /// conservative core-cycle translation of that event.
    ///
    /// This is the recompute-from-scratch **oracle**: the hot path
    /// ([`LlcSlice::tick_evented`]) maintains the same value
    /// incrementally from the hit-queue/retry-head deltas of the tick it
    /// just ran (see [`LlcSlice::next_event_incremental`]); a property
    /// test pins the two against each other.
    pub(crate) fn next_event_at_with_dram(
        &self,
        now: u64,
        txns: &TxnTable,
        dram: &DramSystem,
        dram_now: u64,
    ) -> Option<u64> {
        if !self.input.is_empty() && !self.input_stalled_now() {
            return Some(now);
        }
        let mut next: Option<u64> = None;
        if let Some(&txn) = self.dram_retry.front() {
            let at = match txns.get(txn).coords {
                // The head was already decoded, so at least one enqueue
                // attempt failed; the channel queue must drain first.
                Some((ctrl, _, _)) => {
                    let ch = dram.channel(ctrl as usize);
                    if ch.queue_len() < ch.config().queue_capacity {
                        now
                    } else {
                        let cn = dram.channel_next_event(ctrl as usize);
                        if cn == u64::MAX || cn <= dram_now {
                            now
                        } else {
                            // `d` DRAM cycles take at least `d` core
                            // cycles (the DRAM clock is never faster than
                            // the core clock in any supported config) —
                            // an early, never-late estimate.
                            now + (cn - dram_now)
                        }
                    }
                }
                None => now,
            };
            if at == now {
                return Some(now);
            }
            next = Some(at);
        }
        if let Some(&(ready, _)) = self.hits.front() {
            let at = ready.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Whether the input head is known to be MSHR-stalled with nothing
    /// having happened that could unblock it.
    #[inline]
    fn input_stalled_now(&self) -> bool {
        self.input_stall == Some(self.fill_version)
    }

    /// Replays the deferred one-retry-miss-per-cycle accounting for
    /// elided stalled cycles up to `up_to` (exclusive).
    pub(crate) fn flush_stall(&mut self, up_to: u64) {
        if up_to > self.acct_from {
            if self.input_stalled_now() {
                self.cache.record_retry_misses(up_to - self.acct_from);
            }
            self.acct_from = up_to;
        }
    }

    /// Creates a DRAM writeback transaction for a dirty victim line.
    fn emit_writeback(&mut self, victim: u64, txns: &mut TxnTable, mapper: &AddressMapper) {
        let mapped = mapper.map(PhysAddr::new(victim));
        let wb = txns.alloc(0, NO_WARP, true, victim, mapped, self.id);
        let _audit_pause = (self.dram_retry.len() == self.dram_retry.capacity())
            .then(valley_core::alloc_audit::pause);
        self.dram_retry.push_back(wb);
    }

    /// A DRAM read completed: fill the line and emit replies for every
    /// merged waiter into `replies`. A dirty victim (write-back policy)
    /// becomes a DRAM writeback.
    pub(crate) fn on_dram_completion(
        &mut self,
        txn: u64,
        cycle: u64,
        txns: &mut TxnTable,
        mapper: &AddressMapper,
        replies: &mut Vec<u64>,
    ) {
        // Settle the deferred stall accounting before the fill makes the
        // stall verdict stale (the elided cycles were stalled ones).
        self.flush_stall(cycle);
        self.cached_next = 0;
        self.fill_version += 1;
        let line = txns.get(txn).line;
        if let Some(ev) = self.cache.fill_with(line, false) {
            if ev.dirty {
                self.emit_writeback(ev.line, txns, mapper);
            }
        }
        self.mshr.complete_into(line, replies);
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

    /// The post-tick `cached_next` value, derived incrementally: the
    /// input-head and hit-queue terms are O(1) peeks, and the DRAM
    /// back-pressure term reuses the gate [`LlcSlice::tick`] step 2 just
    /// computed (while it already held the channel) instead of
    /// re-deriving it through the transaction table and the channel's
    /// event cache. Must equal
    /// `next_event_at_with_dram(cycle + 1, ..)` at every effective-tick
    /// boundary — pinned by the `retry_gate` property test.
    #[inline]
    fn next_event_incremental(&self, cycle: u64) -> u64 {
        let now = cycle + 1;
        if !self.input.is_empty() && !self.input_stalled_now() {
            return now;
        }
        let mut next = u64::MAX;
        if !self.dram_retry.is_empty() {
            // A blocked head gates at the channel-event translation its
            // failed attempt computed; a fresh (unattempted) head gates
            // at the next cycle, like the oracle's undecoded branch.
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick_evented(
        &mut self,
        cycle: u64,
        dram_now: u64,
        cfg: &GpuConfig,
        dram: &mut DramSystem,
        txns: &mut TxnTable,
        mapper: &AddressMapper,
        replies: &mut Vec<u64>,
    ) {
        if cycle < self.cached_next {
            return;
        }
        self.flush_stall(cycle);
        self.tick(cycle, dram_now, cfg, dram, txns, mapper, replies);
        self.cached_next = self.next_event_incremental(cycle);
        debug_assert_eq!(
            self.cached_next,
            self.next_event_at_with_dram(cycle + 1, txns, dram, dram_now)
                .unwrap_or(u64::MAX),
            "incremental next-event diverged from the recompute oracle"
        );
    }

    /// One core cycle: complete hits, retry DRAM hand-offs, process one
    /// new transaction. Load hits produce replies; misses go to DRAM.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        dram_now: u64,
        cfg: &GpuConfig,
        dram: &mut DramSystem,
        txns: &mut TxnTable,
        mapper: &AddressMapper,
        replies: &mut Vec<u64>,
    ) {
        debug_assert!(cycle >= self.acct_from, "ticking an already-counted cycle");
        self.acct_from = cycle + 1;
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
        // (gate unknown → next cycle); a failure records the blocked
        // head's exact resume bound while the channel is already at hand.
        while let Some(&txn) = self.dram_retry.front() {
            let t = txns.get_mut(txn);
            let (ctrl, bank, row) = match t.coords {
                Some(c) => c,
                None => {
                    let c = dram.decode(t.mapped);
                    t.coords = Some(c);
                    c
                }
            };
            if dram.try_enqueue_at(ctrl, bank, row, txn, t.is_store, dram_now) {
                self.dram_retry.pop_front();
                self.retry_gate = None;
            } else {
                // The queue is full; it cannot drain before the channel's
                // next event. `d` DRAM cycles take at least `d` core
                // cycles (the DRAM clock is never faster than the core
                // clock in any supported config) — an early, never-late
                // translation, identical to the recompute oracle's.
                let cn = dram.channel_next_event(ctrl as usize);
                self.retry_gate = Some(if cn <= dram_now {
                    cycle + 1
                } else {
                    cycle + 1 + (cn - dram_now)
                });
                break;
            }
        }

        // 3. Tag access: one transaction per cycle.
        let Some(&txn) = self.input.front() else {
            return;
        };
        if let Some(v) = self.input_stall {
            if v == self.fill_version {
                // Still MSHR-stalled: replay the probe's miss counter
                // (the dense retry would probe, miss and stall again).
                self.cache.record_retry_miss();
                return;
            }
            self.input_stall = None;
        }
        let t = *txns.get(txn);
        if self.cache.probe(t.line) {
            self.input.pop_front();
            if t.is_store {
                match cfg.llc_write_policy {
                    LlcWritePolicy::WriteThrough => {
                        // Update the line, forward the write.
                        let _audit_pause = (self.dram_retry.len() == self.dram_retry.capacity())
                            .then(valley_core::alloc_audit::pause);
                        self.dram_retry.push_back(txn);
                    }
                    LlcWritePolicy::WriteBack => {
                        self.cache.mark_dirty(t.line);
                    }
                }
            } else {
                let _audit_pause =
                    (self.hits.len() == self.hits.capacity()).then(valley_core::alloc_audit::pause);
                self.hits.push_back((cycle + cfg.llc_latency, txn));
            }
            return;
        }
        if t.is_store {
            self.input.pop_front();
            match cfg.llc_write_policy {
                LlcWritePolicy::WriteThrough => {
                    // Write no-allocate: straight to DRAM.
                    let _audit_pause = (self.dram_retry.len() == self.dram_retry.capacity())
                        .then(valley_core::alloc_audit::pause);
                    self.dram_retry.push_back(txn);
                }
                LlcWritePolicy::WriteBack => {
                    // Write-validate allocation: install dirty, no fetch.
                    if let Some(ev) = self.cache.fill_with(t.line, true) {
                        if ev.dirty {
                            self.emit_writeback(ev.line, txns, mapper);
                        }
                    }
                }
            }
            return;
        }
        match self.mshr.allocate(t.line, txn) {
            MshrAllocation::NewEntry => {
                self.input.pop_front();
                let _audit_pause = (self.dram_retry.len() == self.dram_retry.capacity())
                    .then(valley_core::alloc_audit::pause);
                self.dram_retry.push_back(txn);
            }
            MshrAllocation::Merged => {
                self.input.pop_front();
            }
            MshrAllocation::Stalled => {
                // Head-of-line stall: cache the verdict until the next
                // DRAM completion, so retries cost one counter update.
                self.input_stall = Some(self.fill_version);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::NO_WARP;
    use proptest::prelude::*;
    use valley_core::{GddrMap, SchemeKind};
    use valley_dram::DramConfig;

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
            let mut slice = LlcSlice::new(0, &cfg);
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
            let dram_per_core = cfg.dram_per_core();
            let mut dram_acc = 0.0f64;
            let mut dram_cycle = 0u64;
            for cycle in 0..6_000u64 {
                // DRAM domain, as the GPU loop drives it.
                dram_acc += dram_per_core;
                while dram_acc >= 1.0 {
                    dram_acc -= 1.0;
                    completions.clear();
                    dram.tick_evented(dram_cycle, &mut completions);
                    for c in &completions {
                        if !txns.get(c.id).is_store {
                            slice.on_dram_completion(c.id, cycle, &mut txns, &mapper, &mut replies);
                        }
                    }
                    dram_cycle += 1;
                }
                // Random delivery bursts (hot lines force MSHR merges and
                // stalls; random stores exercise the write-through path).
                if pending > 0 && next_mix() % 3 == 0 {
                    for _ in 0..burst.min(pending as u64) {
                        let r = next_mix();
                        let line = (r % 64) << 7;
                        let is_store = r % 5 == 0;
                        let mapped = mapper.map(valley_core::PhysAddr::new(line));
                        let id = txns.alloc(0, if is_store { NO_WARP } else { 0 }, is_store, line, mapped, 0);
                        slice.deliver(id);
                        pending -= 1;
                    }
                }
                if cycle >= slice.cached_next_event() {
                    slice.flush_stall(cycle);
                    slice.tick(cycle, dram_cycle, &cfg, &mut dram, &mut txns, &mapper, &mut replies);
                    let incremental = slice.next_event_incremental(cycle);
                    slice.cached_next = incremental;
                    let oracle = slice
                        .next_event_at_with_dram(cycle + 1, &txns, &dram, dram_cycle)
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
