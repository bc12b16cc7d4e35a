//! A Streaming Multiprocessor: resident thread blocks, warps, the GTO warp
//! scheduler (2 issue slots), the memory coalescer, and the per-SM L1 data
//! cache with MSHRs.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::coalesce::coalesce_into;
use crate::config::GpuConfig;
use crate::trace::{Instruction, KernelSource, WarpProgram};
use crate::txn::{id_of, Route, TxnTable, NO_WARP};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use valley_cache::{CacheStats, MshrAllocation, MshrFile, SetAssocCache};
use valley_core::{AddressMapper, PhysAddr};

/// The GTO ready set: (age, warp slot) pairs kept sorted ascending. At
/// most [`GpuConfig::MAX_WARPS_PER_SM`] (48) entries, where a sorted
/// `Vec` beats a `BTreeSet` soundly (contiguous memory, no node
/// allocation) — these operations run per issue slot per SM per cycle.
#[derive(Default)]
struct ReadySet(Vec<(u64, u32)>);

impl ReadySet {
    #[inline]
    fn insert(&mut self, key: (u64, u32)) {
        if let Err(pos) = self.0.binary_search(&key) {
            self.0.insert(pos, key);
        }
    }

    #[inline]
    fn remove(&mut self, key: &(u64, u32)) {
        if let Ok(pos) = self.0.binary_search(key) {
            self.0.remove(pos);
        }
    }

    #[inline]
    fn contains(&self, key: &(u64, u32)) -> bool {
        self.0.binary_search(key).is_ok()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Ascending (age, slot) iteration — GTO's oldest-first order.
    #[inline]
    fn iter(&self) -> std::slice::Iter<'_, (u64, u32)> {
        self.0.iter()
    }
}

struct Warp {
    /// TB assignment time: GTO's "oldest" order (ties broken by slot).
    /// The scheduler gives every TB its own, so it also names the warp's
    /// TB.
    age: u64,
    program: Box<dyn WarpProgram>,
    /// Loads in flight. A warp waiting on one is not ready, so it never
    /// issues its end of stream with loads in flight: it retires in the
    /// tick that issues it.
    outstanding_loads: u32,
}

/// Per-SM issue and memory-path state. A resident thread block is the
/// warps that carry its age: it retires with the last of them.
pub(crate) struct Sm {
    id: u16,
    warps: Vec<Option<Warp>>,
    free_warp_slots: Vec<u32>,
    /// Warps able to issue, keyed by (age, slot) — GTO's oldest-first order.
    ready: ReadySet,
    /// Compute-stalled warps and their wake-up cycles.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    last_issued: Option<u32>,
    /// Coalesced transactions awaiting the L1 (LSU queue; 1/cycle).
    mem_queue: VecDeque<u32>,
    /// Reusable coalescing output (issue path, allocation-free).
    lines_buf: Vec<u64>,
    /// Reusable MSHR-waiter drain buffer (reply path, allocation-free):
    /// the waiters' transaction ids as the MSHR file's `u64` tokens.
    waiter_buf: Vec<u64>,
    l1: SetAssocCache,
    mshr: MshrFile,
    /// L1 hits in flight: (ready cycle, txn).
    hit_queue: VecDeque<(u64, u32)>,
    /// Thread blocks resident: the distinct ages among the warps.
    resident_tbs: usize,
    /// The LSU head is MSHR-stalled and no reply has arrived since —
    /// replies are the only events that free MSHRs or fill lines, so
    /// retries cost nothing: the head is looked up again once a reply
    /// clears this. Set by the stalled allocation, cleared by
    /// [`Sm::on_reply`].
    lsu_stalled: bool,
    /// The exact next core cycle at which [`Sm::tick`] does real work
    /// (`u64::MAX` = nothing locally schedulable); republished by every
    /// tick and lowered by TB assignment and by the replies that give the
    /// SM something to do (see `crate::wake`).
    cached_next: u64,
    /// First core cycle of the current busy span: the first tick that saw
    /// a resident warp since the SM last had none.
    busy_since: u64,
    // Statistics.
    warp_instructions: u64,
    /// Core cycles of the closed busy spans: ticks that saw a resident
    /// warp, counted when the last one retires.
    busy_cycles: u64,
}

impl Sm {
    pub(crate) fn new(id: u16, cfg: &GpuConfig) -> Self {
        Sm {
            id,
            warps: (0..GpuConfig::MAX_WARPS_PER_SM).map(|_| None).collect(),
            free_warp_slots: (0..GpuConfig::MAX_WARPS_PER_SM as u32).rev().collect(),
            ready: ReadySet::default(),
            wake: BinaryHeap::with_capacity(GpuConfig::MAX_WARPS_PER_SM),
            last_issued: None,
            mem_queue: VecDeque::with_capacity(64),
            lines_buf: Vec::with_capacity(32),
            waiter_buf: Vec::with_capacity(8),
            l1: SetAssocCache::new(GpuConfig::L1),
            mshr: MshrFile::new(cfg.l1_mshrs, GpuConfig::L1_MSHR_MERGES),
            hit_queue: VecDeque::with_capacity(32),
            resident_tbs: 0,
            lsu_stalled: false,
            cached_next: 0,
            busy_since: 0,
            warp_instructions: 0,
            busy_cycles: 0,
        }
    }

    /// Whether this SM can accept a TB of `warps_per_block` warps: one
    /// more stays within [`GpuConfig::tbs_per_sm`] and its warps fit.
    pub(crate) fn can_accept_tb(&self, warps_per_block: usize) -> bool {
        self.resident_tbs < GpuConfig::tbs_per_sm(warps_per_block)
            && self.free_warp_slots.len() >= warps_per_block
    }

    /// Thread blocks resident.
    #[inline]
    pub(crate) fn resident_tbs(&self) -> usize {
        self.resident_tbs
    }

    /// Assigns TB `tb` of `kernel`, creating its warps with age `age`,
    /// which no other resident TB has.
    /// `cycle` is the current core cycle: TB assignment happens after the
    /// SM phase, so an SM that had no warp starts a busy span at the next
    /// cycle's tick.
    pub(crate) fn assign_tb(&mut self, kernel: &dyn KernelSource, tb: u64, age: u64, cycle: u64) {
        // Workload input generation: `warp_program` builds and boxes each
        // warp's instruction stream (issue then only moves instructions
        // out of it). Declared to the allocation audit — this is the
        // workload handing the engine fresh input, not tick work.
        let _audit_pause = crate::alloc_audit::pause();
        if self.resident_warps() == 0 {
            self.busy_since = cycle + 1;
        }
        self.resident_tbs += 1;
        for w in 0..kernel.warps_per_block() {
            #[expect(
                clippy::expect_used,
                reason = "assign_tb is only called after can_accept_tb(); the free warp stack holds the TB by that check"
            )]
            let ws = self.free_warp_slots.pop().expect("caller checked capacity");
            self.warps[ws as usize] = Some(Warp {
                age,
                program: kernel.warp_program(tb, w),
                outstanding_loads: 0,
            });
            self.ready.insert((age, ws));
        }
        self.lower_cached_next(cycle + 1);
    }

    /// Warps resident: the warp slots not on the free stack.
    #[inline]
    fn resident_warps(&self) -> usize {
        GpuConfig::MAX_WARPS_PER_SM - self.free_warp_slots.len()
    }

    /// Whether the SM holds no warps and has no memory work in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.resident_warps() == 0
            && self.mem_queue.is_empty()
            && self.hit_queue.is_empty()
            && self.mshr.is_empty()
    }

    pub(crate) fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    pub(crate) fn warp_instructions(&self) -> u64 {
        self.warp_instructions
    }

    /// Core cycles before `end` whose tick saw a resident warp: the closed
    /// busy spans plus the open one, cut at `end` (the first cycle not
    /// ticked — the end of a run, truncated or not).
    pub(crate) fn busy_cycles(&self, end: u64) -> u64 {
        let open = if self.resident_warps() > 0 {
            end.saturating_sub(self.busy_since)
        } else {
            0
        };
        self.busy_cycles + open
    }

    /// The earliest core cycle at or after `now` at which [`Sm::tick`]
    /// would do real work (wake a warp, finish a hit, run the LSU or issue
    /// an instruction), or `u64::MAX` when only off-SM events (NoC
    /// replies) can make progress. Every tick before the returned cycle
    /// would change nothing.
    fn next_event_at(&self, now: u64) -> u64 {
        // A non-empty LSU queue is only an every-cycle event while it can
        // make progress; a stall-cached head does nothing until a reply.
        if (!self.mem_queue.is_empty() && !self.lsu_stalled) || !self.ready.is_empty() {
            return now;
        }
        let mut next = u64::MAX;
        if let Some(&Reverse((when, _))) = self.wake.peek() {
            next = when.max(now);
        }
        if let Some(&(ready, _)) = self.hit_queue.front() {
            next = next.min(ready.max(now));
        }
        next
    }

    /// The cached next-event cycle republished by [`Sm::tick`].
    #[inline]
    pub(crate) fn cached_next_event(&self) -> u64 {
        self.cached_next
    }

    /// Out-of-band wake at core cycle `now` (the first cycle not yet
    /// ticked): lowers the hint to what [`Sm::next_event_at`] says as of
    /// `now`, so a source that gave the SM nothing to do moves nothing.
    #[inline]
    fn lower_cached_next(&mut self, now: u64) {
        self.cached_next = self.cached_next.min(self.next_event_at(now));
    }

    /// Handles an LLC reply for `txn`: fills the L1 line and wakes every
    /// merged waiter, whose transactions end here. A reply readies warps
    /// but retires none.
    pub(crate) fn on_reply(&mut self, txn: u32, txns: &mut TxnTable, cycle: u64) {
        self.lsu_stalled = false;
        let line = txns.line(txn);
        self.l1.fill(line);
        let mut waiters = std::mem::take(&mut self.waiter_buf);
        waiters.clear();
        if self.mshr.complete_into(line, &mut waiters) {
            for &w in &waiters {
                self.complete_load(id_of(w), txns);
            }
        }
        waiters.clear();
        self.waiter_buf = waiters;
        // The SM is due this cycle only if a warp can issue (one just
        // became ready, or already was) or the LSU holds a head, which
        // the fill un-stalls. A reply that only counts down other waits
        // moves nothing.
        self.lower_cached_next(cycle);
    }

    /// A load transaction's data arrived (L1 hit latency elapsed, or
    /// the reply came back): the transaction ends and its warp counts it
    /// off, ready again once the last one is in.
    fn complete_load(&mut self, txn: u32, txns: &mut TxnTable) {
        let warp = txns.get(txn).warp;
        txns.release(txn);
        debug_assert_ne!(warp, NO_WARP, "stores never complete loads");
        let warp_idx = u32::from(warp);
        let Some(warp) = self.warps[warp_idx as usize].as_mut() else {
            return;
        };
        debug_assert!(warp.outstanding_loads > 0);
        warp.outstanding_loads -= 1;
        if warp.outstanding_loads == 0 {
            let age = warp.age;
            self.ready.insert((age, warp_idx));
        }
    }

    /// Retires warp `warp_idx` of the TB aged `age`; returns whether it
    /// was that TB's last, which no resident warp shares the age with.
    fn retire_warp(&mut self, warp_idx: u32, age: u64) -> bool {
        self.warps[warp_idx as usize] = None;
        self.free_warp_slots.push(warp_idx);
        let tb_done = !self.warps.iter().flatten().any(|w| w.age == age);
        self.resident_tbs -= usize::from(tb_done);
        tb_done
    }

    /// One core cycle: wake compute-stalled warps, finish L1 hits, run the
    /// LSU, and issue up to [`GpuConfig::ISSUE_WIDTH`] instructions via
    /// GTO. Returns the thread blocks retired, for the TB scheduler: only
    /// a tick retires one.
    /// The driving loop may skip the cycles below [`Sm::cached_next_event`],
    /// which the tick republishes for the next cycle.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        mapper: &AddressMapper,
        txns: &mut TxnTable,
        route: &dyn Fn(PhysAddr) -> Route,
        outbound: &mut Vec<u32>,
    ) -> u64 {
        let was_busy = self.resident_warps() > 0;

        // Wake compute-stalled warps.
        while let Some(&Reverse((when, w))) = self.wake.peek() {
            if when > cycle {
                break;
            }
            self.wake.pop();
            if let Some(warp) = self.warps[w as usize].as_ref() {
                self.ready.insert((warp.age, w));
            }
        }

        // L1 hit completions (FIFO: fixed latency).
        while let Some(&(ready, txn)) = self.hit_queue.front() {
            if ready > cycle {
                break;
            }
            self.hit_queue.pop_front();
            self.complete_load(txn, txns);
        }

        self.lsu_tick(cycle, mapper, txns, outbound);
        let retired = self.issue_tick(cycle, mapper, txns, route);
        if was_busy && self.resident_warps() == 0 {
            // The last warp retired: the busy span ends with this cycle.
            self.busy_cycles += cycle + 1 - self.busy_since;
        }
        self.cached_next = self.next_event_at(cycle + 1);
        retired
    }

    /// The load-store unit: one coalesced transaction per cycle through
    /// the L1. A load's lookup is counted once, in the cycle it leaves
    /// the queue head; stores pass through without one.
    fn lsu_tick(
        &mut self,
        cycle: u64,
        mapper: &AddressMapper,
        txns: &mut TxnTable,
        outbound: &mut Vec<u32>,
    ) {
        let Some(&txn) = self.mem_queue.front() else {
            return;
        };
        if self.lsu_stalled {
            return;
        }
        if txns.get(txn).is_store() {
            // Write-through, no-allocate: straight to the LLC, carrying data.
            self.mem_queue.pop_front();
            outbound.push(txn);
            return;
        }
        let line = txns.line(txn);
        let hit = self.l1.lookup(line);
        if hit {
            let lat = GpuConfig::L1_HIT_LATENCY + mapper.latency_cycles() as u64;
            self.hit_queue.push_back((cycle + lat, txn));
        } else {
            match self.mshr.allocate(line, u64::from(txn)) {
                MshrAllocation::NewEntry => outbound.push(txn),
                MshrAllocation::Merged => {}
                MshrAllocation::Stalled => {
                    // Head-of-line: resource stall. Cache the verdict — it
                    // cannot change until a reply frees an MSHR or fills
                    // the line — so retries cost nothing.
                    self.lsu_stalled = true;
                    return;
                }
            }
        }
        self.l1.count(hit);
        self.mem_queue.pop_front();
    }

    /// Warp issue: pick by GTO (Table I), up to
    /// [`GpuConfig::ISSUE_WIDTH`] distinct warps per cycle. Returns the
    /// thread blocks retired.
    fn issue_tick(
        &mut self,
        cycle: u64,
        mapper: &AddressMapper,
        txns: &mut TxnTable,
        route: &dyn Fn(PhysAddr) -> Route,
    ) -> u64 {
        // Stack buffer: this runs for every SM every cycle — no heap
        // traffic allowed here.
        let mut issued = [u32::MAX; GpuConfig::ISSUE_WIDTH];
        let mut retired = 0;
        for slot in 0..GpuConfig::ISSUE_WIDTH {
            let already = &issued[..slot];
            let Some(w) = self.pick_gto(already) else {
                break;
            };
            issued[slot] = w;
            retired += u64::from(self.issue_one(w, cycle, mapper, txns, route));
        }
        retired
    }

    /// GTO: greedily stick with the last-issued warp, otherwise the
    /// oldest ready warp.
    fn pick_gto(&self, already: &[u32]) -> Option<u32> {
        if let Some(last) = self.last_issued {
            if !already.contains(&last) {
                if let Some(warp) = self.warps[last as usize].as_ref() {
                    if self.ready.contains(&(warp.age, last)) {
                        return Some(last);
                    }
                }
            }
        }
        self.ready
            .iter()
            .map(|&(_, w)| w)
            .find(|w| !already.contains(w))
    }

    /// Issues warp `w`'s next instruction; true if that retired its TB.
    fn issue_one(
        &mut self,
        w: u32,
        cycle: u64,
        mapper: &AddressMapper,
        txns: &mut TxnTable,
        route: &dyn Fn(PhysAddr) -> Route,
    ) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "the ready set holds live warps only: a warp is removed from it before it retires and frees its slot"
        )]
        let warp = self.warps[w as usize]
            .as_mut()
            .expect("ready warps are live");
        let age = warp.age;
        self.last_issued = Some(w);
        match warp.program.next_instruction() {
            None => {
                debug_assert_eq!(warp.outstanding_loads, 0, "a ready warp waits on no load");
                self.ready.remove(&(age, w));
                return self.retire_warp(w, age);
            }
            Some(Instruction::Compute { cycles }) => {
                self.warp_instructions += 1;
                self.ready.remove(&(age, w));
                self.wake.push(Reverse((cycle + cycles.max(1) as u64, w)));
            }
            Some(Instruction::Load(lanes)) => {
                self.warp_instructions += 1;
                let mut lines = std::mem::take(&mut self.lines_buf);
                coalesce_into(&lanes, txns.line_bytes(), &mut lines);
                if lines.is_empty() {
                    // Degenerate empty access behaves like a 1-cycle op.
                    self.lines_buf = lines;
                    self.ready.remove(&(age, w));
                    self.wake.push(Reverse((cycle + 1, w)));
                    return false;
                }
                warp.outstanding_loads = lines.len() as u32;
                self.ready.remove(&(age, w));
                for &line in &lines {
                    let to = route(mapper.map(PhysAddr::new(line)));
                    let txn = txns.alloc(self.id, w as u16, line, to);
                    self.mem_queue.push_back(txn);
                }
                self.lines_buf = lines;
            }
            Some(Instruction::Store(lanes)) => {
                self.warp_instructions += 1;
                // Fire-and-forget: the warp stays ready.
                let mut lines = std::mem::take(&mut self.lines_buf);
                coalesce_into(&lanes, txns.line_bytes(), &mut lines);
                for &line in &lines {
                    let to = route(mapper.map(PhysAddr::new(line)));
                    let txn = txns.alloc(self.id, NO_WARP, line, to);
                    self.mem_queue.push_back(txn);
                }
                self.lines_buf = lines;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LaneAddrs;
    use valley_core::{DramMap, SchemeKind};

    /// Core cycles from an SM's request to its reply.
    const REPLY_LATENCY: u64 = 20;

    /// A warp replaying a fixed instruction list.
    struct Script(std::vec::IntoIter<Instruction>);

    impl WarpProgram for Script {
        fn next_instruction(&mut self) -> Option<Instruction> {
            self.0.next()
        }
    }

    /// A kernel whose every warp runs `program`; the driver below assigns
    /// its thread blocks by hand.
    struct Kernel {
        warps: usize,
        program: Vec<Instruction>,
    }

    impl KernelSource for Kernel {
        fn name(&self) -> String {
            "busy".into()
        }
        fn num_thread_blocks(&self) -> u64 {
            u64::MAX
        }
        fn warps_per_block(&self) -> usize {
            self.warps
        }
        fn warp_program(&self, _tb: u64, _warp: usize) -> Box<dyn WarpProgram> {
            Box::new(Script(self.program.clone().into_iter()))
        }
    }

    fn load(line: u64) -> Instruction {
        Instruction::Load(LaneAddrs::contiguous(line << 7, 32, 4))
    }

    /// The distinct ages among the resident warps: the TBs resident.
    fn ages_resident(sm: &Sm) -> usize {
        let mut ages: Vec<u64> = sm.warps.iter().flatten().map(|w| w.age).collect();
        ages.sort_unstable();
        ages.dedup();
        ages.len()
    }

    /// How often each residency edge occurred in a drive.
    #[derive(Debug, Default)]
    struct Edges {
        /// Checks made while a warp was resident: cuts mid-span.
        cuts_mid_span: u64,
        /// A tick retired the last warp.
        emptied_by_tick: u64,
        /// A TB landed in the cycle whose tick retired the last warp.
        assigned_as_emptied: u64,
    }

    /// Drives one SM by hand in the GPU loop's order — the cycle's replies
    /// land, the SM ticks, then TBs are assigned — until `tbs` thread
    /// blocks of `kernel` have drained. `assign(cycle, emptied)` says
    /// whether to assign the next TB after `cycle`'s tick (`emptied`: that
    /// tick retired the SM's last warp).
    ///
    /// The oracle counts the ticks that see a resident warp. Before and
    /// after every tick, the SM's busy cycles cut there must equal it. A
    /// reply never retires a warp: only a tick ends a busy span, and the
    /// ticks report every thread block retired, once. After every tick
    /// the SM's count of resident TBs is the distinct ages of its warps.
    fn drive(kernel: &Kernel, tbs: u64, assign: impl Fn(u64, bool) -> bool) -> Edges {
        let cfg = GpuConfig::table1();
        let map = DramMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
        let route = |_: PhysAddr| Route {
            slice: 0,
            ctrl: 0,
            bank: 0,
            row: 0,
        };
        let mut sm = Sm::new(0, &cfg);
        let mut txns = TxnTable::new(cfg.line_bytes);
        let mut outbound = Vec::new();
        let mut replies: VecDeque<(u64, u32)> = VecDeque::new();
        let (mut assigned, mut retired, mut ticked_busy) = (0, 0, 0);
        let mut edges = Edges::default();
        for cycle in 0..10_000 {
            while let Some(&(at, txn)) = replies.front() {
                if at > cycle {
                    break;
                }
                replies.pop_front();
                let resident = sm.resident_warps();
                sm.on_reply(txn, &mut txns, cycle);
                assert_eq!(sm.resident_warps(), resident, "a reply retired a warp");
            }
            assert_eq!(
                sm.busy_cycles(cycle),
                ticked_busy,
                "cut at {cycle}, before its tick"
            );
            edges.cuts_mid_span += u64::from(sm.resident_warps() > 0);

            let was_busy = sm.resident_warps() > 0;
            ticked_busy += u64::from(was_busy);
            retired += sm.tick(cycle, &mapper, &mut txns, &route, &mut outbound);
            assert_eq!(sm.resident_tbs(), ages_resident(&sm), "cycle {cycle}");
            let emptied = was_busy && sm.resident_warps() == 0;
            edges.emptied_by_tick += u64::from(emptied);
            for txn in outbound.drain(..) {
                if txns.get(txn).is_store() {
                    txns.release(txn);
                } else {
                    replies.push_back((cycle + REPLY_LATENCY, txn));
                }
            }
            if assigned < tbs && assign(cycle, emptied) {
                assert!(sm.can_accept_tb(kernel.warps));
                sm.assign_tb(kernel, assigned, assigned, cycle);
                assigned += 1;
                edges.assigned_as_emptied += u64::from(emptied);
            }
            assert_eq!(
                sm.busy_cycles(cycle + 1),
                ticked_busy,
                "cut at {}",
                cycle + 1
            );

            if assigned == tbs && sm.is_idle() && replies.is_empty() {
                assert_eq!(txns.live(), 0);
                assert_eq!(retired, tbs, "thread blocks reported retired");
                return edges;
            }
        }
        panic!("the SM never drained");
    }

    /// Overlapping TBs, an idle gap and a late TB: the cut falls inside
    /// busy spans and idle gaps alike, and the last warp of each span
    /// retires in a tick (it issues its end of stream there).
    #[test]
    fn busy_cycles_match_the_ticks_that_see_a_warp_at_every_cut() {
        let kernel = Kernel {
            warps: 2,
            program: vec![
                Instruction::Compute { cycles: 3 },
                load(1),
                Instruction::Compute { cycles: 2 },
                load(1),
                Instruction::Store(LaneAddrs::contiguous(1 << 12, 32, 4)),
                load(2),
                Instruction::Compute { cycles: 5 },
            ],
        };
        let edges = drive(&kernel, 3, |c, _| [0, 4, 400].contains(&c));
        assert!(edges.cuts_mid_span > 0, "{edges:?}");
        assert_eq!(edges.emptied_by_tick, 2, "{edges:?}");
    }

    /// A TB assigned in the cycle whose tick retired the SM's last warp:
    /// that cycle was busy, the next is the first of a new span.
    #[test]
    fn a_tb_assigned_as_the_sm_empties_starts_the_next_cycle() {
        let kernel = Kernel {
            warps: 1,
            program: vec![load(3), Instruction::Compute { cycles: 1 }],
        };
        let edges = drive(&kernel, 3, |c, emptied| c == 0 || emptied);
        assert_eq!(edges.assigned_as_emptied, 2, "{edges:?}");
        assert_eq!(edges.emptied_by_tick, 3, "{edges:?}");
    }

    /// A warp whose last instruction is a load is ready again when the
    /// reply lands and retires in that cycle's tick, issuing its end of
    /// stream: the span ends with that tick, never at the reply. The
    /// second TB's loads hit the filled L1, so its warps are readied
    /// from the hit pipeline instead.
    #[test]
    fn a_warp_ending_in_a_load_retires_in_the_tick_after_its_reply() {
        let kernel = Kernel {
            warps: 2,
            program: vec![load(4), load(5)],
        };
        let edges = drive(&kernel, 2, |c, _| [0, 100].contains(&c));
        assert_eq!(edges.emptied_by_tick, 2, "{edges:?}");
    }
}
