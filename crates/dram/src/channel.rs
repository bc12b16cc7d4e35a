//! A single DRAM channel: banks, open-page row buffers and an FR-FCFS
//! scheduler (Rixner et al.), as configured in Table I.
//!
//! Requests wait in **per-bank queues** in arrival order; a global sequence
//! number keeps the FR-FCFS order of one arrival-ordered queue. Each bank
//! caches its *hit*, the queue position of its oldest request to the open
//! row. Arbitration is **one pass over the banks with queued work**: a bank
//! that can take a command offers its front (its oldest request) and its
//! hit; the oldest hit wins, and without one the oldest front. The same
//! pass notes whether a second bank was ready and the earliest `ready_at`
//! of the rest, which is all the dequeue horizon needs. An issued request
//! was the oldest of its row from its position on, so the bank's new hit
//! is the first entry from there on to the now-open row.
//!
//! The banks with queued work are a `u64` bitmask walked by its set bits:
//! a variant that scanned every bank was slower on both ref-scale grids.
//! The choice is bit-identical to the plain scan of every bank and queue
//! prefix, [`DramChannel::pick_linear`], kept under `#[cfg(test)]` and
//! pinned by property tests on both shipped configurations.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::config::DramConfig;
use crate::stats::DramStats;
use std::collections::VecDeque;

/// A memory transaction presented to a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-assigned token returned on completion.
    pub id: u64,
    /// Bank index within the channel.
    pub bank: usize,
    /// DRAM row.
    pub row: usize,
    /// Whether this is a write (writes return a completion when the data
    /// is accepted; reads when the data burst finishes).
    pub is_write: bool,
    /// Arrival time in DRAM cycles (for latency accounting).
    pub arrival: u64,
}

/// A finished transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramCompletion {
    /// The token from the originating [`DramRequest`].
    pub id: u64,
    /// DRAM cycle at which the data burst completed.
    pub finish: u64,
    /// Whether the access was a write.
    pub is_write: bool,
}

/// How a column access found the row buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowBufferOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle; only an ACT was needed.
    Empty,
    /// A different row was open; PRE + ACT were needed.
    Conflict,
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<usize>,
    /// When the bank can accept its next column/PRE/ACT command.
    ready_at: u64,
    /// Time of the last ACT (for the tRAS constraint before PRE).
    act_at: u64,
    /// Transactions issued from this bank and not yet completed.
    inflight: u32,
    /// Position in this bank's queue of its oldest request to `open_row`.
    hit: Option<usize>,
}

/// A queued request plus its global arrival order.
#[derive(Clone, Copy, Debug)]
struct Queued {
    seq: u64,
    req: DramRequest,
}

/// What one arbitration pass found.
struct Arbitration {
    /// The FR-FCFS choice: bank and position within its queue.
    choice: Option<(usize, usize)>,
    /// Whether a bank other than the chosen one can accept a command.
    other_ready: bool,
    /// The earliest `ready_at` among queued banks that cannot accept a
    /// command yet (`u64::MAX` if none).
    next_ready: u64,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    finish: u64,
    id: u64,
    bank: usize,
    is_write: bool,
    arrival: u64,
}

/// One DRAM channel with FR-FCFS scheduling and an open-page policy.
///
/// Drive it with [`DramChannel::try_enqueue`] and advance time with
/// [`DramChannel::tick`] once per DRAM cycle; completions come back with
/// the caller's request tokens in a caller-provided buffer (the hot loop
/// is allocation-free).
///
/// # Examples
///
/// ```
/// use valley_dram::{DramChannel, DramConfig, DramRequest};
///
/// let mut ch = DramChannel::new(DramConfig::gddr5());
/// ch.try_enqueue(DramRequest { id: 1, bank: 0, row: 7, is_write: false, arrival: 0 });
/// let mut done = Vec::new();
/// for cycle in 0..200 {
///     ch.tick(cycle, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, 1);
/// ```
#[derive(Clone, Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Per-bank scheduling queues, each in arrival order (seqs strictly
    /// increasing front to back).
    queues: Vec<VecDeque<Queued>>,
    /// Bit `b` is set exactly when bank `b`'s queue is non-empty; the
    /// only banks `pick` walks.
    queued_banks: u64,
    /// Total requests across all per-bank queues.
    queued: usize,
    /// Banks with at least one outstanding (queued or in-flight) request,
    /// maintained incrementally for the Figure 14c sampling hot path.
    busy_bank_count: u32,
    /// Next global arrival sequence number.
    next_seq: u64,
    /// The exact next cycle at which [`DramChannel::tick`] does real
    /// work — the earlier of the next dequeue and the next retirement
    /// (`u64::MAX` = empty channel). Republished by every `tick`, lowered
    /// by [`DramChannel::try_enqueue`]; [`DramChannel::tick_evented`]
    /// no-ops below it.
    cached_next: u64,
    /// First cycle whose counter updates are still deferred.
    acct_from: u64,
    /// The cycle of the next **dequeue** — the first tick whose `pick`
    /// takes a request out of the scheduling queue (`u64::MAX` = nothing
    /// queued). Exact: `tick` republishes it after arbitration (the next
    /// cycle while another bank is ready, else the earliest `ready_at` of
    /// a queued bank) and [`DramChannel::try_enqueue`] lowers it like
    /// `cached_next`. It is the dequeue half of the channel's own
    /// wake-up, `cached_next`; a caller refused by a full queue watches
    /// [`DramChannel::queue_len`] instead.
    next_dequeue: u64,
    /// Issued-but-uncompleted transactions, in issue order. The shared
    /// data bus serializes bursts, so `finish` times are strictly
    /// increasing in issue order and the retire queue is a plain FIFO —
    /// no heap needed.
    inflight: VecDeque<InFlight>,
    /// Earliest cycle the next ACT may issue (tRRD).
    next_act_at: u64,
    /// Cycle at which the shared data bus becomes free.
    bus_free_at: u64,
    stats: DramStats,
}

impl DramChannel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 64 banks (the width of
    /// the `queued_banks` bitmask).
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.banks <= 64,
            "queued_banks is a u64 bitmask: at most 64 banks per channel"
        );
        DramChannel {
            banks: vec![Bank::default(); cfg.banks],
            // Sized for steady state (the whole channel holds at most
            // `queue_capacity` queued requests): fresh channels otherwise
            // pay a per-bank realloc ladder on every simulation run.
            queues: vec![VecDeque::with_capacity(16); cfg.banks],
            queued_banks: 0,
            queued: 0,
            busy_bank_count: 0,
            next_seq: 0,
            cached_next: 0,
            acct_from: 0,
            next_dequeue: u64::MAX,
            inflight: VecDeque::with_capacity(32),
            next_act_at: 0,
            bus_free_at: 0,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// The channel configuration.
    #[inline]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Attempts to append a request to the scheduling queue; returns
    /// `false` (back-pressure) when the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the request's bank index is out of range.
    pub fn try_enqueue(&mut self, req: DramRequest) -> bool {
        assert!(req.bank < self.cfg.banks, "bank index out of range");
        if self.queued >= self.cfg.queue_capacity {
            return false;
        }
        // Counter deferral (evented path): the cycles before this arrival
        // must be accounted with the channel's *pre-enqueue* busy state.
        self.flush_deferred(req.arrival);
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = req.bank;
        let was_empty = self.queues[b].is_empty();
        if was_empty && self.banks[b].inflight == 0 {
            self.busy_bank_count += 1;
        }
        // Queue growth is amortized pool growth toward the high-water
        // mark, not per-tick work; declare it to the allocation audit.
        let _audit_pause = (self.queues[b].len() == self.queues[b].capacity())
            .then(valley_core::alloc_audit::pause);
        self.queues[b].push_back(Queued { seq, req });
        self.queued += 1;
        self.queued_banks |= 1 << b;
        let bank = &mut self.banks[b];
        if bank.hit.is_none() && bank.open_row == Some(req.row) {
            bank.hit = Some(self.queues[b].len() - 1);
        }
        // Evented cache and dequeue horizon: the earliest cycle this
        // request could issue is when both it has arrived and its bank
        // can take a command — every other potential event was already
        // covered by what the last tick left behind, so both stay exact
        // without a rescan.
        let event = req.arrival.max(self.banks[b].ready_at);
        self.cached_next = self.cached_next.min(event);
        self.next_dequeue = self.next_dequeue.min(event);
        true
    }

    /// Number of queued (not yet scheduled) requests.
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// Whether any request is queued or in flight.
    pub fn is_busy(&self) -> bool {
        self.queued > 0 || !self.inflight.is_empty()
    }

    /// Number of distinct banks with at least one outstanding request —
    /// the paper's per-channel bank-level parallelism sample (Figure 14c).
    pub fn busy_banks(&self) -> usize {
        self.busy_bank_count as usize
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The cached next-event cycle maintained by
    /// [`DramChannel::tick_evented`] (`u64::MAX` = empty channel).
    #[inline]
    pub fn cached_next_event(&self) -> u64 {
        self.cached_next
    }

    /// Brings the per-cycle counters up to date with `up_to` (exclusive),
    /// accounting every not-yet-ticked cycle exactly as the dense loop
    /// would have: nothing retires or issues below the cached next event,
    /// so those ticks are pure counter updates. Call before reading
    /// [`DramChannel::stats`] when driving the channel through
    /// [`DramChannel::tick_evented`].
    pub fn flush_deferred(&mut self, up_to: u64) {
        if up_to > self.acct_from {
            let n = up_to - self.acct_from;
            self.stats.total_cycles += n;
            if self.is_busy() {
                self.stats.busy_cycles += n;
            }
            self.stats.data_bus_cycles += self.bus_free_at.saturating_sub(self.acct_from).min(n);
            self.acct_from = up_to;
        }
    }

    /// Event-gated [`DramChannel::tick`]: a no-op (with counters
    /// deferred) while the cached next-event cycle is in the future.
    /// Bit-identical to ticking densely every cycle.
    #[inline]
    pub fn tick_evented(&mut self, cycle: u64, done: &mut Vec<DramCompletion>) {
        if cycle < self.cached_next {
            return;
        }
        self.flush_deferred(cycle);
        self.tick(cycle, done);
        debug_assert!(self.cached_next > cycle, "tick left a hint in the past");
    }

    /// Advances the channel to DRAM cycle `cycle`: retires finished
    /// transactions into `done` (which is *not* cleared) and schedules at
    /// most one new column access (FR-FCFS: oldest row-hit first,
    /// otherwise oldest).
    pub fn tick(&mut self, cycle: u64, done: &mut Vec<DramCompletion>) {
        // Count this cycle unless an out-of-band flush (an enqueue whose
        // arrival stamp ran ahead of the tick cursor) already settled it.
        if cycle >= self.acct_from {
            self.stats.total_cycles += 1;
            self.acct_from = cycle + 1;
            if self.is_busy() {
                self.stats.busy_cycles += 1;
                if self.bus_free_at > cycle {
                    self.stats.data_bus_cycles += 1;
                }
            }
        }
        if self.queued == 0 && self.inflight.is_empty() {
            // Idle: nothing to retire or schedule (and the bus went free
            // no later than the last retired burst).
            debug_assert!(self.bus_free_at <= cycle);
            self.next_dequeue = u64::MAX;
            self.cached_next = u64::MAX;
            return;
        }

        while let Some(f) = self.inflight.front() {
            if f.finish > cycle {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "pop follows a successful front() peek in the same loop iteration; the deque cannot be empty"
            )]
            let f = self.inflight.pop_front().expect("peeked entry exists");
            self.banks[f.bank].inflight -= 1;
            if self.banks[f.bank].inflight == 0 && self.queues[f.bank].is_empty() {
                self.busy_bank_count -= 1;
            }
            self.stats.total_latency += f.finish.saturating_sub(f.arrival);
            done.push(DramCompletion {
                id: f.id,
                finish: f.finish,
                is_write: f.is_write,
            });
        }

        let arb = self.pick(cycle);
        let mut next_ready = arb.next_ready;
        if let Some((bank, idx)) = arb.choice {
            #[expect(
                clippy::expect_used,
                reason = "pick() returned this (bank, idx) against the same queues one statement earlier"
            )]
            let q = self.queues[bank]
                .remove(idx)
                .expect("picked index is valid");
            self.queued -= 1;
            self.issue(q.req, cycle);
            // The issued request was the oldest of its row at or after
            // `idx` (the open row's oldest on a hit, else the front), and
            // its row is now the open one.
            let queue = &self.queues[bank];
            self.banks[bank].hit = (idx..queue.len()).find(|&i| queue[i].req.row == q.req.row);
            if queue.is_empty() {
                self.queued_banks &= !(1 << bank);
            } else {
                next_ready = next_ready.min(self.banks[bank].ready_at);
            }
        }
        // Post-pick horizons: another ready bank issues at the very next
        // tick; otherwise the earliest queued bank's `ready_at` (the
        // just-issued one included) names the next dequeue.
        self.next_dequeue = if arb.other_ready {
            cycle + 1
        } else {
            next_ready
        };
        self.cached_next = self
            .inflight
            .front()
            .map_or(self.next_dequeue, |f| self.next_dequeue.min(f.finish));
    }

    /// FR-FCFS arbitration: among requests whose bank can accept a command
    /// this cycle, the oldest row-buffer hit (global arrival order), then
    /// the oldest request overall.
    fn pick(&self, cycle: u64) -> Arbitration {
        let mut best_hit: Option<(u64, usize, usize)> = None;
        let mut oldest_ready: Option<(u64, usize)> = None;
        let mut ready = 0u32;
        let mut next_ready = u64::MAX;
        let mut set = self.queued_banks;
        while set != 0 {
            let b = set.trailing_zeros() as usize;
            set &= set - 1;
            let bank = &self.banks[b];
            if bank.ready_at > cycle {
                next_ready = next_ready.min(bank.ready_at);
                continue;
            }
            ready += 1;
            let queue = &self.queues[b];
            let front = queue[0].seq;
            if oldest_ready.is_none_or(|(seq, _)| front < seq) {
                oldest_ready = Some((front, b));
            }
            if let Some(i) = bank.hit {
                let seq = queue[i].seq;
                if best_hit.is_none_or(|(s, _, _)| seq < s) {
                    best_hit = Some((seq, b, i));
                }
            }
        }
        Arbitration {
            choice: best_hit
                .map(|(_, b, i)| (b, i))
                .or(oldest_ready.map(|(_, b)| (b, 0))),
            other_ready: ready > 1,
            next_ready,
        }
    }

    /// Commits the command sequence for `req` starting no earlier than
    /// `cycle`, updating bank, bus and statistics state.
    fn issue(&mut self, req: DramRequest, cycle: u64) {
        let t = &self.cfg.timing;
        let bank = &mut self.banks[req.bank];
        let outcome = match bank.open_row {
            Some(r) if r == req.row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Empty,
        };

        // Column-command time, honoring per-outcome command chains.
        let mut col_at = match outcome {
            RowBufferOutcome::Hit => cycle.max(bank.ready_at),
            RowBufferOutcome::Empty => {
                let act_at = cycle.max(bank.ready_at).max(self.next_act_at);
                bank.act_at = act_at;
                self.next_act_at = act_at + t.trrd;
                self.stats.activates += 1;
                act_at + t.trcd
            }
            RowBufferOutcome::Conflict => {
                // PRE must respect tRAS from the prior ACT.
                let pre_at = cycle.max(bank.ready_at).max(bank.act_at + t.tras);
                let act_at = (pre_at + t.trp).max(self.next_act_at);
                bank.act_at = act_at;
                self.next_act_at = act_at + t.trrd;
                self.stats.precharges += 1;
                self.stats.activates += 1;
                act_at + t.trcd
            }
        };

        // The data burst must find the shared bus free.
        if col_at + t.cl < self.bus_free_at {
            col_at = self.bus_free_at - t.cl;
        }
        let data_start = col_at + t.cl;
        let data_end = data_start + t.tburst;
        self.bus_free_at = data_end;

        bank.open_row = Some(req.row);
        bank.ready_at = col_at + t.tccd;
        bank.inflight += 1;

        match outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::Empty => self.stats.row_empties += 1,
            RowBufferOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        debug_assert!(
            self.inflight.back().is_none_or(|f| f.finish < data_end),
            "bus serialization keeps retire order FIFO"
        );
        self.inflight.push_back(InFlight {
            finish: data_end,
            id: req.id,
            bank: req.bank,
            is_write: req.is_write,
            arrival: req.arrival,
        });
    }
}

#[cfg(test)]
impl DramChannel {
    /// The cycle of the next dequeue: the first tick at which
    /// [`DramChannel::queue_len`] drops (`u64::MAX` while nothing is
    /// queued) — what the horizon test pins.
    pub(crate) fn next_dequeue_at(&self) -> u64 {
        self.next_dequeue
    }

    /// The pre-index linear arbitration — scans every bank and every
    /// queue prefix — kept verbatim as the oracle the indexed
    /// [`DramChannel::pick`] is property-tested against.
    pub(crate) fn pick_linear(&self, cycle: u64) -> Option<(usize, usize)> {
        let mut best_hit: Option<(u64, usize, usize)> = None;
        let mut oldest_ready: Option<(u64, usize)> = None;
        for (b, (bank, queue)) in self.banks.iter().zip(&self.queues).enumerate() {
            let Some(front) = queue.front() else { continue };
            if bank.ready_at > cycle {
                continue;
            }
            if oldest_ready.is_none_or(|(seq, _)| front.seq < seq) {
                oldest_ready = Some((front.seq, b));
            }
            if let Some(open) = bank.open_row {
                if let Some((i, q)) = queue.iter().enumerate().find(|(_, q)| q.req.row == open) {
                    if best_hit.is_none_or(|(seq, _, _)| q.seq < seq) {
                        best_hit = Some((q.seq, b, i));
                    }
                }
            }
        }
        best_hit
            .map(|(_, b, i)| (b, i))
            .or(oldest_ready.map(|(_, b)| (b, 0)))
    }

    /// Checks every cached scheduling field (`hit`, `queued_banks` and
    /// the counters) against a recompute from the plain queues.
    pub(crate) fn assert_index_invariants(&self) {
        let mut total = 0;
        let mut busy = 0;
        let mut queued_banks = 0u64;
        for (b, (bank, queue)) in self.banks.iter().zip(&self.queues).enumerate() {
            total += queue.len();
            if !queue.is_empty() || bank.inflight > 0 {
                busy += 1;
            }
            if !queue.is_empty() {
                queued_banks |= 1 << b;
            }
            for w in queue.iter().zip(queue.iter().skip(1)) {
                assert!(w.0.seq < w.1.seq, "bank {b}: queue out of arrival order");
            }
            let hit = bank
                .open_row
                .and_then(|open| queue.iter().position(|q| q.req.row == open));
            assert_eq!(bank.hit, hit, "bank {b}: cached hit");
        }
        assert_eq!(self.queued_banks, queued_banks, "queued bank mask");
        assert_eq!(self.queued, total, "queued counter");
        assert_eq!(self.busy_bank_count as usize, busy, "busy bank counter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(DramConfig::gddr5())
    }

    fn run(ch: &mut DramChannel, from: u64, to: u64) -> Vec<DramCompletion> {
        let mut done = Vec::new();
        for c in from..to {
            ch.tick(c, &mut done);
        }
        done
    }

    fn req(id: u64, bank: usize, row: usize) -> DramRequest {
        DramRequest {
            id,
            bank,
            row,
            is_write: false,
            arrival: 0,
        }
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let mut ch = chan();
        assert!(ch.try_enqueue(req(1, 0, 5)));
        let done = run(&mut ch, 0, 100);
        assert_eq!(done.len(), 1);
        // Issued at cycle 0: ACT@0, col@12, data 24..28.
        assert_eq!(done[0].finish, 28);
        assert_eq!(ch.stats().activates, 1);
        assert_eq!(ch.stats().row_empties, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        // Same bank, same row twice vs same bank, two rows.
        let mut hit = chan();
        hit.try_enqueue(req(1, 0, 5));
        hit.try_enqueue(req(2, 0, 5));
        let hit_done = run(&mut hit, 0, 300);
        let mut conflict = chan();
        conflict.try_enqueue(req(1, 0, 5));
        conflict.try_enqueue(req(2, 0, 6));
        let conf_done = run(&mut conflict, 0, 300);
        assert!(hit_done[1].finish < conf_done[1].finish);
        assert_eq!(hit.stats().row_hits, 1);
        assert_eq!(conflict.stats().row_conflicts, 1);
        assert_eq!(conflict.stats().precharges, 1);
    }

    #[test]
    fn conflict_respects_tras() {
        let mut ch = chan();
        ch.try_enqueue(req(1, 0, 1));
        ch.try_enqueue(req(2, 0, 2));
        let done = run(&mut ch, 0, 300);
        // First: ACT@0..data@28. Second: PRE no earlier than ACT+tRAS=28,
        // ACT@40, col@52, data 64..68.
        assert_eq!(done[1].finish, 68);
    }

    #[test]
    fn banks_overlap_but_bus_serializes() {
        let mut ch = chan();
        for b in 0..4 {
            ch.try_enqueue(req(b as u64, b, 0));
        }
        let done = run(&mut ch, 0, 300);
        assert_eq!(done.len(), 4);
        // Bank-parallel ACTs (tRRD-spaced) overlap row activation, but each
        // data burst needs 4 exclusive bus cycles; bursts must not overlap.
        let mut finishes: Vec<u64> = done.iter().map(|d| d.finish).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(w[1] >= w[0] + 4, "bursts overlap: {finishes:?}");
        }
        // And the whole batch is much faster than 4 serialized misses.
        assert!(finishes[3] < 4 * 28);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut ch = chan();
        // Open row 1 in bank 0.
        ch.try_enqueue(req(1, 0, 1));
        let _ = run(&mut ch, 0, 40);
        // Now queue: old request to a different row, young request hitting
        // the open row. FR-FCFS must serve the hit first.
        ch.try_enqueue(DramRequest {
            id: 2,
            bank: 0,
            row: 9,
            is_write: false,
            arrival: 40,
        });
        ch.try_enqueue(DramRequest {
            id: 3,
            bank: 0,
            row: 1,
            is_write: false,
            arrival: 41,
        });
        let done = run(&mut ch, 40, 400);
        let order: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(order, vec![3, 2]);
    }

    #[test]
    fn fr_fcfs_oldest_hit_wins_across_banks() {
        let mut ch = chan();
        // Open row 1 in bank 0 and row 2 in bank 1.
        ch.try_enqueue(req(1, 0, 1));
        ch.try_enqueue(req(2, 1, 2));
        let _ = run(&mut ch, 0, 60);
        // Hits for both banks; the bank-1 hit arrived first and must win
        // the shared data bus.
        ch.try_enqueue(req(10, 1, 2));
        ch.try_enqueue(req(11, 0, 1));
        let done = run(&mut ch, 60, 400);
        let order: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(order, vec![10, 11]);
    }

    #[test]
    #[should_panic(expected = "queued_banks")]
    fn more_banks_than_the_queued_mask_holds_is_refused() {
        DramChannel::new(DramConfig {
            banks: 65,
            ..DramConfig::gddr5()
        });
    }

    #[test]
    fn queue_backpressure() {
        let mut ch = chan();
        let cap = ch.config().queue_capacity;
        for i in 0..cap {
            assert!(ch.try_enqueue(req(i as u64, 0, 0)));
        }
        assert!(!ch.try_enqueue(req(999, 0, 0)));
        assert_eq!(ch.queue_len(), cap);
    }

    #[test]
    fn busy_banks_counts_distinct() {
        let mut ch = chan();
        ch.try_enqueue(req(1, 3, 0));
        ch.try_enqueue(req(2, 3, 1));
        ch.try_enqueue(req(3, 7, 0));
        assert_eq!(ch.busy_banks(), 2);
        assert_eq!(ch.queue_len(), 3);
        assert!(ch.is_busy());
    }

    #[test]
    fn writes_counted_separately() {
        let mut ch = chan();
        ch.try_enqueue(DramRequest {
            id: 1,
            bank: 0,
            row: 0,
            is_write: true,
            arrival: 0,
        });
        let done = run(&mut ch, 0, 100);
        assert!(done[0].is_write);
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 0);
    }

    #[test]
    fn latency_accounting_uses_arrival() {
        let mut ch = chan();
        ch.try_enqueue(req(1, 0, 0));
        let _ = run(&mut ch, 0, 100);
        assert_eq!(ch.stats().total_latency, 28);
    }

    /// Issues every queued request of `ch` (ticking from `from`), checking
    /// the cached scheduling fields after each tick; returns the ids in
    /// issue order, which the FIFO retire queue preserves.
    fn drain_checked(ch: &mut DramChannel, from: u64) -> Vec<u64> {
        let mut done = Vec::new();
        for c in from..from + 1000 {
            ch.tick(c, &mut done);
            ch.assert_index_invariants();
        }
        assert!(!ch.is_busy());
        done.iter().map(|d| d.id).collect()
    }

    #[test]
    fn hit_from_mid_queue_hands_over_to_its_younger_row_mate() {
        let mut ch = chan();
        ch.try_enqueue(req(1, 0, 1));
        let _ = run(&mut ch, 0, 40);
        // Row 1 is open: 3 is the hit behind the older conflict 2, and 5
        // is the next request to row 1, behind another conflict.
        for (id, row) in [(2, 9), (3, 1), (4, 9), (5, 1)] {
            ch.try_enqueue(DramRequest {
                arrival: 40,
                ..req(id, 0, row)
            });
        }
        assert_eq!(ch.banks[0].hit, Some(1));
        ch.tick(40, &mut Vec::new());
        assert_eq!(ch.banks[0].hit, Some(2), "5 sits behind 2 and 4");
        assert_eq!(drain_checked(&mut ch, 41), vec![3, 5, 2, 4]);
    }

    #[test]
    fn conflict_act_makes_the_new_rows_oldest_the_hit() {
        let mut ch = chan();
        ch.try_enqueue(req(1, 0, 1));
        let _ = run(&mut ch, 0, 40);
        // No hit for open row 1: the front 2 issues with PRE + ACT to row
        // 2, whose next request 4 sits behind the front 3.
        for (id, row) in [(2, 2), (3, 3), (4, 2)] {
            ch.try_enqueue(DramRequest {
                arrival: 40,
                ..req(id, 0, row)
            });
        }
        assert_eq!(ch.banks[0].hit, None);
        ch.tick(40, &mut Vec::new());
        assert_eq!(ch.stats().row_conflicts, 1);
        assert_eq!(ch.banks[0].hit, Some(1), "4 sits behind 3");
        assert_eq!(drain_checked(&mut ch, 41), vec![2, 4, 3]);
    }

    #[test]
    fn idle_channel_reports_not_busy() {
        let mut ch = chan();
        let _ = run(&mut ch, 0, 10);
        assert!(!ch.is_busy());
        assert_eq!(ch.stats().busy_cycles, 0);
        assert_eq!(ch.stats().total_cycles, 10);
    }

    #[test]
    fn next_event_tracks_inflight_and_bank_readiness() {
        let mut ch = chan();
        let mut done = Vec::new();
        ch.tick_evented(0, &mut done);
        assert_eq!(ch.cached_next_event(), u64::MAX, "an empty channel parks");
        // Queued request, bank idle: the event is its arrival.
        ch.try_enqueue(DramRequest {
            arrival: 3,
            ..req(1, 0, 5)
        });
        assert_eq!(ch.cached_next_event(), 3);
        ch.tick_evented(3, &mut done);
        // Issued at 3 with nothing left queued: the hint names the
        // retirement cycle, and every tick before it is a no-op.
        let next = ch.cached_next_event();
        assert!(next > 4 && next < u64::MAX);
        for c in 4..next {
            ch.tick_evented(c, &mut done);
        }
        assert!(done.is_empty());
        ch.tick_evented(next, &mut done);
        assert_eq!(done.len(), 1, "the hinted cycle retires the request");
        assert_eq!(done[0].finish, next);
    }

    #[test]
    fn evented_ticks_match_dense_counters() {
        // Drive one request, then compare dense ticking vs evented
        // ticking with one flush over the quiet windows.
        let mut dense = chan();
        let mut evented = chan();
        dense.try_enqueue(req(1, 0, 5));
        evented.try_enqueue(req(1, 0, 5));
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        for c in 0..60 {
            dense.tick(c, &mut d1);
            evented.tick_evented(c, &mut d2);
        }
        assert_ne!(dense.stats(), evented.stats(), "the tail is deferred");
        evented.flush_deferred(60);
        assert_eq!(d1, d2);
        assert_eq!(dense.stats(), evented.stats());
    }

    mod indexed_pick_oracle {
        use super::*;
        use proptest::prelude::*;

        /// Drives a channel of each shipped configuration (GDDR5, and the
        /// stacked vault's 16-entry queue, 16-cycle bursts and DDR3-like
        /// timings) through randomized traffic (random banks, rows and
        /// arrival times), asserting before every tick that `pick`
        /// chooses exactly what the linear oracle would, and after every
        /// enqueue/tick (which covers issue and retire) that the cached
        /// hits and the queued-bank mask match a recompute from the plain
        /// queues.
        fn drive(reqs: &[(usize, usize, bool, u64)]) -> Result<(), TestCaseError> {
            for cfg in [DramConfig::gddr5(), DramConfig::stacked_vault()] {
                drive_one(cfg, reqs)?;
            }
            Ok(())
        }

        fn drive_one(
            cfg: DramConfig,
            reqs: &[(usize, usize, bool, u64)],
        ) -> Result<(), TestCaseError> {
            let mut ch = DramChannel::new(cfg);
            let mut reqs: Vec<(usize, usize, bool, u64)> = reqs.to_vec();
            reqs.sort_by_key(|r| r.3);
            let mut next = 0;
            let mut accepted = 0u64;
            let mut done = Vec::new();
            for cycle in 0..100_000u64 {
                while next < reqs.len() && reqs[next].3 <= cycle {
                    let (bank, row, is_write, arrival) = reqs[next];
                    if ch.try_enqueue(DramRequest {
                        id: next as u64,
                        bank,
                        row,
                        is_write,
                        arrival,
                    }) {
                        accepted += 1;
                    }
                    ch.assert_index_invariants();
                    next += 1;
                }
                let expected = ch.pick_linear(cycle);
                let actual = ch.pick(cycle).choice;
                prop_assert_eq!(actual, expected, "choice diverged at cycle {}", cycle);
                ch.tick(cycle, &mut done);
                ch.assert_index_invariants();
                if next == reqs.len() && !ch.is_busy() {
                    break;
                }
            }
            prop_assert_eq!(done.len() as u64, accepted, "requests lost");
            Ok(())
        }

        proptest! {
            #[test]
            fn fr_fcfs_matches_linear_oracle(
                reqs in proptest::collection::vec(
                    (0usize..16, 0usize..6, any::<bool>(), 0u64..400), 1..80)
            ) {
                drive(&reqs)?;
            }

            /// The dequeue horizon is exact: under random traffic into
            /// a four-entry queue (so it is full most of the time, the
            /// state a parked LLC slice waits in), the queue shrinks on
            /// exactly the cycles the channel named beforehand — on the
            /// dense path and on the evented one, which only ticks when
            /// its own hint (the horizon's minimum with the next
            /// retirement) says so.
            #[test]
            fn dequeue_horizon_is_the_cycle_the_queue_drops(
                reqs in proptest::collection::vec(
                    (0usize..16, 0usize..4, any::<bool>(), 0u64..6), 1..120),
                evented in any::<bool>(),
            ) {
                let mut cfg = DramConfig::gddr5();
                cfg.queue_capacity = 4;
                let mut ch = DramChannel::new(cfg);
                let mut done = Vec::new();
                let mut next = 0;
                let mut due = 0u64;
                for cycle in 0..100_000u64 {
                    // One attempt per cycle once the request's gap has
                    // elapsed; a refused request retries every cycle.
                    if next < reqs.len() && cycle >= due {
                        let (bank, row, is_write, gap) = reqs[next];
                        if ch.try_enqueue(DramRequest {
                            id: next as u64, bank, row, is_write, arrival: cycle,
                        }) {
                            next += 1;
                            due = cycle + gap;
                        }
                        ch.assert_index_invariants();
                    }
                    let horizon = ch.next_dequeue_at();
                    prop_assert!(horizon >= cycle, "cycle {}: horizon {} already passed", cycle, horizon);
                    prop_assert_eq!(horizon == u64::MAX, ch.queue_len() == 0);
                    let before = ch.queue_len();
                    if evented {
                        ch.tick_evented(cycle, &mut done);
                    } else {
                        ch.tick(cycle, &mut done);
                    }
                    ch.assert_index_invariants();
                    prop_assert_eq!(
                        ch.queue_len() < before, horizon == cycle,
                        "cycle {}: published dequeue at {}", cycle, horizon
                    );
                    if next == reqs.len() && !ch.is_busy() {
                        break;
                    }
                }
                prop_assert_eq!(done.len(), reqs.len(), "requests lost");
            }

            /// Hot single-bank traffic maximizes queue depth and the
            /// distance of a bank's hit from its front.
            #[test]
            fn hot_bank_matches_linear_oracle(
                reqs in proptest::collection::vec(
                    (0usize..2, 0usize..3, any::<bool>(), 0u64..100), 1..70)
            ) {
                drive(&reqs)?;
            }
        }
    }
}
