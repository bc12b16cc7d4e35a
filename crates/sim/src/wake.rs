//! Wake-up discipline of the drive loop: when is a unit next ticked,
//! and who says so.
//!
//! **The rule: a hint is the exact cycle of the unit's next state
//! change.** Not a lower bound that is merely never late — a unit woken
//! before its state can change burns a tick that does nothing, and in
//! the regime the paper is about (a few saturated channels backing up
//! into the LLC and the NoC) those futile ticks were most of the loop.
//! Every unit publishes `cached_next_event()`; ticking it below that
//! cycle is a no-op by construction, and ticking it *at* that cycle
//! changes something.
//!
//! Every unit — SM, LLC slice, DRAM channel, crossbar, TB scheduler —
//! has one `tick`, which republishes the hint before it returns; the
//! loop that drives the population gates it. There is one drive loop
//! and one gate, `ticks(now, hint)`: [`GpuSim::run`] passes `now >=
//! hint`, and the dense reference [`GpuSim::run_dense`] is the same loop
//! with the gate open (`true`), ticking every unit every cycle and
//! skipping none.
//!
//! # Wake sources and their horizons
//!
//! | unit | gated by | woken by | horizon |
//! |------|----------|----------|---------|
//! | [`DramChannel`] | [`DramSystem::tick`], through the loop's gate | its own tick | the earlier of the next *dequeue* (next cycle while a bank is ready, else the earliest `ready_at` of a bank with queued work) and the next retirement |
//! | | | an accepted enqueue | lowered to `max(arrival, bank ready_at)` when the bank was empty |
//! | [`Crossbar`] | the NoC phase of the drive loop | its own tick, an injection into an idle port | the next packet *delivery*: `max(previous delivery + 1, injected_at + router_latency) + flits - 1` — one event per packet, none per flit |
//! | LLC slice | the slice walk and its gate, `slices_next` | its own tick | next cycle while the input head can be looked up or an unparked DRAM-retry head waits; else the front of the hit pipeline |
//! | | | a refused DRAM enqueue | none: a refused DRAM enqueue parks the slice on that channel; a parked head publishes no wake-up and is not re-attempted, whatever else wakes the slice |
//! | | | a free slot in its channel | that cycle: a free slot in its channel unparks it — after a DRAM phase that ran, the drive loop asks every slice for the channel it is parked on; the open gate retries a parked head every cycle instead, which is the oracle for this unpark |
//! | | | a request delivery | the delivery's cycle — unless the input head is MSHR-stalled, when a packet queued behind it changes nothing |
//! | | | a DRAM fill | the fill's cycle when it un-stalls a waiting input head; else nothing (the replies leave directly) |
//! | SM | the SM walk and its gate, `sms_next` | its own tick | next cycle while a warp can issue or the LSU head can move; else the earlier of the compute wake-up heap and the L1 hit pipeline |
//! | | | a reply | the reply's cycle if a warp became ready or the LSU queue is non-empty (the fill un-stalls its head); else nothing |
//! | | | a TB assignment | the cycle after the assignment |
//! | TB scheduler | the drive loop's gate | a TB retirement, reported by the SM tick; a finished kernel, by its own pass | that cycle for a retirement, which alone frees room or finishes a kernel (a reply retires no warp); the next cycle for a finished kernel, to load the next one if any; else none — a pass assigns until no SM has room |
//!
//! Below its hint a unit owes nothing. No unit defers a counter: the SM
//! counts its busy cycles when its first warp lands and when its last
//! one retires, a stalled queue head counts nothing, and its lookup is
//! counted once, in the cycle it leaves the head.
//!
//! A walk's gate is a `u64`, the minimum of one population's hints, so
//! the loop skips the whole walk — and its fast-forward reads the
//! core-domain horizon in O(1) — while nothing in it is due. It starts
//! at 0, offering every unit its first tick. The walk that ticked the
//! units sets it to the exact minimum of their fresh hints, and every
//! out-of-band source above lowers it with `min` to the unit's own
//! fresh hint; a source that leaves the unit's hint alone leaves the
//! gate alone.
//!
//! Clock domains advance through [`DomainClock`], which owns the
//! accumulator arithmetic the dense loop performs: the run loop's
//! per-cycle advance and the fast-forward's skip replay the same float
//! operations, so they cannot drift apart (and `run() == run_dense()`
//! stays exact). No horizon is translated between domains: the loop
//! stops its fast-forward at any NoC or DRAM event and learns of the
//! rest — a freed DRAM slot included — by looking after that domain's
//! phase.
//!
//! # Why gates are scalars
//!
//! The first cut mirrored every unit's next-event cache into a per-unit
//! gate array with an incrementally-maintained minimum (a lazy
//! min-heap, then a dirty-tracked rescan). Measured on the Ref-scale
//! smoke slice it lost 10–25% end-to-end: wake gates move *every
//! effective cycle* during busy phases (unlike, say, DRAM bank
//! readiness, which moves per command), so the per-unit mirror writes
//! dominated the drive loop — and nothing ever read an individual
//! mirrored gate, only the minima the walks already compute.
//!
//! [`DramChannel`]: valley_dram::DramChannel
//! [`DramSystem::tick`]: valley_dram::DramSystem::tick
//! [`GpuSim::run`]: crate::GpuSim::run
//! [`GpuSim::run_dense`]: crate::GpuSim::run_dense
//! [`Crossbar`]: valley_noc::Crossbar

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::ops::Range;

/// A second clock domain (NoC, DRAM) counted in core cycles: the
/// fractional accumulator, the next domain cycle to tick and the clock
/// ratio. One core cycle adds the ratio and ticks the domain once per
/// whole unit accumulated — by repeated subtraction of 1.0, *not*
/// `fract`/`floor`, whose float rounding differs — exactly as the dense
/// loop always has.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DomainClock {
    acc: f64,
    cycle: u64,
    per_core: f64,
}

impl DomainClock {
    /// A clock at domain cycle 0 that runs `per_core` domain cycles per
    /// core cycle.
    pub(crate) fn new(per_core: f64) -> Self {
        DomainClock {
            acc: 0.0,
            cycle: 0,
            per_core,
        }
    }

    /// The next domain cycle to tick.
    #[inline]
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// One core cycle elapses: returns the domain cycles to tick in it
    /// (usually none or one), leaving [`DomainClock::cycle`] past them.
    #[inline]
    pub(crate) fn advance(&mut self) -> Range<u64> {
        let start = self.cycle;
        self.acc += self.per_core;
        while self.acc >= 1.0 {
            self.acc -= 1.0;
            self.cycle += 1;
        }
        start..self.cycle
    }
}

/// Wake-efficiency counters for `tests/wake_efficiency.rs` (feature
/// `wake-audit`, test builds only — never part of a [`SimReport`]).
/// Per thread: a simulation runs on the thread that called it, so
/// concurrent tests do not see each other. Without the feature the
/// crate-private `count` hook is an empty inline body.
///
/// [`SimReport`]: crate::SimReport
pub mod audit {
    /// What the loop and the LLC slices count, in both loops; only
    /// runs under the hint gate are read.
    #[derive(Clone, Copy, Debug)]
    pub enum Counter {
        /// Iterations of the drive loop.
        Iterations,
        /// Iterations in which no unit was due: no NoC or DRAM event, no
        /// slice or SM walk, no TB-scheduler pass.
        IdleIterations,
        /// Slice walks / SM walks the gates let through.
        SliceWalks,
        /// See [`Counter::SliceWalks`].
        SmWalks,
        /// Slice ticks that passed the slice's own gate.
        SliceTicks,
        /// LLC tag lookups (stall replays are not lookups).
        TagAccesses,
        /// DRAM enqueue attempts refused by a full channel queue.
        RefusedEnqueues,
        /// TB-scheduler passes the loop's gate let through.
        SchedulerPasses,
    }

    #[cfg(feature = "wake-audit")]
    thread_local! {
        static COUNTS: [std::cell::Cell<u64>; 8] = Default::default();
    }

    /// Adds one to `counter` on this thread.
    #[inline]
    pub(crate) fn count(counter: Counter) {
        #[cfg(feature = "wake-audit")]
        COUNTS.with(|c| {
            let cell = &c[counter as usize];
            cell.set(cell.get() + 1);
        });
        #[cfg(not(feature = "wake-audit"))]
        let _ = counter;
    }

    /// Reads and zeroes this thread's `counter`.
    #[cfg(feature = "wake-audit")]
    pub fn take(counter: Counter) -> u64 {
        COUNTS.with(|c| c[counter as usize].replace(0))
    }
}
