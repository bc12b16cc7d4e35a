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
//! skipping none. Either stops at a cut and resumes from it
//! ([`GpuSim::run_to`], [`GpuSim::run_dense_to`]): the gates are part of
//! the state the simulator keeps between calls.
//!
//! # Wake sources and their horizons
//!
//! | unit | gated by | woken by | horizon |
//! |------|----------|----------|---------|
//! | [`DramChannel`] | [`DramSystem::tick`], through the loop's gate | its own tick | the earlier of the next *dequeue* (next cycle while a bank is ready, else the earliest `ready_at` of a bank with queued work) and the next retirement |
//! | | | an accepted enqueue | lowered to `max(arrival, bank ready_at)` when the bank was empty |
//! | [`Crossbar`] | the NoC phase of the drive loop | its own tick, an injection into an idle port | the next packet *delivery*: `max(previous delivery + 1, injected_at + router_latency) + flits - 1` — one event per packet, none per flit |
//! | LLC slice | the slice walk and its gate, `slices_next` | its own tick | next cycle while the input head can be looked up; else the front of the hit pipeline (its DRAM queue is the hand-off's) |
//! | | | a request delivery | the delivery's cycle — unless the input head is MSHR-stalled, when a packet queued behind it changes nothing |
//! | | | a DRAM fill | the fill's cycle when it un-stalls a waiting input head; else nothing (the replies leave directly) |
//! | DRAM hand-off | the drive loop's pass over every slice's DRAM queue, in index order, head first while the head's channel has a free slot | a DRAM phase that ran; a slice tick that gave its DRAM queue a new head, through the gate `handoff_next` | that cycle for a DRAM phase, the next cycle for a new head: a head that waits has a full channel and only a dequeue frees a slot, so no try is ever refused; work queued behind a head waits for that head |
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
//! Clock domains are exact integer ratios of the core clock
//! ([`DomainClock`]): Table I clocks every domain in whole megahertz, and
//! core cycle `c` ticks the domain cycles `c·mhz/1400 .. (c+1)·mhz/1400`
//! (floor division). Domain time is a function of core time, so the loop
//! carries no clock state, and the fast-forward is one jump to the
//! earliest of the core-domain gate and the first core cycle that ticks
//! the NoC's or the DRAM system's hint ([`DomainClock::first_past`]).
//! What a NoC or DRAM event does to the core domain — a freed DRAM slot
//! included — the loop learns by looking after that domain's phase.
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
//! [`GpuSim::run_to`]: crate::GpuSim::run_to
//! [`GpuSim::run_dense_to`]: crate::GpuSim::run_dense_to
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

use crate::config::GpuConfig;
use std::ops::Range;

/// A second clock domain (NoC, DRAM) counted in core cycles: `mhz`
/// domain cycles per [`GpuConfig::CORE_CLOCK_MHZ`] core cycles, exactly.
/// Immutable: where a domain stands is a function of the core cycle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DomainClock {
    mhz: u64,
}

impl DomainClock {
    /// A domain clocked at `mhz` (at least 1; [`GpuSim::new`] checks).
    ///
    /// [`GpuSim::new`]: crate::GpuSim::new
    pub(crate) const fn new(mhz: u64) -> Self {
        DomainClock { mhz }
    }

    /// The domain cycles core cycles `0..core` ticked; the next one to
    /// tick.
    #[inline]
    pub(crate) fn at(self, core: u64) -> u64 {
        core * self.mhz / GpuConfig::CORE_CLOCK_MHZ
    }

    /// The domain cycles core cycle `core` ticks (none or one while the
    /// domain is slower than the core).
    #[inline]
    pub(crate) fn ticked_in(self, core: u64) -> Range<u64> {
        self.at(core)..self.at(core + 1)
    }

    /// The first core cycle that ticks domain cycle `next` or a later
    /// one: the least `c` with `at(c + 1) > next`, that is
    /// `ceil((next + 1)·1400 / mhz) − 1`. `u64::MAX` where `(next +
    /// 1)·1400` overflows: no run that [`GpuSim::new`] accepts reaches
    /// such a domain cycle before [`GpuSim::CYCLE_CEILING`], the latest
    /// cut [`GpuSim::run_to`] takes.
    ///
    /// [`GpuSim::new`]: crate::GpuSim::new
    /// [`GpuSim::CYCLE_CEILING`]: crate::GpuSim::CYCLE_CEILING
    /// [`GpuSim::run_to`]: crate::GpuSim::run_to
    #[inline]
    pub(crate) fn first_past(self, next: u64) -> u64 {
        next.checked_add(1)
            .and_then(|n| n.checked_mul(GpuConfig::CORE_CLOCK_MHZ))
            .map_or(u64::MAX, |t| t.div_ceil(self.mhz) - 1)
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
        /// TB-scheduler passes the loop's gate let through.
        SchedulerPasses,
    }

    #[cfg(feature = "wake-audit")]
    thread_local! {
        static COUNTS: [std::cell::Cell<u64>; 7] = Default::default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Core cycles `0..c` tick the domain cycles `0..at(c)` once
        /// each, in order, and `first_past` is the first core cycle whose
        /// range reaches past a domain cycle — for clocks faster and
        /// slower than the core.
        #[test]
        fn ticked_ranges_tile_domain_time(mhz in 1u64..=5_000, core in 0u64..3_000, next in 0u64..2_000) {
            let clock = DomainClock::new(mhz);
            let mut end = 0;
            for c in 0..core {
                let r = clock.ticked_in(c);
                prop_assert_eq!(r.start, end, "gap or overlap at core cycle {}", c);
                prop_assert!(r.end >= r.start);
                end = r.end;
            }
            prop_assert_eq!(end, clock.at(core));
            let scan = (0..).find(|&c| clock.ticked_in(c).end > next).unwrap();
            prop_assert_eq!(clock.first_past(next), scan, "{} MHz, domain cycle {}", mhz, next);
        }
    }

    /// The stacked vaults' 1250 MHz ticks exactly 25 DRAM cycles per 28
    /// core cycles, from cycle 0 on; an accumulated `1.25 / 1.4` drifts
    /// off that schedule at core cycle 27.
    #[test]
    fn the_stacked_dram_clock_ticks_25_cycles_per_28() {
        let clock = DomainClock::new(1_250);
        for c in 0..300_000u64 {
            assert_eq!(clock.at(c), c * 25 / 28, "core cycle {c}");
        }
        assert_eq!(
            clock.ticked_in(27),
            24..25,
            "the 25th cycle ticks in core cycle 27"
        );
        assert_eq!(clock.first_past(u64::MAX), u64::MAX);
    }
}
