//! Wake gates: how the evented drive loop decides when a population of
//! units (SMs, LLC slices) can next do real work.
//!
//! A *wake gate* is a never-late lower bound: a gate over a unit
//! population is a cycle at or before the earliest cycle at which
//! ticking any of those units does real work. Two operations maintain
//! it exactly:
//!
//! * **walk rebuild** — a component walk that just ticked its units
//!   recomputes the gate as the minimum of their (exact) per-unit
//!   next-event caches;
//! * **out-of-band clamp** — an event produced outside the walk (a NoC
//!   delivery, a DRAM fill, a TB assignment) lowers the gate to the
//!   event's own cycle, never raising it.
//!
//! [`WakeGate`] packages that discipline; the loop keeps one gate per
//! population. Per-unit questions are answered on demand from component
//! state rather than mirrored into an index: the slices' DRAM
//! back-pressure `retry_gate` reads
//! [`DramSystem::channel_next_event`] for the one channel blocking it.
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
//! [`DramSystem::channel_next_event`]: valley_dram::DramSystem::channel_next_event

/// A never-late wake gate over a population of units (see the module
/// docs for the maintenance discipline). Starts at cycle 0: every unit
/// must be offered its first tick, matching the initial state of the
/// units' own next-event caches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WakeGate(u64);

impl WakeGate {
    pub(crate) fn new() -> Self {
        WakeGate(0)
    }

    /// The gate: no unit in the population does real work before this
    /// cycle.
    #[inline]
    pub(crate) fn get(self) -> u64 {
        self.0
    }

    /// Out-of-band clamp to "now or ever": deliveries, fills and
    /// assignments all force a tick on their own cycle, and the walk
    /// gate compares with `>=`.
    #[inline]
    pub(crate) fn wake_now(&mut self) {
        self.0 = 0;
    }

    /// Walk rebuild: the walk that just ticked every due unit publishes
    /// the exact minimum of the per-unit next-event caches.
    #[inline]
    pub(crate) fn rebuild(&mut self, min: u64) {
        self.0 = min;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_gate_admits_the_first_tick() {
        let g = WakeGate::new();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn rebuild_publishes_and_wake_now_clamps() {
        let mut g = WakeGate::new();
        g.rebuild(50);
        assert_eq!(g.get(), 50);
        g.wake_now();
        assert_eq!(g.get(), 0);
        g.rebuild(u64::MAX);
        assert_eq!(g.get(), u64::MAX, "an event-free population parks");
    }

    /// Model check of the maintenance discipline: drive a population of
    /// fake units through random walks and out-of-band events; the gate
    /// must stay a never-late lower bound on the units' true minimum,
    /// and be exact right after every walk.
    #[derive(Clone)]
    struct Unit {
        next: u64,
    }

    proptest! {
        #[test]
        fn gate_is_never_late_and_exact_after_walks(
            n in 1usize..16,
            ops in proptest::collection::vec((0usize..16, 0u64..64, any::<bool>()), 1..200),
        ) {
            let mut units = vec![Unit { next: 0 }; n];
            let mut gate = WakeGate::new();
            let mut cycle = 0u64;
            for &(u, v, walk) in &ops {
                if walk {
                    // A walk at `cycle`: due units tick and recompute
                    // their own caches (any future value); the gate is
                    // rebuilt from the true minimum.
                    if cycle >= gate.get() {
                        for (i, unit) in units.iter_mut().enumerate() {
                            if cycle >= unit.next {
                                unit.next = cycle + 1 + (v + i as u64) % 16;
                            }
                        }
                        let min = units.iter().map(|x| x.next).min().unwrap();
                        gate.rebuild(min);
                        prop_assert_eq!(gate.get(), min, "walk rebuild must be exact");
                    }
                    cycle += 1;
                } else {
                    // Out-of-band event: some unit becomes actionable at
                    // the current cycle.
                    units[u % n].next = cycle;
                    gate.wake_now();
                }
                let true_min = units.iter().map(|x| x.next).min().unwrap();
                prop_assert!(
                    gate.get() <= true_min,
                    "gate {} ran past the true minimum {} (a late gate skips work)",
                    gate.get(),
                    true_min
                );
            }
        }
    }
}
