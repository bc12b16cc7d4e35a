//! A complete DRAM memory system: one [`DramChannel`] per controller,
//! with addresses decoded through a [`DramMap`].

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::channel::{DramChannel, DramCompletion, DramRequest};
use crate::config::DramConfig;
use crate::stats::DramStats;
use std::sync::Arc;
use valley_core::{DramMap, PhysAddr};

/// A multi-controller DRAM system (4 GDDR5 channels in the baseline;
/// 64 vaults in the 3D-stacked configuration).
///
/// Addresses handed to [`DramSystem::try_enqueue`] must already be
/// *mapped* (post address-mapping-unit); the system only decodes them into
/// controller/bank/row coordinates.
///
/// # Examples
///
/// ```
/// use valley_core::DramMap;
/// use valley_dram::{DramConfig, DramSystem};
/// use valley_core::PhysAddr;
///
/// let mut sys = DramSystem::new(std::sync::Arc::new(DramMap::baseline()), DramConfig::gddr5());
/// assert!(sys.try_enqueue(PhysAddr::new(0x1234_5678 & 0x3fff_ffff), 1, false, 0));
/// let mut done = Vec::new();
/// for cycle in 0..200 {
///     sys.tick(cycle, &mut done, |now, next| now >= next);
/// }
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug)]
pub struct DramSystem {
    /// The address map: [`DramSystem::decode`] is the one place an
    /// address becomes DRAM coordinates.
    map: DramMap,
    /// One channel per controller of `map`, indexed by controller.
    channels: Vec<DramChannel>,
    /// Cached minimum of the channels' next-event cycles: lets a gated
    /// [`DramSystem::tick`] skip the whole per-channel walk on quiet
    /// cycles and makes [`DramSystem::cached_next_event`] O(1) instead of
    /// a scan — which matters at 64 stacked vaults.
    cached_min: u64,
}

impl DramSystem {
    /// Creates a system with one channel per controller of `map`, each
    /// with the map's banks. The system keeps its own copy of the map.
    ///
    /// # Panics
    ///
    /// Panics if the map has more than 64 banks per controller (see
    /// [`DramChannel::new`]).
    pub fn new(map: Arc<DramMap>, cfg: DramConfig) -> Self {
        let map = *map;
        let banks = map.banks_per_controller();
        let channels = (0..map.num_controllers())
            .map(|_| DramChannel::new(cfg, banks))
            .collect();
        DramSystem {
            map,
            channels,
            cached_min: 0,
        }
    }

    /// The number of controllers (channels/vaults).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The per-channel configuration.
    pub fn config(&self) -> &DramConfig {
        self.channels[0].config()
    }

    /// Decodes a mapped address into `(controller, bank, row)`, the
    /// coordinates [`DramSystem::try_enqueue_at`] takes. The simulator
    /// decodes once per transaction, at issue, and keeps the coordinates
    /// in its transaction record, so a back-pressured hand-off that
    /// retries for many cycles never decodes again.
    #[inline]
    pub fn decode(&self, addr: PhysAddr) -> (u32, u32, u32) {
        (
            self.map.controller_of(addr) as u32,
            self.map.bank_of(addr) as u32,
            self.map.row_of(addr) as u32,
        )
    }

    /// Attempts to enqueue a (mapped) transaction. Returns `false` if the
    /// target channel's queue is full.
    pub fn try_enqueue(&mut self, addr: PhysAddr, id: u64, is_write: bool, now: u64) -> bool {
        let (ctrl, bank, row) = self.decode(addr);
        self.try_enqueue_at(ctrl, bank, row, id, is_write, now)
    }

    /// [`DramSystem::try_enqueue`] with pre-decoded coordinates (see
    /// [`DramSystem::decode`]).
    pub fn try_enqueue_at(
        &mut self,
        ctrl: u32,
        bank: u32,
        row: u32,
        id: u64,
        is_write: bool,
        now: u64,
    ) -> bool {
        let req = DramRequest {
            id,
            bank: bank as usize,
            row: row as usize,
            is_write,
            arrival: now,
        };
        let ch = &mut self.channels[ctrl as usize];
        let ok = ch.try_enqueue(req);
        if ok {
            // The channel's next-event cache may have moved earlier.
            self.cached_min = self.cached_min.min(ch.cached_next_event());
        }
        ok
    }

    /// Advances the system to DRAM cycle `cycle`, pushing every channel's
    /// completions (tagged with the enqueue tokens) into `done`, which is
    /// *not* cleared. The system, then each channel, ticks only where the
    /// caller's gate `ticks(cycle, hint)` admits: at its hint under
    /// `|now, next| now >= next`, every cycle under `|_, _| true` — the
    /// same results, as a channel changes nothing below its hint.
    #[inline]
    pub fn tick(
        &mut self,
        cycle: u64,
        done: &mut Vec<DramCompletion>,
        ticks: impl Fn(u64, u64) -> bool,
    ) {
        if !ticks(cycle, self.cached_min) {
            return;
        }
        let mut min = u64::MAX;
        for ch in &mut self.channels {
            if ticks(cycle, ch.cached_next_event()) {
                ch.tick(cycle, done);
                debug_assert!(ch.cached_next_event() > cycle, "a hint in the past");
            }
            min = min.min(ch.cached_next_event());
        }
        self.cached_min = min;
    }

    /// [`DramSystem::tick`] under the hint gate. Kept because the frozen
    /// `dram.*` benchmark probe calls it.
    #[doc(hidden)]
    #[inline]
    pub fn tick_evented(&mut self, cycle: u64, done: &mut Vec<DramCompletion>) {
        self.tick(cycle, done, |now, next| now >= next);
    }

    /// The earliest cached next-event cycle over all channels
    /// (`u64::MAX` when every channel is empty), kept exact by
    /// [`DramSystem::tick`] and [`DramSystem::try_enqueue_at`].
    pub fn cached_next_event(&self) -> u64 {
        self.cached_min
    }

    /// Does nothing: a channel defers no counter. Kept because the frozen
    /// `dram.*` benchmark probe calls it.
    #[doc(hidden)]
    #[inline]
    pub fn flush_deferred(&mut self, _up_to: u64) {}

    /// Whether any channel has queued or in-flight work.
    pub fn is_busy(&self) -> bool {
        self.channels.iter().any(DramChannel::is_busy)
    }

    /// Number of channels with at least one outstanding request —
    /// the channel-level parallelism sample of Figure 14b.
    pub fn busy_channels(&self) -> usize {
        self.channels.iter().filter(|c| c.is_busy()).count()
    }

    /// Number of banks with at least one outstanding request, summed
    /// over all channels (an idle channel has none): over
    /// [`DramSystem::busy_channels`], the bank-level parallelism sample
    /// of Figure 14c.
    pub fn busy_banks(&self) -> usize {
        self.channels.iter().map(DramChannel::busy_banks).sum()
    }

    /// Statistics aggregated over all channels.
    pub fn total_stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for c in &self.channels {
            total.merge(&c.stats());
        }
        total
    }

    /// Read access to one channel by controller index (for tests,
    /// detailed metrics and the LLC's check for a free queue slot).
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[inline]
    pub fn channel(&self, ch: usize) -> &DramChannel {
        &self.channels[ch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valley_core::DramMap;

    fn sys() -> DramSystem {
        DramSystem::new(Arc::new(DramMap::baseline()), DramConfig::gddr5())
    }

    #[test]
    fn routes_by_channel_bits() {
        let mut s = sys();
        // Channel bits are 9..8 in the baseline map.
        for ch in 0..4u64 {
            assert!(s.try_enqueue(PhysAddr::new(ch << 8), ch, false, 0));
        }
        assert_eq!(s.busy_channels(), 4);
        let mut done = Vec::new();
        for c in 0..100 {
            s.tick(c, &mut done, |_, _| true);
        }
        assert_eq!(done.len(), 4);
        // All four channels saw exactly one read.
        for ch in 0..4 {
            assert_eq!(s.channel(ch).stats().reads, 1);
        }
    }

    #[test]
    fn aggregation_sums_channels() {
        let mut s = sys();
        for i in 0..8u64 {
            s.try_enqueue(PhysAddr::new(i << 8), i, i % 2 == 0, 0);
        }
        let mut done = Vec::new();
        for c in 0..300 {
            s.tick(c, &mut done, |_, _| true);
        }
        let total = s.total_stats();
        assert_eq!(total.accesses(), 8);
        assert_eq!(total.reads, 4);
        assert_eq!(total.writes, 4);
    }

    #[test]
    fn busy_banks_sum_over_channels_and_idle_ones_add_none() {
        let mut s = sys();
        // Two banks on channel 0, one on channel 1 (bits 13..10 are the
        // bank), channels 2 and 3 idle.
        s.try_enqueue(PhysAddr::new(0 << 10), 1, false, 0);
        s.try_enqueue(PhysAddr::new(1 << 10), 2, false, 0);
        s.try_enqueue(PhysAddr::new(1 << 8 | 2 << 10), 3, false, 0);
        assert_eq!(s.busy_channels(), 2);
        assert_eq!(s.busy_banks(), 3);
        assert_eq!(s.channel(2).busy_banks() + s.channel(3).busy_banks(), 0);
        let mut done = Vec::new();
        for c in 0..200 {
            s.tick(c, &mut done, |_, _| true);
        }
        assert_eq!(done.len(), 3);
        assert_eq!((s.busy_channels(), s.busy_banks()), (0, 0));
    }
}
