//! Property-based tests for the crossbar: packet conservation, per-port
//! FIFO ordering and latency bounds under arbitrary traffic, and the
//! packet calendar against a flit-stepped reference.

use proptest::prelude::*;
use std::collections::VecDeque;
use valley_noc::{Crossbar, Delivery, NocStats, Packet};

/// The crossbar as Table I describes it, stepped flit by flit: every
/// occupied output port moves one flit of its head packet per cycle once
/// the router pipeline has been traversed, and delivers the packet with
/// its last flit. It shares no code with [`Crossbar`]'s calendar.
struct FlitStepped {
    router_latency: u64,
    /// Per output port: queued packets, the front one in service.
    ports: Vec<VecDeque<Packet>>,
    /// Flits left of each port's head packet (0 = not started).
    in_service: Vec<u32>,
    stats: NocStats,
}

impl FlitStepped {
    fn new(num_dst: usize, router_latency: u64) -> Self {
        FlitStepped {
            router_latency,
            ports: vec![VecDeque::new(); num_dst],
            in_service: vec![0; num_dst],
            stats: NocStats::default(),
        }
    }

    fn inject(&mut self, pkt: Packet) {
        self.ports[pkt.dst].push_back(pkt);
    }

    fn tick(&mut self, cycle: u64, done: &mut Vec<Delivery>) {
        for dst in 0..self.ports.len() {
            let Some(head) = self.ports[dst].front() else {
                continue;
            };
            if cycle < head.injected_at + self.router_latency {
                continue;
            }
            if self.in_service[dst] == 0 {
                self.in_service[dst] = head.flits;
            }
            self.in_service[dst] -= 1;
            if self.in_service[dst] == 0 {
                let pkt = self.ports[dst].pop_front().unwrap();
                let latency = cycle + 1 - pkt.injected_at;
                self.stats.delivered += 1;
                self.stats.total_latency += latency;
                self.stats.flits += u64::from(pkt.flits);
                done.push(Delivery {
                    payload: pkt.payload,
                    dst,
                    latency,
                });
            }
        }
    }

    fn queued_packets(&self) -> usize {
        self.ports.iter().map(VecDeque::len).sum()
    }
}

fn drain(xbar: &mut Crossbar, expected: usize) -> Vec<(u64, usize, u64)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut cycle = 0u64;
    while out.len() < expected {
        buf.clear();
        xbar.tick(cycle, &mut buf);
        for d in &buf {
            out.push((d.payload, d.dst, d.latency));
        }
        cycle += 1;
        assert!(cycle < 1_000_000, "NoC made no progress");
    }
    out
}

proptest! {
    /// Every injected packet is delivered exactly once, to its own
    /// destination.
    #[test]
    fn conservation(pkts in proptest::collection::vec((0usize..12, 0usize..8, 1u32..6), 1..80)) {
        let mut xbar = Crossbar::new(12, 8, 4);
        for (i, &(src, dst, flits)) in pkts.iter().enumerate() {
            xbar.inject(Packet {
                payload: i as u64,
                src,
                dst,
                flits,
                injected_at: 0,
            });
        }
        let out = drain(&mut xbar, pkts.len());
        let mut ids: Vec<u64> = out.iter().map(|&(p, _, _)| p).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..pkts.len() as u64).collect::<Vec<_>>());
        for &(p, dst, _) in &out {
            prop_assert_eq!(dst, pkts[p as usize].1);
        }
        prop_assert!(!xbar.is_busy());
        prop_assert_eq!(xbar.stats().delivered, pkts.len() as u64);
    }

    /// Packets to the same output port arrive in injection order (FIFO).
    #[test]
    fn per_port_fifo(pkts in proptest::collection::vec((0usize..12, 1u32..6), 2..60)) {
        let mut xbar = Crossbar::new(12, 4, 2);
        for (i, &(src, flits)) in pkts.iter().enumerate() {
            xbar.inject(Packet {
                payload: i as u64,
                src,
                dst: 1,
                flits,
                injected_at: 0,
            });
        }
        let out = drain(&mut xbar, pkts.len());
        let order: Vec<u64> = out.iter().map(|&(p, _, _)| p).collect();
        let sorted: Vec<u64> = (0..pkts.len() as u64).collect();
        prop_assert_eq!(order, sorted);
    }

    /// Latency is at least router latency + flit count, and total flits
    /// moved equals the sum of packet sizes.
    #[test]
    fn latency_and_flit_accounting(pkts in proptest::collection::vec((0usize..8, 0usize..8, 1u32..6), 1..50)) {
        let router = 3u64;
        let mut xbar = Crossbar::new(8, 8, router);
        let mut total_flits = 0u64;
        for (i, &(src, dst, flits)) in pkts.iter().enumerate() {
            total_flits += flits as u64;
            xbar.inject(Packet {
                payload: i as u64,
                src,
                dst,
                flits,
                injected_at: 0,
            });
        }
        let out = drain(&mut xbar, pkts.len());
        for &(p, _, lat) in &out {
            let flits = pkts[p as usize].2 as u64;
            prop_assert!(lat >= router + flits, "packet {p}: latency {lat} < {router}+{flits}");
        }
        prop_assert_eq!(xbar.stats().flits, total_flits);
    }

    /// The calendar delivers exactly what the flit-stepped reference
    /// delivers — same packets, same cycles, same order — under
    /// arbitrary staggered injection schedules, and the statistics agree
    /// after every cycle (so usually mid-packet on some port). It does so
    /// ticked every cycle, as the dense loop drives it, and ticked only
    /// at its `cached_next_event()`, as the evented loop does.
    #[test]
    fn evented_is_bit_identical_to_dense(
        pkts in proptest::collection::vec((0usize..12, 0usize..8, 1u32..6, 0u64..60), 1..60),
        latency in 0u64..5,
    ) {
        let mut pkts = pkts.clone();
        pkts.sort_by_key(|p| p.3);
        let mut reference = FlitStepped::new(8, latency);
        let mut dense = Crossbar::new(12, 8, latency);
        let mut gated = Crossbar::new(12, 8, latency);
        let (mut want, mut d1, mut d2) = (Vec::new(), Vec::new(), Vec::new());
        let mut next = 0;
        let horizon = 600u64;
        for cycle in 0..horizon {
            // The simulator's discipline: injections carry the next NoC
            // cycle to tick as their timestamp.
            while next < pkts.len() && pkts[next].3 <= cycle {
                let (src, dst, flits, _) = pkts[next];
                let pkt = Packet { payload: next as u64, src, dst, flits, injected_at: cycle };
                reference.inject(pkt);
                dense.inject(pkt);
                gated.inject(pkt);
                next += 1;
            }
            reference.tick(cycle, &mut want);
            dense.tick(cycle, &mut d1);
            if cycle >= gated.cached_next_event() {
                gated.tick(cycle, &mut d2);
            }
            prop_assert_eq!(&want, &d1, "every-cycle ticks diverged at cycle {}", cycle);
            prop_assert_eq!(&want, &d2, "gated ticks diverged at cycle {}", cycle);
            prop_assert_eq!(reference.stats, dense.stats(), "run cut off after cycle {}", cycle);
            prop_assert_eq!(reference.stats, gated.stats(), "run cut off after cycle {}", cycle);
        }
        prop_assert_eq!(reference.queued_packets(), dense.queued_packets());
        prop_assert_eq!(reference.queued_packets(), gated.queued_packets());
    }

    /// What the drive loop's gate relies on: a tick at any cycle below
    /// `cached_next_event()` delivers nothing and leaves `stats()` and
    /// the hint unchanged, and a tick at the hint delivers.
    #[test]
    fn a_tick_below_the_hint_changes_nothing(
        pkts in proptest::collection::vec((0usize..12, 0usize..8, 1u32..6, 0u64..60), 1..60),
        latency in 0u64..5,
        probe in 0u64..1_000,
    ) {
        let mut pkts = pkts.clone();
        pkts.sort_by_key(|p| p.3);
        let mut xbar = Crossbar::new(12, 8, latency);
        let mut done = Vec::new();
        let mut next = 0;
        for cycle in 0..600u64 {
            while next < pkts.len() && pkts[next].3 <= cycle {
                let (src, dst, flits, _) = pkts[next];
                xbar.inject(Packet { payload: next as u64, src, dst, flits, injected_at: cycle });
                next += 1;
            }
            let (hint, stats) = (xbar.cached_next_event(), xbar.stats());
            prop_assert!(hint >= cycle, "hint {} is behind cycle {}", hint, cycle);
            if cycle < hint {
                // This cycle, and one further on that is still below the
                // hint, on a copy.
                let mut ahead = xbar.clone();
                let later = cycle + probe % (hint - cycle);
                ahead.tick(later, &mut done);
                prop_assert!(done.is_empty(), "a tick at {} below the hint {} delivered", later, hint);
                prop_assert_eq!(ahead.stats(), stats);
                prop_assert_eq!(ahead.cached_next_event(), hint);
            }
            xbar.tick(cycle, &mut done);
            if cycle < hint {
                prop_assert!(done.is_empty(), "a tick at {} below the hint {} delivered", cycle, hint);
                prop_assert_eq!(xbar.stats(), stats);
                prop_assert_eq!(xbar.cached_next_event(), hint);
            } else {
                prop_assert!(!done.is_empty(), "the hint {} named a cycle with no delivery", hint);
            }
            done.clear();
        }
    }

    /// One output port delivers at most one packet's last flit per
    /// `flits` cycles: spread destinations always finish no later than
    /// the single-destination hotspot.
    #[test]
    fn hotspot_never_faster(n in 2usize..24) {
        let run = |spread: bool| {
            let mut xbar = Crossbar::new(8, 8, 2);
            for i in 0..n {
                xbar.inject(Packet {
                    payload: i as u64,
                    src: i % 8,
                    dst: if spread { i % 8 } else { 0 },
                    flits: 5,
                    injected_at: 0,
                });
            }
            let out = drain(&mut xbar, n);
            out.iter().map(|&(_, _, l)| l).max().unwrap()
        };
        prop_assert!(run(true) <= run(false));
    }
}
