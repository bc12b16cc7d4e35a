//! Property-based tests for the crossbar: packet conservation, per-port
//! FIFO ordering and latency bounds under arbitrary traffic.

use proptest::prelude::*;
use valley_noc::{Crossbar, Packet};

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

    /// The packet-event path delivers exactly what the dense per-cycle
    /// flit scan delivers — same packets, same cycles, same order —
    /// under arbitrary staggered injection schedules, and a run cut off
    /// after any cycle (so usually mid-packet on some port) settles to
    /// the dense statistics: both paths count a packet when it is
    /// delivered.
    #[test]
    fn evented_is_bit_identical_to_dense(
        pkts in proptest::collection::vec((0usize..12, 0usize..8, 1u32..6, 0u64..60), 1..60),
        latency in 0u64..5,
    ) {
        let mut pkts = pkts.clone();
        pkts.sort_by_key(|p| p.3);
        let mut dense = Crossbar::new(12, 8, latency);
        let mut evented = Crossbar::new(12, 8, latency);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        let mut next = 0;
        let horizon = 600u64;
        for cycle in 0..horizon {
            // The simulator's discipline: injections carry the next NoC
            // cycle to tick as their timestamp.
            while next < pkts.len() && pkts[next].3 <= cycle {
                let (src, dst, flits, _) = pkts[next];
                let pkt = Packet { payload: next as u64, src, dst, flits, injected_at: cycle };
                dense.inject(pkt);
                evented.inject(pkt);
                next += 1;
            }
            dense.tick(cycle, &mut d1);
            evented.tick_evented(cycle, &mut d2);
            prop_assert_eq!(&d1, &d2, "deliveries diverged at cycle {}", cycle);
            let mut cut = evented.clone();
            cut.flush_deferred(cycle + 1);
            prop_assert_eq!(dense.stats(), cut.stats(), "run cut off after cycle {}", cycle);
        }
        evented.flush_deferred(horizon);
        prop_assert_eq!(dense.stats(), evented.stats());
        prop_assert_eq!(dense.queued_packets(), evented.queued_packets());
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
