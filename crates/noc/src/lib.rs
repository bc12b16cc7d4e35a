//! # valley-noc
//!
//! A crossbar network-on-chip model for the Valley GPU simulator,
//! matching Table I: a 12×8 crossbar at 700 MHz (half the core clock)
//! with 32-byte channels, connecting the SMs to the LLC slices / memory
//! controllers.
//!
//! The model captures what matters for the paper's Figure 13a: per-output
//! serialization. Each destination port delivers one 32 B flit per NoC
//! cycle, so when address mapping concentrates traffic on one LLC slice,
//! the queue at that output port grows and packet latency explodes; when
//! traffic is balanced, the ports drain in parallel.
//!
//! Packets carry an opaque payload token. A read request is 1 flit
//! (header + address), a 128 B data packet is 5 flits (4 data + header).
//!
//! A queued packet is a 12-byte entry — payload, injection cycle and
//! flit count, 32 bits each — not the 40-byte [`Packet`]: its source is
//! checked at [`Crossbar::inject`] and never read again, and its
//! destination is the index of the queue it waits in. When a mapping
//! concentrates traffic on one slice, tens of thousands of packets wait
//! at one output port, so the entry's width is most of what the crossbar
//! holds. [`Crossbar::inject`] refuses a payload or injection cycle that
//! does not fit 32 bits; [`Packet`] and [`Delivery`] keep theirs in 64.
//!
//! A crossbar keeps its output queues in one pool of 64-entry blocks.
//! A port's queue is a chain of blocks, and a block goes back to the
//! pool as soon as its port has read it out, for any port to take (a
//! port that empties keeps one block for its next packet). A
//! valley's flood often moves from port to port — MT under the baseline
//! mapping queues up to 29,142 packets at one slice's port, then at the
//! next — so the crossbar holds the packets queued at once, plus at
//! most two partly used blocks per port, not the sum of every port's
//! high-water mark, which one queue per port would keep.
//!
//! Two drivers advance a [`Crossbar`]. [`Crossbar::tick`] steps every
//! occupied port one flit per cycle — the dense oracle.
//! [`Crossbar::tick_evented`] keeps one calendar event per *packet*:
//! nothing observable happens between a head packet's first flit and
//! its last, so the port's next event is the delivery cycle
//! `max(previous delivery + 1, injected_at + router_latency) + flits - 1`
//! [`NocStats`] counts a packet, its latency and its flits when it is
//! delivered, on both paths. The two are bit-identical; a crossbar is
//! driven by one of them for a whole run, never switched in between.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod pool;

use pool::PortQueues;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Flit count of a request packet (header + address only).
pub const REQUEST_FLITS: u32 = 1;
/// Flit count of a packet carrying one 128 B cache line (4 × 32 B + header).
pub const DATA_FLITS: u32 = 5;

/// A packet traversing the crossbar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Opaque token returned on delivery.
    pub payload: u64,
    /// Source port index.
    pub src: usize,
    /// Destination port index.
    pub dst: usize,
    /// Packet size in flits ([`REQUEST_FLITS`] or [`DATA_FLITS`]).
    pub flits: u32,
    /// NoC cycle at which the packet was injected, stamped by the caller
    /// with its current NoC cycle; the crossbar only reads it.
    pub injected_at: u64,
}

/// A delivered packet with its measured latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The packet's payload token.
    pub payload: u64,
    /// Destination port it arrived at.
    pub dst: usize,
    /// End-to-end latency in NoC cycles (injection to last flit).
    pub latency: u64,
}

/// A packet waiting in an output queue: what delivery reads of it, each
/// field narrowed to 32 bits by [`Crossbar::inject`].
#[derive(Clone, Copy, Debug, Default)]
struct Queued {
    payload: u32,
    injected_at: u32,
    flits: u32,
}

const _: () = assert!(std::mem::size_of::<Queued>() == 12);

/// Latency and utilization counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Sum of packet latencies in NoC cycles.
    pub total_latency: u64,
    /// Flits of delivered packets.
    pub flits: u64,
}

impl NocStats {
    /// Mean packet latency in NoC cycles (0 when nothing was delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }
}

/// A `sources × destinations` crossbar with output-port queuing.
///
/// Each output port moves one flit per NoC cycle. Input contention is
/// secondary for the paper's traffic (many SMs to few slices), so packets
/// are routed to their output queue at injection after a fixed router
/// latency, and the queue serializes delivery.
///
/// # Examples
///
/// ```
/// use valley_noc::{Crossbar, Packet, REQUEST_FLITS};
///
/// let mut xbar = Crossbar::new(12, 8, 4);
/// xbar.inject(Packet { payload: 42, src: 0, dst: 3, flits: REQUEST_FLITS, injected_at: 0 });
/// let mut out = Vec::new();
/// for cycle in 0..10 {
///     xbar.tick(cycle, &mut out);
/// }
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].payload, 42);
/// ```
#[derive(Clone, Debug)]
pub struct Crossbar {
    /// Number of input ports.
    num_src: usize,
    /// Fixed pipeline-traversal latency added to every packet.
    router_latency: u64,
    /// Per destination: queued packets (front is in service), in one
    /// pool of blocks shared by the ports.
    outputs: PortQueues,
    /// Dense path only: flits remaining for the packet in service at
    /// each output (0 = the head has not started).
    in_service: Vec<u32>,
    /// Total packets across all output queues (hot-loop early-out).
    queued: usize,
    /// Calendar of `(delivery cycle, port)` events, min-first: one entry
    /// per occupied port, naming the cycle its head packet's last flit
    /// arrives. A port moves one flit per cycle, so a head that starts
    /// at `s` is delivered at `s + flits - 1` with nothing observable in
    /// between — [`Crossbar::tick_evented`] jumps from delivery to
    /// delivery instead of stepping the flits.
    events: BinaryHeap<Reverse<(u64, usize)>>,
    /// Set by the first dense [`Crossbar::tick`]: this run steps the
    /// ports flit by flit and keeps no calendar.
    dense: bool,
    /// Cached earliest delivery cycle (`u64::MAX` = empty) — the fresh
    /// minimum of `events`, maintained by [`Crossbar::tick_evented`] and
    /// [`Crossbar::inject`].
    cached_next: u64,
    stats: NocStats,
}

impl Crossbar {
    /// Creates a crossbar with `num_src` input ports, `num_dst` output
    /// ports and a fixed `router_latency` (cycles of pipeline traversal
    /// added to every packet).
    pub fn new(num_src: usize, num_dst: usize, router_latency: u64) -> Self {
        assert!(num_src > 0 && num_dst > 0);
        Crossbar {
            num_src,
            router_latency,
            // The pool grows to the most blocks in use at once — the
            // packets queued at once, plus at most two partly used
            // blocks per port — whichever ports they queue at.
            outputs: PortQueues::new(num_dst),
            in_service: vec![0; num_dst],
            queued: 0,
            events: BinaryHeap::with_capacity(num_dst),
            dense: false,
            cached_next: u64::MAX,
            stats: NocStats::default(),
        }
    }

    /// Injects a packet. The caller stamps `injected_at` with the current
    /// NoC cycle; the crossbar reads it as the packet's injection time and
    /// never changes it.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination port is out of range, the
    /// packet has zero flits, or its payload or `injected_at` does not fit
    /// the 32 bits of a queue entry.
    pub fn inject(&mut self, pkt: Packet) {
        assert!(pkt.src < self.num_src, "source port out of range");
        assert!(
            pkt.dst < self.outputs.ports(),
            "destination port out of range"
        );
        assert!(pkt.flits > 0, "packets must have at least one flit");
        let fits = |v: u64| v <= u64::from(u32::MAX);
        assert!(
            fits(pkt.payload),
            "payload {} does not fit a 32-bit queue entry",
            pkt.payload
        );
        assert!(
            fits(pkt.injected_at),
            "injected_at {} does not fit a 32-bit queue entry",
            pkt.injected_at
        );
        let dst = pkt.dst;
        let was_empty = self.outputs.is_empty(dst);
        self.outputs.push_back(
            dst,
            Queued {
                payload: pkt.payload as u32,
                injected_at: pkt.injected_at as u32,
                flits: pkt.flits,
            },
        );
        self.queued += 1;
        if was_empty && !self.dense {
            // An idle port serves this packet as soon as the router
            // pipeline has been traversed. A busy port's schedule is
            // unchanged (this packet waits its turn; its delivery is
            // scheduled when it reaches the head).
            let at = pkt.injected_at + self.router_latency + u64::from(pkt.flits) - 1;
            self.events.push(Reverse((at, dst)));
            self.cached_next = self.cached_next.min(at);
        }
    }

    /// Does nothing: the crossbar counts only deliveries, so no counter
    /// is ever deferred. Kept because the frozen `noc.*` benchmark probes
    /// call it.
    #[doc(hidden)]
    #[inline]
    pub fn flush_deferred(&mut self, _up_to: u64) {}

    /// Event-queue [`Crossbar::tick`]: returns immediately while the next
    /// delivery is in the future, otherwise delivers every packet whose
    /// last flit arrives this cycle, popped from the calendar in
    /// ascending port order — the identical order the dense scan
    /// produces — scheduling each port's next head as it goes.
    /// Bit-identical to calling `tick` every cycle.
    #[inline]
    pub fn tick_evented(&mut self, cycle: u64, done: &mut Vec<Delivery>) {
        debug_assert!(!self.dense, "evented tick on a densely driven crossbar");
        if cycle < self.cached_next {
            return;
        }
        while let Some(&Reverse((at, dst))) = self.events.peek() {
            if at > cycle {
                break;
            }
            debug_assert_eq!(at, cycle, "deliveries fire on their scheduled cycle");
            self.events.pop();
            self.deliver_head(dst, cycle, done);
        }
        self.cached_next = self.events.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
    }

    /// Delivers the head packet of `dst`, whose last flit arrives at
    /// `cycle`, and schedules the packet behind it: the port is free
    /// from `cycle + 1`, the router pipeline from
    /// `injected_at + router_latency`.
    fn deliver_head(&mut self, dst: usize, cycle: u64, done: &mut Vec<Delivery>) {
        #[expect(
            clippy::expect_used,
            reason = "the calendar holds one entry per non-empty port: pushed when a packet enters an empty port or becomes the head, popped only together with that head"
        )]
        let pkt = self
            .outputs
            .pop_front(dst)
            .expect("scheduled port has a head");
        self.record_delivery(dst, pkt, cycle, done);
        if let Some(head) = self.outputs.front(dst) {
            let start = (u64::from(head.injected_at) + self.router_latency).max(cycle + 1);
            self.events
                .push(Reverse((start + u64::from(head.flits) - 1, dst)));
        }
    }

    /// Advances one NoC cycle: every output port moves one flit of its
    /// head packet (once the router latency has elapsed). Packets whose
    /// last flit arrived this cycle are pushed into `done`, which is
    /// *not* cleared.
    pub fn tick(&mut self, cycle: u64, done: &mut Vec<Delivery>) {
        if !self.dense {
            // Dense ticks step the ports themselves: drop what injections
            // before this first tick put on the calendar, and keep none.
            self.dense = true;
            self.events.clear();
            self.cached_next = 0;
        }
        if self.queued == 0 {
            return;
        }
        for dst in 0..self.outputs.ports() {
            self.tick_port(dst, cycle, done);
        }
    }

    #[inline]
    fn tick_port(&mut self, dst: usize, cycle: u64, done: &mut Vec<Delivery>) {
        let Some(head) = self.outputs.front(dst) else {
            return;
        };
        // Router pipeline: a packet only starts moving flits after
        // router_latency cycles from injection.
        if cycle < u64::from(head.injected_at) + self.router_latency {
            return;
        }
        self.transfer_flit(dst, cycle, done);
    }

    /// Moves one flit on a due port (head present, router pipeline
    /// traversed); delivers the packet if it was the last flit.
    #[inline]
    fn transfer_flit(&mut self, dst: usize, cycle: u64, done: &mut Vec<Delivery>) {
        #[expect(
            clippy::expect_used,
            reason = "transfer_flit is only called by tick_port right after its own front() peek on the same port succeeded"
        )]
        let head = self.outputs.front(dst).expect("due port has a head packet");
        debug_assert!(cycle >= u64::from(head.injected_at) + self.router_latency);
        if self.in_service[dst] == 0 {
            self.in_service[dst] = head.flits;
        }
        self.in_service[dst] -= 1;
        if self.in_service[dst] == 0 {
            #[expect(
                clippy::expect_used,
                reason = "pop follows the front() peek at the top of transfer_flit; nothing in between removes from the queue"
            )]
            let pkt = self.outputs.pop_front(dst).expect("head packet exists");
            self.record_delivery(dst, pkt, cycle, done);
        }
    }

    /// Books the delivery of `pkt`, just popped from output port `dst`,
    /// with its last flit arriving at `cycle` — what both paths share.
    #[inline]
    fn record_delivery(&mut self, dst: usize, pkt: Queued, cycle: u64, done: &mut Vec<Delivery>) {
        self.queued -= 1;
        let latency = cycle + 1 - u64::from(pkt.injected_at);
        self.stats.delivered += 1;
        self.stats.total_latency += latency;
        self.stats.flits += u64::from(pkt.flits);
        done.push(Delivery {
            payload: u64::from(pkt.payload),
            dst,
            latency,
        });
    }

    /// Total queued packets across all output ports.
    pub fn queued_packets(&self) -> usize {
        self.queued
    }

    /// Whether any packet is queued.
    pub fn is_busy(&self) -> bool {
        self.queued > 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// The cached next-event cycle maintained by
    /// [`Crossbar::tick_evented`] (`u64::MAX` = empty crossbar).
    #[inline]
    pub fn cached_next_event(&self) -> u64 {
        self.cached_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> Crossbar {
        Crossbar::new(12, 8, 4)
    }

    fn drain(x: &mut Crossbar, n: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for c in 0..n {
            x.tick(c, &mut out);
        }
        out
    }

    #[test]
    fn single_packet_latency_is_router_plus_flits() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 1,
            src: 0,
            dst: 0,
            flits: REQUEST_FLITS,
            injected_at: 0,
        });
        let out = drain(&mut x, 20);
        assert_eq!(out.len(), 1);
        // 4 router cycles + 1 flit cycle.
        assert_eq!(out[0].latency, 5);
    }

    #[test]
    fn data_packets_occupy_five_cycles() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 1,
            src: 0,
            dst: 0,
            flits: DATA_FLITS,
            injected_at: 0,
        });
        let out = drain(&mut x, 20);
        assert_eq!(out[0].latency, 4 + 5);
    }

    #[test]
    fn same_destination_serializes() {
        let mut x = xbar();
        for i in 0..4 {
            x.inject(Packet {
                payload: i,
                src: i as usize,
                dst: 2,
                flits: DATA_FLITS,
                injected_at: 0,
            });
        }
        let out = drain(&mut x, 60);
        assert_eq!(out.len(), 4);
        let latencies: Vec<u64> = out.iter().map(|d| d.latency).collect();
        // Head-of-line: each successive packet waits 5 more flit cycles.
        assert_eq!(latencies, vec![9, 14, 19, 24]);
    }

    #[test]
    fn different_destinations_proceed_in_parallel() {
        let mut x = xbar();
        for i in 0..4 {
            x.inject(Packet {
                payload: i,
                src: 0,
                dst: i as usize,
                flits: DATA_FLITS,
                injected_at: 0,
            });
        }
        let out = drain(&mut x, 60);
        // No contention: all four have the uncontended latency.
        assert!(out.iter().all(|d| d.latency == 9));
    }

    #[test]
    fn balanced_traffic_beats_concentrated_traffic() {
        // The Figure 13a mechanism in miniature.
        let mut hot = xbar();
        let mut balanced = xbar();
        for i in 0..8u64 {
            hot.inject(Packet {
                payload: i,
                src: (i % 12) as usize,
                dst: 0,
                flits: DATA_FLITS,
                injected_at: 0,
            });
            balanced.inject(Packet {
                payload: i,
                src: (i % 12) as usize,
                dst: (i % 8) as usize,
                flits: DATA_FLITS,
                injected_at: 0,
            });
        }
        let _ = drain(&mut hot, 200);
        let _ = drain(&mut balanced, 200);
        assert!(hot.stats().mean_latency() > 2.0 * balanced.stats().mean_latency());
    }

    #[test]
    fn later_injection_timestamps_reduce_measured_latency() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 1,
            src: 0,
            dst: 0,
            flits: 1,
            injected_at: 10,
        });
        let out = drain(&mut x, 40);
        assert_eq!(out[0].latency, 5);
    }

    #[test]
    fn stats_track_flits_and_packets() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 1,
            src: 0,
            dst: 0,
            flits: 5,
            injected_at: 0,
        });
        let _ = drain(&mut x, 20);
        assert_eq!(x.stats().delivered, 1);
        assert_eq!(x.stats().flits, 5);
        assert!(!x.is_busy());
        assert_eq!(x.queued_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "payload 4294967296 does not fit a 32-bit queue entry")]
    fn inject_refuses_a_payload_past_32_bits() {
        let mut x = xbar();
        x.inject(Packet {
            payload: u64::from(u32::MAX) + 1,
            src: 0,
            dst: 0,
            flits: 1,
            injected_at: 0,
        });
    }

    #[test]
    #[should_panic(expected = "injected_at 4294967296 does not fit a 32-bit queue entry")]
    fn inject_refuses_a_stamp_past_32_bits() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 0,
            src: 0,
            dst: 0,
            flits: 1,
            injected_at: u64::from(u32::MAX) + 1,
        });
    }

    #[test]
    fn the_widest_payload_and_stamp_come_back_whole() {
        let mut x = xbar();
        let at = u64::from(u32::MAX);
        x.inject(Packet {
            payload: u64::from(u32::MAX),
            src: 0,
            dst: 0,
            flits: 1,
            injected_at: at,
        });
        let mut out = Vec::new();
        for c in at..at + 10 {
            x.tick(c, &mut out);
        }
        assert_eq!(out[0].payload, u64::from(u32::MAX));
        assert_eq!(out[0].latency, 5);
    }

    #[test]
    #[should_panic(expected = "destination port out of range")]
    fn inject_validates_ports() {
        let mut x = xbar();
        x.inject(Packet {
            payload: 0,
            src: 0,
            dst: 99,
            flits: 1,
            injected_at: 0,
        });
    }
}
