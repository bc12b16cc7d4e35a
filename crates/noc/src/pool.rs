//! The output queues of one crossbar, kept in one pool of blocks.
//!
//! A port's queue is a chain of fixed-size blocks of [`Queued`] entries:
//! pushes fill the chain's last block and take a new one when it is
//! full, pops read from the first and give it back as soon as they have
//! read it out. A port that empties keeps its one block for the next
//! packet. Blocks a port gives back go on the pool's free chain,
//! last-released-first, and any port takes them from there before the
//! pool grows. The pool therefore holds the packets queued at once, plus
//! at most one partly read and one partly written block per port — not
//! the sum of every port's high-water mark, which one `VecDeque` per
//! port would keep.
//!
//! Each block is its own allocation, so the pool grows without moving a
//! block. A pool in one `Vec<Block>` would copy itself at a doubling
//! wherever the allocator cannot extend it in place and leave the freed
//! copy resident: the 60-job ref valley sweep's peak RSS moved by
//! 0.35 MB with the heap layout of unrelated allocations.

use crate::Queued;

/// Entries per block: 768 bytes of 12-byte entries. A port's `front`
/// and `back` stay below it; indexing with `% BLOCK` tells the compiler
/// so, which drops the bounds check.
const BLOCK: usize = 64;

/// End of a chain.
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Block {
    entries: [Queued; BLOCK],
    /// The next block of the same port's chain, or of the free chain.
    next: u32,
}

/// Where one port's chain starts and ends. A port that empties keeps
/// its last block, rewound, so that a port going idle and busy packet
/// by packet never touches the free chain.
#[derive(Clone, Copy, Debug)]
struct Port {
    /// Block holding the front entry (`NIL` = no block yet).
    head: u32,
    /// Block taking the next push.
    tail: u32,
    /// Index of the front entry in `head`.
    front: u32,
    /// Entries written to `tail`.
    back: u32,
}

impl Port {
    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.tail && self.front == self.back
    }
}

const NO_BLOCK: Port = Port {
    head: NIL,
    tail: NIL,
    front: 0,
    back: 0,
};

/// One FIFO per output port over a shared pool of blocks.
#[derive(Clone, Debug)]
pub(crate) struct PortQueues {
    #[expect(
        clippy::vec_box,
        reason = "a boxed block never moves when the pool grows (module docs)"
    )]
    blocks: Vec<Box<Block>>,
    /// First block of the free chain (`NIL` = none free).
    free: u32,
    ports: Vec<Port>,
}

impl PortQueues {
    /// `ports` empty queues over a pool with room for one block per
    /// port before it first grows.
    pub(crate) fn new(ports: usize) -> Self {
        PortQueues {
            blocks: Vec::with_capacity(ports),
            free: NIL,
            ports: vec![NO_BLOCK; ports],
        }
    }

    /// Number of ports.
    pub(crate) fn ports(&self) -> usize {
        self.ports.len()
    }

    pub(crate) fn is_empty(&self, port: usize) -> bool {
        self.ports[port].is_empty()
    }

    pub(crate) fn front(&self, port: usize) -> Option<&Queued> {
        let p = &self.ports[port];
        if p.is_empty() {
            return None;
        }
        Some(&self.blocks[p.head as usize].entries[p.front as usize % BLOCK])
    }

    pub(crate) fn push_back(&mut self, port: usize, entry: Queued) {
        let p = &self.ports[port];
        if p.head == NIL || p.back as usize == BLOCK {
            self.add_block(port);
        }
        let p = &mut self.ports[port];
        self.blocks[p.tail as usize].entries[p.back as usize % BLOCK] = entry;
        p.back += 1;
    }

    pub(crate) fn pop_front(&mut self, port: usize) -> Option<Queued> {
        let p = &mut self.ports[port];
        if p.is_empty() {
            return None;
        }
        let entry = self.blocks[p.head as usize].entries[p.front as usize % BLOCK];
        p.front += 1;
        if p.is_empty() {
            (p.front, p.back) = (0, 0);
        } else if p.front as usize == BLOCK {
            self.drop_head(port);
        }
        Some(entry)
    }

    /// Chains a block to `port`, which has none or a full last one.
    #[cold]
    fn add_block(&mut self, port: usize) {
        let b = self.take_block();
        let p = &mut self.ports[port];
        if p.head == NIL {
            *p = Port {
                head: b,
                tail: b,
                front: 0,
                back: 0,
            };
        } else {
            let full = p.tail;
            p.tail = b;
            p.back = 0;
            self.blocks[full as usize].next = b;
        }
    }

    /// Gives back the first block of `port`, which pops have read out.
    #[cold]
    fn drop_head(&mut self, port: usize) {
        let p = &mut self.ports[port];
        let head = p.head;
        p.head = self.blocks[head as usize].next;
        p.front = 0;
        self.blocks[head as usize].next = self.free;
        self.free = head;
    }

    /// A block off the free chain, or a new one when none is free.
    fn take_block(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = self.blocks[b as usize].next;
            return b;
        }
        // Pool growth is amortized, not per-tick work; declare the new
        // block to the allocation audit.
        let _audit_pause = valley_core::alloc_audit::pause();
        self.blocks.push(Box::new(Block {
            entries: [Queued::default(); BLOCK],
            next: NIL,
        }));
        // A block index: 2^32 blocks would be 3 TiB of them.
        (self.blocks.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn entry(n: u32) -> Queued {
        Queued {
            payload: n,
            injected_at: n.wrapping_mul(7),
            flits: n % 5 + 1,
        }
    }

    /// Blocks on the free chain.
    fn free_blocks(q: &PortQueues) -> usize {
        let (mut n, mut b) = (0, q.free);
        while b != NIL {
            n += 1;
            b = q.blocks[b as usize].next;
        }
        n
    }

    #[test]
    fn a_drained_port_gives_its_blocks_to_the_next() {
        let mut q = PortQueues::new(4);
        for port in 0..4 {
            for n in 0..3 * BLOCK as u32 {
                q.push_back(port, entry(n));
            }
            for n in 0..3 * BLOCK as u32 {
                assert_eq!(q.pop_front(port).map(|e| e.payload), Some(n));
            }
            assert!(q.is_empty(port));
        }
        assert_eq!(
            q.blocks.len(),
            2 + 4,
            "the ports passed on all but the block each kept"
        );
        assert_eq!(free_blocks(&q), 2);
    }

    proptest! {
        // The pool is one FIFO per port: against a `VecDeque` per port it
        // agrees on `front`, `pop_front` and emptiness after every step.
        // The blocks in use are exactly those the queued entries span,
        // at most one more than the port's length fills (a partly read
        // first block and a partly written last one), and one for an
        // empty port that has held a packet. The pool takes a new
        // block only when none is free, so it never holds more blocks
        // than were ever in use at once.
        //
        // An op is `(port, kind, n)`, its port taken modulo `ports`: kind
        // 0 pushes `n` entries in a row (runs up to four blocks long), 1
        // pops the port to empty, 2 to 8 push one entry, the rest pop one.
        #[test]
        fn pooled_queues_match_a_deque_per_port(
            ports in 1usize..13,
            ops in collection::vec((0usize..12, 0u32..16, 0usize..4 * BLOCK + 2), 0..200),
        ) {
            let mut q = PortQueues::new(ports);
            let mut model: Vec<VecDeque<Queued>> = vec![VecDeque::new(); ports];
            let (mut next, mut peak_in_use) = (0u32, 0usize);
            let mut push = |q: &mut PortQueues, model: &mut Vec<VecDeque<Queued>>, port: usize| {
                let (grew_from, free_before) = (q.blocks.len(), free_blocks(q));
                q.push_back(port, entry(next));
                model[port].push_back(entry(next));
                next += 1;
                assert!(
                    q.blocks.len() == grew_from || free_before == 0,
                    "the pool grew with {free_before} blocks free"
                );
            };
            for (port, kind, n) in ops {
                let port = port % ports;
                match kind {
                    0 => (0..n).for_each(|_| push(&mut q, &mut model, port)),
                    2..=8 => push(&mut q, &mut model, port),
                    1 => {
                        while let Some(want) = model[port].pop_front() {
                            prop_assert_eq!(q.pop_front(port).map(|e| e.payload), Some(want.payload));
                        }
                        prop_assert!(q.pop_front(port).is_none());
                    }
                    _ => {
                        let got = q.pop_front(port).map(|e| e.payload);
                        prop_assert_eq!(got, model[port].pop_front().map(|e| e.payload));
                    }
                }
                let mut spanned = 0;
                for (port, m) in model.iter().enumerate() {
                    prop_assert_eq!(q.is_empty(port), m.is_empty());
                    let front = q.front(port).map(|e| (e.payload, e.injected_at, e.flits));
                    let want = m.front().map(|e| (e.payload, e.injected_at, e.flits));
                    prop_assert_eq!(front, want);
                    let span = if m.is_empty() {
                        usize::from(q.ports[port].head != NIL)
                    } else {
                        (q.ports[port].front as usize + m.len() - 1) / BLOCK + 1
                    };
                    prop_assert!(span <= m.len().div_ceil(BLOCK) + 1);
                    spanned += span;
                }
                let in_use = q.blocks.len() - free_blocks(&q);
                prop_assert_eq!(in_use, spanned, "blocks in use are the blocks the entries span");
                peak_in_use = peak_in_use.max(in_use);
                prop_assert_eq!(q.blocks.len(), peak_in_use);
            }
        }
    }
}
