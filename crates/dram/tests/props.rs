//! Property-based tests for the DRAM channel: conservation, bus
//! exclusivity and timing monotonicity under arbitrary request streams;
//! and for the DRAM system's gate: ticked every cycle or at its hints,
//! it does the same thing.

use proptest::prelude::*;
use valley_core::{DramMap, PhysAddr};
use valley_dram::{DramChannel, DramCompletion, DramConfig, DramRequest, DramSystem};

fn run_to_completion(ch: &mut DramChannel, n: usize) -> Vec<DramCompletion> {
    let mut done = Vec::new();
    let mut cycle = 0u64;
    while done.len() < n {
        ch.tick(cycle, &mut done);
        cycle += 1;
        assert!(cycle < 1_000_000, "DRAM made no progress");
    }
    done
}

proptest! {
    /// Every enqueued request completes exactly once, with its own id.
    #[test]
    fn conservation(reqs in proptest::collection::vec((0usize..16, 0usize..64, any::<bool>()), 1..60)) {
        let mut ch = DramChannel::new(DramConfig::gddr5(), 16);
        let mut accepted = Vec::new();
        for (i, &(bank, row, w)) in reqs.iter().enumerate() {
            if ch.try_enqueue(DramRequest {
                id: i as u64,
                bank,
                row,
                is_write: w,
                arrival: 0,
            }) {
                accepted.push(i as u64);
            }
        }
        let done = run_to_completion(&mut ch, accepted.len());
        let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, accepted);
        // Counters agree.
        let s = ch.stats();
        prop_assert_eq!(s.accesses() as usize, done.len());
        prop_assert_eq!(
            s.row_hits + s.row_empties + s.row_conflicts,
            s.accesses()
        );
    }

    /// Data bursts never overlap on the shared bus: completions are at
    /// least tburst cycles apart.
    #[test]
    fn bus_exclusivity(reqs in proptest::collection::vec((0usize..16, 0usize..8), 2..40)) {
        let mut ch = DramChannel::new(DramConfig::gddr5(), 16);
        let mut n = 0;
        for (i, &(bank, row)) in reqs.iter().enumerate() {
            if ch.try_enqueue(DramRequest {
                id: i as u64,
                bank,
                row,
                is_write: false,
                arrival: 0,
            }) {
                n += 1;
            }
        }
        let done = run_to_completion(&mut ch, n);
        let mut finishes: Vec<u64> = done.iter().map(|d| d.finish).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            prop_assert!(w[1] - w[0] >= 4, "bursts overlap: {:?}", w);
        }
    }

    /// Adding requests never makes previously queued ones finish earlier
    /// than the uncontended single-request latency.
    #[test]
    fn latency_lower_bound(reqs in proptest::collection::vec((0usize..16, 0usize..8), 1..30)) {
        let mut ch = DramChannel::new(DramConfig::gddr5(), 16);
        let mut n = 0;
        for (i, &(bank, row)) in reqs.iter().enumerate() {
            if ch.try_enqueue(DramRequest {
                id: i as u64,
                bank,
                row,
                is_write: false,
                arrival: 0,
            }) {
                n += 1;
            }
        }
        let done = run_to_completion(&mut ch, n);
        // ACT(12) + CL(12) + burst(4) = 28 cycles minimum for the first.
        for d in &done {
            prop_assert!(d.finish >= 16, "implausibly fast: {}", d.finish);
        }
    }

    /// Row-buffer hit rate is a proper fraction and single-row streams
    /// to one bank approach a perfect hit rate.
    #[test]
    fn hit_rate_bounds(n in 2usize..40) {
        let mut ch = DramChannel::new(DramConfig::gddr5(), 16);
        for i in 0..n {
            ch.try_enqueue(DramRequest {
                id: i as u64,
                bank: 0,
                row: 3,
                is_write: false,
                arrival: 0,
            });
        }
        let _ = run_to_completion(&mut ch, n.min(64));
        let s = ch.stats();
        let hr = s.row_buffer_hit_rate();
        prop_assert!((0.0..=1.0).contains(&hr));
        prop_assert_eq!(s.activates, 1, "single-row stream needs one ACT");
        prop_assert!(hr > 0.9 || n < 12);
    }
}

/// One DRAM system per gate, fed the same requests.
struct Gated {
    sys: DramSystem,
    done: Vec<DramCompletion>,
}

impl Gated {
    fn new(map: DramMap, cfg: DramConfig) -> Self {
        Gated {
            sys: DramSystem::new(map, cfg),
            done: Vec::new(),
        }
    }

    /// Per channel: queue length, statistics and hint.
    fn channels(&self) -> Vec<(usize, valley_dram::DramStats, u64)> {
        (0..self.sys.num_channels())
            .map(|c| {
                let ch = self.sys.channel(c);
                (ch.queue_len(), ch.stats(), ch.cached_next_event())
            })
            .collect()
    }
}

/// Offers `reqs` — (pool index, write, cycles to wait before offering
/// it) — in order to a system ticked every cycle and one ticked at its
/// hints, a refused request being offered again the next cycle. Every
/// cycle both must accept the same requests, emit the same completions
/// in the same order, hold the same queues and statistics per channel,
/// and publish as the system's hint the minimum of its channels' hints.
fn gates_agree(
    map: DramMap,
    mut cfg: DramConfig,
    capacity: usize,
    pool: &[u64],
    reqs: &[(usize, bool, u64)],
) -> Result<(), TestCaseError> {
    cfg.queue_capacity = capacity;
    let mask = (1u64 << map.addr_bits()) - 1;
    let mut dense = Gated::new(map, cfg);
    let mut hinted = Gated::new(map, cfg);
    let (mut next, mut offer_at) = (0, reqs.first().map_or(0, |r| r.2));
    for cycle in 0..200_000u64 {
        while let Some(&(slot, is_write, _)) = reqs.get(next) {
            if cycle < offer_at {
                break;
            }
            let addr = PhysAddr::new(pool[slot % pool.len()] & mask);
            let id = next as u64;
            let took = dense.sys.try_enqueue(addr, id, is_write, cycle);
            prop_assert_eq!(took, hinted.sys.try_enqueue(addr, id, is_write, cycle));
            if !took {
                break;
            }
            next += 1;
            offer_at = cycle + reqs.get(next).map_or(0, |r| r.2);
        }
        dense.sys.tick(cycle, &mut dense.done, |_, _| true);
        hinted
            .sys
            .tick(cycle, &mut hinted.done, |now, next| now >= next);
        prop_assert_eq!(&dense.done, &hinted.done, "cycle {}: completions", cycle);
        prop_assert_eq!(dense.channels(), hinted.channels(), "cycle {}", cycle);
        for g in [&dense, &hinted] {
            let min = g.channels().iter().map(|c| c.2).min();
            prop_assert_eq!(Some(g.sys.cached_next_event()), min, "cycle {}", cycle);
        }
        if next == reqs.len() && !dense.sys.is_busy() && !hinted.sys.is_busy() {
            prop_assert_eq!(dense.done.len(), reqs.len(), "every request completes once");
            return Ok(());
        }
    }
    Err(TestCaseError::Fail("the DRAM system never drained".into()))
}

proptest! {
    /// The 4-channel GDDR5 system and the 64-vault stacked one, behind
    /// queues of 1 to 4 entries so that refusals are common. A pool of a
    /// few addresses concentrates the traffic on a few channels and banks.
    #[test]
    fn the_open_gate_and_the_hint_gate_agree(
        capacity in 1usize..5,
        pool in proptest::collection::vec(any::<u64>(), 1..8),
        reqs in proptest::collection::vec((0usize..8, any::<bool>(), 0u64..4), 1..120),
    ) {
        gates_agree(DramMap::baseline(), DramConfig::gddr5(), capacity, &pool, &reqs)?;
        gates_agree(DramMap::stacked(), DramConfig::stacked_vault(), capacity, &pool, &reqs)?;
    }
}
