//! Driving the DRAM substrate directly: watch FR-FCFS reorder requests,
//! compare row-buffer behavior of sequential vs conflicting streams, and
//! see why activate counts (and hence activate power, Figure 16) differ.
//!
//! Run with: `cargo run --release --example dram_explorer`

use valley::dram::{DramChannel, DramConfig, DramRequest};

/// Banks per GDDR5 channel (Table I).
const BANKS: usize = 16;

fn drain(ch: &mut DramChannel, until: u64) -> Vec<(u64, u64)> {
    let mut done = Vec::new();
    let mut buf = Vec::new();
    for cycle in 0..until {
        buf.clear();
        ch.tick(cycle, &mut buf);
        for c in &buf {
            done.push((c.id, c.finish));
        }
    }
    done
}

fn main() {
    // Stream A: 16 accesses to the same row of one bank (pure row hits).
    let mut same_row = DramChannel::new(DramConfig::gddr5(), BANKS);
    for i in 0..16 {
        same_row.try_enqueue(DramRequest {
            id: i,
            bank: 0,
            row: 7,
            is_write: false,
            arrival: 0,
        });
    }
    let done = drain(&mut same_row, 400);
    let s = same_row.stats();
    println!(
        "same-row stream:      last finish {:>4}, ACTs {}, hit rate {:.0}%",
        done.last().unwrap().1,
        s.activates,
        s.row_buffer_hit_rate() * 100.0
    );

    // Stream B: 16 accesses alternating two rows of one bank (conflicts).
    let mut ping_pong = DramChannel::new(DramConfig::gddr5(), BANKS);
    for i in 0..16 {
        ping_pong.try_enqueue(DramRequest {
            id: i,
            bank: 0,
            row: 7 + (i % 2) as usize,
            is_write: false,
            arrival: 0,
        });
    }
    let done = drain(&mut ping_pong, 4000);
    let s = ping_pong.stats();
    println!(
        "row-conflict stream:  last finish {:>4}, ACTs {}, hit rate {:.0}%",
        done.last().unwrap().1,
        s.activates,
        s.row_buffer_hit_rate() * 100.0
    );
    println!("  (FR-FCFS groups same-row requests, so even the ping-pong");
    println!("   stream activates each row once, not 8 times)");

    // Stream C: 16 accesses spread over 16 banks (bank-level parallelism).
    let mut banked = DramChannel::new(DramConfig::gddr5(), BANKS);
    for i in 0..16 {
        banked.try_enqueue(DramRequest {
            id: i,
            bank: (i % 16) as usize,
            row: 7,
            is_write: false,
            arrival: 0,
        });
    }
    let done = drain(&mut banked, 400);
    let s = banked.stats();
    println!(
        "16-bank stream:       last finish {:>4}, ACTs {}, hit rate {:.0}%",
        done.last().unwrap().1,
        s.activates,
        s.row_buffer_hit_rate() * 100.0
    );
    println!("  (activations overlap across banks; the data bus serializes");
    println!("   only the 4-cycle bursts — this is the parallelism the");
    println!("   paper's mapping schemes unlock)");
}
