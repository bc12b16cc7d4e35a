//! Steady-state allocation audit: a counting global allocator proves
//! that the simulator's tick loops allocate nothing once warmed up —
//! the zero-alloc claim the engines' hot-loop buffer reuse is built on.
//!
//! Each test runs a workload once to learn its cycle count, then arms
//! an audit window over a mid-run span (away from construction and
//! from report building at termination) and re-runs, asserting that no
//! unpaused allocation landed inside the window. Allocations the
//! engines legitimately perform mid-run — building a warp's instruction
//! stream at TB assignment, arena growth — are bracketed with
//! `alloc_audit::pause` at their sites and surface in `paused_allocs`,
//! which the tests also check to prove the window actually armed.
//!
//! The same allocator also keeps the live heap bytes and their
//! high-water mark, which pins the footprint of a transaction in flight
//! (`a_store_in_flight_costs_under_44_heap_bytes`).
//!
//! Requires `--features alloc-audit`; without it the hooks are empty
//! and this file compiles to nothing.
#![cfg(feature = "alloc-audit")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use valley_core::{AddressMapper, GddrMap, SchemeKind};
use valley_sim::{alloc_audit, GpuConfig, GpuSim, Instruction, LaneAddrs};
use valley_workloads::{KernelSpec, Workload};

/// Counts every heap allocation into the audit before delegating to the
/// system allocator, and keeps the live heap bytes and their
/// high-water mark. Frees only lower the live bytes — the zero-alloc
/// claim is about acquiring memory in the steady state, and a free
/// implies a matching earlier alloc anyway.
struct CountingAlloc;

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Restarts the high-water mark from the live bytes; returns them.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Prints a backtrace for the first few violating allocations, so a
/// failing run names the offending site instead of just a count. The
/// pause guard keeps the capture's own allocations out of the span
/// counter (they land in `paused_allocs`, which is test-visible but
/// only asserted non-zero).
static TRACED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn trace_violation(size: usize) {
    if alloc_audit::violation_imminent() {
        let _p = alloc_audit::pause();
        if TRACED.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 6 {
            eprintln!(
                "steady-state allocation of {size} bytes:\n{}",
                std::backtrace::Backtrace::force_capture()
            );
        }
    }
}

#[expect(
    unsafe_code,
    reason = "the counting global allocator must implement the unsafe GlobalAlloc trait; it only counts and delegates to System, and lives in a test-only binary"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        trace_violation(layout.size());
        alloc_audit::on_alloc();
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        trace_violation(layout.size());
        alloc_audit::on_alloc();
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        trace_violation(layout.size());
        alloc_audit::on_alloc();
        // A block that changes size: the live bytes move by the
        // difference (growth in place or by remapping, not a copy).
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The audit counters are process-global; serialize the tests so one
/// test's armed window never sees another's allocations. A poisoned
/// lock only means another audit test failed — still safe to proceed.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

fn audit_lock() -> std::sync::MutexGuard<'static, ()> {
    AUDIT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sustained workload: every warp issues a long interleaved stream of
/// coalesced loads, strided loads and stores across distinct regions,
/// so TB issue, coalescing, cache, NoC and DRAM traffic all stay busy
/// deep into the run (keeping mid-run audit windows non-vacuous).
fn sustained_workload(tbs: u64, warps: usize, insts: usize) -> Workload {
    let gen = Arc::new(move |tb: u64, warp: usize| {
        let base = (tb << 22) | ((warp as u64) << 14);
        (0..insts)
            .map(|i| {
                let addr = base + (i as u64) * 256;
                match i % 3 {
                    0 => Instruction::Load(LaneAddrs::contiguous(addr, 32, 4)),
                    1 => Instruction::Load(LaneAddrs::strided(addr, 16, 512)),
                    _ => Instruction::Store(LaneAddrs::contiguous(addr, 32, 4)),
                }
            })
            .collect()
    });
    Workload::new("audit", vec![KernelSpec::new("k", tbs, warps, gen)])
}

/// BFS-shaped gathers: coalesced node loads, 32-lane loads from explicit
/// scattered addresses and 16-lane explicit scattered stores, so the
/// issue path moves and drops `LaneAddrs::Explicit` vectors mid-run.
fn gather_workload(tbs: u64, warps: usize, insts: usize) -> Workload {
    let gen = Arc::new(move |tb: u64, warp: usize| {
        let base = (tb << 22) | ((warp as u64) << 14);
        // A fixed multiplicative hash scatters lanes over 8 MiB.
        let scatter = |i: usize, lanes: usize| -> Vec<u64> {
            (0..lanes as u64)
                .map(|l| {
                    let h = (base ^ ((i as u64) << 5) ^ l).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (1 << 28) + (h >> 47) * 64
                })
                .collect()
        };
        (0..insts)
            .map(|i| match i % 3 {
                0 => Instruction::Load(LaneAddrs::contiguous(base + i as u64 * 128, 32, 4)),
                1 => Instruction::Load(LaneAddrs::explicit(scatter(i, 32))),
                _ => Instruction::Store(LaneAddrs::explicit(scatter(i, 16))),
            })
            .collect()
    });
    Workload::new("gather", vec![KernelSpec::new("k", tbs, warps, gen)])
}

fn build_sim(tbs: u64, warps: usize, insts: usize) -> GpuSim {
    build_sim_with(GpuConfig::table1(), sustained_workload(tbs, warps, insts))
}

fn build_sim_with(cfg: GpuConfig, workload: Workload) -> GpuSim {
    let map = GddrMap::baseline();
    let mapper = AddressMapper::build(SchemeKind::Base, &map, 0);
    GpuSim::new(cfg, mapper, map, Box::new(workload))
}

/// Runs `run` twice: once unaudited to learn the total cycle count,
/// then with an audit window over `window(total_cycles)`, returning
/// (span_allocs, paused_allocs) observed inside the armed window.
fn audit<R>(
    build: impl Fn() -> R,
    run: impl Fn(R) -> u64,
    window: impl Fn(u64) -> (u64, u64),
) -> (u64, u64) {
    let total = run(build());
    let (start, end) = window(total);
    assert!(
        start < end && end <= total,
        "window [{start}, {end}) must sit inside the {total}-cycle run"
    );
    alloc_audit::set_window(start, end);
    run(build());
    (alloc_audit::span_allocs(), alloc_audit::paused_allocs())
}

#[test]
fn dense_steady_state_allocates_nothing() {
    let _guard = audit_lock();
    let (span, paused) = audit(
        || build_sim(24, 4, 48),
        |sim| sim.run_dense().cycles,
        // Mid-run: past construction/warm-up, short of drain/teardown.
        |total| (total / 4, total * 3 / 4),
    );
    assert_eq!(span, 0, "dense tick loop allocated mid-run");
    assert!(paused > 0, "window never armed or no declared sites fired");
}

#[test]
fn evented_steady_state_allocates_nothing() {
    let _guard = audit_lock();
    let (span, paused) = audit(
        || build_sim(24, 4, 48),
        |sim| sim.run().cycles,
        |total| (total / 4, total * 3 / 4),
    );
    assert_eq!(span, 0, "evented tick loop allocated mid-run");
    assert!(paused > 0, "window never armed or no declared sites fired");
}

/// Gathers (`LaneAddrs::Explicit`) are built with the warp's stream at TB
/// assignment; issuing them moves the vector out and coalesces it into
/// the SM's reused buffer, allocating nothing on either drive loop.
#[test]
fn gather_steady_state_allocates_nothing() {
    let _guard = audit_lock();
    let build = || build_sim_with(GpuConfig::table1(), gather_workload(24, 4, 48));
    for (name, run) in [
        ("run", (|sim: GpuSim| sim.run().cycles) as fn(GpuSim) -> u64),
        ("run_dense", |sim: GpuSim| sim.run_dense().cycles),
    ] {
        let (span, paused) = audit(build, run, |total| (total / 4, total * 3 / 4));
        assert_eq!(span, 0, "{name}: gather issue path allocated mid-run");
        assert!(
            paused > 0,
            "{name}: window never armed or no declared sites fired"
        );
    }
}

/// A store flood at one LLC slice: 16 TBs of 8 warps, spread over the 12
/// SMs, each warp issuing 32 stores whose 32 lanes stride 2 KiB. Every
/// line has channel bits 9..8 and bank bit 10 clear, so under BASE all
/// 131 072 stores go to slice 0 and queue at its request-crossbar port,
/// which drains one 5-flit store per 10 core cycles. The SMs issue the
/// flood in about 16 K cycles, so at its peak more than 98 % of it is in
/// flight at once.
///
/// The heap high-water mark over building and running that machine,
/// divided by the stores, is what a store in flight costs: its
/// transaction record, its crossbar queue entry and its slot in the
/// SMs' LSU queues, with the fixed cost of the machine spread thin.
/// Measured, one generation at a time: 101.6 bytes with a 48-byte
/// record and the whole 40-byte packet queued; 61.6 bytes with a
/// 24-byte record and 24-byte queue entry; 37.5 bytes with the 16-byte
/// record, the 12-byte queue entry and `u32` ids in the SM queues (38.5
/// in a debug build, which keeps a liveness byte per record slot).
#[test]
fn a_store_in_flight_costs_under_44_heap_bytes() {
    let _guard = audit_lock();
    const TBS: u64 = 16;
    const WARPS: usize = 8;
    const INSTS: u64 = 32;
    let gen = Arc::new(|tb: u64, warp: usize| {
        (0..INSTS)
            .map(|i| {
                let base = (tb << 24) | ((warp as u64) << 20) | (i << 16);
                Instruction::Store(LaneAddrs::strided(base, 32, 2048))
            })
            .collect()
    });
    let flood = Workload::new("flood", vec![KernelSpec::new("k", TBS, WARPS, gen)]);
    let stores = TBS * WARPS as u64 * INSTS * 32;
    let before = reset_peak();
    let report = build_sim_with(GpuConfig::table1(), flood).run();
    let per_store = (PEAK.load(Ordering::Relaxed) - before) as f64 / stores as f64;
    assert_eq!(report.dram.writes, stores, "every store reached DRAM");
    assert!(
        report.noc_latency > 100_000.0,
        "the stores queued at one port (mean latency {} core cycles)",
        report.noc_latency
    );
    assert!(
        per_store < 44.0,
        "{per_store:.1} heap bytes per store in flight"
    );
}
