//! Steady-state allocation audit for the compute kernels: a counting
//! global allocator proves that once the caller-provided scratch and
//! output buffers have reached their high-water mark, the kernels
//! allocate nothing — the same gate the sim tick loops pass.
//!
//! Unlike the sim audit there is no cycle clock here: the window is
//! armed directly around a second, fully-warmed round of kernel calls
//! on the same inputs. A paused canary allocation at the end proves the
//! window actually armed (the kernels themselves never pause in the
//! steady state — their only declared site is first-touch buffer
//! growth, which warmup exhausts).
//!
//! Requires `--features alloc-audit`; without it the hooks are empty
//! and this file compiles to nothing.
#![cfg(feature = "alloc-audit")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Mutex;
use valley_compute::matgen::dense_invertible;
use valley_compute::{backend, BvrTable, ComputeScratch, TILE};
use valley_core::alloc_audit;
use valley_core::entropy::{Bvr, EntropyMethod};

/// Counts every heap allocation into the audit before delegating to the
/// system allocator; prints a backtrace for the first few violations so
/// a failing run names the offending site.
struct CountingAlloc;

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
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        trace_violation(layout.size());
        alloc_audit::on_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        trace_violation(layout.size());
        alloc_audit::on_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The audit counters are process-global; serialize (future) audit
/// tests in this binary the same way the sim audit does.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn warmed_kernels_allocate_nothing() {
    let _guard = AUDIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let bim = dense_invertible(30, 3);
    let mut state = 0x5eed_u64;
    let addrs: Vec<u64> = (0..8 * TILE + 17)
        .map(|_| splitmix(&mut state) & ((1 << 30) - 1))
        .collect();
    let rows: Vec<Vec<Bvr>> = (0..30)
        .map(|_| {
            (0..96)
                .map(|_| {
                    let total = splitmix(&mut state) % 1000 + 1;
                    Bvr::new(splitmix(&mut state) % (total + 1), total)
                })
                .collect()
        })
        .collect();
    let table = BvrTable::from_bit_rows(&rows, 1);

    let mut scratch = ComputeScratch::new();
    let mut mapped = Vec::new();
    let mut ones = vec![0u64; 30];
    let mut entropies = Vec::new();
    let be = backend();
    let round = |scratch: &mut ComputeScratch,
                 mapped: &mut Vec<u64>,
                 ones: &mut Vec<u64>,
                 entropies: &mut Vec<f64>| {
        be.bim_apply_batch(&bim, &addrs, mapped, scratch);
        be.bvr_sweep(&addrs, ones, scratch);
        for method in [EntropyMethod::MixtureBvr, EntropyMethod::DistinctBvr] {
            be.window_entropy_sweep(&table, 12, method, entropies, scratch);
        }
    };

    // Warmup: buffers (output vectors, entropy prefix/count scratch, the
    // binary-entropy lookup table) reach their high-water mark.
    round(&mut scratch, &mut mapped, &mut ones, &mut entropies);

    alloc_audit::set_window(0, 1);
    alloc_audit::note_cycle(0);
    round(&mut scratch, &mut mapped, &mut ones, &mut entropies);
    let span = alloc_audit::span_allocs();

    // Canary: a paused allocation proves the window was armed at all.
    {
        let _p = alloc_audit::pause();
        std::hint::black_box(Vec::<u64>::with_capacity(256));
    }
    let paused = alloc_audit::paused_allocs();
    alloc_audit::window_close();

    assert_eq!(span, 0, "warmed compute kernels allocated in steady state");
    assert!(paused > 0, "audit window never armed");
}
