//! Steady-state allocation auditing (feature `alloc-audit`).
//!
//! The engine contract says the tick loops allocate nothing once
//! warmed up: per-tick component APIs append into caller-provided
//! buffers that reach their high-water mark during warmup. This module
//! gives that claim runtime teeth. A counting `#[global_allocator]` in
//! the audit test binary reports every heap allocation to [`on_alloc`];
//! the drive loops report their cycle to [`note_cycle`]; and the few
//! *legitimate* allocation sites inside the measured window — workload
//! generation building a warp's instruction stream at TB assignment,
//! transaction-arena growth, kernel loading — bracket themselves with
//! [`pause`], declaring "this is input generation or pool growth, not
//! engine work". The audit tests then assert the engine allocates
//! **zero** bytes over the back quarter of a run.
//!
//! With the feature disabled (the default), every function here is an
//! empty `#[inline]` body: the hot loops carry no cost.
//!
//! The counters are process-global, so audit tests must serialize (the
//! test binary uses a mutex) and run the engine single-threaded.

#[cfg(feature = "alloc-audit")]
mod imp {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    /// Allocations observed while armed and unpaused (the violations).
    pub static SPAN_ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Allocations observed while armed but paused (the declared sites).
    pub static PAUSED_ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Cycle window [start, end) in which the audit is armed.
    pub static WINDOW_START: AtomicU64 = AtomicU64::new(u64::MAX);
    pub static WINDOW_END: AtomicU64 = AtomicU64::new(u64::MAX);
    pub static ARMED: AtomicBool = AtomicBool::new(false);
    pub static PAUSE_DEPTH: AtomicUsize = AtomicUsize::new(0);

    pub fn relaxed() -> Ordering {
        Ordering::Relaxed
    }
}

/// RAII guard from [`pause`]; allocations while any guard lives are
/// counted as declared, not as violations.
#[must_use]
pub struct PauseGuard(());

impl Drop for PauseGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "alloc-audit")]
        imp::PAUSE_DEPTH.fetch_sub(1, imp::relaxed());
    }
}

/// Declares a legitimate allocation region (input generation, pool
/// growth) inside the measured window.
#[inline]
pub fn pause() -> PauseGuard {
    #[cfg(feature = "alloc-audit")]
    imp::PAUSE_DEPTH.fetch_add(1, imp::relaxed());
    PauseGuard(())
}

/// Called by the audit test's global allocator on every allocation.
#[inline]
pub fn on_alloc() {
    #[cfg(feature = "alloc-audit")]
    {
        if imp::ARMED.load(imp::relaxed()) {
            if imp::PAUSE_DEPTH.load(imp::relaxed()) == 0 {
                imp::SPAN_ALLOCS.fetch_add(1, imp::relaxed());
            } else {
                imp::PAUSED_ALLOCS.fetch_add(1, imp::relaxed());
            }
        }
    }
}

/// Sets the audited cycle window `[start, end)` and clears the span
/// counters. Call before running the engine.
#[inline]
pub fn set_window(start: u64, end: u64) {
    #[cfg(not(feature = "alloc-audit"))]
    let _ = (start, end);
    #[cfg(feature = "alloc-audit")]
    {
        imp::SPAN_ALLOCS.store(0, imp::relaxed());
        imp::PAUSED_ALLOCS.store(0, imp::relaxed());
        imp::WINDOW_START.store(start, imp::relaxed());
        imp::WINDOW_END.store(end, imp::relaxed());
        imp::ARMED.store(false, imp::relaxed());
    }
}

/// Drive-loop hook: arms/disarms the audit as `cycle` crosses the
/// window bounds. Called once per outer loop iteration.
#[inline]
pub fn note_cycle(cycle: u64) {
    #[cfg(not(feature = "alloc-audit"))]
    let _ = cycle;
    #[cfg(feature = "alloc-audit")]
    {
        let armed = imp::ARMED.load(imp::relaxed());
        if !armed {
            if cycle >= imp::WINDOW_START.load(imp::relaxed())
                && cycle < imp::WINDOW_END.load(imp::relaxed())
            {
                imp::ARMED.store(true, imp::relaxed());
            }
        } else if cycle >= imp::WINDOW_END.load(imp::relaxed()) {
            imp::ARMED.store(false, imp::relaxed());
        }
    }
}

/// Drive-loop hook: unconditionally disarms (loop exit — everything
/// after, report building included, is allowed to allocate).
#[inline]
pub fn window_close() {
    #[cfg(feature = "alloc-audit")]
    imp::ARMED.store(false, imp::relaxed());
}

/// Whether an allocation right now would count as a violation (armed
/// window, no pause guard live). Lets the audit allocator itself
/// capture diagnostics — e.g. a backtrace — at the violating site.
#[inline]
pub fn violation_imminent() -> bool {
    #[cfg(feature = "alloc-audit")]
    return imp::ARMED.load(imp::relaxed()) && imp::PAUSE_DEPTH.load(imp::relaxed()) == 0;
    #[cfg(not(feature = "alloc-audit"))]
    false
}

/// Violations: allocations seen while armed and unpaused.
#[inline]
pub fn span_allocs() -> u64 {
    #[cfg(feature = "alloc-audit")]
    return imp::SPAN_ALLOCS.load(imp::relaxed());
    #[cfg(not(feature = "alloc-audit"))]
    0
}

/// Declared allocations seen while armed (paused regions).
#[inline]
pub fn paused_allocs() -> u64 {
    #[cfg(feature = "alloc-audit")]
    return imp::PAUSED_ALLOCS.load(imp::relaxed());
    #[cfg(not(feature = "alloc-audit"))]
    0
}
