//! Batch grouping for sweeps: the width knob ([`Batching`]) and a
//! [`BatchSim`] that runs a group of simulations one after another.
//!
//! What a batch buys is decided above this crate: the harness groups
//! same-machine jobs and runs lanes that are the *same simulation* once
//! (see `valley_harness::execute_batch_timed`). Here a batch is nothing
//! more than its lanes in order, each on [`GpuSim::run`].

use crate::gpu::GpuSim;
use crate::metrics::SimReport;

/// Batch-width knob for the harness's sweep executor: how many
/// same-machine jobs go into one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Batching(pub usize);

impl Batching {
    /// Reads `VALLEY_SIM_BATCH`: unset, empty, `0` or `1` mean no
    /// batching (width 1); `n > 1` means groups of up to `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not a non-negative integer, so a typo'd
    /// environment cannot silently fall back to unbatched runs.
    pub fn from_env() -> Self {
        match std::env::var("VALLEY_SIM_BATCH") {
            Err(_) => Batching(1),
            Ok(s) if s.is_empty() => Batching(1),
            Ok(s) => {
                let n: usize = s
                    .parse()
                    .unwrap_or_else(|_| panic!("VALLEY_SIM_BATCH={s} is not an integer"));
                Batching(n.max(1))
            }
        }
    }

    /// The batch width this knob requests (1 = unbatched).
    pub fn width(self) -> usize {
        self.0.max(1)
    }
}

/// A group of simulations ("lanes") run in lane order. Lanes are
/// independent and may differ in everything, machine included.
///
/// ```no_run
/// use valley_sim::BatchSim;
/// # fn sims() -> Vec<valley_sim::GpuSim> { unimplemented!() }
/// let reports = BatchSim::new(sims()).run();
/// ```
pub struct BatchSim {
    sims: Vec<GpuSim>,
}

impl BatchSim {
    /// Wraps `sims` as the lanes of one batch.
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty.
    pub fn new(sims: Vec<GpuSim>) -> Self {
        assert!(!sims.is_empty(), "a batch needs at least one lane");
        BatchSim { sims }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.sims.len()
    }

    /// Runs every lane to completion through [`GpuSim::run`] and returns
    /// the reports in lane order.
    pub fn run(self) -> Vec<SimReport> {
        self.sims.into_iter().map(GpuSim::run).collect()
    }
}
