//! Batch grouping for sweeps: a [`BatchSim`] runs a group of simulations
//! one after another.
//!
//! What a batch buys is decided above this crate: the harness groups
//! same-machine jobs and runs lanes that are the *same simulation* once
//! (see `valley_harness::execute_batch_timed`). Here a batch is nothing
//! more than its lanes in order, each on [`GpuSim::run`].

use crate::gpu::GpuSim;
use crate::metrics::SimReport;

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
