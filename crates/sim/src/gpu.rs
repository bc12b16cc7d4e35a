//! The full simulated GPU: SMs, the TB scheduler, request/reply crossbars,
//! LLC slices and the DRAM system, advanced cycle by cycle across their
//! three clock domains (core 1.4 GHz, NoC 700 MHz, DRAM 924 MHz).

use crate::config::GpuConfig;
use crate::llc::LlcSlice;
use crate::metrics::{EpochHist, ParallelismIntegrator, SimReport};
use crate::sm::{Sm, SmOutbound};
use crate::trace::{KernelSource, WorkloadSource};
use crate::txn::TxnTable;
use crate::wake::WakeGate;
use std::sync::Arc;
use valley_cache::CacheStats;
use valley_core::{AddressMapper, DramAddressMap, PhysAddr};
use valley_dram::{DramStats, DramSystem};
use valley_noc::{Crossbar, NocStats, Packet};

/// How often (in core cycles) the parallelism metrics are sampled.
pub(crate) const METRIC_SAMPLE_INTERVAL: u64 = 4;

/// Intra-simulation parallelism knob for [`GpuSim::run`].
///
/// `Shards(n)` partitions the SMs and the LLC-slice/DRAM-channel pairs
/// into `n` shards that tick concurrently between deterministic epoch
/// barriers (see `docs/harness.md`). The result is **bit-identical** to
/// the sequential engine for every configuration and shard count — the
/// shard count trades wall time, never results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded evented engine (the default).
    Off,
    /// Phase-parallel engine with this many shards; worker threads are
    /// capped at the machine's available parallelism.
    Shards(usize),
}

impl Parallelism {
    /// Reads `VALLEY_SIM_THREADS`: unset, empty, `0` or `1` mean
    /// [`Parallelism::Off`]; `n > 1` means [`Parallelism::Shards`]`(n)`.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not a non-negative integer, so a typo'd
    /// environment cannot silently fall back to single-threaded runs.
    pub fn from_env() -> Self {
        match std::env::var("VALLEY_SIM_THREADS") {
            Err(_) => Parallelism::Off,
            Ok(s) if s.is_empty() => Parallelism::Off,
            Ok(s) => {
                let n: usize = s
                    .parse()
                    .unwrap_or_else(|_| panic!("VALLEY_SIM_THREADS={s} is not an integer"));
                if n <= 1 {
                    Parallelism::Off
                } else {
                    Parallelism::Shards(n)
                }
            }
        }
    }

    /// The shard count this knob requests (1 = sequential).
    pub fn shards(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Shards(n) => n.max(1),
        }
    }
}

/// The complete simulated GPU.
///
/// Build one with [`GpuSim::new`], then call [`GpuSim::run`] to execute the
/// workload to completion and collect a [`SimReport`].
///
/// # Examples
///
/// See `valley-workloads` and the `quickstart` example; a minimal run:
///
/// ```no_run
/// use valley_core::{AddressMapper, GddrMap, SchemeKind};
/// use valley_sim::{GpuConfig, GpuSim};
/// # fn workload() -> Box<dyn valley_sim::WorkloadSource> { unimplemented!() }
///
/// let map = GddrMap::baseline();
/// let mapper = AddressMapper::build(SchemeKind::Pae, &map, 1);
/// let sim = GpuSim::new(GpuConfig::table1(), mapper, map, workload());
/// let report = sim.run();
/// println!("{} cycles", report.cycles);
/// ```
pub struct GpuSim {
    pub(crate) cfg: GpuConfig,
    pub(crate) mapper: AddressMapper,
    /// The (immutable) address map for slice routing — the *same*
    /// allocation the DRAM system decodes coordinates through.
    pub(crate) map: Arc<dyn DramAddressMap + Send + Sync>,
    dram: DramSystem,
    req_net: Crossbar,
    reply_net: Crossbar,
    sms: Vec<Sm>,
    slices: Vec<LlcSlice>,
    txns: TxnTable,
    pub(crate) workload: Box<dyn WorkloadSource>,
}

/// Uniform access to the SM population for the TB scheduler, so the
/// identical scheduling code drives both the sequential `Vec<Sm>` and the
/// parallel engine's sharded SMs (any divergence here would break the
/// engines' bit-identity).
pub(crate) trait SmPool {
    fn num_sms(&self) -> usize;
    /// Sum of retired TBs over all SMs.
    fn retired_total(&self) -> u64;
    fn can_accept(&self, sm: usize, warps_per_block: usize, tbs_limit: usize) -> bool;
    fn assign(&mut self, sm: usize, kernel: &dyn KernelSource, tb: u64, age: u64, cycle: u64);
}

/// The sequential engine's pool: a plain slice of SMs.
pub(crate) struct SliceSmPool<'a>(pub(crate) &'a mut [Sm]);

impl SmPool for SliceSmPool<'_> {
    fn num_sms(&self) -> usize {
        self.0.len()
    }
    fn retired_total(&self) -> u64 {
        self.0.iter().map(Sm::retired_tbs).sum()
    }
    fn can_accept(&self, sm: usize, warps_per_block: usize, tbs_limit: usize) -> bool {
        self.0[sm].can_accept_tb(warps_per_block, tbs_limit)
    }
    fn assign(&mut self, sm: usize, kernel: &dyn KernelSource, tb: u64, age: u64, cycle: u64) {
        self.0[sm].assign_tb(kernel, tb, age, cycle);
    }
}

/// Kernel-serial TB scheduler state.
pub(crate) struct TbScheduler {
    pub(crate) kernel_idx: usize,
    num_kernels: usize,
    pub(crate) kernel: Option<Box<dyn KernelSource>>,
    next_tb: u64,
    total_tbs: u64,
    retired_base: u64,
    rr_sm: usize,
    age_counter: u64,
    /// Total retired TBs observed at the last `schedule_tbs` run. While a
    /// kernel is loaded and this is unchanged, no SM capacity was freed,
    /// so `schedule_tbs` would provably be a no-op and is skipped.
    retired_seen: u64,
}

/// Outcome of one fast-forward attempt.
enum FastForward {
    /// Simulation resumes densely at the current cycle.
    Resumed,
    /// The cycle safety limit was reached while skipping.
    Truncated,
}

/// One core cycle's worth of a slower clock domain's accumulator
/// arithmetic, exactly as the dense loop performs it (add the ratio,
/// then repeatedly subtract 1.0 — *not* `fract`/`floor`, whose float
/// rounding differs): returns the post-cycle accumulator and how many
/// domain ticks elapse. Shared by `fast_forward`'s pre-check and skip
/// loop so the two can never drift apart and break `run == run_dense`.
#[inline]
pub(crate) fn domain_ticks(acc: f64, per_core: f64) -> (f64, u64) {
    let mut a = acc + per_core;
    let mut ticks = 0u64;
    while a >= 1.0 {
        a -= 1.0;
        ticks += 1;
    }
    (a, ticks)
}

impl TbScheduler {
    pub(crate) fn new(num_kernels: usize) -> Self {
        TbScheduler {
            kernel_idx: 0,
            num_kernels,
            kernel: None,
            next_tb: 0,
            total_tbs: 0,
            retired_base: 0,
            rr_sm: 0,
            age_counter: 0,
            retired_seen: 0,
        }
    }

    pub(crate) fn finished(&self) -> bool {
        self.kernel.is_none() && self.kernel_idx >= self.num_kernels
    }

    /// Whether the scheduler could make progress this cycle: load the
    /// next kernel, place a pending TB on an SM with room, or advance
    /// past a fully-retired kernel. When `false`, [`TbScheduler::run`]
    /// is a no-op until some SM state changes (which requires an SM or
    /// NoC event).
    pub(crate) fn can_progress<P: SmPool>(&self, sms: &P, cfg: &GpuConfig) -> bool {
        let Some(kernel) = self.kernel.as_deref() else {
            return self.kernel_idx < self.num_kernels;
        };
        if self.next_tb < self.total_tbs {
            let wpb = kernel.warps_per_block();
            let limit = cfg.tbs_per_sm(wpb);
            if (0..sms.num_sms()).any(|i| sms.can_accept(i, wpb, limit)) {
                return true;
            }
        }
        if self.next_tb == self.total_tbs {
            let retired = sms.retired_total();
            if retired - self.retired_base == self.total_tbs {
                return true;
            }
        }
        false
    }

    /// One scheduling pass: load the next kernel if none is resident,
    /// assign pending TBs round-robin to SMs with room, and advance past
    /// the kernel once every TB retired. Identical logic drives the
    /// sequential and the phase-parallel engines via [`SmPool`].
    pub(crate) fn run<P: SmPool>(
        &mut self,
        sms: &mut P,
        workload: &dyn WorkloadSource,
        cfg: &GpuConfig,
        cycle: u64,
    ) {
        let retired = sms.retired_total();
        // Load the next kernel once the previous one fully retired.
        let mut just_loaded = false;
        if self.kernel.is_none() {
            if self.kernel_idx >= self.num_kernels {
                return;
            }
            let k = workload.kernel(self.kernel_idx);
            self.total_tbs = k.num_thread_blocks();
            self.next_tb = 0;
            self.retired_base = retired;
            self.kernel = Some(k);
            just_loaded = true;
        }
        // SM capacity only changes when a TB retires; with the kernel
        // already loaded and no retire since the last run, assignment and
        // the kernel-advance check below are provably no-ops.
        if !just_loaded && retired == self.retired_seen {
            return;
        }
        self.retired_seen = retired;
        let kernel = self.kernel.as_deref().expect("kernel loaded above");
        let wpb = kernel.warps_per_block();
        let tbs_limit = cfg.tbs_per_sm(wpb);

        // Assign TBs round-robin while any SM has room.
        'assign: while self.next_tb < self.total_tbs {
            let n = sms.num_sms();
            for probe in 0..n {
                let sm = (self.rr_sm + probe) % n;
                if sms.can_accept(sm, wpb, tbs_limit) {
                    sms.assign(sm, kernel, self.next_tb, self.age_counter, cycle);
                    self.age_counter += 1;
                    self.next_tb += 1;
                    self.rr_sm = (sm + 1) % n;
                    continue 'assign;
                }
            }
            break;
        }

        // Advance to the next kernel when every TB retired.
        if self.next_tb == self.total_tbs && retired - self.retired_base == self.total_tbs {
            self.kernel = None;
            self.kernel_idx += 1;
        }
    }
}

impl GpuSim {
    /// Creates a simulator for `workload` under the mapping scheme
    /// `mapper`, decoding DRAM coordinates through `map`.
    pub fn new<M>(
        cfg: GpuConfig,
        mapper: AddressMapper,
        map: M,
        workload: Box<dyn WorkloadSource>,
    ) -> Self
    where
        M: DramAddressMap + Send + Sync + 'static,
    {
        let map: Arc<dyn DramAddressMap + Send + Sync> = Arc::new(map);
        let dram = DramSystem::new(Arc::clone(&map), cfg.dram);
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i as u32, &cfg)).collect();
        let slices = (0..cfg.llc_slices)
            .map(|i| LlcSlice::new(i as u16, &cfg))
            .collect();
        GpuSim {
            req_net: Crossbar::new(cfg.num_sms, cfg.llc_slices, cfg.noc_router_latency),
            reply_net: Crossbar::new(cfg.llc_slices, cfg.num_sms, cfg.noc_router_latency),
            sms,
            slices,
            txns: TxnTable::new(),
            workload,
            mapper,
            map,
            dram,
            cfg,
        }
    }

    /// The LLC slice serving a mapped address: controller-interleaved,
    /// with the low bank bit distinguishing the two slices per controller.
    pub(crate) fn slice_of(map: &dyn DramAddressMap, llc_slices: usize, addr: PhysAddr) -> u16 {
        let nc = map.num_controllers();
        if nc >= llc_slices {
            (map.controller_of(addr) % llc_slices) as u16
        } else {
            let per = llc_slices / nc;
            (map.controller_of(addr) * per + (map.bank_of(addr) % per)) as u16
        }
    }

    /// Runs the workload to completion (or to the cycle safety limit) and
    /// returns the collected metrics, fast-forwarding over provably
    /// event-free cycle spans. The results — cycle count, DRAM statistics
    /// and cache statistics — are bit-identical to [`GpuSim::run_dense`];
    /// see `tests/event_driven_equivalence.rs`.
    ///
    /// Honors `VALLEY_SIM_THREADS` (see [`Parallelism::from_env`]): with
    /// `n > 1` the run executes on the phase-parallel engine, whose
    /// results are bit-identical to the sequential ones for every shard
    /// count.
    pub fn run(self) -> SimReport {
        let par = Parallelism::from_env();
        self.run_with(par)
    }

    /// [`GpuSim::run`] with an explicit [`Parallelism`] knob.
    pub fn run_with(self, par: Parallelism) -> SimReport {
        let shards = par.shards();
        // The parallel engine shares the evented gates' clock-domain
        // assumption (domain clocks no faster than the core clock); a
        // config outside it runs sequentially, keeping results identical
        // by construction instead of silently diverging.
        if shards >= 2 && self.cfg.noc_per_core() <= 1.0 && self.cfg.dram_per_core() <= 1.0 {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(shards);
            crate::par::run_sharded(self, shards, threads)
        } else {
            self.run_with_mode(true)
        }
    }

    /// Runs on the phase-parallel engine with explicit shard and worker
    /// thread counts. Primarily for the cross-thread equivalence battery,
    /// which pins shard counts and the threaded transport independently
    /// of the machine's core count; `shards` must be ≥ 2.
    #[doc(hidden)]
    pub fn run_sharded(self, shards: usize, threads: usize) -> SimReport {
        assert!(shards >= 2, "the sharded engine needs at least 2 shards");
        assert!(
            self.cfg.noc_per_core() <= 1.0 && self.cfg.dram_per_core() <= 1.0,
            "the sharded engine requires domain clocks no faster than the core clock"
        );
        crate::par::run_sharded(self, shards, threads)
    }

    /// Runs the workload with the dense reference loop that advances every
    /// component one cycle at a time — the oracle the event-driven fast
    /// path is validated against (and the perf baseline it is measured
    /// against).
    pub fn run_dense(self) -> SimReport {
        self.run_with_mode(false)
    }

    fn run_with_mode(mut self, event_driven: bool) -> SimReport {
        // The event-driven gates translate DRAM-domain event times into
        // core cycles assuming the DRAM clock is no faster than the core
        // clock (true for every shipped config). A custom config that
        // violates it gets the dense loop, keeping run() == run_dense()
        // by construction instead of silently diverging.
        let event_driven = event_driven && self.cfg.dram_per_core() <= 1.0;
        let mut cycle: u64 = 0;
        let mut noc_acc = 0.0f64;
        let mut dram_acc = 0.0f64;
        let mut noc_cycle: u64 = 0;
        let mut dram_cycle: u64 = 0;
        let noc_per_core = self.cfg.noc_per_core();
        let dram_per_core = self.cfg.dram_per_core();

        let mut sched = TbScheduler::new(self.workload.num_kernels());
        let mut parallelism = ParallelismIntegrator::new();
        let mut outbound: Vec<SmOutbound> = Vec::new();
        let mut replies: Vec<u64> = Vec::new();
        // Reusable hot-loop buffers: the per-tick component APIs append to
        // caller-provided Vecs, so steady state allocates nothing.
        let mut deliveries: Vec<valley_noc::Delivery> = Vec::with_capacity(64);
        let mut completions: Vec<valley_dram::DramCompletion> = Vec::with_capacity(64);
        let mut banks_buf: Vec<usize> = Vec::with_capacity(self.dram.num_channels());
        let mut truncated = false;
        // Whether `sched_can_progress` is known to be false (cached by
        // `fast_forward`): exact while no SM ticked, no reply was
        // delivered and `schedule_tbs` did not run, since those are the
        // only ways SM capacity or kernel state can change.
        let mut sched_quiet = false;
        // Wake gates over the SM and LLC-slice populations (see
        // `crate::wake`): rebuilt from the per-unit next-event caches
        // whenever the corresponding walk runs, and clamped by every
        // out-of-band invalidation (delivery, DRAM fill, reply, TB
        // assignment). While `cycle` is below a gate, every per-unit
        // self-gate in that walk would no-op, so the walk itself is
        // skipped — and `fast_forward` reads the core-domain horizon in
        // O(1) instead of scanning every component.
        let mut sms_next = WakeGate::new();
        let mut slices_next = WakeGate::new();

        'outer: loop {
            crate::alloc_audit::note_cycle(cycle);
            // ---- Fast-forward over globally event-free cycles ----
            if event_driven {
                if let FastForward::Truncated = self.fast_forward(
                    &mut cycle,
                    &mut noc_acc,
                    &mut noc_cycle,
                    &mut dram_acc,
                    &mut dram_cycle,
                    noc_per_core,
                    dram_per_core,
                    &sched,
                    &mut sched_quiet,
                    sms_next.get().min(slices_next.get()),
                    &mut parallelism,
                    &mut banks_buf,
                ) {
                    truncated = true;
                    break 'outer;
                }
            }
            // True once any SM's scheduling-relevant state may have
            // changed this cycle (reply delivered or tick ran).
            let mut sm_activity = false;

            // ---- NoC clock domain ----
            noc_acc += noc_per_core;
            while noc_acc >= 1.0 {
                noc_acc -= 1.0;
                deliveries.clear();
                if event_driven {
                    self.req_net.tick_evented(noc_cycle, &mut deliveries);
                } else {
                    self.req_net.tick(noc_cycle, &mut deliveries);
                }
                for d in &deliveries {
                    self.slices[d.dst].deliver(d.payload);
                    slices_next.wake_now();
                }
                deliveries.clear();
                if event_driven {
                    self.reply_net.tick_evented(noc_cycle, &mut deliveries);
                } else {
                    self.reply_net.tick(noc_cycle, &mut deliveries);
                }
                for d in &deliveries {
                    self.sms[d.dst].on_reply(d.payload, &self.txns, cycle);
                    sm_activity = true;
                    sms_next.wake_now();
                }
                noc_cycle += 1;
            }

            // ---- DRAM clock domain ----
            dram_acc += dram_per_core;
            while dram_acc >= 1.0 {
                dram_acc -= 1.0;
                completions.clear();
                if event_driven {
                    self.dram.tick_evented(dram_cycle, &mut completions);
                } else {
                    self.dram.tick(dram_cycle, &mut completions);
                }
                for c in &completions {
                    let t = self.txns.get(c.id);
                    if !t.is_store {
                        let slice = t.slice as usize;
                        self.slices[slice].on_dram_completion(
                            c.id,
                            cycle,
                            &mut self.txns,
                            &self.mapper,
                            &mut replies,
                        );
                        slices_next.wake_now();
                    }
                }
                dram_cycle += 1;
            }

            // ---- LLC slices ----
            // Below `slices_next` every slice's own gate would no-op;
            // skip the walk (the minimum is clamped to zero by every
            // out-of-band slice invalidation above).
            if !event_driven || cycle >= slices_next.get() {
                let mut next = u64::MAX;
                for s in &mut self.slices {
                    if event_driven {
                        s.tick_evented(
                            cycle,
                            dram_cycle,
                            &self.cfg,
                            &mut self.dram,
                            &mut self.txns,
                            &self.mapper,
                            &mut replies,
                        );
                        next = next.min(s.cached_next_event());
                    } else {
                        s.tick(
                            cycle,
                            dram_cycle,
                            &self.cfg,
                            &mut self.dram,
                            &mut self.txns,
                            &self.mapper,
                            &mut replies,
                        );
                    }
                }
                slices_next.rebuild(next);
            }
            for txn in replies.drain(..) {
                let t = self.txns.get(txn);
                self.reply_net.inject(Packet {
                    payload: txn,
                    src: t.slice as usize,
                    dst: t.sm as usize,
                    flits: valley_noc::DATA_FLITS,
                    injected_at: noc_cycle,
                });
            }

            // ---- SMs ----
            {
                let map = self.map.as_ref();
                let llc_slices = self.cfg.llc_slices;
                let slicer = move |addr: PhysAddr| Self::slice_of(map, llc_slices, addr);
                if !event_driven || cycle >= sms_next.get() {
                    let mut next = u64::MAX;
                    for sm in &mut self.sms {
                        if event_driven {
                            sm_activity |= sm.tick_evented(
                                cycle,
                                &self.cfg,
                                &self.mapper,
                                &mut self.txns,
                                &slicer,
                                &mut outbound,
                            );
                            next = next.min(sm.cached_next_event());
                        } else {
                            sm.tick(
                                cycle,
                                &self.cfg,
                                &self.mapper,
                                &mut self.txns,
                                &slicer,
                                &mut outbound,
                            );
                        }
                    }
                    sms_next.rebuild(next);
                }
            }
            for o in outbound.drain(..) {
                let t = self.txns.get(o.txn);
                self.req_net.inject(Packet {
                    payload: o.txn,
                    src: t.sm as usize,
                    dst: t.slice as usize,
                    flits: o.flits,
                    injected_at: noc_cycle,
                });
            }

            // ---- TB scheduler ----
            // With no SM activity and a kernel loaded, `schedule_tbs` is
            // provably a no-op (its retired-count early-out would fire);
            // skip the call and its per-SM retired sum. Dense mode keeps
            // the unconditional call of the reference loop.
            if !event_driven || sm_activity || sched.kernel.is_none() {
                self.schedule_tbs(&mut sched, cycle);
                sched_quiet = false;
                // `assign_tb` zeroes the assigned SM's next-event cache.
                sms_next.wake_now();
            }

            // ---- Metrics ----
            if cycle.is_multiple_of(METRIC_SAMPLE_INTERVAL) {
                let busy_slices = self.slices.iter().filter(|s| !s.is_idle()).count();
                let busy_channels = self.dram.busy_channels();
                self.dram.busy_banks_per_busy_channel_into(&mut banks_buf);
                parallelism.sample(busy_slices, busy_channels, &banks_buf);
            }

            cycle += 1;

            // ---- Termination ----
            if sched.finished() && self.is_drained() {
                break;
            }
            if cycle >= self.cfg.max_cycles {
                truncated = true;
                break;
            }
        }

        crate::alloc_audit::window_close();
        // Settle all deferred counters (no-ops after a dense run).
        self.req_net.flush_deferred(noc_cycle);
        self.reply_net.flush_deferred(noc_cycle);
        self.dram.flush_deferred(dram_cycle);
        for sm in &mut self.sms {
            sm.flush_idle(cycle);
        }
        for s in &mut self.slices {
            s.flush_stall(cycle);
        }
        self.report(cycle, dram_cycle, truncated, &parallelism, &sched)
    }

    /// Whether the TB scheduler could make progress this cycle (see
    /// [`TbScheduler::can_progress`]).
    fn sched_can_progress(&mut self, sched: &TbScheduler) -> bool {
        sched.can_progress(&SliceSmPool(&mut self.sms), &self.cfg)
    }

    /// Advances the simulation over cycles in which *no* component does
    /// any work, replaying exactly the clock-accumulator arithmetic of the
    /// dense loop (so all results stay bit-identical) without touching any
    /// component. Component counters need no attention here: the evented
    /// tick paths defer and settle them lazily. Stops at the earliest
    /// cycle at which any clock domain has a due event, the TB scheduler
    /// can progress, or the cycle safety limit is reached.
    #[allow(clippy::too_many_arguments)]
    fn fast_forward(
        &mut self,
        cycle: &mut u64,
        noc_acc: &mut f64,
        noc_cycle: &mut u64,
        dram_acc: &mut f64,
        dram_cycle: &mut u64,
        noc_per_core: f64,
        dram_per_core: f64,
        sched: &TbScheduler,
        sched_quiet: &mut bool,
        core_next: u64,
        parallelism: &mut ParallelismIntegrator,
        banks_buf: &mut Vec<usize>,
    ) -> FastForward {
        let noc_next = self
            .req_net
            .cached_next_event()
            .min(self.reply_net.cached_next_event());
        let dram_next = self.dram.cached_next_event();
        // Cheap pre-check: would skipping even one cycle run past a due
        // NoC or DRAM event? In memory-saturated phases (an event every
        // DRAM cycle) this bails before the per-SM/per-slice scans below,
        // with the exact outcome the full loop would reach — all early
        // returns here are mutation-free `Resumed`s.
        {
            let (_, nt) = domain_ticks(*noc_acc, noc_per_core);
            if *noc_cycle + nt > noc_next {
                return FastForward::Resumed;
            }
            let (_, dt) = domain_ticks(*dram_acc, dram_per_core);
            if *dram_cycle + dt > dram_next {
                return FastForward::Resumed;
            }
        }
        // Earliest core-domain event: the run loop's maintained minimum
        // over the SM and slice next-event caches. These are exact,
        // never-late hints: ticks recompute them and mutations (NoC
        // injects, DRAM enqueues, deliveries) *lower* them to the
        // mutation's own earliest consequence instead of
        // blanket-invalidating, so a burst of injections to a busy port
        // or bank no longer collapses the fast-forward window.
        if core_next <= *cycle {
            return FastForward::Resumed;
        }
        if !*sched_quiet {
            if self.sched_can_progress(sched) {
                return FastForward::Resumed;
            }
            // Cache the negative verdict; the run loop clears it on any
            // SM activity or `schedule_tbs` run.
            *sched_quiet = true;
        }

        let skip_start = *cycle;
        loop {
            if core_next <= *cycle {
                break;
            }
            // Replicate the dense loop's accumulator arithmetic on copies
            // so a rejected cycle leaves no trace.
            let (na, nt) = domain_ticks(*noc_acc, noc_per_core);
            if *noc_cycle + nt > noc_next {
                break;
            }
            let (da, dt) = domain_ticks(*dram_acc, dram_per_core);
            if *dram_cycle + dt > dram_next {
                break;
            }
            *noc_acc = na;
            *noc_cycle += nt;
            *dram_acc = da;
            *dram_cycle += dt;
            *cycle += 1;
            if *cycle >= self.cfg.max_cycles {
                break;
            }
        }

        let skipped = *cycle - skip_start;
        if skipped > 0 {
            // Sampling points that elapsed in [skip_start, cycle) all see
            // the same frozen state.
            let samples = (skip_start + skipped).div_ceil(METRIC_SAMPLE_INTERVAL)
                - skip_start.div_ceil(METRIC_SAMPLE_INTERVAL);
            if samples > 0 {
                let busy_slices = self.slices.iter().filter(|s| !s.is_idle()).count();
                let busy_channels = self.dram.busy_channels();
                self.dram.busy_banks_per_busy_channel_into(banks_buf);
                parallelism.sample_n(busy_slices, busy_channels, banks_buf, samples);
            }
        }
        if *cycle >= self.cfg.max_cycles {
            FastForward::Truncated
        } else {
            FastForward::Resumed
        }
    }

    fn is_drained(&self) -> bool {
        self.sms.iter().all(Sm::is_idle)
            && self.slices.iter().all(LlcSlice::is_idle)
            && !self.dram.is_busy()
            && !self.req_net.is_busy()
            && !self.reply_net.is_busy()
    }

    fn schedule_tbs(&mut self, sched: &mut TbScheduler, cycle: u64) {
        sched.run(
            &mut SliceSmPool(&mut self.sms),
            self.workload.as_ref(),
            &self.cfg,
            cycle,
        );
    }

    fn report(
        &self,
        cycles: u64,
        dram_cycles: u64,
        truncated: bool,
        parallelism: &ParallelismIntegrator,
        sched: &TbScheduler,
    ) -> SimReport {
        build_report(ReportParts {
            cfg: &self.cfg,
            benchmark: self.workload.name(),
            scheme: self.mapper.kind().label().to_string(),
            cycles,
            dram_cycles,
            truncated,
            parallelism,
            kernels: sched.kernel_idx,
            sms: &mut self.sms.iter(),
            slices: &mut self.slices.iter(),
            dram: self.dram.total_stats(),
            dram_channels: self.dram.num_channels(),
            req: self.req_net.stats(),
            rep: self.reply_net.stats(),
            memory_transactions: self.txns.len(),
            epoch_hist: EpochHist::default(),
        })
    }
}

/// Everything [`build_report`] aggregates; both engines feed it their
/// components in global index order so every counter sums identically.
pub(crate) struct ReportParts<'a> {
    pub cfg: &'a GpuConfig,
    pub benchmark: String,
    pub scheme: String,
    pub cycles: u64,
    pub dram_cycles: u64,
    pub truncated: bool,
    pub parallelism: &'a ParallelismIntegrator,
    pub kernels: usize,
    pub sms: &'a mut dyn Iterator<Item = &'a Sm>,
    pub slices: &'a mut dyn Iterator<Item = &'a LlcSlice>,
    pub dram: DramStats,
    pub dram_channels: usize,
    pub req: NocStats,
    pub rep: NocStats,
    pub memory_transactions: u64,
    /// Engine diagnostics (empty for the sequential and dense engines).
    pub epoch_hist: EpochHist,
}

/// Assembles the final [`SimReport`] — the single aggregation routine
/// shared by the sequential and phase-parallel engines.
pub(crate) fn build_report(parts: ReportParts<'_>) -> SimReport {
    let mut l1 = CacheStats::default();
    let mut warp_instructions = 0;
    let mut busy = 0u64;
    let mut num_sms = 0u64;
    for sm in parts.sms {
        let s = sm.l1_stats();
        l1.hits += s.hits;
        l1.misses += s.misses;
        l1.evictions += s.evictions;
        warp_instructions += sm.warp_instructions();
        busy += sm.busy_cycles();
        num_sms += 1;
    }
    let mut llc = CacheStats::default();
    for s in parts.slices {
        let st = s.stats();
        llc.hits += st.hits;
        llc.misses += st.misses;
        llc.evictions += st.evictions;
    }
    let delivered = parts.req.delivered + parts.rep.delivered;
    let noc_to_core = parts.cfg.core_clock_ghz / parts.cfg.noc_clock_ghz;
    let noc_latency = if delivered == 0 {
        0.0
    } else {
        (parts.req.total_latency + parts.rep.total_latency) as f64 / delivered as f64 * noc_to_core
    };
    SimReport {
        benchmark: parts.benchmark,
        scheme: parts.scheme,
        cycles: parts.cycles,
        truncated: parts.truncated,
        warp_instructions,
        thread_instructions: warp_instructions * parts.cfg.warp_size as u64,
        memory_transactions: parts.memory_transactions,
        l1,
        llc,
        noc_latency,
        llc_parallelism: parts.parallelism.llc_parallelism(),
        channel_parallelism: parts.parallelism.channel_parallelism(),
        bank_parallelism: parts.parallelism.bank_parallelism(),
        dram: parts.dram,
        kernels: parts.kernels,
        dram_cycles: parts.dram_cycles,
        dram_channels: parts.dram_channels,
        core_clock_ghz: parts.cfg.core_clock_ghz,
        dram_clock_ghz: parts.cfg.dram.clock_ghz,
        num_sms: parts.cfg.num_sms,
        sm_busy_fraction: if parts.cycles == 0 {
            0.0
        } else {
            busy as f64 / (parts.cycles * num_sms) as f64
        },
        epoch_hist: parts.epoch_hist,
    }
}
