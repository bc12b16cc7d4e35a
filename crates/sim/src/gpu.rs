//! The full simulated GPU: SMs, the TB scheduler, request/reply crossbars,
//! LLC slices and the DRAM system, advanced cycle by cycle across their
//! three clock domains (core 1.4 GHz, NoC 700 MHz, DRAM 924 MHz).

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::config::GpuConfig;
use crate::llc::LlcSlice;
use crate::metrics::{ParallelismIntegrator, SimReport};
use crate::sm::{Sm, SmOutbound};
use crate::trace::{KernelSource, WorkloadSource};
use crate::txn::{id_of, Route, TxnTable, NO_WARP};
use crate::wake::audit::{count, Counter};
use crate::wake::DomainClock;
use std::ops::Range;
use valley_cache::CacheStats;
use valley_core::{AddressMapper, DramMap, PhysAddr};
use valley_dram::DramSystem;
use valley_noc::{Crossbar, Packet, DATA_FLITS, REQUEST_FLITS};

/// How often (in core cycles) the parallelism metrics are sampled.
const METRIC_SAMPLE_INTERVAL: u64 = 4;

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
/// use valley_core::{AddressMapper, DramMap, SchemeKind};
/// use valley_sim::{GpuConfig, GpuSim};
/// # fn workload() -> Box<dyn valley_sim::WorkloadSource> { unimplemented!() }
///
/// let map = DramMap::baseline();
/// let mapper = AddressMapper::build(SchemeKind::Pae, &map, 1);
/// let sim = GpuSim::new(GpuConfig::table1(), mapper, map, workload());
/// let report = sim.run();
/// println!("{} cycles", report.cycles);
/// ```
pub struct GpuSim {
    cfg: GpuConfig,
    mapper: AddressMapper,
    /// The DRAM system, whose decode routes every transaction at issue
    /// (`GpuSim::route`).
    dram: DramSystem,
    req_net: Crossbar,
    reply_net: Crossbar,
    sms: Vec<Sm>,
    slices: Vec<LlcSlice>,
    txns: TxnTable,
    workload: Box<dyn WorkloadSource>,
}

/// Kernel-serial TB scheduler: one kernel resident at a time, its thread
/// blocks handed round-robin to the SMs with room. The SMs hold which TBs
/// are resident; the kernel ends once every TB was assigned and no SM
/// holds one. A unit like the others: the drive loop runs
/// [`TbScheduler::tick`] where its gate admits
/// [`TbScheduler::cached_next_event`].
struct TbScheduler {
    kernel_idx: usize,
    kernel: Option<Box<dyn KernelSource>>,
    next_tb: u64,
    rr_sm: usize,
    /// The next TB's age, unique per TB: an SM tells its TBs apart by it.
    age_counter: u64,
    /// The exact next cycle at which a pass changes anything: 0 (the
    /// first kernel to load), the cycle an SM retired a TB (room freed,
    /// perhaps the kernel finished), the cycle after a kernel finished
    /// while another remains; else `u64::MAX`. Only a retirement frees an
    /// SM slot, and a pass assigns until none fits.
    next: u64,
}

impl TbScheduler {
    fn new() -> Self {
        TbScheduler {
            kernel_idx: 0,
            kernel: None,
            next_tb: 0,
            rr_sm: 0,
            age_counter: 0,
            next: 0,
        }
    }

    fn finished(&self, workload: &dyn WorkloadSource) -> bool {
        self.kernel.is_none() && self.kernel_idx >= workload.num_kernels()
    }

    #[inline]
    fn cached_next_event(&self) -> u64 {
        self.next
    }

    /// An SM's tick at `cycle` retired `tbs` thread blocks of the loaded
    /// kernel: a pass is due that cycle.
    #[inline]
    fn retire(&mut self, tbs: u64, cycle: u64) {
        if tbs > 0 {
            self.next = self.next.min(cycle);
        }
    }

    /// One scheduling pass: load the next kernel if none is resident,
    /// assign pending TBs round-robin to SMs with room, and advance past
    /// the kernel once every TB was assigned and retired. Returns whether
    /// any TB was assigned (the only way a pass changes an SM).
    fn tick(&mut self, sms: &mut [Sm], workload: &dyn WorkloadSource, cycle: u64) -> bool {
        self.next = u64::MAX;
        if self.kernel.is_none() && self.kernel_idx < workload.num_kernels() {
            self.next_tb = 0;
            self.kernel = Some(workload.kernel(self.kernel_idx));
        }
        let Some(kernel) = self.kernel.as_deref() else {
            return false;
        };
        let (wpb, total_tbs) = (kernel.warps_per_block(), kernel.num_thread_blocks());

        // Assign TBs round-robin while any SM has room.
        let first_tb = self.next_tb;
        'assign: while self.next_tb < total_tbs {
            let n = sms.len();
            for probe in 0..n {
                let sm = (self.rr_sm + probe) % n;
                if sms[sm].can_accept_tb(wpb) {
                    sms[sm].assign_tb(kernel, self.next_tb, self.age_counter, cycle);
                    self.age_counter += 1;
                    self.next_tb += 1;
                    self.rr_sm = (sm + 1) % n;
                    continue 'assign;
                }
            }
            break;
        }

        // Advance to the next kernel when every TB was assigned and none
        // is resident (the SMs hold this kernel's TBs only); it loads in
        // the next cycle's pass.
        if self.next_tb == total_tbs && sms.iter().all(|sm| sm.resident_tbs() == 0) {
            self.kernel = None;
            self.kernel_idx += 1;
            if self.kernel_idx < workload.num_kernels() {
                self.next = cycle + 1;
            }
        }
        self.next_tb > first_tb
    }
}

impl GpuSim {
    /// The most SMs a machine may have: a transaction record names its SM
    /// in 16 bits.
    pub const MAX_SMS: usize = 1 << 16;

    /// Creates a simulator for `workload` under the mapping scheme
    /// `mapper`, decoding DRAM coordinates through `map`.
    ///
    /// Both maps fit the per-transaction record by construction: a
    /// `const` block checks that each has a controller, that controller
    /// indices fit 16 bits, bank indices 8 and rows 32.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if an SM index would not fit 16 bits or
    /// a slice index 8 — the widths of the per-transaction record — if a
    /// NoC cycle before `max_cycles` would not fit the crossbar's 32-bit
    /// injection stamp or a DRAM cycle before it not a `u64`, if
    /// `num_sms`, `llc_slices`, `noc_mhz`, `dram.clock_mhz` or
    /// `dram.queue_capacity` is 0, if fewer controllers than slices do
    /// not divide `llc_slices`, if `line_bytes` is not the L1's and a
    /// data packet's line or the LLC slice's, or if a kernel's thread
    /// block has more warps than [`GpuConfig::MAX_WARPS_PER_SM`] and so
    /// cannot fit an empty SM.
    pub fn new(
        cfg: GpuConfig,
        mapper: AddressMapper,
        map: DramMap,
        workload: Box<dyn WorkloadSource>,
    ) -> Self {
        // A transaction record names its SM, warp and controller in 16
        // bits, its slice and bank in 8 and its row in 32 (`crate::txn`).
        const {
            let maps = [DramMap::baseline(), DramMap::stacked()];
            let mut i = 0;
            while i < maps.len() {
                let m = maps[i];
                assert!(m.num_controllers() >= 1, "a DRAM map has no controller");
                assert!(m.num_controllers() <= 1 << 16, "controllers past 16 bits");
                assert!(m.banks_per_controller() <= 1 << 8, "banks past 8 bits");
                assert!(m.rows_per_bank() as u64 <= 1 << 32, "rows past 32 bits");
                i += 1;
            }
            assert!(
                GpuConfig::MAX_WARPS_PER_SM <= NO_WARP as usize,
                "a warp slot would equal the NO_WARP sentinel"
            )
        };
        let (controllers, slices) = (map.num_controllers(), cfg.llc_slices);
        for (field, n, max) in [
            ("num_sms", cfg.num_sms, Self::MAX_SMS),
            ("llc_slices", slices, 1 << 8),
            ("noc_mhz", cfg.noc_mhz as usize, usize::MAX),
            ("dram.clock_mhz", cfg.dram.clock_mhz as usize, usize::MAX),
            ("dram.queue_capacity", cfg.dram.queue_capacity, usize::MAX),
        ] {
            assert!(n >= 1, "{field} = 0: the machine needs at least one");
            assert!(
                n <= max,
                "{field} = {n} does not fit a transaction record (at most {max})"
            );
        }
        // `GpuSim::route` never uses a remainder of slices.
        assert!(
            controllers >= slices || slices % controllers == 0,
            "{controllers} DRAM controllers do not divide llc_slices = {slices}"
        );
        // A domain at `mhz` reaches domain cycle `max_cycles·mhz/1400`
        // (`crate::wake::DomainClock`) by the end of a run, which stops
        // before core cycle `max_cycles`; the crossbars queue a packet
        // with its injection NoC cycle in 32 bits.
        assert!(
            cfg.max_cycles.checked_mul(cfg.dram.clock_mhz).is_some(),
            "max_cycles = {} at dram.clock_mhz = {} overflows a u64 of DRAM time",
            cfg.max_cycles,
            cfg.dram.clock_mhz
        );
        let last_stamp = (cfg.max_cycles.checked_mul(cfg.noc_mhz))
            .map_or(u64::MAX, |t| t / GpuConfig::CORE_CLOCK_MHZ);
        assert!(
            last_stamp < u64::from(u32::MAX),
            "max_cycles = {} reaches NoC cycle {last_stamp}, past the crossbar's 32-bit injection stamp",
            cfg.max_cycles
        );
        // The caches hold lines and a data packet carries one behind its
        // header, in 32-byte flits.
        const {
            assert!(
                GpuConfig::L1.line_bytes() == (DATA_FLITS as u64 - 1) * 32,
                "the L1's line differs from a data packet's"
            )
        };
        for (field, bytes) in [
            (
                "the L1's and a data packet's line",
                GpuConfig::L1.line_bytes(),
            ),
            ("llc_slice.line_bytes()", cfg.llc_slice.line_bytes()),
        ] {
            assert!(
                cfg.line_bytes == bytes,
                "line_bytes = {} differs from {field} = {bytes}",
                cfg.line_bytes
            );
        }
        // A thread block is resident on one SM: one that cannot fit an
        // empty SM would never be assigned, and the run would idle to
        // `max_cycles`.
        for k in 0..workload.num_kernels() {
            let warps = workload.kernel(k).warps_per_block();
            assert!(
                warps <= GpuConfig::MAX_WARPS_PER_SM,
                "kernel {k}: {warps} warps per thread block exceed MAX_WARPS_PER_SM = {}",
                GpuConfig::MAX_WARPS_PER_SM
            );
        }
        let dram = DramSystem::new(map, cfg.dram);
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i as u16, &cfg)).collect();
        let slices = (0..cfg.llc_slices).map(|_| LlcSlice::new(&cfg)).collect();
        GpuSim {
            req_net: Crossbar::new(cfg.num_sms, cfg.llc_slices, cfg.noc_router_latency),
            reply_net: Crossbar::new(cfg.llc_slices, cfg.num_sms, cfg.noc_router_latency),
            sms,
            slices,
            txns: TxnTable::new(cfg.line_bytes),
            workload,
            mapper,
            dram,
            cfg,
        }
    }

    /// Routes a mapped address, once per transaction at issue: the DRAM
    /// system's decode gives its controller, bank and row, and the LLC
    /// slice serving it is controller-interleaved, with the low bank bit
    /// distinguishing the slices of one controller. [`GpuSim::new`]
    /// checked that every index fits its field.
    fn route(dram: &DramSystem, llc_slices: usize, addr: PhysAddr) -> Route {
        let (ctrl, bank, row) = dram.decode(addr);
        let (ctrl, bank, controllers) = (ctrl as usize, bank as usize, dram.num_channels());
        let slice = if controllers >= llc_slices {
            ctrl % llc_slices
        } else {
            let per = llc_slices / controllers;
            ctrl * per + bank % per
        };
        Route {
            slice: slice as u8,
            ctrl: ctrl as u16,
            bank: bank as u8,
            row,
        }
    }

    /// Runs the workload to completion (or to the cycle safety limit),
    /// ticking each unit at its hint and skipping event-free cycles, and
    /// returns a report bit-identical to [`GpuSim::run_dense`]'s (see
    /// `tests/event_driven_equivalence.rs`).
    pub fn run(self) -> SimReport {
        self.run_gated(|now, next| now >= next)
    }

    /// [`GpuSim::run`]; both arguments are ignored. Kept because the
    /// frozen `sim.sharded2_ratio` benchmark probe calls it.
    #[doc(hidden)]
    pub fn run_sharded(self, _shards: usize, _threads: usize) -> SimReport {
        self.run()
    }

    /// The dense reference: [`GpuSim::run`] with every gate open, each
    /// unit ticked every cycle — the oracle the hints are checked against.
    pub fn run_dense(self) -> SimReport {
        self.run_gated(|_, _| true)
    }

    /// The drive loop. `ticks(now, next)` is its one gate: whether a unit,
    /// a walk or the DRAM system whose hint is `next` ticks at `now`, and
    /// whether the fast-forward stops at `now` or jumps to the hint. Below
    /// its hint a tick changes nothing, so any gate that admits the hint
    /// gives one result.
    fn run_gated(mut self, ticks: impl Fn(u64, u64) -> bool + Copy) -> SimReport {
        let mut cycle: u64 = 0;
        let noc_clock = DomainClock::new(self.cfg.noc_mhz);
        let dram_clock = DomainClock::new(self.cfg.dram.clock_mhz);

        let mut sched = TbScheduler::new();
        let mut parallelism = ParallelismIntegrator::new();
        let mut outbound: Vec<SmOutbound> = Vec::new();
        let mut replies: Vec<u64> = Vec::new();
        // Reusable hot-loop buffers: the per-tick component APIs append to
        // caller-provided Vecs, so steady state allocates nothing.
        let mut deliveries: Vec<valley_noc::Delivery> = Vec::with_capacity(64);
        let mut completions: Vec<valley_dram::DramCompletion> = Vec::with_capacity(64);
        let mut truncated = false;
        // The cycle of the previous iteration: the state it left is what
        // every parallelism sampling point in `[sampled_to, cycle)` sees.
        let mut sampled_to: u64 = 0;
        // Wake gates over the SM and LLC-slice populations (see
        // `crate::wake`): the minimum of their hints, set by their walk and
        // lowered to a unit's fresh hint by every out-of-band source that
        // moved it. Below a gate its walk is skipped, and the fast-forward
        // reads the core-domain horizon in O(1). At 0 every unit is offered
        // its first tick.
        let mut sms_next: u64 = 0;
        let mut slices_next: u64 = 0;
        // The DRAM hand-off's gate besides a DRAM phase: the cycle after a
        // slice tick gave its DRAM queue a new head, else `u64::MAX`.
        let mut handoff_next = u64::MAX;

        loop {
            crate::alloc_audit::note_cycle(cycle);
            // ---- Fast-forward over globally event-free cycles ----
            // Jump to the core-domain gate or to the first cycle that
            // ticks a due NoC or DRAM event, whichever comes first (the
            // open gate jumps nowhere). No unit owes anything for the
            // cycles skipped.
            let core_next = (sms_next.min(slices_next))
                .min(handoff_next)
                .min(sched.cached_next_event());
            if !ticks(cycle, core_next) {
                let noc_next =
                    (self.req_net.cached_next_event()).min(self.reply_net.cached_next_event());
                let to = core_next
                    .min(noc_clock.first_past(noc_next))
                    .min(dram_clock.first_past(self.dram.cached_next_event()));
                debug_assert!(to >= cycle, "a NoC or DRAM hint fell behind its clock");
                if to >= self.cfg.max_cycles {
                    cycle = self.cfg.max_cycles;
                    truncated = true;
                    break;
                }
                cycle = to;
            }
            self.sample_parallelism(&mut parallelism, sampled_to..cycle);
            sampled_to = cycle;

            // ---- Clock domains: what this core cycle ticks ----
            let noc_cycles = noc_clock.ticked_in(cycle);
            let dram_cycles = dram_clock.ticked_in(cycle);
            // Only a DRAM event frees a queue slot.
            let dram_due = dram_cycles.end > self.dram.cached_next_event();
            // Whether any unit is due this iteration (audited only: under
            // the hint gate no iteration spins on a cycle with nothing due).
            let mut due = noc_cycles.end
                > (self.req_net.cached_next_event()).min(self.reply_net.cached_next_event())
                || dram_due;

            // ---- NoC clock domain ----
            for noc_cycle in noc_cycles.clone() {
                if ticks(noc_cycle, self.req_net.cached_next_event()) {
                    deliveries.clear();
                    self.req_net.tick(noc_cycle, &mut deliveries);
                    for d in &deliveries {
                        let slice = &mut self.slices[d.dst];
                        slice.deliver(id_of(d.payload), cycle);
                        slices_next = slices_next.min(slice.cached_next_event());
                    }
                }
                if ticks(noc_cycle, self.reply_net.cached_next_event()) {
                    deliveries.clear();
                    self.reply_net.tick(noc_cycle, &mut deliveries);
                    for d in &deliveries {
                        let sm = &mut self.sms[d.dst];
                        sm.on_reply(id_of(d.payload), &mut self.txns, cycle);
                        sms_next = sms_next.min(sm.cached_next_event());
                    }
                }
            }

            // ---- DRAM clock domain ----
            for dram_cycle in dram_cycles.clone() {
                completions.clear();
                self.dram.tick(dram_cycle, &mut completions, ticks);
                for c in &completions {
                    let id = id_of(c.id);
                    let t = self.txns.get(id);
                    if t.is_store() {
                        // Stores end at the DRAM.
                        self.txns.release(id);
                    } else {
                        let slice = &mut self.slices[usize::from(t.slice)];
                        slice.on_dram_completion(self.txns.line(id), cycle, &mut replies);
                        slices_next = slices_next.min(slice.cached_next_event());
                    }
                }
            }

            // ---- DRAM hand-off ----
            // Every slice offers its DRAM queue, in index order, arriving in
            // the next DRAM cycle. A head that waits has a full channel,
            // which only a DRAM phase can free; a new head is offered in
            // the cycle after the tick that queued it.
            if dram_due || ticks(cycle, handoff_next) {
                due = true;
                handoff_next = u64::MAX;
                for s in &mut self.slices {
                    s.hand_off(dram_cycles.end, &mut self.dram, &self.txns);
                }
            }

            // ---- LLC slices ----
            // The hint gate ticks a slice at its hint, and skips the walk
            // below `slices_next`, where no slice is due.
            if ticks(cycle, slices_next) {
                due = true;
                count(Counter::SliceWalks);
                let mut next = u64::MAX;
                for s in &mut self.slices {
                    if ticks(cycle, s.cached_next_event()) {
                        count(Counter::SliceTicks);
                        if s.tick(cycle, &self.txns, &mut replies) {
                            handoff_next = cycle + 1;
                        }
                    }
                    next = next.min(s.cached_next_event());
                }
                slices_next = next;
            }
            for txn in replies.drain(..) {
                let t = self.txns.get(id_of(txn));
                self.reply_net.inject(Packet {
                    payload: txn,
                    src: usize::from(t.slice),
                    dst: usize::from(t.sm),
                    flits: DATA_FLITS,
                    injected_at: noc_cycles.end,
                });
            }

            // ---- SMs ----
            {
                let (dram, llc_slices) = (&self.dram, self.cfg.llc_slices);
                let router = move |addr: PhysAddr| Self::route(dram, llc_slices, addr);
                // The hint gate ticks an SM at its hint, and skips the walk
                // below `sms_next`, where no SM is due.
                if ticks(cycle, sms_next) {
                    due = true;
                    count(Counter::SmWalks);
                    let mut next = u64::MAX;
                    for sm in &mut self.sms {
                        if ticks(cycle, sm.cached_next_event()) {
                            let retired = sm.tick(
                                cycle,
                                &self.mapper,
                                &mut self.txns,
                                &router,
                                &mut outbound,
                            );
                            sched.retire(retired, cycle);
                        }
                        next = next.min(sm.cached_next_event());
                    }
                    sms_next = next;
                }
            }
            for o in outbound.drain(..) {
                let t = self.txns.get(o.txn);
                self.req_net.inject(Packet {
                    payload: u64::from(o.txn),
                    src: usize::from(t.sm),
                    dst: usize::from(t.slice),
                    flits: o.flits,
                    injected_at: noc_cycles.end,
                });
            }

            // ---- TB scheduler ----
            if ticks(cycle, sched.cached_next_event()) {
                due = true;
                count(Counter::SchedulerPasses);
                if sched.tick(&mut self.sms, self.workload.as_ref(), cycle) {
                    // An assigned SM is due next cycle.
                    sms_next = sms_next.min(cycle + 1);
                }
            }
            count(Counter::Iterations);
            if !due {
                count(Counter::IdleIterations);
            }

            cycle += 1;

            // ---- Termination ----
            if sched.finished(self.workload.as_ref()) && self.is_drained() {
                break;
            }
            if cycle >= self.cfg.max_cycles {
                truncated = true;
                break;
            }
        }

        crate::alloc_audit::window_close();
        self.sample_parallelism(&mut parallelism, sampled_to..cycle);
        self.report(cycle, truncated, &parallelism, &sched)
    }

    /// Records the parallelism sampling points (the multiples of
    /// [`METRIC_SAMPLE_INTERVAL`]) that fall in `cycles`, all of which see
    /// the state as it stands: the one the iteration at `cycles.start`
    /// left, unchanged until the loop next runs a cycle at `cycles.end`.
    fn sample_parallelism(&self, parallelism: &mut ParallelismIntegrator, cycles: Range<u64>) {
        let samples = cycles.end.div_ceil(METRIC_SAMPLE_INTERVAL)
            - cycles.start.div_ceil(METRIC_SAMPLE_INTERVAL);
        if samples > 0 {
            let busy_slices = self.slices.iter().filter(|s| !s.is_idle()).count();
            parallelism.sample_n(
                busy_slices,
                self.dram.busy_channels(),
                self.dram.busy_banks(),
                samples,
            );
        }
    }

    fn is_drained(&self) -> bool {
        self.sms.iter().all(Sm::is_idle)
            && self.slices.iter().all(LlcSlice::is_idle)
            && !self.dram.is_busy()
            && !self.req_net.is_busy()
            && !self.reply_net.is_busy()
    }

    fn report(
        &self,
        cycles: u64,
        truncated: bool,
        parallelism: &ParallelismIntegrator,
        sched: &TbScheduler,
    ) -> SimReport {
        let mut l1 = CacheStats::default();
        let mut warp_instructions = 0;
        let mut busy = 0u64;
        for sm in &self.sms {
            let s = sm.l1_stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.evictions += s.evictions;
            warp_instructions += sm.warp_instructions();
            busy += sm.busy_cycles(cycles);
        }
        let mut llc = CacheStats::default();
        for s in &self.slices {
            let st = s.stats();
            llc.hits += st.hits;
            llc.misses += st.misses;
            llc.evictions += st.evictions;
        }
        let req = self.req_net.stats();
        let rep = self.reply_net.stats();
        let dram = self.dram.total_stats();
        // Conservation laws of a run that drained: every load is looked
        // up once in its L1, every delivered request once in its slice,
        // every store is written to DRAM once (the LLC is write-through)
        // and every DRAM read filled an LLC MSHR entry. Every store
        // crosses the request network as a data packet and ends at DRAM;
        // every other request is a load, answered by one data packet on
        // the reply network. Every transaction ended exactly once. Every
        // DRAM column access finds its row open, idle or holding another
        // row, and the last two take one ACT each.
        if !truncated {
            let stores = self.txns.stores();
            let loads_delivered = req.delivered - stores;
            debug_assert_eq!(l1.accesses(), self.txns.len() - stores);
            debug_assert_eq!(llc.accesses(), req.delivered);
            debug_assert_eq!(dram.writes, stores);
            debug_assert_eq!(
                dram.reads,
                self.slices.iter().map(LlcSlice::mshr_entries).sum::<u64>()
            );
            debug_assert_eq!(
                dram.reads + dram.writes,
                dram.row_hits + dram.row_empties + dram.row_conflicts
            );
            debug_assert_eq!(dram.activates, dram.row_empties + dram.row_conflicts);
            debug_assert_eq!(rep.delivered, loads_delivered);
            debug_assert_eq!(
                req.flits,
                u64::from(DATA_FLITS) * stores + u64::from(REQUEST_FLITS) * loads_delivered
            );
            debug_assert_eq!(rep.flits, u64::from(DATA_FLITS) * rep.delivered);
            debug_assert_eq!(self.txns.live(), 0, "a transaction never ended");
            debug_assert_eq!(self.req_net.queued_packets(), 0);
            debug_assert_eq!(self.reply_net.queued_packets(), 0);
        }
        let delivered = req.delivered + rep.delivered;
        let noc_to_core = GpuConfig::CORE_CLOCK_MHZ as f64 / self.cfg.noc_mhz as f64;
        let noc_latency = if delivered == 0 {
            0.0
        } else {
            (req.total_latency + rep.total_latency) as f64 / delivered as f64 * noc_to_core
        };
        SimReport {
            benchmark: self.workload.name(),
            scheme: self.mapper.kind().label().to_string(),
            cycles,
            truncated,
            warp_instructions,
            thread_instructions: warp_instructions * GpuConfig::WARP_SIZE as u64,
            memory_transactions: self.txns.len(),
            l1,
            llc,
            noc_latency,
            llc_parallelism: parallelism.llc_parallelism(),
            channel_parallelism: parallelism.channel_parallelism(),
            bank_parallelism: parallelism.bank_parallelism(),
            dram,
            kernels: sched.kernel_idx,
            dram_cycles: DomainClock::new(self.cfg.dram.clock_mhz).at(cycles),
            dram_channels: self.dram.num_channels(),
            dram_clock_ghz: self.cfg.dram.clock_mhz as f64 / 1000.0,
            num_sms: self.cfg.num_sms,
            sm_busy_fraction: if cycles == 0 {
                0.0
            } else {
                busy as f64 / (cycles * self.sms.len() as u64) as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Instruction, LaneAddrs, WarpProgram};
    use proptest::prelude::*;
    use valley_core::{DramMap, SchemeKind};
    use valley_dram::DramConfig;

    /// The slice formula as it stood before the route was decoded at
    /// issue: its oracle.
    fn slice_oracle(map: &DramMap, llc_slices: usize, addr: PhysAddr) -> usize {
        let nc = map.num_controllers();
        if nc >= llc_slices {
            map.controller_of(addr) % llc_slices
        } else {
            let per = llc_slices / nc;
            map.controller_of(addr) * per + map.bank_of(addr) % per
        }
    }

    /// The issue-time route of `line` under every scheme over `map` is
    /// the map's own decode of the mapped address, plus the slice
    /// oracle — with no index narrowed away. And the premise of
    /// `tests/label_symmetry.rs`: XORing the line with `c = unmap(d)`,
    /// for a mapped-space `d` (drawn from `flip`) that holds no
    /// controller bit and no bank bit splitting a controller's slices,
    /// keeps its controller and slice and XORs its bank and row by `d`'s.
    fn route_is_the_decode(
        map: DramMap,
        dram: DramConfig,
        seed: u64,
        line: u64,
        flip: u64,
    ) -> Result<(), TestCaseError> {
        let llc_slices = GpuConfig::table1().llc_slices;
        let dram = DramSystem::new(map, dram);
        let per = (llc_slices / map.num_controllers()).max(1);
        let splits = map
            .bank_bits()
            .into_iter()
            .take(per.trailing_zeros() as usize);
        let d = (map.controller_bits().into_iter().chain(splits)).fold(flip, |d, b| d & !(1 << b));
        let (d_bank, d_row) = (map.bank_of(PhysAddr::new(d)), map.row_of(PhysAddr::new(d)));
        for kind in SchemeKind::ALL_SCHEMES {
            let mapper = AddressMapper::build(kind, &map, seed);
            let mapped = mapper.map(PhysAddr::new(line));
            let want = Route {
                slice: u8::try_from(slice_oracle(&map, llc_slices, mapped)).unwrap(),
                ctrl: u16::try_from(map.controller_of(mapped)).unwrap(),
                bank: u8::try_from(map.bank_of(mapped)).unwrap(),
                row: u32::try_from(map.row_of(mapped)).unwrap(),
            };
            let got = GpuSim::route(&dram, llc_slices, mapped);
            prop_assert_eq!(got, want, "{:?}, seed {}, line {:#x}", kind, seed, line);
            let c = mapper.unmap(PhysAddr::new(d)).raw();
            let renamed = GpuSim::route(&dram, llc_slices, mapper.map(PhysAddr::new(line ^ c)));
            let want = Route {
                bank: want.bank ^ d_bank as u8,
                row: want.row ^ d_row as u32,
                ..want
            };
            prop_assert_eq!(
                renamed,
                want,
                "{:?}, seed {}, line {:#x}, d {:#x}",
                kind,
                seed,
                line,
                d
            );
        }
        Ok(())
    }

    /// Warp `w` of TB `tb` computes for a length set by both, in two
    /// steps, and stores one line in between.
    struct Script(u32, u64, usize);

    impl WarpProgram for Script {
        fn next_instruction(&mut self) -> Option<Instruction> {
            let Script(step, tb, w) = *self;
            self.0 += 1;
            match step {
                0 | 2 => Some(Instruction::Compute {
                    cycles: 1 + ((tb * 5 + w as u64 * 3 + u64::from(step)) % 13) as u32,
                }),
                1 => Some(Instruction::Store(LaneAddrs::contiguous(tb << 12, 32, 4))),
                _ => None,
            }
        }
    }

    /// Kernels of `(thread blocks, warps per block)`.
    struct Kernels(Vec<(u64, usize)>);

    impl WorkloadSource for Kernels {
        fn name(&self) -> String {
            "kernels".into()
        }
        fn num_kernels(&self) -> usize {
            self.0.len()
        }
        fn kernel(&self, index: usize) -> Box<dyn KernelSource> {
            let (tbs, warps) = self.0[index];
            Box::new(Kernel(tbs, warps))
        }
    }

    struct Kernel(u64, usize);

    impl KernelSource for Kernel {
        fn name(&self) -> String {
            "kernel".into()
        }
        fn num_thread_blocks(&self) -> u64 {
            self.0
        }
        fn warps_per_block(&self) -> usize {
            self.1
        }
        fn warp_program(&self, tb: u64, warp: usize) -> Box<dyn WarpProgram> {
            Box::new(Script(0, tb, warp))
        }
    }

    /// The scheduler over 3 SMs, ticked every cycle, against the rule it
    /// replaced: a kernel ends exactly when the SM ticks have reported
    /// every one of its TBs retired. Both kernels have more TBs than the
    /// SMs hold at once, and their TBs run for different lengths.
    #[test]
    fn a_kernel_ends_once_the_sms_retired_its_every_tb() {
        let cfg = GpuConfig::table1();
        let map = DramMap::baseline();
        let mapper = AddressMapper::build(SchemeKind::Base, &map, 1);
        let dram = DramSystem::new(map, cfg.dram);
        let route = |addr: PhysAddr| GpuSim::route(&dram, cfg.llc_slices, addr);
        let mut sms: Vec<Sm> = (0..3).map(|i| Sm::new(i, &cfg)).collect();
        let mut txns = TxnTable::new(cfg.line_bytes);
        let mut outbound = Vec::new();
        let workload = Kernels(vec![(20, 12), (9, 24)]);
        let mut sched = TbScheduler::new();
        // TBs of the loaded kernel the SM ticks reported retired.
        let mut shadow = 0;
        let mut ends = 0;
        for cycle in 0..10_000 {
            for sm in &mut sms {
                let retired = sm.tick(cycle, &mapper, &mut txns, &route, &mut outbound);
                shadow += retired;
                sched.retire(retired, cycle);
            }
            for o in outbound.drain(..) {
                txns.release(o.txn);
            }
            let k = sched.kernel_idx;
            if sched.kernel.is_none() {
                shadow = 0;
            }
            sched.tick(&mut sms, &workload, cycle);
            let done = sched.kernel_idx > k;
            let tbs = workload.kernel(k).num_thread_blocks();
            assert_eq!(done, shadow == tbs, "kernel {k} at cycle {cycle}");
            ends += u64::from(done);
            if sched.finished(&workload) {
                assert_eq!(ends, 2);
                assert!(sms.iter().all(Sm::is_idle));
                return;
            }
        }
        panic!("the workload never finished");
    }

    proptest! {
        #[test]
        fn the_issue_time_route_is_the_dram_decode(
            seed in 0u64..1_000,
            line in 0u64..(1 << 23),
            flip in 0u64..(1 << 30),
        ) {
            let line = line << 7;
            route_is_the_decode(DramMap::baseline(), DramConfig::gddr5(), seed, line, flip)?;
            route_is_the_decode(DramMap::stacked(), DramConfig::stacked_vault(), seed, line, flip)?;
        }
    }
}
