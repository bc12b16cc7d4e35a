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
use crate::llc::{has_room, LlcSlice};
use crate::metrics::{ParallelismIntegrator, SimReport};
use crate::sm::{Sm, SmOutbound, MAX_ISSUE};
use crate::trace::{KernelSource, WorkloadSource};
use crate::txn::{id_of, Route, TxnTable, NO_WARP};
use crate::wake::audit::{count, Counter};
use crate::wake::{DomainClock, WakeGate};
use std::ops::Range;
use std::sync::Arc;
use valley_cache::CacheStats;
use valley_core::{AddressMapper, DramAddressMap, PhysAddr};
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
    cfg: GpuConfig,
    mapper: AddressMapper,
    /// The (immutable) address map every transaction is routed through
    /// at issue (`GpuSim::route`) — the *same* allocation the DRAM
    /// system holds.
    map: Arc<dyn DramAddressMap + Send + Sync>,
    dram: DramSystem,
    req_net: Crossbar,
    reply_net: Crossbar,
    /// The NoC and DRAM clock domains, counted in core cycles.
    noc_clock: DomainClock,
    dram_clock: DomainClock,
    sms: Vec<Sm>,
    slices: Vec<LlcSlice>,
    txns: TxnTable,
    workload: Box<dyn WorkloadSource>,
}

/// Kernel-serial TB scheduler: one kernel resident at a time, its thread
/// blocks handed round-robin to the SMs with room. A unit like the others:
/// the drive loop runs [`TbScheduler::tick`] where its gate admits
/// [`TbScheduler::cached_next_event`].
struct TbScheduler {
    kernel_idx: usize,
    num_kernels: usize,
    kernel: Option<Box<dyn KernelSource>>,
    next_tb: u64,
    total_tbs: u64,
    /// TBs of the loaded kernel retired, as the SMs report them.
    retired: u64,
    rr_sm: usize,
    age_counter: u64,
    /// The exact next cycle at which a pass changes anything: 0 (the
    /// first kernel to load), the cycle an SM retired a TB (room freed,
    /// perhaps the kernel finished), the cycle after a kernel finished
    /// while another remains; else `u64::MAX`. Only a retirement frees an
    /// SM slot, and a pass assigns until none fits.
    next: u64,
}

impl TbScheduler {
    fn new(num_kernels: usize) -> Self {
        TbScheduler {
            kernel_idx: 0,
            num_kernels,
            kernel: None,
            next_tb: 0,
            total_tbs: 0,
            retired: 0,
            rr_sm: 0,
            age_counter: 0,
            next: 0,
        }
    }

    fn finished(&self) -> bool {
        self.kernel.is_none() && self.kernel_idx >= self.num_kernels
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
            self.retired += tbs;
            self.next = self.next.min(cycle);
        }
    }

    /// One scheduling pass: load the next kernel if none is resident,
    /// assign pending TBs round-robin to SMs with room, and advance past
    /// the kernel once every TB retired. Returns whether any TB was
    /// assigned (the only way a pass changes an SM).
    fn tick(
        &mut self,
        sms: &mut [Sm],
        workload: &dyn WorkloadSource,
        cfg: &GpuConfig,
        cycle: u64,
    ) -> bool {
        self.next = u64::MAX;
        if self.kernel.is_none() && self.kernel_idx < self.num_kernels {
            let k = workload.kernel(self.kernel_idx);
            self.total_tbs = k.num_thread_blocks();
            self.next_tb = 0;
            self.retired = 0;
            self.kernel = Some(k);
        }
        let Some(kernel) = self.kernel.as_deref() else {
            return false;
        };
        let wpb = kernel.warps_per_block();
        let tbs_limit = cfg.tbs_per_sm(wpb);

        // Assign TBs round-robin while any SM has room.
        let first_tb = self.next_tb;
        'assign: while self.next_tb < self.total_tbs {
            let n = sms.len();
            for probe in 0..n {
                let sm = (self.rr_sm + probe) % n;
                if sms[sm].can_accept_tb(wpb, tbs_limit) {
                    sms[sm].assign_tb(kernel, self.next_tb, self.age_counter, cycle);
                    self.age_counter += 1;
                    self.next_tb += 1;
                    self.rr_sm = (sm + 1) % n;
                    continue 'assign;
                }
            }
            break;
        }

        // Advance to the next kernel when every TB retired; it loads in
        // the next cycle's pass.
        if self.next_tb == self.total_tbs && self.retired == self.total_tbs {
            self.kernel = None;
            self.kernel_idx += 1;
            if self.kernel_idx < self.num_kernels {
                self.next = cycle + 1;
            }
        }
        self.next_tb > first_tb
    }
}

impl GpuSim {
    /// Creates a simulator for `workload` under the mapping scheme
    /// `mapper`, decoding DRAM coordinates through `map`.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if an SM, warp or controller index would
    /// not fit 16 bits, a slice or bank index 8 or a row index 32 — the
    /// widths of the per-transaction record — if there are more than 64
    /// LLC slices, the width of the drive loop's parked-slice mask, if a
    /// NoC cycle before `max_cycles` would not fit the crossbar's 32-bit
    /// injection stamp, if `issue_width` is not in `1..=8`, if `num_sms`,
    /// `llc_slices`, `dram.queue_capacity` or the controller count is 0,
    /// if fewer controllers than slices do not divide `llc_slices`, if
    /// `line_bytes` is not the L1's, the LLC slice's and a data packet's
    /// line (`(DATA_FLITS - 1) x 32` bytes), or if
    /// a kernel's thread block does not fit an empty SM (more warps than
    /// `max_warps_per_sm` or more threads than `max_threads_per_sm`).
    pub fn new<M>(
        cfg: GpuConfig,
        mapper: AddressMapper,
        map: M,
        workload: Box<dyn WorkloadSource>,
    ) -> Self
    where
        M: DramAddressMap + Send + Sync + 'static,
    {
        let (controllers, slices) = (map.num_controllers(), cfg.llc_slices);
        for (field, n) in [
            ("num_sms", cfg.num_sms),
            ("llc_slices", slices),
            ("dram.queue_capacity", cfg.dram.queue_capacity),
            ("DRAM controllers", controllers),
        ] {
            assert!(n >= 1, "{field} = 0: the machine needs at least one");
        }
        // A transaction record names its SM, warp and controller in 16
        // bits, its slice and bank in 8 and its row in 32 (`crate::txn`).
        let fits = |field: &str, n: usize, max: u64| {
            assert!(
                n as u64 <= max,
                "{field} = {n} does not fit a transaction record (at most {max})"
            );
        };
        let (index8, index16) = (1 << 8, 1 << 16);
        fits("num_sms", cfg.num_sms, index16);
        fits(
            "max_warps_per_sm (below the NO_WARP sentinel)",
            cfg.max_warps_per_sm,
            u64::from(NO_WARP),
        );
        fits("llc_slices", slices, index8);
        fits("DRAM controllers", controllers, index16);
        fits(
            "DRAM banks per controller",
            map.banks_per_controller(),
            index8,
        );
        fits("DRAM rows per bank", map.rows_per_bank(), 1 << 32);
        assert!(
            slices <= 64,
            "llc_slices = {slices} exceeds the 64 slices of the parked-slice mask"
        );
        // `GpuSim::route` never uses a remainder of slices.
        assert!(
            controllers >= slices || slices % controllers == 0,
            "{controllers} DRAM controllers do not divide llc_slices = {slices}"
        );
        // The crossbars queue a packet with its injection NoC cycle in
        // 32 bits; a run stops before core cycle `max_cycles`.
        let last_stamp = (cfg.max_cycles as f64 * cfg.noc_per_core()).ceil();
        assert!(
            last_stamp < f64::from(u32::MAX),
            "max_cycles = {} reaches NoC cycle {last_stamp}, past the crossbar's 32-bit injection stamp",
            cfg.max_cycles
        );
        // The caches hold lines and a data packet carries one behind its
        // header, in 32-byte flits.
        for (field, bytes) in [
            ("l1.line_bytes()", cfg.l1.line_bytes()),
            ("llc_slice.line_bytes()", cfg.llc_slice.line_bytes()),
            ("(DATA_FLITS - 1) x 32", (u64::from(DATA_FLITS) - 1) * 32),
        ] {
            assert!(
                cfg.line_bytes == bytes,
                "line_bytes = {} differs from {field} = {bytes}",
                cfg.line_bytes
            );
        }
        assert!(
            (1..=MAX_ISSUE).contains(&cfg.issue_width),
            "issue_width = {} is outside the supported 1..={MAX_ISSUE}",
            cfg.issue_width
        );
        // A thread block is resident on one SM: one that cannot fit an
        // empty SM would never be assigned, and the run would idle to
        // `max_cycles`.
        for k in 0..workload.num_kernels() {
            let warps = workload.kernel(k).warps_per_block();
            assert!(
                warps <= cfg.max_warps_per_sm,
                "kernel {k}: {warps} warps per thread block exceed max_warps_per_sm = {}",
                cfg.max_warps_per_sm
            );
            assert!(
                warps * cfg.warp_size <= cfg.max_threads_per_sm,
                "kernel {k}: {} threads per thread block exceed max_threads_per_sm = {}",
                warps * cfg.warp_size,
                cfg.max_threads_per_sm
            );
        }
        let map: Arc<dyn DramAddressMap + Send + Sync> = Arc::new(map);
        let dram = DramSystem::new(Arc::clone(&map), cfg.dram);
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i as u16, &cfg)).collect();
        let slices = (0..cfg.llc_slices).map(|_| LlcSlice::new(&cfg)).collect();
        GpuSim {
            req_net: Crossbar::new(cfg.num_sms, cfg.llc_slices, cfg.noc_router_latency),
            reply_net: Crossbar::new(cfg.llc_slices, cfg.num_sms, cfg.noc_router_latency),
            noc_clock: DomainClock::new(cfg.noc_per_core()),
            dram_clock: DomainClock::new(cfg.dram_per_core()),
            sms,
            slices,
            txns: TxnTable::new(cfg.line_bytes),
            workload,
            mapper,
            map,
            dram,
            cfg,
        }
    }

    /// Decodes a mapped address into its [`Route`], once per transaction
    /// at issue: its DRAM controller, bank and row in one pass of three
    /// calls over the address map, and the LLC slice serving it —
    /// controller-interleaved, with the low bank bit distinguishing the
    /// slices of one controller. `controllers` is the map's controller
    /// count; [`GpuSim::new`] checked that every index fits its field.
    fn route(
        map: &dyn DramAddressMap,
        controllers: usize,
        llc_slices: usize,
        addr: PhysAddr,
    ) -> Route {
        let ctrl = map.controller_of(addr);
        let bank = map.bank_of(addr);
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
            row: map.row_of(addr) as u32,
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
    /// whether the fast-forward stops there. Below its hint a tick
    /// changes nothing, so any gate that admits the hint gives one result.
    fn run_gated(mut self, ticks: impl Fn(u64, u64) -> bool + Copy) -> SimReport {
        let mut cycle: u64 = 0;

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
        // The cycle of the previous iteration: the state it left is what
        // every parallelism sampling point in `[sampled_to, cycle)` sees.
        let mut sampled_to: u64 = 0;
        // Wake gates over the SM and LLC-slice populations (see
        // `crate::wake`): rebuilt by their walk, lowered to a unit's fresh
        // hint by every out-of-band source that moved it. Below a gate its
        // walk is skipped, and the fast-forward reads the core-domain
        // horizon in O(1).
        let mut sms_next = WakeGate::new();
        let mut slices_next = WakeGate::new();
        // Bit `i` set: slice `i` is parked on a full DRAM channel. Set by
        // the slice walk when a tick leaves the slice parked (only a tick
        // parks one) and cleared by `GpuSim::unpark_freed`.
        let mut parked: u64 = 0;

        'outer: loop {
            crate::alloc_audit::note_cycle(cycle);
            // ---- Fast-forward over globally event-free cycles ----
            // Skip to the core-domain gate (the open gate skips nothing),
            // advancing the NoC and DRAM clocks cycle by cycle — on
            // copies, so the cycle in which either domain ticks a due
            // event leaves no trace and is run in full below. No unit owes
            // anything for the cycles skipped.
            let core_next = (sms_next.get().min(slices_next.get())).min(sched.cached_next_event());
            let noc_next =
                (self.req_net.cached_next_event()).min(self.reply_net.cached_next_event());
            let dram_next = self.dram.cached_next_event();
            while !ticks(cycle, core_next) {
                let (mut noc, mut dram) = (self.noc_clock, self.dram_clock);
                if noc.advance().end > noc_next || dram.advance().end > dram_next {
                    break;
                }
                (self.noc_clock, self.dram_clock) = (noc, dram);
                cycle += 1;
                if cycle >= self.cfg.max_cycles {
                    truncated = true;
                    break 'outer;
                }
            }
            self.sample_parallelism(&mut parallelism, &mut banks_buf, sampled_to..cycle);
            sampled_to = cycle;

            // ---- Clock domains: what this core cycle ticks ----
            let noc_cycles = self.noc_clock.advance();
            let dram_cycles = self.dram_clock.advance();
            // Only a DRAM event frees a queue slot.
            let dram_due = dram_cycles.end > self.dram.cached_next_event();
            // Whether any unit is due this iteration (audited only: under
            // the hint gate no iteration spins on a cycle with nothing due).
            let mut due = noc_cycles.end
                > (self.req_net.cached_next_event()).min(self.reply_net.cached_next_event())
                || dram_due;

            // ---- NoC clock domain ----
            for noc_cycle in noc_cycles {
                if ticks(noc_cycle, self.req_net.cached_next_event()) {
                    deliveries.clear();
                    self.req_net.tick(noc_cycle, &mut deliveries);
                    for d in &deliveries {
                        let slice = &mut self.slices[d.dst];
                        slice.deliver(id_of(d.payload), cycle);
                        slices_next.lower(slice.cached_next_event());
                    }
                }
                if ticks(noc_cycle, self.reply_net.cached_next_event()) {
                    deliveries.clear();
                    self.reply_net.tick(noc_cycle, &mut deliveries);
                    for d in &deliveries {
                        let sm = &mut self.sms[d.dst];
                        sm.on_reply(id_of(d.payload), &mut self.txns, cycle);
                        sms_next.lower(sm.cached_next_event());
                    }
                }
            }

            // ---- DRAM clock domain ----
            for dram_cycle in dram_cycles {
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
                        slices_next.lower(slice.cached_next_event());
                    }
                }
            }
            if dram_due && parked != 0 {
                parked = self.unpark_freed(parked, cycle, &mut slices_next);
            }

            // ---- LLC slices ----
            // The hint gate ticks a slice at its hint, and skips the walk
            // below `slices_next`, where no slice is due.
            if ticks(cycle, slices_next.get()) {
                due = true;
                count(Counter::SliceWalks);
                let mut next = u64::MAX;
                for (i, s) in self.slices.iter_mut().enumerate() {
                    // A parked head has no hint (`u64::MAX`): only the open
                    // gate retries it, every cycle — a refusal changes no
                    // state — which is the oracle for `unpark_freed`.
                    if ticks(cycle, u64::MAX) && s.parked_on().is_some() {
                        s.unpark(cycle);
                    }
                    if ticks(cycle, s.cached_next_event()) {
                        count(Counter::SliceTicks);
                        s.tick(
                            cycle,
                            &self.dram_clock,
                            &self.cfg,
                            &mut self.dram,
                            &self.txns,
                            &mut replies,
                        );
                        if s.parked_on().is_some() {
                            parked |= 1 << i;
                        }
                    }
                    next = next.min(s.cached_next_event());
                }
                slices_next.rebuild(next);
            }
            for txn in replies.drain(..) {
                let t = self.txns.get(id_of(txn));
                self.reply_net.inject(Packet {
                    payload: txn,
                    src: usize::from(t.slice),
                    dst: usize::from(t.sm),
                    flits: DATA_FLITS,
                    injected_at: self.noc_clock.cycle(),
                });
            }

            // ---- SMs ----
            {
                let map = self.map.as_ref();
                let (controllers, llc_slices) = (self.dram.num_channels(), self.cfg.llc_slices);
                let router = move |addr: PhysAddr| Self::route(map, controllers, llc_slices, addr);
                // The hint gate ticks an SM at its hint, and skips the walk
                // below `sms_next`, where no SM is due.
                if ticks(cycle, sms_next.get()) {
                    due = true;
                    count(Counter::SmWalks);
                    let mut next = u64::MAX;
                    for sm in &mut self.sms {
                        if ticks(cycle, sm.cached_next_event()) {
                            let retired = sm.tick(
                                cycle,
                                &self.cfg,
                                &self.mapper,
                                &mut self.txns,
                                &router,
                                &mut outbound,
                            );
                            sched.retire(retired, cycle);
                        }
                        next = next.min(sm.cached_next_event());
                    }
                    sms_next.rebuild(next);
                }
            }
            for o in outbound.drain(..) {
                let t = self.txns.get(o.txn);
                self.req_net.inject(Packet {
                    payload: u64::from(o.txn),
                    src: usize::from(t.sm),
                    dst: usize::from(t.slice),
                    flits: o.flits,
                    injected_at: self.noc_clock.cycle(),
                });
            }

            // ---- TB scheduler ----
            if ticks(cycle, sched.cached_next_event()) {
                due = true;
                count(Counter::SchedulerPasses);
                if sched.tick(&mut self.sms, self.workload.as_ref(), &self.cfg, cycle) {
                    // An assigned SM is due next cycle.
                    sms_next.lower(cycle + 1);
                }
            }
            count(Counter::Iterations);
            if !due {
                count(Counter::IdleIterations);
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
        self.sample_parallelism(&mut parallelism, &mut banks_buf, sampled_to..cycle);
        self.report(cycle, truncated, &parallelism, &sched)
    }

    /// A DRAM phase may have freed the slot a parked slice waits for:
    /// unparks every slice in the `parked` mask whose channel now has
    /// room, due in `cycle`, and returns the mask of those still parked.
    /// Out of line: it runs on few iterations, and keeping it out of
    /// the drive loop keeps that loop's body small.
    #[inline(never)]
    fn unpark_freed(&mut self, parked: u64, cycle: u64, slices_next: &mut WakeGate) -> u64 {
        let mut still = parked;
        let mut waiting = parked;
        while waiting != 0 {
            let i = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let slice = &mut self.slices[i];
            if slice.parked_on().is_some_and(|ch| has_room(&self.dram, ch)) {
                slice.unpark(cycle);
                slices_next.lower(cycle);
                still &= !(1 << i);
            }
        }
        still
    }

    /// Records the parallelism sampling points (the multiples of
    /// [`METRIC_SAMPLE_INTERVAL`]) that fall in `cycles`, all of which see
    /// the state as it stands: the one the iteration at `cycles.start`
    /// left, unchanged until the loop next runs a cycle at `cycles.end`.
    fn sample_parallelism(
        &self,
        parallelism: &mut ParallelismIntegrator,
        banks_buf: &mut Vec<usize>,
        cycles: Range<u64>,
    ) {
        let samples = cycles.end.div_ceil(METRIC_SAMPLE_INTERVAL)
            - cycles.start.div_ceil(METRIC_SAMPLE_INTERVAL);
        if samples > 0 {
            let busy_slices = self.slices.iter().filter(|s| !s.is_idle()).count();
            let busy_channels = self.dram.busy_channels();
            self.dram.busy_banks_per_busy_channel_into(banks_buf);
            parallelism.sample_n(busy_slices, busy_channels, banks_buf, samples);
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
        let noc_to_core = self.cfg.core_clock_ghz / self.cfg.noc_clock_ghz;
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
            thread_instructions: warp_instructions * self.cfg.warp_size as u64,
            memory_transactions: self.txns.len(),
            l1,
            llc,
            noc_latency,
            llc_parallelism: parallelism.llc_parallelism(),
            channel_parallelism: parallelism.channel_parallelism(),
            bank_parallelism: parallelism.bank_parallelism(),
            dram,
            kernels: sched.kernel_idx,
            dram_cycles: self.dram_clock.cycle(),
            dram_channels: self.dram.num_channels(),
            core_clock_ghz: self.cfg.core_clock_ghz,
            dram_clock_ghz: self.cfg.dram.clock_ghz,
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
    use proptest::prelude::*;
    use valley_core::{GddrMap, SchemeKind, StackedMap};
    use valley_dram::DramConfig;

    /// The slice formula as it stood before the route was decoded at
    /// issue: its oracle.
    fn slice_oracle(map: &dyn DramAddressMap, llc_slices: usize, addr: PhysAddr) -> usize {
        let nc = map.num_controllers();
        if nc >= llc_slices {
            map.controller_of(addr) % llc_slices
        } else {
            let per = llc_slices / nc;
            map.controller_of(addr) * per + map.bank_of(addr) % per
        }
    }

    /// The issue-time route of `line` under every scheme over `map` is
    /// the DRAM system's own decode of the mapped address, plus the
    /// slice oracle — with no index narrowed away.
    fn route_is_the_decode<M>(
        map: M,
        dram: DramConfig,
        seed: u64,
        line: u64,
    ) -> Result<(), TestCaseError>
    where
        M: DramAddressMap + Copy + Send + Sync + 'static,
    {
        let llc_slices = GpuConfig::table1().llc_slices;
        let dram = DramSystem::new(Arc::new(map), dram);
        for kind in SchemeKind::ALL_SCHEMES {
            let mapped = AddressMapper::build(kind, &map, seed).map(PhysAddr::new(line));
            let (ctrl, bank, row) = dram.decode(mapped);
            let want = Route {
                slice: u8::try_from(slice_oracle(&map, llc_slices, mapped)).unwrap(),
                ctrl: u16::try_from(ctrl).unwrap(),
                bank: u8::try_from(bank).unwrap(),
                row,
            };
            let got = GpuSim::route(&map, dram.num_channels(), llc_slices, mapped);
            prop_assert_eq!(got, want, "{:?}, seed {}, line {:#x}", kind, seed, line);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn the_issue_time_route_is_the_dram_decode(seed in 0u64..1_000, line in 0u64..(1 << 23)) {
            let line = line << 7;
            route_is_the_decode(GddrMap::baseline(), DramConfig::gddr5(), seed, line)?;
            route_is_the_decode(StackedMap::baseline(), DramConfig::stacked_vault(), seed, line)?;
        }
    }
}
