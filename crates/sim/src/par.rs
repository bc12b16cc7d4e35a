//! The phase-parallel tick engine: sharded SM/channel ticking with an
//! epoch-barrier merge, **bit-identical** to the sequential evented loop
//! for every configuration and shard count.
//!
//! # Decomposition
//!
//! The machine factorizes along the NoC, whose crossbar has no
//! cross-port coupling (each output port is an independent FIFO with its
//! own calendar):
//!
//! * **Memory groups** — an LLC slice together with the DRAM channels it
//!   exclusively serves (derived from the slice-routing function, so a
//!   slice's DRAM hand-offs and completions never leave its group).
//! * **Shards** — a contiguous range of SMs plus a contiguous range of
//!   memory groups, each with its own transaction arena (namespaced
//!   ids), its own sub-crossbars (the request-net ports of its slices,
//!   the reply-net ports of its SMs) and its own [`DramSystem`] subset.
//!
//! Within an epoch every shard ticks only shard-local state. The only
//! cross-shard traffic — NoC packet injection — is buffered, tagged with
//! its (cycle, phase, unit) coordinates, and applied by the coordinator
//! at the epoch barrier in exactly the order the sequential loop would
//! have injected (unit = global channel index for DRAM-completion
//! replies, global slice index for tick replies, global SM index for
//! requests). A packet injected at NoC cycle `k` cannot move a flit
//! before `k + router_latency`, so barrier-applied injections are never
//! late as long as no epoch spans more than `router_latency` NoC cycles.
//!
//! # Safe horizon
//!
//! An epoch may span multiple cycles only while the TB scheduler is
//! provably inert and no SM can act. The bound is assembled from the
//! **wake-gate subsystem** (see `crate::wake`) instead of global
//! minima over raw event caches:
//!
//! * **SM gates** — each shard keeps a [`WakeGate`] over its SMs; the
//!   epoch must end before the earliest per-shard gate.
//! * **Reply deliveries** — a reply in flight on port *p* wakes exactly
//!   the SM behind *p*, and it does so at the packet's *completion*
//!   cycle ([`Crossbar::port_delivery_at`]), so that is when it clamps
//!   the (global) epoch — not at its next flit movement. A streaming
//!   5-flit reply therefore no longer pins the horizon at one cycle —
//!   the regime where the old `reply_next` movement-minimum collapsed
//!   every memory-saturated phase to lockstep.
//! * **Emission gate** — in-epoch reply *emissions* are buffered and
//!   barrier-injected, so they must not be due to move a flit before
//!   the epoch ends. Emissions are bounded below by the per-channel
//!   DRAM minima (completion replies), the slices' in-flight hit heads,
//!   and — for work enqueued inside the epoch — the DRAM minimum
//!   completion latency / LLC hit latency; the epoch may extend until
//!   `router_latency` NoC cycles past the first emission-capable
//!   cycle's stamp (previously: past the epoch's *start*).
//!
//! Any cycle with possible SM activity runs as a one-cycle epoch whose
//! barrier performs injection, TB scheduling and sampling exactly where
//! the sequential loop would. Epoch lengths are recorded in the
//! report's [`EpochHist`] so the multi-cycle behavior is observable.
//!
//! # Determinism
//!
//! Thread count is pure transport: shards are ticked either inline by
//! the coordinator or by parked worker threads, and every merge is
//! ordered by the tags above, never by thread finish order. The
//! equivalence battery (`tests/event_driven_equivalence.rs` and
//! `crates/sim/tests/parallel_equivalence.rs`) pins dense ≡ evented ≡
//! parallel(2,3,4,7) across schemes, configs and seeds.

use crate::config::GpuConfig;
use crate::gpu::{
    build_report, domain_ticks, GpuSim, ReportParts, SmPool, TbScheduler, METRIC_SAMPLE_INTERVAL,
};
use crate::llc::LlcSlice;
use crate::metrics::{EpochHist, ParallelismIntegrator, SimReport};
use crate::sm::{Sm, SmOutbound};
use crate::trace::KernelSource;
use crate::txn::TxnTable;
use crate::wake::WakeGate;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use valley_core::{AddressMapper, DramAddressMap, PhysAddr};
use valley_dram::{DramCompletion, DramSystem};
use valley_noc::{Crossbar, Delivery, NocStats, Packet};

/// Hard cap on epoch length in core cycles (the emission-gate bound is
/// usually tighter; this only bounds the coordinator's scratch buffers).
const EPOCH_CAP: u64 = 64;

/// How many busy-wait probes the epoch barrier performs before parking
/// on the Condvar. One-cycle epochs turn around in well under a
/// microsecond of shard work, so two futex round trips per epoch used to
/// dominate the barrier; a bounded spin absorbs that common case while
/// the parked path still yields the CPU on oversubscribed boxes (more
/// workers than cores), where spinning would steal cycles from the very
/// shard being waited on.
const SPIN_ITERS: u32 = 1 << 12;

/// A reply produced inside an epoch, tagged with the coordinates that
/// define its sequential injection order.
#[derive(Clone, Copy, Debug)]
struct TaggedReply {
    cycle: u64,
    /// 0 = DRAM-completion phase, 1 = slice-tick phase (the sequential
    /// loop drains completion replies first).
    phase: u8,
    /// Global channel index (phase 0) or global slice index (phase 1).
    unit: u32,
    /// Slice-arena transaction id.
    txn: u64,
}

/// A request produced inside an epoch (SM outbound), tagged likewise.
#[derive(Clone, Copy, Debug)]
struct TaggedReq {
    cycle: u64,
    /// Global SM index.
    sm: u32,
    /// SM-arena (origin) transaction id.
    txn: u64,
    flits: u32,
}

/// One metric sample's per-shard contribution (summed at the barrier).
#[derive(Clone, Copy, Debug, Default)]
struct SampleParts {
    busy_slices: u64,
    busy_channels: u64,
    bank_sum: u64,
}

/// Read-only state shared by the coordinator and every worker.
struct Env<'a> {
    cfg: &'a GpuConfig,
    mapper: &'a AddressMapper,
    map: &'a (dyn DramAddressMap + Send + Sync),
    llc_slices: usize,
    noc_per_core: f64,
    dram_per_core: f64,
}

/// The epoch descriptor the coordinator publishes to the workers: the
/// cycle window plus the clock-accumulator state at its start (each
/// shard replays the identical accumulator arithmetic locally).
#[derive(Clone, Copy, Debug, Default)]
struct Plan {
    t_start: u64,
    t_end: u64,
    noc_acc: f64,
    noc_cycle: u64,
    dram_acc: f64,
    dram_cycle: u64,
}

/// One shard: a contiguous range of SMs and of memory groups, with all
/// the state their ticking touches.
struct Shard {
    /// Global ids of the owned SMs (contiguous, ascending).
    sm_ids: Vec<u32>,
    /// Global ids of the owned LLC slices (ascending).
    slice_ids: Vec<u16>,
    /// Global slice id → local index (usize::MAX = foreign).
    slice_local: Vec<usize>,
    sms: Vec<Sm>,
    slices: Vec<LlcSlice>,
    /// The owned DRAM channels (`None` for shards with no memory group).
    dram: Option<DramSystem>,
    /// Request-net output ports of the owned slices (dst = local index).
    req_ports: Crossbar,
    /// Reply-net output ports of the owned SMs (dst = local index).
    reply_ports: Crossbar,
    /// This shard's transaction arena (ids carry the shard namespace).
    txns: TxnTable,
    /// Wake gates over this shard's SM and slice populations (see
    /// `crate::wake`): rebuilt by the walks below, clamped by the
    /// deliveries/fills above them, exact at every epoch boundary —
    /// the shard-local half of the wake-gate subsystem
    /// (behavior-neutral: every component still self-gates). Being per
    /// *shard*, instead of the global minimum the coordinator used to
    /// fold them into, is what lets the safe horizon treat each
    /// shard's pending wakes separately.
    wake_sms: WakeGate,
    wake_slices: WakeGate,
    /// Whether any SM ticked or received a reply this epoch.
    sm_activity: bool,
    // Epoch outboxes, drained by the coordinator at the barrier.
    replies_out: Vec<TaggedReply>,
    reqs_out: Vec<TaggedReq>,
    samples_out: Vec<SampleParts>,
    // Reusable scratch buffers.
    deliveries: Vec<Delivery>,
    completions: Vec<DramCompletion>,
    replies_scratch: Vec<u64>,
    outbound_scratch: Vec<SmOutbound>,
}

impl Shard {
    /// Ticks this shard through the epoch `plan`, touching only
    /// shard-local state; cross-shard traffic lands in the outboxes.
    fn run_epoch(&mut self, plan: &Plan, env: &Env<'_>) {
        let mut noc_acc = plan.noc_acc;
        let mut noc_cycle = plan.noc_cycle;
        let mut dram_acc = plan.dram_acc;
        let mut dram_cycle = plan.dram_cycle;
        let map = env.map;
        let llc_slices = env.llc_slices;
        let slicer = move |addr: PhysAddr| GpuSim::slice_of(map, llc_slices, addr);

        for cycle in plan.t_start..plan.t_end {
            // ---- NoC clock domain ----
            noc_acc += env.noc_per_core;
            while noc_acc >= 1.0 {
                noc_acc -= 1.0;
                self.deliveries.clear();
                self.req_ports.tick_evented(noc_cycle, &mut self.deliveries);
                for d in &self.deliveries {
                    self.slices[d.dst].deliver(d.payload);
                    self.wake_slices.wake_now();
                }
                self.deliveries.clear();
                self.reply_ports
                    .tick_evented(noc_cycle, &mut self.deliveries);
                for d in &self.deliveries {
                    self.sms[d.dst].on_reply(d.payload, &self.txns, cycle);
                    self.sm_activity = true;
                    // `on_reply` forces a tick of this SM at `cycle`.
                    self.wake_sms.wake_at(cycle);
                }
                noc_cycle += 1;
            }

            // ---- DRAM clock domain ----
            dram_acc += env.dram_per_core;
            while dram_acc >= 1.0 {
                dram_acc -= 1.0;
                if let Some(dram) = &mut self.dram {
                    self.completions.clear();
                    dram.tick_evented(dram_cycle, &mut self.completions);
                    for c in &self.completions {
                        let t = *self.txns.get(c.id);
                        if !t.is_store {
                            let ctrl = t.coords.expect("enqueued txns were decoded").0;
                            let li = self.slice_local[t.slice as usize];
                            self.replies_scratch.clear();
                            self.slices[li].on_dram_completion(
                                c.id,
                                cycle,
                                &mut self.txns,
                                env.mapper,
                                &mut self.replies_scratch,
                            );
                            for &txn in &self.replies_scratch {
                                self.replies_out.push(TaggedReply {
                                    cycle,
                                    phase: 0,
                                    unit: ctrl,
                                    txn,
                                });
                            }
                            self.wake_slices.wake_now();
                        }
                    }
                }
                dram_cycle += 1;
            }

            // ---- LLC slices ----
            if !self.slices.is_empty() && cycle >= self.wake_slices.get() {
                let dram = self
                    .dram
                    .as_mut()
                    .expect("shards with slices own their channels");
                let mut next = u64::MAX;
                for (li, s) in self.slices.iter_mut().enumerate() {
                    self.replies_scratch.clear();
                    s.tick_evented(
                        cycle,
                        dram_cycle,
                        env.cfg,
                        dram,
                        &mut self.txns,
                        env.mapper,
                        &mut self.replies_scratch,
                    );
                    let unit = u32::from(self.slice_ids[li]);
                    for &txn in &self.replies_scratch {
                        self.replies_out.push(TaggedReply {
                            cycle,
                            phase: 1,
                            unit,
                            txn,
                        });
                    }
                    next = next.min(s.cached_next_event());
                }
                self.wake_slices.rebuild(next);
            }

            // ---- SMs ----
            if cycle >= self.wake_sms.get() {
                let mut next = u64::MAX;
                for (si, sm) in self.sms.iter_mut().enumerate() {
                    self.outbound_scratch.clear();
                    let ran = sm.tick_evented(
                        cycle,
                        env.cfg,
                        env.mapper,
                        &mut self.txns,
                        &slicer,
                        &mut self.outbound_scratch,
                    );
                    self.sm_activity |= ran;
                    let sm_id = self.sm_ids[si];
                    for o in &self.outbound_scratch {
                        self.reqs_out.push(TaggedReq {
                            cycle,
                            sm: sm_id,
                            txn: o.txn,
                            flits: o.flits,
                        });
                    }
                    next = next.min(sm.cached_next_event());
                }
                self.wake_sms.rebuild(next);
            }

            // ---- Metrics (per-shard contribution; summed at the barrier)
            if cycle.is_multiple_of(METRIC_SAMPLE_INTERVAL) {
                self.samples_out.push(self.sample_parts());
            }
        }
    }

    fn sample_parts(&self) -> SampleParts {
        let busy_slices = self.slices.iter().filter(|s| !s.is_idle()).count() as u64;
        let (busy_channels, bank_sum) = match &self.dram {
            None => (0, 0),
            Some(d) => {
                let mut busy = 0u64;
                let mut banks = 0u64;
                for &c in d.controllers() {
                    let ch = d.channel(c);
                    if ch.is_busy() {
                        busy += 1;
                        banks += ch.busy_banks() as u64;
                    }
                }
                (busy, banks)
            }
        };
        SampleParts {
            busy_slices,
            busy_channels,
            bank_sum,
        }
    }

    fn is_drained(&self) -> bool {
        self.sms.iter().all(Sm::is_idle)
            && self.slices.iter().all(LlcSlice::is_idle)
            && self.dram.as_ref().is_none_or(|d| !d.is_busy())
            && !self.req_ports.is_busy()
            && !self.reply_ports.is_busy()
    }
}

/// The scheduler's view of the sharded SM population, addressed by
/// global SM index.
struct ShardSmPool<'g, 'a> {
    guards: &'g mut [MutexGuard<'a, Shard>],
    /// Global SM index → (shard, local index).
    sm_map: &'g [(u32, u32)],
}

impl SmPool for ShardSmPool<'_, '_> {
    fn num_sms(&self) -> usize {
        self.sm_map.len()
    }
    fn retired_total(&self) -> u64 {
        self.guards
            .iter()
            .map(|g| g.sms.iter().map(Sm::retired_tbs).sum::<u64>())
            .sum()
    }
    fn can_accept(&self, sm: usize, warps_per_block: usize, tbs_limit: usize) -> bool {
        let (s, l) = self.sm_map[sm];
        self.guards[s as usize].sms[l as usize].can_accept_tb(warps_per_block, tbs_limit)
    }
    fn assign(&mut self, sm: usize, kernel: &dyn KernelSource, tb: u64, age: u64, cycle: u64) {
        let (s, l) = self.sm_map[sm];
        let g = &mut self.guards[s as usize];
        g.sms[l as usize].assign_tb(kernel, tb, age, cycle);
        // `assign_tb` zeroed the SM's own next-event cache; clamp the
        // owning shard's gate (only shards that actually received a TB
        // are forced to walk — the old code reset every shard).
        g.wake_sms.wake_now();
    }
}

/// Splits `0..n` into `parts` contiguous ranges (earlier ranges one
/// longer when `n % parts != 0`).
fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(at..at + len);
        at += len;
    }
    out
}

/// The LLC-slice/DRAM-channel pairing derived from the slice-routing
/// function [`GpuSim::slice_of`]: each group's slices exchange traffic
/// with exactly that group's channels, so a shard owning whole groups
/// never touches foreign memory state.
fn memory_groups(map: &dyn DramAddressMap, llc_slices: usize) -> Vec<(Vec<u16>, Vec<usize>)> {
    let nc = map.num_controllers();
    if nc >= llc_slices {
        // slice_of = controller % llc_slices: slice s serves the
        // controllers congruent to s.
        (0..llc_slices)
            .map(|s| {
                let ctrls = (s..nc).step_by(llc_slices).collect();
                (vec![s as u16], ctrls)
            })
            .collect()
    } else {
        // slice_of = controller * per + (bank % per): controller c is
        // served by slices [c*per, (c+1)*per).
        let per = llc_slices / nc;
        (0..nc)
            .map(|c| {
                let slices = (c * per..(c + 1) * per).map(|s| s as u16).collect();
                (slices, vec![c])
            })
            .collect()
    }
}

/// The barrier protocol between the coordinator and the workers:
/// **spin-then-park**. The fast path is lock-free — `epoch`, `remaining`
/// and `stop` are atomics the two sides poll for a bounded number of
/// iterations — so an epoch whose shard work finishes quickly costs no
/// futex round trips at all. Only when the spin budget runs out does a
/// side take the mutex and park on the matching Condvar; the publisher
/// then pairs every atomic update with a locked notify, so a parked
/// peer either observes the update before waiting (the lock orders the
/// two) or is woken by the notify — no missed-wakeup window.
struct Ctrl {
    /// Epoch counter, bumped by [`Ctrl::publish`] after the plan write.
    epoch: AtomicU64,
    /// Workers still ticking the current epoch.
    remaining: AtomicUsize,
    stop: AtomicBool,
    /// The published plan; written before the `epoch` bump (Release)
    /// and read after observing it (Acquire), the lock being needed
    /// only because `Plan` is not atomic.
    plan: Mutex<Plan>,
    /// Park-path lock: pure synchronization, no data.
    m: Mutex<()>,
    start_cv: Condvar,
    done_cv: Condvar,
    workers: usize,
}

impl Ctrl {
    fn new(workers: usize) -> Self {
        Ctrl {
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            plan: Mutex::new(Plan::default()),
            m: Mutex::new(()),
            start_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
        }
    }

    /// Coordinator: publish `plan` and release the workers.
    fn publish(&self, plan: &Plan) {
        *self.plan.lock().expect("ctrl poisoned") = *plan;
        self.remaining.store(self.workers, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
        // Lock-paired notify: a worker past its spin budget holds `m`
        // while re-checking `epoch`, so it either sees the bump or is
        // inside `wait` when this notify fires.
        let _g = self.m.lock().expect("ctrl poisoned");
        self.start_cv.notify_all();
    }

    /// Coordinator: wait until every worker finished the epoch — spin
    /// first, park on the Condvar only if the workers outlast the
    /// budget.
    fn wait_done(&self) {
        for _ in 0..SPIN_ITERS {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        let mut g = self.m.lock().expect("ctrl poisoned");
        while self.remaining.load(Ordering::Acquire) > 0 {
            g = self.done_cv.wait(g).expect("ctrl poisoned");
        }
    }

    /// Coordinator: wake all workers for exit.
    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let _g = self.m.lock().expect("ctrl poisoned");
        self.start_cv.notify_all();
    }

    /// Worker: wait for an epoch newer than `seen` (spin, then park);
    /// `None` = shut down.
    fn next_epoch(&self, seen: u64) -> Option<(u64, Plan)> {
        let ready = |this: &Self| -> Option<Option<u64>> {
            if this.stop.load(Ordering::Acquire) {
                return Some(None);
            }
            let e = this.epoch.load(Ordering::Acquire);
            (e > seen).then_some(Some(e))
        };
        let mut outcome = None;
        for _ in 0..SPIN_ITERS {
            if let Some(o) = ready(self) {
                outcome = Some(o);
                break;
            }
            std::hint::spin_loop();
        }
        let outcome = outcome.unwrap_or_else(|| {
            let mut g = self.m.lock().expect("ctrl poisoned");
            loop {
                if let Some(o) = ready(self) {
                    break o;
                }
                g = self.start_cv.wait(g).expect("ctrl poisoned");
            }
        });
        let epoch = outcome?;
        let plan = *self.plan.lock().expect("ctrl poisoned");
        Some((epoch, plan))
    }

    /// Worker: report epoch completion.
    fn done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last one out: lock-paired notify (see `publish`).
            let _g = self.m.lock().expect("ctrl poisoned");
            self.done_cv.notify_one();
        }
    }
}

/// Runs `sim` on the phase-parallel engine with `num_shards` shards and
/// up to `threads` OS threads (thread count is pure transport — results
/// depend only on the configuration, never on `threads`).
pub(crate) fn run_sharded(sim: GpuSim, num_shards: usize, threads: usize) -> SimReport {
    let GpuSim {
        cfg,
        mapper,
        map,
        workload,
        ..
    } = sim;

    let groups = memory_groups(map.as_ref(), cfg.llc_slices);
    // More shards than work units would leave permanently-empty shards;
    // clamp (results are shard-count independent anyway).
    let num_shards = num_shards.clamp(2, cfg.num_sms.max(groups.len()).max(2));
    let sm_ranges = split_ranges(cfg.num_sms, num_shards);
    let group_ranges = split_ranges(groups.len(), num_shards);

    let mut sm_map = vec![(0u32, 0u32); cfg.num_sms];
    let mut slice_map = vec![(0u32, 0u32); cfg.llc_slices];
    let mut shards: Vec<Mutex<Shard>> = Vec::with_capacity(num_shards);
    for s in 0..num_shards {
        let sm_ids: Vec<u32> = sm_ranges[s].clone().map(|i| i as u32).collect();
        let mut slice_ids: Vec<u16> = Vec::new();
        let mut ctrls: Vec<usize> = Vec::new();
        for g in group_ranges[s].clone() {
            slice_ids.extend_from_slice(&groups[g].0);
            ctrls.extend_from_slice(&groups[g].1);
        }
        ctrls.sort_unstable();
        for (l, &id) in sm_ids.iter().enumerate() {
            sm_map[id as usize] = (s as u32, l as u32);
        }
        let mut slice_local = vec![usize::MAX; cfg.llc_slices];
        for (l, &id) in slice_ids.iter().enumerate() {
            slice_map[id as usize] = (s as u32, l as u32);
            slice_local[id as usize] = l;
        }
        let sms = sm_ids.iter().map(|&i| Sm::new(i, &cfg)).collect();
        let slices: Vec<LlcSlice> = slice_ids.iter().map(|&i| LlcSlice::new(i, &cfg)).collect();
        // Every shard's DRAM subset borrows the one shared address map —
        // the config/state split's payoff: no per-shard map clones.
        let dram = (!ctrls.is_empty())
            .then(|| DramSystem::for_controllers(Arc::clone(&map), cfg.dram, &ctrls));
        shards.push(Mutex::new(Shard {
            req_ports: Crossbar::new(cfg.num_sms, slice_ids.len().max(1), cfg.noc_router_latency),
            reply_ports: Crossbar::new(cfg.llc_slices, sm_ids.len().max(1), cfg.noc_router_latency),
            wake_sms: WakeGate::new(),
            wake_slices: WakeGate::new(),
            sm_ids,
            slice_ids,
            slice_local,
            sms,
            slices,
            dram,
            txns: TxnTable::with_namespace(s as u32),
            sm_activity: false,
            replies_out: Vec::with_capacity(64),
            reqs_out: Vec::with_capacity(64),
            samples_out: Vec::with_capacity(EPOCH_CAP as usize),
            deliveries: Vec::with_capacity(64),
            completions: Vec::with_capacity(64),
            replies_scratch: Vec::with_capacity(32),
            outbound_scratch: Vec::with_capacity(32),
        }));
    }

    let env = Env {
        cfg: &cfg,
        mapper: &mapper,
        map: map.as_ref(),
        llc_slices: cfg.llc_slices,
        noc_per_core: cfg.noc_per_core(),
        dram_per_core: cfg.dram_per_core(),
    };

    let mut coord = Coordinator {
        env: &env,
        workload: workload.as_ref(),
        sm_map: &sm_map,
        slice_map: &slice_map,
        shards: &shards,
        sched: TbScheduler::new(workload.num_kernels()),
        parallelism: ParallelismIntegrator::new(),
        cycle: 0,
        noc_acc: 0.0,
        noc_cycle: 0,
        dram_acc: 0.0,
        dram_cycle: 0,
        truncated: false,
        sched_quiet: false,
        stamps: Vec::with_capacity(EPOCH_CAP as usize),
        merge_replies: Vec::with_capacity(128),
        merge_reqs: Vec::with_capacity(128),
        reply_inbox: (0..num_shards).map(|_| Vec::with_capacity(32)).collect(),
        req_inbox: (0..num_shards).map(|_| Vec::with_capacity(32)).collect(),
        sample_acc: Vec::with_capacity(EPOCH_CAP as usize),
        bank_channels: Vec::with_capacity(EPOCH_CAP as usize),
        epoch_hist: EpochHist::default(),
        plan_replies_busy: false,
    };

    let threads = threads.clamp(1, num_shards);
    if threads <= 1 {
        // Inline transport: the coordinator ticks every shard itself.
        // Identical state evolution to the threaded transport (shards are
        // mutually independent within an epoch), without any
        // synchronization — the right engine shape on a 1-core machine
        // and the workhorse of the equivalence battery.
        coord.drive(&mut |plan, shards| {
            for s in shards {
                s.lock().expect("shard poisoned").run_epoch(plan, &env);
            }
        })
    } else {
        let ctrl = Ctrl::new(threads - 1);
        std::thread::scope(|scope| {
            for w in 1..threads {
                let ctrl = &ctrl;
                let env = &env;
                let shards = &shards;
                let my: Vec<usize> = (w..shards.len()).step_by(threads).collect();
                scope.spawn(move || {
                    let mut seen = 0;
                    while let Some((epoch, plan)) = ctrl.next_epoch(seen) {
                        seen = epoch;
                        for &i in &my {
                            shards[i]
                                .lock()
                                .expect("shard poisoned")
                                .run_epoch(&plan, env);
                        }
                        ctrl.done();
                    }
                });
            }
            let own: Vec<usize> = (0..shards.len()).step_by(threads).collect();
            let report = coord.drive(&mut |plan, shards| {
                ctrl.publish(plan);
                for &i in &own {
                    shards[i]
                        .lock()
                        .expect("shard poisoned")
                        .run_epoch(plan, &env);
                }
                ctrl.wait_done();
            });
            ctrl.stop();
            report
        })
    }
}

/// The epoch driver: plans epochs, merges their results, runs the TB
/// scheduler and assembles the final report. `exec` is the transport
/// that ticks all shards through one epoch (inline or threaded).
struct Coordinator<'a> {
    env: &'a Env<'a>,
    workload: &'a dyn crate::trace::WorkloadSource,
    sm_map: &'a [(u32, u32)],
    slice_map: &'a [(u32, u32)],
    shards: &'a [Mutex<Shard>],
    sched: TbScheduler,
    parallelism: ParallelismIntegrator,
    cycle: u64,
    noc_acc: f64,
    noc_cycle: u64,
    dram_acc: f64,
    dram_cycle: u64,
    truncated: bool,
    /// Cached negative `can_progress` verdict (see the sequential loop).
    sched_quiet: bool,
    /// Post-tick NoC cycle of each epoch cycle (injection timestamps).
    stamps: Vec<u64>,
    merge_replies: Vec<TaggedReply>,
    merge_reqs: Vec<TaggedReq>,
    /// Per-destination-shard packet inboxes (reused every epoch): the
    /// barrier batches all cross-shard packets by destination and
    /// drains one `Vec` per shard, touching each shard's crossbars in
    /// one contiguous pass instead of hopping between shards per
    /// message.
    reply_inbox: Vec<Vec<Packet>>,
    req_inbox: Vec<Vec<Packet>>,
    sample_acc: Vec<SampleParts>,
    bank_channels: Vec<u64>,
    /// Epoch-length telemetry, surfaced in the report.
    epoch_hist: EpochHist,
    /// Whether any reply-net packet was in flight when the pending
    /// epoch was planned (feeds [`EpochHist::in_flight_multi`]).
    plan_replies_busy: bool,
}

enum Step {
    Ran(Plan),
    Truncated,
    Finished,
}

impl<'a> Coordinator<'a> {
    fn drive(&mut self, exec: &mut dyn FnMut(&Plan, &[Mutex<Shard>])) -> SimReport {
        let mut pending: Option<Plan> = None;
        loop {
            let step = {
                let mut guards: Vec<MutexGuard<'_, Shard>> = self
                    .shards
                    .iter()
                    .map(|s| s.lock().expect("shard poisoned"))
                    .collect();
                if let Some(plan) = pending.take() {
                    if self.merge_epoch(&plan, &mut guards) {
                        Step::Finished
                    } else if self.cycle >= self.env.cfg.max_cycles {
                        self.truncated = true;
                        Step::Finished
                    } else {
                        self.next_step(&mut guards)
                    }
                } else {
                    self.next_step(&mut guards)
                }
            };
            match step {
                Step::Finished => break,
                Step::Truncated => {
                    self.truncated = true;
                    break;
                }
                Step::Ran(plan) => {
                    exec(&plan, self.shards);
                    pending = Some(plan);
                }
            }
        }
        self.finish()
    }

    /// Fast-forwards over globally event-free spans, then plans the next
    /// epoch (without running it).
    fn next_step(&mut self, guards: &mut [MutexGuard<'_, Shard>]) -> Step {
        if self.fast_forward(guards) {
            return Step::Truncated;
        }
        let plan = self.make_plan(guards);
        Step::Ran(plan)
    }

    /// Mirrors `GpuSim::fast_forward` over the sharded state. Returns
    /// whether the cycle safety limit truncated the run.
    fn fast_forward(&mut self, guards: &mut [MutexGuard<'_, Shard>]) -> bool {
        let mut noc_next = u64::MAX;
        let mut dram_next = u64::MAX;
        let mut core_next = u64::MAX;
        for g in guards.iter() {
            noc_next = noc_next
                .min(g.req_ports.cached_next_event())
                .min(g.reply_ports.cached_next_event());
            if let Some(d) = &g.dram {
                dram_next = dram_next.min(d.cached_next_event());
            }
            core_next = core_next.min(g.wake_sms.get()).min(g.wake_slices.get());
        }
        {
            let (_, nt) = domain_ticks(self.noc_acc, self.env.noc_per_core);
            if self.noc_cycle + nt > noc_next {
                return false;
            }
            let (_, dt) = domain_ticks(self.dram_acc, self.env.dram_per_core);
            if self.dram_cycle + dt > dram_next {
                return false;
            }
        }
        if core_next <= self.cycle {
            return false;
        }
        if !self.sched_quiet {
            let pool = ShardSmPool {
                guards,
                sm_map: self.sm_map,
            };
            if self.sched.can_progress(&pool, self.env.cfg) {
                return false;
            }
            self.sched_quiet = true;
        }

        let skip_start = self.cycle;
        loop {
            if core_next <= self.cycle {
                break;
            }
            let (na, nt) = domain_ticks(self.noc_acc, self.env.noc_per_core);
            if self.noc_cycle + nt > noc_next {
                break;
            }
            let (da, dt) = domain_ticks(self.dram_acc, self.env.dram_per_core);
            if self.dram_cycle + dt > dram_next {
                break;
            }
            self.noc_acc = na;
            self.noc_cycle += nt;
            self.dram_acc = da;
            self.dram_cycle += dt;
            self.cycle += 1;
            if self.cycle >= self.env.cfg.max_cycles {
                break;
            }
        }

        let skipped = self.cycle - skip_start;
        if skipped > 0 {
            let samples = (skip_start + skipped).div_ceil(METRIC_SAMPLE_INTERVAL)
                - skip_start.div_ceil(METRIC_SAMPLE_INTERVAL);
            if samples > 0 {
                let mut parts = SampleParts::default();
                let mut bank_channels = 0u64;
                for g in guards.iter() {
                    let p = g.sample_parts();
                    parts.busy_slices += p.busy_slices;
                    parts.busy_channels += p.busy_channels;
                    parts.bank_sum += p.bank_sum;
                    bank_channels += p.busy_channels;
                }
                self.parallelism.sample_sums_n(
                    parts.busy_slices,
                    parts.busy_channels,
                    parts.bank_sum,
                    bank_channels,
                    samples,
                );
            }
        }
        self.cycle >= self.env.cfg.max_cycles
    }

    /// Plans the next epoch: one cycle whenever SM activity or the TB
    /// scheduler may be live, else extended to the safe horizon derived
    /// from the per-unit wake gates (see [`Coordinator::horizon`]).
    fn make_plan(&mut self, guards: &[MutexGuard<'_, Shard>]) -> Plan {
        let (h, replies_busy) = self.horizon(guards);
        self.plan_replies_busy = replies_busy;
        let plan = Plan {
            t_start: self.cycle,
            t_end: self.cycle + h,
            noc_acc: self.noc_acc,
            noc_cycle: self.noc_cycle,
            dram_acc: self.dram_acc,
            dram_cycle: self.dram_cycle,
        };
        // Advance the coordinator's canonical clocks over the window and
        // record each cycle's post-tick NoC stamp (the injection
        // timestamps the merge needs).
        self.stamps.clear();
        for _ in plan.t_start..plan.t_end {
            let (na, nt) = domain_ticks(self.noc_acc, self.env.noc_per_core);
            self.noc_acc = na;
            self.noc_cycle += nt;
            let (da, dt) = domain_ticks(self.dram_acc, self.env.dram_per_core);
            self.dram_acc = da;
            self.dram_cycle += dt;
            self.stamps.push(self.noc_cycle);
        }
        plan
    }

    /// How many cycles the next epoch may safely span (≥ 1), plus
    /// whether any reply-net packet was in flight when the bound was
    /// computed (epoch telemetry).
    ///
    /// Assembled from the wake-gate subsystem, per shard:
    ///
    /// * `sm_gate` — the earliest per-SM wake gate anywhere; an SM tick
    ///   is SM activity and must barrier.
    /// * `deliver_gate` — the earliest reply-net packet *completion*
    ///   (NoC cycles): a delivery wakes its SM. Crucially this is the
    ///   per-port delivery query, not the next flit movement — a
    ///   streaming reply only clamps the epoch at the cycle its last
    ///   flit lands.
    /// * `emit_cycle` — a core-cycle lower bound on the first in-epoch
    ///   reply *emission*: the per-channel DRAM minima (a completion
    ///   reply needs a channel event first), the slices' in-flight hit
    ///   heads, and `min(DRAM minimum completion latency, LLC hit
    ///   latency)` for work the epoch itself enqueues. Emitted replies
    ///   are injected at the barrier with their in-epoch stamps; they
    ///   cannot be due to move a flit before `stamp + router_latency`,
    ///   so the epoch may run until that bound instead of stopping
    ///   `router_latency` NoC cycles after its *start*.
    ///
    /// Planning is read-only: shard state is only inspected, never
    /// touched (the `&` receivers all the way down prove it).
    fn horizon(&self, guards: &[MutexGuard<'_, Shard>]) -> (u64, bool) {
        let mut replies_busy = false;
        for g in guards.iter() {
            replies_busy |= g.reply_ports.is_busy();
        }
        // The scheduler runs every cycle while no kernel is loaded
        // (kernel loads and termination both live there), so such cycles
        // barrier individually.
        if self.sched.kernel.is_none() {
            return (1, replies_busy);
        }
        let cfg = self.env.cfg;
        // Cheap gates first, each with an early-out: the expensive
        // emission scan below only runs when a multi-cycle epoch is
        // actually on the table, so 1-cycle epochs (which dominate even
        // saturated phases, and where planning runs every cycle) pay a
        // handful of scalar reads.
        let mut sm_gate = u64::MAX; // core cycles
        for g in guards.iter() {
            sm_gate = sm_gate.min(g.wake_sms.get());
        }
        if sm_gate <= self.cycle + 1 {
            // An SM may act on the very next cycle: 1-cycle epoch.
            return (1, replies_busy);
        }
        let mut deliver_gate = u64::MAX; // NoC cycles
        for g in guards.iter() {
            deliver_gate = deliver_gate.min(g.reply_ports.delivery_gate());
        }
        {
            // First NoC step: a pre-existing reply completing within it
            // forces a 1-cycle epoch — exactly the loop's first-iteration
            // break, taken before the emission scan.
            let (_, nt1) = domain_ticks(self.noc_acc, self.env.noc_per_core);
            if self.noc_cycle + nt1 > deliver_gate {
                return (1, replies_busy);
            }
        }
        let mut emit_cycle = u64::MAX; // core cycles
                                       // Work enqueued during the epoch (DRAM hand-offs, tag probes)
                                       // cannot produce a reply sooner than the shorter of the DRAM
                                       // minimum completion latency (in DRAM cycles, which take at
                                       // least as many core cycles) and the LLC hit latency.
        let enq_bound = cfg.dram.min_completion_latency().min(cfg.llc_latency);
        for g in guards.iter() {
            if let Some(d) = &g.dram {
                let dm = d.cached_next_event();
                if dm != u64::MAX {
                    // `d` DRAM cycles take at least `d` core cycles
                    // (domain clocks no faster than the core clock).
                    emit_cycle = emit_cycle.min(self.cycle + dm.saturating_sub(self.dram_cycle));
                }
            }
            let mut active = g.req_ports.is_busy();
            for s in &g.slices {
                emit_cycle = emit_cycle.min(s.next_reply_at());
                active |= !s.is_idle();
            }
            if active {
                emit_cycle = emit_cycle.min(self.cycle + enq_bound);
            }
        }
        let rl = cfg.noc_router_latency;
        let cap = EPOCH_CAP.min(cfg.max_cycles - self.cycle);
        let mut h = 0u64;
        let mut na = self.noc_acc;
        let mut nc = self.noc_cycle;
        // NoC stamp of the first emission-capable cycle, once the window
        // reaches it. Stamps never precede the window's starting NoC
        // cycle, so an already-due emission gate degrades exactly to the
        // old `noc_cycle + router_latency` rule.
        let mut emit_stamp = (emit_cycle <= self.cycle).then_some(self.noc_cycle);
        while h < cap && self.cycle + h < sm_gate {
            let (na2, nt) = domain_ticks(na, self.env.noc_per_core);
            let v = nc + nt;
            // A reply delivery inside the window would wake an SM.
            if v > deliver_gate {
                break;
            }
            // A barrier-injected emission must not already be due.
            if emit_stamp.is_some_and(|es| v > es + rl) {
                break;
            }
            na = na2;
            nc = v;
            h += 1;
            if emit_stamp.is_none() && self.cycle + h > emit_cycle {
                // The cycle just admitted is the first emission-capable
                // one; its post-tick NoC cycle stamps its injections.
                emit_stamp = Some(nc);
            }
        }
        (h.max(1), replies_busy)
    }

    /// The epoch barrier: merge outboxes in sequential order, inject
    /// cross-shard packets, integrate samples, and run the TB scheduler
    /// exactly where the sequential loop would. Returns whether the
    /// simulation terminated.
    fn merge_epoch(&mut self, plan: &Plan, guards: &mut [MutexGuard<'_, Shard>]) -> bool {
        debug_assert_eq!(self.cycle, plan.t_start);
        let width = (plan.t_end - plan.t_start) as usize;
        debug_assert_eq!(self.stamps.len(), width);

        // ---- Collect outboxes ----
        let mut sm_activity = false;
        self.merge_replies.clear();
        self.merge_reqs.clear();
        let samples_per_shard = (plan.t_start..plan.t_end)
            .filter(|c| c.is_multiple_of(METRIC_SAMPLE_INTERVAL))
            .count();
        self.bank_channels.clear();
        self.bank_channels.resize(samples_per_shard, 0);
        self.sample_acc.clear();
        self.sample_acc
            .resize(samples_per_shard, SampleParts::default());
        let bank_channels = &mut self.bank_channels;
        let sample_acc = &mut self.sample_acc;
        for g in guards.iter_mut() {
            sm_activity |= g.sm_activity;
            g.sm_activity = false;
            self.merge_replies.append(&mut g.replies_out);
            self.merge_reqs.append(&mut g.reqs_out);
            debug_assert_eq!(g.samples_out.len(), samples_per_shard);
            for (i, p) in g.samples_out.drain(..).enumerate() {
                sample_acc[i].busy_slices += p.busy_slices;
                sample_acc[i].busy_channels += p.busy_channels;
                sample_acc[i].bank_sum += p.bank_sum;
                bank_channels[i] += p.busy_channels;
            }
        }
        for (p, &bc) in sample_acc.iter().zip(bank_channels.iter()) {
            self.parallelism
                .sample_sums_n(p.busy_slices, p.busy_channels, p.bank_sum, bc, 1);
        }

        // ---- Inject cross-shard traffic in sequential order ----
        // Stable sorts: entries with equal keys come from a single shard
        // and stay in their (already sequential) push order. Packets are
        // batched into one inbox per destination shard first — the sort
        // order survives the stable partition, so each crossbar sees the
        // identical per-port injection sequence — and every shard's
        // crossbars are then filled in one contiguous drain instead of
        // per-message hops between shards.
        self.merge_replies
            .sort_by_key(|r| (r.cycle, r.phase, r.unit));
        self.merge_reqs.sort_by_key(|q| (q.cycle, q.sm));
        let stamps = &self.stamps;
        let stamp_of = |cycle: u64| stamps[(cycle - plan.t_start) as usize];
        for i in 0..self.merge_replies.len() {
            let r = self.merge_replies[i];
            let rec = *guards[TxnTable::namespace_of(r.txn)].txns.get(r.txn);
            let (ds, dl) = self.sm_map[rec.sm as usize];
            self.reply_inbox[ds as usize].push(Packet {
                payload: rec.origin,
                src: rec.slice as usize,
                dst: dl as usize,
                flits: valley_noc::DATA_FLITS,
                injected_at: stamp_of(r.cycle),
            });
        }
        for i in 0..self.merge_reqs.len() {
            let q = self.merge_reqs[i];
            let rec = *guards[TxnTable::namespace_of(q.txn)].txns.get(q.txn);
            let (ds, dl) = self.slice_map[rec.slice as usize];
            let copy = guards[ds as usize].txns.alloc_copy(rec, q.txn);
            self.req_inbox[ds as usize].push(Packet {
                payload: copy,
                src: rec.sm as usize,
                dst: dl as usize,
                flits: q.flits,
                injected_at: stamp_of(q.cycle),
            });
        }
        for (s, g) in guards.iter_mut().enumerate() {
            for pkt in self.reply_inbox[s].drain(..) {
                g.reply_ports.inject(pkt);
            }
            for pkt in self.req_inbox[s].drain(..) {
                g.req_ports.inject(pkt);
            }
        }

        // ---- Epoch telemetry ----
        self.epoch_hist
            .record(plan.t_end - plan.t_start, self.plan_replies_busy);

        // ---- TB scheduler (the sequential loop's gate, verbatim) ----
        debug_assert!(
            width == 1 || !sm_activity,
            "multi-cycle epochs must be SM-quiet"
        );
        if sm_activity || self.sched.kernel.is_none() {
            let mut pool = ShardSmPool {
                guards,
                sm_map: self.sm_map,
            };
            self.sched
                .run(&mut pool, self.workload, self.env.cfg, plan.t_end - 1);
            self.sched_quiet = false;
            // The pool lowered the wake gates of exactly the SMs it
            // assigned to; no blanket invalidation is needed.
        }

        self.cycle = plan.t_end;
        self.sched.finished() && guards.iter().all(|g| g.is_drained())
    }

    /// Settles every deferred counter and assembles the report.
    fn finish(&mut self) -> SimReport {
        let mut guards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned"))
            .collect();
        let mut req = NocStats::default();
        let mut rep = NocStats::default();
        let mut dram = valley_dram::DramStats::default();
        let mut txn_count = 0u64;
        for g in guards.iter_mut() {
            g.req_ports.flush_deferred(self.noc_cycle);
            g.reply_ports.flush_deferred(self.noc_cycle);
            if let Some(d) = &mut g.dram {
                d.flush_deferred(self.dram_cycle);
                dram.merge(&d.total_stats());
            }
            for sm in &mut g.sms {
                sm.flush_idle(self.cycle);
            }
            for s in &mut g.slices {
                s.flush_stall(self.cycle);
            }
            let rq = g.req_ports.stats();
            req.delivered += rq.delivered;
            req.total_latency += rq.total_latency;
            req.flits += rq.flits;
            req.cycles += rq.cycles;
            let rp = g.reply_ports.stats();
            rep.delivered += rp.delivered;
            rep.total_latency += rp.total_latency;
            rep.flits += rp.flits;
            rep.cycles += rp.cycles;
            txn_count += g.txns.len();
        }
        build_report(ReportParts {
            cfg: self.env.cfg,
            benchmark: self.workload.name(),
            scheme: self.env.mapper.kind().label().to_string(),
            cycles: self.cycle,
            dram_cycles: self.dram_cycle,
            truncated: self.truncated,
            parallelism: &self.parallelism,
            kernels: self.sched.kernel_idx,
            sms: &mut guards.iter().flat_map(|g| g.sms.iter()),
            slices: &mut guards.iter().flat_map(|g| g.slices.iter()),
            dram,
            dram_channels: self.env.map.num_controllers(),
            req,
            rep,
            memory_transactions: txn_count,
            epoch_hist: self.epoch_hist,
        })
    }
}
