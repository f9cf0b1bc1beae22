//! The full-system simulator: NIC ⇄ IDIO controller ⇄ cache hierarchy ⇄
//! cores ⇄ DRAM, driven by a single deterministic event queue.
//!
//! One [`System`] instance runs one experiment configuration end to end:
//! traffic generators emit packet arrivals; the NIC steers, classifies and
//! paces DMA; every DMA line write consults the IDIO controller for its
//! placement; polling cores consume descriptor rings in batches and execute
//! their NF's per-packet memory program against the hierarchy; and the
//! statistics machinery samples the counters every 10 µs into the timelines
//! the paper's figures are drawn from.

use std::collections::VecDeque;
use std::fmt;

use idio_cache::addr::{Addr, CoreId, LineAddr, LINE_SIZE};
use idio_cache::hierarchy::{DmaPlacement, Hierarchy, HitLevel, MemEffects};
use idio_cache::maintenance::{allocate_invalidatable, invalidate_range, PageTable};
use idio_engine::queue::EventQueue;
use idio_engine::rng::SimRng;
use idio_engine::stats::{LatencyRecorder, RateSampler};
use idio_engine::telemetry::{Histogram, MetricsRegistry, Tracer, DEFAULT_TRACE_CAPACITY};
use idio_engine::time::{Duration, SimTime};
use idio_mem::{DramModel, DramOp};
use idio_net::gen::{Arrival, FlowSet, MultiFlowGen, TrafficPattern};
use idio_net::packet::Packet;
use idio_nic::flow_director::{QueueId, SteeringSource};
use idio_nic::nic::{Nic, NicConfig, RingLayout};
use idio_nic::ring::{RxSlot, BUF_LINES, DEFAULT_BUF_BYTES};
use idio_nic::tlp::TlpMeta;
use idio_nic::tx::TxRing;
use idio_pool::{BufPool, PoolMode};
use idio_stack::antagonist::{AntagonistConfig, LlcAntagonist};
use idio_stack::nf::{ChainStage, MemOp, NfKind, PacketAction, PacketCtx, PacketWork};
use idio_stack::timing::CoreTiming;

use crate::config::{FlowSteering, SystemConfig};
use crate::controller::{CatConfig, CatController, IdioController, Placement};
use crate::fsm::MlcStatus;
use crate::layout::{AddressMap, QueueRegions};
use crate::policy::{CatMode, PolicyCaps, PolicyTable};
use crate::prefetcher::{HintArena, MlcPrefetcher, PrefetchPacing};
use crate::report::{
    BurstTracker, EventTypeProfile, LatencySummary, RunReport, RunTotals, Timelines,
};

/// Events of the full-system simulation.
#[derive(Debug, Clone)]
enum Event {
    /// The next packet of traffic generator `gen` arrives at the NIC.
    Arrival { gen: usize },
    /// The inbound PCIe line writes of one packet's payload, batched.
    DmaPacket(DmaBatch),
    /// A descriptor writeback becomes visible to the polling driver.
    DescWriteback { queue: QueueId, slot: u32 },
    /// A core's MLC prefetcher issues its next queued prefetch.
    PrefetchIssue { core: usize },
    /// A core wakes: finishes the in-flight packet and/or polls for more.
    CoreWake { core: usize },
    /// The NIC finished reading a forwarded packet out of memory.
    TxComplete {
        queue: QueueId,
        buf: Addr,
        lines: u32,
        arrival: SimTime,
        flow: idio_net::packet::FiveTuple,
    },
    /// The antagonist's next dependent access.
    AntagonistNext,
    /// IDIO control-plane 1 µs tick.
    ControlTick,
    /// Statistics sampling tick (10 µs).
    SampleTick,
}

impl Event {
    /// Number of event types (length of [`Event::NAMES`]).
    const TYPES: usize = 9;

    /// Stable event-type names, indexed by [`Event::type_index`]. These
    /// appear in trace output, metrics (`engine.events.<name>`), and the
    /// `--timings` profile, so they must not change across releases.
    const NAMES: [&'static str; Event::TYPES] = [
        "arrival",
        "dma_line",
        "desc_writeback",
        "prefetch_issue",
        "core_wake",
        "tx_complete",
        "antagonist",
        "control_tick",
        "sample_tick",
    ];

    fn type_index(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            // The batch event keeps the per-line name: the handler bumps
            // the count by the extra lines it applies, so the
            // `engine.events.dma_line` metric still counts DMA lines.
            Event::DmaPacket(_) => 1,
            Event::DescWriteback { .. } => 2,
            Event::PrefetchIssue { .. } => 3,
            Event::CoreWake { .. } => 4,
            Event::TxComplete { .. } => 5,
            Event::AntagonistNext => 6,
            Event::ControlTick => 7,
            Event::SampleTick => 8,
        }
    }
}

// `TlpMeta`'s bools give the enum a niche: the batch costs no tag word.
const _: () = assert!(std::mem::size_of::<Event>() == 64);

/// One packet's payload DMA, as one event.
///
/// Scheduled at the first line's arrival; the handler applies each line
/// at its own timestamp (`first + gap * i`), yielding via a continuation
/// whenever an interleaved event sorts earlier, so the observable ordering
/// is identical to one event per line — the continuation keeps
/// `batch_seq`, the batch's original queue sequence number, as its
/// tie-break.
#[derive(Debug, Clone, Copy)]
struct DmaBatch {
    /// First buffer line; line `i` is `buf_line + i`.
    buf_line: LineAddr,
    /// Header-line TLP metadata; payload-line metadata is derived.
    meta: TlpMeta,
    arrival: SimTime,
    /// Per-queue packet sequence number (for CPU-paced prefetching).
    seq: u64,
    /// Time line 0 reaches the root complex.
    first: SimTime,
    /// Gap between consecutive lines.
    gap: Duration,
    /// Total payload lines.
    lines: u32,
    /// Index of the next line to apply (continuation resume point).
    next: u32,
    /// The batch's original queue sequence number.
    batch_seq: u64,
    /// Resolved steering-policy domain of the packet's queue.
    domain: u16,
}

/// A tenant's packet-arrival stream: multi-flow generator or trace
/// replay.
enum ArrivalSource {
    Multi(Box<MultiFlowGen>),
    Replay(std::vec::IntoIter<Arrival>),
}

impl Iterator for ArrivalSource {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        match self {
            ArrivalSource::Multi(g) => g.next(),
            ArrivalSource::Replay(it) => it.next(),
        }
    }
}

/// Flow-director bookkeeping for one streaming tenant: the flow set its
/// arrivals derive from, its queue group, and which flow slots the driver
/// holds perfect filters for.
struct FdTenant {
    set: FlowSet,
    queues: Vec<QueueId>,
    /// Pinned flow slots with the flow index last installed for each —
    /// the driver's view of its own filters. Under churn, a slot whose
    /// live index moved past the pinned one is refreshed at the next
    /// control tick (install the new incarnation, evicting if full).
    pinned: Vec<(u32, u32)>,
}

impl FdTenant {
    /// The home queue of flow slot `slot`: slots deal round-robin over
    /// the tenant's queues.
    fn home(&self, slot: u32) -> QueueId {
        self.queues[slot as usize % self.queues.len()]
    }

    /// The home queue of `flow`, if it is one of this tenant's flows.
    fn home_of(&self, flow: &idio_net::packet::FiveTuple) -> Option<QueueId> {
        self.set.slot_of(flow).map(|slot| self.home(slot))
    }
}

/// Flow-director-pressure accounting (active only when some tenant's flow
/// population can outrun the NIC's steering state: wide/churning flow
/// sets or more flows than perfect-filter budget). Tracks, per *home*
/// queue, how arrivals were actually steered — and how many landed on the
/// wrong queue and therefore polluted the wrong core's caches.
struct FdState {
    /// One entry per arrival source; `None` for replay tenants (their
    /// flows are not derivable, so every flow in the trace is pinned).
    tenants: Vec<Option<FdTenant>>,
    /// Per home queue: `[perfect, atr, collision, rss, mis_steered]`
    /// packet counts.
    mix: Vec<[u64; 5]>,
}

impl FdState {
    /// The tenant and home queue a five-tuple belongs to (O(1) per
    /// tenant: streaming sets are invertible).
    fn home_of(&self, flow: &idio_net::packet::FiveTuple) -> Option<QueueId> {
        self.tenants.iter().flatten().find_map(|t| t.home_of(flow))
    }
}

/// An NF-path event was dispatched to a core with no NF configured on it.
///
/// Every queue is pinned to exactly one NF core at construction, so this can
/// only happen when the configuration is mis-wired (a workload pinned to one
/// core while its events address another). The error names both the core and
/// the event being handled so the mismatch is directly actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnconfiguredNfCore {
    /// The core the event addressed.
    pub core: usize,
    /// The event being handled when the lookup failed.
    pub event: &'static str,
}

impl fmt::Display for UnconfiguredNfCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} event dispatched to core{}, but no NF is configured there \
             (check the workload core pinning in SystemConfig::workloads)",
            self.event, self.core
        )
    }
}

impl std::error::Error for UnconfiguredNfCore {}

/// Per-NF-core runtime state.
#[derive(Debug)]
struct NfState {
    kind: NfKind,
    queue: QueueId,
    regions: QueueRegions,
    busy: bool,
    batch: VecDeque<RxSlot>,
    current: Option<(RxSlot, PacketAction)>,
    latency: LatencyRecorder,
    /// End-to-end packet latency (arrival → completion) in nanoseconds,
    /// log2-bucketed; exported as `core{i}.pkt_latency_ns` (the scenario
    /// report's percentile source).
    lat_hist: Histogram,
    /// Per-stage service time for chained NFs, indexed by
    /// [`ChainStage::index`]; exported as `core{i}.stage.<name>_ns` only
    /// for stages that ran, so single-NF cores add no metrics.
    stage_hist: [Histogram; ChainStage::ALL.len()],
    /// Reusable per-packet program buffer: one NF program runs per packet,
    /// so building it in place removes a `Vec<MemOp>` allocation from the
    /// hot path.
    scratch: PacketWork,
    completed: u64,
    /// Packets received on this queue (CPU-paced prefetch sequencing).
    rx_seq: u64,
    /// Packets fully consumed (the "CPU pointer" of Fig. 3).
    done_seq: u64,
    /// Transmit descriptor ring (egress path of forwarding NFs).
    tx_ring: TxRing,
}

struct Samplers {
    mlc_wb: RateSampler,
    llc_wb: RateSampler,
    dram_rd: RateSampler,
    dram_wr: RateSampler,
    dma_wr: RateSampler,
    prefetch: RateSampler,
    self_inval: RateSampler,
    dma_llc_share: idio_engine::stats::TimeSeries,
}

impl Samplers {
    fn new(interval: Duration) -> Self {
        Samplers {
            mlc_wb: RateSampler::new("mlc_wb", interval),
            llc_wb: RateSampler::new("llc_wb", interval),
            dram_rd: RateSampler::new("dram_rd", interval),
            dram_wr: RateSampler::new("dram_wr", interval),
            dma_wr: RateSampler::new("dma_wr", interval),
            prefetch: RateSampler::new("prefetch", interval),
            self_inval: RateSampler::new("self_inval", interval),
            dma_llc_share: idio_engine::stats::TimeSeries::new("dma_llc_share"),
        }
    }
}

/// The full-system simulator.
///
/// # Examples
///
/// ```
/// use idio_core::config::SystemConfig;
/// use idio_core::policy::SteeringPolicy;
/// use idio_core::system::System;
/// use idio_engine::time::SimTime;
/// use idio_net::gen::TrafficPattern;
///
/// let mut cfg = SystemConfig::touchdrop_scenario(
///     1,
///     TrafficPattern::Steady { rate_gbps: 5.0 },
/// );
/// cfg.duration = SimTime::from_us(200);
/// let report = System::new(cfg).run();
/// assert!(report.totals.completed_packets > 0);
/// ```
pub struct System {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    hier: Hierarchy,
    dram: DramModel,
    nic: Nic,
    page_table: PageTable,
    ctrl: IdioController,
    prefetchers: Vec<MlcPrefetcher>,
    timing: CoreTiming,
    nf: Vec<Option<NfState>>,
    antagonist: Option<(CoreId, LlcAntagonist)>,
    gens: Vec<ArrivalSource>,
    pending_arrival: Vec<Option<Packet>>,
    samplers: Samplers,
    bursts: Option<BurstTracker>,
    /// Per-core burst trackers (exported as `core<i>.burst_exe_ns`).
    core_bursts: Vec<BurstTracker>,
    hard_stop: SimTime,
    /// Line-address ranges of all DMA buffer pools (bloat classification).
    dma_line_ranges: Vec<(u64, u64)>,
    /// Sample ticks seen (the occupancy gauge samples every 10th tick).
    sample_ticks: u64,
    /// Resolved layered policy table: system default → per-tenant,
    /// interned into dense per-queue policy domains (see
    /// [`SystemConfig::policy_table`]). The hot path indexes it by the
    /// domain id the NIC stamped into the packet's DMA plan.
    policy: PolicyTable,
    /// IAT way-tuner state, one slot per policy domain: (control ticks,
    /// LLC-WB snapshot, quiet streak). Only domains whose caps tune the
    /// DDIO ways ever advance their slot, so an IAT tenant's tuner state
    /// is isolated from coexisting non-IAT tenants.
    iat: Vec<(u64, u64, u32)>,
    /// Closed-loop CAT way allocator; present only when some policy
    /// domain asked for `cat = auto`.
    cat: Option<CatController>,
    /// First policy domain hosted on each core (by queue order); `None`
    /// for cores without a queue. Maps per-core MLC-WB counters onto
    /// per-domain pressure for the CAT loop, and picks each core's mask.
    core_domain: Vec<Option<u16>>,
    /// DDIO width the CAT masks were last planned against; the IAT tuner
    /// moving the partition boundary forces a re-plan.
    cat_ddio: usize,
    /// Run-level metrics registry (exported via [`RunReport::metrics`]).
    metrics: MetricsRegistry,
    /// Bounded event tracer (filter from [`SystemConfig::trace`]).
    tracer: Tracer,
    /// Per-event-type dispatch counts (deterministic).
    ev_counts: [u64; Event::TYPES],
    /// Per-event-type handler wall-clock (only with `profile_events`).
    ev_wall: [std::time::Duration; Event::TYPES],
    /// Steering decisions by placement, per destination core: `[LLC, MLC,
    /// DRAM]` line counts (summed into the global `steer.*` metrics;
    /// exported per core as `core{i}.steer.*` for tenant attribution).
    steer: Vec<[u64; 3]>,
    /// Arena-backed parked-hint rings (CPU-paced prefetch pacing): one
    /// fixed-capacity FIFO per core carved from a single allocation,
    /// replacing the per-core `VecDeque` queues. Zero-capacity (and
    /// allocation-free) under the default queued pacing.
    hints: HintArena,
    /// Control-tick scratch: the per-core MLC-WB snapshot, refilled in
    /// place every tick so the 1 µs control loop never allocates.
    ctrl_wbs: Vec<u64>,
    /// Control-tick scratch: per-domain writeback pressure for the CAT
    /// loop, folded in the same per-core pass that fills `ctrl_wbs`.
    ctrl_domain_wb: Vec<u64>,
    /// Control-tick scratch: pre-tick FSM statuses (only filled while the
    /// `fsm` tracer is on).
    ctrl_fsm_before: Vec<MlcStatus>,
    /// Per-control-tick `metrics.delta` NDJSON lines (only with
    /// [`SystemConfig::tick_metrics`]); exported via
    /// [`RunReport::tick_metrics`].
    tick_log: Vec<String>,
    /// Steering-mix totals at the previous control tick (delta source for
    /// the tick log).
    tick_last_steer: [u64; 3],
    /// Flow-director-pressure accounting; `None` whenever every tenant's
    /// flows fit the NIC's steering state (legacy behavior, no new
    /// metrics).
    fd: Option<FdState>,
    /// Flow-director mix totals at the previous control tick (delta
    /// source for the tick log's `fd` section).
    tick_last_fd: [u64; 5],
    /// Per-queue last pool activity (RX accept or buffer release), for
    /// the idle-flush window.
    pool_last_active: Vec<SimTime>,
    /// Whether each queue's pool is currently flushed (idle); cleared on
    /// the next activity.
    pool_flushed: Vec<bool>,
    /// Per-queue idle-flush count (`pool.q{q}.idle_flushed`).
    pool_idle_flushed: Vec<u64>,
}

impl System {
    /// Builds the system: lays out memory, wires components, warms caches,
    /// and schedules the initial events.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system config: {e}");
        }
        // Per-core state (controller FSMs, prefetchers, NF slots, steering
        // counters) is sized by the *hierarchy's* core count, which may
        // exceed the workload-derived count when a config deliberately
        // keeps spare cores (e.g. a tenant's solo run on the full mixed
        // hierarchy); the control tick feeds one counter per hierarchy
        // core, so the two must agree.
        let effective_hierarchy = cfg.effective_hierarchy();
        let num_cores = effective_hierarchy.num_cores;
        let mut hier = Hierarchy::new(effective_hierarchy);
        // Resolve the policy layers (system default → per-tenant) once,
        // into a dense per-queue domain array. The NIC stamps each
        // packet's domain into its DMA plan; the hot path does a single
        // index into the table.
        let policy = cfg.policy_table();
        let (mut map, regions, mut nic) = Self::build_nic(&cfg, &policy);
        let (gens, fd) = Self::build_arrivals(&cfg, &mut nic);
        let (page_table, nf) = Self::build_queues(&cfg, &regions, num_cores, &mut hier, &mut nic);
        let antagonist = Self::build_antagonist(&cfg, &mut map, &mut hier);
        let (ctrl, prefetchers, hints, cat, core_domain) =
            Self::build_control(&cfg, &policy, num_cores);
        let (bursts, core_bursts) = Self::build_burst_trackers(&cfg, num_cores);
        let mut system = System {
            queue: EventQueue::new(),
            pending_arrival: vec![None; gens.len()],
            gens,
            hier,
            dram: DramModel::new(cfg.dram),
            nic,
            page_table,
            ctrl,
            prefetchers,
            timing: CoreTiming::new(cfg.timing),
            nf,
            antagonist,
            samplers: Samplers::new(cfg.sample_interval),
            bursts,
            core_bursts,
            hard_stop: cfg.duration + cfg.drain_grace,
            // Only the workloads' queues: an antagonist-only run's dormant
            // queue never receives DMA.
            dma_line_ranges: regions[..cfg.workloads.len()]
                .iter()
                .map(|r| {
                    let (lo, hi) = r.buf_range();
                    (lo.line().get(), hi.line().get())
                })
                .collect(),
            sample_ticks: 0,
            iat: vec![(0, 0, 0); policy.num_domains()],
            cat,
            core_domain,
            cat_ddio: 0,
            policy,
            metrics: MetricsRegistry::new(),
            tracer: if cfg.trace.is_off() {
                Tracer::disabled()
            } else {
                Tracer::new(cfg.trace.clone(), DEFAULT_TRACE_CAPACITY)
            },
            ev_counts: [0; Event::TYPES],
            ev_wall: [std::time::Duration::ZERO; Event::TYPES],
            steer: vec![[0; 3]; num_cores],
            hints,
            ctrl_wbs: Vec::with_capacity(num_cores),
            ctrl_domain_wb: Vec::new(),
            ctrl_fsm_before: Vec::new(),
            tick_log: Vec::new(),
            tick_last_steer: [0; 3],
            fd,
            tick_last_fd: [0; 5],
            pool_last_active: vec![SimTime::ZERO; cfg.workloads.len()],
            pool_flushed: vec![false; cfg.workloads.len()],
            pool_idle_flushed: vec![0; cfg.workloads.len()],
            cfg,
        };
        // The occupancy gauge counts DMA-buffer lines resident in the
        // LLC; tracking the ranges in the array keeps that a counter
        // read instead of a full-LLC scan every sample tick.
        system.hier.track_llc_ranges(&system.dma_line_ranges);
        if system.policy.any_cat() {
            system.apply_cat_masks();
        }
        system.schedule_initial();
        system
    }

    /// Build stage: the address map, one queue's regions per workload,
    /// and the NIC over them. An antagonist-only run still gets one
    /// (dormant) queue, on core 0 in policy domain 0.
    fn build_nic(cfg: &SystemConfig, policy: &PolicyTable) -> (AddressMap, Vec<QueueRegions>, Nic) {
        let mut map = AddressMap::new();
        let queues = cfg.workloads.len().max(1);
        let regions: Vec<QueueRegions> = (0..queues)
            .map(|_| map.alloc_queue(cfg.ring_size))
            .collect();
        let nic = Nic::new(
            NicConfig {
                ring_size: cfg.ring_size,
                queue_core: (0..queues)
                    .map(|q| cfg.workloads.get(q).map_or(CoreId::new(0), |w| w.core))
                    .collect(),
                classifier: cfg.classifier.clone(),
                dma: cfg.dma,
                perfect_filter_entries: cfg.perfect_filter_entries,
                filter_table_entries: idio_nic::flow_director::DEFAULT_FILTER_TABLE_ENTRIES,
                atr_lifetime: cfg.atr_lifetime,
                queue_policy_domain: (0..queues)
                    .map(|q| policy.queue_domains().get(q).copied().unwrap_or(0))
                    .collect(),
            },
            regions
                .iter()
                .map(|q| RingLayout {
                    buf_base: q.buf_base,
                    desc_base: q.desc_base,
                })
                .collect(),
        );
        (map, regions, nic)
    }

    /// Build stage: one aggregate arrival source per tenant, its flows
    /// pinned to the NIC's flow director, and the flow-director-pressure
    /// accounting (`None` when every tenant's flows fit the NIC's
    /// steering state).
    ///
    /// A tenant's flows spread round-robin over its queues via the flow
    /// director (or are left to RSS/ATR learning). Flow populations
    /// stream from a `FlowSet` — five-tuples derived on demand, so memory
    /// stays O(1) at any flow count. Perfect-filter slots are a shared
    /// resource: each tenant may pin at most its equal share of the NIC's
    /// table, sampled evenly across its flow index space; the rest of its
    /// flows steer via ATR learning and RSS (Sec. II-C's capacity
    /// pressure).
    fn build_arrivals(cfg: &SystemConfig, nic: &mut Nic) -> (Vec<ArrivalSource>, Option<FdState>) {
        let tenants = cfg.arrival_tenants();
        let mut gens = Vec::with_capacity(tenants.len());
        let pin_budget = (cfg.perfect_filter_entries / tenants.len().max(1)).max(1);
        let mut fd_tenants: Vec<Option<FdTenant>> = Vec::new();
        let mut fd_active = false;
        for (ti, t) in tenants.iter().enumerate() {
            let queues: Vec<QueueId> = t.workloads.iter().map(|&wi| QueueId(wi as u16)).collect();
            if let Some(arrivals) = &t.replay {
                let clipped: Vec<Arrival> = arrivals
                    .iter()
                    .copied()
                    .take_while(|a| a.at < cfg.duration)
                    .collect();
                if cfg.steering == FlowSteering::Perfect {
                    // Pin first-seen flows round-robin across the
                    // tenant's queues.
                    let mut seen = std::collections::HashSet::new();
                    let mut next = 0usize;
                    for a in &clipped {
                        if seen.insert(a.packet.flow) {
                            nic.flow_director_mut()
                                .install_perfect(a.packet.flow, queues[next % queues.len()]);
                            next += 1;
                        }
                    }
                }
                fd_tenants.push(None);
                gens.push(ArrivalSource::Replay(clipped.into_iter()));
            } else {
                let mut set = FlowSet::new(ti as u16, t.flows, t.base_port, t.packet_len, t.dscp)
                    .with_train(t.train);
                if let Some(life) = t.churn {
                    set = set.with_churn(life);
                }
                let pins = (t.flows as usize).min(pin_budget) as u32;
                let mut fdt = FdTenant {
                    set,
                    queues,
                    pinned: Vec::with_capacity(pins as usize),
                };
                if cfg.steering == FlowSteering::Perfect {
                    for p in 0..u64::from(pins) {
                        // Stride the pins across the whole index space
                        // so perfect coverage interleaves with
                        // ATR/RSS-steered flows instead of truncating
                        // at the budget boundary.
                        let slot = (p * u64::from(t.flows) / u64::from(pins)) as u32;
                        nic.flow_director_mut()
                            .install_perfect(set.tuple_of(slot), fdt.home(slot));
                        fdt.pinned.push((slot, slot));
                    }
                }
                if set.is_wide() || t.flows as usize > pin_budget {
                    fd_active = true;
                }
                fd_tenants.push(Some(fdt));
                gens.push(ArrivalSource::Multi(Box::new(MultiFlowGen::streaming(
                    set,
                    t.traffic,
                    cfg.duration,
                ))));
            }
        }
        let fd = fd_active.then(|| FdState {
            tenants: fd_tenants,
            mix: vec![[0; 5]; cfg.workloads.len()],
        });
        (gens, fd)
    }

    /// Build stage: per-queue software state — the kernel-allocated
    /// (Invalidatable) DMA buffer pages, each queue's explicit mbuf pool,
    /// and the NF state of the core it is pinned to.
    ///
    /// RDCA sizing: a queue's pool budget is its equal share of the DDIO
    /// partition, so a Recycle pool's working set fits inside the I/O
    /// ways it recycles through. Dram pools carry the same budget for
    /// spill accounting only. Geometry is fixed at construction; the IAT
    /// tuner moving the boundary later does not resize pools.
    fn build_queues(
        cfg: &SystemConfig,
        regions: &[QueueRegions],
        num_cores: usize,
        hier: &mut Hierarchy,
        nic: &mut Nic,
    ) -> (PageTable, Vec<Option<NfState>>) {
        let pool_budget = {
            let h = hier.config();
            let ddio_lines = h.llc.lines() * h.ddio_ways as u64 / h.llc.ways as u64;
            (ddio_lines / cfg.workloads.len().max(1) as u64).max(u64::from(BUF_LINES))
        };
        let mut page_table = PageTable::new();
        let mut nf: Vec<Option<NfState>> = (0..num_cores).map(|_| None).collect();
        for (qi, w) in cfg.workloads.iter().enumerate() {
            allocate_invalidatable(
                &mut page_table,
                hier,
                regions[qi].buf_base,
                u64::from(cfg.ring_size) * DEFAULT_BUF_BYTES,
            );
            if let Some(spec) = w.pool {
                let mode = spec.resolve(pool_budget, BUF_LINES, cfg.ring_size);
                nic.ring_mut(QueueId(qi as u16)).install_pool(BufPool::new(
                    mode,
                    regions[qi].buf_base,
                    DEFAULT_BUF_BYTES,
                    BUF_LINES,
                    pool_budget,
                ));
            }
            nf[w.core.index()] = Some(NfState {
                kind: w.kind,
                queue: QueueId(qi as u16),
                regions: regions[qi],
                busy: false,
                batch: VecDeque::new(),
                current: None,
                latency: LatencyRecorder::new(),
                lat_hist: Histogram::new(),
                stage_hist: std::array::from_fn(|_| Histogram::new()),
                scratch: PacketWork::empty(),
                completed: 0,
                rx_seq: 0,
                done_seq: 0,
                tx_ring: TxRing::new(cfg.ring_size, regions[qi].tx_desc_base),
            });
        }
        (page_table, nf)
    }

    /// Build stage: the LLC antagonist, if configured, with its buffer
    /// mapped after the queues'. Warm-up: the antagonist initialises its
    /// buffer (Sec. VI), then all cache statistics start from zero.
    fn build_antagonist(
        cfg: &SystemConfig,
        map: &mut AddressMap,
        hier: &mut Hierarchy,
    ) -> Option<(CoreId, LlcAntagonist)> {
        let antagonist = cfg.antagonist.map(|spec| {
            let base = map.alloc(spec.buffer_bytes);
            let ant = LlcAntagonist::new(
                AntagonistConfig {
                    base,
                    size_bytes: spec.buffer_bytes,
                    think_cycles: spec.think_cycles,
                },
                SimRng::seed_from(cfg.seed).fork(1),
            );
            (spec.core, ant)
        });
        if let Some((core, ant)) = &antagonist {
            for l in ant.warmup_lines() {
                hier.cpu_write(*core, l);
            }
        }
        hier.reset_stats();
        antagonist
    }

    /// Build stage: the control plane — the IDIO controller, per-core
    /// prefetchers, the parked-hint arena, the CAT allocator and each
    /// core's first policy domain.
    fn build_control(
        cfg: &SystemConfig,
        policy: &PolicyTable,
        num_cores: usize,
    ) -> (
        IdioController,
        Vec<MlcPrefetcher>,
        HintArena,
        Option<CatController>,
        Vec<Option<u16>>,
    ) {
        // Parked-hint arena: only CPU-paced pacing ever parks. The ring
        // bound is exact — at most `ring_size` packets are in flight and
        // each parks at most one hint per line of its RX buffer slot.
        let hint_cap = match cfg.prefetcher.pacing {
            PrefetchPacing::CpuPaced { .. } => cfg.ring_size as usize * BUF_LINES as usize,
            PrefetchPacing::Queued => 0,
        };
        // CAT wiring: map each core to the first policy domain hosted on
        // it (queue order), and stand up the closed-loop allocator when
        // any domain asked for auto management.
        let mut core_domain: Vec<Option<u16>> = vec![None; num_cores];
        for (q, w) in cfg.workloads.iter().enumerate() {
            let slot = &mut core_domain[w.core.index()];
            if slot.is_none() {
                *slot = Some(policy.queue_domain(q));
            }
        }
        let cat = policy.any_cat_auto().then(|| {
            let auto: Vec<bool> = (0..policy.num_domains())
                .map(|d| policy.caps(d as u16).cat == CatMode::Auto)
                .collect();
            CatController::new(CatConfig::paper_default(), &auto)
        });
        (
            IdioController::new(cfg.idio, num_cores),
            (0..num_cores)
                .map(|_| MlcPrefetcher::new(cfg.prefetcher))
                .collect(),
            HintArena::new(num_cores, hint_cap),
            cat,
            core_domain,
        )
    }

    /// Build stage: the run-level burst tracker and one per core, when
    /// the first workload's traffic is bursty (no trackers otherwise).
    fn build_burst_trackers(
        cfg: &SystemConfig,
        num_cores: usize,
    ) -> (Option<BurstTracker>, Vec<BurstTracker>) {
        let Some(TrafficPattern::Bursty(spec)) = cfg.workloads.first().map(|w| w.traffic) else {
            return (None, Vec::new());
        };
        let tracker = || BurstTracker::new(spec.period);
        (Some(tracker()), (0..num_cores).map(|_| tracker()).collect())
    }

    /// (Re)derives every core's CAT mask from the policy table and the
    /// allocator's current plan. Static domains pin their configured
    /// mask; auto domains get their exclusive slice (falling back to the
    /// shared pool when no slice fits); all remaining cores share the
    /// pool, which excludes every auto slice — that exclusion is what
    /// makes the slices exclusive. Without an auto allocator only static
    /// masks are applied and other cores keep the default core mask.
    fn apply_cat_masks(&mut self) {
        let ddio = self.hier.ddio_ways();
        self.cat_ddio = ddio;
        let plan = self
            .cat
            .as_ref()
            .map(|c| c.plan(self.hier.config().llc.ways, ddio));
        for core in 0..self.core_domain.len() {
            let mode = self.core_domain[core].map(|d| self.policy.caps(d).cat);
            let mask = match mode {
                Some(CatMode::Static(m)) => Some(m),
                Some(CatMode::Auto) => {
                    let d = self.core_domain[core].unwrap() as usize;
                    let p = plan.as_ref().expect("auto CAT domain without allocator");
                    Some(p.domain_mask[d].unwrap_or(p.shared))
                }
                Some(CatMode::Off) | None => plan.as_ref().map(|p| p.shared),
            };
            self.hier.set_cat_mask(CoreId::new(core as u16), mask);
        }
    }

    fn schedule_initial(&mut self) {
        for gi in 0..self.gens.len() {
            self.arm_next_arrival(gi);
        }
        if self.antagonist.is_some() {
            self.queue.schedule_at(SimTime::ZERO, Event::AntagonistNext);
        }
        self.queue.schedule_at(
            SimTime::ZERO + self.cfg.idio.control_interval,
            Event::ControlTick,
        );
        self.queue
            .schedule_at(SimTime::ZERO + self.cfg.sample_interval, Event::SampleTick);
    }

    fn arm_next_arrival(&mut self, gen: usize) {
        if let Some(arrival) = self.gens[gen].next() {
            self.pending_arrival[gen] = Some(arrival.packet);
            self.queue.schedule_at(arrival.at, Event::Arrival { gen });
        }
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(mut self) -> RunReport {
        let profile_wall = self.cfg.profile_events;
        while let Some((now, ev)) = self.queue.pop() {
            if now > self.hard_stop {
                break;
            }
            let ti = ev.type_index();
            self.ev_counts[ti] += 1;
            if self.tracer.enabled("event") {
                let pending = self.queue.len();
                self.tracer.record(now, "event", Event::NAMES[ti], || {
                    format!("pending={pending}")
                });
            }
            if profile_wall {
                let t0 = std::time::Instant::now();
                self.handle(now, ev);
                self.ev_wall[ti] += t0.elapsed();
            } else {
                self.handle(now, ev);
            }
        }
        self.into_report()
    }

    /// Read access to the hierarchy (tests and diagnostics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    // ----- event handlers ---------------------------------------------------

    /// Checked lookup of the NF state pinned to `core`, with the event being
    /// handled attached for diagnostics. Every NF-path handler goes through
    /// this (via [`Self::nf_state`]) instead of indexing `self.nf` directly,
    /// so a mis-wired configuration fails with an error naming the core and
    /// the event rather than a bare `Option::unwrap` panic.
    fn try_nf_state(
        &mut self,
        core: usize,
        event: &'static str,
    ) -> Result<&mut NfState, UnconfiguredNfCore> {
        self.nf
            .get_mut(core)
            .and_then(Option::as_mut)
            .ok_or(UnconfiguredNfCore { core, event })
    }

    /// Infallible form of [`Self::try_nf_state`] for the event handlers,
    /// which have no error channel to the engine loop.
    ///
    /// # Panics
    ///
    /// Panics with the [`UnconfiguredNfCore`] diagnostic if `core` has no NF.
    #[track_caller]
    fn nf_state(&mut self, core: usize, event: &'static str) -> &mut NfState {
        match self.try_nf_state(core, event) {
            Ok(st) => st,
            Err(e) => panic!("{e}"),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival { gen } => self.on_arrival(now, gen),
            Event::DmaPacket(b) => self.on_dma_packet(b),
            Event::DescWriteback { queue, slot } => self.on_desc_writeback(now, queue, slot),
            Event::PrefetchIssue { core } => self.on_prefetch_issue(now, core),
            Event::CoreWake { core } => self.on_core_wake(now, core),
            Event::TxComplete {
                queue,
                buf,
                lines,
                arrival,
                flow,
            } => self.on_tx_complete(now, queue, buf, lines, arrival, flow),
            Event::AntagonistNext => self.on_antagonist(now),
            Event::ControlTick => self.on_control_tick(now),
            Event::SampleTick => self.on_sample_tick(now),
        }
    }

    fn on_arrival(&mut self, now: SimTime, gen: usize) {
        let packet = self.pending_arrival[gen]
            .take()
            .expect("arrival event without pending packet");
        // Resolve the packet's *home* queue (where its flow's NF runs)
        // before the NIC steers it; comparing against the steered queue
        // is what detects flow-director mis-steers.
        let home = self
            .fd
            .as_ref()
            .and_then(|fd| fd.tenants.get(gen)?.as_ref()?.home_of(&packet.flow));
        if let Some(dma) = self.nic.rx_packet(now, packet) {
            if let (Some(home), Some(fd)) = (home, self.fd.as_mut()) {
                let m = &mut fd.mix[home.index()];
                match dma.steer {
                    SteeringSource::PerfectMatch => m[0] += 1,
                    SteeringSource::FilterTable => m[1] += 1,
                    SteeringSource::FilterTableCollision => m[2] += 1,
                    SteeringSource::Rss => m[3] += 1,
                }
                if dma.queue != home {
                    // Mis-steer: the packet's lines land in (and its NF
                    // work charges) the wrong core's caches.
                    m[4] += 1;
                    if self.tracer.enabled("fd") {
                        let (src, got) = (dma.steer, dma.queue);
                        self.tracer.record(now, "fd", "mis_steer", move || {
                            format!("home=q{} got=q{} via={src:?}", home.index(), got.index())
                        });
                    }
                }
            }
            self.pool_touched(now, dma.queue);
            let core = dma.dest_core.index();
            let seq = {
                let st = self.nf_state(core, "Arrival");
                st.rx_seq += 1;
                st.rx_seq
            };
            let buf_line = dma.slot.buf.line();
            // One batched event for the whole payload instead of one
            // event per cache line; the handler applies the lines at
            // their original per-line timestamps.
            let batch_seq = self.queue.next_seq();
            self.queue.schedule_at(
                dma.payload.first,
                Event::DmaPacket(DmaBatch {
                    buf_line,
                    meta: dma.head_meta,
                    arrival: now,
                    seq,
                    first: dma.payload.first,
                    gap: dma.payload.gap,
                    lines: dma.payload.lines,
                    next: 0,
                    batch_seq,
                    domain: dma.policy_domain,
                }),
            );
            self.queue.schedule_at(
                dma.descriptor.done(),
                Event::DescWriteback {
                    queue: dma.queue,
                    slot: dma.slot.slot,
                },
            );
        }
        self.arm_next_arrival(gen);
    }

    /// Resolved policy capabilities of `queue` (one table index).
    #[inline]
    fn queue_caps(&self, queue: QueueId) -> PolicyCaps {
        self.policy.caps(self.policy.queue_domain(queue.index()))
    }

    fn charge_dram(&mut self, now: SimTime, fx: MemEffects) {
        for _ in 0..fx.dram_writes {
            self.dram.request(now, DramOp::Write);
        }
        for _ in 0..fx.dram_reads {
            self.dram.request(now, DramOp::Read);
        }
    }

    /// Applies a [`DmaBatch`] from line `b.next` onward, each line at its
    /// own timestamp; if an interleaved event sorts before line `i`'s
    /// order key `(at_i, batch_seq)`, the rest is parked behind it via
    /// [`EventQueue::schedule_resume`](idio_engine::queue::EventQueue::schedule_resume).
    fn on_dma_packet(&mut self, mut b: DmaBatch) {
        let mut applied: u64 = 0;
        for i in b.next..b.lines {
            let at = b.first + b.gap * u64::from(i);
            if let Some(key) = self.queue.peek_key() {
                if key < (at, b.batch_seq) {
                    b.next = i;
                    self.queue
                        .schedule_resume(at, b.batch_seq, Event::DmaPacket(b));
                    break;
                }
            }
            let meta = if i == 0 {
                b.meta
            } else {
                TlpMeta {
                    is_header: false,
                    is_burst: false,
                    ..b.meta
                }
            };
            self.apply_dma_line(
                at,
                b.buf_line.offset(u64::from(i)),
                meta,
                b.arrival,
                b.seq,
                b.domain,
            );
            applied += 1;
        }
        // run() already counted this pop once; count the extra lines so
        // `engine.events.dma_line` still equals the number of DMA lines.
        self.ev_counts[1] += applied.saturating_sub(1);
    }

    /// The per-line DMA logic: burst accounting, steering, cache-hierarchy
    /// write and DRAM charge, all at the line's own arrival time `now`.
    fn apply_dma_line(
        &mut self,
        now: SimTime,
        line: LineAddr,
        meta: TlpMeta,
        arrival: SimTime,
        seq: u64,
        domain: u16,
    ) {
        if let Some(b) = &mut self.bursts {
            b.record_dma(arrival, now);
        }
        if !self.core_bursts.is_empty() {
            self.core_bursts[meta.dest_core.index()].record_dma(arrival, now);
        }
        // A burst flag can flip the destination core's FSM inside steer();
        // observe the before/after status only when someone is watching.
        let fsm_before = if self.tracer.enabled("fsm") {
            Some(self.ctrl.status(meta.dest_core))
        } else {
            None
        };
        let placement = self.ctrl.steer(self.policy.caps(domain), meta);
        if let Some(before) = fsm_before {
            let after = self.ctrl.status(meta.dest_core);
            if after != before {
                self.tracer.record(now, "fsm", "transition", move || {
                    format!("core={} {before:?}->{after:?} cause=burst", meta.dest_core)
                });
            }
        }
        if self.tracer.enabled("steer") {
            self.tracer.record(now, "steer", "placement", move || {
                format!(
                    "line={line} core={} class={:?} hdr={} burst={} p={placement:?}",
                    meta.dest_core, meta.app_class, meta.is_header, meta.is_burst
                )
            });
        }
        let dest = meta.dest_core.index();
        match placement {
            Placement::Llc => {
                self.steer[dest][0] += 1;
                let w = self.hier.pcie_write(line, DmaPlacement::Llc);
                self.charge_dram(now, w.effects);
            }
            Placement::Dram => {
                self.steer[dest][2] += 1;
                let w = self.hier.pcie_write(line, DmaPlacement::Dram);
                self.charge_dram(now, w.effects);
            }
            Placement::Mlc(core) => {
                self.steer[dest][1] += 1;
                let w = self.hier.pcie_write(line, DmaPlacement::Llc);
                self.charge_dram(now, w.effects);
                let ci = core.index();
                self.hier_prefetch_hint(now, ci, line, seq);
            }
        }
    }

    fn hier_prefetch_hint(&mut self, now: SimTime, core: usize, line: LineAddr, seq: u64) {
        if let PrefetchPacing::CpuPaced { window_packets } = self.cfg.prefetcher.pacing {
            if let Some(st) = self.nf[core].as_ref() {
                if seq > st.done_seq + u64::from(window_packets) {
                    // Too far ahead of the CPU pointer: park the hint; it
                    // is released as packets complete (Sec. VII future
                    // work — nothing is dropped, the MLC is not flooded).
                    self.hints.park(core, seq, line);
                    return;
                }
            }
        }
        self.push_hint(now, core, line);
    }

    fn push_hint(&mut self, now: SimTime, core: usize, line: LineAddr) {
        if !self.prefetchers[core].push(line) {
            self.tracer.record(now, "prefetch", "drop", move || {
                format!("core=core{core} line={line}")
            });
            return;
        }
        let pf = &mut self.prefetchers[core];
        if !pf.issue_pending {
            pf.issue_pending = true;
            let gap = pf.config().issue_gap;
            self.queue
                .schedule_at(now + gap, Event::PrefetchIssue { core });
        }
    }

    /// Advances the CPU pointer for `core` and releases parked hints that
    /// fell inside the pacing window.
    ///
    /// Hints drain straight from the arena ring into the prefetcher — no
    /// per-advance `release` buffer, no pop-after-peek `expect`: the ring
    /// hands back one ready hint at a time, and an impossible state (a
    /// parked hint that cannot exist) is diagnosed inside
    /// [`HintArena::park`] with the core and sequence number.
    fn advance_cpu_pointer(&mut self, now: SimTime, core: usize) {
        let window = match self.cfg.prefetcher.pacing {
            PrefetchPacing::CpuPaced { window_packets } => u64::from(window_packets),
            PrefetchPacing::Queued => {
                if let Some(st) = self.nf[core].as_mut() {
                    st.done_seq += 1;
                }
                return;
            }
        };
        let Some(st) = self.nf[core].as_mut() else {
            return;
        };
        st.done_seq += 1;
        let limit = st.done_seq + window;
        while let Some(line) = self.hints.pop_ready(core, limit) {
            self.push_hint(now, core, line);
        }
    }

    fn on_prefetch_issue(&mut self, now: SimTime, core: usize) {
        if let Some(line) = self.prefetchers[core].pop() {
            use idio_cache::hierarchy::PrefetchOutcome;
            // The CPU-paced prefetcher walks the ring just ahead of the
            // consumption pointer, so it may recover lines from DRAM; the
            // paper's queued prefetcher only pulls from the LLC.
            let out = match self.cfg.prefetcher.pacing {
                PrefetchPacing::Queued => self.hier.prefetch_fill(CoreId::new(core as u16), line),
                PrefetchPacing::CpuPaced { .. } => {
                    self.hier.prefetch_fill_deep(CoreId::new(core as u16), line)
                }
            };
            if let PrefetchOutcome::Filled(fx) = out {
                self.charge_dram(now, fx);
            }
        }
        if self.prefetchers[core].is_empty() {
            self.prefetchers[core].issue_pending = false;
        } else {
            let gap = self.prefetchers[core].config().issue_gap;
            self.queue
                .schedule_at(now + gap, Event::PrefetchIssue { core });
        }
    }

    fn on_desc_writeback(&mut self, now: SimTime, queue: QueueId, slot: u32) {
        // The descriptor record (2 lines) is written back over PCIe —
        // placed like any DDIO write (descriptors are not packet data and
        // are not steered).
        let desc = self.nic.ring(queue).desc_addr(slot);
        for l in 0..(idio_nic::ring::DESC_BYTES / LINE_SIZE) {
            let w = self
                .hier
                .pcie_write(desc.line().offset(l), DmaPlacement::Llc);
            self.charge_dram(now, w.effects);
        }
        self.nic.ring_mut(queue).complete(slot);

        // Wake the pinned core if it is idle.
        let core = self.cfg.workloads[queue.index()].core.index();
        let st = self.nf_state(core, "DescWriteback");
        if !st.busy {
            st.busy = true;
            let poll = self.timing.poll();
            self.queue.schedule_at(now + poll, Event::CoreWake { core });
        }
    }

    fn on_core_wake(&mut self, now: SimTime, core: usize) {
        // Finish the packet whose service time just elapsed.
        if let Some((slot, action)) = self.nf_state(core, "CoreWake").current.take() {
            self.finish_packet(now, core, slot, action);
        }

        // Refill the batch if needed.
        let queue = self.nf_state(core, "CoreWake").queue;
        let batch_size = self.cfg.pmd.batch_size;
        let mut extra = Duration::ZERO;
        if self.nf_state(core, "CoreWake").batch.is_empty() {
            let got = self.nic.ring_mut(queue).pop_completed(batch_size);
            if got.is_empty() {
                self.nf_state(core, "CoreWake").busy = false;
                return;
            }
            extra = self.timing.batch();
            self.nf_state(core, "CoreWake").batch.extend(got);
        }

        // Start the next packet.
        let slot = self
            .nf_state(core, "CoreWake")
            .batch
            .pop_front()
            .expect("batch refilled above");
        let (service, action) = self.execute_packet(now, core, &slot);
        self.nf_state(core, "CoreWake").current = Some((slot, action));
        self.queue
            .schedule_at(now + extra + service, Event::CoreWake { core });
    }

    /// Runs the NF's memory program for one packet, returning the service
    /// time and post-action.
    fn execute_packet(
        &mut self,
        now: SimTime,
        core: usize,
        slot: &RxSlot,
    ) -> (Duration, PacketAction) {
        let st = self.nf_state(core, "CoreWake");
        let kind = st.kind;
        let queue = st.queue;
        let ctx = PacketCtx {
            buf: slot.buf,
            desc: slot.desc,
            meta: st.regions.meta_addr(slot.slot),
            app: st.regions.app_addr(slot.slot),
            len: slot.packet.len,
        };
        // Build the program into the core's scratch buffer (taken out of
        // the state to release the borrow, put back below): no per-packet
        // allocation.
        let mut work = std::mem::take(&mut st.scratch);
        kind.packet_work_into(&ctx, &mut work);
        let core_id = CoreId::new(core as u16);
        let mut service = self.timing.per_packet();
        // Chain-stage attribution: each mark closes the segment of ops
        // since the previous mark; segment service lands in that stage's
        // histogram (empty for single NFs — `marks` is empty).
        let mut seg = Duration::ZERO;
        let mut segs = [(0usize, 0u64); idio_stack::MAX_CHAIN_STAGES];
        let mut n_segs = 0usize;
        let mut next_mark = 0usize;
        for (oi, op) in work.ops.iter().enumerate() {
            let (addr, lines, is_write) = match *op {
                MemOp::Read { addr, lines } => (addr, lines, false),
                MemOp::Write { addr, lines } => (addr, lines, true),
            };
            for l in 0..u64::from(lines) {
                let line = addr.line().offset(l);
                let acc = if is_write {
                    self.hier.cpu_write(core_id, line)
                } else {
                    self.hier.cpu_read(core_id, line)
                };
                // Victim writebacks consume DRAM bandwidth but do not
                // stall the core.
                let mut fx = acc.effects;
                let cost = if acc.level == HitLevel::Dram {
                    debug_assert!(fx.dram_reads >= 1);
                    fx.dram_reads -= 1;
                    let done = self.dram.request(now, DramOp::Read);
                    self.timing
                        .access_cost(HitLevel::Dram, Some(done.saturating_since(now)))
                } else {
                    self.timing.access_cost(acc.level, None)
                };
                self.charge_dram(now, fx);
                service += cost;
                seg += cost;
            }
            while next_mark < work.marks.len() && work.marks[next_mark].op_end as usize == oi + 1 {
                segs[n_segs] = (work.marks[next_mark].stage.index(), seg.as_ns());
                n_segs += 1;
                seg = Duration::ZERO;
                next_mark += 1;
            }
        }
        // The self-invalidate instructions run as part of the packet's
        // service when the buffer is freed inline (drop path).
        if work.action == PacketAction::Drop && self.invalidates_on_free(queue) {
            service += self.timing.invalidate(ctx.frame_lines());
        }
        let action = work.action;
        let st = self.nf_state(core, "CoreWake");
        for &(si, ns) in &segs[..n_segs] {
            st.stage_hist[si].record(ns);
        }
        st.scratch = work;
        (service, action)
    }

    fn invalidate_buffer(&mut self, now: SimTime, core: usize, buf: Addr, lines: u32) {
        self.tracer.record(now, "maint", "invalidate", move || {
            format!("core=core{core} buf={buf} lines={lines}")
        });
        let scope = self.cfg.invalidate_scope;
        if let Err(e) = invalidate_range(
            &mut self.hier,
            &self.page_table,
            CoreId::new(core as u16),
            buf,
            u64::from(lines) * LINE_SIZE,
            scope,
        ) {
            panic!(
                "invalidate on core{core} rejected for buffer {buf} \
                 ({lines} lines): {e:?} — DMA buffers must be allocated \
                 Invalidatable (check the queue's buffer layout)"
            );
        }
    }

    fn finish_packet(&mut self, now: SimTime, core: usize, slot: RxSlot, action: PacketAction) {
        let queue = self.nf_state(core, "CoreWake").queue;
        match action {
            PacketAction::Drop => {
                self.free_buffer(now, core, queue, slot.buf, slot.packet.lines());
                self.complete_packet(now, core, slot.arrived_at, &slot.packet.flow);
            }
            PacketAction::Tx { lines } => {
                // Post a TX descriptor; the NIC reads the descriptor, then
                // the packet data, then writes the completion back.
                let st = self.nf_state(core, "CoreWake");
                st.tx_ring
                    .post(slot.buf, lines, now)
                    .expect("tx ring sized to the rx ring cannot overflow");
                let sched = self.nic.tx_packet(now, lines);
                self.queue.schedule_at(
                    sched.done(),
                    Event::TxComplete {
                        queue,
                        buf: slot.buf,
                        lines,
                        arrival: slot.arrived_at,
                        flow: slot.packet.flow,
                    },
                );
            }
        }
    }

    fn on_tx_complete(
        &mut self,
        now: SimTime,
        queue: QueueId,
        buf: Addr,
        lines: u32,
        arrival: SimTime,
        flow: idio_net::packet::FiveTuple,
    ) {
        // ATR: the NIC observes the TX and learns which queue (and
        // therefore core) serves this flow — unless the flow has a home
        // queue under flow-director pressure, which completion learns.
        if self.cfg.steering == FlowSteering::Atr
            && self.fd.as_ref().and_then(|fd| fd.home_of(&flow)).is_none()
        {
            self.nic.flow_director_mut().learn(now, &flow, queue);
        }
        for l in 0..u64::from(lines) {
            let r = self.hier.pcie_read(buf.line().offset(l));
            self.charge_dram(now, r.effects);
        }
        let core = self.cfg.workloads[queue.index()].core.index();
        // Completion descriptor writeback: an inbound PCIe write that
        // lands in the DDIO ways like any other device write.
        let done = self.nf_state(core, "TxComplete").tx_ring.complete();
        for l in 0..(idio_nic::tx::TX_DESC_BYTES / LINE_SIZE) {
            let w = self
                .hier
                .pcie_write(done.desc.line().offset(l), DmaPlacement::Llc);
            self.charge_dram(now, w.effects);
        }
        self.free_buffer(now, core, queue, buf, lines);
        self.complete_packet(now, core, arrival, &flow);
    }

    /// Whether freeing a buffer of `queue` self-invalidates it: the
    /// queue's policy caps ask for it, or its recycle pool does on every
    /// free regardless of caps.
    fn invalidates_on_free(&self, queue: QueueId) -> bool {
        self.queue_caps(queue).invalidate || self.nic.ring(queue).pool().invalidate_on_free()
    }

    /// Frees a consumed packet buffer: self-invalidates it if the queue
    /// asks for that, then returns it to the queue's pool. The free
    /// happens at completion (drop, or TX read-out), never at steer or
    /// post time, so a recycle pool's LIFO list sees the true release
    /// order.
    fn free_buffer(&mut self, now: SimTime, core: usize, queue: QueueId, buf: Addr, lines: u32) {
        if self.invalidates_on_free(queue) {
            self.invalidate_buffer(now, core, buf, lines);
        }
        self.nic.ring_mut(queue).release(buf);
        self.pool_touched(now, queue);
    }

    /// Restarts `queue`'s pool idle-flush window (RX or buffer release).
    fn pool_touched(&mut self, now: SimTime, queue: QueueId) {
        self.pool_last_active[queue.index()] = now;
        self.pool_flushed[queue.index()] = false;
    }

    /// Completion bookkeeping of one packet that arrived at `arrival`,
    /// shared by the drop and TX paths.
    fn complete_packet(
        &mut self,
        now: SimTime,
        core: usize,
        arrival: SimTime,
        flow: &idio_net::packet::FiveTuple,
    ) {
        // aRFS-style learning: when flow-director pressure is being
        // modelled, completing a packet lets the driver program the NIC's
        // filter table with the flow's *home* queue (where its consumer
        // actually runs — not where this packet happened to land), so
        // unpinned flows converge onto ATR steering after their first
        // completion. Drop-type NFs never transmit, so the hook lives at
        // completion rather than TX.
        if let Some(home) = self.fd.as_ref().and_then(|fd| fd.home_of(flow)) {
            self.nic.flow_director_mut().learn(now, flow, home);
        }
        let st = self.nf_state(core, "completion");
        let lat = now.saturating_since(arrival);
        st.latency.record(lat);
        st.lat_hist.record(lat.as_ns());
        st.completed += 1;
        if let Some(b) = &mut self.bursts {
            b.record_completion(arrival, now);
        }
        if !self.core_bursts.is_empty() {
            self.core_bursts[core].record_completion(arrival, now);
        }
        self.advance_cpu_pointer(now, core);
    }

    fn on_antagonist(&mut self, now: SimTime) {
        let (core, line, think) = {
            let (core, ant) = self.antagonist.as_mut().expect("antagonist event");
            (*core, ant.next_line(), ant.config().think_cycles)
        };
        let acc = self.hier.cpu_read(core, line);
        let mut fx = acc.effects;
        // Dependent random loads: DRAM latency is fully exposed (no MLP).
        let cost = if acc.level == HitLevel::Dram {
            fx.dram_reads = fx.dram_reads.saturating_sub(1);
            let done = self.dram.request(now, DramOp::Read);
            self.timing
                .access_cost_dependent(HitLevel::Dram, Some(done.saturating_since(now)))
        } else {
            self.timing.access_cost_dependent(acc.level, None)
        };
        self.charge_dram(now, fx);
        let think = self.timing.config().freq.cycles_to_duration(think);
        let elapsed = cost + think;
        self.antagonist.as_mut().unwrap().1.record(elapsed);
        if now + elapsed <= self.hard_stop {
            self.queue.schedule_at(now + elapsed, Event::AntagonistNext);
        }
    }

    /// Control-tick driver refresh: for churning tenants, re-install the
    /// perfect filter of any pinned slot whose flow turned over since the
    /// filter was programmed (evicting the oldest co-resident entry when
    /// its filter set is full, exactly as a real driver's install would).
    /// The stale filter for the retired flow is left behind to age out or
    /// be evicted — matching drivers that do not garbage-collect rules.
    fn fd_refresh(&mut self, now: SimTime) {
        let Some(fd) = self.fd.as_mut() else { return };
        for t in fd.tenants.iter_mut().flatten() {
            if t.set.churn().is_none() || t.pinned.is_empty() {
                continue;
            }
            for i in 0..t.pinned.len() {
                let (slot, last) = t.pinned[i];
                let idx = t.set.index_at(slot, now);
                if idx != last {
                    self.nic
                        .flow_director_mut()
                        .install_perfect_evicting(t.set.tuple_of(idx), t.home(slot));
                    t.pinned[i].1 = idx;
                }
            }
        }
    }

    /// Latency-aware recycler flush: a queue whose pool saw no RX or
    /// buffer-release activity for the configured idle window
    /// self-invalidates its DMA buffers, releasing the pool's LLC
    /// footprint to other tenants until traffic resumes.
    fn pool_idle_flush_tick(&mut self, now: SimTime) {
        let Some(window) = self.cfg.pool_idle_flush else {
            return;
        };
        for q in 0..self.cfg.workloads.len() {
            if self.pool_flushed[q] {
                continue;
            }
            let queue = QueueId(q as u16);
            if !matches!(self.nic.ring(queue).pool().mode(), PoolMode::Recycle { .. }) {
                continue;
            }
            if now.saturating_since(self.pool_last_active[q]) <= window {
                continue;
            }
            let core = self.cfg.workloads[q].core.index();
            let buf_base = self.nf[core]
                .as_ref()
                .expect("pooled queue without an NF")
                .regions
                .buf_base;
            self.invalidate_buffer(now, core, buf_base, self.cfg.ring_size * BUF_LINES);
            self.pool_flushed[q] = true;
            self.pool_idle_flushed[q] += 1;
        }
    }

    fn on_control_tick(&mut self, now: SimTime) {
        // One pass over the per-core stats fills every control input at
        // once: the controller's MLC-WB snapshot and (when the CAT loop
        // runs) the per-domain pressure. Each per-core struct is touched
        // once per tick, and all scratch buffers are reused across ticks
        // so the 1 µs control loop never allocates.
        let any_cat = self.cat.is_some();
        self.ctrl_wbs.clear();
        if any_cat {
            self.ctrl_domain_wb.clear();
            self.ctrl_domain_wb.resize(self.policy.num_domains(), 0);
        }
        for (core, c) in self.hier.stats().core.iter().enumerate() {
            let wb = c.mlc_wb.get();
            self.ctrl_wbs.push(wb);
            if any_cat {
                if let Some(d) = self.core_domain[core] {
                    self.ctrl_domain_wb[d as usize] += wb;
                }
            }
        }
        let fsm_watch = self.tracer.enabled("fsm");
        if fsm_watch {
            self.ctrl_fsm_before.clear();
            for i in 0..self.ctrl_wbs.len() {
                self.ctrl_fsm_before
                    .push(self.ctrl.status(CoreId::new(i as u16)));
            }
        }
        self.ctrl.control_tick(&self.ctrl_wbs);
        if fsm_watch {
            for i in 0..self.ctrl_fsm_before.len() {
                let prev = self.ctrl_fsm_before[i];
                let cur = self.ctrl.status(CoreId::new(i as u16));
                if cur != prev {
                    let wb = self.ctrl_wbs[i];
                    self.tracer.record(now, "fsm", "transition", move || {
                        format!("core=core{i} {prev:?}->{cur:?} wb={wb} cause=tick")
                    });
                }
            }
        }
        if self.policy.any_tunes_ddio_ways() {
            // IAT-style tuner: every 25 control intervals (25 us), grow
            // the DDIO partition while inbound data is leaking to DRAM;
            // shrink it back one way at a time only after a sustained
            // quiet period (hysteresis, as IAT's monitoring loop does).
            // One tuner state per policy domain whose caps ask for it, so
            // an IAT tenant's hysteresis is not perturbed by domains that
            // never tune.
            for d in 0..self.iat.len() {
                if !self.policy.caps(d as u16).tune_ddio_ways {
                    continue;
                }
                let iat = &mut self.iat[d];
                iat.0 += 1;
                if iat.0.is_multiple_of(25) {
                    let wb = self.hier.stats().shared.llc_wb.get();
                    let delta = wb - iat.1;
                    iat.1 = wb;
                    let ways = self.hier.ddio_ways();
                    // Dynamic DDIO policies re-allocate a bounded slice of the
                    // LLC to I/O (growing further only squeezes the ways the
                    // consumed data bloats into).
                    let max_ways = 4.min(self.hier.config().llc.ways - 2);
                    if delta > 25 {
                        iat.2 = 0;
                        if ways < max_ways {
                            self.hier.set_ddio_ways(ways + 1);
                        }
                    } else if delta == 0 {
                        iat.2 += 1;
                        // ~1 ms of silence before giving a way back.
                        if iat.2 >= 40 && ways > 2 {
                            self.hier.set_ddio_ways(ways - 1);
                            iat.2 = 0;
                        }
                    } else {
                        iat.2 = 0;
                    }
                }
            }
        }
        // Closed-loop CAT: fold the per-core MLC-WB counters into
        // per-domain pressure and let the allocator adjust the slices.
        // Runs after the IAT tuner so a freshly widened DDIO partition is
        // reflected in this tick's plan, not the next one's.
        let llc_ways = self.hier.config().llc.ways;
        let ddio = self.hier.ddio_ways();
        let cat_ddio = self.cat_ddio;
        let mut replan = false;
        if let Some(cat) = self.cat.as_mut() {
            // Domain pressure was folded in the stats pass above.
            let budget = llc_ways.saturating_sub(ddio + cat.config().min_shared);
            let changed = cat.tick(&self.ctrl_domain_wb, budget);
            if changed || ddio != cat_ddio {
                let widths: Vec<String> = (0..self.ctrl_domain_wb.len())
                    .filter_map(|d| cat.ways(d).map(|w| format!("d{d}={w}")))
                    .collect();
                let reallocs = cat.reallocations();
                self.tracer.record(now, "cat", "realloc", move || {
                    format!("ddio={ddio} {} reallocs={reallocs}", widths.join(" "))
                });
                replan = true;
            }
        }
        if replan {
            self.apply_cat_masks();
        }
        self.fd_refresh(now);
        self.pool_idle_flush_tick(now);
        if self.cfg.tick_metrics {
            self.record_tick_metrics(now);
        }
        let next = now + self.cfg.idio.control_interval;
        if next <= self.hard_stop {
            self.queue.schedule_at(next, Event::ControlTick);
        }
    }

    /// Appends one NDJSON line describing this control tick to the
    /// tick-metrics timeline ([`SystemConfig::tick_metrics`]): the steering
    /// mix since the previous tick (delta line counts, not cumulative), the
    /// per-core prefetch-FSM states as a compact `M`/`L` string, and — when
    /// the closed-loop CAT allocator is running — its reallocation count
    /// and per-domain way widths. The `cat` section follows the same
    /// discipline as the `cat.*` metrics: present only when an allocator is
    /// configured.
    fn record_tick_metrics(&mut self, now: SimTime) {
        use std::fmt::Write as _;
        let total = self.steer_total();
        let delta = [
            total[0] - self.tick_last_steer[0],
            total[1] - self.tick_last_steer[1],
            total[2] - self.tick_last_steer[2],
        ];
        self.tick_last_steer = total;
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"t_us\":{:.3},\"steer\":{{\"llc\":{},\"mlc\":{},\"dram\":{}}},\"fsm\":\"",
            now.as_us_f64(),
            delta[0],
            delta[1],
            delta[2],
        );
        for i in 0..self.steer.len() {
            line.push(match self.ctrl.status(CoreId::new(i as u16)) {
                MlcStatus::Mlc => 'M',
                MlcStatus::Llc => 'L',
            });
        }
        line.push('"');
        if let Some(cat) = self.cat.as_ref() {
            let _ = write!(
                line,
                ",\"cat\":{{\"reallocs\":{},\"ways\":[",
                cat.reallocations()
            );
            for d in 0..self.policy.num_domains() {
                if d > 0 {
                    line.push(',');
                }
                match cat.ways(d) {
                    Some(w) => {
                        let _ = write!(line, "{w}");
                    }
                    None => line.push_str("null"),
                }
            }
            line.push_str("]}");
        }
        // Flow-director mix delta, present only under flow-director
        // pressure accounting so legacy tick logs stay byte-identical.
        if let Some(fd) = self.fd.as_ref() {
            let total = fd
                .mix
                .iter()
                .fold([0u64; 5], |acc, m| std::array::from_fn(|i| acc[i] + m[i]));
            let d: [u64; 5] = std::array::from_fn(|i| total[i] - self.tick_last_fd[i]);
            self.tick_last_fd = total;
            let _ = write!(
                line,
                ",\"fd\":{{\"perfect\":{},\"atr\":{},\"collision\":{},\"rss\":{},\"mis\":{}}}",
                d[0], d[1], d[2], d[3], d[4],
            );
        }
        // Pool occupancy follows the `cat` discipline: the section exists
        // only when some workload configured an explicit pool, so legacy
        // tick logs stay byte-identical.
        if self.cfg.workloads.iter().any(|w| w.pool.is_some()) {
            line.push_str(",\"pool\":{");
            let mut first = true;
            for (q, w) in self.cfg.workloads.iter().enumerate() {
                if w.pool.is_none() {
                    continue;
                }
                let p = self.nic.ring(QueueId(q as u16)).pool();
                let s = p.stats();
                if !first {
                    line.push(',');
                }
                first = false;
                let _ = write!(
                    line,
                    "\"q{q}\":{{\"live\":{},\"recycled\":{},\"starved\":{},\"spilled\":{}}}",
                    p.live_bufs(),
                    s.recycled,
                    s.starved,
                    s.spilled,
                );
            }
            line.push('}');
        }
        line.push('}');
        self.tick_log.push(line);
    }

    /// Steering decisions by placement summed over cores: `[LLC, MLC,
    /// DRAM]` line counts.
    fn steer_total(&self) -> [u64; 3] {
        self.steer.iter().fold([0; 3], |acc, s| {
            [acc[0] + s[0], acc[1] + s[1], acc[2] + s[2]]
        })
    }

    fn on_sample_tick(&mut self, now: SimTime) {
        const MTPS: f64 = 1e-6;
        let h = self.hier.stats();
        self.samplers
            .mlc_wb
            .sample_scaled(now, h.total_mlc_wb(), MTPS);
        self.samplers
            .llc_wb
            .sample_scaled(now, h.shared.llc_wb.get(), MTPS);
        self.samplers
            .dram_rd
            .sample_scaled(now, h.shared.dram_reads.get(), MTPS);
        self.samplers
            .dram_wr
            .sample_scaled(now, h.shared.dram_writes.get(), MTPS);
        self.samplers
            .dma_wr
            .sample_scaled(now, h.shared.pcie_writes.get(), MTPS);
        self.samplers
            .prefetch
            .sample_scaled(now, h.total_prefetch_fills(), MTPS);
        self.samplers.self_inval.sample_scaled(
            now,
            h.total_self_invalidations() + h.shared.llc_self_invalidations.get(),
            MTPS,
        );
        // The occupancy gauge used to scan the LLC, so it sampled at a
        // tenth of the counter-sampling rate; the array now maintains
        // the count incrementally, but the cadence is kept so the
        // sampled series stays identical.
        self.sample_ticks += 1;
        if self.sample_ticks.is_multiple_of(10) {
            let llc = self.hier.llc();
            let dma = llc.tracked_resident();
            self.samplers
                .dma_llc_share
                .push(now, dma as f64 / llc.capacity_lines() as f64);
        }
        let next = now + self.cfg.sample_interval;
        if next <= self.hard_stop {
            self.queue.schedule_at(next, Event::SampleTick);
        }
    }

    // ----- report -------------------------------------------------------------

    fn into_report(mut self) -> RunReport {
        let h = self.hier.stats();
        let totals = RunTotals {
            mlc_wb: h.total_mlc_wb(),
            mlc_inval_by_dma: h.total_mlc_inval_by_dma(),
            llc_wb: h.shared.llc_wb.get(),
            dram_rd: h.shared.dram_reads.get(),
            dram_wr: h.shared.dram_writes.get(),
            pcie_wr: h.shared.pcie_writes.get(),
            prefetch_fills: h.total_prefetch_fills(),
            // Private-cache and LLC copies are mutually exclusive in the
            // non-inclusive hierarchy, so the sum counts each dropped line
            // exactly once.
            self_inval: h.total_self_invalidations() + h.shared.llc_self_invalidations.get(),
            rx_packets: self.nic.stats().rx_packets.get(),
            rx_drops: self.nic.stats().rx_drops.get(),
            completed_packets: self.nf.iter().flatten().map(|st| st.completed).sum(),
        };
        let mut latency = Vec::new();
        for (ci, st) in self.nf.iter_mut().enumerate() {
            if let Some(st) = st {
                if let Some(s) = LatencySummary::from_recorder(&mut st.latency) {
                    latency.push((CoreId::new(ci as u16), s));
                }
            }
        }
        let ps_per_cycle = self.timing.config().freq.ps_per_cycle();
        let antagonist_cpa = self
            .antagonist
            .as_ref()
            .map(|(_, a)| a.stats().cycles_per_access(ps_per_cycle));

        // ---- fold final counters into the metrics registry -----------------
        // Engine-level anomaly counters (were debug_assert!s; now always-on
        // diagnostics identical across build profiles).
        self.metrics.counter_set(
            "engine.schedule_past_clamped",
            self.queue.schedule_past_clamped(),
        );
        let backwards = [
            &self.samplers.mlc_wb,
            &self.samplers.llc_wb,
            &self.samplers.dram_rd,
            &self.samplers.dram_wr,
            &self.samplers.dma_wr,
            &self.samplers.prefetch,
            &self.samplers.self_inval,
        ]
        .iter()
        .map(|s| s.backwards_samples())
        .sum();
        self.metrics
            .counter_set("stats.counter_backwards", backwards);
        for (ti, name) in Event::NAMES.iter().enumerate() {
            self.metrics
                .counter_set(&format!("engine.events.{name}"), self.ev_counts[ti]);
        }
        // Component counters under stable dotted names.
        self.metrics
            .counter_set("nic.rx.packets", totals.rx_packets);
        self.metrics.counter_set("nic.rx.drops", totals.rx_drops);
        self.metrics.counter_set("nic.dma.lines", totals.pcie_wr);
        self.metrics.counter_set("llc.wb", totals.llc_wb);
        self.metrics.counter_set("dram.rd", totals.dram_rd);
        self.metrics.counter_set("dram.wr", totals.dram_wr);
        let steer_total = self.steer_total();
        self.metrics.counter_set("steer.llc", steer_total[0]);
        self.metrics.counter_set("steer.mlc", steer_total[1]);
        self.metrics.counter_set("steer.dram", steer_total[2]);
        // CAT partition outcome. Exported only when some domain uses CAT
        // at all, so non-CAT runs keep a byte-identical metric set.
        if self.policy.any_cat() {
            self.metrics.counter_set(
                "cat.reallocations",
                self.cat.as_ref().map_or(0, |c| c.reallocations()),
            );
            for d in 0..self.policy.num_domains() {
                let ways = match self.policy.caps(d as u16).cat {
                    CatMode::Off => continue,
                    CatMode::Static(m) => m.count(),
                    CatMode::Auto => self
                        .cat
                        .as_ref()
                        .and_then(|c| c.ways(d))
                        .expect("auto CAT domain without allocator"),
                };
                self.metrics
                    .counter_set(&format!("cat.domain{d}.ways"), ways as u64);
            }
        }
        // Flow-director pressure outcome. Exported only when the bounded
        // steering state is actually under pressure (some tenant's flows
        // exceed its filter budget, or churn/wide sets are in play), so
        // fully-pinned runs keep a byte-identical metric set.
        if let Some(fd) = self.fd.as_ref() {
            let s = self.nic.flow_director().stats();
            self.metrics.counter_set("fd.perfect_hits", s.perfect_hits);
            self.metrics.counter_set("fd.atr_hits", s.atr_hits);
            self.metrics
                .counter_set("fd.atr_collisions", s.atr_collisions);
            self.metrics
                .counter_set("fd.rss_fallbacks", s.rss_fallbacks);
            self.metrics
                .counter_set("fd.perfect_installed", s.perfect_installed);
            self.metrics
                .counter_set("fd.perfect_updated", s.perfect_updated);
            self.metrics
                .counter_set("fd.perfect_evicted", s.perfect_evicted);
            self.metrics
                .counter_set("fd.perfect_rejected", s.perfect_rejected);
            self.metrics.counter_set("fd.atr_learned", s.atr_learned);
            self.metrics.counter_set("fd.atr_aged", s.atr_aged);
            let mut mis = 0;
            for (q, m) in fd.mix.iter().enumerate() {
                self.metrics.counter_set(&format!("fd.q{q}.perfect"), m[0]);
                self.metrics.counter_set(&format!("fd.q{q}.atr"), m[1]);
                self.metrics
                    .counter_set(&format!("fd.q{q}.collision"), m[2]);
                self.metrics.counter_set(&format!("fd.q{q}.rss"), m[3]);
                self.metrics.counter_set(&format!("fd.q{q}.mis"), m[4]);
                mis += m[4];
            }
            self.metrics.counter_set("fd.mis_steered", mis);
        }
        self.metrics
            .counter_set("packets.completed", totals.completed_packets);
        self.metrics
            .counter_set("maint.self_inval", totals.self_inval);
        for (i, c) in h.core.iter().enumerate() {
            self.metrics
                .counter_set(&format!("core{i}.mlc.wb"), c.mlc_wb.get());
        }
        // Per-core attribution: steering mix by destination core, queue
        // RX load/loss, completions, and the packet-latency histograms —
        // everything a multi-tenant report needs to slice a mixed run by
        // the cores/queues each tenant owns.
        for (i, s) in self.steer.iter().enumerate() {
            self.metrics
                .counter_set(&format!("core{i}.steer.llc"), s[0]);
            self.metrics
                .counter_set(&format!("core{i}.steer.mlc"), s[1]);
            self.metrics
                .counter_set(&format!("core{i}.steer.dram"), s[2]);
        }
        for (q, qs) in self.nic.queue_stats().iter().enumerate() {
            self.metrics
                .counter_set(&format!("queue{q}.rx.packets"), qs.rx_packets.get());
            self.metrics
                .counter_set(&format!("queue{q}.rx.drops"), qs.rx_drops.get());
        }
        // Mbuf-pool outcome, exported only for queues that configured an
        // explicit pool — implicit status-quo rings add no metrics, so
        // pre-pool goldens stay byte-identical.
        for (q, w) in self.cfg.workloads.iter().enumerate() {
            if w.pool.is_none() {
                continue;
            }
            let p = self.nic.ring(QueueId(q as u16)).pool();
            let s = p.stats();
            if let PoolMode::Recycle { slots } = p.mode() {
                self.metrics
                    .counter_set(&format!("pool.q{q}.slots"), u64::from(slots));
            }
            self.metrics
                .counter_set(&format!("pool.q{q}.recycled"), s.recycled);
            self.metrics
                .counter_set(&format!("pool.q{q}.starved"), s.starved);
            self.metrics
                .counter_set(&format!("pool.q{q}.spilled"), s.spilled);
            // Idle-flush outcome, gated on the knob so pre-flush goldens
            // keep a byte-identical metric set.
            if self.cfg.pool_idle_flush.is_some() {
                self.metrics.counter_set(
                    &format!("pool.q{q}.idle_flushed"),
                    self.pool_idle_flushed[q],
                );
            }
        }
        for (i, st) in self.nf.iter().enumerate() {
            if let Some(st) = st {
                self.metrics
                    .counter_set(&format!("core{i}.packets.completed"), st.completed);
                if st.lat_hist.count() > 0 {
                    self.metrics
                        .histogram_merge(&format!("core{i}.pkt_latency_ns"), &st.lat_hist);
                }
                for (si, stage) in ChainStage::ALL.iter().enumerate() {
                    if st.stage_hist[si].count() > 0 {
                        self.metrics.histogram_merge(
                            &format!("core{i}.stage.{}_ns", stage.name()),
                            &st.stage_hist[si],
                        );
                    }
                }
            }
        }
        // Per-core burst execution times (bursty traffic only): the log2
        // distribution of per-window exe times, one histogram per core
        // that completed at least one burst.
        for (i, b) in self.core_bursts.iter().enumerate() {
            let mut hist = Histogram::new();
            for w in b.windows() {
                if w.packets > 0 {
                    hist.record(w.exe_time().as_ns());
                }
            }
            if hist.count() > 0 {
                self.metrics
                    .histogram_merge(&format!("core{i}.burst_exe_ns"), &hist);
            }
        }
        let (accepted, dropped, issued) = self.prefetchers.iter().fold((0, 0, 0), |acc, p| {
            let s = p.stats();
            (
                acc.0 + s.accepted.get(),
                acc.1 + s.dropped.get(),
                acc.2 + s.issued.get(),
            )
        });
        self.metrics.counter_set("prefetch.accepted", accepted);
        self.metrics.counter_set("prefetch.drops", dropped);
        self.metrics.counter_set("prefetch.issued", issued);
        self.metrics
            .counter_set("trace.records", self.tracer.total());
        self.metrics
            .counter_set("trace.evicted", self.tracer.evicted());
        if let Some(s) = self.samplers.dma_llc_share.samples().last() {
            self.metrics.gauge_set("llc.dma_share", s.value);
        }
        let metrics = self.metrics.snapshot();
        let trace = self.tracer.take_records();
        let profile = (0..Event::TYPES)
            .map(|ti| EventTypeProfile {
                name: Event::NAMES[ti],
                count: self.ev_counts[ti],
                wall: self.ev_wall[ti],
            })
            .collect();
        RunReport {
            policy: self.cfg.policy,
            finished_at: self.queue.now(),
            totals,
            hierarchy: self.hier.stats().clone(),
            dram: self.dram.stats().clone(),
            timelines: Timelines {
                mlc_wb: self.samplers.mlc_wb.into_series(),
                llc_wb: self.samplers.llc_wb.into_series(),
                dram_rd: self.samplers.dram_rd.into_series(),
                dram_wr: self.samplers.dram_wr.into_series(),
                dma_wr: self.samplers.dma_wr.into_series(),
                prefetch: self.samplers.prefetch.into_series(),
                self_inval: self.samplers.self_inval.into_series(),
                dma_llc_share: self.samplers.dma_llc_share,
            },
            latency,
            bursts: self.bursts.map(|b| b.windows()).unwrap_or_default(),
            antagonist_cpa,
            metrics,
            trace,
            profile,
            tick_metrics: self.tick_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SteeringPolicy;
    use idio_net::gen::BurstSpec;

    fn steady_cfg(rate_gbps: f64, policy: SteeringPolicy) -> SystemConfig {
        let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.policy = policy;
        cfg
    }

    /// `cfg` spelled as its single-flow tenants (one per queue, the same
    /// arrivals), with queue 0's tenant overriding the policy to `caps`.
    fn queue0_runs(mut cfg: SystemConfig, caps: PolicyCaps) -> SystemConfig {
        cfg.tenants = cfg.arrival_tenants().into_owned();
        cfg.tenants[0].policy = Some(crate::policy::PolicySpec::Custom(caps));
        cfg
    }

    #[test]
    fn steady_ddio_processes_packets() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Ddio)).run();
        assert!(
            report.totals.rx_packets > 400,
            "{}",
            report.totals.rx_packets
        );
        assert_eq!(report.totals.rx_drops, 0);
        // At 10 Gbps/core the CPU keeps up: nearly everything completes.
        assert!(
            report.totals.completed_packets as f64 >= 0.95 * report.totals.rx_packets as f64,
            "completed {} of {}",
            report.totals.completed_packets,
            report.totals.rx_packets
        );
        // DDIO never self-invalidates or prefetches.
        assert_eq!(report.totals.self_inval, 0);
        assert_eq!(report.totals.prefetch_fills, 0);
    }

    #[test]
    fn idio_reduces_mlc_writebacks_on_steady_traffic() {
        // Long enough for the 1 MiB MLC to wrap (>585 packets/core), so the
        // DDIO baseline actually evicts consumed buffers.
        let mut d = steady_cfg(10.0, SteeringPolicy::Ddio);
        d.duration = SimTime::from_ms(2);
        let mut i = steady_cfg(10.0, SteeringPolicy::Idio);
        i.duration = SimTime::from_ms(2);
        let ddio = System::new(d).run();
        let idio = System::new(i).run();
        assert!(idio.totals.self_inval > 0);
        assert!(
            (idio.totals.mlc_wb as f64) < 0.5 * ddio.totals.mlc_wb as f64,
            "idio {} vs ddio {}",
            idio.totals.mlc_wb,
            ddio.totals.mlc_wb
        );
    }

    #[test]
    fn bursty_traffic_tracks_burst_windows() {
        let spec = BurstSpec::for_ring(64, 1514, 25.0, Duration::from_ms(1));
        let mut cfg = SystemConfig::touchdrop_scenario(1, TrafficPattern::Bursty(spec));
        cfg.ring_size = 64;
        cfg.duration = SimTime::from_ms(3);
        cfg.drain_grace = Duration::from_ms(1);
        let report = System::new(cfg).run();
        assert_eq!(report.bursts.len(), 3);
        for b in &report.bursts {
            assert_eq!(b.packets, 64, "all packets of each burst complete");
            assert!(b.exe_time() > Duration::ZERO);
        }
    }

    #[test]
    fn latency_is_recorded_per_core() {
        let report = System::new(steady_cfg(5.0, SteeringPolicy::Ddio)).run();
        assert_eq!(report.latency.len(), 2);
        for (_, s) in &report.latency {
            // At least the descriptor-writeback delay.
            assert!(s.p50 >= Duration::from_us_f64(1.9));
            assert!(s.p99 >= s.p50);
        }
    }

    #[test]
    fn cat_auto_partitions_cores_and_exports_metrics() {
        let caps = PolicyCaps {
            cat: CatMode::Auto,
            ..SteeringPolicy::Idio.caps()
        };
        let cfg = queue0_runs(steady_cfg(10.0, SteeringPolicy::Idio), caps);
        let sys = System::new(cfg);
        // Core 0 (the auto domain) holds an exclusive slice; core 1 is
        // pushed to the shared pool — the masks never overlap, and both
        // stay clear of the DDIO ways.
        let m0 = sys.hier.cat_mask(CoreId::new(0)).expect("auto mask");
        let m1 = sys.hier.cat_mask(CoreId::new(1)).expect("shared mask");
        assert!(m0.intersect(m1).is_empty(), "slice {m0} overlaps pool {m1}");
        let ddio = idio_cache::set::WayMask::first(sys.hier.ddio_ways());
        assert!(m0.intersect(ddio).is_empty());
        assert!(m1.intersect(ddio).is_empty());
        let report = sys.run();
        // The default policy interns as domain 0, the custom caps as 1.
        assert!(report.metrics.counter("cat.domain1.ways") >= 1);
        // cat.reallocations is always exported on CAT runs (may be 0).
        assert!(report
            .metrics
            .counters()
            .any(|(n, _)| n == "cat.reallocations"));
    }

    #[test]
    fn cat_static_masks_restrict_only_their_own_cores() {
        use idio_cache::set::WayMask;
        let caps = PolicyCaps {
            cat: CatMode::Static(WayMask::range(4, 8)),
            ..SteeringPolicy::Ddio.caps()
        };
        let cfg = queue0_runs(steady_cfg(10.0, SteeringPolicy::Ddio), caps);
        let sys = System::new(cfg);
        assert_eq!(
            sys.hier.cat_mask(CoreId::new(0)),
            Some(WayMask::range(4, 8))
        );
        // Without an auto allocator, other cores keep the default mask.
        assert_eq!(sys.hier.cat_mask(CoreId::new(1)), None);
        let report = sys.run();
        assert_eq!(report.metrics.counter("cat.domain1.ways"), 4);
    }

    #[test]
    fn non_cat_runs_export_no_cat_metrics() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        assert!(report
            .metrics
            .counters()
            .all(|(n, _)| !n.starts_with("cat.")));
    }

    /// Regression: an NF event dispatched to a core with no NF used to die
    /// on a bare `unwrap`/`expect` deep in the handler; it must fail with a
    /// diagnostic naming both the core and the event.
    #[test]
    #[should_panic(expected = "CoreWake event dispatched to core1, but no NF is configured there")]
    fn nf_event_at_unconfigured_core_is_diagnosed() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        // Pin the NFs to cores 0 and 2, leaving core 1 with no NF state.
        cfg.workloads[1].core = CoreId::new(2);
        let mut sys = System::new(cfg);
        assert!(sys.nf[1].is_none(), "core 1 must be unconfigured");
        sys.handle(SimTime::ZERO, Event::CoreWake { core: 1 });
    }

    #[test]
    fn hierarchy_invariants_hold_after_run() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Idio);
        cfg.duration = SimTime::from_us(100);
        let mut sys = System::new(cfg);
        // Drive manually so we keep the system afterwards.
        while let Some((now, ev)) = sys.queue.pop() {
            if now > sys.hard_stop {
                break;
            }
            sys.handle(now, ev);
        }
        sys.hier.check_invariants();
    }

    #[test]
    fn hit_breakdown_fractions_sum_to_one() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        let b = report
            .hit_breakdown(idio_cache::addr::CoreId::new(0))
            .expect("core 0 issued accesses");
        let sum = b.l1 + b.mlc + b.llc + b.dram;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1: {sum}");
        assert!(b.accesses > 0);
        // Under IDIO at 10 Gbps the working set is MLC-resident.
        assert!(b.mlc + b.l1 > 0.8, "mostly private hits: {b:?}");
    }

    #[test]
    fn trace_replay_reproduces_generator_run() {
        use idio_net::gen::{FlowSpec, TrafficGen};
        // Record what the generator would emit, then replay it as the
        // workload's tenant: totals must be identical to the
        // generator-driven run.
        let horizon = SimTime::from_us(400);
        let mk_cfg = || {
            let mut cfg =
                SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
            cfg.duration = horizon;
            cfg.drain_grace = Duration::from_us(200);
            cfg
        };
        let generated = System::new(mk_cfg()).run();

        // Workload 0's derived tenant sends udp_to_port(5000, len).
        let trace: Vec<_> = TrafficGen::new(
            FlowSpec::udp_to_port(5000, 1514),
            TrafficPattern::Steady { rate_gbps: 10.0 },
            horizon,
        )
        .collect();
        let mut cfg = mk_cfg();
        cfg.tenants = cfg.arrival_tenants().into_owned();
        cfg.tenants[0].replay = Some(trace);
        let replayed = System::new(cfg).run();
        assert_eq!(generated.totals, replayed.totals);
    }

    #[test]
    fn empty_trace_replay_is_harmless() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.tenants = cfg.arrival_tenants().into_owned();
        cfg.tenants[0].replay = Some(Vec::new());
        let r = System::new(cfg).run();
        // Workload 0 sends nothing; workload 1 still flows.
        assert!(r.totals.rx_packets > 0);
        assert_eq!(r.latency.len(), 1, "only core 1 saw packets");
    }

    #[test]
    fn replay_for_unknown_workload_is_rejected() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.tenants = cfg.arrival_tenants().into_owned();
        cfg.tenants[0].workloads = vec![7];
        cfg.tenants[0].replay = Some(Vec::new());
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn latency_histograms_are_exported_per_core() {
        let report = System::new(steady_cfg(5.0, SteeringPolicy::Ddio)).run();
        for core in 0..2 {
            let h = report
                .metrics
                .histogram(&format!("core{core}.pkt_latency_ns"))
                .expect("both cores completed packets");
            assert_eq!(
                h.count(),
                report
                    .metrics
                    .counter(&format!("core{core}.packets.completed")),
                "one histogram sample per completed packet"
            );
            // Matches the LatencyRecorder summary to bucket precision.
            let (_, s) = report.latency[core];
            let p99_ns = s.p99.as_ns();
            let est = h.percentile(99.0).unwrap();
            assert!(
                est >= p99_ns && est <= p99_ns.max(1) * 2,
                "{est} vs {p99_ns}"
            );
        }
    }

    #[test]
    fn per_core_steer_sums_to_global() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        let m = &report.metrics;
        for kind in ["llc", "mlc", "dram"] {
            let total = m.counter(&format!("steer.{kind}"));
            let sum: u64 = (0..2)
                .map(|i| m.counter(&format!("core{i}.steer.{kind}")))
                .sum();
            assert_eq!(sum, total, "steer.{kind}");
        }
        assert!(m.counter("steer.mlc") > 0, "IDIO steers into MLCs");
        // Per-queue RX attribution covers the global counters.
        let rx: u64 = (0..2)
            .map(|q| m.counter(&format!("queue{q}.rx.packets")))
            .sum();
        assert_eq!(rx, report.totals.rx_packets);
    }

    fn tenant_cfg() -> SystemConfig {
        use crate::config::TenantSpec;
        use idio_net::packet::Dscp;
        let mut cfg =
            SystemConfig::touchdrop_scenario(4, TrafficPattern::Steady { rate_gbps: 5.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.workloads[2].kind = NfKind::L2FwdPayloadDrop;
        cfg.workloads[3].kind = NfKind::L2FwdPayloadDrop;
        cfg.tenants = vec![
            TenantSpec {
                name: "lat".into(),
                workloads: vec![0, 1],
                flows: 6,
                base_port: 5000,
                churn: None,
                train: 1,
                traffic: TrafficPattern::Steady { rate_gbps: 8.0 },
                packet_len: 1514,
                dscp: Dscp::BEST_EFFORT,
                replay: None,
                policy: None,
            },
            TenantSpec {
                name: "stream".into(),
                workloads: vec![2, 3],
                flows: 4,
                base_port: 6000,
                churn: None,
                train: 1,
                traffic: TrafficPattern::Steady { rate_gbps: 20.0 },
                packet_len: 1514,
                dscp: Dscp::CLASS1_DEFAULT,
                replay: None,
                policy: None,
            },
        ];
        cfg
    }

    #[test]
    fn tenant_flows_spread_across_the_tenants_queues() {
        let report = System::new(tenant_cfg()).run();
        let m = &report.metrics;
        // Every queue of both tenants receives packets (6 flows over
        // queues {0,1} and 4 flows over queues {2,3}, dealt round-robin).
        for q in 0..4 {
            assert!(
                m.counter(&format!("queue{q}.rx.packets")) > 0,
                "queue {q} starved"
            );
        }
        // The tenant halves split the aggregate close to evenly: flows
        // 0,2,4 of 6 land on queue 0 (3/6), flows 1,3,5 on queue 1.
        let q0 = m.counter("queue0.rx.packets") as f64;
        let q1 = m.counter("queue1.rx.packets") as f64;
        assert!((q0 / (q0 + q1) - 0.5).abs() < 0.05, "{q0} vs {q1}");
        assert!(report.totals.completed_packets > 0);
    }

    #[test]
    fn tenant_runs_are_deterministic() {
        let a = System::new(tenant_cfg()).run();
        let b = System::new(tenant_cfg()).run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }

    #[test]
    fn antagonist_runs_and_reports_cpa() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio).with_antagonist();
        cfg.duration = SimTime::from_us(200);
        let report = System::new(cfg).run();
        let cpa = report.antagonist_cpa.expect("antagonist ran");
        assert!(cpa > 0.0);
    }

    /// Regression test for the CPU-paced parked-hint release path. The old
    /// implementation drained the parked queue into a fresh `Vec` on every
    /// pointer advance and popped it back with `expect("checked front")`;
    /// the arena-backed version must still release every parked hint as
    /// the pointer catches up (under pressure that parks far beyond the
    /// pacing window) and must steer/prefetch exactly as many lines as a
    /// fresh run — the drain is observable through the prefetch counters.
    #[test]
    fn cpu_paced_parked_hints_release_on_pointer_advance() {
        let mk = || {
            // A tight window at an over-provisioned rate forces hints well
            // past the window, so most of them park and only the pointer
            // advances release them.
            let mut cfg = steady_cfg(40.0, SteeringPolicy::Idio);
            cfg.prefetcher.pacing =
                crate::prefetcher::PrefetchPacing::CpuPaced { window_packets: 2 };
            cfg
        };
        let report = System::new(mk()).run();
        assert!(report.totals.completed_packets > 100);
        // CPU pacing never drops hints: everything accepted is eventually
        // issued (parked hints drain as the pointer advances, and the run
        // includes a drain grace long enough to finish them).
        assert_eq!(report.metrics.counter("prefetch.drops"), 0);
        assert!(report.metrics.counter("prefetch.issued") > 0);
        // Determinism across the arena-backed path.
        let again = System::new(mk()).run();
        assert_eq!(report.totals, again.totals);
        assert_eq!(report.metrics.to_json(), again.metrics.to_json());
    }

    /// The tick-metrics timeline is off by default, dumps one well-formed
    /// NDJSON object per control tick when enabled, and never perturbs the
    /// simulation it observes.
    #[test]
    fn tick_metrics_records_one_line_per_tick_without_perturbing_the_run() {
        let base = steady_cfg(10.0, SteeringPolicy::Idio);
        let off = System::new(base.clone()).run();
        assert!(off.tick_metrics.is_empty(), "off by default");
        let mut cfg = base;
        cfg.tick_metrics = true;
        let on = System::new(cfg).run();
        // One line per 1 us control tick over duration + drain grace.
        let expect_ticks = (on.finished_at.as_us()) as usize;
        assert_eq!(on.tick_metrics.len(), expect_ticks);
        for line in &on.tick_metrics {
            assert!(
                line.starts_with("{\"t_us\":") && line.ends_with('}'),
                "{line}"
            );
            assert!(line.contains("\"steer\":{\"llc\":"), "{line}");
            // Two cores -> two FSM state chars, each M or L.
            let fsm = line
                .split("\"fsm\":\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .expect("fsm field");
            assert_eq!(fsm.len(), 2, "{line}");
            assert!(fsm.chars().all(|c| c == 'M' || c == 'L'), "{line}");
            // No CAT allocator in this config -> no cat section.
            assert!(!line.contains("\"cat\""), "{line}");
        }
        // The steering deltas must sum to the run's total steered lines.
        let sum: u64 = on
            .tick_metrics
            .iter()
            .map(|l| {
                ["\"llc\":", "\"mlc\":", "\"dram\":"]
                    .iter()
                    .map(|k| {
                        l.split(k)
                            .nth(1)
                            .and_then(|r| {
                                r.chars()
                                    .take_while(char::is_ascii_digit)
                                    .collect::<String>()
                                    .parse::<u64>()
                                    .ok()
                            })
                            .expect("steer delta")
                    })
                    .sum::<u64>()
            })
            .sum();
        let total = on.metrics.counter("steer.llc")
            + on.metrics.counter("steer.mlc")
            + on.metrics.counter("steer.dram");
        assert_eq!(sum, total, "tick deltas cover every steered line");
        // Observation is free: the observed run's results are identical.
        assert_eq!(on.totals, off.totals);
        assert_eq!(on.metrics.to_json(), off.metrics.to_json());
    }

    #[test]
    fn recycle_pool_frees_at_completion_and_never_leaks() {
        // Satellite audit: buffers return to the pool at the completion
        // event (TX writeback for forwarding NFs), never at steer time.
        // A 32-slot recycle pool under L2Fwd wraps its free list many
        // times over; the pool's own double-free / slot-leak asserts
        // would abort the run if a buffer were freed twice or dropped on
        // the floor, and the final recycled count must equal every
        // buffer the NIC ever handed out.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
        cfg.duration = SimTime::from_us(500);
        cfg.drain_grace = Duration::from_us(400);
        cfg.policy = SteeringPolicy::Idio;
        cfg.workloads[0].kind = NfKind::L2Fwd;
        cfg.workloads[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        let report = System::new(cfg).run();
        assert!(
            report.totals.completed_packets > 64,
            "pool wrapped at least twice, got {}",
            report.totals.completed_packets
        );
        assert_eq!(report.metrics.counter("pool.q0.slots"), 32);
        // No leak: every reserved buffer was recycled exactly once by the
        // end of the drain grace.
        assert_eq!(
            report.metrics.counter("pool.q0.recycled"),
            report.totals.rx_packets
        );
        // A 32-buffer working set never exceeds the per-queue DDIO budget.
        assert_eq!(report.metrics.counter("pool.q0.spilled"), 0);
    }

    #[test]
    fn starved_recycle_pool_drops_instead_of_growing() {
        // A deliberately tiny pool under a high rate: allocation outruns
        // recycling, the NIC drops at reserve time, and the starvation
        // counter — not the footprint — absorbs the pressure.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 40.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Ddio;
        cfg.workloads[0].kind = NfKind::TouchDrop;
        cfg.workloads[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(2) });
        let report = System::new(cfg).run();
        let starved = report.metrics.counter("pool.q0.starved");
        assert!(starved > 0, "2 slots at 40 Gbps must starve");
        assert!(
            report.totals.rx_drops >= starved,
            "every starvation is a dropped packet: drops {} < starved {starved}",
            report.totals.rx_drops
        );
        assert_eq!(
            report.metrics.counter("pool.q0.recycled"),
            report.totals.rx_packets,
            "the buffers that were granted still all come back"
        );
    }

    #[test]
    fn flow_director_pressure_degrades_steering_and_counts_mis_steers() {
        use crate::config::TenantSpec;
        use idio_net::packet::Dscp;
        // One tenant, 64 churning flows over 4 queues, but only 8 perfect
        // filters: pinned flows hit perfectly, the rest spread by RSS
        // until aRFS-style learning converges them onto ATR — and churn
        // keeps invalidating both, so every steering source and the
        // mis-steer path are exercised.
        let mut cfg =
            SystemConfig::touchdrop_scenario(4, TrafficPattern::Steady { rate_gbps: 20.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.perfect_filter_entries = 8;
        cfg.atr_lifetime = Some(Duration::from_us(200));
        cfg.tenants = vec![TenantSpec {
            name: "churny".into(),
            workloads: vec![0, 1, 2, 3],
            flows: 32,
            base_port: 5000,
            churn: Some(Duration::from_us(60)),
            train: 1,
            traffic: TrafficPattern::Steady { rate_gbps: 20.0 },
            packet_len: 1514,
            dscp: Dscp::BEST_EFFORT,
            replay: None,
            policy: None,
        }];
        let report = System::new(cfg).run();
        let m = &report.metrics;
        assert!(m.counter("fd.perfect_hits") > 0, "pinned flows hit EP");
        assert!(m.counter("fd.rss_fallbacks") > 0, "unpinned start on RSS");
        assert!(m.counter("fd.atr_learned") > 0, "completions program ATR");
        assert!(m.counter("fd.atr_hits") > 0, "learned flows steer by ATR");
        assert!(
            m.counter("fd.mis_steered") > 0,
            "RSS spreads some flows off their home queue"
        );
        assert!(
            m.counter("fd.perfect_evicted") > 0,
            "churn refresh into a full 8-entry table evicts"
        );
        // Conservation: every accepted packet was steered exactly once.
        let total = m.counter("fd.perfect_hits")
            + m.counter("fd.atr_hits")
            + m.counter("fd.atr_collisions")
            + m.counter("fd.rss_fallbacks");
        assert_eq!(total, report.totals.rx_packets + report.totals.rx_drops);
        // Per-queue mix sums to the global counters.
        let mis: u64 = (0..4).map(|q| m.counter(&format!("fd.q{q}.mis"))).sum();
        assert_eq!(mis, m.counter("fd.mis_steered"));
    }

    #[test]
    fn fully_pinned_tenants_export_no_fd_metrics() {
        // Flow populations that fit the filter budget keep the legacy
        // pin-everything behavior and add no fd.* keys (golden
        // compatibility).
        let report = System::new(tenant_cfg()).run();
        assert_eq!(report.metrics.counter("fd.perfect_hits"), 0);
        assert!(report
            .metrics
            .counters()
            .all(|(k, _)| !k.starts_with("fd.")));
    }

    #[test]
    fn idle_recycle_pool_flushes_after_the_configured_window() {
        // Traffic stops at `duration`; the pool sits idle through the
        // drain grace and must self-invalidate once the window elapses.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
        cfg.duration = SimTime::from_us(150);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Ddio;
        cfg.workloads[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        cfg.pool_idle_flush = Some(Duration::from_us(100));
        let report = System::new(cfg.clone()).run();
        assert_eq!(
            report.metrics.counter("pool.q0.idle_flushed"),
            1,
            "one idle window elapses inside the drain grace"
        );
        // The flush is an invalidation pass: it must show up in the
        // self-invalidation totals even under a policy that never
        // invalidates on free.
        assert!(report.totals.self_inval > 0);
        // Without the knob the counter is not exported at all.
        cfg.pool_idle_flush = None;
        let legacy = System::new(cfg).run();
        assert!(legacy
            .metrics
            .counters()
            .all(|(k, _)| k != "pool.q0.idle_flushed"));
    }

    #[test]
    fn chained_nf_exports_per_stage_histograms() {
        use idio_stack::nf::{ChainStage, NfChain};
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 8.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.policy = SteeringPolicy::Idio;
        cfg.workloads[0].kind = NfKind::Chain(NfChain::upf());
        cfg.workloads[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: None });
        let report = System::new(cfg).run();
        let completed = report.totals.completed_packets;
        assert!(completed > 0);
        // Every stage of the UPF chain ran once per completed packet and
        // carries real service time; stages not in the chain export
        // nothing.
        for stage in [
            ChainStage::Parse,
            ChainStage::Classify,
            ChainStage::Rewrite,
            ChainStage::Forward,
        ] {
            let h = report
                .metrics
                .histogram(&format!("core0.stage.{}_ns", stage.name()))
                .unwrap_or_else(|| panic!("missing histogram for stage {}", stage.name()));
            assert_eq!(h.count(), completed, "stage {}", stage.name());
            assert!(
                h.mean() > 0.0,
                "stage {} has real service time",
                stage.name()
            );
        }
        assert!(
            report.metrics.histogram("core0.stage.inspect_ns").is_none(),
            "stages outside the chain are not exported"
        );
    }

    #[test]
    fn tick_metrics_diverge_between_recycle_and_dram_pools() {
        // The acceptance shape of the recycle-vs-dram duel: under the
        // same chained workload, the recycling queue's live footprint is
        // pinned at its slot bound with starvation drops absorbing the
        // pressure, while the dram twin never recycles and lets its
        // footprint float.
        use idio_stack::nf::NfChain;
        let mut cfg =
            SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 40.0 });
        cfg.duration = SimTime::from_us(400);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Idio;
        for w in &mut cfg.workloads {
            w.kind = NfKind::Chain(NfChain::upf());
        }
        cfg.workloads[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(8) });
        cfg.workloads[1].pool = Some(idio_pool::PoolSpec::Dram);
        cfg.tick_metrics = true;
        let report = System::new(cfg).run();

        let field = |line: &str, queue: &str, key: &str| -> u64 {
            let q = line.split(queue).nth(1).expect("queue present");
            q.split(key)
                .nth(1)
                .and_then(|r| {
                    r.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .ok()
                })
                .expect("pool field")
        };
        for line in &report.tick_metrics {
            assert!(
                field(line, "\"q0\":", "\"live\":") <= 8,
                "recycle footprint stays inside its bound: {line}"
            );
            assert_eq!(
                field(line, "\"q1\":", "\"recycled\":"),
                0,
                "dram mbufs are never re-identified"
            );
        }
        let last = report.tick_metrics.last().expect("ticks recorded");
        assert!(field(last, "\"q0\":", "\"recycled\":") > 0);
        assert!(
            field(last, "\"q0\":", "\"starved\":") > 0,
            "8 slots at 40 Gbps starve: {last}"
        );
    }

    #[test]
    fn unpooled_runs_export_no_pool_metrics() {
        // The telemetry contract behind golden stability: without an
        // explicit pool there is no pool.* surface at all.
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        assert!(
            !report
                .metrics
                .counters()
                .any(|(n, _)| n.starts_with("pool.")),
            "legacy runs must not grow pool counters"
        );
    }

    #[test]
    fn drop_and_tx_completions_are_counted_once_everywhere() {
        // Both completion paths — the drop arm of `finish_packet` and
        // `on_tx_complete` — end in the same free and completion steps,
        // with or without a recycle pool in between: per core, the
        // completion counter, the latency histogram and the latency
        // summary all count each completed packet exactly once.
        for kind in [NfKind::TouchDrop, NfKind::L2Fwd] {
            for pool in [None, Some(idio_pool::PoolSpec::Recycle { slots: Some(32) })] {
                let mut cfg = steady_cfg(10.0, SteeringPolicy::Idio);
                for w in &mut cfg.workloads {
                    w.kind = kind;
                    w.pool = pool;
                }
                let report = System::new(cfg).run();
                assert!(report.totals.completed_packets > 0, "{kind} {pool:?}");
                assert_eq!(report.latency.len(), 2, "{kind} {pool:?}");
                for (core, summary) in &report.latency {
                    let i = core.index();
                    let completed = report
                        .metrics
                        .counter(&format!("core{i}.packets.completed"));
                    let hist = report
                        .metrics
                        .histogram(&format!("core{i}.pkt_latency_ns"))
                        .expect("the core completed packets");
                    assert!(completed > 0, "{kind} {pool:?} core{i}");
                    assert_eq!(hist.count(), completed, "{kind} {pool:?} core{i}");
                    assert_eq!(summary.count as u64, completed, "{kind} {pool:?} core{i}");
                }
            }
        }
    }
}
