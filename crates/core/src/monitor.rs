//! The LVRM monitor hierarchy (paper Fig. 3.1).
//!
//! [`Lvrm`] is the top of the hierarchy: it owns the VR monitor (core
//! allocation across VRs, §3.2), one VRI-monitor state per VR (spawn/kill of
//! instances plus load balancing, §3.3), and the per-VRI adapters (§3.4).
//! The workflow per §2.1, one pass of which is [`Lvrm::run_burst`]:
//!
//! 1. poll the socket adapter and feed the burst to [`Lvrm::ingress_batch`];
//! 2. LVRM classifies the frame to a VR by its **source IP subnet**,
//!    balances it to one of the VR's VRIs and pushes it into that VRI's
//!    incoming data queue;
//! 3. the VRI processes the frame and pushes it into its outgoing queue;
//! 4. collect [`Lvrm::poll_egress`] and transmit through the adapter.
//!
//! Core reallocation runs lazily: every ingress checks whether the 1-second
//! period has elapsed ("called upon receipt of a packet after 1 s or more
//! from previous core allocation/deallocation", Fig. 3.2).

use std::net::Ipv4Addr;
use std::path::Path;

use lvrm_ipc::channels::{shared_ring, vri_channels_with_ring, ControlEvent};
use lvrm_ipc::vlink::{VLinkReceiver, VLinkSender};
use lvrm_ipc::{PressureLevel, Watermarks};
use lvrm_metrics::{
    Counter, Gauge, LatencyHistogram, MetricsRegistry, MetricsSnapshot, RateEstimator,
};
use lvrm_net::{prefetch_read, Frame, HashedKey, IngressHeaders};
use lvrm_router::{RouteTable, VirtualRouter};

use crate::alloc::{AllocDecision, CoreAllocator, VrLoadView};
use crate::balance::{BurstCtx, LoadBalancer};
use crate::checkpoint::{Checkpoint, CheckpointError, VrCheckpoint};
use crate::clock::Clock;
use crate::cluster::{ClusterNode, PeerLink, Role, ShardMap};
use crate::config::{DispatchMode, LvrmConfig};
use crate::estimate::PressureTracker;
use crate::host::{VriHost, VriSpec};
use crate::ledger::{
    series, Ledger, LvrmStats, StatCounters, VrBooks, VriBooks, M_DATA_QUEUED, M_EGRESS_QUEUED,
    M_VRI_DISPATCHED, M_VRI_DROPS, M_VRI_QUEUE_LEN, M_VRI_RETURNED, M_VR_ADMITTED, M_VR_FRAMES_IN,
    M_VR_OWNED, M_VR_SHED,
};
use crate::socket::SocketAdapter;
use crate::topology::CoreMap;
use crate::vri::{decode_heartbeat, decode_service_rate, VriAdapter, VriHealth, VriSeries};
use crate::{VrId, VriId};

/// Upper bound on VRIs per VR (beyond physical cores throughput drops —
/// Experiment 2b — so LVRM "seeks to limit the number of cores").
pub const MAX_VRIS_PER_VR: usize = 64;

/// Window and EWMA history weight of each VR's arrival-rate estimator.
const ARRIVAL_WINDOW_NS: u64 = 100_000_000; // 100 ms
const ARRIVAL_WEIGHT: f64 = 1.0;

/// Admission weight a VR starts with under overload shedding
/// ([`Lvrm::set_vr_weight`] changes it per VR).
const INITIAL_SHED_WEIGHT: f64 = 1.0;

/// Control-plane starvation bound: after this many consecutive data bursts
/// without a control-relay pass, `ingress_batch` runs `process_control`
/// itself. The paper gives control events strict priority inside a VRI;
/// this makes the monitor side enforceable too.
pub const CTRL_STARVATION_BURSTS: u32 = 64;

/// Supervisor respawn backoff: the base after the *second* consecutive
/// crash (the first respawn is immediate so a one-off crash recovers within
/// one tick), doubling per crash up to the cap.
const RESPAWN_BACKOFF_NS: u64 = 1_000_000_000; // 1 s
const RESPAWN_BACKOFF_MAX_NS: u64 = 30_000_000_000; // 30 s

/// A VR that stays healthy this long after a crash gets its
/// consecutive-crash streak reset.
const CRASH_STREAK_RESET_NS: u64 = 10_000_000_000; // 10 s

/// A grow/shrink event, kept for the reaction-time analysis (Fig. 4.11).
#[derive(Clone, Copy, Debug)]
pub struct ReallocEvent {
    /// When the decision fired (monitor clock).
    pub ts_ns: u64,
    pub vr: VrId,
    pub decision: AllocDecision,
    /// Wall time from decision to spawn/kill completion — real in the
    /// threaded runtime, ~0 under simulated clocks (the testbed models it).
    pub latency_ns: u64,
    /// VRIs of the VR after the event.
    pub vris_after: usize,
}

/// What the supervisor did to one VRI (kept for the recovery-time analysis,
/// the fault-recovery mirror of Fig. 4.11's reaction-time log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupervisionAction {
    /// Declared dead: `reclaimed` in-flight frames were drained for
    /// re-dispatch, `lost` could not be recovered.
    Died { reclaimed: u64, lost: u64 },
    /// A replacement instance was spawned (the event's `vri` is the new id).
    Respawned,
    /// The VRI's VR crossed the crash-loop threshold and was quarantined.
    Quarantined,
}

/// One supervisor decision, timestamped on the monitor clock.
#[derive(Clone, Copy, Debug)]
pub struct SupervisionEvent {
    pub ts_ns: u64,
    pub vr: VrId,
    pub vri: VriId,
    pub action: SupervisionAction,
}

/// Pre-register the adapter-supervision families (at zero) so they exist
/// from the first scrape whether or not a
/// [`crate::adapter::SupervisedAdapter`] is wired in. Same names and help as
/// `SupervisedAdapter::publish` — registry dedup by name makes these the very
/// counters it stores into.
fn register_adapter_families(reg: &MetricsRegistry) {
    reg.counter("lvrm_adapter_reopens_total", "Successful reopens of a dead socket adapter.", &[]);
    reg.counter("lvrm_adapter_failovers_total", "Failovers to a standby socket adapter.", &[]);
    reg.counter(
        "lvrm_egress_retries_total",
        "Refused egress frames later delivered from the retry queue.",
        &[],
    );
}

series! {
    /// One VR's series in the metrics registry, looked up once at `add_vr`:
    /// [`Lvrm::refresh_registry`] stores through them, so a scrape takes no
    /// registry lock, allocates no label and searches no family by name.
    struct VrSeries {
        frames_in: counter = M_VR_FRAMES_IN,
        frames_out: counter = ("lvrm_vr_frames_out_total", "Frames the VR's VRIs forwarded."),
        admitted: counter = M_VR_ADMITTED,
        shed: counter = M_VR_SHED,
        flow_sticky: counter = (
            "lvrm_vr_flow_sticky_total",
            "Flow-based balancer: frames that hit a live flow entry.",
        ),
        flow_fresh: counter =
            ("lvrm_vr_flow_fresh_total", "Flow-based balancer: frames that picked a VRI afresh."),
        pressure: gauge =
            ("lvrm_vr_pressure", "Watermark pressure state (0 normal, 1 pressured, 2 overloaded)."),
        vris: gauge = ("lvrm_vr_vris", "Live (balanced-to) VRIs."),
        draining: gauge = ("lvrm_vr_draining", "VRIs of this VR in the drain state."),
        arrival_fps: gauge = ("lvrm_vr_arrival_fps", "Smoothed arrival rate, frames per second."),
        quarantined: gauge = ("lvrm_vr_quarantined", "1 while the VR is quarantined, else 0."),
        // Mirrored from `VrState::latency`, never written on the hot path
        // (`SharedHistogram::record` is five locked RMWs per frame).
        latency: summary = (
            "lvrm_vr_latency_ns",
            "Dispatch-to-departure latency in nanoseconds (quantiles approximate).",
        ),
    }
}

series! {
    /// The flow-table families of a VR whose balancer keeps a flow table.
    struct FlowSeries {
        evictions: counter = (
            "lvrm_vr_flow_evictions_total",
            "Expired flow entries evicted (lazy probe hits + aging sweeps).",
        ),
        overflows: counter =
            ("lvrm_vr_flow_overflows_total", "Flow insertions refused because the table was full."),
        age_sweep_slots: counter = (
            "lvrm_vr_flow_age_sweep_slots_total",
            "Slots visited by the incremental aging sweep (bounded per tick).",
        ),
        entries: gauge = ("lvrm_vr_flow_entries", "Tracked flows in the flow table."),
        occupancy: gauge =
            ("lvrm_vr_flow_occupancy", "Flow-table fill fraction (entries / capacity)."),
    }
}

series! {
    /// The monitor-wide sampled gauges, looked up once in [`Lvrm::new`].
    struct MonitorGauges {
        data_queued: gauge = M_DATA_QUEUED,
        egress_queued: gauge = M_EGRESS_QUEUED,
        rescued_pending: gauge = (
            "lvrm_rescued_pending",
            "Rescued egress frames awaiting the next poll (already in frames_out).",
        ),
        draining_vris: gauge = ("lvrm_draining_vris", "VRIs in the drain state across all VRs."),
        vrs: gauge = ("lvrm_vrs", "Registered VRs."),
        restore_epoch: gauge = (
            "lvrm_restore_epoch",
            "Restart epoch (0 cold start; checkpoint epoch + 1 after restore).",
        ),
        repl_lag_updates: gauge = (
            "lvrm_repl_lag_updates",
            "Records carried by the most recent state-update fan-out (sibling-book staleness).",
        ),
        repl_lag_ns: gauge = (
            "lvrm_repl_lag_ns",
            "Age of the most recent state-update fan-out, vs the replica flush interval.",
        ),
    }
}

/// Per-VR state: the VRI monitor plus the VR monitor's estimators.
struct VrState {
    id: VrId,
    name: String,
    /// Template the VRI monitor clones per instance (`spawn_instance`).
    router_template: Box<dyn VirtualRouter>,
    /// Live instances, in allocation order.
    vris: Vec<VriAdapter>,
    balancer: Box<dyn LoadBalancer>,
    /// The balancer keeps a flow table, so ingress stages this VR's frames
    /// for it. Learnt whenever the balancer is built.
    stages: bool,
    /// How ingress spreads this VR's frames: `Pinned` keeps per-flow
    /// affinity (possibly flow-based); `Replicated` spreads every frame
    /// across all VRIs regardless of flow key — the replicas reconverge
    /// through the `LVSU` state-update fan-out (DESIGN.md §14).
    dispatch: DispatchMode,
    allocator: Box<dyn CoreAllocator>,
    arrival: RateEstimator,
    /// Frames this VR received / forwarded (for fairness accounting).
    pub frames_in: u64,
    pub frames_out: u64,
    /// Consecutive supervisor-observed crashes (resets after a healthy
    /// stretch of [`CRASH_STREAK_RESET_NS`]).
    crash_streak: u32,
    /// When the last crash was observed.
    last_crash_ns: u64,
    /// No respawn before this instant (bounded exponential backoff).
    backoff_until_ns: u64,
    /// Instances owed to this VR by the supervisor (crashed, not respawned).
    respawn_deficit: usize,
    /// Crash-looped past the quarantine threshold: no more respawns, and
    /// its traffic is dropped as `quarantined_drops` once no VRI survives.
    quarantined: bool,
    /// Admission weight under overload shedding: the VR's per-burst quota is
    /// `batch_size × weight / Σ weights` while `Overloaded`.
    weight: f64,
    /// Watermark pressure state, refreshed once per dispatched burst from
    /// the worst data-queue occupancy across the VR's VRIs.
    pressure: PressureTracker,
    /// Frames admitted past ingress classification (balanced + dispatched).
    admitted: u64,
    /// Frames shed at ingress classification (this VR over quota).
    shed: u64,
    /// Deficit-round-robin credit carried across bursts while overloaded,
    /// in frames; fractional so small quanta still admit over time.
    shed_credit: f64,
    /// Shrink victims still servicing their parked frames: dispatch stopped,
    /// retirement pending on empty queue, endpoint loss, or deadline.
    draining: Vec<DrainingVri>,
    /// Dispatch→departure latency histogram, recorded in `poll_egress` when
    /// `config.latency_histograms` is on and frames carry an ingress stamp.
    /// Plain (non-atomic) because the monitor is its only writer; published
    /// to `series.latency` at refresh time.
    latency: LatencyHistogram,
    /// This VR's registry series; the flow-table ones from when its balancer
    /// first keeps a table (they then outlive a switch to one without, at
    /// their last values).
    series: VrSeries,
    flow_series: Option<FlowSeries>,
    /// Shared per-VR ingress ring (VLink work-stealing fabric). `Some` only
    /// under `config.vlink_fabric()`; every VRI endpoint of this VR holds a
    /// consumer clone and steals bursts from it instead of being balanced to.
    ring: Option<VrRing>,
    /// Fleet ownership (DESIGN.md §15): a sharded monitor declares every VR
    /// in the universe but serves only the ones the shard map assigns to it.
    /// Unowned VRs shed their classified frames at ingress (the frames still
    /// book as `frames_in + shed`, so the identities are unconditional).
    /// Always true outside a fleet.
    owned: bool,
    /// `owned` in the registry, for a monitor with a cluster section.
    owned_gauge: Option<Gauge>,
    /// The classify subnets this VR was declared with — the shard key the
    /// fleet partitions by, kept for map construction at `attach_cluster`.
    subnets: Vec<(Ipv4Addr, u8)>,
}

/// The monitor's handles onto one VR's shared ingress ring, plus the
/// counters that keep the ring inside the conservation identities. The ring
/// is published to the registry as a synthetic `vri="ring"` series in the
/// per-VRI dispatch families, so identity (C)
/// (`Σ dispatched == Σ returned + queued + reclaimed + lost`) and identity
/// (D) (aggregate drops == per-series drop sum) hold unchanged: frames the
/// monitor bulk-enqueued count as dispatched there (the stealing VRI's own
/// series later records the `returned`), ring occupancy joins
/// `lvrm_data_queued`, and ring refusals join the dispatch-drop family.
struct VrRing {
    /// Producer: `dispatch_bucket` bulk-publishes a VR's burst here.
    tx: VLinkSender<Frame>,
    /// Monitor-side consumer clone: occupancy sampling and teardown drains
    /// (the VRIs hold their own clones inside their endpoints).
    rx: VLinkReceiver<Frame>,
    /// Frames published into the ring (the ring series' `dispatched`).
    enqueued: u64,
    /// Frames a full ring refused (the ring series' `dispatch_drops`).
    drops: u64,
    m_dispatched: Counter,
    m_drops: Counter,
    m_queue_len: Gauge,
    m_occupancy: Gauge,
}

impl VrRing {
    fn new(capacity: usize, reg: &MetricsRegistry, vr: &str) -> VrRing {
        let (tx, rx) = shared_ring(capacity);
        let labels = [("vr", vr), ("vri", "ring")];
        // The ring returns nothing itself; its series stays at zero.
        reg.counter(M_VRI_RETURNED.0, M_VRI_RETURNED.1, &labels);
        VrRing {
            tx,
            rx,
            enqueued: 0,
            drops: 0,
            m_dispatched: reg.counter(M_VRI_DISPATCHED.0, M_VRI_DISPATCHED.1, &labels),
            m_drops: reg.counter(M_VRI_DROPS.0, M_VRI_DROPS.1, &labels),
            m_queue_len: reg.gauge(M_VRI_QUEUE_LEN.0, M_VRI_QUEUE_LEN.1, &labels),
            m_occupancy: reg.gauge(
                "lvrm_vr_ring_occupancy",
                "Shared-ring fill fraction (VLink fabric only).",
                &[("vr", vr)],
            ),
        }
    }

    fn occupancy(&self) -> f64 {
        self.rx.len() as f64 / self.rx.capacity().max(1) as f64
    }
}

/// One VRI in the drain state: out of the balance set, awaiting retirement.
struct DrainingVri {
    adapter: VriAdapter,
    /// Forcible-retirement instant on the monitor clock.
    deadline_ns: u64,
}

/// One VR's share of an ingress burst: the frames classified to it and, in
/// step, the key its balancer staged for each (no keys at all when the VR's
/// balancer stages nothing). Frames and keys enter and leave together, so a
/// bucket that is shortened or skipped can never pair a frame with its
/// neighbour's key.
#[derive(Default)]
struct VrBucket {
    frames: Vec<Frame>,
    flows: Vec<Option<HashedKey>>,
}

impl VrBucket {
    fn len(&self) -> usize {
        self.frames.len()
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn truncate(&mut self, len: usize) {
        self.frames.truncate(len);
        self.flows.truncate(len);
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.flows.clear();
    }
}

/// Charge `n` frames of `vr` that no instance took, by cause. A quarantined
/// VR's go to `quarantined_drops`. If an instance is attached, every
/// attached queue was full: a dispatch drop, noted on `full`, the first
/// attached instance (JSQ's pick among equally full queues), so identity
/// (D) stays exact. With none attached they are `no_vri_drops`.
fn charge_unplaced(stats: &StatCounters, vr: &mut VrState, full: Option<usize>, n: u64) {
    if n == 0 {
        return;
    }
    match full {
        _ if vr.quarantined => stats.quarantined_drops.add(n),
        Some(slot) => {
            vr.vris[slot].note_discarded(n);
            stats.dispatch_drops.add(n);
        }
        None => stats.no_vri_drops.add(n),
    }
}

/// How frames that end short of a VRI are booked: by [`Lvrm::depart`] for
/// what a departed VRI's host could not hand back, and by [`Lvrm::place`]
/// for what no instance takes or a queue refuses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Charge {
    /// Ingress and a crashed VRI: the drop taxonomy. What died with the
    /// vehicle is `crash_lost`, a frame no valid instance takes is charged
    /// by [`charge_unplaced`], a queue refusing a frame is a dispatch drop
    /// on that VRI.
    Drops,
    /// A voluntary retirement (shrink, drain, shutdown): `shrink_lost` only,
    /// with no per-VRI drop, so retiring leaves the per-adapter
    /// dispatch-drop identity untouched.
    ShrinkLost,
}

/// One VR's queues as a placement sees them, read once: the parallel slot
/// arrays a [`BurstCtx`] takes, and where an unplaced frame is charged.
#[derive(Default)]
struct QueueView {
    vris: Vec<VriId>,
    loads: Vec<f64>,
    valid: Vec<bool>,
    /// The first attached slot, where [`charge_unplaced`] notes a frame no
    /// valid instance takes; `None` with no instance attached.
    full: Option<usize>,
}

impl QueueView {
    /// One [`VriAdapter::read_queue`] a VRI. Returns the worst occupancy.
    fn read(&mut self, vris: &mut [VriAdapter], now: u64) -> f64 {
        self.vris.clear();
        self.loads.clear();
        self.valid.clear();
        self.full = None;
        let mut worst: f64 = 0.0;
        for (slot, v) in vris.iter_mut().enumerate() {
            let q = v.read_queue(now);
            worst = worst.max(q.occupancy);
            self.full = self.full.or(q.attached.then_some(slot));
            self.vris.push(v.id);
            self.loads.push(q.load);
            self.valid.push(q.valid);
        }
        worst
    }
}

impl VrState {
    /// Mean of the live VRIs' reported service rates, if any reported.
    fn service_rate_per_vri(&self) -> Option<f64> {
        let (sum, n) = self
            .vris
            .iter()
            .filter_map(|v| v.reported_service_rate)
            .fold((0.0, 0u32), |(sum, n), rate| (sum + rate, n + 1));
        (n > 0).then(|| sum / f64::from(n))
    }
}

/// Point-in-time view of one VRI, for observability.
#[derive(Clone, Debug)]
pub struct VriSnapshot {
    pub id: VriId,
    pub core: crate::topology::CoreId,
    pub load_estimate: f64,
    pub queue_len: usize,
    pub dispatched: u64,
    pub returned: u64,
    pub dispatch_drops: u64,
    pub reported_service_rate: Option<f64>,
    pub health: VriHealth,
    /// In the drain state: no longer balanced to, still counted here so the
    /// dispatch-drop identity holds at every instant.
    pub draining: bool,
}

/// Point-in-time view of one VR.
#[derive(Clone, Debug)]
pub struct VrSnapshot {
    pub id: VrId,
    pub name: String,
    pub arrival_rate_fps: f64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub quarantined: bool,
    /// Watermark pressure state as of the last burst refresh.
    pub pressure: PressureLevel,
    /// Frames admitted past ingress classification.
    pub admitted: u64,
    /// Frames shed at ingress classification (over quota under overload).
    pub shed: u64,
    /// Flow-table occupancy/churn (flow-based balancers only).
    pub flow: Option<crate::flowtable::FlowTableStats>,
    /// Live VRIs first, then any draining ones (flagged `draining`).
    pub vris: Vec<VriSnapshot>,
}

impl std::fmt::Display for VrSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} vri] arrival {:.0} fps, in/out {}/{}, pressure {}",
            self.name,
            self.vris.len(),
            self.arrival_rate_fps,
            self.frames_in,
            self.frames_out,
            self.pressure.name()
        )?;
        if self.shed > 0 {
            write!(f, ", admitted/shed {}/{}", self.admitted, self.shed)?;
        }
        for v in &self.vris {
            write!(
                f,
                "\n  {} on {}: load {:.2}, q {}, {}/{} in/out, {} drops{}",
                v.id,
                v.core,
                v.load_estimate,
                v.queue_len,
                v.dispatched,
                v.returned,
                v.dispatch_drops,
                if v.draining { " (draining)" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// The load-aware virtual router monitor.
pub struct Lvrm<C: Clock> {
    config: LvrmConfig,
    clock: C,
    cores: CoreMap,
    /// Maps source subnets to VR indices (route "iface" = VR index).
    classifier: RouteTable,
    vrs: Vec<VrState>,
    /// Σ of the VRs' admission weights, re-summed whenever one changes (the
    /// shedding quota divides by it on every dispatched bucket).
    total_weight: f64,
    next_vri: u32,
    last_alloc_ns: Option<u64>,
    /// Reallocation history for the reaction-time experiment.
    pub realloc_log: Vec<ReallocEvent>,
    /// Supervisor history for the recovery-time experiment.
    pub supervision_log: Vec<SupervisionEvent>,
    /// Metrics registry every counter below publishes into. Shared: clones
    /// of the handle see the same series (scrape endpoints, testbeds).
    registry: MetricsRegistry,
    /// Aggregate counters, as live registry handles ([`Lvrm::stats`] reads
    /// them into an [`LvrmStats`]).
    stats: StatCounters,
    /// Robustness counters outside [`LvrmStats`] (no conservation identity
    /// involves them), incremented by the checkpoint paths.
    checkpoint_writes: Counter,
    checkpoint_rejected: Counter,
    /// The sampled monitor-wide gauges `refresh_registry` sets.
    gauges: MonitorGauges,
    /// One-line structured summary built by each reallocation pass, consumed
    /// via [`Lvrm::take_tick_line`].
    tick_line: Option<String>,
    /// Egress frames rescued from dead or shrunk VRIs, delivered by the next
    /// `poll_egress` (already counted in `frames_out` at rescue time).
    rescued_egress: Vec<Frame>,
    /// VRIs in the drain state across all VRs (O(1) fast-path check).
    draining_count: usize,
    /// Data bursts processed since the last control-relay pass (starvation
    /// guard: see [`CTRL_STARVATION_BURSTS`]).
    bursts_since_ctrl: u32,
    /// Graceful shutdown begun: ingress quiesced, every VRI draining.
    shutting_down: bool,
    /// Restart epoch: 0 on a cold start, `checkpoint.epoch + 1` after a
    /// restore, so counters resumed across a restart are attributable.
    epoch: u32,
    /// When the last periodic checkpoint was written (monitor clock).
    last_checkpoint_ns: Option<u64>,
    /// Cluster node (HA election, shard directory, state stream; DESIGN.md
    /// §13, §15), when attached. Boxed: it carries `dyn PeerLink`s plus
    /// stream state, and most monitors run solo.
    cluster: Option<Box<ClusterNode>>,
    /// Records relayed by the most recent state-update fan-out — the
    /// sibling-book staleness bound in updates (`lvrm_repl_lag_updates`).
    repl_last_fanout_records: u64,
    /// When that fan-out happened (monitor clock), 0 before the first one.
    repl_last_fanout_ns: u64,
    // Scratch buffers reused across calls (no hot-path allocation).
    /// The queue view [`Lvrm::place`] picks over.
    scratch_view: QueueView,
    /// One VR bucket's picks, a slot (or none) a frame.
    scratch_picks: Vec<Option<usize>>,
    scratch_ctrl: Vec<ControlEvent>,
    /// Single-frame burst buffer backing [`Lvrm::ingress`].
    scratch_single: Vec<Frame>,
    /// [`Lvrm::run_burst`]'s ingress burst, and its egress: frames an
    /// adapter refused stay here and go out first on the next burst.
    scratch_ingress: Vec<Frame>,
    scratch_egress: Vec<Frame>,
    /// Per-VR buckets for [`Lvrm::ingress_batch`], indexed by VR.
    scratch_vr_buckets: Vec<VrBucket>,
    /// Per-VRI-slot frame buckets within one VR's burst, one per slot a VR
    /// can have.
    scratch_slot_buckets: Vec<Vec<Frame>>,
    /// A VR's current core set, for NUMA-aware placement in `grow_vr`.
    scratch_cores: Vec<crate::topology::CoreId>,
}

impl<C: Clock> Lvrm<C> {
    pub fn new(config: LvrmConfig, cores: CoreMap, clock: C) -> Lvrm<C> {
        let registry = MetricsRegistry::new();
        let stats = StatCounters::register(&registry);
        let checkpoint_writes = registry.counter(
            "lvrm_checkpoint_writes_total",
            "Control-plane checkpoints written successfully.",
            &[],
        );
        let checkpoint_rejected = registry.counter(
            "lvrm_checkpoint_rejected_total",
            "Checkpoints rejected at restore time (corrupt, truncated, or unreadable).",
            &[],
        );
        register_adapter_families(&registry);
        let gauges = MonitorGauges::register(&registry, &[]);
        registry
            .gauge(
                "lvrm_info",
                "Monitor configuration info (value is always 1).",
                &[
                    ("balancer", config.build_balancer().name()),
                    ("allocator", config.allocator.name()),
                    ("queue", config.queue_kind.as_str()),
                ],
            )
            .set(1.0);
        Lvrm {
            config,
            clock,
            cores,
            classifier: RouteTable::new(),
            vrs: Vec::new(),
            total_weight: 0.0,
            next_vri: 0,
            last_alloc_ns: None,
            realloc_log: Vec::new(),
            supervision_log: Vec::new(),
            registry,
            stats,
            checkpoint_writes,
            checkpoint_rejected,
            gauges,
            tick_line: None,
            rescued_egress: Vec::new(),
            draining_count: 0,
            bursts_since_ctrl: 0,
            shutting_down: false,
            epoch: 0,
            last_checkpoint_ns: None,
            cluster: None,
            repl_last_fanout_records: 0,
            repl_last_fanout_ns: 0,
            scratch_view: QueueView::default(),
            scratch_picks: Vec::new(),
            scratch_ctrl: Vec::new(),
            scratch_single: Vec::new(),
            scratch_ingress: Vec::new(),
            scratch_egress: Vec::new(),
            scratch_vr_buckets: Vec::new(),
            scratch_slot_buckets: std::iter::repeat_with(Vec::new).take(MAX_VRIS_PER_VR).collect(),
            scratch_cores: Vec::new(),
        }
    }

    pub fn config(&self) -> &LvrmConfig {
        &self.config
    }

    pub fn cores(&self) -> &CoreMap {
        &self.cores
    }

    /// VRIs currently live for `vr`.
    pub fn vri_count(&self, vr: VrId) -> usize {
        self.vrs.get(vr.0 as usize).map_or(0, |s| s.vris.len())
    }

    /// Per-VR (frames_in, frames_out).
    pub fn vr_frame_counts(&self, vr: VrId) -> (u64, u64) {
        self.vrs.get(vr.0 as usize).map_or((0, 0), |s| (s.frames_in, s.frames_out))
    }

    /// Per-VRI dispatch counts of `vr` (for balance analysis).
    pub fn vri_dispatch_counts(&self, vr: VrId) -> Vec<u64> {
        self.vrs
            .get(vr.0 as usize)
            .map_or_else(Vec::new, |s| s.vris.iter().map(|v| v.dispatched).collect())
    }

    /// Register a VR with its source subnets and router implementation, and
    /// spawn its first VRI ("LVRM initially allocates one CPU core for the
    /// VR", §4.3), under the config's allocation policy.
    pub fn add_vr(
        &mut self,
        name: impl Into<String>,
        subnets: &[(Ipv4Addr, u8)],
        router: Box<dyn VirtualRouter>,
        host: &mut dyn VriHost,
    ) -> VrId {
        let id = VrId(self.vrs.len() as u32);
        for (prefix, len) in subnets {
            self.classifier.insert(lvrm_router::Route {
                prefix: *prefix,
                len: *len,
                iface: id.0 as u16,
                next_hop: None,
            });
        }
        let name: String = name.into();
        let balancer = self.config.build_balancer();
        let series = VrSeries::register(&self.registry, &[("vr", &name)]);
        let stages = balancer.flow_table_stats().is_some();
        let flow_series = stages.then(|| FlowSeries::register(&self.registry, &[("vr", &name)]));
        let cluster = self.config.cluster.is_some();
        let owned_gauge =
            cluster.then(|| self.registry.gauge(M_VR_OWNED.0, M_VR_OWNED.1, &[("vr", &name)]));
        let ring = self.config.vlink_fabric().then(|| {
            VrRing::new(self.config.effective_shared_ring_capacity(), &self.registry, &name)
        });
        self.registry.push_event(self.clock.now_ns(), format!("vr-added vr={name} id={id}"));
        self.vrs.push(VrState {
            id,
            name,
            router_template: router,
            vris: Vec::new(),
            balancer,
            stages,
            dispatch: self.config.dispatch,
            allocator: self.config.build_allocator(),
            arrival: RateEstimator::new(ARRIVAL_WINDOW_NS, ARRIVAL_WEIGHT),
            frames_in: 0,
            frames_out: 0,
            crash_streak: 0,
            last_crash_ns: 0,
            backoff_until_ns: 0,
            respawn_deficit: 0,
            quarantined: false,
            weight: INITIAL_SHED_WEIGHT,
            pressure: PressureTracker::default(),
            admitted: 0,
            shed: 0,
            shed_credit: 0.0,
            draining: Vec::new(),
            latency: LatencyHistogram::new(),
            series,
            flow_series,
            ring,
            owned: true,
            owned_gauge,
            subnets: subnets.to_vec(),
        });
        self.set_weight(id.0 as usize, INITIAL_SHED_WEIGHT);
        let now = self.clock.now_ns();
        self.grow_vr(id.0 as usize, now, host);
        // "The VR monitor pre-assigns a fixed set of cores to a VR when the
        // VR first starts" (§3.2): satisfy a fixed policy's full request
        // immediately instead of waiting out allocation periods. Dynamic
        // policies see zero load here and hold at one VRI.
        loop {
            let idx = id.0 as usize;
            let view = VrLoadView {
                arrival_rate: self.vrs[idx].arrival.rate_per_sec(),
                service_rate_per_vri: None,
                current_vris: self.vrs[idx].vris.len(),
                pressure: PressureLevel::Normal,
            };
            if self.vrs[idx].allocator.decide(&view) != AllocDecision::Grow {
                break;
            }
            if !self.grow_vr(idx, now, host) {
                break;
            }
        }
        id
    }

    /// Human-readable name of `vr`.
    pub fn vr_name(&self, vr: VrId) -> &str {
        &self.vrs[vr.0 as usize].name
    }

    /// Set `vr`'s admission weight for overload shedding (starts at
    /// `INITIAL_SHED_WEIGHT`, 1). While overloaded, the VR's per-burst admission
    /// quota is `batch_size × weight / Σ weights`.
    pub fn set_vr_weight(&mut self, vr: VrId, weight: f64) {
        assert!(weight.is_finite() && weight > 0.0, "shed weight must be positive and finite");
        self.set_weight(vr.0 as usize, weight);
    }

    /// The one place a VR's weight changes, so `total_weight` stays the sum.
    fn set_weight(&mut self, vr_idx: usize, weight: f64) {
        self.vrs[vr_idx].weight = weight;
        self.total_weight = self.vrs.iter().map(|v| v.weight).sum();
    }

    /// Switch `vr` between flow-pinned and replicated dispatch (DESIGN.md
    /// §14). Rebuilds the VR's balancer for the new mode: `Replicated`
    /// never wraps in flow pinning (any VRI takes any frame), `Pinned`
    /// returns to the configured balancer, flow-based wrap included.
    /// Switching discards the old balancer's flow table — replicated mode
    /// keeps no affinity to lose, and a switch back re-pins flows on their
    /// next frame.
    pub fn set_vr_dispatch(&mut self, vr: VrId, mode: DispatchMode) {
        let state = &mut self.vrs[vr.0 as usize];
        if state.dispatch == mode {
            return;
        }
        state.dispatch = mode;
        state.balancer = self.config.build_balancer_for(mode);
        state.stages = state.balancer.flow_table_stats().is_some();
        if state.flow_series.is_none() && state.stages {
            state.flow_series = Some(FlowSeries::register(&self.registry, &[("vr", &state.name)]));
        }
        self.registry.push_event(
            self.clock.now_ns(),
            format!("vr-dispatch vr={} mode={}", state.name, mode.name()),
        );
    }

    /// Watermark pressure state of `vr` as of its last dispatched burst.
    pub fn vr_pressure(&self, vr: VrId) -> PressureLevel {
        self.vrs.get(vr.0 as usize).map_or(PressureLevel::Normal, |s| s.pressure.level())
    }

    /// Per-VR (admitted, shed) admission counters. For every VR,
    /// `frames_in == admitted + shed` holds exactly.
    pub fn vr_admission_counts(&self, vr: VrId) -> (u64, u64) {
        self.vrs.get(vr.0 as usize).map_or((0, 0), |s| (s.admitted, s.shed))
    }

    /// VRIs of `vr` currently in the drain state.
    pub fn vr_draining_count(&self, vr: VrId) -> usize {
        self.vrs.get(vr.0 as usize).map_or(0, |s| s.draining.len())
    }

    /// Step 2 of the workflow: accept one ingress frame, classify, balance,
    /// dispatch. Also drives the lazy reallocation check. This is the
    /// batch-of-1 case of [`Lvrm::ingress_batch`] — a burst of one frame
    /// runs the identical classify/balance/dispatch sequence.
    pub fn ingress(&mut self, frame: Frame, host: &mut dyn VriHost) {
        let mut single = std::mem::take(&mut self.scratch_single);
        single.push(frame);
        self.ingress_batch(&mut single, host);
        single.clear();
        self.scratch_single = single;
    }

    /// Step 2 of the workflow, batched, as three passes over the burst:
    ///
    /// 1. ask for every frame's header line (the frames of a burst are
    ///    independent, so their cache misses can overlap);
    /// 2. parse each frame's headers **once**, classify its source to a VR
    ///    and move the frame into that VR's bucket; a VR whose balancer keeps
    ///    a flow table also has it staged (the 5-tuple hashed, the line the
    ///    hash selects in the table asked for) and buckets its key beside it;
    /// 3. per VR: refresh the load view once, pick every frame's VRI with one
    ///    [`LoadBalancer::pick_burst`] call, and enqueue with one bulk send
    ///    per VRI (one queue-index publication per VRI per burst): the
    ///    bucket itself when every pick names one VRI, else a run per VRI.
    ///
    /// A serial classify → track → balance chain per frame pays each miss in
    /// turn; cut into stages over a batch, the misses of one stage are all
    /// in flight together (DESIGN.md §5). The lazy reallocation check runs
    /// once per burst; since every frame in the burst shares one clock
    /// reading, that is exactly what the per-frame path would have done (the
    /// pass is rate-limited per §3.2's period).
    ///
    /// `frames` is drained. Frames that fail classification, balancing, or
    /// dispatch are counted in [`Lvrm::stats`] exactly as on the per-frame
    /// path.
    pub fn ingress_batch(&mut self, frames: &mut Vec<Frame>, host: &mut dyn VriHost) {
        if frames.is_empty() {
            return;
        }
        let now = self.clock.now_ns();
        self.stats.frames_in.add(frames.len() as u64);
        if self.shutting_down {
            // Quiesced: no new work enters a dataplane that is emptying out.
            // The frames are still accounted for, so the conservation
            // identity holds through the shutdown window.
            self.stats.shed_early.add(frames.len() as u64);
            frames.clear();
            self.poll_drains(now, host);
            return;
        }

        // Touch. Reading a frame's length already asks for the first line of
        // its block; the headers the next pass parses usually reach into the
        // line after it, so ask for the one their last byte is on.
        for frame in frames.iter() {
            let bytes = frame.bytes();
            if let Some(headers_end) = bytes.get(IngressHeaders::SPAN - 1).or(bytes.last()) {
                prefetch_read(headers_end);
            }
        }

        // Classify by source address ("LVRM inspects the source IP address
        // of the data frame, and determines the VR", §2.1), bucketing the
        // burst per VR.
        self.scratch_vr_buckets.resize_with(self.vrs.len(), VrBucket::default);
        let mut buckets = std::mem::take(&mut self.scratch_vr_buckets);
        let mut any_classified = false;
        for frame in frames.drain(..) {
            let headers = IngressHeaders::parse(frame.bytes());
            let owner = headers
                .and_then(|h| Some((usize::from(self.classifier.lookup(h.src())?.iface), h)));
            match owner {
                Some((vr_idx, h)) => {
                    let (vr, bucket) = (&self.vrs[vr_idx], &mut buckets[vr_idx]);
                    if vr.stages {
                        bucket.flows.push(vr.balancer.stage(&h));
                    }
                    bucket.frames.push(frame);
                    any_classified = true;
                }
                None => self.stats.unclassified.inc(),
            }
        }
        let wm = self.config.watermarks();
        for (vr_idx, bucket) in buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                self.dispatch_bucket(vr_idx, bucket, &wm, now);
            }
        }
        self.scratch_vr_buckets = buckets;

        if self.draining_count > 0 {
            self.poll_drains(now, host);
        }

        // Control starvation guard: a saturated ingress path must not defer
        // control-event relay forever. The paper gives control strict
        // priority inside a VRI; this bounds the monitor side too, even for
        // hosts that only call `process_control` opportunistically.
        self.bursts_since_ctrl = self.bursts_since_ctrl.saturating_add(1);
        if self.bursts_since_ctrl >= CTRL_STARVATION_BURSTS {
            self.process_control();
        }

        // A burst of only-unclassified frames never reached a VR, and the
        // per-frame path returns before the reallocation check in that case.
        if any_classified {
            self.maybe_reallocate(now, host);
        }
    }

    /// Admit one VR's share of a burst and place it ([`Lvrm::place`]),
    /// leaving `bucket` empty: the ownership gate, the arrival record, the
    /// pressure refresh and fair admission run on the queue view the
    /// placement then picks over, and under VLink the bucket goes to the
    /// VR's shared ring instead.
    fn dispatch_bucket(&mut self, vr_idx: usize, bucket: &mut VrBucket, wm: &Watermarks, now: u64) {
        let vr = &mut self.vrs[vr_idx];
        // Fleet ownership gate (DESIGN.md §15): frames classified to a VR
        // another shard owns are shed whole, before admission control. They
        // still book as `frames_in + shed`, so identity (A) holds per VR and
        // `shed_early` keeps the global ledger exact — an unowned VR is just
        // a VR whose admission quota is zero.
        if !vr.owned {
            let n = bucket.len() as u64;
            vr.frames_in += n;
            vr.shed += n;
            self.stats.shed_early.add(n);
            bucket.clear();
            return;
        }
        vr.frames_in += bucket.len() as u64;
        // Arrivals are recorded before admission control: the allocator must
        // see true offered load, or an overloaded VR could never earn the
        // cores that would relieve the overload.
        vr.arrival.record_n(now, bucket.len() as u64);

        let mut worst_occupancy = self.scratch_view.read(&mut vr.vris, now);
        // Under the VLink fabric the shared ring *is* the VR's backlog; its
        // occupancy joins the pressure reading so overload control fires on
        // exactly the queue the frames actually sit in.
        if let Some(ring) = &vr.ring {
            worst_occupancy = worst_occupancy.max(ring.occupancy());
        }
        // Per-burst pressure refresh: one data queue past the high watermark
        // marks the whole VR (JSQ would have spread the backlog first), and
        // the tracker holds the state until the worst queue drains back
        // below the low mark.
        vr.pressure.update(worst_occupancy, wm);

        // Fair admission under overload: an `Overloaded` VR is held to its
        // weighted share of the burst budget, with deficit-round-robin
        // credit carried across bursts so fractional quanta still admit.
        // Excess is shed here, before any balance or dispatch work is spent
        // on frames that would tail-drop anyway.
        if self.config.overload_shedding && vr.pressure.level() == PressureLevel::Overloaded {
            let quantum = self.config.batch_size as f64 * vr.weight / self.total_weight;
            vr.shed_credit = (vr.shed_credit + quantum).min(quantum.max(1.0));
            let allowed = vr.shed_credit as usize;
            if bucket.len() > allowed {
                let over = (bucket.len() - allowed) as u64;
                bucket.truncate(allowed);
                vr.shed += over;
                self.stats.shed_early.add(over);
            }
            vr.shed_credit -= bucket.len() as f64;
        } else {
            vr.shed_credit = 0.0;
        }
        vr.admitted += bucket.len() as u64;

        // VLink work-stealing fabric: publish the whole bucket into the VR's
        // shared ring with one bulk operation instead of JSQ-spreading it
        // across per-VRI queues — the VRIs steal bursts at their own pace, so
        // a burst never serializes behind the slowest instance. With no
        // attached instance the frames drop here, labelled as a placement's
        // unplaced frames would be; what a full ring refuses is a dispatch
        // drop on the ring's series.
        if let Some(ring) = vr.ring.as_mut() {
            if self.scratch_view.full.is_some() {
                let sent = ring.tx.try_send_batch(&mut bucket.frames) as u64;
                ring.enqueued += sent;
                let leftover = bucket.len() as u64;
                if leftover > 0 {
                    ring.drops += leftover;
                    self.stats.dispatch_drops.add(leftover);
                }
            } else {
                charge_unplaced(&self.stats, vr, None, bucket.len() as u64);
            }
            bucket.clear();
            return;
        }
        self.place(vr_idx, bucket, now, Charge::Drops);
    }

    /// Place one VR's bucket on its VRIs over the queue view just read
    /// ([`QueueView::read`]), leaving `bucket` empty: the one way a frame
    /// reaches a VRI queue, for ingress ([`Lvrm::dispatch_bucket`]) and for
    /// reclaimed frames ([`Lvrm::rehome`]) alike. Every frame's VRI is
    /// picked with one [`LoadBalancer::pick_burst`] call, each pick adding a
    /// synthetic +1 to its slot's load so JSQ keeps spreading frames the
    /// estimator has not observed yet (instead of sending the whole burst
    /// to the momentarily-shortest queue). Then one bulk send per VRI: the
    /// bucket itself when every pick names one VRI, else a run per VRI.
    /// Frames no instance takes or a queue refuses are booked by `charge`.
    /// Returns how many frames the queues accepted.
    fn place(&mut self, vr_idx: usize, bucket: &mut VrBucket, now: u64, charge: Charge) -> u64 {
        let (vr, view, stats) = (&mut self.vrs[vr_idx], &mut self.scratch_view, &self.stats);
        self.scratch_picks.clear();
        self.scratch_picks.resize(bucket.len(), None);
        let burst = BurstCtx {
            flows: &bucket.flows,
            vris: &view.vris,
            loads: &mut view.loads,
            valid: &view.valid,
            now_ns: now,
        };
        vr.balancer.pick_burst(burst, &mut self.scratch_picks);
        // One bulk send, leaving `run` empty; what does not fit is booked.
        let send = |vri: &mut VriAdapter, run: &mut Vec<Frame>| {
            let accepted = vri.dispatch_batch(run, now) as u64;
            let refused = run.len() as u64;
            match charge {
                _ if refused == 0 => {}
                // Recorded in the refusing adapter too, so the aggregate
                // stays the sum of the adapters'.
                Charge::Drops => {
                    vri.note_discarded(refused);
                    stats.dispatch_drops.add(refused);
                }
                Charge::ShrinkLost => stats.shrink_lost.add(refused),
            }
            run.clear();
            accepted
        };
        let accepted = match self.scratch_picks.split_first() {
            // Every pick names one VRI: the bucket goes to it as it is.
            Some((&Some(slot), rest)) if rest.iter().all(|&pick| pick == Some(slot)) => {
                send(&mut vr.vris[slot], &mut bucket.frames)
            }
            _ => {
                let mut unplaced = 0;
                for (frame, pick) in bucket.frames.drain(..).zip(&self.scratch_picks) {
                    match *pick {
                        Some(slot) => self.scratch_slot_buckets[slot].push(frame),
                        None => unplaced += 1,
                    }
                }
                match charge {
                    Charge::Drops => charge_unplaced(stats, vr, view.full, unplaced),
                    Charge::ShrinkLost => stats.shrink_lost.add(unplaced),
                }
                let runs = vr.vris.iter_mut().zip(&mut self.scratch_slot_buckets);
                runs.filter(|(_, run)| !run.is_empty()).map(|(vri, run)| send(vri, run)).sum()
            }
        };
        bucket.clear();
        accepted
    }

    /// Steps 3–4: collect frames the VRIs forwarded, appending to `out`.
    /// Returns how many were collected.
    pub fn poll_egress(&mut self, out: &mut Vec<Frame>) -> usize {
        let start = out.len();
        // Frames rescued from dead/shrunk VRIs' egress queues. They were
        // counted in `frames_out` when rescued; deliver without recounting.
        out.append(&mut self.rescued_egress);
        let before = out.len();
        // One clock read per poll bounds the histograms' hot-path cost;
        // rescued frames above are skipped (their departure time is the
        // rescue, not this poll).
        let now = if self.config.latency_histograms { self.clock.now_ns() } else { 0 };
        for vr in &mut self.vrs {
            let vr_before = out.len();
            for vri in &mut vr.vris {
                vri.drain_egress(out);
            }
            // Draining VRIs no longer receive dispatches but keep forwarding
            // until retirement — that is what makes the drain hitless.
            for d in &mut vr.draining {
                d.adapter.drain_egress(out);
            }
            vr.frames_out += (out.len() - vr_before) as u64;
            if now > 0 {
                for f in &out[vr_before..] {
                    if f.ts_ns > 0 && now > f.ts_ns {
                        vr.latency.record(now - f.ts_ns);
                    }
                }
            }
        }
        let n = out.len() - before;
        self.stats.frames_out.add(n as u64);
        out.len() - start
    }

    /// One pass of the monitor loop (§3, Fig. 3.1): the burst `lvrmd` runs
    /// and every caller runs, so the order lives here and nowhere else.
    ///
    /// 1. Unless a cluster peer owns the dataplane ([`Lvrm::ha_accepting`]),
    ///    poll up to `config.batch_size` frames from `nic`, stamp them with
    ///    one reading of the monitor's clock and [`Lvrm::ingress_batch`]
    ///    them.
    /// 2. Advance host time, then adapter time ([`VriHost::advance`],
    ///    [`SocketAdapter::advance`]): planned faults fire, an inline host
    ///    services its VRIs, the adapter supervisor reopens and retries.
    /// 3. Relay control ([`Lvrm::process_control`]) and run the lazy tick
    ///    ([`Lvrm::maybe_reallocate`]: cluster sub-tick, supervisor,
    ///    allocator, checkpoint).
    /// 4. Collect egress ([`Lvrm::poll_egress`]) and send it through `nic`.
    ///    Frames the adapter refuses are kept and go out first on the next
    ///    burst.
    ///
    /// Returns how many frames were collected this burst. Callers keep only
    /// their clock, their stop condition and their own I/O.
    pub fn run_burst(&mut self, nic: &mut dyn SocketAdapter, host: &mut dyn VriHost) -> usize {
        let mut ingress = std::mem::take(&mut self.scratch_ingress);
        if self.ha_accepting()
            && nic.poll_batch(&mut ingress, self.config.batch_size).unwrap_or(0) > 0
        {
            let ts = self.clock.now_ns();
            for f in ingress.iter_mut() {
                f.ts_ns = ts;
            }
            self.ingress_batch(&mut ingress, host);
        }
        self.scratch_ingress = ingress;
        let now = self.clock.now_ns();
        host.advance(now);
        nic.advance(now);
        self.process_control();
        self.maybe_reallocate(now, host);
        let mut egress = std::mem::take(&mut self.scratch_egress);
        let collected = self.poll_egress(&mut egress);
        let _ = nic.send_batch(&mut egress);
        self.scratch_egress = egress;
        collected
    }

    /// Structured point-in-time view of every VR and VRI (for dashboards,
    /// the `lvrmd` daemon, and tests).
    pub fn snapshot(&self) -> Vec<VrSnapshot> {
        self.vrs
            .iter()
            .map(|vr| VrSnapshot {
                id: vr.id,
                name: vr.name.clone(),
                arrival_rate_fps: vr.arrival.rate_per_sec(),
                frames_in: vr.frames_in,
                frames_out: vr.frames_out,
                quarantined: vr.quarantined,
                pressure: vr.pressure.level(),
                admitted: vr.admitted,
                shed: vr.shed,
                flow: vr.balancer.flow_table_stats(),
                vris: vr
                    .vris
                    .iter()
                    .map(|v| (v, false))
                    .chain(vr.draining.iter().map(|d| (&d.adapter, true)))
                    .map(|(v, draining)| VriSnapshot {
                        id: v.id,
                        core: v.core,
                        load_estimate: v.load(),
                        queue_len: v.queue_len(),
                        dispatched: v.dispatched,
                        returned: v.returned,
                        dispatch_drops: v.dispatch_drops,
                        reported_service_rate: v.reported_service_rate,
                        health: v.health,
                        draining,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Whether any VRI has forwarded frames waiting to be collected (used
    /// by polling hosts to decide whether another egress pass is needed).
    /// Draining VRIs count: their egress must flush before retirement.
    pub fn has_pending_egress(&self) -> bool {
        self.vrs.iter().any(|vr| {
            vr.vris.iter().any(|v| v.has_pending_egress())
                || vr.draining.iter().any(|d| d.adapter.has_pending_egress())
        })
    }

    /// Relay control traffic: service-rate reports terminate here; anything
    /// else is forwarded to its destination VRI's incoming control queue
    /// ("a VRI can share control information with other VRIs of the same
    /// VR", §2.1).
    pub fn process_control(&mut self) {
        self.bursts_since_ctrl = 0;
        let now = self.clock.now_ns();
        let mut events = std::mem::take(&mut self.scratch_ctrl);
        events.clear();
        for vr in &mut self.vrs {
            for vri in &mut vr.vris {
                vri.drain_control(&mut events);
            }
            // Control from draining VRIs still flows: the drain is hitless
            // for the control plane too.
            for d in &mut vr.draining {
                d.adapter.drain_control(&mut events);
            }
        }
        for ev in events.drain(..) {
            // Heartbeats terminate at LVRM: pure proof of life.
            if let Some(vri) = decode_heartbeat(&ev) {
                if let Some(adapter) = self.find_vri_mut(vri) {
                    adapter.note_liveness(now);
                }
                continue;
            }
            if let Some((vri, rate)) = decode_service_rate(&ev) {
                if let Some(adapter) = self.find_vri_mut(vri) {
                    adapter.reported_service_rate = Some(rate);
                    adapter.note_liveness(now);
                }
                continue;
            }
            // Any other control event is also proof its source is alive.
            if let Some(adapter) = self.find_vri_mut(VriId(ev.src_vri)) {
                adapter.note_liveness(now);
            }
            // `LVSU` state-update batches are replication traffic: decode
            // once here and fan the records out to the origin's live
            // sibling replicas (DESIGN.md §14) instead of point-to-point
            // relay. Emitted/folded/lost are charged so the fifth identity
            // (`updates_emitted == updates_folded + updates_lost`) holds at
            // every snapshot.
            if crate::repl::is_state_update(&ev.payload) {
                self.fan_out_state_updates(ev, now);
                continue;
            }
            let dst = VriId(ev.dst_vri);
            match self.find_vri_mut(dst) {
                Some(adapter) => match adapter.relay_control(ev) {
                    Ok(()) => self.stats.control_relayed.inc(),
                    Err(_) => self.stats.control_drops.inc(),
                },
                None => self.stats.control_drops.inc(),
            }
        }
        self.scratch_ctrl = events;
    }

    /// Fan one `LVSU` batch out to the origin VRI's live sibling replicas.
    ///
    /// A batch of `k` records with `m` live siblings charges
    /// `updates_emitted += k × m`; each sibling relay then lands in either
    /// `updates_folded` (accepted onto its control queue) or `updates_lost`
    /// (queue full), so the fifth conservation identity is exact by
    /// construction. A batch that fails to decode (corrupt, truncated)
    /// never charges `emitted` and is counted as a control drop. Draining
    /// siblings are skipped: they are leaving the replica set and their
    /// books die with them.
    fn fan_out_state_updates(&mut self, ev: ControlEvent, now: u64) {
        let batch_len = match crate::repl::decode_batch(&ev.payload) {
            Ok((_origin, updates)) => updates.len() as u64,
            Err(_) => {
                self.stats.control_drops.inc();
                return;
            }
        };
        // Replication-lag bookkeeping (ROADMAP item 2): how many records the
        // most recent fan-out carried, and when it ran. Between fan-outs the
        // sibling books are stale by at most this batch plus the elapsed
        // time — the `lvrm_repl_lag_{updates,ns}` gauges.
        self.repl_last_fanout_records = batch_len;
        self.repl_last_fanout_ns = now;
        let origin = VriId(ev.src_vri);
        let Some(vr) = self.vrs.iter_mut().find(|vr| vr.vris.iter().any(|v| v.id == origin)) else {
            // Origin died or drained between emit and fan-out: no sibling
            // set to address, nothing was promised, nothing is lost.
            self.stats.control_drops.inc();
            return;
        };
        let siblings: u64 = vr.vris.iter().filter(|v| v.id != origin).count() as u64;
        self.stats.updates_emitted.add(batch_len * siblings);
        for vri in vr.vris.iter_mut().filter(|v| v.id != origin) {
            let mut copy = ev.clone();
            copy.dst_vri = vri.id.0;
            match vri.relay_control(copy) {
                Ok(()) => {
                    self.stats.updates_folded.add(batch_len);
                    self.stats.control_relayed.inc();
                }
                Err(_) => {
                    self.stats.updates_lost.add(batch_len);
                    self.stats.control_drops.inc();
                }
            }
        }
    }

    fn find_vri_mut(&mut self, id: VriId) -> Option<&mut VriAdapter> {
        self.vrs
            .iter_mut()
            .flat_map(|vr| vr.vris.iter_mut().chain(vr.draining.iter_mut().map(|d| &mut d.adapter)))
            .find(|v| v.id == id)
    }

    /// The VR monitor's allocation pass (Fig. 3.2's `allocate`), rate-limited
    /// to one run per allocation period. Exposed for hosts that want to
    /// drive it on a timer even without traffic.
    pub fn maybe_reallocate(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        // Cluster sub-tick: runs on *every* invocation (the host loop), ahead
        // of the 1 s allocation gate — advert cadence, down detection,
        // promotion and takeover must all be sub-second. Take/put so the
        // node can borrow the monitor mutably for checkpoint build/apply.
        if let Some(mut cluster) = self.cluster.take() {
            cluster.tick(now_ns, self, host);
            self.cluster = Some(cluster);
        }
        if self.shutting_down {
            return; // the only remaining allocation activity is the drain
        }
        match self.last_alloc_ns {
            Some(last) if now_ns.saturating_sub(last) < self.config.allocation_period_ns => return,
            _ => {}
        }
        self.last_alloc_ns = Some(now_ns);

        // The supervisor shares the lazy tick: recover dead VRIs first so
        // the allocator below sees the post-recovery instance counts.
        self.supervise(now_ns, host);
        if self.draining_count > 0 {
            self.poll_drains(now_ns, host);
        }

        let age_budget = self.config.effective_flow_age_budget();
        for idx in 0..self.vrs.len() {
            // Close out elapsed rate windows even for silent VRs.
            self.vrs[idx].arrival.advance(now_ns);
            // Bounded incremental flow aging rides the tick (a no-op for
            // frame-based balancers): O(budget) per tick, never a full
            // table scan, so tick cost is independent of table size.
            // Runs even for quarantined/draining VRs — their idle flows
            // still need to expire.
            self.vrs[idx].balancer.age_flows(now_ns, age_budget);
            // A quarantined VR gets no allocator attention: no grows (it
            // crash-loops) and no shrinks (nothing worth preserving).
            if self.vrs[idx].quarantined {
                continue;
            }
            // A VR mid-drain holds its size until the drain settles; acting
            // on load readings polluted by a retiring instance would flap.
            if !self.vrs[idx].draining.is_empty() {
                continue;
            }
            let view = VrLoadView {
                arrival_rate: self.vrs[idx].arrival.rate_per_sec(),
                service_rate_per_vri: self.vrs[idx].service_rate_per_vri(),
                current_vris: self.vrs[idx].vris.len(),
                pressure: self.vrs[idx].pressure.level(),
            };
            match self.vrs[idx].allocator.decide(&view) {
                AllocDecision::Grow => {
                    self.grow_vr(idx, now_ns, host);
                }
                AllocDecision::Shrink => {
                    self.shrink_vr(idx, false, now_ns, host);
                }
                AllocDecision::Hold => {}
            }
        }

        // One structured line per reallocation tick, for hosts that log it
        // (see `take_tick_line`). Built here so it rides the existing 1 s
        // cadence instead of adding a timer.
        let s = self.stats.read();
        self.tick_line = Some(format!(
            "lvrm-tick ts_ns={} vrs={} vris={} draining={} frames_in={} frames_out={} \
             drops={} shed={} redispatched={} deaths={} respawns={} \
             repl_lag_updates={} repl_lag_ns={}",
            now_ns,
            self.vrs.len(),
            self.vrs.iter().map(|v| v.vris.len()).sum::<usize>(),
            self.draining_count,
            s.frames_in,
            s.frames_out,
            s.loss(),
            s.shed_early,
            s.redispatched,
            s.vri_deaths,
            s.respawns,
            self.repl_last_fanout_records,
            self.repl_lag_ns(now_ns),
        ));

        // Every tick of every debug build is an identity test.
        debug_assert_eq!(self.ledger().check(), Ok(()), "tick {now_ns}: {}", self.ledger());

        // Periodic checkpoint rides the same lazy tick: zero hot-path cost,
        // one serialize + atomic rename per interval.
        self.maybe_checkpoint(now_ns);
    }

    /// Whether `vr` has been quarantined by the supervisor.
    pub fn vr_quarantined(&self, vr: VrId) -> bool {
        self.vrs.get(vr.0 as usize).is_some_and(|s| s.quarantined)
    }

    /// The supervisor pass (run from the same lazy tick as reallocation,
    /// gated on `config.supervision`): reclassify every VRI's health, tear
    /// down the dead ones (rescuing their egress and reclaiming their
    /// in-flight inbound frames), respawn within the backoff budget, and
    /// re-balance reclaimed frames across the survivors. Public so hosts
    /// can drive it directly in tests; production paths reach it through
    /// [`Lvrm::maybe_reallocate`].
    pub fn supervise(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        if !self.config.supervision {
            return;
        }
        let suspect_after = self.config.suspect_after_ns;
        let dead_after = self.config.dead_after_ns;
        for idx in 0..self.vrs.len() {
            // A healthy stretch forgives past crashes.
            if self.vrs[idx].crash_streak > 0
                && !self.vrs[idx].quarantined
                && now_ns.saturating_sub(self.vrs[idx].last_crash_ns) > CRASH_STREAK_RESET_NS
            {
                self.vrs[idx].crash_streak = 0;
            }

            let mut reclaimed = Vec::new();
            let mut slot = 0;
            while slot < self.vrs[idx].vris.len() {
                let prev = self.vrs[idx].vris[slot].health;
                let health =
                    self.vrs[idx].vris[slot].update_health(now_ns, suspect_after, dead_after);
                if health == VriHealth::Dead {
                    let adapter = self.vrs[idx].vris.remove(slot);
                    self.reap_dead_vri(idx, adapter, now_ns, host, &mut reclaimed);
                } else {
                    if health != prev {
                        self.registry.push_event(
                            now_ns,
                            format!(
                                "vri-health vr={} vri={} from={} to={}",
                                self.vrs[idx].name,
                                self.vrs[idx].vris[slot].id,
                                prev.name(),
                                health.name()
                            ),
                        );
                    }
                    slot += 1;
                }
            }

            // Respawn before re-dispatch so a one-off crash recovers within
            // this very tick (first respawn carries no backoff). `grow_vr`
            // absorbs the deficit and logs the respawn, so an allocator that
            // independently refills the VR in the same tick satisfies the
            // same debt instead of provoking an over-grow here later.
            while self.vrs[idx].respawn_deficit > 0
                && !self.vrs[idx].quarantined
                && now_ns >= self.vrs[idx].backoff_until_ns
            {
                if !self.grow_vr(idx, now_ns, host) {
                    break; // no core/memory available; retry next tick
                }
            }

            self.rehome(idx, reclaimed, now_ns, Charge::Drops);
        }
    }

    /// Tear down one dead VRI ([`Lvrm::depart`], its in-flight inbound frames
    /// appended to `reclaimed`) and update the VR's crash records.
    fn reap_dead_vri(
        &mut self,
        idx: usize,
        adapter: VriAdapter,
        now_ns: u64,
        host: &mut dyn VriHost,
        reclaimed: &mut Vec<Frame>,
    ) {
        let vri = adapter.id;
        let vr = &mut self.vrs[idx];
        vr.balancer.purge_vri(vri);
        vr.crash_streak += 1;
        vr.last_crash_ns = now_ns;
        vr.respawn_deficit += 1;
        // First crash respawns immediately; from the second on, exponential
        // backoff doubling per crash, bounded, with ±25% jitter keyed by VR
        // id so VRs that crashed together don't respawn in lockstep.
        let backoff = if vr.crash_streak <= 1 {
            0
        } else {
            let doublings = (vr.crash_streak - 2).min(20);
            let clamped =
                RESPAWN_BACKOFF_NS.saturating_mul(1u64 << doublings).min(RESPAWN_BACKOFF_MAX_NS);
            crate::fault::jittered_backoff(clamped, vr.id.0 as u64, vr.crash_streak as u64)
        };
        vr.backoff_until_ns = now_ns.saturating_add(backoff);
        // Decided before the teardown: a quarantined VR gets no respawn, so
        // its teardown reconciles the frames parked in its shared ring.
        let quarantine = self.config.quarantine_after > 0
            && vr.crash_streak >= self.config.quarantine_after
            && !vr.quarantined;
        vr.quarantined |= quarantine;
        let (got, lost) = self.depart(idx, adapter, Charge::Drops, now_ns, host, reclaimed);
        self.stats.vri_deaths.inc();
        let vr = &self.vrs[idx];
        self.supervision_log.push(SupervisionEvent {
            ts_ns: now_ns,
            vr: vr.id,
            vri,
            action: SupervisionAction::Died { reclaimed: got, lost },
        });
        if quarantine {
            self.registry.push_event(now_ns, format!("vr-quarantined vr={} vri={vri}", vr.name));
            self.supervision_log.push(SupervisionEvent {
                ts_ns: now_ns,
                vr: vr.id,
                vri,
                action: SupervisionAction::Quarantined,
            });
        }
    }

    /// "Destroy VRI adapter" (Fig. 3.2), the one way a VRI leaves: kill its
    /// vehicle, rescue its forwarded frames, reclaim its parked inbound
    /// frames (appended to `reclaimed`), charge what the host could not hand
    /// back by `charge`, fold its counters into the retired sums and release
    /// its core. Returns `(reclaimed, lost)`.
    fn depart(
        &mut self,
        idx: usize,
        mut adapter: VriAdapter,
        charge: Charge,
        now_ns: u64,
        host: &mut dyn VriHost,
        reclaimed: &mut Vec<Frame>,
    ) -> (u64, u64) {
        let vri = adapter.id;
        // Kill first: a vehicle on its own thread keeps servicing until it is
        // joined, and frames it takes after the depth is read would be
        // charged as lost *and* rescued from its egress queue below.
        host.kill_vri(self.vrs[idx].id, vri);
        let queued = adapter.queue_len() as u64;

        // Frames the instance already forwarded reach egress normally.
        let mut rescued = Vec::new();
        adapter.drain_egress(&mut rescued);
        self.vrs[idx].frames_out += rescued.len() as u64;
        self.stats.frames_out.add(rescued.len() as u64);
        self.rescued_egress.append(&mut rescued);

        // Frames still queued toward the instance: drain them back through
        // the balancer if the host can hand the endpoint over, else they
        // died with the vehicle.
        let before = reclaimed.len();
        if let Some(mut endpoint) = host.reap_endpoint(vri) {
            while endpoint.data_rx.try_recv_batch(reclaimed, usize::MAX) > 0 {}
        }
        let got = (reclaimed.len() - before) as u64;
        let lost = queued.saturating_sub(got);
        let (charged, verb) = match charge {
            Charge::Drops => (&self.stats.crash_lost, "died"),
            Charge::ShrinkLost => (&self.stats.shrink_lost, "retired"),
        };
        charged.add(lost);
        self.stats.reclaimed.add(got);
        self.stats.queue_lost.add(lost);
        self.stats.retired_dispatch_drops.add(adapter.dispatch_drops);
        self.stats.retired_dispatched.add(adapter.dispatched);
        self.stats.retired_returned.add(adapter.returned);
        // Both drains are done: freeze the per-instance series at their
        // final values (returned includes the rescued egress above).
        adapter.publish_final();
        let name = &self.vrs[idx].name;
        self.registry.push_event(
            now_ns,
            format!("vri-{verb} vr={name} vri={vri} reclaimed={got} lost={lost}"),
        );
        self.cores.release(adapter.core);
        // With the VR's last instance gone and no respawn coming (the
        // shutdown's retirements, or a quarantined VR), nothing will ever
        // steal from its shared ring: reconcile the parked frames now rather
        // than letting the queued gauge carry them forever. A VR that *will*
        // respawn keeps its ring intact — the replacement steals the
        // backlog, the fabric's "dead VRI loses nothing still queued".
        let vr = &self.vrs[idx];
        if vr.vris.is_empty()
            && vr.draining.is_empty()
            && (charge == Charge::ShrinkLost || vr.quarantined)
        {
            self.drain_stranded_ring(idx, now_ns, charge);
        }
        (got, lost)
    }

    /// Re-place frames reclaimed from a departed VRI on the VR's survivors,
    /// with the reading and placement ingress uses ([`Lvrm::place`]), point
    /// to point even under VLink. Unlike [`Lvrm::dispatch_bucket`] this
    /// records neither `frames_in` nor arrivals — the frames were admitted
    /// once already — and what the survivors accept is `redispatched`.
    /// `charge` books the frames that cannot be rehomed.
    fn rehome(&mut self, vr_idx: usize, frames: Vec<Frame>, now: u64, charge: Charge) {
        if frames.is_empty() {
            return;
        }
        let vr = &mut self.vrs[vr_idx];
        let mut bucket = VrBucket { frames, flows: Vec::new() };
        if vr.stages {
            // Ingress's staging step, on headers parsed again here.
            let stage =
                |f: &Frame| IngressHeaders::parse(f.bytes()).and_then(|h| vr.balancer.stage(&h));
            bucket.flows.extend(bucket.frames.iter().map(stage));
        }
        self.scratch_view.read(&mut vr.vris, now);
        let accepted = self.place(vr_idx, &mut bucket, now, charge);
        self.stats.redispatched.add(accepted);
    }

    /// Resize `vr` to `target` VRIs right now (never below one), bypassing
    /// the load estimators but going through the production grow/shrink
    /// paths — reaction latencies are recorded in [`Lvrm::realloc_log`] as
    /// usual. Manual resize is explicit operator intent, so the VR's own
    /// drains are settled first (their cores and queue-memory budget come
    /// free) and its shrink victims retire at once; other VRs' drains run
    /// on. Used by the Fig. 4.11 reaction-time measurement, by restore and
    /// cold adoption, and by operators who want manual scaling.
    pub fn resize_vr(&mut self, vr: VrId, target: usize, now_ns: u64, host: &mut dyn VriHost) {
        let idx = vr.0 as usize;
        while let Some(d) = self.vrs[idx].draining.pop() {
            self.draining_count -= 1;
            self.retire_vri(idx, d.adapter, now_ns, host);
        }
        while self.vrs[idx].vris.len() < target && self.grow_vr(idx, now_ns, host) {}
        while self.vrs[idx].vris.len() > target.max(1) && self.shrink_vr(idx, true, now_ns, host) {}
    }

    /// Estimated queue memory one VRI's channel fabric reserves: two data
    /// queues of `data_queue_capacity` max-size frames plus two control
    /// queues (each entry conservatively one max frame).
    pub fn vri_queue_memory_estimate(&self) -> usize {
        let per_entry = lvrm_net::wire::MAX_FRAME_WIRE;
        2 * self.config.data_queue_capacity * per_entry
            + 2 * self.config.ctrl_queue_capacity * per_entry
    }

    /// "Create VRI adapter" (Fig. 3.2): queues into shared memory, bind to a
    /// core, add to the VRI list.
    fn grow_vr(&mut self, idx: usize, now_ns: u64, host: &mut dyn VriHost) -> bool {
        if self.vrs[idx].vris.len() >= MAX_VRIS_PER_VR {
            return false;
        }
        if self.config.max_queue_memory_bytes > 0 {
            // Draining VRIs still hold their channel fabric until retired.
            let live: usize = self.vrs.iter().map(|v| v.vris.len() + v.draining.len()).sum();
            if (live + 1) * self.vri_queue_memory_estimate() > self.config.max_queue_memory_bytes {
                return false; // memory budget exhausted (§3.2 extension)
            }
        }
        // NUMA-aware placement: keep a VR's VRIs on the package(s) already
        // hosting it — under the VLink fabric that package is the shared
        // ring's home node, and a cross-socket steal costs a QPI round trip.
        self.scratch_cores.clear();
        self.scratch_cores.extend(self.vrs[idx].vris.iter().map(|v| v.core));
        let near = std::mem::take(&mut self.scratch_cores);
        let allocated = self.cores.allocate_near(&near);
        self.scratch_cores = near;
        let Some(core) = allocated else {
            return false; // every candidate core is taken
        };
        let t0 = self.clock.now_ns();
        let vri = VriId(self.next_vri);
        self.next_vri += 1;
        let (channels, endpoint) = vri_channels_with_ring::<Frame>(
            self.config.queue_kind,
            self.config.data_queue_capacity,
            self.config.ctrl_queue_capacity,
            self.vrs[idx].ring.as_ref().map(|r| r.rx.clone()),
        );
        let mut adapter = VriAdapter::new(vri, core, channels, self.config.build_estimator());
        let labels = [("vr", self.vrs[idx].name.as_str()), ("vri", &vri.to_string())];
        adapter.series = VriSeries::register(&self.registry, &labels);
        // A newborn has not heartbeat yet; give it a full liveness window
        // before the supervisor may judge it.
        adapter.note_liveness(now_ns);
        let router = self.vrs[idx].router_template.spawn_instance();
        host.spawn_vri(VriSpec { vr: self.vrs[idx].id, vri, core }, endpoint, router);
        self.vrs[idx].vris.push(adapter);
        // Any grow on a VR that owes instances to the supervisor counts as
        // the replacement, whether the supervisor or the allocator asked for
        // it — otherwise both paths would refill the same crash and the VR
        // would overshoot its target by one.
        if self.vrs[idx].respawn_deficit > 0 {
            self.vrs[idx].respawn_deficit -= 1;
            self.stats.respawns.inc();
            self.registry.push_event(
                now_ns,
                format!(
                    "vri-respawned vr={} vri={vri} vris={}",
                    self.vrs[idx].name,
                    self.vrs[idx].vris.len()
                ),
            );
            self.supervision_log.push(SupervisionEvent {
                ts_ns: now_ns,
                vr: self.vrs[idx].id,
                vri,
                action: SupervisionAction::Respawned,
            });
        } else {
            self.registry.push_event(
                now_ns,
                format!(
                    "vr-alloc vr={} decision={} vris={}",
                    self.vrs[idx].name,
                    AllocDecision::Grow.name(),
                    self.vrs[idx].vris.len()
                ),
            );
        }
        let latency = self.clock.now_ns().saturating_sub(t0);
        self.realloc_log.push(ReallocEvent {
            ts_ns: now_ns,
            vr: self.vrs[idx].id,
            decision: AllocDecision::Grow,
            latency_ns: latency,
            vris_after: self.vrs[idx].vris.len(),
        });
        true
    }

    /// "Destroy VRI adapter" (Fig. 3.2), hitlessly: the victim leaves the
    /// balance set at once (no new dispatches), but its vehicle keeps
    /// servicing parked frames until the queue empties, the endpoint
    /// detaches, or `config.drain_deadline_ns` elapses — only then is it
    /// retired ([`Lvrm::retire_vri`]). The most recently added VRI goes
    /// first so sibling cores are surrendered last. With `retire` or a zero
    /// deadline the victim is retired in this call (still rehoming its
    /// parked frames), and the logged reaction latency covers it.
    fn shrink_vr(&mut self, idx: usize, retire: bool, now_ns: u64, host: &mut dyn VriHost) -> bool {
        if self.vrs[idx].vris.len() <= 1 && !self.shutting_down {
            return false; // a live VR keeps at least one instance
        }
        if self.vrs[idx].vris.is_empty() {
            return false;
        }
        let t0 = self.clock.now_ns();
        let adapter = self.vrs[idx].vris.pop().expect("len checked");
        let vri = adapter.id;
        self.vrs[idx].balancer.purge_vri(vri);
        self.registry.push_event(
            now_ns,
            format!(
                "vr-alloc vr={} decision={} vri={vri} vris={}",
                self.vrs[idx].name,
                AllocDecision::Shrink.name(),
                self.vrs[idx].vris.len()
            ),
        );
        if retire || self.config.drain_deadline_ns == 0 {
            self.retire_vri(idx, adapter, now_ns, host);
        } else {
            let deadline_ns = now_ns.saturating_add(self.config.drain_deadline_ns);
            self.vrs[idx].draining.push(DrainingVri { adapter, deadline_ns });
            self.draining_count += 1;
        }
        let latency = self.clock.now_ns().saturating_sub(t0);
        self.realloc_log.push(ReallocEvent {
            ts_ns: now_ns,
            vr: self.vrs[idx].id,
            decision: AllocDecision::Shrink,
            latency_ns: latency,
            vris_after: self.vrs[idx].vris.len(),
        });
        true
    }

    /// Retire a drained (or deadline-expired) VRI ([`Lvrm::depart`]) and
    /// rehome its reclaimed frames across the survivors. Only frames
    /// neither rescued nor rehomed count as `shrink_lost` — on the happy
    /// path (queue drained empty) that is zero.
    fn retire_vri(&mut self, idx: usize, adapter: VriAdapter, now_ns: u64, host: &mut dyn VriHost) {
        let mut reclaimed = Vec::new();
        self.depart(idx, adapter, Charge::ShrinkLost, now_ns, host, &mut reclaimed);
        self.rehome(idx, reclaimed, now_ns, Charge::ShrinkLost);
    }

    /// Empty a VR's shared ring once no instance remains to steal from it,
    /// keeping the conservation identities intact: drained frames count as
    /// `reclaimed` (they left the queued gauge alive) and then run through
    /// [`Lvrm::rehome`], which — with no survivors — charges them to the
    /// taxonomy `charge` names. A no-op for VRs without a ring or with the
    /// ring already empty.
    fn drain_stranded_ring(&mut self, idx: usize, now_ns: u64, charge: Charge) {
        let Some(ring) = self.vrs[idx].ring.as_ref() else {
            return;
        };
        let mut frames: Vec<Frame> = Vec::new();
        while ring.rx.try_recv_batch(&mut frames, usize::MAX) > 0 {}
        if frames.is_empty() {
            return;
        }
        let got = frames.len() as u64;
        self.stats.reclaimed.add(got);
        self.registry
            .push_event(now_ns, format!("ring-drained vr={} frames={got}", self.vrs[idx].name));
        self.rehome(idx, frames, now_ns, charge);
    }

    /// Sweep the drain lists and retire every VRI whose queue has emptied,
    /// whose endpoint has detached, or whose deadline has passed. Runs from
    /// ingress bursts and the reallocation tick; hosts may also call it
    /// directly (e.g. the shutdown loop).
    pub fn poll_drains(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        if self.draining_count == 0 {
            return;
        }
        for idx in 0..self.vrs.len() {
            let mut slot = 0;
            while slot < self.vrs[idx].draining.len() {
                let d = &self.vrs[idx].draining[slot];
                let ready = d.adapter.queue_len() == 0
                    || !d.adapter.endpoint_attached()
                    || now_ns >= d.deadline_ns;
                if ready {
                    let d = self.vrs[idx].draining.remove(slot);
                    self.draining_count -= 1;
                    self.retire_vri(idx, d.adapter, now_ns, host);
                } else {
                    slot += 1;
                }
            }
        }
    }

    /// Begin (idempotently) and advance a graceful shutdown: every VRI of
    /// every VR moves to the drain state, new ingress is quiesced (counted
    /// as `shed_early`), and each call sweeps the drains. Returns `true`
    /// once every VRI has been retired — hosts keep running
    /// [`Lvrm::run_burst`] until then (`deadline_ns` is each drain's
    /// forcible-retirement instant).
    pub fn shutdown(&mut self, deadline_ns: u64, host: &mut dyn VriHost) -> bool {
        let now = self.clock.now_ns();
        if !self.shutting_down {
            self.shutting_down = true;
            for idx in 0..self.vrs.len() {
                while let Some(adapter) = self.vrs[idx].vris.pop() {
                    self.vrs[idx].balancer.purge_vri(adapter.id);
                    self.vrs[idx].draining.push(DrainingVri { adapter, deadline_ns });
                    self.draining_count += 1;
                }
            }
        }
        // Relay any last control traffic, then sweep.
        self.process_control();
        self.poll_drains(now, host);
        self.shutdown_complete()
    }

    /// Whether a begun shutdown has fully quiesced (every VRI retired).
    pub fn shutdown_complete(&self) -> bool {
        self.shutting_down && self.draining_count == 0
    }

    /// Whether [`Lvrm::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Aggregate counters, materialized from the live registry handles.
    pub fn stats(&self) -> LvrmStats {
        self.stats.read()
    }

    /// The per-VRI dispatch books: live and draining adapters, each VR's
    /// shared ring, and the totals folded from retired instances.
    ///
    /// Queue depths are read downstream first — egress, then data, then the
    /// ring — so a frame a VRI thread moves along mid-read is counted once
    /// or not at all (it shows as `unreturned`), never twice. Each depth is
    /// computed from its queue's indices and bounded by capacity; the sums
    /// wrap only because the ledger's counters wrap by design.
    fn vri_books(&self) -> VriBooks {
        let mut b = VriBooks {
            dispatched: self.stats.retired_dispatched.get(),
            returned: self.stats.retired_returned.get(),
            dispatch_drops: self.stats.retired_dispatch_drops.get(),
            ..VriBooks::default()
        };
        for vr in &self.vrs {
            for v in vr.vris.iter().chain(vr.draining.iter().map(|d| &d.adapter)) {
                b.dispatched += v.dispatched;
                b.returned += v.returned;
                b.dispatch_drops += v.dispatch_drops;
                b.egress_queued = b.egress_queued.wrapping_add(v.egress_len() as u64);
                b.data_queued = b.data_queued.wrapping_add(v.queue_len() as u64);
            }
            if let Some(ring) = &vr.ring {
                b.dispatched += ring.enqueued;
                b.dispatch_drops += ring.drops;
                b.data_queued = b.data_queued.wrapping_add(ring.rx.len() as u64);
            }
        }
        b
    }

    /// The monitor's books, from live state (see [`Ledger`]).
    pub fn ledger(&self) -> Ledger {
        let mut vrs: Vec<VrBooks> = self
            .vrs
            .iter()
            .map(|vr| VrBooks {
                name: vr.name.clone(),
                frames_in: vr.frames_in,
                admitted: vr.admitted,
                shed: vr.shed,
                owned: vr.owned,
            })
            .collect();
        vrs.sort_by(|a, b| a.name.cmp(&b.name));
        Ledger { stats: self.stats.read(), vrs, vris: self.vri_books() }
    }

    /// The metrics registry every monitor counter publishes into. Clone the
    /// handle to share it with scrape endpoints or log shippers.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mirror the sampled (non-counter) state — queue depths, pressure,
    /// arrival rates, per-VRI series — into the registry. Counters update
    /// live; gauges only move when this runs, so scrapes call it first
    /// (via [`Lvrm::metrics_snapshot`]). Every store goes through a handle
    /// kept since the VR or VRI was added.
    pub fn refresh_registry(&self) {
        for vr in &self.vrs {
            let s = &vr.series;
            s.frames_in.store(vr.frames_in);
            s.frames_out.store(vr.frames_out);
            s.admitted.store(vr.admitted);
            s.shed.store(vr.shed);
            let (sticky, fresh) = vr.balancer.flow_stats();
            s.flow_sticky.store(sticky);
            s.flow_fresh.store(fresh);
            s.latency.store(&vr.latency);
            if let (Some(f), Some(fs)) = (&vr.flow_series, vr.balancer.flow_table_stats()) {
                f.evictions.store(fs.evictions);
                f.overflows.store(fs.overflows);
                f.age_sweep_slots.store(fs.age_sweep_slots);
                f.entries.set(fs.len as f64);
                f.occupancy.set(fs.occupancy());
            }
            s.pressure.set(vr.pressure.level_gauge());
            s.vris.set(vr.vris.len() as f64);
            s.draining.set(vr.draining.len() as f64);
            s.arrival_fps.set(vr.arrival.rate_per_sec());
            s.quarantined.set(if vr.quarantined { 1.0 } else { 0.0 });
            if let Some(g) = &vr.owned_gauge {
                g.set(if vr.owned { 1.0 } else { 0.0 });
            }
            for v in &vr.vris {
                v.publish(false);
            }
            for d in &vr.draining {
                d.adapter.publish(true);
            }
            if let Some(ring) = &vr.ring {
                ring.m_dispatched.store(ring.enqueued);
                ring.m_drops.store(ring.drops);
                ring.m_queue_len.set(ring.rx.len() as f64);
                ring.m_occupancy.set(ring.occupancy());
            }
        }
        let g = &self.gauges;
        let queued = self.vri_books();
        g.data_queued.set(queued.data_queued as f64);
        g.egress_queued.set(queued.egress_queued as f64);
        g.rescued_pending.set(self.rescued_egress.len() as f64);
        g.draining_vris.set(self.draining_count as f64);
        g.vrs.set(self.vrs.len() as f64);
        g.restore_epoch.set(self.epoch as f64);
        g.repl_lag_updates.set(self.repl_last_fanout_records as f64);
        g.repl_lag_ns.set(self.repl_lag_ns(self.clock.now_ns()) as f64);
    }

    /// Refresh the sampled gauges and snapshot the whole registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_registry();
        self.registry.snapshot()
    }

    /// Render the current metrics in Prometheus text exposition format,
    /// straight from the registry (no snapshot in between).
    pub fn render_prometheus(&self) -> String {
        self.refresh_registry();
        self.registry.render_prometheus()
    }

    /// Take (and clear) the structured one-line summary built by the last
    /// reallocation tick, if one fired since the previous call.
    pub fn take_tick_line(&mut self) -> Option<String> {
        self.tick_line.take()
    }

    /// Restart epoch: 0 on a cold start, `checkpoint.epoch + 1` after a
    /// [`Lvrm::restore_from`].
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether this monitor currently owns the dataplane. Solo monitors
    /// and shards without a partner always accept; paired monitors accept
    /// only as the post-probation master. Hosts gate ingress polling on
    /// this.
    pub fn ha_accepting(&self) -> bool {
        self.cluster.as_ref().is_none_or(|c| c.accepting())
    }

    /// Current election role, when a cluster node is attached.
    pub fn ha_role(&self) -> Option<Role> {
        self.cluster.as_ref().map(|c| c.role())
    }

    /// Periodic checkpoint, gated on `config.checkpoint_interval_ns`. Runs
    /// from the lazy reallocation tick so the hot path never pays for it.
    fn maybe_checkpoint(&mut self, now_ns: u64) {
        let Some(path) = self.config.checkpoint_path.clone() else {
            return;
        };
        if let Some(last) = self.last_checkpoint_ns {
            if now_ns.saturating_sub(last) < self.config.checkpoint_interval_ns {
                return;
            }
        }
        self.last_checkpoint_ns = Some(now_ns);
        self.checkpoint_to(&path, now_ns);
    }

    /// Write a checkpoint to `path` now (the SIGHUP / on-demand entry point).
    /// Returns whether the write landed; failures are logged to the event
    /// stream, never fatal — a monitor that cannot checkpoint keeps routing.
    pub fn checkpoint_to(&mut self, path: &Path, now_ns: u64) -> bool {
        let ck = self.build_checkpoint(now_ns);
        match ck.write_atomic(path) {
            Ok(()) => {
                self.checkpoint_writes.inc();
                true
            }
            Err(e) => {
                self.registry.push_event(
                    now_ns,
                    format!("checkpoint-error path={} err={e}", path.display()),
                );
                false
            }
        }
    }

    /// Snapshot the control plane into a [`Checkpoint`].
    ///
    /// Counters are folded **as if every live and draining VRI retired with
    /// total loss**: per-VRI dispatched/returned/drops move into the
    /// `retired_*` aggregates and in-flight frames (data + egress queues)
    /// are charged to both `crash_lost` (drop taxonomy) and `queue_lost`
    /// (dispatch identity). A restore therefore satisfies all four
    /// conservation identities by construction — the frames a restart
    /// genuinely loses are accounted, not wished away.
    pub fn build_checkpoint(&self, now_ns: u64) -> Checkpoint {
        // Every instance (and each shared ring, which folds like one more:
        // a restore starts with a fresh, empty ring) moves into the retired
        // aggregates, its parked frames charged as restart loss.
        let mut stats = self.stats.read();
        let books = self.vri_books();
        stats.retired_dispatched = books.dispatched;
        stats.retired_returned = books.returned;
        stats.retired_dispatch_drops = books.dispatch_drops;
        stats.crash_lost += books.queued();
        stats.queue_lost += books.queued();
        // Affinity is checkpointed against the VRI's *slot* within the VR
        // (ids are not stable across restarts); draining/dead VRIs have left
        // the balance set and their flows are dropped here.
        let mut vrs = Vec::with_capacity(self.vrs.len());
        for vr in &self.vrs {
            let live: Vec<VriId> = vr.vris.iter().map(|v| v.id).collect();
            let flows = vr.balancer.export_flows(&live);
            vrs.push(VrCheckpoint {
                name: vr.name.clone(),
                frames_in: vr.frames_in,
                frames_out: vr.frames_out,
                admitted: vr.admitted,
                shed: vr.shed,
                weight: vr.weight,
                shed_credit: vr.shed_credit,
                crash_streak: vr.crash_streak,
                last_crash_ns: vr.last_crash_ns,
                backoff_until_ns: vr.backoff_until_ns,
                respawn_deficit: vr.respawn_deficit as u32,
                quarantined: vr.quarantined,
                pressure: vr.pressure.level_gauge() as u8,
                vri_slots: vr.vris.len() as u32,
                flows,
            });
        }
        Checkpoint { epoch: self.epoch, ts_ns: now_ns, stats, next_vri: self.next_vri, vrs }
    }

    /// Warm-restart entry point: load `path` and resume from it.
    ///
    /// A rejected checkpoint (corrupt, truncated, unreadable) is **not**
    /// fatal: the monitor logs `checkpoint_rejected`, bumps the counter and
    /// returns the error so the caller can proceed with a cold start.
    /// On success returns the new epoch (`checkpoint.epoch + 1`).
    pub fn restore_from(
        &mut self,
        path: &Path,
        host: &mut dyn VriHost,
    ) -> Result<u32, CheckpointError> {
        let now_ns = self.clock.now_ns();
        match Checkpoint::load(path) {
            Ok(ck) => Ok(self.apply_checkpoint(&ck, now_ns, host)),
            Err(e) => {
                self.checkpoint_rejected.inc();
                self.registry.push_event(
                    now_ns,
                    format!("checkpoint_rejected path={} err={e}", path.display()),
                );
                Err(e)
            }
        }
    }

    /// Bring VR `idx` back from its checkpointed state: frame books,
    /// supervisor and pressure state, VRI population, flow affinity. A
    /// restart (`takeover == false`) makes the VR's books the checkpoint's; a
    /// takeover adds them to this shard's own history with the VR (which shed
    /// the VR's frames while unowned — that stays on the ledger) and takes
    /// ownership.
    fn restore_vr(
        &mut self,
        idx: usize,
        vrck: &VrCheckpoint,
        takeover: bool,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) {
        let vr = &mut self.vrs[idx];
        if takeover {
            vr.owned = true;
        } else {
            (vr.frames_in, vr.frames_out, vr.admitted, vr.shed) = (0, 0, 0, 0);
        }
        vr.frames_in += vrck.frames_in;
        vr.frames_out += vrck.frames_out;
        vr.admitted += vrck.admitted;
        vr.shed += vrck.shed;
        vr.shed_credit = vrck.shed_credit;
        vr.crash_streak = vrck.crash_streak;
        vr.last_crash_ns = vrck.last_crash_ns;
        vr.backoff_until_ns = vrck.backoff_until_ns;
        vr.quarantined = vrck.quarantined;
        vr.pressure = PressureTracker::restore(match vrck.pressure {
            0 => PressureLevel::Normal,
            1 => PressureLevel::Pressured,
            _ => PressureLevel::Overloaded,
        });
        self.set_weight(idx, vrck.weight);
        if !vrck.quarantined {
            // Fewer cores or less memory than the checkpoint had leave it short.
            self.resize_vr(self.vrs[idx].id, vrck.vri_slots as usize, now_ns, host);
        }
        // Restored *after* the population grows back, so the refills above
        // do not absorb the deficit as phantom respawns.
        self.vrs[idx].respawn_deficit = vrck.respawn_deficit as usize;
        for f in vrck.flows.iter() {
            if let Some(v) = self.vrs[idx].vris.get(f.slot as usize) {
                let vri = v.id;
                self.vrs[idx].balancer.import_flow(f.key, vri, f.last_seen_ns);
            }
        }
    }

    /// Resume control-plane state from a decoded checkpoint: counter
    /// baselines, supervisor state, pressure hysteresis, VRI population and
    /// flow affinity. VRs are matched **by name** against the already
    /// re-registered set; checkpointed VRs with no live counterpart are
    /// logged and skipped.
    pub fn apply_checkpoint(
        &mut self,
        ck: &Checkpoint,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> u32 {
        let matched = self.retire_surplus(ck.vrs.iter(), "checkpoint", now_ns, host);
        self.stats.store(&ck.stats);
        self.next_vri = self.next_vri.max(ck.next_vri);
        self.epoch = ck.epoch.wrapping_add(1);
        for (idx, vrck) in matched {
            self.restore_vr(idx, vrck, false, now_ns, host);
        }
        self.registry.push_event(
            now_ns,
            format!("monitor-restored epoch={} checkpoint_ts_ns={}", self.epoch, ck.ts_ns),
        );
        self.epoch
    }

    /// Match checkpointed VRs to live ones by name (logging each with no
    /// live counterpart as `{what}-vr-unmatched`) and retire what each
    /// matched VR holds above its checkpointed population, at least one
    /// VRI, with its drains. This runs before any VR grows back, so the
    /// cores are free, and before the caller imports books: a VRI retired
    /// afterwards would fold counters the imported books no longer hold.
    /// A quarantined VR is neither shrunk nor grown.
    fn retire_surplus<'a>(
        &mut self,
        vrcks: impl Iterator<Item = &'a VrCheckpoint>,
        what: &str,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> Vec<(usize, &'a VrCheckpoint)> {
        let mut matched = Vec::new();
        for vrck in vrcks {
            let Some(idx) = self.vrs.iter().position(|v| v.name == vrck.name) else {
                self.registry.push_event(now_ns, format!("{what}-vr-unmatched vr={}", vrck.name));
                continue;
            };
            if !vrck.quarantined {
                let keep = self.vrs[idx].vris.len().min(vrck.vri_slots as usize);
                self.resize_vr(self.vrs[idx].id, keep, now_ns, host);
            }
            matched.push((idx, vrck));
        }
        matched
    }

    /// After [`Lvrm::apply_checkpoint`] on a monitor that already ran (an HA
    /// node promoted from its shadow): its VRIs' counters belong to the
    /// books just replaced, so they restart from what the VRIs still hold,
    /// and what they hold joins the new books as admitted. It entered this
    /// dataplane and leaves through it.
    pub(crate) fn carry_live_dataplane(&mut self) {
        for vr in &mut self.vrs {
            let mut held = vr.ring.as_ref().map_or(0, |ring| ring.enqueued);
            let ringed = vr.ring.is_some();
            for v in vr.vris.iter_mut().chain(vr.draining.iter_mut().map(|d| &mut d.adapter)) {
                let own = v.dispatched.wrapping_sub(v.returned);
                held = held.wrapping_add(own);
                // Under the fabric the ring dispatches and the VRIs return,
                // so only the ring's series can carry what the VR holds.
                (v.dispatched, v.returned, v.dispatch_drops) = (if ringed { 0 } else { own }, 0, 0);
            }
            if let Some(ring) = vr.ring.as_mut() {
                (ring.enqueued, ring.drops) = (held, 0);
            }
            (vr.frames_in, vr.admitted) = (vr.frames_in + held, vr.admitted + held);
            self.stats.frames_in.add(held);
        }
    }

    // ---- cluster (HA pair and shard fleet, DESIGN.md §13, §15) ---------

    /// Nanoseconds since the most recent state-update fan-out (0 before the
    /// first, or when replication is idle because nothing emitted).
    fn repl_lag_ns(&self, now_ns: u64) -> u64 {
        if self.repl_last_fanout_ns == 0 {
            0
        } else {
            now_ns.saturating_sub(self.repl_last_fanout_ns)
        }
    }

    /// Join the cluster over `links` (`(peer shard id, link)` pairs), using
    /// the knobs in `config.cluster`. Returns `false` (and attaches nothing)
    /// when the config carries no cluster section. A link tagged with this
    /// monitor's own shard leads to its HA partner: the node then starts as
    /// `Backup` and, with no partner on the link, promotes itself after one
    /// master-down interval. Without one it is its shard's master at once.
    ///
    /// Every fleet member declares the same VR universe and calls this with
    /// the same topology, so the version-1 [`ShardMap`] — a rendezvous hash
    /// over the declared VR names — is unanimous without any exchange. VRs
    /// the map assigns elsewhere are immediately disowned: their classified
    /// frames shed at ingress until a takeover re-homes them here.
    pub fn attach_cluster(&mut self, links: Vec<(u32, Box<dyn PeerLink>)>) -> bool {
        let Some(cfg) = self.config.cluster else {
            return false;
        };
        let universe: Vec<(String, Ipv4Addr, u8)> = self
            .vrs
            .iter()
            .map(|vr| {
                let (net, prefix) =
                    vr.subnets.first().copied().unwrap_or((Ipv4Addr::UNSPECIFIED, 0));
                (vr.name.clone(), net, prefix)
            })
            .collect();
        let shards: Vec<u32> = (0..cfg.shards).collect();
        let map = ShardMap::partition(&universe, &shards);
        for vr in &mut self.vrs {
            vr.owned = map.owner_of(&vr.name) == Some(cfg.shard_id);
        }
        let now_ns = self.clock.now_ns();
        self.cluster = Some(Box::new(ClusterNode::new(cfg, map, links, now_ns, &self.registry)));
        self.registry.push_event(
            now_ns,
            format!(
                "cluster-attached shard={} shards={} owned={}",
                cfg.shard_id,
                cfg.shards,
                self.owned_vrs()
            ),
        );
        true
    }

    /// The attached cluster node, if any.
    pub fn cluster(&self) -> Option<&ClusterNode> {
        self.cluster.as_deref()
    }

    /// Mutable access to the attached cluster node (manual failover, tests).
    pub fn cluster_mut(&mut self) -> Option<&mut ClusterNode> {
        self.cluster.as_deref_mut()
    }

    /// VRs this monitor currently owns (all of them outside a fleet). The
    /// per-shard term of the sixth fleet identity:
    /// `Σ owned over shards == vrs declared` at every directory epoch.
    pub fn owned_vrs(&self) -> usize {
        self.vrs.iter().filter(|v| v.owned).count()
    }

    /// Whether the named VR is currently owned (served) by this monitor.
    pub fn vr_owned_by_name(&self, name: &str) -> bool {
        self.vrs.iter().any(|v| v.name == name && v.owned)
    }

    /// Grant or revoke ownership of the named VR. Revocation stops ingress
    /// admission on the next classified burst; the VR's VRIs stay warm so a
    /// later re-grant serves immediately.
    pub fn set_vr_owned_by_name(&mut self, name: &str, owned: bool) {
        if let Some(vr) = self.vrs.iter_mut().find(|v| v.name == name) {
            vr.owned = owned;
        }
    }

    /// Cold-adopt the named VR after a shard takeover with no usable shadow
    /// checkpoint: mark it owned and make sure at least one VRI is up. The
    /// dead shard's in-flight frames were already folded into
    /// `crash_lost`/`queue_lost` when its last checkpoint was built, so the
    /// books the successor starts from are honest — what could not be
    /// recovered is counted as lost, not wished away.
    pub fn adopt_vr_cold(&mut self, name: &str, now_ns: u64, host: &mut dyn VriHost) {
        let Some(idx) = self.vrs.iter().position(|v| v.name == name) else {
            return;
        };
        self.vrs[idx].owned = true;
        if !self.vrs[idx].quarantined {
            self.resize_vr(self.vrs[idx].id, self.vrs[idx].vris.len().max(1), now_ns, host);
        }
    }

    /// Warm-adopt a dead shard's VRs from its last streamed checkpoint.
    ///
    /// Unlike [`Lvrm::apply_checkpoint`] (a restart: the monitor's books
    /// *are* the checkpoint's books), a takeover merges two live histories:
    /// global counters are **added** component-wise — every conservation
    /// identity is a linear equation over the counters, so the sum of two
    /// identity-satisfying states satisfies them too — and only the VRs in
    /// `names` (the share the new map assigns here) are restored. Exactly
    /// one successor per dead shard passes `fold_global = true` (the
    /// rendezvous primary), so the fleet-wide ledger counts the dead
    /// shard's frames exactly once. Returns how many VRs warm-restored.
    pub fn adopt_checkpoint(
        &mut self,
        ck: &Checkpoint,
        names: &[String],
        fold_global: bool,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> usize {
        let mine = ck.vrs.iter().filter(|v| names.contains(&v.name));
        let matched = self.retire_surplus(mine, "takeover", now_ns, host);
        if fold_global {
            self.stats.add(&ck.stats);
        }
        let warm = matched.len();
        for (idx, vrck) in matched {
            self.restore_vr(idx, vrck, true, now_ns, host);
        }
        self.registry.push_event(
            now_ns,
            format!(
                "takeover-adopted vrs={warm} fold_global={fold_global} checkpoint_ts_ns={}",
                ck.ts_ns
            ),
        );
        warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::config::AllocatorKind;
    use crate::host::RecordingHost;
    use crate::topology::{AffinityMode, CoreId, CoreTopology};
    use lvrm_net::FrameBuilder;
    use lvrm_router::FastVr;

    fn subnet(a: u8, b: u8, c: u8) -> (Ipv4Addr, u8) {
        (Ipv4Addr::new(a, b, c, 0), 24)
    }

    fn frame_from(src: [u8; 4]) -> Frame {
        FrameBuilder::new(Ipv4Addr::from(src), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
    }

    fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
        let routes = lvrm_router::parse_map_file("10.0.2.0/24 1\n0.0.0.0/0 1\n").unwrap();
        Box::new(FastVr::new(name, routes))
    }

    fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        Lvrm::new(config, cores, clock)
    }

    #[test]
    fn add_vr_spawns_first_vri_on_sibling_core() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock, LvrmConfig::default());
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        assert_eq!(lvrm.vri_count(vr), 1);
        assert_eq!(host.spawned.len(), 1);
        assert_eq!(host.spawned[0].core, CoreId(1), "first sibling core");
    }

    #[test]
    fn ingress_classifies_by_source_subnet() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock, LvrmConfig::default());
        let mut host = RecordingHost::default();
        let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        lvrm.ingress(frame_from([10, 0, 3, 5]), &mut host);
        lvrm.ingress(frame_from([10, 0, 3, 6]), &mut host);
        lvrm.ingress(frame_from([192, 168, 0, 1]), &mut host); // unclassified
        assert_eq!(lvrm.vr_frame_counts(a).0, 1);
        assert_eq!(lvrm.vr_frame_counts(b).0, 2);
        assert_eq!(lvrm.stats().unclassified, 1);
    }

    #[test]
    fn full_forwarding_workflow() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock, LvrmConfig::default());
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for _ in 0..10 {
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        assert_eq!(host.pump(), 10);
        let mut out = Vec::new();
        assert_eq!(lvrm.poll_egress(&mut out), 10);
        assert!(out.iter().all(|f| f.egress_if == 1));
        assert_eq!(lvrm.vr_frame_counts(vr), (10, 10));
        assert_eq!(lvrm.stats().frames_out, 10);
    }

    #[test]
    fn dynamic_allocation_grows_under_load() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
            ..Default::default()
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        assert_eq!(lvrm.vri_count(vr), 1);
        // Offer ~3000 fps for 3 simulated seconds.
        let mut now = 0u64;
        for _ in 0..9000 {
            now += 333_333;
            clock.set_ns(now);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
            host.pump();
        }
        assert!(
            lvrm.vri_count(vr) >= 3,
            "3000 fps over 1000 fps/core should grow to >=3 VRIs, got {}",
            lvrm.vri_count(vr)
        );
    }

    #[test]
    fn dynamic_allocation_shrinks_when_idle() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
            ..Default::default()
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        // Keep egress drained like the real collect loop would: a full
        // egress queue backpressures the instances and reads as load.
        let mut sink = Vec::new();
        let mut now = 0u64;
        for _ in 0..9000 {
            now += 333_333;
            clock.set_ns(now);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
            host.pump();
            lvrm.poll_egress(&mut sink);
            sink.clear();
        }
        let peak = lvrm.vri_count(vr);
        assert!(peak >= 3);
        // Go almost idle: 10 fps for 5 simulated seconds.
        for _ in 0..50 {
            now += 100_000_000;
            clock.set_ns(now);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
            host.pump();
            lvrm.poll_egress(&mut sink);
            sink.clear();
        }
        assert!(
            lvrm.vri_count(vr) < peak,
            "idle VR should give cores back (peak {peak}, now {})",
            lvrm.vri_count(vr)
        );
        assert!(!host.killed.is_empty());
    }

    #[test]
    fn reallocation_respects_period() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::DynamicFixed { per_core_rate: 1.0 }, // grow-happy
            ..Default::default()
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        // Steady 1 kHz traffic. The allocator wants to grow on every pass
        // (threshold 1 fps), but passes are rate-limited to one per second:
        // the pass at t=0 sees no rate yet, so the first grow can only land
        // once the period has elapsed.
        for i in 0..999 {
            clock.set_ns(i * 1_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        assert_eq!(lvrm.vri_count(vr), 1, "no reallocation inside the 1 s period");
        for i in 999..1100 {
            clock.set_ns(i * 1_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        assert_eq!(lvrm.vri_count(vr), 2, "period elapsed, exactly one grow allowed");
    }

    #[test]
    fn grow_stops_at_core_exhaustion() {
        let clock = ManualClock::new();
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 100 }, ..Default::default() };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for s in 1..20u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        // 8 cores minus LVRM's own = 7 allocatable.
        assert_eq!(lvrm.vri_count(vr), 7);
    }

    #[test]
    fn two_vrs_share_the_core_pool() {
        let clock = ManualClock::new();
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 4 }, ..Default::default() };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
        for s in 1..10u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
            lvrm.ingress(frame_from([10, 0, 3, 5]), &mut host);
        }
        // 7 cores for 2 VRs wanting 4 each: 4 + 3.
        assert_eq!(lvrm.vri_count(a) + lvrm.vri_count(b), 7);
        assert_eq!(lvrm.vri_count(a), 4);
        assert_eq!(lvrm.vri_count(b), 3);
    }

    #[test]
    fn snapshot_reports_live_state() {
        let clock = ManualClock::new();
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 2 }, ..Default::default() };
        let mut lvrm = new_lvrm(clock, config);
        let mut host = RecordingHost::default();
        let _ = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for _ in 0..10 {
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        let snap = lvrm.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "deptA");
        assert_eq!(snap[0].frames_in, 10);
        assert_eq!(snap[0].vris.len(), 2);
        let dispatched: u64 = snap[0].vris.iter().map(|v| v.dispatched).sum();
        assert_eq!(dispatched, 10);
        // Display renders without panicking and mentions the VR name.
        let text = format!("{}", snap[0]);
        assert!(text.contains("deptA"));
    }

    #[test]
    fn memory_budget_caps_growth() {
        let clock = ManualClock::new();
        let mut config = LvrmConfig {
            allocator: AllocatorKind::Fixed { cores: 7 },
            data_queue_capacity: 64,
            ctrl_queue_capacity: 8,
            ..Default::default()
        };
        // Budget for exactly three VRIs' worth of queues.
        let per_vri = {
            let cores =
                CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
            Lvrm::new(config.clone(), cores, ManualClock::new()).vri_queue_memory_estimate()
        };
        config.max_queue_memory_bytes = 3 * per_vri;
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        // Fixed policy wants 7; the budget admits only 3.
        for s in 1..8u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        assert_eq!(lvrm.vri_count(vr), 3, "memory budget must cap the allocation");
    }

    #[test]
    fn realloc_log_records_events() {
        let clock = ManualClock::new();
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 3 }, ..Default::default() };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let _ = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for s in 1..4u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        let grows = lvrm.realloc_log.iter().filter(|e| e.decision == AllocDecision::Grow).count();
        assert_eq!(grows, 3, "initial + two growth events");
        assert_eq!(lvrm.realloc_log.last().unwrap().vris_after, 3);
    }

    const KILL_NS: u64 = 7_000;

    /// A host whose every `kill_vri` takes [`KILL_NS`] of the monitor's clock.
    struct SlowKill(RecordingHost, ManualClock);

    impl VriHost for SlowKill {
        fn spawn_vri(
            &mut self,
            spec: VriSpec,
            endpoint: lvrm_ipc::VriEndpoint<Frame>,
            router: Box<dyn VirtualRouter>,
        ) {
            self.0.spawn_vri(spec, endpoint, router);
        }

        fn kill_vri(&mut self, vr: VrId, vri: VriId) {
            self.1.advance_ns(KILL_NS);
            self.0.kill_vri(vr, vri);
        }
    }

    /// Fig. 4.11's deallocation latency covers the kill whenever the shrink
    /// retires its victim in the same call: a manual resize, or an
    /// allocator shrink with a zero drain deadline. A hitless drain's victim
    /// is retired later, outside the reaction.
    #[test]
    fn shrink_latency_covers_a_retirement_in_the_same_call() {
        for (drain_deadline_ns, idle_shrink_ns) in [(0, KILL_NS), (500_000_000, 0)] {
            let clock = ManualClock::new();
            let allocator = AllocatorKind::Fixed { cores: 1 };
            let config = LvrmConfig { allocator, drain_deadline_ns, ..Default::default() };
            let mut lvrm = new_lvrm(clock.clone(), config);
            let mut host = SlowKill(RecordingHost::default(), clock.clone());
            let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
            lvrm.resize_vr(vr, 3, 0, &mut host);
            lvrm.resize_vr(vr, 2, 0, &mut host);
            let e = lvrm.realloc_log.last().unwrap();
            assert_eq!((e.decision, e.latency_ns), (AllocDecision::Shrink, KILL_NS), "resize");
            // The fixed-1 allocator gives the second core back on its tick.
            clock.advance_ns(1_000_000_000);
            lvrm.maybe_reallocate(clock.now_ns(), &mut host);
            let e = lvrm.realloc_log.last().unwrap();
            assert_eq!((e.decision, e.vris_after), (AllocDecision::Shrink, 1));
            assert_eq!(e.latency_ns, idle_shrink_ns, "drain deadline {drain_deadline_ns}");
        }
    }

    #[test]
    fn balancer_spreads_across_vris() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::Fixed { cores: 3 },
            balancer: crate::config::BalancerKind::RoundRobin,
            ..Default::default()
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for s in 1..4u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        assert_eq!(lvrm.vri_count(vr), 3);
        for _ in 0..297 {
            lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        }
        host.pump();
        let counts = lvrm.vri_dispatch_counts(vr);
        assert_eq!(counts.len(), 3);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 300);
        for c in &counts {
            assert!((95..=105).contains(c), "RR should be near-even: {counts:?}");
        }
    }

    /// The frame mix used by the batch-equivalence tests: two VRs plus
    /// unclassified traffic, deterministic pattern.
    fn mixed_frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| match i % 4 {
                0 | 1 => frame_from([10, 0, 1, (i % 200) as u8]),
                2 => frame_from([10, 0, 3, (i % 200) as u8]),
                _ => frame_from([192, 168, 0, 1]), // matches no VR
            })
            .collect()
    }

    /// Latency-histogram digest and registry event log alongside the
    /// counters, so the equivalence tests can compare observability outputs
    /// too, not just the frame accounting.
    struct MixOutcome {
        stats: LvrmStats,
        a_counts: (u64, u64),
        b_counts: (u64, u64),
        a_dispatch: Vec<u64>,
        /// (count, min, max, p50, p99) of `lvrm_vr_latency_ns{vr="deptA"}`.
        latency_digest: (u64, u64, u64, u64, u64),
        events: Vec<lvrm_metrics::MetricEvent>,
    }

    fn run_mix(batch: usize) -> MixOutcome {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::Fixed { cores: 3 },
            batch_size: batch,
            ..Default::default()
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
        // Let the fixed policy reach its target before traffic starts.
        for s in 1..4u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.maybe_reallocate(clock.now_ns(), &mut host);
        }
        // Stamp frame `j`'s ingress at a fixed offset and poll it back at a
        // deterministic, varying delay so the latency histograms of two runs
        // with the same per-iteration schedule must agree bucket for bucket.
        let base = clock.now_ns();
        let stamp = |j: u64| base + (j + 1) * 10_000;
        let poll_at = |j: u64| stamp(j) + (j % 7 + 1) * 1_000;
        let frames = mixed_frames(600);
        let mut out = Vec::new();
        if batch == 0 {
            // The per-frame entry point (itself a burst of one internally).
            for (j, mut f) in frames.into_iter().enumerate() {
                f.ts_ns = stamp(j as u64);
                clock.set_ns(poll_at(j as u64));
                lvrm.ingress(f, &mut host);
                host.pump();
                lvrm.poll_egress(&mut out);
            }
        } else {
            let mut burst = Vec::new();
            let mut j = 0u64;
            for chunk in frames.chunks(batch) {
                for f in chunk {
                    let mut f = f.clone();
                    f.ts_ns = stamp(j);
                    burst.push(f);
                    j += 1;
                }
                clock.set_ns(poll_at(j - 1));
                lvrm.ingress_batch(&mut burst, &mut host);
                host.pump();
                lvrm.poll_egress(&mut out);
            }
        }
        let snap = lvrm.metrics_snapshot();
        let lat = snap.summary("lvrm_vr_latency_ns", &[("vr", "deptA")]).expect("registered");
        MixOutcome {
            stats: lvrm.stats(),
            a_counts: lvrm.vr_frame_counts(a),
            b_counts: lvrm.vr_frame_counts(b),
            a_dispatch: lvrm.vri_dispatch_counts(a),
            latency_digest: (
                lat.count(),
                lat.min_ns(),
                lat.max_ns(),
                lat.percentile_ns(50.0),
                lat.percentile_ns(99.0),
            ),
            events: snap.events.clone(),
        }
    }

    #[test]
    fn batch_of_one_is_identical_to_per_frame_path() {
        let r1 = run_mix(1);
        let r2 = run_mix(0); // 0 exercises the explicit per-frame loop
        assert_eq!(r1.stats.frames_in, r2.stats.frames_in);
        assert_eq!(r1.stats.frames_out, r2.stats.frames_out);
        assert_eq!(r1.stats.unclassified, r2.stats.unclassified);
        assert_eq!(r1.stats.dispatch_drops, r2.stats.dispatch_drops);
        assert_eq!(r1.stats.no_vri_drops, r2.stats.no_vri_drops);
        assert_eq!(r1.a_counts, r2.a_counts);
        assert_eq!(r1.b_counts, r2.b_counts);
        assert_eq!(r1.a_dispatch, r2.a_dispatch, "per-VRI dispatch counts must match exactly");
        // The observability outputs must agree too: same latency histogram
        // (both paths saw the same ingress stamps and poll times) and the
        // same event log (same spawns, grows, health transitions).
        assert_eq!(r1.latency_digest, r2.latency_digest, "latency histograms must match");
        assert!(r1.latency_digest.0 > 0, "traffic must have recorded latencies");
        assert_eq!(r1.events, r2.events, "registry event logs must match");
        assert!(!r1.events.is_empty(), "vr-added and vr-alloc events expected");
    }

    #[test]
    fn batched_ingress_preserves_aggregate_stats() {
        let per_frame = run_mix(1);
        for batch in [8usize, 32, 256] {
            let r = run_mix(batch);
            assert_eq!(r.stats.frames_in, per_frame.stats.frames_in, "batch {batch}");
            assert_eq!(r.stats.frames_out, per_frame.stats.frames_out, "batch {batch}");
            assert_eq!(r.stats.unclassified, per_frame.stats.unclassified, "batch {batch}");
            assert_eq!(r.stats.dispatch_drops, 0, "batch {batch}");
            assert_eq!(r.stats.no_vri_drops, 0, "batch {batch}");
            assert_eq!(r.a_counts, per_frame.a_counts, "batch {batch}: per-VR accounting");
            assert_eq!(r.b_counts, per_frame.b_counts, "batch {batch}: per-VR accounting");
            // Latencies depend on the poll schedule, not the batch size
            // alone — but every admitted frame must be measured exactly once.
            assert_eq!(r.latency_digest.0, per_frame.latency_digest.0, "batch {batch}");
            assert_eq!(r.events, per_frame.events, "batch {batch}: event log");
        }
    }

    #[test]
    fn batched_jsq_spreads_within_a_burst() {
        let clock = ManualClock::new();
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 3 }, ..Default::default() };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        for s in 1..4u64 {
            clock.set_ns(s * 1_100_000_000);
            lvrm.maybe_reallocate(clock.now_ns(), &mut host);
        }
        assert_eq!(lvrm.vri_count(vr), 3);
        // One big burst: without the within-burst load bump JSQ would pin
        // every frame on one VRI.
        let mut burst: Vec<Frame> =
            (0..300).map(|i| frame_from([10, 0, 1, (i % 200) as u8])).collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        let counts = lvrm.vri_dispatch_counts(vr);
        assert_eq!(counts.iter().sum::<u64>(), 300);
        for c in &counts {
            assert!((95..=105).contains(c), "burst must spread across VRIs: {counts:?}");
        }
    }

    #[test]
    fn service_rate_reports_reach_allocator_view() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), LvrmConfig::default());
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        // Inject a synthetic report through the VRI's control channel.
        let endpoint = host.vris[0].endpoint_mut();
        let vri_id = host.spawned[0].vri;
        endpoint.ctrl_tx.try_send(crate::vri::encode_service_rate(vri_id, 42_000.0)).unwrap();
        lvrm.process_control();
        let state = &lvrm.vrs[vr.0 as usize];
        assert_eq!(state.service_rate_per_vri(), Some(42_000.0));
    }

    /// The flow-table series are looked up when the VR's balancer first
    /// keeps a table, which for a VR that starts replicated is not `add_vr`.
    #[test]
    fn flow_table_series_appear_when_a_vr_turns_flow_based() {
        let config = LvrmConfig {
            flow_based: true,
            dispatch: DispatchMode::Replicated,
            ..Default::default()
        };
        let mut lvrm = new_lvrm(ManualClock::new(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        let labels = [("vr", "deptA")];
        assert_eq!(lvrm.metrics_snapshot().gauge("lvrm_vr_flow_entries", &labels), None);
        lvrm.set_vr_dispatch(vr, DispatchMode::Pinned);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        assert_eq!(lvrm.metrics_snapshot().gauge("lvrm_vr_flow_entries", &labels), Some(1.0));
    }
}
