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

// One file per seam of the impl; each takes this file's imports with
// `use super::*`.
mod books;
mod dataplane;
mod persist;
mod population;

pub use books::{VrSnapshot, VriSnapshot};
pub use population::{ReallocEvent, SupervisionAction, SupervisionEvent};

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

use crate::adapter::{M_ADAPTER_FAILOVERS, M_ADAPTER_REOPENS, M_EGRESS_RETRIES};
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
use books::{register_adapter_families, FlowSeries, MonitorGauges, VrSeries};
use dataplane::{QueueView, VrBucket, VrRing};
use population::DrainingVri;

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

    /// VRIs currently live for `vr`.
    pub fn vri_count(&self, vr: VrId) -> usize {
        self.vrs.get(vr.0 as usize).map_or(0, |s| s.vris.len())
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
}

#[cfg(test)]
mod tests;
