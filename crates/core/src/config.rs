//! LVRM configuration: the paper's policy dimensions (balancer, allocator,
//! estimator, IPC queue, allocation period) and the values some caller —
//! `lvrmd`, the runtime, the testbed, the benchmark — actually sets. A
//! default nobody overrides is a named constant next to the code that
//! reads it, not a field here.

use std::fmt;

use lvrm_ipc::{QueueKind, Watermarks};

use crate::alloc::{CoreAllocator, DynamicFixedThreshold, DynamicServiceRate, FixedAllocator};
use crate::balance::{FlowBased, Jsq, LoadBalancer, RandomBalancer, RoundRobin};
use crate::estimate::{EwmaInterArrival, EwmaQueueLength, LoadEstimator, ESTIMATOR_WEIGHT};
use crate::flowtable::FlowTable;
use crate::monitor::MAX_VRIS_PER_VR;
use crate::topology::AffinityMode;

/// Which load-balancing policy to run (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BalancerKind {
    /// Join-the-shortest-queue (the paper's default; slightly best in §4.4).
    #[default]
    Jsq,
    RoundRobin,
    Random,
}

impl BalancerKind {
    pub const ALL: [BalancerKind; 3] =
        [BalancerKind::Jsq, BalancerKind::RoundRobin, BalancerKind::Random];

    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::Jsq => "jsq",
            BalancerKind::RoundRobin => "rr",
            BalancerKind::Random => "random",
        }
    }
}

/// Which core-allocation policy to run (paper §3.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AllocatorKind {
    /// Pre-assign a fixed number of cores at VR start.
    Fixed { cores: usize },
    /// Dynamic with fixed thresholds: a configured per-core rate (fps).
    DynamicFixed { per_core_rate: f64 },
    /// Dynamic with dynamic thresholds: measured service rates, with a
    /// bootstrap per-core rate until the first measurement.
    DynamicServiceRate { bootstrap_rate: f64 },
}

impl Default for AllocatorKind {
    fn default() -> Self {
        // The paper's default implementation: "LVRM uses dynamic core
        // allocation with fixed thresholds" (§4.1), 60 Kfps per core as in
        // Experiment 2c.
        AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 }
    }
}

impl AllocatorKind {
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Fixed { .. } => "fixed",
            AllocatorKind::DynamicFixed { .. } => "dynamic-fixed",
            AllocatorKind::DynamicServiceRate { .. } => "dynamic-service-rate",
        }
    }
}

/// How a VR's ingress traffic is spread over its VRIs (DESIGN.md §14).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DispatchMode {
    /// Classic dispatch: the configured balancer picks a VRI per frame, and
    /// `flow_based` may pin each flow to one instance. A single flow never
    /// exceeds single-VRI throughput.
    #[default]
    Pinned,
    /// State-Compute Replication (arXiv 2309.14647): any VRI may take any
    /// frame — ingress spreads regardless of flow key — and replicas
    /// reconverge by exchanging compact `StateUpdate` records over the
    /// control-priority queues. Incompatible with `flow_based` pinning.
    Replicated,
}

impl DispatchMode {
    pub const ALL: [DispatchMode; 2] = [DispatchMode::Pinned, DispatchMode::Replicated];

    pub fn name(self) -> &'static str {
        match self {
            DispatchMode::Pinned => "pinned",
            DispatchMode::Replicated => "replicated",
        }
    }
}

impl std::str::FromStr for DispatchMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pinned" => Ok(DispatchMode::Pinned),
            "replicated" => Ok(DispatchMode::Replicated),
            other => Err(format!("unknown dispatch mode {other:?} (pinned|replicated)")),
        }
    }
}

/// Which per-VRI load estimator to run (paper §3.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EstimatorKind {
    /// EWMA of the incoming data queue length (the paper's default).
    #[default]
    QueueLength,
    /// EWMA of dispatch inter-arrival times, as a rate.
    InterArrival,
}

/// Cluster knobs (DESIGN.md §13, §15): this monitor is one shard of an
/// N-shard fleet and, once a link to its own shard is attached, one node
/// of that shard's active/standby pair — an HA pair is a one-shard fleet.
/// Lives in [`LvrmConfig::cluster`]; the links are supplied separately via
/// `Lvrm::attach_cluster` — config carries policy, the host carries wiring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// This monitor's shard index, `0 <= shard_id < shards`.
    pub shard_id: u32,
    /// Fleet size: how many shards partition the VR space.
    pub shards: u32,
    /// Names this node: breaks ties between equal priorities (RFC 5798
    /// breaks them on IP address; the testbed has none) and identifies the
    /// sender of a state stream. Must differ between the two nodes of a
    /// pair.
    pub node_id: u64,
    /// VRRP priority within the shard, 1–254 (0 is the on-wire "resigning"
    /// sentinel and 255 the RFC's address-owner value — both reserved).
    /// Higher wins; preemption is always on.
    pub priority: u8,
    /// Advert spacing. A partner is down after `3 × advert + skew` (RFC
    /// 5798 master-down: ≈ 361 ms at the 100 ms default and priority 100)
    /// and another shard after `6 × advert` plus seeded jitter — twice the
    /// HA budget, so a pair fails over before the fleet buries its shard.
    pub advert_interval_ns: u64,
    /// State-stream spacing: the shard's master diffs its control plane
    /// against the last checkpoint it streamed and sends the
    /// [`crate::checkpoint::CheckpointDelta`] on every link this often.
    pub stream_interval_ns: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shard_id: 0,
            shards: 1,
            node_id: 1,
            priority: 100,
            advert_interval_ns: 100_000_000, // 100 ms
            stream_interval_ns: 500_000_000, // 500 ms
        }
    }
}

impl ClusterConfig {
    /// RFC 5798 skew time: `(256 − priority) / 256 × advert_interval`.
    /// Higher priority ⇒ shorter skew ⇒ faster takeover.
    pub fn skew_ns(&self) -> u64 {
        (256 - self.priority as u64) * self.advert_interval_ns / 256
    }

    /// RFC 5798 master-down interval: `3 × advert_interval + skew`.
    pub fn master_down_ns(&self) -> u64 {
        3 * self.advert_interval_ns + self.skew_ns()
    }

    /// Base shard-down interval: `6 × advert_interval`. The node adds a
    /// seeded jitter per peer on top (see `crate::cluster`), so
    /// co-detecting shards do not stampede the takeover path in lockstep.
    pub fn shard_down_ns(&self) -> u64 {
        6 * self.advert_interval_ns
    }

    /// Directory quorum: strict majority of the configured fleet size.
    pub fn quorum(&self) -> u32 {
        self.shards / 2 + 1
    }
}

/// Full LVRM configuration. `Default` matches the paper's defaults (§4.1):
/// PF_RING-style transport is the host's concern; here it is the lock-free
/// Lamport queue, dynamic fixed-threshold allocation, and frame-based JSQ.
#[derive(Clone, Debug)]
pub struct LvrmConfig {
    /// IPC queue implementation (§3.5).
    pub queue_kind: QueueKind,
    /// Data-queue capacity per direction per VRI, frames.
    pub data_queue_capacity: usize,
    /// Control-queue capacity per direction per VRI, events.
    pub ctrl_queue_capacity: usize,
    /// Capacity of the per-VR shared ingress ring under the VLink fabric
    /// (`queue_kind = vlink`, frame-based balancing), frames. `0` sizes it
    /// automatically at 4 × `data_queue_capacity` so a VR-wide burst never
    /// outruns what its per-VRI queues could have absorbed combined; at most
    /// `MAX_VRIS_PER_VR × data_queue_capacity`, all of those queues together.
    pub shared_ring_capacity: usize,
    /// Load-balancing policy.
    pub balancer: BalancerKind,
    /// Wrap the balancer in flow-based connection tracking.
    pub flow_based: bool,
    /// Default dispatch mode for new VRs (per-VR override via
    /// `Lvrm::set_vr_dispatch`). `Replicated` spreads every frame across a
    /// VR's VRIs and replicates per-flow state updates between them.
    pub dispatch: DispatchMode,
    /// Flow-table slots (flow-based only).
    pub flow_table_capacity: usize,
    /// Idle flows expire after this long (flow-based only).
    pub flow_timeout_ns: u64,
    /// Flow-table slots the incremental aging sweep may visit per 1 s tick
    /// (flow-based only). `0` = auto: `flow_table_capacity / 8`, floor 64 —
    /// a full sweep roughly every 8 ticks with tick cost independent of
    /// table size. See [`LvrmConfig::effective_flow_age_budget`].
    pub flow_age_budget: usize,
    /// Core-allocation policy.
    pub allocator: AllocatorKind,
    /// Per-VRI load estimator.
    pub estimator: EstimatorKind,
    /// Minimum spacing between core reallocation passes — the paper's
    /// 1-second period ("we set the period to be 1 second, while this
    /// parameter is tunable", §3.2).
    pub allocation_period_ns: u64,
    /// Core-affinity policy (§3.2's sibling-first heuristic by default).
    pub affinity: AffinityMode,
    /// Ingress/dispatch/egress burst size for the batched dataplane. Frames
    /// are classified, balanced, and enqueued in bursts of up to this many,
    /// with queue indices published once per burst. `1` reproduces the
    /// per-frame dataplane exactly (same stats, same dispatch order).
    pub batch_size: usize,
    /// Upper bound on the estimated queue memory of all live VRIs, bytes
    /// (0 = unlimited). This is the §3.2 extensibility hook — "to extend via
    /// the function call setrlimit() with other resource managements such as
    /// the memory management" — realized as an admission check: a grow that
    /// would exceed the budget is refused.
    pub max_queue_memory_bytes: usize,
    /// Seed for the random balancer (reproducible experiments).
    pub seed: u64,
    /// Run the VRI supervisor from the reallocation tick: detect dead or
    /// stalled instances, re-dispatch their in-flight frames, respawn with
    /// backoff, quarantine crash-looping VRs. Off by default — hosts that
    /// never pump heartbeats would otherwise see every VRI as dead.
    pub supervision: bool,
    /// A VRI silent for this long is marked suspect (reported, not acted on).
    pub suspect_after_ns: u64,
    /// A VRI silent for this long is declared dead and recovered. Must
    /// comfortably exceed the adapters' 100 ms heartbeat period.
    pub dead_after_ns: u64,
    /// Quarantine a VR after this many consecutive crashes (0 = never).
    pub quarantine_after: u32,
    /// Low occupancy watermark on the per-VRI data queues, as a fraction of
    /// capacity. A VR's pressure state only returns to `Normal` once every
    /// queue has drained back to this mark (hysteresis).
    pub low_watermark: f64,
    /// High occupancy watermark: a queue at or above this fraction marks its
    /// VR `Overloaded`.
    pub high_watermark: f64,
    /// Shed excess frames at ingress-classification time when a VR is
    /// `Overloaded`, by per-VR weighted quota (deficit round-robin across
    /// bursts). Off by default: without it dispatch degrades to pure
    /// tail-drop at whichever queue fills first, as before.
    pub overload_shedding: bool,
    /// How long a shrink victim may keep servicing its parked frames before
    /// it is forcibly retired and the leftovers re-homed through the
    /// balancer. `0` retires immediately (still re-homing, never silently
    /// discarding).
    pub drain_deadline_ns: u64,
    /// Record per-VR dispatch→departure latency histograms in `poll_egress`
    /// (one clock read per call plus ~5 relaxed atomic ops per frame). On by
    /// default; the overhead experiment in EXPERIMENTS.md toggles this.
    pub latency_histograms: bool,
    /// Write a control-plane checkpoint here from the lazy reallocation tick
    /// (warm restart, DESIGN.md §10). `None` disables checkpointing.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Minimum spacing between periodic checkpoint writes.
    pub checkpoint_interval_ns: u64,
    /// Cluster knobs: HA pair and shard fleet. `None` (the default) runs a
    /// single monitor owning every VR; `Some` arms the cluster node once
    /// links are attached (`Lvrm::attach_cluster`).
    pub cluster: Option<ClusterConfig>,
}

/// A statically-invalid [`LvrmConfig`], caught by [`LvrmConfig::validate`]
/// before any queue or VRI is built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// Watermarks must satisfy `0 < low < high <= 1`.
    Watermarks { low: f64, high: f64 },
    /// Data- and control-queue capacities must be nonzero (the SPSC rings
    /// assert this much deeper, at split time).
    QueueCapacity { data: usize, ctrl: usize },
    /// The dataplane burst size must be at least 1.
    BatchSize,
    /// The allocation policy's constructor would refuse this payload: a
    /// fixed allocation needs at least one core, a dynamic one a finite
    /// positive rate.
    Allocator { kind: AllocatorKind },
    /// Under the VLink fabric the shared ring may hold at most what all of
    /// a VR's per-VRI queues could together (`MAX_VRIS_PER_VR ×
    /// data_queue_capacity`).
    SharedRingCapacity { capacity: usize, max: usize },
    /// The checkpoint interval must be nonzero when a checkpoint path is set.
    CheckpointInterval,
    /// HA priority must be 1–254 (0 and 255 are reserved by RFC 5798).
    HaPriority { priority: u8 },
    /// Replicated dispatch spreads frames regardless of flow key, which
    /// flow-based pinning contradicts: the two cannot both be the default.
    ReplicatedFlowPinned,
    /// The shard topology must satisfy `shard_id < shards` and `shards >= 1`.
    ShardTopology { shard_id: u32, shards: u32 },
    /// Cluster advert and stream intervals must be nonzero.
    ClusterIntervals { advert_ns: u64, stream_ns: u64 },
    /// A flow table may have at most `FlowTable::MAX_CAPACITY` (2^31)
    /// slots, 64 GiB of them; a larger one would fail to map.
    FlowTableCapacity { capacity: usize, max: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Watermarks { low, high } => {
                write!(f, "watermarks must satisfy 0 < low < high <= 1, got low={low} high={high}")
            }
            ConfigError::QueueCapacity { data, ctrl } => {
                write!(f, "queue capacities must be nonzero, got data={data} ctrl={ctrl}")
            }
            ConfigError::BatchSize => write!(f, "batch size must be at least 1"),
            ConfigError::Allocator { kind } => {
                let needs = match kind {
                    AllocatorKind::Fixed { .. } => "at least one core",
                    _ => "a finite positive rate",
                };
                write!(f, "allocator {} needs {needs}, got {kind:?}", kind.name())
            }
            ConfigError::SharedRingCapacity { capacity, max } => {
                write!(f, "shared ring capacity must be at most {max} frames, got {capacity}")
            }
            ConfigError::CheckpointInterval => {
                write!(f, "checkpoint interval must be nonzero when a checkpoint path is set")
            }
            ConfigError::HaPriority { priority } => {
                write!(f, "ha priority must be 1-254 (RFC 5798 reserves 0 and 255), got {priority}")
            }
            ConfigError::ReplicatedFlowPinned => {
                write!(f, "replicated dispatch is incompatible with flow_based pinning")
            }
            ConfigError::ShardTopology { shard_id, shards } => {
                write!(f, "shard topology must satisfy shard_id < shards >= 1, got shard_id={shard_id} shards={shards}")
            }
            ConfigError::ClusterIntervals { advert_ns, stream_ns } => {
                write!(
                    f,
                    "cluster advert and stream intervals must be nonzero, got advert={advert_ns} stream={stream_ns}"
                )
            }
            ConfigError::FlowTableCapacity { capacity, max } => {
                write!(f, "flow table capacity must be at most {max} slots, got {capacity}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for LvrmConfig {
    fn default() -> Self {
        LvrmConfig {
            queue_kind: QueueKind::Lamport,
            data_queue_capacity: 1024,
            ctrl_queue_capacity: 64,
            shared_ring_capacity: 0,
            balancer: BalancerKind::Jsq,
            flow_based: false,
            dispatch: DispatchMode::Pinned,
            flow_table_capacity: 4096,
            flow_timeout_ns: 30_000_000_000, // 30 s
            flow_age_budget: 0,              // auto
            allocator: AllocatorKind::default(),
            estimator: EstimatorKind::QueueLength,
            allocation_period_ns: 1_000_000_000, // 1 s
            affinity: AffinityMode::SiblingFirst,
            batch_size: 1,
            max_queue_memory_bytes: 0,
            seed: 0x1a2b3c4d,
            supervision: false,
            suspect_after_ns: 300_000_000, // 300 ms
            dead_after_ns: 1_000_000_000,  // 1 s
            quarantine_after: 5,
            low_watermark: 0.25,
            high_watermark: 0.75,
            overload_shedding: false,
            drain_deadline_ns: 500_000_000, // 500 ms
            latency_histograms: true,
            checkpoint_path: None,
            checkpoint_interval_ns: 1_000_000_000, // 1 s
            cluster: None,
        }
    }
}

impl LvrmConfig {
    /// Check the statically-checkable invariants, returning the first
    /// violation as a typed error. Call this at the edges (`lvrmd` config
    /// parse, testbed scenario build) so a bad config fails with a message
    /// instead of panicking deep inside queue construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.data_queue_capacity == 0 || self.ctrl_queue_capacity == 0 {
            return Err(ConfigError::QueueCapacity {
                data: self.data_queue_capacity,
                ctrl: self.ctrl_queue_capacity,
            });
        }
        if self.batch_size == 0 {
            return Err(ConfigError::BatchSize);
        }
        let (low, high) = (self.low_watermark, self.high_watermark);
        if !(low.is_finite() && high.is_finite() && 0.0 < low && low < high && high <= 1.0) {
            return Err(ConfigError::Watermarks { low, high });
        }
        let allocator_ok = match self.allocator {
            AllocatorKind::Fixed { cores } => cores > 0,
            AllocatorKind::DynamicFixed { per_core_rate: rate }
            | AllocatorKind::DynamicServiceRate { bootstrap_rate: rate } => {
                rate.is_finite() && rate > 0.0
            }
        };
        if !allocator_ok {
            return Err(ConfigError::Allocator { kind: self.allocator });
        }
        let max = MAX_VRIS_PER_VR.saturating_mul(self.data_queue_capacity);
        if self.vlink_fabric() && self.effective_shared_ring_capacity() > max {
            return Err(ConfigError::SharedRingCapacity {
                capacity: self.effective_shared_ring_capacity(),
                max,
            });
        }
        if self.checkpoint_path.is_some() && self.checkpoint_interval_ns == 0 {
            return Err(ConfigError::CheckpointInterval);
        }
        if self.dispatch == DispatchMode::Replicated && self.flow_based {
            return Err(ConfigError::ReplicatedFlowPinned);
        }
        let max = FlowTable::MAX_CAPACITY;
        if self.flow_based && self.flow_table_capacity > max {
            return Err(ConfigError::FlowTableCapacity { capacity: self.flow_table_capacity, max });
        }
        if let Some(c) = &self.cluster {
            if c.shards == 0 || c.shard_id >= c.shards {
                return Err(ConfigError::ShardTopology { shard_id: c.shard_id, shards: c.shards });
            }
            if c.priority == 0 || c.priority == 255 {
                return Err(ConfigError::HaPriority { priority: c.priority });
            }
            if c.advert_interval_ns == 0 || c.stream_interval_ns == 0 {
                return Err(ConfigError::ClusterIntervals {
                    advert_ns: c.advert_interval_ns,
                    stream_ns: c.stream_interval_ns,
                });
            }
        }
        Ok(())
    }

    /// The configured data-queue watermarks.
    pub fn watermarks(&self) -> Watermarks {
        Watermarks::new(self.low_watermark, self.high_watermark)
    }

    /// Whether this configuration runs the VLink work-stealing fabric: a
    /// shared per-VR MPMC ingress ring instead of per-VRI JSQ spreading.
    /// Flow-based balancing opts back into per-VRI dispatch (the flow table
    /// pins flows to instances, which a shared ring cannot honor), so the
    /// fabric engages only for frame-based configs.
    pub fn vlink_fabric(&self) -> bool {
        self.queue_kind == QueueKind::VLink && !self.flow_based
    }

    /// Per-tick flow-aging slot budget: the explicit knob, or the
    /// `flow_table_capacity / 8` (floor 64) auto default when left at `0`.
    /// With the default 1 s tick a full sweep finishes in ≈8 s, well inside
    /// the 30 s flow timeout, while the tick's aging cost stays O(budget).
    pub fn effective_flow_age_budget(&self) -> usize {
        if self.flow_age_budget > 0 {
            self.flow_age_budget
        } else {
            (self.flow_table_capacity / 8).max(64)
        }
    }

    /// The shared ring's capacity in frames: the explicit knob, or the
    /// 4 × `data_queue_capacity` auto default when left at `0`.
    pub fn effective_shared_ring_capacity(&self) -> usize {
        if self.shared_ring_capacity > 0 {
            self.shared_ring_capacity
        } else {
            self.data_queue_capacity * 4
        }
    }

    /// Instantiate the configured balancer.
    pub fn build_balancer(&self) -> Box<dyn LoadBalancer> {
        self.build_balancer_for(self.dispatch)
    }

    /// Instantiate the balancer for one VR's dispatch mode: a replicated VR
    /// never wraps in [`FlowBased`] (any instance may take any frame), a
    /// pinned VR follows the `flow_based` knob.
    pub fn build_balancer_for(&self, mode: DispatchMode) -> Box<dyn LoadBalancer> {
        macro_rules! wrap {
            ($inner:expr) => {
                if self.flow_based && mode == DispatchMode::Pinned {
                    Box::new(FlowBased::new($inner, self.flow_table_capacity, self.flow_timeout_ns))
                        as Box<dyn LoadBalancer>
                } else {
                    Box::new($inner) as Box<dyn LoadBalancer>
                }
            };
        }
        match self.balancer {
            BalancerKind::Jsq => wrap!(Jsq),
            BalancerKind::RoundRobin => wrap!(RoundRobin::default()),
            BalancerKind::Random => wrap!(RandomBalancer::new(self.seed)),
        }
    }

    /// Instantiate the configured allocator.
    pub fn build_allocator(&self) -> Box<dyn CoreAllocator> {
        match self.allocator {
            AllocatorKind::Fixed { cores } => Box::new(FixedAllocator::new(cores)),
            AllocatorKind::DynamicFixed { per_core_rate } => {
                Box::new(DynamicFixedThreshold::new(per_core_rate))
            }
            AllocatorKind::DynamicServiceRate { bootstrap_rate } => {
                Box::new(DynamicServiceRate::new(bootstrap_rate))
            }
        }
    }

    /// Instantiate the configured load estimator.
    pub fn build_estimator(&self) -> Box<dyn LoadEstimator> {
        match self.estimator {
            EstimatorKind::QueueLength => Box::new(EwmaQueueLength::new(ESTIMATOR_WEIGHT)),
            EstimatorKind::InterArrival => Box::new(EwmaInterArrival::new(ESTIMATOR_WEIGHT)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LvrmConfig::default();
        assert_eq!(c.queue_kind, QueueKind::Lamport);
        assert_eq!(c.balancer, BalancerKind::Jsq);
        assert!(!c.flow_based);
        assert_eq!(c.allocation_period_ns, 1_000_000_000);
        assert_eq!(c.batch_size, 1, "per-frame dataplane by default");
        assert!(!c.supervision, "supervision is opt-in");
        assert!(c.dead_after_ns > c.suspect_after_ns);
        assert!(
            matches!(c.allocator, AllocatorKind::DynamicFixed { per_core_rate } if per_core_rate == 60_000.0)
        );
    }

    #[test]
    fn default_config_validates() {
        let c = LvrmConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert!(!c.overload_shedding, "shedding is opt-in");
        assert!(c.low_watermark < c.high_watermark);
    }

    #[test]
    fn validate_rejects_each_invariant() {
        let base = LvrmConfig::default;

        let c = LvrmConfig { data_queue_capacity: 0, ..base() };
        assert!(matches!(c.validate(), Err(ConfigError::QueueCapacity { data: 0, .. })));
        let c = LvrmConfig { ctrl_queue_capacity: 0, ..base() };
        assert!(matches!(c.validate(), Err(ConfigError::QueueCapacity { ctrl: 0, .. })));

        let c = LvrmConfig { batch_size: 0, ..base() };
        assert_eq!(c.validate(), Err(ConfigError::BatchSize));

        for (low, high) in
            [(0.75, 0.25), (0.5, 0.5), (0.0, 0.5), (0.25, 1.5), (f64::NAN, 0.5), (0.25, f64::NAN)]
        {
            let c = LvrmConfig { low_watermark: low, high_watermark: high, ..base() };
            assert!(
                matches!(c.validate(), Err(ConfigError::Watermarks { .. })),
                "low={low} high={high} should be rejected"
            );
        }

        // Each payload the allocator's constructor would refuse.
        let nan = f64::NAN;
        for kind in [
            AllocatorKind::Fixed { cores: 0 },
            AllocatorKind::DynamicFixed { per_core_rate: 0.0 },
            AllocatorKind::DynamicFixed { per_core_rate: -1.0 },
            AllocatorKind::DynamicFixed { per_core_rate: nan },
            AllocatorKind::DynamicFixed { per_core_rate: f64::INFINITY },
            AllocatorKind::DynamicServiceRate { bootstrap_rate: 0.0 },
            AllocatorKind::DynamicServiceRate { bootstrap_rate: nan },
        ] {
            let c = LvrmConfig { allocator: kind, ..base() };
            assert!(matches!(c.validate(), Err(ConfigError::Allocator { .. })), "{kind:?}");
        }
        let c = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 1 }, ..base() };
        assert_eq!(c.validate(), Ok(()));

        // The shared ring may hold what all of a VR's per-VRI queues could.
        let max = MAX_VRIS_PER_VR * base().data_queue_capacity;
        let vlink = |ring: usize| LvrmConfig {
            queue_kind: QueueKind::VLink,
            shared_ring_capacity: ring,
            ..base()
        };
        assert_eq!(
            vlink(max + 1).validate(),
            Err(ConfigError::SharedRingCapacity { capacity: max + 1, max })
        );
        assert!(matches!(
            vlink(usize::MAX).validate(),
            Err(ConfigError::SharedRingCapacity { .. })
        ));
        assert_eq!(vlink(max).validate(), Ok(()));
        assert_eq!(vlink(0).validate(), Ok(()), "the auto size fits");
        // A ring that is never built (per-VRI queues) is not checked.
        assert_eq!(LvrmConfig { shared_ring_capacity: usize::MAX, ..base() }.validate(), Ok(()));

        let c = LvrmConfig {
            checkpoint_path: Some("lvrm.ck".into()),
            checkpoint_interval_ns: 0,
            ..base()
        };
        assert_eq!(c.validate(), Err(ConfigError::CheckpointInterval));
        // Interval 0 is fine while checkpointing is off.
        let c = LvrmConfig { checkpoint_interval_ns: 0, ..base() };
        assert_eq!(c.validate(), Ok(()));

        let cluster = |c: ClusterConfig| LvrmConfig { cluster: Some(c), ..base() };
        for priority in [0u8, 255] {
            let c = cluster(ClusterConfig { priority, ..Default::default() });
            assert_eq!(c.validate(), Err(ConfigError::HaPriority { priority }));
        }
        let c = cluster(ClusterConfig { advert_interval_ns: 0, ..Default::default() });
        assert!(matches!(c.validate(), Err(ConfigError::ClusterIntervals { advert_ns: 0, .. })));
        let c = cluster(ClusterConfig { stream_interval_ns: 0, ..Default::default() });
        assert!(matches!(c.validate(), Err(ConfigError::ClusterIntervals { stream_ns: 0, .. })));
        let c = cluster(ClusterConfig { shards: 0, ..Default::default() });
        assert!(matches!(c.validate(), Err(ConfigError::ShardTopology { shards: 0, .. })));
        let c = cluster(ClusterConfig { shard_id: 3, shards: 3, ..Default::default() });
        assert!(matches!(c.validate(), Err(ConfigError::ShardTopology { shard_id: 3, .. })));
        assert_eq!(cluster(ClusterConfig::default()).validate(), Ok(()));
        let c = cluster(ClusterConfig { shard_id: 1, shards: 3, ..Default::default() });
        assert_eq!(c.validate(), Ok(()));

        let c = LvrmConfig { dispatch: DispatchMode::Replicated, flow_based: true, ..base() };
        assert_eq!(c.validate(), Err(ConfigError::ReplicatedFlowPinned));
        let c = LvrmConfig { dispatch: DispatchMode::Replicated, ..base() };
        assert_eq!(c.validate(), Ok(()));
    }

    /// A flow table of more than 2^31 slots is refused here instead of
    /// aborting when it is built.
    #[test]
    fn validate_refuses_a_flow_table_above_2_to_the_31_slots() {
        let max = FlowTable::MAX_CAPACITY;
        let flows = |capacity: usize| LvrmConfig {
            flow_based: true,
            flow_table_capacity: capacity,
            ..Default::default()
        };
        assert_eq!(
            flows(max + 1).validate(),
            Err(ConfigError::FlowTableCapacity { capacity: max + 1, max })
        );
        assert!(matches!(flows(usize::MAX).validate(), Err(ConfigError::FlowTableCapacity { .. })));
        assert_eq!(flows(max).validate(), Ok(()));
        // A table that is never built (frame-based balancing) is not checked.
        let c = LvrmConfig { flow_table_capacity: usize::MAX, ..Default::default() };
        assert_eq!(c.validate(), Ok(()));
        let e = ConfigError::FlowTableCapacity { capacity: max + 1, max };
        assert!(e.to_string().contains("at most 2147483648 slots, got 2147483649"));
    }

    #[test]
    fn dispatch_mode_parses_and_defaults_pinned() {
        let c = LvrmConfig::default();
        assert_eq!(c.dispatch, DispatchMode::Pinned);
        assert_eq!("pinned".parse::<DispatchMode>(), Ok(DispatchMode::Pinned));
        assert_eq!("replicated".parse::<DispatchMode>(), Ok(DispatchMode::Replicated));
        assert!("sharded".parse::<DispatchMode>().is_err());
        for m in DispatchMode::ALL {
            assert_eq!(m.name().parse::<DispatchMode>(), Ok(m));
        }
    }

    #[test]
    fn replicated_balancer_never_pins_flows() {
        let c = LvrmConfig { flow_based: true, ..Default::default() };
        assert_eq!(c.build_balancer_for(DispatchMode::Pinned).name(), "flow-jsq");
        assert_eq!(
            c.build_balancer_for(DispatchMode::Replicated).name(),
            "jsq",
            "a replicated VR must spread frames regardless of flow key"
        );
    }

    #[test]
    fn config_errors_render_their_values() {
        let e = ConfigError::Watermarks { low: 0.9, high: 0.1 };
        assert!(e.to_string().contains("low=0.9"));
        let e = ConfigError::QueueCapacity { data: 0, ctrl: 64 };
        assert!(e.to_string().contains("data=0"));
    }

    #[test]
    fn builders_honor_kinds() {
        let mut c = LvrmConfig { balancer: BalancerKind::RoundRobin, ..Default::default() };
        assert_eq!(c.build_balancer().name(), "rr");
        c.flow_based = true;
        assert_eq!(c.build_balancer().name(), "flow-rr");
        c.allocator = AllocatorKind::Fixed { cores: 2 };
        assert_eq!(c.build_allocator().name(), "fixed");
        c.estimator = EstimatorKind::InterArrival;
        assert_eq!(c.build_estimator().name(), "ewma-inter-arrival");
    }
}
