//! LVRM — the load-aware virtual router monitor (the paper's contribution).
//!
//! LVRM is a centralized user-space process that hosts multiple virtual
//! routers (VRs), spawning one **VR instance (VRI)** per allocated CPU core
//! and dispatching raw frames to them over lock-free IPC queues. Its job is
//! the paper's headline question: *how to dynamically assign CPU cores to
//! different virtual routers based on their data traffic loads?* (§1).
//!
//! The design is deliberately extensible along four dimensions, each a trait
//! with several shipped implementations:
//!
//! | Dimension        | Trait                  | Variants |
//! |------------------|------------------------|----------|
//! | socket adapter   | [`socket::SocketAdapter`] | raw socket (sim/loopback), PF_RING (sim/shared ring), main memory |
//! | core allocation  | [`alloc::CoreAllocator`]  | fixed, dynamic fixed-threshold, dynamic service-rate |
//! | load balancing   | [`balance::LoadBalancer`] | JSQ, round-robin, random; frame- or flow-based |
//! | load estimation  | [`estimate::LoadEstimator`] | EWMA queue length, EWMA inter-arrival |
//!
//! The monitor hierarchy mirrors Fig. 3.1: [`monitor::Lvrm`] owns one
//! VR-monitor state per VR; each VR owns a VRI monitor that spawns/kills
//! VRIs and balances frames among them; each VRI is reached through a
//! [`vri::VriAdapter`] which also estimates its load. The VRI side of the
//! wire is wrapped by [`vri::LvrmAdapter`], whose `from_lvrm`/`to_lvrm`
//! calls are the paper's `fromLVRM()`/`toLVRM()` API (§3.6).
//!
//! LVRM itself is host-agnostic: it runs identically inside the
//! discrete-event testbed (`lvrm-testbed`) and on real threads
//! (`lvrm-runtime`), via the [`host::VriHost`] and [`clock::Clock`]
//! abstractions.

pub mod adapter;
pub mod alloc;
pub mod balance;
pub mod checkpoint;
pub mod clock;
pub mod cluster;
pub mod config;
pub mod estimate;
pub mod fault;
pub mod flowtable;
pub mod host;
pub mod ledger;
pub mod monitor;
pub mod repl;
pub mod socket;
pub mod topology;
pub mod vri;

pub use adapter::{AdapterState, AdapterSupervisorConfig, SupervisedAdapter};
pub use alloc::{
    AllocDecision, CoreAllocator, DynamicFixedThreshold, DynamicServiceRate, FixedAllocator,
};
pub use balance::{BalanceCtx, Jsq, LoadBalancer, RandomBalancer, RoundRobin};
pub use checkpoint::{
    Checkpoint, CheckpointDelta, CheckpointError, FlowRecord, FlowSection, VrCheckpoint, VrDelta,
};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use cluster::{
    rendezvous_owner, ChannelLink, ClusterMsg, ClusterNode, PeerLink, Role, Shadow, ShardEntry,
    ShardMap, CLUSTER_MAGIC,
};
pub use config::{
    AllocatorKind, BalancerKind, ClusterConfig, DispatchMode, EstimatorKind, LvrmConfig,
};
pub use fault::{
    jittered_backoff, splitmix64, AdapterFaultEvent, AdapterFaultKind, FaultEvent, FaultInjectable,
    FaultKind, FaultPlan, FaultyHost, FaultyLink, FaultySocket, LinkFaultKind, LinkFaultWindow,
};
pub use flowtable::{FlowTable, FlowTableStats};
pub use host::{RecordingHost, VriHost, VriSpec};
pub use ledger::{Ledger, LvrmStats, Violation, VrBooks, VriBooks};
pub use monitor::Lvrm;
pub use repl::{
    decode_batch, encode_batch, is_state_update, FlowBook, ReplicaLedger, StateUpdate,
    STATE_UPDATE_MAGIC,
};
pub use socket::{AdapterError, MemTraceAdapter, SendRejected, SocketAdapter, SocketKind};
pub use topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
pub use vri::{LvrmAdapter, VriAdapter, VriHealth, LVRM_CTRL_ID};

/// Identifies a VR hosted by LVRM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VrId(pub u32);

/// Identifies a VRI within the whole LVRM (unique across VRs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VriId(pub u32);

impl std::fmt::Display for VrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vr{}", self.0)
    }
}

impl std::fmt::Display for VriId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vri{}", self.0)
    }
}
