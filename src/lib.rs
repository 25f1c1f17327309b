//! # LVRM — a load-aware virtual router monitor in user space
//!
//! A Rust reproduction of Choi & Lee, *"An Extensible Design of a
//! Load-Aware Virtual Router Monitor in User Space"* (SRMPDS/ICPP 2011; full
//! version: CUHK MPhil thesis, 2011).
//!
//! LVRM hosts multiple **virtual routers (VRs)** on one multi-core machine.
//! For each VR it spawns one or more **VR instances (VRIs)** — workers each
//! bound to a dedicated CPU core — and dispatches raw Ethernet frames to
//! them over lock-free shared-memory queues. Its headline feature is
//! **load-aware core allocation**: the number of cores a VR owns follows
//! its measured traffic load.
//!
//! The workspace splits into focused crates, all re-exported here:
//!
//! * [`net`] — frames, headers, flows, wire-time arithmetic;
//! * [`ipc`] — lock-free queues (Lamport's SPSC ring, a Virtual-Link-style
//!   MPMC ring) and the per-VRI data/control channel bundles;
//! * [`metrics`] — EWMA estimators, fairness indexes, latency histograms;
//! * [`router`] — LPM route tables, map files, the `FastVr` ("C++ VR");
//! * [`click`] — a miniature Click modular router (the "Click VR");
//! * [`core`] — the LVRM monitor itself: socket adapters, core allocation,
//!   load balancing, load estimation, the monitor hierarchy;
//! * [`testbed`] — a deterministic discrete-event simulation of the paper's
//!   experimental testbed (links, TCP, baselines, simulated cores);
//! * [`runtime`] — the real threaded runtime with core pinning.
//!
//! ## Quickstart
//!
//! ```
//! use lvrm::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! // A monitor on an 8-core gateway, LVRM pinned to core 0.
//! let clock = MonotonicClock::new();
//! let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
//! let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock.clone());
//!
//! // Host one VR for subnet 10.0.1.0/24 with a static route table.
//! let routes = lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap();
//! let mut host = lvrm::core::host::RecordingHost::default();
//! let vr = lvrm.add_vr(
//!     "dept-a",
//!     &[(Ipv4Addr::new(10, 0, 1, 0), 24)],
//!     Box::new(FastVr::new("dept-a", routes)),
//!     &mut host,
//! );
//!
//! // A ring pair stands in for the NIC. One burst of the monitor loop
//! // polls it, classifies, balances, services the VRI and sends egress.
//! let (mut nic, mut wire) = lvrm::runtime::RingAdapter::pair(64);
//! let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
//!     .udp(5000, 6000, b"payload");
//! wire.send(frame).unwrap();
//! assert_eq!(lvrm.run_burst(&mut nic, &mut host), 1);
//! let out = wire.poll().unwrap();
//! assert_eq!(out.egress_if, 1);
//! assert_eq!(lvrm.vri_count(vr), 1);
//! ```

pub use lvrm_click as click;
pub use lvrm_core as core;
pub use lvrm_ipc as ipc;
pub use lvrm_metrics as metrics;
pub use lvrm_net as net;
pub use lvrm_router as router;
pub use lvrm_runtime as runtime;
pub use lvrm_testbed as testbed;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lvrm_core::{
        AdapterError, AffinityMode, AllocatorKind, BalancerKind, Clock, CoreId, CoreMap,
        CoreTopology, DispatchMode, EstimatorKind, Lvrm, LvrmConfig, LvrmStats, ManualClock,
        MonotonicClock, SocketAdapter, SocketKind, VrId, VriId,
    };
    pub use lvrm_ipc::QueueKind;
    pub use lvrm_net::{FlowKey, Frame, FrameBuilder, Trace, TraceSpec};
    pub use lvrm_router::{FastVr, RouteTable, VirtualRouter};
}
