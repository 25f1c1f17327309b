//! The real threaded runtime.
//!
//! Where `lvrm-testbed` *models* the gateway, this crate actually runs LVRM:
//! VRIs are OS threads (best-effort pinned to cores, as the paper pins
//! processes with `sched_setaffinity`), frames move through the same
//! lock-free queues, and time is the monotonic wall clock. The paper's
//! "LVRM only" experiments — 1c (throughput from a RAM trace), 1d
//! (per-frame latency) and 1e (control-message-passing latency) — are
//! *measured*, not simulated, by the drivers in [`pipeline`] and [`msglat`].
//! Both run the burst `lvrmd` runs, [`lvrm_core::Lvrm::run_burst`].
//!
//! [`affinity`] wraps `sched_setaffinity`; on machines with too few cores
//! (or non-Linux hosts) pinning degrades gracefully to unpinned threads.
//! [`udp_adapter`] provides a live loopback socket adapter so the examples
//! can push real datagrams through a real kernel socket path.

pub mod affinity;
pub mod ha_link;
pub mod metrics_server;
pub mod msglat;
pub mod pipeline;
pub mod ring_adapter;
#[cfg(target_os = "linux")]
pub mod shm;
pub mod signal;
pub mod threads;
pub mod udp_adapter;

pub use ha_link::{FleetPeerSpec, UdpPeerLink};
pub use metrics_server::MetricsServer;
pub use msglat::{measure_control_latency, MsgLatencyReport};
pub use pipeline::{run_lvrm_only_batched, run_lvrm_only_inline_batched, PipelineReport};
pub use ring_adapter::RingAdapter;
pub use threads::{CtrlRole, ThreadHost};
pub use udp_adapter::UdpAdapter;
