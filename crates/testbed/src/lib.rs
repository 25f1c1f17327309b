//! The multi-core testbed simulator.
//!
//! The paper evaluates LVRM on a physical testbed (Fig. 4.1): two sender
//! hosts and two receiver hosts on opposite sub-networks, joined by a
//! gateway with two quad-core Xeons and 1-Gbit links. None of that hardware
//! exists here, so this crate rebuilds the testbed as a **deterministic
//! discrete-event simulation**:
//!
//! * [`engine`] — the event loop (nanosecond clock, stable event ordering);
//! * [`link`] — 1-Gbps links with serialization delay, propagation and a
//!   bounded drop-tail buffer;
//! * [`cost`] — the per-frame CPU cost model, calibrated against the
//!   paper's measured anchors (448 Kfps native forwarding, 3.7 Mfps
//!   LVRM-only, the raw-socket/PF_RING gap, hypervisor overheads);
//! * [`cpu`] — per-core busy-time accounting bucketed into user/system/
//!   softirq (for the Fig. 4.3 CPU-usage breakdown);
//! * [`gateway`] — the forwarding mechanisms under test: native kernel IP
//!   forwarding, general-purpose hypervisors (VMware-Server-like and
//!   QEMU-KVM-like cost profiles), and **the real LVRM monitor** from
//!   `lvrm-core` driven by simulated time and hosted on simulated cores;
//! * [`traffic`] — UDP constant-bit-rate sources with staircase schedules
//!   (Experiments 2c–2e) and ping probes (RTT measurements);
//! * [`tcp`] — a Reno-style TCP model (slow start, AIMD, fast retransmit,
//!   RTO, receiver window) plus the FTP workload of Experiments 3c/4;
//! * [`scenario`] — experiment drivers: fixed-rate runs, achievable-
//!   throughput search under the paper's 2 % loss rule, time series;
//! * [`scenarios`] — a declarative scenario DSL on top of [`scenario`]:
//!   multi-tenant specs composing heavy-tailed flow mixes, diurnal ramps,
//!   flash crowds and SYN/UDP floods, reporting the monitor's ledger
//!   and per-tenant goodput as structured results.
//!
//! Everything is seeded and deterministic: the same scenario produces the
//! same figures bit-for-bit.

pub mod cost;
pub mod cpu;
pub mod engine;
pub mod gateway;
pub mod link;
pub mod scenario;
pub mod scenarios;
pub mod tcp;
pub mod traffic;

pub use cost::CostModel;
pub use cpu::{CpuAccounting, CpuBucket};
pub use engine::EventQueue;
pub use gateway::{ForwardingMech, HypervisorKind};
pub use gateway::{VrSpec, VrType};
pub use scenario::{Scenario, ScenarioResult};
pub use scenarios::{shard_split, ScenarioReport, ScenarioSpec, TenantSpec, WorkloadSpec};
pub use traffic::RateSchedule;
