//! Scenario assembly and the simulation world.
//!
//! A [`Scenario`] describes one experimental condition — forwarding
//! mechanism, hosted VRs, traffic — and [`Scenario::run`] plays it through
//! the discrete-event world reproducing Fig. 4.1: sender hosts, a shared
//! 1-Gbps pipe into the gateway, the gateway itself (native kernel,
//! hypervisor-hosted, or the real LVRM monitor on simulated cores), a
//! 1-Gbps pipe out, and receiver hosts — plus the reverse path for ACKs and
//! ping replies.
//!
//! Two weighted tenants, a steady one and a bursty heavy-tailed one, run
//! against the real monitor; the result reads the monitor's ledger
//! (DESIGN.md §9) and per-VR goodput. The canned set in
//! [`crate::scenarios`] is built the same way.
//!
//! ```no_run
//! use lvrm_testbed::scenario::{Scenario, SourceSpec};
//! use lvrm_testbed::traffic::{RateSchedule, SourceKind};
//! use lvrm_testbed::{ForwardingMech, VrSpec, VrType};
//!
//! let mut sc = Scenario::new(ForwardingMech::Lvrm);
//! sc.lvrm.flow_based = true;
//! sc.drain_shutdown = true;
//! let cpp = VrType::Cpp { dummy_load_ns: 0 };
//! sc.vrs = vec![
//!     VrSpec::numbered(0, cpp).with_shed_weight(9.0),
//!     VrSpec::numbered(1, cpp).with_shed_weight(1.0),
//! ];
//! sc.sources = vec![
//!     SourceSpec {
//!         vr: 0,
//!         host: 1,
//!         kind: SourceKind::UdpCbr { wire_size: 256, flows: 8 },
//!         schedule: RateSchedule::constant(30_000.0),
//!     },
//!     SourceSpec {
//!         vr: 1,
//!         host: 1,
//!         kind: SourceKind::UdpMix { wire_size: 256, flows: 500, alpha: 1.3, seed: 42 },
//!         schedule: RateSchedule::constant(50_000.0),
//!     },
//! ];
//! let r = sc.run();
//! r.assert_conserved("(two tenants)");
//! println!("steady goodput {:.2}%", 100.0 * r.goodput(0));
//!
//! // A canned scenario is a `Scenario` too: change any knob, then run it.
//! let mut crowd = lvrm_testbed::scenarios::flash_crowd(0xF1A5);
//! crowd.lvrm.queue_kind = lvrm_ipc::QueueKind::VLink;
//! println!("{} frames shed early", crowd.run().shed_early());
//! ```

use std::collections::HashMap;

use lvrm_core::clock::{Clock, ManualClock};
use lvrm_core::fault::{FaultPlan, FaultyHost};
use lvrm_core::monitor::{ReallocEvent, SupervisionEvent};
use lvrm_core::topology::{CoreId, CoreMap, CoreTopology};
use lvrm_core::vri::LVRM_CTRL_ID;
use lvrm_core::{
    DispatchMode, FlowTableStats, Ledger, Lvrm, LvrmConfig, ReplicaLedger, SocketKind, VrId,
};
use lvrm_ipc::channels::ControlEvent;
use lvrm_metrics::LatencyHistogram;
use lvrm_net::headers::{IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP};
use lvrm_net::{FlowKey, Frame, FrameBuilder};
use lvrm_router::RouterAction;

use crate::cost::CostModel;
use crate::cpu::{CpuAccounting, CpuBucket};
use crate::engine::{Event, EventQueue};
use crate::gateway::{HypervisorKind, SimHost, VrSpec};
use crate::link::Link;
use crate::tcp::{TcpConfig, TcpFlow, FTP_DATA_PORT};
use crate::traffic::{RateSchedule, Source, SourceKind, UDP_DATA_PORT};

pub use crate::gateway::ForwardingMech;

/// How often the gateway loop re-polls while work is pending.
const GW_POLL_NS: u64 = 1_000;
/// Frames per gateway poll pass.
const GW_BATCH: usize = 32;
/// Frames per VRI poll pass.
const VRI_BATCH: usize = 32;
/// Maximum core time one poll pass may consume before yielding back to the
/// event loop. Consumption is paced by core time: a poll never processes
/// more work than fits its slice, and a busy core defers the poll entirely,
/// so queues build (and load estimators see them) exactly when the core is
/// the bottleneck.
const POLL_SLICE_NS: u64 = 100_000;
/// NIC ring capacity, frames.
const RX_RING_CAP: usize = 4096;
/// Core time to fold or encode one 45-byte state-update record
/// (replicated dispatch, DESIGN.md §14).
const REPL_FOLD_NS: u64 = 25;
/// Fixed overhead of flushing one LVSU batch onto the control queue.
const REPL_EMIT_BASE_NS: u64 = 80;

/// One traffic source attachment.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    /// Index into `Scenario::vrs`.
    pub vr: usize,
    /// Sender-host number (distinct source addresses per host).
    pub host: u8,
    pub kind: SourceKind,
    pub schedule: RateSchedule,
}

/// One TCP (FTP-style) flow attachment.
#[derive(Clone, Debug)]
pub struct TcpFlowSpec {
    pub vr: usize,
    pub cfg: TcpConfig,
    pub start_ns: u64,
}

/// A full experimental condition.
pub struct Scenario {
    pub mech: ForwardingMech,
    /// Socket adapter variant for the LVRM mechanism.
    pub socket: SocketKind,
    pub lvrm: LvrmConfig,
    pub vrs: Vec<VrSpec>,
    pub sources: Vec<SourceSpec>,
    pub tcp_flows: Vec<TcpFlowSpec>,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub cost: CostModel,
    /// Time-series sampling period (0 disables sampling).
    pub sample_period_ns: u64,
    /// Deterministic fault schedule (LVRM mechanism only). Faults address
    /// VRIs by spawn order, which in the simulation is the slot index.
    pub faults: FaultPlan,
    /// Drain the monitor through [`Lvrm::shutdown`] when the run ends, so
    /// the final snapshot has empty queues and the conservation identities
    /// close with zero in-flight (LVRM mechanism only).
    pub drain_shutdown: bool,
}

impl Scenario {
    /// A scenario skeleton with the paper's defaults: PF_RING socket,
    /// default LVRM config, one C++ VR, no traffic yet.
    pub fn new(mech: ForwardingMech) -> Scenario {
        Scenario {
            mech,
            socket: SocketKind::PfRing,
            lvrm: LvrmConfig::default(),
            vrs: vec![VrSpec::numbered(0, crate::gateway::VrType::Cpp { dummy_load_ns: 0 })],
            sources: Vec::new(),
            tcp_flows: Vec::new(),
            duration_ns: 1_000_000_000,
            warmup_ns: 200_000_000,
            cost: CostModel::default(),
            sample_period_ns: 0,
            faults: FaultPlan::new(),
            drain_shutdown: false,
        }
    }

    /// Add the paper's standard two-sender UDP CBR load on VR `vr`:
    /// `total_fps` split across two sender hosts, `flows` flows per host.
    pub fn with_udp_load(
        mut self,
        vr: usize,
        wire_size: usize,
        total_fps: f64,
        flows: u16,
    ) -> Scenario {
        for host in [1u8, 2u8] {
            self.sources.push(SourceSpec {
                vr,
                host,
                kind: SourceKind::UdpCbr { wire_size, flows },
                schedule: RateSchedule::constant(total_fps / 2.0),
            });
        }
        self
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> ScenarioResult {
        World::build(self).run()
    }
}

/// One time-series sample.
#[derive(Clone, Debug)]
pub struct VriSample {
    pub t_ns: u64,
    /// Live VRIs per VR (empty for non-LVRM mechanisms).
    pub vris_per_vr: Vec<usize>,
    /// Delivered data rate since the previous sample, Mbps (wire bytes).
    pub delivered_mbps: f64,
    /// Offered rate per VR at this instant, fps.
    pub offered_fps_per_vr: Vec<f64>,
}

/// Everything a scenario run measured.
pub struct ScenarioResult {
    pub duration_ns: u64,
    pub warmup_ns: u64,
    /// UDP data frames sent / received inside the measurement window.
    pub udp_sent: u64,
    pub udp_received: u64,
    /// Attack frames (SYN/UDP flood) sent inside the window.
    pub flood_sent: u64,
    pub per_vr_sent: Vec<u64>,
    pub per_vr_received: Vec<u64>,
    /// Per-UDP-flow received (frames, wire_bytes) in the window.
    pub udp_flows: HashMap<u64, (u64, u64)>,
    /// Per-TCP-flow goodput bytes in the window.
    pub tcp_goodput: Vec<u64>,
    /// TCP diagnostics.
    pub tcp_retransmits: u64,
    pub tcp_timeouts: u64,
    /// One-way latency of UDP data frames.
    pub latency: LatencyHistogram,
    /// Ping round-trip times.
    pub rtt: LatencyHistogram,
    pub samples: Vec<VriSample>,
    pub realloc: Vec<ReallocEvent>,
    /// Per-core (user, system, softirq) busy ns.
    pub cpu_busy: Vec<(u64, u64, u64)>,
    /// Final per-VR per-VRI dispatch counts (LVRM only).
    pub per_vri_dispatches: Vec<Vec<u64>>,
    /// LVRM monitor drops and counters (LVRM only).
    pub lvrm_stats: Option<lvrm_core::LvrmStats>,
    /// Supervisor decisions (deaths, respawns, quarantines; LVRM only).
    pub supervision: Vec<SupervisionEvent>,
    /// End-of-run monitor snapshot (taken before any shutdown drain, so
    /// flow-table occupancy is still visible): per-VR pressure, admission
    /// counters, flow stats, and per-VRI state (LVRM only).
    pub vr_snapshots: Vec<lvrm_core::monitor::VrSnapshot>,
    /// Final metrics-registry snapshot — after the shutdown drain when
    /// `drain_shutdown` is set — the conservation-identity input (LVRM
    /// only).
    pub metrics: Option<lvrm_metrics::MetricsSnapshot>,
    /// Frames dropped at the NIC rings.
    pub ring_drops: u64,
    /// FNV-1a digests of every LVSU state-update batch flushed by a VRI, in
    /// emission order — the determinism fingerprint of the replication
    /// plane (empty unless some VR dispatches replicated; LVRM only).
    pub repl_trace: Vec<u64>,
}

impl ScenarioResult {
    /// Measurement-window length.
    pub fn window_ns(&self) -> u64 {
        self.duration_ns - self.warmup_ns
    }

    /// Received / sent, the paper's loss rule's input.
    pub fn delivery_ratio(&self) -> f64 {
        if self.udp_sent == 0 {
            1.0
        } else {
            self.udp_received as f64 / self.udp_sent as f64
        }
    }

    /// Delivered UDP frame rate, fps.
    pub fn delivered_fps(&self) -> f64 {
        self.udp_received as f64 * 1e9 / self.window_ns() as f64
    }

    /// Per-TCP-flow goodput rates, Mbps.
    pub fn tcp_goodput_mbps(&self) -> Vec<f64> {
        self.tcp_goodput.iter().map(|b| *b as f64 * 8.0 / self.window_ns() as f64 * 1e3).collect()
    }

    /// Aggregate TCP goodput, Mbps.
    pub fn tcp_aggregate_mbps(&self) -> f64 {
        self.tcp_goodput_mbps().iter().sum()
    }

    /// VR `vr`'s UDP data received / sent inside the window (1.0 when
    /// idle).
    pub fn goodput(&self, vr: usize) -> f64 {
        match self.per_vr_sent[vr] {
            0 => 1.0,
            sent => self.per_vr_received[vr] as f64 / sent as f64,
        }
    }

    /// The monitor's books at the end of the run, read from the final
    /// scrape (LVRM only).
    pub fn ledger(&self) -> Ledger {
        Ledger::from_snapshot(self.metrics.as_ref().expect("the LVRM mechanism exports metrics"))
    }

    /// Whether the final ledger checks out with nothing unreturned: a
    /// scenario whose VRs forward every frame on the simulated host must
    /// close (B) and (C) exactly.
    pub fn conserved(&self) -> bool {
        let ledger = self.ledger();
        ledger.check().is_ok() && ledger.unreturned() == 0
    }

    /// Panic with the ledger (its last word names a violated identity)
    /// unless [`ScenarioResult::conserved`].
    pub fn assert_conserved(&self, ctx: &str) {
        assert!(self.conserved(), "{ctx}: {}", self.ledger());
    }

    /// Concurrently tracked flows at end of run (pre-drain), summed over
    /// the VRs' flow tables.
    pub fn tracked_flows(&self) -> u64 {
        self.vr_snapshots.iter().filter_map(|v| v.flow).map(|f| f.len as u64).sum()
    }

    /// Aggregate flow-table stats (evictions, overflows, sweep slots).
    pub fn flow_stats(&self) -> FlowTableStats {
        let mut agg = FlowTableStats::default();
        for f in self.vr_snapshots.iter().filter_map(|v| v.flow) {
            agg.len += f.len;
            agg.capacity += f.capacity;
            agg.evictions += f.evictions;
            agg.overflows += f.overflows;
            agg.age_sweep_slots += f.age_sweep_slots;
        }
        agg
    }

    /// Frames shed at ingress (the overload path, DESIGN.md §8).
    pub fn shed_early(&self) -> u64 {
        self.lvrm_stats.as_ref().map_or(0, |s| s.shed_early)
    }

    /// State updates emitted toward sibling replicas (identity E's
    /// left-hand side).
    pub fn updates_emitted(&self) -> u64 {
        self.lvrm_stats.as_ref().map_or(0, |s| s.updates_emitted)
    }
}

/// Binary-search the maximum rate (fps) whose run satisfies the paper's 2 %
/// rule: "increasing the sending rate … until the sending rate and the
/// receiving rate differ by more than 2 %" (§4.1). `make` builds the
/// scenario for a candidate aggregate rate.
pub fn search_achievable(make: impl Fn(f64) -> Scenario, lo0: f64, hi0: f64, iters: u32) -> f64 {
    let ok = |rate: f64| make(rate).run().delivery_ratio() >= 0.98;
    let (mut lo, mut hi) = (lo0, hi0);
    if ok(hi) {
        return hi;
    }
    if !ok(lo) {
        return lo;
    }
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

// ---------------------------------------------------------------------------
// The world

#[allow(clippy::large_enum_variant)] // one Mech per World; size is irrelevant
enum Mech {
    /// Kernel-path forwarding (native or hypervisor-hosted guest).
    Kernel { route: lvrm_router::RouteTable, hypervisor: Option<HypervisorKind> },
    Lvrm {
        lvrm: Lvrm<ManualClock>,
        /// Fires the scenario's fault plan; spawn order is the slot order,
        /// since slots are only ever appended.
        host: FaultyHost<SimHost>,
        clock: ManualClock,
        vr_ids: Vec<VrId>,
    },
}

struct World<'s> {
    sc: &'s Scenario,
    q: EventQueue,
    /// 0: senders→gw, 1: gw→receivers, 2: receivers→gw, 3: gw→senders.
    links: [Link; 4],
    rx_rings: [std::collections::VecDeque<Frame>; 2],
    ring_drops: u64,
    gw_poll_scheduled: bool,
    mech: Mech,
    cpu: CpuAccounting,
    lvrm_core: CoreId,
    sources: Vec<Source>,
    tcp: Vec<TcpFlow>,
    tcp_timer_armed: Vec<bool>,
    tcp_goodput_at_warmup: Vec<u64>,
    // measurement
    udp_sent: u64,
    udp_received: u64,
    flood_sent: u64,
    per_vr_sent: Vec<u64>,
    per_vr_received: Vec<u64>,
    udp_flows: HashMap<u64, (u64, u64)>,
    latency: LatencyHistogram,
    rtt: LatencyHistogram,
    samples: Vec<VriSample>,
    warmup_done: bool,
    delivered_wire_bytes: u64,
    delivered_wire_bytes_last_sample: u64,
    tcp_goodput_last_sample: u64,
    last_sample_ns: u64,
    egress_unrouted: u64,
    repl_trace: Vec<u64>,
}

impl<'s> World<'s> {
    fn build(sc: &'s Scenario) -> World<'s> {
        assert!(!sc.vrs.is_empty(), "scenario needs at least one VR");
        assert!(sc.warmup_ns < sc.duration_ns, "warmup must end before the run does");
        let lvrm_core = CoreId(0);
        let mech = match sc.mech {
            ForwardingMech::Native => {
                Mech::Kernel { route: kernel_routes(&sc.vrs), hypervisor: None }
            }
            ForwardingMech::Hypervisor(kind) => {
                Mech::Kernel { route: kernel_routes(&sc.vrs), hypervisor: Some(kind) }
            }
            ForwardingMech::Lvrm => {
                if let Err(e) = sc.lvrm.validate() {
                    panic!("scenario LVRM config invalid: {e}");
                }
                let clock = ManualClock::new();
                let cores =
                    CoreMap::new(CoreTopology::dual_quad_xeon(), lvrm_core, sc.lvrm.affinity);
                let mut lvrm = Lvrm::new(sc.lvrm.clone(), cores, clock.clone());
                let mut host = FaultyHost::new(SimHost::default(), sc.faults.clone());
                let vr_ids: Vec<_> = sc
                    .vrs
                    .iter()
                    .map(|v| lvrm.add_vr(&v.name, &v.subnets(), v.build_router(), &mut host))
                    .collect();
                for (v, id) in sc.vrs.iter().zip(&vr_ids) {
                    if let Some(w) = v.shed_weight {
                        lvrm.set_vr_weight(*id, w);
                    }
                    if let Some(mode) = v.dispatch {
                        lvrm.set_vr_dispatch(*id, mode);
                    }
                }
                Mech::Lvrm { lvrm, host, clock, vr_ids }
            }
        };
        let sources = sc
            .sources
            .iter()
            .map(|s| {
                let vr = &sc.vrs[s.vr];
                Source::new(
                    s.vr,
                    s.kind.clone(),
                    s.schedule.clone(),
                    vr.sender_ip(s.host),
                    vr.receiver_ip(s.host),
                )
            })
            .collect();
        let tcp: Vec<TcpFlow> = sc
            .tcp_flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let vr = &sc.vrs[f.vr];
                TcpFlow::new(
                    i,
                    f.vr,
                    f.cfg,
                    vr.sender_ip(100 + (i % 100) as u8),
                    vr.receiver_ip(100 + (i % 100) as u8),
                    40_000 + i as u16,
                )
            })
            .collect();
        let n_tcp = tcp.len();
        // Two hops per direction (host-switch-gateway): split the calibrated
        // one-way path latency across them.
        let mk_link = || {
            let mut l = Link::gigabit();
            l.prop_ns = sc.cost.path_latency_ns / 2;
            l
        };
        World {
            sc,
            q: EventQueue::new(),
            links: [mk_link(), mk_link(), mk_link(), mk_link()],
            rx_rings: [Default::default(), Default::default()],
            ring_drops: 0,
            gw_poll_scheduled: false,
            mech,
            cpu: CpuAccounting::new(8),
            lvrm_core,
            sources,
            tcp,
            tcp_timer_armed: vec![false; n_tcp],
            tcp_goodput_at_warmup: vec![0; n_tcp],
            udp_sent: 0,
            udp_received: 0,
            flood_sent: 0,
            per_vr_sent: vec![0; sc.vrs.len()],
            per_vr_received: vec![0; sc.vrs.len()],
            udp_flows: HashMap::new(),
            latency: LatencyHistogram::new(),
            rtt: LatencyHistogram::new(),
            samples: Vec::new(),
            warmup_done: false,
            delivered_wire_bytes: 0,
            delivered_wire_bytes_last_sample: 0,
            tcp_goodput_last_sample: 0,
            last_sample_ns: 0,
            egress_unrouted: 0,
            repl_trace: Vec::new(),
        }
    }

    fn run(mut self) -> ScenarioResult {
        for i in 0..self.sources.len() {
            self.q.schedule(0, Event::SourceEmit { source: i });
        }
        for (i, spec) in self.sc.tcp_flows.iter().enumerate() {
            self.q.schedule(spec.start_ns, Event::TcpKick { flow: i });
        }
        for ev in self.sc.faults.events() {
            self.q.schedule(ev.at_ns, Event::Fault);
        }
        // Warmup boundary snapshot (always) + optional periodic samples.
        self.q.schedule(self.sc.warmup_ns, Event::WarmupSnapshot);
        if self.sc.sample_period_ns > 0 {
            self.q.schedule(self.sc.sample_period_ns, Event::Sample);
        }
        self.q.schedule(self.sc.duration_ns, Event::Stop);

        while let Some((now, ev)) = self.q.pop() {
            match ev {
                Event::Stop => break,
                Event::SourceEmit { source } => self.on_source_emit(source, now),
                Event::LinkDeliver { link } => self.on_link_deliver(link, now),
                Event::GatewayPoll => self.on_gateway_poll(now),
                Event::VriPoll { slot } => self.on_vri_poll(slot, now),
                Event::TcpKick { flow } => self.kick_tcp(flow, now),
                Event::TcpTimeout { flow, epoch } => self.on_tcp_timeout(flow, epoch, now),
                Event::Sample => self.on_sample(now),
                Event::WarmupSnapshot => self.take_warmup_snapshot(now),
                Event::Fault => {
                    if let Mech::Lvrm { host, .. } = &mut self.mech {
                        host.apply(now);
                    }
                }
            }
        }
        self.finish()
    }

    // ------------------------------------------------------------ sources

    fn on_source_emit(&mut self, i: usize, now: u64) {
        let in_window = now >= self.sc.warmup_ns;
        let (frame, delay) = self.sources[i].emit(now);
        if let Some(frame) = frame {
            if in_window {
                if self.sources[i].kind.is_udp_data() {
                    self.udp_sent += 1;
                    self.per_vr_sent[self.sources[i].vr] += 1;
                } else if self.sources[i].kind.is_flood() {
                    self.flood_sent += 1;
                }
            }
            self.offer_link(0, now, frame);
        }
        if now + delay < self.sc.duration_ns {
            self.q.schedule(now + delay, Event::SourceEmit { source: i });
        }
    }

    // ------------------------------------------------------------ links

    fn offer_link(&mut self, link: usize, now: u64, frame: Frame) {
        if let Some(arrival) = self.links[link].offer(now, frame) {
            self.q.schedule(arrival, Event::LinkDeliver { link });
        }
    }

    fn on_link_deliver(&mut self, link: usize, now: u64) {
        let Some((_, mut frame)) = self.links[link].deliver() else {
            return;
        };
        match link {
            0 | 2 => {
                let nic = if link == 0 { 0 } else { 1 };
                frame.ingress_if = nic as u16;
                if self.rx_rings[nic].len() >= RX_RING_CAP {
                    self.ring_drops += 1;
                } else {
                    self.rx_rings[nic].push_back(frame);
                    if !self.gw_poll_scheduled {
                        self.gw_poll_scheduled = true;
                        self.q.schedule(now, Event::GatewayPoll);
                    }
                }
            }
            1 => self.on_receiver(frame, now),
            3 => self.on_sender_side(frame, now),
            _ => unreachable!(),
        }
    }

    // ------------------------------------------------------------ hosts

    fn on_receiver(&mut self, frame: Frame, now: u64) {
        let Ok(ip) = frame.ipv4() else { return };
        match ip.protocol() {
            IPPROTO_UDP if now >= self.sc.warmup_ns => {
                // Only the data port counts toward goodput: UDP-flood
                // frames (dst 9) that survive shedding are not "delivered
                // work", and counting them would flatter attack scenarios.
                if frame.udp().map(|u| u.dst_port()) != Ok(UDP_DATA_PORT) {
                    return;
                }
                self.udp_received += 1;
                if let Some(vr) = self.vr_of_src(&frame) {
                    self.per_vr_received[vr] += 1;
                }
                let key = flow_key(&frame);
                let e = self.udp_flows.entry(key).or_insert((0, 0));
                e.0 += 1;
                e.1 += frame.wire_len() as u64;
                self.latency.record(now.saturating_sub(frame.ts_ns));
                self.delivered_wire_bytes += frame.wire_len() as u64;
            }
            IPPROTO_ICMP => {
                // Echo request: reflect it with source/destination swapped.
                let (src, dst) = (ip.src(), ip.dst());
                let wire = frame.wire_len();
                let mut b = FrameBuilder::new(dst, src);
                if let Ok(mut reply) = b.udp_with_wire_size(7, 7, wire) {
                    reply.modify_bytes(|bytes| {
                        bytes[14 + 9] = IPPROTO_ICMP;
                        bytes[14 + 10] = 0;
                        bytes[14 + 11] = 0;
                        let csum = lvrm_net::headers::internet_checksum(&bytes[14..14 + 20]);
                        bytes[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
                    });
                    reply.ts_ns = frame.ts_ns; // carry the original stamp
                    self.offer_link(2, now, reply);
                }
            }
            IPPROTO_TCP => {
                let Ok(tcp) = frame.tcp() else { return };
                if tcp.dst_port() == FTP_DATA_PORT {
                    let flow_idx = tcp.src_port().wrapping_sub(40_000) as usize;
                    if flow_idx < self.tcp.len() {
                        let seq = tcp.seq() as u64;
                        let len = tcp.payload().len();
                        if now >= self.sc.warmup_ns {
                            self.delivered_wire_bytes += frame.wire_len() as u64;
                        }
                        let ack = self.tcp[flow_idx].on_data_at_receiver(seq, len, now);
                        self.offer_link(2, now, ack);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_sender_side(&mut self, frame: Frame, now: u64) {
        let Ok(ip) = frame.ipv4() else { return };
        match ip.protocol() {
            IPPROTO_ICMP if now >= self.sc.warmup_ns => {
                self.rtt.record(now.saturating_sub(frame.ts_ns));
            }
            IPPROTO_TCP => {
                let Ok(tcp) = frame.tcp() else { return };
                if tcp.src_port() == FTP_DATA_PORT {
                    let flow_idx = tcp.dst_port().wrapping_sub(40_000) as usize;
                    if flow_idx < self.tcp.len() {
                        let ack = tcp.ack() as u64;
                        let act = self.tcp[flow_idx].on_ack_at_sender(ack, now);
                        for seq in act.transmit {
                            let f = self.tcp[flow_idx].build_data(seq, now);
                            self.offer_link(0, now, f);
                        }
                        if act.rearm_timer {
                            let epoch = self.tcp[flow_idx].timer_epoch;
                            let rto = self.tcp[flow_idx].current_rto_ns();
                            self.q.schedule(now + rto, Event::TcpTimeout { flow: flow_idx, epoch });
                            self.tcp_timer_armed[flow_idx] = true;
                        }
                        self.kick_tcp(flow_idx, now);
                    }
                }
            }
            _ => {}
        }
    }

    fn kick_tcp(&mut self, flow: usize, now: u64) {
        while self.tcp[flow].can_send(now) {
            let f = self.tcp[flow].send_new(now);
            self.offer_link(0, now, f);
        }
        if self.tcp[flow].inflight() > 0 && !self.tcp_timer_armed[flow] {
            let epoch = self.tcp[flow].timer_epoch;
            let rto = self.tcp[flow].current_rto_ns();
            self.q.schedule(now + rto, Event::TcpTimeout { flow, epoch });
            self.tcp_timer_armed[flow] = true;
        }
        // Pacing-limited flows re-kick themselves.
        if self.tcp[flow].cfg.pacing_ns.is_some()
            && self.tcp[flow].inflight() < 2 * self.tcp[flow].cfg.mss as u64
        {
            if let Some(p) = self.tcp[flow].cfg.pacing_ns {
                if now + p < self.sc.duration_ns {
                    self.q.schedule(now + p, Event::TcpKick { flow });
                }
            }
        }
    }

    fn on_tcp_timeout(&mut self, flow: usize, epoch: u32, now: u64) {
        self.tcp_timer_armed[flow] = false;
        let act = self.tcp[flow].on_timeout(epoch, now);
        for seq in act.transmit {
            let f = self.tcp[flow].build_data(seq, now);
            self.offer_link(0, now, f);
        }
        if (act.rearm_timer || self.tcp[flow].inflight() > 0) && !self.tcp_timer_armed[flow] {
            let e = self.tcp[flow].timer_epoch;
            let rto = self.tcp[flow].current_rto_ns();
            self.q.schedule(now + rto, Event::TcpTimeout { flow, epoch: e });
            self.tcp_timer_armed[flow] = true;
        }
    }

    // ------------------------------------------------------------ gateway

    fn on_gateway_poll(&mut self, now: u64) {
        match &mut self.mech {
            Mech::Kernel { .. } => self.kernel_poll(now),
            Mech::Lvrm { .. } => self.lvrm_poll(now),
        }
    }

    fn kernel_poll(&mut self, now: u64) {
        let busy = self.cpu.busy_until(CoreId(0));
        if busy > now {
            self.q.schedule(busy, Event::GatewayPoll);
            self.gw_poll_scheduled = true;
            return;
        }
        let Mech::Kernel { route, hypervisor } = &mut self.mech else { unreachable!() };
        let (cost, hv) = match hypervisor {
            None => (self.sc.cost.native, None),
            Some(HypervisorKind::VmwareServer) => (self.sc.cost.hv_vmware, Some(())),
            Some(HypervisorKind::QemuKvm) => (self.sc.cost.hv_kvm, Some(())),
        };
        let mut t = now;
        let deadline = now + POLL_SLICE_NS;
        let mut out: Vec<(usize, Frame, u64)> = Vec::new();
        let mut budget = GW_BATCH;
        for nic in 0..2 {
            while budget > 0 && t < deadline {
                let Some(mut frame) = self.rx_rings[nic].pop_front() else { break };
                budget -= 1;
                let c = cost.of(frame.len());
                if hv.is_some() {
                    // World switch + guest kernel: half softirq on the host
                    // core, half guest time on a VCPU core.
                    t = self.cpu.charge(CoreId(0), t, c / 2, CpuBucket::SoftIrq);
                    t = self.cpu.charge(CoreId(1), t, c - c / 2, CpuBucket::User);
                } else {
                    t = self.cpu.charge(CoreId(0), t, c, CpuBucket::SoftIrq);
                }
                let egress = frame.dst_ip().ok().and_then(|d| route.lookup(d)).map(|r| r.iface);
                match egress {
                    Some(0) => {
                        frame.egress_if = 0;
                        out.push((3, frame, t));
                    }
                    Some(_) => {
                        frame.egress_if = 1;
                        out.push((1, frame, t));
                    }
                    None => {}
                }
            }
        }
        for (link, frame, at) in out {
            self.offer_link(link, at, frame);
        }
        self.rearm_gateway(now, t, false);
    }

    /// How many busy-polling processes time-share `core` (LVRM plus any
    /// VRIs pinned there). Spinning loops consume whole timeslices, so a
    /// shared core divides its effective speed among residents — this is
    /// what makes the "same" affinity mode the poorest in Fig. 4.8.
    fn core_residents(&self, core: CoreId) -> u64 {
        let vris_here = match &self.mech {
            Mech::Lvrm { host, .. } => {
                host.inner.slots.iter().filter(|s| s.alive && s.spec.core == core).count() as u64
            }
            _ => 0,
        };
        let lvrm_here = u64::from(core == self.lvrm_core);
        (vris_here + lvrm_here).max(1)
    }

    /// Mean inter-core handover penalty between LVRM and the live VRIs
    /// (charged on the LVRM side per frame: the producer also stalls on the
    /// cache-line transfer to a remote queue).
    fn mean_vri_penalty(&self) -> u64 {
        let unpinned = self.sc.lvrm.affinity == lvrm_core::topology::AffinityMode::Default;
        let topo = CoreTopology::dual_quad_xeon();
        match &self.mech {
            Mech::Lvrm { host, .. } => {
                let live: Vec<u64> = host
                    .inner
                    .slots
                    .iter()
                    .filter(|s| s.alive)
                    .map(|s| {
                        self.sc.cost.core_penalty(&topo, self.lvrm_core, s.spec.core, unpinned)
                    })
                    .collect();
                if live.is_empty() {
                    0
                } else {
                    live.iter().sum::<u64>() / live.len() as u64
                }
            }
            _ => 0,
        }
    }

    fn lvrm_poll(&mut self, now: u64) {
        let busy = self.cpu.busy_until(self.lvrm_core);
        if busy > now {
            self.q.schedule(busy, Event::GatewayPoll);
            self.gw_poll_scheduled = true;
            return;
        }
        let socket = self.sc.socket;
        let (rx_bucket, tx_bucket) = socket_buckets(socket);
        let contention = self.core_residents(self.lvrm_core);
        let penalty = self.mean_vri_penalty();
        let mut t = now;
        let deadline = now + POLL_SLICE_NS;

        // Phase 1: receive + classify + dispatch. With overload shedding
        // enabled, a frame the monitor sheds at classification time is
        // charged `shed_ns` instead of the full balance+enqueue cost — the
        // whole point of early shedding is that refused work is cheap.
        {
            let Mech::Lvrm { lvrm, host, clock, .. } = &mut self.mech else { unreachable!() };
            let shedding = self.sc.lvrm.overload_shedding;
            let mut budget = GW_BATCH;
            for nic in 0..2 {
                while budget > 0 && t < deadline {
                    let Some(frame) = self.rx_rings[nic].pop_front() else { break };
                    budget -= 1;
                    let len = frame.len();
                    t = self.cpu.charge(
                        self.lvrm_core,
                        t,
                        self.sc.cost.rx(socket, len) * contention,
                        rx_bucket,
                    );
                    if shedding {
                        let shed_before = lvrm.stats().shed_early;
                        clock.set_ns(clock.now_ns().max(t));
                        lvrm.ingress(frame, host);
                        let work = if lvrm.stats().shed_early > shed_before {
                            self.sc.cost.shed_ns
                        } else {
                            self.sc.cost.dispatch.of(len) + penalty
                        };
                        t = self.cpu.charge(self.lvrm_core, t, work * contention, CpuBucket::User);
                    } else {
                        t = self.cpu.charge(
                            self.lvrm_core,
                            t,
                            (self.sc.cost.dispatch.of(len) + penalty) * contention,
                            CpuBucket::User,
                        );
                        clock.set_ns(clock.now_ns().max(t));
                        lvrm.ingress(frame, host);
                    }
                }
            }
            clock.set_ns(clock.now_ns().max(t));
            lvrm.process_control();
        }

        // Phase 2: account spawns/kills and schedule new VRI polls.
        t = self.drain_host_lifecycle(t);

        // Phase 3: collect egress and transmit.
        let mut egress = Vec::new();
        {
            let Mech::Lvrm { lvrm, .. } = &mut self.mech else { unreachable!() };
            lvrm.poll_egress(&mut egress);
        }
        for frame in egress {
            let len = frame.len();
            t = self.cpu.charge(
                self.lvrm_core,
                t,
                (self.sc.cost.egress.of(len) + penalty) * contention,
                CpuBucket::User,
            );
            t = self.cpu.charge(
                self.lvrm_core,
                t,
                self.sc.cost.tx(socket, len) * contention,
                tx_bucket,
            );
            match frame.egress_if {
                0 => self.offer_link(3, t, frame),
                1 => self.offer_link(1, t, frame),
                _ => self.egress_unrouted += 1,
            }
        }

        // Phase 4: wake VRIs that now have work.
        self.schedule_vri_polls(t);
        let pending_egress = match &self.mech {
            Mech::Lvrm { lvrm, .. } => lvrm.has_pending_egress(),
            _ => false,
        };
        self.rearm_gateway(now, t, pending_egress);
    }

    /// Charge spawn/kill costs and schedule polls for fresh VRIs.
    fn drain_host_lifecycle(&mut self, mut t: u64) -> u64 {
        let spawn_cost = self.sc.cost.vri_spawn_ns;
        let kill_cost = self.sc.cost.vri_kill_ns;
        let mut to_schedule = Vec::new();
        {
            let Mech::Lvrm { host, .. } = &mut self.mech else { return t };
            let host = &mut host.inner;
            for idx in std::mem::take(&mut host.newly_spawned) {
                t = self.cpu.charge(self.lvrm_core, t, spawn_cost, CpuBucket::System);
                host.slots[idx].active_after_ns = t;
                host.slots[idx].poll_scheduled = true;
                to_schedule.push((idx, t));
            }
            for _ in std::mem::take(&mut host.newly_killed) {
                t = self.cpu.charge(self.lvrm_core, t, kill_cost, CpuBucket::System);
            }
        }
        for (idx, at) in to_schedule {
            self.q.schedule(at, Event::VriPoll { slot: idx });
        }
        t
    }

    /// Wake any live VRI that has queued work but no pending poll event.
    fn schedule_vri_polls(&mut self, t: u64) {
        let mut wake = Vec::new();
        {
            let Mech::Lvrm { host, .. } = &mut self.mech else { return };
            for (i, slot) in host.inner.slots.iter_mut().enumerate() {
                if slot.alive
                    && !slot.stalled
                    && !slot.poll_scheduled
                    && slot.adapter.as_ref().is_some_and(|a| a.has_pending())
                {
                    slot.poll_scheduled = true;
                    wake.push(i);
                }
            }
        }
        for i in wake {
            self.q.schedule(t, Event::VriPoll { slot: i });
        }
    }

    fn rearm_gateway(&mut self, now: u64, t: u64, pending_egress: bool) {
        let rings_pending = !self.rx_rings[0].is_empty() || !self.rx_rings[1].is_empty();
        if rings_pending || pending_egress {
            self.q.schedule(t.max(now + GW_POLL_NS), Event::GatewayPoll);
            self.gw_poll_scheduled = true;
        } else {
            self.gw_poll_scheduled = false;
        }
    }

    // ------------------------------------------------------------ VRIs

    /// Whether VR spec `k` runs replicated dispatch (per-VR override first,
    /// then the config's global mode).
    fn vr_replicated(&self, k: usize) -> bool {
        self.sc.vrs[k].dispatch.unwrap_or(self.sc.lvrm.dispatch) == DispatchMode::Replicated
    }

    fn on_vri_poll(&mut self, slot: usize, now: u64) {
        let unpinned = self.sc.lvrm.affinity == lvrm_core::topology::AffinityMode::Default;
        let contention = {
            let core = match &self.mech {
                Mech::Lvrm { host, .. } => host.inner.slots.get(slot).map(|s| s.spec.core),
                _ => None,
            };
            core.map_or(1, |c| self.core_residents(c))
        };
        // Replication plumbing resolved up front: the owning VR spec's
        // per-byte service cost and whether this slot keeps a state ledger.
        let (per_byte, replicated) = {
            let vr_idx = match &self.mech {
                Mech::Lvrm { host, vr_ids, .. } => host
                    .inner
                    .slots
                    .get(slot)
                    .and_then(|s| vr_ids.iter().position(|id| *id == s.spec.vr)),
                _ => None,
            };
            match vr_idx {
                Some(k) => (self.sc.vrs[k].per_byte_load_ns, self.vr_replicated(k)),
                None => (0, false),
            }
        };
        let mut t = now;
        let mut produced = false;
        let more;
        {
            let Mech::Lvrm { host, .. } = &mut self.mech else { return };
            let Some(s) = host.inner.slots.get_mut(slot) else { return };
            if !s.alive || s.stalled || s.adapter.is_none() {
                // A stalled slot neither services nor heartbeats; it gets
                // re-woken by `schedule_vri_polls` once un-stalled.
                s.poll_scheduled = false;
                return;
            }
            if now < s.active_after_ns {
                self.q.schedule(s.active_after_ns, Event::VriPoll { slot });
                return;
            }
            let busy = self.cpu.busy_until(s.spec.core);
            if busy > now {
                // The core is still executing earlier work; polling resumes
                // when it frees up. Keeps consumption paced by core time.
                self.q.schedule(busy, Event::VriPoll { slot });
                return;
            }
            if replicated && s.ledger.is_none() {
                s.ledger = Some(ReplicaLedger::new(s.spec.vri.0));
            }
            let deadline = now + POLL_SLICE_NS;
            let topo = CoreTopology::dual_quad_xeon();
            let penalty = self.sc.cost.core_penalty(&topo, self.lvrm_core, s.spec.core, unpinned);
            for _ in 0..VRI_BATCH {
                if t >= deadline {
                    break;
                }
                // The adapter's service-time samples use the VRI's own core
                // timeline `t`, not the global clock: the global clock is
                // advanced by unrelated events between this VRI's polls,
                // which would pollute the measured per-frame service time.
                let adapter = s.adapter.as_mut().expect("checked above");
                match adapter.from_lvrm(t) {
                    Some(lvrm_ipc::channels::Work::Data(mut frame)) => {
                        let cost = (penalty
                            + s.router.nominal_cost_ns()
                            + s.router.dummy_load_ns()
                            + per_byte * frame.len() as u64)
                            * contention;
                        t = self.cpu.charge(s.spec.core, t, cost, CpuBucket::User);
                        s.processed += 1;
                        if let Some(ledger) = s.ledger.as_mut() {
                            if let Some(key) = FlowKey::from_frame(&frame) {
                                ledger.observe(key, frame.len() as u64, t);
                            }
                        }
                        if let RouterAction::Forward { .. } = s.router.process(&mut frame) {
                            if adapter.to_lvrm(frame).is_ok() {
                                produced = true;
                            }
                        }
                    }
                    Some(lvrm_ipc::channels::Work::Control(ev)) => {
                        // Sibling state-update batches fold into the local
                        // books; other control traffic costs a flat touch.
                        let mut cost = 100;
                        if let Some(ledger) = s.ledger.as_mut() {
                            if lvrm_core::is_state_update(&ev.payload) {
                                if let Ok((origin, updates)) = lvrm_core::decode_batch(&ev.payload)
                                {
                                    cost += REPL_FOLD_NS * updates.len() as u64;
                                    ledger.fold_batch(origin, &updates);
                                }
                            }
                        }
                        t = self.cpu.charge(s.spec.core, t, cost * contention, CpuBucket::User);
                    }
                    None => break,
                }
            }
            // Emit this pass's coalesced state deltas to the monitor for
            // fan-out to the sibling replicas (DESIGN.md §14).
            if let Some(ledger) = s.ledger.as_mut() {
                if let Some(buf) = ledger.flush() {
                    let records = (buf.len().saturating_sub(15) / 45) as u64;
                    t = self.cpu.charge(
                        s.spec.core,
                        t,
                        (REPL_EMIT_BASE_NS + REPL_FOLD_NS * records) * contention,
                        CpuBucket::User,
                    );
                    self.repl_trace.push(fnv1a(&buf));
                    let adapter = s.adapter.as_mut().expect("checked above");
                    let _ =
                        adapter.send_control(ControlEvent::new(s.spec.vri.0, LVRM_CTRL_ID, buf));
                    produced = true;
                }
            }
            more = s.adapter.as_ref().is_some_and(|a| a.has_pending());
            s.poll_scheduled = more;
        }
        if more {
            self.q.schedule(t, Event::VriPoll { slot });
        }
        if produced && !self.gw_poll_scheduled {
            self.gw_poll_scheduled = true;
            self.q.schedule(t, Event::GatewayPoll);
        }
    }

    // ------------------------------------------------------------ sampling

    fn take_warmup_snapshot(&mut self, now: u64) {
        if !self.warmup_done && now >= self.sc.warmup_ns {
            self.warmup_done = true;
            for (i, f) in self.tcp.iter().enumerate() {
                self.tcp_goodput_at_warmup[i] = f.delivered_bytes;
            }
        }
    }

    fn on_sample(&mut self, now: u64) {
        if self.sc.sample_period_ns > 0 {
            let vris_per_vr = match &self.mech {
                Mech::Lvrm { lvrm, vr_ids, .. } => {
                    vr_ids.iter().map(|id| lvrm.vri_count(*id)).collect()
                }
                _ => Vec::new(),
            };
            let dt = now.saturating_sub(self.last_sample_ns).max(1);
            // With TCP present, report application goodput (what Fig. 4.22
            // plots); otherwise delivered wire bytes.
            let mbps = if self.tcp.is_empty() {
                let delta = self.delivered_wire_bytes - self.delivered_wire_bytes_last_sample;
                delta as f64 * 8.0 / dt as f64 * 1e3
            } else {
                let total: u64 = self.tcp.iter().map(|f| f.delivered_bytes).sum();
                let delta = total - self.tcp_goodput_last_sample;
                self.tcp_goodput_last_sample = total;
                delta as f64 * 8.0 / dt as f64 * 1e3
            };
            let offered: Vec<f64> = (0..self.sc.vrs.len())
                .map(|vr| {
                    self.sc
                        .sources
                        .iter()
                        .filter(|s| s.vr == vr)
                        .map(|s| s.schedule.rate_at(now))
                        .sum()
                })
                .collect();
            self.samples.push(VriSample {
                t_ns: now,
                vris_per_vr,
                delivered_mbps: mbps,
                offered_fps_per_vr: offered,
            });
            self.delivered_wire_bytes_last_sample = self.delivered_wire_bytes;
            self.last_sample_ns = now;
            if now + self.sc.sample_period_ns < self.sc.duration_ns {
                self.q.schedule(now + self.sc.sample_period_ns, Event::Sample);
            }
        }
    }

    fn vr_of_src(&self, frame: &Frame) -> Option<usize> {
        let src = frame.src_ip().ok()?;
        self.sc.vrs.iter().position(|v| {
            let o = v.sender_subnet.0.octets();
            let s = src.octets();
            o[0] == s[0] && o[1] == s[1] && o[2] == s[2]
        })
    }

    fn finish(mut self) -> ScenarioResult {
        // End-of-run monitor snapshot, taken BEFORE any shutdown drain:
        // shutdown purges the balancer's flow tables, so tracked-flow
        // occupancy is only observable here.
        let vr_snapshots = match &self.mech {
            Mech::Lvrm { lvrm, .. } => lvrm.snapshot(),
            _ => Vec::new(),
        };
        if self.sc.drain_shutdown {
            if let Mech::Lvrm { lvrm, host, clock, .. } = &mut self.mech {
                // Drain to a quiescent monitor: every queued frame is
                // serviced, rescued, or charged to a loss counter, so the
                // final snapshot closes the books with zero in-flight.
                let deadline = clock.now_ns() + 1_000_000_000;
                let mut rounds = 0;
                while !lvrm.shutdown(deadline, host) {
                    pump_slots(&mut host.inner, clock.now_ns());
                    rounds += 1;
                    assert!(rounds < 1000, "scenario shutdown drain must converge");
                }
                // Collect egress rescued at retirement (counts frames_out).
                let mut out = Vec::new();
                lvrm.poll_egress(&mut out);
            }
        }
        let (realloc, per_vri, lvrm_stats, supervision, metrics) = match &self.mech {
            Mech::Lvrm { lvrm, vr_ids, .. } => (
                lvrm.realloc_log.clone(),
                vr_ids.iter().map(|id| lvrm.vri_dispatch_counts(*id)).collect(),
                Some(lvrm.stats()),
                lvrm.supervision_log.clone(),
                Some(lvrm.metrics_snapshot()),
            ),
            _ => (Vec::new(), Vec::new(), None, Vec::new(), None),
        };
        ScenarioResult {
            duration_ns: self.sc.duration_ns,
            warmup_ns: self.sc.warmup_ns,
            udp_sent: self.udp_sent,
            udp_received: self.udp_received,
            flood_sent: self.flood_sent,
            per_vr_sent: self.per_vr_sent,
            per_vr_received: self.per_vr_received,
            udp_flows: self.udp_flows,
            tcp_goodput: self
                .tcp
                .iter()
                .enumerate()
                .map(|(i, f)| f.delivered_bytes - self.tcp_goodput_at_warmup[i])
                .collect(),
            tcp_retransmits: self.tcp.iter().map(|f| f.retransmits).sum(),
            tcp_timeouts: self.tcp.iter().map(|f| f.timeouts).sum(),
            latency: self.latency,
            rtt: self.rtt,
            samples: self.samples,
            realloc,
            cpu_busy: (0..8).map(|c| self.cpu.busy_ns(CoreId(c))).collect(),
            per_vri_dispatches: per_vri,
            lvrm_stats,
            supervision,
            vr_snapshots,
            metrics,
            ring_drops: self.ring_drops,
            repl_trace: self.repl_trace,
        }
    }
}

/// Service every live VRI slot to empty — the shutdown-drain pump (the
/// event loop has already stopped, so polls won't fire again).
fn pump_slots(host: &mut SimHost, now: u64) {
    for s in host.slots.iter_mut() {
        if !s.alive || s.stalled {
            continue;
        }
        let Some(adapter) = s.adapter.as_mut() else { continue };
        while let Some(work) = adapter.from_lvrm(now) {
            if let lvrm_ipc::channels::Work::Data(mut frame) = work {
                if let RouterAction::Forward { .. } = s.router.process(&mut frame) {
                    let _ = adapter.to_lvrm(frame);
                }
            }
        }
    }
}

fn kernel_routes(vrs: &[VrSpec]) -> lvrm_router::RouteTable {
    let mut t = lvrm_router::RouteTable::new();
    for v in vrs {
        t.insert(lvrm_router::Route {
            prefix: v.receiver_subnet.0,
            len: v.receiver_subnet.1,
            iface: 1,
            next_hop: None,
        });
        t.insert(lvrm_router::Route {
            prefix: v.sender_subnet.0,
            len: v.sender_subnet.1,
            iface: 0,
            next_hop: None,
        });
    }
    t
}

/// `top`-style buckets for socket work: raw-socket I/O is syscalls (sy);
/// PF_RING polling shows up as softirq/driver time; the memory adapter is
/// plain user-space copying.
fn socket_buckets(kind: SocketKind) -> (CpuBucket, CpuBucket) {
    match kind {
        SocketKind::RawSocket => (CpuBucket::System, CpuBucket::System),
        SocketKind::PfRing => (CpuBucket::SoftIrq, CpuBucket::SoftIrq),
        SocketKind::MemTrace => (CpuBucket::User, CpuBucket::User),
    }
}

/// FNV-1a over an encoded LVSU batch — the replication-trace digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Stable per-flow key: source address + source port.
fn flow_key(frame: &Frame) -> u64 {
    let src = frame.src_ip().map(u32::from).unwrap_or(0) as u64;
    let port = frame
        .udp()
        .map(|u| u.src_port())
        .or_else(|_| frame.tcp().map(|t| t.src_port()))
        .unwrap_or(0) as u64;
    (src << 16) | port
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::VrType;

    fn quick(mech: ForwardingMech) -> Scenario {
        let mut sc = Scenario::new(mech);
        sc.duration_ns = 300_000_000;
        sc.warmup_ns = 100_000_000;
        sc
    }

    #[test]
    fn native_forwards_udp_loss_free_below_capacity() {
        let sc = quick(ForwardingMech::Native).with_udp_load(0, 84, 100_000.0, 8);
        let r = sc.run();
        assert!(r.udp_sent > 15_000, "sent {}", r.udp_sent);
        assert!(
            r.delivery_ratio() > 0.99,
            "100 Kfps is well under the native 448 Kfps cap: ratio {}",
            r.delivery_ratio()
        );
    }

    #[test]
    fn native_saturates_near_448kfps() {
        let under = quick(ForwardingMech::Native).with_udp_load(0, 84, 400_000.0, 8).run();
        let over = quick(ForwardingMech::Native).with_udp_load(0, 84, 600_000.0, 8).run();
        assert!(under.delivery_ratio() > 0.98, "under: {}", under.delivery_ratio());
        assert!(over.delivery_ratio() < 0.90, "over: {}", over.delivery_ratio());
    }

    #[test]
    fn lvrm_forwards_udp_end_to_end() {
        let sc = quick(ForwardingMech::Lvrm).with_udp_load(0, 84, 100_000.0, 8);
        let r = sc.run();
        assert!(
            r.delivery_ratio() > 0.99,
            "LVRM at 100 Kfps: ratio {} (stats {:?}, ring drops {})",
            r.delivery_ratio(),
            r.lvrm_stats,
            r.ring_drops
        );
        let s = r.lvrm_stats.unwrap();
        assert!(s.frames_in > 0 && s.frames_out > 0);
        assert_eq!(s.unclassified, 0);
    }

    #[test]
    fn hypervisors_are_much_slower() {
        let native = quick(ForwardingMech::Native).with_udp_load(0, 84, 200_000.0, 8).run();
        let kvm = quick(ForwardingMech::Hypervisor(HypervisorKind::QemuKvm))
            .with_udp_load(0, 84, 200_000.0, 8)
            .run();
        assert!(native.delivery_ratio() > 0.98);
        assert!(kvm.delivery_ratio() < 0.5, "KVM at 200 Kfps: {}", kvm.delivery_ratio());
    }

    #[test]
    fn ping_rtt_is_in_the_paper_range() {
        let mut sc = quick(ForwardingMech::Native);
        sc.sources.push(SourceSpec {
            vr: 0,
            host: 1,
            kind: SourceKind::Ping { wire_size: 84, interval_ns: 1_000_000 },
            schedule: RateSchedule::constant(0.0),
        });
        let r = sc.run();
        assert!(r.rtt.count() > 100, "pings delivered: {}", r.rtt.count());
        let mean_us = r.rtt.mean_ns() / 1e3;
        assert!(
            (50.0..150.0).contains(&mean_us),
            "RTT {mean_us} us should sit in the paper's 70-120 us band"
        );
    }

    #[test]
    fn lvrm_dynamic_allocation_follows_load() {
        let mut sc = quick(ForwardingMech::Lvrm);
        sc.duration_ns = 6_000_000_000;
        sc.warmup_ns = 3_000_000_000; // measure after allocation converges
        sc.sample_period_ns = 500_000_000;
        sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 })];
        sc.lvrm.allocator =
            lvrm_core::config::AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
        // 150 Kfps offered: wants 3 cores at 60 Kfps per core.
        sc = sc.with_udp_load(0, 84, 150_000.0, 8);
        let r = sc.run();
        let final_vris = r.samples.last().unwrap().vris_per_vr[0];
        assert_eq!(
            final_vris,
            3,
            "150 Kfps / 60 Kfps per core -> 3 VRIs; samples: {:?}",
            r.samples.iter().map(|s| s.vris_per_vr.clone()).collect::<Vec<_>>()
        );
        assert!(r.delivery_ratio() > 0.95, "ratio {}", r.delivery_ratio());
    }

    #[test]
    fn tcp_flow_transfers_bulk_data() {
        let mut sc = quick(ForwardingMech::Native);
        sc.duration_ns = 2_000_000_000;
        sc.warmup_ns = 500_000_000;
        sc.tcp_flows.push(TcpFlowSpec { vr: 0, cfg: TcpConfig::default(), start_ns: 0 });
        let r = sc.run();
        let mbps = r.tcp_aggregate_mbps();
        assert!(
            (300.0..1000.0).contains(&mbps),
            "single Reno flow on 1 GbE should reach hundreds of Mbps, got {mbps}"
        );
        assert_eq!(r.tcp_timeouts, 0, "clean path should not time out");
    }

    #[test]
    fn tcp_flows_share_capacity_fairly() {
        let mut sc = quick(ForwardingMech::Native);
        sc.duration_ns = 3_000_000_000;
        sc.warmup_ns = 1_000_000_000;
        for _ in 0..4 {
            sc.tcp_flows.push(TcpFlowSpec { vr: 0, cfg: TcpConfig::default(), start_ns: 0 });
        }
        let r = sc.run();
        let rates = r.tcp_goodput_mbps();
        let jain = lvrm_metrics::jain_index(&rates);
        assert!(jain > 0.8, "4-flow Jain {jain}, rates {rates:?}");
        let agg = r.tcp_aggregate_mbps();
        assert!((400.0..1000.0).contains(&agg), "aggregate {agg} Mbps");
    }

    #[test]
    fn search_achievable_finds_the_knee() {
        let rate = search_achievable(
            |r| {
                let mut sc = quick(ForwardingMech::Native).with_udp_load(0, 84, r, 8);
                sc.duration_ns = 200_000_000;
                sc.warmup_ns = 50_000_000;
                sc
            },
            50_000.0,
            1_000_000.0,
            7,
        );
        assert!(
            (380_000.0..520_000.0).contains(&rate),
            "native knee should be near 448 Kfps, got {rate}"
        );
    }
}
