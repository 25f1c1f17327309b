//! `Lvrm::run_burst`, the monitor loop every caller runs, from the root
//! package (tier-1): it is the order `lvrmd` used to write out by hand, a
//! standby leaves the adapter unread while the rest of the burst goes on,
//! a planned host fault fires in the first burst due, and a frame the
//! adapter refuses goes out on the next burst instead of being lost.

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::core::{
    ChannelLink, ClusterConfig, FaultPlan, FaultyHost, MemTraceAdapter, PeerLink, SendRejected,
};
use lvrm::ipc::channels::ControlEvent;
use lvrm::prelude::*;

/// Clock step between bursts.
const STEP_NS: u64 = 20_000_000;

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

/// Forwards everything.
fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    Box::new(FastVr::new(name, lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap()))
}

/// Frames from two VR subnets and one no VR claims.
fn trace() -> Trace {
    let mut spec = TraceSpec::new(84, 48);
    spec.src_subnets = vec![
        (Ipv4Addr::new(10, 0, 1, 0), 24),
        (Ipv4Addr::new(10, 0, 3, 0), 24),
        (Ipv4Addr::new(10, 0, 9, 0), 24),
    ];
    Trace::generate(&spec)
}

/// A trace replayed from memory that keeps what it is sent, in order, and
/// refuses the send attempts whose index falls in `refuse`.
struct Wire {
    src: MemTraceAdapter,
    sent: Vec<Frame>,
    attempts: u64,
    refuse: std::ops::Range<u64>,
}

impl Wire {
    /// `frames` frames of `trace`, every send accepted.
    fn new(trace: Trace, frames: u64) -> Wire {
        let src = MemTraceAdapter::new(trace, frames);
        Wire { src, sent: Vec::new(), attempts: 0, refuse: 0..0 }
    }

    /// What left, as `(bytes, egress interface, ingress stamp)`.
    fn departures(&self) -> Vec<(Vec<u8>, u16, u64)> {
        self.sent.iter().map(|f| (f.bytes().to_vec(), f.egress_if, f.ts_ns)).collect()
    }
}

impl SocketAdapter for Wire {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        self.src.poll()
    }

    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        self.attempts += 1;
        if self.refuse.contains(&(self.attempts - 1)) {
            return Err(SendRejected { frame, error: AdapterError::WouldBlock });
        }
        self.sent.push(frame);
        Ok(())
    }

    fn kind(&self) -> SocketKind {
        SocketKind::MemTrace
    }

    fn rx_count(&self) -> u64 {
        self.src.rx_count()
    }

    fn tx_count(&self) -> u64 {
        self.sent.len() as u64
    }
}

/// The burst as `lvrmd` wrote it out before `run_burst` existed: the oracle.
fn lvrmd_burst(
    lvrm: &mut Lvrm<ManualClock>,
    clock: &ManualClock,
    nic: &mut Wire,
    host: &mut RecordingHost,
    ingress: &mut Vec<Frame>,
    egress: &mut Vec<Frame>,
) {
    let batch_size = lvrm.config().batch_size;
    if lvrm.ha_accepting() && nic.poll_batch(ingress, batch_size).unwrap_or(0) > 0 {
        let ts = clock.now_ns();
        for f in ingress.iter_mut() {
            f.ts_ns = ts;
            f.ingress_if = 0;
        }
        lvrm.ingress_batch(ingress, host);
        ingress.clear();
    }
    host.pump();
    nic.advance(clock.now_ns());
    lvrm.process_control();
    lvrm.maybe_reallocate(clock.now_ns(), host);
    egress.clear();
    lvrm.poll_egress(egress);
    let _ = nic.send_batch(egress);
}

#[test]
fn run_burst_is_the_loop_lvrmd_ran() {
    let config = LvrmConfig {
        batch_size: 8,
        data_queue_capacity: 16,
        supervision: true,
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 100.0 },
        ..Default::default()
    };
    let monitor = |clock: &ManualClock| {
        let mut lvrm = new_lvrm(clock.clone(), config.clone());
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
        lvrm.add_vr("deptB", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);
        (lvrm, host)
    };
    let (clock_a, clock_b) = (ManualClock::new(), ManualClock::new());
    let (mut a, mut host_a) = monitor(&clock_a);
    let (mut b, mut host_b) = monitor(&clock_b);
    // More bursts than frames: the tail runs idle, as a quiet NIC does.
    let (mut nic_a, mut nic_b) = (Wire::new(trace(), 1_000), Wire::new(trace(), 1_000));
    let (mut ingress, mut egress) = (Vec::new(), Vec::new());
    let (mut ticks_a, mut ticks_b) = (Vec::new(), Vec::new());
    for burst in 0..160u64 {
        clock_a.set_ns(burst * STEP_NS);
        clock_b.set_ns(burst * STEP_NS);
        a.run_burst(&mut nic_a, &mut host_a);
        lvrmd_burst(&mut b, &clock_b, &mut nic_b, &mut host_b, &mut ingress, &mut egress);
        ticks_a.extend(a.take_tick_line());
        ticks_b.extend(b.take_tick_line());
    }
    assert!(ticks_a.len() >= 3, "the run crosses at least two allocation periods: {ticks_a:?}");
    assert!(a.realloc_log.len() >= 2, "the allocator acted: {:?}", a.realloc_log.len());
    assert_eq!(ticks_a, ticks_b);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.ledger().to_string(), b.ledger().to_string());
    assert_eq!(a.ledger().check(), Ok(()), "{}", a.ledger());
    assert_eq!(nic_a.src.rx_count(), 1_000);
    assert!(a.stats().unclassified > 0 && a.stats().frames_out > 0);
    assert_eq!(nic_a.departures(), nic_b.departures());
}

#[test]
fn a_standby_leaves_the_adapter_unread_and_runs_the_rest() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        batch_size: 4,
        allocator: AllocatorKind::Fixed { cores: 2 },
        allocation_period_ns: STEP_NS / 2,
        cluster: Some(ClusterConfig::default()),
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    lvrm.maybe_reallocate(0, &mut host); // Fixed{2}: VRI 1
    lvrm.take_tick_line();
    // While the node is still solo, four frames go in to wedged VRIs.
    host.stalled.extend([VriId(0), VriId(1)]);
    let mut solo = Wire::new(Trace::generate(&TraceSpec::new(84, 4)), 4);
    lvrm.run_burst(&mut solo, &mut host);
    assert_eq!((lvrm.stats().frames_in, lvrm.stats().frames_out), (4, 0));
    // A partner link makes the node its shard's backup; the partner stays
    // silent, and the burst below comes before it is declared down.
    let (link, _partner) = ChannelLink::pair();
    assert!(lvrm.attach_cluster(vec![(0, Box::new(link) as Box<dyn PeerLink>)]));
    assert!(!lvrm.ha_accepting());
    host.stalled.clear();
    // VRI 0 sends VRI 1 a control event.
    let endpoint = host.vris[0].endpoint_mut();
    endpoint.ctrl_tx.try_send(ControlEvent::new(0, 1, b"route update".to_vec())).unwrap();

    clock.set_ns(STEP_NS);
    let mut nic = Wire::new(trace(), 1_000);
    lvrm.run_burst(&mut nic, &mut host);
    assert!(!lvrm.ha_accepting(), "still the backup");
    assert_eq!(nic.src.rx_count(), 0, "the adapter was never read");
    assert_eq!(lvrm.stats().frames_in, 4, "nothing came in");
    assert_eq!(lvrm.stats().control_relayed, 1, "control ran");
    assert!(lvrm.take_tick_line().is_some(), "the tick ran");
    assert_eq!(nic.sent.len(), 4, "egress ran: the queued frames left through the adapter");
    assert_eq!(lvrm.ledger().check(), Ok(()), "{}", lvrm.ledger());
}

#[test]
fn a_planned_crash_fires_in_the_first_burst_due() {
    const CRASH_NS: u64 = 5 * STEP_NS;
    let clock = ManualClock::new();
    let config = LvrmConfig { supervision: true, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host =
        FaultyHost::new(RecordingHost::with_heartbeats(), FaultPlan::new().crash_at(CRASH_NS, 0));
    lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let mut nic = Wire::new(trace(), 1_000);
    // Bursts land 3 ms after each step, so none falls on the crash instant.
    for burst in 0..8u64 {
        let now = burst * STEP_NS + 3_000_000;
        clock.set_ns(now);
        lvrm.run_burst(&mut nic, &mut host);
        let due = now >= CRASH_NS;
        assert_eq!(host.injected, u64::from(due), "burst at {now} ns");
        assert_eq!(host.inner.vris.is_empty(), due, "burst at {now} ns");
    }
}

#[test]
fn a_refused_frame_goes_out_on_the_next_burst() {
    let clock = ManualClock::new();
    let config = LvrmConfig { batch_size: 4, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let mut nic = Wire::new(Trace::generate(&TraceSpec::new(84, 12)), 12);
    // The first burst's third and fourth frames are refused.
    nic.refuse = 2..4;
    assert_eq!(lvrm.run_burst(&mut nic, &mut host), 4);
    assert_eq!(nic.sent.len(), 2);
    for _ in 0..3 {
        lvrm.run_burst(&mut nic, &mut host);
    }
    assert_eq!(nic.sent.len(), 12, "nothing lost");
    let mut replay = Trace::generate(&TraceSpec::new(84, 12));
    let offered: Vec<Vec<u8>> = (0..12).map(|_| replay.next_frame().bytes().to_vec()).collect();
    let departed: Vec<Vec<u8>> = nic.sent.iter().map(|f| f.bytes().to_vec()).collect();
    assert_eq!(departed, offered, "a refused frame goes out first, order kept");
    assert_eq!(lvrm.stats().frames_out, 12);
}
