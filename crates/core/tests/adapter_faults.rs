//! Chaos suite for the *adapter* supervisor: seeded, time-addressed faults
//! (crash, stall, error burst, refused sends) injected into a supervised
//! NIC chain feeding a live monitor, across every `QueueKind`. The
//! acceptance bar mirrors the VRI chaos suite: the adapter layer may never
//! lose a frame silently — everything polled is conserved through the
//! monitor, everything the monitor emits is either on the wire, parked in
//! the retry queue, or visibly counted in `tx_drops`.
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset (as CI runs it) runs both.

use lvrm_core::{
    AdapterError, AdapterState, AdapterSupervisorConfig, FaultPlan, FaultySocket, Lvrm,
    ManualClock, MemTraceAdapter, RecordingHost, SendRejected, SocketAdapter, SocketKind,
    SupervisedAdapter,
};
use lvrm_net::{Frame, Trace, TraceSpec};

mod common;
use common::{chaos_config, new_lvrm, queue_kinds, routed_vr, subnet};

const BATCH: usize = 32;
const STEP_NS: u64 = 100_000_000; // 100 ms
const STEPS: u64 = if cfg!(miri) { 20 } else { 60 };

/// Trace whose frames land in the test VR's 10.0.1.0/24 subnet (the
/// `TraceSpec` default source range).
fn mem(frames: u64) -> MemTraceAdapter {
    MemTraceAdapter::new(Trace::generate(&TraceSpec::new(84, 8)), frames)
}

/// Tight thresholds so faults walk the state machine inside a short run;
/// a retry deadline far beyond the horizon so no frame can time out behind
/// the assertions' back (deadline expiry has its own unit tests).
fn sup_cfg() -> AdapterSupervisorConfig {
    AdapterSupervisorConfig {
        error_threshold: 2,
        dead_threshold: 4,
        reopen_backoff_ns: 100_000_000,
        reopen_backoff_max_ns: 1_000_000_000,
        egress_retry_deadline_ns: 3_600_000_000_000,
    }
}

/// One 100 ms simulation step: advance the supervisor clock (firing due
/// plan events), poll a burst off the NIC into the monitor, run the
/// control plane, and push egress back through the NIC. Returns frames
/// polled this step.
fn step(
    t: u64,
    clock: &ManualClock,
    lvrm: &mut Lvrm<ManualClock>,
    host: &mut RecordingHost,
    nic: &mut SupervisedAdapter,
) -> usize {
    clock.set_ns(t);
    nic.tick(t);
    let mut burst: Vec<Frame> = Vec::new();
    let polled = nic.poll_batch(&mut burst, BATCH).unwrap_or(0);
    if polled > 0 {
        lvrm.ingress_batch(&mut burst, host);
    }
    host.pump();
    lvrm.process_control();
    lvrm.maybe_reallocate(t, host);
    let mut egress: Vec<Frame> = Vec::new();
    lvrm.poll_egress(&mut egress);
    let _ = nic.send_batch(&mut egress);
    polled
}

/// Pump until nothing moves anywhere: VRI queues, egress, and the NIC
/// retry queue must all run dry (small time steps so retry flushes fire).
fn settle(
    mut t: u64,
    clock: &ManualClock,
    lvrm: &mut Lvrm<ManualClock>,
    host: &mut RecordingHost,
    nic: &mut SupervisedAdapter,
) {
    for _ in 0..400 {
        clock.set_ns(t);
        let moved = host.pump();
        lvrm.process_control();
        let mut egress: Vec<Frame> = Vec::new();
        lvrm.poll_egress(&mut egress);
        let emitted = egress.len();
        let _ = nic.send_batch(&mut egress);
        let retried = nic.tick(t);
        t += 10_000_000;
        if moved == 0 && emitted == 0 && retried == 0 && nic.retry_pending() == 0 {
            return;
        }
    }
    panic!("pipeline failed to settle: {} retry frames pending", nic.retry_pending());
}

/// The adapter-layer conservation bar: everything the NIC delivered is in
/// the monitor's books, everything the monitor emitted reached the wire.
fn assert_no_unaccounted(lvrm: &Lvrm<ManualClock>, nic: &SupervisedAdapter, ctx: &str) {
    let s = lvrm.stats();
    assert_eq!(s.frames_in, nic.rx_count(), "{ctx}: polled frames must all enter the monitor");
    assert_eq!(s.frames_out, s.frames_in, "{ctx}: an all-routing VR forwards everything");
    assert_eq!(nic.tx_count(), s.frames_out, "{ctx}: every egress frame must reach the wire");
    assert_eq!(nic.tx_drops, 0, "{ctx}: no egress frame may be lost");
    assert_eq!(nic.retry_pending(), 0, "{ctx}: retry queue must be drained");
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check_settled(), Ok(()), "{ctx}: {ledger}");
}

/// The acceptance scenario: the NIC crashes mid-burst. The supervisor must
/// declare it dead on the next poll, revive it via reopen, and resume
/// delivery within one reallocation tick — with zero unaccounted frames.
#[test]
fn adapter_crash_mid_burst_recovers_within_one_tick() {
    for kind in queue_kinds() {
        let crash_at = 2_000_000_000u64;
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        let plan = FaultPlan::new().crash_adapter_at(crash_at);
        let faulty = FaultySocket::with_plan(mem(1_000_000), &plan);
        let mut nic = SupervisedAdapter::new(Box::new(faulty), sup_cfg());

        let mut first_delivery_after_crash = u64::MAX;
        for s in 0..=STEPS {
            let t = s * STEP_NS;
            let polled = step(t, &clock, &mut lvrm, &mut host, &mut nic);
            if t > crash_at && polled > 0 && first_delivery_after_crash == u64::MAX {
                first_delivery_after_crash = t;
            }
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        assert_eq!(nic.reopens, 1, "{kind:?}: the crash must be healed by exactly one reopen");
        assert_eq!(nic.state(), AdapterState::Healthy, "{kind:?}");
        assert!(
            first_delivery_after_crash <= crash_at + 1_000_000_000,
            "{kind:?}: delivery must resume within one reallocation tick, \
             first frames {} ms after the crash",
            (first_delivery_after_crash.saturating_sub(crash_at)) / 1_000_000
        );
        assert_no_unaccounted(&lvrm, &nic, "crash");
    }
}

/// A stalled NIC (ops hang, no fatal error) must ride the consecutive-fault
/// ladder to `Dead` and be revived by the immediate reopen.
#[test]
fn adapter_stall_is_declared_dead_then_reopened() {
    for kind in queue_kinds() {
        let stall_at = 2_000_000_000u64;
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        let plan = FaultPlan::new().stall_adapter_at(stall_at);
        let faulty = FaultySocket::with_plan(mem(1_000_000), &plan);
        let mut nic = SupervisedAdapter::new(Box::new(faulty), sup_cfg());

        let mut first_delivery_after_stall = u64::MAX;
        for s in 0..=STEPS {
            let t = s * STEP_NS;
            let polled = step(t, &clock, &mut lvrm, &mut host, &mut nic);
            if t > stall_at && polled > 0 && first_delivery_after_stall == u64::MAX {
                first_delivery_after_stall = t;
            }
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        assert_eq!(nic.reopens, 1, "{kind:?}: stall must end in a reopen");
        // dead_threshold polls at one per step, then the reopen: well under
        // one reallocation tick.
        assert!(
            first_delivery_after_stall <= stall_at + 1_000_000_000,
            "{kind:?}: stall recovery took {} ms",
            (first_delivery_after_stall.saturating_sub(stall_at)) / 1_000_000
        );
        assert_no_unaccounted(&lvrm, &nic, "stall");
    }
}

/// A stall that resumes on its own (plan `Resume` event) must only degrade
/// the adapter — no reopen, no failover, nothing lost.
#[test]
fn adapter_stall_with_resume_only_degrades() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        // Two failed polls (100 ms steps) before the resume fires: crosses
        // error_threshold=2 into Degraded, stays short of dead_threshold=4.
        let plan =
            FaultPlan::new().stall_adapter_at(2_000_000_000).resume_adapter_at(2_250_000_000);
        let faulty = FaultySocket::with_plan(mem(1_000_000), &plan);
        let mut nic = SupervisedAdapter::new(Box::new(faulty), sup_cfg());

        let mut saw_degraded = false;
        for s in 0..=STEPS {
            let t = s * STEP_NS;
            step(t, &clock, &mut lvrm, &mut host, &mut nic);
            saw_degraded |= nic.state() == AdapterState::Degraded;
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        assert!(saw_degraded, "{kind:?}: the stall window must be visible as Degraded");
        assert_eq!(nic.state(), AdapterState::Healthy, "{kind:?}");
        assert_eq!(nic.reopens, 0, "{kind:?}: a self-healing stall needs no reopen");
        assert_eq!(nic.failovers, 0, "{kind:?}");
        assert_no_unaccounted(&lvrm, &nic, "stall+resume");
    }
}

/// An error burst damages frames at the NIC edge. Damaged frames are
/// excluded from `rx_count` by the fault wrapper, so the books still
/// balance: everything *delivered* is conserved.
#[test]
fn adapter_error_burst_degrades_but_conserves_delivered_frames() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        let burst_len = 10u64;
        let plan = FaultPlan::new().adapter_error_burst_at(2_000_000_000, burst_len);
        let faulty = FaultySocket::with_plan(mem(1_000_000), &plan);
        let mut nic = SupervisedAdapter::new(Box::new(faulty), sup_cfg());

        for s in 0..=STEPS {
            step(s * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        // Consecutive damaged frames each error the head of one batch poll.
        assert_eq!(nic.rx_errors, burst_len, "{kind:?}: every damaged frame surfaces as a fault");
        assert_eq!(nic.state(), AdapterState::Healthy, "{kind:?}: the burst must clear");
        assert_no_unaccounted(&lvrm, &nic, "error burst");
    }
}

/// Delegating wrapper whose `reopen` always fails — models a NIC that is
/// gone for good, forcing the supervisor onto the standby chain.
struct NoReopen<S>(S);

impl<S: SocketAdapter> SocketAdapter for NoReopen<S> {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        self.0.poll()
    }
    fn poll_batch(&mut self, out: &mut Vec<Frame>, budget: usize) -> Result<usize, AdapterError> {
        self.0.poll_batch(out, budget)
    }
    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        self.0.send(frame)
    }
    fn send_batch(&mut self, frames: &mut Vec<Frame>) -> Result<usize, AdapterError> {
        self.0.send_batch(frames)
    }
    fn reopen(&mut self) -> Result<(), AdapterError> {
        Err(AdapterError::Fatal)
    }
    fn advance(&mut self, now_ns: u64) {
        self.0.advance(now_ns);
    }
    fn kind(&self) -> SocketKind {
        self.0.kind()
    }
    fn rx_count(&self) -> u64 {
        self.0.rx_count()
    }
    fn tx_count(&self) -> u64 {
        self.0.tx_count()
    }
}

/// When the primary dies *and* cannot reopen, the supervisor must fail
/// over to the standby and keep every frame accounted across the switch.
#[test]
fn unreopenable_primary_fails_over_to_standby() {
    for kind in queue_kinds() {
        let crash_at = 2_000_000_000u64;
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        let plan = FaultPlan::new().crash_adapter_at(crash_at);
        let primary = NoReopen(FaultySocket::with_plan(mem(1_000_000), &plan));
        let standby = mem(1_000_000);
        let mut nic =
            SupervisedAdapter::with_chain(vec![Box::new(primary), Box::new(standby)], sup_cfg());
        assert_eq!(nic.chain_len(), 2);

        let mut first_delivery_after_crash = u64::MAX;
        for s in 0..=STEPS {
            let t = s * STEP_NS;
            let polled = step(t, &clock, &mut lvrm, &mut host, &mut nic);
            if t > crash_at && polled > 0 && first_delivery_after_crash == u64::MAX {
                first_delivery_after_crash = t;
            }
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        assert_eq!(nic.failovers, 1, "{kind:?}: the dead primary must fail over");
        assert_eq!(nic.active_index(), 1, "{kind:?}: the standby must be serving");
        assert_eq!(nic.reopens, 0, "{kind:?}: an unreopenable NIC never reopens");
        assert!(
            first_delivery_after_crash <= crash_at + 1_000_000_000,
            "{kind:?}: failover must restore delivery within one tick"
        );
        assert_no_unaccounted(&lvrm, &nic, "failover");
    }
}

/// Refused egress sends park in the retry queue and are delivered on a
/// later tick: transient TX faults cost latency, never frames.
#[test]
fn refused_egress_is_retried_not_dropped() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let mut host = RecordingHost::with_heartbeats();
        lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

        // Refuse three send attempts somewhere inside the run.
        let faulty = FaultySocket::new(mem(1_000_000)).send_fail(40, 3);
        let mut nic = SupervisedAdapter::new(Box::new(faulty), sup_cfg());

        for s in 0..=STEPS {
            step(s * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);
        }
        settle(STEPS * STEP_NS, &clock, &mut lvrm, &mut host, &mut nic);

        assert_eq!(nic.egress_retries, 3, "{kind:?}: each refused frame is later delivered");
        assert_no_unaccounted(&lvrm, &nic, "egress retry");
    }
}
