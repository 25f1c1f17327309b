//! Overload control & graceful degradation: watermark pressure, fair
//! weighted shedding, the control-plane starvation guard and hitless drain
//! on shrink, against the manual clock. Every test that finishes with
//! drained queues asserts that the ledger settles (DESIGN.md §9). Clean
//! shutdown is a check of `tests/whole_monitor.rs`, which ends every case
//! with one.

use std::net::Ipv4Addr;

use lvrm_core::alloc::AllocDecision;
use lvrm_core::monitor::CTRL_STARVATION_BURSTS;
use lvrm_core::{AllocatorKind, Lvrm, LvrmConfig, ManualClock, RecordingHost, VrId, VriId};
use lvrm_ipc::channels::ControlEvent;
use lvrm_ipc::PressureLevel;
use lvrm_net::{Frame, FrameBuilder};

mod common;
use common::{assert_settled, drain, new_lvrm, routed_vr, vr_snapshot};

/// `vr`'s (admitted, shed) admission counters.
fn admission(lvrm: &Lvrm<ManualClock>, vr: VrId) -> (u64, u64) {
    let s = vr_snapshot(lvrm, vr);
    (s.admitted, s.shed)
}

/// VRIs of `vr` in the drain state.
fn draining_count(lvrm: &Lvrm<ManualClock>, vr: VrId) -> usize {
    vr_snapshot(lvrm, vr).vris.iter().filter(|v| v.draining).count()
}

fn frame_from(src: [u8; 4]) -> Frame {
    FrameBuilder::new(Ipv4Addr::from(src), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
}

fn burst_from(subnet_third: u8, n: usize) -> Vec<Frame> {
    (0..n).map(|i| frame_from([10, 0, subnet_third, (i % 250) as u8 + 1])).collect()
}

/// Push one application-level control event from `src` into its endpoint's
/// outgoing control queue, addressed to `dst`.
fn send_ctrl(host: &mut RecordingHost, src: VriId, dst: VriId) -> bool {
    let Some(svc) = host.vris.iter_mut().find(|svc| svc.id() == src) else {
        return false;
    };
    svc.endpoint_mut()
        .ctrl_tx
        .try_send(ControlEvent::new(src.0, dst.0, b"app-event".to_vec()))
        .is_ok()
}

// ---------------------------------------------------------------------------
// Weighted fair shedding
// ---------------------------------------------------------------------------

/// Two VRs, weights 3:1, tiny queues: once overloaded, each VR's per-burst
/// admission quota is exactly `batch_size × weight / Σ weights` (12 and 4
/// of a 16-frame burst), and the per-VR admission counters reconcile with
/// the aggregate and with the conservation identity.
#[test]
fn overloaded_vrs_are_held_to_their_weighted_quota() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        data_queue_capacity: 16,
        batch_size: 16,
        overload_shedding: true,
        allocator: AllocatorKind::Fixed { cores: 1 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock, config);
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("b", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);
    lvrm.set_vr_weight(a, 3.0);
    lvrm.set_vr_weight(b, 1.0);

    // Burst 1 per VR: queues are empty, pressure Normal, everything admits.
    lvrm.ingress_batch(&mut burst_from(1, 16), &mut host);
    lvrm.ingress_batch(&mut burst_from(3, 16), &mut host);
    assert_eq!(vr_snapshot(&lvrm, a).pressure, PressureLevel::Normal);
    assert_eq!(admission(&lvrm, a), (16, 0));
    assert_eq!(admission(&lvrm, b), (16, 0));
    assert_eq!(lvrm.stats().shed_early, 0);

    // Bursts 2 and 3: nothing was pumped, so every data queue sits at its
    // high watermark and both VRs are Overloaded. Quotas: 16×3/4 = 12 for
    // `a`, 16×1/4 = 4 for `b`, deterministic per burst.
    for _ in 0..2 {
        lvrm.ingress_batch(&mut burst_from(1, 16), &mut host);
        lvrm.ingress_batch(&mut burst_from(3, 16), &mut host);
    }
    assert_eq!(vr_snapshot(&lvrm, a).pressure, PressureLevel::Overloaded);
    assert_eq!(vr_snapshot(&lvrm, b).pressure, PressureLevel::Overloaded);
    assert_eq!(admission(&lvrm, a), (16 + 12 + 12, 4 + 4), "weight-3 quota is 12 of 16");
    assert_eq!(admission(&lvrm, b), (16 + 4 + 4, 12 + 12), "weight-1 quota is 4 of 16");

    // Per-VR shed sums to the aggregate, and frames_in == admitted + shed.
    let snaps = lvrm.snapshot();
    let shed_sum: u64 = snaps.iter().map(|v| v.shed).sum();
    assert_eq!(shed_sum, lvrm.stats().shed_early);
    for v in &snaps {
        assert_eq!(v.frames_in, v.admitted + v.shed, "per-VR admission identity: {v}");
    }

    // Draining the queues recovers Normal (hysteresis releases below the
    // low watermark) and the books balance exactly.
    let mut out = Vec::new();
    drain(&mut lvrm, &mut host, &mut out);
    lvrm.ingress_batch(&mut burst_from(1, 1), &mut host);
    assert_eq!(vr_snapshot(&lvrm, a).pressure, PressureLevel::Normal, "drained VR recovers");
    drain(&mut lvrm, &mut host, &mut out);
    assert_settled(&lvrm, "settled");
}

/// With shedding off (the default), the same overload degrades to pure
/// tail-drop: nothing is shed, losses land in `dispatch_drops` instead.
#[test]
fn shedding_off_degrades_to_tail_drop() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        data_queue_capacity: 16,
        batch_size: 16,
        allocator: AllocatorKind::Fixed { cores: 1 },
        ..Default::default()
    };
    assert!(!config.overload_shedding, "shedding is opt-in");
    let mut lvrm = new_lvrm(clock, config);
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    for _ in 0..3 {
        lvrm.ingress_batch(&mut burst_from(1, 16), &mut host);
    }
    // The pressure signal still reports the overload even when unused.
    assert_eq!(vr_snapshot(&lvrm, a).pressure, PressureLevel::Overloaded);
    assert_eq!(lvrm.stats().shed_early, 0);
    assert_eq!(admission(&lvrm, a), (48, 0));
    // With the one VRI's queue full the balancer has no valid target, so the
    // excess tail-drops as `no_vri_drops` (a partially-full fleet would show
    // `dispatch_drops` instead) — either way, a named counter, not silence.
    let tail_dropped = lvrm.stats().dispatch_drops + lvrm.stats().no_vri_drops;
    assert!(tail_dropped > 0, "overload tail-drops: {:?}", lvrm.stats());
    let mut out = Vec::new();
    drain(&mut lvrm, &mut host, &mut out);
    assert_settled(&lvrm, "settled");
}

// ---------------------------------------------------------------------------
// Control-plane starvation guard & drop accounting
// ---------------------------------------------------------------------------

/// A saturated ingress path must not defer control relay forever: after
/// `CTRL_STARVATION_BURSTS` data bursts without a relay pass, `ingress_batch`
/// runs `process_control` itself — and the bound resets afterwards.
#[test]
fn starvation_guard_bounds_control_relay_deferral() {
    let clock = ManualClock::new();
    let config = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 2 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock, config);
    let mut host = RecordingHost::default();
    lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let (src, dst) = (host.vris[0].id(), host.vris[1].id());

    for round in 1..=2u64 {
        assert!(send_ctrl(&mut host, src, dst));
        // One burst short of the bound, the event stays parked.
        for _ in 1..CTRL_STARVATION_BURSTS {
            lvrm.ingress(frame_from([10, 0, 1, 1]), &mut host);
        }
        assert_eq!(lvrm.stats().control_relayed, round - 1, "relay deferred below the bound");
        // The bound's consecutive burst trips the guard.
        lvrm.ingress(frame_from([10, 0, 1, 1]), &mut host);
        assert_eq!(
            lvrm.stats().control_relayed,
            round,
            "burst {round}×{CTRL_STARVATION_BURSTS} must force a relay pass"
        );
    }
    assert_eq!(lvrm.stats().control_drops, 0);
}

/// Control drops reconcile: every event handed to the monitor is either
/// relayed or counted in `control_drops`, with a full destination queue as
/// the drop reason.
#[test]
fn control_drops_reconcile_against_emitted_events() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 2 },
        ctrl_queue_capacity: 8,
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock, config);
    let mut host = RecordingHost::default();
    lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let (src, dst) = (host.vris[0].id(), host.vris[1].id());

    // Three rounds of 8; the destination VRI never services its control
    // queue, so round 1 fills it and rounds 2-3 drop at relay time.
    let mut emitted = 0u64;
    for _ in 0..3 {
        for _ in 0..8 {
            assert!(send_ctrl(&mut host, src, dst), "source control queue must hold a round");
            emitted += 1;
        }
        lvrm.process_control();
    }
    let s = &lvrm.stats();
    assert_eq!(emitted, 24);
    assert_eq!(s.control_relayed, 8, "exactly one destination queue's worth relays");
    assert_eq!(s.control_drops, 16, "the rest drop against the full queue");
    assert_eq!(s.control_relayed + s.control_drops, emitted, "no event vanishes");

    // An unknown destination is also a counted drop, not a panic.
    assert!(send_ctrl(&mut host, src, VriId(9999)));
    lvrm.process_control();
    assert_eq!(lvrm.stats().control_drops, 17);
}

// ---------------------------------------------------------------------------
// Hitless drain on shrink
// ---------------------------------------------------------------------------

/// Drive a dynamic VR up under load, then idle it down without pumping
/// until a shrink victim drains with frames parked in its queue. Returns
/// the monitor, the VR, its peak size and the time reached.
fn start_a_drain(
    clock: &ManualClock,
    host: &mut RecordingHost,
    out: &mut Vec<Frame>,
) -> (Lvrm<ManualClock>, VrId, usize, u64) {
    let config = LvrmConfig {
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let vr = lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), host);

    // Grow: ~3000 fps for 3 simulated seconds, serviced and collected.
    let mut now = 0u64;
    for _ in 0..9000 {
        now += 333_333;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), host);
        host.pump();
        lvrm.poll_egress(out);
    }
    let peak = lvrm.vri_count(vr);
    assert!(peak >= 3, "load must grow the VR first, got {peak}");

    // Idle down WITHOUT pumping: arriving frames park in the queues, so the
    // shrink victim has work left when the allocator lets it go.
    let mut observed_drain = false;
    for _ in 0..60 {
        now += 100_000_000;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), host);
        if draining_count(&lvrm, vr) == 1 {
            observed_drain = true;
            break;
        }
    }
    assert!(observed_drain, "idling must put a shrink victim into the drain state");
    (lvrm, vr, peak, now)
}

/// The shrink victim leaves the balance set at once but is NOT killed: it
/// keeps servicing its parked frames and is only retired once its queue
/// empties — `shrink_lost` stays zero and every frame comes out.
#[test]
fn shrink_drains_hitlessly_with_zero_loss() {
    let clock = ManualClock::new();
    let mut host = RecordingHost::default();
    let mut out = Vec::new();
    let (mut lvrm, vr, peak, mut now) = start_a_drain(&clock, &mut host, &mut out);
    assert!(lvrm.vri_count(vr) < peak, "the victim left the balance set");
    assert!(host.killed.is_empty(), "hitless: nothing killed while draining");
    let draining: Vec<_> =
        lvrm.snapshot().iter().flat_map(|v| v.vris.clone()).filter(|v| v.draining).collect();
    assert_eq!(draining.len(), 1, "snapshot flags exactly the draining VRI");
    assert!(
        lvrm.realloc_log.iter().any(|e| e.decision == AllocDecision::Shrink),
        "the shrink decision is logged"
    );

    // The victim's vehicle is still live: pumping empties its queue, and the
    // next sweep retires it with nothing left to lose.
    host.pump();
    now += 1_000_000;
    clock.set_ns(now);
    lvrm.poll_drains(now, &mut host);
    assert_eq!(draining_count(&lvrm, vr), 0, "drained victim retires");
    assert_eq!(host.killed.len(), 1, "retirement is the only kill");
    assert_eq!(lvrm.stats().shrink_lost, 0, "happy-path drain loses nothing: {:?}", lvrm.stats());

    drain(&mut lvrm, &mut host, &mut out);
    assert_settled(&lvrm, "settled");
    assert_eq!(lvrm.stats().frames_in, lvrm.stats().frames_out, "every frame forwarded");
}

/// Resizing one VR by hand settles that VR's drains only: another VR's
/// hitless drain runs on, and still loses nothing.
#[test]
fn manual_resize_leaves_another_vrs_drain_alone() {
    let clock = ManualClock::new();
    let mut host = RecordingHost::default();
    let mut out = Vec::new();
    let (mut lvrm, a, _, mut now) = start_a_drain(&clock, &mut host, &mut out);
    let b = lvrm.add_vr("b", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);
    lvrm.resize_vr(b, 2, now, &mut host);
    assert_eq!(lvrm.vri_count(b), 2);
    assert_eq!(draining_count(&lvrm, a), 1, "a's drain runs on");
    assert!(host.killed.is_empty(), "nothing was retired");
    assert_eq!(lvrm.stats().shrink_lost, 0);

    host.pump();
    now += 1_000_000;
    clock.set_ns(now);
    lvrm.poll_drains(now, &mut host);
    assert_eq!(draining_count(&lvrm, a), 0, "the drained victim retires");
    assert_eq!(lvrm.stats().shrink_lost, 0, "and loses nothing: {:?}", lvrm.stats());
    drain(&mut lvrm, &mut host, &mut out);
    assert_settled(&lvrm, "settled");
}

/// A wedged shrink victim cannot drain; the deadline bounds how long it may
/// squat. At expiry it is forcibly retired, its parked frames are reclaimed
/// through the reaped endpoint and re-homed to the survivors — still with
/// zero `shrink_lost`, because the host could hand the endpoint back.
#[test]
fn stalled_drain_is_bounded_by_the_deadline_and_rehomes() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
        ..Default::default()
    };
    let deadline_ns = config.drain_deadline_ns;
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let mut out = Vec::new();
    let vr = lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);

    let mut now = 0u64;
    for _ in 0..9000 {
        now += 333_333;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        host.pump();
        lvrm.poll_egress(&mut out);
    }
    assert!(lvrm.vri_count(vr) >= 2);

    // Wedge the newest VRI (the next shrink victim) and park a burst across
    // the VR — JSQ spreads it, so the victim holds some of it.
    let victim = host.vris.last().expect("live endpoints").id();
    host.stalled.insert(victim);
    now += 1_000_000;
    clock.set_ns(now);
    lvrm.ingress_batch(&mut burst_from(1, 32), &mut host);

    let mut observed_drain = false;
    for _ in 0..60 {
        now += 100_000_000;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        if draining_count(&lvrm, vr) == 1 {
            observed_drain = true;
            break;
        }
    }
    assert!(observed_drain, "idling must start a drain");
    let parked = lvrm
        .snapshot()
        .iter()
        .flat_map(|v| v.vris.clone())
        .find(|v| v.draining)
        .expect("draining snapshot")
        .queue_len;
    assert!(parked > 0, "the stalled victim must hold parked frames");
    assert!(host.killed.is_empty());

    // Within the deadline the wedged victim is left alone...
    lvrm.poll_drains(now, &mut host);
    assert_eq!(draining_count(&lvrm, vr), 1, "no retirement before the deadline");

    // ...but not past it.
    now += deadline_ns + 100_000_000;
    clock.set_ns(now);
    lvrm.poll_drains(now, &mut host);
    assert_eq!(draining_count(&lvrm, vr), 0);
    assert!(host.killed.iter().any(|(_, id)| *id == victim), "deadline retires the victim");
    assert_eq!(lvrm.stats().shrink_lost, 0, "reaped endpoint loses nothing: {:?}", lvrm.stats());
    assert!(
        lvrm.stats().redispatched >= parked as u64,
        "parked frames re-home to survivors: {:?}",
        lvrm.stats()
    );

    drain(&mut lvrm, &mut host, &mut out);
    assert_settled(&lvrm, "settled");
}
