//! Chaos suite for the VRI supervisor: deterministic fault injection
//! (seeded plans against a manual clock — no sleeps, no wall time) driving
//! crash, stall, crash-loop, and reap-failure scenarios, asserting bounded
//! loss, recovery within one supervisor tick, and exact stat conservation
//! under every `QueueKind`.
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep (CI's
//! miri leg pins `lamport`); unset runs both.
//!
//! Checked throughout, after every queue has been drained: the monitor's
//! ledger settles (`Ledger::check_settled`, DESIGN.md §9) — global
//! conservation to the frame, and identity (D), the double-counting
//! regression guard, over live, retired and ring series.

use std::net::Ipv4Addr;

use lvrm_core::monitor::SupervisionAction;
use lvrm_core::{
    AllocatorKind, FaultPlan, FaultyHost, Lvrm, LvrmConfig, LvrmStats, ManualClock, RecordingHost,
    VrId, VriHost, VriId, VriSpec,
};
use lvrm_ipc::{QueueKind, VriEndpoint};
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::VirtualRouter;

mod common;
use common::{assert_settled, chaos_config, drain, new_lvrm, queue_kinds, routed_vr, subnet};

/// Frames parked on VRIs when a fault fires (smaller under Miri: the
/// interpreter runs the same paths, just fewer times around them).
const BURST: usize = if cfg!(miri) { 16 } else { 64 };

fn frame(last: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, last), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
}

/// Frames parked VR-wide and visible to the monitor: the `lvrm_data_queued`
/// gauge (per-VRI queues plus, under VLink, the shared ring).
fn data_queued(lvrm: &Lvrm<ManualClock>) -> u64 {
    lvrm.metrics_snapshot().gauge("lvrm_data_queued", &[]).unwrap_or(0.0).round() as u64
}

/// Incoming-queue depth of one VRI, from the public snapshot.
fn queued(lvrm: &Lvrm<ManualClock>, vri: VriId) -> usize {
    lvrm.snapshot()
        .iter()
        .flat_map(|vr| vr.vris.clone())
        .find(|v| v.id == vri)
        .map_or(0, |v| v.queue_len)
}

/// The acceptance scenario: a VRI crashes with frames parked in its incoming
/// queue. The supervisor must notice within one tick, respawn it, re-balance
/// the stranded frames to the survivors, and lose nothing.
#[test]
fn crash_with_frames_in_flight_recovers_within_one_tick() {
    for kind in queue_kinds() {
        let crash_at = 2_000_000_000u64;
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let plan = FaultPlan::new().crash_at(crash_at, 0);
        let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
        let vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        assert_eq!(lvrm.vri_count(vr), 2);
        let victim = host.spawn_order[0];

        let mut out = Vec::new();
        let mut victim_queued = 0u64;
        // 100 ms steps: traffic + heartbeats flow, supervisor ticks ride the
        // 1 s reallocation cadence inside `ingress`.
        for step in 0..=40u64 {
            let t = step * 100_000_000;
            clock.set_ns(t);
            if t == crash_at {
                // Park a burst across both VRIs, then yank the victim out
                // from under its share before anything services it.
                let mut burst: Vec<Frame> = (0..BURST).map(|i| frame((i % 200) as u8)).collect();
                lvrm.ingress_batch(&mut burst, &mut host);
                victim_queued = queued(&lvrm, victim) as u64;
                if kind == QueueKind::VLink {
                    // The fabric parks the burst in the VR-wide ring, not on
                    // any one instance, so a crash can strand nothing.
                    assert_eq!(victim_queued, 0, "{kind:?}: no per-VRI backlog under the fabric");
                    assert_eq!(
                        data_queued(&lvrm),
                        BURST as u64,
                        "{kind:?}: burst parked in the shared ring"
                    );
                } else {
                    assert!(victim_queued > 0, "{kind:?}: burst must strand frames on the victim");
                }
            } else {
                lvrm.ingress(frame((step % 200) as u8), &mut host);
            }
            host.apply(t);
            host.inner.pump();
            lvrm.process_control();
            lvrm.maybe_reallocate(t, &mut host);
            lvrm.poll_egress(&mut out);
        }
        drain(&mut lvrm, &mut host.inner, &mut out);

        let died = lvrm
            .supervision_log
            .iter()
            .find(|e| matches!(e.action, SupervisionAction::Died { .. }))
            .expect("supervisor must log the death");
        assert_eq!(died.vri, victim, "{kind:?}");
        assert!(
            died.ts_ns > crash_at && died.ts_ns <= crash_at + 1_100_000_000,
            "{kind:?}: death must land within one supervisor tick, got {} ns late",
            died.ts_ns - crash_at
        );
        assert_eq!(
            died.action,
            SupervisionAction::Died { reclaimed: victim_queued, lost: 0 },
            "{kind:?}: every parked frame is reclaimed"
        );
        let respawned = lvrm
            .supervision_log
            .iter()
            .find(|e| matches!(e.action, SupervisionAction::Respawned))
            .expect("supervisor must respawn");
        assert_eq!(respawned.ts_ns, died.ts_ns, "{kind:?}: first respawn carries no backoff");

        let s = &lvrm.stats();
        assert_eq!(s.vri_deaths, 1, "{kind:?}");
        assert_eq!(s.respawns, 1, "{kind:?}");
        assert_eq!(s.crash_lost, 0, "{kind:?}");
        assert_eq!(s.redispatched, victim_queued, "{kind:?}: stranded frames re-balanced");
        assert_eq!(lvrm.vri_count(vr), 2, "{kind:?}: instance count restored");
        // Under VLink this is the headline guarantee: the dead VRI loses
        // nothing still queued, because the ring outlives the instance and
        // the survivors steal the backlog.
        assert_eq!(s.frames_in, s.frames_out, "{kind:?}: a reapable crash loses nothing");
        assert_settled(&lvrm, "settled");
    }
}

/// A wedged instance keeps its endpoint attached but stops heartbeating: it
/// must pass through Suspect, be declared dead once the silence exceeds
/// `dead_after_ns`, and have its queue reclaimed like a crash.
#[test]
fn stalled_vri_goes_suspect_then_dead_and_queues_are_reclaimed() {
    for kind in queue_kinds() {
        let stall_at = 2_000_000_000u64;
        let clock = ManualClock::new();
        let config = chaos_config(kind);
        let dead_after = config.dead_after_ns;
        let mut lvrm = new_lvrm(clock.clone(), config);
        let plan = FaultPlan::new().stall_at(stall_at, 0);
        let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
        let _vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        let victim = host.spawn_order[0];

        let mut out = Vec::new();
        for step in 0..=60u64 {
            let t = step * 100_000_000;
            clock.set_ns(t);
            lvrm.ingress(frame((step % 200) as u8), &mut host);
            host.apply(t);
            host.inner.pump();
            lvrm.process_control();
            // Between the stall and the dead threshold the victim must read
            // Suspect: silent past `suspect_after_ns`, endpoint still there.
            if t == stall_at + 500_000_000 {
                lvrm.supervise(t, &mut host);
                let snap = lvrm.snapshot();
                let v = snap[0].vris.iter().find(|v| v.id == victim).expect("victim still listed");
                assert_eq!(v.health, lvrm_core::VriHealth::Suspect, "{kind:?}");
                assert_eq!(lvrm.stats().vri_deaths, 0, "{kind:?}: suspect is not dead");
            }
            lvrm.maybe_reallocate(t, &mut host);
            lvrm.poll_egress(&mut out);
        }
        drain(&mut lvrm, &mut host.inner, &mut out);

        let died = lvrm
            .supervision_log
            .iter()
            .find(|e| matches!(e.action, SupervisionAction::Died { .. }))
            .expect("stall must be declared dead via heartbeat timeout");
        assert_eq!(died.vri, victim, "{kind:?}");
        // Last heartbeat landed one step before the stall; detection is the
        // first 1 s tick after the silence exceeds `dead_after_ns`.
        assert!(
            died.ts_ns >= stall_at + dead_after
                && died.ts_ns <= stall_at + dead_after + 1_100_000_000,
            "{kind:?}: dead-man timer fired at {} (stall {stall_at})",
            died.ts_ns
        );
        let s = &lvrm.stats();
        assert_eq!(s.vri_deaths, 1, "{kind:?}");
        assert_eq!(s.respawns, 1, "{kind:?}");
        assert_eq!(s.crash_lost, 0, "{kind:?}: attached endpoint is reapable");
        assert_eq!(s.frames_in, s.frames_out, "{kind:?}: nothing lost to the stall");
        assert_settled(&lvrm, "settled");
    }
}

/// A crash-looping VR: first respawn is immediate, later refills satisfy the
/// supervisor's deficit exactly once, and at the quarantine threshold the VR
/// is cut off — reclaimed and subsequent frames land in `quarantined_drops`.
#[test]
fn crash_loop_quarantines_vr_and_counts_its_drops() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            allocator: AllocatorKind::Fixed { cores: 1 },
            quarantine_after: 3,
            // Only detach-detection here: no heartbeat pump in this test.
            dead_after_ns: 1_000_000_000_000,
            suspect_after_ns: 500_000_000_000,
            ..chaos_config(kind)
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        // Under the VLink fabric the backlog lives in the VR-wide ring, so
        // crashes reclaim nothing: frames wait in place until quarantine
        // drains the stranded ring in one shot.
        let vlink = kind == QueueKind::VLink;

        let mut t = 0u64;
        let tick = |lvrm: &mut Lvrm<ManualClock>, host: &mut RecordingHost, t: &mut u64| {
            *t += 1_100_000_000;
            clock.set_ns(*t);
            lvrm.maybe_reallocate(*t, host);
        };

        // Round 1: park frames, crash. Streak 1 respawns in the same tick and
        // the parked frames follow to the replacement.
        let mut burst: Vec<Frame> = (0..10).map(frame).collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        host.crash_vri(host.spawned.last().unwrap().vri);
        tick(&mut lvrm, &mut host, &mut t);
        assert_eq!(lvrm.stats().vri_deaths, 1, "{kind:?}");
        if vlink {
            assert_eq!(lvrm.stats().redispatched, 0, "{kind:?}: nothing to reclaim from the ring");
            assert_eq!(data_queued(&lvrm), 10, "{kind:?}: backlog rides out the crash in place");
        } else {
            assert_eq!(lvrm.stats().redispatched, 10, "{kind:?}: parked frames follow the respawn");
        }

        // Round 2: crash the replacement (now holding those 10 frames).
        // Streak 2 puts the supervisor's respawn behind a backoff, so the
        // reclaimed frames find no instance; the allocator's refill in the
        // same tick absorbs the deficit (one replacement, not two).
        host.crash_vri(host.spawned.last().unwrap().vri);
        tick(&mut lvrm, &mut host, &mut t);
        assert_eq!(lvrm.stats().vri_deaths, 2, "{kind:?}");
        if vlink {
            assert_eq!(
                lvrm.stats().no_vri_drops,
                0,
                "{kind:?}: the ring holds the backlog through the backoff window"
            );
            assert_eq!(data_queued(&lvrm), 10, "{kind:?}");
        } else {
            assert_eq!(
                lvrm.stats().no_vri_drops,
                10,
                "{kind:?}: backoff window loses to a named counter"
            );
        }
        assert_eq!(lvrm.vri_count(vr), 1, "{kind:?}: allocator refill absorbed the deficit");
        assert_eq!(lvrm.stats().respawns, 2, "{kind:?}");

        // Round 3: park frames and crash again — the streak hits the
        // quarantine threshold, so the reclaimed frames are quarantine drops
        // and no replacement ever comes.
        let mut burst: Vec<Frame> = (0..10).map(frame).collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        host.crash_vri(host.spawned.last().unwrap().vri);
        tick(&mut lvrm, &mut host, &mut t);
        assert!(lvrm.vr_quarantined(vr), "{kind:?}");
        assert_eq!(lvrm.stats().vri_deaths, 3, "{kind:?}");
        // Classic kinds lost round 1's frames to re-dispatch and round 2's to
        // the backoff; the ring kept both, so quarantine drains all 20.
        assert_eq!(lvrm.stats().quarantined_drops, if vlink { 20 } else { 10 }, "{kind:?}");
        assert_eq!(data_queued(&lvrm), 0, "{kind:?}: quarantine leaves nothing parked");
        assert_eq!(lvrm.vri_count(vr), 0, "{kind:?}: no respawn after quarantine");
        let quarantined_ts = lvrm
            .supervision_log
            .iter()
            .find(|e| e.action == SupervisionAction::Quarantined)
            .expect("quarantine must be logged")
            .ts_ns;
        assert_eq!(quarantined_ts, t, "{kind:?}");

        // Traffic to a quarantined VR is dropped loudly, and even a long
        // healthy stretch does not un-quarantine it.
        for i in 0..5 {
            lvrm.ingress(frame(i), &mut host);
        }
        t += 100_000_000_000;
        clock.set_ns(t);
        lvrm.maybe_reallocate(t, &mut host);
        assert_eq!(lvrm.stats().quarantined_drops, if vlink { 25 } else { 15 }, "{kind:?}");
        assert_eq!(lvrm.vri_count(vr), 0, "{kind:?}");
        assert!(
            !lvrm
                .supervision_log
                .iter()
                .any(|e| { e.action == SupervisionAction::Respawned && e.ts_ns > quarantined_ts }),
            "{kind:?}: no respawns after quarantine"
        );

        // Nothing was ever pumped, so everything sits in drop counters.
        assert_eq!(lvrm.stats().frames_out, 0, "{kind:?}");
        assert_settled(&lvrm, "settled");
    }
}

/// A host whose dead endpoints are unrecoverable (queues lived in another
/// address space). Loss must be bounded to exactly the frames queued at the
/// dead instance, all counted as `crash_lost`.
struct NoReapHost {
    inner: RecordingHost,
}

impl VriHost for NoReapHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.inner.spawn_vri(spec, endpoint, router);
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.inner.kill_vri(vr, vri);
    }
    // Default `reap_endpoint` returns None: frames die with the process.
}

#[test]
fn unreapable_crash_loss_is_bounded_and_named() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            dead_after_ns: 1_000_000_000_000,
            suspect_after_ns: 500_000_000_000,
            ..chaos_config(kind)
        };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = NoReapHost { inner: RecordingHost::default() };
        let vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        let victim = host.inner.spawned[0].vri;

        let mut burst: Vec<Frame> = (0..BURST).map(|i| frame((i % 200) as u8)).collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        let victim_queued = queued(&lvrm, victim) as u64;
        if kind == QueueKind::VLink {
            // Even an unreapable host loses nothing under the fabric: the
            // backlog sits in the monitor-side ring, which no dead process
            // can take with it — `crash_lost` stays 0 below.
            assert_eq!(victim_queued, 0, "{kind:?}");
            assert_eq!(data_queued(&lvrm), BURST as u64, "{kind:?}");
        } else {
            assert!(victim_queued > 0, "{kind:?}");
        }
        host.inner.crash_vri(victim);

        clock.set_ns(1_100_000_000);
        lvrm.maybe_reallocate(1_100_000_000, &mut host);

        let died = lvrm
            .supervision_log
            .iter()
            .find(|e| matches!(e.action, SupervisionAction::Died { .. }))
            .expect("death logged");
        assert_eq!(
            died.action,
            SupervisionAction::Died { reclaimed: 0, lost: victim_queued },
            "{kind:?}"
        );
        assert_eq!(lvrm.stats().crash_lost, victim_queued, "{kind:?}: loss bounded to the queue");
        assert_eq!(lvrm.stats().redispatched, 0, "{kind:?}: nothing to re-balance");
        assert_eq!(lvrm.vri_count(vr), 2, "{kind:?}: replacement still spawns");

        let mut out = Vec::new();
        drain(&mut lvrm, &mut host.inner, &mut out);
        assert_eq!(
            lvrm.stats().frames_in,
            lvrm.stats().frames_out + lvrm.stats().crash_lost,
            "{kind:?}: survivors' frames all delivered"
        );
        assert_settled(&lvrm, "settled");
    }
}

/// The dispatch-drop double-counting regression (satellite of the batched
/// dataplane): the monitor aggregate must equal the live adapters' sum plus
/// the retired carry-over on the burst path, through a crash that retires an
/// adapter with recorded drops, and on the per-frame path.
#[test]
fn dispatch_drop_identity_survives_overflow_and_crash() {
    for kind in queue_kinds() {
        // Burst path: tiny queues, one oversized burst -> bulk-enqueue
        // leftovers are dropped and recorded on both levels.
        let clock = ManualClock::new();
        let config = LvrmConfig {
            data_queue_capacity: 8,
            dead_after_ns: 1_000_000_000_000,
            suspect_after_ns: 500_000_000_000,
            ..chaos_config(kind)
        };
        let mut lvrm = new_lvrm(clock.clone(), config.clone());
        let mut host = RecordingHost::default();
        let _vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        let victim = host.spawned[0].vri;

        let mut burst: Vec<Frame> = (0..100).map(|i| frame((i % 200) as u8)).collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        assert!(lvrm.stats().dispatch_drops > 0, "{kind:?}: the burst must overflow");
        assert_eq!(lvrm.ledger().check(), Ok(()));

        // Crash the victim while it carries both queued frames and recorded
        // drops: its drops move to the retired bucket, the identity holds.
        let drops_before = lvrm.stats().dispatch_drops;
        host.crash_vri(victim);
        clock.set_ns(1_100_000_000);
        lvrm.maybe_reallocate(1_100_000_000, &mut host);
        if kind == QueueKind::VLink {
            // Overflow drops live on the VR's ring series, not the victim,
            // so nothing moves to the retired bucket when the instance dies.
            assert_eq!(lvrm.stats().retired_dispatch_drops, 0, "{kind:?}");
        } else {
            assert!(
                lvrm.stats().retired_dispatch_drops > 0,
                "{kind:?}: victim's drops are carried"
            );
        }
        assert_eq!(lvrm.ledger().check(), Ok(()));

        let mut out = Vec::new();
        drain(&mut lvrm, &mut host, &mut out);
        // Re-dispatch may have overflowed the survivors' tiny queues; that
        // too must stay inside the identity and the conservation total.
        assert!(lvrm.stats().dispatch_drops >= drops_before, "{kind:?}");
        assert_settled(&lvrm, "settled");

        // Per-frame path: full queues invalidate the target before dispatch,
        // so nothing is half-accepted and nothing double-counts. Both VRIs
        // stay attached, so what no full queue takes is a dispatch drop,
        // never a missing-VRI drop.
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::default();
        let _vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        for i in 0..40 {
            lvrm.ingress(frame(i), &mut host);
        }
        if kind == QueueKind::VLink {
            // The ring (4x the per-VRI capacity) takes 32 and refuses 8; a
            // ring refusal is a dispatch drop, never a missing-target drop.
            assert_eq!(lvrm.stats().dispatch_drops, 8, "{kind:?}: ring refusals");
            assert_eq!(lvrm.stats().no_vri_drops, 0, "{kind:?}");
        } else {
            assert_eq!(
                lvrm.stats().dispatch_drops,
                24,
                "{kind:?}: 2 x 8 fit, the rest are refused"
            );
            assert_eq!(lvrm.stats().no_vri_drops, 0, "{kind:?}: both VRIs are attached");
        }
        drain(&mut lvrm, &mut host, &mut out);
        assert_settled(&lvrm, "settled");
    }
}

/// Drive the full crash-and-recover script through either the per-frame
/// entry point or batch-of-1 `ingress_batch` calls. Shared by the stat
/// identity test below.
fn run_crash_script(kind: QueueKind, batched: bool) -> (LvrmStats, Vec<String>, usize) {
    let crash_at = 2_000_000_000u64;
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
    let plan = FaultPlan::new().crash_at(crash_at, 0).stall_at(3_000_000_000, 1);
    let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
    let _vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

    let mut out = Vec::new();
    for step in 0..=70u64 {
        let t = step * 100_000_000;
        clock.set_ns(t);
        // Two classified frames and one unclassified per step, in a fixed
        // order, fed one frame at a time down either path.
        for (i, f) in
            [frame((step % 200) as u8), frame((step % 100) as u8)]
                .into_iter()
                .chain(std::iter::once(
                    FrameBuilder::new(Ipv4Addr::new(192, 168, 0, 1), Ipv4Addr::new(10, 0, 2, 1))
                        .udp(1, 2, &[]),
                ))
                .enumerate()
        {
            let _ = i;
            if batched {
                let mut one = vec![f];
                lvrm.ingress_batch(&mut one, &mut host);
            } else {
                lvrm.ingress(f, &mut host);
            }
        }
        host.apply(t);
        host.inner.pump();
        lvrm.process_control();
        lvrm.maybe_reallocate(t, &mut host);
        lvrm.poll_egress(&mut out);
    }
    drain(&mut lvrm, &mut host.inner, &mut out);
    let log: Vec<String> = lvrm
        .supervision_log
        .iter()
        .map(|e| format!("{} {:?} {:?} {:?}", e.ts_ns, e.vr, e.vri, e.action))
        .collect();
    assert_settled(&lvrm, "settled");
    (lvrm.stats(), log, out.len())
}

/// Batch-of-1 must stay bit-identical to the per-frame path even through an
/// injected crash, a stall, supervisor ticks, reclaim, and re-dispatch — the
/// whole stat block, the supervision log, and the egress count.
#[test]
fn batch_of_one_matches_per_frame_under_injected_faults() {
    for kind in queue_kinds() {
        let (per_frame, log_a, out_a) = run_crash_script(kind, false);
        let (batched, log_b, out_b) = run_crash_script(kind, true);
        assert!(per_frame.vri_deaths >= 2, "{kind:?}: script must kill both targets");
        assert_eq!(per_frame, batched, "{kind:?}: full stat block identical");
        assert_eq!(log_a, log_b, "{kind:?}: identical supervision histories");
        assert_eq!(out_a, out_b, "{kind:?}: identical egress");
    }
}

/// Supervision events make it into the registry event log with monotonic
/// timestamps, alongside the structural vr-added / vr-alloc entries.
#[test]
fn event_log_records_lifecycle_with_monotonic_timestamps() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let plan = FaultPlan::new().crash_at(2_000_000_000, 0);
        let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
        let _ = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        let mut out = Vec::new();
        for step in 0..=40u64 {
            let t = step * 100_000_000;
            clock.set_ns(t);
            lvrm.ingress(frame((step % 200) as u8), &mut host);
            host.apply(t);
            host.inner.pump();
            lvrm.process_control();
            lvrm.maybe_reallocate(t, &mut host);
            lvrm.poll_egress(&mut out);
        }
        let events = lvrm.metrics().events();
        let texts: Vec<&str> = events.iter().map(|e| e.text.as_str()).collect();
        assert!(
            texts.iter().any(|t| t.starts_with("vr-added vr=deptA")),
            "{kind:?}: missing vr-added in {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t.starts_with("vri-died vr=deptA")),
            "{kind:?}: missing vri-died in {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t.starts_with("vri-respawned vr=deptA")),
            "{kind:?}: missing vri-respawned in {texts:?}"
        );
        assert!(
            events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "{kind:?}: event timestamps must be monotonic"
        );
    }
}
