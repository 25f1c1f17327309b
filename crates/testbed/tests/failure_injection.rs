//! Failure injection: overload and teardown paths must degrade gracefully
//! and account every lost frame — silence is not an option in a monitor
//! whose whole job is resource accounting.

use lvrm_core::config::AllocatorKind;
use lvrm_core::monitor::SupervisionAction;
use lvrm_core::FaultPlan;
use lvrm_testbed::scenario::{Scenario, SourceSpec};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn lvrm_scenario() -> Scenario {
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = 2_000_000_000;
    sc.warmup_ns = 200_000_000;
    sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 })];
    sc
}

#[test]
fn overload_loses_frames_loudly_not_silently() {
    // One VRI worth ~60 Kfps, offered 200 Kfps: most frames must drop, and
    // every drop must be visible in a counter.
    let mut sc = lvrm_scenario();
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 1 };
    let sc = sc.with_udp_load(0, 84, 200_000.0, 8);
    let r = sc.run();
    assert!(r.delivery_ratio() < 0.5, "overload must lose frames: {}", r.delivery_ratio());
    let s = r.lvrm_stats.unwrap();
    let accounted = r.udp_received + s.loss() + r.ring_drops;
    // Everything sent in the window is either delivered or in a drop
    // counter (modulo frames still in flight at the end and the warmup
    // boundary). Allow a small in-flight slack.
    assert!(
        accounted + 5_000 >= r.udp_sent,
        "unaccounted loss: sent {} vs accounted {accounted} ({s:?}, ring {})",
        r.udp_sent,
        r.ring_drops
    );
}

#[test]
fn shrink_under_traffic_keeps_forwarding() {
    // Load drops sharply while frames are still flowing; the shrink path
    // must not wedge the remaining VRIs.
    let mut sc = lvrm_scenario();
    sc.duration_ns = 6_000_000_000;
    sc.lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
    sc.sources.push(SourceSpec {
        vr: 0,
        host: 1,
        kind: SourceKind::UdpCbr { wire_size: 84, flows: 8 },
        schedule: RateSchedule::piecewise(vec![(0, 170_000.0), (3_000_000_000, 40_000.0)]),
    });
    sc.sample_period_ns = 500_000_000;
    let r = sc.run();
    let shrinks =
        r.realloc.iter().filter(|e| e.decision == lvrm_core::alloc::AllocDecision::Shrink).count();
    assert!(shrinks >= 1, "the load drop must trigger shrinks");
    // After the shrink, traffic still flows: the last sample shows delivery.
    let last = r.samples.last().unwrap();
    assert!(
        last.delivered_mbps > 10.0,
        "post-shrink delivery stalled: {} Mbps",
        last.delivered_mbps
    );
}

#[test]
fn hypervisor_collapse_is_bounded_not_wedged() {
    // QEMU-KVM at 20x its capacity: the sim must neither livelock nor
    // deliver more than capacity.
    let mut sc = Scenario::new(ForwardingMech::Hypervisor(lvrm_testbed::HypervisorKind::QemuKvm));
    sc.duration_ns = 1_000_000_000;
    sc.warmup_ns = 200_000_000;
    let sc = sc.with_udp_load(0, 84, 300_000.0, 8);
    let r = sc.run();
    let cap_fps = 1e9 / 55_000.0; // kvm fixed cost
    assert!(r.delivered_fps() < cap_fps * 1.3, "over capacity: {}", r.delivered_fps());
    assert!(r.delivered_fps() > cap_fps * 0.5, "wedged: {}", r.delivered_fps());
}

#[test]
fn crashed_vri_is_respawned_and_traffic_recovers() {
    // Two fixed VRIs under moderate load; one crashes mid-run. The
    // supervisor must notice within one tick, respawn it, re-dispatch the
    // frames stranded in its queues, and keep every loss accounted.
    let crash_at = 2_500_000_000u64;
    let mut sc = lvrm_scenario();
    sc.duration_ns = 6_000_000_000;
    sc.lvrm.supervision = true;
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 2 };
    sc.faults = FaultPlan::new().crash_at(crash_at, 0);
    sc.sample_period_ns = 500_000_000;
    let sc = sc.with_udp_load(0, 84, 80_000.0, 8);
    let r = sc.run();

    let died = r
        .supervision
        .iter()
        .find(|e| matches!(e.action, SupervisionAction::Died { .. }))
        .expect("supervisor must log the death");
    assert!(died.ts_ns >= crash_at, "death observed after the crash");
    assert!(
        died.ts_ns <= crash_at + 1_100_000_000,
        "death detected within one supervisor tick: {} ns late",
        died.ts_ns - crash_at
    );
    let respawned = r
        .supervision
        .iter()
        .find(|e| matches!(e.action, SupervisionAction::Respawned))
        .expect("supervisor must respawn");
    assert_eq!(respawned.ts_ns, died.ts_ns, "first respawn carries no backoff");

    let s = r.lvrm_stats.clone().unwrap();
    assert_eq!(s.vri_deaths, 1);
    assert!(s.respawns >= 1);
    assert!(s.quarantined_drops == 0, "one crash must not quarantine");

    // Post-recovery delivery resumes at the offered rate.
    let last = r.samples.last().unwrap();
    assert!(last.vris_per_vr[0] >= 2, "VRI count restored: {:?}", last.vris_per_vr);
    assert!(last.delivered_mbps > 20.0, "post-respawn delivery: {}", last.delivered_mbps);

    // Every frame is delivered or sits in a named counter (small in-flight
    // slack at run end, as in the overload test above).
    let accounted = r.udp_received + s.loss() + r.ring_drops;
    assert!(
        accounted + 5_000 >= r.udp_sent,
        "unaccounted loss: sent {} vs accounted {accounted} ({s:?}, ring {})",
        r.udp_sent,
        r.ring_drops
    );
}

#[test]
fn stalled_vri_is_declared_dead_and_replaced() {
    // A wedged instance keeps its endpoint attached but stops heartbeating;
    // the dead-man timer must catch it and route around.
    let stall_at = 2_500_000_000u64;
    let mut sc = lvrm_scenario();
    sc.duration_ns = 6_000_000_000;
    sc.lvrm.supervision = true;
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 2 };
    sc.faults = FaultPlan::new().stall_at(stall_at, 0);
    let sc = sc.with_udp_load(0, 84, 80_000.0, 8);
    let r = sc.run();

    let died = r
        .supervision
        .iter()
        .find(|e| matches!(e.action, SupervisionAction::Died { .. }))
        .expect("stall must be declared dead via heartbeat timeout");
    // Detection needs the silence to exceed dead_after_ns (1 s, measured
    // from the last heartbeat, up to one beat period before the stall),
    // then the next supervisor tick.
    assert!(died.ts_ns + 300_000_000 >= stall_at + sc.lvrm.dead_after_ns);
    assert!(died.ts_ns <= stall_at + sc.lvrm.dead_after_ns + 1_200_000_000);
    let s = r.lvrm_stats.unwrap();
    assert_eq!(s.vri_deaths, 1);
    assert!(s.respawns >= 1, "replacement spawned");
}

#[test]
fn zero_traffic_run_is_clean() {
    let sc = lvrm_scenario();
    let r = sc.run();
    assert_eq!(r.udp_sent, 0);
    assert_eq!(r.udp_received, 0);
    assert_eq!(r.delivery_ratio(), 1.0);
    let s = r.lvrm_stats.unwrap();
    assert_eq!(s.frames_in, 0);
}

#[test]
fn burst_into_empty_vr_recovers() {
    // A VR idles for seconds (allocation decays to 1 VRI), then a burst
    // arrives: frames flow immediately (no cold-start wedge) and the
    // allocator scales back up.
    let mut sc = lvrm_scenario();
    sc.duration_ns = 8_000_000_000;
    sc.lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
    sc.sources.push(SourceSpec {
        vr: 0,
        host: 1,
        kind: SourceKind::UdpCbr { wire_size: 84, flows: 8 },
        schedule: RateSchedule::piecewise(vec![(4_000_000_000, 150_000.0)]),
    });
    sc.sample_period_ns = 500_000_000;
    let r = sc.run();
    let last = r.samples.last().unwrap();
    assert!(last.vris_per_vr[0] >= 3, "burst must re-grow cores: {:?}", last.vris_per_vr);
    assert!(last.delivered_mbps > 50.0, "burst traffic flows: {}", last.delivered_mbps);
}
