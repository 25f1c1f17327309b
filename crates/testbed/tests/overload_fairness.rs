//! Overload control: when one VR offers many times its fair share, early
//! weighted shedding at ingress classification must protect the other VRs'
//! goodput — the monitor refuses the aggressor's excess cheaply instead of
//! burning its dispatch budget on frames that would tail-drop anyway.

use lvrm_core::config::AllocatorKind;
use lvrm_core::SocketKind;
use lvrm_testbed::cost::StageCost;
use lvrm_testbed::scenario::Scenario;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

/// Two VRs behind one monitor core. The dispatch stage is made expensive
/// enough that classification+dispatch of the aggressor's full offered load
/// would saturate the monitor; each VR has one VRI worth ~60 Kfps.
fn contended_scenario(shedding: bool) -> Scenario {
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = 2_000_000_000;
    sc.warmup_ns = 200_000_000;
    sc.socket = SocketKind::MemTrace;
    sc.cost.dispatch = StageCost::new(2_000, 0.0);
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 1 };
    sc.lvrm.overload_shedding = shedding;
    sc.vrs = vec![
        // The aggressor: low weight, so its quota under overload is small.
        VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(1.0),
        // The well-behaved tenant.
        VrSpec::numbered(1, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(9.0),
    ];
    sc.with_udp_load(0, 84, 1_000_000.0, 8).with_udp_load(1, 84, 30_000.0, 8)
}

/// The well-behaved VR alone, same gateway configuration.
fn baseline_scenario() -> Scenario {
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = 2_000_000_000;
    sc.warmup_ns = 200_000_000;
    sc.socket = SocketKind::MemTrace;
    sc.cost.dispatch = StageCost::new(2_000, 0.0);
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 1 };
    sc.lvrm.overload_shedding = true;
    sc.vrs = vec![
        VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(1.0),
        VrSpec::numbered(1, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(9.0),
    ];
    sc.with_udp_load(1, 84, 30_000.0, 8)
}

#[test]
fn shedding_protects_the_unloaded_vr() {
    let baseline = baseline_scenario().run();
    let base_cold = baseline.per_vr_received[1];
    assert!(base_cold > 0, "baseline must deliver");

    let r = contended_scenario(true).run();
    let cold = r.per_vr_received[1];
    let s = r.lvrm_stats.clone().unwrap();

    // The aggressor was shed, not serviced.
    assert!(s.shed_early > 0, "aggressor excess must be shed: {s:?}");
    // Acceptance bar: the unloaded VR's goodput stays within 10% of
    // its no-contention baseline.
    assert!(
        cold as f64 >= 0.9 * base_cold as f64,
        "cold VR goodput degraded: {cold} contended vs {base_cold} baseline"
    );
    // Per-VR admission counters reconcile with the aggregate.
    let snaps = lvrm_stats_snapshot(&r);
    let shed_sum: u64 = snaps.iter().map(|(_, shed)| *shed).sum();
    assert_eq!(shed_sum, s.shed_early, "per-VR shed must sum to the aggregate");
}

#[test]
fn without_shedding_the_aggressor_starves_the_other_vr() {
    // The adversarial control: same contention, shedding off. The monitor
    // burns its budget dispatching the aggressor's frames into a full queue
    // and the shared RX ring overflows on both VRs indiscriminately.
    let baseline = baseline_scenario().run();
    let base_cold = baseline.per_vr_received[1];

    let r = contended_scenario(false).run();
    let cold = r.per_vr_received[1];
    let s = r.lvrm_stats.clone().unwrap();
    assert_eq!(s.shed_early, 0, "shedding was off");
    assert!(
        (cold as f64) < 0.7 * base_cold as f64,
        "without shedding the cold VR should visibly starve: {cold} vs {base_cold}"
    );
}

/// Per-VR (admitted, shed) as reported by the final monitor snapshot.
fn lvrm_stats_snapshot(r: &lvrm_testbed::scenario::ScenarioResult) -> Vec<(u64, u64)> {
    r.vr_snapshots.iter().map(|v| (v.admitted, v.shed)).collect()
}
