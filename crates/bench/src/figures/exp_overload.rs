//! Overload sweep (beyond the paper; DESIGN.md §8): per-VR goodput
//! fairness vs offered load under weighted early shedding.
//!
//! Two VRs share one monitor core with an expensive dispatch stage (the
//! classification/dispatch budget is the contended resource). A compliant
//! tenant (weight 9) offers a constant 30 Kfps while an aggressor
//! (weight 1) sweeps from idle to ~33× its fair share. Reported per load
//! point, with shedding on and off: the tenant's goodput as a fraction of
//! its no-contention baseline, the aggressor's goodput, and the frames
//! shed at ingress classification.

use crate::{full_scale, Table};
use lvrm_core::config::AllocatorKind;
use lvrm_core::SocketKind;
use lvrm_testbed::cost::StageCost;
use lvrm_testbed::scenario::Scenario;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn scenario(aggressor_fps: f64, shedding: bool, dur: u64) -> Scenario {
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = dur;
    sc.warmup_ns = 200_000_000;
    sc.socket = SocketKind::MemTrace;
    sc.cost.dispatch = StageCost::new(2_000, 0.0);
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 1 };
    sc.lvrm.overload_shedding = shedding;
    sc.vrs = vec![
        VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(1.0),
        VrSpec::numbered(1, VrType::Cpp { dummy_load_ns: 16_667 }).with_shed_weight(9.0),
    ];
    let mut sc = sc.with_udp_load(1, 84, 30_000.0, 8);
    if aggressor_fps > 0.0 {
        sc = sc.with_udp_load(0, 84, aggressor_fps, 8);
    }
    sc
}

pub fn run() {
    let dur: u64 = if full_scale() { 4_000_000_000 } else { 2_000_000_000 };
    // Tenant-alone baseline fixes the 100% goodput mark.
    let base = scenario(0.0, true, dur).run().per_vr_received[1] as f64;

    let mut table = Table::new(
        "exp_overload",
        "DESIGN.md §8",
        "Per-VR goodput vs aggressor offered load (tenant fixed at 30 Kfps, \
         weights 1:9, one monitor core)",
        &["aggressor Kfps", "shedding", "tenant goodput %", "aggressor Kfps out", "shed Kframes"],
        "with shedding on, the weight-9 tenant holds ~100% of its \
         no-contention goodput while the weight-1 aggressor is clipped to \
         its quota; with shedding off, the aggressor's excess burns the \
         shared dispatch budget and the tenant collapses with it",
    );
    for &fps in &[0.0, 30_000.0, 60_000.0, 125_000.0, 250_000.0, 500_000.0, 1_000_000.0] {
        for shedding in [true, false] {
            eprintln!("[overload] aggressor {fps} fps, shedding {shedding} ...");
            let r = scenario(fps, shedding, dur).run();
            let s = r.lvrm_stats.clone().unwrap();
            table.row(vec![
                format!("{:.0}", fps / 1e3),
                if shedding { "on" } else { "off" }.to_string(),
                format!("{:.1}", 100.0 * r.per_vr_received[1] as f64 / base),
                format!("{:.1}", r.per_vr_received[0] as f64 / (dur as f64 / 1e9) / 1e3),
                format!("{:.1}", s.shed_early as f64 / 1e3),
            ]);
        }
    }
    table.finish();
}
