//! Experiment 2d (Fig. 4.12): dynamic core allocation with two VRs.
//!
//! Each sender drives its own VR with a staircase peaking at 180 Kfps
//! (step 30 Kfps); the flows start at different times. Core allocation
//! condition as in 2c: one core per 60 Kfps. The paper: each VR is
//! allocated cores in the expected manner, with small reaction time.

use crate::{full_scale, Table};
use lvrm_core::config::AllocatorKind;
use lvrm_testbed::scenario::{Scenario, SourceSpec};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

pub fn run() {
    let dwell: u64 = if full_scale() { 5_000_000_000 } else { 2_000_000_000 };
    // 30 -> 180 -> 30 Kfps staircase per VR; VR1 starts two dwells later.
    let stair = RateSchedule::staircase(30_000.0, 180_000.0, dwell);
    let stagger = 2 * dwell;
    let duration = stair.last_change_ns() + dwell + stagger;

    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = duration;
    sc.warmup_ns = 100_000_000;
    sc.sample_period_ns = dwell / 2;
    sc.vrs = vec![
        VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 }),
        VrSpec::numbered(1, VrType::Cpp { dummy_load_ns: 16_667 }),
    ];
    sc.lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
    sc.sources.push(SourceSpec {
        vr: 0,
        host: 1,
        kind: SourceKind::UdpCbr { wire_size: 84, flows: 8 },
        schedule: stair.clone(),
    });
    sc.sources.push(SourceSpec {
        vr: 1,
        host: 1,
        kind: SourceKind::UdpCbr { wire_size: 84, flows: 8 },
        schedule: stair.delayed(stagger),
    });

    eprintln!("[exp2d] running ...");
    let r = sc.run();
    let mut table = Table::new(
        "exp2d",
        "Fig 4.12",
        "Dynamic core allocation, two VRs with staggered staircases",
        &["t (s)", "vr0 Kfps", "vr0 cores", "vr1 Kfps", "vr1 cores"],
        "each VR independently tracks ceil(rate/60K); allocations reflect the \
         stagger; the shared pool never exceeds 7 cores",
    );
    for s in &r.samples {
        table.row(vec![
            format!("{:.1}", s.t_ns as f64 / 1e9),
            format!("{:.0}", s.offered_fps_per_vr[0] / 1e3),
            s.vris_per_vr[0].to_string(),
            format!("{:.0}", s.offered_fps_per_vr[1] / 1e3),
            s.vris_per_vr[1].to_string(),
        ]);
    }
    table.finish();
    let max_total: usize =
        r.samples.iter().map(|s| s.vris_per_vr.iter().sum::<usize>()).max().unwrap_or(0);
    println!("peak total cores in use: {max_total} (7 available)");
}
