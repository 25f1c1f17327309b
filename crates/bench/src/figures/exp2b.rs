//! Experiment 2b (Fig. 4.9): throughput versus a fixed number of cores.
//!
//! A 1/60 ms dummy load makes each VRI worth ~60 Kfps; offered load is
//! 360 Kfps. The paper's shape: throughput scales ~60c Kfps with c
//! allocated cores (slightly below the "max" ideal), up to the 7 cores the
//! gateway can spare; allocating *more* VRIs than physical cores causes
//! contention and the throughput drops.

use crate::scenarios::probe_times;
use crate::{kfps, Table};
use lvrm_core::config::AllocatorKind;
use lvrm_core::topology::AffinityMode;
use lvrm_testbed::scenario::Scenario;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

pub fn run() {
    let (dur, _warm, _) = probe_times();
    let mut table = Table::new(
        "exp2b",
        "Fig 4.9",
        "Delivered throughput vs fixed core allocation (360 Kfps offered, 1/60ms dummy load)",
        &["vr", "cores", "delivered Kfps", "ideal Kfps"],
        "scales ~60 Kfps per core, slightly under ideal, up to the 7 spare \
         cores; over-allocating beyond physical cores loses throughput to \
         contention",
    );
    for vr_type in [VrType::Cpp { dummy_load_ns: 16_667 }, VrType::Click { dummy_load_ns: 16_667 }]
    {
        for cores in 1..=8usize {
            eprintln!("[exp2b] {} cores={cores} ...", vr_type.name());
            let mut sc = Scenario::new(ForwardingMech::Lvrm);
            sc.vrs = vec![VrSpec::numbered(0, vr_type)];
            sc.lvrm.allocator = AllocatorKind::Fixed { cores };
            // Requesting an 8th VRI exceeds the 7 spare cores: model the
            // paper's contention case by stacking on LVRM's core.
            if cores > 7 {
                sc.lvrm.affinity = AffinityMode::Same;
            }
            sc.duration_ns = dur * 4 + 200_000_000;
            sc.warmup_ns = 200_000_000;
            let sc = sc.with_udp_load(0, 84, 360_000.0, 8);
            let r = sc.run();
            let ideal = (60_000 * cores.min(6)).min(360_000);
            table.row(vec![
                vr_type.name().to_string(),
                cores.to_string(),
                kfps(r.delivered_fps()),
                kfps(ideal as f64),
            ]);
        }
    }
    table.finish();
}
