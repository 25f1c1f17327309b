//! Experiment 3a (Fig. 4.14): load balancing among the VRIs of one VR.
//!
//! 360 Kfps offered, 1/60 ms dummy load, six VRIs; compare JSQ, round-robin
//! and random. Paper: all three come close to the 360 Kfps ideal; JSQ
//! slightly best because it reacts to each VRI's current load; Click below
//! C++ overall.

use crate::scenarios::probe_times;
use crate::{kfps, Table};
use lvrm_core::config::{AllocatorKind, BalancerKind};
use lvrm_metrics::jain_index;
use lvrm_testbed::scenario::Scenario;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

pub fn run() {
    let (dur, _, _) = probe_times();
    let mut table = Table::new(
        "exp3a",
        "Fig 4.14",
        "Balancing 360 Kfps across 6 VRIs of one VR (ideal = 360 Kfps)",
        &["vr", "balancer", "delivered Kfps", "per-VRI Jain"],
        "all schemes near the ideal; JSQ slightly ahead of RR and random; \
         Click below C++ due to its internal processing",
    );
    for vr_type in [VrType::Cpp { dummy_load_ns: 16_667 }, VrType::Click { dummy_load_ns: 16_667 }]
    {
        for balancer in BalancerKind::ALL {
            eprintln!("[exp3a] {} {} ...", vr_type.name(), balancer.name());
            let mut sc = Scenario::new(ForwardingMech::Lvrm);
            sc.vrs = vec![VrSpec::numbered(0, vr_type)];
            sc.lvrm.allocator = AllocatorKind::Fixed { cores: 6 };
            sc.lvrm.balancer = balancer;
            sc.duration_ns = dur * 6 + 200_000_000;
            sc.warmup_ns = 200_000_000;
            let sc = sc.with_udp_load(0, 84, 360_000.0, 16);
            let r = sc.run();
            let dispatch: Vec<f64> = r.per_vri_dispatches[0].iter().map(|d| *d as f64).collect();
            table.row(vec![
                vr_type.name().to_string(),
                balancer.name().to_string(),
                kfps(r.delivered_fps()),
                format!("{:.3}", jain_index(&dispatch)),
            ]);
        }
    }
    table.finish();
}
