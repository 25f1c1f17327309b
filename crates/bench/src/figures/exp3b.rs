//! Experiment 3b (Fig. 4.15): load balancing among VRs.
//!
//! Two VRs, 180 Kfps each. The paper's fairness proxy: measure each VR's
//! achievable throughput T1, T2 and report T = 2·min(T1, T2) against the
//! 360 Kfps ideal — close means both VRs got fair shares of processing.

use crate::scenarios::probe_times;
use crate::{kfps, Table};
use lvrm_core::config::{AllocatorKind, BalancerKind};
use lvrm_testbed::scenario::{Scenario, SourceSpec};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

pub fn run() {
    let (dur, _, _) = probe_times();
    let mut table = Table::new(
        "exp3b",
        "Fig 4.15",
        "Two VRs at 180 Kfps each: T = 2*min(T1,T2) vs ideal 360 Kfps",
        &["vr", "balancer", "T1 Kfps", "T2 Kfps", "T=2*min Kfps"],
        "C++ VR: T very close to the 360 Kfps ideal for every scheme, JSQ \
         slightly ahead; Click lower due to its processing load",
    );
    for vr_type in [VrType::Cpp { dummy_load_ns: 16_667 }, VrType::Click { dummy_load_ns: 16_667 }]
    {
        for balancer in BalancerKind::ALL {
            eprintln!("[exp3b] {} {} ...", vr_type.name(), balancer.name());
            let mut sc = Scenario::new(ForwardingMech::Lvrm);
            sc.vrs = vec![VrSpec::numbered(0, vr_type), VrSpec::numbered(1, vr_type)];
            sc.lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
            sc.lvrm.balancer = balancer;
            sc.duration_ns = dur * 6 + 4_000_000_000;
            sc.warmup_ns = 4_000_000_000; // allow dynamic allocation to settle
            for vr in 0..2 {
                sc.sources.push(SourceSpec {
                    vr,
                    host: 1,
                    kind: SourceKind::UdpCbr { wire_size: 84, flows: 16 },
                    schedule: RateSchedule::constant(180_000.0),
                });
            }
            let r = sc.run();
            let w = r.window_ns() as f64;
            let t1 = r.per_vr_received[0] as f64 * 1e9 / w;
            let t2 = r.per_vr_received[1] as f64 * 1e9 / w;
            let t = 2.0 * t1.min(t2);
            table.row(vec![
                vr_type.name().to_string(),
                balancer.name().to_string(),
                kfps(t1),
                kfps(t2),
                kfps(t),
            ]);
        }
    }
    table.finish();
}
