//! Experiment 2a (Fig. 4.8): throughput analysis on core affinity.
//!
//! One VR, one VRI, four placement policies: sibling core, non-sibling
//! core, kernel default (unpinned), and the same core as LVRM. Paper:
//! sibling best for the C++ VR; sibling ≈ non-sibling for Click (its own
//! processing dominates); default below non-sibling (migrations); same-core
//! clearly worst.

use crate::scenarios::probe_times;
use crate::{kfps, Table};
use lvrm_core::topology::AffinityMode;
use lvrm_core::SocketKind;
use lvrm_testbed::scenario::{search_achievable, Scenario};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn achievable_with_affinity(vr_type: VrType, affinity: AffinityMode) -> f64 {
    let (dur, warm, iters) = probe_times();
    let hi = lvrm_net::wire::line_rate_fps(84, lvrm_net::wire::GIGABIT);
    search_achievable(
        |rate| {
            let mut sc = Scenario::new(ForwardingMech::Lvrm);
            sc.socket = SocketKind::PfRing;
            sc.vrs = vec![VrSpec::numbered(0, vr_type)];
            sc.lvrm.affinity = affinity;
            // Single VRI throughout: fix the allocation at one core.
            sc.lvrm.allocator = lvrm_core::config::AllocatorKind::Fixed { cores: 1 };
            sc.duration_ns = dur;
            sc.warmup_ns = warm;
            sc.with_udp_load(0, 84, rate, 8)
        },
        hi / 100.0,
        hi,
        iters,
    )
}

pub fn run() {
    let mut table = Table::new(
        "exp2a",
        "Fig 4.8",
        "Achievable throughput (84B) by core-affinity policy, single VRI",
        &["vr", "sibling", "non-sibling", "default", "same", "(Kfps)"],
        "sibling highest for C++; sibling ~ non-sibling for Click (VR-bound); \
         default below non-sibling (migration); same-core poorest",
    );
    for vr_type in [VrType::Cpp { dummy_load_ns: 0 }, VrType::Click { dummy_load_ns: 0 }] {
        eprintln!("[exp2a] {} ...", vr_type.name());
        let mut row = vec![vr_type.name().to_string()];
        for mode in AffinityMode::ALL {
            row.push(kfps(achievable_with_affinity(vr_type, mode)));
        }
        row.push(String::new());
        table.row(row);
    }
    table.finish();
}
