//! Experiment 1a, CPU part (Fig. 4.3): per-core CPU usage in data
//! forwarding, bucketed like `top` into user (us), system (sy) and software
//! interrupts (si).
//!
//! The paper runs `top -b` while forwarding minimum-size frames and shows:
//! native spends the least CPU (softirq only, idle between frames); LVRM
//! variants burn more because of the non-blocking busy polls; the raw-socket
//! variant shows more kernel (sy) time than PF_RING; user-space time is
//! always the minority.

use crate::scenarios::{exp1_scenario, frame_sizes, probe_times};
use crate::Table;
use lvrm_core::SocketKind;
use lvrm_testbed::{ForwardingMech, VrType};

pub fn run() {
    let (dur, warm, _) = probe_times();
    let _ = warm;
    let sizes = frame_sizes();
    let mut table = Table::new(
        "exp1a_cpu",
        "Fig 4.3",
        "Per-core CPU usage (%) at 200 Kfps offered, by bucket",
        &["mechanism", "frame B", "us %", "sy %", "si %", "busy-poll %"],
        "native lowest (si only); LVRM higher overall because the non-blocking \
         polls spin; raw socket shows more sy than PF_RING; user time is the \
         minority everywhere",
    );

    let conditions = [
        ("native-linux", ForwardingMech::Native, SocketKind::PfRing),
        ("lvrm-cpp-raw", ForwardingMech::Lvrm, SocketKind::RawSocket),
        ("lvrm-cpp-pfring", ForwardingMech::Lvrm, SocketKind::PfRing),
    ];
    for (label, mech, socket) in conditions {
        eprintln!("[exp1a_cpu] {label} ...");
        for &size in &sizes {
            let sc = exp1_scenario(mech, socket, VrType::Cpp { dummy_load_ns: 0 }, size, 200_000.0);
            let r = sc.run();
            // Aggregate busy time across cores, normalized by the run length
            // on the busiest core (the paper reports per-core percentages;
            // we report the whole-gateway totals scaled to one core).
            let (us, sy, si) = r
                .cpu_busy
                .iter()
                .fold((0u64, 0u64, 0u64), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
            let f = 100.0 / dur as f64;
            // The LVRM process busy-polls between frames: whatever the cost
            // model did not charge on LVRM's core is spin time, attributed
            // to the socket's polling mechanism (sy for raw-socket syscall
            // polls, si for PF_RING ring checks).
            let busy_poll = match mech {
                ForwardingMech::Lvrm => {
                    let (u0, s0, i0) = r.cpu_busy[0];
                    100.0f64 - (u0 + s0 + i0) as f64 * f
                }
                _ => 0.0,
            }
            .max(0.0);
            table.row(vec![
                label.to_string(),
                size.to_string(),
                format!("{:.1}", us as f64 * f),
                format!("{:.1}", sy as f64 * f),
                format!("{:.1}", si as f64 * f),
                format!("{busy_poll:.1}"),
            ]);
        }
    }
    table.finish();
}
