//! Experiment 1b (Fig. 4.4): round-trip latency in data forwarding.
//!
//! ICMP-echo-style probes through each forwarding mechanism. The paper's
//! shape: native and every LVRM variant sit together in the ~70–120 µs band
//! (differences are measurement variance); the hypervisors are markedly
//! higher.

use crate::scenarios::{exp1_mechs, frame_sizes, probe_times};
use crate::{us, Table};
use lvrm_testbed::scenario::{Scenario, SourceSpec};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::VrSpec;

pub fn run() {
    let (dur, warm, _) = probe_times();
    let sizes = frame_sizes();
    let mut cols: Vec<String> = vec!["mechanism".into()];
    cols.extend(sizes.iter().map(|s| format!("{s}B RTT (us)")));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "exp1b",
        "Fig 4.4",
        "Ping round-trip latency vs frame size",
        &col_refs,
        "native and all LVRM variants cluster in ~70-120 us; QEMU-KVM and \
         VMware Server remarkably higher",
    );

    for (label, mech, socket, vr_type) in exp1_mechs() {
        eprintln!("[exp1b] {label} ...");
        let mut row = vec![label.to_string()];
        for &size in &sizes {
            let mut sc = Scenario::new(mech);
            sc.socket = socket;
            sc.vrs = vec![VrSpec::numbered(0, vr_type)];
            sc.duration_ns = dur * 2;
            sc.warmup_ns = warm;
            sc.sources.push(SourceSpec {
                vr: 0,
                host: 1,
                kind: SourceKind::Ping { wire_size: size, interval_ns: 500_000 },
                schedule: RateSchedule::constant(0.0),
            });
            let r = sc.run();
            row.push(us(r.rtt.mean_ns()));
        }
        table.row(row);
    }
    table.finish();
}
