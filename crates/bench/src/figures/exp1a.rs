//! Experiment 1a (Fig. 4.2): achievable throughput in data forwarding.
//!
//! Achievable throughput (2 % loss rule) versus frame size for native
//! Linux IP forwarding, four LVRM variants, and two hypervisors.

use crate::scenarios::{achievable, exp1_mechs, frame_sizes};
use crate::{kfps, Table};

pub fn run() {
    let sizes = frame_sizes();
    let mut cols: Vec<String> = vec!["mechanism".into()];
    cols.extend(sizes.iter().map(|s| format!("{s}B (Kfps)")));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "exp1a",
        "Fig 4.2",
        "Achievable throughput vs frame size",
        &col_refs,
        "native highest (~448 Kfps @84B); LVRM/PF_RING+C++ tracks native closely; \
         raw socket ~50% slower at small frames; Click below C++; \
         VMware well below native; QEMU-KVM worst by far; all converge toward \
         line rate (81 Kfps) at 1538B except the hypervisors",
    );

    for (label, mech, socket, vr_type) in exp1_mechs() {
        eprintln!("[exp1a] {label} ...");
        let mut row = vec![label.to_string()];
        for &size in &sizes {
            let fps = achievable(mech, socket, vr_type, size);
            row.push(kfps(fps));
        }
        table.row(row);
    }
    table.finish();
}
