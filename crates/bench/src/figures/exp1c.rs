//! Experiment 1c (Fig. 4.5): achievable throughput with LVRM only.
//!
//! Frames replayed from main memory, forwarded through the *real* threaded
//! LVRM (no simulation), and discarded at the output — network excluded, so
//! the numbers are the monitor's own overhead. The paper's anchors on a
//! 2×quad-core Xeon: C++ VR reaches 3.7 Mfps at 84 B and 922 Kfps (11 Gbps)
//! at 1538 B; Click VR is far lower.
//!
//! Absolute numbers scale with the host — this figure prints the measured
//! core count so EXPERIMENTS.md can contextualize (a single-core container
//! time-slices LVRM and its VRIs and lands well below the paper).

use crate::{full_scale, kfps, Table};
use lvrm_runtime::pipeline::{run_lvrm_only, run_lvrm_only_inline, PipelineVr};

pub fn run() {
    let sizes = crate::scenarios::frame_sizes();
    let frames: u64 = if full_scale() { 2_000_000 } else { 200_000 };
    let mut table = Table::new(
        "exp1c",
        "Fig 4.5",
        "LVRM-only achievable throughput (REAL threads, frames from RAM)",
        &["vr", "mode", "frame B", "Kfps", "Gbps", "dropped"],
        "paper (8 cores): C++ 3.7 Mfps @84B falling to 922 Kfps (11 Gbps) @1538B; \
         Click VR substantially lower at every size",
    );
    println!(
        "running on {} core(s); paper used 8 — expect proportionally lower absolute rates",
        lvrm_runtime::affinity::available_cores()
    );
    for vr in [PipelineVr::Cpp, PipelineVr::Click] {
        for &size in &sizes {
            eprintln!("[exp1c] {vr:?} {size}B ...");
            // Threaded: the paper's architecture verbatim (timeslice-bound on
            // few-core hosts). Inline: the per-frame software cost with the
            // VRI serviced on the same thread — the honest throughput bound.
            let threaded = run_lvrm_only(vr, size, frames, 1);
            let inline = run_lvrm_only_inline(vr, size, frames);
            table.row(vec![
                format!("{vr:?}"),
                "threaded".into(),
                size.to_string(),
                kfps(threaded.fps()),
                format!("{:.2}", threaded.gbps(size)),
                threaded.dropped.to_string(),
            ]);
            table.row(vec![
                format!("{vr:?}"),
                "inline".into(),
                size.to_string(),
                kfps(inline.fps()),
                format!("{:.2}", inline.gbps(size)),
                inline.dropped.to_string(),
            ]);
        }
    }
    table.finish();
}
