//! Experiment 1c (Fig. 4.5): achievable throughput with LVRM only.
//!
//! Frames replayed from main memory, forwarded through the *real* threaded
//! LVRM (no simulation), and discarded at the output — network excluded, so
//! the numbers are the monitor's own overhead. The loop is the one `lvrmd`
//! runs (`Lvrm::run_burst`), at the paper's burst of 1 and at 32. The
//! paper's anchors on a 2×quad-core Xeon: C++ VR reaches 3.7 Mfps at 84 B
//! and 922 Kfps (11 Gbps) at 1538 B; Click VR is far lower.
//!
//! Absolute numbers scale with the host — this figure prints the measured
//! core count so EXPERIMENTS.md can contextualize (a single-core container
//! time-slices LVRM and its VRIs and lands well below the paper).

use crate::{full_scale, kfps, Table};

pub fn run() {
    let frames: u64 = if full_scale() { 2_000_000 } else { 200_000 };
    let mut table = Table::new(
        "exp1c",
        "Fig 4.5",
        "LVRM-only achievable throughput (REAL threads, frames from RAM)",
        &["vr", "mode", "batch", "frame B", "Kfps", "Gbps", "dropped"],
        "paper (8 cores): C++ 3.7 Mfps @84B falling to 922 Kfps (11 Gbps) @1538B; \
         Click VR substantially lower at every size",
    );
    println!(
        "running on {} core(s); paper used 8 — expect proportionally lower absolute rates",
        lvrm_runtime::affinity::available_cores()
    );
    crate::scenarios::pipeline_cells("exp1c", frames, |mut cells, size, r| {
        cells.extend([kfps(r.fps()), format!("{:.2}", r.gbps(size)), r.dropped.to_string()]);
        table.row(cells);
    });
    table.finish();
}
