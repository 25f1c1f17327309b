//! Experiment 1d (Fig. 4.6): round-trip latency with LVRM only.
//!
//! Same REAL pipeline as 1c, measuring each frame's latency from the input
//! interface (RAM) to the output interface (discard) with the monitor's own
//! dispatch→departure histogram. Paper: within 15 µs for the C++ VR,
//! 25–35 µs for Click — i.e. LVRM itself contributes little versus the
//! ~70–120 µs network RTT of Experiment 1b.

use crate::{full_scale, us, Table};

pub fn run() {
    let frames: u64 = if full_scale() { 500_000 } else { 50_000 };
    let mut table = Table::new(
        "exp1d",
        "Fig 4.6",
        "LVRM-only per-frame latency (REAL threads, frames from RAM)",
        &["vr", "mode", "batch", "frame B", "mean us", "p50 us", "p99 us"],
        "paper (8 cores): C++ within 15 us across sizes; Click 25-35 us; both \
         small next to the network path of Exp 1b. On fewer cores the figures \
         inflate by scheduler timeslices",
    );
    println!("running on {} core(s); paper used 8", lvrm_runtime::affinity::available_cores());
    crate::scenarios::pipeline_cells("exp1d", frames, |mut cells, _, r| {
        let (p50, p99) = (r.latency.percentile_ns(0.5), r.latency.percentile_ns(0.99));
        cells.extend([r.latency.mean_ns(), p50 as f64, p99 as f64].map(us));
        table.row(cells);
    });
    table.finish();
}
