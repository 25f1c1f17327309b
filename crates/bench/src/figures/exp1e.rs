//! Experiment 1e (Fig. 4.7): latency of message passing between VRIs.
//!
//! Two REAL VRI threads of one C++ VR exchange control events through the
//! control queues (relayed by LVRM), with and without data load. Paper:
//! 5–7 µs one-way with no load, 10–12 µs under full load (the receiving VRI
//! is usually mid-frame when the event lands).

use crate::{full_scale, us, Table};
use lvrm_runtime::measure_control_latency;

pub fn run() {
    let payloads = [64usize, 128, 256, 512, 1024];
    let duration_ms = if full_scale() { 3_000 } else { 400 };
    let mut table = Table::new(
        "exp1e",
        "Fig 4.7",
        "Control-event passing latency between two VRIs (REAL threads)",
        &["payload B", "load", "events", "mean us", "p50 us", "p99 us", "drops"],
        "paper (8 cores): 5-7 us one-way with no load; 10-12 us at full load; \
         weak dependence on event size. Scheduler timeslices inflate this on \
         core-starved hosts",
    );
    println!("running on {} core(s); paper used 8", lvrm_runtime::affinity::available_cores());
    for &payload in &payloads {
        for full_load in [false, true] {
            let label = if full_load { "full" } else { "none" };
            eprintln!("[exp1e] payload={payload} load={label} ...");
            let r = measure_control_latency(payload, duration_ms, full_load);
            table.row(vec![
                payload.to_string(),
                label.to_string(),
                r.latency.count().to_string(),
                us(r.latency.mean_ns()),
                us(r.latency.percentile_ns(0.5) as f64),
                us(r.latency.percentile_ns(0.99) as f64),
                r.control_drops.to_string(),
            ]);
        }
    }
    table.finish();
}
