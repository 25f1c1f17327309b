//! Observability overhead: metrics registry + latency histograms + scraping.
//!
//! The observability layer rides the hot path — every dispatched frame
//! bumps lock-free counters, and with `latency-histograms on` every departed
//! frame lands in a per-VR histogram. This figure measures what that costs
//! against the batched inline pipeline at the dataplane's default burst of
//! 32, in three configurations:
//!
//!   * `hist off` — counters only (registry cannot be disabled; it *is* the
//!     stats surface now);
//!   * `hist on`  — counters + per-frame latency recording (the default);
//!   * `hist on + scrape` — as above, plus a full Prometheus render every
//!     ~100k frames, standing in for an aggressive 1 Hz scraper.
//!
//! Budget (EXPERIMENTS.md): `hist on` within 3% of `hist off` at batch 32.
//! Each configuration runs several trials and reports the best, since a
//! shared CI box jitters more than the deltas being measured.

use std::net::Ipv4Addr;

use crate::{full_scale, kfps, Table};
use lvrm_core::clock::{Clock, MonotonicClock};
use lvrm_core::host::RecordingHost;
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::{Lvrm, LvrmConfig, MemTraceAdapter};
use lvrm_net::{Trace, TraceSpec};

const BATCH: usize = 32;
const WIRE_SIZE: usize = 84;
const TRIALS: usize = 3;
/// Frames between renders in the scrape configuration (~1 Hz at ~100 Kfps).
const SCRAPE_EVERY: u64 = 100_000;

fn routed_vr() -> Box<dyn lvrm_router::VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new("cpp", routes))
}

/// One inline-batched run; returns (fps, forwarded).
fn run_once(total_frames: u64, histograms: bool, scrape: bool) -> (f64, u64) {
    let clock = MonotonicClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config =
        LvrmConfig { batch_size: BATCH, latency_histograms: histograms, ..LvrmConfig::default() };
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
    let trace = Trace::generate(&TraceSpec::new(WIRE_SIZE, 64));
    let mut adapter = MemTraceAdapter::new(trace, total_frames);
    let mut forwarded = 0u64;
    let mut since_scrape = 0u64;
    let mut scrape_bytes = 0usize;
    let t0 = clock.now_ns();
    while !adapter.exhausted() {
        let n = lvrm.run_burst(&mut adapter, &mut host) as u64;
        forwarded += n;
        since_scrape += n;
        if scrape && since_scrape >= SCRAPE_EVERY {
            since_scrape = 0;
            scrape_bytes = lvrm.render_prometheus().len();
        }
    }
    let elapsed_ns = clock.now_ns() - t0;
    // Keep the render observable so the optimizer can't delete the scrapes.
    if scrape {
        assert!(scrape_bytes > 0, "scrape configuration must have rendered");
    }
    (forwarded as f64 * 1e9 / elapsed_ns as f64, forwarded)
}

fn best_fps(total_frames: u64, histograms: bool, scrape: bool) -> f64 {
    (0..TRIALS).map(|_| run_once(total_frames, histograms, scrape).0).fold(0.0, f64::max)
}

pub fn run() {
    let frames: u64 = if full_scale() { 2_000_000 } else { 400_000 };
    let mut table = Table::new(
        "exp_metrics",
        "DESIGN §9",
        "observability overhead on the batched inline pipeline (batch 32, 84 B frames)",
        &["config", "Kfps", "vs hist-off"],
        "budget: latency histograms within 3% of counters-only at batch 32; \
         scraping adds a bounded render every ~100k frames",
    );
    println!(
        "running on {} core(s), {} frames/trial, best of {TRIALS}",
        lvrm_runtime::affinity::available_cores(),
        frames
    );
    let base = best_fps(frames, false, false);
    for (label, histograms, scrape) in
        [("hist off", false, false), ("hist on", true, false), ("hist on + scrape", true, true)]
    {
        let fps = if (histograms, scrape) == (false, false) {
            base
        } else {
            best_fps(frames, histograms, scrape)
        };
        table.row(vec![label.into(), kfps(fps), format!("{:+.2}%", (fps - base) / base * 100.0)]);
    }
    table.finish();
}
