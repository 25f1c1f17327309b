//! The "LVRM only" measurement pipeline (Experiments 1c and 1d).
//!
//! "We load a trace file of … minimum-sized frames into main memory within
//! the gateway. We add an input interface to LVRM to read the raw frames
//! from RAM, and add an output interface to LVRM to simply discard the
//! frames. Then LVRM reads the frames from RAM as fast as possible, relays
//! the frames to a hosted VR, and forwards the frames to the output
//! interface" (§4.2). This driver measures exactly that, on real threads,
//! with real queues and the real monitor.

use std::net::Ipv4Addr;
use std::time::Instant;

use lvrm_core::clock::{Clock, MonotonicClock};
use lvrm_core::host::RecordingHost;
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::{Lvrm, LvrmConfig, MemTraceAdapter, VriHost};
use lvrm_metrics::LatencyHistogram;
use lvrm_net::{Trace, TraceSpec};
use lvrm_router::VirtualRouter;

use crate::threads::ThreadHost;

/// Which VR implementation to host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineVr {
    Cpp,
    Click,
}

/// Result of one LVRM-only run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Frames pushed through the pipeline.
    pub frames: u64,
    pub elapsed_ns: u64,
    /// Per-frame latency from the burst's ingress stamp to its collection:
    /// the monitor's own dispatch→departure histogram.
    pub latency: LatencyHistogram,
    /// Frames the monitor's books lost other than `unclassified`: a full
    /// VRI queue (backpressure), no usable VRI, or any other loss-side
    /// counter.
    pub dropped: u64,
    /// Frames whose source matched no VR subnet (not a queue drop — kept
    /// separate so backpressure numbers stay meaningful).
    pub unclassified: u64,
}

impl PipelineReport {
    pub fn fps(&self) -> f64 {
        self.frames as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Throughput in Gbps at `wire_size`-byte frames.
    pub fn gbps(&self, wire_size: usize) -> f64 {
        self.fps() * wire_size as f64 * 8.0 / 1e9
    }
}

fn build_vr(kind: PipelineVr) -> Box<dyn VirtualRouter> {
    match kind {
        PipelineVr::Cpp => {
            let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
            Box::new(lvrm_router::FastVr::new("cpp", routes))
        }
        PipelineVr::Click => Box::new(
            lvrm_click::ClickVr::minimal_forwarding("click", 0, 1).expect("static config compiles"),
        ),
    }
}

/// Run the LVRM-only pipeline on real threads: replay `total_frames` frames
/// of `wire_size` bytes from RAM through LVRM and `vris` VRI thread(s),
/// discarding at the output. `batch_size` is the monitor's poll budget and
/// the VRI threads' service burst; the paper's loop is 1.
pub fn run_lvrm_only_batched(
    vr: PipelineVr,
    wire_size: usize,
    total_frames: u64,
    vris: usize,
    batch_size: usize,
) -> PipelineReport {
    assert!(vris >= 1);
    let batch_size = batch_size.max(1);
    let clock = MonotonicClock::new();
    let config = LvrmConfig {
        allocator: lvrm_core::config::AllocatorKind::Fixed { cores: vris },
        // Tight queues keep the latency measurement honest (1d): a deep
        // queue would measure queueing, not the relay path.
        data_queue_capacity: 256,
        batch_size,
        ..LvrmConfig::default()
    };
    let n_cores = crate::affinity::available_cores().max(2) as u16;
    let cores = CoreMap::new(
        CoreTopology::single_package(n_cores),
        CoreId(0),
        if n_cores > 1 { AffinityMode::SiblingFirst } else { AffinityMode::Same },
    );
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = ThreadHost::new(clock.clone()).with_batch_size(batch_size);
    let vr_id = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], build_vr(vr), &mut host);
    // Fixed allocation beyond the first VRI happens on reallocation passes;
    // force them now so all VRIs exist before the clock starts.
    for _ in 1..vris {
        lvrm.maybe_reallocate(clock.now_ns() + 2_000_000_000, &mut host);
    }
    assert_eq!(lvrm.vri_count(vr_id), vris.min(n_cores as usize), "VRIs spawned");
    let report = replay(&mut lvrm, &mut host, wire_size, total_frames);
    host.shutdown();
    report
}

/// Run the LVRM-only pipeline with the VRI serviced *inline* on the calling
/// thread (no VRI threads at all). On machines with fewer cores than the
/// paper's eight this is the honest measure of the per-frame software cost:
/// no scheduler timeslices, just the monitor + queues + router path.
pub fn run_lvrm_only_inline_batched(
    vr: PipelineVr,
    wire_size: usize,
    total_frames: u64,
    batch_size: usize,
) -> PipelineReport {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config = LvrmConfig { batch_size: batch_size.max(1), ..LvrmConfig::default() };
    let mut lvrm = Lvrm::new(config, cores, MonotonicClock::new());
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], build_vr(vr), &mut host);
    replay(&mut lvrm, &mut host, wire_size, total_frames)
}

/// The one pipeline loop: [`Lvrm::run_burst`] over a RAM trace until every
/// frame has left the monitor's books, forwarded or lost. Whatever differs
/// between runs (host, topology, queue depth) was set up before the call.
/// Panics if the books do not balance at the end.
fn replay<C: Clock>(
    lvrm: &mut Lvrm<C>,
    host: &mut dyn VriHost,
    wire_size: usize,
    total_frames: u64,
) -> PipelineReport {
    let mut adapter =
        MemTraceAdapter::new(Trace::generate(&TraceSpec::new(wire_size, 64)), total_frames);
    let start = Instant::now();
    let mut frames = 0u64;
    let mut last_loss = 0u64;
    loop {
        frames += lvrm.run_burst(&mut adapter, host) as u64;
        let loss = lvrm.stats().loss();
        // Losses here are queue refusals: the VRI threads are starved for
        // CPU (fewer cores than VRIs), so yield our timeslice to them
        // instead of spinning the queue full.
        if loss > last_loss {
            last_loss = loss;
            std::thread::yield_now();
        }
        if adapter.exhausted() && frames + loss >= total_frames {
            break;
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let ledger = lvrm.ledger();
    assert!(ledger.check().is_ok(), "{ledger}");
    let stats = &ledger.stats;
    let latency = lvrm
        .metrics_snapshot()
        .summary("lvrm_vr_latency_ns", &[("vr", "vr0")])
        .cloned()
        .unwrap_or_default();
    PipelineReport {
        frames,
        elapsed_ns,
        latency,
        dropped: stats.loss() - stats.unclassified,
        unclassified: stats.unclassified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests verify *correctness* (conservation, plumbing); absolute
    // throughput depends on how many cores the test box has and is reported
    // by the bench harness instead.

    #[test]
    fn cpp_pipeline_conserves_frames() {
        let r = run_lvrm_only_batched(PipelineVr::Cpp, 84, 20_000, 1, 1);
        assert_eq!(r.frames + r.dropped, 20_000, "every frame forwarded or counted dropped");
        assert_eq!(r.unclassified, 0, "trace frames all match the VR subnet");
        assert!(r.frames > 0, "at least some frames must flow");
        assert_eq!(r.latency.count(), r.frames);
        assert!(r.fps() > 0.0);
    }

    #[test]
    fn batched_pipeline_conserves_frames() {
        let r = run_lvrm_only_batched(PipelineVr::Cpp, 84, 20_000, 1, 32);
        assert_eq!(r.frames + r.dropped, 20_000);
        assert_eq!(r.unclassified, 0);
        assert!(r.frames > 0);
    }

    #[test]
    fn inline_batched_is_lossless() {
        for batch in [8u64, 32, 256] {
            let r = run_lvrm_only_inline_batched(PipelineVr::Cpp, 84, 50_000, batch as usize);
            assert_eq!(r.frames, 50_000, "batch {batch}");
            assert_eq!(r.dropped, 0, "batch {batch}");
            assert_eq!(r.unclassified, 0, "batch {batch}");
        }
    }

    #[test]
    fn click_pipeline_conserves_frames() {
        let r = run_lvrm_only_batched(PipelineVr::Click, 84, 20_000, 1, 1);
        assert_eq!(r.frames + r.dropped, 20_000);
        assert!(r.frames > 0);
    }

    #[test]
    fn inline_pipeline_is_fast_and_lossless() {
        let r = run_lvrm_only_inline_batched(PipelineVr::Cpp, 84, 50_000, 1);
        assert_eq!(r.frames, 50_000);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.unclassified, 0);
        // Inline there are no timeslices: six figures of fps even in debug.
        assert!(r.fps() > 50_000.0, "inline fps {}", r.fps());
    }

    #[test]
    fn larger_frames_do_not_panic() {
        let r = run_lvrm_only_batched(PipelineVr::Cpp, 1538, 5_000, 1, 1);
        assert_eq!(r.frames + r.dropped, 5_000);
        assert!(r.gbps(1538) > 0.0);
    }
}
