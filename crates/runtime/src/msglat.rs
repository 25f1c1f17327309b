//! Control-message-passing latency (Experiment 1e).
//!
//! "We have LVRM host a C++ VR, which has two VRIs. Then we have one of the
//! VRIs send a control event to another VRI through the control queues.
//! Then we measure the latency of such message passing" (§4.2), with and
//! without data load ("full load" raises the latency because a VRI is
//! usually mid-frame when the event arrives).

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use lvrm_core::clock::{Clock, MonotonicClock};
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::{Lvrm, LvrmConfig, MemTraceAdapter, SocketAdapter};
use lvrm_metrics::LatencyHistogram;
use lvrm_net::{Trace, TraceSpec};

use crate::affinity::available_cores;
use crate::threads::{CtrlRole, ThreadHost};

/// Result of one message-passing run.
#[derive(Debug)]
pub struct MsgLatencyReport {
    /// One-way VRI→VRI latency (through LVRM's relay).
    pub latency: LatencyHistogram,
    /// Control events dropped by the relay.
    pub control_drops: u64,
    /// Data frames offered during the run (0 in the no-load setting).
    pub data_frames: u64,
}

/// Measure VRI→VRI control latency with `payload` bytes per event for
/// roughly `duration_ms`. `full_load` floods the VRIs with minimum-size
/// data frames for the paper's "full load" setting.
pub fn measure_control_latency(
    payload: usize,
    duration_ms: u64,
    full_load: bool,
) -> MsgLatencyReport {
    let clock = MonotonicClock::new();
    let config = LvrmConfig {
        allocator: lvrm_core::config::AllocatorKind::Fixed { cores: 2 },
        ..LvrmConfig::default()
    };
    let n_cores = available_cores().max(3) as u16;
    let cores = CoreMap::new(
        CoreTopology::single_package(n_cores),
        CoreId(0),
        if available_cores() >= 3 { AffinityMode::SiblingFirst } else { AffinityMode::Same },
    );
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = ThreadHost::new(clock.clone());
    let sink = Arc::new(Mutex::new(LatencyHistogram::new()));

    // VRI #1 (spawned by add_vr) emits; VRI #2 (second allocation) records.
    // The emitter needs the recorder's id, which is deterministic: LVRM
    // numbers VRIs sequentially from 0.
    host.queue_role(CtrlRole::Emitter {
        dst: lvrm_core::VriId(1),
        payload,
        period_ns: 200_000, // 5 kHz probe rate
    });
    host.queue_role(CtrlRole::Recorder { sink: Arc::clone(&sink) });

    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    let vr = lvrm.add_vr(
        "vr0",
        &[(Ipv4Addr::new(10, 0, 1, 0), 24)],
        Box::new(lvrm_router::FastVr::new("cpp", routes)),
        &mut host,
    );
    lvrm.maybe_reallocate(clock.now_ns() + 2_000_000_000, &mut host);
    assert_eq!(lvrm.vri_count(vr), 2, "experiment needs two VRIs");

    // Full load floods the VRIs with minimum-size frames from RAM; no load
    // offers none, and the loop only relays control.
    let budget = if full_load { u64::MAX } else { 0 };
    let mut adapter = MemTraceAdapter::new(Trace::generate(&TraceSpec::new(84, 16)), budget);
    let deadline = clock.now_ns() + duration_ms * 1_000_000;
    while clock.now_ns() < deadline {
        lvrm.run_burst(&mut adapter, &mut host);
        if !full_load {
            std::hint::spin_loop();
        }
    }
    host.shutdown();
    let ledger = lvrm.ledger();
    assert!(ledger.check().is_ok(), "{ledger}");
    let latency = sink.lock().unwrap().clone();
    MsgLatencyReport {
        latency,
        control_drops: ledger.stats.control_drops,
        data_frames: adapter.rx_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_load_latency_is_measured() {
        let r = measure_control_latency(64, 300, false);
        assert!(r.latency.count() > 50, "events recorded: {}", r.latency.count());
        assert_eq!(r.data_frames, 0);
        // On a multi-core box this is single-digit microseconds; on a
        // one-core CI box it degrades to scheduler timeslices. Bound it by
        // something that catches real plumbing bugs (e.g. seconds-long
        // stalls) without failing on core-starved machines.
        assert!(
            r.latency.percentile_ns(0.5) < 100_000_000,
            "median {} ns is implausibly high",
            r.latency.percentile_ns(0.5)
        );
    }

    #[test]
    fn full_load_still_delivers_events() {
        let r = measure_control_latency(64, 300, true);
        assert!(r.latency.count() > 10, "events recorded: {}", r.latency.count());
        assert!(r.data_frames > 1_000);
    }
}
