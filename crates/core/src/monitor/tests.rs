use super::*;
use crate::clock::ManualClock;
use crate::config::AllocatorKind;
use crate::host::RecordingHost;
use crate::topology::{AffinityMode, CoreId, CoreTopology};
use lvrm_net::FrameBuilder;
use lvrm_router::FastVr;

fn subnet(a: u8, b: u8, c: u8) -> (Ipv4Addr, u8) {
    (Ipv4Addr::new(a, b, c, 0), 24)
}

fn frame_from(src: [u8; 4]) -> Frame {
    FrameBuilder::new(Ipv4Addr::from(src), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
}

fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm_router::parse_map_file("10.0.2.0/24 1\n0.0.0.0/0 1\n").unwrap();
    Box::new(FastVr::new(name, routes))
}

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

#[test]
fn add_vr_spawns_first_vri_on_sibling_core() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock, LvrmConfig::default());
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    assert_eq!(lvrm.vri_count(vr), 1);
    assert_eq!(host.spawned.len(), 1);
    assert_eq!(host.spawned[0].core, CoreId(1), "first sibling core");
}

#[test]
fn ingress_classifies_by_source_subnet() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock, LvrmConfig::default());
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
    lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    lvrm.ingress(frame_from([10, 0, 3, 5]), &mut host);
    lvrm.ingress(frame_from([10, 0, 3, 6]), &mut host);
    lvrm.ingress(frame_from([192, 168, 0, 1]), &mut host); // unclassified
    let vrs = lvrm.snapshot();
    assert_eq!(vrs[a.0 as usize].frames_in, 1);
    assert_eq!(vrs[b.0 as usize].frames_in, 2);
    assert_eq!(lvrm.stats().unclassified, 1);
}

#[test]
fn full_forwarding_workflow() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock, LvrmConfig::default());
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for _ in 0..10 {
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    assert_eq!(host.pump(), 10);
    let mut out = Vec::new();
    assert_eq!(lvrm.poll_egress(&mut out), 10);
    assert!(out.iter().all(|f| f.egress_if == 1));
    let s = &lvrm.snapshot()[vr.0 as usize];
    assert_eq!((s.frames_in, s.frames_out), (10, 10));
    assert_eq!(lvrm.stats().frames_out, 10);
}

#[test]
fn dynamic_allocation_grows_under_load() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    assert_eq!(lvrm.vri_count(vr), 1);
    // Offer ~3000 fps for 3 simulated seconds.
    let mut now = 0u64;
    for _ in 0..9000 {
        now += 333_333;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        host.pump();
    }
    assert!(
        lvrm.vri_count(vr) >= 3,
        "3000 fps over 1000 fps/core should grow to >=3 VRIs, got {}",
        lvrm.vri_count(vr)
    );
}

#[test]
fn dynamic_allocation_shrinks_when_idle() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 1000.0 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    // Keep egress drained like the real collect loop would: a full
    // egress queue backpressures the instances and reads as load.
    let mut sink = Vec::new();
    let mut now = 0u64;
    for _ in 0..9000 {
        now += 333_333;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        host.pump();
        lvrm.poll_egress(&mut sink);
        sink.clear();
    }
    let peak = lvrm.vri_count(vr);
    assert!(peak >= 3);
    // Go almost idle: 10 fps for 5 simulated seconds.
    for _ in 0..50 {
        now += 100_000_000;
        clock.set_ns(now);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        host.pump();
        lvrm.poll_egress(&mut sink);
        sink.clear();
    }
    assert!(
        lvrm.vri_count(vr) < peak,
        "idle VR should give cores back (peak {peak}, now {})",
        lvrm.vri_count(vr)
    );
    assert!(!host.killed.is_empty());
}

#[test]
fn reallocation_respects_period() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::DynamicFixed { per_core_rate: 1.0 }, // grow-happy
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    // Steady 1 kHz traffic. The allocator wants to grow on every pass
    // (threshold 1 fps), but passes are rate-limited to one per second:
    // the pass at t=0 sees no rate yet, so the first grow can only land
    // once the period has elapsed.
    for i in 0..999 {
        clock.set_ns(i * 1_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    assert_eq!(lvrm.vri_count(vr), 1, "no reallocation inside the 1 s period");
    for i in 999..1100 {
        clock.set_ns(i * 1_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    assert_eq!(lvrm.vri_count(vr), 2, "period elapsed, exactly one grow allowed");
}

#[test]
fn grow_stops_at_core_exhaustion() {
    let clock = ManualClock::new();
    let config =
        LvrmConfig { allocator: AllocatorKind::Fixed { cores: 100 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for s in 1..20u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    // 8 cores minus LVRM's own = 7 allocatable.
    assert_eq!(lvrm.vri_count(vr), 7);
}

#[test]
fn two_vrs_share_the_core_pool() {
    let clock = ManualClock::new();
    let config = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 4 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
    for s in 1..10u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
        lvrm.ingress(frame_from([10, 0, 3, 5]), &mut host);
    }
    // 7 cores for 2 VRs wanting 4 each: 4 + 3.
    assert_eq!(lvrm.vri_count(a) + lvrm.vri_count(b), 7);
    assert_eq!(lvrm.vri_count(a), 4);
    assert_eq!(lvrm.vri_count(b), 3);
}

#[test]
fn snapshot_reports_live_state() {
    let clock = ManualClock::new();
    let config = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 2 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock, config);
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for _ in 0..10 {
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    let snap = lvrm.snapshot();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].name, "deptA");
    assert_eq!(snap[0].frames_in, 10);
    assert_eq!(snap[0].vris.len(), 2);
    let dispatched: u64 = snap[0].vris.iter().map(|v| v.dispatched).sum();
    assert_eq!(dispatched, 10);
    // Display renders without panicking and mentions the VR name.
    let text = format!("{}", snap[0]);
    assert!(text.contains("deptA"));
}

#[test]
fn memory_budget_caps_growth() {
    let clock = ManualClock::new();
    let mut config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 7 },
        data_queue_capacity: 64,
        ctrl_queue_capacity: 8,
        ..Default::default()
    };
    // Budget for exactly three VRIs' worth of queues.
    let per_vri = {
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        Lvrm::new(config.clone(), cores, ManualClock::new()).vri_queue_memory_estimate()
    };
    config.max_queue_memory_bytes = 3 * per_vri;
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    // Fixed policy wants 7; the budget admits only 3.
    for s in 1..8u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    assert_eq!(lvrm.vri_count(vr), 3, "memory budget must cap the allocation");
}

#[test]
fn realloc_log_records_events() {
    let clock = ManualClock::new();
    let config = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 3 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for s in 1..4u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    let grows = lvrm.realloc_log.iter().filter(|e| e.decision == AllocDecision::Grow).count();
    assert_eq!(grows, 3, "initial + two growth events");
    assert_eq!(lvrm.realloc_log.last().unwrap().vris_after, 3);
}

const KILL_NS: u64 = 7_000;

/// A host whose every `kill_vri` takes [`KILL_NS`] of the monitor's clock.
struct SlowKill(RecordingHost, ManualClock);

impl VriHost for SlowKill {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: lvrm_ipc::VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.0.spawn_vri(spec, endpoint, router);
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.1.advance_ns(KILL_NS);
        self.0.kill_vri(vr, vri);
    }
}

/// Fig. 4.11's deallocation latency covers the kill whenever the shrink
/// retires its victim in the same call: a manual resize, or an
/// allocator shrink with a zero drain deadline. A hitless drain's victim
/// is retired later, outside the reaction.
#[test]
fn shrink_latency_covers_a_retirement_in_the_same_call() {
    for (drain_deadline_ns, idle_shrink_ns) in [(0, KILL_NS), (500_000_000, 0)] {
        let clock = ManualClock::new();
        let allocator = AllocatorKind::Fixed { cores: 1 };
        let config = LvrmConfig { allocator, drain_deadline_ns, ..Default::default() };
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = SlowKill(RecordingHost::default(), clock.clone());
        let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
        lvrm.resize_vr(vr, 3, 0, &mut host);
        lvrm.resize_vr(vr, 2, 0, &mut host);
        let e = lvrm.realloc_log.last().unwrap();
        assert_eq!((e.decision, e.latency_ns), (AllocDecision::Shrink, KILL_NS), "resize");
        // The fixed-1 allocator gives the second core back on its tick.
        clock.advance_ns(1_000_000_000);
        lvrm.maybe_reallocate(clock.now_ns(), &mut host);
        let e = lvrm.realloc_log.last().unwrap();
        assert_eq!((e.decision, e.vris_after), (AllocDecision::Shrink, 1));
        assert_eq!(e.latency_ns, idle_shrink_ns, "drain deadline {drain_deadline_ns}");
    }
}

#[test]
fn balancer_spreads_across_vris() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 3 },
        balancer: crate::config::BalancerKind::RoundRobin,
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for s in 1..4u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    assert_eq!(lvrm.vri_count(vr), 3);
    for _ in 0..297 {
        lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    }
    host.pump();
    let counts: Vec<u64> =
        lvrm.snapshot()[vr.0 as usize].vris.iter().map(|v| v.dispatched).collect();
    assert_eq!(counts.len(), 3);
    let total: u64 = counts.iter().sum();
    assert_eq!(total, 300);
    for c in &counts {
        assert!((95..=105).contains(c), "RR should be near-even: {counts:?}");
    }
}

/// The frame mix used by the batch-equivalence tests: two VRs plus
/// unclassified traffic, deterministic pattern.
fn mixed_frames(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| match i % 4 {
            0 | 1 => frame_from([10, 0, 1, (i % 200) as u8]),
            2 => frame_from([10, 0, 3, (i % 200) as u8]),
            _ => frame_from([192, 168, 0, 1]), // matches no VR
        })
        .collect()
}

/// Latency-histogram digest and registry event log alongside the
/// counters, so the equivalence tests can compare observability outputs
/// too, not just the frame accounting.
struct MixOutcome {
    stats: LvrmStats,
    a_counts: (u64, u64),
    b_counts: (u64, u64),
    a_dispatch: Vec<u64>,
    /// (count, min, max, p50, p99) of `lvrm_vr_latency_ns{vr="deptA"}`.
    latency_digest: (u64, u64, u64, u64, u64),
    events: Vec<lvrm_metrics::MetricEvent>,
}

fn run_mix(batch: usize) -> MixOutcome {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 3 },
        batch_size: batch,
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("deptB", &[subnet(10, 0, 3)], routed_vr("b"), &mut host);
    // Let the fixed policy reach its target before traffic starts.
    for s in 1..4u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.maybe_reallocate(clock.now_ns(), &mut host);
    }
    // Stamp frame `j`'s ingress at a fixed offset and poll it back at a
    // deterministic, varying delay so the latency histograms of two runs
    // with the same per-iteration schedule must agree bucket for bucket.
    let base = clock.now_ns();
    let stamp = |j: u64| base + (j + 1) * 10_000;
    let poll_at = |j: u64| stamp(j) + (j % 7 + 1) * 1_000;
    let frames = mixed_frames(600);
    let mut out = Vec::new();
    if batch == 0 {
        // The per-frame entry point (itself a burst of one internally).
        for (j, mut f) in frames.into_iter().enumerate() {
            f.ts_ns = stamp(j as u64);
            clock.set_ns(poll_at(j as u64));
            lvrm.ingress(f, &mut host);
            host.pump();
            lvrm.poll_egress(&mut out);
        }
    } else {
        let mut burst = Vec::new();
        let mut j = 0u64;
        for chunk in frames.chunks(batch) {
            for f in chunk {
                let mut f = f.clone();
                f.ts_ns = stamp(j);
                burst.push(f);
                j += 1;
            }
            clock.set_ns(poll_at(j - 1));
            lvrm.ingress_batch(&mut burst, &mut host);
            host.pump();
            lvrm.poll_egress(&mut out);
        }
    }
    let snap = lvrm.metrics_snapshot();
    let lat = snap.summary("lvrm_vr_latency_ns", &[("vr", "deptA")]).expect("registered");
    let vrs = lvrm.snapshot();
    let (va, vb) = (&vrs[a.0 as usize], &vrs[b.0 as usize]);
    MixOutcome {
        stats: lvrm.stats(),
        a_counts: (va.frames_in, va.frames_out),
        b_counts: (vb.frames_in, vb.frames_out),
        a_dispatch: va.vris.iter().map(|v| v.dispatched).collect(),
        latency_digest: (
            lat.count(),
            lat.min_ns(),
            lat.max_ns(),
            lat.percentile_ns(50.0),
            lat.percentile_ns(99.0),
        ),
        events: snap.events.clone(),
    }
}

#[test]
fn batch_of_one_is_identical_to_per_frame_path() {
    let r1 = run_mix(1);
    let r2 = run_mix(0); // 0 exercises the explicit per-frame loop
    assert_eq!(r1.stats.frames_in, r2.stats.frames_in);
    assert_eq!(r1.stats.frames_out, r2.stats.frames_out);
    assert_eq!(r1.stats.unclassified, r2.stats.unclassified);
    assert_eq!(r1.stats.dispatch_drops, r2.stats.dispatch_drops);
    assert_eq!(r1.stats.no_vri_drops, r2.stats.no_vri_drops);
    assert_eq!(r1.a_counts, r2.a_counts);
    assert_eq!(r1.b_counts, r2.b_counts);
    assert_eq!(r1.a_dispatch, r2.a_dispatch, "per-VRI dispatch counts must match exactly");
    // The observability outputs must agree too: same latency histogram
    // (both paths saw the same ingress stamps and poll times) and the
    // same event log (same spawns, grows, health transitions).
    assert_eq!(r1.latency_digest, r2.latency_digest, "latency histograms must match");
    assert!(r1.latency_digest.0 > 0, "traffic must have recorded latencies");
    assert_eq!(r1.events, r2.events, "registry event logs must match");
    assert!(!r1.events.is_empty(), "vr-added and vr-alloc events expected");
}

#[test]
fn batched_ingress_preserves_aggregate_stats() {
    let per_frame = run_mix(1);
    for batch in [8usize, 32, 256] {
        let r = run_mix(batch);
        assert_eq!(r.stats.frames_in, per_frame.stats.frames_in, "batch {batch}");
        assert_eq!(r.stats.frames_out, per_frame.stats.frames_out, "batch {batch}");
        assert_eq!(r.stats.unclassified, per_frame.stats.unclassified, "batch {batch}");
        assert_eq!(r.stats.dispatch_drops, 0, "batch {batch}");
        assert_eq!(r.stats.no_vri_drops, 0, "batch {batch}");
        assert_eq!(r.a_counts, per_frame.a_counts, "batch {batch}: per-VR accounting");
        assert_eq!(r.b_counts, per_frame.b_counts, "batch {batch}: per-VR accounting");
        // Latencies depend on the poll schedule, not the batch size
        // alone — but every admitted frame must be measured exactly once.
        assert_eq!(r.latency_digest.0, per_frame.latency_digest.0, "batch {batch}");
        assert_eq!(r.events, per_frame.events, "batch {batch}: event log");
    }
}

#[test]
fn batched_jsq_spreads_within_a_burst() {
    let clock = ManualClock::new();
    let config = LvrmConfig { allocator: AllocatorKind::Fixed { cores: 3 }, ..Default::default() };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    for s in 1..4u64 {
        clock.set_ns(s * 1_100_000_000);
        lvrm.maybe_reallocate(clock.now_ns(), &mut host);
    }
    assert_eq!(lvrm.vri_count(vr), 3);
    // One big burst: without the within-burst load bump JSQ would pin
    // every frame on one VRI.
    let mut burst: Vec<Frame> = (0..300).map(|i| frame_from([10, 0, 1, (i % 200) as u8])).collect();
    lvrm.ingress_batch(&mut burst, &mut host);
    let counts: Vec<u64> =
        lvrm.snapshot()[vr.0 as usize].vris.iter().map(|v| v.dispatched).collect();
    assert_eq!(counts.iter().sum::<u64>(), 300);
    for c in &counts {
        assert!((95..=105).contains(c), "burst must spread across VRIs: {counts:?}");
    }
}

#[test]
fn service_rate_reports_reach_allocator_view() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), LvrmConfig::default());
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    // Inject a synthetic report through the VRI's control channel.
    let endpoint = host.vris[0].endpoint_mut();
    let vri_id = host.spawned[0].vri;
    endpoint.ctrl_tx.try_send(crate::vri::encode_service_rate(vri_id, 42_000.0)).unwrap();
    lvrm.process_control();
    let state = &lvrm.vrs[vr.0 as usize];
    assert_eq!(state.service_rate_per_vri(), Some(42_000.0));
}

/// The flow-table series are looked up when the VR's balancer first
/// keeps a table, which for a VR that starts replicated is not `add_vr`.
#[test]
fn flow_table_series_appear_when_a_vr_turns_flow_based() {
    let config =
        LvrmConfig { flow_based: true, dispatch: DispatchMode::Replicated, ..Default::default() };
    let mut lvrm = new_lvrm(ManualClock::new(), config);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("deptA", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    let labels = [("vr", "deptA")];
    assert_eq!(lvrm.metrics_snapshot().gauge("lvrm_vr_flow_entries", &labels), None);
    lvrm.set_vr_dispatch(vr, DispatchMode::Pinned);
    lvrm.ingress(frame_from([10, 0, 1, 5]), &mut host);
    assert_eq!(lvrm.metrics_snapshot().gauge("lvrm_vr_flow_entries", &labels), Some(1.0));
}
