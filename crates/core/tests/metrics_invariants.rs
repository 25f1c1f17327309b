//! Invariant suite for the observability layer: every [`MetricsSnapshot`]
//! taken at any instant — mid-burst, mid-fault, mid-drain — must satisfy the
//! conservation identities exactly, for every `QueueKind`, under randomized
//! fault chaos. The identities are stated once, in `lvrm_core::ledger`
//! (DESIGN.md §9); this suite reads a [`Ledger`] back out of the scrape
//! alone, so a counter that moved off the hot path and lost an increment
//! breaks [`Ledger::check`] here, and holds the scrape's ledger equal to the
//! one the monitor builds from live state.
//!
//! Every VR below forwards every frame on an inline host, so on top of
//! `check()` nothing may ever be `unreturned`: in-flight frames are visible
//! as the `lvrm_data_queued` / `lvrm_egress_queued` gauges at every instant.
//! Rescued egress is excluded by design (counted in `frames_out` at rescue
//! time, mirrored by the `lvrm_rescued_pending` gauge).
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset (as CI runs it) runs both.

use std::net::Ipv4Addr;

use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, DispatchMode, FaultPlan,
    FaultyHost, Ledger, Lvrm, LvrmConfig, ManualClock, RecordingHost,
};
use lvrm_ipc::QueueKind;
use lvrm_metrics::MetricsSnapshot;
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::VirtualRouter;
use proptest::prelude::*;

const STEPS: u64 = if cfg!(miri) { 12 } else { 40 };
const CASES: u32 = if cfg!(miri) { 2 } else { 8 };

fn queue_kinds() -> Vec<QueueKind> {
    match std::env::var("LVRM_CHAOS_QUEUE") {
        Ok(want) => vec![want.parse::<QueueKind>().expect("LVRM_CHAOS_QUEUE")],
        Err(_) => QueueKind::ALL.to_vec(),
    }
}

fn chaos_config(kind: QueueKind) -> LvrmConfig {
    LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 2 },
        supervision: true,
        ..Default::default()
    }
}

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

/// All-forwarding router: every admitted frame must come back out.
fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new(name, routes))
}

fn frame(subnet_c: u8, last: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, subnet_c, last), Ipv4Addr::new(10, 0, 2, 1)).udp(
        1,
        2,
        &[],
    )
}

/// The scrape's ledger checks out with nothing unreturned, and is the
/// ledger the monitor builds from live state. Returns the snapshot.
fn assert_ledger(lvrm: &Lvrm<ManualClock>, ctx: &str) -> MetricsSnapshot {
    let snap = lvrm.metrics_snapshot();
    let ledger = Ledger::from_snapshot(&snap);
    assert_eq!(ledger.check(), Ok(()), "{ctx}: {ledger}");
    assert_eq!(ledger.unreturned(), 0, "{ctx}: {ledger}");
    assert_eq!(ledger, lvrm.ledger(), "scrape and live ledgers differ {ctx}");
    snap
}

/// Drive one randomized fault storm against one queue kind, snapshotting
/// after every phase of every step.
fn storm(kind: QueueKind, seed: u64) {
    let horizon = STEPS * 100_000_000;
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
    let plan = FaultPlan::randomized(seed, horizon, 6, 8);
    let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
    let a = lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("deptB", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);
    // deptB runs replicated: its VRIs ledger every serviced frame and flush
    // LVSU batches upstream, so identity (E) sees real fan-out under chaos
    // (relays to crashed/stalled siblings land in `updates_lost`).
    host.inner.replicate = true;
    lvrm.set_vr_dispatch(b, DispatchMode::Replicated);

    // Deterministic per-seed traffic shape (splitmix-style mixer).
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        rng ^= rng >> 30;
        rng = rng.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        rng ^= rng >> 27;
        rng
    };

    let mut out = Vec::new();
    for step in 0..=STEPS {
        let t = step * 100_000_000;
        clock.set_ns(t);
        let ctx = format!("(kind {kind:?}, seed {seed}, step {step})");

        // A burst of mixed traffic: both VRs plus some unclassified.
        let burst_len = (next() % 48) as usize;
        let mut burst: Vec<Frame> = (0..burst_len)
            .map(|_| match next() % 5 {
                0 | 1 => frame(1, (next() % 200) as u8),
                2 | 3 => frame(3, (next() % 200) as u8),
                _ => frame(9, 1), // 10.0.9.x matches no VR
            })
            .collect();
        lvrm.ingress_batch(&mut burst, &mut host);
        // Mid-step: dispatched frames sit in data queues, visible as gauges.
        assert_ledger(&lvrm, &format!("after ingress {ctx}"));

        host.apply(t);
        host.inner.pump();
        lvrm.process_control();
        lvrm.maybe_reallocate(t, &mut host);
        // Egress is collected every step so the test host's bounded egress
        // queues never overflow (a full egress queue drops silently in the
        // vehicle, which no monitor-side counter can see).
        lvrm.poll_egress(&mut out);
        assert_ledger(&lvrm, &format!("after step {ctx}"));
    }

    // Settle: pump/relay/collect until nothing moves, then the queues must
    // be empty and the classic (drained) identity must hold exactly.
    loop {
        let processed = host.inner.pump();
        lvrm.process_control();
        let egress = lvrm.poll_egress(&mut out);
        if processed == 0 && egress == 0 {
            break;
        }
    }
    let ctx = format!("(kind {kind:?}, seed {seed}, settled)");
    let snap = assert_ledger(&lvrm, &ctx);
    assert_eq!(lvrm.ledger().vris.egress_queued, 0, "egress drained {ctx}");

    // The snapshot's per-VR counters agree with the monitor's own view.
    let (a_in, a_out) = lvrm.vr_frame_counts(a);
    let (b_in, b_out) = lvrm.vr_frame_counts(b);
    assert_eq!(snap.counter("lvrm_vr_frames_in_total", &[("vr", "deptA")]), Some(a_in), "{ctx}");
    assert_eq!(snap.counter("lvrm_vr_frames_out_total", &[("vr", "deptA")]), Some(a_out), "{ctx}");
    assert_eq!(snap.counter("lvrm_vr_frames_in_total", &[("vr", "deptB")]), Some(b_in), "{ctx}");
    assert_eq!(snap.counter("lvrm_vr_frames_out_total", &[("vr", "deptB")]), Some(b_out), "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Randomized chaos storms: every snapshot at every instant satisfies
    /// the ledger, for every queue kind in the sweep.
    #[test]
    fn snapshot_invariants_hold_under_chaos(seed in any::<u64>()) {
        for kind in queue_kinds() {
            storm(kind, seed);
        }
    }
}

/// Pinned regression seeds (cheap, always run, no proptest indirection).
#[test]
fn snapshot_invariants_hold_for_pinned_seeds() {
    for kind in queue_kinds() {
        for seed in [7, 42, 1337] {
            storm(kind, seed);
        }
    }
}

/// Supervision events make it into the registry event log with monotonic
/// timestamps, alongside the structural vr-added / vr-alloc entries.
#[test]
fn event_log_records_lifecycle_with_monotonic_timestamps() {
    for kind in queue_kinds() {
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), chaos_config(kind));
        let plan = FaultPlan::new().crash_at(2_000_000_000, 0);
        let mut host = FaultyHost::new(RecordingHost::with_heartbeats(), plan);
        let _ =
            lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
        let mut out = Vec::new();
        for step in 0..=40u64 {
            let t = step * 100_000_000;
            clock.set_ns(t);
            lvrm.ingress(frame(1, (step % 200) as u8), &mut host);
            host.apply(t);
            host.inner.pump();
            lvrm.process_control();
            lvrm.maybe_reallocate(t, &mut host);
            lvrm.poll_egress(&mut out);
        }
        let events = lvrm.metrics().events();
        let texts: Vec<&str> = events.iter().map(|e| e.text.as_str()).collect();
        assert!(
            texts.iter().any(|t| t.starts_with("vr-added vr=deptA")),
            "{kind:?}: missing vr-added in {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t.starts_with("vri-died vr=deptA")),
            "{kind:?}: missing vri-died in {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t.starts_with("vri-respawned vr=deptA")),
            "{kind:?}: missing vri-respawned in {texts:?}"
        );
        assert!(
            events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "{kind:?}: event timestamps must be monotonic"
        );
    }
}
