//! Warm-restart acceptance suite (DESIGN.md §10): kill a monitor, restore
//! its successor from the checkpoint, and prove that flow affinity and all
//! four conservation identities survive the restart epoch — for every
//! `QueueKind`. In-flight frames at checkpoint time are not wished away:
//! the fold charges them to `crash_lost`/`queue_lost`, so the restored
//! books balance to the frame.
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep (the
//! CI soak matrix does this for the `--ignored` soak); unset runs both.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use lvrm_core::{
    AffinityMode, AllocatorKind, Checkpoint, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig,
    ManualClock, RecordingHost, VrId,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::VirtualRouter;

const STEP_NS: u64 = 100_000_000; // 100 ms
const WARMUP_STEPS: u64 = if cfg!(miri) { 10 } else { 30 };
const FLOWS: usize = 8;

fn queue_kinds() -> Vec<QueueKind> {
    match std::env::var("LVRM_CHAOS_QUEUE") {
        Ok(want) => vec![want.parse::<QueueKind>().expect("LVRM_CHAOS_QUEUE")],
        Err(_) => QueueKind::ALL.to_vec(),
    }
}

fn restart_config(kind: QueueKind) -> LvrmConfig {
    LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 2 },
        supervision: true,
        // Affinity is the point of this suite: flows must stay pinned.
        flow_based: true,
        ..Default::default()
    }
}

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new(name, routes))
}

fn subnet() -> [(Ipv4Addr, u8); 1] {
    [(Ipv4Addr::new(10, 0, 1, 0), 24)]
}

/// Flow `i` of the test population: distinct 5-tuples, all in the VR's
/// subnet, stable across the restart.
fn flow_frame(i: usize) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 20 + i as u8), Ipv4Addr::new(10, 0, 2, 1)).udp(
        4000 + i as u16,
        80,
        &[],
    )
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lvrm-warm-restart");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}", std::process::id()))
}

/// Pump/relay/collect until nothing moves.
fn drain(lvrm: &mut Lvrm<ManualClock>, host: &mut RecordingHost, out: &mut Vec<Frame>) {
    loop {
        let processed = host.pump();
        lvrm.process_control();
        let egress = lvrm.poll_egress(out);
        if processed == 0 && egress == 0 {
            break;
        }
    }
}

/// Drive `steps` ticks of round-robin traffic over the flow population,
/// starting at `t0`. Leaves the pipeline drained.
fn run_traffic(
    lvrm: &mut Lvrm<ManualClock>,
    clock: &ManualClock,
    host: &mut RecordingHost,
    t0: u64,
    steps: u64,
    out: &mut Vec<Frame>,
) {
    for s in 0..steps {
        let t = t0 + s * STEP_NS;
        clock.set_ns(t);
        for i in 0..FLOWS {
            lvrm.ingress(flow_frame(i), host);
        }
        host.pump();
        lvrm.process_control();
        lvrm.maybe_reallocate(t, host);
        lvrm.poll_egress(out);
    }
    drain(lvrm, host, out);
}

/// Which VRI slot serves flow `i` right now: send one probe frame, drain,
/// and read the per-slot dispatch delta.
fn probe_slot(
    lvrm: &mut Lvrm<ManualClock>,
    host: &mut RecordingHost,
    vr: VrId,
    i: usize,
    out: &mut Vec<Frame>,
) -> usize {
    let before = lvrm.vri_dispatch_counts(vr);
    lvrm.ingress(flow_frame(i), host);
    drain(lvrm, host, out);
    let after = lvrm.vri_dispatch_counts(vr);
    assert_eq!(before.len(), after.len(), "probe must not resize the VR");
    let hits: Vec<usize> = after
        .iter()
        .zip(&before)
        .enumerate()
        .filter(|(_, (a, b))| *a > *b)
        .map(|(slot, _)| slot)
        .collect();
    assert_eq!(hits.len(), 1, "exactly one slot must serve flow {i}, got {hits:?}");
    hits[0]
}

/// A drained monitor's ledger (`lvrm_core::ledger`, DESIGN.md §9): every
/// identity, nothing queued, and — every VR here forwards every frame —
/// nothing unreturned.
fn assert_identities(lvrm: &Lvrm<ManualClock>, ctx: &str) {
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check_settled(), Ok(()), "{ctx}: {ledger}");
}

/// The acceptance scenario: warm up, checkpoint, kill, restore — flow
/// affinity and every identity must survive into the new epoch, and the
/// counters must resume rather than reset.
#[test]
fn restart_preserves_affinity_and_all_identities() {
    for kind in queue_kinds() {
        let path = temp_path(&format!("affinity-{kind}.ck"));
        let mut out = Vec::new();

        // --- first life -------------------------------------------------
        let clock_a = ManualClock::new();
        let mut lvrm_a = new_lvrm(clock_a.clone(), restart_config(kind));
        let mut host_a = RecordingHost::with_heartbeats();
        let vr_a = lvrm_a.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_a);
        run_traffic(&mut lvrm_a, &clock_a, &mut host_a, 0, WARMUP_STEPS, &mut out);

        let slots_pre: Vec<usize> =
            (0..FLOWS).map(|i| probe_slot(&mut lvrm_a, &mut host_a, vr_a, i, &mut out)).collect();
        assert!(
            slots_pre.iter().any(|&s| s != slots_pre[0]),
            "{kind:?}: warmup must spread flows over both slots, got {slots_pre:?}"
        );

        let t_ck = WARMUP_STEPS * STEP_NS + STEP_NS;
        assert!(lvrm_a.checkpoint_to(&path, t_ck), "{kind:?}: checkpoint must write");
        let ck = Checkpoint::load(&path).expect("written checkpoint must load");
        assert_eq!(ck.epoch, 0);
        drop(lvrm_a); // the kill

        // --- second life ------------------------------------------------
        let clock_b = ManualClock::new();
        clock_b.set_ns(t_ck);
        let mut lvrm_b = new_lvrm(clock_b.clone(), restart_config(kind));
        let mut host_b = RecordingHost::with_heartbeats();
        let vr_b = lvrm_b.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_b);

        let epoch = lvrm_b.restore_from(&path, &mut host_b).expect("restore must succeed");
        assert_eq!(epoch, 1, "{kind:?}: first restart is epoch 1");
        assert_eq!(lvrm_b.epoch(), 1, "{kind:?}");
        assert_eq!(lvrm_b.vri_count(vr_b), 2, "{kind:?}: VRI population restored");

        // Identities hold the instant the restore lands, before any new
        // traffic: the fold already accounted the previous life.
        assert_identities(&lvrm_b, &format!("post-restore {kind:?}"));
        let s_b = lvrm_b.stats();
        assert_eq!(s_b.frames_in, ck.stats.frames_in, "{kind:?}: counters resume, not reset");
        assert_eq!(s_b.crash_lost, ck.stats.crash_lost, "{kind:?}");

        // Affinity: every flow must land on the slot it had before the
        // restart, and none of the probes may be a fresh pick.
        let slots_post: Vec<usize> =
            (0..FLOWS).map(|i| probe_slot(&mut lvrm_b, &mut host_b, vr_b, i, &mut out)).collect();
        assert_eq!(slots_pre, slots_post, "{kind:?}: flow affinity must survive the restart");
        lvrm_b.refresh_registry();
        let snap = lvrm_b.metrics_snapshot();
        assert_eq!(
            snap.counter("lvrm_vr_flow_fresh_total", &[("vr", "deptA")]),
            Some(0),
            "{kind:?}: restored flows must hit the table, not re-pick"
        );
        assert!(
            snap.counter("lvrm_vr_flow_sticky_total", &[("vr", "deptA")]).unwrap_or(0)
                >= FLOWS as u64,
            "{kind:?}: probes must be sticky hits"
        );
        assert_eq!(
            snap.gauge("lvrm_restore_epoch", &[]),
            Some(1.0),
            "{kind:?}: the restart epoch is exported"
        );

        // New-epoch traffic keeps the books balanced and moving.
        let sent_before = lvrm_b.stats().frames_in;
        run_traffic(&mut lvrm_b, &clock_b, &mut host_b, t_ck + STEP_NS, 10, &mut out);
        let s_end = lvrm_b.stats();
        assert_eq!(
            s_end.frames_in,
            sent_before + 10 * FLOWS as u64,
            "{kind:?}: new-epoch ingress accumulates on the restored baseline"
        );
        assert_identities(&lvrm_b, &format!("post-restore traffic {kind:?}"));

        std::fs::remove_file(&path).ok();
    }
}

/// Kill with frames still parked in VRI queues: the checkpoint fold must
/// charge them to `crash_lost`/`queue_lost` so the restored monitor's
/// books balance without ever seeing those frames.
#[test]
fn mid_flight_frames_are_charged_to_the_restart() {
    for kind in queue_kinds() {
        let path = temp_path(&format!("midflight-{kind}.ck"));
        let mut out = Vec::new();

        let clock_a = ManualClock::new();
        let mut lvrm_a = new_lvrm(clock_a.clone(), restart_config(kind));
        let mut host_a = RecordingHost::with_heartbeats();
        lvrm_a.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_a);
        run_traffic(&mut lvrm_a, &clock_a, &mut host_a, 0, 5, &mut out);

        // Strand a burst: dispatched to VRI queues, never pumped.
        let stranded = 24u64;
        let mut burst: Vec<Frame> = (0..stranded).map(|i| flow_frame(i as usize % FLOWS)).collect();
        let t_ck = 5 * STEP_NS + STEP_NS;
        clock_a.set_ns(t_ck);
        lvrm_a.ingress_batch(&mut burst, &mut host_a);
        assert!(lvrm_a.checkpoint_to(&path, t_ck));
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(
            ck.stats.crash_lost, stranded,
            "{kind:?}: every in-flight frame is charged to the restart"
        );
        drop(lvrm_a);

        let clock_b = ManualClock::new();
        clock_b.set_ns(t_ck);
        let mut lvrm_b = new_lvrm(clock_b.clone(), restart_config(kind));
        let mut host_b = RecordingHost::with_heartbeats();
        lvrm_b.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_b);
        lvrm_b.restore_from(&path, &mut host_b).expect("restore must succeed");

        assert_identities(&lvrm_b, &format!("mid-flight restore {kind:?}"));
        assert_eq!(lvrm_b.stats().crash_lost, stranded, "{kind:?}");

        std::fs::remove_file(&path).ok();
    }
}

/// A checkpointed VR with no counterpart in the restored monitor is
/// logged and skipped — never fatal, and the matched VRs still restore.
#[test]
fn unmatched_checkpoint_vr_is_skipped_not_fatal() {
    let path = temp_path("unmatched.ck");
    let mut out = Vec::new();

    let clock_a = ManualClock::new();
    let mut lvrm_a = new_lvrm(clock_a.clone(), restart_config(QueueKind::Lamport));
    let mut host_a = RecordingHost::with_heartbeats();
    lvrm_a.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_a);
    lvrm_a.add_vr("deptB", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host_a);
    run_traffic(&mut lvrm_a, &clock_a, &mut host_a, 0, 5, &mut out);
    let t_ck = 5 * STEP_NS + STEP_NS;
    assert!(lvrm_a.checkpoint_to(&path, t_ck));
    drop(lvrm_a);

    // The successor only re-registers deptA: deptB's record is orphaned.
    let clock_b = ManualClock::new();
    clock_b.set_ns(t_ck);
    let mut lvrm_b = new_lvrm(clock_b.clone(), restart_config(QueueKind::Lamport));
    let mut host_b = RecordingHost::with_heartbeats();
    lvrm_b.add_vr("deptA", &subnet(), routed_vr("a"), &mut host_b);
    let epoch = lvrm_b.restore_from(&path, &mut host_b).expect("partial match still restores");
    assert_eq!(epoch, 1);

    // deptA still routes in the new epoch.
    lvrm_b.ingress(flow_frame(0), &mut host_b);
    host_b.pump();
    lvrm_b.process_control();
    assert_eq!(lvrm_b.poll_egress(&mut out), 1);

    std::fs::remove_file(&path).ok();
}

/// The periodic path: with `checkpoint_path` configured, the lazy tick
/// writes at the configured cadence and the blob on disk always decodes.
#[test]
fn periodic_checkpoints_ride_the_lazy_tick() {
    let path = temp_path("periodic.ck");
    let mut config = restart_config(QueueKind::Lamport);
    config.checkpoint_path = Some(path.clone());
    config.checkpoint_interval_ns = 1_000_000_000;

    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::with_heartbeats();
    lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

    let mut out = Vec::new();
    run_traffic(&mut lvrm, &clock, &mut host, 0, 50, &mut out); // 5 s

    let writes = lvrm.metrics_snapshot().counter("lvrm_checkpoint_writes_total", &[]).unwrap_or(0);
    assert!(
        (4..=7).contains(&writes),
        "5 s at a 1 s cadence must checkpoint ~5 times, got {writes}"
    );
    let ck = Checkpoint::load(&path).expect("the blob on disk always decodes");
    assert_eq!(ck.epoch, 0);
    std::fs::remove_file(&path).ok();
}

/// Soak: several consecutive restart generations under randomized traffic
/// volumes. Every generation must restore, bump the epoch by one, keep
/// affinity, and keep all identities. Run with `--ignored` (CI soak leg).
#[test]
#[ignore = "soak: run explicitly with --ignored"]
fn chained_restarts_soak() {
    for kind in queue_kinds() {
        for &seed in &[7u64, 42, 1337] {
            let path = temp_path(&format!("soak-{kind}-{seed}.ck"));
            let mut out = Vec::new();
            let mut rng = seed | 1;
            let mut xorshift = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };

            let mut t0 = 0u64;
            let mut prev_frames_in = 0u64;
            let mut slots_prev: Option<Vec<usize>> = None;
            for generation in 0u32..4 {
                let clock = ManualClock::new();
                clock.set_ns(t0);
                let mut lvrm = new_lvrm(clock.clone(), restart_config(kind));
                let mut host = RecordingHost::with_heartbeats();
                let vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);

                if generation > 0 {
                    let epoch = lvrm.restore_from(&path, &mut host).expect("soak restore");
                    assert_eq!(epoch, generation, "{kind:?} seed {seed}");
                    assert!(
                        lvrm.stats().frames_in >= prev_frames_in,
                        "{kind:?} seed {seed}: counters must never regress across restarts"
                    );
                }

                let steps = 10 + xorshift() % 30;
                run_traffic(&mut lvrm, &clock, &mut host, t0 + STEP_NS, steps, &mut out);
                assert_identities(&lvrm, &format!("soak gen {generation} {kind:?} seed {seed}"));

                let slots: Vec<usize> =
                    (0..FLOWS).map(|i| probe_slot(&mut lvrm, &mut host, vr, i, &mut out)).collect();
                if let Some(prev) = &slots_prev {
                    assert_eq!(
                        prev, &slots,
                        "{kind:?} seed {seed} gen {generation}: affinity drifted"
                    );
                }
                slots_prev = Some(slots);

                t0 += (steps + 2) * STEP_NS;
                assert!(lvrm.checkpoint_to(&path, t0), "soak checkpoint");
                prev_frames_in = lvrm.stats().frames_in;
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
