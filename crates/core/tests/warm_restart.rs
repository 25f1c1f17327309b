//! Warm-restart acceptance suite (DESIGN.md §10): kill a monitor, restore
//! its successor from the checkpoint, and prove that flow affinity and all
//! four conservation identities survive the restart epoch — for every
//! `QueueKind`. In-flight frames at checkpoint time are not wished away:
//! the fold charges them to `crash_lost`/`queue_lost`, so the restored
//! books balance to the frame.
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset runs both.

use std::net::Ipv4Addr;

use lvrm_core::{AllocatorKind, Checkpoint, Lvrm, LvrmConfig, ManualClock, RecordingHost, VrId};
use lvrm_ipc::QueueKind;
use lvrm_net::{Frame, FrameBuilder};

mod common;
use common::{
    assert_settled, dispatch_counts, drain, flow_frame, new_lvrm, queue_kinds, routed_vr, subnet,
    temp_path,
};

const STEP_NS: u64 = 100_000_000; // 100 ms
const WARMUP_STEPS: u64 = if cfg!(miri) { 10 } else { 30 };
const FLOWS: usize = 8;

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
    let before = dispatch_counts(lvrm, vr);
    lvrm.ingress(flow_frame(i), host);
    drain(lvrm, host, out);
    let after = dispatch_counts(lvrm, vr);
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
        assert_settled(&lvrm_b, &format!("post-restore {kind:?}"));
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
        assert_settled(&lvrm_b, &format!("post-restore traffic {kind:?}"));

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

        assert_settled(&lvrm_b, &format!("mid-flight restore {kind:?}"));
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

/// A VR resized by hand below its allocator's start size comes back at the
/// size it had, and the VRs after it still find their cores: a restore
/// retires each VR's surplus before any VR grows. Fixed-2 VRs resized to
/// 1/3/3 fill the 7 free cores; a fresh monitor starts them at 2/2/2.
#[test]
fn restore_gives_every_vr_its_checkpointed_size() {
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 2 },
        flow_based: true,
        ..Default::default()
    };
    let start = |clock: &ManualClock, host: &mut RecordingHost| {
        let mut lvrm = new_lvrm(clock.clone(), config.clone());
        let vrs: Vec<VrId> = [1u8, 3, 5]
            .iter()
            .map(|&c| {
                let name = format!("vr{c}");
                lvrm.add_vr(&name, &[(Ipv4Addr::new(10, 0, c, 0), 24)], routed_vr(&name), host)
            })
            .collect();
        // Spend the first allocation tick, so the fixed-2 allocator leaves
        // the sizes below alone for the rest of its period.
        lvrm.maybe_reallocate(0, host);
        (lvrm, vrs)
    };
    let sizes = |lvrm: &Lvrm<ManualClock>, vrs: &[VrId]| -> Vec<usize> {
        vrs.iter().map(|&vr| lvrm.vri_count(vr)).collect()
    };
    // Flow `i` of the third VR.
    let flow = |i: u8| {
        let src = Ipv4Addr::new(10, 0, 5, 20 + i);
        FrameBuilder::new(src, Ipv4Addr::new(10, 0, 6, 1)).udp(4000, 80, &[])
    };
    let mut out = Vec::new();

    let (clock_a, mut host_a) = (ManualClock::new(), RecordingHost::default());
    let (mut lvrm_a, vrs) = start(&clock_a, &mut host_a);
    assert_eq!(sizes(&lvrm_a, &vrs), [2, 2, 2]);
    for (&vr, n) in vrs.iter().zip([1, 3, 3]) {
        lvrm_a.resize_vr(vr, n, 0, &mut host_a);
    }
    assert_eq!(sizes(&lvrm_a, &vrs), [1, 3, 3]);
    // Pin flows to the third VR until one sits on its slot 2.
    let pinned = (0..8u8)
        .find(|&i| {
            let before = dispatch_counts(&lvrm_a, vrs[2]);
            lvrm_a.ingress(flow(i), &mut host_a);
            drain(&mut lvrm_a, &mut host_a, &mut out);
            dispatch_counts(&lvrm_a, vrs[2])[2] > before[2]
        })
        .expect("some flow lands on slot 2");
    let ck = lvrm_a.build_checkpoint(0);

    let (clock_b, mut host_b) = (ManualClock::new(), RecordingHost::default());
    let (mut lvrm_b, vrs) = start(&clock_b, &mut host_b);
    lvrm_b.apply_checkpoint(&ck, 0, &mut host_b);
    assert_eq!(sizes(&lvrm_b, &vrs), [1, 3, 3], "each VR restored to its checkpointed size");
    let before = dispatch_counts(&lvrm_b, vrs[2]);
    lvrm_b.ingress(flow(pinned), &mut host_b);
    drain(&mut lvrm_b, &mut host_b, &mut out);
    let after = dispatch_counts(&lvrm_b, vrs[2]);
    assert_eq!(after[2], before[2] + 1, "the pinned flow lands on slot 2 again: {after:?}");
    assert_settled(&lvrm_b, "after the restore");
}
