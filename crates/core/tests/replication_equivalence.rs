//! Differential proof of state-compute replication (DESIGN.md §14):
//! dispatching a flow's frames across *all* of a VR's replicas, with per-flow
//! deltas replicated through LVSU batches, must be observably equivalent to
//! pinning the flow on a single VRI — same per-flow books, same conservation
//! identities, under arbitrary interleavings of arrivals, flushes, crashes,
//! replays and fault storms.
//!
//! Three layers, increasingly real:
//!
//!  1. `model_*` — pure-model differential over [`ReplicaLedger`] directly:
//!     N replicas + in-memory fan-out vs one pinned reference ledger. No
//!     queues, no clock, no filesystem: this is the leg miri runs.
//!  2. `monitor_*` — the real [`Lvrm`] with `DispatchMode::Replicated` and a
//!     replicating [`RecordingHost`], compared against a pinned single-VRI
//!     monitor fed the identical frame sequence.
//!  3. `storm_*` — randomized `FaultPlan` chaos across every `QueueKind`
//!     (honouring `LVRM_CHAOS_QUEUE` like the other chaos suites):
//!     identity (E) must hold on every snapshot, and no replica book may
//!     ever exceed the injected ground truth (folding is never-twice even
//!     when batches are replayed, reordered, or half-lost).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use lvrm_core::{
    decode_batch, AllocatorKind, DispatchMode, FaultPlan, FaultyHost, FlowBook, LvrmConfig,
    ManualClock, RecordingHost, ReplicaLedger, StateUpdate,
};
use lvrm_ipc::QueueKind;
use lvrm_metrics::MetricsSnapshot;
use lvrm_net::flow::Protocol;
use lvrm_net::{FlowKey, Frame, FrameBuilder};
use proptest::prelude::*;

mod common;
use common::{new_lvrm, queue_kinds, routed_vr};

const CASES: u32 = if cfg!(miri) { 4 } else { 64 };
const MODEL_OPS: usize = if cfg!(miri) { 40 } else { 400 };

// ---- layer 1: pure-model differential ----------------------------------

fn model_key(n: u8) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::new(10, 0, 1, n),
        dst: Ipv4Addr::new(10, 0, 2, 1),
        src_port: 1000 + n as u16,
        dst_port: 80,
        proto: Protocol::Tcp,
    }
}

/// One interleaving step against the replica set.
#[derive(Clone, Debug)]
enum Op {
    /// A frame of `bytes` for flow `flow` arrives at replica `at` (any-VRI
    /// dispatch: the model does not care which).
    Arrive { at: u8, flow: u8, bytes: u16 },
    /// Replica `at` flushes its pending deltas; the "monitor" fans the
    /// batch out to every sibling.
    Flush { at: u8 },
    /// Replica `at` crashes: pending deltas die unflushed.
    Crash { at: u8 },
    /// A previously fanned-out batch is delivered to replica `at` again
    /// (queue retry / duplicated relay). Must fold to nothing.
    Replay { at: u8, which: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u8>(), 0u8..6, 1u16..1500).prop_map(|(at, flow, bytes)| Op::Arrive {
            at,
            flow,
            bytes
        }),
        2 => any::<u8>().prop_map(|at| Op::Flush { at }),
        1 => any::<u8>().prop_map(|at| Op::Crash { at }),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(at, which)| Op::Replay { at, which }),
    ]
}

/// The model "monitor": fans a flushed batch out to all siblings, charging
/// the same identity-(E) ledger the real monitor keeps. `lossy_mask` drops
/// the relay to sibling `i` when bit `i` is set (a full control queue).
struct ModelFanout {
    emitted: u64,
    folded: u64,
    lost: u64,
    /// Every batch ever fanned out, for replay delivery.
    history: Vec<(u32, Vec<StateUpdate>)>,
}

impl ModelFanout {
    fn new() -> ModelFanout {
        ModelFanout { emitted: 0, folded: 0, lost: 0, history: Vec::new() }
    }

    fn fan_out(&mut self, batch: &[u8], replicas: &mut [ReplicaLedger], lossy_mask: u32) {
        let (origin, updates) = decode_batch(batch).expect("model batches are well-formed");
        let k = updates.len() as u64;
        let siblings = replicas.iter().filter(|r| r.origin() != origin).count() as u64;
        self.emitted += k * siblings;
        for (i, r) in replicas.iter_mut().filter(|r| r.origin() != origin).enumerate() {
            if lossy_mask & (1 << i) != 0 {
                self.lost += k;
            } else {
                r.fold_batch(origin, &updates);
                self.folded += k;
            }
        }
        self.history.push((origin, updates));
    }
}

/// Run one interleaving; returns (replicas, reference, fanout).
fn run_model(
    n: usize,
    ops: &[Op],
    lossy: impl Fn(usize) -> u32,
) -> (Vec<ReplicaLedger>, ReplicaLedger, ModelFanout) {
    let mut replicas: Vec<ReplicaLedger> =
        (0..n).map(|i| ReplicaLedger::new(i as u32 + 1)).collect();
    // The pinned reference: one ledger that services *every* frame, exactly
    // what `DispatchMode::Pinned` on a single-VRI VR would do.
    let mut reference = ReplicaLedger::new(0);
    let mut fanout = ModelFanout::new();
    let mut now = 0u64;
    for (step, op) in ops.iter().enumerate() {
        now += 1;
        match *op {
            Op::Arrive { at, flow, bytes } => {
                replicas[at as usize % n].observe(model_key(flow), bytes as u64, now);
                reference.observe(model_key(flow), bytes as u64, now);
            }
            Op::Flush { at } => {
                if let Some(batch) = replicas[at as usize % n].flush() {
                    let mask = lossy(step);
                    fanout.fan_out(&batch, &mut replicas, mask);
                }
            }
            Op::Crash { at } => {
                // The replica process dies and is respawned with empty
                // pending state: whatever it had not flushed is gone.
                replicas[at as usize % n].drop_pending();
            }
            Op::Replay { at, which } => {
                if !fanout.history.is_empty() {
                    let (origin, updates) =
                        fanout.history[which as usize % fanout.history.len()].clone();
                    let r = &mut replicas[at as usize % n];
                    if r.origin() != origin {
                        // Replays are already charged; they must also fold
                        // to nothing (idempotence), checked at the end via
                        // the ground-truth bound.
                        r.fold_batch(origin, &updates);
                    }
                }
            }
        }
    }
    (replicas, reference, fanout)
}

/// Final settle: flush everything and deliver losslessly.
fn settle(replicas: &mut [ReplicaLedger], fanout: &mut ModelFanout) {
    for i in 0..replicas.len() {
        if let Some(batch) = replicas[i].flush() {
            fanout.fan_out(&batch, replicas, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Lossless, crash-free interleavings: after settling, every replica's
    /// books equal the pinned reference's books exactly — frames, bytes and
    /// last-seen all converge, replay deliveries notwithstanding.
    #[test]
    fn model_replicated_books_equal_pinned_reference(
        n in 2usize..5,
        ops in prop::collection::vec(arb_op(), 1..MODEL_OPS),
    ) {
        let ops: Vec<Op> =
            ops.into_iter().filter(|o| !matches!(o, Op::Crash { .. })).collect();
        let (mut replicas, reference, mut fanout) = run_model(n, &ops, |_| 0);
        settle(&mut replicas, &mut fanout);
        for r in &replicas {
            prop_assert_eq!(
                r.books(), reference.books(),
                "replica {} diverged from the pinned reference", r.origin()
            );
        }
        prop_assert_eq!(fanout.emitted, fanout.folded + fanout.lost, "(E) violated");
        prop_assert_eq!(fanout.lost, 0);
    }

    /// With crashes and lossy relays: identity (E) stays exact, and no book
    /// component ever exceeds the reference — lost deltas may leave a
    /// replica behind, but replays and reorders can never push one ahead.
    #[test]
    fn model_lossy_runs_never_overcount_and_keep_identity_e(
        n in 2usize..5,
        ops in prop::collection::vec(arb_op(), 1..MODEL_OPS),
        loss_seed in any::<u32>(),
    ) {
        let (mut replicas, reference, mut fanout) =
            run_model(n, &ops, |step| loss_seed.rotate_left(step as u32) & 0b111);
        settle(&mut replicas, &mut fanout);
        prop_assert_eq!(fanout.emitted, fanout.folded + fanout.lost, "(E) violated");
        for r in &replicas {
            for (key, book) in r.books() {
                let truth = reference.book(key).expect("reference saw every flow");
                prop_assert!(
                    book.frames <= truth.frames && book.bytes <= truth.bytes
                        && book.last_seen_ns <= truth.last_seen_ns,
                    "replica {} overcounted flow {:?}: {:?} > {:?}",
                    r.origin(), key, book, truth
                );
            }
        }
    }

    /// The crashed replica itself stays self-consistent: its own books keep
    /// everything it serviced (state-compute replication loses *replication*,
    /// never local state), and `drop_pending` reports exactly the records
    /// that will never be emitted.
    #[test]
    fn model_crash_loses_replication_not_local_state(
        flows in prop::collection::vec((0u8..6, 1u16..1500), 1..40),
    ) {
        let mut a = ReplicaLedger::new(1);
        let mut expect: HashMap<FlowKey, FlowBook> = HashMap::new();
        for (i, &(flow, bytes)) in flows.iter().enumerate() {
            a.observe(model_key(flow), bytes as u64, i as u64 + 1);
            let e = expect.entry(model_key(flow)).or_default();
            e.frames += 1;
            e.bytes += bytes as u64;
            e.last_seen_ns = i as u64 + 1;
        }
        let distinct = expect.len();
        prop_assert_eq!(a.drop_pending(), distinct, "one pending record per flow");
        prop_assert_eq!(a.books(), &expect);
        prop_assert!(a.flush().is_none(), "nothing left to emit after the crash");
    }
}

// ---- layers 2 & 3: the real monitor ------------------------------------

fn flow_frame(flow: u8, payload: usize) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, flow), Ipv4Addr::new(10, 0, 2, 1)).udp(
        1000 + flow as u16,
        80,
        &vec![0u8; payload],
    )
}

fn c(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name, &[]).unwrap_or(0)
}

fn assert_identity_e(snap: &MetricsSnapshot, ctx: &str) {
    assert_eq!(
        c(snap, "lvrm_repl_updates_emitted_total"),
        c(snap, "lvrm_repl_updates_folded_total") + c(snap, "lvrm_repl_updates_lost_total"),
        "(E) replication identity violated {ctx}"
    );
}

/// Drive `frames` through a monitor with `cores` VRIs in `mode` dispatch;
/// returns (per-VRI ledgers, final snapshot). Pumps every step so nothing
/// overflows: the clean runs must be loss-free to be comparable.
fn drive(
    kind: QueueKind,
    cores: usize,
    mode: DispatchMode,
    frames: &[Frame],
) -> (HashMap<u32, ReplicaLedger>, MetricsSnapshot) {
    let config = LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores },
        ..Default::default()
    };
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::with_replication();
    let vr = lvrm.add_vr("dept", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("d"), &mut host);
    lvrm.set_vr_dispatch(vr, mode);

    let mut out = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        clock.set_ns(i as u64 * 1_000_000);
        lvrm.ingress(f.clone(), &mut host);
        host.pump();
        lvrm.process_control();
        lvrm.poll_egress(&mut out);
    }
    // Settle: the last flush still needs its fan-out relayed and folded.
    for _ in 0..4 {
        host.pump();
        lvrm.process_control();
        lvrm.poll_egress(&mut out);
    }
    let snap = lvrm.metrics_snapshot();
    let ledgers = host.ledgers.iter().map(|(id, l)| (id.0, l.clone())).collect();
    (ledgers, snap)
}

/// An "elephant plus mice" frame sequence: flow 1 dominates.
fn elephant_mix(total: usize) -> Vec<Frame> {
    (0..total)
        .map(|i| if i % 3 != 2 { flow_frame(1, 400) } else { flow_frame((i % 5) as u8 + 2, 64) })
        .collect()
}

/// Layer 2: the real monitor, replicated over N, against pinned-on-1 fed
/// the identical frames. Books (frames/bytes) must be identical per flow,
/// on *every* replica; identity (E) exact; clean runs lose nothing.
#[test]
fn monitor_replicated_books_match_pinned_single_vri() {
    for kind in queue_kinds() {
        for cores in [2usize, 4] {
            let frames = elephant_mix(if cfg!(miri) { 30 } else { 300 });
            let (pinned, psnap) = drive(kind, 1, DispatchMode::Pinned, &frames);
            let (replicated, rsnap) = drive(kind, cores, DispatchMode::Replicated, &frames);
            let ctx = format!("(kind {kind:?}, cores {cores})");

            assert_eq!(c(&psnap, "lvrm_dispatch_drops_total"), 0, "clean pinned run {ctx}");
            assert_eq!(c(&rsnap, "lvrm_dispatch_drops_total"), 0, "clean replicated run {ctx}");
            assert_identity_e(&psnap, &ctx);
            assert_identity_e(&rsnap, &ctx);
            assert_eq!(c(&rsnap, "lvrm_repl_updates_lost_total"), 0, "clean run {ctx}");
            assert!(
                c(&rsnap, "lvrm_repl_updates_emitted_total") > 0,
                "replicated run must actually replicate {ctx}"
            );

            let reference =
                pinned.values().next().expect("pinned run has exactly one ledger").books();
            assert_eq!(replicated.len(), cores, "one ledger per replica {ctx}");
            for (origin, ledger) in &replicated {
                assert_eq!(
                    ledger.books().len(),
                    reference.len(),
                    "replica {origin} is missing flows {ctx}"
                );
                for (key, truth) in reference {
                    let book = ledger.book(key).expect("flow present on every replica");
                    assert_eq!(
                        (book.frames, book.bytes),
                        (truth.frames, truth.bytes),
                        "replica {origin} diverged on {key:?} {ctx}"
                    );
                }
            }
            // Every sibling converged to the same books, timestamps included.
            let mut iter = replicated.values();
            let first = iter.next().unwrap().books();
            for other in iter {
                assert_eq!(first, other.books(), "siblings diverged {ctx}");
            }
        }
    }
}

/// Flipping a VR to replicated mid-stream keeps both identities and the
/// sibling convergence property for traffic from the flip onward.
#[test]
fn monitor_mid_stream_flip_to_replicated_is_safe() {
    for kind in queue_kinds() {
        let config = LvrmConfig {
            queue_kind: kind,
            allocator: AllocatorKind::Fixed { cores: 2 },
            ..Default::default()
        };
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::with_replication();
        let vr =
            lvrm.add_vr("dept", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("d"), &mut host);
        let mut out = Vec::new();
        let frames = elephant_mix(if cfg!(miri) { 20 } else { 120 });
        for (i, f) in frames.iter().enumerate() {
            if i == frames.len() / 2 {
                lvrm.set_vr_dispatch(vr, DispatchMode::Replicated);
            }
            clock.set_ns(i as u64 * 1_000_000);
            lvrm.ingress(f.clone(), &mut host);
            host.pump();
            lvrm.process_control();
            lvrm.poll_egress(&mut out);
            assert_identity_e(&lvrm.metrics_snapshot(), &format!("(kind {kind:?}, step {i})"));
        }
        for _ in 0..4 {
            host.pump();
            lvrm.process_control();
            lvrm.poll_egress(&mut out);
        }
        let snap = lvrm.metrics_snapshot();
        assert_identity_e(&snap, &format!("(kind {kind:?}, settled)"));
        assert!(c(&snap, "lvrm_repl_updates_emitted_total") > 0, "flip took effect {kind:?}");
    }
}

/// Layer 3: randomized fault storms (crashes, stalls, lossy control) with
/// replicated dispatch, across the queue-kind matrix. Identity (E) must
/// hold on every snapshot, and no surviving ledger may ever exceed the
/// injected per-flow ground truth — at-most-once folding under chaos.
fn storm(kind: QueueKind, seed: u64) {
    const STEPS: u64 = if cfg!(miri) { 8 } else { 30 };
    let horizon = STEPS * 100_000_000;
    let config = LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 3 },
        supervision: true,
        ..Default::default()
    };
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), config);
    let plan = FaultPlan::randomized(seed, horizon, 6, 8);
    let inner = RecordingHost { heartbeats: true, replicate: true, ..Default::default() };
    let mut host = FaultyHost::new(inner, plan);
    let vr = lvrm.add_vr("dept", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("d"), &mut host);
    lvrm.set_vr_dispatch(vr, DispatchMode::Replicated);

    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        rng ^= rng >> 30;
        rng = rng.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        rng ^= rng >> 27;
        rng
    };

    let mut injected: HashMap<FlowKey, FlowBook> = HashMap::new();
    let mut out = Vec::new();
    for step in 0..=STEPS {
        let t = step * 100_000_000;
        clock.set_ns(t);
        let burst = (next() % 24) as usize;
        for _ in 0..burst {
            let flow = (next() % 6) as u8;
            let f = flow_frame(flow, 64 + (next() % 512) as usize);
            let key = FlowKey::from_frame(&f).expect("udp frame has a flow key");
            let e = injected.entry(key).or_default();
            e.frames += 1;
            e.bytes += f.len() as u64;
            lvrm.ingress(f, &mut host);
        }
        host.apply(t);
        host.inner.pump();
        lvrm.process_control();
        lvrm.maybe_reallocate(t, &mut host);
        lvrm.poll_egress(&mut out);
        assert_identity_e(
            &lvrm.metrics_snapshot(),
            &format!("(kind {kind:?}, seed {seed}, step {step})"),
        );
    }
    loop {
        let processed = host.inner.pump();
        lvrm.process_control();
        let egress = lvrm.poll_egress(&mut out);
        if processed == 0 && egress == 0 {
            break;
        }
    }
    let ctx = format!("(kind {kind:?}, seed {seed}, settled)");
    assert_identity_e(&lvrm.metrics_snapshot(), &ctx);

    // At-most-once folding: chaos may lose updates (replicas fall behind)
    // but no interleaving of crashes, respawns, relays and retries may ever
    // count a frame twice anywhere.
    for (vri, ledger) in &host.inner.ledgers {
        for (key, book) in ledger.books() {
            let truth = injected.get(key).expect("ledgers only hold injected flows");
            assert!(
                book.frames <= truth.frames && book.bytes <= truth.bytes,
                "ledger {vri:?} overcounted {key:?}: {book:?} > {truth:?} {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 8 }))]

    #[test]
    fn storm_replication_invariants_hold_under_chaos(seed in any::<u64>()) {
        for kind in queue_kinds() {
            storm(kind, seed);
        }
    }
}

/// Pinned regression seeds, mirroring the metrics-invariants convention.
#[test]
fn storm_replication_invariants_hold_for_pinned_seeds() {
    for kind in queue_kinds() {
        for seed in [7, 42, 1337] {
            storm(kind, seed);
        }
    }
}
