//! Active/standby HA acceptance suite (DESIGN.md §13): pair two monitors —
//! a one-shard cluster, each node's link tagged with its own shard — over
//! an in-process peer link, elect the higher-priority one, stream
//! checkpoint deltas, then kill the master — the standby must promote from
//! its shadow in under a second with flow affinity and all four
//! conservation identities exact. Link weather is the whole-monitor
//! property's (`tests/whole_monitor.rs`).
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset (as CI runs it) runs both.

use lvrm_core::{
    AffinityMode, AllocatorKind, ChannelLink, ClusterConfig, CoreId, CoreMap, CoreTopology, Lvrm,
    LvrmConfig, ManualClock, PeerLink, RecordingHost, Role, VrId,
};
use lvrm_ipc::QueueKind;
use lvrm_net::Frame;

mod common;
use common::{assert_settled, dispatch_counts, drain, flow_frame, queue_kinds, routed_vr, subnet};

/// Host-loop cadence: well under the advert interval, so election timers
/// are observed with ~7% granularity.
const STEP_NS: u64 = 10_000_000; // 10 ms
const ADVERT_NS: u64 = 150_000_000; // 150 ms
const DELTA_NS: u64 = 200_000_000; // stream every 200 ms in tests
const FLOWS: usize = 8;

fn ha_config(kind: QueueKind, priority: u8, node_id: u64) -> LvrmConfig {
    LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 2 },
        supervision: true,
        flow_based: true,
        cluster: Some(ClusterConfig {
            priority,
            node_id,
            advert_interval_ns: ADVERT_NS,
            stream_interval_ns: DELTA_NS,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// One monitor of the pair, with its own clock/host, HA-attached.
struct Node {
    clock: ManualClock,
    lvrm: Lvrm<ManualClock>,
    host: RecordingHost,
    vr: VrId,
    /// Worst `delta_lag()` seen after any step: stream positions sent and
    /// not yet acknowledged.
    max_lag: u64,
}

impl Node {
    fn new(kind: QueueKind, priority: u8, node_id: u64, link: Box<dyn PeerLink>) -> Node {
        let clock = ManualClock::new();
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(ha_config(kind, priority, node_id), cores, clock.clone());
        let mut host = RecordingHost::with_heartbeats();
        let vr = lvrm.add_vr("deptA", &subnet(), routed_vr("a"), &mut host);
        assert!(
            lvrm.attach_cluster(vec![(0, link)]),
            "config carries a cluster, attach must succeed"
        );
        Node { clock, lvrm, host, vr, max_lag: 0 }
    }

    /// One host-loop iteration at absolute time `t`: pump, control, HA
    /// sub-tick (inside `maybe_reallocate`), egress.
    fn step(&mut self, t: u64, out: &mut Vec<Frame>) {
        self.clock.set_ns(t);
        self.host.pump();
        self.lvrm.process_control();
        self.lvrm.maybe_reallocate(t, &mut self.host);
        self.lvrm.poll_egress(out);
        self.max_lag = self.max_lag.max(self.lvrm.cluster().expect("attached").delta_lag());
    }

    fn accepting(&self) -> bool {
        self.lvrm.ha_accepting()
    }

    fn role(&self) -> Role {
        self.lvrm.ha_role().expect("ha attached")
    }

    fn probe_slot(&mut self, i: usize, out: &mut Vec<Frame>) -> usize {
        let before = dispatch_counts(&self.lvrm, self.vr);
        self.lvrm.ingress(flow_frame(i), &mut self.host);
        drain(&mut self.lvrm, &mut self.host, out);
        let after = dispatch_counts(&self.lvrm, self.vr);
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
}

/// Step both nodes forward to `t_end`, feeding `flows_per_step` frames to
/// whichever node is accepting, asserting the single-accepting-master
/// invariant at every step. Returns the final time.
fn run_pair(
    a: &mut Node,
    b: &mut Node,
    t_start: u64,
    t_end: u64,
    flows_per_step: usize,
    out: &mut Vec<Frame>,
    ctx: &str,
) -> u64 {
    let mut t = t_start;
    while t < t_end {
        if a.accepting() {
            for i in 0..flows_per_step {
                a.lvrm.ingress(flow_frame(i % FLOWS), &mut a.host);
            }
        } else if b.accepting() {
            for i in 0..flows_per_step {
                b.lvrm.ingress(flow_frame(i % FLOWS), &mut b.host);
            }
        }
        a.step(t, out);
        b.step(t, out);
        assert!(!(a.accepting() && b.accepting()), "{ctx}: dual accepting masters at t={t}");
        t += STEP_NS;
    }
    t
}

/// Step the pair until the higher-priority node owns the dataplane.
fn elect(a: &mut Node, b: &mut Node, out: &mut Vec<Frame>, ctx: &str) -> u64 {
    let mut t = 0;
    for _ in 0..400 {
        a.step(t, out);
        b.step(t, out);
        assert!(!(a.accepting() && b.accepting()), "{ctx}: dual masters during election");
        t += STEP_NS;
        if a.accepting() {
            assert_eq!(a.role(), Role::Master, "{ctx}");
            assert_eq!(b.role(), Role::Backup, "{ctx}");
            return t;
        }
    }
    panic!("{ctx}: no master elected within {} ns", 400 * STEP_NS);
}

/// The headline acceptance: kill the active monitor; the standby must be
/// accepting frames in < 1 s — on this rig's timers exactly 700 ms
/// (master-down = 3 adverts + skew, plus one probation advert) — with the
/// master's books — all four identities and per-flow affinity — intact on
/// the survivor.
#[test]
fn killed_master_promotes_standby_subsecond_with_exact_books() {
    for kind in queue_kinds() {
        let ctx = format!("{kind:?}");
        let (la, lb) = ChannelLink::pair();
        let mut a = Node::new(kind, 200, 1, Box::new(la));
        let mut b = Node::new(kind, 100, 2, Box::new(lb));
        let mut out = Vec::new();

        let mut t = elect(&mut a, &mut b, &mut out, &ctx);

        // Warm the master: traffic over the flow population, spread across
        // both slots, then drain so the books are quiescent.
        t = run_pair(&mut a, &mut b, t, t + 60 * STEP_NS, FLOWS, &mut out, &ctx);
        drain(&mut a.lvrm, &mut a.host, &mut out);
        let slots_pre: Vec<usize> = (0..FLOWS).map(|i| a.probe_slot(i, &mut out)).collect();
        assert!(
            slots_pre.iter().any(|&s| s != slots_pre[0]),
            "{ctx}: warmup must spread flows over both slots, got {slots_pre:?}"
        );

        // Replication exactness: at a known stream instant the standby's
        // shadow must equal the canonical form of exactly what the master
        // would checkpoint — the delta stream loses nothing.
        t += DELTA_NS + STEP_NS; // guarantee the stream interval elapsed
        a.clock.set_ns(t);
        a.host.pump();
        a.lvrm.process_control();
        let expected = a.lvrm.build_checkpoint(t).canonical();
        a.lvrm.maybe_reallocate(t, &mut a.host); // streams at exactly t
        a.lvrm.poll_egress(&mut out);
        b.step(t, &mut out); // folds the delta (or snapshot), acks
        let shadow =
            b.lvrm.cluster().expect("attached").shadow(0).expect("{ctx}: shadow baselined");
        assert_eq!(shadow.ck, expected, "{ctx}: shadow drifted from the master's checkpoint");
        let a_stats = a.lvrm.stats();

        // The standby acknowledges every delta before the next one leaves.
        assert_eq!(a.max_lag, 1, "{ctx}: worst unacknowledged stream lag");

        // The kill: the master vanishes mid-epoch (no goodbye advert).
        drop(a);
        let t_kill = t;
        let mut promoted_at = None;
        while t < t_kill + 2_000_000_000 {
            t += STEP_NS;
            b.step(t, &mut out);
            if b.accepting() {
                promoted_at = Some(t);
                break;
            }
        }
        let t_accept = promoted_at.unwrap_or_else(|| panic!("{ctx}: standby never took over"));
        // The master's last advert left in the kill step. Master-down is 3
        // adverts + skew (3 × 150 + 156/256 × 150 = 541.4 ms), noticed on the
        // next 10 ms step (550), then one 150 ms probation advert.
        assert_eq!(t_accept - t_kill, 700_000_000, "{ctx}: kill-to-accept time moved");
        assert_eq!(b.role(), Role::Master, "{ctx}");
        // Term 1 was the initial election (A's timeout-promotion); the
        // takeover is election term 2.
        assert_eq!(b.lvrm.cluster().expect("attached").term(), 2, "{ctx}: takeover bumps the term");

        // The survivor's books are the master's books: counters resumed,
        // identities exact, flows pinned to their old slots.
        let s_b = b.lvrm.stats();
        assert_eq!(s_b.frames_in, a_stats.frames_in, "{ctx}: counters resume, not reset");
        assert_eq!(s_b.crash_lost, a_stats.crash_lost, "{ctx}");
        assert_settled(&b.lvrm, &format!("post-promotion {ctx}"));
        let slots_post: Vec<usize> = (0..FLOWS).map(|i| b.probe_slot(i, &mut out)).collect();
        assert_eq!(slots_pre, slots_post, "{ctx}: flow affinity must survive the failover");

        // Fresh traffic accumulates on the inherited baseline and the
        // books stay balanced.
        let before = b.lvrm.stats().frames_in;
        for _ in 0..20 {
            t += STEP_NS;
            for i in 0..FLOWS {
                b.lvrm.ingress(flow_frame(i), &mut b.host);
            }
            b.step(t, &mut out);
        }
        drain(&mut b.lvrm, &mut b.host, &mut out);
        assert!(b.lvrm.stats().frames_in > before, "{ctx}: promoted master serves traffic");
        assert_settled(&b.lvrm, &format!("post-promotion traffic {ctx}"));

        // Failover metrics surfaced.
        b.lvrm.refresh_registry();
        let snap = b.lvrm.metrics_snapshot();
        assert_eq!(snap.gauge("lvrm_ha_role", &[]), Some(1.0), "{ctx}");
        let failover_ns = snap.gauge("lvrm_ha_failover_ns", &[]).unwrap_or(0.0);
        assert!(
            failover_ns > 0.0 && failover_ns < 1e9,
            "{ctx}: lvrm_ha_failover_ns must record the takeover, got {failover_ns}"
        );
    }
}

/// Graceful handoff (SIGUSR1 path): the master resigns with a priority-0
/// advert; the standby takes over after skew — faster than master-down —
/// and at no instant do both accept.
#[test]
fn graceful_handoff_transfers_mastership_without_overlap() {
    for kind in queue_kinds() {
        let ctx = format!("handoff {kind:?}");
        let (la, lb) = ChannelLink::pair();
        let mut a = Node::new(kind, 200, 1, Box::new(la));
        let mut b = Node::new(kind, 100, 2, Box::new(lb));
        let mut out = Vec::new();

        let mut t = elect(&mut a, &mut b, &mut out, &ctx);
        t = run_pair(&mut a, &mut b, t, t + 30 * STEP_NS, FLOWS, &mut out, &ctx);
        drain(&mut a.lvrm, &mut a.host, &mut out);

        let t_handoff = t;
        assert!(a.lvrm.cluster_mut().expect("attached").request_handoff(t_handoff), "{ctx}");
        assert!(!a.accepting(), "{ctx}: resigned master stops accepting at once");
        assert_eq!(a.role(), Role::Draining, "{ctx}");

        let mut took_over = None;
        while t < t_handoff + 1_000_000_000 {
            t += STEP_NS;
            a.step(t, &mut out);
            b.step(t, &mut out);
            assert!(!(a.accepting() && b.accepting()), "{ctx}: overlap during handoff");
            if b.accepting() {
                took_over = Some(t);
                break;
            }
        }
        let t_b = took_over.unwrap_or_else(|| panic!("{ctx}: peer never took over"));
        // Budget: skew of the backup + one probation advert + loop slack.
        let skew = (256 - 100) * ADVERT_NS / 256;
        assert!(
            t_b - t_handoff <= skew + ADVERT_NS + 3 * STEP_NS,
            "{ctx}: handoff took {} ms",
            (t_b - t_handoff) / 1_000_000
        );
        // The resigned master settles back to backup and STAYS there: a
        // manual handoff must be sticky even though A outranks B and
        // preemption is on (1.5 s is well past where preemption would
        // have reclaimed the mastership).
        for _ in 0..150 {
            t += STEP_NS;
            a.step(t, &mut out);
            b.step(t, &mut out);
            assert!(!(a.accepting() && b.accepting()), "{ctx}: overlap after handoff");
        }
        assert_eq!(a.role(), Role::Backup, "{ctx}: drain completes into backup");
        assert!(b.accepting(), "{ctx}: new master keeps the dataplane");

        // But stickiness must not cost liveness: if the new master dies
        // for real, the resigned node still takes back over.
        drop(b);
        let t_kill = t;
        while t < t_kill + 2_000_000_000 && !a.accepting() {
            t += STEP_NS;
            a.step(t, &mut out);
        }
        assert!(a.accepting(), "{ctx}: resigned node must still cover a real death");
        assert!(t - t_kill < 1_000_000_000, "{ctx}: recovery took {} ms", (t - t_kill) / 1_000_000);
    }
}

/// Seeded 50% loss on the *state stream only* (ClusterMsg kind byte at wire
/// offset 5; adverts are kind 0 and sail through): the resync regression
/// below targets the Delta/Snapshot/SyncReq exchange, and dropping
/// adverts too would simply re-test the election envelope.
struct StreamLossLink<L> {
    inner: L,
    from: u64,
    until: u64,
    rng: u64,
}

impl<L> StreamLossLink<L> {
    fn drops(&mut self, now_ns: u64, bytes: &[u8]) -> bool {
        if now_ns < self.from || now_ns >= self.until {
            return false;
        }
        if bytes.len() <= 5 || bytes[5] == 0 {
            return false;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 33) % 1000 < 500
    }
}

impl<L: PeerLink> PeerLink for StreamLossLink<L> {
    fn send(&mut self, now_ns: u64, bytes: &[u8]) {
        if !self.drops(now_ns, bytes) {
            self.inner.send(now_ns, bytes);
        }
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>) {
        self.inner.recv(now_ns, out);
    }
}

/// Wire tap for the resync regression below: counts standby-side SyncReq
/// sends and Snapshot receipts by the ClusterMsg kind byte (offset 5 on the
/// wire), then forwards to the (lossy) inner link untouched.
struct CountingLink<L> {
    inner: L,
    syncreq_tx: std::sync::Arc<std::sync::atomic::AtomicU64>,
    snapshot_rx: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<L: PeerLink> PeerLink for CountingLink<L> {
    fn send(&mut self, now_ns: u64, bytes: &[u8]) {
        if bytes.len() > 5 && bytes[5] == 4 {
            self.syncreq_tx.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.send(now_ns, bytes);
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>) {
        let start = out.len();
        self.inner.recv(now_ns, out);
        for msg in &out[start..] {
            if msg.len() > 5 && msg[5] == 3 {
                self.snapshot_rx.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}

/// SyncReq rate-limit regression: a sustained 50%-loss link gaps the delta
/// stream over and over, but the standby must hold to one in-flight
/// SyncReq per (jittered, exponentially backed-off) interval — so the
/// master re-baselines a handful of times, not once per gapped delta —
/// and the shadow must still converge once the weather clears.
#[test]
fn lossy_link_resync_is_rate_limited_and_still_converges() {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    for kind in queue_kinds() {
        let ctx = format!("lossy-resync {kind:?}");
        // 50% state-stream loss in both directions for 3 s, starting
        // after election; adverts keep flowing so the election holds.
        let loss_from = 1_500_000_000u64;
        let loss_until = loss_from + 3_000_000_000;

        let syncreq_tx = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let snapshot_rx = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (la, lb) = ChannelLink::pair();
        let fa = StreamLossLink { inner: la, from: loss_from, until: loss_until, rng: 7 | 1 };
        let fb =
            StreamLossLink { inner: lb, from: loss_from, until: loss_until, rng: (7 ^ 0xdead) | 1 };
        let tapped = CountingLink {
            inner: fb,
            syncreq_tx: syncreq_tx.clone(),
            snapshot_rx: snapshot_rx.clone(),
        };
        let mut a = Node::new(kind, 200, 1, Box::new(fa));
        let mut b = Node::new(kind, 100, 2, Box::new(tapped));
        let mut out = Vec::new();

        let t = elect(&mut a, &mut b, &mut out, &ctx);
        let baseline_snapshots = snapshot_rx.load(Ordering::Relaxed);
        // Traffic through the whole loss window, then a quiet settle so
        // the final resync (if any) completes.
        let t = run_pair(&mut a, &mut b, t, loss_until + 1_500_000_000, 4, &mut out, &ctx);
        assert!(a.accepting(), "{ctx}: 50% loss must not cost the mastership");

        // The backoff ladder (advert << streak, capped at 8x, jitter
        // >= 0.75) admits at most ~9 requests over a 3 s outage at a
        // 150 ms advert interval; without the rate limit this is one per
        // gapped delta — dozens. Budget 2x the ladder for re-gaps after
        // partial resyncs.
        let requests = syncreq_tx.load(Ordering::Relaxed);
        assert!(
            requests <= 18,
            "{ctx}: {requests} SyncReqs across one 3 s loss window — rate limit broken"
        );
        let rebaselines = snapshot_rx.load(Ordering::Relaxed) - baseline_snapshots;
        assert!(
            rebaselines <= requests + 1,
            "{ctx}: {rebaselines} snapshot re-baselines for {requests} requests"
        );

        // Convergence: the shadow equals the master's books exactly, so a
        // kill right now promotes with zero divergence.
        drain(&mut a.lvrm, &mut a.host, &mut out);
        let mut t2 = t;
        // One more delta interval of clean air to flush the stream tail.
        while t2 < t + 2 * DELTA_NS {
            t2 += STEP_NS;
            a.step(t2, &mut out);
            b.step(t2, &mut out);
        }
        let mut master_books = a.lvrm.build_checkpoint(t2).canonical();
        let mut shadow = b
            .lvrm
            .cluster()
            .expect("attached")
            .shadow(0)
            .unwrap_or_else(|| panic!("{ctx}: standby never built a shadow"))
            .ck
            .canonical();
        // The shadow's build stamp is the last stream tick, not "now".
        master_books.ts_ns = 0;
        shadow.ts_ns = 0;
        assert_eq!(master_books, shadow, "{ctx}: shadow must converge after the storm");
        assert_settled(&a.lvrm, &ctx);
        assert_settled(&b.lvrm, &ctx);
    }
}
