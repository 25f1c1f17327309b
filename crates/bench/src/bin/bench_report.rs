//! `bench-report`: the machine-readable perf trajectory for the queue-kind
//! sweep. Runs a fixed matrix of benches over every [`QueueKind`] and writes
//! one flat JSON array of rows, schema
//! `{bench, queue_kind, batch, metric, value, unit}`, to `BENCH_10.json` at
//! the repo root (override with `--out <path>`). The schema, its
//! validation, and the cross-report regression gate live in
//! [`lvrm_bench::trajectory`]; `bench-diff` compares two reports.
//!
//! Benches:
//!
//! - `queue_ops` — raw ring transfer between two real threads, per batch
//!   size (wall clock, Mops/s).
//! - `relay` — end-to-end ingress→VRI→egress relay through `Lvrm` with an
//!   in-process host (wall clock, kfps).
//! - `dispatch_uniform` / `dispatch_skew` — *deterministic simulated*
//!   dispatch goodput over repeated burst-drain cycles under a quota-paced
//!   host: every VRI services a fixed frame quota per simulated
//!   millisecond, and the `skew` profile slows one VRI 10×. Classic kinds
//!   commit each frame to one VRI's SPSC queue at dispatch time, so a
//!   backlog queued behind the slowed instance drains at its pace; under
//!   `vlink` the burst sits in the shared ring and the fast instances
//!   steal through it (see `dispatch_goodput`).
//! - `overload` — goodput fraction at 2× offered load with early shedding,
//!   batch 32 (simulated, deterministic).
//! - `scenario_million_flows` / `scenario_flash_crowd` /
//!   `scenario_syn_flood` — the fixed declarative-scenario set on the full
//!   simulated testbed (`lvrm_testbed::scenarios`): flow-census tracking
//!   percentage, tenant goodput under overload, and a conservation flag
//!   that must stay 1.
//! - `ha_failover` — active/standby pair on the manual clock: elect,
//!   stream checkpoint deltas under traffic, kill the master; emits the
//!   simulated promotion latency (`failover_time`, ms) and the worst
//!   observed replication lag (`delta_lag`, unacked stream positions).
//!   Both are deterministic functions of the election timers and gate
//!   lower-is-better.
//! - `repl_scaling` — the elephant-flow scenario under pinned vs
//!   `replicated` dispatch (state-compute replication, DESIGN.md §14): one
//!   bulk TCP flow through a compute-bound VR, goodput speedup over the
//!   pinned baseline at 2 and 4 VRIs (`speedup_vs_pinned`, batch column =
//!   VRI count; targets ≥ 1.7× and ≥ 3×), plus a conservation flag over
//!   all five identities. Deterministic simulated time, identical rows in
//!   smoke and full profiles.
//! - `shard_takeover` — three-shard fleet on the manual clock (DESIGN.md
//!   §15): warm the directory under traffic, kill one shard mid-epoch, and
//!   measure the simulated time until every orphaned VR is owned by its
//!   rendezvous successor (`failover_time`, ms, lower-is-better), plus a
//!   conservation flag over global/replication conservation and the fleet
//!   identity (every VR exactly one owner) after convergence.
//! - `repl_scaling_threads` — the elephant flow on *real* VRI threads
//!   (`lvrm_runtime::ThreadHost` with the replica-ledger path): pinned vs
//!   replicated wall-clock throughput and their ratio. Machine-dependent,
//!   so these rows are excluded from the regression gate and from the
//!   smoke profile.
//!
//! Derived rows pin the PR's acceptance targets: `speedup_vs_lamport` under
//! skew (target ≥ 1.3× at batch 32) and `delta_vs_lamport_pct` under
//! uniform load (target within ±5 %).
//!
//! `--smoke` shrinks every bench to a seconds-long sanity run with the same
//! row set (CI validates the schema from it).

use std::net::Ipv4Addr;

use lvrm_bench::trajectory::{rows_to_json, validate_rows, Row};
use lvrm_core::clock::Clock as _;
use lvrm_core::{
    rendezvous_owner, AffinityMode, AllocatorKind, ChannelLink, CoreId, CoreMap, CoreTopology,
    DispatchMode, HaConfig, Ledger, Lvrm, LvrmConfig, ManualClock, MonotonicClock, PeerLink,
    RecordingHost, ShardConfig, VriHost, VriSpec,
};
use lvrm_ipc::channels::Work;
use lvrm_ipc::{queue, Full, QueueKind, VriEndpoint};
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::{RouterAction, VirtualRouter};

const BATCHES: &[usize] = &[1, 32, 256];

// ------------------------------------------------------------ queue_ops

/// Push `total` u64s through one queue between two real threads, in bursts
/// of `batch`; returns Mops/s of wall time.
fn queue_ops(kind: QueueKind, batch: usize, total: u64) -> f64 {
    let (mut tx, mut rx) = queue::<u64>(kind, 1024);
    let start = std::time::Instant::now();
    let t = std::thread::spawn(move || {
        if batch == 1 {
            for i in 0..total {
                let mut v = i;
                loop {
                    match tx.try_send(v) {
                        Ok(()) => break,
                        Err(Full(b)) => {
                            v = b;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        } else {
            let mut pending: Vec<u64> = Vec::with_capacity(batch);
            let mut next = 0u64;
            while next < total || !pending.is_empty() {
                while pending.len() < batch && next < total {
                    pending.push(next);
                    next += 1;
                }
                if tx.try_send_batch(&mut pending) == 0 {
                    std::thread::yield_now();
                }
            }
        }
    });
    let mut got = 0u64;
    let mut out: Vec<u64> = Vec::with_capacity(batch);
    while got < total {
        if batch == 1 {
            if rx.try_recv().is_some() {
                got += 1;
            } else {
                std::thread::yield_now();
            }
        } else {
            out.clear();
            let n = rx.try_recv_batch(&mut out, batch);
            if n == 0 {
                std::thread::yield_now();
            }
            got += n as u64;
        }
    }
    t.join().unwrap();
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}

// ------------------------------------------------------------ relay

/// Fixed flow population for the dispatch sims: a realistic recurring mix
/// (IP/port 5-tuples repeat every few bursts) that spreads evenly over the
/// instances.
const FLOWS: u32 = 96;

fn frame_for_flow(flow: u32) -> Frame {
    let last = 1 + (flow % 200) as u8;
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, last), Ipv4Addr::new(10, 0, 2, 1)).udp(
        1000 + (flow % 512) as u16,
        2,
        &[],
    )
}

fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new(name, routes))
}

fn subnet() -> [(Ipv4Addr, u8); 1] {
    [(Ipv4Addr::new(10, 0, 1, 0), 24)]
}

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

/// End-to-end relay of `total` frames through the monitor and an in-process
/// host, in bursts of `batch`; returns kfps of wall time.
fn relay(kind: QueueKind, batch: usize, total: usize) -> f64 {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 2 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::default();
    let _vr = lvrm.add_vr("bench", &subnet(), routed_vr("bench"), &mut host);
    let mut out = Vec::new();
    let mut burst: Vec<Frame> = Vec::with_capacity(batch);
    let start = std::time::Instant::now();
    let mut sent = 0usize;
    while sent < total {
        let n = batch.min(total - sent);
        burst.extend((0..n).map(|i| frame_for_flow((sent + i) as u32)));
        sent += n;
        lvrm.ingress_batch(&mut burst, &mut host);
        burst.clear();
        host.pump();
        lvrm.poll_egress(&mut out);
        out.clear();
    }
    loop {
        let moved = host.pump() + lvrm.poll_egress(&mut out);
        out.clear();
        if moved == 0 {
            break;
        }
    }
    lvrm.stats().frames_out as f64 / start.elapsed().as_secs_f64() / 1e3
}

// ------------------------------------------------------------ dispatch sim

/// A host whose instances service a fixed frame quota per simulated step:
/// the deterministic stand-in for "this VRI's core is N× slower".
#[derive(Default)]
struct PacedHost {
    slots: Vec<(VriSpec, VriEndpoint<Frame>, Box<dyn VirtualRouter>)>,
}

impl VriHost for PacedHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.slots.push((spec, endpoint, router));
    }

    fn kill_vri(&mut self, _vr: lvrm_core::VrId, vri: lvrm_core::VriId) {
        self.slots.retain(|(spec, _, _)| spec.vri != vri);
    }
}

impl PacedHost {
    /// Run one step: slot `i` services at most `quotas[i]` data frames.
    fn service(&mut self, quotas: &[usize]) {
        for (i, (_, endpoint, router)) in self.slots.iter_mut().enumerate() {
            let mut quota = quotas.get(i).copied().unwrap_or(0);
            while quota > 0 {
                match endpoint.next_work() {
                    Some(Work::Data(mut frame)) => {
                        quota -= 1;
                        if let RouterAction::Forward { .. } = router.process(&mut frame) {
                            let _ = endpoint.data_tx.try_send(frame);
                        }
                    }
                    Some(Work::Control(_)) => {}
                    None => break,
                }
            }
        }
    }
}

const VRIS: usize = 3;
/// Frames one healthy VRI services per simulated millisecond step.
const FAST_QUOTA: usize = 40;
/// The skew profile: one VRI at a 10× slowdown.
const SLOW_QUOTA: usize = FAST_QUOTA / 10;
/// Frames per burst-drain cycle: fills each per-VRI queue (capacity 256) to
/// 232 under an even JSQ spread, and fits the VLink ring (4 × 256) whole.
/// 232 / 40 = 5.8 keeps the uniform makespan clear of a step boundary, so
/// the ±1-frame wobble of a burst spread cannot flip a whole step.
const CYCLE_FRAMES: usize = VRIS * 232;

/// Simulated dispatch goodput (kfps of *simulated* time) over repeated
/// burst-drain cycles: each cycle ingests `CYCLE_FRAMES` in bursts of
/// `batch`, then the paced host services 1 ms steps until the cycle is
/// fully delivered. `slow_first` applies the 10× slowdown to the
/// first-spawned VRI.
///
/// This is where dispatch policy earns its keep. The classic kinds commit
/// every frame to one VRI's SPSC queue at dispatch time, so the burst's
/// share queued behind the slowed instance drains at one-tenth speed while
/// its siblings sit idle — JSQ spreads by queue length *at dispatch*, and
/// cannot migrate what it already enqueued. Under the VLink fabric the
/// burst sits in the shared ring and the fast VRIs steal through it, so
/// the cycle's makespan tracks aggregate service capacity instead of the
/// slowest instance's backlog.
fn dispatch_goodput(kind: QueueKind, batch: usize, cycles: u64, slow_first: bool) -> f64 {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        queue_kind: kind,
        data_queue_capacity: 256,
        allocator: AllocatorKind::Fixed { cores: VRIS },
        batch_size: batch,
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = PacedHost::default();
    let _vr = lvrm.add_vr("bench", &subnet(), routed_vr("bench"), &mut host);
    assert_eq!(host.slots.len(), VRIS);

    let mut quotas = vec![FAST_QUOTA; VRIS];
    if slow_first {
        quotas[0] = SLOW_QUOTA;
    }

    let step_ns = 1_000_000u64;
    let mut flow = 0u32;
    let mut burst: Vec<Frame> = Vec::with_capacity(batch);
    let mut out = Vec::new();
    let mut t = 0u64;
    let mut delivered = 0u64;
    for cycle in 0..cycles {
        let mut left = CYCLE_FRAMES;
        while left > 0 {
            let n = batch.min(left);
            left -= n;
            burst.extend((0..n).map(|i| frame_for_flow(flow.wrapping_add(i as u32) % FLOWS)));
            flow = flow.wrapping_add(n as u32);
            lvrm.ingress_batch(&mut burst, &mut host);
            burst.clear();
        }
        let target = delivered + CYCLE_FRAMES as u64;
        // Every frame fits a queue, so nothing should drop; the step cap
        // turns an accounting surprise into a loud failure, not a hang.
        let mut steps_left = 64 * CYCLE_FRAMES / SLOW_QUOTA;
        while lvrm.stats().frames_out < target {
            assert!(steps_left > 0, "cycle {cycle} failed to drain: {:?}", lvrm.stats());
            steps_left -= 1;
            t += step_ns;
            clock.set_ns(t);
            host.service(&quotas);
            lvrm.process_control();
            lvrm.poll_egress(&mut out);
            out.clear();
        }
        delivered = target;
    }
    assert_eq!(lvrm.stats().dispatch_drops, 0, "makespan cycles must not drop");
    let sim_secs = t as f64 / 1e9;
    delivered as f64 / sim_secs / 1e3
}

// ------------------------------------------------------------ overload

/// Goodput fraction (delivered / offered, %) at 2× aggregate capacity with
/// early shedding on; deterministic.
fn overload_goodput_pct(kind: QueueKind, steps: u64) -> f64 {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        queue_kind: kind,
        data_queue_capacity: 256,
        allocator: AllocatorKind::Fixed { cores: VRIS },
        batch_size: 32,
        overload_shedding: true,
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = PacedHost::default();
    let _vr = lvrm.add_vr("bench", &subnet(), routed_vr("bench"), &mut host);
    let offered = 2 * VRIS * FAST_QUOTA;
    let quotas = vec![FAST_QUOTA; VRIS];
    let step_ns = 1_000_000u64;
    let mut flow = 0u32;
    let mut burst: Vec<Frame> = Vec::with_capacity(32);
    let mut out = Vec::new();
    let mut t = 0u64;
    for _ in 0..steps + 32 {
        t += step_ns;
        clock.set_ns(t);
        let mut left = if t <= steps * step_ns { offered } else { 0 };
        while left > 0 {
            let n = 32.min(left);
            left -= n;
            burst.extend((0..n).map(|i| frame_for_flow(flow.wrapping_add(i as u32) % FLOWS)));
            flow = flow.wrapping_add(n as u32);
            lvrm.ingress_batch(&mut burst, &mut host);
            burst.clear();
        }
        host.service(&quotas);
        lvrm.process_control();
        lvrm.poll_egress(&mut out);
        out.clear();
    }
    let s = lvrm.stats();
    100.0 * s.frames_out as f64 / s.frames_in as f64
}

// ------------------------------------------------------------ ha failover

/// One monitor of the HA bench pair: own clock and host, HA attached over
/// the given link half.
struct HaBenchNode {
    clock: ManualClock,
    lvrm: Lvrm<ManualClock>,
    host: RecordingHost,
}

impl HaBenchNode {
    fn new(kind: QueueKind, priority: u8, node_id: u64, link: Box<dyn PeerLink>) -> HaBenchNode {
        let config = LvrmConfig {
            queue_kind: kind,
            allocator: AllocatorKind::Fixed { cores: 2 },
            supervision: true,
            flow_based: true,
            ha: Some(HaConfig {
                priority,
                node_id,
                delta_interval_ns: 200_000_000,
                ..Default::default()
            }),
            ..Default::default()
        };
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::with_heartbeats();
        let _vr = lvrm.add_vr("bench", &subnet(), routed_vr("bench"), &mut host);
        assert!(lvrm.attach_ha(link), "config carries ha");
        HaBenchNode { clock, lvrm, host }
    }

    fn step(&mut self, t: u64, out: &mut Vec<Frame>) {
        self.clock.set_ns(t);
        self.host.pump();
        self.lvrm.process_control();
        self.lvrm.maybe_reallocate(t, &mut self.host);
        self.lvrm.poll_egress(out);
        out.clear();
    }
}

/// Deterministic simulated failover on the manual clock: elect an
/// active/standby pair over an in-process link, stream deltas under
/// traffic, then kill the master. Returns `(failover_ms, max_delta_lag)` —
/// pure functions of the election timers and stream cadence, so the gate
/// sees no machine noise.
fn ha_failover(kind: QueueKind, warm_steps: u64) -> (f64, f64) {
    const STEP_NS: u64 = 10_000_000; // 10 ms host-loop cadence
    let (la, lb) = ChannelLink::pair();
    let mut a = HaBenchNode::new(kind, 200, 1, Box::new(la));
    let mut b = HaBenchNode::new(kind, 100, 2, Box::new(lb));
    let mut out = Vec::new();

    // Election: step until the higher-priority node owns the dataplane.
    let mut t = 0u64;
    for _ in 0..400 {
        a.step(t, &mut out);
        b.step(t, &mut out);
        t += STEP_NS;
        if a.lvrm.ha_accepting() {
            break;
        }
    }
    assert!(a.lvrm.ha_accepting(), "ha_failover bench: no master elected");

    // Warm replication: traffic on the master, deltas streaming to the
    // standby; track the worst unacked stream position.
    let mut max_lag = 0u64;
    for step in 0..warm_steps {
        for i in 0..8u32 {
            a.lvrm.ingress(frame_for_flow(step as u32 * 8 + i), &mut a.host);
        }
        a.step(t, &mut out);
        b.step(t, &mut out);
        max_lag = max_lag.max(a.lvrm.ha().expect("attached").delta_lag());
        t += STEP_NS;
    }

    // The kill: master vanishes; measure simulated time to promotion.
    drop(a);
    let t_kill = t;
    while t < t_kill + 2_000_000_000 && !b.lvrm.ha_accepting() {
        t += STEP_NS;
        b.step(t, &mut out);
    }
    assert!(b.lvrm.ha_accepting(), "ha_failover bench: standby never promoted");
    ((t - t_kill) as f64 / 1e6, max_lag as f64)
}

// ------------------------------------------------------------ shard takeover

const FLEET_SHARDS: u32 = 3;
const FLEET_VRS: u32 = 6;

/// One fleet member of the shard-takeover bench: a solo monitor declaring
/// the full six-VR universe, serving its rendezvous share.
struct ShardBenchNode {
    clock: ManualClock,
    lvrm: Lvrm<ManualClock>,
    host: RecordingHost,
}

impl ShardBenchNode {
    fn new(kind: QueueKind, shard_id: u32, links: Vec<(u32, Box<dyn PeerLink>)>) -> ShardBenchNode {
        let config = LvrmConfig {
            queue_kind: kind,
            allocator: AllocatorKind::Fixed { cores: 1 },
            supervision: true,
            flow_based: true,
            shard: Some(ShardConfig {
                shard_id,
                shards: FLEET_SHARDS,
                advert_interval_ns: 100_000_000,
                snapshot_interval_ns: 200_000_000,
            }),
            ..Default::default()
        };
        let clock = ManualClock::new();
        let mut lvrm = new_lvrm(clock.clone(), config);
        let mut host = RecordingHost::with_heartbeats();
        for i in 0..FLEET_VRS {
            let name = fleet_vr_name(i);
            let net = [(Ipv4Addr::new(10, 0, 1 + i as u8, 0), 24)];
            lvrm.add_vr(name.clone(), &net, routed_vr(&name), &mut host);
        }
        assert!(lvrm.attach_fleet(links), "config carries shard");
        ShardBenchNode { clock, lvrm, host }
    }

    fn step(&mut self, t: u64, out: &mut Vec<Frame>) {
        self.clock.set_ns(t);
        self.host.pump();
        self.lvrm.process_control();
        self.lvrm.maybe_reallocate(t, &mut self.host);
        self.lvrm.poll_egress(out);
        out.clear();
    }

    fn owns(&self, vr: u32) -> bool {
        self.lvrm.vr_owned_by_name(&fleet_vr_name(vr))
    }
}

fn fleet_vr_name(i: u32) -> String {
    format!("dept{}", i + 1)
}

/// Every survivor's ledger settled (identities A–E, nothing queued or
/// unreturned), and the fleet identity (F) across them.
fn fleet_conservation_ok(nodes: &[&ShardBenchNode]) -> bool {
    let ledgers: Vec<Ledger> = nodes.iter().map(|n| n.lvrm.ledger()).collect();
    ledgers.iter().all(|l| l.check_settled().is_ok()) && Ledger::check_fleet(&ledgers).is_ok()
}

/// Deterministic simulated shard takeover on the manual clock (DESIGN.md
/// §15): warm a three-shard fleet under traffic for a second, kill shard 0
/// mid-epoch, and return `(rehome_ms, conservation_ok)` — the simulated
/// time until every orphaned VR is owned by its rendezvous successor, and
/// the conservation flag after a settling interval. Both are pure
/// functions of the gossip timers, so the gate sees no machine noise.
fn shard_takeover(kind: QueueKind) -> (f64, bool) {
    const STEP_NS: u64 = 10_000_000; // 10 ms host-loop cadence
    let (l01, l10) = ChannelLink::pair();
    let (l02, l20) = ChannelLink::pair();
    let (l12, l21) = ChannelLink::pair();
    let links: [Vec<(u32, Box<dyn PeerLink>)>; 3] = [
        vec![(1, Box::new(l01) as Box<dyn PeerLink>), (2, Box::new(l02))],
        vec![(0, Box::new(l10) as Box<dyn PeerLink>), (2, Box::new(l12))],
        vec![(0, Box::new(l20) as Box<dyn PeerLink>), (1, Box::new(l21))],
    ];
    let mut shards: Vec<Option<ShardBenchNode>> = links
        .into_iter()
        .enumerate()
        .map(|(id, l)| Some(ShardBenchNode::new(kind, id as u32, l)))
        .collect();
    let mut out = Vec::new();

    // Warm: adverts and snapshots flowing, traffic on every VR at its
    // current owner.
    let mut t = 0u64;
    while t < 1_000_000_000 {
        for vr in 0..FLEET_VRS {
            let frame = FrameBuilder::new(
                Ipv4Addr::new(10, 0, 1 + vr as u8, 20),
                Ipv4Addr::new(10, 0, 100, 1),
            )
            .udp(4000, 80, &[]);
            if let Some(owner) = shards.iter_mut().flatten().find(|s| s.owns(vr)) {
                owner.lvrm.ingress(frame, &mut owner.host);
            }
        }
        for s in shards.iter_mut().flatten() {
            s.step(t, &mut out);
        }
        t += STEP_NS;
    }

    // The kill: shard 0 vanishes, no goodbye; poll until its VRs land on
    // their rendezvous successors.
    let victim_vrs: Vec<u32> =
        (0..FLEET_VRS).filter(|&vr| shards[0].as_ref().unwrap().owns(vr)).collect();
    assert!(!victim_vrs.is_empty(), "shard_takeover bench: rendezvous left shard 0 empty");
    shards[0] = None;
    let survivors = [1u32, 2];
    let t_kill = t;
    loop {
        assert!(t < t_kill + 2_000_000_000, "shard_takeover bench: VRs never re-homed");
        for s in shards.iter_mut().flatten() {
            s.step(t, &mut out);
        }
        let done = victim_vrs.iter().all(|&vr| {
            let successor = rendezvous_owner(&fleet_vr_name(vr), &survivors).unwrap();
            shards[successor as usize].as_ref().unwrap().owns(vr)
        });
        if done {
            break;
        }
        t += STEP_NS;
    }
    let rehome_ms = (t - t_kill) as f64 / 1e6;

    // Let the claim/ack exchange settle before auditing the books.
    let t_end = t + 500_000_000;
    while t < t_end {
        for s in shards.iter_mut().flatten() {
            s.step(t, &mut out);
        }
        t += STEP_NS;
    }
    let live: Vec<&ShardBenchNode> = shards.iter().flatten().collect();
    (rehome_ms, fleet_conservation_ok(&live))
}

// ------------------------------------------------------------ repl threads

/// The elephant flow on real VRI threads: wall-clock kfps under pinned vs
/// replicated dispatch through `lvrm_runtime::ThreadHost`. Returns
/// `(pinned_kfps, replicated_kfps, conservation_ok)`. Machine-dependent —
/// these rows never enter the regression gate.
fn repl_scaling_threads(kind: QueueKind, frames: u64) -> (f64, f64, bool) {
    use lvrm_runtime::ThreadHost;

    const VRIS: usize = 4;
    let mut conservation_ok = true;
    let mut run = |mode: DispatchMode| -> f64 {
        let clock = MonotonicClock::new();
        let config = LvrmConfig {
            queue_kind: kind,
            allocator: AllocatorKind::Fixed { cores: VRIS },
            flow_based: true,
            data_queue_capacity: 1024,
            ..Default::default()
        };
        let cores =
            CoreMap::new(CoreTopology::single_package(8), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = ThreadHost::new(clock.clone());
        if mode == DispatchMode::Replicated {
            host = host.with_replication();
        }
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        // Compute-bound service (10 us/frame) so one VRI is the bottleneck
        // under pinned dispatch.
        let router = Box::new(lvrm_router::FastVr::new("vr0", routes).with_dummy_load_ns(10_000));
        let vr = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], router, &mut host);
        lvrm.set_vr_dispatch(vr, mode);
        for _ in 1..VRIS {
            lvrm.maybe_reallocate(clock.now_ns() + 2_000_000_000, &mut host);
        }

        // One elephant: every frame the same 5-tuple.
        let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 20), Ipv4Addr::new(10, 0, 2, 1))
            .udp(4000, 80, &[0u8; 46]);
        let mut egress = Vec::with_capacity(1024);
        let mut sent = 0u64;
        let mut out = 0u64;
        let t0 = clock.now_ns();
        let deadline = t0 + 30_000_000_000;
        while clock.now_ns() < deadline {
            if sent < frames {
                for _ in 0..32.min(frames - sent) {
                    lvrm.ingress(frame.clone(), &mut host);
                    sent += 1;
                }
            }
            egress.clear();
            lvrm.poll_egress(&mut egress);
            out += egress.len() as u64;
            if sent == frames && out + lvrm.stats().loss() >= frames {
                break;
            }
            std::thread::yield_now();
        }
        let elapsed_ns = clock.now_ns() - t0;
        conservation_ok &= lvrm.ledger().check_settled().is_ok();
        host.shutdown();
        out as f64 / (elapsed_ns as f64 / 1e9) / 1e3
    };
    let pinned = run(DispatchMode::Pinned);
    let replicated = run(DispatchMode::Replicated);
    (pinned, replicated, conservation_ok)
}

// ------------------------------------------------------------ scenarios

/// The fixed declarative-scenario bench set (deterministic simulated
/// testbed, per queue kind). Absolute flow counts scale with the profile;
/// the gated rows (`tracked_pct`, `goodput_pct`, `conservation_ok`) are
/// scale-invariant so a smoke report diffs cleanly against a committed
/// full one.
fn scenario_rows(smoke: bool, rows: &mut Vec<Row>) {
    use lvrm_testbed::scenarios::{flash_crowd, million_flows, syn_flood};

    let flows: u32 = if smoke { 20_000 } else { 1_000_000 };
    for kind in QueueKind::ALL {
        let mut spec = million_flows(flows, 0x0131);
        spec.queue_kind = kind;
        let report = spec.run();
        let tracked = report.tracked_flows();
        let tracked_pct = 100.0 * tracked as f64 / flows as f64;
        let goodput_pct = 100.0 * report.tenants[0].goodput();
        let ok = report.conserved();
        println!(
            "scenario       {:>11} million_flows: {tracked} tracked ({tracked_pct:5.1}%), \
             goodput {goodput_pct:5.1}%, conservation {}",
            kind.name(),
            if ok { "ok" } else { "VIOLATED" },
        );
        let q = kind.as_str();
        rows.push(Row::new(
            "scenario_million_flows",
            q,
            1,
            "tracked_flows",
            tracked as f64,
            "flows",
        ));
        rows.push(Row::new("scenario_million_flows", q, 1, "tracked_pct", tracked_pct, "pct"));
        rows.push(Row::new("scenario_million_flows", q, 1, "goodput_pct", goodput_pct, "pct"));
        rows.push(Row::new(
            "scenario_million_flows",
            q,
            1,
            "conservation_ok",
            if ok { 1.0 } else { 0.0 },
            "bool",
        ));

        // The adversarial pair runs the same spec in both profiles: the
        // protected tenant's goodput is the figure of merit.
        for (bench, spec) in [
            ("scenario_flash_crowd", flash_crowd(0xF1A5)),
            ("scenario_syn_flood", syn_flood(0x5EED)),
        ] {
            let mut spec = spec;
            spec.queue_kind = kind;
            let report = spec.run();
            let goodput_pct = 100.0 * report.tenants[0].goodput();
            let ok = report.conserved();
            println!(
                "scenario       {:>11} {}: protected goodput {goodput_pct:5.1}%, \
                 shed {} frames, conservation {}",
                kind.name(),
                &bench["scenario_".len()..],
                report.shed_early(),
                if ok { "ok" } else { "VIOLATED" },
            );
            rows.push(Row::new(bench, q, 1, "goodput_pct", goodput_pct, "pct"));
            rows.push(Row::new(bench, q, 1, "conservation_ok", if ok { 1.0 } else { 0.0 }, "bool"));
        }
    }
}

// ------------------------------------------------------------ repl scaling

/// Elephant-flow scaling under state-compute replication, per queue kind:
/// pinned at 2 VRIs is the baseline; replicated at 2 and 4 VRIs must beat
/// it by the PR's acceptance ratios. Simulated time only, so smoke and
/// full profiles emit identical rows.
fn repl_scaling_rows(rows: &mut Vec<Row>) {
    use lvrm_testbed::scenarios::elephant_flow;

    const SEED: u64 = 42;
    for kind in QueueKind::ALL {
        let mut ok = true;
        let mut run = |cores: usize, replicated: bool| {
            let mut spec = elephant_flow(cores, replicated, SEED);
            spec.queue_kind = kind;
            let report = spec.run();
            ok &= report.conserved();
            report.tcp_mbps()
        };
        let base = run(2, false);
        let x2 = run(2, true) / base;
        let x4 = run(4, true) / base;
        println!(
            "repl_scaling   {:>11}: pinned {base:6.1} Mbps, replicated {x2:4.2}x @2 VRIs, \
             {x4:4.2}x @4 VRIs, conservation {}",
            kind.name(),
            if ok { "ok" } else { "VIOLATED" },
        );
        let q = kind.as_str();
        rows.push(Row::new("repl_scaling", q, 2, "speedup_vs_pinned", x2, "x"));
        rows.push(Row::new("repl_scaling", q, 4, "speedup_vs_pinned", x4, "x"));
        rows.push(Row::new(
            "repl_scaling",
            q,
            2,
            "conservation_ok",
            if ok { 1.0 } else { 0.0 },
            "bool",
        ));
    }
}

// ------------------------------------------------------------ main

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_10.json".to_string());
    for a in &args {
        if a != "--smoke" && a != "--out" && !out_path.eq(a) {
            eprintln!("usage: bench-report [--smoke] [--out <path>]");
            std::process::exit(2);
        }
    }

    let (ops_total, relay_total, cycles, overload_steps) = if smoke {
        (200_000u64, 20_000usize, 5u64, 60u64)
    } else {
        (2_000_000, 200_000, 40, 1_000)
    };

    let mut rows: Vec<Row> = Vec::new();
    for kind in QueueKind::ALL {
        for &batch in BATCHES {
            let mops = queue_ops(kind, batch, ops_total);
            println!("queue_ops      {:>11} batch {batch:>3}: {mops:8.2} Mops/s", kind.name());
            rows.push(Row::new("queue_ops", kind.as_str(), batch, "throughput", mops, "mops"));
        }
    }
    for kind in QueueKind::ALL {
        for &batch in BATCHES {
            let kfps = relay(kind, batch, relay_total);
            println!("relay          {:>11} batch {batch:>3}: {kfps:8.0} kfps", kind.name());
            rows.push(Row::new("relay", kind.as_str(), batch, "throughput", kfps, "kfps"));
        }
    }
    let mut uniform = std::collections::HashMap::new();
    let mut skew = std::collections::HashMap::new();
    for kind in QueueKind::ALL {
        for &batch in BATCHES {
            let u = dispatch_goodput(kind, batch, cycles, false);
            let s = dispatch_goodput(kind, batch, cycles, true);
            println!(
                "dispatch       {:>11} batch {batch:>3}: uniform {u:8.1} kfps   skew {s:8.1} kfps",
                kind.name()
            );
            uniform.insert((kind, batch), u);
            skew.insert((kind, batch), s);
            rows.push(Row::new("dispatch_uniform", kind.as_str(), batch, "goodput", u, "kfps"));
            rows.push(Row::new("dispatch_skew", kind.as_str(), batch, "goodput", s, "kfps"));
        }
    }
    for kind in QueueKind::ALL {
        let pct = overload_goodput_pct(kind, overload_steps);
        println!("overload       {:>11} batch  32: {pct:8.1} % goodput", kind.name());
        rows.push(Row::new("overload", kind.as_str(), 32, "goodput_pct", pct, "pct"));
    }

    // Derived acceptance rows: the fabric against the Lamport baseline.
    for &batch in BATCHES {
        let speedup = skew[&(QueueKind::VLink, batch)] / skew[&(QueueKind::Lamport, batch)];
        let delta = 100.0
            * (uniform[&(QueueKind::VLink, batch)] / uniform[&(QueueKind::Lamport, batch)] - 1.0);
        println!(
            "targets        vlink vs lamport batch {batch:>3}: skew speedup {speedup:5.2}x, \
             uniform delta {delta:+5.2} %"
        );
        rows.push(Row::new("dispatch_skew", "vlink", batch, "speedup_vs_lamport", speedup, "x"));
        rows.push(Row::new(
            "dispatch_uniform",
            "vlink",
            batch,
            "delta_vs_lamport_pct",
            delta,
            "pct",
        ));
    }

    // Fixed warm length in both profiles: the promotion latency depends on
    // the advert phase at the kill instant, so smoke and full must kill at
    // the same simulated time to produce identical (gateable) rows.
    for kind in QueueKind::ALL {
        let (ms, lag) = ha_failover(kind, 200);
        println!(
            "ha_failover    {:>11}: promoted in {ms:6.1} ms (sim), max delta lag {lag:.0}",
            kind.name()
        );
        rows.push(Row::new("ha_failover", kind.as_str(), 1, "failover_time", ms, "ms"));
        rows.push(Row::new("ha_failover", kind.as_str(), 1, "delta_lag", lag, "deltas"));
    }

    for kind in QueueKind::ALL {
        let (ms, ok) = shard_takeover(kind);
        println!(
            "shard_takeover {:>11}: re-homed in {ms:6.1} ms (sim), conservation {}",
            kind.name(),
            if ok { "ok" } else { "VIOLATED" },
        );
        rows.push(Row::new("shard_takeover", kind.as_str(), 1, "failover_time", ms, "ms"));
        rows.push(Row::new(
            "shard_takeover",
            kind.as_str(),
            1,
            "conservation_ok",
            if ok { 1.0 } else { 0.0 },
            "bool",
        ));
    }

    scenario_rows(smoke, &mut rows);
    repl_scaling_rows(&mut rows);

    // Real threads measure this machine's wall clock: full profile only,
    // never gated.
    if !smoke {
        for kind in QueueKind::ALL {
            let (pinned, replicated, ok) = repl_scaling_threads(kind, 20_000);
            println!(
                "repl_threads   {:>11}: pinned {pinned:6.1} kfps, replicated {replicated:6.1} kfps \
                 ({:.2}x), conservation {}",
                kind.name(),
                replicated / pinned,
                if ok { "ok" } else { "VIOLATED" },
            );
            let q = kind.as_str();
            rows.push(Row::new("repl_scaling_threads", q, 1, "throughput", pinned, "kfps"));
            rows.push(Row::new("repl_scaling_threads", q, 4, "throughput", replicated, "kfps"));
            rows.push(Row::new(
                "repl_scaling_threads",
                q,
                4,
                "speedup_vs_pinned",
                replicated / pinned,
                "x",
            ));
            rows.push(Row::new(
                "repl_scaling_threads",
                q,
                4,
                "conservation_ok",
                if ok { 1.0 } else { 0.0 },
                "bool",
            ));
        }
    }

    // The report validates against its own schema before it is written:
    // a NaN, a negative throughput, or a typo'd metric/unit never reaches
    // disk (CI re-checks the written file independently).
    let errs = validate_rows(&rows);
    if !errs.is_empty() {
        eprintln!("bench-report: generated rows violate the schema:");
        for e in &errs {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }

    std::fs::write(&out_path, rows_to_json(&rows)).expect("write report");
    println!("wrote {} rows to {out_path}", rows.len());
}
