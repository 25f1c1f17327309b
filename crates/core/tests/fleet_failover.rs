//! Sharded monitor fleet acceptance suite (DESIGN.md §15): three shards
//! partition six VRs by rendezvous hash over an in-process link mesh.
//! Killing any one shard must re-home all of its VRs to their rendezvous
//! successors in under a second of simulated time, with all five
//! conservation identities plus the sixth fleet identity
//! (`vrs_owned_total == vrs_declared`) exact after convergence. A shard
//! that loses directory quorum must keep serving what it owns but never
//! take over. A shard that is itself an HA pair fails over invisibly to
//! the directory, and its peers fold the promoted standby's stream only
//! from a snapshot of that standby. Link weather is the whole-monitor
//! property's (`tests/whole_monitor.rs`).
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset (as CI runs it) runs both.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lvrm_core::{
    rendezvous_owner, AffinityMode, AllocatorKind, ChannelLink, ClusterConfig, ClusterMsg, CoreId,
    CoreMap, CoreTopology, Ledger, Lvrm, LvrmConfig, ManualClock, PeerLink, RecordingHost, Role,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{Frame, FrameBuilder};

mod common;
use common::{assert_settled, drain, queue_kinds, routed_vr};

const STEP_NS: u64 = 10_000_000; // 10 ms host loop
const ADVERT_NS: u64 = 100_000_000; // 100 ms fleet adverts
const STREAM_NS: u64 = 200_000_000; // 200 ms state stream
const VRS: u32 = 6;
const SHARDS: u32 = 3;

fn vr_name(i: u32) -> String {
    format!("dept{}", i + 1)
}

fn vr_subnet(i: u32) -> [(Ipv4Addr, u8); 1] {
    [(Ipv4Addr::new(10, 0, 1 + i as u8, 0), 24)]
}

fn vr_frame(i: u32, salt: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1 + i as u8, 20 + salt), Ipv4Addr::new(10, 0, 100, 1))
        .udp(4000 + salt as u16, 80, &[])
}

fn fleet_config(kind: QueueKind, shard_id: u32) -> LvrmConfig {
    LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 1 },
        supervision: true,
        flow_based: true,
        cluster: Some(ClusterConfig {
            shard_id,
            shards: SHARDS,
            advert_interval_ns: ADVERT_NS,
            stream_interval_ns: STREAM_NS,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// One fleet member: a monitor declaring the full VR universe, serving
/// only its shard-map share (one node of a pair, or a shard on its own).
struct Shard {
    id: u32,
    clock: ManualClock,
    lvrm: Lvrm<ManualClock>,
    host: RecordingHost,
}

impl Shard {
    fn new(kind: QueueKind, id: u32, links: Vec<(u32, Box<dyn PeerLink>)>) -> Shard {
        Shard::with_config(fleet_config(kind, id), id, links)
    }

    fn with_config(config: LvrmConfig, id: u32, links: Vec<(u32, Box<dyn PeerLink>)>) -> Shard {
        let clock = ManualClock::new();
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = RecordingHost::with_heartbeats();
        for i in 0..VRS {
            lvrm.add_vr(vr_name(i), &vr_subnet(i), routed_vr(&vr_name(i)), &mut host);
        }
        assert!(lvrm.attach_cluster(links), "config carries a cluster, attach must succeed");
        Shard { id, clock, lvrm, host }
    }

    fn step(&mut self, t: u64, out: &mut Vec<Frame>) {
        self.clock.set_ns(t);
        self.host.pump();
        self.lvrm.process_control();
        self.lvrm.maybe_reallocate(t, &mut self.host);
        self.lvrm.poll_egress(out);
    }

    fn owns(&self, vr: u32) -> bool {
        self.lvrm.vr_owned_by_name(&vr_name(vr))
    }

    fn epoch(&self) -> u32 {
        self.lvrm.cluster().expect("cluster attached").epoch()
    }
}

fn ledgers(shards: &[&Shard]) -> Vec<Ledger> {
    shards.iter().map(|s| s.lvrm.ledger()).collect()
}

/// Identity (F) over the surviving members: every declared VR owned by
/// exactly one shard.
fn assert_fleet_identity(shards: &[&Shard], ctx: &str) {
    assert_eq!(Ledger::check_fleet(&ledgers(shards)), Ok(()), "{ctx}");
    let total: usize = shards.iter().map(|s| s.lvrm.owned_vrs()).sum();
    assert_eq!(total as u32, VRS, "{ctx}: vrs_owned_total != vrs_declared");
}

/// Build the 3-shard full mesh over [`ChannelLink`]s: returns per-shard
/// link vectors `(peer shard id, link)`.
fn mesh3() -> [Vec<(u32, Box<dyn PeerLink>)>; 3] {
    let (l01, l10) = ChannelLink::pair();
    let (l02, l20) = ChannelLink::pair();
    let (l12, l21) = ChannelLink::pair();
    [
        vec![(1, Box::new(l01) as Box<dyn PeerLink>), (2, Box::new(l02))],
        vec![(0, Box::new(l10) as Box<dyn PeerLink>), (2, Box::new(l12))],
        vec![(0, Box::new(l20) as Box<dyn PeerLink>), (1, Box::new(l21))],
    ]
}

/// Step every live shard once, feeding each VR's traffic to its current
/// owner (the fleet's steady-state contract: the front-end routes by the
/// gossiped map) — within an HA pair, to the member that accepts.
fn step_fleet(shards: &mut [Option<Shard>], t: u64, traffic: bool, out: &mut Vec<Frame>) {
    if traffic {
        for vr in 0..VRS {
            for salt in 0..2u8 {
                let frame = vr_frame(vr, salt);
                let owner =
                    shards.iter_mut().flatten().find(|s| s.owns(vr) && s.lvrm.ha_accepting());
                if let Some(owner) = owner {
                    owner.lvrm.ingress(frame, &mut owner.host);
                }
            }
        }
    }
    for s in shards.iter_mut().flatten() {
        s.step(t, out);
    }
}

/// The headline acceptance: kill each of the three shards in turn; every
/// VR of the corpse must land on its rendezvous successor in < 1 s of
/// simulated time (on this rig's timers exactly 610 or 620 ms),
/// warm-adopted (books carried over), with all six identities exact on
/// every survivor after convergence.
#[test]
fn killing_any_shard_rehomes_its_vrs_to_the_rendezvous_successor_subsecond() {
    for kind in queue_kinds() {
        for victim in 0..SHARDS {
            let ctx = format!("{kind:?} victim {victim}");
            let links = mesh3();
            let mut shards: Vec<Option<Shard>> = links
                .into_iter()
                .enumerate()
                .map(|(id, l)| Some(Shard::new(kind, id as u32, l)))
                .collect();
            let mut out = Vec::new();

            // Warm the fleet: everyone adverting, snapshots streamed, and
            // traffic on every VR at its owner.
            let mut t = 0;
            while t < 1_000_000_000 {
                step_fleet(&mut shards, t, true, &mut out);
                t += STEP_NS;
            }
            {
                let live: Vec<&Shard> = shards.iter().flatten().collect();
                assert_fleet_identity(&live, &format!("{ctx} pre-kill"));
                for s in &live {
                    assert_eq!(s.epoch(), 1, "{ctx}: no membership change pre-kill");
                }
            }
            // Victim's per-VR books at the instant of death, keyed by name.
            let victim_books: Vec<(String, u64)> = {
                let v = shards[victim as usize].as_ref().unwrap();
                v.lvrm
                    .snapshot()
                    .iter()
                    .filter(|vr| v.lvrm.vr_owned_by_name(&vr.name))
                    .map(|vr| (vr.name.clone(), vr.frames_in))
                    .collect()
            };
            assert!(
                victim_books.iter().all(|(_, f)| *f > 0),
                "{ctx}: warmup must put traffic on every victim VR"
            );
            let victim_vrs: Vec<u32> =
                (0..VRS).filter(|&vr| shards[victim as usize].as_ref().unwrap().owns(vr)).collect();
            assert!(!victim_vrs.is_empty(), "{ctx}: rendezvous left the victim empty");

            // The kill: the shard vanishes mid-epoch, no goodbye.
            shards[victim as usize] = None;
            let t_kill = t;
            let survivors: Vec<u32> = (0..SHARDS).filter(|&s| s != victim).collect();

            // Successors must own the corpse's VRs within the budget.
            let mut rehomed_at = None;
            while t < t_kill + 2_000_000_000 {
                step_fleet(&mut shards, t, false, &mut out);
                let all_rehomed = victim_vrs.iter().all(|&vr| {
                    let successor = rendezvous_owner(&vr_name(vr), &survivors).unwrap();
                    shards[successor as usize].as_ref().unwrap().owns(vr)
                });
                if all_rehomed && rehomed_at.is_none() {
                    rehomed_at = Some(t);
                    break;
                }
                t += STEP_NS;
            }
            let t_rehomed = rehomed_at.unwrap_or_else(|| panic!("{ctx}: VRs never re-homed"));
            // The victim's last advert left 100 ms before the kill, and a
            // survivor buries it 6 adverts + a seeded 75–125 ms of jitter
            // after hearing that: 575–625 ms after the kill, on the slower
            // successor's timer and the 10 ms step.
            let expect_ms = [610, 610, 620][victim as usize];
            assert_eq!((t_rehomed - t_kill) / 1_000_000, expect_ms, "{ctx}: re-homing time moved");

            // Let the claim/ack exchange and the second survivor's map
            // adoption settle, then audit everything.
            let t_end = t + 500_000_000;
            while t < t_end {
                step_fleet(&mut shards, t, true, &mut out);
                t += STEP_NS;
            }
            for s in shards.iter_mut().flatten() {
                drain(&mut s.lvrm, &mut s.host, &mut out);
            }
            let live: Vec<&Shard> = shards.iter().flatten().collect();
            assert_fleet_identity(&live, &format!("{ctx} post-takeover"));
            for s in &live {
                assert!(s.epoch() > 1, "{ctx}: takeover must bump the directory epoch");
                assert_settled(&s.lvrm, &format!("{ctx} shard {}", s.id));
                assert!(
                    s.lvrm.cluster().unwrap().has_quorum(),
                    "{ctx}: majority survivors keep quorum"
                );
            }

            // Warm adoption: the successor's books carry the victim's
            // frame history for every adopted VR (the state stream was
            // fresh — nothing was cold-started away).
            for (name, victim_in) in &victim_books {
                let successor = rendezvous_owner(name, &survivors).unwrap();
                let s = shards[successor as usize].as_ref().unwrap();
                let adopted_in = s
                    .lvrm
                    .snapshot()
                    .iter()
                    .find(|vr| &vr.name == name)
                    .map(|vr| vr.frames_in)
                    .unwrap_or(0);
                assert!(
                    adopted_in >= *victim_in,
                    "{ctx}: {name} adopted cold — successor books {adopted_in} < victim {victim_in}"
                );
            }

            // Takeover metrics surfaced on at least one successor.
            let takeovers: u64 = live
                .iter()
                .map(|s| {
                    s.lvrm.refresh_registry();
                    s.lvrm
                        .metrics_snapshot()
                        .counter("lvrm_shard_takeovers_total", &[])
                        .unwrap_or(0)
                })
                .sum();
            assert!(takeovers >= 1, "{ctx}: takeover counter must record the adoption");
            for s in &live {
                let snap = s.lvrm.metrics_snapshot();
                assert_eq!(
                    snap.gauge("lvrm_shard_owned", &[]),
                    Some(s.lvrm.owned_vrs() as f64),
                    "{ctx}: owned gauge tracks ownership"
                );
                assert!(
                    snap.gauge("lvrm_shard_directory_epoch", &[]).unwrap_or(0.0) > 1.0,
                    "{ctx}: epoch gauge must advance"
                );
            }
        }
    }
}

/// Cold adoption: kill a shard before its first stream interval elapses
/// — no shadow anywhere — and the successors must still adopt its VRs
/// (empty books, identities exact), because availability does not depend
/// on the state stream.
#[test]
fn takeover_without_a_shadow_cold_adopts() {
    let kind = queue_kinds()[0];
    let ctx = format!("cold {kind:?}");
    let links = mesh3();
    let mut shards: Vec<Option<Shard>> =
        links.into_iter().enumerate().map(|(id, l)| Some(Shard::new(kind, id as u32, l))).collect();
    let mut out = Vec::new();

    // A few adverts so everyone is heard from, but kill before the first
    // snapshot ships (STREAM_NS has not elapsed).
    let mut t = 0;
    while t < STREAM_NS - 2 * STEP_NS {
        step_fleet(&mut shards, t, false, &mut out);
        t += STEP_NS;
    }
    let victim = 0u32;
    let victim_vrs: Vec<u32> =
        (0..VRS).filter(|&vr| shards[0].as_ref().unwrap().owns(vr)).collect();
    shards[0] = None;
    let survivors = [1u32, 2];

    let t_kill = t;
    while t < t_kill + 2_000_000_000 {
        step_fleet(&mut shards, t, false, &mut out);
        let done = victim_vrs.iter().all(|&vr| {
            let successor = rendezvous_owner(&vr_name(vr), &survivors).unwrap();
            shards[successor as usize].as_ref().unwrap().owns(vr)
        });
        if done {
            break;
        }
        t += STEP_NS;
    }
    let live: Vec<&Shard> = shards.iter().flatten().collect();
    assert_fleet_identity(&live, &ctx);
    for s in &live {
        assert_settled(&s.lvrm, &format!("{ctx} shard {}", s.id));
    }
    let _ = victim;
}

/// Quorum loss (CAP stance): with 2 of 3 shards dead, the lone survivor
/// keeps serving the VRs it already owns but must not absorb the second
/// corpse's VRs, and reports the lost quorum.
#[test]
fn minority_survivor_serves_owned_vrs_but_never_absorbs_the_fleet() {
    let kind = queue_kinds()[0];
    let ctx = format!("quorum {kind:?}");
    let links = mesh3();
    let mut shards: Vec<Option<Shard>> =
        links.into_iter().enumerate().map(|(id, l)| Some(Shard::new(kind, id as u32, l))).collect();
    let mut out = Vec::new();

    let mut t = 0;
    while t < 1_000_000_000 {
        step_fleet(&mut shards, t, true, &mut out);
        t += STEP_NS;
    }
    let survivor = 0usize;
    let owned_before = shards[survivor].as_ref().unwrap().lvrm.owned_vrs();
    // Both peers die at once: the survivor may adopt at most the first
    // corpse it detects (quorum still holds with the second presumed
    // alive), and must refuse the second.
    shards[1] = None;
    shards[2] = None;
    let t_kill = t;
    while t < t_kill + 3_000_000_000 {
        step_fleet(&mut shards, t, true, &mut out);
        t += STEP_NS;
    }
    let s = shards[survivor].as_mut().unwrap();
    drain(&mut s.lvrm, &mut s.host, &mut out);
    assert!(
        !s.lvrm.cluster().unwrap().has_quorum(),
        "{ctx}: minority survivor must report quorum loss"
    );
    assert!(
        s.lvrm.owned_vrs() < VRS as usize,
        "{ctx}: minority survivor absorbed the whole fleet ({} VRs)",
        s.lvrm.owned_vrs()
    );
    assert!(
        s.lvrm.owned_vrs() >= owned_before,
        "{ctx}: quorum loss must not drop the survivor's own VRs"
    );
    // Owned VRs still serve traffic.
    let owned_vr = (0..VRS).find(|&vr| s.owns(vr)).expect("owns something");
    let before = s.lvrm.stats().frames_out;
    for salt in 0..4u8 {
        s.lvrm.ingress(vr_frame(owned_vr, salt), &mut s.host);
    }
    drain(&mut s.lvrm, &mut s.host, &mut out);
    assert!(
        s.lvrm.stats().frames_out > before,
        "{ctx}: owned VRs must keep serving without quorum"
    );
    assert_settled(&s.lvrm, &ctx);
}

/// The fleet with shard 0 as an HA pair: `[master0, backup0, shard1,
/// shard2]`, master0 being node 1 at priority 200 and backup0 node 2 at
/// priority 100. Each pair member links to its partner (tagged with its own
/// shard 0) and to both other shards; shards 1 and 2 hear shard 0 over one
/// link to each member, and `tap` wraps shard 1's two.
fn fleet_with_pair0(
    kind: QueueKind,
    tap: impl Fn(ChannelLink) -> Box<dyn PeerLink>,
) -> Vec<Option<Shard>> {
    let (m1, l1m) = ChannelLink::pair(); // master0 <-> shard1
    let (m2, l2m) = ChannelLink::pair(); // master0 <-> shard2
    let (b1, l1b) = ChannelLink::pair(); // backup0 <-> shard1
    let (b2, l2b) = ChannelLink::pair(); // backup0 <-> shard2
    let (l12, l21) = ChannelLink::pair(); // shard1 <-> shard2
    let (ha_m, ha_b) = ChannelLink::pair(); // intra-shard HA link
    let member = |priority, node_id| {
        let mut cfg = fleet_config(kind, 0);
        cfg.cluster = cfg.cluster.map(|c| ClusterConfig { priority, node_id, ..c });
        cfg
    };
    let boxed = |l: ChannelLink| Box::new(l) as Box<dyn PeerLink>;
    vec![
        Some(Shard::with_config(
            member(200, 1),
            0,
            vec![(0, boxed(ha_m)), (1, boxed(m1)), (2, boxed(m2))],
        )),
        Some(Shard::with_config(
            member(100, 2),
            0,
            vec![(0, boxed(ha_b)), (1, boxed(b1)), (2, boxed(b2))],
        )),
        Some(Shard::new(kind, 1, vec![(0, tap(l1m)), (0, tap(l1b)), (2, boxed(l12))])),
        Some(Shard::new(kind, 2, vec![(0, boxed(l2m)), (0, boxed(l2b)), (1, boxed(l21))])),
    ]
}

/// The live node at `i`.
fn node(nodes: &[Option<Shard>], i: usize) -> &Shard {
    nodes[i].as_ref().expect("node is alive")
}

/// Intra-shard HA failover must stay invisible to the fleet: shard 0 is an
/// HA pair whose master dies; the standby promotes well inside the
/// shard-down interval (6 × advert is twice the HA budget by design), so
/// the directory sees an unbroken shard — no takeover, no epoch bump, no
/// ownership movement.
#[test]
fn ha_pair_failover_inside_a_shard_does_not_trigger_fleet_takeover() {
    let kind = queue_kinds()[0];
    let ctx = format!("ha-pair {kind:?}");
    let mut nodes = fleet_with_pair0(kind, |l| Box::new(l));
    let mut out = Vec::new();

    // Settle: HA election inside shard 0, adverts everywhere.
    let mut t = 0;
    while t < 1_500_000_000 {
        step_fleet(&mut nodes, t, false, &mut out);
        t += STEP_NS;
    }
    assert_eq!(node(&nodes, 0).lvrm.ha_role(), Some(Role::Master), "{ctx}: election settles");
    assert_eq!(node(&nodes, 1).lvrm.ha_role(), Some(Role::Backup), "{ctx}");
    let shard0_owned: Vec<u32> = (0..VRS).filter(|&vr| node(&nodes, 0).owns(vr)).collect();
    assert_eq!(node(&nodes, 2).epoch(), 1, "{ctx}");

    // Kill the master. The standby promotes in ~3 adverts + skew + one
    // probation advert (≈ 460 ms) — inside the ≥ 675 ms jittered fleet
    // deadline — and starts speaking for shard 0.
    nodes[0] = None;
    let t_kill = t;
    while t < t_kill + 2_000_000_000 {
        step_fleet(&mut nodes, t, false, &mut out);
        t += STEP_NS;
    }
    let backup0 = node(&nodes, 1);
    assert_eq!(backup0.lvrm.ha_role(), Some(Role::Master), "{ctx}: standby promotes");
    for s in [node(&nodes, 2), node(&nodes, 3)] {
        assert_eq!(s.epoch(), 1, "{ctx}: an intra-shard failover must not bump the fleet epoch");
    }
    for &vr in &shard0_owned {
        assert!(backup0.owns(vr), "{ctx}: promoted standby owns the shard's VRs");
        assert!(
            !node(&nodes, 2).owns(vr) && !node(&nodes, 3).owns(vr),
            "{ctx}: no peer stole {}",
            vr_name(vr)
        );
    }
}

/// Drops the first `Snapshot` that node `node_id` sends over the wrapped
/// links (shared, so one drop across all of them).
struct DropFirstSnapshot {
    inner: ChannelLink,
    node_id: u64,
    dropped: Arc<AtomicBool>,
}

impl PeerLink for DropFirstSnapshot {
    fn send(&mut self, now_ns: u64, bytes: &[u8]) {
        self.inner.send(now_ns, bytes);
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>) {
        let mut got = Vec::new();
        self.inner.recv(now_ns, &mut got);
        for msg in got {
            let from_node = matches!(
                ClusterMsg::decode(&msg),
                Ok(ClusterMsg::Snapshot { node_id, .. }) if node_id == self.node_id
            );
            // Only the first snapshot from the node is lost: `swap` reports
            // whether one already was.
            if !from_node || self.dropped.swap(true, Ordering::Relaxed) {
                out.push(msg);
            }
        }
    }
}

/// The stream identity rule: a delta folds only onto a shadow that a
/// snapshot from the same `(node_id, term)` baselined. Shard 0 is an HA
/// pair whose master dies right after its first snapshot, leaving shard 1's
/// shadow of shard 0 at stream position 1. The promoted standby streams a
/// snapshot at position 1, which shard 1 loses, then a delta at position 2:
/// by position alone that delta continues the old master's shadow. Shard 1
/// must ask for a snapshot instead, converge on the new master's books, and
/// when the new master dies too, shard 0's VRs must warm-adopt on their
/// rendezvous successors with every identity exact.
#[test]
fn peers_fold_a_promoted_standby_only_from_its_own_snapshot() {
    let kind = queue_kinds()[0];
    let ctx = format!("stream-identity {kind:?}");
    let dropped = Arc::new(AtomicBool::new(false));
    let mut nodes = fleet_with_pair0(kind, |inner| {
        Box::new(DropFirstSnapshot { inner, node_id: 2, dropped: dropped.clone() })
    });
    let mut out = Vec::new();
    let shadow_of_0 = |nodes: &[Option<Shard>]| {
        nodes[2].as_ref().unwrap().lvrm.cluster().unwrap().shadow(0).cloned()
    };

    // Elect master0, serve traffic, and kill it the step shard 1 folds its
    // first snapshot.
    let mut t = 0;
    while shadow_of_0(&nodes).is_none() {
        assert!(t < 2_000_000_000, "{ctx}: master0 never streamed");
        step_fleet(&mut nodes, t, true, &mut out);
        t += STEP_NS;
    }
    let old = shadow_of_0(&nodes).unwrap();
    assert_eq!((old.node_id, old.term, old.seq), (1, 1, 1), "{ctx}: master0's first snapshot");
    nodes[0] = None;

    // The standby promotes (term 2) and streams; shard 1 loses its first
    // snapshot. Until a snapshot of node 2 lands, shard 1's shadow of shard
    // 0 is exactly master0's, unfolded.
    let resynced = loop {
        assert!(t < 6_000_000_000, "{ctx}: shard 1 never re-baselined on the new master");
        step_fleet(&mut nodes, t, true, &mut out);
        t += STEP_NS;
        let now = shadow_of_0(&nodes).unwrap();
        if (now.node_id, now.term) == (1, 1) {
            assert_eq!(now.seq, 1, "{ctx}: a new-master delta folded onto master0's shadow");
            assert_eq!(now.ck, old.ck, "{ctx}: master0's shadow changed");
        } else {
            assert_eq!((now.node_id, now.term), (2, 2), "{ctx}: shadow from an unknown sender");
            break now;
        }
    };
    assert!(dropped.load(Ordering::Relaxed), "{ctx}: the new master's first snapshot was lost");
    assert!(resynced.seq > 2, "{ctx}: re-baselined from a later snapshot, got {}", resynced.seq);
    for s in [&nodes[2], &nodes[3]] {
        assert_eq!(s.as_ref().unwrap().epoch(), 1, "{ctx}: no fleet takeover on a pair failover");
    }

    // Quiesce, let the stream catch up, and compare shard 1's shadow with
    // the new master's books.
    let t_quiet = t + 500_000_000;
    while t < t_quiet {
        step_fleet(&mut nodes, t, true, &mut out);
        t += STEP_NS;
    }
    for s in nodes.iter_mut().flatten() {
        drain(&mut s.lvrm, &mut s.host, &mut out);
    }
    let t_settled = t + 2 * STREAM_NS;
    while t < t_settled {
        step_fleet(&mut nodes, t, false, &mut out);
        t += STEP_NS;
    }
    let new_master = nodes[1].as_ref().unwrap();
    assert!(new_master.lvrm.ha_accepting(), "{ctx}: the standby took over");
    let mut books = new_master.lvrm.build_checkpoint(t).canonical();
    let mut shadow = shadow_of_0(&nodes).unwrap().ck.canonical();
    // The shadow's build stamp is the last stream tick, not "now".
    books.ts_ns = 0;
    shadow.ts_ns = 0;
    assert_eq!(shadow, books, "{ctx}: shard 1's shadow must converge on the new master");

    // Kill the new master: shard 0's VRs warm-adopt on their successors.
    let victim_vrs: Vec<u32> = (0..VRS).filter(|&vr| new_master.owns(vr)).collect();
    let victim_books: Vec<(String, u64)> = new_master
        .lvrm
        .snapshot()
        .iter()
        .filter(|vr| new_master.lvrm.vr_owned_by_name(&vr.name))
        .map(|vr| (vr.name.clone(), vr.frames_in))
        .collect();
    assert!(!victim_vrs.is_empty(), "{ctx}: rendezvous left shard 0 empty");
    assert!(victim_books.iter().all(|(_, f)| *f > 0), "{ctx}: traffic on every shard-0 VR");
    nodes[1] = None;
    let survivors = [1u32, 2];
    let t_kill = t;
    while !victim_vrs.iter().all(|&vr| {
        let successor = rendezvous_owner(&vr_name(vr), &survivors).unwrap();
        nodes[successor as usize + 1].as_ref().unwrap().owns(vr)
    }) {
        assert!(t < t_kill + 2_000_000_000, "{ctx}: shard 0's VRs never re-homed");
        step_fleet(&mut nodes, t, false, &mut out);
        t += STEP_NS;
    }
    let t_end = t + 500_000_000;
    while t < t_end {
        step_fleet(&mut nodes, t, false, &mut out);
        t += STEP_NS;
    }
    for s in nodes.iter_mut().flatten() {
        drain(&mut s.lvrm, &mut s.host, &mut out);
    }
    let live: Vec<&Shard> = nodes.iter().flatten().collect();
    assert_fleet_identity(&live, &format!("{ctx} post-takeover"));
    for s in &live {
        assert_settled(&s.lvrm, &format!("{ctx} shard {}", s.id));
    }
    for (name, victim_in) in &victim_books {
        let successor = rendezvous_owner(name, &survivors).unwrap();
        let s = nodes[successor as usize + 1].as_ref().unwrap();
        let adopted_in =
            s.lvrm.snapshot().iter().find(|vr| &vr.name == name).map_or(0, |vr| vr.frames_in);
        assert!(
            adopted_in >= *victim_in,
            "{ctx}: {name} adopted cold — successor books {adopted_in} < victim {victim_in}"
        );
    }
}
