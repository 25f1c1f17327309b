//! One seeded random-operation property over the whole monitor.
//!
//! Each case draws a topology (one node, an HA pair or a 3-shard fleet) and
//! a list of ops, and drives every node only through `Lvrm::run_burst(nic,
//! host)`, one burst every [`BURST_NS`] of simulated time. A node is a
//! `ManualClock`, a `FaultyHost` over a heartbeating `RecordingHost` and a
//! `FaultySocket` over a memory NIC; nodes talk over `FaultyLink`s. The op
//! list becomes each wrapper's fault schedule, so faults fire inside the
//! bursts, as they do in `lvrmd`.
//!
//! The oracle is what the world did (NIC offers, fired faults, weathered
//! links) set against the monitor's books, checked after every burst (see
//! `burst`), after every op (`books`), across the cluster (`run_case`:
//! exactly one accepting owner per VR once the links are quiet, never two
//! inside the envelope of DESIGN.md §13, §15) and after the `shutdown` that
//! ends each case. A failing case is shrunk by deleting ops while it fails
//! the same check; the panic names the seed and the shrunk op list.
//! `LVRM_CHAOS_QUEUE` pins the queue kind; unset, cases alternate.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use lvrm::core::host::RecordingHost;
use lvrm::core::monitor::{SupervisionAction, VrSnapshot};
use lvrm::core::{
    ChannelLink, Checkpoint, ClusterConfig, FaultKind, FaultPlan, FaultyHost, FaultyLink,
    FaultySocket, Ledger, LinkFaultKind, LinkFaultWindow, PeerLink, VriHost,
};
use lvrm::ipc::PressureLevel;
use lvrm::prelude::*;
use lvrm::runtime::RingAdapter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulated time between two bursts of every node.
const BURST_NS: u64 = 10_000_000;
const ADVERT_NS: u64 = 100_000_000;
/// Quiet time after which each VR has exactly one accepting owner: the
/// shard-down deadline (6 adverts and up to 125 ms of jitter) and slack.
const SETTLE_NS: u64 = 1_000_000_000;
const VRS: u8 = 3;
/// The envelope: outages of at most 150 ms, delays of at most 30 ms, 450 ms
/// of clean air before each window and none in the first second. The worst
/// advert silence is then under a priority-200 node's 322-ms master-down.
const ENVELOPE_WINDOW_NS: u64 = 150_000_000;
const ENVELOPE_DELAY_NS: u64 = 30_000_000;
const ENVELOPE_GAP_NS: u64 = 450_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Topology {
    Solo,
    Pair,
    Fleet,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NicFault {
    Crash,
    Stall,
    /// A NIC restart: clears a crash or a stall.
    Reopen,
    Errors(u8),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Weather {
    Partition,
    Loss,
    DelayMs(u8),
}

/// One thing the world does to `node`. Each op takes one burst but
/// `Advance`; a weather window opens when its op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    node: u8,
    kind: Kind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `(vr, n)`: `n` frames of 8 flows from VR `vr`'s subnet (`VRS`: a
    /// subnet no VR claims) arrive at the NIC.
    Offer(u8, u8),
    /// A fault for a VRI, addressed by the host's spawn order.
    Vri(FaultKind),
    Adapter(NicFault),
    /// Let `ms` (whole bursts) pass.
    Advance(u16),
    /// `(vr, vris)`: resize a VR by hand (a shrink drains).
    Reallocate(u8, u8),
    Checkpoint,
    /// Restart from the last checkpoint (cold without one).
    Restart,
    /// `(weather, ms)` on every link of the node.
    Weather(Weather, u16),
    Handoff,
    /// Kill the first accepting node, once the cluster has formed and while
    /// every node is up (a shard that never adverted is never buried).
    KillMaster,
}

impl Kind {
    /// The op's name for the coverage histogram: its variant and, for a
    /// fault, the fault's.
    fn name(self) -> String {
        let text = format!("{self:?}");
        let words = text.split(|c: char| !c.is_alphanumeric());
        let named = words.filter(|w| w.starts_with(|c: char| c.is_ascii_uppercase()));
        named.take(2).collect::<Vec<_>>().join(" ")
    }
}

#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    topology: Topology,
    config: LvrmConfig,
    /// VR 2 runs replicated dispatch.
    replicated: bool,
    ops: Vec<Op>,
}

fn queue_kinds() -> Vec<QueueKind> {
    match std::env::var("LVRM_CHAOS_QUEUE") {
        Ok(want) => vec![want.parse::<QueueKind>().expect("LVRM_CHAOS_QUEUE")],
        Err(_) => QueueKind::ALL.to_vec(),
    }
}

fn draw_case(seed: u64, kind: QueueKind, len: usize) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let topology = [Topology::Solo, Topology::Pair, Topology::Fleet][rng.gen_range(0..3usize)];
    let allocator = match rng.gen_range(0..3u8) {
        0 => AllocatorKind::Fixed { cores: 1 },
        1 => AllocatorKind::Fixed { cores: 2 },
        _ => AllocatorKind::DynamicFixed { per_core_rate: 2_000.0 },
    };
    let config = LvrmConfig {
        queue_kind: kind,
        data_queue_capacity: 16,
        batch_size: 32,
        allocator,
        supervision: true,
        flow_based: rng.gen_range(0..2u8) == 0,
        overload_shedding: rng.gen_range(0..2u8) == 0,
        ..Default::default()
    };
    let replicated = rng.gen_range(0..3u8) == 0;
    let nodes = topology as u8 + 1;
    let mut op = || {
        let node = rng.gen_range(0..nodes);
        let nth_spawn = rng.gen_range(0..6usize);
        let kind = match rng.gen_range(0..100u8) {
            0..=37 => Kind::Offer(rng.gen_range(0..VRS + 1), rng.gen_range(1..65u8)),
            38..=51 => Kind::Vri(match rng.gen_range(0..6u8) {
                0 | 1 => FaultKind::Crash { nth_spawn },
                2 | 3 => FaultKind::Stall { nth_spawn },
                4 => FaultKind::Resume { nth_spawn },
                _ => FaultKind::CtrlLoss { nth_spawn, on: rng.gen_range(0..2u8) == 0 },
            }),
            52..=56 => Kind::Adapter(match rng.gen_range(0..4u8) {
                0 => NicFault::Crash,
                1 => NicFault::Stall,
                2 => NicFault::Reopen,
                _ => NicFault::Errors(rng.gen_range(1..17u8)),
            }),
            57..=68 => Kind::Advance(rng.gen_range(2..150u16) * 10),
            69..=72 => Kind::Reallocate(rng.gen_range(0..VRS), rng.gen_range(1..4u8)),
            73..=77 => Kind::Checkpoint,
            78..=81 => Kind::Restart,
            82..=91 if topology != Topology::Solo => {
                // Half the windows inside the envelope, half far outside it.
                let top = (ENVELOPE_WINDOW_NS / 1_000_000) as u16;
                let ms = [rng.gen_range(20..top + 1), rng.gen_range(400..1_500u16)];
                let weather = match rng.gen_range(0..3u8) {
                    0 => Weather::Partition,
                    1 => Weather::Loss,
                    _ => Weather::DelayMs(rng.gen_range(1..31u8)),
                };
                Kind::Weather(weather, ms[rng.gen_range(0..2usize)])
            }
            92..=95 if topology == Topology::Pair => Kind::Handoff,
            96..=99 if topology != Topology::Solo => Kind::KillMaster,
            _ => Kind::Advance(rng.gen_range(2..20u16) * 10),
        };
        Op { node, kind }
    };
    let ops = (0..len).map(|_| op()).collect();
    Case { seed, topology, config, replicated, ops }
}

/// `starts[i]` is when op `i` runs; `starts[ops.len()]` is when the ops end.
fn schedule(ops: &[Op]) -> Vec<u64> {
    let mut starts = vec![0];
    for op in ops {
        let ns = match op.kind {
            Kind::Advance(ms) => u64::from(ms) * 1_000_000,
            _ => BURST_NS,
        };
        starts.push(starts.last().unwrap() + ns);
    }
    starts
}

/// Every weather window of the case, with the node whose links it covers.
fn windows(ops: &[Op], starts: &[u64]) -> Vec<(u8, LinkFaultWindow)> {
    let window = |op: &Op, &from: &u64| {
        let Kind::Weather(weather, ms) = op.kind else { return None };
        let until = from + u64::from(ms) * 1_000_000;
        Some((
            op.node,
            match weather {
                Weather::Partition => LinkFaultWindow::partition(from, until),
                Weather::Loss => LinkFaultWindow::loss(from, until, 600),
                Weather::DelayMs(d) => {
                    LinkFaultWindow::delay(from, until, u64::from(d) * 1_000_000)
                }
            },
        ))
    };
    ops.iter().zip(starts).filter_map(|(op, t)| window(op, t)).collect()
}

/// Whether every window sits inside the envelope, read off the schedule so
/// it holds for a shrunk op list too.
fn inside_envelope(windows: &[(u8, LinkFaultWindow)]) -> bool {
    let mut clear_from = SETTLE_NS;
    windows.iter().all(|(_, w)| {
        let delay = match w.kind {
            LinkFaultKind::Delay { delay_ns } => delay_ns,
            _ => 0,
        };
        let inside = w.from_ns >= clear_from
            && w.until_ns - w.from_ns <= ENVELOPE_WINDOW_NS
            && delay <= ENVELOPE_DELAY_NS;
        clear_from = w.until_ns + ENVELOPE_GAP_NS;
        inside
    })
}

/// One end of a link, shared so a restarted node attaches to it again.
#[derive(Clone)]
struct SharedLink(Arc<Mutex<FaultyLink<ChannelLink>>>);

impl PeerLink for SharedLink {
    fn send(&mut self, now_ns: u64, bytes: &[u8]) {
        self.0.lock().unwrap().send(now_ns, bytes);
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>) {
        self.0.lock().unwrap().recv(now_ns, out);
    }
}

/// Each node's `(peer shard, link end)`s. A link carries the weather of
/// both its nodes.
fn links(case: &Case, windows: &[(u8, LinkFaultWindow)]) -> Vec<Vec<(u32, SharedLink)>> {
    let pairs: &[(u8, u8)] = match case.topology {
        Topology::Solo => &[],
        Topology::Pair => &[(0, 1)],
        Topology::Fleet => &[(0, 1), (0, 2), (1, 2)],
    };
    let shard = |i: u8| if case.topology == Topology::Fleet { u32::from(i) } else { 0 };
    let mut ends = vec![Vec::new(); case.topology as usize + 1];
    for &(a, b) in pairs {
        let weather: Vec<_> =
            windows.iter().filter(|(n, _)| *n == a || *n == b).map(|&(_, w)| w).collect();
        let (la, lb) = ChannelLink::pair();
        let end = |link, salt: u8| {
            let faulty = FaultyLink::new(link, weather.clone(), case.seed ^ u64::from(salt));
            SharedLink(Arc::new(Mutex::new(faulty)))
        };
        ends[usize::from(a)].push((shard(b), end(la, a * 8 + b)));
        ends[usize::from(b)].push((shard(a), end(lb, b * 8 + a)));
    }
    ends
}

fn vr_name(vr: u8) -> String {
    format!("dept{vr}")
}

fn frame(vr: u8, i: u8) -> Frame {
    let (third, flow) = (if vr < VRS { vr + 1 } else { 9 }, i % 8);
    let (src, dst) = (Ipv4Addr::new(10, 0, third, 20 + flow), Ipv4Addr::new(10, 0, 100, 1));
    FrameBuilder::new(src, dst).udp(4000 + u16::from(flow), 80, &[])
}

/// The monitor of node `node` (`None`: outside any cluster), VRs added.
fn monitor(
    case: &Case,
    node: Option<u8>,
    clock: &ManualClock,
    host: &mut dyn VriHost,
) -> Lvrm<ManualClock> {
    let fleet = case.topology == Topology::Fleet;
    let cluster = node.filter(|_| case.topology != Topology::Solo).map(|i| ClusterConfig {
        shard_id: if fleet { i.into() } else { 0 },
        shards: if fleet { 3 } else { 1 },
        node_id: u64::from(i) + 1,
        priority: if !fleet && i == 0 { 200 } else { 100 },
        advert_interval_ns: ADVERT_NS,
        stream_interval_ns: 2 * ADVERT_NS,
    });
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(LvrmConfig { cluster, ..case.config.clone() }, cores, clock.clone());
    for vr in 0..VRS {
        let routes = lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let router = Box::new(FastVr::new(vr_name(vr), routes));
        lvrm.add_vr(vr_name(vr), &[(Ipv4Addr::new(10, 0, vr + 1, 0), 24)], router, host);
    }
    if case.replicated {
        lvrm.set_vr_dispatch(VrId(2), DispatchMode::Replicated);
    }
    lvrm
}

/// One process of the cluster, and what the test knows of its world.
struct Node {
    i: u8,
    clock: ManualClock,
    lvrm: Option<Lvrm<ManualClock>>,
    host: FaultyHost<RecordingHost>,
    /// The NIC, a ring pair: the monitor polls and sends through `nic`,
    /// the world offers and receives at `wire`.
    nic: FaultySocket<RingAdapter>,
    wire: RingAdapter,
    links: Vec<(u32, SharedLink)>,
    checkpoint: PathBuf,
    checkpointed: bool,
    /// NIC deliveries and sends less the books' `frames_in` and
    /// `frames_out`, wrapping: a restart, a takeover or a promotion imports
    /// books this NIC never saw.
    in_offset: u64,
    out_offset: u64,
    /// No adapter crash or stall since the last reopen.
    nic_up: bool,
    /// `vri_deaths` less the deaths in this process's supervision log.
    deaths_base: u64,
    /// The books were imported: restored, adopted or promoted.
    imported: bool,
}

impl Node {
    fn new(case: &Case, i: u8, starts: &[u64], links: Vec<(u32, SharedLink)>) -> Node {
        let mut plan = FaultPlan::new();
        for (op, &t) in case.ops.iter().zip(starts).filter(|(op, _)| op.node == i) {
            plan = match op.kind {
                Kind::Adapter(NicFault::Crash) => plan.crash_adapter_at(t),
                Kind::Adapter(NicFault::Stall) => plan.stall_adapter_at(t),
                Kind::Adapter(NicFault::Errors(len)) => plan.adapter_error_burst_at(t, len.into()),
                _ => plan,
            };
        }
        let (nic, wire) = RingAdapter::pair(1 << 13);
        let file = format!("lvrm-whole-monitor-{}-{}-{i}.ck", std::process::id(), case.seed);
        let mut node = Node {
            i,
            clock: ManualClock::new(),
            lvrm: None,
            host: FaultyHost::new(RecordingHost::default(), FaultPlan::new()),
            nic: FaultySocket::with_plan(nic, &plan),
            wire,
            links,
            checkpoint: std::env::temp_dir().join(file),
            checkpointed: false,
            in_offset: 0,
            out_offset: 0,
            nic_up: true,
            deaths_base: 0,
            imported: false,
        };
        node.start(case, starts, 0);
        node
    }

    /// Start (or restart) the node's process at `now`: the VRI faults of
    /// later ops are its host's plan, the last checkpoint is restored, and
    /// what waits on the links is what a fresh socket never sees.
    fn start(&mut self, case: &Case, starts: &[u64], now: u64) {
        let mut plan = FaultPlan::new();
        for (op, &t) in case.ops.iter().zip(starts).filter(|(op, _)| op.node == self.i) {
            if let Kind::Vri(fault) = op.kind {
                if t > now || now == 0 {
                    plan = plan.push(t, fault);
                }
            }
        }
        let mut inner = RecordingHost::with_heartbeats();
        inner.replicate = case.replicated;
        self.host = FaultyHost::new(inner, plan);
        self.clock.set_ns(now);
        let mut lvrm = monitor(case, Some(self.i), &self.clock, &mut self.host);
        if self.checkpointed {
            let epoch = lvrm.restore_from(&self.checkpoint, &mut self.host).expect("restore");
            let ck = Checkpoint::load(&self.checkpoint).unwrap();
            assert_eq!(epoch, ck.epoch + 1, "a restart bumps the epoch");
            assert_eq!(lvrm.stats().frames_in, ck.stats.frames_in, "counters resume");
        }
        for (_, link) in &mut self.links {
            link.recv(now, &mut Vec::new());
        }
        let links = self.links.iter().map(|(s, l)| (*s, Box::new(l.clone()) as Box<dyn PeerLink>));
        lvrm.attach_cluster(links.collect());
        let s = lvrm.stats();
        self.in_offset = self.nic.rx_count().wrapping_sub(s.frames_in);
        self.out_offset = self.nic.tx_count().wrapping_sub(s.frames_out);
        self.deaths_base = s.vri_deaths.wrapping_sub(logged_deaths(&lvrm));
        self.imported = self.checkpointed;
        self.lvrm = Some(lvrm);
    }

    fn owns(&self, vr: u8) -> bool {
        let lvrm = self.lvrm.as_ref();
        lvrm.is_some_and(|l| {
            l.ha_accepting() && !l.is_shutting_down() && l.vr_owned_by_name(&vr_name(vr))
        })
    }
}

/// What the cases exercised, for the coverage record in EXPERIMENTS.md: ops
/// by name, and cases that reached a combination.
type Coverage = BTreeMap<String, u64>;

fn logged_deaths(lvrm: &Lvrm<ManualClock>) -> u64 {
    let log = lvrm.supervision_log.iter();
    log.filter(|e| matches!(e.action, SupervisionAction::Died { .. })).count() as u64
}

/// Which VRs have an attached VRI that is not draining.
fn attached(lvrm: &Lvrm<ManualClock>, host: &FaultyHost<RecordingHost>) -> Vec<bool> {
    let live: Vec<VriId> = host.inner.vris.iter().map(|svc| svc.id()).collect();
    let vrs = lvrm.snapshot();
    vrs.iter().map(|vr| vr.vris.iter().any(|v| !v.draining && live.contains(&v.id))).collect()
}

/// What a takeover or a promotion moves: the term, the directory, the VRs
/// owned.
fn cluster_state(lvrm: &Lvrm<ManualClock>) -> Option<(u64, u32, usize)> {
    lvrm.cluster().map(|c| (c.term(), c.epoch(), lvrm.owned_vrs()))
}

/// One burst of a live node, then: NIC deliveries are `frames_in`; a node
/// that does not accept reads no frame; no VR admits where it is not owned;
/// what the VRIs forwarded leaves in the burst; a drop's label matches its
/// cause; no VRI dies that no fault touched; with the NIC up, what is
/// counted out is sent. A burst that took a VR over or promoted the node
/// imports books: it moves the offsets, and its admissions and drops are
/// not judged.
fn burst(node: &mut Node) {
    let ctx = format!("node {} at {} ms", node.i, node.clock.now_ns() / 1_000_000);
    let (lvrm, host, nic) = (node.lvrm.as_mut().unwrap(), &mut node.host, &mut node.nic);
    let (accepting, polled, rx) = (lvrm.ha_accepting(), nic.inner.rx_count(), nic.rx_count());
    let admitted = |lvrm: &Lvrm<ManualClock>| -> Vec<u64> {
        lvrm.snapshot().iter().map(|vr| vr.admitted).collect()
    };
    let owned: Vec<bool> = (0..VRS).map(|v| lvrm.vr_owned_by_name(&vr_name(v))).collect();
    let admitted_before = admitted(lvrm);
    let (before, attached_before) = (lvrm.stats(), attached(lvrm, host));
    let (cluster_before, logged) = (cluster_state(lvrm), logged_deaths(lvrm));

    let collected = lvrm.run_burst(nic, host) as u64;
    node.wire.poll_batch(&mut Vec::new(), usize::MAX).unwrap();

    let s = lvrm.stats();
    if lvrm.is_shutting_down() && cluster_state(lvrm) == cluster_before {
        let shed = s.shed_early - before.shed_early;
        assert_eq!(shed, s.frames_in - before.frames_in, "{ctx}: what arrives in shutdown is shed");
    }
    if !accepting {
        assert_eq!(
            nic.inner.rx_count(),
            polled,
            "{ctx}: a node that does not accept reads no frame"
        );
    }
    assert!(!lvrm.has_pending_egress(), "{ctx}: what the VRIs forwarded leaves in the burst");
    // Each fault the host fired (a crash, a stall, muted control) kills at
    // most one VRI.
    assert!(logged_deaths(lvrm) <= host.injected, "{ctx}: a VRI died that no fault touched");
    if cluster_state(lvrm) != cluster_before {
        // What the burst moved is the NIC's and the log's; the rest of each
        // jump came with the imported books.
        let jump = |now: u64, was: u64, own: u64| now.wrapping_sub(was).wrapping_sub(own);
        let imported_in = jump(s.frames_in, before.frames_in, nic.rx_count() - rx);
        node.in_offset = node.in_offset.wrapping_sub(imported_in);
        node.out_offset =
            node.out_offset.wrapping_sub(jump(s.frames_out, before.frames_out, collected));
        let died = logged_deaths(lvrm) - logged;
        node.deaths_base =
            node.deaths_base.wrapping_add(jump(s.vri_deaths, before.vri_deaths, died));
        node.imported = true;
        return;
    }
    let admitted_after = admitted(lvrm);
    for v in 0..VRS {
        let moved = admitted_after[usize::from(v)] != admitted_before[usize::from(v)];
        let owner = owned[usize::from(v)] || lvrm.vr_owned_by_name(&vr_name(v));
        assert!(!moved || owner, "{ctx}: dept{v} admitted frames where it is not owned");
    }
    let delivered = nic.rx_count().wrapping_sub(node.in_offset);
    assert_eq!(delivered, s.frames_in, "{ctx}: NIC deliveries are frames_in");
    let attached_after = attached(lvrm, host);
    let mut either = attached_before.iter().chain(&attached_after);
    if s.no_vri_drops > before.no_vri_drops {
        let cause = either.any(|a| !a) || s.vri_deaths > before.vri_deaths;
        assert!(cause, "{ctx}: no_vri_drops while every VR had a VRI attached");
    } else if s.dispatch_drops > before.dispatch_drops {
        assert!(either.any(|a| *a), "{ctx}: dispatch_drops while no VRI was attached");
    }
    if node.nic_up {
        let sent = nic.tx_count().wrapping_sub(node.out_offset);
        assert_eq!(sent, s.frames_out, "{ctx}: with the NIC up, what is counted out is sent");
    }
}

/// The checks after an op, on a live node.
fn books(case: &Case, node: &Node, now: u64, ctx: &str) {
    let lvrm = node.lvrm.as_ref().unwrap();
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check(), Ok(()), "{ctx}: {ledger}");
    // The scrape's ledger is the live one, but for what a scrape cannot
    // carry (`Ledger::from_snapshot`): once a monitor imported books its
    // per-VRI series no longer add up to the imported `retired_*` sums.
    let mut scraped = Ledger::from_snapshot(&lvrm.metrics_snapshot());
    if node.imported {
        let (got, want) = (&mut scraped.vris, &ledger.vris);
        (got.dispatched, got.returned, got.dispatch_drops) =
            (want.dispatched, want.returned, want.dispatch_drops);
    }
    assert_eq!(scraped, ledger, "{ctx}: the scrape's ledger is the live one");

    let ck = lvrm.build_checkpoint(now);
    assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck, "{ctx}: the wire round-trips");
    // Restored into a fresh monitor of the case's own config. A restore
    // bumps the epoch, spawns fresh VRI ids and sizes each VR to its
    // population, at least one VRI: the surplus its allocator started with
    // is retired before any VR grows, so the cores the checkpoint's
    // population used are free. A quarantined VR is neither grown nor
    // shrunk, and the flows pinned to the slots it does not get are dropped.
    let (clock, mut host) = (ManualClock::new(), RecordingHost::default());
    host.replicate = case.replicated;
    let mut fresh = monitor(case, None, &clock, &mut host);
    fresh.apply_checkpoint(&ck, now, &mut host);
    let mut again = fresh.build_checkpoint(now);
    (again.epoch, again.next_vri) = (ck.epoch, ck.next_vri);
    for (vr, was) in again.vrs.iter_mut().zip(&ck.vrs) {
        if was.quarantined {
            vr.flows = was.flows.clone();
        } else {
            let want = was.vri_slots.max(1);
            assert_eq!(vr.vri_slots, want, "{ctx}: {} restored to its population", vr.name);
        }
        vr.vri_slots = was.vri_slots;
    }
    assert_eq!(again.canonical(), ck.canonical(), "{ctx}: a restore checkpoints the same");
}

/// Each VR's accepting owners among the live nodes.
fn owners(nodes: &[Node]) -> Vec<usize> {
    (0..VRS).map(|vr| nodes.iter().filter(|n| n.owns(vr)).count()).collect()
}

fn run_case(case: &Case, cov: &mut Coverage) {
    let starts = schedule(&case.ops);
    let windows = windows(&case.ops, &starts);
    let fleet = case.topology == Topology::Fleet;
    let has = |kind: Kind| case.ops.iter().any(|op| op.kind == kind);
    // Inside the envelope no outage buries a live node, so never two
    // owners. A restarted fleet member rejoins on the first map, so such a
    // fleet is judged once it has settled.
    let calm = case.topology != Topology::Solo
        && inside_envelope(&windows)
        && !(fleet && has(Kind::Restart));
    let steady_epoch = calm && !(fleet && has(Kind::KillMaster));
    // Nor does a pair's rightful master ever lose the dataplane.
    let disturbed_pair = [Kind::KillMaster, Kind::Handoff, Kind::Restart].map(has);
    let settled_pair = calm && !fleet && !disturbed_pair.contains(&true);
    // What the directory must settle after: the election, each window,
    // each kill, restart and hand-off.
    let mut disturbed = vec![(0, 0)];
    disturbed.extend(windows.iter().map(|(_, w)| (w.from_ns, w.until_ns)));
    for (op, &t) in case.ops.iter().zip(&starts) {
        if matches!(op.kind, Kind::KillMaster | Kind::Restart | Kind::Handoff) {
            disturbed.push((t, t));
        }
    }
    let quiet = |t: u64| disturbed.iter().all(|&(from, until)| from > t || until + SETTLE_NS <= t);
    let active = |t: u64| windows.iter().any(|(_, w)| w.from_ns <= t && t < w.until_ns);

    let links = links(case, &windows);
    let mut nodes: Vec<Node> =
        links.into_iter().enumerate().map(|(i, l)| Node::new(case, i as u8, &starts, l)).collect();
    let epoch = |n: &Node| n.lvrm.as_ref().and_then(|l| l.cluster()).map(|c| c.epoch());
    let epochs: Vec<_> = nodes.iter().map(epoch).collect();
    let (mut took_over, mut overloaded, mut weathered) = (false, false, false);

    let mut t = 0;
    let run_until = |nodes: &mut Vec<Node>, t: &mut u64, end: u64, judged: bool| {
        while *t < end {
            for node in nodes.iter_mut() {
                node.clock.set_ns(*t);
                match node.lvrm {
                    Some(_) => burst(node),
                    // A NIC's faults happen whether or not a monitor runs.
                    None => _ = node.nic.apply(*t),
                }
            }
            let live = nodes.iter().filter(|n| n.lvrm.is_some()).count();
            for (vr, owners) in owners(nodes).into_iter().enumerate().filter(|_| judged) {
                let ctx = format!("dept{vr} at {} ms", *t / 1_000_000);
                assert!(!calm || owners <= 1, "{ctx}: {owners} owners inside the envelope");
                if quiet(*t) && live >= if fleet { 2 } else { 1 } {
                    assert_eq!(owners, 1, "{ctx}: owners once the links were quiet");
                }
                let vr = vr as u8;
                let held = nodes[0].owns(vr) || !settled_pair || *t < SETTLE_NS;
                assert!(
                    held,
                    "{ctx}: the priority-200 node lost the dataplane inside the envelope"
                );
            }
            for (node, was) in nodes.iter().zip(&epochs).filter(|_| judged && steady_epoch) {
                let now = epoch(node);
                assert!(now.is_none() || now == *was, "epoch moved inside the envelope");
            }
            *t += BURST_NS;
        }
    };

    // Dispatch drops one op back: a restart right after an op that
    // overflowed a queue is a restart under overload.
    let mut drops = vec![0; nodes.len()];
    for (k, op) in case.ops.iter().enumerate() {
        let (now, i) = (starts[k], usize::from(op.node));
        *cov.entry(op.kind.name()).or_default() += 1;
        let node = &mut nodes[i];
        node.clock.set_ns(now);
        match op.kind {
            Kind::Offer(vr, n) => (0..n).for_each(|i| node.wire.send(frame(vr, i)).unwrap()),
            Kind::Vri(FaultKind::Crash { .. }) => {
                let moving = owners(&nodes).iter().any(|&n| n != 1);
                took_over |= case.topology != Topology::Solo && (!quiet(now) || moving);
            }
            Kind::Vri(_) | Kind::Advance(_) | Kind::Weather(..) => {}
            Kind::Adapter(fault) => {
                weathered |= fault != NicFault::Reopen && active(now);
                if fault == NicFault::Reopen {
                    _ = node.nic.reopen();
                }
                node.nic_up = fault == NicFault::Reopen
                    || (node.nic_up && matches!(fault, NicFault::Errors(_)));
            }
            Kind::Reallocate(vr, vris) => {
                if let Some(lvrm) = node.lvrm.as_mut() {
                    lvrm.resize_vr(VrId(vr.into()), vris.into(), now, &mut node.host);
                }
            }
            Kind::Checkpoint => {
                if let Some(lvrm) = node.lvrm.as_mut() {
                    assert!(lvrm.checkpoint_to(&node.checkpoint, now), "checkpoint written");
                    node.checkpointed = true;
                }
            }
            Kind::Restart => {
                overloaded |= node.lvrm.as_ref().is_some_and(|l| {
                    let pressed = |vr: &VrSnapshot| vr.pressure != PressureLevel::Normal;
                    l.stats().dispatch_drops > drops[i] || l.snapshot().iter().any(pressed)
                });
                node.start(case, &starts, now);
            }
            Kind::Handoff => {
                if let Some(cluster) = node.lvrm.as_mut().and_then(|l| l.cluster_mut()) {
                    cluster.request_handoff(now);
                }
            }
            Kind::KillMaster => {
                if now >= SETTLE_NS && nodes.iter().all(|n| n.lvrm.is_some()) {
                    let master = nodes.iter_mut().find(|n| n.lvrm.as_ref().unwrap().ha_accepting());
                    master.into_iter().for_each(|n| n.lvrm = None);
                }
            }
        }
        for (node, drops) in nodes.iter().zip(drops.iter_mut()) {
            *drops = node.lvrm.as_ref().map_or(0, |l| l.stats().dispatch_drops);
        }
        run_until(&mut nodes, &mut t, starts[k + 1], true);
        for node in nodes.iter().filter(|n| n.lvrm.is_some()) {
            books(case, node, t, &format!("node {} after op {k}", node.i));
        }
    }
    for (reached, name) in [
        (took_over, "cases: a VRI crash during a takeover"),
        (overloaded, "cases: a restart under overload"),
        (weathered, "cases: an adapter fault during weather"),
    ] {
        *cov.entry(name.into()).or_default() += u64::from(reached);
    }

    // The end: heal what the ops broke, let the directory settle, then shut
    // every live node down through the burst until no VRI is left and its
    // NIC reads empty (a node that does not accept never reads its NIC).
    for node in nodes.iter_mut().filter(|n| n.lvrm.is_some()) {
        _ = node.nic.reopen();
        node.nic_up = true;
        node.host.inner.stalled.clear();
        node.host.inner.ctrl_mute.clear();
    }
    let healed = windows.iter().map(|(_, w)| w.until_ns.div_ceil(BURST_NS) * BURST_NS).max();
    let settled = healed.unwrap_or(0).max(t) + SETTLE_NS;
    run_until(&mut nodes, &mut t, settled, true);
    let deadline = t + SETTLE_NS;
    let lost = |n: &Node| n.lvrm.as_ref().map_or(0, |l| l.stats().shrink_lost);
    let shrunk: Vec<u64> = nodes.iter().map(lost).collect();
    let done = |n: &Node| {
        let empty = n.nic.inner.rx_pending() == 0;
        n.lvrm.as_ref().is_none_or(|l| l.shutdown_complete() && (empty || !l.ha_accepting()))
    };
    for _ in 0..300 {
        for node in nodes.iter_mut() {
            if let Some(lvrm) = node.lvrm.as_mut() {
                node.clock.set_ns(t);
                let complete = lvrm.shutdown_complete();
                let still = lvrm.shutdown(deadline, &mut node.host);
                assert!(still || !complete, "node {}: a completed shutdown stays complete", node.i);
            }
        }
        let next = t + BURST_NS;
        run_until(&mut nodes, &mut t, next, false);
        if nodes.iter().all(done) {
            break;
        }
    }
    for (node, shrunk) in nodes.iter().zip(shrunk) {
        std::fs::remove_file(&node.checkpoint).ok();
        let Some(lvrm) = &node.lvrm else { continue };
        let ctx = format!("node {} after shutdown", node.i);
        assert!(lvrm.shutdown_complete(), "{ctx}: shutdown completes");
        let unread = node.nic.inner.rx_pending();
        assert!(unread == 0 || !lvrm.ha_accepting(), "{ctx}: {unread} frames left on the NIC");
        // Nothing is queued, and nothing is unreturned on books this
        // process kept itself: a frame a VRI held when a checkpoint caught
        // it stays `unreturned` in the books that import it.
        let (ledger, s) = (lvrm.ledger(), lvrm.stats());
        assert_eq!(ledger.check(), Ok(()), "{ctx}: {ledger}");
        assert_eq!(ledger.queued(), 0, "{ctx}: {ledger}");
        assert!(node.imported || ledger.unreturned() == 0, "{ctx}: {ledger}");
        assert_eq!(s.shrink_lost, shrunk, "{ctx}: a drained shutdown loses nothing");
        let deaths = s.vri_deaths.wrapping_sub(node.deaths_base);
        assert_eq!(logged_deaths(lvrm), deaths, "{ctx}: every death is logged");
        let snap = lvrm.metrics_snapshot();
        for vr in lvrm.snapshot() {
            assert_eq!(vr.frames_in, vr.admitted + vr.shed, "{ctx}: admission books: {vr}");
            assert!(vr.vris.is_empty(), "{ctx}: no VRI survives shutdown: {vr}");
            let labels = [("vr", vr.name.as_str())];
            assert_eq!(snap.counter("lvrm_vr_frames_in_total", &labels), Some(vr.frames_in));
            assert_eq!(snap.counter("lvrm_vr_frames_out_total", &labels), Some(vr.frames_out));
        }
    }
}

fn run_guarded(case: &Case, cov: &mut Coverage) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(case, cov))).map_err(|e| {
        let text = e.downcast_ref::<&str>().map(|s| s.to_string());
        e.downcast_ref::<String>().cloned().or(text).unwrap_or_default()
    })
}

/// Greedy shrinking: delete each op in turn, and keep the deletion while
/// the case fails the same check (its message, digits aside). Quiet while
/// it searches.
fn shrink(case: &Case, failure: &str) -> Case {
    let check = |msg: &str| msg.chars().filter(|c| !c.is_ascii_digit()).collect::<String>();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut min = case.clone();
    let mut i = 0;
    while i < min.ops.len() {
        let mut smaller = min.clone();
        smaller.ops.remove(i);
        match run_guarded(&smaller, &mut Coverage::default()) {
            Err(msg) if check(&msg) == check(failure) => min = smaller,
            _ => i += 1,
        }
    }
    std::panic::set_hook(hook);
    min
}

fn property(seeds: std::ops::Range<u64>, ops: usize) -> Coverage {
    let kinds = queue_kinds();
    let mut cov = Coverage::default();
    for seed in seeds {
        let case = draw_case(seed, kinds[seed as usize % kinds.len()], ops);
        if let Err(failure) = run_guarded(&case, &mut cov) {
            let min = shrink(&case, &failure);
            let (topology, kind, n) = (case.topology, case.config.queue_kind, case.ops.len());
            panic!(
                "seed {seed} ({topology:?}, {kind:?}): {failure}\nshrunk from {n} ops to {:#?}",
                min.ops
            );
        }
    }
    cov
}

/// The tier-1 budget: 48 cases of 40 ops.
#[test]
fn the_whole_monitor_keeps_its_books_under_any_op_sequence() {
    eprintln!("{:#?}", property(0..48, 40));
}

/// A restore retires what a VR holds above the checkpoint's population
/// before it imports the checkpoint's books (`Lvrm::apply_checkpoint`): a
/// VRI retired afterwards folds its dispatch drops into books that no
/// longer count them, and (D) breaks. It takes a promotion onto a node
/// whose VRIs hold dispatch drops and outnumber the checkpoint's, which the
/// tier-1 budget does not draw, so the soak's case (seed 1130, an HA pair
/// on Lamport queues, shrunk) is pinned here.
#[test]
fn a_restore_retires_the_surplus_before_it_imports_books() {
    use Kind::{Adapter, Advance, Checkpoint, Handoff, Offer, Reallocate, Restart, Vri};
    let ops = [
        (1, Advance(1320)),
        (0, Offer(2, 26)),
        (1, Vri(FaultKind::Crash { nth_spawn: 2 })),
        (0, Vri(FaultKind::Stall { nth_spawn: 2 })),
        (0, Vri(FaultKind::Crash { nth_spawn: 5 })),
        (1, Kind::Weather(Weather::DelayMs(14), 941)),
        (0, Vri(FaultKind::Stall { nth_spawn: 2 })),
        (1, Advance(810)),
        (0, Offer(1, 37)),
        (1, Checkpoint),
        (0, Offer(2, 34)),
        (0, Offer(1, 25)),
        (0, Offer(1, 10)),
        (1, Handoff),
        (1, Vri(FaultKind::Crash { nth_spawn: 5 })),
        (0, Reallocate(0, 2)),
        (1, Vri(FaultKind::Crash { nth_spawn: 4 })),
        (0, Handoff),
        (1, Offer(3, 33)),
        (1, Offer(0, 22)),
        (0, Advance(1100)),
        (1, Offer(0, 21)),
        (0, Advance(230)),
        (0, Adapter(NicFault::Reopen)),
        (1, Offer(2, 31)),
        (0, Checkpoint),
        (1, Restart),
        (1, Advance(80)),
        (1, Offer(2, 19)),
        (1, Kind::Weather(Weather::Partition, 68)),
        (1, Offer(1, 3)),
        (1, Adapter(NicFault::Reopen)),
        (1, Offer(1, 31)),
        (0, Offer(2, 21)),
        (0, Vri(FaultKind::Stall { nth_spawn: 0 })),
        (0, Advance(160)),
        (0, Offer(1, 12)),
        (1, Offer(1, 17)),
    ];
    // The case's topology and config are the seed's draw, made before its ops.
    let mut case = draw_case(1130, QueueKind::Lamport, 0);
    assert_eq!(case.topology, Topology::Pair);
    case.ops = ops.into_iter().map(|(node, kind)| Op { node, kind }).collect();
    run_case(&case, &mut Coverage::default());
}

#[test]
#[ignore = "soak: cargo test --release --test whole_monitor -- --ignored"]
fn whole_monitor_soak() {
    eprintln!("{:#?}", property(1_000..1_400, 80));
}
