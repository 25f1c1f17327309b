//! Staged burst ingress must dispatch exactly as a frame-at-a-time monitor
//! would: `ingress_batch` parses every frame of a burst up front and carries
//! the keys beside the frames to the balancer, so a bucket that is shortened
//! (overload shedding), skipped (a VR another shard owns) or handed over
//! whole (the VLink ring) must never leave a frame beside its neighbour's
//! key — in that burst or the next.
//!
//! The reference is a model of the dispatch as it was before ingress was
//! staged: each frame parsed on its own at the moment it is balanced.
//! Flow-based round-robin makes its answer a pure function of arrival order.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use lvrm_core::config::{BalancerKind, DispatchMode};
use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    RecordingHost, VrId, VriId,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{FlowKey, Frame, FrameBuilder};
use lvrm_router::VirtualRouter;
use proptest::prelude::*;

mod common;
use common::{new_lvrm, routed_vr};

const BURST: usize = 32;
const VRIS: usize = 2;
const NAMES: [&str; 3] = ["a", "b", "c"];

fn three_vrs(config: LvrmConfig) -> (Lvrm<ManualClock>, RecordingHost) {
    let mut lvrm = new_lvrm(ManualClock::new(), config);
    let mut host = RecordingHost::default();
    for (i, name) in NAMES.iter().enumerate() {
        let subnet = [(Ipv4Addr::new(10, 0, i as u8 + 1, 0), 24)];
        let id = lvrm.add_vr(*name, &subnet, routed_vr(name), &mut host);
        assert_eq!(lvrm.vri_count(id), VRIS, "fixed allocation spawns every VRI up front");
    }
    (lvrm, host)
}

/// What a generated frame is, so the model can tell where it belongs.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// A UDP frame of VR `vr`'s flow `flow` (flows recur across bursts).
    Flow { vr: usize, flow: u16 },
    /// From VR `vr`'s subnet but cut inside the UDP header: classified, no
    /// 5-tuple, balanced without affinity.
    Keyless { vr: usize },
    /// Matches no VR.
    Stranger,
    /// Cut inside the IPv4 header: no source to classify by.
    Runt,
}

/// Frames are told apart afterwards by `ts_ns`, which the queues carry.
fn build(kind: Kind, seq: u64) -> Frame {
    let mut f = match kind {
        Kind::Flow { vr, flow } => {
            let src = Ipv4Addr::new(10, 0, vr as u8 + 1, (flow % 200) as u8 + 1);
            FrameBuilder::new(src, Ipv4Addr::new(10, 9, 9, 9)).udp(1000 + flow, 53, &[0; 8])
        }
        Kind::Keyless { vr } => {
            let src = Ipv4Addr::new(10, 0, vr as u8 + 1, 77);
            let whole = FrameBuilder::new(src, Ipv4Addr::new(10, 9, 9, 9)).udp(1, 2, &[0; 8]);
            Frame::new(&whole.bytes()[..38])
        }
        Kind::Stranger => FrameBuilder::new(
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
        )
        .udp(1, 2, &[]),
        Kind::Runt => {
            let whole = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 9, 9, 9))
                .udp(1, 2, &[]);
            Frame::new(&whole.bytes()[..24])
        }
    };
    f.ts_ns = seq;
    f
}

/// One VR of the frame-at-a-time reference: flow-based round-robin.
#[derive(Default)]
struct ModelVr {
    cursor: usize,
    pinned: HashMap<FlowKey, usize>,
    /// Expected `ts_ns` sequence in each VRI's incoming queue.
    queues: [Vec<u64>; VRIS],
    dispatched: [u64; VRIS],
    frames_in: u64,
    admitted: u64,
}

impl ModelVr {
    fn next_slot(&mut self) -> usize {
        self.cursor = (self.cursor + 1) % VRIS;
        self.cursor
    }

    fn dispatch(&mut self, frame: &Frame) {
        let slot = match FlowKey::from_frame(frame) {
            Some(key) => match self.pinned.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = self.next_slot();
                    self.pinned.insert(key, slot);
                    slot
                }
            },
            None => self.next_slot(),
        };
        self.queues[slot].push(frame.ts_ns);
        self.dispatched[slot] += 1;
    }
}

/// VR index → its VRI ids in slot order (spawn order).
fn vri_ids(host: &RecordingHost) -> Vec<Vec<VriId>> {
    let mut ids = vec![Vec::new(); NAMES.len()];
    for spec in &host.spawned {
        ids[spec.vr.0 as usize].push(spec.vri);
    }
    ids
}

/// Empty one VRI's incoming queue, returning the `ts_ns` of what was in it.
fn drain_vri(host: &mut RecordingHost, vri: VriId, max: usize) -> Vec<u64> {
    let endpoint =
        host.vris.iter_mut().find(|svc| svc.id() == vri).expect("live VRI").endpoint_mut();
    let mut got = Vec::new();
    endpoint.steal_batch(&mut got, max);
    got.iter().map(|f| f.ts_ns).collect()
}

/// A deterministic burst plan: `b_frames` of VR b's flows first-come, the
/// rest spread over a, c, keyless and stranger frames, interleaved so no
/// frame's position in the burst equals its position in its bucket.
fn plan(burst: usize, b_frames: usize) -> Vec<Kind> {
    let mut kinds = Vec::with_capacity(BURST);
    let mut b_left = b_frames;
    for i in 0..BURST {
        let other = match i % 8 {
            1 => Some(Kind::Flow { vr: 0, flow: ((burst * 3 + i) % 11) as u16 }),
            3 => Some(Kind::Stranger),
            5 => Some(Kind::Flow { vr: 2, flow: ((burst + i) % 5) as u16 }),
            6 if i % 16 == 6 => Some(Kind::Keyless { vr: 0 }),
            _ => None,
        };
        kinds.push(match other {
            Some(k) if BURST - i > b_left => k,
            _ if b_left > 0 => {
                b_left -= 1;
                // New flows and returning ones, out of step with the burst.
                Kind::Flow { vr: 1, flow: ((burst * 17 + i * 5) % 40) as u16 }
            }
            Some(k) => k,
            None => Kind::Flow { vr: 0, flow: ((burst * 7 + i) % 11) as u16 },
        });
    }
    kinds
}

#[test]
fn shortened_and_skipped_buckets_keep_frames_beside_their_own_keys() {
    let (mut lvrm, mut host) = three_vrs(LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: VRIS },
        balancer: BalancerKind::RoundRobin,
        flow_based: true,
        batch_size: BURST,
        data_queue_capacity: 64,
        overload_shedding: true,
        ..LvrmConfig::default()
    });
    let ids = vri_ids(&host);
    let mut model: Vec<ModelVr> = (0..NAMES.len()).map(|_| ModelVr::default()).collect();
    let mut strangers = 0u64;
    let mut seq = 0u64;
    let mut shed_bursts = 0;
    let mut skipped_bursts = 0;

    for burst in 0..10 {
        // Bursts 6 and 7 find VR c owned by another shard; burst 8 has it back.
        let c_owned = !(6..8).contains(&burst);
        lvrm.set_vr_owned_by_name("c", c_owned);
        // VR b is left unserviced at first: 24 frames a burst fill its two
        // queues past the high watermark after four bursts; from then on it
        // is serviced too slowly to leave the overloaded state, and sheds.
        let kinds = plan(burst, 24);
        let mut frames: Vec<Frame> = kinds
            .iter()
            .map(|&k| {
                seq += 1;
                build(k, seq)
            })
            .collect();
        let offered = frames.clone();
        let before: Vec<(u64, u64)> =
            (0..NAMES.len()).map(|v| lvrm.vr_admission_counts(VrId(v as u32))).collect();
        lvrm.ingress_batch(&mut frames, &mut host);
        assert!(frames.is_empty());

        // The model takes the monitor's word for *how many* frames each VR
        // admitted (the shedding arithmetic is not under test) and checks
        // *which* they were and where each one went.
        for (v, m) in model.iter_mut().enumerate() {
            let (admitted, shed) = lvrm.vr_admission_counts(VrId(v as u32));
            let bucket: Vec<&Frame> = offered
                .iter()
                .zip(&kinds)
                .filter(
                    |(_, k)| matches!(k, Kind::Flow { vr, .. } | Kind::Keyless { vr } if *vr == v),
                )
                .map(|(f, _)| f)
                .collect();
            let newly = (admitted - before[v].0) as usize;
            assert_eq!(newly as u64 + (shed - before[v].1), bucket.len() as u64, "vr {v} books");
            if v == 2 && !c_owned {
                assert_eq!(newly, 0, "an unowned VR admits nothing");
                skipped_bursts += usize::from(!bucket.is_empty());
            }
            if v == 1 && newly < bucket.len() {
                shed_bursts += 1;
            }
            m.frames_in += bucket.len() as u64;
            m.admitted += newly as u64;
            // Shedding keeps the head of the bucket.
            for f in &bucket[..newly] {
                m.dispatch(f);
            }
        }
        strangers += kinds.iter().filter(|k| **k == Kind::Stranger).count() as u64;

        // VRs a and c are serviced; b keeps some room but stays overloaded.
        for v in [0, 2] {
            for (slot, &vri) in ids[v].iter().enumerate() {
                let got = drain_vri(&mut host, vri, usize::MAX);
                let want: Vec<u64> = model[v].queues[slot].drain(..).collect();
                assert_eq!(got, want, "burst {burst}: vr {v} slot {slot}");
            }
        }
        if burst >= 4 {
            for (slot, &vri) in ids[1].iter().enumerate() {
                let got = drain_vri(&mut host, vri, 8);
                let want: Vec<u64> = model[1].queues[slot].drain(..got.len()).collect();
                assert_eq!(got, want, "burst {burst}: vr 1 slot {slot}");
            }
        }
    }
    assert!(shed_bursts >= 3, "the shed path ran and was followed by more bursts: {shed_bursts}");
    assert_eq!(skipped_bursts, 2, "the unowned path ran and was followed by more bursts");

    // Whatever still waits in b's queues is what the model says, in order.
    for (slot, &vri) in ids[1].iter().enumerate() {
        assert_eq!(drain_vri(&mut host, vri, usize::MAX), model[1].queues[slot], "b slot {slot}");
    }
    let stats = lvrm.stats();
    assert_eq!(stats.unclassified, strangers);
    assert_eq!(stats.dispatch_drops + stats.no_vri_drops, 0, "every admitted frame was queued");
    let ck = lvrm.build_checkpoint(0);
    for (v, m) in model.iter().enumerate() {
        let id = VrId(v as u32);
        assert_eq!(lvrm.vr_frame_counts(id).0, m.frames_in, "vr {v} frames_in");
        assert_eq!(lvrm.vr_admission_counts(id).0, m.admitted, "vr {v} admitted");
        assert_eq!(lvrm.vri_dispatch_counts(id), m.dispatched, "vr {v} per-VRI dispatch counts");
        // The flow table itself: every flow is pinned where its first frame
        // went, and no other key is in there.
        let pinned: HashMap<FlowKey, usize> =
            ck.vrs[v].flows.iter().map(|f| (f.key, f.slot as usize)).collect();
        assert_eq!(pinned, m.pinned, "vr {v} flow table");
    }
}

#[test]
fn vlink_ring_handover_keeps_books_and_order() {
    // Frame-based VLink: a VR's bucket goes into its shared ring whole, or
    // as much of it as fits. A 32-slot ring under 24-frame buckets refuses
    // a tail on the second burst.
    let (mut lvrm, mut host) = three_vrs(LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: VRIS },
        queue_kind: QueueKind::VLink,
        shared_ring_capacity: 32,
        batch_size: BURST,
        ..LvrmConfig::default()
    });
    let ids = vri_ids(&host);
    let mut expected: Vec<Vec<u64>> = vec![Vec::new(); NAMES.len()];
    let mut seq = 0u64;
    let mut refused = 0u64;
    for burst in 0..4 {
        let kinds = plan(burst, 24);
        let mut frames: Vec<Frame> = kinds
            .iter()
            .map(|&k| {
                seq += 1;
                build(k, seq)
            })
            .collect();
        for (f, k) in frames.iter().zip(&kinds) {
            if let Kind::Flow { vr, .. } | Kind::Keyless { vr } = k {
                expected[*vr].push(f.ts_ns);
            }
        }
        lvrm.ingress_batch(&mut frames, &mut host);
        // b's ring is emptied every other burst only.
        if expected[1].len() > 32 {
            refused += (expected[1].len() - 32) as u64;
            expected[1].truncate(32);
        }
        for v in 0..NAMES.len() {
            if v == 1 && burst % 2 == 0 {
                continue;
            }
            // Either VRI of the VR can steal the whole ring, in order.
            let got = drain_vri(&mut host, ids[v][burst % VRIS], usize::MAX);
            assert_eq!(got, std::mem::take(&mut expected[v]), "burst {burst}: vr {v} ring");
        }
    }
    assert!(refused > 0, "the full-ring path ran");
    let stats = lvrm.stats();
    assert_eq!(stats.dispatch_drops, refused);
    assert_eq!(stats.frames_in, 4 * BURST as u64);
    for v in 0..NAMES.len() {
        let (frames_in, _) = lvrm.vr_frame_counts(VrId(v as u32));
        let (admitted, shed) = lvrm.vr_admission_counts(VrId(v as u32));
        assert_eq!((frames_in, shed), (admitted, 0), "vr {v}: the ring sheds nothing early");
    }
}

// Whole-burst equivalence over random bursts.

/// Per-VRI data queue capacity in the random-burst property: small, so
/// queues fill within two bursts.
const QUEUE: usize = 8;
/// Shared ring capacity under the VLink fabric.
const RING: usize = 16;
/// a and c balance by flow, b frame by frame (its balancer keeps no flow
/// table), c is unowned in some bursts, d is quarantined before any burst.
const TENANTS: [&str; 4] = ["a", "b", "c", "d"];
const QUARANTINED: usize = 3;
/// Quarantine ticks land on multiples of this, so the burst phase's clock
/// reading is its own export quantum's floor.
const TICK_NS: u64 = 1 << 31;

/// Four VRs of two VRIs each, d crash-looped into quarantine. Under the
/// VLink fabric every VR takes its frames through a shared ring (and
/// balances by frame: the fabric excludes flow tables); otherwise b is
/// switched to replicated dispatch, whose balancer keeps no flow table.
fn quarantined_four(ring: bool, shedding: bool) -> (Lvrm<ManualClock>, RecordingHost, u64) {
    let clock = ManualClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: VRIS },
        balancer: BalancerKind::RoundRobin,
        flow_based: !ring,
        queue_kind: if ring { QueueKind::VLink } else { QueueKind::Lamport },
        shared_ring_capacity: RING,
        data_queue_capacity: QUEUE,
        batch_size: BURST,
        overload_shedding: shedding,
        supervision: true,
        quarantine_after: 2,
        // Only detach-detection: nothing here sends heartbeats.
        dead_after_ns: 1_000_000_000_000,
        suspect_after_ns: 500_000_000_000,
        ..LvrmConfig::default()
    };
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = RecordingHost::default();
    for (i, name) in TENANTS.iter().enumerate() {
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let router: Box<dyn VirtualRouter> = Box::new(lvrm_router::FastVr::new(*name, routes));
        lvrm.add_vr(*name, &[(Ipv4Addr::new(10, 0, i as u8 + 1, 0), 24)], router, &mut host);
    }
    if !ring {
        lvrm.set_vr_dispatch(VrId(1), DispatchMode::Replicated);
    }
    let mut t = 0;
    while !lvrm.vr_quarantined(VrId(QUARANTINED as u32)) {
        assert!(t < 16 * TICK_NS, "d never reached quarantine");
        for vri in live_vris(&lvrm, QUARANTINED) {
            host.crash_vri(vri);
        }
        t += TICK_NS;
        clock.set_ns(t);
        lvrm.maybe_reallocate(t, &mut host);
    }
    assert!(live_vris(&lvrm, QUARANTINED).is_empty());
    (lvrm, host, t)
}

/// VR `vr`'s live VRIs in slot order.
fn live_vris(lvrm: &Lvrm<ManualClock>, vr: usize) -> Vec<VriId> {
    lvrm.snapshot()[vr].vris.iter().filter(|v| !v.draining).map(|v| v.id).collect()
}

/// One VR of the frame-at-a-time reference for random bursts: round-robin
/// over the slots valid at the start of the burst, flow-pinned or not.
struct RefVr {
    flow_based: bool,
    quarantined: bool,
    cursor: usize,
    pinned: HashMap<FlowKey, usize>,
    /// Per slot (one shared ring under the fabric): `ts_ns` of what waits.
    queues: Vec<VecDeque<u64>>,
    dispatched: Vec<u64>,
    discarded: Vec<u64>,
    frames_in: u64,
    admitted: u64,
    shed: u64,
}

impl RefVr {
    fn round_robin(&mut self, valid: &[bool]) -> Option<usize> {
        let n = valid.len();
        let slot = (1..=n).map(|step| (self.cursor + step) % n).find(|&i| valid[i])?;
        self.cursor = slot;
        Some(slot)
    }

    /// `FlowBased::pick_keyed` (or the bare policy) for one frame.
    fn pick(&mut self, frame: &Frame, valid: &[bool]) -> Option<usize> {
        let key = FlowKey::from_frame(frame).filter(|_| self.flow_based);
        if let Some(&slot) = key.as_ref().and_then(|k| self.pinned.get(k)) {
            if valid[slot] {
                return Some(slot);
            }
        }
        let slot = self.round_robin(valid)?;
        if let Some(key) = key {
            self.pinned.insert(key, slot);
        }
        Some(slot)
    }
}

/// Monitor-wide books the reference keeps, on top of the set-up's.
#[derive(Default)]
struct RefBooks {
    frames_in: u64,
    unclassified: u64,
    shed_early: u64,
    dispatch_drops: u64,
    no_vri_drops: u64,
    quarantined_drops: u64,
}

/// The frame-at-a-time dispatch of one VR's admitted frames, as the
/// monitor did it before a bucket was picked in one call: each frame picked
/// on its own against the validity read at the start of the burst, then
/// each queue takes what fits, in order.
fn reference_dispatch(m: &mut RefVr, books: &mut RefBooks, admitted: &[&Frame], ring: bool) {
    if m.quarantined {
        books.quarantined_drops += admitted.len() as u64;
        return;
    }
    let mut runs: Vec<Vec<u64>> = vec![Vec::new(); m.queues.len()];
    if ring {
        runs[0] = admitted.iter().map(|f| f.ts_ns).collect();
    } else {
        let valid: Vec<bool> = m.queues.iter().map(|q| q.len() < QUEUE).collect();
        for f in admitted {
            match m.pick(f, &valid) {
                Some(slot) => runs[slot].push(f.ts_ns),
                // Every VRI here is attached: a frame no queue has room for
                // is a dispatch drop, noted on the first slot.
                None => {
                    books.dispatch_drops += 1;
                    m.discarded[0] += 1;
                }
            }
        }
    }
    let capacity = if ring { RING } else { QUEUE };
    for (slot, run) in runs.into_iter().enumerate() {
        let fits = run.len().min(capacity - m.queues[slot].len());
        m.queues[slot].extend(&run[..fits]);
        let refused = (run.len() - fits) as u64;
        books.dispatch_drops += refused;
        if !ring {
            m.dispatched[slot] += fits as u64;
            m.discarded[slot] += refused;
        }
    }
}

/// A random frame: mostly flows of the four VRs, some cut inside the UDP
/// header (classified, no 5-tuple), some from no VR's subnet, some cut
/// inside the IPv4 header (unparseable, so unclassified too).
fn random_kind() -> impl Strategy<Value = Kind> {
    (0u8..12, 0usize..TENANTS.len(), 0u16..6).prop_map(|(sel, vr, flow)| match sel {
        0 => Kind::Stranger,
        1 => Kind::Runt,
        2 => Kind::Keyless { vr },
        _ => Kind::Flow { vr, flow },
    })
}

/// How many frames a VRI takes after a burst: none half the time, so
/// queues fill up and stay full for a while.
fn share() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0..RING + 1).prop_map(|(idle, n)| if idle { 0 } else { n })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bursts interleaving four VRs through every path a bucket can
    /// take: unowned (c, in some bursts), overloaded and shedding (when on),
    /// no valid VRI (d, quarantined, or both queues full), a queue that is
    /// full or fills mid-burst, the VLink ring. After each burst every `LvrmStats` counter, each VR's books,
    /// each VRI's counts and received sequence match the frame-at-a-time
    /// reference; at the end so do the flow tables.
    #[test]
    fn random_bursts_dispatch_as_frame_at_a_time(
        ring in any::<bool>(),
        shedding in any::<bool>(),
        bursts in prop::collection::vec(
            (
                prop::collection::vec(random_kind(), 0..BURST + 1),
                any::<bool>(),
                prop::collection::vec(share(), 6..7),
            ),
            1..14,
        ),
    ) {
        let (mut lvrm, mut host, now) = quarantined_four(ring, shedding);
        let ids: Vec<Vec<VriId>> = (0..TENANTS.len()).map(|v| live_vris(&lvrm, v)).collect();
        let mut model: Vec<RefVr> = (0..TENANTS.len())
            .map(|v| RefVr {
                flow_based: !ring && v != 1,
                quarantined: v == QUARANTINED,
                cursor: 0,
                pinned: HashMap::new(),
                queues: vec![VecDeque::new(); if ring { 1 } else { ids[v].len() }],
                dispatched: vec![0; ids[v].len()],
                discarded: vec![0; ids[v].len()],
                frames_in: 0,
                admitted: 0,
                shed: 0,
            })
            .collect();
        let baseline = lvrm.stats();
        let mut books = RefBooks::default();
        let mut seq = 0u64;

        for (burst, (kinds, c_owned, drains)) in bursts.iter().enumerate() {
            lvrm.set_vr_owned_by_name("c", *c_owned);
            let mut frames: Vec<Frame> = kinds
                .iter()
                .map(|&k| {
                    seq += 1;
                    build(k, seq)
                })
                .collect();
            let offered = frames.clone();
            let before: Vec<(u64, u64)> =
                (0..TENANTS.len()).map(|v| lvrm.vr_admission_counts(VrId(v as u32))).collect();
            lvrm.ingress_batch(&mut frames, &mut host);
            prop_assert!(frames.is_empty());

            books.frames_in += offered.len() as u64;
            books.unclassified +=
                kinds.iter().filter(|k| matches!(k, Kind::Stranger | Kind::Runt)).count() as u64;
            for (v, m) in model.iter_mut().enumerate() {
                let bucket: Vec<&Frame> = offered
                    .iter()
                    .zip(kinds)
                    .filter(
                        |(_, k)| matches!(k, Kind::Flow { vr, .. } | Kind::Keyless { vr } if *vr == v),
                    )
                    .map(|(f, _)| f)
                    .collect();
                // How many the monitor admitted is its word (the shedding
                // arithmetic is not under test); which ones, and where they
                // went, is the reference's. Shedding keeps the bucket's head.
                let newly = (lvrm.vr_admission_counts(VrId(v as u32)).0 - before[v].0) as usize;
                if v == 2 && !c_owned {
                    prop_assert_eq!(newly, 0, "an unowned VR admits nothing");
                }
                prop_assert!(newly <= bucket.len());
                m.frames_in += bucket.len() as u64;
                m.admitted += newly as u64;
                m.shed += (bucket.len() - newly) as u64;
                books.shed_early += (bucket.len() - newly) as u64;
                reference_dispatch(m, &mut books, &bucket[..newly], ring);
            }

            let mut want = baseline.clone();
            want.frames_in += books.frames_in;
            want.unclassified += books.unclassified;
            want.shed_early += books.shed_early;
            want.dispatch_drops += books.dispatch_drops;
            want.no_vri_drops += books.no_vri_drops;
            want.quarantined_drops += books.quarantined_drops;
            prop_assert_eq!(lvrm.stats(), want, "burst {}: stats", burst);
            let snapshot = lvrm.snapshot();
            for (v, m) in model.iter().enumerate() {
                let s = &snapshot[v];
                prop_assert_eq!((s.frames_in, s.admitted, s.shed), (m.frames_in, m.admitted, m.shed));
                let counts: Vec<(u64, u64)> =
                    s.vris.iter().map(|vri| (vri.dispatched, vri.dispatch_drops)).collect();
                let model_counts: Vec<(u64, u64)> = if ring {
                    vec![(0, 0); ids[v].len()]
                } else {
                    m.dispatched.iter().copied().zip(m.discarded.iter().copied()).collect()
                };
                prop_assert_eq!(counts, model_counts, "burst {}: vr {} per-VRI counts", burst, v);
            }

            // The VRIs of a, b and c take up to their drawn share each.
            for v in 0..QUARANTINED {
                for (slot, &vri) in ids[v].iter().enumerate() {
                    let max = drains[v * VRIS + slot];
                    let queue = &mut model[v].queues[if ring { 0 } else { slot }];
                    let want: Vec<u64> = queue.drain(..max.min(queue.len())).collect();
                    let got = drain_vri(&mut host, vri, max);
                    prop_assert_eq!(got, want, "burst {}: vr {} slot {}", burst, v, slot);
                }
            }
        }

        let ck = lvrm.build_checkpoint(now);
        for (v, m) in model.iter_mut().enumerate() {
            // Under the fabric the VR's first VRI steals the whole ring.
            for (queue, &vri) in m.queues.iter_mut().zip(&ids[v]) {
                let rest: Vec<u64> = queue.drain(..).collect();
                prop_assert_eq!(drain_vri(&mut host, vri, usize::MAX), rest, "vr {} rest", v);
            }
            let exported: HashMap<FlowKey, (usize, u64)> = ck.vrs[v]
                .flows
                .iter()
                .map(|f| (f.key, (f.slot as usize, f.last_seen_ns)))
                .collect();
            let pinned: HashMap<FlowKey, (usize, u64)> =
                m.pinned.iter().map(|(k, &slot)| (*k, (slot, now))).collect();
            prop_assert_eq!(exported, pinned, "vr {} flow table", v);
        }
    }
}
