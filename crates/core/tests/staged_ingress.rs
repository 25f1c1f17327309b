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

use std::collections::HashMap;
use std::net::Ipv4Addr;

use lvrm_core::config::BalancerKind;
use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    RecordingHost, VrId, VriId,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{FlowKey, Frame, FrameBuilder};
use lvrm_router::VirtualRouter;

const BURST: usize = 32;
const VRIS: usize = 2;
const NAMES: [&str; 3] = ["a", "b", "c"];

fn new_lvrm(config: LvrmConfig) -> (Lvrm<ManualClock>, RecordingHost) {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(config, cores, ManualClock::new());
    let mut host = RecordingHost::default();
    for (i, name) in NAMES.iter().enumerate() {
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let router: Box<dyn VirtualRouter> = Box::new(lvrm_router::FastVr::new(*name, routes));
        let id =
            lvrm.add_vr(*name, &[(Ipv4Addr::new(10, 0, i as u8 + 1, 0), 24)], router, &mut host);
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
    let (mut lvrm, mut host) = new_lvrm(LvrmConfig {
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
    let (mut lvrm, mut host) = new_lvrm(LvrmConfig {
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
