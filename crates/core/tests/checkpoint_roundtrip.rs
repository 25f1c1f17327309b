//! Property tests for the wire family (DESIGN.md §10, §13–§15): `LVCK`
//! checkpoints, `LVCD` deltas, `LVSU` state-update batches and `LVSM`
//! cluster messages share one framing (`checkpoint.rs` `seal`/`open`), so
//! one table-driven set of properties covers all four:
//! anything a format can encode round-trips bit-exactly, and *no* byte
//! stream — corrupted, truncated, another format's, or outright garbage —
//! may ever panic a decoder or be silently accepted. Two differential
//! properties hold the fast paths to the slow ones they replaced, kept here
//! as models: the hinted-join `CheckpointDelta::diff` against the hash-map
//! diff, the sliced `crc32` against the bit-at-a-time definition, and a
//! seal that joins each flow section's kept CRC (`crc32_combine`) against
//! the same checkpoint built from deep copies. The
//! final tests close the loop at the monitor level: a rejected checkpoint must leave the
//! monitor cold-started but fully functional, with the rejection visible in
//! `lvrm_checkpoint_rejected_total` and the event stream.

use std::net::Ipv4Addr;

use lvrm_core::checkpoint::{crc32, crc32_combine, FOLD_BLOCK};
use lvrm_core::{
    decode_batch, encode_batch, Checkpoint, CheckpointDelta, CheckpointError, ClusterMsg,
    FlowRecord, FlowSection, LvrmConfig, LvrmStats, ManualClock, RecordingHost, ReplicaLedger,
    ShardEntry, ShardMap, StateUpdate, VrCheckpoint, VrDelta,
};
use lvrm_net::flow::Protocol;
use lvrm_net::{FlowKey, FrameBuilder};
use proptest::prelude::*;

mod common;
use common::{new_lvrm, routed_vr, subnet, temp_path};

const CASES: u32 = if cfg!(miri) { 8 } else { 128 };

// ---- strategies --------------------------------------------------------

fn arb_stats() -> impl Strategy<Value = LvrmStats> {
    prop::collection::vec(any::<u64>(), 22..23)
        .prop_map(|v| LvrmStats::from_wire(v.try_into().expect("22 counters")))
}

fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()),
        (0u32..16, any::<u64>()),
    )
        .prop_map(|((src, dst, src_port, dst_port, proto), (slot, last_seen_ns))| FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                src_port,
                dst_port,
                // `from_ip_proto` is a bijection (unknown values keep their
                // byte in `Other`), so any u8 round-trips.
                proto: Protocol::from_ip_proto(proto),
            },
            slot,
            last_seen_ns,
        })
}

fn arb_vr() -> impl Strategy<Value = VrCheckpoint> {
    (
        (0u32..10_000, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        // Finite floats only: NaN would round-trip bitwise but break the
        // `PartialEq` the assertions rely on.
        (0.0f64..64.0, 0.0f64..8.0, any::<u32>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), 0u8..2, 0u8..3, 0u32..16),
        prop::collection::vec(arb_flow(), 0..16),
    )
        .prop_map(|((n, fi, fo, ad, sh), (w, sc, cs, lc, bo), (rd, q, p, vs), flows)| {
            VrCheckpoint {
                name: format!("vr{n}"),
                frames_in: fi,
                frames_out: fo,
                admitted: ad,
                shed: sh,
                weight: w,
                shed_credit: sc,
                crash_streak: cs,
                last_crash_ns: lc,
                backoff_until_ns: bo,
                respawn_deficit: rd,
                quarantined: q == 1,
                pressure: p,
                vri_slots: vs,
                flows: FlowSection::from_records(&flows),
            }
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (any::<u32>(), any::<u64>(), arb_stats(), any::<u32>(), prop::collection::vec(arb_vr(), 0..5))
        .prop_map(|(epoch, ts_ns, stats, next_vri, vrs)| Checkpoint {
            epoch,
            ts_ns,
            stats,
            next_vri,
            vrs,
        })
}

/// The wire's canonical flow ordering (mirrors the private
/// `flow_key_bytes` in `checkpoint.rs`).
fn key_bytes(k: &lvrm_net::FlowKey) -> [u8; 13] {
    let mut b = [0u8; 13];
    b[0..4].copy_from_slice(&k.src.octets());
    b[4..8].copy_from_slice(&k.dst.octets());
    b[8..10].copy_from_slice(&k.src_port.to_be_bytes());
    b[10..12].copy_from_slice(&k.dst_port.to_be_bytes());
    b[12] = k.proto.to_ip_proto();
    b
}

/// A checkpoint whose VR names and per-VR flow keys are unique — the
/// shape the monitor actually produces, and the precondition for the
/// delta diff/fold identity (set semantics need set-shaped input).
fn arb_clean_checkpoint() -> impl Strategy<Value = Checkpoint> {
    arb_checkpoint().prop_map(|mut ck| {
        for (i, vr) in ck.vrs.iter_mut().enumerate() {
            vr.name = format!("vr{i}");
            let mut flows = vr.flows.to_vec();
            flows.sort_by_key(|f| key_bytes(&f.key));
            flows.dedup_by_key(|f| key_bytes(&f.key));
            vr.flows = FlowSection::from_records(&flows);
        }
        ck
    })
}

/// Deterministically mutate a checkpoint the way a live monitor would
/// between two stream instants: counters move forward, flows appear,
/// disappear, and re-pin.
fn mutate(ck: &Checkpoint, seed: u64) -> Checkpoint {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut out = ck.clone();
    out.ts_ns = out.ts_ns.wrapping_add(next() % 1_000_000_000);
    out.stats.frames_in = out.stats.frames_in.wrapping_add(next() % 10_000);
    out.stats.frames_out = out.stats.frames_out.wrapping_add(next() % 10_000);
    out.stats.crash_lost = out.stats.crash_lost.wrapping_add(next() % 100);
    out.next_vri = out.next_vri.wrapping_add((next() % 4) as u32);
    for vr in &mut out.vrs {
        vr.frames_in = vr.frames_in.wrapping_add(next() % 5_000);
        vr.admitted = vr.admitted.wrapping_add(next() % 5_000);
        let mut flows = vr.flows.to_vec();
        if !flows.is_empty() && next() % 2 == 0 {
            let victim = (next() as usize) % flows.len();
            flows.remove(victim);
        }
        if !flows.is_empty() && next() % 2 == 0 {
            let repin = (next() as usize) % flows.len();
            flows[repin].slot = (next() % 8) as u32;
            flows[repin].last_seen_ns = next();
        }
        let fresh = FlowRecord {
            key: lvrm_net::FlowKey {
                src: Ipv4Addr::from((next() % u32::MAX as u64) as u32),
                dst: Ipv4Addr::from((next() % u32::MAX as u64) as u32),
                src_port: (next() % 65_536) as u16,
                dst_port: (next() % 65_536) as u16,
                proto: lvrm_net::flow::Protocol::Udp,
            },
            slot: (next() % 8) as u32,
            last_seen_ns: next(),
        };
        if !flows.iter().any(|f| key_bytes(&f.key) == key_bytes(&fresh.key)) {
            flows.push(fresh);
        }
        vr.flows = FlowSection::from_records(&flows);
    }
    out
}

// ---- models of the fast paths --------------------------------------------

/// `CheckpointDelta::diff` as it was before the hinted join: a hash map of
/// `prev`'s records and a hash set of `next`'s keys per VR.
fn model_diff(prev: &Checkpoint, next: &Checkpoint, seq: u64) -> CheckpointDelta {
    use std::collections::{HashMap, HashSet};
    let vrs = next
        .vrs
        .iter()
        .map(|nv| {
            let old: HashMap<[u8; 13], FlowRecord> = prev
                .vrs
                .iter()
                .find(|v| v.name == nv.name)
                .map(|v| v.flows.iter().map(|f| (key_bytes(&f.key), f)).collect())
                .unwrap_or_default();
            let new_keys: HashSet<[u8; 13]> = nv.flows.iter().map(|f| key_bytes(&f.key)).collect();
            let mut evictions: Vec<FlowKey> =
                old.iter().filter(|(k, _)| !new_keys.contains(*k)).map(|(_, f)| f.key).collect();
            evictions.sort_by_key(key_bytes);
            let upserts = nv
                .flows
                .iter()
                .filter(|f| old.get(&key_bytes(&f.key)).is_none_or(|o| o != f))
                .collect();
            let meta = VrCheckpoint { flows: FlowSection::default(), ..nv.clone() };
            VrDelta { meta, evictions, upserts }
        })
        .collect();
    CheckpointDelta {
        epoch: next.epoch,
        seq,
        ts_ns: next.ts_ns,
        stats_delta: next.stats.wrapping_delta(&prev.stats),
        next_vri: next.next_vri,
        vrs,
    }
}

/// CRC-32/IEEE by its definition, a bit at a time.
fn model_crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// Flow lists long enough that the join's index has probe chains to follow.
const LONG_LIST: u64 = if cfg!(miri) { 12 } else { 160 };

/// What a monitor's table can do to a checkpoint between two rounds, and
/// what only a different monitor could: records leave and arrive in the
/// middle of a list, are re-stamped and re-pinned to another slot; a VR
/// disappears, a new one appears, the VRs change places. With `shuffle`
/// every list is permuted as well, so that no record is where the one
/// before it points.
fn perturb(ck: &Checkpoint, seed: u64, shuffle: bool) -> Checkpoint {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Keys no strategy generates twice: the counter is the source address.
    let mut minted = 0u32;
    let mut fresh = |next: &mut dyn FnMut() -> u64| {
        minted += 1;
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::from(0xF000_0000 | minted),
                dst: Ipv4Addr::from(next() as u32),
                src_port: next() as u16,
                dst_port: next() as u16,
                proto: Protocol::from_ip_proto(next() as u8),
            },
            slot: (next() % 8) as u32,
            last_seen_ns: next(),
        }
    };
    let mut out = mutate(ck, next());
    for vr in &mut out.vrs {
        let mut flows = Vec::new();
        for f in vr.flows.iter() {
            match next() % 8 {
                0 => continue,
                1 => flows.push(FlowRecord { slot: f.slot + 1, ..f }),
                2 => flows.push(FlowRecord { last_seen_ns: next(), ..f }),
                3 => flows.extend([fresh(&mut next), f]),
                _ => flows.push(f),
            }
        }
        vr.flows = FlowSection::from_records(&flows);
    }
    if !out.vrs.is_empty() && next() % 4 == 0 {
        out.vrs.remove(0);
    }
    if next() % 4 == 0 {
        let flows: Vec<FlowRecord> = (0..next() % LONG_LIST).map(|_| fresh(&mut next)).collect();
        let flows = FlowSection::from_records(&flows);
        out.vrs.push(VrCheckpoint { name: "added".into(), flows, ..Default::default() });
    }
    if next() % 4 == 0 {
        out.vrs.reverse();
    }
    if shuffle {
        for vr in &mut out.vrs {
            let mut flows = vr.flows.to_vec();
            for i in (1..flows.len()).rev() {
                flows.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            vr.flows = FlowSection::from_records(&flows);
        }
    }
    out
}

/// A clean checkpoint whose VRs hold up to [`LONG_LIST`] more flows each,
/// in no particular order, as a table leaves them.
fn arb_long_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (arb_clean_checkpoint(), any::<u64>()).prop_map(|(mut ck, seed)| {
        for (i, vr) in ck.vrs.iter_mut().enumerate() {
            let n = seed.rotate_left(i as u32 * 8) % LONG_LIST;
            let mut flows = vr.flows.to_vec();
            flows.extend((0..n).map(|j| FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::from(0xE000_0000 | (j.wrapping_mul(seed | 1) as u32 >> 4)),
                    dst: Ipv4Addr::from(j as u32),
                    src_port: j as u16,
                    dst_port: (seed >> 8) as u16,
                    proto: Protocol::Udp,
                },
                slot: (j % 4) as u32,
                last_seen_ns: seed ^ j,
            }));
            flows.sort_by_key(|f| key_bytes(&f.key));
            flows.dedup_by_key(|f| key_bytes(&f.key));
            flows.sort_by_key(|f| f.key.hash64());
            vr.flows = FlowSection::from_records(&flows);
        }
        ck
    })
}

/// Bytes of a message with no records, with the little-endian count that
/// ends `back` bytes before the trailer set to `n` and the CRC redone: a
/// message that promises `n` records and brings none.
fn promising(mut bytes: Vec<u8>, back: usize, n: &[u8]) -> Vec<u8> {
    let body = bytes.len() - 4;
    bytes[body - back - n.len()..body - back].copy_from_slice(n);
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
    bytes
}

// ---- LVSU and LVSM payloads ---------------------------------------------

fn arb_update_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(src, dst, src_port, dst_port, proto)| FlowKey {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            src_port,
            dst_port,
            proto: Protocol::from_ip_proto(proto),
        },
    )
}

/// A batch the emitter can produce: per-origin seqs strictly increase.
fn arb_update_batch() -> impl Strategy<Value = Vec<StateUpdate>> {
    prop::collection::vec((arb_update_key(), any::<u64>(), any::<u64>(), any::<u64>()), 0..24)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (key, d_frames, d_bytes, last_seen_ns))| StateUpdate {
                    key,
                    seq: i as u64 + 1,
                    d_frames,
                    d_bytes,
                    last_seen_ns,
                })
                .collect()
        })
}

fn arb_shard_entry() -> impl Strategy<Value = ShardEntry> {
    (0u32..10_000, any::<u32>(), 0u8..=32, 0u32..64).prop_map(|(n, net, prefix, shard)| {
        ShardEntry { vr: format!("vr{n}"), net: Ipv4Addr::from(net), prefix, shard }
    })
}

fn arb_shard_map() -> impl Strategy<Value = ShardMap> {
    (any::<u32>(), prop::collection::vec(arb_shard_entry(), 0..32))
        .prop_map(|(version, entries)| ShardMap { version, entries })
}

/// Any cluster message, every kind.
fn arb_cluster_msg() -> impl Strategy<Value = ClusterMsg> {
    let blob = || prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u32>(), any::<u32>())
            .prop_map(|(term, node_id, shard_id, priority, epoch, map_version)| {
                ClusterMsg::Advert { term, node_id, shard_id, priority, epoch, map_version }
            }),
        any::<u64>().prop_map(|acked_seq| ClusterMsg::Ack { acked_seq }),
        (any::<u64>(), any::<u64>(), blob()).prop_map(|(node_id, term, bytes)| ClusterMsg::Delta {
            node_id,
            term,
            bytes
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), blob()).prop_map(
            |(node_id, term, seq, bytes)| ClusterMsg::Snapshot { node_id, term, seq, bytes }
        ),
        Just(ClusterMsg::SyncReq),
        (any::<u32>(), arb_shard_map()).prop_map(|(from, map)| ClusterMsg::Map { from, map }),
        any::<u32>().prop_map(|dead| ClusterMsg::Claim { dead }),
        (any::<u32>(), any::<u32>()).prop_map(|(dead, from)| ClusterMsg::ClaimAck { dead, from }),
    ]
}

// ---- the wire family as one table --------------------------------------

/// One well-formed message of any of the four formats.
#[derive(Clone, Debug, PartialEq)]
enum Wire {
    Checkpoint(Checkpoint),
    Delta(CheckpointDelta),
    Updates(u32, Vec<StateUpdate>),
    Cluster(ClusterMsg),
}

/// The family's magics, indexed like [`Wire::format`].
const MAGICS: [&[u8; 4]; 4] = [b"LVCK", b"LVCD", b"LVSU", b"LVSM"];

impl Wire {
    /// Index into the format table.
    fn format(&self) -> usize {
        match self {
            Wire::Checkpoint(_) => 0,
            Wire::Delta(_) => 1,
            Wire::Updates(..) => 2,
            Wire::Cluster(_) => 3,
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Wire::Checkpoint(ck) => ck.encode(),
            Wire::Delta(d) => d.encode(),
            Wire::Updates(origin, updates) => encode_batch(*origin, updates),
            Wire::Cluster(m) => m.encode(),
        }
    }

    /// Run format `format`'s decoder over `bytes`.
    fn decode(format: usize, bytes: &[u8]) -> Result<Wire, CheckpointError> {
        Ok(match format {
            0 => Wire::Checkpoint(Checkpoint::decode(bytes)?),
            1 => Wire::Delta(CheckpointDelta::decode(bytes)?),
            2 => {
                let (origin, updates) = decode_batch(bytes)?;
                Wire::Updates(origin, updates)
            }
            _ => Wire::Cluster(ClusterMsg::decode(bytes)?),
        })
    }
}

/// One message of each format per case, so every property below runs
/// against all four.
fn arb_family() -> impl Strategy<Value = [Wire; 4]> {
    (
        (arb_checkpoint(), arb_clean_checkpoint(), any::<u64>(), any::<u64>()),
        (any::<u32>(), arb_update_batch()),
        arb_cluster_msg(),
    )
        .prop_map(|((ck, prev, seed, seq), (origin, updates), cluster)| {
            let delta = CheckpointDelta::diff(&prev, &mutate(&prev, seed), seq);
            [
                Wire::Checkpoint(ck),
                Wire::Delta(delta),
                Wire::Updates(origin, updates),
                Wire::Cluster(cluster),
            ]
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Encode → decode is the identity for every well-formed message of
    /// every format, and each begins with its own magic. An LVSU batch's
    /// length is exactly the documented fixed-size framing (no hidden
    /// variability to desync a reader on).
    #[test]
    fn encode_decode_is_identity(family in arb_family()) {
        for msg in family {
            let bytes = msg.encode();
            prop_assert_eq!(&bytes[..4], MAGICS[msg.format()].as_slice());
            let back = Wire::decode(msg.format(), &bytes).expect("well-formed message must decode");
            prop_assert_eq!(&back, &msg);
            if let Wire::Updates(_, updates) = &msg {
                prop_assert_eq!(bytes.len(), 15 + 45 * updates.len())
            }
        }
    }

    /// Any single-byte corruption is caught by the trailing CRC (or an
    /// earlier structural check) — never accepted, never a panic: a flipped
    /// bit can neither restore a monitor, fold into a shadow or a sibling's
    /// books, nor re-partition the fleet.
    #[test]
    fn single_byte_corruption_is_always_rejected(
        family in arb_family(),
        pos in any::<u32>(),
        mask in 1u8..=255,
    ) {
        for msg in family {
            let mut bytes = msg.encode();
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= mask;
            prop_assert!(
                Wire::decode(msg.format(), &bytes).is_err(),
                "flipping byte {} of {:?} with mask {:#04x} was accepted", idx, msg, mask
            );
        }
    }

    /// Every truncation point yields an error, not a panic or a partial
    /// message.
    #[test]
    fn truncation_is_always_rejected(family in arb_family(), cut in any::<u32>()) {
        for msg in family {
            let bytes = msg.encode();
            let len = cut as usize % bytes.len();
            prop_assert!(
                Wire::decode(msg.format(), &bytes[..len]).is_err(),
                "truncating {:?} to {} bytes was accepted", msg, len
            );
        }
    }

    /// Every decoder is total: arbitrary byte soup returns a `Result`, it
    /// does not panic, overflow, or allocate unboundedly.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        for format in 0..MAGICS.len() {
            let _ = Wire::decode(format, &bytes);
        }
    }

    /// Garbage that keeps a magic and a valid trailing CRC still cannot
    /// smuggle a malformed payload past the structural checks.
    #[test]
    fn crc_blessed_garbage_is_still_structurally_checked(
        payload in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        for (format, magic) in MAGICS.iter().enumerate() {
            let mut bytes = Vec::with_capacity(payload.len() + 8);
            bytes.extend_from_slice(*magic);
            bytes.extend_from_slice(&payload);
            let crc = crc32(&bytes).to_le_bytes();
            bytes.extend_from_slice(&crc);
            // Either rejected (nearly always) or a genuinely well-formed
            // payload; the only forbidden outcome is a panic.
            let _ = Wire::decode(format, &bytes);
        }
    }

    /// The four magics are mutually disjoint: no format's well-formed bytes
    /// decode as any other, so a mis-routed payload can never be restored,
    /// folded or gossiped as the wrong kind.
    #[test]
    fn magics_are_disjoint(family in arb_family()) {
        for msg in family {
            let bytes = msg.encode();
            for other in (0..MAGICS.len()).filter(|f| *f != msg.format()) {
                prop_assert!(
                    Wire::decode(other, &bytes).is_err(),
                    "{} decoded as {}",
                    String::from_utf8_lossy(MAGICS[msg.format()]),
                    String::from_utf8_lossy(MAGICS[other])
                );
            }
        }
    }

    /// A CRC-valid cluster frame of a kind the protocol does not define is
    /// rejected — in particular it is not taken for a `SyncReq`, which
    /// would make a master re-baseline with a full snapshot.
    #[test]
    fn unknown_message_kinds_are_rejected(kind in 8u8..=255, payload in any::<u64>()) {
        let mut bytes = b"LVSM".to_vec();
        bytes.push(2); // version
        bytes.push(kind);
        bytes.extend_from_slice(&payload.to_le_bytes());
        let crc = crc32(&bytes).to_le_bytes();
        bytes.extend_from_slice(&crc);
        prop_assert!(
            matches!(Wire::decode(3, &bytes), Err(CheckpointError::Malformed(_))),
            "kind {} accepted as a cluster message", kind
        );
    }

    /// The hinted join is the hash-map diff: for a successor the table
    /// could have produced (order kept, the hint mostly right), the same
    /// with every list shuffled (the hint always wrong), and for two
    /// checkpoints that have nothing to do with each other, the two agree on
    /// the delta and so on its bytes — and the standby's fold of it lands on
    /// the successor.
    #[test]
    fn hinted_join_diff_matches_the_hash_map_model(
        prev in arb_long_checkpoint(),
        other in arb_long_checkpoint(),
        seed in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let successors =
            [perturb(&prev, seed, false), perturb(&prev, seed, true), prev.clone(), other];
        for next in &successors {
            let delta = CheckpointDelta::diff(&prev, next, seq);
            let model = model_diff(&prev, next, seq);
            prop_assert_eq!(&delta, &model);
            prop_assert_eq!(delta.encode(), model.encode());
            let mut shadow = prev.clone();
            shadow.fold(&delta);
            prop_assert_eq!(&shadow, &next.canonical());
        }
    }

    /// A flow table hands consecutive checkpoints the same section while
    /// nothing it ships has changed, and `diff` passes over a section the
    /// two checkpoints share without reading it. That shortcut must be
    /// invisible: with some of the successor's sections shared with `prev`'s
    /// (or all of them: the successor is `prev`) the delta, and its bytes,
    /// are the delta of the same successor made of deep copies.
    #[test]
    fn diff_over_shared_sections_is_the_diff_over_copies(
        prev in arb_long_checkpoint(),
        seed in any::<u64>(),
        keep in any::<u64>(),
    ) {
        let mut shared = perturb(&prev, seed, false);
        for (i, vr) in shared.vrs.iter_mut().enumerate() {
            let old = prev.vrs.iter().find(|v| v.name == vr.name);
            if let Some(old) = old.filter(|_| keep >> (i % 64) & 1 == 1) {
                vr.flows = old.flows.clone();
            }
        }
        for next in [shared, prev.clone()] {
            let mut copied = next.clone();
            for vr in &mut copied.vrs {
                vr.flows = FlowSection::from_records(&vr.flows.to_vec());
            }
            for (vr, copy) in next.vrs.iter().zip(&copied.vrs) {
                prop_assert!(!vr.flows.shares_records(&copy.flows));
            }
            let delta = CheckpointDelta::diff(&prev, &next, 9);
            let model = CheckpointDelta::diff(&prev, &copied, 9);
            prop_assert_eq!(&delta, &model);
            prop_assert_eq!(delta.encode(), model.encode());
        }
    }

    /// The differential identity the whole replication stream rests on:
    /// folding the chain of diffs over any number of generations
    /// reconstructs the final checkpoint exactly (canonical form).
    #[test]
    fn differential_fold_chain_reconstructs_exactly(
        base in arb_clean_checkpoint(),
        seeds in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut shadow = base.canonical();
        let mut current = base;
        for (i, &seed) in seeds.iter().enumerate() {
            let next = mutate(&current, seed);
            let delta = CheckpointDelta::diff(&current, &next, i as u64 + 1);
            shadow.fold(&delta);
            prop_assert_eq!(
                &shadow,
                &next.canonical(),
                "fold diverged at generation {}", i
            );
            current = next;
        }
    }


    /// Folding is idempotent per (origin, seq): after a batch sequence has
    /// been folded in order, re-folding any replayed/reordered selection of
    /// those batches changes neither the books nor the folded count. This
    /// is what makes at-least-once fan-out delivery safe.
    #[test]
    fn state_update_fold_is_idempotent_under_replay_and_reorder(
        updates in arb_update_batch(),
        replay in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut ledger = ReplicaLedger::new(7);
        for u in &updates {
            prop_assert!(ledger.fold(3, u), "first delivery must fold");
        }
        let books: Vec<_> = updates
            .iter()
            .map(|u| ledger.book(&u.key).expect("observed flow has a book"))
            .collect();
        let folded = ledger.folded;
        if !updates.is_empty() {
            for r in replay {
                let u = &updates[r as usize % updates.len()];
                prop_assert!(!ledger.fold(3, u), "replayed seq {} must be a no-op", u.seq);
            }
        }
        prop_assert_eq!(ledger.folded, folded, "replays never recount");
        for (u, before) in updates.iter().zip(books) {
            prop_assert_eq!(ledger.book(&u.key), Some(before));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

    /// The CRC is the CRC, by whichever path the length and the CPU select:
    /// buffers up to 256 KiB — thousands of steps of the folded loop — read
    /// from any offset within a 16-byte lane, against the definition.
    #[test]
    fn crc_matches_the_definition(
        seed in any::<u64>(),
        len in 0usize..=if cfg!(miri) { 200 } else { 256 * 1024 },
        skip in 0usize..16,
    ) {
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..skip + len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        let data = &bytes[skip..];
        prop_assert_eq!(crc32(data), model_crc32(data));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The CRC of bytes cut into parts is the CRCs of the parts joined in
    /// order, whatever the cuts: empty parts, parts shorter than a step of
    /// the folded loop and parts of several steps.
    #[test]
    fn crc32_combine_joins_the_crcs_of_any_parts(
        seed in any::<u64>(),
        parts in prop::collection::vec((0usize..3, 0usize..4 * FOLD_BLOCK), 0..6),
    ) {
        let mut x = seed | 1;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        };
        let mut all = Vec::new();
        let mut joined = crc32(&[]);
        for (kind, len) in parts {
            let len = match kind {
                0 => 0,
                1 => len % FOLD_BLOCK,
                _ => FOLD_BLOCK + len,
            };
            let part: Vec<u8> = (0..len).map(|_| byte()).collect();
            joined = crc32_combine(joined, crc32(&part), part.len());
            all.extend(part);
            prop_assert_eq!(joined, model_crc32(&all), "after a part of {} bytes", len);
        }
        for cut in [0, all.len() / 3, all.len()] {
            let (a, b) = all.split_at(cut);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&all));
        }
    }

    /// A flow section keeps its records' CRC once a seal has computed it,
    /// and shares it with every checkpoint that shares the records. Every
    /// write drops it: seal, then push into, sort, or fold a delta into
    /// sections the sealed checkpoint shares, and seal again. The bytes are
    /// the bytes of the same checkpoint built from deep copies, they decode
    /// to it, and the checkpoint that still holds the old records seals as
    /// it did.
    #[test]
    fn a_write_to_a_sealed_section_drops_its_crc(
        base in arb_long_checkpoint(),
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let sealed = base.encode();
        let mut current = base.clone();
        for &seed in &seeds {
            let before = current.clone();
            let before_bytes = before.encode();
            match seed % 3 {
                0 => {
                    let n = current.vrs.len().max(1);
                    if let Some(vr) = current.vrs.get_mut(seed as usize / 3 % n) {
                        let records = mutate(&before, seed).vrs[0].flows.to_vec();
                        if let Some(&record) = records.last() {
                            vr.flows.push(record);
                        }
                    }
                }
                1 => current = current.canonical(),
                _ => {
                    let delta = CheckpointDelta::diff(&current, &mutate(&current, seed), 1);
                    current.fold(&delta);
                }
            }
            let bytes = current.encode();
            let mut deep = current.clone();
            for vr in &mut deep.vrs {
                vr.flows = FlowSection::from_records(&vr.flows.to_vec());
            }
            prop_assert_eq!(&bytes, &deep.encode(), "step {}", seed % 3);
            prop_assert_eq!(&Checkpoint::decode(&bytes).expect("decodes"), &current);
            prop_assert_eq!(before.encode(), before_bytes);
        }
        prop_assert_eq!(base.encode(), sealed);
    }
}

/// Hex to bytes, whitespace ignored.
fn unhex(hex: &str) -> Vec<u8> {
    let hex: String = hex.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// Bytes encoded at the parent of the commit that introduced the shared
/// framing (`seal`/`open`, `VrCheckpoint::{enc, dec}`) and the counter
/// schema — the checkpoint's 22 counters the first 22 primes so a
/// transposed pair would show — and, for `LVSM`, its version-2 cluster
/// advert `(term 2, node 7, shard 1, priority 200, epoch 3, map version 4)`.
/// Each must decode and re-encode to the same bytes — the refactor moved no
/// byte.
#[test]
fn parent_commit_bytes_decode_and_reencode_identically() {
    const FIXTURES: [&str; 4] = [
        "4c56434b020000000300000015cd5b070000000002000000000000000300000000000000050000000000\
         000007000000000000000b000000000000000d0000000000000011000000000000001300000000000000\
         17000000000000001d000000000000001f00000000000000250000000000000029000000000000002b00\
         0000000000002f0000000000000035000000000000003b000000000000003d0000000000000043000000\
         00000000470000000000000049000000000000004f000000000000000900000002000000050000006465\
         70744190010000000000008b010000000000008e01000000000000020000000000000000000000000004\
         40000000000000e83f010000004d00000000000000630000000000000001000000000203000000020000\
         000a0001050a000209a50f50000601000000d2040000000000000a0001060a000209a60f500011000000\
         006300000000000000050000006465707442000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000001000000000000000000657436c8",
        "4c56434402000000040000000700000000000000ffc99a3b000000003200000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000001000000000000000b0000000200\
         0000050000006465707441c2010000000000008b010000000000008e0100000000000002000000000000\
         000000000000000440000000000000e83f010000004d0000000000000063000000000000000100000000\
         0203000000010000000a0001050a000209a50f500006010000000a0001070a000209a70f500006020000\
         002e16000000000000050000006465707442000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000100000000000000000000000000bddef403",
        "4c565355010700000002000a0001010a000209a10f50000601000000000000000300000000000000c000\
         000000000000e8030000000000000a0001020a000209a20f500011020000000000000001000000000000\
         004000000000000000d00700000000000055cdd352",
        "4c56534d02000200000000000000070000000000000001000000c803000000040000002806acef",
    ];
    for (format, hex) in FIXTURES.iter().enumerate() {
        let bytes = unhex(hex);
        let msg = Wire::decode(format, &bytes)
            .unwrap_or_else(|e| panic!("parent-commit bytes of format {format} rejected: {e}"));
        assert_eq!(msg.encode(), bytes, "format {format} re-encodes differently");
        if let Wire::Checkpoint(ck) = &msg {
            let primes = [
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
            ];
            assert_eq!(ck.stats.to_wire(), primes, "counter wire order moved");
            assert_eq!((ck.stats.frames_in, ck.stats.updates_lost), (2, 79));
            assert_eq!((ck.stats.quarantined_drops, ck.stats.shed_early), (31, 47));
        }
    }
}

/// The retired wire formats, as the parent of the single cluster protocol
/// encoded them: an `LVHA` pair message (the HA-only format) and an `LVSM`
/// version-1 fleet map. No decoder may accept either, so a node speaking
/// them is rejected like any corrupt peer.
#[test]
fn retired_cluster_formats_are_rejected() {
    let retired = [
        "4c5648410103120000000000000003000000090807ab4b8be8",
        "4c56534d01010100000003000000010000000001000a180200000005000000646570743176ca726f",
    ];
    for hex in retired {
        let bytes = unhex(hex);
        for (format, magic) in MAGICS.iter().enumerate() {
            assert!(
                Wire::decode(format, &bytes).is_err(),
                "retired bytes {hex} accepted as {}",
                String::from_utf8_lossy(*magic)
            );
        }
    }
    assert!(matches!(ClusterMsg::decode(&unhex(retired[1])), Err(CheckpointError::BadVersion(1))));
}

/// Every way a length splits: the byte tail, the eight-byte table loop, and
/// on a CPU that folds, the 64-byte entry block, the 4×16 main loop and the
/// 16-byte drain — 0..=1100 bytes from every offset within a lane (the loads
/// are unaligned), against the definition; and the known answer.
#[test]
fn crc_every_short_length_from_every_offset_and_known_answer() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    const MAX: usize = if cfg!(miri) { 64 } else { 1100 };
    let buf: Vec<u8> =
        (0..MAX as u32 + 16).map(|i| (i.wrapping_mul(197) >> 3) as u8 ^ 0x5A).collect();
    for skip in 0..16 {
        for len in 0..=MAX {
            let data = &buf[skip..skip + len];
            assert_eq!(crc32(data), model_crc32(data), "{len} bytes from offset {skip}");
        }
    }
}

/// A count is checked against the bytes left before anything is reserved
/// for it: a CRC-valid message of any of the four formats that carry one,
/// promising records it does not bring, is refused at the count, by name,
/// whether it promises one or four billion.
#[test]
fn counts_beyond_the_bytes_left_are_refused_before_allocation() {
    fn refused<T: std::fmt::Debug>(r: Result<T, CheckpointError>, what: &str, n: u32) {
        match r {
            Err(CheckpointError::Malformed(why)) => assert_eq!(why, what, "count {n}"),
            other => panic!("{what} {n}: {other:?}"),
        }
    }
    let vr = VrCheckpoint { name: "vr0".into(), ..Default::default() };
    let empty = Checkpoint::default();
    let one_vr = Checkpoint { vrs: vec![vr], ..Default::default() };
    let delta = CheckpointDelta::diff(&one_vr, &one_vr, 1);
    for n in [1, 1 << 16, u32::MAX] {
        let le = &n.to_le_bytes();
        for (bytes, what) in [
            (promising(empty.encode(), 0, le), "implausible vr count"),
            (promising(one_vr.encode(), 0, le), "implausible flow count"),
        ] {
            refused(Checkpoint::decode(&bytes), what, n);
        }
        for (bytes, what) in [
            (promising(CheckpointDelta::default().encode(), 0, le), "implausible vr count"),
            (promising(delta.encode(), 4, le), "implausible eviction count"),
            (promising(delta.encode(), 0, le), "implausible upsert count"),
        ] {
            refused(CheckpointDelta::decode(&bytes), what, n);
        }
        // `LVSM`: a map of no entries.
        let map = ShardMap { version: 1, entries: Vec::new() };
        let map = promising(ClusterMsg::Map { from: 0, map }.encode(), 0, le);
        refused(ClusterMsg::decode(&map), "implausible shard-map entry count", n);
    }
    // `LVSU` counts in a `u16`: 15 bytes that used to reserve room for 65 535
    // updates.
    for n in [1u16, 255, u16::MAX] {
        let batch = promising(encode_batch(7, &[]), 0, &n.to_le_bytes());
        assert_eq!(batch.len(), 15);
        refused(decode_batch(&batch), "implausible update count", n.into());
    }
}

// ---- monitor-level rejection: corrupt checkpoint => cold start ---------

/// The fallback guarantee: a corrupt checkpoint file must not panic or
/// wedge the monitor — it logs `checkpoint_rejected`, bumps the counter,
/// and the caller proceeds with a perfectly functional cold start.
#[test]
fn corrupt_checkpoint_falls_back_to_cold_start() {
    let path = temp_path("corrupt.ck");
    std::fs::write(&path, b"LVCKthis is not a checkpoint at all").unwrap();

    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), LvrmConfig::default());
    let mut host = RecordingHost::default();
    lvrm.add_vr("deptA", &subnet(), routed_vr("deptA"), &mut host);

    assert!(lvrm.restore_from(&path, &mut host).is_err(), "corrupt blob must be rejected");
    assert_eq!(lvrm.epoch(), 0, "a rejected restore stays in the cold-start epoch");

    let snap = lvrm.metrics_snapshot();
    assert_eq!(
        snap.counter("lvrm_checkpoint_rejected_total", &[]),
        Some(1),
        "rejection must be visible as a counter"
    );

    // The monitor still routes: the cold start is a real start.
    let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 1)).udp(
        1000,
        2000,
        &[],
    );
    lvrm.ingress(frame, &mut host);
    host.pump();
    lvrm.process_control();
    let mut out = Vec::new();
    assert_eq!(lvrm.poll_egress(&mut out), 1, "cold-started monitor must forward traffic");

    std::fs::remove_file(&path).ok();
}

/// Truncating a *valid* checkpoint mid-file (the torn-write scenario the
/// atomic rename prevents, simulated here directly) is also rejected
/// cleanly at the monitor level.
#[test]
fn truncated_checkpoint_is_rejected_at_restore() {
    let path = temp_path("truncated.ck");
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), LvrmConfig::default());
    let mut host = RecordingHost::default();
    lvrm.add_vr("deptA", &subnet(), routed_vr("deptA"), &mut host);
    assert!(lvrm.checkpoint_to(&path, 1_000), "baseline checkpoint must write");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    assert!(lvrm.restore_from(&path, &mut host).is_err());
    assert_eq!(lvrm.metrics_snapshot().counter("lvrm_checkpoint_rejected_total", &[]), Some(1));
    std::fs::remove_file(&path).ok();
}

/// A checkpoint aimed at an unwritable path is reported (return false +
/// event), never fatal: a monitor that cannot checkpoint keeps routing.
#[test]
fn unwritable_checkpoint_path_is_nonfatal() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock.clone(), LvrmConfig::default());
    let path = std::path::Path::new("/nonexistent-lvrm-dir/deep/ck.bin");
    assert!(!lvrm.checkpoint_to(path, 1_000), "write into a missing dir must fail");
    assert_eq!(
        lvrm.metrics_snapshot().counter("lvrm_checkpoint_writes_total", &[]),
        Some(0),
        "failed writes are not counted as writes"
    );
}
