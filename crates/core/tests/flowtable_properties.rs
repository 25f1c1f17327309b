//! Model-based property tests around flow affinity: the open-addressing
//! flow table must behave exactly like a `HashMap` with timestamps under any
//! operation sequence (within capacity), including the backshift deletion
//! path — and the full monitor must keep flows pinned to a single VRI even
//! when the supervisor kills an instance and re-balances its queue.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use lvrm_core::flowtable::FlowTable;
use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, FlowRecord, FlowSection, Lvrm,
    LvrmConfig, ManualClock, RecordingHost, VriId,
};
use lvrm_net::flow::{FlowKey, Protocol};
use lvrm_net::{Frame, FrameBuilder};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert { key: u8, vri: u8 },
    Find { key: u8 },
    PurgeVri { vri: u8 },
    Advance { by: u32 },
}

fn key(n: u8) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::new(10, 0, 1, n),
        dst: Ipv4Addr::new(10, 0, 2, 1),
        src_port: 1000 + n as u16,
        dst_port: 80,
        proto: Protocol::Udp,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), 0u8..6).prop_map(|(key, vri)| Op::Insert { key, vri }),
            any::<u8>().prop_map(|key| Op::Find { key }),
            (0u8..6).prop_map(|vri| Op::PurgeVri { vri }),
            (1u32..1000).prop_map(|by| Op::Advance { by }),
        ],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matches_hashmap_model(script in ops()) {
        const TIMEOUT: u64 = 10_000;
        // Capacity 512 >> 256 distinct keys: overflow never muddies the model.
        let mut table = FlowTable::new(512, TIMEOUT);
        let mut model: HashMap<u8, (VriId, u64)> = HashMap::new();
        let mut now: u64 = 0;
        for op in script {
            match op {
                Op::Insert { key: k, vri } => {
                    let ok = table.insert(key(k), VriId(vri as u32), now);
                    prop_assert!(ok, "insert under capacity must succeed");
                    model.insert(k, (VriId(vri as u32), now));
                }
                Op::Find { key: k } => {
                    let got = table.find_and_touch(&key(k), now);
                    let expect = match model.get(&k) {
                        Some((vri, seen)) if now - seen <= TIMEOUT => Some(*vri),
                        _ => None,
                    };
                    prop_assert_eq!(got, expect, "find({}) at t={}", k, now);
                    match got {
                        Some(_) => {
                            model.get_mut(&k).unwrap().1 = now; // touched
                        }
                        None => {
                            model.remove(&k); // expired entries are evicted
                        }
                    }
                }
                Op::PurgeVri { vri } => {
                    table.purge_vri(VriId(vri as u32));
                    model.retain(|_, (v, _)| *v != VriId(vri as u32));
                }
                Op::Advance { by } => now += by as u64,
            }
            check_invariants(&table);
        }
        // Full sweep: every live model entry must still resolve.
        for (k, (vri, seen)) in &model {
            if now - seen <= TIMEOUT {
                prop_assert_eq!(table.find_and_touch(&key(*k), now), Some(*vri));
            }
        }
    }
}

/// The slot order is wire format: `export` walks the slots `entries()`
/// walks, so a checkpoint's bytes depend on which slot every record sits in. Replay one
/// seeded life of a crowded table — hits, first-of-flow inserts, sweeps, a
/// VRI purge — and compare what `entries()` yields, in order, against the
/// digest the `Box<[Option<Entry>]>` table this layout replaced gave for
/// the same calls (read off that table before it went).
#[test]
fn entries_order_is_pinned_for_a_seeded_life() {
    fn wide_key(n: u16) -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
            dst: Ipv4Addr::new(10, 0, 2, 1),
            src_port: n,
            dst_port: 80,
            proto: [Protocol::Tcp, Protocol::Udp, Protocol::Udp][n as usize % 3],
        }
    }
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut table = FlowTable::new(1024, 5_000);
    let mut now = 0u64;
    for _ in 0..40_000 {
        let r = next();
        now += r >> 60;
        match r % 64 {
            0 => {
                table.age_step(now, (r >> 8) as usize % 200 + 1);
            }
            1 if r >> 8 & 15 == 0 => {
                table.purge_vri(VriId((r >> 16) as u32 % 4));
            }
            _ => {
                // The balancer's use: follow the flow, or pin it on a miss.
                let k = wide_key((r >> 8) as u16 % 900);
                if table.find_and_touch(&k, now).is_none() {
                    table.insert(k, VriId((r >> 32) as u32 % 4), now);
                }
            }
        }
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for (k, vri, seen) in table.entries() {
        fold(u64::from(u32::from(k.src)));
        fold(u64::from(k.src_port) << 8 | u64::from(k.proto.to_ip_proto()));
        fold(u64::from(vri.0));
        fold(seen);
    }
    let stats = table.stats();
    assert_eq!(
        (stats.len, stats.evictions, stats.overflows, stats.age_sweep_slots, digest),
        (548, 14_895, 0, 66_627, 7_938_331_990_297_907_933),
    );
}

// ---------------------------------------------------------------------------
// Differential export: slot words straight to wire records vs `entries()`.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 96 }))]

    /// `FlowTable::export` writes a checkpoint's flow section from the slots'
    /// packed words. The model goes the long way round, as the export did
    /// before: every entry unpacked into a `FlowKey`, placed by a search of
    /// the live VRIs, pushed as a `FlowRecord` — with its timestamp rounded
    /// down to the export quantum, `2^⌊log2(4000 / 16)⌋ = 128` ns for this
    /// table's timeout. The slots keep the exact time (`entries()` yields
    /// it); only the export rounds, so that a hit inside a quantum leaves
    /// the exported section as it was. Over a seeded life of a crowded
    /// table — first-of-flow inserts, hits, re-pins, sweeps, purges, every
    /// protocol shape a key can take, `Other(6)` beside `Tcp` among them —
    /// and for live sets that leave VRIs out, start above the lowest id
    /// stored, or are empty, the two sections are the same bytes.
    #[test]
    fn export_writes_the_bytes_entries_would_record_by_record(
        seed in any::<u64>(),
        live in prop::collection::vec(0u32..9, 0..6),
        offset in prop_oneof![Just(0u32), Just(0u32), Just(3u32), Just(1_000_000u32)],
    ) {
        fn shaped_key(n: u16) -> FlowKey {
            FlowKey {
                src: Ipv4Addr::new(10, (n >> 8) as u8, 1, n as u8),
                dst: Ipv4Addr::new(192, 168, (n % 7) as u8, 255),
                src_port: n.wrapping_mul(257),
                dst_port: 0xff00 | n >> 4,
                proto: match n % 6 {
                    0 => Protocol::Tcp,
                    1 => Protocol::Udp,
                    2 => Protocol::Icmp,
                    3 => Protocol::Other(6),
                    4 => Protocol::Other(0),
                    _ => Protocol::Other(n as u8 | 0x80),
                },
            }
        }
        // Slot = position in `live`, so the order is kept and a repeat dropped.
        let mut vris: Vec<VriId> = Vec::new();
        for id in live {
            if !vris.contains(&VriId(id + offset)) {
                vris.push(VriId(id + offset));
            }
        }
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut table = FlowTable::new(256, 4_000);
        let mut now = 0u64;
        let steps = if cfg!(miri) { 300 } else { 3_000 };
        for step in 0..steps {
            let r = next();
            now += r >> 59;
            match r % 32 {
                0 => {
                    table.age_step(now, (r >> 8) as usize % 96 + 1);
                }
                1 if r >> 8 & 7 == 0 => {
                    table.purge_vri(VriId((r >> 16) as u32 % 6));
                }
                2 | 3 => {
                    // Re-pin: wherever the flow is, it now belongs elsewhere.
                    table.insert(shaped_key((r >> 8) as u16 % 300), VriId((r >> 32) as u32 % 6), now);
                }
                _ => {
                    let k = shaped_key((r >> 8) as u16 % 300);
                    if table.find_and_touch(&k, now).is_none() {
                        table.insert(k, VriId((r >> 32) as u32 % 6), now);
                    }
                }
            }
            if step % 64 != 63 {
                continue;
            }
            let direct = table.export(&vris);
            let mut model = FlowSection::default();
            for (key, vri, seen) in table.entries() {
                if let Some(slot) = vris.iter().position(|v| *v == vri) {
                    model.push(FlowRecord { key, slot: slot as u32, last_seen_ns: seen / 128 * 128 });
                }
            }
            prop_assert_eq!(&direct, &model, "step {}, live {:?}", step, vris);
            prop_assert_eq!(direct.len(), model.iter().count());
        }
        prop_assert!(table.stats().evictions > 0 || cfg!(miri), "the life evicted nothing");
    }
}

// ---------------------------------------------------------------------------
// Differential aging: incremental sweep vs the old full-scan semantics.

/// The pre-incremental reference: a `HashMap` aged by an eager full scan.
/// [`FlowTable::age_step`] replaced exactly this behavior with bounded work
/// per tick, so the two must stay observation-equivalent — identical
/// affinity answers at every step, identical live sets after a complete
/// sweep, identical survivors across checkpoint/restore.
struct ScanTable {
    map: HashMap<u8, (VriId, u64)>,
    timeout_ns: u64,
}

impl ScanTable {
    fn live(&self, k: u8, now: u64) -> bool {
        self.map.get(&k).is_some_and(|(_, seen)| now.saturating_sub(*seen) <= self.timeout_ns)
    }

    fn find_and_touch(&mut self, k: u8, now: u64) -> Option<VriId> {
        if self.live(k, now) {
            let e = self.map.get_mut(&k).unwrap();
            e.1 = now;
            Some(e.0)
        } else {
            // Lazy-probe eviction, exactly like the real table's probe path.
            self.map.remove(&k);
            None
        }
    }

    /// The old 1 s tick: one full scan, every expired entry evicted.
    fn age_full_scan(&mut self, now: u64) {
        let timeout = self.timeout_ns;
        self.map.retain(|_, (_, seen)| now.saturating_sub(*seen) <= timeout);
    }
}

#[derive(Clone, Debug)]
enum AgeOp {
    Insert {
        key: u8,
        vri: u8,
    },
    Find {
        key: u8,
    },
    /// Partial incremental sweep — must never change observable answers.
    AgeStep {
        budget: u8,
    },
    /// Complete sweep on both tables, then live sets must match exactly.
    FullSweep,
    PurgeVri {
        vri: u8,
    },
    /// Re-pin a flow that is live right now to another VRI, as
    /// `FlowBased::pick_keyed` does when a hit's VRI is no valid target.
    /// `nth` picks among the live keys.
    Repin {
        nth: u8,
        vri: u8,
    },
    /// Export the real table, rebuild a fresh one from the checkpoint.
    CheckpointRestore,
    Advance {
        by: u32,
    },
}

#[cfg(not(miri))]
const AGE_CASES: u32 = 192;
#[cfg(miri)]
const AGE_CASES: u32 = 2;
#[cfg(not(miri))]
const AGE_STEPS: usize = 200;
#[cfg(miri)]
const AGE_STEPS: usize = 24;

fn age_ops() -> impl Strategy<Value = Vec<AgeOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), 0u8..6).prop_map(|(key, vri)| AgeOp::Insert { key, vri }),
            any::<u8>().prop_map(|key| AgeOp::Find { key }),
            (1u8..65).prop_map(|budget| AgeOp::AgeStep { budget }),
            Just(AgeOp::FullSweep),
            (0u8..6).prop_map(|vri| AgeOp::PurgeVri { vri }),
            (any::<u8>(), 0u8..6).prop_map(|(nth, vri)| AgeOp::Repin { nth, vri }),
            Just(AgeOp::CheckpointRestore),
            (1u32..8000).prop_map(|by| AgeOp::Advance { by }),
        ],
        0..AGE_STEPS,
    )
}

/// What must hold of the physical table after every operation: no key is
/// stored twice, `len()` counts what `entries()` yields, each block's aging
/// bound is at or below every timestamp in the block, and every slot's
/// occupancy bit agrees with what it stores.
fn check_invariants(table: &FlowTable) {
    let keys: Vec<FlowKey> = table.entries().map(|(k, _, _)| k).collect();
    let distinct: HashSet<&FlowKey> = keys.iter().collect();
    assert_eq!(distinct.len(), keys.len(), "a key is stored twice");
    assert_eq!(table.len(), keys.len());
    assert!(table.block_bounds_hold(), "a block's bound is above a timestamp in it");
    assert!(table.occupancy_bits_hold(), "a slot's occupancy bit is wrong");
}

/// Snapshot the physical table as `key-octet -> vri` (inverse of `key()`).
fn table_contents(table: &FlowTable) -> HashMap<u8, VriId> {
    table.entries().map(|(k, vri, _)| (k.src.octets()[3], vri)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(AGE_CASES))]

    /// The incremental-aging table is observation-equivalent to the old
    /// scan-based table under any operation sequence: same affinity
    /// answers at every probe, same live set after every complete sweep
    /// (⇒ the same entries were evicted), and checkpoint/restore preserves
    /// exactly the survivors.
    #[test]
    fn incremental_aging_matches_full_scan_reference(script in age_ops()) {
        const TIMEOUT: u64 = 10_000;
        const CAPACITY: usize = 512; // >> 256 keys: overflow never muddies the model
        let mut table = FlowTable::new(CAPACITY, TIMEOUT);
        let mut model = ScanTable { map: HashMap::new(), timeout_ns: TIMEOUT };
        let mut now: u64 = 0;
        for op in script {
            match op {
                AgeOp::Insert { key: k, vri } => {
                    prop_assert!(table.insert(key(k), VriId(vri as u32), now));
                    model.map.insert(k, (VriId(vri as u32), now));
                }
                AgeOp::Find { key: k } => {
                    prop_assert_eq!(
                        table.find_and_touch(&key(k), now),
                        model.find_and_touch(k, now),
                        "affinity answer diverged for {} at t={}", k, now
                    );
                }
                AgeOp::AgeStep { budget } => {
                    // Bounded partial work: evicts only expired entries, so
                    // observable answers cannot change. No model action.
                    table.age_step(now, budget as usize);
                }
                AgeOp::FullSweep => {
                    // Two budget=capacity calls guarantee a complete lap
                    // even when backshift relocates entries behind the
                    // cursor mid-pass.
                    table.age_step(now, CAPACITY);
                    table.age_step(now, CAPACITY);
                    model.age_full_scan(now);
                    let live: HashMap<u8, VriId> =
                        model.map.iter().map(|(k, (v, _))| (*k, *v)).collect();
                    prop_assert_eq!(
                        table_contents(&table), live,
                        "live sets diverged after a complete sweep at t={}", now
                    );
                }
                AgeOp::PurgeVri { vri } => {
                    table.purge_vri(VriId(vri as u32));
                    model.map.retain(|_, (v, _)| *v != VriId(vri as u32));
                }
                AgeOp::Repin { nth, vri } => {
                    let mut live: Vec<u8> =
                        model.map.keys().copied().filter(|k| model.live(*k, now)).collect();
                    live.sort_unstable();
                    if !live.is_empty() {
                        let k = live[nth as usize % live.len()];
                        prop_assert!(table.insert(key(k), VriId(vri as u32), now));
                        model.map.insert(k, (VriId(vri as u32), now));
                    }
                }
                AgeOp::CheckpointRestore => {
                    // The warm-restart surface: export every stored entry
                    // with its timestamp, import into a fresh table. The
                    // aging cursor is NOT checkpointed state — a restored
                    // table restarts its sweep from slot 0 — so
                    // equivalence must hold regardless of cursor position.
                    let dump: Vec<_> = table.entries().collect();
                    let mut restored = FlowTable::new(CAPACITY, TIMEOUT);
                    for (k, vri, seen) in &dump {
                        prop_assert!(restored.insert(*k, *vri, *seen));
                    }
                    // Import may reclaim the slot of an already-expired
                    // entry (a newer entry's timestamp proves it dead) —
                    // that only sheds corpses. Every *live* flow must
                    // survive the round trip with its VRI pinned.
                    let live_of = |it: &mut dyn Iterator<Item = (FlowKey, VriId, u64)>| {
                        it.filter(|(_, _, seen)| now.saturating_sub(*seen) <= TIMEOUT)
                            .map(|(k, v, _)| (k.src.octets()[3], v))
                            .collect::<HashMap<u8, VriId>>()
                    };
                    prop_assert_eq!(
                        live_of(&mut restored.entries()),
                        live_of(&mut dump.iter().copied()),
                        "restore lost live flows"
                    );
                    table = restored;
                }
                AgeOp::Advance { by } => now += by as u64,
            }
            check_invariants(&table);
        }
        // Endgame: one complete sweep on both sides must converge them.
        table.age_step(now, CAPACITY);
        table.age_step(now, CAPACITY);
        model.age_full_scan(now);
        let live: HashMap<u8, VriId> = model.map.iter().map(|(k, (v, _))| (*k, *v)).collect();
        prop_assert_eq!(table_contents(&table), live, "final live sets diverged");
        // And every survivor still answers with its pinned VRI.
        for (k, (vri, _)) in model.map.clone() {
            prop_assert_eq!(table.find_and_touch(&key(k), now), Some(vri));
        }
    }
}

// ---------------------------------------------------------------------------
// The export cache: a section handed out again is the one a walk would make.

#[derive(Clone, Debug)]
enum CacheOp {
    Insert {
        key: u8,
        vri: u8,
    },
    /// A hit, or a lazy expiry if the flow is past the timeout.
    Hit {
        key: u8,
    },
    AgeStep {
        budget: u8,
    },
    PurgeVri {
        vri: u8,
    },
    /// A checkpointed flow re-learnt with a timestamp `ago` ns old, as
    /// `FlowBased::import_flow` stores it; some are expired on arrival.
    Import {
        key: u8,
        vri: u8,
        ago: u16,
    },
    /// The VR's live set changes: VRIs 0..6 kept by `mask`, rotated `turn`.
    Vris {
        mask: u8,
        turn: u8,
    },
    Forward {
        by: u16,
    },
    /// A clock that stepped back.
    Back {
        by: u16,
    },
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (any::<u8>(), 0u8..6).prop_map(|(key, vri)| CacheOp::Insert { key, vri }),
            6 => any::<u8>().prop_map(|key| CacheOp::Hit { key }),
            1 => (1u8..65).prop_map(|budget| CacheOp::AgeStep { budget }),
            1 => (0u8..6).prop_map(|vri| CacheOp::PurgeVri { vri }),
            1 => (any::<u8>(), 0u8..6, any::<u16>())
                .prop_map(|(key, vri, ago)| CacheOp::Import { key, vri, ago }),
            1 => (any::<u8>(), 0u8..6).prop_map(|(mask, turn)| CacheOp::Vris { mask, turn }),
            3 => (1u16..4096).prop_map(|by| CacheOp::Forward { by }),
            1 => (1u16..2048).prop_map(|by| CacheOp::Back { by }),
        ],
        0..AGE_STEPS,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(AGE_CASES))]

    /// `FlowTable::export` hands back its last section while the table's
    /// write generation and the VRI list are unchanged. The proof
    /// obligation: every write that changes what the export ships bumps the
    /// generation. After every step of a random life — inserts, re-pins,
    /// hits inside and across quanta, lazy expiry, sweeps, purges, imports of
    /// old and expired flows, live-set changes, a clock stepping forward
    /// over quanta and back — the section `export` returns is byte for byte
    /// the one a fresh walk makes, and two exports with nothing in between
    /// are one section. The timeout makes the quantum 2^10 ns, so the clock
    /// steps cross quantum boundaries all the time.
    #[test]
    fn cached_export_is_a_fresh_export_after_every_step(script in cache_ops()) {
        const TIMEOUT: u64 = 16_384;
        let mut table = FlowTable::new(512, TIMEOUT);
        let mut vris: Vec<VriId> = (0..6).map(VriId).collect();
        let mut now: u64 = 50_000;
        for op in script {
            match op {
                CacheOp::Insert { key: k, vri } => {
                    table.insert(key(k), VriId(vri as u32), now);
                }
                CacheOp::Hit { key: k } => {
                    table.find_and_touch(&key(k), now);
                }
                CacheOp::AgeStep { budget } => {
                    table.age_step(now, budget as usize);
                }
                CacheOp::PurgeVri { vri } => {
                    table.purge_vri(VriId(vri as u32));
                }
                CacheOp::Import { key: k, vri, ago } => {
                    table.insert(key(k), VriId(vri as u32), now.saturating_sub(ago as u64));
                }
                CacheOp::Vris { mask, turn } => {
                    vris = (0..6).filter(|v| mask >> v & 1 == 1).map(VriId).collect();
                    let turn = turn as usize % vris.len().max(1);
                    vris.rotate_left(turn);
                }
                CacheOp::Forward { by } => now += by as u64,
                CacheOp::Back { by } => now = now.saturating_sub(by as u64),
            }
            let cached = table.export(&vris);
            prop_assert_eq!(&cached, &table.export_uncached(&vris), "after {:?} at t={}", op, now);
            prop_assert!(table.export(&vris).shares_records(&cached), "re-exported, not shared");
            check_invariants(&table);
        }
    }
}

/// One frame of flow `f`: distinct source address and port per flow, all
/// inside the VR's subnet.
fn flow_frame(f: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, f + 1), Ipv4Addr::new(10, 0, 2, 1)).udp(
        1000 + f as u16,
        80,
        &[],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Supervisor re-dispatch preserves flow affinity: after a VRI is killed
    /// and its parked frames are re-balanced through the flow-based
    /// balancer, no flow's frames may end up split across two live VRIs —
    /// including frames that arrive after the recovery.
    #[test]
    fn redispatch_after_vri_kill_preserves_flow_affinity(
        pre in prop::collection::vec(0u8..8, 1..120),
        post in prop::collection::vec(0u8..8, 0..60),
        victim_idx in 0usize..3,
    ) {
        let clock = ManualClock::new();
        let config = LvrmConfig {
            flow_based: true,
            allocator: AllocatorKind::Fixed { cores: 3 },
            supervision: true,
            // Only detach-detection: this harness pumps no heartbeats, so
            // the silence timers must never fire on the survivors.
            suspect_after_ns: 500_000_000_000,
            dead_after_ns: 1_000_000_000_000,
            ..Default::default()
        };
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = RecordingHost::default();
        let vr = lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], {
            let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
            Box::new(lvrm_router::FastVr::new("a", routes))
        }, &mut host);
        prop_assert_eq!(lvrm.vri_count(vr), 3);

        // Park the pre-crash traffic (nothing services it), then yank one
        // instance and let the supervisor reclaim and re-balance its queue.
        for &f in &pre {
            lvrm.ingress(flow_frame(f), &mut host);
        }
        let victim = host.spawned[victim_idx].vri;
        host.crash_vri(victim);
        clock.set_ns(1_100_000_000);
        lvrm.maybe_reallocate(1_100_000_000, &mut host);
        prop_assert_eq!(lvrm.stats().vri_deaths, 1);
        prop_assert_eq!(lvrm.vri_count(vr), 3, "replacement spawned");

        // Post-recovery traffic must follow wherever each flow now lives.
        for &f in &post {
            lvrm.ingress(flow_frame(f), &mut host);
        }

        // Read every live instance's incoming queue and map flow -> VRIs.
        let mut seen: HashMap<u8, Vec<VriId>> = HashMap::new();
        let mut drained = 0u64;
        for svc in &mut host.vris {
            let (vri, endpoint) = (&svc.id(), svc.endpoint_mut());
            let mut frames = Vec::new();
            while endpoint.data_rx.try_recv_batch(&mut frames, usize::MAX) > 0 {}
            drained += frames.len() as u64;
            for fr in &frames {
                let f = fr.src_ip().unwrap().octets()[3] - 1;
                let owners = seen.entry(f).or_default();
                if !owners.contains(vri) {
                    owners.push(*vri);
                }
            }
        }
        for (f, owners) in &seen {
            prop_assert_eq!(
                owners.len(),
                1,
                "flow {} split across {:?} after recovery",
                f,
                owners
            );
        }
        // And the recovery lost nothing: every admitted frame is parked in
        // exactly one live queue.
        prop_assert_eq!(lvrm.stats().frames_in, (pre.len() + post.len()) as u64);
        prop_assert_eq!(drained, lvrm.stats().frames_in);
        prop_assert_eq!(lvrm.stats().crash_lost, 0);
    }
}
