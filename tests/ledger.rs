//! The monitor's ledger (`lvrm_core::ledger`, DESIGN.md §9) from the root
//! package, so tier-1 covers the spine: every way a frame can end is on the
//! books, the books read the same from live state and from a scrape, each
//! identity can actually fail, a VR that consumes frames is a residual and
//! not a violation, and a restore and a takeover land every counter.

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::core::ledger::{Side, SCHEMA};
use lvrm::core::{Checkpoint, ClusterConfig, Ledger, Violation, VrCheckpoint};
use lvrm::prelude::*;

/// One allocation period (and so one supervisor tick) past the start.
const T_TICK: u64 = 1_100_000_000;

fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

/// Forwards everything.
fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    Box::new(FastVr::new(name, lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap()))
}

fn burst(subnet_third: u8, n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| {
            let src = Ipv4Addr::new(10, 0, subnet_third, (i % 250) as u8 + 1);
            FrameBuilder::new(src, Ipv4Addr::new(10, 0, 2, 1)).udp(1000 + i as u16, 80, &[])
        })
        .collect()
}

fn drain(lvrm: &mut Lvrm<ManualClock>, host: &mut RecordingHost, out: &mut Vec<Frame>) {
    loop {
        let processed = host.pump();
        lvrm.process_control();
        if processed + lvrm.poll_egress(out) == 0 {
            break;
        }
    }
}

/// The identities hold, and the scrape tells the same story as live state.
fn assert_books(lvrm: &Lvrm<ManualClock>, ctx: &str) -> Ledger {
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check(), Ok(()), "{ctx}: {ledger}");
    assert_eq!(ledger, Ledger::from_snapshot(&lvrm.metrics_snapshot()), "{ctx}: scrape != live");
    ledger
}

/// A small two-VR monitor that has seen unclassified, shed, queue-full and
/// crashed-VRI traffic, drained. Tiny queues and a 16-frame burst budget
/// make every loss path reachable in a handful of bursts.
fn worked_monitor() -> (Lvrm<ManualClock>, RecordingHost) {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        data_queue_capacity: 16,
        batch_size: 16,
        overload_shedding: true,
        supervision: true,
        allocator: AllocatorKind::Fixed { cores: 2 },
        ..Default::default()
    };
    let mut lvrm = new_lvrm(clock.clone(), config);
    let mut host = RecordingHost::with_heartbeats();
    lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    let dept_b =
        lvrm.add_vr("deptB", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);
    lvrm.maybe_reallocate(0, &mut host); // Fixed{2}: the second VRI of each VR
    let mut out = Vec::new();

    // Classified to both VRs, plus sources no VR claims.
    lvrm.ingress_batch(&mut burst(1, 12), &mut host);
    lvrm.ingress_batch(&mut burst(3, 12), &mut host);
    lvrm.ingress_batch(&mut burst(9, 5), &mut host);
    assert_books(&lvrm, "mid-flight, queues non-empty");
    drain(&mut lvrm, &mut host, &mut out);

    // Nobody pumps. One burst larger than deptB's two 16-deep queues
    // overflows them (tail drops). deptA fills in steps of 6 + 6: its third
    // burst finds the VR Overloaded and is held to its quota (shed), and
    // once both queues are full the rest is refused (dispatch drops: both
    // VRIs are still attached).
    lvrm.ingress_batch(&mut burst(3, 40), &mut host);
    for _ in 0..5 {
        lvrm.ingress_batch(&mut burst(1, 12), &mut host);
    }
    assert_books(&lvrm, "overloaded");

    // A VRI dies with a full queue parked on it. The survivors keep
    // servicing and heartbeating; one supervisor tick later the dead
    // instance's frames are reclaimed and rehomed.
    let victim = host.spawned[0].vri;
    host.crash_vri(victim);
    clock.set_ns(T_TICK);
    host.pump();
    lvrm.process_control();
    lvrm.maybe_reallocate(T_TICK, &mut host);
    assert_books(&lvrm, "after the reap");

    drain(&mut lvrm, &mut host, &mut out);

    // Both of deptB's VRIs die, and before any tick notices, a burst for
    // deptB finds no VRI attached at all (no VRI).
    for spec in host.spawned.clone().iter().filter(|spec| spec.vr == dept_b) {
        host.crash_vri(spec.vri);
    }
    lvrm.ingress_batch(&mut burst(3, 4), &mut host);
    assert_books(&lvrm, "deptB has no VRI");
    let s = lvrm.stats();
    for (what, n) in [
        ("unclassified", s.unclassified),
        ("dispatch_drops", s.dispatch_drops),
        ("shed_early", s.shed_early),
        ("no_vri_drops", s.no_vri_drops),
        ("redispatched", s.redispatched),
    ] {
        assert!(n > 0, "the drive must exercise {what}: {s:?}");
    }
    assert_eq!((s.vri_deaths, s.respawns), (1, 1), "one crash, one respawn: {s:?}");
    (lvrm, host)
}

#[test]
fn every_way_a_frame_can_end_is_on_the_ledger() {
    let (lvrm, _host) = worked_monitor();
    let ledger = assert_books(&lvrm, "drained");
    assert_eq!(ledger.check_settled(), Ok(()), "{ledger}");
    assert_eq!(ledger.stats.frames_in, ledger.stats.frames_out + ledger.stats.loss());
    assert!(ledger.to_string().ends_with("[exact]"), "{ledger}");
}

/// A checker that cannot fail proves nothing: nudge one number at a time
/// and the matching identity must break.
#[test]
fn each_identity_breaks_when_its_counter_is_nudged() {
    let (lvrm, _host) = worked_monitor();
    let good = lvrm.ledger();
    assert_eq!(good.check_settled(), Ok(()));
    let nudged = |f: &dyn Fn(&mut Ledger)| {
        let mut l = good.clone();
        f(&mut l);
        l.check()
    };

    // Every one of the 22 counters, through the schema: the loss side and
    // both ends of the pipe break (B) — except `dispatch_drops`, which (D)
    // catches first — the reclaim pair breaks (C), the replication triple
    // breaks (E). The rest are bookkeeping no identity ranges over (the
    // `retired_*` folds reach the ledger through the per-VRI sums).
    for (i, def) in SCHEMA.iter().enumerate() {
        let got = nudged(&|l| {
            let mut wire = l.stats.to_wire();
            wire[i] += 1;
            l.stats = LvrmStats::from_wire(wire);
        });
        match def.field {
            "dispatch_drops" => assert!(matches!(got, Err(Violation::Drops { .. })), "{got:?}"),
            "frames_in" | "frames_out" => {
                assert!(matches!(got, Err(Violation::Global { .. })), "{}: {got:?}", def.field)
            }
            _ if def.side == Side::Loss => {
                assert!(matches!(got, Err(Violation::Global { .. })), "{}: {got:?}", def.field)
            }
            "reclaimed" | "queue_lost" => {
                assert!(matches!(got, Err(Violation::Dispatch { .. })), "{}: {got:?}", def.field)
            }
            "updates_emitted" | "updates_folded" | "updates_lost" => {
                assert!(matches!(got, Err(Violation::Replication { .. })), "{}: {got:?}", def.field)
            }
            _ => assert_eq!(got, Ok(()), "{} is in no identity", def.field),
        }
    }

    // The books that are not aggregate counters.
    let got = nudged(&|l| l.vrs[0].admitted += 1);
    assert!(matches!(got, Err(Violation::Admission { ref vr, .. }) if vr == "deptA"), "{got:?}");
    let got = nudged(&|l| l.vrs[1].shed += 1);
    assert!(matches!(got, Err(Violation::Admission { ref vr, .. }) if vr == "deptB"), "{got:?}");
    let got = nudged(&|l| l.vris.returned += 1);
    assert!(matches!(got, Err(Violation::Dispatch { .. })), "{got:?}");
    let got = nudged(&|l| l.vris.data_queued += 1);
    assert!(matches!(got, Err(Violation::Dispatch { .. })), "{got:?}");
    let got = nudged(&|l| l.vris.dispatch_drops += 1);
    assert!(matches!(got, Err(Violation::Drops { .. })), "{got:?}");
    // A dispatch nobody booked in: (C) reads it as in flight, (B) has no
    // arrival to balance it against.
    let got = nudged(&|l| l.vris.dispatched += 1);
    assert!(matches!(got, Err(Violation::Global { in_flight: 1, .. })), "{got:?}");

    // (F) over a two-shard fleet that splits the two VRs.
    let shard = |owns_a: bool| {
        let mut l = good.clone();
        l.vrs[0].owned = owns_a;
        l.vrs[1].owned = !owns_a;
        l
    };
    assert_eq!(Ledger::check_fleet(&[shard(true), shard(false)]), Ok(()));
    assert_eq!(
        Ledger::check_fleet(&[shard(true), shard(true)]),
        Err(Violation::Ownership { vr: "deptA".into(), owners: 2 }),
        "a doubly-owned VR is reported ahead of the unowned one"
    );
    let mut orphaned = shard(false);
    orphaned.vrs[1].owned = false;
    assert_eq!(
        Ledger::check_fleet(&[shard(false), orphaned]),
        Err(Violation::Ownership { vr: "deptA".into(), owners: 0 })
    );
}

/// A VR may consume a frame (here: no route for the destination). The frame
/// was dispatched and never comes back: a residual, reported, not a
/// violation — but not a settled ledger either.
#[test]
fn a_vr_that_drops_frames_leaves_them_unreturned_not_violated() {
    let clock = ManualClock::new();
    let mut lvrm = new_lvrm(clock, LvrmConfig::default());
    let mut host = RecordingHost::default();
    let strict = lvrm::router::parse_map_file("10.0.2.0/24 1\n").unwrap();
    let subnet = [(Ipv4Addr::new(10, 0, 1, 0), 24)];
    lvrm.add_vr("strict", &subnet, Box::new(FastVr::new("s", strict)), &mut host);
    let src = Ipv4Addr::new(10, 0, 1, 5);
    let mut out = Vec::new();
    for dst in [Ipv4Addr::new(10, 0, 2, 9), Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(8, 8, 8, 8)]
    {
        lvrm.ingress(FrameBuilder::new(src, dst).udp(1, 2, &[]), &mut host);
    }
    drain(&mut lvrm, &mut host, &mut out);
    assert_eq!(out.len(), 1, "one destination is routed");

    let ledger = assert_books(&lvrm, "two frames consumed by the VR");
    assert_eq!(ledger.unreturned(), 2);
    assert_eq!(ledger.queued(), 0);
    assert_eq!(ledger.check_settled(), Err(Violation::Unsettled { queued: 0, unreturned: 2 }));
    assert!(ledger.to_string().ends_with("+ unreturned 2 [balanced]"), "{ledger}");
    // The per-tick debug assertion lives with a dropping VR.
    lvrm.maybe_reallocate(T_TICK, &mut host);
}

/// A fleet shard's scrape says which VRs it serves: a VR the shard map
/// assigns to another shard reads unowned there, as in the live books.
#[test]
fn a_fleet_shard_scrapes_the_vrs_it_does_not_own_as_unowned() {
    let cluster = ClusterConfig { shard_id: 0, shards: 2, ..Default::default() };
    let config = LvrmConfig { cluster: Some(cluster), ..Default::default() };
    let mut lvrm = new_lvrm(ManualClock::new(), config);
    let mut host = RecordingHost::default();
    for (third, name) in [(1, "deptA"), (2, "deptB"), (3, "deptC"), (4, "deptD")] {
        lvrm.add_vr(name, &[(Ipv4Addr::new(10, 0, third, 0), 24)], routed_vr(name), &mut host);
    }
    assert!(lvrm.attach_cluster(Vec::new()));
    let ledger = assert_books(&lvrm, "shard 0 of 2");
    let owned = ledger.vrs.iter().filter(|vr| vr.owned).count();
    assert!((1..4).contains(&owned), "the map splits the VRs between the shards: {ledger:?}");
}

/// The "eight of nine lists" regression: a checkpoint whose 22 counters are
/// distinct primes must land every one of them — through the wire, through
/// a restore (store-all) and through a fold-global takeover (add-all). The
/// counters are spelled out here on purpose: this is the one list kept
/// outside the schema, so the schema is checked against something.
#[test]
fn restore_and_takeover_land_every_counter() {
    let stats = LvrmStats {
        frames_in: 2,
        frames_out: 3,
        unclassified: 5,
        dispatch_drops: 7,
        no_vri_drops: 11,
        shrink_lost: 13,
        control_relayed: 17,
        control_drops: 19,
        redispatched: 23,
        crash_lost: 29,
        quarantined_drops: 31,
        vri_deaths: 37,
        respawns: 41,
        retired_dispatch_drops: 43,
        shed_early: 47,
        reclaimed: 53,
        queue_lost: 59,
        retired_dispatched: 61,
        retired_returned: 67,
        updates_emitted: 71,
        updates_folded: 73,
        updates_lost: 79,
    };
    let primes =
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79];
    assert_eq!(stats.to_wire(), primes, "wire order is the schema's order");
    assert_eq!(LvrmStats::from_wire(primes), stats);
    assert_eq!(stats.loss(), 5 + 7 + 11 + 13 + 29 + 31 + 47, "the loss side, by name");

    let vr = VrCheckpoint {
        name: "deptA".into(),
        frames_in: 83,
        frames_out: 89,
        admitted: 97,
        shed: 101,
        weight: 1.0,
        vri_slots: 1,
        ..Default::default()
    };
    let ck = Checkpoint { epoch: 4, ts_ns: 1, stats: stats.clone(), next_vri: 9, vrs: vec![vr] };
    let ck = Checkpoint::decode(&ck.encode()).expect("round-trips");
    assert_eq!(ck.stats, stats);

    let fresh = || {
        let mut lvrm = new_lvrm(ManualClock::new(), LvrmConfig::default());
        let mut host = RecordingHost::default();
        lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
        (lvrm, host)
    };
    let vr_books = |lvrm: &Lvrm<ManualClock>| {
        let vr = &lvrm.ledger().vrs[0];
        (vr.frames_in, vr.admitted, vr.shed)
    };

    // Restart: the books are the checkpoint's.
    let (mut lvrm, mut host) = fresh();
    lvrm.ingress_batch(&mut burst(1, 4), &mut host);
    assert_eq!(lvrm.apply_checkpoint(&ck, 0, &mut host), 5);
    assert_eq!(lvrm.stats(), stats);
    assert_eq!(vr_books(&lvrm), (83, 97, 101));

    // Takeover: the books join this monitor's own, counter by counter.
    let (mut lvrm, mut host) = fresh();
    lvrm.ingress_batch(&mut burst(1, 4), &mut host);
    lvrm.ingress_batch(&mut burst(9, 3), &mut host);
    let own = lvrm.stats();
    assert_eq!((own.frames_in, own.unclassified), (7, 3));
    assert_eq!(lvrm.adopt_checkpoint(&ck, &["deptA".to_string()], true, 0, &mut host), 1);
    let sum: Vec<u64> = own.to_wire().iter().zip(primes).map(|(a, b)| a + b).collect();
    assert_eq!(lvrm.stats().to_wire().as_slice(), sum);
    assert_eq!(vr_books(&lvrm), (4 + 83, 4 + 97, 101));

    // Without `fold_global` only the VR's books move.
    let (mut lvrm, mut host) = fresh();
    lvrm.adopt_checkpoint(&ck, &["deptA".to_string()], false, 0, &mut host);
    assert_eq!(lvrm.stats(), LvrmStats::default());
    assert_eq!(vr_books(&lvrm), (83, 97, 101));
}
