//! End-to-end scenario regression suite over the canned scenarios.
//!
//! Runs the canned flash-crowd and SYN-flood scenarios (the adversarial
//! half of the fixed bench set) and the diurnal ramp on the full simulated
//! testbed with the real LVRM monitor, and asserts:
//!
//! * the ledger (`lvrm_core::Ledger`, identities A–E) is exact on the final
//!   metrics snapshot (post-drain, so the queued gauges are zero and the
//!   books must close to the frame);
//! * the weighted-tenant goodput, to the frame: the weight-9 tenant rides
//!   out the overload at ~full goodput while the weight-1 aggressor is
//!   clipped;
//! * the PR 3 early-shedding path actually engaged (`shed_early > 0`) —
//!   a scenario that never sheds would pass the identities vacuously.
//!
//! Parameterized over every `QueueKind`; set `LVRM_CHAOS_QUEUE` to `lamport`
//! or `vlink` to pin a single kind (the CI soak legs do exactly that for
//! the `--ignored` census).

use lvrm_ipc::QueueKind;
use lvrm_testbed::scenarios::{diurnal, flash_crowd, million_flows, syn_flood};

fn queue_kinds() -> Vec<QueueKind> {
    match std::env::var("LVRM_CHAOS_QUEUE") {
        Ok(want) => vec![want.parse::<QueueKind>().expect("LVRM_CHAOS_QUEUE")],
        Err(_) => QueueKind::ALL.to_vec(),
    }
}

#[test]
fn flash_crowd_sheds_surge_and_preserves_weighted_goodput() {
    for qk in queue_kinds() {
        let mut sc = flash_crowd(0xF1A5);
        sc.lvrm.queue_kind = qk;
        let r = sc.run();
        let ctx = format!("(flash crowd, {qk:?})");

        r.assert_conserved(&ctx);
        assert!(r.shed_early() > 0, "surge never engaged shedding {ctx}");

        // Seeded and simulated, so exact. The weight-9 steady tenant rides
        // the surge out whole (one frame sent before the window opened lands
        // inside it: 100.0042 %); the weight-1 crowd is clipped to 14.9 %.
        let steady = (r.per_vr_sent[0], r.per_vr_received[0]);
        let crowd = (r.per_vr_sent[1], r.per_vr_received[1]);
        assert_eq!(steady, (24_000, 24_001), "steady tenant {ctx}");
        assert_eq!(crowd, (225_064, 33_462), "surge tenant {ctx}");
    }
}

#[test]
fn syn_flood_is_shed_and_victim_goodput_holds() {
    for qk in queue_kinds() {
        let mut sc = syn_flood(0x5EED);
        sc.lvrm.queue_kind = qk;
        let r = sc.run();
        let ctx = format!("(syn flood, {qk:?})");

        r.assert_conserved(&ctx);
        assert!(r.shed_early() > 0, "flood never engaged shedding {ctx}");
        assert!(r.flood_sent > 0, "attacker emitted nothing {ctx}");

        // Seeded and simulated, so exact: the weight-9 victim loses two
        // frames of 24 000 to the flood (99.9917 %).
        let victim = (r.per_vr_sent[0], r.per_vr_received[0]);
        assert_eq!(victim, (24_000, 23_998), "victim {ctx}");
        // Flood frames are not data: the receiver-side accounting must not
        // credit any of them as tenant goodput (the attacker tenant sends
        // no UDP data at all).
        assert_eq!(r.per_vr_sent[1], 0, "flood frames counted as data {ctx}");
        assert_eq!(r.per_vr_received[1], 0, "flood frames reached goodput {ctx}");
    }
}

#[test]
fn diurnal_ramps_deliver_pinned_books() {
    for qk in queue_kinds() {
        let mut sc = diurnal(0xD1CE);
        sc.lvrm.queue_kind = qk;
        let r = sc.run();
        let ctx = format!("(diurnal, {qk:?})");

        r.assert_conserved(&ctx);
        // Seeded and simulated, so exact: both phase-shifted staircases
        // stay under the two VRIs' service rate, and the day tenant gains
        // one frame sent before the window opened.
        let books: Vec<(u64, u64)> =
            r.per_vr_sent.iter().copied().zip(r.per_vr_received.iter().copied()).collect();
        assert_eq!(books, [(48_020, 48_021), (24_991, 24_991)], "per-tenant books {ctx}");
    }
}

/// The headline acceptance run: ≥1M concurrently tracked flows with every
/// conservation identity holding exactly at shutdown. ~1M distinct
/// 5-tuples at 1.2 Mfps needs a release build — run with
/// `cargo test -p lvrm-testbed --release -- --ignored million_flow`.
#[test]
#[ignore = "million-flow census needs a release build (~2s simulated, minutes in debug)"]
fn million_flow_census_tracks_and_conserves() {
    for qk in queue_kinds() {
        let mut sc = million_flows(1_000_000, 0x0131);
        sc.lvrm.queue_kind = qk;
        let r = sc.run();
        let ctx = format!("(million flows, {qk:?})");
        r.assert_conserved(&ctx);
        assert_eq!(r.tracked_flows(), 1_000_000, "every flow tracked, none twice {ctx}");
        let fs = r.flow_stats();
        assert_eq!(fs.overflows, 0, "flow table must absorb the census without overflow {ctx}");
        let census = (r.per_vr_sent[0], r.per_vr_received[0]);
        assert_eq!(census, (2_501_000, 2_501_001), "goodput {ctx}");
    }
}
