//! The canned scenario set: named, seeded multi-tenant workloads.
//!
//! Each builder returns a plain [`Scenario`] — weighted VRs as
//! [`VrSpec`]s, traffic shapes as [`SourceKind`] + [`RateSchedule`] pairs
//! (constant-rate, seeded heavy-tailed flow mixes, diurnal ramps, flash
//! crowds, SYN/UDP floods) — and its [`ScenarioResult`] carries the
//! monitor's ledger, per-VR goodput and flow-table occupancy.
//! "Benchmarking NFV Software Dataplanes" (arXiv 1605.05843) shows
//! dataplane rankings invert with the traffic *profile*, not just the
//! rate — this is the profile knob.
//!
//! Everything is deterministic for a fixed seed: every source draws its
//! own stream, mixed from the scenario seed, its VR and its place among
//! that VR's sources, so two runs of the same builder and seed produce
//! identical flow traces and identical results (property-tested in
//! `scenario_determinism.rs`).
//!
//! [`ScenarioResult`]: crate::scenario::ScenarioResult

use lvrm_core::fault::splitmix64;
use lvrm_core::{AllocatorKind, DispatchMode, SocketKind};

use crate::cost::StageCost;
use crate::gateway::{ForwardingMech, VrSpec, VrType};
use crate::scenario::{Scenario, SourceSpec, TcpFlowSpec};
use crate::tcp::TcpConfig;
use crate::traffic::{RateSchedule, SourceKind};

/// The canned set's common ground: the LVRM mechanism over the memory
/// adapter, flow-based balancing on `vri_cores` fixed VRIs per VR, a
/// drained shutdown so the books close with zero in-flight, and the
/// monitor seeded from `seed`.
fn canned(seed: u64, vri_cores: usize) -> Scenario {
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.socket = SocketKind::MemTrace;
    sc.drain_shutdown = true;
    sc.lvrm.flow_based = true;
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: vri_cores };
    // The testbed gateway drives the per-frame ingress path, and the
    // weighted-DRR shed quantum is `batch_size * weight / total_weight`
    // per burst: a batch_size above 1 would hand every 1-frame burst a
    // quota it can never exceed and disable shedding entirely. Keep the
    // dataplane per-frame.
    sc.lvrm.batch_size = 1;
    sc.lvrm.seed = seed as u32 as u64 | 1;
    sc
}

/// The `k`-th tenant: a C++ VR with admission weight `weight`.
fn tenant(k: usize, weight: f64, dummy_load_ns: u64) -> VrSpec {
    VrSpec::numbered(k, VrType::Cpp { dummy_load_ns }).with_shed_weight(weight)
}

/// The stream seed of VR `vr`'s `nth` source (0-based), mixed from the
/// scenario seed so that no two sources share a stream.
fn source_seed(seed: u64, vr: usize, nth: usize) -> u64 {
    splitmix64(
        seed.wrapping_add((vr as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((nth as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)),
    )
}

/// Attach VR `vr`'s next source: sender host `nth + 1`, and `kind` built
/// from the source's stream seed, where `nth` counts the sources `vr`
/// already has.
fn attach(
    sc: &mut Scenario,
    seed: u64,
    vr: usize,
    kind: impl FnOnce(u64) -> SourceKind,
    schedule: RateSchedule,
) {
    let nth = sc.sources.iter().filter(|s| s.vr == vr).count();
    let kind = kind(source_seed(seed, vr, nth));
    sc.sources.push(SourceSpec { vr, host: (nth + 1) as u8, kind, schedule });
}

/// Million-flow census: one tenant pushes a heavy-tailed mix over `flows`
/// distinct 5-tuples at just under link rate, long enough for the census
/// cursor to touch every flow, with a 30 s timeout so nothing expires
/// mid-run. Sized so the flow table sustains `flows` concurrent entries.
pub fn million_flows(flows: u32, seed: u64) -> Scenario {
    // Under the 1 Gbps / 84 B cap of ~1.49 Mfps.
    let fps = 1_200_000.0;
    // The census cursor advances on every second emission; add 25% margin
    // over the minimum coverage time, plus warmup.
    let warmup = 100_000_000u64;
    let coverage_ns = (2.0 * flows as f64 / fps * 1.25e9) as u64;
    let mut sc = canned(seed, 4);
    sc.duration_ns = warmup + coverage_ns.max(400_000_000);
    sc.warmup_ns = warmup;
    sc.lvrm.flow_table_capacity = (flows as usize * 2).next_power_of_two();
    sc.vrs = vec![tenant(0, 1.0, 0)];
    attach(
        &mut sc,
        seed,
        0,
        |seed| SourceKind::UdpMix { wire_size: 84, flows, alpha: 1.3, seed },
        RateSchedule::constant(fps),
    );
    sc
}

/// The overload shape `flash_crowd` and `syn_flood` share: a weight-9
/// tenant at a steady 30 Kfps and a weight-1 tenant, on one VRI each,
/// behind one expensive dispatch core with shedding on. The caller
/// attaches the weight-1 tenant's traffic.
fn contended(seed: u64) -> Scenario {
    let mut sc = canned(seed, 1);
    sc.duration_ns = 900_000_000;
    sc.warmup_ns = 100_000_000;
    sc.lvrm.overload_shedding = true;
    sc.cost.dispatch = StageCost::new(2_000, 0.0);
    sc.vrs = vec![tenant(0, 9.0, 16_667), tenant(1, 1.0, 16_667)];
    attach(
        &mut sc,
        seed,
        0,
        |_| SourceKind::UdpCbr { wire_size: 84, flows: 8 },
        RateSchedule::constant(30_000.0),
    );
    sc
}

/// Flash crowd: a weight-9 tenant at a steady 30 Kfps shares one expensive
/// dispatch core with a weight-1 tenant whose load surges 10× mid-run.
/// With shedding on, the surge is clipped to its quota and the steady
/// tenant's goodput holds (`exp_overload`'s contention shape, driven by a
/// time-varying profile).
pub fn flash_crowd(seed: u64) -> Scenario {
    let mut sc = contended(seed);
    // Base 30 Kfps, then a 300 ms surge past the ~500 Kfps dispatch
    // budget: it saturates the monitor core, so shedding must clip it to
    // its 1/10 quota.
    attach(
        &mut sc,
        seed,
        1,
        |seed| SourceKind::UdpMix { wire_size: 84, flows: 2_000, alpha: 1.3, seed },
        RateSchedule::piecewise(vec![
            (0, 30_000.0),
            (300_000_000, 700_000.0),
            (600_000_000, 30_000.0),
        ]),
    );
    sc
}

/// SYN flood: a weight-9 victim tenant with steady UDP data, a weight-1
/// attacker tenant spraying SYNs from spoofed in-subnet sources. The flood
/// classifies into the attacker's VR and is shed there; the victim's
/// goodput floor is the assertion.
pub fn syn_flood(seed: u64) -> Scenario {
    let mut sc = contended(seed);
    // Combined ~680 Kfps, past the dispatch budget, so the flood saturates
    // the monitor core and must be shed at ingress.
    attach(
        &mut sc,
        seed,
        1,
        |seed| SourceKind::SynFlood { wire_size: 84, sources: 4_096, seed },
        RateSchedule::constant(600_000.0),
    );
    attach(
        &mut sc,
        seed,
        1,
        |seed| SourceKind::UdpFlood { wire_size: 84, sources: 1_024, seed },
        RateSchedule::constant(80_000.0),
    );
    sc
}

/// Diurnal ramp: two tenants with phase-shifted day/night load curves on
/// heavy-tailed mixes — the determinism-suite workhorse (every generator
/// feature exercised: ramps, Pareto sampling, census coverage).
pub fn diurnal(seed: u64) -> Scenario {
    let mut sc = canned(seed, 2);
    sc.duration_ns = 800_000_000;
    sc.warmup_ns = 100_000_000;
    sc.lvrm.flow_table_capacity = 16_384;
    sc.vrs = vec![tenant(0, 1.0, 0), tenant(1, 1.0, 0)];
    attach(
        &mut sc,
        seed,
        0,
        |seed| SourceKind::UdpMix { wire_size: 84, flows: 4_000, alpha: 1.3, seed },
        RateSchedule::diurnal(20_000.0, 120_000.0, 700_000_000),
    );
    // Inverted phase: starts high, as the trough is above the peak.
    attach(
        &mut sc,
        seed,
        1,
        |seed| SourceKind::UdpMix { wire_size: 128, flows: 2_000, alpha: 1.1, seed },
        RateSchedule::diurnal(60_000.0, 10_000.0, 700_000_000),
    );
    sc
}

/// Elephant flow: one bulk TCP transfer through a compute-bound VR
/// (`per_byte_load_ns` makes each 1460-byte data segment cost ~100 µs of
/// core time, while its ACKs stay cheap), plus a seeded trickle of
/// heavy-tailed mice for replication-trace seed sensitivity.
///
/// Under pinned dispatch the flow's 5-tuple rides one VRI and goodput caps
/// at a single core's service rate no matter how many VRIs the VR owns.
/// Under `replicated` dispatch every VRI serves the flow and goodput
/// scales with `vri_cores` — the state-compute replication headline. The
/// raised `dupack_threshold` (TCP-NCR style) absorbs the cross-replica
/// reordering that any-VRI dispatch introduces.
pub fn elephant_flow(vri_cores: usize, replicated: bool, seed: u64) -> Scenario {
    let mut sc = canned(seed, vri_cores);
    sc.duration_ns = 1_200_000_000;
    sc.warmup_ns = 200_000_000;
    let mut vr = tenant(0, 1.0, 0).with_per_byte_load_ns(65);
    if replicated {
        vr = vr.with_dispatch(DispatchMode::Replicated);
    }
    sc.vrs = vec![vr];
    attach(
        &mut sc,
        seed,
        0,
        |seed| SourceKind::UdpMix { wire_size: 84, flows: 64, alpha: 1.3, seed },
        RateSchedule::constant(2_000.0),
    );
    sc.tcp_flows = vec![TcpFlowSpec {
        vr: 0,
        cfg: TcpConfig { dupack_threshold: 64, ..TcpConfig::default() },
        start_ns: 0,
    }];
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_seeds_are_stable_and_distinct() {
        let a = source_seed(42, 0, 0);
        assert_eq!(a, source_seed(42, 0, 0), "same seed, same derivation");
        assert_ne!(a, source_seed(42, 0, 1));
        assert_ne!(a, source_seed(42, 1, 0));
        assert_ne!(source_seed(42, 0, 0), source_seed(43, 0, 0));
    }

    #[test]
    fn canned_builders_attach_vrs_and_sources() {
        let sc = syn_flood(7);
        assert_eq!(sc.vrs.len(), 2);
        assert_eq!(sc.sources.len(), 3, "victim CBR + attacker SYN + attacker UDP flood");
        assert!(sc.lvrm.flow_based);
        assert!(sc.lvrm.overload_shedding);
        assert_eq!(sc.vrs[0].shed_weight, Some(9.0));
        sc.lvrm.validate().expect("canned config must validate");
    }

    #[test]
    fn million_flows_covers_census_window() {
        let sc = million_flows(1_000_000, 1);
        // Duration must allow the census cursor (every 2nd emission) to
        // touch every flow: 2 * flows / fps plus margin.
        let min_ns = sc.warmup_ns + (2.0 * 1_000_000.0 / 1_200_000.0 * 1e9) as u64;
        assert!(sc.duration_ns > min_ns);
        assert!(sc.lvrm.flow_table_capacity >= 2 * 1_000_000);
    }

    /// A tiny end-to-end run: identities hold, the result is populated.
    #[test]
    fn small_scenario_runs_and_conserves() {
        let mut sc = canned(11, 2);
        sc.duration_ns = 300_000_000;
        sc.warmup_ns = 100_000_000;
        sc.vrs = vec![tenant(0, 1.0, 0)];
        attach(
            &mut sc,
            11,
            0,
            |seed| SourceKind::UdpMix { wire_size: 84, flows: 500, alpha: 1.3, seed },
            RateSchedule::constant(50_000.0),
        );
        let r = sc.run();
        r.assert_conserved("(small scenario)");
        assert_eq!(r.per_vr_sent.len(), 1);
        assert!(r.per_vr_sent[0] > 0);
        assert!(r.goodput(0) > 0.9, "goodput {}", r.goodput(0));
        assert!(r.tracked_flows() > 100, "tracked {}", r.tracked_flows());
    }
}
