//! Generator determinism: the same spec + seed must reproduce the run
//! bit-for-bit — identical flow traces, identical conservation reports,
//! identical per-tenant delivery. This is what makes a scenario a usable
//! regression artifact: a perf delta between two commits can only come
//! from the code, never from the workload.
//!
//! A different seed, by contrast, must actually change the traffic (guards
//! against a generator that ignores its seed and degenerates to a fixed
//! trace).

use std::collections::BTreeMap;

use lvrm_core::Ledger;
use lvrm_testbed::scenarios::{diurnal, elephant_flow, ScenarioReport};

/// Project a run onto everything workload-observable: per-flow delivery
/// maps, tenant books, the monitor's ledger, flow-table occupancy.
type Fingerprint = (BTreeMap<u64, (u64, u64)>, Vec<(u64, u64)>, Ledger, u64);

fn fingerprint(r: &ScenarioReport) -> Fingerprint {
    let flows: BTreeMap<u64, (u64, u64)> =
        r.result.udp_flows.iter().map(|(k, v)| (*k, *v)).collect();
    let tenants = r.tenants.iter().map(|t| (t.sent, t.received)).collect();
    (flows, tenants, r.conservation.clone(), r.tracked_flows())
}

#[test]
fn same_spec_and_seed_reproduce_the_run_exactly() {
    let a = diurnal(0xD1CE).run();
    let b = diurnal(0xD1CE).run();

    a.assert_conserved("(diurnal, run A)");
    b.assert_conserved("(diurnal, run B)");

    let fa = fingerprint(&a);
    let fb = fingerprint(&b);
    assert_eq!(fa.0.len(), fb.0.len(), "flow population diverged");
    assert_eq!(fa.0, fb.0, "per-flow delivery traces diverged");
    assert_eq!(fa.1, fb.1, "per-tenant books diverged");
    assert_eq!(fa.2, fb.2, "conservation reports diverged");
    assert_eq!(fa.3, fb.3, "tracked-flow occupancy diverged");
    assert!(!fa.0.is_empty(), "diurnal run must actually carry flows");
}

#[test]
fn different_seed_changes_the_flow_trace() {
    let a = diurnal(1).run();
    let b = diurnal(2).run();
    a.assert_conserved("(diurnal, seed 1)");
    b.assert_conserved("(diurnal, seed 2)");
    assert_ne!(
        fingerprint(&a).0,
        fingerprint(&b).0,
        "generators must consume their seed: seeds 1 and 2 produced identical traces"
    );
}

/// The replication plane is part of the reproducible surface: the same
/// elephant-flow spec + seed must emit a bit-identical LVSU batch trace
/// (DESIGN.md §14), and the five identities must close in both runs.
#[test]
fn elephant_replication_trace_is_deterministic() {
    let a = elephant_flow(2, true, 0xE1E).run();
    let b = elephant_flow(2, true, 0xE1E).run();
    a.assert_conserved("(elephant, run A)");
    b.assert_conserved("(elephant, run B)");
    assert!(!a.result.repl_trace.is_empty(), "replicated run must emit state updates");
    assert_eq!(a.result.repl_trace, b.result.repl_trace, "replicated-update traces diverged");
    assert_eq!(fingerprint(&a), fingerprint(&b), "elephant fingerprints diverged");
    assert_eq!(a.updates_emitted(), b.updates_emitted());
    assert_eq!(a.tcp_mbps(), b.tcp_mbps(), "goodput must reproduce bit-for-bit");
}

/// A different seed perturbs the mice mix and with it the replicated
/// update stream — the trace must not be seed-blind.
#[test]
fn elephant_replication_trace_consumes_the_seed() {
    let a = elephant_flow(2, true, 3).run();
    let b = elephant_flow(2, true, 4).run();
    a.assert_conserved("(elephant, seed 3)");
    b.assert_conserved("(elephant, seed 4)");
    assert_ne!(
        a.result.repl_trace, b.result.repl_trace,
        "seeds 3 and 4 produced identical replicated-update traces"
    );
}
