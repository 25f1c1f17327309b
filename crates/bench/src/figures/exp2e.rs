//! Experiment 2e (Fig. 4.13): dynamic core allocation with dynamic
//! thresholds.
//!
//! Two VRs whose *service rates* differ 1:2 (VR0's per-frame work is twice
//! VR1's), both offered the same load from t=0. Fixed thresholds would give
//! them the same cores; the dynamic-threshold allocator measures each VR's
//! departure rate (reported by the LVRM adapters, §3.6) and allocates
//! "proportionally to the service times with a small error".

use crate::{full_scale, Table};
use lvrm_core::config::AllocatorKind;
use lvrm_testbed::scenario::{Scenario, SourceSpec};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

pub fn run() {
    let dur: u64 = if full_scale() { 20_000_000_000 } else { 8_000_000_000 };
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = dur;
    sc.warmup_ns = 100_000_000;
    sc.sample_period_ns = 1_000_000_000;
    // VR0 needs 1/30ms per frame (30 Kfps/core); VR1 1/60ms (60 Kfps/core):
    // service-rate ratio 1:2.
    sc.vrs = vec![
        VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 33_333 }),
        VrSpec::numbered(1, VrType::Cpp { dummy_load_ns: 16_667 }),
    ];
    sc.lvrm.allocator = AllocatorKind::DynamicServiceRate { bootstrap_rate: 60_000.0 };
    for vr in 0..2 {
        sc.sources.push(SourceSpec {
            vr,
            host: 1,
            kind: SourceKind::UdpCbr { wire_size: 84, flows: 8 },
            schedule: RateSchedule::constant(90_000.0),
        });
    }

    eprintln!("[exp2e] running ...");
    let r = sc.run();
    let mut table = Table::new(
        "exp2e",
        "Fig 4.13",
        "Dynamic thresholds: equal load (90 Kfps each), service rates 1:2",
        &["t (s)", "vr0 cores (slow VR)", "vr1 cores (fast VR)"],
        "the slow VR earns ~2x the cores of the fast one (3 vs 2 here: \
         90K/30K=3, 90K/60K=2 at steady state), proportional to service times",
    );
    for s in &r.samples {
        table.row(vec![
            format!("{:.1}", s.t_ns as f64 / 1e9),
            s.vris_per_vr[0].to_string(),
            s.vris_per_vr[1].to_string(),
        ]);
    }
    table.finish();
    if let Some(last) = r.samples.last() {
        println!(
            "steady state: slow VR {} cores, fast VR {} cores (delivery ratio {:.3})",
            last.vris_per_vr[0],
            last.vris_per_vr[1],
            r.delivery_ratio()
        );
    }
}
