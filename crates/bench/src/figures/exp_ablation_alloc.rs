//! Ablation (paper §3.2 claim): "We expect that the dynamic approach is
//! more resource-efficient than the fixed approach, since it allocates
//! cores based on the traffic load and hence avoids over-provisioning."
//!
//! A bursty diurnal-style load (mostly 60 Kfps with a 300 Kfps burst in the
//! middle) runs against three policies: fixed at peak (6 cores), fixed at
//! mean (2 cores), and the two dynamic allocators. Reported: delivery
//! ratio and **core-seconds** consumed (integrated live-VRI count), i.e.
//! how much CPU reservation each policy needed for the service it gave.

use crate::{full_scale, Table};
use lvrm_core::config::AllocatorKind;
use lvrm_testbed::scenario::{Scenario, SourceSpec, VriSample};
use lvrm_testbed::traffic::{RateSchedule, SourceKind};
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn core_seconds(samples: &[VriSample], duration_ns: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for w in samples.windows(2) {
        let dt = (w[1].t_ns - w[0].t_ns) as f64 / 1e9;
        total += w[0].vris_per_vr[0] as f64 * dt;
    }
    // Tail segment to the end of the run.
    let last = samples.last().unwrap();
    total += last.vris_per_vr[0] as f64 * (duration_ns.saturating_sub(last.t_ns)) as f64 / 1e9;
    total
}

pub fn run() {
    let dur: u64 = if full_scale() { 60_000_000_000 } else { 24_000_000_000 };
    let policies: Vec<(&str, AllocatorKind)> = vec![
        ("fixed-peak (6)", AllocatorKind::Fixed { cores: 6 }),
        ("fixed-mean (2)", AllocatorKind::Fixed { cores: 2 }),
        ("dynamic-fixed", AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 }),
        ("dynamic-svc-rate", AllocatorKind::DynamicServiceRate { bootstrap_rate: 60_000.0 }),
    ];
    let mut table = Table::new(
        "exp_ablation_alloc",
        "§3.2 claim",
        "Resource efficiency: bursty load (60 Kfps base, 300 Kfps burst for 3/8 of the run)",
        &["policy", "delivery ratio", "core-seconds", "core-s per delivered Mframe"],
        "dynamic policies approach fixed-at-peak delivery at a fraction of \
         the core-seconds; fixed-at-mean saves cores but drops the whole \
         burst. The residual dynamic loss is the ramp: one grow per 1 s \
         period (the paper's setting) while the burst front passes",
    );
    for (name, allocator) in policies {
        eprintln!("[ablation-alloc] {name} ...");
        let mut sc = Scenario::new(ForwardingMech::Lvrm);
        sc.duration_ns = dur;
        sc.warmup_ns = 200_000_000;
        sc.sample_period_ns = 250_000_000;
        sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 })];
        sc.lvrm.allocator = allocator;
        sc.sources.push(SourceSpec {
            vr: 0,
            host: 1,
            kind: SourceKind::UdpCbr { wire_size: 84, flows: 16 },
            schedule: RateSchedule::piecewise(vec![
                (0, 60_000.0),
                (dur / 4, 300_000.0),
                (5 * dur / 8, 60_000.0),
            ]),
        });
        let r = sc.run();
        let cs = core_seconds(&r.samples, dur);
        let delivered_mframes = r.udp_received as f64 / 1e6;
        table.row(vec![
            name.to_string(),
            format!("{:.3}", r.delivery_ratio()),
            format!("{cs:.1}"),
            format!("{:.1}", cs / delivered_mframes.max(1e-9)),
        ]);
    }
    table.finish();
}
