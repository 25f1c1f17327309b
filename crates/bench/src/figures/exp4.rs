//! Experiment 4 (Figs. 4.19–4.22): scalability with the number of TCP
//! flows.
//!
//! FTP/TCP at full blast (no dummy load), sweeping the number of flow
//! pairs. Paper: aggregate forward rate stays just below the 1000 Mbps
//! ideal and LVRM (frame-based) matches native; max-min fairness > 0.8;
//! Jain > 0.99; the Fig. 4.22 timeline hovers around ~700 Mbps for 100
//! pairs.

use crate::{full_scale, mbps, Table};
use lvrm_core::config::{AllocatorKind, BalancerKind};
use lvrm_metrics::{jain_index, max_min_fairness};
use lvrm_testbed::scenario::{Scenario, TcpFlowSpec};
use lvrm_testbed::tcp::TcpConfig;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn scenario(mech: ForwardingMech, flow_based: bool, pairs: usize, duration: u64) -> Scenario {
    let mut sc = Scenario::new(mech);
    sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 0 })];
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 6 };
    sc.lvrm.balancer = BalancerKind::Jsq;
    sc.lvrm.flow_based = flow_based;
    sc.duration_ns = duration;
    sc.warmup_ns = duration / 4;
    for i in 0..pairs {
        // Stagger logins across the first half second: the paper's clients
        // "login at the same moment" only at human timescales, and lockstep
        // slow-starts would synchronize losses unrealistically.
        let start_ns = (i as u64 % 100) * 5_000_000;
        sc.tcp_flows.push(TcpFlowSpec { vr: 0, cfg: TcpConfig::default(), start_ns });
        sc.tcp_flows.push(TcpFlowSpec {
            vr: 0,
            cfg: TcpConfig { mss: 256, pacing_ns: Some(20_000_000), ..TcpConfig::default() },
            start_ns,
        });
    }
    sc
}

pub fn run() {
    let duration: u64 = if full_scale() { 60_000_000_000 } else { 10_000_000_000 };
    let sweeps: &[usize] = if full_scale() { &[10, 25, 50, 75, 100] } else { &[10, 30, 60, 100] };
    let mut table = Table::new(
        "exp4",
        "Figs 4.19-4.21",
        "Aggregate forward rate and fairness vs number of FTP pairs",
        &["mechanism", "pairs", "aggregate Mbps", "max-min", "jain"],
        "aggregate slightly below the 1000 Mbps ideal at every flow count, \
         LVRM frame-based ~ native; max-min > 0.8; Jain > 0.99",
    );
    let mechs = [
        ("native-linux", ForwardingMech::Native, false),
        ("lvrm-frame-jsq", ForwardingMech::Lvrm, false),
        ("lvrm-flow-jsq", ForwardingMech::Lvrm, true),
    ];
    for (label, mech, flow_based) in mechs {
        for &pairs in sweeps {
            eprintln!("[exp4] {label} pairs={pairs} ...");
            let r = scenario(mech, flow_based, pairs, duration).run();
            let rates: Vec<f64> = r
                .tcp_goodput_mbps()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, v)| *v)
                .collect();
            table.row(vec![
                label.to_string(),
                pairs.to_string(),
                mbps(r.tcp_aggregate_mbps()),
                format!("{:.3}", max_min_fairness(&rates)),
                format!("{:.3}", jain_index(&rates)),
            ]);
        }
    }
    table.finish();

    // Fig 4.22: aggregate rate over time at 100 pairs.
    eprintln!("[exp4] timeline at 100 pairs ...");
    let mut sc = scenario(ForwardingMech::Lvrm, false, 100, duration.max(6_000_000_000));
    sc.sample_period_ns = 500_000_000;
    let r = sc.run();
    let mut timeline = Table::new(
        "exp4_timeline",
        "Fig 4.22",
        "Aggregate forward rate vs elapsed time, 100 FTP pairs (LVRM frame-jsq)",
        &["t (s)", "Mbps"],
        "mostly around ~700 Mbps with small dips; LVRM tracks native",
    );
    for s in &r.samples {
        timeline.row(vec![format!("{:.1}", s.t_ns as f64 / 1e9), mbps(s.delivered_mbps)]);
    }
    timeline.finish();
}
