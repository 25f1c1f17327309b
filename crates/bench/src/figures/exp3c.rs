//! Experiment 3c (Figs. 4.16–4.18): frame-based vs flow-based load
//! balancing under FTP/TCP traffic.
//!
//! Pairs of FTP flows (a bulk data connection plus a small paced control
//! connection, §4.1) through a single VR with up to six VRIs. Reported per
//! variant: aggregate throughput (Fig. 4.16), normalized max-min fairness
//! (Fig. 4.17, all > 0.6) and Jain's index (Fig. 4.18, all > 0.9). Paper's
//! ordering: native and frame-based JSQ highest; flow-based slightly below
//! frame-based (connection tracking costs; coarser granularity also dents
//! max-min fairness).

use crate::{full_scale, mbps, Table};
use lvrm_core::config::{AllocatorKind, BalancerKind};
use lvrm_metrics::{jain_index, max_min_fairness};
use lvrm_testbed::scenario::{Scenario, TcpFlowSpec};
use lvrm_testbed::tcp::TcpConfig;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

/// One FTP pair: the bulk data connection + a paced control connection.
/// Pairs stagger their logins over the first half second (lockstep
/// slow-starts would synchronize losses unrealistically).
fn push_ftp_pair(sc: &mut Scenario, vr: usize, pair_idx: usize) {
    let start_ns = (pair_idx as u64 % 100) * 5_000_000;
    sc.tcp_flows.push(TcpFlowSpec { vr, cfg: TcpConfig::default(), start_ns });
    sc.tcp_flows.push(TcpFlowSpec {
        vr,
        cfg: TcpConfig {
            mss: 256,
            pacing_ns: Some(20_000_000), // ~100 Kbps of control chatter
            ..TcpConfig::default()
        },
        start_ns,
    });
}

fn run_variant(
    mech: ForwardingMech,
    balancer: BalancerKind,
    flow_based: bool,
    pairs: usize,
    duration_ns: u64,
) -> (f64, f64, f64) {
    let mut sc = Scenario::new(mech);
    sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 0 })];
    sc.lvrm.allocator = AllocatorKind::Fixed { cores: 6 };
    sc.lvrm.balancer = balancer;
    sc.lvrm.flow_based = flow_based;
    sc.duration_ns = duration_ns;
    sc.warmup_ns = duration_ns / 4;
    for i in 0..pairs {
        push_ftp_pair(&mut sc, 0, i);
    }
    let r = sc.run();
    // Fairness over the bulk (data) connections, as the paper plots flows.
    let rates: Vec<f64> = r
        .tcp_goodput_mbps()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, v)| *v)
        .collect();
    (r.tcp_aggregate_mbps(), max_min_fairness(&rates), jain_index(&rates))
}

pub fn run() {
    let pairs = if full_scale() { 100 } else { 30 };
    let duration: u64 = if full_scale() { 60_000_000_000 } else { 10_000_000_000 };
    let mut table = Table::new(
        "exp3c",
        "Figs 4.16-4.18",
        &format!("{pairs} FTP pairs through 6 VRIs: throughput and fairness by balancing variant"),
        &["variant", "aggregate Mbps", "max-min", "jain"],
        "native & frame-jsq highest aggregate; flow-based slightly below \
         frame-based; max-min all > 0.6 (flow-based lowest); Jain all > 0.9",
    );
    let variants: Vec<(String, ForwardingMech, BalancerKind, bool)> = {
        let mut v =
            vec![("native-linux".to_string(), ForwardingMech::Native, BalancerKind::Jsq, false)];
        for balancer in lvrm_core::config::BalancerKind::ALL {
            for flow_based in [false, true] {
                let mode = if flow_based { "flow" } else { "frame" };
                v.push((
                    format!("lvrm-{mode}-{}", balancer.name()),
                    ForwardingMech::Lvrm,
                    balancer,
                    flow_based,
                ));
            }
        }
        v
    };
    for (label, mech, balancer, flow_based) in variants {
        eprintln!("[exp3c] {label} ...");
        let (agg, mm, jain) = run_variant(mech, balancer, flow_based, pairs, duration);
        table.row(vec![label, mbps(agg), format!("{mm:.3}"), format!("{jain:.3}")]);
    }
    table.finish();
}
