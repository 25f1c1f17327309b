//! Golden-file test for the Prometheus text exposition.
//!
//! The scrape format is an external contract: dashboards, alerts, and the
//! CI conservation checks all key on metric names, HELP/TYPE metadata, and
//! label sets. This test renders a deterministic scenario and compares the
//! *structure* of the exposition — every line with its sample value replaced
//! by `V` — against a checked-in golden file, so a renamed metric, a dropped
//! HELP string, reordered labels, or a vanished series fails loudly while
//! counter-value drift from unrelated accounting changes does not.
//!
//! To re-bless after an intentional format change:
//!
//! ```text
//! LVRM_BLESS=1 cargo test -p lvrm-core --test prometheus_golden
//! ```

use std::net::Ipv4Addr;

use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    RecordingHost,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{Frame, FrameBuilder};

mod common;
use common::routed_vr;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");

fn frame(subnet_c: u8, last: u8, ts_ns: u64) -> Frame {
    let mut f = FrameBuilder::new(Ipv4Addr::new(10, 0, subnet_c, last), Ipv4Addr::new(10, 0, 2, 1))
        .udp(1, 2, &[]);
    f.ts_ns = ts_ns;
    f
}

/// A small deterministic run exercising every family the monitor registers:
/// two VRs, classified + unclassified traffic, latency samples, a full
/// drain, and one reallocation tick.
fn fixture() -> Lvrm<ManualClock> {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        queue_kind: QueueKind::Lamport,
        allocator: AllocatorKind::Fixed { cores: 2 },
        supervision: true,
        ..Default::default()
    };
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = RecordingHost::with_heartbeats();
    lvrm.add_vr("deptA", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr("a"), &mut host);
    lvrm.add_vr("deptB", &[(Ipv4Addr::new(10, 0, 3, 0), 24)], routed_vr("b"), &mut host);

    let mut out = Vec::new();
    for step in 1..=20u64 {
        let t = step * 100_000_000;
        clock.set_ns(t);
        let mut burst = vec![
            frame(1, (step % 200) as u8, t - 50_000),
            frame(3, (step % 200) as u8, t - 30_000),
            frame(9, 1, t - 10_000), // matches no VR: unclassified
        ];
        lvrm.ingress_batch(&mut burst, &mut host);
        host.pump();
        lvrm.process_control();
        lvrm.maybe_reallocate(t, &mut host);
        lvrm.poll_egress(&mut out);
    }
    loop {
        let processed = host.pump();
        lvrm.process_control();
        if processed == 0 && lvrm.poll_egress(&mut out) == 0 {
            break;
        }
    }
    lvrm
}

fn render_fixture() -> String {
    fixture().render_prometheus()
}

/// Replace each sample line's value with `V`, keeping names, labels, and
/// comment lines (`# HELP` / `# TYPE`) verbatim.
fn normalize(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        if line.starts_with('#') || line.is_empty() {
            out.push_str(line);
        } else {
            match line.rsplit_once(' ') {
                Some((series, _value)) => {
                    out.push_str(series);
                    out.push_str(" V");
                }
                None => out.push_str(line),
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn exposition_structure_matches_golden() {
    let rendered = normalize(&render_fixture());
    if std::env::var("LVRM_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with LVRM_BLESS=1 to create it");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition structure changed. If intentional, re-bless with \
         LVRM_BLESS=1 cargo test -p lvrm-core --test prometheus_golden"
    );
}

/// A scrape renders from the live registry, with each line's text kept from
/// registration; a snapshot renders the same lines as it goes. Both must
/// give the same bytes, values included.
#[test]
fn live_render_is_the_snapshots_render() {
    let lvrm = fixture();
    let live = lvrm.render_prometheus();
    assert_eq!(live, lvrm.metrics_snapshot().render_prometheus());
    assert!(live.contains("lvrm_vr_latency_ns_sum{vr=\"deptA\"} "), "{live}");
}

/// The fixture must actually move frames — otherwise the golden quietly
/// degenerates to a registry of zeros and stops guarding the per-VR and
/// per-VRI series.
#[test]
fn fixture_exercises_every_family_kind() {
    let exposition = render_fixture();
    for needle in [
        "# TYPE lvrm_frames_in_total counter",
        "# TYPE lvrm_data_queued gauge",
        "# TYPE lvrm_vr_latency_ns summary",
        "lvrm_vr_frames_in_total{vr=\"deptA\"}",
        "lvrm_vr_frames_in_total{vr=\"deptB\"}",
        "lvrm_vri_dispatched_total{",
        "lvrm_vr_latency_ns{vr=\"deptA\",quantile=",
        "lvrm_info{",
    ] {
        assert!(exposition.contains(needle), "exposition is missing {needle:?}:\n{exposition}");
    }
    // Sample values in the fixture are non-trivial.
    let frames_in = exposition
        .lines()
        .find(|l| l.starts_with("lvrm_frames_in_total "))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .expect("lvrm_frames_in_total sample");
    assert_eq!(frames_in, 60, "fixture ingests 20 steps x 3 frames");
}
