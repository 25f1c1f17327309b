//! Cross-crate integration: the full ingress→classify→balance→VRI→egress
//! workflow of paper §2.1, over real threads and over the in-process host.

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::prelude::*;

fn subnet(a: u8, b: u8, c: u8) -> (Ipv4Addr, u8) {
    (Ipv4Addr::new(a, b, c, 0), 24)
}

fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm::router::parse_map_file("10.0.2.0/24 1\n10.9.2.0/24 1\n").unwrap();
    Box::new(FastVr::new(name, routes))
}

#[test]
fn multi_vr_classification_and_forwarding() {
    let clock = ManualClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock);
    let mut host = RecordingHost::default();
    let a = lvrm.add_vr("dept-a", &[subnet(10, 0, 1)], routed_vr("a"), &mut host);
    let b = lvrm.add_vr("dept-b", &[subnet(10, 9, 1)], routed_vr("b"), &mut host);

    let mut out = Vec::new();
    for i in 0..200u16 {
        let (src, dst) = if i % 2 == 0 {
            (Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
        } else {
            (Ipv4Addr::new(10, 9, 1, 5), Ipv4Addr::new(10, 9, 2, 9))
        };
        let f = FrameBuilder::new(src, dst).udp(1000 + i, 80, &[0u8; 18]);
        lvrm.ingress(f, &mut host);
        host.pump();
        lvrm.poll_egress(&mut out);
    }
    assert_eq!(out.len(), 200);
    let vrs = lvrm.snapshot();
    for vr in [a, b] {
        let s = &vrs[vr.0 as usize];
        assert_eq!((s.frames_in, s.frames_out), (100, 100), "{}", s.name);
    }
    assert_eq!(lvrm.stats().unclassified, 0);
    assert!(out.iter().all(|f| f.egress_if == 1));
}

#[test]
fn threaded_runtime_forwards_and_reports_service_rate() {
    let clock = MonotonicClock::new();
    let n = lvrm::runtime::affinity::available_cores().max(1) as u16;
    let cores = CoreMap::new(CoreTopology::single_package(n), CoreId(0), AffinityMode::Same);
    let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock.clone());
    let mut host = lvrm::runtime::ThreadHost::new(clock);
    let _vr = lvrm.add_vr("vr0", &[subnet(10, 0, 1)], routed_vr("t"), &mut host);

    let mut trace = Trace::generate(&TraceSpec::new(84, 16));
    let mut out = Vec::new();
    let t0 = std::time::Instant::now();
    let mut sent = 0u64;
    // Done once every frame has been sent and has left the books,
    // forwarded or lost.
    while !(sent == 2_000 && out.len() as u64 + lvrm.stats().loss() == sent)
        && t0.elapsed().as_secs() < 30
    {
        if sent < 2_000 {
            lvrm.ingress(trace.next_frame(), &mut host);
            sent += 1;
        }
        lvrm.process_control();
        lvrm.poll_egress(&mut out);
        if sent >= 2_000 {
            std::thread::yield_now();
        }
    }
    host.shutdown();
    lvrm.poll_egress(&mut out);
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check_settled(), Ok(()), "across threads: {ledger}");
    assert_eq!(out.len() as u64 + ledger.stats.loss(), sent, "conservation across threads");
    assert!(out.len() > 1_000, "most frames should flow: {}", out.len());
}

#[test]
fn unroutable_frames_are_dropped_not_misdelivered() {
    let clock = ManualClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock);
    let mut host = RecordingHost::default();
    // The VR routes only 10.0.2.0/24.
    let vr = lvrm.add_vr("strict", &[subnet(10, 0, 1)], routed_vr("s"), &mut host);
    let mut out = Vec::new();
    // Frame to an unrouted destination: classified (source matches) but the
    // VR drops it.
    let f =
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(172, 16, 0, 1)).udp(1, 2, &[]);
    lvrm.ingress(f, &mut host);
    host.pump();
    lvrm.poll_egress(&mut out);
    assert!(out.is_empty());
    assert_eq!(lvrm.snapshot()[vr.0 as usize].frames_in, 1, "the VR did see the frame");
}
