//! Property test across crates: a Click pipeline built from `LookupIPRoute`
//! must make exactly the same forwarding decisions as a `FastVr` with the
//! equivalent route table — the two hosted VR types are interchangeable
//! behind the `VirtualRouter` trait (paper §3.8).

use std::net::Ipv4Addr;

use lvrm::click::ClickVr;
use lvrm::prelude::*;
use lvrm::router::{Route, RouterAction};
use proptest::prelude::*;

fn fast_vr() -> FastVr {
    let mut routes = RouteTable::new();
    routes.insert(Route { prefix: Ipv4Addr::new(10, 0, 2, 0), len: 24, iface: 1, next_hop: None });
    routes.insert(Route { prefix: Ipv4Addr::new(10, 0, 0, 0), len: 16, iface: 2, next_hop: None });
    FastVr::new("fast", routes)
}

fn click_vr() -> ClickVr {
    ClickVr::from_config(
        "click",
        "FromDevice(0) -> rt :: LookupIPRoute(10.0.2.0/24 1, 10.0.0.0/16 2);\n\
         rt[1] -> ToDevice(1); rt[2] -> ToDevice(2);",
    )
    .expect("config compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn same_decisions_for_any_destination(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 1u8..=254) {
        let dst = Ipv4Addr::new(a, b, c, d);
        let mut fast = fast_vr();
        let mut click = click_vr();
        let mut f1 = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), dst).udp(1, 2, &[0u8; 26]);
        let mut f2 = f1.clone();
        let r1 = fast.process(&mut f1);
        let r2 = click.process(&mut f2);
        prop_assert_eq!(r1, r2, "divergence for dst {}", dst);
        if let RouterAction::Forward { .. } = r1 {
            prop_assert_eq!(f1.egress_if, f2.egress_if);
        }
    }

    #[test]
    fn lpm_priority_is_respected(c in 0u8..=255, d in 1u8..=254) {
        // Destinations inside 10.0.2.0/24 take iface 1 even though the /16
        // also matches.
        let mut fast = fast_vr();
        let mut f = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, d))
            .udp(1, 2, &[]);
        prop_assert_eq!(fast.process(&mut f), RouterAction::Forward { iface: 1 });
        let mut g = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 3, d.max(1)))
            .udp(1, 2, &vec![0u8; c as usize]);
        prop_assert_eq!(fast.process(&mut g), RouterAction::Forward { iface: 2 });
    }
}

/// The frames a router should refuse. Neither hosted type refuses them by
/// itself — both route on the destination alone, so they still agree — and a
/// Click tenant that checks says so in its configuration: the benchmark's
/// five elements drop all three kinds, and relay what they forward unchanged.
#[test]
fn decisions_for_expired_corrupt_and_non_ip_frames() {
    let checking = "FromDevice(0) -> CheckIPHeader -> DecIPTTL \
                    -> rt :: LookupIPRoute(10.0.2.0/24 1, 10.0.0.0/16 2);\n\
                    rt[1] -> ToDevice(1); rt[2] -> ToDevice(2);";
    let mut checking = ClickVr::from_config("checking", checking).expect("config compiles");
    let (mut fast, mut click) = (fast_vr(), click_vr());
    let build = |ttl| {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .ttl(ttl)
            .udp(1, 2, &[0u8; 26])
    };
    let mut corrupt = build(64);
    corrupt.modify_bytes(|b| b[14 + 10] ^= 0xFF);
    let mut arp = build(64);
    arp.modify_bytes(|b| b[12..14].copy_from_slice(&[0x08, 0x06]));
    let forward = RouterAction::Forward { iface: 1 };
    for (frame, unchecked, checked) in [
        (build(64), forward, forward),
        (build(2), forward, forward),
        (build(1), forward, RouterAction::Drop),
        (build(0), forward, RouterAction::Drop),
        (corrupt, forward, RouterAction::Drop),
        (arp, RouterAction::Drop, RouterAction::Drop),
    ] {
        assert_eq!(fast.process(&mut frame.clone()), unchecked, "FastVr, {frame:?}");
        assert_eq!(click.process(&mut frame.clone()), unchecked, "ClickVr, {frame:?}");
        let mut relayed = frame.clone();
        assert_eq!(checking.process(&mut relayed), checked, "checking ClickVr, {frame:?}");
        assert_eq!(relayed.bytes(), frame.bytes(), "relayed unchanged");
    }
    assert_eq!(checking.dropped, 4);
}

#[test]
fn both_types_host_identically_under_lvrm() {
    use lvrm::core::host::RecordingHost;
    for use_click in [false, true] {
        let clock = ManualClock::new();
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock);
        let mut host = RecordingHost::default();
        let router: Box<dyn VirtualRouter> =
            if use_click { Box::new(click_vr()) } else { Box::new(fast_vr()) };
        let _ = lvrm.add_vr("vr", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], router, &mut host);
        let mut out = Vec::new();
        for i in 0..50u16 {
            let f = FrameBuilder::new(
                Ipv4Addr::new(10, 0, 1, 5),
                Ipv4Addr::new(10, 0, 2, (i % 250) as u8 + 1),
            )
            .udp(1000 + i, 80, &[0u8; 10]);
            lvrm.ingress(f, &mut host);
        }
        host.pump();
        lvrm.poll_egress(&mut out);
        assert_eq!(out.len(), 50, "click={use_click}");
        assert!(out.iter().all(|f| f.egress_if == 1));
    }
}
