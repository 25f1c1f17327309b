//! Inter-VRI routing-state synchronization over the control plane — the
//! paper's §2.1 example use of control queues, end to end through LVRM's
//! relay: VRI 0 learns a route, announces it to VRI 1, and both then
//! forward traffic for it identically.

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::ipc::channels::{ControlEvent, Work};
use lvrm::prelude::*;
use lvrm::router::{DynamicVr, RouteUpdate};

#[test]
fn route_update_propagates_between_vris() {
    let clock = ManualClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config = LvrmConfig {
        allocator: lvrm::core::config::AllocatorKind::Fixed { cores: 2 },
        ..LvrmConfig::default()
    };
    let mut lvrm = Lvrm::new(config, cores, clock);
    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr(
        "dyn",
        &[(Ipv4Addr::new(10, 0, 1, 0), 24)],
        Box::new(DynamicVr::new("dyn", RouteTable::new())),
        &mut host,
    );
    assert_eq!(lvrm.vri_count(vr), 2, "fixed allocator pre-assigns both VRIs");
    assert_eq!(host.vris.len(), 2);

    // Neither instance can route 10.0.2.0/24 yet.
    let frame = || {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9)).udp(5000, 80, &[])
    };
    lvrm.ingress(frame(), &mut host);
    host.pump();
    let mut out = Vec::new();
    lvrm.poll_egress(&mut out);
    assert!(out.is_empty(), "no route installed yet");

    // VRI 0 learns the route and announces it to VRI 1 via a control event.
    let update = RouteUpdate::Add(lvrm::router::Route {
        prefix: Ipv4Addr::new(10, 0, 2, 0),
        len: 24,
        iface: 1,
        next_hop: None,
    });
    let (vri0, vri1) = (host.spawned[0].vri, host.spawned[1].vri);
    // Apply locally at VRI 0 and emit the announcement upstream.
    {
        let svc0 = &mut host.vris[0];
        let dyn0 = svc0
            .router_mut()
            .as_any_mut()
            .downcast_mut::<DynamicVr>()
            .expect("hosted router is a DynamicVr");
        dyn0.apply(&update);
        svc0.endpoint_mut()
            .ctrl_tx
            .try_send(ControlEvent::new(vri0.0, vri1.0, update.to_bytes()))
            .unwrap();
    }
    // LVRM relays the event to VRI 1, which applies it.
    lvrm.process_control();
    {
        let svc1 = &mut host.vris[1];
        match svc1.endpoint_mut().next_work() {
            Some(Work::Control(ev)) => {
                let dyn1 = svc1
                    .router_mut()
                    .as_any_mut()
                    .downcast_mut::<DynamicVr>()
                    .expect("hosted router is a DynamicVr");
                assert!(dyn1.apply_payload(&ev.payload), "payload is a route update");
            }
            other => panic!("expected relayed control event, got {other:?}"),
        }
    }
    assert_eq!(lvrm.stats().control_relayed, 1);

    // Now frames flow regardless of which VRI the balancer picks.
    for _ in 0..20 {
        lvrm.ingress(frame(), &mut host);
    }
    host.pump();
    lvrm.poll_egress(&mut out);
    assert_eq!(out.len(), 20, "both instances route the new prefix");
    assert!(out.iter().all(|f| f.egress_if == 1));
}
