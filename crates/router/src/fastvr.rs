//! `FastVr` — the paper's "C++ VR".
//!
//! "A simple data forwarding program written in C++ … performs the minimal
//! data forwarding function, i.e., by simply relaying data frames from an
//! input network interface to an output network interface" (§3.8). Our
//! version does the same minimal work: longest-prefix-match on the
//! destination address, stamp the egress interface, done. Because it skips
//! Click's element machinery it is the lightweight end of the VR spectrum
//! ("we expect that the C++ VR is more lightweight and can eliminate the
//! internal processing overhead in Click").

use std::sync::Arc;

use lvrm_net::Frame;

use crate::rib::RouteTable;
use crate::vr::{RouterAction, VirtualRouter};

/// Default nominal per-frame cost of the C++ VR in the testbed's cost model,
/// calibrated (with the LVRM dispatch cost) against the paper's 3.7 Mfps
/// LVRM-only anchor for 84-byte frames (Fig. 4.5).
pub const CPP_VR_COST_NS: u64 = 120;

/// Minimal-forwarding virtual router.
pub struct FastVr {
    name: String,
    routes: Arc<RouteTable>,
    dummy_load_ns: u64,
    /// Frames processed by this instance (observability for the examples).
    pub processed: u64,
    /// Frames dropped for lack of a route.
    pub no_route: u64,
}

impl FastVr {
    /// Create a C++ VR over a finished route table.
    pub fn new(name: impl Into<String>, routes: RouteTable) -> FastVr {
        FastVr {
            name: name.into(),
            routes: Arc::new(routes),
            dummy_load_ns: 0,
            processed: 0,
            no_route: 0,
        }
    }

    /// Add the synthetic per-frame load Chapter 4 uses (e.g. `1_000_000/60`
    /// ns — "a dummy processing load of 1/60 ms").
    pub fn with_dummy_load_ns(mut self, ns: u64) -> FastVr {
        self.dummy_load_ns = ns;
        self
    }

    /// The shared route table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }
}

impl VirtualRouter for FastVr {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, frame: &mut Frame) -> RouterAction {
        self.processed += 1;
        let Ok(dst) = frame.dst_ip() else {
            self.no_route += 1;
            return RouterAction::Drop;
        };
        match self.routes.lookup(dst) {
            Some(route) => {
                frame.egress_if = route.iface;
                RouterAction::Forward { iface: route.iface }
            }
            None => {
                self.no_route += 1;
                RouterAction::Drop
            }
        }
    }

    fn dummy_load_ns(&self) -> u64 {
        self.dummy_load_ns
    }

    fn nominal_cost_ns(&self) -> u64 {
        CPP_VR_COST_NS
    }

    fn spawn_instance(&self) -> Box<dyn VirtualRouter> {
        Box::new(FastVr {
            name: self.name.clone(),
            routes: Arc::clone(&self.routes),
            dummy_load_ns: self.dummy_load_ns,
            processed: 0,
            no_route: 0,
        })
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapfile::parse_map_file;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn vr() -> FastVr {
        let routes = parse_map_file("10.0.2.0/24 1\n10.0.1.0/24 0\n").unwrap();
        FastVr::new("deptA", routes)
    }

    fn frame_to(dst: Ipv4Addr) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), dst).udp(1000, 2000, &[0u8; 18])
    }

    #[test]
    fn forwards_via_route_table() {
        let mut vr = vr();
        let mut f = frame_to(Ipv4Addr::new(10, 0, 2, 9));
        assert_eq!(vr.process(&mut f), RouterAction::Forward { iface: 1 });
        assert_eq!(f.egress_if, 1);
        assert_eq!(vr.processed, 1);
    }

    #[test]
    fn drops_unroutable_frames() {
        let mut vr = vr();
        let mut f = frame_to(Ipv4Addr::new(192, 168, 1, 1));
        assert_eq!(vr.process(&mut f), RouterAction::Drop);
        assert_eq!(vr.no_route, 1);
        assert_eq!(f.egress_if, Frame::NO_IF);
    }

    #[test]
    fn drops_non_ipv4_frames() {
        let mut vr = vr();
        let mut raw = vec![0u8; 60];
        raw[12] = 0x08;
        raw[13] = 0x06; // ARP
        let mut f = Frame::new(&raw);
        assert_eq!(vr.process(&mut f), RouterAction::Drop);
    }

    #[test]
    fn instances_share_routes_not_counters() {
        let mut vr = vr().with_dummy_load_ns(16_667);
        let mut f = frame_to(Ipv4Addr::new(10, 0, 2, 9));
        vr.process(&mut f);
        let mut inst = vr.spawn_instance();
        assert_eq!(inst.name(), "deptA");
        assert_eq!(inst.dummy_load_ns(), 16_667);
        let mut f2 = frame_to(Ipv4Addr::new(10, 0, 2, 10));
        assert_eq!(inst.process(&mut f2), RouterAction::Forward { iface: 1 });
        // The parent's counter did not move when the instance processed.
        assert_eq!(vr.processed, 1);
    }
}
