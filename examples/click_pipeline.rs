//! Hosting a Click VR: parse a configuration script into an element
//! pipeline, run mixed traffic through it, and read the element counters —
//! the extensibility story of paper §3.8 ("LVRM is designed with the
//! capability of hosting different implementations of VRs").
//!
//! ```sh
//! cargo run --release --example click_pipeline
//! ```

use std::net::Ipv4Addr;

use lvrm::click::ClickVr;
use lvrm::core::host::RecordingHost;
use lvrm::prelude::*;
use lvrm::runtime::RingAdapter;

const CONFIG: &str = "
// Campus edge pipeline: validate, classify, route, count.
in0  :: FromDevice(0);
chk  :: CheckIPHeader;
cls  :: Classifier(ip proto udp, ip proto tcp, -);
rt   :: LookupIPRoute(10.0.2.0/24 0, 10.0.3.0/24 1);
udp_cnt :: Counter;
tcp_cnt :: Counter;
oddballs :: Discard;

in0 -> chk;
chk[0] -> cls;
chk[1] -> bad :: Discard;
cls[0] -> udp_cnt -> rt;
cls[1] -> tcp_cnt -> rt;
cls[2] -> oddballs;
rt[0] -> ToDevice(1);
rt[1] -> ToDevice(2);
";

fn main() {
    let clock = MonotonicClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock);
    let click = ClickVr::from_config("edge", CONFIG).expect("config parses");
    println!("compiled Click graph with {} elements", click.graph().len());

    let mut host = RecordingHost::default();
    let vr = lvrm.add_vr("edge", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], Box::new(click), &mut host);

    // Mixed traffic: UDP to 10.0.2.x, TCP to 10.0.3.x, offered through a
    // PF_RING-style ring pair standing in for the NIC.
    let mut frames = Vec::new();
    let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9));
    for i in 0..600u16 {
        frames.push(b.udp(1000 + i, 53, &[0u8; 30]));
    }
    let mut b2 = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 6), Ipv4Addr::new(10, 0, 3, 9));
    for i in 0..400u32 {
        frames.push(b2.tcp(2000 + i as u16, 80, i * 1460, 0, 0x10, 0xffff, &[0u8; 100]));
    }
    let (mut nic, mut wire) = RingAdapter::pair(1024);
    wire.send_batch(&mut frames).expect("the ring holds the traffic");
    while nic.rx_pending() > 0 {
        lvrm.run_burst(&mut nic, &mut host);
    }
    let mut out = Vec::new();
    wire.poll_batch(&mut out, usize::MAX).expect("egress ring");

    let to_if1 = out.iter().filter(|f| f.egress_if == 1).count();
    let to_if2 = out.iter().filter(|f| f.egress_if == 2).count();
    println!("forwarded {} frames: {to_if1} out if1 (UDP), {to_if2} out if2 (TCP)", out.len());
    let (vr_in, vr_out) = lvrm.vr_frame_counts(vr);
    println!("VR processed {vr_in} frames, returned {vr_out}");
    assert_eq!(to_if1, 600);
    assert_eq!(to_if2, 400);
}
