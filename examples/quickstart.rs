//! Quickstart: host one virtual router, push a trace through it, print what
//! happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::prelude::*;
use lvrm::runtime::RingAdapter;

const FRAMES: usize = 10_000;

fn main() {
    // The same relay at the paper's per-frame loop and at 32 frames a burst
    // (one classify pass, one load-view refresh and one bulk enqueue per VRI,
    // DESIGN.md §6).
    for batch_size in [1, 32] {
        relay(batch_size);
    }
}

fn relay(batch_size: usize) {
    // LVRM runs on core 0 of the paper's dual quad-core gateway; VRIs get
    // sibling cores first.
    let clock = MonotonicClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config = LvrmConfig { batch_size, ..LvrmConfig::default() };
    let mut lvrm = Lvrm::new(config, cores, clock);

    // One VR, owning subnet 10.0.1.0/24, routing everything toward
    // interface 1 via a static map file (paper §3.7).
    let routes = lvrm::router::parse_map_file(
        "# static routes for dept-a\n\
         10.0.2.0/24  1\n\
         0.0.0.0/0    1\n",
    )
    .expect("valid map file");
    let mut host = RecordingHost::default(); // single-threaded "runtime"
    let vr = lvrm.add_vr(
        "dept-a",
        &[(Ipv4Addr::new(10, 0, 1, 0), 24)],
        Box::new(FastVr::new("dept-a", routes)),
        &mut host,
    );
    let name = &lvrm.snapshot()[vr.0 as usize].name;
    println!("registered {name} ({} VRI), burst {batch_size}", lvrm.vri_count(vr));

    // A PF_RING-style ring pair stands in for the NIC: a small in-memory
    // trace goes in at the wire end, and forwarded frames come back out.
    let (mut nic, mut wire) = RingAdapter::pair(16_384);
    let mut trace = Trace::generate(&TraceSpec::new(84, 32));
    let mut frames: Vec<Frame> = (0..FRAMES).map(|_| trace.next_frame()).collect();
    wire.send_batch(&mut frames).expect("the ring holds the trace");
    // The monitor loop: each burst polls, dispatches, services the VRI,
    // relays control, ticks and sends egress (`Lvrm::run_burst`).
    while nic.rx_pending() > 0 {
        lvrm.run_burst(&mut nic, &mut host);
    }
    let mut out = Vec::new();
    wire.poll_batch(&mut out, usize::MAX).expect("egress ring");

    let snap = &lvrm.snapshot()[vr.0 as usize];
    let (vr_in, vr_out) = (snap.frames_in, snap.frames_out);
    println!("frames in        : {}", lvrm.stats().frames_in);
    println!("frames forwarded : {} (VR saw {vr_in}, returned {vr_out})", out.len());
    println!("unclassified     : {}", lvrm.stats().unclassified);
    println!("dispatch drops   : {}", lvrm.stats().dispatch_drops);
    println!(
        "egress interface of first frame: {}",
        out.first().map(|f| f.egress_if).unwrap_or(u16::MAX)
    );
    assert_eq!(out.len(), FRAMES);
}
