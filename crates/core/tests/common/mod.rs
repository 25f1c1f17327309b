//! What the suites in this directory build their monitors from.

#![allow(dead_code)] // each suite uses its own subset

use std::net::Ipv4Addr;
use std::path::PathBuf;

use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    RecordingHost,
};
use lvrm_ipc::QueueKind;
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::VirtualRouter;

/// The queue kinds a suite sweeps: `LVRM_CHAOS_QUEUE` (`lamport` or
/// `vlink`) pins one, as CI's soak legs do; unset runs both.
pub fn queue_kinds() -> Vec<QueueKind> {
    match std::env::var("LVRM_CHAOS_QUEUE") {
        Ok(want) => vec![want.parse::<QueueKind>().expect("LVRM_CHAOS_QUEUE")],
        Err(_) => QueueKind::ALL.to_vec(),
    }
}

/// A monitor on the paper's dual quad-core gateway, pinned to core 0.
pub fn new_lvrm(clock: ManualClock, config: LvrmConfig) -> Lvrm<ManualClock> {
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    Lvrm::new(config, cores, clock)
}

/// Two VRIs a VR, supervised.
pub fn chaos_config(kind: QueueKind) -> LvrmConfig {
    LvrmConfig {
        queue_kind: kind,
        allocator: AllocatorKind::Fixed { cores: 2 },
        supervision: true,
        ..Default::default()
    }
}

/// A VR that routes everything, so every classified frame comes back out.
pub fn routed_vr(name: &str) -> Box<dyn VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new(name, routes))
}

/// The test VR's subnet.
pub fn subnet() -> [(Ipv4Addr, u8); 1] {
    [(Ipv4Addr::new(10, 0, 1, 0), 24)]
}

/// Flow `i` of a population of distinct 5-tuples in [`subnet`].
pub fn flow_frame(i: usize) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 20 + i as u8), Ipv4Addr::new(10, 0, 2, 1)).udp(
        4000 + i as u16,
        80,
        &[],
    )
}

/// A drained monitor's ledger (`lvrm_core::ledger`, DESIGN.md §9): every
/// identity, nothing queued, and — every VR here forwards every frame —
/// nothing unreturned.
pub fn assert_settled(lvrm: &Lvrm<ManualClock>, ctx: &str) {
    let ledger = lvrm.ledger();
    assert_eq!(ledger.check_settled(), Ok(()), "{ctx}: {ledger}");
}

/// A file of this process under the temporary directory.
pub fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lvrm-core-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}", std::process::id()))
}

/// Pump/relay/collect until nothing moves (no simulated time advances).
pub fn drain(lvrm: &mut Lvrm<ManualClock>, host: &mut RecordingHost, out: &mut Vec<Frame>) {
    loop {
        let processed = host.pump();
        lvrm.process_control();
        let egress = lvrm.poll_egress(out);
        if processed == 0 && egress == 0 {
            break;
        }
    }
}
