//! A control round rebuilds only what changed (DESIGN.md §10): each flow
//! table hands a checkpoint the very section it made for the one before
//! until a flow arrives or leaves, or a hit moves a timestamp into another
//! export quantum, and a delta passes over a section two checkpoints share
//! without reading it. What is asserted is which sections are shared and
//! what the deltas carry: counts, not times, so they hold on any machine.

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::core::{Checkpoint, CheckpointDelta};
use lvrm::prelude::*;

/// The export quantum at the default 30-s flow timeout: 30 s / 16, rounded
/// down to a power of two.
const QUANTUM: u64 = 1 << 30;
const VRS: u8 = 4;

/// One frame of flow `f` of VR `vr`.
fn frame(vr: u8, f: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 10 + vr, f + 1), Ipv4Addr::new(10, 0, 200, 1)).udp(
        1000 + u16::from(f),
        80,
        &[],
    )
}

/// A flow-based monitor and the host of its VRIs, on a manual clock.
struct Rig {
    lvrm: Lvrm<ManualClock>,
    host: RecordingHost,
    clock: ManualClock,
}

impl Rig {
    /// Offer `frames` at `t_ns`, let every VRI return them, and checkpoint.
    fn offer(&mut self, t_ns: u64, mut frames: Vec<Frame>) -> Checkpoint {
        self.clock.set_ns(t_ns);
        self.lvrm.ingress_batch(&mut frames, &mut self.host);
        let mut out = Vec::new();
        while self.host.pump() + self.lvrm.poll_egress(&mut out) > 0 {}
        self.lvrm.build_checkpoint(t_ns)
    }
}

/// Per VR, whether `next` holds the same section `prev` did.
fn shared(prev: &Checkpoint, next: &Checkpoint) -> Vec<bool> {
    prev.vrs.iter().zip(&next.vrs).map(|(p, n)| p.flows.shares_records(&n.flows)).collect()
}

/// Per VR, the delta's (evictions, upserts) from `prev` to `next`.
fn churn(prev: &Checkpoint, next: &Checkpoint) -> Vec<(usize, usize)> {
    let delta = CheckpointDelta::diff(prev, next, 1);
    delta.vrs.iter().map(|v| (v.evictions.len(), v.upserts.len())).collect()
}

#[test]
fn a_checkpoint_rebuilds_only_the_sections_that_changed() {
    let clock = ManualClock::new();
    let config = LvrmConfig {
        flow_based: true,
        allocator: AllocatorKind::Fixed { cores: 2 },
        batch_size: 32,
        ..Default::default()
    };
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = RecordingHost::default();
    for vr in 0..VRS {
        let routes = lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let name = format!("vr{vr}");
        let prefix = (Ipv4Addr::new(10, 0, 10 + vr, 0), 24);
        lvrm.add_vr(&name, &[prefix], Box::new(FastVr::new(&name, routes)), &mut host);
    }
    lvrm.maybe_reallocate(0, &mut host);
    let mut rig = Rig { lvrm, host, clock };
    let every_flow = || (0..VRS).flat_map(|vr| (0..8).map(move |f| frame(vr, f))).collect();

    let first = rig.offer(1_000, every_flow());
    assert!(first.vrs.iter().all(|v| v.flows.len() == 8));

    // Every flow hit again, later but inside the same quantum: nothing the
    // checkpoint ships has moved, so every section is the one it had.
    let second = rig.offer(QUANTUM - 1, every_flow());
    assert_eq!(shared(&first, &second), [true; VRS as usize]);
    assert_eq!(churn(&first, &second), [(0, 0); VRS as usize]);

    // One new flow in VR 2: VR 2's section alone is made afresh.
    let third = rig.offer(QUANTUM - 1, vec![frame(2, 100)]);
    assert_eq!(shared(&second, &third), [true, true, false, true]);
    assert_eq!(churn(&second, &third), [(0, 0), (0, 0), (0, 1), (0, 0)]);
    assert_eq!(third.vrs[2].flows.len(), 9);

    // A hit just past the quantum's end re-stamps one flow of VR 2, which
    // ships at the new quantum: VR 2's section is made afresh again.
    let fourth = rig.offer(QUANTUM + 5, vec![frame(2, 3)]);
    assert_eq!(shared(&third, &fourth), [true, true, false, true]);
    let delta = CheckpointDelta::diff(&third, &fourth, 1);
    assert_eq!(churn(&third, &fourth), [(0, 0), (0, 0), (0, 1), (0, 0)]);
    assert_eq!(delta.vrs[2].upserts[0].last_seen_ns, QUANTUM, "shipped at its quantum");
    assert!(third.vrs[2].flows.iter().all(|f| f.last_seen_ns == 0));
}
