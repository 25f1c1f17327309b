//! Dispatch makespan under a quota-paced host (DESIGN.md §11): what a
//! dispatch policy costs when one VRI is slow, in exact simulated steps.
//!
//! Every VRI services a fixed frame quota per simulated millisecond. The
//! classic kinds commit each frame to one VRI's SPSC queue at dispatch time,
//! so the share of a burst queued behind a 10×-slowed instance drains at its
//! pace while the siblings idle — JSQ spreads by queue length *at dispatch*
//! and cannot migrate what it already enqueued. Under `vlink` the burst sits
//! in the shared ring and the fast VRIs steal through it, so the makespan
//! tracks aggregate capacity: 9 steps a cycle against 58, the 6.44×
//! work-stealing claim. Everything runs on the manual clock, so the step
//! counts are exact on any machine.
//!
//! Set `LVRM_CHAOS_QUEUE` to `lamport` or `vlink` to restrict the sweep;
//! unset runs both.

use std::net::Ipv4Addr;

use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    VrId, VriHost, VriId, VriSpec,
};
use lvrm_ipc::channels::Work;
use lvrm_ipc::{QueueKind, VriEndpoint};
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::{RouterAction, VirtualRouter};

mod common;
use common::queue_kinds;

const VRIS: usize = 3;
/// Frames one healthy VRI services per simulated millisecond step.
const FAST_QUOTA: usize = 40;
/// The skew profile: the first-spawned VRI at a 10× slowdown.
const SLOW_QUOTA: usize = FAST_QUOTA / 10;
/// Frames per burst-drain cycle: fills each per-VRI queue (capacity 256) to
/// 232 under an even JSQ spread, and fits the VLink ring (4 × 256) whole.
/// 232 / 40 = 5.8 keeps the uniform makespan clear of a step boundary, so
/// the ±1-frame wobble of a burst spread cannot flip a whole step.
const CYCLE_FRAMES: usize = VRIS * 232;
const CYCLES: u64 = 5;
/// A recurring flow mix that spreads evenly over the instances.
const FLOWS: u32 = 96;

/// A host whose instances service a fixed frame quota per simulated step:
/// the deterministic stand-in for "this VRI's core is N× slower".
#[derive(Default)]
struct PacedHost {
    slots: Vec<(VriSpec, VriEndpoint<Frame>, Box<dyn VirtualRouter>)>,
}

impl VriHost for PacedHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.slots.push((spec, endpoint, router));
    }

    fn kill_vri(&mut self, _vr: VrId, vri: VriId) {
        self.slots.retain(|(spec, _, _)| spec.vri != vri);
    }
}

impl PacedHost {
    /// Run one step: slot `i` services at most `quotas[i]` data frames.
    fn service(&mut self, quotas: &[usize; VRIS]) {
        for ((_, endpoint, router), &quota) in self.slots.iter_mut().zip(quotas) {
            let mut left = quota;
            while left > 0 {
                match endpoint.next_work() {
                    Some(Work::Data(mut frame)) => {
                        left -= 1;
                        if let RouterAction::Forward { .. } = router.process(&mut frame) {
                            let _ = endpoint.data_tx.try_send(frame);
                        }
                    }
                    Some(Work::Control(_)) => {}
                    None => break,
                }
            }
        }
    }
}

/// One VR on `VRIS` paced instances, fed bursts of `batch` from a cursor
/// over the flow mix.
struct Rig {
    clock: ManualClock,
    lvrm: Lvrm<ManualClock>,
    host: PacedHost,
    batch: usize,
    flow: u32,
    steps: u64,
}

impl Rig {
    fn new(kind: QueueKind, batch: usize, overload_shedding: bool) -> Rig {
        let config = LvrmConfig {
            queue_kind: kind,
            data_queue_capacity: 256,
            allocator: AllocatorKind::Fixed { cores: VRIS },
            batch_size: batch,
            overload_shedding,
            ..Default::default()
        };
        let clock = ManualClock::new();
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = PacedHost::default();
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let router = Box::new(lvrm_router::FastVr::new("vr", routes));
        lvrm.add_vr("vr", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], router, &mut host);
        assert_eq!(host.slots.len(), VRIS);
        Rig { clock, lvrm, host, batch, flow: 0, steps: 0 }
    }

    fn offer(&mut self, frames: usize) {
        let mut burst: Vec<Frame> = Vec::with_capacity(self.batch);
        let mut left = frames;
        while left > 0 {
            let n = self.batch.min(left);
            left -= n;
            burst.extend((0..n as u32).map(|i| {
                let flow = (self.flow + i) % FLOWS;
                FrameBuilder::new(
                    Ipv4Addr::new(10, 0, 1, 1 + flow as u8),
                    Ipv4Addr::new(10, 0, 2, 1),
                )
                .udp(1000 + flow as u16, 2, &[])
            }));
            self.flow = (self.flow + n as u32) % FLOWS;
            self.lvrm.ingress_batch(&mut burst, &mut self.host);
            burst.clear();
        }
    }

    /// One simulated millisecond: `offered` frames arrive, every VRI
    /// services its quota, the monitor collects what they returned.
    fn step(&mut self, offered: usize, quotas: &[usize; VRIS]) {
        self.steps += 1;
        self.clock.advance_ns(1_000_000);
        self.offer(offered);
        self.host.service(quotas);
        self.lvrm.process_control();
        self.lvrm.poll_egress(&mut Vec::new());
    }
}

/// Steps to deliver `CYCLES` burst-drain cycles: each cycle ingests
/// `CYCLE_FRAMES`, then steps until all of it is out.
fn makespan_steps(kind: QueueKind, batch: usize, quotas: [usize; VRIS]) -> u64 {
    let mut rig = Rig::new(kind, batch, false);
    for cycle in 1..=CYCLES {
        rig.offer(CYCLE_FRAMES);
        // Every frame fits a queue, so nothing should drop; the cap turns an
        // accounting surprise into a loud failure, not a hang.
        let cap = rig.steps + (64 * CYCLE_FRAMES / SLOW_QUOTA) as u64;
        while rig.lvrm.stats().frames_out < cycle * CYCLE_FRAMES as u64 {
            assert!(rig.steps < cap, "cycle {cycle} failed to drain: {:?}", rig.lvrm.stats());
            rig.step(0, &quotas);
        }
    }
    assert_eq!(rig.lvrm.stats().dispatch_drops, 0, "makespan cycles must not drop");
    rig.steps
}

/// Uniform VRIs: ⌈232 / 40⌉ = 6 steps a cycle for every kind — 696 frames
/// in 6 ms, the 116.0 kfps the retired report recorded in all twelve cells.
/// The shared ring costs nothing when there is nothing to steal.
#[test]
fn uniform_makespan_is_six_steps_a_cycle_for_every_kind() {
    for kind in queue_kinds() {
        for batch in [1, 32, 256] {
            let steps = makespan_steps(kind, batch, [FAST_QUOTA; VRIS]);
            assert_eq!(steps, 6 * CYCLES, "{kind:?} batch {batch}");
        }
    }
}

/// One VRI 10× slower. Classic kinds: its committed 232 frames drain at 4 a
/// step, 58 steps a cycle (12.0 kfps). `vlink`: 84 frames a step in
/// aggregate, ⌈696 / 84⌉ = 9 steps (77.33 kfps) — 58 / 9 = 6.44× apart.
#[test]
fn a_slow_vri_costs_its_backlog_unless_siblings_can_steal() {
    for kind in queue_kinds() {
        let per_cycle = if kind == QueueKind::VLink { 9 } else { 58 };
        for batch in [1, 32, 256] {
            let steps = makespan_steps(kind, batch, [SLOW_QUOTA, FAST_QUOTA, FAST_QUOTA]);
            assert_eq!(steps, per_cycle * CYCLES, "{kind:?} batch {batch}");
        }
    }
}

/// 2× aggregate capacity for 1000 steps with early shedding on, then 32
/// steps to drain: goodput is capacity plus what the queues held at the
/// end, to the frame (50.27 % classic, 50.38 % `vlink` in the retired
/// report, which also ran this at 60 steps under `--smoke` and compared the
/// 54.5 % that gives against these through a 10 % tolerance).
#[test]
fn overload_goodput_is_capacity_plus_the_queues() {
    const STEPS: usize = 1000;
    let offered = 2 * VRIS * FAST_QUOTA;
    for kind in queue_kinds() {
        let mut rig = Rig::new(kind, 32, true);
        for step in 0..STEPS + 32 {
            rig.step(if step < STEPS { offered } else { 0 }, &[FAST_QUOTA; VRIS]);
        }
        let s = rig.lvrm.stats();
        let out = if kind == QueueKind::VLink { 120_904 } else { 120_648 };
        assert_eq!((s.frames_in, s.frames_out), ((STEPS * offered) as u64, out), "{kind:?}");
    }
}
