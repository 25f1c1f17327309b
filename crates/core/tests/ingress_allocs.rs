//! Steady-state burst ingress allocates nothing: once a monitor has seen
//! its traffic, `ingress_batch` and `poll_egress` run on the scratch
//! vectors earlier bursts grew (VR buckets, keys, picks, per-VRI runs) and
//! on the VRIs' queues, never on the allocator.
//!
//! A counting global allocator counts only the calls made on the test's
//! own thread while it is counting, so tests running beside it in this
//! binary do not show up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use lvrm_core::config::BalancerKind;
use lvrm_core::{
    AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
    RecordingHost,
};
use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::VirtualRouter;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also serves threads whose locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

const BURST: usize = 32;
const FLOWS_PER_VR: u16 = 16;
/// Distinct burst shapes, replayed in the same order in warm-up and after.
const SHAPES: usize = 64;

/// `SHAPES` bursts over `vrs` VRs: some spread over every VR, some all on
/// one, flows recurring so flow tables only hit once warm.
fn bursts(vrs: usize) -> Vec<Vec<Frame>> {
    (0..SHAPES)
        .map(|shape| {
            (0..BURST)
                .map(|i| {
                    let vr = if shape % 4 == 0 { shape / 4 % vrs } else { (shape + i * 7) % vrs };
                    let flow = ((shape * 5 + i) % FLOWS_PER_VR as usize) as u16;
                    let src = Ipv4Addr::new(10, vr as u8, 0, flow as u8 + 1);
                    FrameBuilder::new(src, Ipv4Addr::new(192, 168, 0, 1)).udp(
                        1000 + flow,
                        53,
                        &[0; 18],
                    )
                })
                .collect()
        })
        .collect()
}

/// A monitor of `vrs` VRs of `vris` VRIs each on a recording host.
fn monitor(vrs: usize, vris: usize, flow_based: bool) -> (Lvrm<ManualClock>, RecordingHost) {
    let cores = CoreMap::new(
        CoreTopology::single_package((vrs * vris + 1) as u16),
        CoreId(0),
        AffinityMode::SiblingFirst,
    );
    let config = LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: vris },
        balancer: BalancerKind::Jsq,
        flow_based,
        batch_size: BURST,
        ..LvrmConfig::default()
    };
    let mut lvrm = Lvrm::new(config, cores, ManualClock::new());
    let mut host = RecordingHost::default();
    for vr in 0..vrs {
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let name = format!("vr{vr}");
        let router: Box<dyn VirtualRouter> = Box::new(lvrm_router::FastVr::new(&name, routes));
        let id = lvrm.add_vr(name, &[(Ipv4Addr::new(10, vr as u8, 0, 0), 16)], router, &mut host);
        assert_eq!(lvrm.vri_count(id), vris);
    }
    (lvrm, host)
}

/// Warm `vrs` × `vris` up on every burst shape twice, then count what
/// 1000 more bursts allocate inside `ingress_batch` and `poll_egress`.
fn steady_state_allocs(vrs: usize, vris: usize, flow_based: bool) -> u64 {
    let (mut lvrm, mut host) = monitor(vrs, vris, flow_based);
    let shapes = bursts(vrs);
    let mut burst = Vec::with_capacity(BURST);
    let mut out = Vec::with_capacity(4 * BURST);
    let mut run = |n: usize, lvrm: &mut Lvrm<ManualClock>, host: &mut RecordingHost| {
        let mut allocs = 0;
        for i in 0..n {
            burst.extend(shapes[i % SHAPES].iter().cloned());
            allocs += allocs_in(|| lvrm.ingress_batch(&mut burst, host));
            host.pump();
            allocs += allocs_in(|| {
                lvrm.poll_egress(&mut out);
            });
            assert_eq!(out.len(), BURST, "every frame of burst {i} came back");
            out.clear();
        }
        allocs
    };
    run(2 * SHAPES, &mut lvrm, &mut host);
    let allocs = run(1000, &mut lvrm, &mut host);
    assert_eq!(lvrm.stats().frames_out, lvrm.stats().frames_in, "nothing was dropped");
    allocs
}

#[test]
fn many_tenant_burst_ingress_allocates_nothing_once_warm() {
    assert_eq!(steady_state_allocs(16, 2, true), 0, "16 VRs x 2 VRIs, flow-based");
    assert_eq!(steady_state_allocs(16, 2, false), 0, "16 VRs x 2 VRIs, frame-based");
}

#[test]
fn relay_burst_ingress_allocates_nothing_once_warm() {
    assert_eq!(steady_state_allocs(1, 1, false), 0, "1 VR x 1 VRI");
}
