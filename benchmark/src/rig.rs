//! The rig: set-up, the inline VRI host, the two load phases and the sink.
//!
//! Frame path driven here, all of it the program's own code:
//! generator -> `Lvrm::ingress_batch` -> `lvrm-ipc` queues -> VRI service
//! (`ThreadHost`'s pinned thread, or [`InlineHost`] on the monitor thread)
//! -> `VirtualRouter::process` -> `Lvrm::poll_egress` -> sink.
//! No NIC and no loopback socket: frames live in memory from pool to sink.

use std::net::Ipv4Addr;
use std::time::Instant;

use lvrm_click::ClickVr;
use lvrm_core::clock::ManualClock;
use lvrm_core::config::AllocatorKind;
use lvrm_core::host::{VriHost, VriSpec};
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::vri::encode_heartbeat;
use lvrm_core::{Checkpoint, CheckpointDelta, Clock, Lvrm, LvrmConfig, VrId, VriId};
use lvrm_ipc::VriEndpoint;
use lvrm_metrics::LatencyHistogram;
use lvrm_net::Frame;
use lvrm_router::{FastVr, RouterAction, VirtualRouter};
use lvrm_runtime::ThreadHost;

use crate::gen::{seq_of, Plan, RouterKind, IF_VICTIM};
use crate::spec::{Kind, Workload, BURST, NS_PER_FRAME, WINDOW};
use crate::stats::median_u32;
use crate::trace::{Layer, Tracer};

/// Frames an unpaced inline VRI takes per service pass.
const INLINE_PULL: usize = 256;

struct InlineVri {
    vr: VrId,
    vri: VriId,
    endpoint: VriEndpoint<Frame>,
    router: Box<dyn VirtualRouter>,
    /// Frames this VRI may take per offered burst; `usize::MAX` for all.
    per_burst: usize,
    /// Frames it may still take (paced VRIs only).
    credit: usize,
    /// Frames pulled in the current pass.
    pulled: usize,
    /// Forwarded frames its full egress queue refused; retried first, and
    /// no new work is pulled while any wait (a VRI blocks in `toLVRM()`).
    out: Vec<Frame>,
}

/// VRIs serviced on the monitor thread, in three passes over all of them
/// (dequeue, process, enqueue) so each pass is one span per burst.
pub struct InlineHost {
    vris: Vec<InlineVri>,
    /// `service_per_burst` of each VR, indexed by `VrId`.
    pace: Vec<usize>,
    staged: Vec<Frame>,
    process_layer: Layer,
    pub processed: u64,
    /// Frames a VR's `process` dropped (they leave the ledger here).
    pub vr_dropped: u64,
}

impl InlineHost {
    fn new(plan: &Plan) -> InlineHost {
        let click = plan.vrs.iter().any(|v| v.router == RouterKind::Click);
        InlineHost {
            vris: Vec::new(),
            pace: plan.vrs.iter().map(|v| v.service_per_burst).collect(),
            staged: Vec::with_capacity(1024),
            process_layer: if click { Layer::ClickProcess } else { Layer::RouterProcess },
            processed: 0,
            vr_dropped: 0,
        }
    }

    /// A burst was offered: paced VRIs earn the frames they may service.
    fn credit_burst(&mut self) {
        for v in &mut self.vris {
            if v.per_burst != usize::MAX {
                v.credit += v.per_burst;
            }
        }
    }

    /// Lift the pacing so queues can empty (end of a phase).
    fn release(&mut self) {
        for v in &mut self.vris {
            if v.per_burst != usize::MAX {
                v.credit = usize::MAX / 2;
            }
        }
    }

    fn restore_pace(&mut self) {
        for v in &mut self.vris {
            if v.per_burst != usize::MAX {
                v.credit = 0;
            }
        }
    }

    /// One service pass over every VRI. Returns frames processed.
    fn service(&mut self, tr: &mut Tracer) -> usize {
        tr.begin(Layer::IpcDequeue);
        self.staged.clear();
        for v in &mut self.vris {
            v.pulled = 0;
            if !v.out.is_empty() {
                continue;
            }
            let max = if v.per_burst == usize::MAX { INLINE_PULL } else { v.credit };
            if max > 0 {
                v.pulled = v.endpoint.steal_batch(&mut self.staged, max);
                if v.per_burst != usize::MAX {
                    v.credit -= v.pulled;
                }
            }
        }
        tr.end();
        let n = self.staged.len();
        if n == 0 && self.vris.iter().all(|v| v.out.is_empty()) {
            return 0;
        }
        tr.begin(self.process_layer);
        let mut frames = self.staged.drain(..);
        for v in &mut self.vris {
            for _ in 0..v.pulled {
                let mut f = frames.next().expect("staged holds what was pulled");
                match v.router.process(&mut f) {
                    RouterAction::Forward { .. } => v.out.push(f),
                    RouterAction::Drop => self.vr_dropped += 1,
                }
            }
        }
        drop(frames);
        tr.end();
        tr.begin(Layer::IpcEnqueue);
        for v in &mut self.vris {
            if !v.out.is_empty() {
                v.endpoint.data_tx.try_send_batch(&mut v.out);
            }
        }
        tr.end();
        self.processed += n as u64;
        n
    }

    /// Every VRI proves it is alive (the supervisor reads these).
    fn beat(&mut self) {
        for v in &mut self.vris {
            let _ = v.endpoint.ctrl_tx.try_send(encode_heartbeat(v.vri));
        }
    }

    fn idle(&self) -> bool {
        self.vris.iter().all(|v| v.out.is_empty() && v.endpoint.data_rx.is_empty())
    }
}

impl VriHost for InlineHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.vris.push(InlineVri {
            vr: spec.vr,
            vri: spec.vri,
            endpoint,
            router,
            per_burst: self.pace[spec.vr.0 as usize],
            credit: 0,
            pulled: 0,
            out: Vec::with_capacity(INLINE_PULL),
        });
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.vris.retain(|v| !(v.vr == vr && v.vri == vri));
    }
}

pub enum Host {
    Inline(InlineHost),
    Threads(ThreadHost),
}

impl Host {
    fn vri_host(&mut self) -> &mut dyn VriHost {
        match self {
            Host::Inline(h) => h,
            Host::Threads(h) => h,
        }
    }

    fn service(&mut self, tr: &mut Tracer) {
        if let Host::Inline(h) = self {
            h.service(tr);
        }
    }

    fn credit_burst(&mut self) {
        if let Host::Inline(h) = self {
            h.credit_burst();
        }
    }

    pub fn threaded(&self) -> bool {
        matches!(self, Host::Threads(_))
    }

    pub fn processed(&self) -> u64 {
        match self {
            Host::Inline(h) => h.processed,
            Host::Threads(h) => h.processed.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    pub fn pin_failures(&self) -> u64 {
        match self {
            Host::Inline(_) => 0,
            Host::Threads(h) => h.pin_failures.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    fn vr_dropped(&self) -> u64 {
        match self {
            Host::Inline(h) => h.vr_dropped,
            Host::Threads(_) => 0,
        }
    }
}

/// Times `spawn_vri` on its way to the real host.
struct TimedSpawn<'a> {
    inner: &'a mut dyn VriHost,
    spawn_ns: u64,
}

impl VriHost for TimedSpawn<'_> {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        let t = Instant::now();
        self.inner.spawn_vri(spec, endpoint, router);
        self.spawn_ns += t.elapsed().as_nanos() as u64;
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.inner.kill_vri(vr, vri);
    }

    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        self.inner.reap_endpoint(vri)
    }
}

#[derive(Clone, Copy, Default, Debug)]
pub struct SetupTimes {
    pub total_s: f64,
    pub new_us: f64,
    pub add_vr_us: f64,
    pub spawn_us: f64,
    pub warmup_ms: f64,
}

/// What the control rounds leave behind.
#[derive(Default)]
pub struct ControlLog {
    pub rounds: u64,
    /// Duration of each `maybe_reallocate` call, ns (while tracing only).
    pub tick_ns: Vec<u32>,
    /// The previous round's checkpoint, for the next round's delta.
    prev: Option<Checkpoint>,
}

/// A monitor set up and warmed up, with the host that runs its VRIs.
pub struct Built {
    pub lvrm: Lvrm<ManualClock>,
    clock: ManualClock,
    pub host: Host,
    pub times: SetupTimes,
    /// Next sequence number to offer.
    pub next_seq: u64,
    /// Monitor-clock time of the last explicit control round.
    last_control_ns: u64,
    pub control: ControlLog,
    /// Frames delivered during warm-up (the sink counts the rest).
    pub warmup_delivered: u64,
}

pub fn config_for(w: &Workload, plan: &Plan) -> LvrmConfig {
    let slice_ns = w.closed_slice_frames() as u64 * NS_PER_FRAME;
    let base = LvrmConfig {
        batch_size: BURST,
        allocator: AllocatorKind::Fixed { cores: plan.vrs[0].vris },
        latency_histograms: false,
        ..LvrmConfig::default()
    };
    match w.kind {
        // Control plane bypassed: the default 1 s lazy tick, ~10^6 frames apart.
        Kind::Relay64 => base,
        Kind::Flows1m => LvrmConfig {
            flow_based: true,
            flow_table_capacity: 1 << 17,
            flow_age_budget: 256,
            allocation_period_ns: slice_ns,
            ..base
        },
        Kind::Synflood2x => LvrmConfig {
            flow_based: true,
            flow_table_capacity: 1 << 17,
            // A tuple is forgotten 2^16 frames after it was last seen and
            // returns after 2^19: every flood frame is a miss and an insert.
            flow_timeout_ns: (1 << 16) * NS_PER_FRAME,
            // A full sweep of the table every 16 slices (2^16 frames).
            flow_age_budget: 8192,
            allocation_period_ns: slice_ns,
            overload_shedding: true,
            ..base
        },
        Kind::CtrlClick1518 => LvrmConfig {
            flow_based: true,
            flow_table_capacity: 1 << 12,
            allocation_period_ns: slice_ns,
            latency_histograms: true,
            supervision: true,
            ..base
        },
    }
}

fn router_for(vr: &crate::gen::VrPlan) -> Box<dyn VirtualRouter> {
    match vr.router {
        RouterKind::Fast => Box::new(FastVr::new(vr.name.clone(), vr.route_table())),
        RouterKind::Click => Box::new(
            ClickVr::from_config(vr.name.clone(), &vr.click_config())
                .expect("the plan's Click configuration compiles"),
        ),
    }
}

/// One complete set-up: config, `Lvrm::new`, `add_vr` per tenant (route
/// load, Click parse, VRI spawn and pin) and the warm-up that fills the
/// flow tables and brings queues and pressure to their steady state.
pub fn setup(plan: &Plan) -> Built {
    let w = plan.workload;
    let t0 = Instant::now();
    let clock = ManualClock::new();
    let total_vris: usize = plan.vrs.iter().map(|v| v.vris).sum();
    let threaded = w.kind == Kind::Relay64;
    // Inline VRIs need no real core; threaded ones get the host's.
    let n_cores = if threaded {
        lvrm_runtime::affinity::available_cores().max(2) as u16
    } else {
        (total_vris + 1) as u16
    };
    let cores =
        CoreMap::new(CoreTopology::single_package(n_cores), CoreId(0), AffinityMode::SiblingFirst);
    let t_new = Instant::now();
    let mut lvrm = Lvrm::new(config_for(w, plan), cores, clock.clone());
    let new_us = t_new.elapsed().as_secs_f64() * 1e6;
    let mut host = if threaded {
        Host::Threads(
            ThreadHost::new(lvrm_core::clock::MonotonicClock::new()).with_batch_size(BURST),
        )
    } else {
        Host::Inline(InlineHost::new(plan))
    };
    let t_add = Instant::now();
    let mut timed = TimedSpawn { inner: host.vri_host(), spawn_ns: 0 };
    for vr in &plan.vrs {
        let subnets: Vec<(Ipv4Addr, u8)> = vr.subnets.clone();
        let id = lvrm.add_vr(vr.name.clone(), &subnets, router_for(vr), &mut timed);
        assert_eq!(lvrm.vri_count(id), vr.vris, "{}: fixed allocation spawned every VRI", vr.name);
        lvrm.set_vr_weight(id, vr.weight);
    }
    let spawn_us = timed.spawn_ns as f64 / 1e3;
    let add_vr_us = t_add.elapsed().as_secs_f64() * 1e6;
    let mut built = Built {
        lvrm,
        clock,
        host,
        times: SetupTimes::default(),
        next_seq: 0,
        last_control_ns: 0,
        control: ControlLog::default(),
        warmup_delivered: 0,
    };
    let t_warm = Instant::now();
    let mut tr = Tracer::new(0);
    let mut frames = Vec::with_capacity(BURST);
    let mut out = Vec::with_capacity(1024);
    let mut offered = 0u64;
    while offered < w.warmup_frames as u64 {
        frames.extend((offered..offered + BURST as u64).map(|k| plan.frame(k, true)));
        offered += BURST as u64;
        built.offer(w, &mut frames, &mut tr);
        loop {
            built.host.service(&mut tr);
            out.clear();
            built.warmup_delivered += built.lvrm.poll_egress(&mut out) as u64;
            if !built.host.threaded() || offered - built.warmup_delivered <= (WINDOW - BURST) as u64
            {
                break;
            }
        }
    }
    built.next_seq = offered;
    built.warmup_delivered += built.drain(|out| out.len() as u64, &mut tr);
    built.times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        new_us,
        add_vr_us,
        spawn_us,
        warmup_ms: t_warm.elapsed().as_secs_f64() * 1e3,
    };
    built
}

/// Stop the VRIs and free the monitor (joins the VRI thread).
pub fn teardown(built: Built) {
    let mut built = built;
    if let Host::Threads(h) = &mut built.host {
        h.shutdown();
    }
}

impl Built {
    /// Offer one burst: advance the monitor clock by the frames' worth, run
    /// the control round if one is due, then `ingress_batch`.
    #[inline]
    fn offer(&mut self, w: &Workload, frames: &mut Vec<Frame>, tr: &mut Tracer) {
        self.clock.advance_ns(frames.len() as u64 * NS_PER_FRAME);
        if w.kind != Kind::Relay64 {
            let now = self.clock.now_ns();
            if now - self.last_control_ns >= self.lvrm.config().allocation_period_ns {
                self.last_control_ns = now;
                self.control_round(w, tr);
            }
        }
        self.host.credit_burst();
        tr.begin(Layer::CoreIngress);
        self.lvrm.ingress_batch(frames, self.host.vri_host());
        tr.end();
    }

    /// The explicit control round. Every inline workload ticks the monitor
    /// (`maybe_reallocate`: supervision, flow aging, allocation, tick line)
    /// once per slice's worth of frames; `ctrl_click1518` adds the rest of
    /// what a control plane does each period.
    fn control_round(&mut self, w: &Workload, tr: &mut Tracer) {
        let now = self.clock.now_ns();
        let log = tr.on();
        tr.begin(Layer::Control);
        if w.control_rounds {
            if let Host::Inline(h) = &mut self.host {
                h.beat();
            }
        }
        let t = log.then(Instant::now);
        tr.begin(Layer::CoreTick);
        self.lvrm.maybe_reallocate(now, self.host.vri_host());
        tr.end();
        if let Some(t) = t {
            self.control.tick_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        if w.control_rounds {
            tr.begin(Layer::CoreProcessControl);
            self.lvrm.process_control();
            tr.end();
            tr.begin(Layer::CheckpointBuild);
            let ck = self.lvrm.build_checkpoint(now);
            tr.end();
            tr.begin(Layer::CheckpointEncode);
            let bytes = ck.encode();
            tr.end();
            tr.begin(Layer::CheckpointDiff);
            if let Some(prev) = &self.control.prev {
                std::hint::black_box(CheckpointDelta::diff(prev, &ck, self.control.rounds));
            }
            tr.end();
            tr.begin(Layer::MetricsRender);
            let text = self.lvrm.render_prometheus();
            tr.end();
            std::hint::black_box((bytes, text));
            self.control.prev = Some(ck);
        }
        self.control.rounds += 1;
        tr.end();
    }

    /// Empty every queue: lift the pacing, service and collect until the
    /// host is idle and nothing waits for egress. `sink` gets each batch
    /// and returns how many frames it took.
    fn drain(&mut self, mut sink: impl FnMut(&mut Vec<Frame>) -> u64, tr: &mut Tracer) -> u64 {
        if let Host::Inline(h) = &mut self.host {
            h.release();
        }
        let mut out = Vec::with_capacity(1024);
        let mut taken = 0;
        let mut quiet_since = Instant::now();
        loop {
            self.host.service(tr);
            out.clear();
            self.lvrm.poll_egress(&mut out);
            if !out.is_empty() {
                taken += sink(&mut out);
                quiet_since = Instant::now();
                continue;
            }
            let settled = match &self.host {
                Host::Inline(h) => h.idle() && !self.lvrm.has_pending_egress(),
                // The VRI thread may hold a burst between its two queues:
                // settled once nothing has come back for a while and the
                // ledger agrees that nothing is queued.
                Host::Threads(_) => quiet_since.elapsed().as_millis() >= 2 && self.in_flight() == 0,
            };
            if settled {
                break;
            }
            assert!(quiet_since.elapsed().as_secs() < 20, "queues never drained");
        }
        if let Host::Inline(h) = &mut self.host {
            h.restore_pace();
        }
        taken
    }

    /// Frames the monitor took in that have not left it again under a
    /// ledger reason (delivered, or dropped and counted) nor been dropped
    /// by a VR: what is still queued.
    fn in_flight(&self) -> u64 {
        let s = self.lvrm.stats();
        s.frames_in
            - s.frames_out
            - s.unclassified
            - s.dispatch_drops
            - s.no_vri_drops
            - s.shed_early
            - s.quarantined_drops
            - s.crash_lost
            - s.shrink_lost
            - self.host.vr_dropped()
    }

    /// Frames the ledger cannot account for once the queues are drained:
    /// offered but never booked, or booked in and never booked out.
    pub fn ledger_residual(&self) -> u64 {
        self.next_seq.abs_diff(self.lvrm.stats().frames_in) + self.in_flight()
    }
}

/// What the sink saw, and every output check.
pub struct Sink {
    /// First sequence number of the measured phases.
    base: u64,
    /// One bit per offered frame: delivered yet?
    seen: Vec<u64>,
    pub delivered_profile: u64,
    pub delivered_flood: u64,
    pub duplicates: u64,
    pub out_of_range: u64,
    /// Flood frames on the bystander's interface or the reverse.
    pub leaked: u64,
    pub deep_checked: u64,
    pub deep_failed: u64,
    // Open-loop latency, sliced.
    lat_on: bool,
    lat_base: u64,
    slice_frames: u64,
    due: Vec<u64>,
    cur_slice: u64,
    samples: Vec<u32>,
    pub slice_medians: Vec<f64>,
    pub lat_samples: u64,
    /// All samples, log-bucketed (tail percentiles; traced runs only).
    pub hist: Option<LatencyHistogram>,
}

const DUE_RING: usize = 1 << 14;
/// Frames a threaded workload's open loop lets queue before it holds back.
const OPEN_ROOM: u64 = 512;

impl Sink {
    /// Frames taken so far, each counted once.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered_profile + self.delivered_flood
    }

    pub fn new(base: u64, frames: u64, traced: bool) -> Sink {
        Sink {
            base,
            seen: vec![0; frames.div_ceil(64) as usize],
            delivered_profile: 0,
            delivered_flood: 0,
            duplicates: 0,
            out_of_range: 0,
            leaked: 0,
            deep_checked: 0,
            deep_failed: 0,
            lat_on: false,
            lat_base: 0,
            slice_frames: 1,
            due: vec![0; DUE_RING],
            cur_slice: 0,
            samples: Vec::with_capacity(8192),
            slice_medians: Vec::new(),
            lat_samples: 0,
            hist: traced.then(LatencyHistogram::new),
        }
    }

    fn start_latency(&mut self, first_seq: u64, slice_frames: usize, slices: usize) {
        self.lat_on = true;
        self.lat_base = first_seq;
        self.slice_frames = slice_frames as u64;
        self.cur_slice = 0;
        self.slice_medians.reserve_exact(slices);
    }

    fn stop_latency(&mut self) {
        self.close_slice();
        self.lat_on = false;
    }

    fn close_slice(&mut self) {
        if !self.samples.is_empty() {
            self.slice_medians.push(f64::from(median_u32(&mut self.samples)));
            self.samples.clear();
        }
    }

    /// Take a batch from `poll_egress`, which returned at `now_ns`.
    #[inline]
    fn take(&mut self, out: &mut Vec<Frame>, plan: &Plan, now_ns: u64) -> u64 {
        let n = out.len() as u64;
        for f in out.drain(..) {
            let seq = seq_of(&f);
            let rel = seq.wrapping_sub(self.base);
            let (word, bit) = ((rel / 64) as usize, 1u64 << (rel % 64));
            if word >= self.seen.len() {
                self.out_of_range += 1;
                continue;
            }
            if self.seen[word] & bit != 0 {
                self.duplicates += 1;
                continue;
            }
            self.seen[word] |= bit;
            let flood = plan.is_flood(seq);
            if flood {
                self.delivered_flood += 1;
            } else {
                self.delivered_profile += 1;
            }
            // Isolation: the flood leaves on the victim's interface only.
            if (f.egress_if == IF_VICTIM) != flood {
                self.leaked += 1;
            }
            if seq % 256 == 77 {
                self.deep_check(&f, plan, seq);
            }
            if self.lat_on && !flood {
                let k = seq - self.lat_base;
                let slice = k / self.slice_frames;
                if slice > self.cur_slice {
                    self.close_slice();
                    self.cur_slice = slice;
                }
                let due = self.due[(k as usize / BURST) % DUE_RING];
                let lat = now_ns.saturating_sub(due);
                self.samples.push(lat.min(u64::from(u32::MAX)) as u32);
                self.lat_samples += 1;
                if let Some(h) = &mut self.hist {
                    h.record(lat);
                }
            }
        }
        n
    }

    /// One frame in 256: it must be the frame that was offered (bytes
    /// unchanged — a VR that rewrites headers works on its own copy), still
    /// carry a valid IPv4 header checksum, and leave on the interface the
    /// VR's route table names for its destination.
    fn deep_check(&mut self, f: &Frame, plan: &Plan, seq: u64) {
        self.deep_checked += 1;
        let idx = plan.flow_of(seq);
        let vr = &plan.vrs[plan.pool_vr[idx] as usize];
        let ok = f.bytes() == plan.pool[idx].bytes()
            && f.ipv4().is_ok_and(|ip| ip.checksum_ok())
            && f.egress_if == vr.egress_if;
        if !ok {
            self.deep_failed += 1;
        }
    }

    /// Frames offered to the measured phases that never came back, as
    /// (in-profile, flood).
    pub fn missing(&self, plan: &Plan, offered: u64) -> (u64, u64) {
        if plan.flood_per_burst == 0 {
            let seen: u64 = self.seen.iter().map(|w| u64::from(w.count_ones())).sum();
            return (offered - seen, 0);
        }
        let (mut profile, mut flood) = (0, 0);
        for rel in 0..offered {
            if self.seen[(rel / 64) as usize] & (1 << (rel % 64)) == 0 {
                if plan.is_flood(self.base + rel) {
                    flood += 1;
                } else {
                    profile += 1;
                }
            }
        }
        (profile, flood)
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

#[derive(Default)]
pub struct ClosedResult {
    /// Wall time of each slice, ns.
    pub slice_ns: Vec<f64>,
    pub wall_ns: u64,
    pub frames: u64,
    /// `poll_egress` calls, and how many of them found nothing.
    pub polls: u64,
    pub empty_polls: u64,
    /// Sum over bursts of frames in flight when the burst was offered.
    pub inflight_sum: u64,
    pub bursts: u64,
    /// Data-queue depth summed over VRIs and slices, and its maximum.
    pub depth_sum: u64,
    pub depth_max: u64,
    pub depth_samples: u64,
}

/// Closed loop: the next burst is offered only while fewer than the window
/// are in flight (inline workloads: one burst at a time), so a slower
/// system is offered less. `slices` slices of `closed_slice_bursts` bursts.
pub fn closed_phase(
    b: &mut Built,
    plan: &Plan,
    sink: &mut Sink,
    tr: &mut Tracer,
    slices: usize,
) -> ClosedResult {
    let w = plan.workload;
    let threaded = b.host.threaded();
    let epoch = Instant::now();
    let mut res = ClosedResult { slice_ns: Vec::with_capacity(slices), ..Default::default() };
    let mut frames: Vec<Frame> = Vec::with_capacity(BURST);
    let mut out: Vec<Frame> = Vec::with_capacity(1024);
    let first = b.next_seq;
    let delivered_before = sink.delivered();
    // Frames a threaded workload may have in flight before it must wait.
    let room = (WINDOW - BURST) as u64;
    let mut offered = 0u64;
    let mut t_slice = now_ns(epoch);
    for _ in 0..slices {
        for _ in 0..w.closed_slice_bursts {
            tr.set_burst((offered / BURST as u64) as u32);
            tr.begin(Layer::Burst);
            tr.begin(Layer::RigGen);
            let seq = first + offered;
            frames.extend((seq..seq + BURST as u64).map(|s| plan.frame(s, false)));
            tr.end();
            if threaded {
                res.inflight_sum += offered - (sink.delivered() - delivered_before);
            }
            offered += BURST as u64;
            b.offer(w, &mut frames, tr);
            b.host.service(tr);
            loop {
                tr.begin(Layer::CoreEgress);
                out.clear();
                let mut n = b.lvrm.poll_egress(&mut out);
                res.polls += 1;
                // Window full: wait here for the VRI to hand frames back.
                while threaded && n == 0 && offered - (sink.delivered() - delivered_before) > room {
                    res.empty_polls += 1;
                    n = b.lvrm.poll_egress(&mut out);
                    res.polls += 1;
                }
                tr.end();
                if n > 0 {
                    tr.begin(Layer::RigSink);
                    sink.take(&mut out, plan, 0);
                    tr.end();
                }
                if !threaded || offered - (sink.delivered() - delivered_before) <= room {
                    break;
                }
            }
            tr.end();
            res.bursts += 1;
        }
        let t = now_ns(epoch);
        res.slice_ns.push((t - t_slice) as f64);
        t_slice = t;
        if tr.on() {
            // Queue depths, sampled between slices and outside their time.
            for vr in b.lvrm.snapshot() {
                for v in vr.vris {
                    res.depth_sum += v.queue_len as u64;
                    res.depth_max = res.depth_max.max(v.queue_len as u64);
                    res.depth_samples += 1;
                }
            }
            t_slice = now_ns(epoch);
        }
    }
    res.wall_ns = now_ns(epoch);
    res.frames = offered;
    b.next_seq += offered;
    b.drain(|out| sink.take(out, plan, 0), tr);
    res
}

/// Open loop: burst `k` is due at `t0 + k * 32 / rate` whatever the system
/// does, and each in-profile frame is timed from when its burst was due to
/// when `poll_egress` returned it — so a stall delays, and is charged to,
/// every frame that was due meanwhile. Returns how late each burst was
/// offered, ns.
pub fn open_phase(
    b: &mut Built,
    plan: &Plan,
    sink: &mut Sink,
    tr: &mut Tracer,
    slices: usize,
) -> Vec<u32> {
    let w = plan.workload;
    let total_bursts = (slices * w.open_slice_frames / BURST) as u64;
    let period_ns = BURST as f64 * 1e6 / f64::from(w.open_rate_kfps);
    let first = b.next_seq;
    sink.start_latency(first, w.open_slice_frames, slices);
    let mut late_ns = Vec::with_capacity(total_bursts as usize);
    let mut frames: Vec<Frame> = Vec::with_capacity(BURST);
    let mut out: Vec<Frame> = Vec::with_capacity(1024);
    let epoch = Instant::now();
    let mut sent = 0u64;
    let delivered_before = sink.delivered();
    let threaded = b.host.threaded();
    loop {
        let now = now_ns(epoch);
        let due = (sent as f64 * period_ns) as u64;
        // A VRI thread that fell behind is not buried: bursts wait (and
        // their frames' latency keeps counting from when they were due)
        // rather than overflow its queue after a stall.
        let room =
            !threaded || sent * BURST as u64 - (sink.delivered() - delivered_before) <= OPEN_ROOM;
        if sent < total_bursts && now >= due && room {
            late_ns.push((now - due).min(u64::from(u32::MAX)) as u32);
            sink.due[sent as usize % DUE_RING] = due;
            let seq = first + sent * BURST as u64;
            frames.extend((seq..seq + BURST as u64).map(|s| plan.frame(s, false)));
            sent += 1;
            b.offer(w, &mut frames, tr);
        }
        b.host.service(tr);
        out.clear();
        if b.lvrm.poll_egress(&mut out) > 0 {
            sink.take(&mut out, plan, now_ns(epoch));
        }
        // Inline, a burst is through (or parked behind the pacing) by now;
        // a VRI thread is waited for until the ledger shows nothing queued.
        if sent == total_bursts && (!threaded || b.in_flight() == 0) {
            break;
        }
    }
    sink.stop_latency();
    b.next_seq += sent * BURST as u64;
    b.drain(|out| sink.take(out, plan, 0), tr);
    late_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::IF_PROFILE;
    use crate::spec::workload;

    /// Frames in, ticks out: the virtual clock follows the frame count, so
    /// two runs of the same frames tick the monitor equally often whatever
    /// the host did in between.
    #[test]
    fn same_frames_same_tick_count_and_same_counts() {
        let plan = Plan::build(workload("synflood2x").unwrap(), 21);
        let run = |pause: bool| {
            let mut b = setup(&plan);
            let mut sink =
                Sink::new(b.next_seq, 64 * plan.workload.closed_slice_frames() as u64, false);
            let mut tr = Tracer::new(0);
            if pause {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            let r = closed_phase(&mut b, &plan, &mut sink, &mut tr, 64);
            let s = b.lvrm.stats();
            let out = (
                b.control.rounds,
                r.frames,
                sink.delivered_profile,
                sink.delivered_flood,
                s.shed_early,
                s.dispatch_drops,
            );
            assert_eq!(b.ledger_residual(), 0);
            teardown(b);
            out
        };
        let (a, c) = (run(false), run(true));
        assert_eq!(a, c);
        // One tick per slice of the phase, after the warm-up's.
        let warm = plan.workload.warmup_frames / plan.workload.closed_slice_frames();
        assert_eq!(a.0, (warm + 64) as u64);
        assert!(a.4 > 0, "the flood is shed");
        assert_eq!(a.2, a.1 / 2, "every in-profile frame is delivered");
    }

    #[test]
    fn sink_counts_each_frame_once_and_spots_a_leak() {
        let plan = Plan::build(workload("synflood2x").unwrap(), 2);
        let mut sink = Sink::new(100, 64, false);
        let mut f = plan.frame(116, false); // bystander frame
        f.egress_if = IF_PROFILE;
        let mut g = plan.frame(100, false); // flood frame on the wrong interface
        g.egress_if = IF_PROFILE;
        let mut out = vec![f.clone(), f, g, plan.frame(99, false)];
        sink.take(&mut out, &plan, 0);
        assert_eq!((sink.delivered_profile, sink.delivered_flood), (1, 1));
        assert_eq!((sink.duplicates, sink.leaked, sink.out_of_range), (1, 1, 1));
        assert_eq!(sink.missing(&plan, 64), (31, 31));
    }
}
