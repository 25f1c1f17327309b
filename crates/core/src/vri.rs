//! Per-VRI adapters on both sides of the IPC queues.
//!
//! * [`VriAdapter`] is LVRM's handle on one VRI (paper §3.4): it relays
//!   frames to/from the instance and runs the load estimator the balancer
//!   consults.
//! * [`LvrmAdapter`] is the VRI's handle on LVRM (paper §3.6): it exposes
//!   the `fromLVRM()`/`toLVRM()` API, and — when dynamic thresholds are on —
//!   estimates the VRI's service rate from the gaps between `from_lvrm`
//!   calls and reports it upstream through the control queue.
//! * [`VriService`] is the one VRI burst every host runs over an
//!   `LvrmAdapter`: control first, then a routed data burst, then `toLVRM()`.

use std::sync::{Arc, Mutex};

use lvrm_ipc::channels::{ControlEvent, VriChannels, VriEndpoint, Work};
use lvrm_ipc::{occupancy, Full};
use lvrm_metrics::{LatencyHistogram, ServiceRateEstimator};
use lvrm_net::{FlowKey, Frame};
use lvrm_router::{RouterAction, VirtualRouter};

use crate::clock::Clock;
use crate::estimate::LoadEstimator;
use crate::ledger::{series, M_VRI_DISPATCHED, M_VRI_DROPS, M_VRI_QUEUE_LEN, M_VRI_RETURNED};
use crate::repl::{decode_batch, is_state_update, ReplicaLedger};
use crate::topology::CoreId;
use crate::VriId;

/// Control events addressed to this pseudo-VRI id are consumed by LVRM
/// itself (service-rate reports) instead of being relayed to a VRI.
pub const LVRM_CTRL_ID: u32 = u32::MAX;

/// Magic prefix of a service-rate report payload.
const SVC_RATE_MAGIC: &[u8; 4] = b"SVCR";

/// Encode a service-rate report event.
pub fn encode_service_rate(vri: VriId, rate_fps: f64) -> ControlEvent {
    let mut payload = Vec::with_capacity(12);
    payload.extend_from_slice(SVC_RATE_MAGIC);
    payload.extend_from_slice(&rate_fps.to_le_bytes());
    ControlEvent::new(vri.0, LVRM_CTRL_ID, payload)
}

/// Decode a service-rate report, if the event is one.
pub fn decode_service_rate(ev: &ControlEvent) -> Option<(VriId, f64)> {
    if ev.dst_vri != LVRM_CTRL_ID || ev.payload.len() != 12 || &ev.payload[..4] != SVC_RATE_MAGIC {
        return None;
    }
    let rate = f64::from_le_bytes(ev.payload[4..12].try_into().ok()?);
    Some((VriId(ev.src_vri), rate))
}

/// Magic prefix of a heartbeat payload. Heartbeats piggyback on the same
/// priority control path as `SVCR` reports: any control event from a VRI is
/// proof of life, but an idle VRI emits no reports, so the adapter sends an
/// explicit beat each period to distinguish "idle" from "wedged".
const HEARTBEAT_MAGIC: &[u8; 4] = b"HBTB";

/// Encode a liveness heartbeat addressed to LVRM.
pub fn encode_heartbeat(vri: VriId) -> ControlEvent {
    ControlEvent::new(vri.0, LVRM_CTRL_ID, HEARTBEAT_MAGIC.to_vec())
}

/// Decode a heartbeat, if the event is one.
pub fn decode_heartbeat(ev: &ControlEvent) -> Option<VriId> {
    if ev.dst_vri != LVRM_CTRL_ID || ev.payload.as_slice() != HEARTBEAT_MAGIC {
        return None;
    }
    Some(VriId(ev.src_vri))
}

/// Supervisor-visible liveness of one VRI (DESIGN.md "supervision states").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VriHealth {
    /// Heard from recently (heartbeat, report, or any control event).
    #[default]
    Live,
    /// Quiet past the suspect threshold but not yet past the dead one.
    Suspect,
    /// Endpoint detached (process gone) or silent past the dead threshold.
    Dead,
}

impl VriHealth {
    /// Stable lowercase name (event-log and metrics surface).
    pub fn name(self) -> &'static str {
        match self {
            VriHealth::Live => "live",
            VriHealth::Suspect => "suspect",
            VriHealth::Dead => "dead",
        }
    }

    /// Numeric encoding for the health gauge (0 live, 1 suspect, 2 dead).
    pub fn as_gauge(self) -> f64 {
        match self {
            VriHealth::Live => 0.0,
            VriHealth::Suspect => 1.0,
            VriHealth::Dead => 2.0,
        }
    }
}

series! {
    /// One VRI's series in the metrics registry. The monitor looks them up
    /// once, when it spawns the instance; a scrape then costs eight stores.
    /// An adapter built outside a monitor holds cells no registry lists.
    #[derive(Default)]
    pub(crate) struct VriSeries {
        dispatched: counter = M_VRI_DISPATCHED,
        returned: counter = M_VRI_RETURNED,
        drops: counter = M_VRI_DROPS,
        queue_len: gauge = M_VRI_QUEUE_LEN,
        watermark: gauge = (
            "lvrm_vri_queue_watermark",
            "Deepest incoming-queue depth observed at dispatch time.",
        ),
        egress_len: gauge = (
            "lvrm_vri_egress_len",
            "Forwarded frames not yet collected from the outgoing queue.",
        ),
        health: gauge =
            ("lvrm_vri_health", "Supervisor health classification (0 live, 1 suspect, 2 dead)."),
        draining: gauge = ("lvrm_vri_draining", "1 while the VRI is in the drain state, else 0."),
    }
}

/// What one look at a VRI's incoming data queue says
/// ([`VriAdapter::read_queue`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueReading {
    /// The load estimate, after observing the depth read.
    pub load: f64,
    /// Whether the instance can be dispatched to: room in the queue, and
    /// somebody on the other end of it.
    pub valid: bool,
    /// Whether somebody is on the other end of the queue, room or not: a
    /// frame no valid instance takes is a dispatch drop when one is, and a
    /// missing-VRI drop when none is.
    pub attached: bool,
    /// `len / capacity` of the queue.
    pub occupancy: f64,
}

/// LVRM's side of one VRI.
pub struct VriAdapter {
    pub id: VriId,
    pub core: CoreId,
    channels: VriChannels<Frame>,
    estimator: Box<dyn LoadEstimator>,
    /// Frames dispatched into the VRI's data queue.
    pub dispatched: u64,
    /// Dispatches refused because the data queue was full.
    pub dispatch_drops: u64,
    /// Frames the VRI handed back for egress.
    pub returned: u64,
    /// Most recent service-rate report from the instance, frames/second.
    pub reported_service_rate: Option<f64>,
    /// Supervisor classification from the last [`update_health`] pass.
    ///
    /// [`update_health`]: VriAdapter::update_health
    pub health: VriHealth,
    /// Timestamp of the last proof of life (any control event, or spawn).
    pub last_seen_ns: u64,
    /// Deepest incoming-queue depth observed at dispatch time (occupancy
    /// watermark for the metrics surface).
    pub queue_watermark: u64,
    pub(crate) series: VriSeries,
}

impl VriAdapter {
    pub fn new(
        id: VriId,
        core: CoreId,
        channels: VriChannels<Frame>,
        estimator: Box<dyn LoadEstimator>,
    ) -> VriAdapter {
        VriAdapter {
            id,
            core,
            channels,
            estimator,
            dispatched: 0,
            dispatch_drops: 0,
            returned: 0,
            reported_service_rate: None,
            health: VriHealth::Live,
            last_seen_ns: 0,
            queue_watermark: 0,
            series: VriSeries::default(),
        }
    }

    /// Mirror this instance into its registry series, as a scrape finds it.
    pub(crate) fn publish(&self, draining: bool) {
        // Downstream first, like the ledger's walk.
        let egress_len = self.egress_len();
        self.store_series(self.queue_len(), egress_len, draining);
    }

    /// Freeze a departing instance's series at their final values, once both
    /// its queues are drained. The series stay in the registry, so
    /// family-wide sums keep satisfying the dispatch identity after the
    /// instance is gone.
    pub(crate) fn publish_final(&self) {
        self.store_series(0, 0, false);
    }

    fn store_series(&self, queue_len: usize, egress_len: usize, draining: bool) {
        let s = &self.series;
        s.dispatched.store(self.dispatched);
        s.returned.store(self.returned);
        s.drops.store(self.dispatch_drops);
        s.queue_len.set(queue_len as f64);
        s.watermark.set(self.queue_watermark as f64);
        s.egress_len.set(egress_len as f64);
        s.health.set(self.health.as_gauge());
        s.draining.set(if draining { 1.0 } else { 0.0 });
    }

    /// Record proof of life at `now_ns` (called by LVRM when any control
    /// event from this VRI is processed, and at spawn time).
    pub fn note_liveness(&mut self, now_ns: u64) {
        self.last_seen_ns = self.last_seen_ns.max(now_ns);
        self.health = VriHealth::Live;
    }

    /// Whether the VRI side of the queue fabric still exists. A crashed
    /// (unwound) or explicitly detached instance reads `false` even before
    /// any liveness timeout elapses.
    pub fn endpoint_attached(&self) -> bool {
        self.channels.endpoint_attached()
    }

    /// Reclassify health from the attachment flag and liveness age. A
    /// detached endpoint is dead immediately; otherwise silence past
    /// `dead_after_ns` is dead and silence past `suspect_after_ns` is
    /// suspect. Returns the new classification.
    pub fn update_health(
        &mut self,
        now_ns: u64,
        suspect_after_ns: u64,
        dead_after_ns: u64,
    ) -> VriHealth {
        self.health = if !self.endpoint_attached() {
            VriHealth::Dead
        } else {
            let idle = now_ns.saturating_sub(self.last_seen_ns);
            if idle >= dead_after_ns {
                VriHealth::Dead
            } else if idle >= suspect_after_ns {
                VriHealth::Suspect
            } else {
                VriHealth::Live
            }
        };
        self.health
    }

    /// Push a burst of frames toward the VRI with one queue-index
    /// publication, draining the accepted prefix from `frames`, and update
    /// the load estimate with the queue depth after the burst, observed once
    /// ("when the VRI adapter forwards a data frame to the VRI, it measures
    /// the load by observing the current queue length", §3.4). Returns how
    /// many were accepted.
    ///
    /// A refusal is *not* a drop yet: frames that did not fit stay in
    /// `frames`, and the caller decides whether to retry them elsewhere or
    /// discard them. When it gives up, it must report the discard via
    /// [`note_discarded`] so per-adapter and monitor totals agree.
    ///
    /// [`note_discarded`]: VriAdapter::note_discarded
    pub fn dispatch_batch(&mut self, frames: &mut Vec<Frame>, now_ns: u64) -> usize {
        if frames.is_empty() {
            return 0;
        }
        let accepted = self.channels.data_tx.try_send_batch(frames);
        self.dispatched += accepted as u64;
        if accepted > 0 {
            let depth = self.channels.data_tx.len();
            self.queue_watermark = self.queue_watermark.max(depth as u64);
            self.estimator.on_dispatch(depth, now_ns);
        }
        accepted
    }

    /// Record `n` frames the caller discarded after this adapter refused
    /// them. Keeps `dispatch_drops` an actual-loss counter: the monitor's
    /// aggregate equals the sum over adapters exactly, with no
    /// double-counting of frames that were refused here but retried
    /// successfully elsewhere.
    pub fn note_discarded(&mut self, n: u64) {
        self.dispatch_drops += n;
    }

    /// Current smoothed load estimate for the balancer.
    pub fn load(&self) -> f64 {
        self.estimator.estimate()
    }

    /// Read the incoming queue's depth once and answer, from that one
    /// reading, everything a balancing decision asks of this VRI: the
    /// estimator observes the depth without a dispatch (see
    /// [`crate::estimate::LoadEstimator::observe`]) and gives its estimate,
    /// the instance is a valid target if the queue has room and its endpoint
    /// is still attached (a crashed instance's endpoint detaches before the
    /// supervisor tick notices: stop feeding it between ticks), and the
    /// occupancy feeds the VR's pressure tracker.
    pub fn read_queue(&mut self, now_ns: u64) -> QueueReading {
        let len = self.channels.data_tx.len();
        let capacity = self.channels.data_tx.capacity();
        self.estimator.observe(len, now_ns);
        let attached = self.endpoint_attached();
        QueueReading {
            load: self.estimator.estimate(),
            valid: len < capacity && attached,
            attached,
            occupancy: occupancy(len, capacity),
        }
    }

    /// Instantaneous incoming-queue depth.
    pub fn queue_len(&self) -> usize {
        self.channels.data_tx.len()
    }

    /// Whether forwarded frames are waiting in the outgoing data queue.
    pub fn has_pending_egress(&self) -> bool {
        !self.channels.data_rx.is_empty()
    }

    /// Instantaneous outgoing-queue depth (forwarded, not yet collected).
    pub fn egress_len(&self) -> usize {
        self.channels.data_rx.len()
    }

    /// Drain frames the VRI forwarded, appending to `out`: one burst, so the
    /// consumer index is published once, not once per frame.
    pub fn drain_egress(&mut self, out: &mut Vec<Frame>) {
        // One receive: every queue kind hands over all that was published
        // when it was called (`queue_properties.rs`); what arrives during it
        // is the next poll's.
        self.returned += self.channels.data_rx.try_recv_batch(out, usize::MAX) as u64;
    }

    /// Drain control events the VRI emitted.
    pub fn drain_control(&mut self, out: &mut Vec<ControlEvent>) {
        while let Some(ev) = self.channels.ctrl_rx.try_recv() {
            out.push(ev);
        }
    }

    /// Relay a control event *to* this VRI. Returns it on backpressure.
    pub fn relay_control(&mut self, ev: ControlEvent) -> Result<(), ControlEvent> {
        self.channels.ctrl_tx.try_send(ev).map_err(|Full(ev)| ev)
    }
}

/// How often a VRI emits a heartbeat upstream; the supervisor's
/// `dead_after_ns` must comfortably exceed it.
const HEARTBEAT_PERIOD_NS: u64 = 100_000_000; // 100 ms

/// The VRI's side of the wire (the paper's "LVRM adapter for VRI", §3.6).
pub struct LvrmAdapter {
    id: VriId,
    endpoint: VriEndpoint<Frame>,
    svc_est: ServiceRateEstimator,
    report_period_ns: u64,
    last_report_ns: u64,
    estimate_service_rate: bool,
    last_heartbeat_ns: u64,
    heartbeats: bool,
}

impl LvrmAdapter {
    /// Wrap the queue endpoint LVRM passed at spawn time ("the LVRM adapter
    /// is initialized with a shared memory identifier, which is passed from
    /// LVRM via the main arguments to VRIs").
    pub fn new(id: VriId, endpoint: VriEndpoint<Frame>) -> LvrmAdapter {
        LvrmAdapter {
            id,
            endpoint,
            // EWMA weight 4, idle cutoff 10 ms: gaps longer than that mean
            // the VRI was starved, not slow.
            svc_est: ServiceRateEstimator::new(4.0, 10_000_000),
            report_period_ns: 100_000_000, // report every 100 ms
            last_report_ns: 0,
            estimate_service_rate: true,
            last_heartbeat_ns: 0,
            heartbeats: true,
        }
    }

    /// Disable service-rate estimation/reporting (fixed-threshold setups).
    pub fn without_service_estimation(mut self) -> LvrmAdapter {
        self.estimate_service_rate = false;
        self
    }

    /// Enable/disable heartbeat emission. Fault injection uses this to
    /// simulate control-queue loss: the VRI keeps servicing frames but its
    /// proofs of life stop reaching the supervisor.
    pub fn set_heartbeats(&mut self, on: bool) {
        self.heartbeats = on;
    }

    /// Unwrap the queue endpoint, e.g. so a host can hand a dead VRI's
    /// endpoint back to the supervisor for draining in-flight frames.
    pub fn into_endpoint(self) -> VriEndpoint<Frame> {
        self.endpoint
    }

    /// Emit a heartbeat upstream if the period elapsed. Called from the
    /// `from_lvrm` paths: a stalled VRI stops calling them, so its beats
    /// stop. Best-effort — a full control queue just skips the beat.
    fn maybe_heartbeat(&mut self, now_ns: u64) {
        if !self.heartbeats {
            return;
        }
        if now_ns.saturating_sub(self.last_heartbeat_ns) >= HEARTBEAT_PERIOD_NS {
            let _ = self.endpoint.ctrl_tx.try_send(encode_heartbeat(self.id));
            self.last_heartbeat_ns = now_ns;
        }
    }

    pub fn id(&self) -> VriId {
        self.id
    }

    /// The paper's `fromLVRM()`: next unit of work, control before data.
    /// Data departures feed the service-rate estimator, and a fresh estimate
    /// is reported upstream at most every report period.
    pub fn from_lvrm(&mut self, now_ns: u64) -> Option<Work<Frame>> {
        self.maybe_heartbeat(now_ns);
        let work = self.endpoint.next_work();
        if self.estimate_service_rate {
            match &work {
                Some(Work::Data(_)) => self.note_departure(now_ns),
                // An empty poll means the VRI is idle: the gap to the next
                // departure would measure starvation, not service time.
                None => self.svc_est.note_idle(),
                Some(Work::Control(_)) => {}
            }
        }
        work
    }

    /// Batch `fromLVRM()`: drain every pending control event into `ctrl`
    /// (strict priority, §2.1), then pull up to `max` data frames into
    /// `data` with one consumer-index publication. Returns the number of
    /// data frames pulled.
    ///
    /// Unlike [`from_lvrm`], departures are NOT recorded here: frames in a
    /// burst are dequeued at one instant, so the dequeue gap measures
    /// nothing. The burst is in service until the caller next reads the
    /// clock; hand that reading and the burst's size to [`note_departures`]
    /// before pulling again.
    ///
    /// [`from_lvrm`]: LvrmAdapter::from_lvrm
    /// [`note_departures`]: LvrmAdapter::note_departures
    pub fn from_lvrm_batch(
        &mut self,
        ctrl: &mut Vec<ControlEvent>,
        data: &mut Vec<Frame>,
        max: usize,
        now_ns: u64,
    ) -> usize {
        self.maybe_heartbeat(now_ns);
        while let Some(ev) = self.endpoint.ctrl_rx.try_recv() {
            ctrl.push(ev);
        }
        // Point-to-point frames first, then a stolen burst from the VR's
        // shared ring if one is wired (VLink fabric).
        let n = self.endpoint.steal_batch(data, max);
        if n == 0 && ctrl.is_empty() && self.estimate_service_rate {
            self.svc_est.note_idle();
        }
        n
    }

    /// Feed the service-rate estimator the `n` frames that left service
    /// between the previous call and `now_ns` — one sample of `gap / n`,
    /// §3.6's service time between two calls of `fromLVRM()` — and report
    /// the estimate upstream if the report period elapsed. A batch consumer
    /// calls this once per loop iteration with the size of the burst it
    /// pulled the iteration before (0 after an empty pull: that only marks
    /// where the next burst's service starts), so its books cost one clock
    /// reading per burst, not one per frame.
    pub fn note_departures(&mut self, now_ns: u64, n: u64) {
        if !self.estimate_service_rate {
            return;
        }
        self.svc_est.record_departures(now_ns, n);
        if n > 0 && now_ns.saturating_sub(self.last_report_ns) >= self.report_period_ns {
            if let Some(rate) = self.svc_est.rate_per_sec() {
                let _ = self.endpoint.ctrl_tx.try_send(encode_service_rate(self.id, rate));
                self.last_report_ns = now_ns;
            }
        }
    }

    /// [`LvrmAdapter::note_departures`] for a consumer that times each frame.
    pub fn note_departure(&mut self, now_ns: u64) {
        self.note_departures(now_ns, 1);
    }

    /// The paper's `toLVRM()`: hand a processed frame back for egress.
    /// Returns the frame if the outgoing queue is full.
    pub fn to_lvrm(&mut self, frame: Frame) -> Result<(), Frame> {
        self.endpoint.data_tx.try_send(frame).map_err(|Full(f)| f)
    }

    /// Batch `toLVRM()`: hand a burst of processed frames back with one
    /// producer-index publication, draining the accepted prefix. Returns how
    /// many were accepted; the rest stay in `frames` for the caller to
    /// retry (LVRM drains the outgoing queue continuously).
    pub fn to_lvrm_batch(&mut self, frames: &mut Vec<Frame>) -> usize {
        self.endpoint.data_tx.try_send_batch(frames)
    }

    /// Send a user control event toward another VRI (via LVRM).
    pub fn send_control(&mut self, ev: ControlEvent) -> Result<(), ControlEvent> {
        self.endpoint.ctrl_tx.try_send(ev).map_err(|Full(ev)| ev)
    }

    /// Current service-rate estimate (frames/second), if any.
    pub fn service_rate(&self) -> Option<f64> {
        self.svc_est.rate_per_sec()
    }

    /// Whether any data or control work is queued for this VRI (used by
    /// polling hosts to decide whether to schedule a service pass). Work
    /// sitting in the VR's shared ring counts: any of its VRIs may steal it.
    pub fn has_pending(&self) -> bool {
        !self.endpoint.data_rx.is_empty()
            || !self.endpoint.ctrl_rx.is_empty()
            || self.endpoint.shared_rx.as_ref().is_some_and(|ring| !ring.is_empty())
    }
}

/// Spin for approximately `ns` nanoseconds (the experiments' synthetic
/// per-frame "dummy processing load"; busy-wait like the paper's prototype,
/// not sleep, so the core genuinely burns).
#[inline]
pub fn spin_for_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// What a VRI does with control events other than `LVSU` batches
/// (Experiment 1e roles).
pub enum CtrlRole {
    /// Ignore them (default).
    None,
    /// Every `period_ns`, emit a control event of `payload` bytes to `dst`,
    /// timestamped for latency measurement.
    Emitter { dst: VriId, payload: usize, period_ns: u64 },
    /// Record one-way latency of received control events into the shared
    /// histogram.
    Recorder { sink: Arc<Mutex<LatencyHistogram>> },
}

/// The one VRI burst (the paper's VRI loop, §3.6) and what one burst hands
/// the next. A host owns only the loop around [`VriService::step`]: the
/// runtime's threads call it back to back, the recording host until a step
/// pulls nothing.
pub struct VriService {
    adapter: LvrmAdapter,
    router: Box<dyn VirtualRouter>,
    role: CtrlRole,
    next_emit_ns: u64,
    batch: usize,
    /// The VR's synthetic per-frame load (Experiment 2), busy-waited.
    dummy_ns: u64,
    /// Frames the previous step pulled: in service until this one reads
    /// the clock.
    in_service: u64,
    ctrl: Vec<ControlEvent>,
    data: Vec<Frame>,
    /// Routed frames the egress queue refused. They go first, and while any
    /// wait the VRI pulls no new work, the way a VRI blocks in `toLVRM()`.
    held: Vec<Frame>,
}

impl VriService {
    /// Serve `router` over `adapter`, pulling up to `batch` (>= 1) data
    /// frames a step.
    pub fn new(
        adapter: LvrmAdapter,
        router: Box<dyn VirtualRouter>,
        role: CtrlRole,
        batch: usize,
    ) -> VriService {
        let batch = batch.max(1);
        VriService {
            adapter,
            dummy_ns: router.dummy_load_ns(),
            router,
            role,
            next_emit_ns: 0,
            batch,
            in_service: 0,
            ctrl: Vec::new(),
            data: Vec::with_capacity(batch),
            held: Vec::with_capacity(batch),
        }
    }

    pub fn id(&self) -> VriId {
        self.adapter.id()
    }

    pub fn adapter_mut(&mut self) -> &mut LvrmAdapter {
        &mut self.adapter
    }

    /// The queue endpoint, for tests that play the VRI's side by hand.
    pub fn endpoint_mut(&mut self) -> &mut VriEndpoint<Frame> {
        &mut self.adapter.endpoint
    }

    pub fn router_mut(&mut self) -> &mut dyn VirtualRouter {
        self.router.as_mut()
    }

    /// Give the held frames one last try, then hand back the queue endpoint
    /// so the supervisor can reap what is still in flight. A frame the
    /// egress queue still refuses dies with the VRI.
    pub fn into_endpoint(mut self) -> VriEndpoint<Frame> {
        self.adapter.to_lvrm_batch(&mut self.held);
        self.adapter.into_endpoint()
    }

    /// One burst: `fromLVRM()` (control before data), route, `toLVRM()`.
    ///
    /// Held frames go out first; if the egress queue still refuses them the
    /// step returns at once. Otherwise one clock reading closes the previous
    /// burst's service interval, all pending control is drained (`LVSU`
    /// batches fold into `ledger`, the rest go to the role), and up to
    /// `batch` data frames are pulled with one index publication. Each frame
    /// gets the VR's dummy load, a ledger observation and the router; the
    /// ledger's deltas are flushed upstream and the forwarded frames go back
    /// in one `to_lvrm_batch`, whatever is refused held for the next step.
    ///
    /// Returns the data frames pulled: 0 when the VRI is idle or blocked.
    pub fn step<C: Clock>(&mut self, clock: &C, mut ledger: Option<&mut ReplicaLedger>) -> usize {
        if !self.held.is_empty() {
            self.adapter.to_lvrm_batch(&mut self.held);
            if !self.held.is_empty() {
                return 0;
            }
        }
        let now = clock.now_ns();
        self.adapter.note_departures(now, self.in_service);
        // Emitter role: originate a timestamped control event.
        if let CtrlRole::Emitter { dst, payload, period_ns } = &self.role {
            if now >= self.next_emit_ns {
                let mut ev = ControlEvent::new(self.id().0, dst.0, vec![0u8; *payload]);
                ev.ts_ns = clock.now_ns();
                let _ = self.adapter.send_control(ev);
                self.next_emit_ns = now + period_ns;
            }
        }
        let n = self.adapter.from_lvrm_batch(&mut self.ctrl, &mut self.data, self.batch, now);
        self.in_service = n as u64;
        // Events drained in one pass arrived by one instant: read it once.
        let mut received_ns = None;
        for ev in self.ctrl.drain(..) {
            if let Some(ledger) = ledger.as_mut() {
                if is_state_update(&ev.payload) {
                    if let Ok((origin, updates)) = decode_batch(&ev.payload) {
                        ledger.fold_batch(origin, &updates);
                    }
                    continue;
                }
            }
            if let CtrlRole::Recorder { sink } = &self.role {
                let received_ns = *received_ns.get_or_insert_with(|| clock.now_ns());
                sink.lock().unwrap().record(received_ns.saturating_sub(ev.ts_ns));
            }
        }
        if n == 0 {
            return 0;
        }
        for mut frame in self.data.drain(..) {
            spin_for_ns(self.dummy_ns);
            if let Some(ledger) = ledger.as_mut() {
                if let Some(key) = FlowKey::from_frame(&frame) {
                    // `last_seen_ns` is a max-merge, so the burst can share
                    // the reading it was pulled at.
                    ledger.observe(key, frame.len() as u64, now);
                }
            }
            if let RouterAction::Forward { .. } = self.router.process(&mut frame) {
                self.held.push(frame);
            }
        }
        // A full control queue drops the batch: LVRM charges identity E on
        // receipt, so nothing is double-counted.
        if let Some(buf) = ledger.and_then(|ledger| ledger.flush()) {
            let _ = self.adapter.send_control(ControlEvent::new(self.id().0, LVRM_CTRL_ID, buf));
        }
        self.adapter.to_lvrm_batch(&mut self.held);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::estimate::EwmaQueueLength;
    use lvrm_ipc::channels::vri_channels;
    use lvrm_ipc::QueueKind;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame() -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
    }

    fn frame_from(port: u16) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 1)).udp(port, 2, &[])
    }

    fn routed_vr() -> Box<dyn VirtualRouter> {
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        Box::new(lvrm_router::FastVr::new("t", routes))
    }

    /// Counts its readings; each one moves time on by a microsecond.
    #[derive(Default)]
    struct CountingClock {
        reads: std::cell::Cell<u64>,
    }

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.reads.set(self.reads.get() + 1);
            self.reads.get() * 1_000
        }
    }

    #[test]
    fn an_iteration_reads_the_clock_at_most_twice_whatever_the_burst() {
        let recorder = Arc::new(Mutex::new(LatencyHistogram::new()));
        for burst in [1usize, 32, 256] {
            for replicate in [false, true] {
                let (mut chans, endpoint) = vri_channels::<Frame>(QueueKind::Lamport, 256, 8);
                let mut processed = 0u64;
                let role = CtrlRole::Recorder { sink: Arc::clone(&recorder) };
                let adapter = LvrmAdapter::new(VriId(3), endpoint);
                let mut svc = VriService::new(adapter, routed_vr(), role, burst);
                let mut ledger = replicate.then(|| ReplicaLedger::new(3));
                let clock = CountingClock::default();
                let mut out = Vec::new();
                for round in 1..=3u64 {
                    let mut frames: Vec<Frame> = (0..burst as u16)
                        .map(|port| {
                            FrameBuilder::new(
                                Ipv4Addr::new(10, 0, 1, 5),
                                Ipv4Addr::new(10, 0, 2, 1),
                            )
                            .udp(port, 2, &[0u8; 10])
                        })
                        .collect();
                    assert_eq!(chans.data_tx.try_send_batch(&mut frames), burst);
                    // Three control events for the recorder ride along.
                    for _ in 0..3 {
                        chans.ctrl_tx.try_send(ControlEvent::new(9, 3, vec![0; 4])).unwrap();
                    }
                    let before = clock.reads.get();
                    processed += svc.step(&clock, ledger.as_mut()) as u64;
                    let reads = clock.reads.get() - before;
                    assert!(reads <= 2, "burst {burst}, replicate {replicate}: {reads} reads");
                    assert_eq!(processed, round * burst as u64);
                    while let Some(f) = chans.data_rx.try_recv() {
                        out.push(f);
                    }
                    assert_eq!(out.len() as u64, round * burst as u64);
                    // An empty poll costs no more.
                    let before = clock.reads.get();
                    assert_eq!(svc.step(&clock, ledger.as_mut()), 0);
                    assert!(clock.reads.get() - before <= 2);
                }
                assert!(out.iter().all(|f| f.egress_if == 1));
                // The bursts after the first closed a service interval each.
                assert!(svc.adapter.service_rate().is_some());
            }
        }
        assert_eq!(recorder.lock().unwrap().count(), 3 * 3 * 3 * 2);
    }

    /// Forwards everything out of interface 1, stamping each frame's
    /// `ts_ns` with how many control events the recorder had seen by then.
    struct Probe {
        recorder: Arc<Mutex<LatencyHistogram>>,
    }

    impl VirtualRouter for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn process(&mut self, frame: &mut Frame) -> RouterAction {
            frame.ts_ns = self.recorder.lock().unwrap().count();
            frame.egress_if = 1;
            RouterAction::Forward { iface: 1 }
        }
        fn nominal_cost_ns(&self) -> u64 {
            0
        }
        fn spawn_instance(&self) -> Box<dyn VirtualRouter> {
            Box::new(Probe { recorder: Arc::clone(&self.recorder) })
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_step_serves_control_first_and_holds_what_a_full_egress_queue_refuses() {
        let recorder = Arc::new(Mutex::new(LatencyHistogram::new()));
        let (mut chans, endpoint) = vri_channels::<Frame>(QueueKind::Lamport, 4, 8);
        let router = Box::new(Probe { recorder: Arc::clone(&recorder) });
        let role = CtrlRole::Recorder { sink: Arc::clone(&recorder) };
        let mut svc = VriService::new(LvrmAdapter::new(VriId(3), endpoint), router, role, 4);
        let clock = ManualClock::new();
        let mut next_port = 0u16;
        let mut offer = |chans: &mut VriChannels<Frame>| {
            for _ in 0..4 {
                chans.data_tx.try_send(frame_from(next_port)).unwrap();
                next_port += 1;
            }
        };
        let mut out = Vec::new();

        // A control event queued behind a burst is served before it.
        offer(&mut chans);
        chans.ctrl_tx.try_send(ControlEvent::new(9, 3, vec![0; 4])).unwrap();
        assert_eq!(svc.step(&clock, None), 4);
        assert_eq!(chans.data_rx.len(), 4, "the burst went out whole");
        // The egress queue is full: the next burst is routed and held.
        offer(&mut chans);
        assert_eq!(svc.step(&clock, None), 4);
        assert_eq!(svc.held.len(), 4);
        // While it waits, the VRI pulls nothing more.
        offer(&mut chans);
        assert_eq!(svc.step(&clock, None), 0);
        assert_eq!(svc.endpoint_mut().data_rx.len(), 4, "the data queue did not drop");
        assert_eq!(svc.held.len(), 4);
        // Once the monitor drains, the held frames leave first, in order.
        chans.data_rx.try_recv_batch(&mut out, usize::MAX);
        assert_eq!(svc.step(&clock, None), 4, "held burst out, the next one pulled and held");
        chans.data_rx.try_recv_batch(&mut out, usize::MAX);
        assert_eq!(svc.step(&clock, None), 0, "held burst out, nothing left to pull");
        chans.data_rx.try_recv_batch(&mut out, usize::MAX);
        let ports: Vec<u16> =
            out.iter().map(|f| FlowKey::from_frame(f).unwrap().src_port).collect();
        assert_eq!(ports, (0..12).collect::<Vec<u16>>());
        assert!(out.iter().all(|f| f.ts_ns == 1), "every frame routed after the event");
    }

    fn pair(cap: usize) -> (VriAdapter, LvrmAdapter) {
        let (chans, endpoint) = vri_channels::<Frame>(QueueKind::Lamport, cap, 8);
        let adapter =
            VriAdapter::new(VriId(7), CoreId(1), chans, Box::new(EwmaQueueLength::new(1.0)));
        (adapter, LvrmAdapter::new(VriId(7), endpoint))
    }

    /// One frame through [`VriAdapter::dispatch_batch`], handed back if
    /// the queue refuses it.
    fn dispatch_one(lvrm: &mut VriAdapter, now_ns: u64) -> Result<(), Frame> {
        let mut one = vec![frame()];
        match lvrm.dispatch_batch(&mut one, now_ns) {
            1 => Ok(()),
            _ => Err(one.pop().expect("the refused frame")),
        }
    }

    #[test]
    fn dispatch_roundtrip_through_vri() {
        let (mut lvrm, mut vri) = pair(8);
        dispatch_one(&mut lvrm, 0).unwrap();
        let Some(Work::Data(f)) = vri.from_lvrm(10) else { panic!("expected data") };
        vri.to_lvrm(f).unwrap();
        let mut out = Vec::new();
        lvrm.drain_egress(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(lvrm.dispatched, 1);
        assert_eq!(lvrm.returned, 1);
    }

    #[test]
    fn backpressure_returns_frame_and_counts() {
        let (mut lvrm, _vri) = pair(1);
        dispatch_one(&mut lvrm, 0).unwrap();
        assert!(!lvrm.read_queue(0).valid);
        let refused = dispatch_one(&mut lvrm, 1);
        assert!(refused.is_err());
        assert_eq!(lvrm.dispatch_drops, 0, "a refusal is not a drop until the caller gives up");
        lvrm.note_discarded(1);
        assert_eq!(lvrm.dispatch_drops, 1);
    }

    #[test]
    fn load_estimate_rises_with_backlog() {
        let (mut lvrm, _vri) = pair(16);
        assert_eq!(lvrm.load(), 0.0);
        for i in 0..8 {
            dispatch_one(&mut lvrm, i).unwrap();
        }
        assert!(lvrm.load() > 1.0, "load {}", lvrm.load());
        assert_eq!(lvrm.queue_len(), 8);
    }

    #[test]
    fn service_rate_reports_flow_upstream() {
        let (mut lvrm, mut vri) = pair(64);
        // Feed frames and have the VRI consume them with 20 us gaps => 50 Kfps.
        let mut now = 0u64;
        for _ in 0..32 {
            dispatch_one(&mut lvrm, now).unwrap();
        }
        for _ in 0..32 {
            now += 20_000;
            let _ = vri.from_lvrm(now);
        }
        // Force a report past the period boundary.
        dispatch_one(&mut lvrm, now).unwrap();
        now += 200_000_000;
        let _ = vri.from_lvrm(now);
        let mut evs = Vec::new();
        lvrm.drain_control(&mut evs);
        let report = evs.iter().find_map(decode_service_rate).expect("a report");
        assert_eq!(report.0, VriId(7));
        assert!((report.1 - 50_000.0).abs() / 50_000.0 < 0.1, "rate {}", report.1);
    }

    #[test]
    fn batch_dispatch_and_egress_roundtrip() {
        let (mut lvrm, mut vri) = pair(8);
        let mut burst: Vec<Frame> = (0..12).map(|_| frame()).collect();
        assert_eq!(lvrm.dispatch_batch(&mut burst, 0), 8, "queue capacity caps the burst");
        assert_eq!(burst.len(), 4, "rejected suffix stays with the caller");
        assert_eq!(lvrm.dispatched, 8);
        assert_eq!(lvrm.dispatch_drops, 0, "the caller owns the rejected suffix");
        lvrm.note_discarded(burst.len() as u64);
        assert_eq!(lvrm.dispatch_drops, 4);
        assert_eq!(lvrm.queue_len(), 8);
        burst.clear();

        let mut ctrl = Vec::new();
        let mut data = Vec::new();
        assert_eq!(vri.from_lvrm_batch(&mut ctrl, &mut data, 64, 0), 8);
        assert!(ctrl.is_empty());
        let mut processed: Vec<Frame> = std::mem::take(&mut data);
        assert_eq!(vri.to_lvrm_batch(&mut processed), 8);
        assert!(processed.is_empty());

        let mut out = Vec::new();
        lvrm.drain_egress(&mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(lvrm.returned, 8);
    }

    #[test]
    fn batch_from_lvrm_delivers_control_first() {
        let (mut lvrm, mut vri) = pair(8);
        dispatch_one(&mut lvrm, 0).unwrap();
        lvrm.relay_control(ControlEvent::new(9, 7, b"cfg".to_vec())).unwrap();
        let mut ctrl = Vec::new();
        let mut data = Vec::new();
        assert_eq!(vri.from_lvrm_batch(&mut ctrl, &mut data, 4, 0), 1);
        assert_eq!(ctrl.len(), 1, "control drained in the same pass");
        assert_eq!(data.len(), 1);
    }

    #[test]
    fn note_departure_reports_upstream() {
        let (mut lvrm, mut vri) = pair(64);
        let mut ctrl = Vec::new();
        let mut data = Vec::new();
        let mut now = 0u64;
        for _ in 0..32 {
            dispatch_one(&mut lvrm, now).unwrap();
        }
        vri.from_lvrm_batch(&mut ctrl, &mut data, 64, now);
        for f in data.drain(..) {
            now += 20_000; // 50 Kfps service pace
            vri.note_departure(now);
            vri.to_lvrm(f).unwrap();
        }
        // Push past the report period so a report is emitted.
        dispatch_one(&mut lvrm, now).unwrap();
        vri.from_lvrm_batch(&mut ctrl, &mut data, 64, now);
        now += 200_000_000;
        vri.note_departure(now);
        let mut evs = Vec::new();
        lvrm.drain_egress(&mut Vec::new());
        lvrm.drain_control(&mut evs);
        let (id, rate) = evs.iter().find_map(decode_service_rate).expect("a report");
        assert_eq!(id, VriId(7));
        assert!(rate > 0.0);
    }

    #[test]
    fn a_vri_that_empties_its_queue_every_pull_still_reports() {
        // One frame per pull at 20 us each, an empty pull after every one:
        // the batch loop's books (previous burst closed at the next reading)
        // must rate it, though no two departures are ever adjacent.
        let (mut lvrm, mut vri) = pair(8);
        let (mut ctrl, mut data) = (Vec::new(), Vec::new());
        let (mut now, mut in_service) = (0u64, 0u64);
        let mut evs = Vec::new();
        for _ in 0..12_000 {
            dispatch_one(&mut lvrm, now).unwrap();
            for _ in 0..2 {
                vri.note_departures(now, in_service);
                in_service = vri.from_lvrm_batch(&mut ctrl, &mut data, 32, now) as u64;
                for f in data.drain(..) {
                    vri.to_lvrm(f).unwrap();
                }
                now += 20_000;
            }
            lvrm.drain_egress(&mut Vec::new());
            lvrm.drain_control(&mut evs);
        }
        let rates: Vec<f64> = evs.iter().filter_map(decode_service_rate).map(|r| r.1).collect();
        assert!(rates.len() >= 4, "one report per 100 ms over 480 ms: {}", rates.len());
        assert!(rates.iter().all(|r| (r - 50_000.0).abs() < 1.0), "{rates:?}");
    }

    #[test]
    fn service_rate_codec_rejects_foreign_events() {
        let ev = ControlEvent::new(1, 2, b"hello".to_vec());
        assert!(decode_service_rate(&ev).is_none());
        let ev = encode_service_rate(VriId(3), 1234.5);
        let (id, rate) = decode_service_rate(&ev).unwrap();
        assert_eq!(id, VriId(3));
        assert!((rate - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn control_events_pass_through_adapters() {
        let (mut lvrm, mut vri) = pair(8);
        // VRI -> LVRM
        vri.send_control(ControlEvent::new(7, 9, b"sync".to_vec())).unwrap();
        let mut evs = Vec::new();
        lvrm.drain_control(&mut evs);
        assert_eq!(evs.len(), 1);
        // LVRM -> VRI (priority over data).
        dispatch_one(&mut lvrm, 0).unwrap();
        lvrm.relay_control(ControlEvent::new(9, 7, b"ack".to_vec())).unwrap();
        assert!(matches!(vri.from_lvrm(1), Some(Work::Control(_))));
        assert!(matches!(vri.from_lvrm(2), Some(Work::Data(_))));
    }
}
