//! Deterministic fault injection for chaos-testing the supervisor.
//!
//! Failures are described ahead of time by a [`FaultPlan`]: a list of
//! `(timestamp, fault)` pairs, either hand-written or generated from a seed.
//! Nothing here consults wall-clock time or an OS entropy source — plans are
//! replayed against a [`crate::clock::ManualClock`] (or any monotonic
//! timestamp stream), so every chaos run is exactly reproducible from its
//! seed.
//!
//! [`FaultyHost`] wraps any [`VriHost`] that knows how to hurt itself (the
//! [`FaultInjectable`] verbs) and fires due faults as simulated time
//! advances. Faults target VRIs by **spawn order** rather than id, so a plan
//! written before the run ("crash the second instance ever started") stays
//! meaningful across allocator decisions and respawns.
//!
//! [`FaultySocket`] wraps a [`SocketAdapter`] and models NIC misbehavior:
//! ingress error bursts (windows of arriving frames, addressed by frame
//! index, that surface as [`AdapterError::Transient`]), refused sends
//! (addressed by send-attempt index, the frame handed back intact), and
//! time-addressed crash/stall events from the plan's adapter track. A
//! crashed or stalled socket recovers on [`SocketAdapter::reopen`] — the
//! model of restarting a wedged NIC — which is exactly the hook the
//! [`crate::adapter::SupervisedAdapter`] drives.

use std::io;

use lvrm_ipc::VriEndpoint;
use lvrm_net::Frame;
use lvrm_router::VirtualRouter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cluster::PeerLink;
use crate::host::{RecordingHost, VriHost, VriSpec};
use crate::socket::{AdapterError, SendRejected, SocketAdapter, SocketKind};
use crate::{VrId, VriId};

/// One kind of injected failure. VRIs are addressed by spawn order (the
/// `nth_spawn`-th `spawn_vri` call the wrapped host ever saw, 0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The VRI process dies: its endpoint detaches, frames queued toward it
    /// stay in the queues for the supervisor to reap.
    Crash { nth_spawn: usize },
    /// The VRI wedges: it stops servicing `from_lvrm`, so its heartbeats
    /// stop, but its endpoint stays attached.
    Stall { nth_spawn: usize },
    /// Un-wedge a stalled VRI.
    Resume { nth_spawn: usize },
    /// Toggle control-queue loss: the VRI keeps forwarding frames but its
    /// proofs of life no longer reach the monitor.
    CtrlLoss { nth_spawn: usize, on: bool },
}

/// A fault scheduled at a point in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub at_ns: u64,
    pub kind: FaultKind,
}

/// One kind of injected *adapter* failure, scheduled by simulated time on
/// the plan's adapter track and fired by [`FaultySocket::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdapterFaultKind {
    /// The NIC dies outright: every poll/send fails [`AdapterError::Fatal`]
    /// until the adapter is reopened.
    Crash,
    /// The NIC wedges: operations fail [`AdapterError::Stalled`] until
    /// resumed or reopened.
    Stall,
    /// Un-wedge a stalled adapter (a crash still needs a reopen).
    Resume,
    /// Start an RX error burst: the next `len` arriving frames surface as
    /// [`AdapterError::Transient`] instead of being delivered.
    ErrorBurst { len: u64 },
}

/// An adapter fault scheduled at a point in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdapterFaultEvent {
    pub at_ns: u64,
    pub kind: AdapterFaultKind,
}

/// A deterministic schedule of faults: a VRI track (spawn-order addressed)
/// and an adapter track (time addressed).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    adapter_events: Vec<AdapterFaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule an arbitrary fault.
    pub fn push(mut self, at_ns: u64, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at_ns, kind });
        self
    }

    /// Crash the `nth`-spawned VRI at `at_ns`.
    pub fn crash_at(self, at_ns: u64, nth: usize) -> FaultPlan {
        self.push(at_ns, FaultKind::Crash { nth_spawn: nth })
    }

    /// Stall the `nth`-spawned VRI at `at_ns`.
    pub fn stall_at(self, at_ns: u64, nth: usize) -> FaultPlan {
        self.push(at_ns, FaultKind::Stall { nth_spawn: nth })
    }

    /// Schedule an arbitrary adapter fault.
    pub fn push_adapter(mut self, at_ns: u64, kind: AdapterFaultKind) -> FaultPlan {
        self.adapter_events.push(AdapterFaultEvent { at_ns, kind });
        self
    }

    /// Crash the socket adapter at `at_ns`.
    pub fn crash_adapter_at(self, at_ns: u64) -> FaultPlan {
        self.push_adapter(at_ns, AdapterFaultKind::Crash)
    }

    /// Stall the socket adapter at `at_ns`.
    pub fn stall_adapter_at(self, at_ns: u64) -> FaultPlan {
        self.push_adapter(at_ns, AdapterFaultKind::Stall)
    }

    /// Un-stall the socket adapter at `at_ns`.
    pub fn resume_adapter_at(self, at_ns: u64) -> FaultPlan {
        self.push_adapter(at_ns, AdapterFaultKind::Resume)
    }

    /// Start a `len`-frame RX error burst at `at_ns`.
    pub fn adapter_error_burst_at(self, at_ns: u64, len: u64) -> FaultPlan {
        self.push_adapter(at_ns, AdapterFaultKind::ErrorBurst { len })
    }

    /// Generate `count` faults uniformly over `(0, horizon_ns]` targeting
    /// spawn indices below `max_spawns`, all from `seed`. The same seed
    /// always yields the same plan.
    pub fn randomized(seed: u64, horizon_ns: u64, count: usize, max_spawns: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at_ns = 1 + rng.gen_range(0..horizon_ns.max(1));
            let nth = rng.gen_range(0..max_spawns.max(1));
            let kind = match rng.gen_range(0..4u8) {
                0 => FaultKind::Crash { nth_spawn: nth },
                1 => FaultKind::Stall { nth_spawn: nth },
                2 => FaultKind::Resume { nth_spawn: nth },
                _ => FaultKind::CtrlLoss { nth_spawn: nth, on: rng.gen_range(0..2u8) == 1 },
            };
            plan = plan.push(at_ns, kind);
        }
        plan
    }

    /// The scheduled VRI events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The scheduled adapter events, in insertion order.
    pub fn adapter_events(&self) -> &[AdapterFaultEvent] {
        &self.adapter_events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.adapter_events.is_empty()
    }
}

/// The self-harm verbs a host must offer for [`FaultyHost`] to drive it.
pub trait FaultInjectable {
    /// Kill the VRI's execution vehicle abruptly: endpoint detaches,
    /// in-flight frames stay queued for reaping. Not monitor work — the
    /// supervisor discovers it via the detached endpoint.
    fn inject_crash(&mut self, vri: VriId);

    /// Wedge (`on = true`) or un-wedge the VRI's service loop.
    fn inject_stall(&mut self, vri: VriId, on: bool);

    /// Start or stop dropping the VRI's upstream liveness traffic.
    fn inject_ctrl_loss(&mut self, vri: VriId, on: bool);
}

impl FaultInjectable for RecordingHost {
    fn inject_crash(&mut self, vri: VriId) {
        self.crash_vri(vri);
    }

    fn inject_stall(&mut self, vri: VriId, on: bool) {
        if on {
            self.stalled.insert(vri);
        } else {
            self.stalled.remove(&vri);
        }
    }

    fn inject_ctrl_loss(&mut self, vri: VriId, on: bool) {
        if on {
            self.ctrl_mute.insert(vri);
        } else {
            self.ctrl_mute.remove(&vri);
        }
    }
}

/// A [`VriHost`] wrapper that fires a [`FaultPlan`] as time advances.
///
/// Spawns pass through and are recorded in order, so plan entries addressed
/// by spawn index resolve to concrete [`VriId`]s at fire time. [`apply`]
/// fires the events due by a timestamp, in schedule order; `advance` (what
/// [`crate::Lvrm::run_burst`] calls) applies and then advances the wrapped
/// host. Events targeting a spawn index that has not happened yet are
/// dropped (counted in `skipped`). The adapter track is ignored here — hand
/// the same plan to [`FaultySocket::with_plan`].
///
/// [`apply`]: FaultyHost::apply
pub struct FaultyHost<H> {
    pub inner: H,
    plan: Vec<FaultEvent>,
    cursor: usize,
    /// VriId of every spawn the wrapped host ever saw, in order.
    pub spawn_order: Vec<VriId>,
    /// Faults fired so far.
    pub injected: u64,
    /// Plan entries dropped because their target never spawned.
    pub skipped: u64,
}

impl<H> FaultyHost<H> {
    pub fn new(inner: H, plan: FaultPlan) -> FaultyHost<H> {
        let mut events = plan.events;
        events.sort_by_key(|e| e.at_ns);
        FaultyHost {
            inner,
            plan: events,
            cursor: 0,
            spawn_order: Vec::new(),
            injected: 0,
            skipped: 0,
        }
    }

    fn target(&self, nth: usize) -> Option<VriId> {
        self.spawn_order.get(nth).copied()
    }
}

impl<H: VriHost + FaultInjectable> FaultyHost<H> {
    /// Fire every event due at or before `now_ns`. Returns how many fired.
    pub fn apply(&mut self, now_ns: u64) -> usize {
        let mut fired = 0;
        while self.cursor < self.plan.len() && self.plan[self.cursor].at_ns <= now_ns {
            let ev = self.plan[self.cursor];
            self.cursor += 1;
            let nth = match ev.kind {
                FaultKind::Crash { nth_spawn }
                | FaultKind::Stall { nth_spawn }
                | FaultKind::Resume { nth_spawn }
                | FaultKind::CtrlLoss { nth_spawn, .. } => nth_spawn,
            };
            let Some(vri) = self.target(nth) else {
                self.skipped += 1;
                continue;
            };
            match ev.kind {
                FaultKind::Crash { .. } => self.inner.inject_crash(vri),
                FaultKind::Stall { .. } => self.inner.inject_stall(vri, true),
                FaultKind::Resume { .. } => self.inner.inject_stall(vri, false),
                FaultKind::CtrlLoss { on, .. } => self.inner.inject_ctrl_loss(vri, on),
            }
            self.injected += 1;
            fired += 1;
        }
        fired
    }
}

impl<H: VriHost + FaultInjectable> VriHost for FaultyHost<H> {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.spawn_order.push(spec.vri);
        self.inner.spawn_vri(spec, endpoint, router);
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.inner.kill_vri(vr, vri);
    }

    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        self.inner.reap_endpoint(vri)
    }

    /// Fire the events due by `now_ns`, then advance the wrapped host.
    fn advance(&mut self, now_ns: u64) {
        self.apply(now_ns);
        self.inner.advance(now_ns);
    }
}

/// A [`SocketAdapter`] wrapper modeling NIC misbehavior. Three independent
/// failure channels, all deterministic:
///
/// * **RX error bursts** — windows of arriving frames, addressed by frame
///   index (not time, so a burst hits the same frames on every run
///   regardless of poll cadence), consumed from the inner adapter and
///   surfaced as [`AdapterError::Transient`];
/// * **refused sends** — windows of send *attempts*, addressed by attempt
///   index, handed back intact in a [`SendRejected`];
/// * **crash/stall** — flipped by the plan's adapter track via
///   [`apply`](FaultySocket::apply) (or the `crashed_from_start`
///   builder); cleared by
///   [`reopen`](SocketAdapter::reopen), modeling a NIC restart.
pub struct FaultySocket<S> {
    pub inner: S,
    bursts: Vec<(u64, u64)>,
    send_fails: Vec<(u64, u64)>,
    plan: Vec<AdapterFaultEvent>,
    cursor: usize,
    seen: u64,
    send_seen: u64,
    crashed: bool,
    stalled: bool,
    /// Frames eaten by error bursts.
    pub rx_errors: u64,
    /// Send attempts refused by the send-fail windows.
    pub tx_errors: u64,
    /// Adapter-track events fired so far.
    pub injected: u64,
}

impl<S> FaultySocket<S> {
    pub fn new(inner: S) -> FaultySocket<S> {
        FaultySocket {
            inner,
            bursts: Vec::new(),
            send_fails: Vec::new(),
            plan: Vec::new(),
            cursor: 0,
            seen: 0,
            send_seen: 0,
            crashed: false,
            stalled: false,
            rx_errors: 0,
            tx_errors: 0,
            injected: 0,
        }
    }

    /// Wrap `inner` and arm the adapter track of `plan` (time-addressed
    /// crash/stall/burst events fired by [`apply`](FaultySocket::apply)).
    pub fn with_plan(inner: S, plan: &FaultPlan) -> FaultySocket<S> {
        let mut events = plan.adapter_events.clone();
        events.sort_by_key(|e| e.at_ns);
        let mut sock = FaultySocket::new(inner);
        sock.plan = events;
        sock
    }

    /// Error out `len` frames starting at arrival index `start` (0-based).
    pub fn error_burst(mut self, start: u64, len: u64) -> FaultySocket<S> {
        self.bursts.push((start, len));
        self
    }

    /// Refuse `len` send attempts starting at attempt index `start`.
    pub fn send_fail(mut self, start: u64, len: u64) -> FaultySocket<S> {
        self.send_fails.push((start, len));
        self
    }

    /// Begin life crashed (every op fails `Fatal` until reopened).
    pub fn crashed_from_start(mut self) -> FaultySocket<S> {
        self.crashed = true;
        self
    }

    /// Fire every adapter-track event due at or before `now_ns`.
    pub fn apply(&mut self, now_ns: u64) -> usize {
        let mut fired = 0;
        while self.cursor < self.plan.len() && self.plan[self.cursor].at_ns <= now_ns {
            let ev = self.plan[self.cursor];
            self.cursor += 1;
            match ev.kind {
                AdapterFaultKind::Crash => self.crashed = true,
                AdapterFaultKind::Stall => self.stalled = true,
                AdapterFaultKind::Resume => self.stalled = false,
                AdapterFaultKind::ErrorBurst { len } => self.bursts.push((self.seen, len)),
            }
            self.injected += 1;
            fired += 1;
        }
        fired
    }

    fn down_error(&self) -> Option<AdapterError> {
        if self.crashed {
            Some(AdapterError::Fatal)
        } else if self.stalled {
            Some(AdapterError::Stalled)
        } else {
            None
        }
    }

    fn is_rx_error(&self, idx: u64) -> bool {
        self.bursts.iter().any(|&(s, l)| idx >= s && idx < s.saturating_add(l))
    }

    fn is_tx_error(&self, idx: u64) -> bool {
        self.send_fails.iter().any(|&(s, l)| idx >= s && idx < s.saturating_add(l))
    }
}

impl<S: SocketAdapter> SocketAdapter for FaultySocket<S> {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        if let Some(e) = self.down_error() {
            return Err(e);
        }
        let f = self.inner.poll()?;
        let idx = self.seen;
        self.seen += 1;
        if self.is_rx_error(idx) {
            self.rx_errors += 1;
            // The frame was consumed from the ring but arrived damaged.
            return Err(AdapterError::Transient(io::Error::new(
                io::ErrorKind::InvalidData,
                "injected rx error burst",
            )));
        }
        Ok(f)
    }

    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        if let Some(e) = self.down_error() {
            return Err(SendRejected { frame, error: e });
        }
        let idx = self.send_seen;
        self.send_seen += 1;
        if self.is_tx_error(idx) {
            self.tx_errors += 1;
            return Err(SendRejected {
                frame,
                error: AdapterError::Transient(io::Error::other("injected tx refusal")),
            });
        }
        self.inner.send(frame)
    }

    /// Clears crash/stall (a NIC restart) and reopens the inner adapter.
    fn reopen(&mut self) -> Result<(), AdapterError> {
        self.crashed = false;
        self.stalled = false;
        self.inner.reopen()
    }

    /// Consume due plan events; lets a boxed `FaultySocket` inside a
    /// supervisor chain fire time-addressed faults.
    fn advance(&mut self, now_ns: u64) {
        self.apply(now_ns);
        self.inner.advance(now_ns);
    }

    fn kind(&self) -> SocketKind {
        self.inner.kind()
    }

    /// Frames actually delivered to LVRM (errored frames excluded).
    fn rx_count(&self) -> u64 {
        self.inner.rx_count() - self.rx_errors
    }

    fn tx_count(&self) -> u64 {
        self.inner.tx_count()
    }
}

/// Avalanche mixer (splitmix64 finalizer) — the seed-to-jitter hash, and
/// the per-shard weight mixer behind `cluster::rendezvous_owner`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministically jitter `base_ns` into `[0.75·base, 1.25·base]`, keyed
/// by an instance `salt` and a per-attempt `nonce`. Exponential backoff
/// without jitter synchronizes every peer that failed together (the
/// thundering herd); ±25% keyed per instance de-phases their retries while
/// staying exactly reproducible for tests.
pub fn jittered_backoff(base_ns: u64, salt: u64, nonce: u64) -> u64 {
    let span = base_ns / 2;
    let lo = base_ns - base_ns / 4;
    if span == 0 {
        return base_ns;
    }
    lo + splitmix64(salt ^ nonce.rotate_left(32)) % (span + 1)
}

/// One kind of injected *peer-link* failure, active over a window of
/// simulated time (the HA fault track: advert loss, delivery delay,
/// partition — the raw material of split-brain chaos tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Drop everything sent in the window (a cut cable). Wrap both ends'
    /// links for a symmetric partition, one end for an asymmetric one.
    Partition,
    /// Drop each message sent in the window with probability
    /// `drop_per_mille / 1000` (seeded, reproducible).
    Loss { drop_per_mille: u16 },
    /// Deliver messages sent in the window `delay_ns` late.
    Delay { delay_ns: u64 },
}

/// A [`LinkFaultKind`] active over `[from_ns, until_ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFaultWindow {
    pub from_ns: u64,
    pub until_ns: u64,
    pub kind: LinkFaultKind,
}

impl LinkFaultWindow {
    pub fn partition(from_ns: u64, until_ns: u64) -> LinkFaultWindow {
        LinkFaultWindow { from_ns, until_ns, kind: LinkFaultKind::Partition }
    }
    pub fn loss(from_ns: u64, until_ns: u64, drop_per_mille: u16) -> LinkFaultWindow {
        LinkFaultWindow { from_ns, until_ns, kind: LinkFaultKind::Loss { drop_per_mille } }
    }
    pub fn delay(from_ns: u64, until_ns: u64, delay_ns: u64) -> LinkFaultWindow {
        LinkFaultWindow { from_ns, until_ns, kind: LinkFaultKind::Delay { delay_ns } }
    }

    fn active(&self, now_ns: u64) -> bool {
        now_ns >= self.from_ns && now_ns < self.until_ns
    }
}

/// A [`PeerLink`] wrapper firing [`LinkFaultWindow`]s as simulated time
/// advances: sends inside a partition window vanish, loss windows drop
/// probabilistically (seeded), delay windows park messages until their
/// release instant. Deterministic: same windows + seed + call sequence ⇒
/// same delivered stream.
pub struct FaultyLink<L> {
    pub inner: L,
    windows: Vec<LinkFaultWindow>,
    rng: SmallRng,
    /// Parked messages awaiting their release instant, in send order.
    delayed: Vec<(u64, Vec<u8>)>,
    /// Messages swallowed by partition/loss windows.
    pub dropped: u64,
    /// Messages that took a delay window.
    pub delayed_count: u64,
}

impl<L: PeerLink> FaultyLink<L> {
    pub fn new(inner: L, windows: Vec<LinkFaultWindow>, seed: u64) -> FaultyLink<L> {
        FaultyLink {
            inner,
            windows,
            rng: SmallRng::seed_from_u64(seed ^ 0xfa17_71a6),
            delayed: Vec::new(),
            dropped: 0,
            delayed_count: 0,
        }
    }

    /// Release parked messages whose delay has elapsed, preserving order.
    fn pump(&mut self, now_ns: u64) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now_ns {
                let (_, bytes) = self.delayed.remove(i);
                self.inner.send(now_ns, &bytes);
            } else {
                i += 1;
            }
        }
    }
}

impl<L: PeerLink> PeerLink for FaultyLink<L> {
    fn send(&mut self, now_ns: u64, bytes: &[u8]) {
        self.pump(now_ns);
        let mut delay: Option<u64> = None;
        for w in &self.windows {
            if !w.active(now_ns) {
                continue;
            }
            match w.kind {
                LinkFaultKind::Partition => {
                    self.dropped += 1;
                    return;
                }
                LinkFaultKind::Loss { drop_per_mille } => {
                    if self.rng.gen_range(0..1000u16) < drop_per_mille {
                        self.dropped += 1;
                        return;
                    }
                }
                LinkFaultKind::Delay { delay_ns } => {
                    delay = Some(delay.map_or(delay_ns, |d: u64| d.max(delay_ns)));
                }
            }
        }
        if let Some(d) = delay {
            self.delayed_count += 1;
            self.delayed.push((now_ns + d, bytes.to_vec()));
        } else {
            self.inner.send(now_ns, bytes);
        }
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>) {
        self.pump(now_ns);
        self.inner.recv(now_ns, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::MemTraceAdapter;
    use crate::topology::CoreId;
    use lvrm_ipc::QueueKind;
    use lvrm_net::{Trace, TraceSpec};
    use lvrm_router::{FastVr, RouteTable};

    fn spawn(host: &mut FaultyHost<RecordingHost>, vri: u32) {
        let (_chans, endpoint) =
            lvrm_ipc::channels::vri_channels::<Frame>(QueueKind::Lamport, 8, 4);
        host.spawn_vri(
            VriSpec { vr: VrId(0), vri: VriId(vri), core: CoreId(vri as u16) },
            endpoint,
            Box::new(FastVr::new("t", RouteTable::new())),
        );
    }

    fn mem(frames: u64) -> MemTraceAdapter {
        MemTraceAdapter::new(Trace::generate(&TraceSpec::new(84, 4)), frames)
    }

    #[test]
    fn plan_fires_in_time_order_against_spawn_order() {
        let plan = FaultPlan::new().stall_at(200, 1).crash_at(100, 0);
        let mut host = FaultyHost::new(RecordingHost::default(), plan);
        spawn(&mut host, 10);
        spawn(&mut host, 11);
        assert_eq!(host.apply(50), 0, "nothing due yet");
        assert_eq!(host.apply(150), 1, "crash fires");
        assert!(host.inner.vris.iter().all(|svc| svc.id() != VriId(10)));
        assert_eq!(host.apply(300), 1, "stall fires");
        assert!(host.inner.stalled.contains(&VriId(11)));
        assert_eq!(host.injected, 2);
    }

    #[test]
    fn faults_for_unspawned_targets_are_skipped() {
        let plan = FaultPlan::new().crash_at(10, 7);
        let mut host = FaultyHost::new(RecordingHost::default(), plan);
        spawn(&mut host, 1);
        assert_eq!(host.apply(100), 0);
        assert_eq!(host.skipped, 1);
    }

    #[test]
    fn randomized_plans_are_reproducible() {
        let a = FaultPlan::randomized(42, 1_000_000, 16, 4);
        let b = FaultPlan::randomized(42, 1_000_000, 16, 4);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::randomized(43, 1_000_000, 16, 4);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn faulty_socket_surfaces_exactly_the_burst() {
        let mut sock = FaultySocket::new(mem(10)).error_burst(2, 3);
        let (mut got, mut errs) = (0u64, 0u64);
        loop {
            match sock.poll() {
                Ok(_) => got += 1,
                Err(AdapterError::WouldBlock) => break,
                Err(AdapterError::Transient(_)) => errs += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, 7, "indices 2..5 errored");
        assert_eq!(errs, 3, "each eaten frame surfaced as a transient error");
        assert_eq!(sock.rx_errors, 3);
        assert_eq!(sock.rx_count(), 7);
    }

    #[test]
    fn refused_sends_hand_the_frame_back() {
        let mut sock = FaultySocket::new(mem(5)).send_fail(1, 2);
        let mut frames = Vec::new();
        sock.poll_batch(&mut frames, 5).unwrap();
        assert_eq!(frames.len(), 5);
        let mut refused = 0;
        for f in frames.drain(..) {
            if let Err(rej) = sock.send(f) {
                assert!(!rej.error.is_would_block());
                refused += 1;
            }
        }
        assert_eq!(refused, 2, "attempts 1 and 2 refused");
        assert_eq!(sock.tx_errors, 2);
        assert_eq!(sock.tx_count(), 3, "only accepted frames count");
    }

    #[test]
    fn adapter_track_crash_is_fatal_until_reopen() {
        let plan = FaultPlan::new().crash_adapter_at(100);
        let mut sock = FaultySocket::with_plan(mem(10), &plan);
        assert!(sock.poll().is_ok());
        assert_eq!(sock.apply(50), 0);
        assert_eq!(sock.apply(150), 1);
        assert!(matches!(sock.poll(), Err(AdapterError::Fatal)));
        let f = Trace::generate(&TraceSpec::new(84, 4)).frames()[0].clone();
        let rej = sock.send(f).unwrap_err();
        assert!(matches!(rej.error, AdapterError::Fatal), "frame handed back on crash");
        sock.reopen().unwrap();
        assert!(sock.poll().is_ok(), "reopen models a NIC restart");
    }

    #[test]
    fn adapter_track_stall_resumes() {
        let plan = FaultPlan::new().stall_adapter_at(10).resume_adapter_at(20);
        let mut sock = FaultySocket::with_plan(mem(10), &plan);
        sock.apply(10);
        assert!(matches!(sock.poll(), Err(AdapterError::Stalled)));
        sock.apply(20);
        assert!(sock.poll().is_ok());
    }

    #[test]
    fn timed_error_burst_starts_at_current_arrival_index() {
        let plan = FaultPlan::new().adapter_error_burst_at(100, 2);
        let mut sock = FaultySocket::with_plan(mem(6), &plan);
        assert!(sock.poll().is_ok());
        assert!(sock.poll().is_ok());
        sock.apply(100); // burst armed at arrival index 2
        assert!(matches!(sock.poll(), Err(AdapterError::Transient(_))));
        assert!(matches!(sock.poll(), Err(AdapterError::Transient(_))));
        assert!(sock.poll().is_ok());
        assert_eq!(sock.rx_errors, 2);
    }

    #[test]
    fn faulty_link_partition_drops_and_heals() {
        let (a, b) = crate::cluster::ChannelLink::pair();
        let mut tx = FaultyLink::new(a, vec![LinkFaultWindow::partition(100, 200)], 7);
        let mut rx = b;
        let mut out = Vec::new();
        tx.send(50, b"before");
        tx.send(150, b"inside");
        tx.send(250, b"after");
        rx.recv(250, &mut out);
        let got: Vec<&[u8]> = out.iter().map(|v| v.as_slice()).collect();
        assert_eq!(got, vec![b"before".as_slice(), b"after".as_slice()]);
        assert_eq!(tx.dropped, 1);
    }

    #[test]
    fn faulty_link_delay_parks_until_release() {
        let (a, b) = crate::cluster::ChannelLink::pair();
        let mut tx = FaultyLink::new(a, vec![LinkFaultWindow::delay(0, 500, 500)], 7);
        let mut rx = b;
        let mut out = Vec::new();
        tx.send(100, b"slow");
        rx.recv(200, &mut out);
        assert!(out.is_empty(), "parked until 600");
        tx.send(700, b"later"); // pump on the sender side releases the parked msg
        rx.recv(700, &mut out);
        let got: Vec<&[u8]> = out.iter().map(|v| v.as_slice()).collect();
        assert_eq!(got, vec![b"slow".as_slice(), b"later".as_slice()]);
        assert_eq!(tx.delayed_count, 1);
    }

    #[test]
    fn faulty_link_loss_is_seeded_and_reproducible() {
        let run = |seed: u64| {
            let (a, b) = crate::cluster::ChannelLink::pair();
            let mut tx = FaultyLink::new(a, vec![LinkFaultWindow::loss(0, 10_000, 500)], seed);
            let mut rx = b;
            for i in 0..100u64 {
                tx.send(i * 10, &i.to_le_bytes());
            }
            let mut out = Vec::new();
            rx.recv(10_000, &mut out);
            (tx.dropped, out)
        };
        let (d1, o1) = run(3);
        let (d2, o2) = run(3);
        let (d3, o3) = run(4);
        assert_eq!((d1, &o1), (d2, &o2), "same seed, same stream");
        assert!(d1 > 20 && d1 < 80, "~50% loss, got {d1}");
        assert!(o1 != o3 || d1 != d3, "different seed should diverge");
    }
}
