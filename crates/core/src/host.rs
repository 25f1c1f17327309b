//! The host abstraction: who actually runs VRIs.
//!
//! The paper's VRI monitor "creates or deletes VRIs via the function calls
//! `vfork()` and `kill()`" (§3.3) and binds each to a CPU core. How a VRI
//! becomes a running entity is host-specific: the discrete-event testbed
//! registers a simulated process on a simulated core, while the real runtime
//! spawns an OS thread and (best-effort) pins it. LVRM only needs the verbs
//! below. What a running VRI does is not the host's business either: the
//! runtime's threads and [`RecordingHost`] both step a
//! [`crate::vri::VriService`], the one VRI burst.

use std::collections::{HashMap, HashSet};

use lvrm_ipc::VriEndpoint;
use lvrm_net::Frame;
use lvrm_router::VirtualRouter;

use crate::clock::Clock;
use crate::repl::ReplicaLedger;
use crate::topology::CoreId;
use crate::vri::{encode_heartbeat, CtrlRole, LvrmAdapter, VriService};
use crate::{VrId, VriId};

/// Everything a host needs to start one VRI.
#[derive(Clone, Copy, Debug)]
pub struct VriSpec {
    pub vr: VrId,
    pub vri: VriId,
    /// The dedicated core ("to avoid the contention of multiple processes
    /// for a single CPU core, it is important to associate a CPU core with
    /// only one VRI", §3.2).
    pub core: CoreId,
}

/// Spawns and kills VRIs on behalf of the VRI monitor.
pub trait VriHost {
    /// Start a VRI: bind it to `spec.core`, give it its queue endpoint and
    /// its router instance, and begin its poll loop.
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    );

    /// Stop the VRI (the paper's `kill()`); the monitor destroys the queues
    /// afterwards ("kill the VRI … destroy all queues and clear allocated
    /// memory", Fig. 3.2).
    fn kill_vri(&mut self, vr: VrId, vri: VriId);

    /// Hand back a dead VRI's queue endpoint so the supervisor can drain the
    /// frames that were in flight when it died. Hosts that cannot recover
    /// the endpoint (e.g. it lived in another address space) return `None`
    /// and the supervisor counts those frames as `crash_lost`.
    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        let _ = vri;
        None
    }

    /// Advance host time; [`crate::Lvrm::run_burst`] calls it once a burst.
    /// Fault-injection wrappers fire their planned events and a host that
    /// runs its VRIs on the caller's thread services them; a host whose
    /// VRIs run on their own threads has nothing to do. The host-side
    /// mirror of [`crate::SocketAdapter::advance`].
    fn advance(&mut self, _now_ns: u64) {}
}

/// An inline host for tests: records spawn/kill calls and runs every VRI
/// on the caller's thread, one [`VriService`] per VRI.
#[derive(Default)]
pub struct RecordingHost {
    pub spawned: Vec<VriSpec>,
    pub killed: Vec<(VrId, VriId)>,
    /// Live VRIs, through which tests can also drive an endpoint or router
    /// by hand.
    pub vris: Vec<VriService>,
    /// Endpoints of killed or crashed VRIs, awaiting `reap_endpoint`.
    pub reapable: Vec<(VriId, VriEndpoint<Frame>)>,
    /// VRIs wedged by fault injection: `pump` skips them entirely, so they
    /// neither service frames nor emit heartbeats.
    pub stalled: HashSet<VriId>,
    /// VRIs whose upstream control path is lossy: serviced normally, but no
    /// heartbeat is emitted for them.
    pub ctrl_mute: HashSet<VriId>,
    /// Emit one heartbeat per serviced VRI per `pump` call (tests control
    /// beat cadence by how often they pump). Off by default so existing
    /// control-plane tests see no extra events.
    pub heartbeats: bool,
    /// State-compute replication: when set, each VRI's steps keep its
    /// [`ReplicaLedger`] in `ledgers`.
    pub replicate: bool,
    /// Per-VRI replica ledgers, created on a VRI's first `pump` under
    /// `replicate` and kept after it dies. Tests inspect these to check
    /// replica convergence.
    pub ledgers: HashMap<VriId, ReplicaLedger>,
    /// Monotonic pump counter, the clock the VRIs' steps read: it stamps
    /// `last_seen_ns` of observed flows.
    pub pump_ticks: u64,
}

/// The recording host's clock: its pump counter.
struct PumpTicks(u64);

impl Clock for PumpTicks {
    fn now_ns(&self) -> u64 {
        self.0
    }
}

impl VriHost for RecordingHost {
    /// One frame a step, so at most one frame per VRI waits on a full
    /// egress queue. No service-rate reports, and beats only from `pump`.
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.spawned.push(spec);
        let mut adapter = LvrmAdapter::new(spec.vri, endpoint).without_service_estimation();
        adapter.set_heartbeats(false);
        self.vris.push(VriService::new(adapter, router, CtrlRole::None, 1));
        self.stalled.remove(&spec.vri);
        self.ctrl_mute.remove(&spec.vri);
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.killed.push((vr, vri));
        self.detach(vri);
    }

    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        let pos = self.reapable.iter().position(|(id, _)| *id == vri)?;
        Some(self.reapable.remove(pos).1)
    }

    /// The inline runtime's turn: one [`RecordingHost::pump`].
    fn advance(&mut self, _now_ns: u64) {
        self.pump();
    }
}

impl RecordingHost {
    /// A recording host that emits heartbeats from `pump` (one per serviced
    /// VRI per call), for supervision tests.
    pub fn with_heartbeats() -> RecordingHost {
        RecordingHost { heartbeats: true, ..Default::default() }
    }

    /// A recording host whose VRIs keep replica ledgers: serviced frames are
    /// observed per flow, LVSU batches folded, and deltas flushed upstream.
    /// For state-compute replication tests.
    pub fn with_replication() -> RecordingHost {
        RecordingHost { replicate: true, ..Default::default() }
    }

    /// Step every live, unstalled VRI until a step pulls nothing, after its
    /// heartbeat under `heartbeats` unless it is muted. Returns the number
    /// of frames processed.
    pub fn pump(&mut self) -> usize {
        self.pump_ticks += 1;
        let clock = PumpTicks(self.pump_ticks);
        let mut processed = 0;
        for svc in &mut self.vris {
            let vri = svc.id();
            if self.stalled.contains(&vri) {
                continue;
            }
            if self.heartbeats && !self.ctrl_mute.contains(&vri) {
                let _ = svc.adapter_mut().send_control(encode_heartbeat(vri));
            }
            let mut ledger = self
                .replicate
                .then(|| self.ledgers.entry(vri).or_insert_with(|| ReplicaLedger::new(vri.0)));
            loop {
                match svc.step(&clock, ledger.as_deref_mut()) {
                    0 => break,
                    n => processed += n,
                }
            }
        }
        processed
    }

    /// Simulate a VRI process crash: the endpoint detaches (as the real
    /// process unwinding would) but stays reapable so the supervisor can
    /// drain its in-flight frames. Unlike `kill_vri` this is not monitor
    /// work — nothing is recorded in `killed`.
    pub fn crash_vri(&mut self, vri: VriId) {
        self.detach(vri);
        // Un-flushed per-flow deltas die with the process; they were never
        // emitted, so identity E is untouched. Books stay for inspection.
        if let Some(ledger) = self.ledgers.get_mut(&vri) {
            ledger.drop_pending();
        }
    }

    /// End a live VRI: its held frame gets one last try, then its endpoint
    /// detaches and waits to be reaped.
    fn detach(&mut self, vri: VriId) {
        if let Some(pos) = self.vris.iter().position(|svc| svc.id() == vri) {
            let endpoint = self.vris.remove(pos).into_endpoint();
            endpoint.detach();
            self.reapable.push((vri, endpoint));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_ipc::QueueKind;
    use lvrm_router::{FastVr, RouteTable};

    fn frame() -> Frame {
        lvrm_net::FrameBuilder::new(
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            std::net::Ipv4Addr::new(10, 0, 2, 1),
        )
        .udp(1, 2, &[])
    }

    #[test]
    fn recording_host_tracks_lifecycle() {
        let mut host = RecordingHost::default();
        let (mut chans, endpoint) =
            lvrm_ipc::channels::vri_channels::<Frame>(QueueKind::Lamport, 8, 4);
        let vr = FastVr::new("t", RouteTable::new());
        let spec = VriSpec { vr: VrId(0), vri: VriId(1), core: CoreId(2) };
        host.spawn_vri(spec, endpoint, Box::new(vr));
        assert_eq!(host.spawned.len(), 1);
        assert_eq!(host.vris.len(), 1);

        // No routes: frames are dropped, not returned.
        chans.data_tx.try_send(frame()).unwrap();
        assert_eq!(host.pump(), 1);
        assert!(chans.data_rx.try_recv().is_none());

        host.kill_vri(VrId(0), VriId(1));
        assert!(host.vris.is_empty());
        assert!(!chans.endpoint_attached(), "kill detaches the endpoint");
    }

    #[test]
    fn crashed_endpoint_is_reapable_with_frames_intact() {
        let mut host = RecordingHost::default();
        let (mut chans, endpoint) =
            lvrm_ipc::channels::vri_channels::<Frame>(QueueKind::Lamport, 8, 4);
        let vr = FastVr::new("t", RouteTable::new());
        host.spawn_vri(
            VriSpec { vr: VrId(0), vri: VriId(1), core: CoreId(2) },
            endpoint,
            Box::new(vr),
        );
        chans.data_tx.try_send(frame()).unwrap();
        chans.data_tx.try_send(frame()).unwrap();

        host.crash_vri(VriId(1));
        assert!(!chans.endpoint_attached());
        assert!(host.killed.is_empty(), "a crash is not monitor work");
        let mut ep = host.reap_endpoint(VriId(1)).expect("endpoint reapable");
        let mut drained = Vec::new();
        ep.data_rx.try_recv_batch(&mut drained, usize::MAX);
        assert_eq!(drained.len(), 2, "in-flight frames survive the crash");
        assert!(host.reap_endpoint(VriId(1)).is_none(), "reaping is one-shot");
    }

    #[test]
    fn stalled_vri_is_skipped_by_pump() {
        let mut host = RecordingHost::with_heartbeats();
        let (mut chans, endpoint) =
            lvrm_ipc::channels::vri_channels::<Frame>(QueueKind::Lamport, 8, 4);
        let vr = FastVr::new("t", RouteTable::new());
        host.spawn_vri(
            VriSpec { vr: VrId(0), vri: VriId(1), core: CoreId(2) },
            endpoint,
            Box::new(vr),
        );
        chans.data_tx.try_send(frame()).unwrap();
        host.stalled.insert(VriId(1));
        assert_eq!(host.pump(), 0, "stalled VRI services nothing");
        assert!(chans.ctrl_rx.try_recv().is_none(), "and emits no heartbeat");
        host.stalled.remove(&VriId(1));
        assert_eq!(host.pump(), 1);
        assert!(chans.ctrl_rx.try_recv().is_some(), "heartbeat resumes");
    }
}
