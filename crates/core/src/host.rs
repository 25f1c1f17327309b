//! The host abstraction: who actually runs VRIs.
//!
//! The paper's VRI monitor "creates or deletes VRIs via the function calls
//! `vfork()` and `kill()`" (§3.3) and binds each to a CPU core. How a VRI
//! becomes a running entity is host-specific: the discrete-event testbed
//! registers a simulated process on a simulated core, while the real runtime
//! spawns an OS thread and (best-effort) pins it. LVRM only needs the verbs
//! below.

use std::collections::{HashMap, HashSet};

use lvrm_ipc::channels::ControlEvent;
use lvrm_ipc::{Full, VriEndpoint};
use lvrm_net::{FlowKey, Frame};
use lvrm_router::VirtualRouter;

use crate::repl::ReplicaLedger;
use crate::topology::CoreId;
use crate::vri::{encode_heartbeat, LVRM_CTRL_ID};
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

/// A no-op host for unit tests: records spawn/kill calls.
#[derive(Default)]
pub struct RecordingHost {
    pub spawned: Vec<VriSpec>,
    pub killed: Vec<(VrId, VriId)>,
    /// Endpoints of live VRIs, so tests can drive them manually.
    pub endpoints: Vec<(VriId, VriEndpoint<Frame>, Box<dyn VirtualRouter>)>,
    /// Endpoints of killed or crashed VRIs, awaiting `reap_endpoint`.
    pub reapable: Vec<(VriId, VriEndpoint<Frame>)>,
    /// VRIs wedged by fault injection: `pump` skips them entirely, so they
    /// neither service frames nor emit heartbeats.
    pub stalled: HashSet<VriId>,
    /// VRIs whose upstream control path is lossy: serviced normally, but no
    /// heartbeat is emitted for them.
    pub ctrl_mute: HashSet<VriId>,
    /// Emit one heartbeat per serviced endpoint per `pump` call (tests
    /// control beat cadence by how often they pump). Off by default so
    /// existing control-plane tests see no extra events.
    pub heartbeats: bool,
    /// Routed frames a full egress queue refused, at most one per VRI: the
    /// instance retries it (and pulls no new work) until LVRM makes room
    /// via `poll_egress`, the way a real VRI blocks in `toLVRM()`.
    pub egress_backlog: Vec<(VriId, Frame)>,
    /// State-compute replication: when set, every serviced frame is recorded
    /// in the VRI's [`ReplicaLedger`], LVSU batches arriving on the control
    /// queue are folded into it, and pending deltas are flushed to LVRM at
    /// the end of each `pump` pass.
    pub replicate: bool,
    /// Per-VRI replica ledgers (lazily created on first serviced frame or
    /// folded batch). Tests inspect these to check replica convergence.
    pub ledgers: HashMap<VriId, ReplicaLedger>,
    /// Monotonic pump counter used as the `last_seen_ns` stamp for observed
    /// flows; the recording host has no clock of its own.
    pub pump_ticks: u64,
}

impl VriHost for RecordingHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.spawned.push(spec);
        self.endpoints.push((spec.vri, endpoint, router));
        self.stalled.remove(&spec.vri);
        self.ctrl_mute.remove(&spec.vri);
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        self.killed.push((vr, vri));
        if let Some(pos) = self.endpoints.iter().position(|(id, _, _)| *id == vri) {
            let (_, mut endpoint, _) = self.endpoints.remove(pos);
            self.flush_backlog(vri, &mut endpoint);
            endpoint.detach();
            self.reapable.push((vri, endpoint));
        }
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
    /// endpoint per call), for supervision tests.
    pub fn with_heartbeats() -> RecordingHost {
        RecordingHost { heartbeats: true, ..Default::default() }
    }

    /// A recording host whose VRIs keep replica ledgers: serviced frames are
    /// observed per flow, LVSU batches folded, and deltas flushed upstream
    /// each `pump`. For state-compute replication tests.
    pub fn with_replication() -> RecordingHost {
        RecordingHost { replicate: true, ..Default::default() }
    }

    /// Run every live VRI's loop once: drain control then data, process each
    /// frame through the router, and push forwarded frames back. Returns the
    /// number of frames processed. This makes the recording host a complete
    /// single-threaded in-process "runtime" for integration tests.
    pub fn pump(&mut self) -> usize {
        use lvrm_ipc::channels::Work;
        let mut processed = 0;
        self.pump_ticks += 1;
        let now_ns = self.pump_ticks;
        for (vri, endpoint, router) in &mut self.endpoints {
            if self.stalled.contains(vri) {
                continue;
            }
            if self.heartbeats && !self.ctrl_mute.contains(vri) {
                let _ = endpoint.ctrl_tx.try_send(encode_heartbeat(*vri));
            }
            // A frame refused by a full egress queue goes first; while it
            // waits the instance pulls no new work. Matters under `vlink`,
            // where a ring steal is not bounded by the p2p queue depth.
            if let Some(pos) = self.egress_backlog.iter().position(|(id, _)| id == vri) {
                let (_, frame) = self.egress_backlog.remove(pos);
                if let Err(Full(frame)) = endpoint.data_tx.try_send(frame) {
                    self.egress_backlog.push((*vri, frame));
                    continue;
                }
            }
            while let Some(work) = endpoint.next_work() {
                match work {
                    Work::Control(ev) => {
                        if self.replicate && crate::repl::is_state_update(&ev.payload) {
                            if let Ok((origin, updates)) = crate::repl::decode_batch(&ev.payload) {
                                self.ledgers
                                    .entry(*vri)
                                    .or_insert_with(|| ReplicaLedger::new(vri.0))
                                    .fold_batch(origin, &updates);
                            }
                        }
                    }
                    Work::Data(mut frame) => {
                        processed += 1;
                        if self.replicate {
                            if let Some(key) = FlowKey::from_frame(&frame) {
                                self.ledgers
                                    .entry(*vri)
                                    .or_insert_with(|| ReplicaLedger::new(vri.0))
                                    .observe(key, frame.len() as u64, now_ns);
                            }
                        }
                        if let lvrm_router::RouterAction::Forward { .. } =
                            router.process(&mut frame)
                        {
                            if let Err(Full(frame)) = endpoint.data_tx.try_send(frame) {
                                self.egress_backlog.push((*vri, frame));
                                break;
                            }
                        }
                    }
                }
            }
            // Flush this pass's per-flow deltas upstream. A full control
            // queue silently drops the batch: LVRM only charges identity E
            // on receipt, so nothing is ever double-counted.
            if self.replicate {
                if let Some(ledger) = self.ledgers.get_mut(vri) {
                    if let Some(buf) = ledger.flush() {
                        let _ =
                            endpoint.ctrl_tx.try_send(ControlEvent::new(vri.0, LVRM_CTRL_ID, buf));
                    }
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
        if let Some(pos) = self.endpoints.iter().position(|(id, _, _)| *id == vri) {
            let (_, mut endpoint, _) = self.endpoints.remove(pos);
            self.flush_backlog(vri, &mut endpoint);
            endpoint.detach();
            self.reapable.push((vri, endpoint));
        }
        // Un-flushed per-flow deltas die with the process; they were never
        // emitted, so identity E is untouched. Books stay for inspection.
        if let Some(ledger) = self.ledgers.get_mut(&vri) {
            ledger.drop_pending();
        }
    }

    /// Push the VRI's parked egress frame (if any) out before its endpoint
    /// goes away; there is at most one, and if the queue is still full it
    /// dies with the process like any other in-flight frame.
    fn flush_backlog(&mut self, vri: VriId, endpoint: &mut VriEndpoint<Frame>) {
        if let Some(pos) = self.egress_backlog.iter().position(|(id, _)| *id == vri) {
            let (_, frame) = self.egress_backlog.remove(pos);
            let _ = endpoint.data_tx.try_send(frame);
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
        assert_eq!(host.endpoints.len(), 1);

        // No routes: frames are dropped, not returned.
        chans.data_tx.try_send(frame()).unwrap();
        assert_eq!(host.pump(), 1);
        assert!(chans.data_rx.try_recv().is_none());

        host.kill_vri(VrId(0), VriId(1));
        assert!(host.endpoints.is_empty());
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
