//! Queue bundles in the shapes LVRM uses them.
//!
//! Each VRI is wired to LVRM with **two pairs** of queues (paper §2.1,
//! Fig. 2.1): an incoming/outgoing *data queue* pair carrying raw frames, and
//! an incoming/outgoing *control queue* pair carrying inter-VRI control
//! events. Control queues have strict priority: "each VRI first processes any
//! control event available in its incoming control queue, and then processes
//! data frames available in its incoming data queue."

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::vlink::{VLinkQueue, VLinkReceiver, VLinkSender};
use crate::{queue, QueueKind, Receiver, Sender};

/// A control event exchanged between VRIs (via LVRM). The payload is opaque
/// to LVRM — the paper lets users "communicate with each other VRIs via their
/// user-specified protocols similar to the UDP socket programming" (§3.7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlEvent {
    /// VRI that emitted the event.
    pub src_vri: u32,
    /// VRI the event is addressed to.
    pub dst_vri: u32,
    /// Timestamp at emission, ns (used by the message-passing latency bench).
    pub ts_ns: u64,
    /// User-defined payload.
    pub payload: Vec<u8>,
}

impl ControlEvent {
    pub fn new(src_vri: u32, dst_vri: u32, payload: Vec<u8>) -> ControlEvent {
        ControlEvent { src_vri, dst_vri, ts_ns: 0, payload }
    }
}

/// Create both directions of a queue pair: `(lvrm→vri, vri→lvrm)`, returning
/// `((tx, rx), (tx, rx))` where the first tuple is held `tx` by LVRM and `rx`
/// by the VRI, and the second the other way around.
#[allow(clippy::type_complexity)]
pub fn duplex<T: Send>(
    kind: QueueKind,
    capacity: usize,
) -> ((Sender<T>, Receiver<T>), (Sender<T>, Receiver<T>)) {
    (queue(kind, capacity), queue(kind, capacity))
}

/// One unit of work a VRI pulls off its queues.
#[derive(Debug)]
pub enum Work<F> {
    /// A control event (always delivered before any data).
    Control(ControlEvent),
    /// A data frame.
    Data(F),
}

/// Shared attachment flag between a [`VriEndpoint`] and the monitor-side
/// [`VriChannels`]. While the endpoint (or a clone of this handle) is live the
/// flag reads `true`; dropping the endpoint — e.g. the VRI process crashing
/// and unwinding — or calling [`Attachment::detach`] flips it to `false`,
/// which the supervisor reads as "peer is gone".
#[derive(Clone, Debug)]
pub struct Attachment {
    flag: Arc<AtomicBool>,
}

impl Attachment {
    fn new() -> Attachment {
        Attachment { flag: Arc::new(AtomicBool::new(true)) }
    }

    /// Mark the endpoint as gone. Idempotent.
    pub fn detach(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// Whether the VRI side of the queue fabric is still attached.
    pub fn is_attached(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Owned by the endpoint: detaches on drop so a crashed (unwound) VRI is
/// observable from the monitor side even if nobody calls `detach` explicitly.
#[derive(Debug)]
struct AttachGuard {
    attachment: Attachment,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        self.attachment.detach();
    }
}

/// LVRM's side of a VRI's queues.
pub struct VriChannels<F> {
    /// Data frames LVRM dispatches to the VRI.
    pub data_tx: Sender<F>,
    /// Forwarded frames coming back from the VRI.
    pub data_rx: Receiver<F>,
    /// Control events LVRM relays *to* this VRI.
    pub ctrl_tx: Sender<ControlEvent>,
    /// Control events this VRI emits (LVRM relays them onward).
    pub ctrl_rx: Receiver<ControlEvent>,
    peer: Attachment,
}

impl<F> VriChannels<F> {
    /// Whether the matching [`VriEndpoint`] still exists (has neither been
    /// dropped nor explicitly detached).
    pub fn endpoint_attached(&self) -> bool {
        self.peer.is_attached()
    }
}

/// The VRI's side of its queues.
pub struct VriEndpoint<F> {
    /// Data frames arriving from LVRM.
    pub data_rx: Receiver<F>,
    /// Forwarded frames handed back to LVRM.
    pub data_tx: Sender<F>,
    /// Control events arriving from LVRM.
    pub ctrl_rx: Receiver<ControlEvent>,
    /// Control events this VRI emits.
    pub ctrl_tx: Sender<ControlEvent>,
    /// Shared per-VR ingress ring (VLink fabric): all of the VR's VRIs hold a
    /// clone of the same consumer and steal bursts from it. `None` outside
    /// the VLink fabric; the point-to-point `data_rx` still exists alongside
    /// it (rehomed frames and drains go point-to-point).
    pub shared_rx: Option<VLinkReceiver<F>>,
    guard: AttachGuard,
}

impl<F: Send> VriEndpoint<F> {
    /// Pull the next unit of work, giving control events strict priority
    /// over data frames (paper §2.1). Point-to-point data outranks the
    /// shared ring: frames addressed to *this* VRI (rehomes, drains) go
    /// before stolen work.
    #[inline]
    pub fn next_work(&mut self) -> Option<Work<F>> {
        if let Some(ev) = self.ctrl_rx.try_recv() {
            return Some(Work::Control(ev));
        }
        if let Some(frame) = self.data_rx.try_recv() {
            return Some(Work::Data(frame));
        }
        self.shared_rx.as_ref().and_then(|ring| ring.try_recv()).map(Work::Data)
    }

    /// Steal up to `max` data frames in one burst: the point-to-point queue
    /// first, then the shared ring for whatever budget remains. Returns how
    /// many were appended to `out`.
    pub fn steal_batch(&mut self, out: &mut Vec<F>, max: usize) -> usize {
        let mut got = self.data_rx.try_recv_batch(out, max);
        if let Some(ring) = &self.shared_rx {
            if got < max {
                got += ring.try_recv_batch(out, max - got);
            }
        }
        got
    }
}

impl<F> VriEndpoint<F> {
    /// Explicitly mark this endpoint detached (the drop guard does the same
    /// implicitly). Useful when the endpoint object is kept around for the
    /// supervisor to reap its in-flight frames, but the VRI behind it is gone.
    pub fn detach(&self) {
        self.guard.attachment.detach();
    }

    /// A cloneable handle onto the attachment flag, e.g. so a host can flip
    /// it *after* stashing the endpoint for reaping (avoids the race where
    /// the supervisor sees "detached" before the endpoint is reapable).
    pub fn attachment(&self) -> Attachment {
        self.guard.attachment.clone()
    }
}

/// Build the full queue fabric for one VRI.
///
/// `data_capacity` sizes the data queues; control queues are sized
/// `ctrl_capacity` (typically much smaller — control traffic is sparse).
pub fn vri_channels<F: Send>(
    kind: QueueKind,
    data_capacity: usize,
    ctrl_capacity: usize,
) -> (VriChannels<F>, VriEndpoint<F>) {
    vri_channels_with_ring(kind, data_capacity, ctrl_capacity, None)
}

/// Like [`vri_channels`], but additionally hands the endpoint a consumer
/// clone of the VR's shared ingress ring (the VLink work-stealing fabric).
pub fn vri_channels_with_ring<F: Send>(
    kind: QueueKind,
    data_capacity: usize,
    ctrl_capacity: usize,
    shared_rx: Option<VLinkReceiver<F>>,
) -> (VriChannels<F>, VriEndpoint<F>) {
    let ((data_tx, vri_data_rx), (vri_data_tx, data_rx)) = duplex::<F>(kind, data_capacity);
    let ((ctrl_tx, vri_ctrl_rx), (vri_ctrl_tx, ctrl_rx)) =
        duplex::<ControlEvent>(kind, ctrl_capacity);
    let attachment = Attachment::new();
    (
        VriChannels { data_tx, data_rx, ctrl_tx, ctrl_rx, peer: attachment.clone() },
        VriEndpoint {
            data_rx: vri_data_rx,
            data_tx: vri_data_tx,
            ctrl_rx: vri_ctrl_rx,
            ctrl_tx: vri_ctrl_tx,
            shared_rx,
            guard: AttachGuard { attachment },
        },
    )
}

/// Build one VR's shared ingress ring: the monitor keeps the producer (and a
/// consumer clone for teardown drains); each VRI endpoint gets a consumer
/// clone via [`vri_channels_with_ring`].
pub fn shared_ring<F: Send>(capacity: usize) -> (VLinkSender<F>, VLinkReceiver<F>) {
    VLinkQueue::with_capacity(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip_through_vri() {
        for kind in QueueKind::ALL {
            let (mut lvrm, mut vri) = vri_channels::<u64>(kind, 8, 4);
            lvrm.data_tx.try_send(42).unwrap();
            match vri.next_work() {
                Some(Work::Data(v)) => assert_eq!(v, 42),
                other => panic!("unexpected work: {other:?}"),
            }
            vri.data_tx.try_send(42).unwrap();
            assert_eq!(lvrm.data_rx.try_recv(), Some(42));
        }
    }

    #[test]
    fn control_has_priority_over_data() {
        let (mut lvrm, mut vri) = vri_channels::<u64>(QueueKind::Lamport, 8, 4);
        lvrm.data_tx.try_send(1).unwrap();
        lvrm.data_tx.try_send(2).unwrap();
        lvrm.ctrl_tx.try_send(ControlEvent::new(0, 1, vec![9])).unwrap();
        // The control event arrived last but must be delivered first.
        assert!(matches!(vri.next_work(), Some(Work::Control(ev)) if ev.payload == [9]));
        assert!(matches!(vri.next_work(), Some(Work::Data(1))));
        assert!(matches!(vri.next_work(), Some(Work::Data(2))));
        assert!(vri.next_work().is_none());
    }

    #[test]
    fn dropping_the_endpoint_detaches_it() {
        for kind in QueueKind::ALL {
            let (lvrm, vri) = vri_channels::<u64>(kind, 8, 4);
            assert!(lvrm.endpoint_attached());
            drop(vri);
            assert!(!lvrm.endpoint_attached());
        }
    }

    #[test]
    fn explicit_detach_survives_a_kept_endpoint() {
        for kind in QueueKind::ALL {
            let (mut lvrm, mut vri) = vri_channels::<u64>(kind, 8, 4);
            lvrm.data_tx.try_send(7).unwrap();
            vri.detach();
            assert!(!lvrm.endpoint_attached());
            // The endpoint object is still usable for reaping in-flight frames.
            assert!(matches!(vri.next_work(), Some(Work::Data(7))), "{kind}");
        }
    }

    #[test]
    fn attachment_handle_detaches_after_the_fact() {
        let (lvrm, vri) = vri_channels::<u64>(QueueKind::Lamport, 8, 4);
        let handle = vri.attachment();
        assert!(handle.is_attached());
        // Host stashes the endpoint for reaping *first*, then flips the flag.
        let _stashed = vri;
        handle.detach();
        assert!(!lvrm.endpoint_attached());
    }

    #[test]
    fn control_events_flow_upstream() {
        for kind in QueueKind::ALL {
            let (mut lvrm, mut vri) = vri_channels::<u64>(kind, 8, 4);
            vri.ctrl_tx.try_send(ControlEvent::new(3, 0, b"sync".to_vec())).unwrap();
            let ev = lvrm.ctrl_rx.try_recv().unwrap();
            assert_eq!(ev.src_vri, 3, "{kind}");
            assert_eq!(ev.payload, b"sync", "{kind}");
        }
    }
}
