//! Inter-process communication queues for LVRM (paper §3.5).
//!
//! LVRM and each VRI exchange frames and control events through bounded FIFO
//! queues placed in shared memory. The paper stresses that IPC must be cheap:
//! its prototype uses **lock-free synchronization** after Lamport's proof that
//! a single-producer/single-consumer ring buffer is correct without locks.
//!
//! This crate ships two interchangeable queue implementations:
//!
//! * [`LamportQueue`] — the classic SPSC ring with shared head/tail indices,
//!   published with Acquire/Release atomics (the paper's queue, \[23\]);
//! * [`VLinkQueue`] — a Virtual-Link-style bounded MPMC ring, which in
//!   point-to-point positions behaves like the SPSC ring and under
//!   `lvrm-core` also backs the per-VR shared ingress ring VRIs steal from.
//!
//! Endpoints are **typed**: a queue splits into a [`Sender`] and a
//! [`Receiver`], each `Send` but deliberately not `Clone`/`Sync`, so the
//! single-producer/single-consumer contract is enforced by the type system
//! rather than by discipline. [`QueueKind`] selects an implementation at run
//! time (LVRM's extensibility dimension); dispatch goes through a small enum
//! rather than trait objects so the hot path stays monomorphic-friendly.
//!
//! The [`channels`] module bundles queues into the shapes LVRM needs: a
//! bidirectional data-plane pair plus a control pair per VRI, with the
//! control queue given strict priority (paper §2.1: "each VRI first processes
//! any control event available in its incoming control queue").

pub mod channels;
pub mod lamport;
pub mod vlink;

pub use channels::{duplex, Attachment, ControlEvent, VriChannels, VriEndpoint};
pub use lamport::LamportQueue;
pub use vlink::{VLinkQueue, VLinkReceiver, VLinkSender};

/// Which queue implementation to instantiate (extensibility dimension §3.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueueKind {
    /// Lamport's lock-free SPSC ring (the paper's default).
    #[default]
    Lamport,
    /// Virtual-Link-style bounded MPMC ring. In point-to-point positions it
    /// behaves like the SPSC ring; under `lvrm-core` it additionally enables
    /// the shared per-VR ingress ring that VRIs steal bursts from.
    VLink,
}

/// Error returned when a queue-kind name doesn't parse; carries the names
/// that would have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownQueueKind(pub String);

impl std::fmt::Display for UnknownQueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown queue kind {:?} (expected one of", self.0)?;
        for kind in QueueKind::ALL {
            write!(f, " {}", kind.as_str())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for UnknownQueueKind {}

impl QueueKind {
    /// All variants, for the suites that sweep every kind.
    pub const ALL: [QueueKind; 2] = [QueueKind::Lamport, QueueKind::VLink];

    /// Canonical name: the single source of truth for every flag, config
    /// directive, env filter, and bench label. [`QueueKind::from_str`] is the
    /// inverse; `QueueKind::ALL` round-trips through the pair.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Lamport => "lamport",
            QueueKind::VLink => "vlink",
        }
    }
}

impl std::str::FromStr for QueueKind {
    type Err = UnknownQueueKind;

    fn from_str(s: &str) -> Result<QueueKind, UnknownQueueKind> {
        QueueKind::ALL
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| UnknownQueueKind(s.to_string()))
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pressure level derived from a queue's occupancy against [`Watermarks`].
///
/// Ordered so that an aggregate over several queues is simply the `max`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum PressureLevel {
    /// Occupancy at or below the low watermark.
    #[default]
    Normal,
    /// Occupancy between the watermarks: elevated, but admission continues.
    Pressured,
    /// Occupancy at or above the high watermark: the consumer is not keeping
    /// up and new work is liable to tail-drop.
    Overloaded,
}

impl PressureLevel {
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Pressured => "pressured",
            PressureLevel::Overloaded => "overloaded",
        }
    }
}

/// High/low occupancy watermarks, as fractions of queue capacity.
///
/// `classify` is stateless; the hysteresis between the two marks lives in the
/// caller's state machine (see `lvrm-core`'s `PressureTracker`): a queue only
/// leaves `Overloaded` once it drains back below `low`, so the band between
/// the marks absorbs occupancy jitter instead of flapping the signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Watermarks {
    /// Fraction of capacity at or below which the queue is `Normal`.
    pub low: f64,
    /// Fraction of capacity at or above which the queue is `Overloaded`.
    pub high: f64,
}

impl Watermarks {
    pub const fn new(low: f64, high: f64) -> Watermarks {
        Watermarks { low, high }
    }

    /// Stateless classification of `len` queued items out of `capacity`.
    pub fn classify(&self, len: usize, capacity: usize) -> PressureLevel {
        let occ = occupancy(len, capacity);
        if occ >= self.high {
            PressureLevel::Overloaded
        } else if occ > self.low {
            PressureLevel::Pressured
        } else {
            PressureLevel::Normal
        }
    }
}

impl Default for Watermarks {
    fn default() -> Self {
        // Overload at 3/4 full, recover once drained back to 1/4.
        Watermarks { low: 0.25, high: 0.75 }
    }
}

/// Occupancy fraction of a queue (`len / capacity`, 0.0 for zero capacity).
pub fn occupancy(len: usize, capacity: usize) -> f64 {
    if capacity == 0 {
        0.0
    } else {
        len as f64 / capacity as f64
    }
}

/// Error returned by `try_send` when the queue is full; carries the item back.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Sending endpoint of an SPSC queue.
///
/// `&mut self` on [`Sender::try_send`] enforces single-producer use.
pub enum Sender<T> {
    Lamport(lamport::LamportSender<T>),
    VLink(vlink::VLinkSender<T>),
}

/// Receiving endpoint of an SPSC queue.
pub enum Receiver<T> {
    Lamport(lamport::LamportReceiver<T>),
    VLink(vlink::VLinkReceiver<T>),
}

impl<T: Send> Sender<T> {
    /// Enqueue `item`, or give it back if the queue is full.
    #[inline]
    pub fn try_send(&mut self, item: T) -> Result<(), Full<T>> {
        match self {
            Sender::Lamport(s) => s.try_send(item),
            Sender::VLink(s) => s.try_send(item),
        }
    }

    /// Enqueue up to `items.len()` items in one burst, draining the accepted
    /// prefix from `items`. Returns how many were accepted (possibly 0).
    ///
    /// Lamport publishes its producer index and VLink claims its slots **once
    /// per burst** instead of once per item.
    #[inline]
    pub fn try_send_batch(&mut self, items: &mut Vec<T>) -> usize {
        match self {
            Sender::Lamport(s) => s.try_send_batch(items),
            Sender::VLink(s) => s.try_send_batch(items),
        }
    }

    /// Current number of queued items, as observable from the producer side.
    ///
    /// The VRI adapter's queue-length load estimator (paper §3.4) reads this
    /// on every dispatch.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Sender::Lamport(s) => s.len(),
            Sender::VLink(s) => s.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity (maximum number of buffered items).
    #[inline]
    pub fn capacity(&self) -> usize {
        match self {
            Sender::Lamport(s) => s.capacity(),
            Sender::VLink(s) => s.capacity(),
        }
    }

    /// Occupancy fraction (`len / capacity`) as observable from the producer.
    #[inline]
    pub fn occupancy(&self) -> f64 {
        occupancy(self.len(), self.capacity())
    }

    /// Stateless pressure classification of this queue under `wm`.
    #[inline]
    pub fn pressure(&self, wm: &Watermarks) -> PressureLevel {
        wm.classify(self.len(), self.capacity())
    }
}

impl<T: Send> Receiver<T> {
    /// Dequeue the next item, if any.
    #[inline]
    pub fn try_recv(&mut self) -> Option<T> {
        match self {
            Receiver::Lamport(r) => r.try_recv(),
            Receiver::VLink(r) => r.try_recv(),
        }
    }

    /// Dequeue up to `max` items in one burst, appending them to `out`.
    /// Returns how many were received (possibly 0). Index publication (or
    /// the claim) is amortized over the burst, mirroring
    /// [`Sender::try_send_batch`].
    #[inline]
    pub fn try_recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        match self {
            Receiver::Lamport(r) => r.try_recv_batch(out, max),
            Receiver::VLink(r) => r.try_recv_batch(out, max),
        }
    }

    /// Current number of queued items, as observable from the consumer side.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Receiver::Lamport(r) => r.len(),
            Receiver::VLink(r) => r.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Create an SPSC queue of `capacity` items using implementation `kind`.
pub fn queue<T: Send>(kind: QueueKind, capacity: usize) -> (Sender<T>, Receiver<T>) {
    match kind {
        QueueKind::Lamport => {
            let (s, r) = lamport::LamportQueue::with_capacity(capacity);
            (Sender::Lamport(s), Receiver::Lamport(r))
        }
        QueueKind::VLink => {
            let (s, r) = vlink::VLinkQueue::with_capacity(capacity);
            (Sender::VLink(s), Receiver::VLink(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_roundtrip() {
        for kind in QueueKind::ALL {
            let (mut tx, mut rx) = queue::<u32>(kind, 4);
            assert!(tx.is_empty());
            tx.try_send(7).unwrap();
            tx.try_send(8).unwrap();
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.try_recv(), Some(7));
            assert_eq!(rx.try_recv(), Some(8));
            assert_eq!(rx.try_recv(), None);
        }
    }

    #[test]
    fn full_returns_item() {
        for kind in QueueKind::ALL {
            let (mut tx, _rx) = queue::<u32>(kind, 2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            match tx.try_send(3) {
                Err(Full(v)) => assert_eq!(v, 3),
                Ok(()) => panic!("{kind} accepted item beyond capacity"),
            }
        }
    }

    #[test]
    fn capacity_reported() {
        for kind in QueueKind::ALL {
            let (tx, _rx) = queue::<u32>(kind, 8);
            assert!(tx.capacity() >= 8, "{kind}");
        }
    }

    #[test]
    fn all_kinds_batch_roundtrip() {
        for kind in QueueKind::ALL {
            let (mut tx, mut rx) = queue::<u32>(kind, 4);
            let mut items: Vec<u32> = (0..6).collect();
            assert_eq!(tx.try_send_batch(&mut items), 4, "{kind}");
            assert_eq!(items, vec![4, 5], "{kind}");
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_batch(&mut out, 10), 4, "{kind}");
            assert_eq!(out, vec![0, 1, 2, 3], "{kind}");
            assert_eq!(tx.try_send_batch(&mut items), 2, "{kind}");
            assert_eq!(rx.try_recv_batch(&mut out, 1), 1, "{kind}");
            assert_eq!(out.last(), Some(&4), "{kind}");
        }
    }

    #[test]
    fn watermarks_classify_by_occupancy() {
        let wm = Watermarks::new(0.25, 0.75);
        assert_eq!(wm.classify(0, 100), PressureLevel::Normal);
        assert_eq!(wm.classify(25, 100), PressureLevel::Normal, "low mark inclusive");
        assert_eq!(wm.classify(26, 100), PressureLevel::Pressured);
        assert_eq!(wm.classify(74, 100), PressureLevel::Pressured);
        assert_eq!(wm.classify(75, 100), PressureLevel::Overloaded, "high mark inclusive");
        assert_eq!(wm.classify(100, 100), PressureLevel::Overloaded);
        assert_eq!(wm.classify(10, 0), PressureLevel::Normal, "zero capacity never signals");
    }

    #[test]
    fn pressure_levels_order_for_max_aggregation() {
        assert!(PressureLevel::Normal < PressureLevel::Pressured);
        assert!(PressureLevel::Pressured < PressureLevel::Overloaded);
        let worst = [PressureLevel::Pressured, PressureLevel::Normal, PressureLevel::Overloaded]
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(worst, PressureLevel::Overloaded);
    }

    #[test]
    fn sender_reports_occupancy_and_pressure() {
        let wm = Watermarks::new(0.25, 0.75);
        for kind in QueueKind::ALL {
            let (mut tx, _rx) = queue::<u32>(kind, 4);
            assert_eq!(tx.pressure(&wm), PressureLevel::Normal, "{kind}");
            for i in 0..4 {
                tx.try_send(i).unwrap();
            }
            assert!(tx.occupancy() >= 0.9, "{kind}");
            assert_eq!(tx.pressure(&wm), PressureLevel::Overloaded, "{kind}");
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            QueueKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), QueueKind::ALL.len());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in QueueKind::ALL {
            assert_eq!(kind.as_str().parse::<QueueKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<QueueKind>(), Ok(kind));
        }
        let err = "no-such-ring".parse::<QueueKind>().unwrap_err();
        assert_eq!(err, UnknownQueueKind("no-such-ring".to_string()));
        for kind in QueueKind::ALL {
            assert!(err.to_string().contains(kind.as_str()), "error lists every valid name");
        }
    }
}
