//! State-Compute Replication: per-flow state-update records and the
//! replica-side ledger that folds them (DESIGN.md §14).
//!
//! Flow-pinned dispatch caps a single elephant flow at one core. Replicated
//! dispatch (arXiv 2309.14647) lets *any* VRI of a VR process *any* frame;
//! what must then travel between replicas is not the frame but the compact
//! per-flow state delta it produced. Each replica appends [`StateUpdate`]
//! records to its control-priority queue; the monitor's sub-tick decodes the
//! batch and fans it out to the VR's sibling replicas, which fold it into
//! their local books. Counter deltas are **wrapping**, so folding is exact
//! even across u64 wraps, and every record carries a per-origin sequence
//! number so duplicated or reordered batches fold idempotently.
//!
//! ## Wire format (`LVSU`)
//!
//! Everything little-endian, CRC-trailed like `LVCK`/`LVCD`/`LVHA`:
//!
//! ```text
//! "LVSU" | version u8 | origin u32 | count u16
//!        | count × (flow_key 13B | seq u64 | d_frames u64
//!                   | d_bytes u64 | last_seen_ns u64)
//!        | crc32 u32
//! ```
//!
//! [`decode_batch`] never panics: any malformed input — bad magic, version,
//! truncation, bit-flips, count mismatch — yields a [`CheckpointError`].
//!
//! ## Conservation
//!
//! Replication gets its own identity, the fifth alongside A–D:
//!
//! ```text
//! updates_emitted == updates_folded + updates_lost
//! ```
//!
//! The monitor charges `updates_emitted` when it decodes a batch destined
//! for fan-out (records × live sibling replicas), `updates_folded` per
//! record relayed onto a sibling's control queue, and `updates_lost` when a
//! sibling's queue refuses the relay or the batch fails to decode — so the
//! identity holds by construction at every snapshot.

use std::collections::HashMap;

use lvrm_net::FlowKey;

use crate::checkpoint::{open, seal, CheckpointError, Version};

/// Leading magic of a state-update batch — disjoint from `LVCK`
/// (checkpoints), `LVCD` (deltas), and `LVSM` (cluster messages) so a
/// record batch can never be mistaken for any of them.
pub const STATE_UPDATE_MAGIC: [u8; 4] = *b"LVSU";
pub const STATE_UPDATE_VERSION: u8 = 1;

/// Encoded size of one record: 13-byte flow key + 4 × u64.
pub const RECORD_BYTES: usize = 13 + 8 * 4;
/// Fixed framing: magic + version + origin + count + trailing CRC.
pub const BATCH_OVERHEAD: usize = 4 + 1 + 4 + 2 + 4;

/// One compact per-flow state delta from one replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateUpdate {
    pub key: FlowKey,
    /// Origin-local sequence number; folding skips `seq <= last folded`.
    pub seq: u64,
    /// Frames processed for this flow since its previous update (wrapping).
    pub d_frames: u64,
    /// Bytes processed since the previous update (wrapping).
    pub d_bytes: u64,
    /// Origin's latest activity timestamp for the flow (absolute).
    pub last_seen_ns: u64,
}

/// Replicated per-flow book: what every replica of a VR converges to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowBook {
    pub frames: u64,
    pub bytes: u64,
    pub last_seen_ns: u64,
}

/// Encode a batch of updates from `origin` into the `LVSU` wire format.
pub fn encode_batch(origin: u32, updates: &[StateUpdate]) -> Vec<u8> {
    assert!(updates.len() <= u16::MAX as usize, "batch larger than u16 count");
    // VRIs flush a batch per service burst: size the buffer once.
    let len = BATCH_OVERHEAD + updates.len() * RECORD_BYTES;
    seal(STATE_UPDATE_MAGIC, Version::U8(STATE_UPDATE_VERSION), len, |e| {
        e.u32(origin);
        e.u16(updates.len() as u16);
        for u in updates {
            e.flow_key(&u.key);
            e.u64(u.seq);
            e.u64(u.d_frames);
            e.u64(u.d_bytes);
            e.u64(u.last_seen_ns);
        }
    })
}

/// Parse and verify an `LVSU` batch into `(origin, updates)`. Never panics.
pub fn decode_batch(buf: &[u8]) -> Result<(u32, Vec<StateUpdate>), CheckpointError> {
    let mut d = open(buf, STATE_UPDATE_MAGIC, Version::U8(STATE_UPDATE_VERSION))?;
    let origin = d.u32()?;
    let count = d.u16()? as usize;
    let count = d.fits(count, RECORD_BYTES, "implausible update count")?;
    let mut updates = Vec::with_capacity(count);
    for _ in 0..count {
        updates.push(StateUpdate {
            key: d.flow_key()?,
            seq: d.u64()?,
            d_frames: d.u64()?,
            d_bytes: d.u64()?,
            last_seen_ns: d.u64()?,
        });
    }
    d.finish()?;
    Ok((origin, updates))
}

/// Is this control payload a state-update batch? The monitor's sub-tick
/// uses this to intercept `LVSU` traffic for fan-out instead of relaying it
/// like ordinary VRI-to-VRI control events.
pub fn is_state_update(payload: &[u8]) -> bool {
    payload.len() >= 4 && payload[..4] == STATE_UPDATE_MAGIC
}

/// One replica's view of the replicated per-flow state: its own books, the
/// deltas it has not yet flushed, and the fold-side bookkeeping that makes
/// re-delivery idempotent.
///
/// The ledger is deliberately transport-agnostic — the testbed attaches one
/// per simulated VRI, `RecordingHost` one per endpoint, and the differential
/// suite drives it directly — so the fold path that miri checks is the same
/// code every harness runs.
#[derive(Clone, Debug, Default)]
pub struct ReplicaLedger {
    /// This replica's VRI id (stamped on every emitted batch).
    origin: u32,
    /// Converged per-flow books (local observations + folded updates).
    books: HashMap<FlowKey, FlowBook>,
    /// Locally observed deltas awaiting flush, in observation order.
    pending: Vec<StateUpdate>,
    /// Index into `pending` by flow, so one flow's burst coalesces into one
    /// record per flush instead of one per frame.
    pending_idx: HashMap<FlowKey, usize>,
    /// Next sequence number for this replica's own records.
    next_seq: u64,
    /// Highest sequence folded per origin — duplicates and stale reorders
    /// fold to nothing.
    folded_seq: HashMap<u32, u64>,
    /// Records this replica has flushed (observability).
    pub emitted: u64,
    /// Records folded into local books (observability).
    pub folded: u64,
}

impl ReplicaLedger {
    pub fn new(origin: u32) -> ReplicaLedger {
        ReplicaLedger { origin, next_seq: 1, ..Default::default() }
    }

    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// Record local processing of one frame of `bytes` bytes for `key`:
    /// updates this replica's own book and queues a delta for the next
    /// flush. Wrapping adds keep the books exact across counter wraps.
    pub fn observe(&mut self, key: FlowKey, bytes: u64, now_ns: u64) {
        let book = self.books.entry(key).or_default();
        book.frames = book.frames.wrapping_add(1);
        book.bytes = book.bytes.wrapping_add(bytes);
        book.last_seen_ns = book.last_seen_ns.max(now_ns);
        match self.pending_idx.get(&key) {
            Some(&i) => {
                let u = &mut self.pending[i];
                u.d_frames = u.d_frames.wrapping_add(1);
                u.d_bytes = u.d_bytes.wrapping_add(bytes);
                u.last_seen_ns = u.last_seen_ns.max(now_ns);
            }
            None => {
                self.pending_idx.insert(key, self.pending.len());
                self.pending.push(StateUpdate {
                    key,
                    seq: self.next_seq,
                    d_frames: 1,
                    d_bytes: bytes,
                    last_seen_ns: now_ns,
                });
                self.next_seq += 1;
            }
        }
    }

    /// Deltas queued for the next flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drain the pending deltas into an encoded `LVSU` batch for the
    /// control queue, or `None` when there is nothing to say.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.pending.is_empty() {
            return None;
        }
        self.pending_idx.clear();
        let updates = std::mem::take(&mut self.pending);
        self.emitted += updates.len() as u64;
        Some(encode_batch(self.origin, &updates))
    }

    /// Drop the pending deltas without emitting them — what a replica crash
    /// does to its unflushed state. Returns how many records were lost.
    pub fn drop_pending(&mut self) -> usize {
        self.pending_idx.clear();
        let n = self.pending.len();
        self.pending.clear();
        n
    }

    /// Fold one sibling's update into the local books. Duplicate and
    /// out-of-order deliveries (per origin) fold to nothing, so the books
    /// converge to the same totals no matter how the control queues reorder
    /// or retry. Returns `true` if the record advanced local state.
    pub fn fold(&mut self, origin: u32, u: &StateUpdate) -> bool {
        debug_assert_ne!(origin, self.origin, "replica folding its own records");
        let last = self.folded_seq.entry(origin).or_insert(0);
        if u.seq <= *last {
            return false;
        }
        *last = u.seq;
        let book = self.books.entry(u.key).or_default();
        book.frames = book.frames.wrapping_add(u.d_frames);
        book.bytes = book.bytes.wrapping_add(u.d_bytes);
        book.last_seen_ns = book.last_seen_ns.max(u.last_seen_ns);
        self.folded += 1;
        true
    }

    /// Fold an entire decoded batch; returns how many records advanced
    /// local state.
    pub fn fold_batch(&mut self, origin: u32, updates: &[StateUpdate]) -> usize {
        updates.iter().filter(|u| self.fold(origin, u)).count()
    }

    /// The converged book for one flow.
    pub fn book(&self, key: &FlowKey) -> Option<FlowBook> {
        self.books.get(key).copied()
    }

    /// All books, for whole-ledger equivalence checks.
    pub fn books(&self) -> &HashMap<FlowKey, FlowBook> {
        &self.books
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::flow::Protocol;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, 1, n),
            dst: Ipv4Addr::new(10, 0, 2, 1),
            src_port: 1000 + n as u16,
            dst_port: 80,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let updates = vec![
            StateUpdate { key: key(1), seq: 1, d_frames: 3, d_bytes: 4500, last_seen_ns: 77 },
            StateUpdate {
                key: key(2),
                seq: 2,
                d_frames: u64::MAX,
                d_bytes: u64::MAX,
                last_seen_ns: u64::MAX,
            },
        ];
        let bytes = encode_batch(9, &updates);
        assert_eq!(bytes.len(), BATCH_OVERHEAD + 2 * RECORD_BYTES);
        let (origin, back) = decode_batch(&bytes).expect("decodes");
        assert_eq!(origin, 9);
        assert_eq!(back, updates);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(3, &[]);
        let (origin, back) = decode_batch(&bytes).expect("decodes");
        assert_eq!(origin, 3);
        assert!(back.is_empty());
    }

    #[test]
    fn observe_coalesces_per_flow_and_flush_drains() {
        let mut l = ReplicaLedger::new(1);
        l.observe(key(1), 100, 10);
        l.observe(key(1), 200, 20);
        l.observe(key(2), 50, 15);
        assert_eq!(l.pending_len(), 2); // two flows, not three frames
        let batch = l.flush().expect("has pending");
        let (origin, updates) = decode_batch(&batch).expect("decodes");
        assert_eq!(origin, 1);
        assert_eq!(updates.len(), 2);
        let u1 = updates.iter().find(|u| u.key == key(1)).expect("flow 1");
        assert_eq!((u1.d_frames, u1.d_bytes, u1.last_seen_ns), (2, 300, 20));
        assert_eq!(l.emitted, 2);
        assert!(l.flush().is_none(), "flush drains");
    }

    #[test]
    fn fold_is_idempotent_per_origin_seq() {
        let mut a = ReplicaLedger::new(1);
        a.observe(key(1), 100, 10);
        a.observe(key(1), 100, 20);
        let batch = a.flush().expect("pending");
        let (origin, updates) = decode_batch(&batch).expect("decodes");

        let mut b = ReplicaLedger::new(2);
        assert_eq!(b.fold_batch(origin, &updates), 1);
        // Exact duplicate delivery folds to nothing.
        assert_eq!(b.fold_batch(origin, &updates), 0);
        let book = b.book(&key(1)).expect("folded");
        assert_eq!((book.frames, book.bytes, book.last_seen_ns), (2, 200, 20));
        // Same seq from a different origin is NOT a duplicate.
        assert_eq!(b.fold_batch(7, &updates), 1);
        assert_eq!(b.book(&key(1)).unwrap().frames, 4);
        assert_eq!(b.folded, 2);
    }

    #[test]
    fn replicas_converge_through_mutual_folds() {
        let mut a = ReplicaLedger::new(1);
        let mut b = ReplicaLedger::new(2);
        a.observe(key(1), 1000, 5);
        b.observe(key(1), 500, 7);
        b.observe(key(2), 10, 8);
        let ab = a.flush().expect("a pending");
        let ba = b.flush().expect("b pending");
        let (ao, au) = decode_batch(&ab).unwrap();
        let (bo, bu) = decode_batch(&ba).unwrap();
        b.fold_batch(ao, &au);
        a.fold_batch(bo, &bu);
        assert_eq!(a.books(), b.books(), "replicas converged");
        let book = a.book(&key(1)).expect("flow 1");
        assert_eq!((book.frames, book.bytes), (2, 1500));
    }

    #[test]
    fn drop_pending_models_a_crash() {
        let mut l = ReplicaLedger::new(1);
        l.observe(key(1), 100, 10);
        l.observe(key(2), 100, 11);
        assert_eq!(l.drop_pending(), 2);
        assert!(l.flush().is_none());
        // Local books keep the observations; only the *replication* of them
        // is lost — exactly what `updates_lost` accounts for.
        assert_eq!(l.book(&key(1)).unwrap().frames, 1);
    }

    #[test]
    fn is_state_update_discriminates() {
        let batch = encode_batch(1, &[]);
        assert!(is_state_update(&batch));
        assert!(!is_state_update(b"LVCK rest"));
        assert!(!is_state_update(b"LVC"));
        assert!(!is_state_update(b""));
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let updates =
            vec![StateUpdate { key: key(1), seq: 1, d_frames: 1, d_bytes: 64, last_seen_ns: 9 }];
        let bytes = encode_batch(4, &updates);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_batch(&bad).is_err(), "flip at byte {i} accepted");
        }
        for len in 0..bytes.len() {
            assert!(decode_batch(&bytes[..len]).is_err(), "truncation to {len} accepted");
        }
    }
}
