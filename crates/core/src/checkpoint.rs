//! Versioned, checksummed control-plane checkpoints for warm restart
//! (DESIGN.md §10).
//!
//! A monitor restart used to lose exactly the state that State-Compute
//! Replication shows must survive for correct stateful packet processing:
//! flow affinity, allocator/quarantine/backoff state, pressure levels, and
//! the cumulative counters behind the conservation identities. A
//! [`Checkpoint`] captures all of it in one self-contained blob written
//! atomically from the monitor's lazy tick.
//!
//! ## Wire format
//!
//! Everything little-endian, hand-rolled (no serde in the offline build):
//!
//! ```text
//! "LVCK" | version u32 | epoch u32 | ts_ns u64 | payload | crc32 u32
//! ```
//!
//! The trailing CRC-32 (IEEE polynomial) covers every byte before it,
//! including magic and header, so truncation and bit-rot are both caught
//! before any field is trusted. [`Checkpoint::decode`] never panics: any
//! malformed input yields a [`CheckpointError`], and the monitor's
//! `restore_from` logs a `checkpoint_rejected` event and cold-starts.
//!
//! Flow-affinity entries are recorded against the VRI's **slot index**
//! within its VR (position in the live-VRI vector), not its `VriId`:
//! VriIds are not stable across a restart (the restored monitor respawns
//! fresh instances), but slot `i` of VR "deptA" before the restart maps to
//! slot `i` after, so affinity survives.

use std::fmt;
use std::io;
use std::path::Path;

use lvrm_net::flow::Protocol;
use lvrm_net::FlowKey;

use crate::ledger::{LvrmStats, COUNTERS};

pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LVCK";
/// Version 2 appended the three `lvrm_repl_*` replication counters to the
/// stats vector, so identity (E) survives warm restart and the HA delta
/// stream like the others. The vector's length and order are the counter
/// schema's (`ledger.rs`).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint blob was rejected (or could not be produced).
#[derive(Debug)]
pub enum CheckpointError {
    /// Shorter than the fixed header + trailer.
    TooShort,
    /// Leading magic is not `LVCK`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Trailing CRC-32 does not match the content.
    BadChecksum { expected: u32, found: u32 },
    /// Structurally invalid payload (bad length prefix, trailing garbage…).
    Malformed(&'static str),
    /// Filesystem error while reading or writing.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint too short"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "checkpoint crc mismatch (expected {expected:#010x}, found {found:#010x})"
                )
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

// CRC-32 (IEEE 802.3 polynomial, reflected), table built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32/IEEE over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One flow-affinity entry: `key` was pinned to slot `slot` of its VR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    pub key: FlowKey,
    pub slot: u32,
    pub last_seen_ns: u64,
}

/// Per-VR control-plane state (matched back by `name` on restore).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct VrCheckpoint {
    pub name: String,
    pub frames_in: u64,
    pub frames_out: u64,
    pub admitted: u64,
    pub shed: u64,
    pub weight: f64,
    pub shed_credit: f64,
    pub crash_streak: u32,
    pub last_crash_ns: u64,
    pub backoff_until_ns: u64,
    pub respawn_deficit: u32,
    pub quarantined: bool,
    /// Pressure level gauge encoding (0 normal, 1 pressured, 2 overloaded).
    pub pressure: u8,
    /// Live VRIs at checkpoint time — the restore target instance count.
    pub vri_slots: u32,
    pub flows: Vec<FlowRecord>,
}

/// The whole control-plane snapshot.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Checkpoint {
    pub epoch: u32,
    pub ts_ns: u64,
    pub stats: LvrmStats,
    pub next_vri: u32,
    pub vrs: Vec<VrCheckpoint>,
}

// ---- encoding ----------------------------------------------------------

/// The format version as it sits on the wire: the checkpoint formats spend
/// four bytes on it, the message formats one.
#[derive(Clone, Copy)]
pub(crate) enum Version {
    U32(u32),
    U8(u8),
}

/// Frame one message of the wire family: `magic | version | body | crc32`,
/// the CRC-32 covering every byte before it.
pub(crate) fn seal(magic: [u8; 4], version: Version, body: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc { buf: Vec::with_capacity(256) };
    e.buf.extend_from_slice(&magic);
    match version {
        Version::U32(v) => e.u32(v),
        Version::U8(v) => e.u8(v),
    }
    body(&mut e);
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

/// Undo [`seal`]: length, magic, CRC over everything before the trailer,
/// then version — in that order, so no field is trusted before the checksum
/// has vouched for it. Returns a reader over the body; the caller parses it
/// and ends with [`Dec::finish`].
pub(crate) fn open(
    buf: &[u8],
    magic: [u8; 4],
    version: Version,
) -> Result<Dec<'_>, CheckpointError> {
    // magic + the shortest version + crc
    if buf.len() < 4 + 1 + 4 {
        return Err(CheckpointError::TooShort);
    }
    if buf[..4] != magic {
        return Err(CheckpointError::BadMagic);
    }
    let body = &buf[..buf.len() - 4];
    let found = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
    let expected = crc32(body);
    if found != expected {
        return Err(CheckpointError::BadChecksum { expected, found });
    }
    let mut d = Dec { buf: body, pos: 4 };
    let (want, got) = match version {
        Version::U32(v) => (v, d.u32()?),
        Version::U8(v) => (u32::from(v), u32::from(d.u8()?)),
    };
    if got != want {
        return Err(CheckpointError::BadVersion(got));
    }
    Ok(d)
}

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A `u32` length prefix and the bytes.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn stats(&mut self, wire: [u64; COUNTERS]) {
        for v in wire {
            self.u64(v);
        }
    }
    fn flow_record(&mut self, f: &FlowRecord) {
        self.flow_key(&f.key);
        self.u32(f.slot);
        self.u64(f.last_seen_ns);
    }
    pub(crate) fn flow_key(&mut self, k: &FlowKey) {
        self.buf.extend_from_slice(&k.src.octets());
        self.buf.extend_from_slice(&k.dst.octets());
        self.u16(k.src_port);
        self.u16(k.dst_port);
        self.u8(k.proto.to_ip_proto());
    }
}

pub(crate) struct Dec<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CheckpointError::Malformed("field past end of payload"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool out of range")),
        }
    }
    pub(crate) fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        if len > 1 << 16 {
            return Err(CheckpointError::Malformed("string too long"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("string not utf-8"))
    }
    /// Inverse of [`Enc::bytes`].
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    /// A `u32` element count, refused above `max` before anything is
    /// allocated for it.
    fn count(&mut self, max: usize, what: &'static str) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(CheckpointError::Malformed(what));
        }
        Ok(n)
    }
    fn stats(&mut self) -> Result<[u64; COUNTERS], CheckpointError> {
        let mut wire = [0u64; COUNTERS];
        for v in wire.iter_mut() {
            *v = self.u64()?;
        }
        Ok(wire)
    }
    fn flow_record(&mut self) -> Result<FlowRecord, CheckpointError> {
        Ok(FlowRecord { key: self.flow_key()?, slot: self.u32()?, last_seen_ns: self.u64()? })
    }
    /// Exact consumption: a body with bytes left over is malformed.
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
    pub(crate) fn flow_key(&mut self) -> Result<FlowKey, CheckpointError> {
        let src: [u8; 4] = self.take(4)?.try_into().expect("4 bytes");
        let dst: [u8; 4] = self.take(4)?.try_into().expect("4 bytes");
        let src_port = self.u16()?;
        let dst_port = self.u16()?;
        let proto = Protocol::from_ip_proto(self.u8()?);
        Ok(FlowKey { src: src.into(), dst: dst.into(), src_port, dst_port, proto })
    }
}

impl VrCheckpoint {
    /// The scalar per-VR record, shared by `LVCK` and `LVCD` (the flow
    /// sections differ and follow it).
    fn enc(&self, e: &mut Enc) {
        e.str(&self.name);
        e.u64(self.frames_in);
        e.u64(self.frames_out);
        e.u64(self.admitted);
        e.u64(self.shed);
        e.f64(self.weight);
        e.f64(self.shed_credit);
        e.u32(self.crash_streak);
        e.u64(self.last_crash_ns);
        e.u64(self.backoff_until_ns);
        e.u32(self.respawn_deficit);
        e.u8(self.quarantined as u8);
        e.u8(self.pressure);
        e.u32(self.vri_slots);
    }

    /// Inverse of [`VrCheckpoint::enc`]; `flows` is left empty.
    fn dec(d: &mut Dec<'_>) -> Result<VrCheckpoint, CheckpointError> {
        let vr = VrCheckpoint {
            name: d.str()?,
            frames_in: d.u64()?,
            frames_out: d.u64()?,
            admitted: d.u64()?,
            shed: d.u64()?,
            weight: d.f64()?,
            shed_credit: d.f64()?,
            crash_streak: d.u32()?,
            last_crash_ns: d.u64()?,
            backoff_until_ns: d.u64()?,
            respawn_deficit: d.u32()?,
            quarantined: d.bool()?,
            pressure: d.u8()?,
            vri_slots: d.u32()?,
            flows: Vec::new(),
        };
        if vr.pressure > 2 {
            return Err(CheckpointError::Malformed("pressure level out of range"));
        }
        Ok(vr)
    }
}

impl Checkpoint {
    /// Serialize to the versioned, CRC-trailed wire format.
    pub fn encode(&self) -> Vec<u8> {
        seal(CHECKPOINT_MAGIC, Version::U32(CHECKPOINT_VERSION), |e| {
            e.u32(self.epoch);
            e.u64(self.ts_ns);
            e.stats(self.stats.to_wire());
            e.u32(self.next_vri);
            e.u32(self.vrs.len() as u32);
            for vr in &self.vrs {
                vr.enc(e);
                e.u32(vr.flows.len() as u32);
                for f in &vr.flows {
                    e.flow_record(f);
                }
            }
        })
    }

    /// Parse and verify a blob. Never panics; every malformation maps to a
    /// [`CheckpointError`].
    pub fn decode(buf: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut d = open(buf, CHECKPOINT_MAGIC, Version::U32(CHECKPOINT_VERSION))?;
        let epoch = d.u32()?;
        let ts_ns = d.u64()?;
        let stats = LvrmStats::from_wire(d.stats()?);
        let next_vri = d.u32()?;
        let n_vrs = d.count(1 << 16, "implausible vr count")?;
        let mut vrs = Vec::with_capacity(n_vrs.min(1024));
        for _ in 0..n_vrs {
            let mut vr = VrCheckpoint::dec(&mut d)?;
            let n_flows = d.count(1 << 24, "implausible flow count")?;
            vr.flows.reserve(n_flows.min(65536));
            for _ in 0..n_flows {
                vr.flows.push(d.flow_record()?);
            }
            vrs.push(vr);
        }
        d.finish()?;
        Ok(Checkpoint { epoch, ts_ns, stats, next_vri, vrs })
    }

    /// Write to `path` via a sibling `.tmp` file and an atomic rename, so a
    /// crash mid-write never leaves a torn checkpoint where a reader (or
    /// the next restore) expects a whole one.
    ///
    /// Durability, not just atomicity: the tmp file is `sync_all`ed before
    /// the rename (so the rename never publishes a name for data still in
    /// the page cache), and the parent directory is fsynced after (so the
    /// rename itself survives power loss). Without both, a checkpoint that
    /// "succeeded" could vanish or read back torn after a crash.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        use std::io::Write;
        let bytes = self.encode();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync is advisory on some filesystems; failure to
            // open the dir is an error, failure to sync is not fatal on
            // platforms that refuse fsync on directories.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read and verify the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::decode(&bytes)
    }

    /// Canonical form for comparisons that must not depend on flow-table
    /// iteration order: each VR's flows sorted by key. VR order is kept —
    /// it is semantic (the monitor's VR vector order).
    pub fn canonical(&self) -> Checkpoint {
        let mut ck = self.clone();
        for vr in &mut ck.vrs {
            vr.flows.sort_by_key(|f| flow_key_bytes(&f.key));
        }
        ck
    }

    /// Fold a streamed delta into this (shadow) checkpoint, producing the
    /// successor snapshot. Flows end up canonically sorted, so
    /// `base.fold(diff(base, next)) == next.canonical()`.
    pub fn fold(&mut self, d: &CheckpointDelta) {
        self.epoch = d.epoch;
        self.ts_ns = d.ts_ns;
        self.stats = self.stats.wrapping_fold(&d.stats_delta);
        self.next_vri = d.next_vri;
        // Rebuild the VR vector in the delta's (master's) order; flows of
        // surviving VRs carry over by name, then evictions and upserts apply.
        let mut old_vrs = std::mem::take(&mut self.vrs);
        for dv in &d.vrs {
            let mut flows = old_vrs
                .iter_mut()
                .find(|v| v.name == dv.meta.name)
                .map(|v| std::mem::take(&mut v.flows))
                .unwrap_or_default();
            if !dv.evictions.is_empty() {
                let evict: std::collections::HashSet<[u8; 13]> =
                    dv.evictions.iter().map(flow_key_bytes).collect();
                flows.retain(|f| !evict.contains(&flow_key_bytes(&f.key)));
            }
            if !dv.upserts.is_empty() {
                let upsert: std::collections::HashSet<[u8; 13]> =
                    dv.upserts.iter().map(|f| flow_key_bytes(&f.key)).collect();
                flows.retain(|f| !upsert.contains(&flow_key_bytes(&f.key)));
                flows.extend_from_slice(&dv.upserts);
            }
            flows.sort_by_key(|f| flow_key_bytes(&f.key));
            let mut vr = dv.meta.clone();
            vr.flows = flows;
            self.vrs.push(vr);
        }
    }
}

/// A flow key as its 13 wire bytes — a total order for canonical sorting
/// and set membership, shared by `fold` and `CheckpointDelta::diff`.
fn flow_key_bytes(k: &FlowKey) -> [u8; 13] {
    let mut b = [0u8; 13];
    b[..4].copy_from_slice(&k.src.octets());
    b[4..8].copy_from_slice(&k.dst.octets());
    b[8..10].copy_from_slice(&k.src_port.to_be_bytes());
    b[10..12].copy_from_slice(&k.dst_port.to_be_bytes());
    b[12] = k.proto.to_ip_proto();
    b
}

// ---- checkpoint deltas (HA replication stream, DESIGN.md §13) ----------

pub const DELTA_MAGIC: [u8; 4] = *b"LVCD";
pub const DELTA_VERSION: u32 = 2;

/// Per-VR slice of a [`CheckpointDelta`]: the VR's full (small) scalar
/// state plus the flow-table *changes* since the previous snapshot. The
/// scalar meta rides along whole because it is ~80 bytes per VR while the
/// flow table is the part that scales to millions of entries — deltas stay
/// compact where it matters.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct VrDelta {
    /// Scalar per-VR state (flows field unused — always empty on the wire).
    pub meta: VrCheckpoint,
    /// Flow keys dropped since the base snapshot (aged out or re-pinned).
    pub evictions: Vec<FlowKey>,
    /// Flow records added or re-stamped since the base snapshot.
    pub upserts: Vec<FlowRecord>,
}

/// One step of the master→standby replication stream: everything needed to
/// advance a shadow [`Checkpoint`] from snapshot *n* to snapshot *n+1*.
///
/// Wire format mirrors `LVCK`:
///
/// ```text
/// "LVCD" | version u32 | epoch u32 | seq u64 | ts_ns u64
///        | stats_delta u64 × counters | next_vri u32 | vr sections | crc32 u32
/// ```
///
/// Stat counters travel as **wrapping increments** so the fold is exact
/// even across counter wraps; epoch and `next_vri` travel absolute.
/// `seq` is the stream position — the standby folds only contiguous
/// sequences and asks for a full snapshot on any gap.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CheckpointDelta {
    pub epoch: u32,
    pub seq: u64,
    pub ts_ns: u64,
    pub stats_delta: [u64; COUNTERS],
    pub next_vri: u32,
    pub vrs: Vec<VrDelta>,
}

impl CheckpointDelta {
    /// Compute the delta that advances `prev` to `next`:
    /// `prev.fold(&diff(prev, next)) == next.canonical()`.
    pub fn diff(prev: &Checkpoint, next: &Checkpoint, seq: u64) -> CheckpointDelta {
        let mut vrs = Vec::with_capacity(next.vrs.len());
        for nv in &next.vrs {
            let mut meta = nv.clone();
            meta.flows = Vec::new();
            let old_flows: std::collections::HashMap<[u8; 13], &FlowRecord> = prev
                .vrs
                .iter()
                .find(|v| v.name == nv.name)
                .map(|v| v.flows.iter().map(|f| (flow_key_bytes(&f.key), f)).collect())
                .unwrap_or_default();
            let new_keys: std::collections::HashSet<[u8; 13]> =
                nv.flows.iter().map(|f| flow_key_bytes(&f.key)).collect();
            // Sorted so the encoded delta is byte-reproducible (HashMap
            // iteration order is seeded per process).
            let mut evictions: Vec<FlowKey> = old_flows
                .iter()
                .filter(|(k, _)| !new_keys.contains(*k))
                .map(|(_, f)| f.key)
                .collect();
            evictions.sort_by_key(flow_key_bytes);
            let upserts = nv
                .flows
                .iter()
                .filter(|f| old_flows.get(&flow_key_bytes(&f.key)).is_none_or(|old| *old != *f))
                .copied()
                .collect();
            vrs.push(VrDelta { meta, evictions, upserts });
        }
        CheckpointDelta {
            epoch: next.epoch,
            seq,
            ts_ns: next.ts_ns,
            stats_delta: next.stats.wrapping_delta(&prev.stats),
            next_vri: next.next_vri,
            vrs,
        }
    }

    /// Serialize to the versioned, CRC-trailed wire format.
    pub fn encode(&self) -> Vec<u8> {
        seal(DELTA_MAGIC, Version::U32(DELTA_VERSION), |e| {
            e.u32(self.epoch);
            e.u64(self.seq);
            e.u64(self.ts_ns);
            e.stats(self.stats_delta);
            e.u32(self.next_vri);
            e.u32(self.vrs.len() as u32);
            for dv in &self.vrs {
                dv.meta.enc(e);
                e.u32(dv.evictions.len() as u32);
                for k in &dv.evictions {
                    e.flow_key(k);
                }
                e.u32(dv.upserts.len() as u32);
                for f in &dv.upserts {
                    e.flow_record(f);
                }
            }
        })
    }

    /// Parse and verify a blob. Never panics; every malformation maps to a
    /// [`CheckpointError`].
    pub fn decode(buf: &[u8]) -> Result<CheckpointDelta, CheckpointError> {
        let mut d = open(buf, DELTA_MAGIC, Version::U32(DELTA_VERSION))?;
        let epoch = d.u32()?;
        let seq = d.u64()?;
        let ts_ns = d.u64()?;
        let stats_delta = d.stats()?;
        let next_vri = d.u32()?;
        let n_vrs = d.count(1 << 16, "implausible vr count")?;
        let mut vrs = Vec::with_capacity(n_vrs.min(1024));
        for _ in 0..n_vrs {
            let meta = VrCheckpoint::dec(&mut d)?;
            let n_evict = d.count(1 << 24, "implausible eviction count")?;
            let mut evictions = Vec::with_capacity(n_evict.min(65536));
            for _ in 0..n_evict {
                evictions.push(d.flow_key()?);
            }
            let n_upsert = d.count(1 << 24, "implausible upsert count")?;
            let mut upserts = Vec::with_capacity(n_upsert.min(65536));
            for _ in 0..n_upsert {
                upserts.push(d.flow_record()?);
            }
            vrs.push(VrDelta { meta, evictions, upserts });
        }
        d.finish()?;
        Ok(CheckpointDelta { epoch, seq, ts_ns, stats_delta, next_vri, vrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 3,
            ts_ns: 123_456_789,
            stats: LvrmStats {
                frames_in: 600,
                frames_out: 590,
                dispatch_drops: 10,
                ..Default::default()
            },
            next_vri: 9,
            vrs: vec![
                VrCheckpoint {
                    name: "deptA".into(),
                    frames_in: 400,
                    frames_out: 395,
                    admitted: 398,
                    shed: 2,
                    weight: 2.5,
                    shed_credit: 0.75,
                    crash_streak: 1,
                    last_crash_ns: 77,
                    backoff_until_ns: 99,
                    respawn_deficit: 1,
                    quarantined: false,
                    pressure: 2,
                    vri_slots: 3,
                    flows: vec![FlowRecord {
                        key: FlowKey {
                            src: Ipv4Addr::new(10, 0, 1, 5),
                            dst: Ipv4Addr::new(10, 0, 2, 9),
                            src_port: 4242,
                            dst_port: 80,
                            proto: Protocol::Udp,
                        },
                        slot: 1,
                        last_seen_ns: 1234,
                    }],
                },
                VrCheckpoint { name: "deptB".into(), quarantined: true, ..Default::default() },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decodes");
        assert_eq!(back, ck);
    }

    #[test]
    fn crc_is_stable_and_detects_flips() {
        // Known-answer: CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = Checkpoint::decode(&bad);
            assert!(r.is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..len]).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn wrong_version_and_magic_are_distinct_errors() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Checkpoint::decode(&bytes), Err(CheckpointError::BadMagic)));
        let mut bytes = sample().encode();
        bytes[4] = 99; // version — also breaks the CRC unless re-trailed
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(Checkpoint::decode(&bytes), Err(CheckpointError::BadVersion(99))));
    }

    /// Simulated crash between tmp write and rename: a stale `.tmp` from a
    /// torn earlier attempt must not survive a later successful write, and
    /// the published file must be whole.
    #[test]
    fn crash_between_write_and_rename_leaves_no_tmp_and_whole_file() {
        let dir = std::env::temp_dir().join("lvrm-ck-crash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("crash-{}.ck", std::process::id()));
        let tmp = {
            let mut t = path.as_os_str().to_owned();
            t.push(".tmp");
            std::path::PathBuf::from(t)
        };
        // "Crash" leftovers: a torn tmp file (half a checkpoint) at the
        // sibling path, as if the previous writer died before its rename.
        let ck = sample();
        let bytes = ck.encode();
        std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();
        // The next checkpoint write must replace the torn tmp, fsync it,
        // and publish atomically.
        ck.write_atomic(&path).unwrap();
        assert!(!tmp.exists(), "tmp file must be renamed away, not leaked");
        assert_eq!(Checkpoint::load(&path).unwrap(), ck, "published file is whole");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_diff_fold_roundtrip() {
        let a = sample();
        let mut b = sample();
        b.epoch = 4;
        b.ts_ns = 999_999_999;
        b.stats.frames_in += 50;
        b.stats.frames_out += 48;
        b.next_vri = 11;
        b.vrs[0].frames_in += 50;
        b.vrs[0].flows.clear(); // evict the one flow
        b.vrs[0].flows.push(FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(10, 0, 1, 6),
                dst: Ipv4Addr::new(10, 0, 2, 9),
                src_port: 5555,
                dst_port: 443,
                proto: Protocol::Tcp,
            },
            slot: 2,
            last_seen_ns: 5678,
        });
        b.vrs.remove(1); // deptB retired
        let d = CheckpointDelta::diff(&a, &b, 7);
        assert_eq!(d.seq, 7);
        let mut shadow = a.clone();
        shadow.fold(&d);
        assert_eq!(shadow, b.canonical());
        // Wire roundtrip of the same delta.
        let back = CheckpointDelta::decode(&d.encode()).expect("decodes");
        assert_eq!(back, d);
    }

    #[test]
    fn delta_rejects_checkpoint_magic_and_corruption() {
        let d = CheckpointDelta::diff(&sample(), &sample(), 1);
        let bytes = d.encode();
        assert!(matches!(Checkpoint::decode(&bytes), Err(CheckpointError::BadMagic)));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(CheckpointDelta::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join("lvrm-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ck");
        let ck = sample();
        ck.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        assert!(!path.with_extension("ck.tmp").exists(), "tmp file renamed away");
        std::fs::remove_file(&path).ok();
    }
}
