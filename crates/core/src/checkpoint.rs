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
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use lvrm_net::flow::Protocol;
use lvrm_net::FlowKey;

use crate::ledger::{LvrmStats, COUNTERS};

pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LVCK";
/// Version 2 appended the three `lvrm_repl_*` replication counters to the
/// stats vector, so identity (E) survives warm restart and the cluster
/// state stream like the others. The vector's length and order are the counter
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

// CRC-32 (IEEE 802.3 polynomial, reflected), two ways to the same function.
//
// Portable, and the tail of every input: slicing-by-8. `CRC_TABLES[0]` is the
// classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC of byte `b`
// followed by `k` zero bytes, so eight input bytes fold into the running
// value with eight independent loads instead of eight dependent ones. Built
// at compile time.
//
// Where the CPU has a carry-less multiply (`PCLMULQDQ`, detected at run
// time): folding, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). A CRC is the
// message, as a polynomial over GF(2), modulo P, so a 128-bit stretch of it
// D bits from where it is needed may be replaced by its product with
// x^D mod P: two 64×64 multiplies and an XOR carry 16 bytes over any
// distance. Four registers leapfrog 64 bytes a step; no table, no dependent
// load. The polynomial, and with it every sealed byte, is the same.
//
// And where the bytes' CRC is known already: `crc32_combine` joins the CRCs
// of two byte strings into the CRC of the pair, by one multiplication modulo
// P. A sealed checkpoint is nearly all flow sections, and a section keeps the
// CRC of its records, so a clean round seals without reading them.

/// The generator polynomial, bit-reflected (x^0 is the top bit).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Bytes one step of the folded loop consumes. A shorter input (a 15-byte
/// `LVSU`, an advert) has nothing to fold and goes through the tables.
pub const FOLD_BLOCK: usize = 64;

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Run `data` through the CRC register `c` by table: the register before
/// the first byte in, after the last byte out, no inversion at either end.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    // The last 0..=7 bytes.
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication, where the instruction exists.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    use super::{crc32_sliced, CRC_POLY, FOLD_BLOCK};

    /// The multiplier that carries 64 bits of the message `bits` places on:
    /// x^bits mod P, bit-reflected. A carry-less product of two reflected
    /// operands comes out one place low, hence the shift.
    pub(super) const fn fold_by(bits: u32) -> i64 {
        let mut c = 1u32 << 31; // x^0
        let mut i = 0;
        while i < bits {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            i += 1;
        }
        (c as i64) << 1
    }

    // The multipliers for a register's (high, low) half over a leap of 512
    // bits and of 128. The low half holds the earlier bytes and has 64 bits
    // further to go; ±32 lines the product up with the 32-bit CRC.
    const LEAP_512: (i64, i64) = (fold_by(512 - 32), fold_by(512 + 32));
    const LEAP_128: (i64, i64) = (fold_by(128 - 32), fold_by(128 + 32));

    /// [`crc32_sliced`] by carry-less multiplication: the same register out
    /// for the same register and bytes in. Folds whole 64-byte blocks, then
    /// whole 16-byte lanes, and runs what is left — the 16 bytes of the last
    /// register and the 0..=15 bytes after it — through the tables.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` (and `sse2`, which x86-64 always has).
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub(super) unsafe fn crc32_folded(c: u32, data: &[u8]) -> u32 {
        /// The 16 bytes of `$bytes` from lane `$i` on, in a register.
        macro_rules! lane {
            ($bytes:expr, $i:expr) => {{
                let lane: &[u8] = &$bytes[16 * $i..16 * $i + 16];
                // SAFETY: `lane` is 16 readable bytes (the slicing above
                // checked it), and `loadu` asks for no alignment.
                unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
            }};
        }
        /// `$x` carried over the distance `$k` was made for, onto `$next`: the
        /// low half by `$k`'s low multiplier, the high half by its high one.
        macro_rules! fold {
            ($x:expr, $k:expr, $next:expr) => {{
                let lo = _mm_clmulepi64_si128::<0x00>($x, $k);
                let hi = _mm_clmulepi64_si128::<0x11>($x, $k);
                _mm_xor_si128(_mm_xor_si128(lo, hi), $next)
            }};
        }

        let mut blocks = data.chunks_exact(FOLD_BLOCK);
        let Some(first) = blocks.next() else { return crc32_sliced(c, data) };
        // The register rides on the first four message bytes, as it does in
        // the table loop (`c ^ word`).
        let mut x = [
            _mm_xor_si128(lane!(first, 0), _mm_cvtsi32_si128(c as i32)),
            lane!(first, 1),
            lane!(first, 2),
            lane!(first, 3),
        ];
        // Each of the four registers leaps to its place in the next block.
        let k = _mm_set_epi64x(LEAP_512.0, LEAP_512.1);
        for block in &mut blocks {
            for (i, x) in x.iter_mut().enumerate() {
                *x = fold!(*x, k, lane!(block, i));
            }
        }
        // Then one register walks the rest 128 bits at a time: over its three
        // companions, then over the whole lanes of the last, partial block.
        let k = _mm_set_epi64x(LEAP_128.0, LEAP_128.1);
        let mut acc = x[0];
        for next in &x[1..] {
            acc = fold!(acc, k, *next);
        }
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            acc = fold!(acc, k, lane!(lane, 0));
        }
        // `acc` is now 16 message bytes that leave the same remainder as all
        // the bytes folded into them did, register included: the tables take
        // it from there, starting from 0.
        let mut folded = [0u8; 16];
        // SAFETY: `folded` is 16 writable bytes; `storeu` asks for no alignment.
        unsafe { _mm_storeu_si128(folded.as_mut_ptr().cast(), acc) };
        crc32_sliced(crc32_sliced(0, &folded), lanes.remainder())
    }
}

/// CRC-32/IEEE over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC-32 of some bytes and then `data`, from `crc`, the CRC-32 of those
/// bytes.
fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= FOLD_BLOCK && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU was just asked, and has `pclmulqdq`.
        return !unsafe { clmul::crc32_folded(!crc, data) };
    }
    !crc32_sliced(!crc, data)
}

/// `a · b mod P`, both operands and the product bit-reflected.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31; // x^0
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 != 0 { CRC_POLY ^ (b >> 1) } else { b >> 1 };
    }
    product
}

/// `X_POW_2K[k]` is x^(2^k) mod P: x, then each the square of the last.
const X_POW_2K: [u32; 64] = {
    let mut t = [0u32; 64];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The CRC-32 of `a` and then `b`, from the CRC-32 of each and `b`'s length:
/// `a`'s CRC carried over `len_b` bytes, x^(8·len_b) mod P, one product per
/// set bit of `8·len_b`, then `b`'s added. The inversions at either end of
/// the two CRCs cancel, as in zlib's `crc32_combine`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut bits = len_b as u64 * 8;
    let mut shift = 1u32 << 31; // x^0
    let mut k = 0;
    while bits != 0 {
        if bits & 1 != 0 {
            shift = mul_mod_p(X_POW_2K[k], shift);
        }
        bits >>= 1;
        k += 1;
    }
    mul_mod_p(shift, crc_a) ^ crc_b
}

/// One flow-affinity entry: `key` was pinned to slot `slot` of its VR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    pub key: FlowKey,
    pub slot: u32,
    /// The flow's last hit, as a flow table exports it: rounded down to the
    /// table's export quantum, `2^⌊log2(max(timeout / 16, 1))⌋` ns
    /// ([`crate::flowtable::FlowTable::export`]), so a restored flow may
    /// expire up to that much sooner than on the monitor that wrote it. Any
    /// `u64` decodes: a value that was not rounded (an older checkpoint's)
    /// restores exactly as it always did, which is why the rounding needed
    /// no format version.
    pub last_seen_ns: u64,
}

/// Bytes of a flow key and of a flow record on the wire.
const FLOW_KEY_WIRE: usize = 13;
const FLOW_RECORD_WIRE: usize = FLOW_KEY_WIRE + 4 + 8;

/// A flow key as it ships: addresses in network order, then the ports
/// little-endian, then the IP protocol number.
type KeyWire = [u8; FLOW_KEY_WIRE];
/// A [`FlowRecord`] as it ships: the key, `slot` and `last_seen_ns`.
pub(crate) type RecordWire = [u8; FLOW_RECORD_WIRE];

/// The one place a record's bytes are laid out. `addrs` is the source address
/// above the destination, as a flow-table slot holds them.
pub(crate) fn record_wire(
    addrs: u64,
    (src_port, dst_port, proto): (u16, u16, u8),
    slot: u32,
    last_seen_ns: u64,
) -> RecordWire {
    let mut b = [0u8; FLOW_RECORD_WIRE];
    b[..8].copy_from_slice(&addrs.to_be_bytes());
    b[8..10].copy_from_slice(&src_port.to_le_bytes());
    b[10..12].copy_from_slice(&dst_port.to_le_bytes());
    b[12] = proto;
    b[FLOW_KEY_WIRE..FLOW_KEY_WIRE + 4].copy_from_slice(&slot.to_le_bytes());
    b[FLOW_KEY_WIRE + 4..].copy_from_slice(&last_seen_ns.to_le_bytes());
    b
}

fn key_of(record: &RecordWire) -> &KeyWire {
    record.first_chunk().expect("a record starts with its key")
}

fn flow_key_wire(k: &FlowKey) -> KeyWire {
    *key_of(&FlowRecord { key: *k, slot: 0, last_seen_ns: 0 }.to_wire())
}

fn flow_key_from_wire(b: &KeyWire) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
        dst: Ipv4Addr::new(b[4], b[5], b[6], b[7]),
        src_port: u16::from_le_bytes([b[8], b[9]]),
        dst_port: u16::from_le_bytes([b[10], b[11]]),
        proto: Protocol::from_ip_proto(b[12]),
    }
}

impl FlowRecord {
    fn to_wire(self) -> RecordWire {
        let k = &self.key;
        let addrs = u64::from(u32::from(k.src)) << 32 | u64::from(u32::from(k.dst));
        let l4 = (k.src_port, k.dst_port, k.proto.to_ip_proto());
        record_wire(addrs, l4, self.slot, self.last_seen_ns)
    }

    fn from_wire(b: &RecordWire) -> FlowRecord {
        let (slot, seen) = b[FLOW_KEY_WIRE..].split_at(4);
        FlowRecord {
            key: flow_key_from_wire(key_of(b)),
            slot: u32::from_le_bytes(slot.try_into().expect("4 bytes")),
            last_seen_ns: u64::from_le_bytes(seen.try_into().expect("8 bytes")),
        }
    }
}

/// One VR's flow-affinity entries, held as the 25-byte records they ship as:
/// a checkpoint is nearly all flow records, built and sealed once a control
/// round on the forwarding thread, so the flow table writes them in this form
/// and the codecs move a section with one copy. [`FlowRecord`] is what
/// [`FlowSection::push`] takes and [`FlowSection::iter`] yields. Equality is
/// the wire's: the protocol is its IP number, so `Other(6)` is `Tcp` here as
/// it is after a decode.
///
/// The records are shared: `clone` is a reference count, and a write
/// (`push`, a sort, a fold's merge) copies them first if another section
/// still holds them. A flow table hands every checkpoint the same section
/// until something it ships changes, so consecutive checkpoints share their
/// unchanged sections and a diff passes over them without a read
/// ([`FlowSection::shares_records`]). The shared records also keep their
/// CRC-32 once a seal has computed it, so the next checkpoint that ships
/// them is sealed without reading them again.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct FlowSection {
    records: Arc<Records>,
}

/// A section's records, and their CRC-32 once it is known.
#[derive(Clone, Default)]
struct Records {
    wire: Vec<RecordWire>,
    /// Cleared by the one way to write `wire`, [`FlowSection::records_mut`].
    crc: OnceLock<u32>,
}

/// The records' equality: the cached CRC is not part of the value. (`Eq`
/// lets `Arc` answer for one allocation by pointer.)
impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        self.wire == other.wire
    }
}

impl Eq for Records {}

impl FlowSection {
    pub fn from_records(records: &[FlowRecord]) -> FlowSection {
        FlowSection::from_wire(records.iter().map(|f| f.to_wire()).collect())
    }

    /// A section of records already in their wire form.
    pub(crate) fn from_wire(records: Vec<RecordWire>) -> FlowSection {
        FlowSection { records: Arc::new(Records { wire: records, crc: OnceLock::new() }) }
    }

    /// The records for writing: copied first if another section still holds
    /// them, and their cached CRC dropped. Every write goes through here.
    fn records_mut(&mut self) -> &mut Vec<RecordWire> {
        let records = Arc::make_mut(&mut self.records);
        records.crc.take();
        &mut records.wire
    }

    /// The CRC-32 of the records' bytes, computed by the first caller and
    /// kept with the records until they are written.
    fn crc(&self) -> u32 {
        *self.records.crc.get_or_init(|| crc32(self.records.wire.as_flattened()))
    }

    /// Whether the two sections hold the very same records, not copies: if
    /// so they are equal without a compare.
    pub fn shares_records(&self, other: &FlowSection) -> bool {
        Arc::ptr_eq(&self.records, &other.records)
    }

    pub fn len(&self) -> usize {
        self.records.wire.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.wire.is_empty()
    }

    pub fn push(&mut self, record: FlowRecord) {
        self.records_mut().push(record.to_wire());
    }

    /// The records, in section order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FlowRecord> + '_ {
        self.records.wire.iter().map(FlowRecord::from_wire)
    }

    pub fn to_vec(&self) -> Vec<FlowRecord> {
        self.iter().collect()
    }

    /// The canonical flow order ([`canonical_order`]), in place. A section
    /// already in that order is left as it is, shared or not.
    fn sort(&mut self) {
        let order = |r: &RecordWire| canonical_order(key_of(r));
        if !self.records.wire.is_sorted_by_key(order) {
            self.records_mut().sort_unstable_by_key(order);
        }
    }
}

impl fmt::Debug for FlowSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
    pub flows: FlowSection,
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
/// the CRC-32 covering every byte before it. `len` sizes the buffer: the
/// whole message's length, trailer included, where the caller can say (the
/// buffer is then allocated once), else a start. Only the bytes between flow
/// sections pass through the CRC register: each section joins the CRC by its
/// own ([`Enc::flow_section`]).
pub(crate) fn seal(
    magic: [u8; 4],
    version: Version,
    len: usize,
    body: impl FnOnce(&mut Enc),
) -> Vec<u8> {
    let mut e = Enc { buf: Vec::with_capacity(len), crc: 0, crc_at: 0 };
    e.buf.extend_from_slice(&magic);
    match version {
        Version::U32(v) => e.u32(v),
        Version::U8(v) => e.u8(v),
    }
    body(&mut e);
    let crc = crc32_extend(e.crc, &e.buf[e.crc_at..]);
    debug_assert_eq!(crc, crc32(&e.buf), "a section's cached CRC is stale");
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
    buf: Vec<u8>,
    /// The CRC-32 of `buf[..crc_at]`.
    crc: u32,
    crc_at: usize,
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
    /// One append per record, not one per field.
    fn flow_record(&mut self, f: &FlowRecord) {
        self.buf.extend_from_slice(&f.to_wire());
    }
    /// A `u32` record count and the records, in one copy. The records join
    /// the message's CRC by their own ([`crc32_combine`]), not byte by byte.
    fn flow_section(&mut self, flows: &FlowSection) {
        self.u32(flows.len() as u32);
        let records = flows.records.wire.as_flattened();
        let before = crc32_extend(self.crc, &self.buf[self.crc_at..]);
        self.crc = crc32_combine(before, flows.crc(), records.len());
        self.buf.extend_from_slice(records);
        self.crc_at = self.buf.len();
    }
    pub(crate) fn flow_key(&mut self, k: &FlowKey) {
        self.buf.extend_from_slice(&flow_key_wire(k));
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
    /// A `u32` element count, refused before anything is allocated for it
    /// unless that many records of at least `record` bytes each can still
    /// follow: a decoder never reserves more than the message could fill.
    pub(crate) fn count(
        &mut self,
        record: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        self.fits(n, record, what)
    }
    /// [`Dec::count`] for a count the caller has read already (`LVSU`'s is a
    /// `u16`).
    pub(crate) fn fits(
        &self,
        n: usize,
        record: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        match n.checked_mul(record) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(n),
            _ => Err(CheckpointError::Malformed(what)),
        }
    }
    fn stats(&mut self) -> Result<[u64; COUNTERS], CheckpointError> {
        let mut wire = [0u64; COUNTERS];
        for v in wire.iter_mut() {
            *v = self.u64()?;
        }
        Ok(wire)
    }
    fn flow_record(&mut self) -> Result<FlowRecord, CheckpointError> {
        let b = self.take(FLOW_RECORD_WIRE)?;
        Ok(FlowRecord::from_wire(b.try_into().expect("25 bytes")))
    }
    /// Inverse of [`Enc::flow_section`]: the count is checked against the
    /// bytes left before room is made for it, and the records are taken as
    /// they lie.
    fn flow_section(&mut self) -> Result<FlowSection, CheckpointError> {
        let n = self.count(FLOW_RECORD_WIRE, "implausible flow count")?;
        let mut records = vec![[0u8; FLOW_RECORD_WIRE]; n];
        records.as_flattened_mut().copy_from_slice(self.take(n * FLOW_RECORD_WIRE)?);
        Ok(FlowSection::from_wire(records))
    }
    /// Exact consumption: a body with bytes left over is malformed.
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
    pub(crate) fn flow_key(&mut self) -> Result<FlowKey, CheckpointError> {
        Ok(flow_key_from_wire(self.take(FLOW_KEY_WIRE)?.try_into().expect("13 bytes")))
    }
}

impl VrCheckpoint {
    /// Bytes [`VrCheckpoint::enc`] writes for a VR with an empty name, and so
    /// the least a VR section can take.
    const SCALARS_WIRE: usize = 4 + 4 * 8 + 2 * 8 + 4 + 8 + 8 + 4 + 1 + 1 + 4;

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
            flows: FlowSection::default(),
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
        // magic, version, epoch, ts_ns, stats, next_vri, vr count, crc
        let len = 4 + 4 + 4 + 8 + 8 * COUNTERS + 4 + 4 + 4;
        let vrs = self.vrs.iter().map(|vr| {
            VrCheckpoint::SCALARS_WIRE + vr.name.len() + 4 + vr.flows.len() * FLOW_RECORD_WIRE
        });
        seal(CHECKPOINT_MAGIC, Version::U32(CHECKPOINT_VERSION), len + vrs.sum::<usize>(), |e| {
            e.u32(self.epoch);
            e.u64(self.ts_ns);
            e.stats(self.stats.to_wire());
            e.u32(self.next_vri);
            e.u32(self.vrs.len() as u32);
            for vr in &self.vrs {
                vr.enc(e);
                e.flow_section(&vr.flows);
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
        let n_vrs = d.count(VrCheckpoint::SCALARS_WIRE + 4, "implausible vr count")?;
        let mut vrs = Vec::with_capacity(n_vrs);
        for _ in 0..n_vrs {
            let mut vr = VrCheckpoint::dec(&mut d)?;
            vr.flows = d.flow_section()?;
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
            vr.flows.sort();
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
            // A shadow is canonical from its first fold on, and sorting a
            // sorted list is one pass of compares; one baselined from a
            // snapshot arrives in the master's table order, once.
            flows.sort();
            let mut vr = dv.meta.clone();
            vr.flows = merge_flows(flows, &dv.evictions, &dv.upserts);
            self.vrs.push(vr);
        }
    }
}

/// The canonical flow order: a key's addresses, ports and protocol compared
/// in that order — the order of its 13 bytes with the ports big-endian.
fn canonical_order(k: &KeyWire) -> (u64, u16, u16, u8) {
    let addrs = u64::from_be_bytes(*k.first_chunk().expect("8 of 13 bytes"));
    (addrs, u16::from_le_bytes([k[8], k[9]]), u16::from_le_bytes([k[10], k[11]]), k[12])
}

/// One pass over a canonical flow list: drop the evicted keys, replace or
/// insert the upserts (an upsert wins over an eviction of the same key), keep
/// the order. A delta is small beside the list, so sorting its two sections
/// is cheap (the evictions come sorted unless a peer sent them otherwise).
fn merge_flows(flows: FlowSection, evictions: &[FlowKey], upserts: &[FlowRecord]) -> FlowSection {
    if evictions.is_empty() && upserts.is_empty() {
        return flows;
    }
    let mut evictions: Vec<_> =
        evictions.iter().map(|k| canonical_order(&flow_key_wire(k))).collect();
    evictions.sort_unstable();
    let mut upserts: Vec<RecordWire> = upserts.iter().map(|f| f.to_wire()).collect();
    // Stable: of two upserts of one key, the later still lands later.
    upserts.sort_by_key(|r| canonical_order(key_of(r)));
    let mut out = Vec::with_capacity(flows.len() + upserts.len());
    let mut evicted = evictions.iter().peekable();
    let mut upserts = upserts.iter().peekable();
    // The list may be shared with the snapshot it came from: read, not taken.
    for &f in flows.records.wire.iter() {
        let k = canonical_order(key_of(&f));
        while let Some(u) = upserts.next_if(|u| canonical_order(key_of(u)) < k) {
            out.push(*u);
        }
        while evicted.next_if(|e| **e < k).is_some() {}
        let replaced = upserts.peek().is_some_and(|u| canonical_order(key_of(u)) == k);
        if !replaced && evicted.peek() != Some(&&k) {
            out.push(f);
        }
    }
    out.extend(upserts);
    FlowSection::from_wire(out)
}

/// Positions in a flow list by key: a flat open-addressed table of `u32`s,
/// built only when [`join_flows`]' hint misses. Like the flow table whose
/// records it indexes, it does not resist keys crafted to collide; it holds
/// no more keys than that table did.
struct KeyIndex {
    /// Position + 1, or 0 for an empty slot.
    slots: Vec<u32>,
    mask: usize,
}

impl KeyIndex {
    /// [`FlowKey::hash64`]'s multipliers over the key's first and last eight
    /// bytes.
    fn hash(k: &KeyWire) -> usize {
        let head = u64::from_le_bytes(*k.first_chunk().expect("8 of 13 bytes"));
        let tail = u64::from_le_bytes(*k.last_chunk().expect("8 of 13 bytes"));
        let h = head.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tail;
        let h = (h ^ h >> 32).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (h ^ h >> 32) as usize
    }

    fn new(flows: &[RecordWire]) -> KeyIndex {
        let mask = (flows.len() * 2).next_power_of_two() - 1;
        let mut slots = vec![0u32; mask + 1];
        for (i, f) in flows.iter().enumerate() {
            let mut s = KeyIndex::hash(key_of(f)) & mask;
            while slots[s] != 0 {
                s = (s + 1) & mask;
            }
            slots[s] = i as u32 + 1;
        }
        KeyIndex { slots, mask }
    }

    fn find(&self, flows: &[RecordWire], key: &KeyWire) -> Option<usize> {
        let mut s = KeyIndex::hash(key) & self.mask;
        while self.slots[s] != 0 {
            let i = self.slots[s] as usize - 1;
            if key_of(&flows[i]) == key {
                return Some(i);
            }
            s = (s + 1) & self.mask;
        }
        None
    }
}

/// What advances one VR's flow list from `old` to `new`: the keys only
/// `old` holds, canonically sorted so the encoded delta is reproducible, and
/// the records of `new` that `old` lacks or holds differently, in `new`'s
/// order. Keys are unique within a list (a flow table holds one entry per
/// key).
///
/// Two sections with the same bytes differ in nothing, and that is one
/// `memcmp` — or no read at all when they share their records, as a flow
/// table's consecutive exports do until something it ships changes (`Arc`'s
/// equality answers for one allocation by pointer). Otherwise a hinted join.
/// Both lists left the same open-addressed table in slot order, and between
/// them only the few records of a probe chain an eviction closed up have
/// changed places, so the record after the last match is nearly always the
/// next match: compare there first, and index `old` only once that fails.
fn join_flows(old: &FlowSection, new: &FlowSection) -> (Vec<FlowKey>, Vec<FlowRecord>) {
    if old == new {
        return (Vec::new(), Vec::new());
    }
    let (old, new) = (&old.records.wire[..], &new.records.wire[..]);
    let mut upserts = Vec::new();
    let mut matched = vec![false; old.len()];
    let mut index = None;
    let mut hint = 0;
    for f in new {
        let here = old.get(hint);
        // Most records of most rounds: the same bytes in the same place.
        let at = if here == Some(f) || here.is_some_and(|o| key_of(o) == key_of(f)) {
            Some(hint)
        } else {
            index.get_or_insert_with(|| KeyIndex::new(old)).find(old, key_of(f))
        };
        if let Some(i) = at {
            hint = i + 1;
            matched[i] = true;
        }
        if at.is_none_or(|i| old[i] != *f) {
            upserts.push(FlowRecord::from_wire(f));
        }
    }
    let mut evictions: Vec<&KeyWire> =
        old.iter().zip(&matched).filter(|(_, m)| !**m).map(|(o, _)| key_of(o)).collect();
    evictions.sort_unstable_by_key(|k| canonical_order(k));
    (evictions.into_iter().map(flow_key_from_wire).collect(), upserts)
}

// ---- checkpoint deltas (the cluster state stream, DESIGN.md §13) -------

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
            let none = FlowSection::default();
            let old = prev.vrs.iter().find(|v| v.name == nv.name).map_or(&none, |v| &v.flows);
            let (evictions, upserts) = join_flows(old, &nv.flows);
            let meta = VrCheckpoint { flows: none, name: nv.name.clone(), ..*nv };
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
        // magic, version, epoch, seq, ts_ns, stats, next_vri, vr count, crc
        let len = 4 + 4 + 4 + 8 + 8 + 8 * COUNTERS + 4 + 4 + 4;
        let vrs = self.vrs.iter().map(|dv| {
            VrCheckpoint::SCALARS_WIRE
                + dv.meta.name.len()
                + 4
                + dv.evictions.len() * FLOW_KEY_WIRE
                + 4
                + dv.upserts.len() * FLOW_RECORD_WIRE
        });
        seal(DELTA_MAGIC, Version::U32(DELTA_VERSION), len + vrs.sum::<usize>(), |e| {
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
        let n_vrs = d.count(VrCheckpoint::SCALARS_WIRE + 4 + 4, "implausible vr count")?;
        let mut vrs = Vec::with_capacity(n_vrs);
        for _ in 0..n_vrs {
            let meta = VrCheckpoint::dec(&mut d)?;
            let n_evict = d.count(FLOW_KEY_WIRE, "implausible eviction count")?;
            let mut evictions = Vec::with_capacity(n_evict);
            for _ in 0..n_evict {
                evictions.push(d.flow_key()?);
            }
            let n_upsert = d.count(FLOW_RECORD_WIRE, "implausible upsert count")?;
            let mut upserts = Vec::with_capacity(n_upsert);
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
                    flows: FlowSection::from_records(&[FlowRecord {
                        key: FlowKey {
                            src: Ipv4Addr::new(10, 0, 1, 5),
                            dst: Ipv4Addr::new(10, 0, 2, 9),
                            src_port: 4242,
                            dst_port: 80,
                            proto: Protocol::Udp,
                        },
                        slot: 1,
                        last_seen_ns: 1234,
                    }]),
                },
                VrCheckpoint { name: "deptB".into(), quarantined: true, ..Default::default() },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ck = sample();
        let bytes = ck.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer is sized once, exactly");
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

    /// The two ways through `crc32` meet in the same register, from any
    /// starting register, for every way a length splits into 64-byte blocks,
    /// 16-byte lanes and a tail, at every alignment of the first byte; and the
    /// multipliers derived here are the ones the literature prints.
    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn folded_and_sliced_crc_agree() {
        use clmul::{crc32_folded, fold_by};
        assert_eq!(
            [fold_by(512 + 32), fold_by(512 - 32), fold_by(128 + 32), fold_by(128 - 32)],
            [0x1_5444_2bd4, 0x1_c6e4_1596, 0x1_7519_97d0, 0x0_ccaa_009e],
        );
        assert!(std::arch::is_x86_feature_detected!("pclmulqdq"), "runner lacks pclmulqdq");
        let buf: Vec<u8> =
            (0..1300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        for skip in 0..16 {
            for len in 0..=1100 {
                let data = &buf[skip..skip + len];
                for c in [!0, 0, 0x1234_5678] {
                    // SAFETY: `pclmulqdq` was asserted above.
                    let folded = unsafe { crc32_folded(c, data) };
                    assert_eq!(folded, crc32_sliced(c, data), "{len} bytes from offset {skip}");
                }
            }
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
        b.vrs[0].flows = FlowSection::default(); // evict the one flow
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
        let bytes = d.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer is sized once, exactly");
        let back = CheckpointDelta::decode(&bytes).expect("decodes");
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
