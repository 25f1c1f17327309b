//! Connection-tracking flow table for flow-based load balancing.
//!
//! "Instead of the dynamic arrays, the hash tables are used for the
//! performance issues in the connection tracking functions, which are called
//! for each incoming data frames" (paper §3.3). The table maps a flow's
//! 5-tuple to the VRI its first frame was assigned, so later frames follow
//! it and intra-flow reordering is avoided.
//!
//! Implementation: open addressing with linear probing over a power-of-two
//! slot array, keyed by [`FlowKey::hash64`]. Every hit refreshes the entry's
//! timestamp (the paper updates flow timestamps via `times()`); expired and
//! dead-VRI entries are reclaimed lazily during probes. The hot-path
//! operations take a [`HashedKey`], so burst ingress hashes a frame once,
//! [prefetches](FlowTable::prefetch) the slot's line, and probes it later.
//!
//! A slot is four packed words, and a table's slots are a private anonymous
//! mapping of their own: slot 0 starts a page, so no slot crosses a cache
//! line, and the kernel zeroes each page when it is first touched. A zeroed
//! slot is an empty one, so a table's pages are faulted in as flows arrive,
//! not when it is built. A table that spans a 2-MiB page starts on a 2-MiB
//! boundary and asks for 2-MiB pages, so a probe into a table far beyond the
//! caches costs its miss and seldom a page walk besides.
//!
//! At million-flow scale, lazy probe-time reclamation alone lets dead flows
//! silt the table up: an expired entry is only noticed when a probe happens
//! to cross it, so under churn the table fills with corpses and inserts
//! start refusing. [`FlowTable::age_step`] adds **incremental aging**: a
//! sweep cursor visits a bounded number of slots per call (the monitor's
//! 1 s tick drives it), evicting expired entries as it goes. Every pass is
//! O(budget), never a full-table scan, so the tick cost stays bounded no
//! matter how large the table is; a full sweep completes across
//! `capacity / budget` consecutive ticks, and a block of slots in which
//! nothing can have expired (`FlowTable::oldest`) is crossed without a read.
//! A block the sweep must read is read only where it stores a flow: each
//! block keeps a bitmap of its stored slots (`FlowTable::occupied`), and the
//! sweep prefetches and checks the set bits alone, never an empty slot.
//!
//! The checkpoint export is incremental in the same spirit. A table ships
//! each flow's `last_seen_ns` rounded down to an *export quantum*, a power
//! of two near a sixteenth of the timeout, and counts every write that
//! could change what it ships (a store, a removal, a hit that leaves its
//! quantum) in a generation. [`FlowTable::export`] keeps the section it made
//! last and returns it again, shared, while the generation and the VRI
//! list are what they were: a control round in which no flow arrived,
//! left or crossed a quantum costs a reference count per table, not a walk.
//! The rounding is the one trade: a flow restored from a checkpoint may
//! expire up to one quantum sooner than on the monitor that wrote it. The
//! wire is untouched — the record's layout and the type of its timestamp
//! are as before, and a rounded timestamp is just an earlier one — so no
//! format version moved and older checkpoints decode and restore as ever.

use std::alloc::{handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ffi::{c_int, c_long, c_void};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};

use lvrm_net::flow::Protocol;
use lvrm_net::{prefetch_read, FlowKey, HashedKey};

use crate::checkpoint::{record_wire, FlowSection};
use crate::VriId;

/// Words per slot: `[src << 32 | dst, OCCUPIED | ports and protocol, VRI,
/// last_seen_ns]`. All-zero is an empty slot, and word 2's upper half is
/// always clear. A block's stored slots are also the set bits of its
/// `FlowTable::occupied`.
const SLOT_WORDS: usize = 4;
/// Set in a stored slot's second word (an all-zero 5-tuple is a valid key).
const OCCUPIED: u64 = 1 << 63;
/// Slots sharing one entry of `FlowTable::oldest`.
const BLOCK: usize = 64;
/// A transparent huge page. A table at least this large starts on a
/// multiple of it and asks for such pages.
const HUGE_PAGE: usize = 2 << 20;

// Linux/glibc values.
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
const MAP_ANONYMOUS: c_int = 0x20;
const MADV_HUGEPAGE: c_int = 14;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// A table's slot words, in a private anonymous mapping that is exactly the
/// table: zeroed by the kernel a page at a time as it is first touched, and
/// on 2-MiB pages once it spans one. A smaller table stays on 4-KiB pages: a
/// huge page it half used would be up to 2 MiB resident for nothing.
struct Slots {
    ptr: NonNull<u64>,
    words: usize,
}

impl Slots {
    fn zeroed(words: usize) -> Slots {
        let layout = Layout::array::<u64>(words).expect("flow table size overflows");
        let len = layout.size();
        // Slack to find a 2-MiB boundary in. `len` is a power of two, so a
        // table that spans a huge page ends on a boundary too.
        let slack = if len >= HUGE_PAGE { HUGE_PAGE } else { 0 };
        // SAFETY: a new mapping with no address hint and no file: it
        // overlaps nothing, and nothing else refers to it.
        let raw = unsafe {
            mmap(
                ptr::null_mut(),
                len + slack,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw.addr() == usize::MAX {
            handle_alloc_error(layout); // MAP_FAILED
        }
        let mut table = raw.cast::<u8>();
        if slack > 0 {
            let head = raw.addr().wrapping_neg() % HUGE_PAGE;
            // SAFETY: `head < slack`, so the table `[raw + head, + len)` lies
            // in the mapping, and the head before it and the tail after it are
            // pieces of the mapping that nothing has touched or refers to.
            // `madvise` is advice: with huge pages off the table stays on
            // 4-KiB pages, so its answer is not read.
            unsafe {
                table = table.add(head);
                if head > 0 {
                    munmap(raw, head);
                }
                munmap(table.add(len).cast(), slack - head);
                madvise(table.cast(), len, MADV_HUGEPAGE);
            }
        }
        Slots { ptr: NonNull::new(table.cast()).expect("a mapping is never at 0"), words }
    }
}

impl Deref for Slots {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        // SAFETY: `ptr` is `words` words of mapped, readable memory, zero or
        // written by `deref_mut`, owned by `self` until `drop` unmaps it.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.words) }
    }
}

impl DerefMut for Slots {
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `deref`; `&mut self` makes this the only reference.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.words) }
    }
}

impl Drop for Slots {
    fn drop(&mut self) {
        // SAFETY: the mapping is exactly `words` words from `ptr` (the
        // kernel rounds the length up to the page it ends in), and no slice
        // of it outlives `self`.
        unsafe { munmap(self.ptr.as_ptr().cast(), self.words * size_of::<u64>()) };
    }
}

// SAFETY: `Slots` owns its mapping as a `Box<[u64]>` owns its allocation:
// no other pointer to it exists, so the thread holding `Slots` is the only
// one that can reach the words.
unsafe impl Send for Slots {}
// SAFETY: a shared `&Slots` gives out only `&[u64]`, read-only plain words.
unsafe impl Sync for Slots {}

/// A key as its slot stores it. Lossless: `Other(6)` stays distinct from
/// `Tcp`, as `FlowKey`'s equality has it.
#[inline]
fn pack(key: &FlowKey) -> [u64; 2] {
    let proto = match key.proto {
        Protocol::Other(p) => 0x100 | u64::from(p),
        known => u64::from(known.to_ip_proto()),
    };
    [
        u64::from(u32::from(key.src)) << 32 | u64::from(u32::from(key.dst)),
        OCCUPIED | u64::from(key.src_port) << 25 | u64::from(key.dst_port) << 9 | proto,
    ]
}

fn unpack(slot: &[u64; SLOT_WORDS]) -> FlowKey {
    FlowKey {
        src: ((slot[0] >> 32) as u32).into(),
        dst: (slot[0] as u32).into(),
        src_port: (slot[1] >> 25) as u16,
        dst_port: (slot[1] >> 9) as u16,
        proto: match slot[1] & 0x1ff {
            other if other & 0x100 != 0 => Protocol::Other(other as u8),
            known => Protocol::from_ip_proto(known as u8),
        },
    }
}

/// The positions of `bits`' set bits, lowest first.
#[inline]
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = (bits != 0).then(|| bits.trailing_zeros() as usize);
        bits &= bits.wrapping_sub(1);
        at
    })
}

/// Occupancy and churn statistics of one [`FlowTable`], cheap to copy out
/// (published as per-VR metrics and in `VrSnapshot`s).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Stored entries (may include expired-but-unswept flows).
    pub len: usize,
    /// Slot-array size.
    pub capacity: usize,
    /// Expired entries evicted so far (lazy probe hits + aging sweeps).
    pub evictions: u64,
    /// Insertions refused because the probe chain was full.
    pub overflows: u64,
    /// Slots visited by [`FlowTable::age_step`] so far (proof the tick work
    /// is bounded: grows by at most the configured budget per tick). This is
    /// the range the cursor crossed plus one per eviction, not the slots
    /// read: a skipped block and an empty slot count all the same.
    pub age_sweep_slots: u64,
}

impl FlowTableStats {
    /// Stored entries as a fraction of capacity.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.len as f64 / self.capacity as f64
        }
    }
}

/// Fixed-capacity connection-tracking table.
///
/// `repr(C)`: the fields a probe reads come first, in declaration order, so
/// a hit reads the first 48 bytes of the table and an insert the first 104,
/// wherever the compiler's own order would have put the fields added since.
#[repr(C)]
pub struct FlowTable {
    /// The slots, slot `i` at `words[4·i..]`. Never resized.
    words: Slots,
    mask: usize,
    timeout_ns: u64,
    /// Bumped by every write [`FlowTable::export`] could see: a slot stored
    /// or removed (a backshift included), and a hit whose timestamp leaves
    /// its export quantum. Equal generations, equal exports.
    generation: u64,
    /// The bits of a timestamp below its export quantum (the quantum less
    /// one; see [`FlowTable::export`]).
    sub_quantum: u64,
    len: usize,
    /// Per block of [`BLOCK`] slots, a lower bound on the oldest
    /// `last_seen_ns` stored in it (`u64::MAX`: nothing stored). Every write
    /// of a timestamp lowers its block's bound to it — insert, reclaim, a
    /// backshift landing — and the sweep re-learns a bound from the survivors
    /// when it reads a whole block; hits only raise timestamps, so they leave
    /// it alone. One bound per table would not do: only a full scan could
    /// re-learn it, so a table older than one timeout would never skip again.
    oldest: Vec<u64>,
    /// Per block of [`BLOCK`] slots, bit `i` set exactly when the block's
    /// slot `i` is stored: set by a store, cleared by a removal, moved with
    /// an entry the backshift moves. The sweep and the export walk it.
    occupied: Vec<u64>,
    /// Insertions refused because the table was full (observability).
    pub overflows: u64,
    /// Next slot the incremental aging sweep will visit.
    age_cursor: usize,
    /// Expired entries evicted (lazily on probe, by slot reclaim on insert,
    /// or by the aging sweep).
    evictions: u64,
    /// Total slots the aging sweep has visited.
    age_sweep_slots: u64,
    /// The expired keys of one [`FlowTable::age_step`] window, kept between
    /// calls so the sweep allocates nothing per tick.
    age_expired: Vec<FlowKey>,
    /// The last export, handed out again while the generation and the VRI
    /// list it was made for still hold. Last: only the control round reads
    /// it, and it sits after every field a probe reads.
    exported: RefCell<Exported>,
}

/// What [`FlowTable::export`] last made, and for which state. The default
/// is right as it stands: at generation 0 nothing was ever stored, and an
/// empty table exports an empty section whatever the VRIs.
#[derive(Default)]
struct Exported {
    generation: u64,
    vris: Vec<VriId>,
    section: FlowSection,
}

impl FlowTable {
    /// The most slots a table may have: 2^31 slots are 64 GiB of slot
    /// words. A larger request is refused before anything is mapped, not
    /// left to fail in the mapping.
    pub const MAX_CAPACITY: usize = 1 << 31;

    /// `capacity` rounds up to a power of two, at most
    /// [`FlowTable::MAX_CAPACITY`]; `timeout_ns` expires idle flows (TCP
    /// flows silent that long have effectively closed).
    pub fn new(capacity: usize, timeout_ns: u64) -> FlowTable {
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "flow table capacity {capacity} is above the limit of 2^31 slots"
        );
        let cap = capacity.max(16).next_power_of_two();
        FlowTable {
            words: Slots::zeroed(cap * SLOT_WORDS),
            mask: cap - 1,
            timeout_ns,
            generation: 0,
            sub_quantum: (1 << (timeout_ns / 16).max(1).ilog2()) - 1,
            len: 0,
            oldest: vec![u64::MAX; cap.div_ceil(BLOCK)],
            occupied: vec![0; cap.div_ceil(BLOCK)],
            overflows: 0,
            age_cursor: 0,
            evictions: 0,
            age_sweep_slots: 0,
            age_expired: Vec::new(),
            exported: RefCell::default(),
        }
    }

    /// Copy out the occupancy/churn counters.
    pub fn stats(&self) -> FlowTableStats {
        FlowTableStats {
            len: self.len,
            capacity: self.capacity(),
            evictions: self.evictions,
            overflows: self.overflows,
            age_sweep_slots: self.age_sweep_slots,
        }
    }

    /// Live entries (may include not-yet-reclaimed expired flows).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn slot(&self, i: usize) -> &[u64; SLOT_WORDS] {
        self.words[i * SLOT_WORDS..].first_chunk().expect("slot inside the table")
    }

    fn slot_mut(&mut self, i: usize) -> &mut [u64; SLOT_WORDS] {
        self.words[i * SLOT_WORDS..].first_chunk_mut().expect("slot inside the table")
    }

    fn expired(&self, last_seen_ns: u64, now_ns: u64) -> bool {
        now_ns.saturating_sub(last_seen_ns) > self.timeout_ns
    }

    /// Record that `last_seen_ns` was written into slot `i`.
    fn note_stored(&mut self, i: usize, last_seen_ns: u64) {
        let bound = &mut self.oldest[i / BLOCK];
        *bound = (*bound).min(last_seen_ns);
    }

    /// Set or clear slot `i`'s bit in its block's `occupied`.
    fn mark(&mut self, i: usize, stored: bool) {
        let bits = &mut self.occupied[i / BLOCK];
        let bit = 1 << (i % BLOCK);
        *bits = if stored { *bits | bit } else { *bits & !bit };
    }

    /// Look up `key`; on a live hit, refresh its timestamp and return its
    /// VRI ("hash table find the entry with current timestamp and add flag",
    /// Fig. 3.3). Expired entries encountered on the probe path are removed.
    pub fn find_and_touch(&mut self, key: &FlowKey, now_ns: u64) -> Option<VriId> {
        self.find_and_touch_hashed(&HashedKey::new(*key), now_ns)
    }

    /// Ask for the cache line of `hash`'s home slot ahead of a probe.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        prefetch_read(self.slot(hash as usize & self.mask));
    }

    /// The slot holding `key`, probing from `hash`'s home to the chain's end.
    #[inline]
    fn position(&self, key: &FlowKey, hash: u64) -> Option<usize> {
        let mut i = hash as usize & self.mask;
        if self.slot(i)[1] == 0 {
            return None; // a first-of-flow lookup, answered before the key is packed
        }
        let want = pack(key);
        for _ in 0..=self.mask {
            let slot = self.slot(i);
            if slot[1] == 0 {
                return None;
            }
            if slot[..2] == want {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// [`FlowTable::find_and_touch`] for a key hashed earlier. `inline`: the
    /// export-quantum check grew the body past what the compiler inlines
    /// into a caller in another crate unasked.
    #[inline]
    pub fn find_and_touch_hashed(&mut self, flow: &HashedKey, now_ns: u64) -> Option<VriId> {
        let i = self.position(flow.key(), flow.hash())?;
        let &[_, _, vri, seen] = self.slot(i);
        if self.expired(seen, now_ns) {
            self.remove_at(i);
            self.evictions += 1;
            return None;
        }
        self.slot_mut(i)[3] = now_ns;
        if now_ns < seen {
            // A clock that stepped back: the one hit that lowers a timestamp.
            self.note_stored(i, now_ns);
        }
        // A hit that moves the timestamp into another export quantum changes
        // what the export ships. Counted without a branch: on a table far
        // beyond the caches a flow's hits land about a quantum apart, so the
        // answer is a coin toss that waits on the slot's miss, and a
        // mispredicted branch there throws away the probes started behind it.
        self.generation += u64::from((now_ns ^ seen) > self.sub_quantum);
        Some(VriId(vri as u32))
    }

    /// Insert or update `key -> vri`.
    pub fn insert(&mut self, key: FlowKey, vri: VriId, now_ns: u64) -> bool {
        self.insert_hashed(HashedKey::new(key), vri, now_ns)
    }

    /// [`FlowTable::insert`] for a key hashed earlier.
    pub fn insert_hashed(&mut self, flow: HashedKey, vri: VriId, now_ns: u64) -> bool {
        let want = pack(flow.key());
        let mut i = flow.hash() as usize & self.mask;
        // The first expired stranger on the chain, and the chain's end. The
        // stranger's slot is taken only once the end shows the key is not
        // stored further down: taking it at sight stored a live key that sat
        // behind it a second time.
        let (mut reclaim, mut end) = (None, None);
        for _ in 0..=self.mask {
            let &[addrs, l4, _, seen] = self.slot(i);
            if [addrs, l4] == want {
                return self.store(i, want, vri, now_ns);
            }
            if l4 == 0 {
                end = Some(i);
                break;
            }
            if reclaim.is_none() && self.expired(seen, now_ns) {
                reclaim = Some(i);
            }
            i = (i + 1) & self.mask;
        }
        if let Some(at) = reclaim {
            self.evictions += 1;
            self.store(at, want, vri, now_ns)
        } else if let Some(at) = end {
            self.len += 1;
            self.store(at, want, vri, now_ns)
        } else {
            self.overflows += 1;
            false
        }
    }

    /// Write slot `i`; `true`, an insert's answer once it has a slot.
    fn store(&mut self, i: usize, key: [u64; 2], vri: VriId, now_ns: u64) -> bool {
        *self.slot_mut(i) = [key[0], key[1], u64::from(vri.0), now_ns];
        self.note_stored(i, now_ns);
        self.mark(i, true);
        self.generation += 1;
        true
    }

    /// Advance the incremental aging sweep: advance the cursor over up to
    /// `budget` slots, evicting expired entries as it goes, and return how
    /// many were evicted. One call costs O(budget + evicted) — eviction work
    /// is charged to the evicted entry, which it permanently removes, so the
    /// amortized tick cost is O(budget) regardless of table size. This is
    /// what the monitor's 1 s tick calls instead of a full-table scan; a
    /// complete pass takes `ceil(capacity / budget)` calls.
    ///
    /// The scan is mutation-free: expired keys are collected over the budget
    /// window first and removed afterwards, so every slot in the window is
    /// examined exactly once and each expired entry is evicted exactly once
    /// (a positional evict-as-you-go sweep would re-examine slots the
    /// backshift refills). Combined with the cursor rewind in [`remove_at`],
    /// a lap over `capacity` slots is guaranteed to evict every entry that
    /// was expired when its slot was swept — even when probe-time lazy
    /// expiry relocates entries across the cursor between windows.
    /// A stretch whose block's bound (`oldest`) is inside the timeout holds
    /// nothing expired: the cursor crosses it unread, charged all the same.
    /// In a stretch it must read, the sweep reads only the slots its block's
    /// `occupied` bits say are stored, their lines prefetched first.
    pub fn age_step(&mut self, now_ns: u64, budget: usize) -> usize {
        let cap = self.capacity();
        let budget = budget.min(cap);
        let mut i = self.age_cursor & self.mask;
        let mut expired_keys = std::mem::take(&mut self.age_expired);
        let mut left = budget;
        while left > 0 {
            // The stretch from the cursor to its block's end or the budget's.
            let block = i / BLOCK;
            let n = left.min(((block + 1) * BLOCK).min(cap) - i);
            if self.expired(self.oldest[block], now_ns) {
                let first = block * BLOCK;
                let stored = self.occupied[block] & u64::MAX >> (BLOCK - n) << (i - first);
                for b in set_bits(stored) {
                    prefetch_read(self.slot(first + b));
                }
                let mut oldest = u64::MAX;
                for slot in set_bits(stored).map(|b| self.slot(first + b)) {
                    if self.expired(slot[3], now_ns) {
                        expired_keys.push(unpack(slot));
                    } else {
                        oldest = oldest.min(slot[3]);
                    }
                }
                if n == BLOCK.min(cap) {
                    // The whole block was read: what survives is all it holds.
                    self.oldest[block] = oldest;
                }
            }
            left -= n;
            i = (i + n) & self.mask;
        }
        // Commit the window's end before removing: backshift relocations
        // that cross the cursor rewind it from here (see `remove_at`).
        self.age_cursor = i;
        for k in &expired_keys {
            self.remove_key(k);
        }
        let evicted = expired_keys.len();
        expired_keys.clear();
        self.age_expired = expired_keys;
        self.evictions += evicted as u64;
        self.age_sweep_slots += (budget + evicted) as u64;
        evicted
    }

    /// Iterate live entries as `(key, vri, last_seen_ns)`, in slot order —
    /// the checkpoint export surface. Entries already past `timeout_ns` may
    /// still appear (they are reclaimed lazily); importers re-apply the
    /// timeout anyway.
    pub fn entries(&self) -> impl Iterator<Item = (FlowKey, VriId, u64)> + '_ {
        self.words
            .chunks_exact(SLOT_WORDS)
            .filter_map(|w| w.first_chunk())
            .filter(|slot| slot[1] != 0)
            .map(|slot| (unpack(slot), VriId(slot[2] as u32), slot[3]))
    }

    /// The stored flows as a checkpoint section, in slot order: what
    /// [`FlowTable::entries`] yields, each pinned to its VRI's position in
    /// `vris` (a flow whose VRI is not among them is left out), with its
    /// `last_seen_ns` rounded down to the export quantum.
    ///
    /// The quantum is `2^⌊log2(max(timeout / 16, 1))⌋` ns (2^30, about
    /// 1.07 s, at a 30-s timeout), so a hit that stays inside it changes
    /// nothing this ships. Until a slot is stored or removed, or a hit
    /// crosses into another quantum, the table hands back the very section
    /// it made last time (a reference count, no walk), and a checkpoint diff
    /// passes over it without a read. The slots keep the exact time:
    /// aging, [`FlowTable::entries`] and every timeout decision are as
    /// before. What the rounding costs is on the restoring side: a flow
    /// restored or promoted from a checkpoint may expire up to one quantum
    /// (a sixteenth of the timeout) sooner than it would have here.
    ///
    /// The table keeps that last section, 25 bytes a flow (26 MB at 2^20
    /// flows), until the next export replaces it, stale or not. A caller
    /// that keeps the checkpoint shares the memory; one that exports once
    /// and drops it leaves the table holding it.
    pub fn export(&self, vris: &[VriId]) -> FlowSection {
        let mut last = self.exported.borrow_mut();
        if last.generation != self.generation || last.vris != vris {
            last.section = self.export_uncached(vris);
            last.generation = self.generation;
            last.vris.clear();
            last.vris.extend_from_slice(vris);
        }
        last.section.clone()
    }

    /// [`FlowTable::export`] made afresh from the slots, cache untouched
    /// (the cache's test oracle).
    #[doc(hidden)]
    pub fn export_uncached(&self, vris: &[VriId]) -> FlowSection {
        // VriId -> slot, indexed by the id less the lowest one: a load per
        // flow where a search of `vris` would be. Ids are handed out in
        // sequence, so the table spans the instances spawned, in any VR,
        // between this VR's oldest and newest. Its last entry answers for
        // every id past it.
        let base = vris.iter().map(|v| v.0).min().unwrap_or(0);
        let mut slot_of: Vec<u32> = Vec::new();
        for (slot, v) in vris.iter().enumerate() {
            let at = (v.0 - base) as usize;
            slot_of.resize(slot_of.len().max(at + 1), u32::MAX);
            slot_of[at] = slot as u32;
        }
        slot_of.push(u32::MAX);
        let unlisted = slot_of.len() - 1;
        let mut out = Vec::with_capacity(self.len);
        for (block, &stored) in self.words.chunks(BLOCK * SLOT_WORDS).zip(&self.occupied) {
            // In a half-full table "is this slot stored" is a coin toss no
            // branch predictor calls: walk the block's set bits instead.
            for b in set_bits(stored) {
                let w = &block[b * SLOT_WORDS..][..SLOT_WORDS];
                let slot = slot_of[((w[2] as u32).wrapping_sub(base) as usize).min(unlisted)];
                if slot != u32::MAX {
                    // The protocol's low byte is its IP number in either packing.
                    let l4 = ((w[1] >> 25) as u16, (w[1] >> 9) as u16, w[1] as u8);
                    out.push(record_wire(w[0], l4, slot, w[3] & !self.sub_quantum));
                }
            }
        }
        FlowSection::from_wire(out)
    }

    /// Test hook: every block's bound is at or below every timestamp stored
    /// in the block, the condition the sweep's skip rests on.
    #[doc(hidden)]
    pub fn block_bounds_hold(&self) -> bool {
        (0..self.capacity())
            .map(|i| (i, self.slot(i)))
            .all(|(i, s)| s[1] == 0 || self.oldest[i / BLOCK] <= s[3])
    }

    /// Test hook: in every slot, the `occupied` bit is set exactly when the
    /// slot is stored, and word 2 holds no more than a VRI (its upper half,
    /// bit 63 among it, is clear).
    #[doc(hidden)]
    pub fn occupancy_bits_hold(&self) -> bool {
        (0..self.capacity()).map(|i| (i, self.slot(i))).all(|(i, s)| {
            let bit = self.occupied[i / BLOCK] >> (i % BLOCK) & 1 == 1;
            bit == (s[1] != 0) && s[2] >> 32 == 0
        })
    }

    /// Remove every entry pointing at `vri` (called when a VRI is killed so
    /// its flows get re-balanced instead of black-holed).
    ///
    /// Collects the victim keys first and removes them by probe: a naive
    /// positional sweep would miss entries that the backshift deletion
    /// relocates into slots the sweep already passed (found by the
    /// model-based property test).
    pub fn purge_vri(&mut self, vri: VriId) -> usize {
        let keys: Vec<FlowKey> =
            self.entries().filter(|(_, v, _)| *v == vri).map(|(key, _, _)| key).collect();
        for k in &keys {
            self.remove_key(k);
        }
        keys.len()
    }

    /// Remove `key` wherever it currently sits on its probe chain.
    fn remove_key(&mut self, key: &FlowKey) {
        if let Some(i) = self.position(key, key.hash64()) {
            self.remove_at(i);
        }
    }

    /// Tombstone-free removal: delete slot `i` and re-insert the probe chain
    /// behind it (standard linear-probing backshift).
    fn remove_at(&mut self, i: usize) {
        *self.slot_mut(i) = [0; SLOT_WORDS];
        self.mark(i, false);
        self.len -= 1;
        // Covers the backshift below too: it moves records only here.
        self.generation += 1;
        let mut j = (i + 1) & self.mask;
        while self.slot(j)[1] != 0 {
            // Re-insert preserves its timestamp.
            let e = std::mem::take(self.slot_mut(j));
            self.mark(j, false);
            let mut k = unpack(&e).hash64() as usize & self.mask;
            while self.slot(k)[1] != 0 {
                k = (k + 1) & self.mask;
            }
            *self.slot_mut(k) = e;
            self.mark(k, true);
            self.note_stored(k, e[3]);
            // Backshift can carry an entry across the aging cursor: from a
            // slot the sweep had yet to visit to one it already passed (a
            // slot freed and refilled within the same budget window). Rewind
            // the cursor to the landing slot so the in-flight lap still
            // examines the relocated entry — without this an expired flow
            // rides the relocation past the sweep and survives a full lap
            // (pinned by `lazy_expiry_relocation_cannot_escape_the_sweep`).
            let c = self.age_cursor & self.mask;
            let visit_old = j.wrapping_sub(c) & self.mask;
            let visit_new = k.wrapping_sub(c) & self.mask;
            if visit_new > visit_old {
                self.age_cursor = k;
            }
            j = (j + 1) & self.mask;
        }
    }
}

impl std::fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTable")
            .field("len", &self.len)
            .field("capacity", &self.capacity())
            .field("overflows", &self.overflows)
            .field("evictions", &self.evictions)
            .field("age_cursor", &self.age_cursor)
            .finish()
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
    fn insert_find_roundtrip() {
        let mut t = FlowTable::new(64, 1_000_000_000);
        assert!(t.insert(key(1), VriId(3), 100));
        assert_eq!(t.find_and_touch(&key(1), 200), Some(VriId(3)));
        assert_eq!(t.find_and_touch(&key(2), 200), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expiry_evicts_idle_flows() {
        let mut t = FlowTable::new(64, 1_000);
        t.insert(key(1), VriId(3), 0);
        // Within timeout: hit refreshes.
        assert_eq!(t.find_and_touch(&key(1), 900), Some(VriId(3)));
        // The refresh at 900 extends life to 1900.
        assert_eq!(t.find_and_touch(&key(1), 1800), Some(VriId(3)));
        // Far past timeout: gone.
        assert_eq!(t.find_and_touch(&key(1), 10_000), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn insert_reclaims_expired_slots() {
        let mut t = FlowTable::new(16, 10);
        for n in 0..16 {
            assert!(t.insert(key(n), VriId(0), 0));
        }
        // All expired by t=100; new inserts reuse their slots.
        assert!(t.insert(key(100), VriId(1), 100));
        assert_eq!(t.find_and_touch(&key(100), 100), Some(VriId(1)));
    }

    #[test]
    fn full_table_reports_overflow() {
        let mut t = FlowTable::new(16, u64::MAX);
        for n in 0..16 {
            assert!(t.insert(key(n), VriId(0), 0));
        }
        assert!(!t.insert(key(99), VriId(0), 0));
        assert_eq!(t.overflows, 1);
    }

    #[test]
    fn purge_vri_removes_only_its_flows() {
        let mut t = FlowTable::new(64, u64::MAX);
        t.insert(key(1), VriId(1), 0);
        t.insert(key(2), VriId(2), 0);
        t.insert(key(3), VriId(1), 0);
        assert_eq!(t.purge_vri(VriId(1)), 2);
        assert_eq!(t.find_and_touch(&key(2), 0), Some(VriId(2)));
        assert_eq!(t.find_and_touch(&key(1), 0), None);
    }

    #[test]
    fn backshift_keeps_probe_chains_reachable() {
        // Force collisions by filling a tiny table, then delete from the
        // middle of a chain and confirm later entries still resolve.
        let mut t = FlowTable::new(16, u64::MAX);
        let keys: Vec<FlowKey> = (0..12).map(key).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(*k, VriId(i as u32), 0);
        }
        t.purge_vri(VriId(4));
        for (i, k) in keys.iter().enumerate() {
            if i == 4 {
                continue;
            }
            assert_eq!(t.find_and_touch(k, 0), Some(VriId(i as u32)), "key {i} lost");
        }
    }

    #[test]
    fn age_step_visits_at_most_budget_slots() {
        let mut t = FlowTable::new(256, 100);
        for n in 0..50 {
            t.insert(key(n), VriId(0), 0);
        }
        // Nothing expired at t=50: the sweep advances exactly `budget` slots.
        let before = t.stats().age_sweep_slots;
        t.age_step(50, 32);
        assert_eq!(t.stats().age_sweep_slots - before, 32);
        t.age_step(50, 7);
        assert_eq!(t.stats().age_sweep_slots - before, 39);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn full_sweep_evicts_every_expired_flow() {
        let mut t = FlowTable::new(128, 100);
        for n in 0..80 {
            t.insert(key(n), VriId(0), 0);
        }
        // One cursor lap with budget == capacity clears the whole table:
        // the mutation-free scan sees every slot exactly once, so no
        // relocation can hide an expired entry from it.
        let evicted = t.age_step(1_000_000, t.capacity());
        assert_eq!(evicted, 80);
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats().evictions, 80);
    }

    #[test]
    fn partial_sweeps_converge_across_ticks() {
        let mut t = FlowTable::new(128, 100);
        for n in 0..80 {
            t.insert(key(n), VriId(0), 0);
        }
        // budget 16 per "tick": cursor rewinds triggered by backshift
        // relocations can stretch a lap past `capacity / budget` windows,
        // but two laps' worth of budget always converges.
        for _ in 0..(2 * 128 / 16) {
            t.age_step(1_000_000, 16);
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn age_step_spares_live_flows() {
        let mut t = FlowTable::new(64, 1_000);
        t.insert(key(1), VriId(1), 0);
        t.insert(key(2), VriId(2), 900);
        let evicted = t.age_step(1_500, t.capacity());
        assert_eq!(evicted, 1); // key(1) idle 1500 > 1000; key(2) idle 600.
        assert_eq!(t.find_and_touch(&key(2), 1_500), Some(VriId(2)));
        assert_eq!(t.find_and_touch(&key(1), 1_500), None);
    }

    #[test]
    fn age_step_on_empty_table_is_harmless() {
        let mut t = FlowTable::new(16, 100);
        assert_eq!(t.age_step(1_000, 1_000_000), 0);
        // Budget clamps to capacity.
        assert_eq!(t.stats().age_sweep_slots, 16);
    }

    #[test]
    fn stats_snapshot_tracks_counters() {
        let mut t = FlowTable::new(16, 10);
        t.insert(key(1), VriId(0), 0);
        let s = t.stats();
        assert_eq!(s.len, 1);
        assert_eq!(s.capacity, 16);
        assert!(s.occupancy() > 0.0);
        assert_eq!(t.find_and_touch(&key(1), 1_000), None); // lazy expiry
        assert_eq!(t.stats().evictions, 1);
    }

    /// Keys whose home slot in a `cap`-slot table lies in `[lo, hi)`.
    fn keys_homed_in(cap: usize, lo: usize, hi: usize, want: usize) -> Vec<FlowKey> {
        let homed = |k: &FlowKey| (lo..hi).contains(&(k.hash64() as usize & (cap - 1)));
        let out: Vec<FlowKey> = (0..=u8::MAX).map(key).filter(homed).take(want).collect();
        assert_eq!(out.len(), want, "not enough keys homed there");
        out
    }

    /// Keys whose home slot in a 16-slot table is 0, for crafting probe
    /// chains with known geometry.
    fn home0_keys(want: usize) -> Vec<FlowKey> {
        keys_homed_in(16, 0, 1, want)
    }

    /// Regression: a probe-time lazy expiry between two budget windows used
    /// to backshift an expired entry from the slot the cursor would visit
    /// next into a slot it had already passed — freed and refilled within
    /// the same budget window — so the entry skipped the rest of the lap.
    /// The cursor rewind in `remove_at` pins eviction-exactly-once: the lap
    /// must still evict it, and evict it exactly once.
    #[test]
    fn lazy_expiry_relocation_cannot_escape_the_sweep() {
        let k = home0_keys(3);
        let (a, b, x) = (k[0], k[1], k[2]);
        let mut t = FlowTable::new(16, 100);
        assert!(t.insert(a, VriId(0), 0)); // slot 0 (home)
        assert!(t.insert(b, VriId(0), 0)); // slot 1
        assert!(t.insert(x, VriId(0), 0)); // slot 2
                                           // Window 1: budget 2 sweeps slots 0 and 1 while everything is live.
        assert_eq!(t.age_step(50, 2), 0);
        // Between windows, A expires and a probe reclaims it lazily; the
        // backshift pulls B into slot 0 and X into slot 1 — X jumps from
        // directly ahead of the cursor to directly behind it.
        assert_eq!(t.find_and_touch(&a, 200), None);
        // The remainder of the lap (plus rewind slack) must evict X.
        let mut evicted = 0;
        for _ in 0..8 {
            evicted += t.age_step(200, 2);
        }
        assert!(
            t.entries().all(|(key, _, _)| key != x),
            "expired entry escaped the sweep via backshift relocation"
        );
        // B and X both expired mid-lap; each evicted exactly once.
        assert_eq!(evicted, 2);
        assert_eq!(t.stats().evictions, 3); // A (lazy) + B + X (sweep)
        assert_eq!(t.len(), 0);
    }

    /// The mutation-free scan must not double-count an entry the backshift
    /// relocates while the window's collected victims are being removed.
    #[test]
    fn sweep_evicts_each_expired_entry_exactly_once() {
        let keys = home0_keys(6);
        let mut t = FlowTable::new(16, 100);
        for k in &keys {
            t.insert(*k, VriId(0), 0);
        }
        // All six share one probe chain and all are expired: one full-budget
        // call must evict each exactly once despite every removal rehoming
        // the survivors.
        let evicted = t.age_step(1_000, t.capacity());
        assert_eq!(evicted, 6);
        assert_eq!(t.stats().evictions, 6);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn update_existing_flow_changes_vri() {
        let mut t = FlowTable::new(16, u64::MAX);
        t.insert(key(1), VriId(1), 0);
        t.insert(key(1), VriId(5), 10);
        assert_eq!(t.len(), 1);
        assert_eq!(t.find_and_touch(&key(1), 10), Some(VriId(5)));
    }

    /// Regression: the probe used to take the first expired stranger's slot
    /// at sight, so re-pinning a live key that sat behind one stored it a
    /// second time. The shadowed copy later expired untouched and the
    /// sweep's `remove_key` took the first match — the live one.
    #[test]
    fn repinning_a_live_key_behind_an_expired_one_updates_it_in_place() {
        let k = home0_keys(2);
        let (x, kk) = (k[0], k[1]);
        let mut t = FlowTable::new(16, 100);
        assert!(t.insert(x, VriId(9), 0)); // slot 0, expires at 101
        assert!(t.insert(kk, VriId(1), 90)); // slot 1, behind it
        assert!(t.insert(kk, VriId(2), 150)); // X is expired, K is live
        assert_eq!(t.entries().filter(|(key, _, _)| *key == kk).count(), 1, "stored twice");
        assert_eq!(t.len(), t.entries().count());
        assert_eq!(t.find_and_touch(&kk, 150), Some(VriId(2)));
        // The corpse is still the sweep's to evict, and only the corpse.
        assert_eq!(t.age_step(150, 16), 1);
        assert_eq!(t.find_and_touch(&kk, 150), Some(VriId(2)));
        assert_eq!((t.len(), t.stats().evictions), (1, 1));
    }

    /// A key the chain does not hold still takes the first expired slot.
    #[test]
    fn a_new_key_reclaims_the_first_expired_slot_on_its_chain() {
        let k = home0_keys(4);
        let mut t = FlowTable::new(16, 100);
        assert!(t.insert(k[0], VriId(0), 50)); // live at 120
        assert!(t.insert(k[1], VriId(0), 0)); // expired at 120
        assert!(t.insert(k[2], VriId(0), 0)); // expired at 120
        assert!(t.insert(k[3], VriId(7), 120));
        let stored: Vec<FlowKey> = t.entries().map(|(key, _, _)| key).collect();
        assert_eq!(stored, [k[0], k[3], k[2]]);
        assert_eq!((t.len(), t.stats().evictions), (3, 1));
    }

    /// Packing is lossless, including the protocol values `from_ip_proto`
    /// never builds.
    #[test]
    fn packed_keys_round_trip() {
        for proto in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp, Protocol::Other(6)] {
            let k = FlowKey {
                src: Ipv4Addr::new(255, 1, 2, 3),
                dst: Ipv4Addr::new(4, 5, 6, 255),
                src_port: 0xffff,
                dst_port: 0x8001,
                proto,
            };
            let [addrs, l4] = pack(&k);
            assert_eq!(unpack(&[addrs, l4, 0, 0]), k);
        }
        let zero = FlowKey { proto: Protocol::Other(0), src_port: 0, dst_port: 0, ..key(0) };
        assert_ne!(pack(&zero)[1], 0, "a stored slot is never mistaken for an empty one");
    }

    /// Slot 0 starts a page, so no 32-byte slot crosses a line; a table that
    /// spans a huge page (2^16 slots is exactly one) starts on a huge-page
    /// boundary; a fresh table is empty in every slot; and the line
    /// `prefetch` asks for is the one a probe reads first. Under Miri only
    /// the tables below a huge page are built: `madvise` and a partial
    /// `munmap` are outside what it models.
    #[test]
    fn slots_start_a_page_and_a_huge_page_once_they_span_one() {
        let sizes: &[usize] = if cfg!(miri) { &[16, 4096] } else { &[16, 4096, 1 << 16, 1 << 17] };
        for &cap in sizes {
            let t = FlowTable::new(cap, 1);
            let at = t.slot(0).as_ptr().addr();
            assert_eq!(at % 4096, 0, "slot 0 of {cap} starts a page");
            let spans_huge_page = cap * SLOT_WORDS * size_of::<u64>() >= HUGE_PAGE;
            assert_eq!(spans_huge_page, cap >= 1 << 16);
            if spans_huge_page {
                assert_eq!(at % HUGE_PAGE, 0, "slot 0 of {cap} starts a huge page");
            }
            assert_eq!(t.words.len(), cap * SLOT_WORDS);
            assert!(t.words.iter().all(|&w| w == 0), "a fresh table of {cap} holds something");
            assert_eq!(t.entries().count(), 0);
        }
        // `prefetch` has no result to look at; it is handed `slot(home)`, the
        // words `find_and_touch_hashed` reads first.
        let mut t = FlowTable::new(4096, u64::MAX);
        let flow = HashedKey::new(key(1));
        t.prefetch(flow.hash());
        t.insert_hashed(flow, VriId(3), 0);
        assert_eq!(t.slot(flow.hash() as usize & t.mask)[..2], pack(flow.key()));
    }

    /// The sweep trusts the bound: a block whose bound is inside the timeout
    /// is not read (shown by lying to it), one whose bound is outside is, and
    /// a whole-block read re-learns the bound from the survivors.
    #[test]
    fn sweep_skips_young_blocks_and_relearns_old_ones() {
        let mut t = FlowTable::new(256, 100);
        let old = keys_homed_in(256, 0, 32, 3);
        t.insert(old[0], VriId(0), 10);
        t.insert(old[1], VriId(0), 40);
        t.insert(old[2], VriId(0), 70);
        let young = keys_homed_in(256, 64, 96, 1)[0];
        t.insert(young, VriId(0), 60);
        assert_eq!(t.oldest, [10, 60, u64::MAX, u64::MAX]);
        // At 120 only the entry stamped 10 is dead; block 0 is read whole.
        assert_eq!(t.age_step(120, 256), 1);
        assert_eq!(t.oldest, [40, 60, u64::MAX, u64::MAX]);
        assert!(t.block_bounds_hold());
        // Lie: call block 0 young. The sweep must not look inside it.
        t.oldest[0] = 150;
        assert_eq!(t.age_step(150, 256), 0, "a block with a young bound was read");
        assert_eq!(t.len(), 3);
        t.oldest[0] = 40;
        assert_eq!(t.age_step(150, 256), 1);
        assert_eq!(t.oldest[0], 70);
        // A hit raises a timestamp and leaves the bound alone: the block is
        // read once more than it needed to be, then skipped again.
        assert_eq!(t.find_and_touch(&old[2], 160), Some(VriId(0)));
        assert_eq!(t.oldest[0], 70);
        assert_eq!(t.age_step(175, 256), 1, "the entry stamped 60 in block 1");
        assert_eq!(t.oldest[..2], [160, u64::MAX]);
    }

    /// `import_flow` stores a checkpointed timestamp, possibly far older than
    /// anything in the block it lands in.
    #[test]
    fn an_old_timestamp_imported_into_a_young_block_is_still_swept() {
        let mut t = FlowTable::new(256, 100);
        let k = keys_homed_in(256, 64, 120, 2);
        t.insert(k[0], VriId(1), 1_000);
        assert_eq!(t.age_step(1_050, 256), 0);
        assert_eq!(t.oldest[1], 1_000);
        t.insert(k[1], VriId(2), 20); // restored from a checkpoint
        assert_eq!(t.oldest[1], 20);
        assert_eq!(t.age_step(1_050, 256), 1);
        assert_eq!(t.find_and_touch(&k[0], 1_050), Some(VriId(1)));
        assert_eq!(t.find_and_touch(&k[1], 1_050), None);
        assert_eq!(t.stats().evictions, 1);
    }

    /// Budgets that never cover a whole block still evict everything (the
    /// bound of a block read in pieces just stays where it was), and the
    /// sweep is charged `budget + evicted` per call whether it read or
    /// skipped — in a 16-slot table too, whose only block is short.
    #[test]
    fn small_budgets_and_small_tables_sweep_and_charge_exactly() {
        for cap in [16usize, 256] {
            let mut t = FlowTable::new(cap, 100);
            let n = cap / 2;
            for i in 0..n {
                // Every other flow is stamped late enough to survive.
                t.insert(key(i as u8), VriId(0), if i % 2 == 0 { 0 } else { 80 });
            }
            let mut charged = 0;
            for round in 0..4 * cap {
                // Rounds before `cap` find nothing expired (all skipped once
                // the bounds say so); later ones evict the early half.
                let now = if round < cap { 90 } else { 150 };
                let before = t.stats().age_sweep_slots;
                let evicted = t.age_step(now, 7);
                assert_eq!(t.stats().age_sweep_slots - before, 7 + evicted as u64);
                assert!(t.block_bounds_hold());
                charged += evicted;
            }
            assert_eq!((charged, t.len()), (n.div_ceil(2), n / 2), "cap {cap}");
            assert!(t.entries().all(|(_, _, seen)| seen == 80));
        }
    }

    /// The export quantum is `2^⌊log2(max(timeout / 16, 1))⌋` ns. A hit that
    /// stays inside its quantum leaves the export as it was, shared; one
    /// that leaves it, forward or back, makes it afresh; the slot keeps the
    /// exact time either way. Another live set is another export.
    #[test]
    fn a_hit_moves_the_export_only_when_it_leaves_its_quantum() {
        let shifts = [(30_000_000_000, 30), (4_000, 7), (16, 0), (0, 0), (u64::MAX, 59)];
        for (timeout, shift) in shifts {
            let quantum = FlowTable::new(16, timeout).sub_quantum + 1;
            assert_eq!(quantum, 1 << shift, "timeout {timeout}");
        }
        let seen = |s: &FlowSection| s.iter().map(|f| (f.slot, f.last_seen_ns)).collect::<Vec<_>>();
        let mut t = FlowTable::new(64, 16_384); // quantum 1024
        let v = [VriId(3)];
        t.insert(key(1), VriId(3), 1_030);
        let first = t.export(&v);
        assert_eq!(seen(&first), [(0, 1_024)]);
        assert_eq!(t.find_and_touch(&key(1), 2_047), Some(VriId(3)));
        assert!(t.export(&v).shares_records(&first));
        assert_eq!(t.entries().map(|(_, _, at)| at).collect::<Vec<_>>(), [2_047]);
        t.find_and_touch(&key(1), 2_048);
        let second = t.export(&v);
        assert!(!second.shares_records(&first));
        assert_eq!(seen(&second), [(0, 2_048)]);
        t.find_and_touch(&key(1), 2_000); // a clock that stepped back
        assert_eq!(seen(&t.export(&v)), [(0, 1_024)]);
        assert_eq!(seen(&t.export(&[VriId(4), VriId(3)])), [(1, 1_024)]);
    }

    /// A capacity above 2^31 slots is refused before anything is mapped.
    #[test]
    #[should_panic(expected = "above the limit of 2^31 slots")]
    fn a_capacity_above_2_to_the_31_is_refused() {
        FlowTable::new(FlowTable::MAX_CAPACITY + 1, 100);
    }

    /// Stores, sweeps, purges and backshifts keep the `occupied` bits in
    /// step with the slots, on a chain that wraps the table's end.
    #[test]
    fn occupancy_bits_follow_every_write() {
        let k = keys_homed_in(16, 15, 16, 4);
        let mut t = FlowTable::new(16, 100);
        for (n, key) in k.iter().enumerate() {
            assert!(t.insert(*key, VriId(n as u32), n as u64 * 10));
            assert!(t.occupancy_bits_hold());
        }
        // The chain is slots 15, 0, 1, 2.
        assert_eq!(t.occupied, [0b1000_0000_0000_0111]);
        // At 105 only the flow stamped 0, at slot 15, is dead; the rest move up.
        assert_eq!(t.age_step(105, 16), 1);
        assert!(t.occupancy_bits_hold());
        assert_eq!(t.occupied, [0b1000_0000_0000_0011]);
        assert_eq!(t.entries().map(|(key, _, _)| key).collect::<Vec<_>>(), [k[2], k[3], k[1]]);
        assert_eq!(t.purge_vri(VriId(2)), 1);
        assert!(t.occupancy_bits_hold());
        assert_eq!(t.occupied, [0b1000_0000_0000_0001]);
        assert_eq!(t.find_and_touch(&k[3], 105), Some(VriId(3)));
        assert_eq!(t.find_and_touch(&k[1], 105), Some(VriId(1)));
    }

    /// A clock that steps back makes a hit lower a timestamp; the bound
    /// follows it down.
    #[test]
    fn a_hit_under_a_clock_that_stepped_back_lowers_the_bound() {
        let mut t = FlowTable::new(64, 100);
        t.insert(key(1), VriId(0), 1_000);
        assert_eq!(t.find_and_touch(&key(1), 400), Some(VriId(0)));
        assert!(t.block_bounds_hold());
        assert_eq!(t.age_step(600, 64), 1);
    }
}
