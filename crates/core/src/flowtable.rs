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
//! At million-flow scale, lazy probe-time reclamation alone lets dead flows
//! silt the table up: an expired entry is only noticed when a probe happens
//! to cross it, so under churn the table fills with corpses and inserts
//! start refusing. [`FlowTable::age_step`] adds **incremental aging**: a
//! sweep cursor visits a bounded number of slots per call (the monitor's
//! 1 s tick drives it), evicting expired entries as it goes. Every pass is
//! O(budget), never a full-table scan, so the tick cost stays bounded no
//! matter how large the table is; a full sweep completes across
//! `capacity / budget` consecutive ticks.

use lvrm_net::{prefetch_read, FlowKey, HashedKey};

use crate::VriId;

#[derive(Clone, Copy)]
struct Entry {
    key: FlowKey,
    vri: VriId,
    last_seen_ns: u64,
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
    /// is bounded: grows by at most the configured budget per tick).
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
pub struct FlowTable {
    slots: Box<[Option<Entry>]>,
    mask: usize,
    timeout_ns: u64,
    len: usize,
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
}

impl FlowTable {
    /// `capacity` rounds up to a power of two; `timeout_ns` expires idle
    /// flows (TCP flows silent that long have effectively closed).
    pub fn new(capacity: usize, timeout_ns: u64) -> FlowTable {
        let cap = capacity.max(16).next_power_of_two();
        FlowTable {
            slots: vec![None; cap].into_boxed_slice(),
            mask: cap - 1,
            timeout_ns,
            len: 0,
            overflows: 0,
            age_cursor: 0,
            evictions: 0,
            age_sweep_slots: 0,
            age_expired: Vec::new(),
        }
    }

    /// Copy out the occupancy/churn counters.
    pub fn stats(&self) -> FlowTableStats {
        FlowTableStats {
            len: self.len,
            capacity: self.slots.len(),
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
        self.slots.len()
    }

    fn expired(&self, e: &Entry, now_ns: u64) -> bool {
        now_ns.saturating_sub(e.last_seen_ns) > self.timeout_ns
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
        prefetch_read(&self.slots[hash as usize & self.mask]);
    }

    /// [`FlowTable::find_and_touch`] for a key hashed earlier.
    pub fn find_and_touch_hashed(&mut self, flow: &HashedKey, now_ns: u64) -> Option<VriId> {
        let mut i = flow.hash() as usize & self.mask;
        for _ in 0..self.slots.len() {
            match &mut self.slots[i] {
                None => return None,
                Some(e) if e.key == *flow.key() => {
                    if now_ns.saturating_sub(e.last_seen_ns) > self.timeout_ns {
                        self.remove_at(i);
                        self.evictions += 1;
                        return None;
                    }
                    e.last_seen_ns = now_ns;
                    return Some(e.vri);
                }
                Some(_) => i = (i + 1) & self.mask,
            }
        }
        None
    }

    /// Insert or update `key -> vri`.
    pub fn insert(&mut self, key: FlowKey, vri: VriId, now_ns: u64) -> bool {
        self.insert_hashed(HashedKey::new(key), vri, now_ns)
    }

    /// [`FlowTable::insert`] for a key hashed earlier.
    pub fn insert_hashed(&mut self, flow: HashedKey, vri: VriId, now_ns: u64) -> bool {
        let key = *flow.key();
        let mut i = flow.hash() as usize & self.mask;
        for _ in 0..self.slots.len() {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some(Entry { key, vri, last_seen_ns: now_ns });
                    self.len += 1;
                    return true;
                }
                Some(e) if e.key == key => {
                    e.vri = vri;
                    e.last_seen_ns = now_ns;
                    return true;
                }
                Some(e) if now_ns.saturating_sub(e.last_seen_ns) > self.timeout_ns => {
                    // Reclaim an expired stranger's slot.
                    *e = Entry { key, vri, last_seen_ns: now_ns };
                    self.evictions += 1;
                    return true;
                }
                Some(_) => i = (i + 1) & self.mask,
            }
        }
        self.overflows += 1;
        false
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
    pub fn age_step(&mut self, now_ns: u64, budget: usize) -> usize {
        let cap = self.slots.len();
        let budget = budget.min(cap);
        let mut i = self.age_cursor & self.mask;
        let mut expired_keys = std::mem::take(&mut self.age_expired);
        for _ in 0..budget {
            if let Some(e) = &self.slots[i] {
                if self.expired(e, now_ns) {
                    expired_keys.push(e.key);
                }
            }
            i = (i + 1) & self.mask;
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

    /// Iterate live entries as `(key, vri, last_seen_ns)` — the checkpoint
    /// export surface. Entries already past `timeout_ns` may still appear
    /// (they are reclaimed lazily); importers re-apply the timeout anyway.
    pub fn entries(&self) -> impl Iterator<Item = (&FlowKey, VriId, u64)> + '_ {
        self.slots.iter().flatten().map(|e| (&e.key, e.vri, e.last_seen_ns))
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
            self.slots.iter().flatten().filter(|e| e.vri == vri).map(|e| e.key).collect();
        for k in &keys {
            self.remove_key(k);
        }
        keys.len()
    }

    /// Remove `key` wherever it currently sits on its probe chain.
    fn remove_key(&mut self, key: &FlowKey) {
        let mut i = key.hash64() as usize & self.mask;
        for _ in 0..self.slots.len() {
            match &self.slots[i] {
                None => return,
                Some(e) if e.key == *key => {
                    self.remove_at(i);
                    return;
                }
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    /// Tombstone-free removal: delete slot `i` and re-insert the probe chain
    /// behind it (standard linear-probing backshift).
    fn remove_at(&mut self, i: usize) {
        self.slots[i] = None;
        self.len -= 1;
        let mut j = (i + 1) & self.mask;
        while let Some(e) = self.slots[j] {
            self.slots[j] = None;
            self.len -= 1;
            // Re-insert preserves its timestamp.
            let mut k = e.key.hash64() as usize & self.mask;
            while self.slots[k].is_some() {
                k = (k + 1) & self.mask;
            }
            self.slots[k] = Some(e);
            self.len += 1;
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

    /// Keys whose home slot in a 16-slot table is 0, for crafting probe
    /// chains with known geometry.
    fn home0_keys(want: usize) -> Vec<FlowKey> {
        let mut out = Vec::new();
        for n in 0..=u8::MAX {
            if key(n).hash64() as usize & 15 == 0 {
                out.push(key(n));
                if out.len() == want {
                    break;
                }
            }
        }
        assert_eq!(out.len(), want, "not enough colliding keys in search space");
        out
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
            t.entries().all(|(key, _, _)| *key != x),
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
}
