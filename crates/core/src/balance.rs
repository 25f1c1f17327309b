//! Load balancing among the VRIs of a VR (paper §3.3, Fig. 3.3).
//!
//! Three base policies — join-the-shortest-queue, round-robin, random —
//! each usable *frame-based* (every frame balanced independently) or
//! *flow-based* (the first frame of a flow is balanced, later frames follow
//! it via the connection-tracking [`FlowTable`], avoiding intra-flow
//! reordering).

use lvrm_net::{FlowKey, Frame, HashedKey, IngressHeaders};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::FlowSection;
use crate::flowtable::{FlowTable, FlowTableStats};
use crate::VriId;

/// Everything a balancer may consult for one decision. Slots are parallel
/// arrays: `vris[i]` has estimated load `loads[i]`; `valid[i]` is false for
/// slots that must not receive traffic (dead or saturated VRIs — the
/// pseudocode's "valid VRI" check).
pub struct BalanceCtx<'a> {
    pub vris: &'a [VriId],
    pub loads: &'a [f64],
    pub valid: &'a [bool],
    pub now_ns: u64,
}

impl BalanceCtx<'_> {
    fn slot_of(&self, vri: VriId) -> Option<usize> {
        self.vris.iter().position(|v| *v == vri).filter(|i| self.valid[*i])
    }
}

/// One VR's burst as its balancer sees it: the slots of a [`BalanceCtx`],
/// and the key each frame was staged with (none at all when the VR's
/// balancer keeps no flow table). `loads` is the burst's to spend: a pick
/// adds 1 to its slot's load for the picks after it, so a burst spreads
/// over frames the estimator has not seen yet.
pub struct BurstCtx<'a> {
    pub flows: &'a [Option<HashedKey>],
    pub vris: &'a [VriId],
    pub loads: &'a mut [f64],
    pub valid: &'a [bool],
    pub now_ns: u64,
}

impl BurstCtx<'_> {
    /// [`LoadBalancer::pick_burst`] as one `B::pick_keyed` a frame.
    fn pick_each<B: LoadBalancer + ?Sized>(self, balancer: &mut B, picks: &mut [Option<usize>]) {
        let BurstCtx { flows, vris, loads, valid, now_ns } = self;
        for (i, pick) in picks.iter_mut().enumerate() {
            let ctx = BalanceCtx { vris, loads, valid, now_ns };
            *pick = balancer.pick_keyed(flows.get(i).copied().flatten(), &ctx);
            if let Some(slot) = *pick {
                loads[slot] += 1.0;
            }
        }
    }
}

/// A load-balancing policy. A pick returns the slot index to dispatch to.
pub trait LoadBalancer: Send {
    /// Pick a slot for a frame staged earlier: `flow` is what
    /// [`LoadBalancer::stage`] returned for it.
    fn pick_keyed(&mut self, flow: Option<HashedKey>, ctx: &BalanceCtx<'_>) -> Option<usize>;

    /// Stage a frame ahead of its pick, from its parsed headers. A policy
    /// that tracks flows reads the 5-tuple, hashes it once, asks for the
    /// cache line the pick will probe, and returns the hashed key for
    /// [`LoadBalancer::pick_keyed`]; `None` for a frame with no 5-tuple.
    /// Stateless policies need none of that and return `None`; burst ingress
    /// does not even ask them, so a frame-based VR pays for no transport
    /// parse, no hash and no call. It stages a whole burst, then picks.
    fn stage(&self, _headers: &IngressHeaders<'_>) -> Option<HashedKey> {
        None
    }

    /// Pick a slot for `frame` on its own: parse, stage, pick. The monitor
    /// places every frame through [`LoadBalancer::pick_burst`] and never
    /// calls this; it serves callers that hold one bare frame, such as the
    /// `core.balance.pick_ns` probe in `benchmark/`.
    fn pick(&mut self, frame: &Frame, ctx: &BalanceCtx<'_>) -> Option<usize> {
        let flow = IngressHeaders::parse(frame.bytes()).and_then(|h| self.stage(&h));
        self.pick_keyed(flow, ctx)
    }

    /// Pick a slot for each frame of one VR's burst, in order: `picks[i]`
    /// answers frame `i` as one [`LoadBalancer::pick_keyed`] a frame would,
    /// for one call through a `dyn` balancer.
    fn pick_burst(&mut self, burst: BurstCtx<'_>, picks: &mut [Option<usize>]) {
        burst.pick_each(self, picks);
    }

    /// Forget any affinity to a VRI that was destroyed.
    fn purge_vri(&mut self, _vri: VriId) {}

    fn name(&self) -> &'static str;

    /// Flow-affinity counters `(sticky_hits, fresh_picks)` for policies that
    /// keep a flow table; stateless policies report zeros. Published as
    /// per-VR metrics by the monitor.
    fn flow_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// This policy's flow-affinity entries, in flow-table slot order, each
    /// pinned to its VRI's slot in `vris` (an entry whose VRI is not among
    /// them is left out) — the warm-restart export surface. A flow table
    /// returns its previous section, shared, while nothing it ships has
    /// changed ([`FlowTable::export`]). Stateless policies export nothing.
    fn export_flows(&self, _vris: &[VriId]) -> FlowSection {
        FlowSection::default()
    }

    /// Re-learn one flow-affinity entry from a checkpoint. Stateless
    /// policies ignore it.
    fn import_flow(&mut self, _key: FlowKey, _vri: VriId, _last_seen_ns: u64) {}

    /// Advance incremental flow aging by at most `budget` slots of work
    /// (called from the monitor's 1 s tick — never a full-table scan).
    /// Returns evicted-entry count. Stateless policies do nothing.
    fn age_flows(&mut self, _now_ns: u64, _budget: usize) -> usize {
        0
    }

    /// Flow-table occupancy/churn stats, `None` for stateless policies.
    fn flow_table_stats(&self) -> Option<FlowTableStats> {
        None
    }
}

/// Join-the-shortest-queue: the slot with the smallest estimated load
/// (Fig. 3.3 `JSQ`). Ties go to the lowest slot, matching the pseudocode's
/// strict `<` scan.
#[derive(Default)]
pub struct Jsq;

impl LoadBalancer for Jsq {
    fn pick_keyed(&mut self, _flow: Option<HashedKey>, ctx: &BalanceCtx<'_>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..ctx.loads.len() {
            if !ctx.valid[i] {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) if ctx.loads[i] < ctx.loads[b] => best = Some(i),
                _ => {}
            }
        }
        best
    }

    /// With at most one valid slot every frame gets the same answer, so
    /// only a burst with a choice is scanned frame by frame.
    fn pick_burst(&mut self, burst: BurstCtx<'_>, picks: &mut [Option<usize>]) {
        match burst.valid.iter().filter(|ok| **ok).count() {
            0 | 1 => picks.fill(burst.valid.iter().position(|ok| *ok)),
            _ => burst.pick_each(self, picks),
        }
    }

    fn name(&self) -> &'static str {
        "jsq"
    }
}

/// Round-robin over valid slots (Fig. 3.3 `RR`: "the next and valid VRI").
#[derive(Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl LoadBalancer for RoundRobin {
    fn pick_keyed(&mut self, _flow: Option<HashedKey>, ctx: &BalanceCtx<'_>) -> Option<usize> {
        let n = ctx.valid.len();
        if n == 0 {
            return None;
        }
        for step in 1..=n {
            let i = (self.cursor + step) % n;
            if ctx.valid[i] {
                self.cursor = i;
                return Some(i);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "rr"
    }
}

/// Uniform random choice among valid slots (Fig. 3.3 `Rnd`). Deterministic
/// under a fixed seed, for reproducible experiments.
pub struct RandomBalancer {
    rng: SmallRng,
}

impl RandomBalancer {
    pub fn new(seed: u64) -> RandomBalancer {
        RandomBalancer { rng: SmallRng::seed_from_u64(seed) }
    }
}

impl LoadBalancer for RandomBalancer {
    fn pick_keyed(&mut self, _flow: Option<HashedKey>, ctx: &BalanceCtx<'_>) -> Option<usize> {
        let n_valid = ctx.valid.iter().filter(|v| **v).count();
        if n_valid == 0 {
            return None;
        }
        let target = self.rng.gen_range(0..n_valid);
        ctx.valid.iter().enumerate().filter(|(_, v)| **v).nth(target).map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Flow-based wrapper (Fig. 3.3 `balance`): look the frame's 5-tuple up in
/// the hash table; on a hit with a still-valid VRI, stick with it; otherwise
/// delegate to the inner policy and remember the answer ("if flow-based,
/// VRI of added entry <- JSQ()/Rnd()/RR()").
pub struct FlowBased<B> {
    inner: B,
    table: FlowTable,
    /// Frames that followed an existing flow entry.
    pub sticky_hits: u64,
    /// Frames balanced fresh (first-of-flow, expired, or non-IP).
    pub fresh_picks: u64,
}

impl<B: LoadBalancer> FlowBased<B> {
    pub fn new(inner: B, flow_capacity: usize, flow_timeout_ns: u64) -> FlowBased<B> {
        FlowBased {
            inner,
            table: FlowTable::new(flow_capacity, flow_timeout_ns),
            sticky_hits: 0,
            fresh_picks: 0,
        }
    }

    pub fn table(&self) -> &FlowTable {
        &self.table
    }
}

impl<B: LoadBalancer> LoadBalancer for FlowBased<B> {
    fn pick_keyed(&mut self, flow: Option<HashedKey>, ctx: &BalanceCtx<'_>) -> Option<usize> {
        let Some(flow) = flow else {
            // Non-IP frames cannot be flow-classified; balance per frame.
            self.fresh_picks += 1;
            return self.inner.pick_keyed(None, ctx);
        };
        if let Some(vri) = self.table.find_and_touch_hashed(&flow, ctx.now_ns) {
            // "if the entry is found and the VRI of the entry is valid"
            if let Some(slot) = ctx.slot_of(vri) {
                self.sticky_hits += 1;
                return Some(slot);
            }
        }
        let slot = self.inner.pick_keyed(Some(flow), ctx)?;
        self.table.insert_hashed(flow, ctx.vris[slot], ctx.now_ns);
        self.fresh_picks += 1;
        Some(slot)
    }

    fn stage(&self, headers: &IngressHeaders<'_>) -> Option<HashedKey> {
        let flow = HashedKey::new(headers.flow_key()?);
        self.table.prefetch(flow.hash());
        Some(flow)
    }

    fn purge_vri(&mut self, vri: VriId) {
        self.table.purge_vri(vri);
        self.inner.purge_vri(vri);
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "jsq" => "flow-jsq",
            "rr" => "flow-rr",
            "random" => "flow-random",
            _ => "flow-based",
        }
    }

    fn flow_stats(&self) -> (u64, u64) {
        (self.sticky_hits, self.fresh_picks)
    }

    fn export_flows(&self, vris: &[VriId]) -> FlowSection {
        self.table.export(vris)
    }

    fn import_flow(&mut self, key: FlowKey, vri: VriId, last_seen_ns: u64) {
        self.table.insert(key, vri, last_seen_ns);
    }

    fn age_flows(&mut self, now_ns: u64, budget: usize) -> usize {
        self.table.age_step(now_ns, budget)
    }

    fn flow_table_stats(&self) -> Option<FlowTableStats> {
        Some(self.table.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(src_port: u16) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .udp(src_port, 80, &[0u8; 10])
    }

    fn vris(n: u32) -> Vec<VriId> {
        (0..n).map(VriId).collect()
    }

    #[test]
    fn jsq_picks_lightest_valid() {
        let mut b = Jsq;
        let v = vris(3);
        let ctx =
            BalanceCtx { vris: &v, loads: &[5.0, 1.0, 3.0], valid: &[true, true, true], now_ns: 0 };
        assert_eq!(b.pick(&frame(1), &ctx), Some(1));
        let ctx = BalanceCtx {
            vris: &v,
            loads: &[5.0, 1.0, 3.0],
            valid: &[true, false, true],
            now_ns: 0,
        };
        assert_eq!(b.pick(&frame(1), &ctx), Some(2));
    }

    #[test]
    fn jsq_tie_breaks_to_lowest_slot() {
        let mut b = Jsq;
        let v = vris(3);
        let ctx = BalanceCtx { vris: &v, loads: &[2.0, 2.0, 2.0], valid: &[true; 3], now_ns: 0 };
        assert_eq!(b.pick(&frame(1), &ctx), Some(0));
    }

    #[test]
    fn round_robin_cycles_and_skips_invalid() {
        let mut b = RoundRobin::default();
        let v = vris(3);
        let loads = [0.0; 3];
        let valid = [true, false, true];
        let mut picks = Vec::new();
        for _ in 0..4 {
            let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
            picks.push(b.pick(&frame(1), &ctx).unwrap());
        }
        assert_eq!(picks, vec![2, 0, 2, 0]);
    }

    #[test]
    fn random_is_deterministic_and_uniform_ish() {
        let mut b = RandomBalancer::new(42);
        let v = vris(4);
        let loads = [0.0; 4];
        let valid = [true; 4];
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
            counts[b.pick(&frame(1), &ctx).unwrap()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts {counts:?} not uniform");
        }
        // Deterministic replay.
        let mut b2 = RandomBalancer::new(42);
        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
        let mut b3 = RandomBalancer::new(42);
        let ctx2 = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
        assert_eq!(b2.pick(&frame(1), &ctx), b3.pick(&frame(1), &ctx2));
    }

    #[test]
    fn all_invalid_yields_none() {
        let v = vris(2);
        let loads = [0.0; 2];
        let valid = [false, false];
        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
        assert!(Jsq.pick(&frame(1), &ctx).is_none());
        assert!(RoundRobin::default().pick(&frame(1), &ctx).is_none());
        assert!(RandomBalancer::new(1).pick(&frame(1), &ctx).is_none());
    }

    #[test]
    fn flow_based_sticks_to_first_assignment() {
        let mut b = FlowBased::new(RoundRobin::default(), 64, u64::MAX);
        let v = vris(3);
        let loads = [0.0; 3];
        let valid = [true; 3];
        let f = frame(7777);
        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
        let first = b.pick(&f, &ctx).unwrap();
        for t in 1..20 {
            let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: t };
            assert_eq!(b.pick(&f, &ctx), Some(first), "flow must stay put");
        }
        assert_eq!(b.sticky_hits, 19);
        assert_eq!(b.fresh_picks, 1);
    }

    #[test]
    fn flow_based_rebalances_after_vri_death() {
        let mut b = FlowBased::new(Jsq, 64, u64::MAX);
        let v = vris(2);
        let f = frame(1234);
        let ctx = BalanceCtx { vris: &v, loads: &[0.0, 1.0], valid: &[true, true], now_ns: 0 };
        assert_eq!(b.pick(&f, &ctx), Some(0)); // JSQ picks slot 0 (VriId 0)
                                               // VRI 0 dies: slot 0 invalid. The sticky entry must not be used.
        let ctx = BalanceCtx { vris: &v, loads: &[0.0, 1.0], valid: &[false, true], now_ns: 1 };
        assert_eq!(b.pick(&f, &ctx), Some(1));
    }

    #[test]
    fn flow_based_distinct_flows_spread() {
        let mut b = FlowBased::new(RoundRobin::default(), 256, u64::MAX);
        let v = vris(2);
        let loads = [0.0; 2];
        let valid = [true; 2];
        let mut per_slot = [0u32; 2];
        for p in 0..100 {
            let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 0 };
            per_slot[b.pick(&frame(p), &ctx).unwrap()] += 1;
        }
        assert_eq!(per_slot, [50, 50]);
    }

    #[test]
    fn export_import_roundtrips_affinity() {
        let mut b = FlowBased::new(RoundRobin::default(), 64, u64::MAX);
        let v = vris(3);
        let loads = [0.0; 3];
        let valid = [true; 3];
        let f = frame(4242);
        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 5 };
        let first = b.pick(&f, &ctx).unwrap();
        let flows = b.export_flows(&v);
        assert_eq!(flows.len(), 1);
        // A fresh balancer fed the export sticks to the same VRI.
        let mut b2 = FlowBased::new(RoundRobin::default(), 64, u64::MAX);
        for f in flows.iter() {
            b2.import_flow(f.key, v[f.slot as usize], f.last_seen_ns);
        }
        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns: 6 };
        assert_eq!(b2.pick(&f, &ctx), Some(first));
        assert_eq!(b2.sticky_hits, 1, "imported entry hit, not re-balanced");
        // Stateless policies are no-ops.
        assert!(Jsq.export_flows(&v).is_empty());
    }

    #[test]
    fn names_reflect_mode() {
        assert_eq!(Jsq.name(), "jsq");
        assert_eq!(FlowBased::new(Jsq, 16, 1).name(), "flow-jsq");
    }

    /// Every policy, stateless and flow-based, each built afresh.
    fn policies(seed: u64) -> Vec<Box<dyn LoadBalancer>> {
        vec![
            Box::new(Jsq),
            Box::new(RoundRobin::default()),
            Box::new(RandomBalancer::new(seed)),
            Box::new(FlowBased::new(Jsq, 64, u64::MAX)),
            Box::new(FlowBased::new(RoundRobin::default(), 64, u64::MAX)),
            Box::new(FlowBased::new(RandomBalancer::new(seed), 64, u64::MAX)),
        ]
    }

    /// Flow `i` of a handful, so bursts revisit flows.
    fn key(i: u8) -> HashedKey {
        HashedKey::new(FlowKey {
            src: Ipv4Addr::new(10, 0, 1, i),
            dst: Ipv4Addr::new(10, 0, 2, 9),
            src_port: 1000 + u16::from(i),
            dst_port: 80,
            proto: lvrm_net::Protocol::Udp,
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A burst picked in one call gets, frame for frame, the slots that
        /// one `pick_keyed` a frame gets with `loads[slot] += 1.0` between
        /// them, and leaves the flow table as that sequence leaves it. Slot
        /// sets change between bursts, so a pinned VRI can go missing.
        #[test]
        fn pick_burst_is_sequential_pick_keyed(
            seed in any::<u64>(),
            bursts in prop::collection::vec(
                (
                    prop::collection::vec((0.0f64..8.0, any::<bool>()), 0..7),
                    prop::collection::vec(0u8..14, 0..65),
                ),
                1..4,
            ),
        ) {
            let all_vris = vris(7);
            for (mut one, mut each) in policies(seed).into_iter().zip(policies(seed)) {
                for (t, (slots, frames)) in bursts.iter().enumerate() {
                    let v = vris(slots.len() as u32);
                    let valid: Vec<bool> = slots.iter().map(|s| s.1).collect();
                    let start: Vec<f64> = slots.iter().map(|s| s.0).collect();
                    // Indices 12 and 13 are frames without a 5-tuple. Only a
                    // policy with a flow table is handed keys, as in ingress.
                    let flows: Vec<Option<HashedKey>> = match one.flow_table_stats() {
                        Some(_) => frames.iter().map(|&i| (i < 12).then(|| key(i))).collect(),
                        None => Vec::new(),
                    };
                    let now_ns = t as u64;

                    let mut loads = start.clone();
                    let mut want = Vec::new();
                    for i in 0..frames.len() {
                        let ctx = BalanceCtx { vris: &v, loads: &loads, valid: &valid, now_ns };
                        let pick = each.pick_keyed(flows.get(i).copied().flatten(), &ctx);
                        if let Some(slot) = pick {
                            loads[slot] += 1.0;
                        }
                        want.push(pick);
                    }

                    let mut loads = start.clone();
                    let mut picks = vec![None; frames.len()];
                    let burst =
                        BurstCtx { flows: &flows, vris: &v, loads: &mut loads, valid: &valid, now_ns };
                    one.pick_burst(burst, &mut picks);
                    prop_assert_eq!(&picks, &want, "{} burst {}", one.name(), t);
                }
                prop_assert_eq!(one.flow_stats(), each.flow_stats(), "{}", one.name());
                prop_assert!(
                    one.export_flows(&all_vris) == each.export_flows(&all_vris),
                    "{}: flow tables differ",
                    one.name()
                );
            }
        }
    }
}
