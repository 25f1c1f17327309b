//! Seeded inputs: prefixes, routes, flow keys and the frame pool.
//!
//! Everything here is built from `--seed` before any clock starts; the
//! program under test only ever sees the frames. A frame pool holds one
//! frame per flow; offering a frame is an `Arc` clone of its pool entry plus
//! a timestamp, so the generator costs the same on every workload and never
//! allocates while a phase is timed.

use std::net::Ipv4Addr;

use lvrm_net::{Frame, FrameBuilder};
use lvrm_router::{Route, RouteTable};

use crate::spec::{Kind, Workload, BURST, NS_PER_FRAME};

/// SplitMix64: the seeded stream every input is drawn from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finaliser: a bijection on `u64` that scatters counters.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouterKind {
    Fast,
    Click,
}

/// Egress interface every in-profile route points at.
pub const IF_PROFILE: u16 = 1;
/// Egress interface of the flooded VR (`synflood2x` only).
pub const IF_VICTIM: u16 = 2;

/// One VR the rig will `add_vr`.
#[derive(Clone, Debug)]
pub struct VrPlan {
    pub name: String,
    /// Source subnets the monitor classifies into this VR.
    pub subnets: Vec<(Ipv4Addr, u8)>,
    pub router: RouterKind,
    /// Destination routes of the VR (all of them exit `egress_if`).
    pub routes: Vec<(Ipv4Addr, u8)>,
    pub egress_if: u16,
    pub vris: usize,
    /// Frames an inline VRI may take per burst; `usize::MAX` for all.
    pub service_per_burst: usize,
    /// Admission weight under overload shedding (`Lvrm::set_vr_weight`).
    pub weight: f64,
}

impl VrPlan {
    pub fn route_table(&self) -> RouteTable {
        let mut t = RouteTable::new();
        for (prefix, len) in &self.routes {
            t.insert(Route { prefix: *prefix, len: *len, iface: self.egress_if, next_hop: None });
        }
        t
    }

    /// The VR as a Click configuration: five elements, all routes to port 0.
    pub fn click_config(&self) -> String {
        let routes: Vec<String> = self.routes.iter().map(|(p, l)| format!("{p}/{l} 0")).collect();
        format!(
            "FromDevice(0) -> CheckIPHeader -> DecIPTTL -> rt :: LookupIPRoute({}); rt[0] -> ToDevice({});",
            routes.join(", "),
            self.egress_if
        )
    }
}

/// Everything one run offers, fixed by (workload, seed).
pub struct Plan {
    pub workload: &'static Workload,
    pub vrs: Vec<VrPlan>,
    /// One frame per flow. In-profile flows first, then the flood's tuples.
    pub pool: Vec<Frame>,
    /// VR index of each pool entry.
    pub pool_vr: Vec<u16>,
    /// Pool entries that belong to in-profile tenants (a power of two).
    pub in_profile_flows: usize,
    /// How many of them the measured phases draw from (a power of two);
    /// the warm-up visits them all, so the rest sit idle in the tables.
    pub hot_flows: usize,
    /// Flood tuples after them (a power of two, or zero).
    pub flood_flows: usize,
    /// Flood frames at the head of every burst (`synflood2x`: half of it).
    pub flood_per_burst: usize,
    seed: u64,
}

fn udp_frame(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, wire: usize) -> Frame {
    FrameBuilder::new(src, dst)
        .udp_with_wire_size(sport, dport, wire)
        .expect("the spec's wire sizes hold a UDP header")
}

fn host_in(rng: &mut Rng, prefix: Ipv4Addr, len: u8) -> Ipv4Addr {
    let host_bits = 32 - u32::from(len);
    let span = (1u64 << host_bits) - 2;
    Ipv4Addr::from(u32::from(prefix) | (1 + rng.below(span)) as u32)
}

/// `n` distinct /`len` prefixes under `base/base_len`, drawn from `rng`.
fn distinct_prefixes(
    rng: &mut Rng,
    base: Ipv4Addr,
    base_len: u8,
    len: u8,
    n: usize,
) -> Vec<(Ipv4Addr, u8)> {
    let slots = 1u64 << (len - base_len);
    assert!(n as u64 <= slots, "not enough /{len} prefixes under /{base_len}");
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = rng.below(slots);
        if seen.insert(k) {
            out.push((Ipv4Addr::from(u32::from(base) | (k as u32) << (32 - u32::from(len))), len));
        }
    }
    out
}

impl Plan {
    pub fn build(workload: &'static Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x4C56_524D);
        let wire = workload.wire_size;
        let dst_base = Ipv4Addr::new(172, 16, 0, 0);
        let default_route = vec![(Ipv4Addr::new(0, 0, 0, 0), 0)];
        let mut plan = Plan {
            workload,
            vrs: Vec::new(),
            pool: Vec::new(),
            pool_vr: Vec::new(),
            in_profile_flows: 0,
            hot_flows: 0,
            flood_flows: 0,
            flood_per_burst: 0,
            seed,
        };
        // In-profile flows per tenant, and the flood's (VR, tuples) if any.
        let per_tenant: usize;
        let mut flood: Option<(usize, usize)> = None;
        match workload.kind {
            Kind::Relay64 => {
                plan.vrs.push(VrPlan {
                    name: "relay".into(),
                    subnets: vec![(Ipv4Addr::new(10, 0, 0, 0), 8)],
                    router: RouterKind::Fast,
                    routes: default_route,
                    egress_if: IF_PROFILE,
                    vris: 1,
                    service_per_burst: usize::MAX,
                    weight: 1.0,
                });
                per_tenant = 64;
            }
            Kind::Flows1m => {
                let subnets = distinct_prefixes(&mut rng, Ipv4Addr::new(10, 0, 0, 0), 8, 24, 256);
                for (v, chunk) in subnets.chunks(16).enumerate() {
                    let mut routes = distinct_prefixes(&mut rng, dst_base, 12, 22, 63);
                    routes.push((Ipv4Addr::new(0, 0, 0, 0), 0));
                    plan.vrs.push(VrPlan {
                        name: format!("tenant{v:02}"),
                        subnets: chunk.to_vec(),
                        router: RouterKind::Fast,
                        routes,
                        egress_if: IF_PROFILE,
                        vris: 2,
                        service_per_burst: usize::MAX,
                        weight: 1.0,
                    });
                }
                per_tenant = 1 << 16;
            }
            Kind::Synflood2x => {
                plan.vrs.push(VrPlan {
                    name: "bystander".into(),
                    subnets: vec![(Ipv4Addr::new(10, 2, 0, 0), 16)],
                    router: RouterKind::Fast,
                    routes: default_route.clone(),
                    egress_if: IF_PROFILE,
                    vris: 1,
                    service_per_burst: usize::MAX,
                    weight: 2.0,
                });
                plan.vrs.push(VrPlan {
                    name: "victim".into(),
                    subnets: vec![(Ipv4Addr::new(10, 1, 0, 0), 16)],
                    router: RouterKind::Fast,
                    routes: default_route,
                    egress_if: IF_VICTIM,
                    vris: 1,
                    // The flood offers BURST/2 frames a burst: twice this.
                    service_per_burst: BURST / 4,
                    // A third of the admission budget: under overload the
                    // victim is admitted 10.67 frames a burst of its 16, so
                    // the rest is shed early and, at 8 serviced, its queue
                    // still fills and refuses.
                    weight: 1.0,
                });
                per_tenant = 1 << 12;
                flood = Some((1, 1 << 18));
                plan.flood_flows = 1 << 18;
                plan.flood_per_burst = BURST / 2;
            }
            Kind::CtrlClick1518 => {
                for v in 0..4u8 {
                    plan.vrs.push(VrPlan {
                        name: format!("click{v}"),
                        subnets: vec![(Ipv4Addr::new(10, 1 + v, 0, 0), 16)],
                        router: RouterKind::Click,
                        routes: distinct_prefixes(&mut rng, dst_base, 12, 24, 256),
                        egress_if: IF_PROFILE,
                        vris: 1,
                        service_per_burst: usize::MAX,
                        weight: 1.0,
                    });
                }
                per_tenant = 1 << 11;
                // Traffic runs over 512 of the 8192 flows: their full-size
                // frames fit the L2, while every flow sits in the tables the
                // control round checkpoints.
                plan.hot_flows = 1 << 9;
            }
        }
        // Tenants take turns in the pool, so any leading power of two of it
        // is spread evenly over them; the flood's tuples follow.
        let tenants = plan.vrs.len() - usize::from(flood.is_some());
        plan.in_profile_flows = tenants * per_tenant;
        assert!(plan.in_profile_flows.is_power_of_two());
        if plan.hot_flows == 0 {
            plan.hot_flows = plan.in_profile_flows;
        }
        let total = plan.in_profile_flows + plan.flood_flows;
        plan.pool.reserve_exact(total);
        plan.pool_vr.reserve_exact(total);
        // Flow keys must be distinct or two pool entries would share a flow.
        let mut keys = std::collections::HashSet::with_capacity(total);
        while plan.pool.len() < total {
            let i = plan.pool.len();
            let v = if i < plan.in_profile_flows { i % tenants } else { flood.expect("flood").0 };
            let vr = &plan.vrs[v];
            let (sp, sl) = vr.subnets[rng.below(vr.subnets.len() as u64) as usize];
            let src = host_in(&mut rng, sp, sl);
            let routed = vr.routes.len() - usize::from(vr.routes.last().is_some_and(|r| r.1 == 0));
            let dst = if routed == 0 {
                host_in(&mut rng, dst_base, 12)
            } else {
                let (dp, dl) = vr.routes[rng.below(routed as u64) as usize];
                host_in(&mut rng, dp, dl)
            };
            let sport = 1024 + rng.below(64_000) as u16;
            let dport = 1 + rng.below(1023) as u16;
            if keys.insert((src, dst, sport, dport)) {
                // Flows that only sit in the tables need no full-size frame.
                let size = if i < plan.hot_flows || i >= plan.in_profile_flows {
                    wire
                } else {
                    lvrm_net::MIN_FRAME_WIRE
                };
                plan.pool.push(udp_frame(src, dst, sport, dport, size));
                plan.pool_vr.push(v as u16);
            }
        }
        plan
    }

    /// Whether frame `seq` of the run is flood traffic.
    #[inline]
    pub fn is_flood(&self, seq: u64) -> bool {
        (seq as usize % BURST) < self.flood_per_burst
    }

    /// Pool entry of frame `seq`. In-profile frames pick a flow uniformly
    /// (a hash of the sequence number, so no stride for a prefetcher to
    /// learn); flood frames walk their tuples in order, so a tuple returns
    /// only after every other one — long after the table has aged it out.
    #[inline]
    pub fn flow_of(&self, seq: u64) -> usize {
        if self.is_flood(seq) {
            let nth = (seq as usize / BURST) * self.flood_per_burst + seq as usize % BURST;
            self.in_profile_flows + (nth & (self.flood_flows - 1))
        } else {
            (mix(seq ^ self.seed) as usize) & (self.hot_flows - 1)
        }
    }

    /// Pool entry of warm-up frame `k`: every in-profile flow in turn, so a
    /// warm-up of at least `in_profile_flows` frames has populated every
    /// flow table; the flood runs as it will in the phases.
    #[inline]
    pub fn warmup_flow_of(&self, k: u64) -> usize {
        if self.is_flood(k) {
            self.flow_of(k)
        } else {
            k as usize & (self.in_profile_flows - 1)
        }
    }

    /// Frame `seq`, stamped. `warmup` selects the warm-up's flow order.
    #[inline]
    pub fn frame(&self, seq: u64, warmup: bool) -> Frame {
        let idx = if warmup { self.warmup_flow_of(seq) } else { self.flow_of(seq) };
        let mut f = self.pool[idx].clone();
        f.ts_ns = (seq + 1) * NS_PER_FRAME;
        f
    }

    /// FNV-1a over the first `n` frames' bytes and stamps: the identity of
    /// the offered stream, for the determinism test.
    #[cfg(test)]
    pub fn stream_hash(&self, n: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for seq in 0..n {
            let f = self.frame(seq, false);
            f.bytes().iter().copied().for_each(&mut eat);
            f.ts_ns.to_le_bytes().into_iter().for_each(&mut eat);
        }
        h
    }
}

/// Sequence number of a frame the generator stamped.
#[inline]
pub fn seq_of(frame: &Frame) -> u64 {
    frame.ts_ns / NS_PER_FRAME - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in ["relay64", "synflood2x"] {
            let w = workload(name).unwrap();
            let a = Plan::build(w, 11).stream_hash(4096);
            assert_eq!(a, Plan::build(w, 11).stream_hash(4096), "{name}");
            assert_ne!(a, Plan::build(w, 12).stream_hash(4096), "{name}");
        }
    }

    #[test]
    fn stamps_round_trip_and_flood_heads_each_burst() {
        let p = Plan::build(workload("synflood2x").unwrap(), 3);
        for seq in [0u64, 1, 15, 16, 31, 32, 1 << 33] {
            assert_eq!(seq_of(&p.frame(seq, false)), seq);
        }
        assert!(p.is_flood(0) && p.is_flood(15) && !p.is_flood(16) && p.is_flood(32));
        // The flood walks its tuples in order and stays inside them.
        assert_eq!(p.flow_of(0), p.in_profile_flows);
        assert_eq!(p.flow_of(32), p.in_profile_flows + 16);
        assert!(p.flow_of(17) < p.in_profile_flows);
        assert_eq!(p.pool_vr[p.flow_of(0)], 1);
        assert_eq!(p.pool_vr[p.flow_of(17)], 0);
    }

    #[test]
    fn every_pool_frame_classifies_and_routes_in_its_vr() {
        for w in WORKLOADS.iter().filter(|w| w.name != "flows1m") {
            let p = Plan::build(w, 5);
            let mut classifier = RouteTable::new();
            for (i, vr) in p.vrs.iter().enumerate() {
                for (prefix, len) in &vr.subnets {
                    classifier.insert(Route {
                        prefix: *prefix,
                        len: *len,
                        iface: i as u16,
                        next_hop: None,
                    });
                }
            }
            let tables: Vec<RouteTable> = p.vrs.iter().map(VrPlan::route_table).collect();
            for (i, (f, vr)) in p.pool.iter().zip(&p.pool_vr).enumerate() {
                assert_eq!(classifier.lookup(f.src_ip().unwrap()).unwrap().iface, *vr);
                let r = tables[*vr as usize].lookup(f.dst_ip().unwrap()).unwrap();
                assert_eq!(r.iface, p.vrs[*vr as usize].egress_if);
                // Only frames the phases offer need the workload's size.
                if i < p.hot_flows || i >= p.in_profile_flows {
                    assert_eq!(f.wire_len(), w.wire_size);
                }
            }
        }
    }

    #[test]
    fn click_config_of_a_tenant_compiles() {
        let p = Plan::build(workload("ctrl_click1518").unwrap(), 9);
        assert_eq!(p.vrs[0].routes.len(), 256);
        lvrm_click::ClickVr::from_config("t", &p.vrs[0].click_config()).unwrap();
    }
}
