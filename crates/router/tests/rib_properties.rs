//! Differential property test: the multibit-trie [`RouteTable`] against a
//! linear longest-match scan over the same routes, under random
//! insert/replace/remove interleavings.

use std::net::Ipv4Addr;

use lvrm_router::{Route, RouteTable};
use proptest::prelude::*;

/// The obviously-correct reference: a list scanned for the longest match.
#[derive(Default)]
struct LinearTable {
    routes: Vec<Route>,
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

fn covers(r: &Route, addr: u32) -> bool {
    addr & mask(r.len) == u32::from(r.prefix)
}

impl LinearTable {
    fn position(&self, prefix: u32, len: u8) -> Option<usize> {
        let canon = Ipv4Addr::from(prefix & mask(len));
        self.routes.iter().position(|r| r.len == len && r.prefix == canon)
    }

    fn insert(&mut self, mut route: Route) -> Option<Route> {
        route.prefix = Ipv4Addr::from(u32::from(route.prefix) & mask(route.len));
        match self.position(u32::from(route.prefix), route.len) {
            Some(i) => Some(std::mem::replace(&mut self.routes[i], route)),
            None => {
                self.routes.push(route);
                None
            }
        }
    }

    fn remove(&mut self, prefix: u32, len: u8) -> Option<Route> {
        self.position(prefix, len).map(|i| self.routes.swap_remove(i))
    }

    fn lookup(&self, addr: u32) -> Option<&Route> {
        self.routes.iter().filter(|r| covers(r, addr)).max_by_key(|r| r.len)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert { addr: u32, len: u8, iface: u16 },
    Remove { addr: u32, len: u8 },
}

/// Addresses cluster around a few bases and differ from them only below a
/// random bit, so prefixes nest, collide and share nodes at every level.
fn arb_addr() -> impl Strategy<Value = u32> {
    (0usize..4, any::<u32>(), 0u32..32).prop_map(|(base, noise, keep)| {
        const BASES: [u32; 4] = [0x0a00_0000, 0x0a01_0200, 0xc0a8_0000, 0xffff_ff00];
        BASES[base] ^ (noise >> keep)
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_addr(), 0u8..=32, any::<u16>())
            .prop_map(|(addr, len, iface)| Op::Insert { addr, len, iface }),
        2 => (arb_addr(), 0u8..=32).prop_map(|(addr, len)| Op::Remove { addr, len }),
    ]
}

/// Addresses whose answer an operation on `addr/len` can change: inside the
/// block, at both its ends, and just outside each.
fn probes(addr: u32, len: u8) -> [u32; 5] {
    let first = addr & mask(len);
    let last = first | !mask(len);
    [addr, first, last, first.wrapping_sub(1), last.wrapping_add(1)]
}

#[cfg(not(miri))]
const CASES: u32 = 256;
#[cfg(miri)]
const CASES: u32 = 4;
#[cfg(not(miri))]
const MAX_OPS: usize = 120;
#[cfg(miri)]
const MAX_OPS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn multibit_trie_matches_linear_scan(
        ops in prop::collection::vec(arb_op(), 1..MAX_OPS),
        extra in prop::collection::vec(arb_addr(), 8..9),
    ) {
        let mut trie = RouteTable::new();
        let mut model = LinearTable::default();
        for op in &ops {
            let (addr, len) = match *op {
                Op::Insert { addr, len, iface } => {
                    // Host bits are left set: insert canonicalizes them.
                    let route =
                        Route { prefix: Ipv4Addr::from(addr), len, iface, next_hop: None };
                    prop_assert_eq!(trie.insert(route), model.insert(route), "{:?}", op);
                    (addr, len)
                }
                Op::Remove { addr, len } => {
                    // A remove that hits must hand back the shorter match.
                    let prefix = Ipv4Addr::from(addr);
                    prop_assert_eq!(trie.remove(prefix, len), model.remove(addr, len), "{:?}", op);
                    (addr, len)
                }
            };
            prop_assert_eq!(trie.len(), model.routes.len());
            for probe in probes(addr, len).into_iter().chain(extra.iter().copied()) {
                prop_assert_eq!(
                    trie.lookup(Ipv4Addr::from(probe)),
                    model.lookup(probe),
                    "lookup {} after {:?}", Ipv4Addr::from(probe), op
                );
            }
        }
        let key = |r: &Route| (u32::from(r.prefix), r.len);
        let mut got: Vec<Route> = trie.iter().copied().collect();
        got.sort_by_key(key);
        model.routes.sort_by_key(key);
        prop_assert_eq!(got, model.routes);
    }
}
