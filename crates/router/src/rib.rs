//! Longest-prefix-match IPv4 route table.
//!
//! A stride-8 multibit trie: one node per address byte, 256 slots a node, so
//! a lookup is at most four dependent slot loads (plus one for the route it
//! returns) whatever the prefix length — the source-subnet classifier and
//! every VR's forwarding table walk it once per frame. A prefix whose length
//! is not a multiple of eight is expanded over the slots it covers inside
//! its node (controlled prefix expansion), and each slot is one packed
//! `u32` — empty, a route, or a child node — so a node is 1 KiB.
//!
//! Routers hold few, summarized routes (the paper: "routers use the memory
//! usually for the summarized routes", §3.2), so the table never compresses
//! paths or frees emptied nodes; the `route_lookup` bench compares it with a
//! linear scan.

use std::net::Ipv4Addr;

/// One routing entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    /// Network prefix (host bits zeroed on insert).
    pub prefix: Ipv4Addr,
    /// Prefix length, 0–32.
    pub len: u8,
    /// Egress interface index.
    pub iface: u16,
    /// Optional next-hop address (directly-connected routes use `None`).
    pub next_hop: Option<Ipv4Addr>,
}

/// An empty slot, or the end of a shadow chain.
const NONE: u32 = 0;
/// Slot tag: the low 31 bits index `nodes`. Untagged non-zero slots index
/// `routes`.
const CHILD: u32 = 1 << 31;

/// One trie level: the slots for one address byte.
struct Node {
    /// The chain head the parent's slot held when it became a pointer to
    /// this node: the best match for an address that falls through this
    /// node without meeting anything longer.
    inherited: u32,
    slots: [u32; 256],
}

/// A route plus the link that makes replacement and removal local to a
/// node. Every slot heads a chain of the routes *of its node* that cover
/// it, longest first; `shadowed` is the next link, and it is a property of
/// the route (nested prefixes: whatever the next-shorter cover is at one
/// slot, it is at all of them).
struct Stored {
    route: Route,
    shadowed: u32,
}

/// Longest-prefix-match route table.
pub struct RouteTable {
    /// `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// Slab of routes; index 0 is never used, so [`NONE`] can be 0.
    routes: Vec<Option<Stored>>,
    /// Vacated slab indices, reused by later inserts.
    free: Vec<u32>,
    len: usize,
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// Where `prefix/len` lives: the depth of its node (0 = root), its first
/// slot there and how many slots it is expanded over. The default route is
/// a root route covering all 256 slots.
fn placement(canon: u32, len: u8) -> (usize, usize, usize) {
    let depth = usize::from(len.max(1) - 1) / 8;
    let bits_in_node = usize::from(len) - 8 * depth;
    (depth, byte_at(canon, depth), 1 << (8 - bits_in_node))
}

fn byte_at(addr: u32, depth: usize) -> usize {
    (addr >> (24 - 8 * depth)) as usize & 0xff
}

impl Default for RouteTable {
    fn default() -> RouteTable {
        RouteTable::new()
    }
}

impl RouteTable {
    pub fn new() -> RouteTable {
        RouteTable {
            nodes: vec![Node { inherited: NONE, slots: [NONE; 256] }],
            routes: vec![None],
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn stored(&self, idx: u32) -> &Stored {
        self.routes[idx as usize].as_ref().expect("chains link live routes only")
    }

    fn stored_mut(&mut self, idx: u32) -> &mut Stored {
        self.routes[idx as usize].as_mut().expect("chains link live routes only")
    }

    /// The head of the chain of `node`'s routes covering `slot`. It sits in
    /// the slot itself until the slot points at a child, then in the child.
    fn head(&self, node: usize, slot: usize) -> u32 {
        match self.nodes[node].slots[slot] {
            s if s & CHILD != 0 => self.nodes[(s & !CHILD) as usize].inherited,
            s => s,
        }
    }

    fn set_head(&mut self, node: usize, slot: usize, head: u32) {
        match self.nodes[node].slots[slot] {
            s if s & CHILD != 0 => self.nodes[(s & !CHILD) as usize].inherited = head,
            _ => self.nodes[node].slots[slot] = head,
        }
    }

    /// The node `depth` levels down the path of `canon`, if it exists.
    fn descend(&self, canon: u32, depth: usize) -> Option<usize> {
        let mut node = 0;
        for d in 0..depth {
            let s = self.nodes[node].slots[byte_at(canon, d)];
            if s & CHILD == 0 {
                return None;
            }
            node = (s & !CHILD) as usize;
        }
        Some(node)
    }

    /// As [`Self::descend`], turning slots on the way into child pointers.
    fn descend_or_create(&mut self, canon: u32, depth: usize) -> usize {
        let mut node = 0;
        for d in 0..depth {
            let b = byte_at(canon, d);
            let s = self.nodes[node].slots[b];
            node = if s & CHILD != 0 {
                (s & !CHILD) as usize
            } else {
                let child = self.nodes.len();
                assert!(child < CHILD as usize, "route table node index overflows its tag bit");
                self.nodes.push(Node { inherited: s, slots: [NONE; 256] });
                self.nodes[node].slots[b] = CHILD | child as u32;
                child
            };
        }
        node
    }

    /// Walk the chain headed at `(node, slot)` past every route longer than
    /// `len`, stopping early on reaching `stop`. Returns the last route
    /// passed ([`NONE`] if the walk ended at the head) and where it ended.
    fn descend_chain(&self, node: usize, slot: usize, len: u8, stop: u32) -> (u32, u32) {
        let (mut longer, mut cur) = (NONE, self.head(node, slot));
        while cur != NONE && cur != stop && self.stored(cur).route.len > len {
            longer = cur;
            cur = self.stored(cur).shadowed;
        }
        (longer, cur)
    }

    /// The route of exactly `len` bits in the chain headed at
    /// `(node, slot)`, where `slot` is the route's first.
    fn find_exact(&self, node: usize, slot: usize, len: u8) -> Option<u32> {
        let (_, cur) = self.descend_chain(node, slot, len, NONE);
        (cur != NONE && self.stored(cur).route.len == len).then_some(cur)
    }

    /// Insert (or replace) a route. Host bits beyond the prefix length are
    /// zeroed. Returns the previous route for the same prefix, if any.
    pub fn insert(&mut self, mut route: Route) -> Option<Route> {
        assert!(route.len <= 32, "prefix length out of range");
        let canon = u32::from(route.prefix) & mask(route.len);
        route.prefix = Ipv4Addr::from(canon);
        let (depth, base, span) = placement(canon, route.len);
        let node = self.descend_or_create(canon, depth);
        if let Some(idx) = self.find_exact(node, base, route.len) {
            return Some(std::mem::replace(&mut self.stored_mut(idx).route, route));
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                assert!(self.routes.len() < CHILD as usize, "route index overflows its tag bit");
                self.routes.push(None);
                (self.routes.len() - 1) as u32
            }
        };
        self.routes[idx as usize] = Some(Stored { route, shadowed: NONE });
        // Splice the route into the chain of every slot it covers, below
        // the longer routes already there and above the shorter.
        for slot in base..base + span {
            let (longer, cur) = self.descend_chain(node, slot, route.len, idx);
            if cur == idx {
                continue; // reached through a longer route an earlier slot relinked
            }
            self.stored_mut(idx).shadowed = cur;
            if longer == NONE {
                self.set_head(node, slot, idx);
            } else {
                self.stored_mut(longer).shadowed = idx;
            }
        }
        self.len += 1;
        None
    }

    /// Remove the route exactly matching `prefix/len`.
    pub fn remove(&mut self, prefix: Ipv4Addr, len: u8) -> Option<Route> {
        if len > 32 {
            return None;
        }
        let canon = u32::from(prefix) & mask(len);
        let (depth, base, span) = placement(canon, len);
        let node = self.descend(canon, depth)?;
        let idx = self.find_exact(node, base, len)?;
        let below = self.stored(idx).shadowed;
        // Unlink it from every covered slot's chain; what it shadowed takes
        // its place.
        for slot in base..base + span {
            let (longer, cur) = self.descend_chain(node, slot, len, idx);
            if cur != idx {
                continue; // already unlinked through a longer route shared with an earlier slot
            }
            if longer == NONE {
                self.set_head(node, slot, below);
            } else {
                self.stored_mut(longer).shadowed = below;
            }
        }
        self.free.push(idx);
        self.len -= 1;
        self.routes[idx as usize].take().map(|s| s.route)
    }

    /// Longest-prefix-match lookup.
    #[inline]
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&Route> {
        let addr = u32::from(dst);
        let mut node = &self.nodes[0];
        let mut best = NONE;
        for depth in 0..4 {
            let slot = node.slots[byte_at(addr, depth)];
            if slot & CHILD == 0 {
                if slot != NONE {
                    best = slot;
                }
                break;
            }
            node = &self.nodes[(slot & !CHILD) as usize];
            if node.inherited != NONE {
                best = node.inherited;
            }
        }
        self.routes[best as usize].as_ref().map(|s| &s.route)
    }

    /// Iterate all installed routes (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().flatten().map(|s| &s.route)
    }
}

impl std::fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteTable").field("routes", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn route(prefix: Ipv4Addr, len: u8, iface: u16) -> Route {
        Route { prefix, len, iface, next_hop: None }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.insert(route(ip(10, 0, 0, 0), 8, 1));
        t.insert(route(ip(10, 0, 2, 0), 24, 2));
        assert_eq!(t.lookup(ip(10, 0, 2, 77)).unwrap().iface, 2);
        assert_eq!(t.lookup(ip(10, 9, 9, 9)).unwrap().iface, 1);
        assert!(t.lookup(ip(192, 168, 0, 1)).is_none());
    }

    #[test]
    fn default_route_catches_everything() {
        let mut t = RouteTable::new();
        t.insert(route(ip(0, 0, 0, 0), 0, 9));
        assert_eq!(t.lookup(ip(1, 2, 3, 4)).unwrap().iface, 9);
        assert_eq!(t.lookup(ip(255, 255, 255, 255)).unwrap().iface, 9);
    }

    #[test]
    fn host_route_is_most_specific() {
        let mut t = RouteTable::new();
        t.insert(route(ip(10, 0, 0, 0), 8, 1));
        t.insert(route(ip(10, 0, 0, 5), 32, 7));
        assert_eq!(t.lookup(ip(10, 0, 0, 5)).unwrap().iface, 7);
        assert_eq!(t.lookup(ip(10, 0, 0, 6)).unwrap().iface, 1);
    }

    #[test]
    fn insert_canonicalizes_host_bits() {
        let mut t = RouteTable::new();
        t.insert(route(ip(10, 0, 1, 99), 24, 3));
        let r = t.lookup(ip(10, 0, 1, 1)).unwrap();
        assert_eq!(r.prefix, ip(10, 0, 1, 0));
    }

    #[test]
    fn replace_returns_previous() {
        let mut t = RouteTable::new();
        assert!(t.insert(route(ip(10, 0, 1, 0), 24, 1)).is_none());
        let prev = t.insert(route(ip(10, 0, 1, 0), 24, 2)).unwrap();
        assert_eq!(prev.iface, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip(10, 0, 1, 1)).unwrap().iface, 2);
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut t = RouteTable::new();
        t.insert(route(ip(10, 0, 0, 0), 8, 1));
        t.insert(route(ip(10, 0, 2, 0), 24, 2));
        assert_eq!(t.remove(ip(10, 0, 2, 0), 24).unwrap().iface, 2);
        assert_eq!(t.lookup(ip(10, 0, 2, 77)).unwrap().iface, 1);
        assert!(t.remove(ip(10, 0, 2, 0), 24).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_visits_every_route() {
        let mut t = RouteTable::new();
        for i in 0..10u16 {
            t.insert(route(ip(10, i as u8, 0, 0), 16, i));
        }
        let mut ifaces: Vec<u16> = t.iter().map(|r| r.iface).collect();
        ifaces.sort_unstable();
        assert_eq!(ifaces, (0..10).collect::<Vec<_>>());
    }
}
