//! `ElementGraph::run` — one frame carried in place along the compiled
//! successor table — against the interpreter it replaced, kept here as the
//! model: frames moved by value through a work stack, each element pushing
//! what it emits into a list. Random acyclic configurations over every
//! element class, fed frames a router should forward and frames it should
//! refuse, must come out the same: fate, per-element counts, traversals, and
//! the bytes and `egress_if` every terminal saw. And the in-place walk is
//! held to what it is for: no allocator call beyond the first block of a size
//! a thread copies into — a shared buffer costs a copy, into a block the
//! thread kept. And every element class keeps the contract `ClickVr`'s kept
//! copy rests on: no byte past `HEADER_SPAN` changes what a graph does. CI
//! runs this file under Miri as well — the elements write through
//! `Frame::modify_bytes` on buffers that may be unique or shared with a `Tee`
//! sibling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use lvrm::click::{parse_config, ClickVr, ElementGraph, PacketFate, HEADER_SPAN};
use lvrm::net::headers::{internet_checksum, IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP};
use lvrm::prelude::*;
use lvrm::router::{Route, RouterAction};
use proptest::prelude::*;

// ---- a per-thread allocation count (as `crates/net/tests/frame_buf.rs`) --

struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter touches
// no allocator state and never allocates (the thread-local is
// const-initialised and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

// ---- configurations ------------------------------------------------------

#[derive(Clone, Debug)]
enum Class {
    FromDevice(u16),
    ToDevice(u16),
    Discard,
    Counter,
    CheckIpHeader,
    DecIpTtl,
    /// `Some(proto)` is `ip proto <n>`, `None` is `-`.
    Classifier(Vec<Option<u8>>),
    /// `(prefix, len, port)`
    LookupIpRoute(Vec<(Ipv4Addr, u8, u16)>),
    Queue,
    Tee(usize),
    CheckLength(usize),
    SetIpTtl(u8),
}

impl Class {
    fn n_outputs(&self) -> usize {
        match self {
            Class::ToDevice(_) | Class::Discard => 0,
            Class::CheckIpHeader | Class::DecIpTtl | Class::CheckLength(_) => 2,
            Class::Classifier(patterns) => patterns.len(),
            Class::LookupIpRoute(routes) => routes.iter().map(|r| r.2 as usize + 1).max().unwrap(),
            Class::Tee(n) => *n,
            _ => 1,
        }
    }

    fn declaration(&self) -> String {
        match self {
            Class::FromDevice(i) => format!("FromDevice({i})"),
            Class::ToDevice(i) => format!("ToDevice({i})"),
            Class::Discard => "Discard".into(),
            Class::Counter => "Counter".into(),
            Class::CheckIpHeader => "CheckIPHeader".into(),
            Class::DecIpTtl => "DecIPTTL".into(),
            Class::Classifier(patterns) => {
                let args: Vec<String> = patterns
                    .iter()
                    .map(|p| p.map_or("-".into(), |n| format!("ip proto {n}")))
                    .collect();
                format!("Classifier({})", args.join(", "))
            }
            Class::LookupIpRoute(routes) => {
                let args: Vec<String> =
                    routes.iter().map(|(p, l, port)| format!("{p}/{l} {port}")).collect();
                format!("LookupIPRoute({})", args.join(", "))
            }
            Class::Queue => "Queue".into(),
            Class::Tee(n) => format!("Tee({n})"),
            Class::CheckLength(max) => format!("CheckLength({max})"),
            Class::SetIpTtl(ttl) => format!("SetIPTTL({ttl})"),
        }
    }
}

/// An element and where each of its output ports leads.
#[derive(Clone, Debug)]
struct Node {
    class: Class,
    out: Vec<Option<usize>>,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 11) as usize % n
    }
}

fn arb_class(rng: &mut Rng) -> Class {
    match rng.below(14) {
        0 | 1 => Class::ToDevice(1 + rng.below(3) as u16),
        2 => Class::Discard,
        3 => Class::Counter,
        4 | 5 => Class::CheckIpHeader,
        6 | 7 => Class::DecIpTtl,
        8 => {
            let protos = [Some(IPPROTO_TCP), Some(IPPROTO_UDP), Some(IPPROTO_ICMP), None];
            Class::Classifier((0..1 + rng.below(3)).map(|_| protos[rng.below(4)]).collect())
        }
        9 => {
            let routes = (0..1 + rng.below(4)).map(|_| {
                let (prefix, len) = [
                    (Ipv4Addr::new(10, 0, 2, 0), 24),
                    (Ipv4Addr::new(10, 0, 3, 0), 24),
                    (Ipv4Addr::new(10, 0, 0, 0), 16),
                    (Ipv4Addr::new(0, 0, 0, 0), 0),
                ][rng.below(4)];
                (prefix, len, rng.below(3) as u16)
            });
            Class::LookupIpRoute(routes.collect())
        }
        10 => Class::Queue,
        11 => Class::Tee(1 + rng.below(3)),
        12 => Class::CheckLength([40, 100, 2000][rng.below(3)]),
        _ => Class::SetIpTtl([0, 1, 9, 255][rng.below(4)]),
    }
}

/// A configuration with no cycle by construction: links only lead to later
/// elements. Every shape falls out of it — chains, both ports of a checking
/// element connected or one left open, `Tee`s of width 1 to 3, fan-in, dead
/// ends, elements nothing leads to.
fn arb_config(rng: &mut Rng) -> Vec<Node> {
    let n = 2 + rng.below(if cfg!(miri) { 6 } else { 11 });
    let mut nodes: Vec<Node> = (0..n)
        .map(|i| {
            let class = match i {
                0 => Class::FromDevice(0),
                _ if i == n - 1 => Class::ToDevice(1 + rng.below(3) as u16),
                _ => arb_class(rng),
            };
            Node { out: vec![None; class.n_outputs()], class }
        })
        .collect();
    for (i, node) in nodes.iter_mut().enumerate() {
        for (port, out) in node.out.iter_mut().enumerate() {
            // Port 0 is nearly always connected, the others half the time,
            // and mostly to the element right after.
            let open = if port == 0 { rng.below(8) == 0 } else { rng.below(2) == 0 };
            if i + 1 < n && !open {
                *out = Some(if rng.below(2) == 0 { i + 1 } else { i + 1 + rng.below(n - i - 1) });
            }
        }
    }
    nodes
}

fn config_text(nodes: &[Node]) -> String {
    let mut text = String::new();
    for (i, node) in nodes.iter().enumerate() {
        text += &format!("n{i} :: {};\n", node.class.declaration());
    }
    for (i, node) in nodes.iter().enumerate() {
        for (port, out) in node.out.iter().enumerate() {
            if let Some(to) = out {
                text += &format!("n{i}[{port}] -> n{to};\n");
            }
        }
    }
    text
}

// ---- frames ---------------------------------------------------------------

/// `frame` with `options` (whole 32-bit words) between its IPv4 header and
/// its payload: IHL, total length and header checksum made good.
fn with_options(frame: &Frame, options: &[u8]) -> Frame {
    let (head, rest) = frame.bytes().split_at(14 + 20);
    let mut bytes = [head, options, rest].concat();
    let ip = &mut bytes[14..14 + 20 + options.len()];
    ip[0] = 0x45 + (options.len() / 4) as u8;
    let total = u16::from_be_bytes([ip[2], ip[3]]) + options.len() as u16;
    ip[2..4].copy_from_slice(&total.to_be_bytes());
    ip[10..12].fill(0);
    let checksum = internet_checksum(ip);
    ip[10..12].copy_from_slice(&checksum.to_be_bytes());
    Frame::new(&bytes)
}

/// Frames a router should forward and frames it should refuse, with
/// `option_words` words of IPv4 options of random bytes.
fn arb_frame(rng: &mut Rng, option_words: usize) -> Frame {
    let dst = [
        Ipv4Addr::new(10, 0, 2, 9),
        Ipv4Addr::new(10, 0, 3, 1),
        Ipv4Addr::new(10, 0, 7, 7),
        Ipv4Addr::new(8, 8, 8, 8),
    ][rng.below(4)];
    let ttl = [0, 1, 2, 64, 255][rng.below(5)];
    let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), dst).ttl(ttl);
    let payload = vec![0xA5u8; [0, 26, 80, 1400][rng.below(4)]];
    let mut frame = match rng.below(3) {
        0 => b.tcp(1, 2, 0, 0, 0x02, 100, &payload),
        _ => b.udp(1, 2, &payload),
    };
    if option_words > 0 {
        let options: Vec<u8> = (0..4 * option_words).map(|_| rng.next() as u8).collect();
        frame = with_options(&frame, &options);
    }
    match rng.below(8) {
        // Bad header checksum.
        0 => frame.modify_bytes(|b| b[14 + 10] ^= 0x5A),
        // Not IP at all.
        1 => frame.modify_bytes(|b| b[12..14].copy_from_slice(&[0x08, 0x06])),
        // Cut inside the IP header, or inside the Ethernet header.
        2 => frame = Frame::new(&frame.bytes()[..[6, 14, 24, 33][rng.below(4)]]),
        _ => {}
    }
    frame.ingress_if = [0, 0, 5][rng.below(3)];
    frame.ts_ns = rng.next();
    frame
}

// ---- the model: the work-list interpreter `ElementGraph::run` replaced ----

/// What a terminal saw: its name, the frame's bytes, the frame's `egress_if`.
type Seen = Vec<(String, Vec<u8>, u16)>;

struct Model {
    nodes: Vec<Node>,
    /// `Element::count()` of each element.
    counts: Vec<u64>,
    traversals: u64,
}

impl Model {
    fn new(nodes: &[Node]) -> Model {
        Model { nodes: nodes.to_vec(), counts: vec![0; nodes.len()], traversals: 0 }
    }

    /// The element's `push`: what it emits, on which port.
    fn push(&mut self, idx: usize, mut frame: Frame, emit: &mut Vec<(usize, Frame)>) {
        match &self.nodes[idx].class {
            Class::FromDevice(_) => emit.push((0, frame)),
            Class::ToDevice(_) | Class::Discard => self.counts[idx] += 1,
            Class::Counter | Class::Queue => {
                self.counts[idx] += 1;
                emit.push((0, frame));
            }
            Class::CheckIpHeader => {
                let ok = frame.ipv4().map(|ip| ip.checksum_ok()).unwrap_or(false);
                emit.push((if ok { 0 } else { 1 }, frame));
            }
            Class::DecIpTtl => {
                let ttl = match frame.ipv4() {
                    Ok(ip) => ip.ttl(),
                    Err(_) => return emit.push((1, frame)),
                };
                if ttl <= 1 {
                    return emit.push((1, frame));
                }
                frame.modify_bytes(|b| {
                    b[14 + 8] -= 1;
                    let old = u16::from_be_bytes([b[14 + 10], b[14 + 11]]);
                    let (mut new, carry) = old.overflowing_add(0x0100);
                    if carry {
                        new += 1;
                    }
                    b[14 + 10..14 + 12].copy_from_slice(&new.to_be_bytes());
                });
                emit.push((0, frame));
            }
            Class::Classifier(patterns) => {
                let proto = frame.ipv4().map(|ip| ip.protocol()).ok();
                if let Some(i) = patterns.iter().position(|p| p.is_none() || *p == proto) {
                    emit.push((i, frame));
                }
            }
            Class::LookupIpRoute(routes) => {
                let mut table = RouteTable::new();
                for &(prefix, len, iface) in routes {
                    table.insert(Route { prefix, len, iface, next_hop: None });
                }
                if let Some(r) = frame.dst_ip().ok().and_then(|dst| table.lookup(dst)) {
                    emit.push((r.iface as usize, frame));
                }
            }
            Class::Tee(n) => {
                for i in 0..n - 1 {
                    emit.push((i, frame.clone()));
                }
                emit.push((n - 1, frame));
            }
            Class::CheckLength(max) => {
                let port = if frame.len() <= *max { 0 } else { 1 };
                emit.push((port, frame));
            }
            Class::SetIpTtl(ttl) => {
                if frame.ipv4().is_ok() {
                    frame.modify_bytes(|b| {
                        b[14 + 8] = *ttl;
                        b[14 + 10] = 0;
                        b[14 + 11] = 0;
                        let csum = internet_checksum(&b[14..14 + 20]);
                        b[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
                    });
                }
                emit.push((0, frame));
            }
        }
    }

    fn run(&mut self, frame: Frame, seen: &mut Seen) -> PacketFate {
        let mut work = vec![(0usize, frame)];
        let mut fate = PacketFate::Dropped;
        while let Some((idx, f)) = work.pop() {
            self.traversals += 1;
            if let Class::ToDevice(_) | Class::Discard = self.nodes[idx].class {
                seen.push((format!("n{idx}"), f.bytes().to_vec(), f.egress_if));
            }
            if let (Class::ToDevice(iface), PacketFate::Dropped) = (&self.nodes[idx].class, fate) {
                fate = PacketFate::Forwarded { iface: *iface };
            }
            let mut emitted = Vec::new();
            self.push(idx, f, &mut emitted);
            for (port, mut out) in emitted {
                if let Some(next) = self.nodes[idx].out.get(port).copied().flatten() {
                    // Stamp egress early so ToDevice sees it.
                    if let Class::ToDevice(iface) = self.nodes[next].class {
                        out.egress_if = iface;
                    }
                    work.push((next, out));
                }
            }
        }
        fate
    }
}

// ---- the property ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 768 }))]

    #[test]
    fn in_place_walk_matches_the_work_list_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let nodes = arb_config(&mut rng);
        let text = config_text(&nodes);
        let mut graph = ElementGraph::compile(&parse_config(&text).expect("parses"))
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
        let mut vr = ClickVr::from_config("tenant", &text).expect("compiled a moment ago");
        let mut model = Model::new(&nodes);

        for n in 0..1 + rng.below(6) {
            let offered = arb_frame(&mut rng, 0);
            let bytes = offered.bytes().to_vec();
            let mut expected = Seen::new();
            let fate = model.run(offered.clone(), &mut expected);

            // The graph, on a buffer it shares with `offered` or has to itself.
            let mut frame = if n % 2 == 0 { offered.clone() } else { Frame::new(&bytes) };
            (frame.ts_ns, frame.ingress_if) = (offered.ts_ns, offered.ingress_if);
            let mut seen = Seen::new();
            let got = graph.run_tapped(&mut frame, &mut |name, f| {
                seen.push((name.to_string(), f.bytes().to_vec(), f.egress_if));
            });
            prop_assert_eq!(got, fate, "fate of frame {} through\n{}", n, text);
            prop_assert_eq!(&seen, &expected, "what the terminals saw, frame {} through\n{}", n, text);
            prop_assert_eq!(offered.bytes(), &bytes[..], "a write showed through a shared buffer");
            if let PacketFate::Forwarded { iface } = fate {
                // The frame handed back is the one the winning ToDevice saw.
                let first = seen.iter().find(|(_, _, egress)| *egress == iface);
                let (_, won, _) = first.expect("a ToDevice saw it");
                prop_assert_eq!((frame.bytes(), frame.egress_if), (&won[..], iface), "{}", text);
            }

            // The VR: same decision, and the frame it was handed is relayed
            // as it came — only `egress_if` says where.
            let mut relayed = offered.clone();
            let action = vr.process(&mut relayed);
            let (want, egress) = match fate {
                PacketFate::Forwarded { iface } => (RouterAction::Forward { iface }, iface),
                PacketFate::Dropped => (RouterAction::Drop, offered.egress_if),
            };
            prop_assert_eq!(action, want, "{}", text);
            prop_assert_eq!(relayed.bytes(), &bytes[..], "ClickVr relays the frame unchanged");
            prop_assert_eq!(
                (relayed.egress_if, relayed.ingress_if, relayed.ts_ns),
                (egress, offered.ingress_if, offered.ts_ns)
            );
        }

        for g in [&graph, vr.graph()] {
            prop_assert_eq!(g.traversals(), model.traversals, "traversals through\n{}", text);
            for (i, count) in model.counts.iter().enumerate() {
                prop_assert_eq!(g.element_count(&format!("n{i}")), Some(*count), "n{} of\n{}", i, text);
            }
        }
    }
}

// ---- the header span -------------------------------------------------------

/// What a terminal saw of a frame inside the header span.
fn seen_in_span(seen: &mut Seen) -> impl FnMut(&str, &Frame) + '_ {
    move |name: &str, f: &Frame| {
        seen.push((name.to_string(), f.bytes()[..f.len().min(HEADER_SPAN)].to_vec(), f.egress_if))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 512 }))]

    /// The contract `ClickVr`'s kept copy rests on: an element reads and
    /// writes only the first `HEADER_SPAN` bytes and the length. A frame and
    /// the same frame with every byte past the span changed, through two
    /// compiles of the same random configuration, must meet the same fate,
    /// leave the same counts and traversals, and show every terminal the same
    /// span and `egress_if`. Half the frames carry IPv4 options (IHL 6 to 15),
    /// which push the transport header partly or wholly past the span.
    #[test]
    fn bytes_past_the_header_span_decide_nothing(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let nodes = arb_config(&mut rng);
        let text = config_text(&nodes);
        let ast = parse_config(&text).expect("parses");
        let mut graphs = [(); 2].map(|_| {
            ElementGraph::compile(&ast).unwrap_or_else(|e| panic!("{e}\n{text}"))
        });

        for n in 0..1 + rng.below(6) {
            let words = [0, 1 + rng.below(10)][rng.below(2)];
            let mut frame = arb_frame(&mut rng, words);
            let mut bytes = frame.bytes().to_vec();
            for b in bytes.iter_mut().skip(HEADER_SPAN) {
                *b ^= 1 + rng.below(255) as u8;
            }
            let mut scrambled = Frame::new(&bytes);
            (scrambled.ts_ns, scrambled.ingress_if) = (frame.ts_ns, frame.ingress_if);

            let (mut seen, mut seen_scrambled) = (Seen::new(), Seen::new());
            let [a, b] = &mut graphs;
            let fate = a.run_tapped(&mut frame, &mut seen_in_span(&mut seen));
            let got = b.run_tapped(&mut scrambled, &mut seen_in_span(&mut seen_scrambled));
            prop_assert_eq!(got, fate, "fate of frame {} through\n{}", n, text);
            prop_assert_eq!(seen_scrambled, seen, "what the terminals saw, frame {} through\n{}", n, text);
        }

        let [a, b] = &graphs;
        prop_assert_eq!(b.traversals(), a.traversals(), "traversals through\n{}", text);
        for i in 0..nodes.len() {
            let name = format!("n{i}");
            prop_assert_eq!(b.element_count(&name), a.element_count(&name), "{} of\n{}", name, text);
        }
    }
}

// ---- what the in-place walk costs ------------------------------------------

/// The benchmark's `ctrl_click1518` tenant: five elements, 256 routes.
fn tenant_config() -> String {
    let routes: Vec<String> =
        (0..256).map(|i| format!("10.{}.{}.0/24 0", i / 16, i % 16)).collect();
    format!(
        "FromDevice(0) -> CheckIPHeader -> DecIPTTL -> rt :: LookupIPRoute({}); rt[0] -> ToDevice(1);",
        routes.join(", ")
    )
}

fn full_size_frame() -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 3, 7, 9))
        .udp_with_wire_size(1, 2, 1518)
        .expect("1518 bytes hold the headers")
}

/// A block's size is its frame's, so the first private copy of a full-size
/// frame on a thread is the one allocator call that size ever costs it: the
/// block goes back to the thread's cache when the copy is dropped and every
/// later copy takes it from there. Run on a thread of its own, whose cache
/// starts empty whatever the harness ran on this one before.
#[test]
fn after_a_threads_first_copy_a_frame_costs_the_allocator_nothing() {
    std::thread::scope(|s| s.spawn(the_allocator_calls_of_a_tenant).join()).expect("no panic");
}

fn the_allocator_calls_of_a_tenant() {
    let text = tenant_config();
    let mut vr = ClickVr::from_config("tenant", &text).unwrap();
    let mut graph = ElementGraph::compile(&parse_config(&text).unwrap()).unwrap();
    let pool = full_size_frame();
    let ttl = pool.ipv4().unwrap().ttl();

    // The VR runs the graph on a copy of the offered frame that it keeps:
    // the first frame allocates the copy's block, and every later frame of
    // the same length has its header span copied into it where it lies.
    for round in 0..4 {
        let mut offered = pool.clone();
        let allocs = allocs_during(|| {
            assert_eq!(vr.process(&mut offered), RouterAction::Forward { iface: 1 });
        });
        assert_eq!(allocs, u64::from(round == 0), "ClickVr::process, frame {round} of the thread");
        assert_eq!(offered.bytes(), pool.bytes());
    }

    // A frame built here needs a block of its own — once: from then on the
    // block of the frame the round before built waits in the thread's cache.
    for round in 0..3 {
        let mut offered = pool.clone();
        let allocs = allocs_during(|| {
            offered = Frame::new(pool.bytes());
            assert_eq!(vr.process(&mut offered), RouterAction::Forward { iface: 1 });
        });
        assert_eq!(allocs, u64::from(round == 0), "a frame built and processed, round {round}");
        assert_eq!(offered.bytes(), pool.bytes());
    }

    // Handed to the graph directly, a shared buffer costs the same copy, into
    // a block the thread has...
    let mut shared = pool.clone();
    let allocs = allocs_during(|| {
        assert_eq!(graph.run(&mut shared), PacketFate::Forwarded { iface: 1 });
    });
    assert_eq!(allocs, 0, "ElementGraph::run on a shared buffer");
    assert_eq!((shared.ipv4().unwrap().ttl(), pool.ipv4().unwrap().ttl()), (ttl - 1, ttl));

    // ...and one held alone is rewritten where it lies, pool or no pool.
    // This is what ROADMAP 2a inherits when `ClickVr` stops copying.
    let mut unique = Frame::new(pool.bytes());
    let at = unique.bytes().as_ptr();
    let allocs = allocs_during(|| {
        assert_eq!(graph.run(&mut unique), PacketFate::Forwarded { iface: 1 });
    });
    assert_eq!(allocs, 0, "ElementGraph::run on a buffer of its own");
    assert_eq!((unique.bytes().as_ptr(), unique.ipv4().unwrap().ttl()), (at, ttl - 1));
    assert!(unique.ipv4().unwrap().checksum_ok());
}
