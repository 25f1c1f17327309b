//! The element library.
//!
//! Each element is a small packet processor with numbered output ports,
//! mirroring Click's design (Kohler et al. 2000, the paper's \[21\]).
//! Elements run in push mode on the frame where it lies: `process` reads or
//! rewrites the frame it is handed and says which output port it leaves on
//! ([`Action`]); the graph owns the wiring and moves nothing.

use std::net::Ipv4Addr;

use lvrm_net::headers::{internet_checksum, IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP};
use lvrm_net::Frame;

use crate::config::{ConfigError, Decl};

/// Marks elements that terminate a frame's journey through the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// `ToDevice(iface)`: the frame leaves the router on `iface`.
    ToDevice(u16),
    /// `Discard`: the frame is intentionally dropped.
    Discard,
}

/// What an element decided for the frame it was handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// The frame continues on this output port (dropped if it is unconnected).
    Emit(usize),
    /// A copy of the frame continues on every output port. Only `Tee` fans
    /// out: it is the one element that emits twice.
    FanOut,
    /// The frame ends here: a terminal took it, or the element dropped it
    /// (and counted why).
    Drop,
}

/// A packet-processing element.
pub trait Element: Send {
    /// Click class name (`Counter`, `ToDevice`, ...).
    fn class_name(&self) -> &'static str;

    /// Number of output ports.
    fn n_outputs(&self) -> usize {
        1
    }

    /// If this element terminates frames, what happens to them.
    fn terminal(&self) -> Option<Terminal> {
        None
    }

    /// Process `frame` in place. Writes go through [`Frame::modify_bytes`],
    /// so a buffer shared with another holder (a `Tee` sibling, a replayed
    /// trace) is copied first and one held alone is rewritten where it lies.
    ///
    /// An element reads and writes only `frame.bytes()[..HEADER_SPAN]`
    /// ([`crate::HEADER_SPAN`]) and may read `frame.len()`: `ClickVr` copies
    /// no more than that into the frame its graph runs on.
    fn process(&mut self, frame: &mut Frame) -> Action;

    /// Duplicate this element's *configuration* for a new VRI instance
    /// (statistics start fresh).
    fn clone_fresh(&self) -> Box<dyn Element>;

    /// Frames processed so far (elements with counters override).
    fn count(&self) -> u64 {
        0
    }
}

fn cfg_err<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError(msg.into()))
}

// ---------------------------------------------------------------------------
// FromDevice

/// Entry point: frames arriving on the given interface are injected here.
pub struct FromDevice {
    pub iface: u16,
}

impl Element for FromDevice {
    fn class_name(&self) -> &'static str {
        "FromDevice"
    }
    fn process(&mut self, _frame: &mut Frame) -> Action {
        Action::Emit(0)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(FromDevice { iface: self.iface })
    }
}

// ---------------------------------------------------------------------------
// ToDevice

/// Exit point: frames reaching this element leave via `iface`.
pub struct ToDevice {
    pub iface: u16,
    sent: u64,
}

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }
    fn n_outputs(&self) -> usize {
        0
    }
    fn terminal(&self) -> Option<Terminal> {
        Some(Terminal::ToDevice(self.iface))
    }
    fn process(&mut self, _frame: &mut Frame) -> Action {
        self.sent += 1;
        Action::Drop
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(ToDevice { iface: self.iface, sent: 0 })
    }
    fn count(&self) -> u64 {
        self.sent
    }
}

// ---------------------------------------------------------------------------
// Discard

/// Swallows every frame.
#[derive(Default)]
pub struct Discard {
    dropped: u64,
}

impl Element for Discard {
    fn class_name(&self) -> &'static str {
        "Discard"
    }
    fn n_outputs(&self) -> usize {
        0
    }
    fn terminal(&self) -> Option<Terminal> {
        Some(Terminal::Discard)
    }
    fn process(&mut self, _frame: &mut Frame) -> Action {
        self.dropped += 1;
        Action::Drop
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(Discard::default())
    }
    fn count(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// Counter

/// Pass-through frame/byte counter.
#[derive(Default)]
pub struct Counter {
    frames: u64,
    bytes: u64,
}

impl Element for Counter {
    fn class_name(&self) -> &'static str {
        "Counter"
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        Action::Emit(0)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(Counter::default())
    }
    fn count(&self) -> u64 {
        self.frames
    }
}

impl Counter {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------------------
// CheckIPHeader

/// Validates IPv4-ness and header checksum. Good frames exit port 0; bad
/// frames exit port 1 when connected, otherwise they are dropped (Click
/// semantics).
#[derive(Default)]
pub struct CheckIPHeader {
    pub bad: u64,
}

impl Element for CheckIPHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        if frame.ipv4().is_ok_and(|ip| ip.checksum_ok()) {
            Action::Emit(0)
        } else {
            self.bad += 1;
            Action::Emit(1)
        }
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(CheckIPHeader::default())
    }
}

// ---------------------------------------------------------------------------
// DecIPTTL

/// Decrements the IPv4 TTL (fixing the checksum incrementally per RFC 1141).
/// Expired frames (TTL would hit 0) exit port 1 when connected, else drop.
/// The write is copy-on-write ([`Frame::modify_bytes`]): three bytes in place
/// when the frame owns its buffer, as the copy `ClickVr` keeps does; one
/// allocation and a copy of the whole frame when it shares it, as a `Tee`
/// branch does.
#[derive(Default)]
pub struct DecIpTtl {
    pub expired: u64,
}

impl Element for DecIpTtl {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        if !frame.ipv4().is_ok_and(|ip| ip.ttl() > 1) {
            self.expired += 1;
            return Action::Emit(1);
        }
        frame.modify_bytes(|b| {
            // Ethernet header is 14 bytes; TTL at IP offset 8, checksum at 10.
            let ttl_at = 14 + 8;
            b[ttl_at] -= 1;
            // RFC 1141 incremental update: new = old + 0x0100 (TTL is the
            // high byte of its 16-bit word), with end-around carry.
            let old = u16::from_be_bytes([b[14 + 10], b[14 + 11]]);
            let (mut new, carry) = old.overflowing_add(0x0100);
            if carry {
                new += 1;
            }
            b[14 + 10..14 + 12].copy_from_slice(&new.to_be_bytes());
        });
        Action::Emit(0)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(DecIpTtl::default())
    }
}

// ---------------------------------------------------------------------------
// Classifier

/// One match rule of the simplified pattern language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pattern {
    Proto(u8),
    Any,
}

/// Sends each frame out the port of its first matching pattern; frames that
/// match nothing are dropped. Patterns: `ip proto tcp|udp|icmp`, `-` (any).
pub struct Classifier {
    patterns: Vec<Pattern>,
}

impl Classifier {
    pub fn from_args(args: &[String]) -> Result<Classifier, ConfigError> {
        if args.is_empty() {
            return cfg_err("Classifier needs at least one pattern");
        }
        let mut patterns = Vec::with_capacity(args.len());
        for a in args {
            let a = a.trim();
            if a == "-" {
                patterns.push(Pattern::Any);
                continue;
            }
            let Some(proto) = a.strip_prefix("ip proto ") else {
                return cfg_err(format!("unsupported Classifier pattern {a:?}"));
            };
            let p = match proto.trim() {
                "tcp" => IPPROTO_TCP,
                "udp" => IPPROTO_UDP,
                "icmp" => IPPROTO_ICMP,
                other => match other.parse::<u8>() {
                    Ok(n) => n,
                    Err(_) => return cfg_err(format!("unknown protocol {other:?}")),
                },
            };
            patterns.push(Pattern::Proto(p));
        }
        Ok(Classifier { patterns })
    }
}

impl Element for Classifier {
    fn class_name(&self) -> &'static str {
        "Classifier"
    }
    fn n_outputs(&self) -> usize {
        self.patterns.len()
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        let proto = frame.ipv4().map(|ip| ip.protocol()).ok();
        let hit = self.patterns.iter().position(|pat| match pat {
            Pattern::Any => true,
            Pattern::Proto(p) => proto == Some(*p),
        });
        // No match: frame is dropped silently (Click would warn once).
        hit.map_or(Action::Drop, Action::Emit)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(Classifier { patterns: self.patterns.clone() })
    }
}

// ---------------------------------------------------------------------------
// LookupIPRoute

/// Routes on destination address: each argument is `prefix/len port`; the
/// frame exits on the port of its longest matching prefix, or is dropped.
pub struct LookupIpRoute {
    routes: lvrm_router::RouteTable,
    n_ports: usize,
    pub misses: u64,
}

impl LookupIpRoute {
    pub fn from_args(args: &[String]) -> Result<LookupIpRoute, ConfigError> {
        if args.is_empty() {
            return cfg_err("LookupIPRoute needs at least one route");
        }
        let mut routes = lvrm_router::RouteTable::new();
        let mut n_ports = 0usize;
        for a in args {
            let mut it = a.split_whitespace();
            let (Some(cidr), Some(port_s), None) = (it.next(), it.next(), it.next()) else {
                return cfg_err(format!("LookupIPRoute route {a:?} must be 'prefix/len port'"));
            };
            let Some((prefix_s, len_s)) = cidr.split_once('/') else {
                return cfg_err(format!("LookupIPRoute destination {cidr:?} is not CIDR"));
            };
            let prefix: Ipv4Addr =
                prefix_s.parse().map_err(|_| ConfigError(format!("bad prefix {prefix_s:?}")))?;
            let len: u8 = len_s
                .parse()
                .ok()
                .filter(|l| *l <= 32)
                .ok_or_else(|| ConfigError(format!("bad prefix length {len_s:?}")))?;
            let port: u16 =
                port_s.parse().map_err(|_| ConfigError(format!("bad port {port_s:?}")))?;
            n_ports = n_ports.max(port as usize + 1);
            routes.insert(lvrm_router::Route { prefix, len, iface: port, next_hop: None });
        }
        Ok(LookupIpRoute { routes, n_ports, misses: 0 })
    }
}

impl Element for LookupIpRoute {
    fn class_name(&self) -> &'static str {
        "LookupIPRoute"
    }
    fn n_outputs(&self) -> usize {
        self.n_ports
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        match frame.dst_ip().ok().and_then(|dst| self.routes.lookup(dst)) {
            Some(r) => Action::Emit(r.iface as usize),
            None => {
                self.misses += 1;
                Action::Drop
            }
        }
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        // RouteTable is immutable after parse; rebuild by re-inserting.
        let mut routes = lvrm_router::RouteTable::new();
        for r in self.routes.iter() {
            routes.insert(*r);
        }
        Box::new(LookupIpRoute { routes, n_ports: self.n_ports, misses: 0 })
    }
}

// ---------------------------------------------------------------------------
// Queue

/// Push/pull boundary marker. Our graph runs pure push, so `Queue` is a
/// pass-through that tracks a simulated occupancy high-water mark (see the
/// crate docs for this documented simplification).
pub struct ClickQueue {
    pub capacity: usize,
    passed: u64,
}

impl ClickQueue {
    pub fn from_args(args: &[String]) -> Result<ClickQueue, ConfigError> {
        let capacity = match args {
            [] => 1000,
            [cap] => cap.parse().map_err(|_| ConfigError(format!("bad Queue capacity {cap:?}")))?,
            _ => return cfg_err("Queue takes at most one argument"),
        };
        Ok(ClickQueue { capacity, passed: 0 })
    }
}

impl Element for ClickQueue {
    fn class_name(&self) -> &'static str {
        "Queue"
    }
    fn process(&mut self, _frame: &mut Frame) -> Action {
        self.passed += 1;
        Action::Emit(0)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(ClickQueue { capacity: self.capacity, passed: 0 })
    }
    fn count(&self) -> u64 {
        self.passed
    }
}

// ---------------------------------------------------------------------------
// Tee

/// Duplicates every frame to all `n` outputs.
pub struct Tee {
    n: usize,
}

/// Widest `Tee` a configuration may ask for. The graph keeps a hop per
/// output and every clone of the VR repeats it, so an unchecked width is an
/// allocation the tenant sizes; real configurations use single digits.
pub const MAX_TEE_WIDTH: usize = 64;

impl Tee {
    pub fn from_args(args: &[String]) -> Result<Tee, ConfigError> {
        let n = match args {
            [] => 2,
            [n] => n.parse().map_err(|_| ConfigError(format!("bad Tee width {n:?}")))?,
            _ => return cfg_err("Tee takes at most one argument"),
        };
        if n == 0 {
            return cfg_err("Tee width must be positive");
        }
        if n > MAX_TEE_WIDTH {
            return cfg_err(format!("Tee width {n} exceeds the maximum of {MAX_TEE_WIDTH}"));
        }
        Ok(Tee { n })
    }
}

impl Element for Tee {
    fn class_name(&self) -> &'static str {
        "Tee"
    }
    fn n_outputs(&self) -> usize {
        self.n
    }
    fn process(&mut self, _frame: &mut Frame) -> Action {
        // One output is a wire: nothing to copy.
        if self.n == 1 {
            Action::Emit(0)
        } else {
            Action::FanOut
        }
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(Tee { n: self.n })
    }
}

// ---------------------------------------------------------------------------
// CheckLength

/// Passes frames of at most `max` captured bytes on port 0; longer frames
/// exit port 1 (or drop when unconnected), like Click's CheckLength.
pub struct CheckLength {
    max: usize,
    pub oversized: u64,
}

impl CheckLength {
    pub fn from_args(args: &[String]) -> Result<CheckLength, ConfigError> {
        match args {
            [m] => Ok(CheckLength {
                max: m.parse().map_err(|_| ConfigError(format!("bad CheckLength max {m:?}")))?,
                oversized: 0,
            }),
            _ => cfg_err("CheckLength takes exactly one maximum-length argument"),
        }
    }
}

impl Element for CheckLength {
    fn class_name(&self) -> &'static str {
        "CheckLength"
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        if frame.len() <= self.max {
            Action::Emit(0)
        } else {
            self.oversized += 1;
            Action::Emit(1)
        }
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(CheckLength { max: self.max, oversized: 0 })
    }
}

// ---------------------------------------------------------------------------
// SetIPTTL

/// Rewrites the IPv4 TTL to a fixed value (recomputing the checksum).
/// Non-IP frames pass through untouched.
pub struct SetIpTtl {
    ttl: u8,
}

impl SetIpTtl {
    pub fn from_args(args: &[String]) -> Result<SetIpTtl, ConfigError> {
        match args {
            [t] => Ok(SetIpTtl {
                ttl: t.parse().map_err(|_| ConfigError(format!("bad SetIPTTL value {t:?}")))?,
            }),
            _ => cfg_err("SetIPTTL takes exactly one TTL argument"),
        }
    }
}

impl Element for SetIpTtl {
    fn class_name(&self) -> &'static str {
        "SetIPTTL"
    }
    fn process(&mut self, frame: &mut Frame) -> Action {
        if frame.ipv4().is_ok() {
            let ttl = self.ttl;
            frame.modify_bytes(|b| {
                b[14 + 8] = ttl;
                b[14 + 10] = 0;
                b[14 + 11] = 0;
                let csum = internet_checksum(&b[14..14 + 20]);
                b[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
            });
        }
        Action::Emit(0)
    }
    fn clone_fresh(&self) -> Box<dyn Element> {
        Box::new(SetIpTtl { ttl: self.ttl })
    }
}

// ---------------------------------------------------------------------------
// Factory

fn one_u16(decl: &Decl) -> Result<u16, ConfigError> {
    match decl.args.as_slice() {
        [a] => a.parse().map_err(|_| ConfigError(format!("{}: bad interface {a:?}", decl.class))),
        _ => cfg_err(format!("{} takes exactly one interface argument", decl.class)),
    }
}

/// Instantiate an element from its declaration.
pub fn build_element(decl: &Decl) -> Result<Box<dyn Element>, ConfigError> {
    Ok(match decl.class.as_str() {
        "FromDevice" => Box::new(FromDevice { iface: one_u16(decl)? }),
        "ToDevice" => Box::new(ToDevice { iface: one_u16(decl)?, sent: 0 }),
        "Discard" => Box::new(Discard::default()),
        "Counter" => Box::new(Counter::default()),
        "CheckIPHeader" => Box::new(CheckIPHeader::default()),
        "DecIPTTL" => Box::new(DecIpTtl::default()),
        "Classifier" => Box::new(Classifier::from_args(&decl.args)?),
        "LookupIPRoute" => Box::new(LookupIpRoute::from_args(&decl.args)?),
        "Queue" => Box::new(ClickQueue::from_args(&decl.args)?),
        "Tee" => Box::new(Tee::from_args(&decl.args)?),
        "CheckLength" => Box::new(CheckLength::from_args(&decl.args)?),
        "SetIPTTL" => Box::new(SetIpTtl::from_args(&decl.args)?),
        other => return cfg_err(format!("unknown element class {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;

    fn udp_frame() -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .udp(1, 2, &[0u8; 26])
    }

    fn tcp_frame() -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9)).tcp(
            1,
            2,
            0,
            0,
            lvrm_net::headers::tcp_flags::SYN,
            100,
            &[],
        )
    }

    #[test]
    fn counter_counts_and_passes() {
        let mut c = Counter::default();
        assert_eq!(c.process(&mut udp_frame()), Action::Emit(0));
        assert_eq!(c.count(), 1);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn check_ip_header_splits_good_and_bad() {
        let mut c = CheckIPHeader::default();
        assert_eq!(c.process(&mut udp_frame()), Action::Emit(0));
        // Corrupt the checksum.
        let mut bad = udp_frame();
        bad.modify_bytes(|b| b[14 + 10] ^= 0xff);
        assert_eq!(c.process(&mut bad), Action::Emit(1));
        assert_eq!(c.bad, 1);
    }

    #[test]
    fn dec_ip_ttl_decrements_and_fixes_checksum() {
        let mut d = DecIpTtl::default();
        let mut f = udp_frame();
        let ttl_before = f.ipv4().unwrap().ttl();
        assert_eq!(d.process(&mut f), Action::Emit(0));
        let ip = f.ipv4().unwrap();
        assert_eq!(ip.ttl(), ttl_before - 1);
        assert!(ip.checksum_ok(), "incremental checksum update must stay valid");
    }

    #[test]
    fn dec_ip_ttl_writes_a_private_copy_of_a_shared_frame() {
        let mut d = DecIpTtl::default();
        let original = udp_frame();
        let mut shared = original.clone();
        assert_eq!(d.process(&mut shared), Action::Emit(0));
        assert_eq!(shared.ipv4().unwrap().ttl(), original.ipv4().unwrap().ttl() - 1);
        assert_eq!(original.bytes(), udp_frame().bytes(), "the other holder sees no write");
    }

    #[test]
    fn dec_ip_ttl_expires_ttl_one() {
        let mut d = DecIpTtl::default();
        let mut f = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .ttl(1)
            .udp(1, 2, &[]);
        assert_eq!(d.process(&mut f), Action::Emit(1));
        assert_eq!(d.expired, 1);
    }

    #[test]
    fn classifier_matches_first_pattern() {
        let args = vec!["ip proto tcp".into(), "ip proto udp".into()];
        let mut cl = Classifier::from_args(&args).unwrap();
        assert_eq!(cl.process(&mut tcp_frame()), Action::Emit(0));
        assert_eq!(cl.process(&mut udp_frame()), Action::Emit(1));
        assert_eq!(cl.process(&mut Frame::new(&[0u8; 60])), Action::Drop, "no pattern matches");
    }

    #[test]
    fn classifier_rejects_garbage_patterns() {
        assert!(Classifier::from_args(&["tcp port 80".into()]).is_err());
        assert!(Classifier::from_args(&[]).is_err());
    }

    #[test]
    fn lookup_ip_route_lpm_to_ports() {
        let args = vec!["10.0.2.0/24 1".into(), "10.0.0.0/8 0".into()];
        let mut rt = LookupIpRoute::from_args(&args).unwrap();
        assert_eq!(rt.n_outputs(), 2);
        assert_eq!(rt.process(&mut udp_frame()), Action::Emit(1));
        let mut elsewhere =
            FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(8, 8, 8, 8)).udp(1, 2, &[]);
        assert_eq!(rt.process(&mut elsewhere), Action::Drop);
        assert_eq!(rt.misses, 1);
    }

    #[test]
    fn tee_fans_out_to_all_ports() {
        let mut t = Tee::from_args(&["3".into()]).unwrap();
        assert_eq!(t.process(&mut udp_frame()), Action::FanOut);
        let mut wire = Tee::from_args(&["1".into()]).unwrap();
        assert_eq!(wire.process(&mut udp_frame()), Action::Emit(0));
    }

    #[test]
    fn tee_width_is_bounded() {
        let width = |n: usize| Tee::from_args(&[n.to_string()]).map(|t| t.n_outputs());
        assert_eq!(width(MAX_TEE_WIDTH), Ok(MAX_TEE_WIDTH));
        for n in [MAX_TEE_WIDTH + 1, 4_000_000_000, usize::MAX] {
            let err = width(n).unwrap_err();
            assert!(err.0.contains("Tee") && err.0.contains(&n.to_string()), "{err}");
        }
    }

    #[test]
    fn check_length_splits_by_size() {
        let mut cl = CheckLength::from_args(&["100".into()]).unwrap();
        assert_eq!(cl.process(&mut udp_frame()), Action::Emit(0));
        let mut big = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .udp(1, 2, &[0u8; 200]);
        assert_eq!(cl.process(&mut big), Action::Emit(1));
        assert_eq!(cl.oversized, 1);
    }

    #[test]
    fn set_ip_ttl_rewrites_and_fixes_checksum() {
        let mut el = SetIpTtl::from_args(&["9".into()]).unwrap();
        let mut f = udp_frame();
        assert_eq!(el.process(&mut f), Action::Emit(0));
        let ip = f.ipv4().unwrap();
        assert_eq!(ip.ttl(), 9);
        assert!(ip.checksum_ok());
    }

    #[test]
    fn set_ip_ttl_passes_non_ip_untouched() {
        let mut el = SetIpTtl::from_args(&["9".into()]).unwrap();
        let mut raw = vec![0u8; 60];
        raw[12] = 0x08;
        raw[13] = 0x06; // ARP
        let mut f = Frame::new(&raw);
        assert_eq!(el.process(&mut f), Action::Emit(0));
        assert_eq!(f.bytes(), &raw[..]);
    }

    #[test]
    fn factory_rejects_unknown_class() {
        let d = Decl { name: "x".into(), class: "Teleport".into(), args: vec![] };
        assert!(build_element(&d).is_err());
    }

    #[test]
    fn factory_enforces_arity() {
        let d = Decl { name: "x".into(), class: "ToDevice".into(), args: vec![] };
        assert!(build_element(&d).is_err());
    }
}
