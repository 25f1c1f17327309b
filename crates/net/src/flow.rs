//! Flow identification for flow-based load balancing (paper §3.3).
//!
//! The paper's flow-based balancer keys its hash table on the classic TCP/IP
//! 5-tuple so that "data frames of the same flow are always forwarded to the
//! same core", avoiding intra-flow reordering.

use std::net::Ipv4Addr;

use crate::frame::Frame;
use crate::headers::{
    EthernetView, Ipv4View, TcpView, UdpView, IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP,
};

/// Transport protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    Tcp,
    Udp,
    Icmp,
    Other(u8),
}

impl Protocol {
    pub fn from_ip_proto(p: u8) -> Protocol {
        match p {
            IPPROTO_TCP => Protocol::Tcp,
            IPPROTO_UDP => Protocol::Udp,
            IPPROTO_ICMP => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }

    pub fn to_ip_proto(self) -> u8 {
        match self {
            Protocol::Tcp => IPPROTO_TCP,
            Protocol::Udp => IPPROTO_UDP,
            Protocol::Icmp => IPPROTO_ICMP,
            Protocol::Other(p) => p,
        }
    }
}

/// The 5-tuple identifying a flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: Protocol,
}

/// Bytes of Ethernet plus an option-less IPv4 header: the shortest frame
/// that can be classified at all.
const ETH_IPV4_MIN: usize = EthernetView::LEN + Ipv4View::MIN_LEN;

/// What burst ingress reads of a frame, from one bounds-checked pass over
/// its Ethernet and IPv4 headers: the addresses and protocol, and where the
/// transport header lies. The source address picks the owning VR (workflow
/// step 2, §2.1); [`IngressHeaders::flow_key`] then reads the ports for a
/// balancer that tracks flows, without validating anything twice. Gives the
/// same answers as composing [`Frame::ipv4`], [`Frame::tcp`] and
/// [`Frame::udp`], which re-check the outer headers on every call.
#[derive(Clone, Copy, Debug)]
pub struct IngressHeaders<'a> {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: Protocol,
    /// The bytes after the IPv4 header, inside the declared total length.
    l4: &'a [u8],
}

impl<'a> IngressHeaders<'a> {
    /// How far into a frame [`IngressHeaders::parse`] and
    /// [`IngressHeaders::flow_key`] read when the IPv4 header carries no
    /// options: Ethernet, IPv4 and a TCP header's fixed part. Burst ingress
    /// prefetches up to here.
    pub const SPAN: usize = ETH_IPV4_MIN + TcpView::MIN_LEN;

    /// Parse captured frame bytes; `None` for anything that is not a
    /// well-formed IPv4 frame.
    pub fn parse(bytes: &'a [u8]) -> Option<IngressHeaders<'a>> {
        let head: &[u8; ETH_IPV4_MIN] = bytes.first_chunk()?;
        if head[12..14] != [0x08, 0x00] || head[14] >> 4 != 4 {
            return None;
        }
        let ip = &bytes[EthernetView::LEN..];
        let ihl = usize::from(head[14] & 0x0f) * 4;
        if ihl < Ipv4View::MIN_LEN || ip.len() < ihl {
            return None;
        }
        // The declared total length, clamped to what was captured.
        let total = usize::from(u16::from_be_bytes([head[16], head[17]]));
        Some(IngressHeaders {
            src: Ipv4Addr::new(head[26], head[27], head[28], head[29]),
            dst: Ipv4Addr::new(head[30], head[31], head[32], head[33]),
            proto: Protocol::from_ip_proto(head[23]),
            l4: &ip[ihl..total.min(ip.len()).max(ihl)],
        })
    }

    /// IPv4 source address.
    pub fn src(&self) -> Ipv4Addr {
        self.src
    }

    /// The 5-tuple. Transports other than TCP and UDP get ports `0` so they
    /// still hash consistently; `None` when the TCP/UDP header is truncated
    /// (such a frame is still classified, then balanced without affinity).
    pub fn flow_key(&self) -> Option<FlowKey> {
        let l4 = self.l4;
        let ports = match self.proto {
            Protocol::Tcp => {
                let t: &[u8; TcpView::MIN_LEN] = l4.first_chunk()?;
                let doff = usize::from(t[12] >> 4) * 4;
                if doff < TcpView::MIN_LEN || l4.len() < doff {
                    return None;
                }
                [t[0], t[1], t[2], t[3]]
            }
            Protocol::Udp => {
                let u: &[u8; UdpView::LEN] = l4.first_chunk()?;
                [u[0], u[1], u[2], u[3]]
            }
            _ => [0; 4],
        };
        Some(FlowKey {
            src: self.src,
            dst: self.dst,
            src_port: u16::from_be_bytes([ports[0], ports[1]]),
            dst_port: u16::from_be_bytes([ports[2], ports[3]]),
            proto: self.proto,
        })
    }
}

impl FlowKey {
    /// Extract the 5-tuple from a frame. Transports other than TCP and UDP
    /// get ports `0` so they still hash consistently; non-IPv4 frames and
    /// frames whose TCP/UDP header is truncated return `None`.
    pub fn from_frame(frame: &Frame) -> Option<FlowKey> {
        IngressHeaders::parse(frame.bytes())?.flow_key()
    }

    /// The same flow with endpoints swapped (the reverse direction).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A fast, stable 64-bit hash of the 5-tuple: the addresses as one word
    /// and ports + protocol as another, each folded in by a multiply and an
    /// xor-shift that carries the product's well-mixed high half down to the
    /// low bits the flow table masks. The flow table uses this instead of
    /// `std::hash` so the layout is reproducible across runs and the hot
    /// path avoids hasher construction. Unkeyed: like any fixed hash it does
    /// not resist tuples crafted to collide; the table bounds that damage by
    /// its fixed capacity and timeout.
    pub fn hash64(&self) -> u64 {
        let addrs = u64::from(u32::from(self.src)) << 32 | u64::from(u32::from(self.dst));
        let l4 = u64::from(self.src_port) << 24
            | u64::from(self.dst_port) << 8
            | u64::from(self.proto.to_ip_proto());
        let mut h = addrs.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = (h ^ l4).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^ h >> 32
    }
}

/// A [`FlowKey`] with its [`FlowKey::hash64`] already computed, so a burst
/// can hash each frame once, prefetch the table line the hash selects, and
/// probe later without hashing again. The fields are private so the hash
/// always belongs to the key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HashedKey {
    key: FlowKey,
    hash: u64,
}

impl HashedKey {
    pub fn new(key: FlowKey) -> HashedKey {
        HashedKey { key, hash: key.hash64() }
    }

    pub fn key(&self) -> &FlowKey {
        &self.key
    }

    pub fn hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn key_from_udp_frame() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.udp(40000, 53, b"q");
        let k = FlowKey::from_frame(&f).unwrap();
        assert_eq!(k.src, ip(10, 0, 1, 5));
        assert_eq!(k.dst_port, 53);
        assert_eq!(k.proto, Protocol::Udp);
    }

    #[test]
    fn key_from_tcp_frame() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.tcp(40000, 21, 0, 0, crate::headers::tcp_flags::SYN, 8192, &[]);
        let k = FlowKey::from_frame(&f).unwrap();
        assert_eq!(k.proto, Protocol::Tcp);
        assert_eq!(k.dst_port, 21);
    }

    #[test]
    fn reversed_twice_is_identity() {
        let k = FlowKey {
            src: ip(1, 2, 3, 4),
            dst: ip(5, 6, 7, 8),
            src_port: 10,
            dst_port: 20,
            proto: Protocol::Tcp,
        };
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn hash_is_deterministic_and_direction_sensitive() {
        let k = FlowKey {
            src: ip(10, 0, 1, 5),
            dst: ip(10, 0, 2, 9),
            src_port: 40000,
            dst_port: 80,
            proto: Protocol::Tcp,
        };
        assert_eq!(k.hash64(), k.hash64());
        assert_ne!(k.hash64(), k.reversed().hash64());
    }

    #[test]
    fn same_flow_same_hash_across_frames() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f1 = b.udp(1111, 2222, b"a");
        let f2 = b.udp(1111, 2222, b"bbbb");
        assert_eq!(
            FlowKey::from_frame(&f1).unwrap().hash64(),
            FlowKey::from_frame(&f2).unwrap().hash64()
        );
    }

    #[test]
    fn ingress_headers_carry_source_and_flow() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.udp(1111, 2222, b"a");
        let h = IngressHeaders::parse(f.bytes()).unwrap();
        assert_eq!(h.src(), ip(10, 0, 1, 5));
        assert_eq!(h.flow_key(), FlowKey::from_frame(&f));
        let hashed = HashedKey::new(h.flow_key().unwrap());
        assert_eq!(hashed.hash(), hashed.key().hash64());
    }

    #[test]
    fn truncated_transport_still_yields_the_source() {
        // A UDP frame cut inside its UDP header: classifiable by source,
        // but it has no 5-tuple.
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let whole = b.udp(1111, 2222, b"payload");
        let cut = &whole.bytes()[..ETH_IPV4_MIN + 4];
        let h = IngressHeaders::parse(cut).unwrap();
        assert_eq!(h.src(), ip(10, 0, 1, 5));
        assert!(h.flow_key().is_none());
        assert!(IngressHeaders::parse(&whole.bytes()[..ETH_IPV4_MIN - 1]).is_none());
    }

    #[test]
    fn hash_spreads_sequential_tuples_over_low_bits() {
        // The flow table masks the low bits: tuples that differ only in a
        // port or the last address octet must not pile into a few slots.
        let base = FlowKey {
            src: ip(10, 0, 1, 0),
            dst: ip(10, 0, 2, 9),
            src_port: 0,
            dst_port: 80,
            proto: Protocol::Udp,
        };
        for vary in [(|k: &mut FlowKey, i: u16| k.src_port = i) as fn(&mut FlowKey, u16), |k, i| {
            k.src = Ipv4Addr::from(u32::from(k.src) + u32::from(i))
        }] {
            let mut hit = [0u32; 256];
            for i in 0..4096u16 {
                let mut k = base;
                vary(&mut k, i);
                hit[k.hash64() as usize & 255] += 1;
            }
            // 16 expected per slot; a weak mix leaves slots empty or heaped.
            assert!(hit.iter().all(|&n| (2..=40).contains(&n)), "low bits uneven: {hit:?}");
        }
    }
}
