//! Owned raw frames and a builder that assembles valid ones.

use std::fmt;
use std::net::Ipv4Addr;

use bytes::{BufMut, BytesMut};

use crate::buf::FrameBuf;
use crate::headers::{
    internet_checksum, EtherType, EthernetView, Ipv4View, MacAddr, TcpView, UdpView, IPPROTO_TCP,
    IPPROTO_UDP,
};
use crate::wire;

/// Errors raised while parsing or constructing frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer is too short to contain the requested header.
    Truncated(&'static str),
    /// The frame is not IPv4 where IPv4 was required.
    NotIpv4,
    /// A requested wire size cannot hold the headers + payload.
    SizeTooSmall { requested: usize, minimum: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated(what) => write!(f, "frame truncated at {what} header"),
            FrameError::NotIpv4 => write!(f, "frame is not IPv4"),
            FrameError::SizeTooSmall { requested, minimum } => {
                write!(f, "wire size {requested} below minimum {minimum} for this frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// An owned raw Ethernet frame plus the metadata LVRM attaches on ingress.
///
/// The byte buffer holds the *captured* representation (Ethernet header through
/// payload, no preamble/FCS/IFG, exactly what a raw socket or PF_RING delivers).
/// [`Frame::wire_len`] converts to the paper's wire-size accounting.
///
/// Cloning shares the buffer (a reference count, no allocation), which is
/// how a replayed trace offers the same frame again and again.
#[derive(Clone)]
pub struct Frame {
    buf: FrameBuf,
    /// Ingress timestamp in nanoseconds (simulation or monotonic clock).
    pub ts_ns: u64,
    /// Ingress interface index, set by the socket adapter.
    pub ingress_if: u16,
    /// Egress interface index, set by the VRI that forwarded the frame.
    /// `u16::MAX` means "not yet routed".
    pub egress_if: u16,
}

// The monitor moves frames by value through its staging buckets and queues:
// the buffer handle stays one word (see `buf.rs`).
const _: () = assert!(std::mem::size_of::<Frame>() == 24);

impl Frame {
    /// No egress decision yet.
    pub const NO_IF: u16 = u16::MAX;

    /// Copy captured bytes into a frame of their own: one allocation.
    pub fn new(bytes: &[u8]) -> Frame {
        Frame::with_ingress(bytes, 0, 0)
    }

    /// [`Frame::new`] with an ingress timestamp and interface.
    pub fn with_ingress(bytes: &[u8], ts_ns: u64, ingress_if: u16) -> Frame {
        Frame { buf: FrameBuf::copy_from_slice(bytes), ts_ns, ingress_if, egress_if: Frame::NO_IF }
    }

    /// The captured bytes (Ethernet header onward).
    pub fn bytes(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Captured length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire footprint per the paper's accounting (preamble + FCS + IFG added,
    /// padded to the Ethernet minimum).
    pub fn wire_len(&self) -> usize {
        wire::wire_bytes(self.len())
    }

    /// Ethernet header view.
    pub fn ethernet(&self) -> Result<EthernetView<'_>, FrameError> {
        EthernetView::new(self.bytes()).ok_or(FrameError::Truncated("ethernet"))
    }

    /// IPv4 view (if this is an IPv4 frame).
    pub fn ipv4(&self) -> Result<Ipv4View<'_>, FrameError> {
        let eth = self.ethernet()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return Err(FrameError::NotIpv4);
        }
        Ipv4View::new(eth.payload()).ok_or(FrameError::Truncated("ipv4"))
    }

    /// Source IPv4 address — the field LVRM uses to pick the owning VR
    /// (workflow step 2, §2.1).
    pub fn src_ip(&self) -> Result<Ipv4Addr, FrameError> {
        Ok(self.ipv4()?.src())
    }

    /// Destination IPv4 address.
    pub fn dst_ip(&self) -> Result<Ipv4Addr, FrameError> {
        Ok(self.ipv4()?.dst())
    }

    /// UDP view, when the frame is IPv4/UDP.
    pub fn udp(&self) -> Result<UdpView<'_>, FrameError> {
        let ip = self.ipv4()?;
        if ip.protocol() != IPPROTO_UDP {
            return Err(FrameError::Truncated("udp"));
        }
        UdpView::new(ip.payload()).ok_or(FrameError::Truncated("udp"))
    }

    /// TCP view, when the frame is IPv4/TCP.
    pub fn tcp(&self) -> Result<TcpView<'_>, FrameError> {
        let ip = self.ipv4()?;
        if ip.protocol() != IPPROTO_TCP {
            return Err(FrameError::Truncated("tcp"));
        }
        TcpView::new(ip.payload()).ok_or(FrameError::Truncated("tcp"))
    }

    /// Mutate the frame's bytes copy-on-write. A frame that owns its buffer
    /// alone is rewritten in place; one that shares it (a clone, e.g. of a
    /// replayed trace's frame) first moves to a private copy — one
    /// allocation, one copy — so no other holder ever sees the write. The
    /// length is fixed. Elements that rewrite headers (a TTL decrement) pay
    /// the copy only when the bytes are shared; pure forwarding never does.
    pub fn modify_bytes(&mut self, f: impl FnOnce(&mut [u8])) {
        f(self.buf.make_mut());
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Frame");
        d.field("len", &self.len())
            .field("wire_len", &self.wire_len())
            .field("ts_ns", &self.ts_ns)
            .field("ingress_if", &self.ingress_if);
        if let Ok(ip) = self.ipv4() {
            d.field("src", &ip.src()).field("dst", &ip.dst()).field("proto", &ip.protocol());
        }
        d.finish()
    }
}

/// Builds valid Ethernet/IPv4/{UDP,TCP} frames with correct lengths and
/// checksums. Used by the traffic generators and the test suites.
#[derive(Clone, Debug)]
pub struct FrameBuilder {
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub ttl: u8,
    pub ident: u16,
}

impl FrameBuilder {
    pub fn new(src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> FrameBuilder {
        FrameBuilder {
            src_mac: MacAddr::host(u32::from(src_ip)),
            dst_mac: MacAddr::host(u32::from(dst_ip)),
            src_ip,
            dst_ip,
            ttl: 64,
            ident: 0,
        }
    }

    pub fn macs(mut self, src: MacAddr, dst: MacAddr) -> FrameBuilder {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    pub fn ttl(mut self, ttl: u8) -> FrameBuilder {
        self.ttl = ttl;
        self
    }

    /// Fixed per-frame overhead of a UDP frame before payload, captured bytes.
    pub const UDP_OVERHEAD: usize = EthernetView::LEN + Ipv4View::MIN_LEN + UdpView::LEN;

    /// Smallest wire size a UDP frame can have (84: minimum Ethernet frame).
    pub const MIN_UDP_WIRE: usize = wire::MIN_FRAME_WIRE;

    /// Build a UDP frame whose *wire* size is exactly `wire_size` bytes, the
    /// way the paper's senders parameterize their traffic (§4.1). The payload
    /// is zero-filled; ports identify the flow.
    pub fn udp_with_wire_size(
        &mut self,
        src_port: u16,
        dst_port: u16,
        wire_size: usize,
    ) -> Result<Frame, FrameError> {
        if wire_size < wire::MIN_FRAME_WIRE {
            return Err(FrameError::SizeTooSmall {
                requested: wire_size,
                minimum: wire::MIN_FRAME_WIRE,
            });
        }
        // wire = captured + FCS + preamble + IFG, captured >= 60 (pad).
        let captured =
            (wire_size - wire::FCS - wire::PREAMBLE_SFD - wire::IFG).max(Self::UDP_OVERHEAD);
        let payload = captured - Self::UDP_OVERHEAD;
        Ok(self.udp(src_port, dst_port, &vec![0u8; payload]))
    }

    /// Build a UDP frame carrying `payload`.
    pub fn udp(&mut self, src_port: u16, dst_port: u16, payload: &[u8]) -> Frame {
        let udp_len = UdpView::LEN + payload.len();
        let mut buf = self.start(IPPROTO_UDP, udp_len);
        buf.put_u16(src_port);
        buf.put_u16(dst_port);
        buf.put_u16(udp_len as u16);
        buf.put_u16(0); // UDP checksum optional over IPv4; 0 = not computed
        buf.put_slice(payload);
        Frame::new(&buf)
    }

    /// Build a TCP frame with the given segment fields and `payload`.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        &mut self,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: u8,
        window: u16,
        payload: &[u8],
    ) -> Frame {
        let tcp_len = TcpView::MIN_LEN + payload.len();
        let mut buf = self.start(IPPROTO_TCP, tcp_len);
        buf.put_u16(src_port);
        buf.put_u16(dst_port);
        buf.put_u32(seq);
        buf.put_u32(ack);
        buf.put_u8(0x50); // data offset 5 words
        buf.put_u8(flags);
        buf.put_u16(window);
        buf.put_u16(0); // checksum left zero (pseudo-header sum not modeled)
        buf.put_u16(0); // urgent pointer
        buf.put_slice(payload);
        Frame::new(&buf)
    }

    /// Emit Ethernet + IPv4 headers for an L4 payload of `l4_len` bytes and
    /// return the buffer positioned at the L4 header.
    fn start(&mut self, protocol: u8, l4_len: usize) -> BytesMut {
        let total_len = Ipv4View::MIN_LEN + l4_len;
        let mut buf = BytesMut::with_capacity(EthernetView::LEN + total_len);
        // Ethernet
        buf.put_slice(self.dst_mac.as_bytes());
        buf.put_slice(self.src_mac.as_bytes());
        buf.put_u16(EtherType::Ipv4.to_u16());
        // IPv4
        let ip_start = buf.len();
        buf.put_u8(0x45);
        buf.put_u8(0);
        buf.put_u16(total_len as u16);
        buf.put_u16(self.ident);
        self.ident = self.ident.wrapping_add(1);
        buf.put_u16(0x4000); // don't fragment
        buf.put_u8(self.ttl);
        buf.put_u8(protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src_ip.octets());
        buf.put_slice(&self.dst_ip.octets());
        let csum = internet_checksum(&buf[ip_start..ip_start + Ipv4View::MIN_LEN]);
        buf[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn udp_frame_roundtrips_headers() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.udp(1234, 5678, b"hello");
        assert_eq!(f.src_ip().unwrap(), ip(10, 0, 1, 5));
        assert_eq!(f.dst_ip().unwrap(), ip(10, 0, 2, 9));
        let u = f.udp().unwrap();
        assert_eq!(u.src_port(), 1234);
        assert_eq!(u.dst_port(), 5678);
        assert_eq!(u.payload(), b"hello");
    }

    #[test]
    fn ipv4_checksum_is_valid() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.udp(1, 2, &[0u8; 32]);
        assert!(f.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn udp_with_wire_size_hits_exact_sizes() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        for &sz in &wire::FRAME_SIZE_SWEEP {
            let f = b.udp_with_wire_size(1, 2, sz).unwrap();
            assert_eq!(f.wire_len(), sz, "wire size {sz}");
        }
    }

    #[test]
    fn udp_with_wire_size_rejects_sub_minimum() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        assert!(matches!(b.udp_with_wire_size(1, 2, 83), Err(FrameError::SizeTooSmall { .. })));
    }

    #[test]
    fn tcp_frame_roundtrips_fields() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let f = b.tcp(4000, 21, 1000, 2000, crate::headers::tcp_flags::ACK, 65535, b"data");
        let t = f.tcp().unwrap();
        assert_eq!(t.src_port(), 4000);
        assert_eq!(t.dst_port(), 21);
        assert_eq!(t.seq(), 1000);
        assert_eq!(t.ack(), 2000);
        assert_eq!(t.flags(), crate::headers::tcp_flags::ACK);
        assert_eq!(t.window(), 65535);
        assert_eq!(t.payload(), b"data");
    }

    #[test]
    fn ident_increments_per_packet() {
        let mut b = FrameBuilder::new(ip(10, 0, 1, 5), ip(10, 0, 2, 9));
        let _ = b.udp(1, 2, &[]);
        let _ = b.udp(1, 2, &[]);
        assert_eq!(b.ident, 2);
    }

    #[test]
    fn non_ipv4_frame_errors() {
        // An ARP ethertype frame must refuse IPv4 access.
        let mut raw = vec![0u8; 60];
        raw[12] = 0x08;
        raw[13] = 0x06;
        let f = Frame::new(&raw);
        assert_eq!(f.ipv4().unwrap_err(), FrameError::NotIpv4);
    }
}
