//! Property tests: frame construction and parsing are inverses, checksums
//! hold, and wire-size accounting behaves for arbitrary inputs.

use std::net::Ipv4Addr;

use lvrm_net::{wire, FlowKey, Frame, FrameBuilder, IngressHeaders, Protocol};
use proptest::prelude::*;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    (any::<u32>()).prop_map(Ipv4Addr::from)
}

/// The header parse as it was before the single pass: the source address and
/// 5-tuple composed from the validating views, each of which re-checks the
/// Ethernet and IPv4 headers.
fn composed_parse(f: &Frame) -> Option<(Ipv4Addr, Option<FlowKey>)> {
    let ip = f.ipv4().ok()?;
    let proto = Protocol::from_ip_proto(ip.protocol());
    let ports = match proto {
        Protocol::Tcp => f.tcp().ok().map(|t| (t.src_port(), t.dst_port())),
        Protocol::Udp => f.udp().ok().map(|u| (u.src_port(), u.dst_port())),
        _ => Some((0, 0)),
    };
    let key = ports.map(|(src_port, dst_port)| FlowKey {
        src: ip.src(),
        dst: ip.dst(),
        src_port,
        dst_port,
        proto,
    });
    Some((ip.src(), key))
}

fn assert_single_pass_matches(bytes: Vec<u8>) {
    let f = Frame::new(&bytes);
    let want = composed_parse(&f);
    let got = IngressHeaders::parse(f.bytes());
    assert_eq!(got.map(|h| h.src()), want.map(|w| w.0));
    assert_eq!(got.and_then(|h| h.flow_key()), want.and_then(|w| w.1));
    assert_eq!(FlowKey::from_frame(&f), want.and_then(|w| w.1));
}

#[cfg(not(miri))]
const CASES: u32 = 400;
#[cfg(miri)]
const CASES: u32 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// ROADMAP 4c for the ingress parse: hostile bytes never panic and get
    /// the answer the validating views give.
    #[test]
    fn single_pass_parse_matches_views_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        ipv4 in any::<bool>(),
    ) {
        let mut bytes = bytes;
        // Random ethertypes almost never say IPv4; force it half the time so
        // the IPv4 and transport checks are reached.
        if ipv4 && bytes.len() >= 15 {
            bytes[12] = 0x08;
            bytes[13] = 0x00;
            bytes[14] = 0x40 | (bytes[14] & 0x0f);
        }
        assert_single_pass_matches(bytes);
    }

    /// Valid frames cut short at every header boundary and with the length
    /// fields (IHL, total length, protocol, TCP data offset) overwritten.
    #[test]
    fn single_pass_parse_matches_views_on_damaged_frames(
        tcp in any::<bool>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..40),
        cut in 0usize..120,
        patches in prop::collection::vec((12usize..48, any::<u8>()), 0..3),
    ) {
        let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1));
        let whole = if tcp {
            b.tcp(sport, dport, 1, 2, 0x10, 512, &payload)
        } else {
            b.udp(sport, dport, &payload)
        };
        let mut bytes = whole.bytes().to_vec();
        for (at, v) in patches {
            if at < bytes.len() {
                bytes[at] = v;
            }
        }
        bytes.truncate(cut);
        assert_single_pass_matches(bytes);
    }

    #[test]
    fn udp_build_parse_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        let mut b = FrameBuilder::new(src, dst);
        let f = b.udp(sport, dport, &payload);
        prop_assert_eq!(f.src_ip().unwrap(), src);
        prop_assert_eq!(f.dst_ip().unwrap(), dst);
        let u = f.udp().unwrap();
        prop_assert_eq!(u.src_port(), sport);
        prop_assert_eq!(u.dst_port(), dport);
        prop_assert_eq!(u.payload(), &payload[..]);
        prop_assert!(f.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn tcp_build_parse_roundtrip(
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1));
        let f = b.tcp(40_000, 21, seq, ack, flags, window, &payload);
        let t = f.tcp().unwrap();
        prop_assert_eq!(t.seq(), seq);
        prop_assert_eq!(t.ack(), ack);
        prop_assert_eq!(t.flags(), flags);
        prop_assert_eq!(t.window(), window);
        prop_assert_eq!(t.payload(), &payload[..]);
    }

    #[test]
    fn wire_size_exact_for_valid_requests(size in 84usize..=1538) {
        let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1));
        let f = b.udp_with_wire_size(1, 2, size).unwrap();
        prop_assert_eq!(f.wire_len(), size);
    }

    #[test]
    fn wire_bytes_monotonic(a in 0usize..3000, b in 0usize..3000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(wire::wire_bytes(lo) <= wire::wire_bytes(hi));
        prop_assert!(wire::wire_bytes(lo) >= wire::MIN_FRAME_WIRE);
    }

    #[test]
    fn flow_key_stable_under_payload_changes(
        p1 in prop::collection::vec(any::<u8>(), 0..500),
        p2 in prop::collection::vec(any::<u8>(), 0..500),
    ) {
        let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1));
        let f1 = b.udp(1111, 2222, &p1);
        let f2 = b.udp(1111, 2222, &p2);
        prop_assert_eq!(FlowKey::from_frame(&f1), FlowKey::from_frame(&f2));
    }

    #[test]
    fn serialization_scales_linearly(size in 64usize..10_000) {
        let one = wire::serialization_ns(size, wire::GIGABIT);
        let two = wire::serialization_ns(size * 2, wire::GIGABIT);
        // Integer rounding allows 1 ns slack.
        prop_assert!((two as i64 - 2 * one as i64).abs() <= 1);
    }
}
