//! ARP frames and neighbor resolution.
//!
//! The paper's VRI "is responsible for interpreting the address resolution
//! and routing information" (§3.7). This module provides the address-
//! resolution half: building/parsing Ethernet ARP requests and replies, and
//! a [`NeighborTable`] mapping next-hop IPv4 addresses to MAC addresses
//! with ageing, so a VR can rewrite destination MACs when forwarding via a
//! next hop.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use bytes::{BufMut, BytesMut};

use crate::frame::Frame;
use crate::headers::{EtherType, EthernetView, MacAddr};

/// ARP operation codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    Request,
    Reply,
}

/// A parsed IPv4-over-Ethernet ARP message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpMessage {
    pub op: ArpOp,
    pub sender_mac: MacAddr,
    pub sender_ip: Ipv4Addr,
    pub target_mac: MacAddr,
    pub target_ip: Ipv4Addr,
}

impl ArpMessage {
    /// Build a who-has request from `sender` for `target_ip`, broadcast.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpMessage {
        ArpMessage {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the reply answering `request` with `my_mac`.
    pub fn reply_to(request: &ArpMessage, my_mac: MacAddr) -> ArpMessage {
        ArpMessage {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Serialize into a full Ethernet frame (padded to the minimum).
    pub fn to_frame(&self) -> Frame {
        let mut buf = BytesMut::with_capacity(60);
        let dst = match self.op {
            ArpOp::Request => MacAddr::BROADCAST,
            ArpOp::Reply => self.target_mac,
        };
        buf.put_slice(dst.as_bytes());
        buf.put_slice(self.sender_mac.as_bytes());
        buf.put_u16(EtherType::Arp.to_u16());
        buf.put_u16(1); // HTYPE ethernet
        buf.put_u16(EtherType::Ipv4.to_u16());
        buf.put_u8(6); // HLEN
        buf.put_u8(4); // PLEN
        buf.put_u16(match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        });
        buf.put_slice(self.sender_mac.as_bytes());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(self.target_mac.as_bytes());
        buf.put_slice(&self.target_ip.octets());
        // Pad to the 60-byte minimum captured frame.
        while buf.len() < 60 {
            buf.put_u8(0);
        }
        Frame::new(&buf)
    }

    /// Parse an ARP message from a frame (None when it is not IPv4/Ethernet
    /// ARP).
    pub fn from_frame(frame: &Frame) -> Option<ArpMessage> {
        let eth = EthernetView::new(frame.bytes())?;
        if eth.ethertype() != EtherType::Arp {
            return None;
        }
        let p = eth.payload();
        if p.len() < 28 {
            return None;
        }
        let htype = u16::from_be_bytes([p[0], p[1]]);
        let ptype = u16::from_be_bytes([p[2], p[3]]);
        if htype != 1 || ptype != EtherType::Ipv4.to_u16() || p[4] != 6 || p[5] != 4 {
            return None;
        }
        let op = match u16::from_be_bytes([p[6], p[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpMessage {
            op,
            sender_mac: MacAddr(p[8..14].try_into().ok()?),
            sender_ip: Ipv4Addr::new(p[14], p[15], p[16], p[17]),
            target_mac: MacAddr(p[18..24].try_into().ok()?),
            target_ip: Ipv4Addr::new(p[24], p[25], p[26], p[27]),
        })
    }
}

/// IP→MAC neighbor cache with ageing.
pub struct NeighborTable {
    entries: HashMap<Ipv4Addr, (MacAddr, u64)>,
    ttl_ns: u64,
}

impl NeighborTable {
    /// Entries expire `ttl_ns` after their last learn/confirm.
    pub fn new(ttl_ns: u64) -> NeighborTable {
        NeighborTable { entries: HashMap::new(), ttl_ns }
    }

    /// Learn (or refresh) a binding.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, now_ns: u64) {
        self.entries.insert(ip, (mac, now_ns));
    }

    /// Absorb the sender binding of any ARP message (requests teach too).
    pub fn learn_from(&mut self, msg: &ArpMessage, now_ns: u64) {
        self.learn(msg.sender_ip, msg.sender_mac, now_ns);
    }

    /// Resolve `ip` if a live entry exists.
    pub fn lookup(&self, ip: Ipv4Addr, now_ns: u64) -> Option<MacAddr> {
        match self.entries.get(&ip) {
            Some((mac, seen)) if now_ns.saturating_sub(*seen) <= self.ttl_ns => Some(*mac),
            _ => None,
        }
    }

    /// Drop expired entries (periodic housekeeping).
    pub fn expire(&mut self, now_ns: u64) {
        let ttl = self.ttl_ns;
        self.entries.retain(|_, (_, seen)| now_ns.saturating_sub(*seen) <= ttl);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Rewrite a frame's Ethernet addresses for next-hop delivery (what a router
/// does after the ARP resolution succeeds).
pub fn rewrite_macs(frame: &mut Frame, src: MacAddr, dst: MacAddr) {
    frame.modify_bytes(|b| {
        b[0..6].copy_from_slice(dst.as_bytes());
        b[6..12].copy_from_slice(src.as_bytes());
    });
}

/// Convenience: is this frame an ARP frame at all?
pub fn is_arp(frame: &Frame) -> bool {
    frame.ethernet().map(|e| e.ethertype() == EtherType::Arp).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn request_reply_roundtrip() {
        let req = ArpMessage::request(MacAddr::host(1), ip(10, 0, 1, 1), ip(10, 0, 1, 254));
        let f = req.to_frame();
        assert!(is_arp(&f));
        assert_eq!(f.ethernet().unwrap().dst(), MacAddr::BROADCAST);
        let parsed = ArpMessage::from_frame(&f).unwrap();
        assert_eq!(parsed, req);

        let rep = ArpMessage::reply_to(&parsed, MacAddr::host(254));
        let rf = rep.to_frame();
        let parsed_rep = ArpMessage::from_frame(&rf).unwrap();
        assert_eq!(parsed_rep.op, ArpOp::Reply);
        assert_eq!(parsed_rep.sender_ip, ip(10, 0, 1, 254));
        assert_eq!(parsed_rep.target_mac, MacAddr::host(1));
        assert_eq!(rf.ethernet().unwrap().dst(), MacAddr::host(1), "reply is unicast");
    }

    #[test]
    fn frames_meet_minimum_size() {
        let f = ArpMessage::request(MacAddr::host(1), ip(10, 0, 1, 1), ip(10, 0, 1, 2)).to_frame();
        assert!(f.len() >= 60);
        assert_eq!(f.wire_len(), 84);
    }

    #[test]
    fn parse_rejects_non_arp() {
        let mut b = crate::frame::FrameBuilder::new(ip(10, 0, 1, 1), ip(10, 0, 2, 1));
        let f = b.udp(1, 2, &[]);
        assert!(ArpMessage::from_frame(&f).is_none());
        assert!(!is_arp(&f));
    }

    #[test]
    fn neighbor_table_ages_out() {
        let mut t = NeighborTable::new(1_000);
        t.learn(ip(10, 0, 1, 254), MacAddr::host(254), 0);
        assert_eq!(t.lookup(ip(10, 0, 1, 254), 500), Some(MacAddr::host(254)));
        assert_eq!(t.lookup(ip(10, 0, 1, 254), 2_000), None);
        t.expire(2_000);
        assert!(t.is_empty());
    }

    #[test]
    fn requests_teach_the_sender_binding() {
        let mut t = NeighborTable::new(u64::MAX);
        let req = ArpMessage::request(MacAddr::host(7), ip(10, 0, 1, 7), ip(10, 0, 1, 254));
        t.learn_from(&req, 0);
        assert_eq!(t.lookup(ip(10, 0, 1, 7), 1), Some(MacAddr::host(7)));
    }

    #[test]
    fn mac_rewrite_changes_only_addresses() {
        let mut b = crate::frame::FrameBuilder::new(ip(10, 0, 1, 1), ip(10, 0, 2, 1));
        let mut f = b.udp(1, 2, b"payload");
        let payload_before = f.udp().unwrap().payload().to_vec();
        rewrite_macs(&mut f, MacAddr::host(9), MacAddr::host(8));
        let eth = f.ethernet().unwrap();
        assert_eq!(eth.src(), MacAddr::host(9));
        assert_eq!(eth.dst(), MacAddr::host(8));
        assert_eq!(f.udp().unwrap().payload(), &payload_before[..]);
        assert!(f.ipv4().unwrap().checksum_ok(), "IP header untouched");
    }
}
