//! UDP transport for cluster links (DESIGN.md §13, §15).
//!
//! [`UdpPeerLink`] carries [`lvrm_core::ClusterMsg`] wire bytes between two
//! `lvrmd` processes over a pair of non-blocking UDP sockets — one link per
//! peer: the HA partner (`--ha-bind/--ha-peer`) and each other shard
//! (`--fleet-peer`). UDP suits the protocol, which is *designed* to
//! tolerate loss: a down deadline absorbs missed adverts, and the state
//! stream resynchronizes via `SyncReq`.
//!
//! UDP caps a datagram well below a worst-case `Snapshot`, so every message
//! travels as one or more fragments under an 8-byte header
//! `(msg_id u32, frag_idx u16, frag_total u16)`, little-endian. The
//! receiver reassembles by `msg_id` and delivers only complete messages;
//! partially received messages are abandoned when newer traffic arrives
//! (bounded buffer), which degrades to exactly the loss the protocol
//! already tolerates.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

use lvrm_core::PeerLink;

/// Payload bytes per fragment (header excluded); comfortably under the
/// 65 507-byte UDP maximum with headroom for odd MTUs.
const FRAG_PAYLOAD: usize = 60_000;
const FRAG_HEADER: usize = 8;
/// Partial reassemblies kept around before the oldest is abandoned.
const MAX_PARTIAL: usize = 8;

/// A [`PeerLink`] over UDP: binds locally, sends to one fixed peer.
pub struct UdpPeerLink {
    socket: UdpSocket,
    peer: SocketAddr,
    next_msg_id: u32,
    /// In-progress reassemblies: msg_id -> (frags received, buffers).
    partial: HashMap<u32, Vec<Option<Vec<u8>>>>,
    /// Arrival order of partial msg_ids, for bounded eviction.
    partial_order: Vec<u32>,
    recv_buf: Vec<u8>,
    /// Datagrams dropped by the kernel send path (link treated as lossy).
    pub send_errors: u64,
}

impl UdpPeerLink {
    /// Bind `bind_addr` and aim at `peer_addr`. Both are `ip:port`.
    pub fn connect(bind_addr: &str, peer_addr: &str) -> std::io::Result<UdpPeerLink> {
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        let peer = peer_addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "peer did not resolve"))?;
        Ok(UdpPeerLink {
            socket,
            peer,
            next_msg_id: 1,
            partial: HashMap::new(),
            partial_order: Vec::new(),
            recv_buf: vec![0u8; FRAG_HEADER + FRAG_PAYLOAD],
            send_errors: 0,
        })
    }

    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.socket.local_addr().ok()
    }

    fn evict_to_cap(&mut self) {
        while self.partial_order.len() > MAX_PARTIAL {
            let oldest = self.partial_order.remove(0);
            self.partial.remove(&oldest);
        }
    }
}

impl PeerLink for UdpPeerLink {
    fn send(&mut self, _now_ns: u64, bytes: &[u8]) {
        let msg_id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let total = bytes.len().div_ceil(FRAG_PAYLOAD).max(1) as u16;
        let mut frame = Vec::with_capacity(FRAG_HEADER + bytes.len().min(FRAG_PAYLOAD));
        for (idx, chunk) in bytes.chunks(FRAG_PAYLOAD).enumerate().take(total as usize) {
            frame.clear();
            frame.extend_from_slice(&msg_id.to_le_bytes());
            frame.extend_from_slice(&(idx as u16).to_le_bytes());
            frame.extend_from_slice(&total.to_le_bytes());
            frame.extend_from_slice(chunk);
            if self.socket.send_to(&frame, self.peer).is_err() {
                self.send_errors += 1; // lossy link: the protocol re-syncs
                return;
            }
        }
        if bytes.is_empty() {
            // A zero-length message still needs its one (empty) fragment.
            frame.clear();
            frame.extend_from_slice(&msg_id.to_le_bytes());
            frame.extend_from_slice(&0u16.to_le_bytes());
            frame.extend_from_slice(&1u16.to_le_bytes());
            if self.socket.send_to(&frame, self.peer).is_err() {
                self.send_errors += 1;
            }
        }
    }

    fn recv(&mut self, _now_ns: u64, out: &mut Vec<Vec<u8>>) {
        loop {
            let (n, from) = match self.socket.recv_from(&mut self.recv_buf) {
                Ok(v) => v,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            // Only the configured peer may drive the election: the whole
            // address, since the far end sends from the socket it binds and
            // any other process on the peer's host shares its IP.
            if from != self.peer || n < FRAG_HEADER {
                continue;
            }
            let d = &self.recv_buf[..n];
            let msg_id = u32::from_le_bytes(d[0..4].try_into().expect("4 bytes"));
            let idx = u16::from_le_bytes(d[4..6].try_into().expect("2 bytes")) as usize;
            let total = u16::from_le_bytes(d[6..8].try_into().expect("2 bytes")) as usize;
            if total == 0 || idx >= total {
                continue;
            }
            let payload = d[FRAG_HEADER..].to_vec();
            if total == 1 && idx == 0 {
                out.push(payload);
                continue;
            }
            let slots = self.partial.entry(msg_id).or_insert_with(|| {
                self.partial_order.push(msg_id);
                vec![None; total]
            });
            if slots.len() != total {
                continue; // inconsistent peer; drop the fragment
            }
            slots[idx] = Some(payload);
            if slots.iter().all(|s| s.is_some()) {
                let slots = self.partial.remove(&msg_id).expect("present");
                self.partial_order.retain(|id| *id != msg_id);
                let mut whole = Vec::new();
                for s in slots {
                    whole.extend_from_slice(&s.expect("all present"));
                }
                out.push(whole);
            }
            self.evict_to_cap();
        }
    }
}

/// One `--fleet-peer` argument: `<shard>,<bind ip:port>,<peer ip:port>`.
/// A fleet member carries one such spec per remote shard (DESIGN.md §15)
/// and opens a [`UdpPeerLink`] for each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetPeerSpec {
    pub shard: u32,
    pub bind: String,
    pub peer: String,
}

impl std::str::FromStr for FleetPeerSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FleetPeerSpec, String> {
        let mut it = s.splitn(3, ',');
        let shard = it
            .next()
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| format!("bad shard id in fleet peer spec {s:?}"))?;
        let bind = it.next().ok_or_else(|| format!("missing bind addr in {s:?}"))?.to_string();
        let peer = it.next().ok_or_else(|| format!("missing peer addr in {s:?}"))?.to_string();
        if bind.is_empty() || peer.is_empty() {
            return Err(format!("empty addr in fleet peer spec {s:?}"));
        }
        Ok(FleetPeerSpec { shard, bind, peer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpPeerLink, UdpPeerLink) {
        // Bind both ends on ephemeral ports, then re-aim each at the other.
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let (aa, ba) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        drop(a);
        drop(b);
        let la = UdpPeerLink::connect(&aa.to_string(), &ba.to_string()).expect("link a");
        let lb = UdpPeerLink::connect(&ba.to_string(), &aa.to_string()).expect("link b");
        (la, lb)
    }

    fn recv_until(link: &mut UdpPeerLink, want: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for _ in 0..200 {
            link.recv(0, &mut got);
            if got.len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn small_messages_round_trip() {
        let (mut a, mut b) = pair();
        a.send(0, b"advert");
        a.send(0, b"delta");
        let got = recv_until(&mut b, 2);
        assert_eq!(got, vec![b"advert".to_vec(), b"delta".to_vec()]);
    }

    #[test]
    fn oversize_message_fragments_and_reassembles() {
        let (mut a, mut b) = pair();
        let big: Vec<u8> = (0..150_000usize).map(|i| (i * 7 % 251) as u8).collect();
        a.send(0, &big);
        let got = recv_until(&mut b, 1);
        assert_eq!(got.len(), 1, "reassembled exactly one message");
        assert_eq!(got[0], big);
    }

    #[test]
    fn both_directions_work() {
        let (mut a, mut b) = pair();
        a.send(0, b"ping");
        assert_eq!(recv_until(&mut b, 1), vec![b"ping".to_vec()]);
        b.send(0, b"pong");
        assert_eq!(recv_until(&mut a, 1), vec![b"pong".to_vec()]);
    }

    #[test]
    fn datagrams_from_another_port_of_the_peer_host_are_dropped() {
        let (mut a, mut b) = pair();
        // A well-formed one-fragment message from a third socket on the
        // peer's IP: msg_id 7, fragment 0 of 1.
        let intruder = UdpSocket::bind("127.0.0.1:0").expect("bind intruder");
        let mut forged = Vec::new();
        forged.extend_from_slice(&7u32.to_le_bytes());
        forged.extend_from_slice(&0u16.to_le_bytes());
        forged.extend_from_slice(&1u16.to_le_bytes());
        forged.extend_from_slice(b"forged advert");
        intruder.send_to(&forged, b.local_addr().unwrap()).expect("send forged");
        a.send(0, b"advert");
        assert_eq!(recv_until(&mut b, 2), vec![b"advert".to_vec()]);
    }

    #[test]
    fn fleet_peer_spec_parses_and_rejects() {
        let spec: FleetPeerSpec = "2,127.0.0.1:7002,127.0.0.1:8002".parse().unwrap();
        assert_eq!(
            spec,
            FleetPeerSpec {
                shard: 2,
                bind: "127.0.0.1:7002".into(),
                peer: "127.0.0.1:8002".into()
            }
        );
        assert!("x,127.0.0.1:1,127.0.0.1:2".parse::<FleetPeerSpec>().is_err());
        assert!("1,127.0.0.1:1".parse::<FleetPeerSpec>().is_err());
        assert!("1,,127.0.0.1:2".parse::<FleetPeerSpec>().is_err());
    }
}
