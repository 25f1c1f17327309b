//! A live socket adapter over UDP loopback.
//!
//! The paper's raw-socket variant needs `AF_PACKET` and real NICs; inside a
//! container we substitute a kernel **UDP socket pair on loopback**, which
//! preserves the property the raw-socket path is measured for: every frame
//! crosses the kernel with a syscall and two copies in each direction (see
//! DESIGN.md). The adapter carries whole Ethernet frames as UDP payloads.
//!
//! Errors surface through the fallible [`SocketAdapter`] contract:
//! `EWOULDBLOCK`/`EAGAIN` *and* `EINTR` are the idle case ([`AdapterError::
//! WouldBlock`]) — an interrupted syscall lost nothing and must not skew the
//! receive counters — while everything else is a real fault for the adapter
//! supervisor to act on. Refused sends hand the frame back instead of
//! dropping it.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use lvrm_core::socket::{AdapterError, SendRejected, SocketAdapter, SocketKind};
use lvrm_net::Frame;

/// Map a raw socket error to the adapter taxonomy. `EWOULDBLOCK`/`EAGAIN`
/// and `EINTR` are not faults — conflating EINTR with an error (or worse,
/// with a received frame) is precisely the bug class the fallible surface
/// exists to prevent.
pub(crate) fn classify_io_error(e: std::io::Error) -> AdapterError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::Interrupted => AdapterError::WouldBlock,
        _ => AdapterError::Transient(e),
    }
}

/// A `SocketAdapter` backed by a pair of non-blocking UDP sockets.
pub struct UdpAdapter {
    rx: UdpSocket,
    tx: UdpSocket,
    local: SocketAddr,
    peer: SocketAddr,
    buf: Vec<u8>,
    rx_count: u64,
    tx_count: u64,
}

impl UdpAdapter {
    /// Bind a receive socket on `127.0.0.1:0` and aim transmissions at
    /// `peer`. Returns the adapter and its own listening address (give it to
    /// whoever should send frames here).
    pub fn bind(peer: SocketAddr) -> std::io::Result<(UdpAdapter, SocketAddr)> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_nonblocking(true)?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.set_nonblocking(true)?;
        let local = rx.local_addr()?;
        Ok((
            UdpAdapter { rx, tx, local, peer, buf: vec![0u8; 65536], rx_count: 0, tx_count: 0 },
            local,
        ))
    }

    /// Create a connected loopback pair: frames sent by one side arrive at
    /// the other (a two-NIC gateway in miniature).
    pub fn pair() -> std::io::Result<(UdpAdapter, UdpAdapter)> {
        // Bind both first with throwaway peers, then cross-wire.
        let (mut a, a_addr) = UdpAdapter::bind("127.0.0.1:1".parse().unwrap())?;
        let (b, b_addr) = UdpAdapter::bind(a_addr)?;
        a.peer = b_addr;
        Ok((a, b))
    }
}

impl SocketAdapter for UdpAdapter {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        match self.rx.recv_from(&mut self.buf) {
            Ok((n, _)) => {
                self.rx_count += 1;
                Ok(Frame::new(&self.buf[..n]))
            }
            Err(e) => Err(classify_io_error(e)),
        }
    }

    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        match self.tx.send_to(frame.bytes(), self.peer) {
            Ok(_) => {
                self.tx_count += 1;
                Ok(())
            }
            Err(e) => Err(SendRejected { frame, error: classify_io_error(e) }),
        }
    }

    /// Rebind both sockets, keeping the same receive port so peers need no
    /// re-discovery. The old receive descriptor must be released before the
    /// port can be bound again, hence the placeholder swap.
    fn reopen(&mut self) -> Result<(), AdapterError> {
        let placeholder = UdpSocket::bind("127.0.0.1:0").map_err(AdapterError::Transient)?;
        drop(std::mem::replace(&mut self.rx, placeholder));
        let rx = UdpSocket::bind(self.local).map_err(AdapterError::Transient)?;
        rx.set_nonblocking(true).map_err(AdapterError::Transient)?;
        let tx = UdpSocket::bind("127.0.0.1:0").map_err(AdapterError::Transient)?;
        tx.set_nonblocking(true).map_err(AdapterError::Transient)?;
        self.rx = rx;
        self.tx = tx;
        Ok(())
    }

    fn kind(&self) -> SocketKind {
        SocketKind::RawSocket
    }

    fn rx_count(&self) -> u64 {
        self.rx_count
    }

    fn tx_count(&self) -> u64 {
        self.tx_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(tag: u8) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1))
            .udp(100, 200, &[tag; 8])
    }

    fn poll_with_deadline(b: &mut UdpAdapter) -> Option<Frame> {
        let t0 = std::time::Instant::now();
        loop {
            match b.poll() {
                Ok(f) => break Some(f),
                Err(AdapterError::WouldBlock) => {}
                Err(e) => panic!("unexpected poll fault: {e}"),
            }
            if t0.elapsed().as_secs() > 5 {
                break None;
            }
        }
    }

    #[test]
    fn pair_roundtrips_frames() {
        let (mut a, mut b) = UdpAdapter::pair().unwrap();
        a.send(frame(7)).unwrap();
        // Loopback delivery is fast but asynchronous; poll with a deadline.
        let f = poll_with_deadline(&mut b).expect("frame over loopback");
        assert_eq!(f.udp().unwrap().payload(), &[7u8; 8]);
        assert_eq!(a.tx_count(), 1);
        assert_eq!(b.rx_count(), 1);
    }

    #[test]
    fn poll_is_nonblocking_when_idle() {
        let (mut a, _b) = UdpAdapter::pair().unwrap();
        let t0 = std::time::Instant::now();
        assert!(matches!(a.poll(), Err(AdapterError::WouldBlock)));
        assert!(t0.elapsed().as_millis() < 100);
    }

    #[test]
    fn eintr_and_eagain_classify_as_would_block_not_faults() {
        // Regression for the error-swallowing bug: EINTR used to fall into
        // the same arm as real faults (frame silently "absent"), skewing
        // supervision. Both idle kinds must map to WouldBlock; anything
        // else stays a Transient carrying the original error.
        for kind in [ErrorKind::WouldBlock, ErrorKind::Interrupted] {
            let e = std::io::Error::new(kind, "sig");
            assert!(classify_io_error(e).is_would_block(), "{kind:?}");
        }
        match classify_io_error(std::io::Error::new(ErrorKind::ConnectionRefused, "icmp")) {
            AdapterError::Transient(e) => assert_eq!(e.kind(), ErrorKind::ConnectionRefused),
            other => panic!("expected Transient, got {other}"),
        }
    }

    #[test]
    fn reopen_keeps_port_and_counters() {
        let (mut a, mut b) = UdpAdapter::pair().unwrap();
        a.send(frame(1)).unwrap();
        assert!(poll_with_deadline(&mut b).is_some());
        b.reopen().expect("rebind same port");
        a.send(frame(2)).unwrap();
        let f = poll_with_deadline(&mut b).expect("frame after reopen");
        assert_eq!(f.udp().unwrap().payload(), &[2u8; 8]);
        assert_eq!(b.rx_count(), 2, "counters survive the reopen");
    }

    #[test]
    fn kind_reports_raw_socket_profile() {
        let (a, _b) = UdpAdapter::pair().unwrap();
        assert_eq!(a.kind(), SocketKind::RawSocket);
    }
}
