//! 1-Gbps links with serialization, propagation and a drop-tail buffer.
//!
//! A link is a FIFO server at `rate_bps`: each frame occupies the wire for
//! its serialization time (using the paper's wire-size accounting, which
//! includes preamble and IFG), then arrives `prop_ns` later. A bounded byte
//! buffer models the switch queue; frames that would overflow it are
//! dropped (drop-tail), which is what turns overload into loss for the
//! achievable-throughput rule and TCP's congestion signal.

use std::collections::VecDeque;

use lvrm_net::{wire, Frame};

/// One unidirectional link.
pub struct Link {
    pub rate_bps: u64,
    pub prop_ns: u64,
    /// Switch buffer in bytes of queued wire data.
    pub buffer_bytes: usize,
    /// Wire is busy until this time.
    busy_until_ns: u64,
    /// Frames in flight or queued: `(arrival_time, frame)`, arrival order.
    in_flight: VecDeque<(u64, Frame)>,
    /// Bytes currently queued (not yet begun serialization are included).
    queued_wire_bytes: usize,
    /// Statistics.
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
}

impl Link {
    pub fn new(rate_bps: u64, prop_ns: u64, buffer_bytes: usize) -> Link {
        Link {
            rate_bps,
            prop_ns,
            buffer_bytes,
            busy_until_ns: 0,
            in_flight: VecDeque::new(),
            queued_wire_bytes: 0,
            offered: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// A 1-Gbps testbed link with 5 µs propagation (host–switch–gateway)
    /// and a 1-MB switch buffer (store-and-forward GigE switches of the
    /// paper's era shipped 0.5–8 MB of shared packet memory).
    pub fn gigabit() -> Link {
        Link::new(wire::GIGABIT, 5_000, 1024 * 1024)
    }

    /// Offer a frame to the link at `now_ns`. On acceptance, returns the
    /// arrival time at the far end (schedule a `LinkDeliver` for it). On
    /// buffer overflow the frame is dropped and `None` returned.
    pub fn offer(&mut self, now_ns: u64, frame: Frame) -> Option<u64> {
        self.offered += 1;
        let wire_len = frame.wire_len();
        // Backlog = wire time already committed beyond `now`.
        let backlog_ns = self.busy_until_ns.saturating_sub(now_ns);
        let backlog_bytes =
            (backlog_ns as u128 * self.rate_bps as u128 / 8 / 1_000_000_000) as usize;
        if backlog_bytes + wire_len > self.buffer_bytes {
            self.dropped += 1;
            return None;
        }
        let start = now_ns.max(self.busy_until_ns);
        let done = start + wire::serialization_ns(wire_len, self.rate_bps);
        self.busy_until_ns = done;
        let arrival = done + self.prop_ns;
        self.queued_wire_bytes += wire_len;
        self.in_flight.push_back((arrival, frame));
        Some(arrival)
    }

    /// Take the frame that arrives at `now_ns` (the head; callers pop in
    /// `LinkDeliver` order, which matches FIFO service).
    pub fn deliver(&mut self) -> Option<(u64, Frame)> {
        let (t, f) = self.in_flight.pop_front()?;
        self.queued_wire_bytes -= f.wire_len();
        self.delivered += 1;
        Some((t, f))
    }

    /// Loss fraction so far.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(wire_size: usize) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1))
            .udp_with_wire_size(1, 2, wire_size)
            .unwrap()
    }

    #[test]
    fn serialization_plus_propagation() {
        let mut l = Link::new(wire::GIGABIT, 5_000, 1 << 20);
        // 84-byte frame: 672 ns serialization + 5000 ns propagation.
        let arrival = l.offer(0, frame(84)).unwrap();
        assert_eq!(arrival, 5_672);
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let mut l = Link::new(wire::GIGABIT, 0, 1 << 20);
        let a1 = l.offer(0, frame(84)).unwrap();
        let a2 = l.offer(0, frame(84)).unwrap();
        assert_eq!(a1, 672);
        assert_eq!(a2, 1_344);
    }

    #[test]
    fn line_rate_throughput_bound() {
        // Offer 2x line rate for a while; delivered rate caps at line rate.
        let mut l = Link::new(wire::GIGABIT, 0, 16 * 1024);
        let mut now = 0u64;
        let interval = 336; // 2x the 672 ns service time
        for _ in 0..10_000 {
            let _ = l.offer(now, frame(84));
            now += interval;
        }
        let loss = l.loss_ratio();
        assert!((0.45..0.55).contains(&loss), "expected ~50% loss, got {loss}");
    }

    #[test]
    fn buffer_overflow_drops() {
        // Tiny buffer: only ~2 frames of backlog allowed.
        let mut l = Link::new(wire::GIGABIT, 0, 200);
        assert!(l.offer(0, frame(84)).is_some());
        assert!(l.offer(0, frame(84)).is_some());
        assert!(l.offer(0, frame(84)).is_none(), "third frame exceeds the buffer");
        assert_eq!(l.dropped, 1);
    }

    #[test]
    fn deliver_returns_fifo_order() {
        let mut l = Link::new(wire::GIGABIT, 100, 1 << 20);
        let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1));
        let f1 = b.udp(1, 2, &[1]);
        let f2 = b.udp(3, 4, &[2]);
        l.offer(0, f1);
        l.offer(0, f2);
        let (t1, d1) = l.deliver().unwrap();
        let (t2, d2) = l.deliver().unwrap();
        assert!(t1 < t2);
        assert_eq!(d1.udp().unwrap().src_port(), 1);
        assert_eq!(d2.udp().unwrap().src_port(), 3);
        assert!(l.deliver().is_none());
    }

    #[test]
    fn buffer_drains_over_time() {
        let mut l = Link::new(wire::GIGABIT, 0, 200);
        l.offer(0, frame(84));
        l.offer(0, frame(84));
        assert!(l.offer(0, frame(84)).is_none());
        // After both serialize (1344 ns), there is room again.
        assert!(l.offer(2_000, frame(84)).is_some());
    }
}
