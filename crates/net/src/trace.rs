//! Synthetic in-memory frame traces.
//!
//! Experiment 1c loads "a trace file of 100M minimum-sized frames into main
//! memory" and replays it as fast as possible through LVRM (§4.2). We build
//! the equivalent: a compact set of distinct frames replayed cyclically, so a
//! logical trace of any length costs constant memory (a [`Frame`] clone shares
//! its reference-counted buffer: cheap and allocation-free).

use std::net::Ipv4Addr;

use crate::frame::{Frame, FrameBuilder};

/// Describes a synthetic trace.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Wire size of every frame, bytes (84..=1538).
    pub wire_size: usize,
    /// Number of distinct flows to synthesize.
    pub flows: usize,
    /// Source subnets, one per VR: frames round-robin over these, so a trace
    /// can exercise multi-VR classification.
    pub src_subnets: Vec<(Ipv4Addr, u8)>,
    /// Destination subnet for all flows.
    pub dst_subnet: (Ipv4Addr, u8),
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            wire_size: crate::wire::MIN_FRAME_WIRE,
            flows: 16,
            src_subnets: vec![(Ipv4Addr::new(10, 0, 1, 0), 24)],
            dst_subnet: (Ipv4Addr::new(10, 0, 2, 0), 24),
        }
    }
}

impl TraceSpec {
    /// Single-subnet trace of `flows` flows at `wire_size` bytes.
    pub fn new(wire_size: usize, flows: usize) -> TraceSpec {
        TraceSpec { wire_size, flows, ..TraceSpec::default() }
    }
}

/// A replayable in-memory trace.
#[derive(Clone)]
pub struct Trace {
    frames: Vec<Frame>,
    cursor: usize,
}

/// The `n`-th host address inside `subnet/len` (n starts at 1).
fn host_in(subnet: Ipv4Addr, len: u8, n: u32) -> Ipv4Addr {
    let size = 1u32 << (32 - len as u32);
    let base = u32::from(subnet) & !(size - 1);
    Ipv4Addr::from(base + 1 + (n % (size - 2).max(1)))
}

impl Trace {
    /// Generate the distinct frames described by `spec`.
    pub fn generate(spec: &TraceSpec) -> Trace {
        assert!(!spec.src_subnets.is_empty(), "trace needs at least one source subnet");
        assert!(spec.flows > 0, "trace needs at least one flow");
        let mut frames = Vec::with_capacity(spec.flows);
        for i in 0..spec.flows {
            let (src_net, src_len) = spec.src_subnets[i % spec.src_subnets.len()];
            let src = host_in(src_net, src_len, i as u32);
            let dst = host_in(spec.dst_subnet.0, spec.dst_subnet.1, i as u32);
            let mut b = FrameBuilder::new(src, dst);
            let f = b
                .udp_with_wire_size(10_000 + (i as u16 % 50_000), 20_000, spec.wire_size)
                .expect("spec wire_size validated by caller");
            frames.push(f);
        }
        Trace { frames, cursor: 0 }
    }

    /// Number of distinct frames held in memory.
    pub fn distinct(&self) -> usize {
        self.frames.len()
    }

    /// The distinct frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Next frame in cyclic replay order (cheap clone of shared bytes).
    pub fn next_frame(&mut self) -> Frame {
        let f = self.frames[self.cursor].clone();
        self.cursor = (self.cursor + 1) % self.frames.len();
        f
    }

    /// Reset replay to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use std::collections::HashSet;

    #[test]
    fn generates_requested_flow_count() {
        let t = Trace::generate(&TraceSpec::new(84, 8));
        assert_eq!(t.distinct(), 8);
        let keys: HashSet<_> = t.frames().iter().map(|f| FlowKey::from_frame(f).unwrap()).collect();
        assert_eq!(keys.len(), 8, "flows must be distinct");
    }

    #[test]
    fn frames_have_requested_wire_size() {
        for &sz in &crate::wire::FRAME_SIZE_SWEEP {
            let t = Trace::generate(&TraceSpec::new(sz, 4));
            for f in t.frames() {
                assert_eq!(f.wire_len(), sz);
            }
        }
    }

    #[test]
    fn replay_is_cyclic() {
        let mut t = Trace::generate(&TraceSpec::new(84, 3));
        let first = t.next_frame().bytes().to_vec();
        let _ = t.next_frame();
        let _ = t.next_frame();
        let again = t.next_frame();
        assert_eq!(again.bytes(), &first[..]);
    }

    #[test]
    fn multi_subnet_trace_round_robins_sources() {
        let spec = TraceSpec {
            wire_size: 84,
            flows: 4,
            src_subnets: vec![(Ipv4Addr::new(10, 0, 1, 0), 24), (Ipv4Addr::new(10, 0, 3, 0), 24)],
            dst_subnet: (Ipv4Addr::new(10, 0, 2, 0), 24),
        };
        let t = Trace::generate(&spec);
        let srcs: Vec<_> = t.frames().iter().map(|f| f.src_ip().unwrap().octets()[2]).collect();
        assert_eq!(srcs, vec![1, 3, 1, 3]);
    }

    #[test]
    fn host_in_skips_network_and_broadcast() {
        let h = host_in(Ipv4Addr::new(10, 0, 1, 0), 24, 0);
        assert_eq!(h, Ipv4Addr::new(10, 0, 1, 1));
        // wraps within the subnet
        let h = host_in(Ipv4Addr::new(10, 0, 1, 0), 24, 254);
        assert_eq!(h, Ipv4Addr::new(10, 0, 1, 1));
    }
}
