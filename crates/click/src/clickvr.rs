//! `ClickVr` — hosting a Click pipeline behind the [`VirtualRouter`] trait.

use lvrm_net::Frame;
use lvrm_router::{RouterAction, VirtualRouter};

use crate::config::parse_config;
use crate::graph::{ElementGraph, PacketFate};
use crate::{ConfigError, CLICK_PER_ELEMENT_COST_NS, CLICK_VR_BASE_COST_NS, HEADER_SPAN};

/// The paper's *Click VR*: a configuration-script-driven modular router.
pub struct ClickVr {
    name: String,
    /// Kept so `spawn_instance` can hand each VRI a fresh graph.
    config_text: String,
    graph: ElementGraph,
    dummy_load_ns: u64,
    nominal_cost_ns: u64,
    /// The copy of the offered frame the graph runs on, kept from one frame
    /// to the next so its buffer is rewritten where it lies: its first
    /// [`HEADER_SPAN`] bytes are the last frame's.
    copy: Option<Frame>,
    /// Frames dropped by the pipeline.
    pub dropped: u64,
}

impl ClickVr {
    /// Parse `config_text` and compile the element graph.
    pub fn from_config(name: impl Into<String>, config_text: &str) -> Result<ClickVr, ConfigError> {
        let ast = parse_config(config_text)?;
        let graph = ElementGraph::compile(&ast)?;
        let nominal_cost_ns =
            CLICK_VR_BASE_COST_NS + CLICK_PER_ELEMENT_COST_NS * graph.len() as u64;
        Ok(ClickVr {
            name: name.into(),
            config_text: config_text.to_string(),
            graph,
            dummy_load_ns: 0,
            nominal_cost_ns,
            copy: None,
            dropped: 0,
        })
    }

    /// The default minimal-forwarding config the experiments use: relay
    /// every frame from `in_if` to `out_if` (paper §3.8: "both types of VRs
    /// perform the minimal data forwarding function").
    pub fn minimal_forwarding(
        name: impl Into<String>,
        in_if: u16,
        out_if: u16,
    ) -> Result<ClickVr, ConfigError> {
        let cfg = format!("FromDevice({in_if}) -> Counter -> ToDevice({out_if});");
        ClickVr::from_config(name, &cfg)
    }

    /// Add the synthetic per-frame load used by Chapter 4.
    pub fn with_dummy_load_ns(mut self, ns: u64) -> ClickVr {
        self.dummy_load_ns = ns;
        self
    }

    /// Access the compiled graph (statistics, entry points).
    pub fn graph(&self) -> &ElementGraph {
        &self.graph
    }
}

impl VirtualRouter for ClickVr {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, frame: &mut Frame) -> RouterAction {
        // The graph runs on a copy this instance keeps, and only the egress
        // decision is carried back: the frame the VR returns is relayed
        // unchanged. A copy of the same length gets the frame's header span
        // written over it where it lies (no allocation, no refcount traffic
        // on the offered buffer); past the span it keeps an earlier frame's
        // bytes, which no element reads. Any other length takes a new copy.
        // ROADMAP 2a flips this to `run(frame)`.
        let copy = match &mut self.copy {
            Some(copy) if copy.len() == frame.len() => {
                let span = frame.len().min(HEADER_SPAN);
                copy.modify_bytes(|b| b[..span].copy_from_slice(&frame.bytes()[..span]));
                copy
            }
            slot => slot.insert(Frame::new(frame.bytes())),
        };
        (copy.ts_ns, copy.ingress_if, copy.egress_if) =
            (frame.ts_ns, frame.ingress_if, frame.egress_if);
        let fate = self.graph.run(copy);
        match fate {
            PacketFate::Forwarded { iface } => {
                frame.egress_if = iface;
                RouterAction::Forward { iface }
            }
            PacketFate::Dropped => {
                self.dropped += 1;
                RouterAction::Drop
            }
        }
    }

    fn dummy_load_ns(&self) -> u64 {
        self.dummy_load_ns
    }

    fn nominal_cost_ns(&self) -> u64 {
        self.nominal_cost_ns
    }

    fn spawn_instance(&self) -> Box<dyn VirtualRouter> {
        Box::new(ClickVr {
            name: self.name.clone(),
            config_text: self.config_text.clone(),
            graph: self.graph.clone_fresh(),
            dummy_load_ns: self.dummy_load_ns,
            nominal_cost_ns: self.nominal_cost_ns,
            copy: None,
            dropped: 0,
        })
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_config;
    use lvrm_net::headers::internet_checksum;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

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

    fn frame() -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .udp(1, 2, &[0u8; 26])
    }

    #[test]
    fn minimal_forwarding_relays() {
        let mut vr = ClickVr::minimal_forwarding("click", 0, 1).unwrap();
        let mut f = frame();
        assert_eq!(vr.process(&mut f), RouterAction::Forward { iface: 1 });
        assert_eq!(f.egress_if, 1);
    }

    #[test]
    fn click_is_heavier_than_cpp() {
        let vr = ClickVr::minimal_forwarding("click", 0, 1).unwrap();
        assert!(vr.nominal_cost_ns() > lvrm_router::fastvr::CPP_VR_COST_NS);
    }

    #[test]
    fn routed_config_drops_unroutable() {
        let mut vr = ClickVr::from_config(
            "click",
            "FromDevice(0) -> rt :: LookupIPRoute(10.0.9.0/24 0); rt[0] -> ToDevice(1);",
        )
        .unwrap();
        let mut f = frame();
        assert_eq!(vr.process(&mut f), RouterAction::Drop);
        assert_eq!(vr.dropped, 1);
    }

    #[test]
    fn spawn_instance_has_fresh_statistics() {
        let mut vr = ClickVr::minimal_forwarding("click", 0, 1).unwrap();
        let mut f = frame();
        vr.process(&mut f);
        assert_eq!(vr.graph().traversals(), 3);
        let inst = vr.spawn_instance();
        assert_eq!(inst.name(), "click");
        assert_eq!(inst.nominal_cost_ns(), vr.nominal_cost_ns());
    }

    #[test]
    fn bad_config_is_reported() {
        assert!(ClickVr::from_config("x", "Frob(1) -> ToDevice(0);").is_err());
        assert!(ClickVr::from_config("x", "").is_err());
        // A cycle is refused here, before there is a VR to spawn or hang.
        let e = ClickVr::from_config("x", "c :: Counter; FromDevice(0) -> c -> c;").err().unwrap();
        assert!(e.0.contains("cycle"), "{e}");
    }

    /// `ClickVr` runs the graph on a copy it keeps and rewrites in place, and
    /// must decide exactly as the graph does on a fresh clone of each frame:
    /// the same fate, the same count at every element, the same traversals.
    /// The frames keep a length for a run of frames and then change it (so
    /// the kept copy is sometimes rewritten, sometimes replaced), carry TTL
    /// 0, 1 or 2, IPv4 options of random bytes (IHL 5 to 15, so the checksum
    /// reaches the last byte of the header span), a bad header checksum now
    /// and then — in the checksum field or in an option — and destinations no
    /// route covers; the configurations rewrite before they check, rewrite
    /// twice, and fan out. What the VR hands back is the offered frame, byte
    /// for byte, with only `egress_if` stamped on a forward.
    #[test]
    fn kept_copy_decides_as_a_clone_would() {
        let configs = [
            "FromDevice(0) -> dec :: DecIPTTL -> chk :: CheckIPHeader \
             -> rt :: LookupIPRoute(10.0.2.0/24 0, 10.0.3.0/24 1); \
             rt[0] -> ToDevice(1); rt[1] -> ToDevice(2); dec[1] -> Discard; chk[1] -> Discard;",
            "FromDevice(0) -> t :: Tee(2); \
             t[0] -> d1 :: DecIPTTL -> d2 :: DecIPTTL -> ToDevice(1); \
             t[1] -> chk :: CheckIPHeader -> d3 :: DecIPTTL -> rt :: LookupIPRoute(10.0.2.0/24 0); \
             rt[0] -> ToDevice(2); d3[1] -> Discard;",
            "FromDevice(0) -> CheckIPHeader -> DecIPTTL -> CheckIPHeader -> Counter \
             -> rt :: LookupIPRoute(10.0.0.0/16 0); rt[0] -> ToDevice(1);",
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as usize % n
        };
        for config in configs {
            let ast = parse_config(config).unwrap();
            let mut vr = ClickVr::from_config("click", config).unwrap();
            let mut reference = ElementGraph::compile(&ast).unwrap();
            // (payload bytes, option words), drawn afresh every other frame.
            let mut shape = (0, 0);
            for n in 0..if cfg!(miri) { 24 } else { 400 } {
                if next(2) == 0 {
                    let words = [0, 1 + next(10)][next(2)];
                    shape = ([0, 26, 27, 80, 1400, 1472][next(6)], words);
                }
                let (payload_len, words) = shape;
                let dst = [[10, 0, 2, 9], [10, 0, 3, 1], [10, 0, 7, 7], [8, 8, 8, 8]][next(4)];
                let ttl = next(3) as u8;
                let payload = vec![0x5A; payload_len];
                let built = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), dst.into())
                    .ttl(ttl)
                    .udp(1, 2, &payload);
                let options: Vec<u8> = (0..4 * words).map(|_| next(256) as u8).collect();
                let mut offered = with_options(&built, &options);
                let broken = match next(8) {
                    0 | 1 => Some(14 + 10),
                    2 if words > 0 => Some(14 + 20 + next(4 * words)),
                    _ => None,
                };
                if let Some(at) = broken {
                    offered.modify_bytes(|b| b[at] ^= 0x5A);
                }
                (offered.ts_ns, offered.egress_if) = (n as u64, [Frame::NO_IF, 3][next(2)]);
                let fate = reference.run(&mut offered.clone());

                let mut relayed = offered.clone();
                let action = vr.process(&mut relayed);
                let egress = match fate {
                    PacketFate::Forwarded { iface } => {
                        assert_eq!(action, RouterAction::Forward { iface }, "{config}\n{n}");
                        iface
                    }
                    PacketFate::Dropped => {
                        assert_eq!(action, RouterAction::Drop, "{config}\n{n}");
                        offered.egress_if
                    }
                };
                assert_eq!(relayed.bytes(), offered.bytes(), "{config}\nframe {n}");
                assert_eq!(
                    (relayed.egress_if, relayed.ingress_if, relayed.ts_ns),
                    (egress, offered.ingress_if, offered.ts_ns)
                );
                assert_eq!(vr.graph().traversals(), reference.traversals(), "{config}\n{n}");
                for decl in &ast.decls {
                    let name = &decl.name;
                    let count = vr.graph().element_count(name);
                    assert_eq!(count, reference.element_count(name), "{name} of {config}\n{n}");
                }
            }
        }
    }
}
