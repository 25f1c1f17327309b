//! `ClickVr` — hosting a Click pipeline behind the [`VirtualRouter`] trait.

use lvrm_net::Frame;
use lvrm_router::{RouterAction, VirtualRouter};

use crate::config::parse_config;
use crate::graph::{ElementGraph, PacketFate};
use crate::{ConfigError, CLICK_PER_ELEMENT_COST_NS, CLICK_VR_BASE_COST_NS};

/// The paper's *Click VR*: a configuration-script-driven modular router.
pub struct ClickVr {
    name: String,
    /// Kept so `spawn_instance` can hand each VRI a fresh graph.
    config_text: String,
    graph: ElementGraph,
    dummy_load_ns: u64,
    nominal_cost_ns: u64,
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
        // The graph runs on a clone and only the egress decision is copied
        // back. The clone shares the bytes, so an element that rewrites a
        // header (`DecIPTTL`) first moves it to a private copy — one
        // allocation and all 1518 bytes of a full-size frame — and that copy
        // is dropped with the clone: the frame the VR returns is relayed
        // unchanged. ROADMAP 1c flips this to `run(frame)`.
        let fate = self.graph.run(&mut frame.clone());
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
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

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
}
