//! A miniature Click modular router — the paper's "Click VR" substrate.
//!
//! The paper's second hosted VR type is "a forwarding program based on Click
//! Modular Router. … the Click VR parses a configuration script to conduct
//! the forwarding function, and internally relays data frames via different
//! modules" (§3.8). We reproduce that architecture in miniature:
//!
//! * a [`config`] parser for the Click configuration language subset the
//!   experiments need (element declarations `name :: Class(args)`, chained
//!   connections `a -> b -> c`, output ports `cl[1] -> d`, comments);
//! * an [`elements`] library with the classic packet-path elements
//!   (`FromDevice`, `ToDevice`, `Counter`, `Discard`, `CheckIPHeader`,
//!   `DecIPTTL`, `Classifier`, `LookupIPRoute`, `Queue`, `Tee`);
//! * a push-mode element [`graph`] that routes each frame through the
//!   configured pipeline;
//! * [`ClickVr`], which wraps a graph behind the
//!   [`lvrm_router::VirtualRouter`] trait so LVRM can host it exactly like
//!   the C++ VR.
//!
//! **Simplifications vs. real Click** (documented per DESIGN.md): the graph
//! runs pure push (Click's pull side and schedulers are not modeled —
//! `Queue` is a counting pass-through marking the push/pull boundary), and
//! `Classifier` matches a small pattern language (`ip proto tcp|udp|icmp`,
//! `-`) rather than arbitrary offset/mask patterns. Neither is exercised by
//! the paper's evaluation, which uses minimal forwarding configs.

pub mod clickvr;
pub mod config;
pub mod elements;
pub mod graph;

pub use clickvr::ClickVr;
pub use config::{parse_config, ConfigError};
pub use graph::{ElementGraph, PacketFate};

/// The bytes of a frame an element may read or write: the Ethernet header
/// and the longest IPv4 header (IHL 15). Past them an element sees only the
/// frame's length ([`elements::Element::process`]).
pub const HEADER_SPAN: usize = 14 + 60;

/// Default nominal per-frame cost of the Click VR in the testbed's cost
/// model. Click's element indirection makes it markedly heavier than the
/// C++ VR — calibrated against Fig. 4.5's gap between the two.
pub const CLICK_VR_BASE_COST_NS: u64 = 2_400;

/// Additional nominal cost charged per element a frame traverses.
pub const CLICK_PER_ELEMENT_COST_NS: u64 = 150;
