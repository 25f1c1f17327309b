//! Frame and packet substrate for LVRM.
//!
//! LVRM (Choi & Lee, ICPP'11 SRMPDS) forwards **raw Ethernet frames** between
//! network interfaces, classifying each frame to a virtual router by its source
//! IP subnet and optionally to a flow by its TCP/UDP 5-tuple. This crate provides
//! everything the rest of the workspace needs to speak that language:
//!
//! * [`Frame`] — an owned raw frame with an ingress timestamp;
//! * zero-copy header views ([`EthernetView`], [`Ipv4View`], [`UdpView`],
//!   [`TcpView`]) plus a [`FrameBuilder`] that assembles valid frames with
//!   correct checksums;
//! * [`FlowKey`] — the 5-tuple used by flow-based load balancing (paper §3.3),
//!   and [`IngressHeaders`], the single-pass header parse burst ingress runs
//!   once per frame;
//! * [`wire`] — on-the-wire arithmetic (preamble/IFG accounting, serialization
//!   delay) matching the paper's definition of frame size (84 B minimum frame
//!   *including* preamble, payload and check sequence, §4.1);
//! * [`trace`] — synthetic in-memory frame traces (the paper's "main memory"
//!   socket-adapter variant, §3.1).

pub mod arp;
mod buf;
pub mod flow;
pub mod frame;
pub mod headers;
pub mod pcap;
pub mod prefetch;
pub mod trace;
pub mod wire;

pub use arp::{ArpMessage, ArpOp, NeighborTable};
pub use flow::{FlowKey, HashedKey, IngressHeaders, Protocol};
pub use frame::{Frame, FrameBuilder, FrameError};
pub use headers::{EtherType, EthernetView, Ipv4View, MacAddr, TcpView, UdpView};
pub use pcap::{read_pcap, write_pcap, PcapError};
pub use prefetch::prefetch_read;
pub use trace::{Trace, TraceSpec};
pub use wire::{serialization_ns, wire_bytes, GIGABIT, MAX_FRAME_WIRE, MIN_FRAME_WIRE};
