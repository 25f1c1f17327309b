//! The element graph: wiring plus push-mode execution.

use std::collections::HashMap;

use lvrm_net::Frame;

use crate::config::{ConfigAst, ConfigError};
use crate::elements::{build_element, Element, Terminal};

/// Out-edges of one element: `out_port -> (target_element, in_port)`.
type OutEdges = Box<[Option<(usize, usize)>]>;

/// What ultimately happened to a frame injected into the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketFate {
    /// Reached a `ToDevice(iface)`.
    Forwarded { iface: u16 },
    /// Dropped (Discard, classifier miss, route miss, unconnected port...).
    Dropped,
}

/// A compiled Click configuration.
pub struct ElementGraph {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    /// `edges[e][out_port] = Some((target_element, in_port))`.
    edges: Vec<OutEdges>,
    /// `FromDevice` elements by interface, the graph's entry points.
    entries: HashMap<u16, usize>,
    /// Total element traversals (for cost accounting / statistics).
    traversals: u64,
    /// [`ElementGraph::run`]'s work list of (element, in_port, frame) and the
    /// frames one element emitted: both empty between calls, kept for their
    /// capacity so a frame costs no allocation here.
    work: Vec<(usize, usize, Frame)>,
    emitted: Vec<(usize, Frame)>,
}

impl ElementGraph {
    /// Compile an AST into an executable graph.
    pub fn compile(ast: &ConfigAst) -> Result<ElementGraph, ConfigError> {
        let mut elements = Vec::with_capacity(ast.decls.len());
        let mut names = Vec::with_capacity(ast.decls.len());
        let mut index = HashMap::new();
        let mut entries = HashMap::new();
        for (i, decl) in ast.decls.iter().enumerate() {
            let el = build_element(decl)?;
            if decl.class == "FromDevice" {
                let iface: u16 = decl.args[0]
                    .parse()
                    .map_err(|_| ConfigError(format!("bad FromDevice iface {:?}", decl.args[0])))?;
                if entries.insert(iface, i).is_some() {
                    return Err(ConfigError(format!(
                        "two FromDevice elements claim interface {iface}"
                    )));
                }
            }
            index.insert(decl.name.clone(), i);
            names.push(decl.name.clone());
            elements.push(el);
        }
        if entries.is_empty() {
            return Err(ConfigError("configuration has no FromDevice entry point".into()));
        }

        let mut edges: Vec<OutEdges> =
            elements.iter().map(|e| vec![None; e.n_outputs()].into_boxed_slice()).collect();
        for link in &ast.links {
            let from = *index
                .get(&link.from)
                .ok_or_else(|| ConfigError(format!("unknown element {:?}", link.from)))?;
            let to = *index
                .get(&link.to)
                .ok_or_else(|| ConfigError(format!("unknown element {:?}", link.to)))?;
            let n_out = elements[from].n_outputs();
            if link.out_port >= n_out {
                return Err(ConfigError(format!(
                    "{} has {} output port(s); port {} connected",
                    link.from, n_out, link.out_port
                )));
            }
            if link.in_port != 0 {
                return Err(ConfigError(format!(
                    "{}: only input port 0 is supported (got {})",
                    link.to, link.in_port
                )));
            }
            if edges[from][link.out_port].is_some() {
                return Err(ConfigError(format!(
                    "{}[{}] connected twice",
                    link.from, link.out_port
                )));
            }
            edges[from][link.out_port] = Some((to, link.in_port));
        }
        Ok(ElementGraph {
            elements,
            names,
            edges,
            entries,
            traversals: 0,
            work: Vec::new(),
            emitted: Vec::new(),
        })
    }

    /// Interfaces with a `FromDevice` entry point.
    pub fn entry_ifaces(&self) -> impl Iterator<Item = u16> + '_ {
        self.entries.keys().copied()
    }

    /// Number of elements in the graph.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Total element traversals executed so far.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Look up an element's processed count by name (for tests/examples).
    pub fn element_count(&self, name: &str) -> Option<u64> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(self.elements[i].count())
    }

    /// Inject `frame` at the `FromDevice` for its ingress interface (or the
    /// sole entry point if that interface has none) and run the pipeline to
    /// quiescence. Returns the frame's fate; when forwarded, `egress_if` has
    /// been stamped on the frame by the time the fate is determined.
    pub fn run(&mut self, frame: Frame) -> PacketFate {
        let entry = self
            .entries
            .get(&frame.ingress_if)
            .or_else(|| self.entries.values().next())
            .copied()
            .expect("compile() guarantees an entry point");
        // Depth-first order like Click's push path; Tee fan-out queues
        // siblings.
        self.work.push((entry, 0, frame));
        let mut fate = PacketFate::Dropped;
        while let Some((idx, port, f)) = self.work.pop() {
            self.traversals += 1;
            if let Some(t) = self.elements[idx].terminal() {
                // Run the terminal for its statistics, then record the fate.
                self.elements[idx].push(port, f, &mut |_, _| {});
                match t {
                    Terminal::ToDevice(iface) => {
                        if fate == PacketFate::Dropped {
                            fate = PacketFate::Forwarded { iface };
                        }
                    }
                    Terminal::Discard => {}
                }
                continue;
            }
            self.emitted.clear();
            let emitted = &mut self.emitted;
            self.elements[idx].push(port, f, &mut |out_port, out_frame| {
                emitted.push((out_port, out_frame));
            });
            for (out_port, mut out_frame) in self.emitted.drain(..) {
                match self.edges[idx].get(out_port).copied().flatten() {
                    Some((next, in_port)) => {
                        // Stamp egress early so ToDevice sees it.
                        if let Some(Terminal::ToDevice(iface)) = self.elements[next].terminal() {
                            out_frame.egress_if = iface;
                        }
                        self.work.push((next, in_port, out_frame));
                    }
                    None => {
                        // Unconnected port: frame dropped (Click warns once).
                    }
                }
            }
        }
        fate
    }

    /// Export the pipeline as Graphviz DOT (for documentation and
    /// debugging: `dot -Tsvg` renders the element topology).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph click {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, name) in self.names.iter().enumerate() {
            let _ = writeln!(out, "  n{i} [label=\"{name}\\n{}\"];", self.elements[i].class_name());
        }
        for (i, outs) in self.edges.iter().enumerate() {
            for (port, edge) in outs.iter().enumerate() {
                if let Some((to, _)) = edge {
                    let _ = writeln!(out, "  n{i} -> n{to} [label=\"{port}\"];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Clone the graph's configuration with fresh statistics (for a new VRI
    /// of the same VR).
    pub fn clone_fresh(&self) -> ElementGraph {
        ElementGraph {
            elements: self.elements.iter().map(|e| e.clone_fresh()).collect(),
            names: self.names.clone(),
            edges: self.edges.clone(),
            entries: self.entries.clone(),
            traversals: 0,
            work: Vec::new(),
            emitted: Vec::new(),
        }
    }
}

impl std::fmt::Debug for ElementGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementGraph")
            .field("elements", &self.names)
            .field("traversals", &self.traversals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_config;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn compile(cfg: &str) -> ElementGraph {
        ElementGraph::compile(&parse_config(cfg).unwrap()).unwrap()
    }

    fn udp(src: [u8; 4], dst: [u8; 4]) -> Frame {
        FrameBuilder::new(Ipv4Addr::from(src), Ipv4Addr::from(dst)).udp(1, 2, &[0u8; 26])
    }

    #[test]
    fn minimal_forwarding_pipeline() {
        let mut g = compile("FromDevice(0) -> ToDevice(1);");
        let f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        assert_eq!(g.run(f), PacketFate::Forwarded { iface: 1 });
    }

    #[test]
    fn frame_gets_egress_stamped() {
        let mut g = compile("FromDevice(0) -> cnt :: Counter -> ToDevice(3);");
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        f.ingress_if = 0;
        assert_eq!(g.run(f), PacketFate::Forwarded { iface: 3 });
        assert_eq!(g.element_count("cnt"), Some(1));
    }

    #[test]
    fn routed_pipeline_uses_lpm_ports() {
        let mut g = compile(
            "FromDevice(0) -> CheckIPHeader \
             -> rt :: LookupIPRoute(10.0.2.0/24 0, 10.0.3.0/24 1);\n\
             rt[0] -> ToDevice(1); rt[1] -> ToDevice(2);",
        );
        assert_eq!(g.run(udp([10, 0, 1, 5], [10, 0, 2, 9])), PacketFate::Forwarded { iface: 1 });
        assert_eq!(g.run(udp([10, 0, 1, 5], [10, 0, 3, 9])), PacketFate::Forwarded { iface: 2 });
        assert_eq!(g.run(udp([10, 0, 1, 5], [8, 8, 8, 8])), PacketFate::Dropped);
    }

    #[test]
    fn discard_branch_counts() {
        let mut g = compile(
            "cl :: Classifier(ip proto udp, -);\n\
             FromDevice(0) -> cl; cl[0] -> ToDevice(1); cl[1] -> sink :: Discard;",
        );
        assert_eq!(g.run(udp([10, 0, 1, 5], [10, 0, 2, 9])), PacketFate::Forwarded { iface: 1 });
        let tcp = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9)).tcp(
            1,
            2,
            0,
            0,
            0x02,
            100,
            &[],
        );
        assert_eq!(g.run(tcp), PacketFate::Dropped);
        assert_eq!(g.element_count("sink"), Some(1));
    }

    #[test]
    fn unconnected_output_drops() {
        let mut g = compile("FromDevice(0) -> Counter;");
        assert_eq!(g.run(udp([10, 0, 1, 5], [10, 0, 2, 9])), PacketFate::Dropped);
    }

    #[test]
    fn multi_entry_selects_by_ingress() {
        let mut g = compile("FromDevice(0) -> ToDevice(1); FromDevice(1) -> ToDevice(0);");
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        f.ingress_if = 1;
        assert_eq!(g.run(f), PacketFate::Forwarded { iface: 0 });
    }

    #[test]
    fn compile_rejects_port_overflow() {
        let e = ElementGraph::compile(
            &parse_config("c :: Counter; c[1] -> Discard; FromDevice(0) -> c;").unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("output port"));
    }

    #[test]
    fn compile_rejects_double_connection() {
        let e = ElementGraph::compile(
            &parse_config(
                "FromDevice(0) -> ToDevice(1); xtra :: Counter;", // placeholder
            )
            .map(|mut ast| {
                // Manually duplicate a link to simulate `a -> b; a -> c;`.
                let l = ast.links[0].clone();
                ast.links.push(l);
                ast
            })
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("connected twice"));
    }

    #[test]
    fn compile_requires_entry_point() {
        let e = ElementGraph::compile(&parse_config("Counter -> Discard;").unwrap()).unwrap_err();
        assert!(e.0.contains("FromDevice"));
    }

    #[test]
    fn clone_fresh_resets_statistics() {
        let mut g = compile("FromDevice(0) -> c :: Counter -> ToDevice(1);");
        g.run(udp([10, 0, 1, 5], [10, 0, 2, 9]));
        assert_eq!(g.element_count("c"), Some(1));
        let g2 = g.clone_fresh();
        assert_eq!(g2.element_count("c"), Some(0));
        assert_eq!(g2.len(), g.len());
    }

    #[test]
    fn dot_export_names_every_element_and_edge() {
        let g = compile(
            "in :: FromDevice(0); cl :: Classifier(ip proto udp, -);\n\
             in -> cl; cl[0] -> ToDevice(1); cl[1] -> Discard;",
        );
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph click {"));
        assert!(dot.contains("FromDevice"));
        assert!(dot.contains("Classifier"));
        assert!(dot.contains("label=\"1\""), "port labels present: {dot}");
        assert_eq!(dot.matches(" -> ").count(), 3);
    }

    #[test]
    fn tee_forwards_first_todevice_fate() {
        let mut g =
            compile("FromDevice(0) -> t :: Tee(2); t[0] -> ToDevice(1); t[1] -> ToDevice(2);");
        // Both copies are forwarded; the fate reports one interface, and both
        // ToDevice counters tick.
        let fate = g.run(udp([10, 0, 1, 5], [10, 0, 2, 9]));
        assert!(matches!(fate, PacketFate::Forwarded { .. }));
    }
}
