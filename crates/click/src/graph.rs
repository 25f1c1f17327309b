//! The element graph: wiring compiled to a successor table, and the
//! push-mode walk that carries one frame along it in place.

use std::collections::HashMap;

use lvrm_net::Frame;

use crate::config::{ConfigAst, ConfigError};
use crate::elements::{build_element, Action, Element, Terminal};

/// Where one `(element, out_port)` leads. [`ElementGraph::compile`] resolves
/// every link to this once, so the walk looks nothing up per frame: not a
/// name, not the successor's kind.
#[derive(Clone, Copy)]
enum Hop {
    /// Nothing connected: the frame is dropped (Click warns once).
    Unconnected,
    /// On to a processing element.
    Element(usize),
    /// Into a terminal element, where the walk ends.
    Terminal(usize, Terminal),
}

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
    /// `hops[e][out_port]`: the successor table.
    hops: Vec<Box<[Hop]>>,
    /// `(interface, FromDevice element)` in declaration order: the graph's
    /// entry points.
    entries: Vec<(u16, usize)>,
    /// Total element traversals (for cost accounting / statistics).
    traversals: u64,
}

impl ElementGraph {
    /// Compile an AST into an executable graph. A configuration whose links
    /// form a cycle is refused: every element pushes, so a frame that entered
    /// the cycle would never leave [`ElementGraph::run`].
    pub fn compile(ast: &ConfigAst) -> Result<ElementGraph, ConfigError> {
        let mut elements = Vec::with_capacity(ast.decls.len());
        let mut names = Vec::with_capacity(ast.decls.len());
        let mut index = HashMap::new();
        let mut entries = Vec::new();
        for (i, decl) in ast.decls.iter().enumerate() {
            let el = build_element(decl)?;
            if decl.class == "FromDevice" {
                let iface: u16 = decl.args[0]
                    .parse()
                    .map_err(|_| ConfigError(format!("bad FromDevice iface {:?}", decl.args[0])))?;
                if entries.iter().any(|&(claimed, _)| claimed == iface) {
                    return Err(ConfigError(format!(
                        "two FromDevice elements claim interface {iface}"
                    )));
                }
                entries.push((iface, i));
            }
            index.insert(decl.name.clone(), i);
            names.push(decl.name.clone());
            elements.push(el);
        }
        if entries.is_empty() {
            return Err(ConfigError("configuration has no FromDevice entry point".into()));
        }

        let mut hops: Vec<Box<[Hop]>> = elements
            .iter()
            .map(|e| vec![Hop::Unconnected; e.n_outputs()].into_boxed_slice())
            .collect();
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
            if !matches!(hops[from][link.out_port], Hop::Unconnected) {
                return Err(ConfigError(format!(
                    "{}[{}] connected twice",
                    link.from, link.out_port
                )));
            }
            hops[from][link.out_port] = match elements[to].terminal() {
                Some(t) => Hop::Terminal(to, t),
                None => Hop::Element(to),
            };
        }
        if let Some(on_cycle) = find_cycle(&hops) {
            return Err(ConfigError(format!(
                "{} is on a cycle: a push-only graph would never let a frame out of it",
                names[on_cycle]
            )));
        }
        Ok(ElementGraph { elements, names, hops, entries, traversals: 0 })
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

    /// Inject `frame` at the `FromDevice` for its ingress interface — the
    /// first `FromDevice` declared when none claims that interface — and run
    /// the pipeline to quiescence, the frame staying where it is. Returns its
    /// fate; when forwarded, `frame` is what the `ToDevice` saw — rewritten
    /// by the elements on the way, `egress_if` stamped.
    pub fn run(&mut self, frame: &mut Frame) -> PacketFate {
        self.run_tapped(frame, &mut |_, _| {})
    }

    /// [`ElementGraph::run`], showing `tap` every terminal a frame reaches, by
    /// name, and the frame as it arrives there — under a `Tee` all of them,
    /// not only the one whose frame is handed back.
    pub fn run_tapped(
        &mut self,
        frame: &mut Frame,
        tap: &mut impl FnMut(&str, &Frame),
    ) -> PacketFate {
        // compile() guarantees an entry point.
        let &(_, entry) = self
            .entries
            .iter()
            .find(|&&(iface, _)| iface == frame.ingress_if)
            .unwrap_or(&self.entries[0]);
        self.follow(Hop::Element(entry), frame, tap)
    }

    /// Carry `frame` across `hop` and on to wherever it ends: one `process`
    /// call per element, one table read per hop.
    fn follow(
        &mut self,
        mut hop: Hop,
        frame: &mut Frame,
        tap: &mut impl FnMut(&str, &Frame),
    ) -> PacketFate {
        loop {
            let at = match hop {
                Hop::Unconnected => return PacketFate::Dropped,
                Hop::Element(at) => at,
                Hop::Terminal(at, terminal) => {
                    let fate = match terminal {
                        // Stamped before the ToDevice runs, so it sees it.
                        Terminal::ToDevice(iface) => {
                            frame.egress_if = iface;
                            PacketFate::Forwarded { iface }
                        }
                        Terminal::Discard => PacketFate::Dropped,
                    };
                    // The terminal runs for its statistics.
                    self.traversals += 1;
                    self.elements[at].process(frame);
                    tap(&self.names[at], frame);
                    return fate;
                }
            };
            self.traversals += 1;
            hop = match self.elements[at].process(frame) {
                Action::Emit(port) => self.hops[at].get(port).copied().unwrap_or(Hop::Unconnected),
                Action::Drop => return PacketFate::Dropped,
                Action::FanOut => return self.fan_out(at, frame, tap),
            };
        }
    }

    /// A `Tee`: every branch runs on a clone — copy-on-write keeps one
    /// branch's rewrite from its siblings — highest port first, depth first.
    /// The first branch to reach a `ToDevice` decides the fate, and its frame
    /// is the one handed back.
    fn fan_out(
        &mut self,
        tee: usize,
        frame: &mut Frame,
        tap: &mut impl FnMut(&str, &Frame),
    ) -> PacketFate {
        let mut forwarded = None;
        for port in (0..self.hops[tee].len()).rev() {
            let mut copy = frame.clone();
            let fate = self.follow(self.hops[tee][port], &mut copy, tap);
            if forwarded.is_none() && fate != PacketFate::Dropped {
                forwarded = Some((fate, copy));
            }
        }
        let Some((fate, copy)) = forwarded else { return PacketFate::Dropped };
        *frame = copy;
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
        for (i, outs) in self.hops.iter().enumerate() {
            for (port, hop) in outs.iter().enumerate() {
                if let Hop::Element(to) | Hop::Terminal(to, _) = hop {
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
            hops: self.hops.clone(),
            entries: self.entries.clone(),
            traversals: 0,
        }
    }
}

/// An element on a cycle of the successor table, if there is one: one
/// depth-first search with the path marked, on a stack of its own (a
/// configuration may chain more elements than the thread's stack has frames).
fn find_cycle(hops: &[Box<[Hop]>]) -> Option<usize> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unseen,
        OnPath,
        Done,
    }
    let mut marks = vec![Mark::Unseen; hops.len()];
    // (element, its next output port to follow)
    let mut path = Vec::new();
    for root in 0..hops.len() {
        if marks[root] == Mark::Unseen {
            marks[root] = Mark::OnPath;
            path.push((root, 0));
        }
        while let Some((at, port)) = path.last_mut() {
            let hop = hops[*at].get(*port);
            *port += 1;
            match hop {
                None => {
                    marks[*at] = Mark::Done;
                    path.pop();
                }
                Some(&Hop::Element(next)) if marks[next] == Mark::OnPath => return Some(next),
                Some(&Hop::Element(next)) if marks[next] == Mark::Unseen => {
                    marks[next] = Mark::OnPath;
                    path.push((next, 0));
                }
                // Done already, unconnected, or a terminal, which has no outputs.
                Some(_) => {}
            }
        }
    }
    None
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
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        assert_eq!(g.run(&mut f), PacketFate::Forwarded { iface: 1 });
    }

    #[test]
    fn frame_gets_egress_stamped() {
        let mut g = compile("FromDevice(0) -> cnt :: Counter -> ToDevice(3);");
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        f.ingress_if = 0;
        assert_eq!(g.run(&mut f), PacketFate::Forwarded { iface: 3 });
        assert_eq!(f.egress_if, 3);
        assert_eq!(g.element_count("cnt"), Some(1));
    }

    #[test]
    fn routed_pipeline_uses_lpm_ports() {
        let mut g = compile(
            "FromDevice(0) -> CheckIPHeader \
             -> rt :: LookupIPRoute(10.0.2.0/24 0, 10.0.3.0/24 1);\n\
             rt[0] -> ToDevice(1); rt[1] -> ToDevice(2);",
        );
        assert_eq!(
            g.run(&mut udp([10, 0, 1, 5], [10, 0, 2, 9])),
            PacketFate::Forwarded { iface: 1 }
        );
        assert_eq!(
            g.run(&mut udp([10, 0, 1, 5], [10, 0, 3, 9])),
            PacketFate::Forwarded { iface: 2 }
        );
        assert_eq!(g.run(&mut udp([10, 0, 1, 5], [8, 8, 8, 8])), PacketFate::Dropped);
    }

    #[test]
    fn discard_branch_counts() {
        let mut g = compile(
            "cl :: Classifier(ip proto udp, -);\n\
             FromDevice(0) -> cl; cl[0] -> ToDevice(1); cl[1] -> sink :: Discard;",
        );
        assert_eq!(
            g.run(&mut udp([10, 0, 1, 5], [10, 0, 2, 9])),
            PacketFate::Forwarded { iface: 1 }
        );
        let mut tcp = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
            .tcp(1, 2, 0, 0, 0x02, 100, &[]);
        assert_eq!(g.run(&mut tcp), PacketFate::Dropped);
        assert_eq!(g.element_count("sink"), Some(1));
    }

    #[test]
    fn unconnected_output_drops() {
        let mut g = compile("FromDevice(0) -> Counter;");
        assert_eq!(g.run(&mut udp([10, 0, 1, 5], [10, 0, 2, 9])), PacketFate::Dropped);
    }

    #[test]
    fn multi_entry_selects_by_ingress() {
        let mut g = compile("FromDevice(0) -> ToDevice(1); FromDevice(1) -> ToDevice(0);");
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        f.ingress_if = 1;
        assert_eq!(g.run(&mut f), PacketFate::Forwarded { iface: 0 });
    }

    #[test]
    fn an_unclaimed_interface_enters_at_the_first_declared_from_device() {
        // Fresh compiles: an entry order drawn per compile (a hash map's)
        // would send a frame no FromDevice claims down either branch.
        for _ in 0..64 {
            let mut g = compile(
                "FromDevice(0) -> a :: Counter -> ToDevice(1);\n\
                 FromDevice(1) -> b :: Counter -> ToDevice(2);",
            );
            let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
            f.ingress_if = 7;
            assert_eq!(g.run(&mut f), PacketFate::Forwarded { iface: 1 });
            assert_eq!((g.element_count("a"), g.element_count("b")), (Some(1), Some(0)));
        }
        let e = compile_err("FromDevice(3) -> ToDevice(1); FromDevice(3) -> ToDevice(2);");
        assert!(e.contains("two FromDevice elements claim interface 3"), "{e}");
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
        g.run(&mut udp([10, 0, 1, 5], [10, 0, 2, 9]));
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
    fn tee_runs_its_highest_port_first_and_hands_back_that_branch() {
        let mut g = compile(
            "FromDevice(0) -> t :: Tee(2); t[0] -> a :: ToDevice(1);\n\
             t[1] -> DecIPTTL -> b :: ToDevice(2);",
        );
        let mut f = udp([10, 0, 1, 5], [10, 0, 2, 9]);
        let ttl = f.ipv4().unwrap().ttl();
        // Both copies are forwarded and both ToDevice counters tick; the fate
        // and the frame are those of the branch that ran first.
        assert_eq!(g.run(&mut f), PacketFate::Forwarded { iface: 2 });
        assert_eq!((g.element_count("a"), g.element_count("b")), (Some(1), Some(1)));
        assert_eq!((f.egress_if, f.ipv4().unwrap().ttl()), (2, ttl - 1));
        // The sibling saw the frame as the Tee did, not the rewrite.
        let mut seen = Vec::new();
        g.run_tapped(&mut udp([10, 0, 1, 5], [10, 0, 2, 9]), &mut |name, f| {
            seen.push((name.to_string(), f.egress_if, f.ipv4().unwrap().ttl()));
        });
        assert_eq!(seen, [("b".to_string(), 2, ttl - 1), ("a".to_string(), 1, ttl)]);
    }

    fn compile_err(cfg: &str) -> String {
        ElementGraph::compile(&parse_config(cfg).unwrap()).unwrap_err().0
    }

    #[test]
    fn compile_refuses_a_tee_it_could_not_allocate() {
        // Used to parse, and `vec![Hop::Unconnected; 4_000_000_000]` aborted
        // the process: a tenant's configuration took down every VR.
        let e = compile_err("FromDevice(0) -> Tee(4000000000) -> ToDevice(1);");
        assert!(e.contains("Tee width 4000000000"), "{e}");
    }

    #[test]
    fn compile_rejects_cycles() {
        // Each of these used to compile, and the first frame never left `run`.
        let e = compile_err("c :: Counter; FromDevice(0) -> c; c -> c;");
        assert!(e.contains("c is on a cycle"), "{e}");
        let e = compile_err("a :: Counter; b :: Counter; FromDevice(0) -> a; a -> b; b -> a;");
        assert!(e.contains("a is on a cycle") || e.contains("b is on a cycle"), "{e}");
    }

    #[test]
    fn compile_rejects_a_cycle_behind_a_tee_branch_but_not_a_diamond() {
        let e = compile_err(
            "t :: Tee(2); q :: Queue; FromDevice(0) -> t; t[0] -> ToDevice(1);\n\
             t[1] -> CheckIPHeader -> q -> t;",
        );
        assert!(e.contains("is on a cycle"), "{e}");
        compile(
            "t :: Tee(2); c :: Counter; FromDevice(0) -> t; t[0] -> c; t[1] -> c;\n\
             c -> ToDevice(1);",
        );
    }
}
