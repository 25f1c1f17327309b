//! The experiment harness behind `lvrm-exp`.
//!
//! Every figure of the paper's Chapter 4 has a module in [`figures`] that
//! regenerates it: it runs the relevant scenarios, prints the same
//! rows/series the paper plots, and writes a JSON copy under
//! `target/experiments/` for EXPERIMENTS.md. `lvrm-exp <figure>` runs one,
//! `lvrm-exp all` runs the lot.
//!
//! Scale: figures default to a **quick** profile sized for a laptop-class
//! machine (shorter flows, fewer trials than the paper's 60 s × 10). Set
//! `LVRM_EXP_FULL=1` for paper-scale runs.

use std::fs;
use std::path::PathBuf;

/// Whether to run paper-scale experiments (default: quick profile).
pub fn full_scale() -> bool {
    std::env::var("LVRM_EXP_FULL").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Where JSON results are written.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// A printable, serializable result table.
pub struct Table {
    pub experiment: String,
    pub figure: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// What the paper reports for this figure, for the EXPERIMENTS.md diff.
    pub paper_expectation: String,
}

impl Table {
    pub fn new(
        experiment: &str,
        figure: &str,
        title: &str,
        columns: &[&str],
        paper_expectation: &str,
    ) -> Table {
        Table {
            experiment: experiment.to_string(),
            figure: figure.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            paper_expectation: paper_expectation.to_string(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells);
    }

    /// Print as an aligned text table.
    pub fn print(&self) {
        println!("\n=== {} ({}) — {}", self.experiment, self.figure, self.title);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.columns));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        println!("paper: {}", self.paper_expectation);
    }

    /// Serialize as pretty-printed JSON (hand-rolled: the workspace builds
    /// without serde, see shims/README.md).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn arr(items: &[String]) -> String {
            format!("[{}]", items.iter().map(|s| esc(s)).collect::<Vec<_>>().join(", "))
        }
        let rows =
            self.rows.iter().map(|r| format!("    {}", arr(r))).collect::<Vec<_>>().join(",\n");
        format!(
            "{{\n  \"experiment\": {},\n  \"figure\": {},\n  \"title\": {},\n  \
             \"columns\": {},\n  \"rows\": [\n{}\n  ],\n  \"paper_expectation\": {}\n}}\n",
            esc(&self.experiment),
            esc(&self.figure),
            esc(&self.title),
            arr(&self.columns),
            rows,
            esc(&self.paper_expectation),
        )
    }

    /// Write JSON next to the other experiment outputs.
    pub fn save(&self) {
        let path = out_dir().join(format!("{}.json", self.experiment));
        if let Err(e) = fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    /// Print and save.
    pub fn finish(&self) {
        self.print();
        self.save();
    }
}

/// Format helpers used across the figures.
pub fn kfps(fps: f64) -> String {
    format!("{:.0}", fps / 1e3)
}

pub fn mbps(v: f64) -> String {
    format!("{v:.1}")
}

pub fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("exp0", "Fig 0.0", "smoke", &["a", "b"], "n/a");
        t.row(vec!["1".into(), "2".into()]);
        t.print();
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("exp0", "Fig 0.0", "smoke", &["a", "b"], "n/a");
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kfps(448_000.0), "448");
        assert_eq!(mbps(701.23), "701.2");
        assert_eq!(us(12_345.0), "12.3");
    }
}

pub mod figures;

/// Scenario-building helpers shared by the figure programs.
pub mod scenarios {
    use lvrm_core::SocketKind;
    use lvrm_runtime::pipeline::{
        run_lvrm_only_batched, run_lvrm_only_inline_batched, PipelineReport, PipelineVr,
    };
    use lvrm_testbed::scenario::{search_achievable, Scenario};
    use lvrm_testbed::{ForwardingMech, HypervisorKind, VrSpec, VrType};

    /// `(probe_duration_ns, warmup_ns, search_iterations)` for achievable-
    /// throughput searches, scaled by the quick/full profile.
    pub fn probe_times() -> (u64, u64, u32) {
        if super::full_scale() {
            (1_000_000_000, 250_000_000, 7)
        } else {
            (150_000_000, 50_000_000, 5)
        }
    }

    /// The six forwarding mechanisms of Experiment 1a, in paper order:
    /// `(label, mech, socket, vr_type)`.
    pub fn exp1_mechs() -> Vec<(&'static str, ForwardingMech, SocketKind, VrType)> {
        let cpp = VrType::Cpp { dummy_load_ns: 0 };
        let click = VrType::Click { dummy_load_ns: 0 };
        vec![
            ("native-linux", ForwardingMech::Native, SocketKind::PfRing, cpp),
            ("lvrm-cpp-raw", ForwardingMech::Lvrm, SocketKind::RawSocket, cpp),
            ("lvrm-cpp-pfring", ForwardingMech::Lvrm, SocketKind::PfRing, cpp),
            ("lvrm-click-pfring", ForwardingMech::Lvrm, SocketKind::PfRing, click),
            (
                "vmware-server",
                ForwardingMech::Hypervisor(HypervisorKind::VmwareServer),
                SocketKind::PfRing,
                cpp,
            ),
            (
                "qemu-kvm",
                ForwardingMech::Hypervisor(HypervisorKind::QemuKvm),
                SocketKind::PfRing,
                cpp,
            ),
        ]
    }

    /// A scenario for one Experiment-1 condition at an offered `rate_fps`.
    pub fn exp1_scenario(
        mech: ForwardingMech,
        socket: SocketKind,
        vr_type: VrType,
        wire_size: usize,
        rate_fps: f64,
    ) -> Scenario {
        let (dur, warm, _) = probe_times();
        let mut sc = Scenario::new(mech);
        sc.socket = socket;
        sc.vrs = vec![VrSpec::numbered(0, vr_type)];
        sc.duration_ns = dur;
        sc.warmup_ns = warm;
        sc.with_udp_load(0, wire_size, rate_fps, 8)
    }

    /// Achievable throughput (fps) for one condition, via the paper's 2 %
    /// loss rule.
    pub fn achievable(
        mech: ForwardingMech,
        socket: SocketKind,
        vr_type: VrType,
        wire_size: usize,
    ) -> f64 {
        let (_, _, iters) = probe_times();
        let hi = lvrm_net::wire::line_rate_fps(wire_size, lvrm_net::wire::GIGABIT);
        search_achievable(
            |r| exp1_scenario(mech, socket, vr_type, wire_size, r),
            hi / 100.0,
            hi,
            iters,
        )
    }

    /// Every cell of the LVRM-only figures (1c, 1d): each VR kind, monitor
    /// burst (the paper's 1 and the benchmark's 32, `BURST` in
    /// `benchmark/src/spec.rs`) and frame size, run threaded and inline on
    /// `frames` frames. `row` gets the leading cells (vr, mode, batch, frame
    /// size), the frame size and the report.
    pub fn pipeline_cells(
        figure: &str,
        frames: u64,
        mut row: impl FnMut(Vec<String>, usize, &PipelineReport),
    ) {
        for vr in [PipelineVr::Cpp, PipelineVr::Click] {
            for batch in [1, 32] {
                for size in frame_sizes() {
                    eprintln!("[{figure}] {vr:?} batch {batch} {size}B ...");
                    // Threaded: the paper's architecture verbatim
                    // (timeslice-bound on few-core hosts). Inline: the VRI
                    // serviced on the monitor's thread — the per-frame
                    // software cost, the honest bound.
                    for (mode, r) in [
                        ("threaded", run_lvrm_only_batched(vr, size, frames, 1, batch)),
                        ("inline", run_lvrm_only_inline_batched(vr, size, frames, batch)),
                    ] {
                        let lead = vec![
                            format!("{vr:?}"),
                            mode.into(),
                            batch.to_string(),
                            size.to_string(),
                        ];
                        row(lead, size, &r);
                    }
                }
            }
        }
    }

    /// The frame-size sweep the figures use (quick profile trims it).
    pub fn frame_sizes() -> Vec<usize> {
        if super::full_scale() {
            lvrm_net::wire::FRAME_SIZE_SWEEP.to_vec()
        } else {
            vec![84, 256, 512, 1024, 1538]
        }
    }
}
