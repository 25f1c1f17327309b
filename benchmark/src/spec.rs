//! The benchmark's one specification: workloads, metrics, units, directions,
//! bounds, rates and slice sizes. `BENCHMARK.json` is rendered from here
//! (`run.sh --print-benchmark-json`) and a test fails when the committed
//! file differs. Nothing in this file is adapted at run time.

/// How long one run measures at reference capacity. The issue asks for
/// 30 s; the driver's cap (4 + 22 x 4 runs and two builds in 3420 s) admits
/// less once set-up and a slow host are allowed for, so all four workloads
/// are shortened equally.
pub const RUN_SECONDS: u32 = 26;

/// Frames per generator burst and `LvrmConfig::batch_size`.
pub const BURST: usize = 32;

/// Monitor-clock nanoseconds each offered frame is worth. The monitor runs
/// on a `ManualClock` the rig advances by this much per frame, so ticks,
/// aging, pressure and shedding follow the frame count and not host speed.
/// A frame's `ts_ns` is `(seq + 1) * NS_PER_FRAME`: its arrival time at the
/// nominal rate, and the way the sink recognises it again.
pub const NS_PER_FRAME: u64 = 1024;

/// Complete set-ups (and teardowns) per run; the second fastest is reported.
pub const SETUPS: usize = 7;

/// Most frames a threaded workload keeps between generator and sink.
pub const WINDOW: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Relay64,
    Flows1m,
    Synflood2x,
    CtrlClick1518,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Frame size on the wire (preamble, FCS and inter-frame gap included,
    /// as the paper counts it): 84 for a 64-byte frame, 1538 for 1518.
    pub wire_size: usize,
    /// Bursts per closed-loop slice: about 1 ms of work at reference
    /// capacity (about one control round for `ctrl_click1518`).
    pub closed_slice_bursts: usize,
    /// Closed-loop slices per second of `--seconds`, sized so the phase
    /// takes 45% of the run at reference capacity.
    pub closed_slices_per_s: usize,
    /// Open-loop offered rate, about 40% of reference capacity.
    pub open_rate_kfps: u32,
    /// Frames per open-loop slice (the latency samples behind one median).
    pub open_slice_frames: usize,
    /// Open-loop slices per second of `--seconds` (45% of the run).
    pub open_slices_per_s: usize,
    /// Frames pushed through before the set-up counts as done.
    pub warmup_frames: usize,
    /// Every inline workload ticks the monitor (`maybe_reallocate`) once per
    /// `closed_slice_bursts` bursts, in both loops. With this set, the tick
    /// is a full control round: heartbeats, control relay, checkpoint build,
    /// encode and delta, Prometheus render.
    pub control_rounds: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::Relay64,
        name: "relay64",
        why: "64-B frames, 1 VR, 64 flows, one FastVr VRI on its own pinned thread over lamport queues: bare forwarding, where monitor dispatch and the cross-core queue hop are the whole bill (paper Exp. 1c/1d)",
        wire_size: 84,
        closed_slice_bursts: 192,
        closed_slices_per_s: 450,
        open_rate_kfps: 2000,
        open_slice_frames: 4000,
        open_slices_per_s: 225,
        warmup_frames: 1 << 19,
        control_rounds: false,
    },
    Workload {
        kind: Kind::Flows1m,
        name: "flows1m",
        why: "2^20 concurrent flows over 16 VRs x 2 VRIs behind 256 classifier prefixes, flow-based JSQ, VRIs inline: parsing, LPM and flow-table hits on a working set far beyond L2; queues stay same-core",
        wire_size: 84,
        closed_slice_bursts: 42,
        closed_slices_per_s: 450,
        open_rate_kfps: 500,
        open_slice_frames: 1024,
        open_slices_per_s: 220,
        warmup_frames: 1 << 20,
        control_rounds: false,
    },
    Workload {
        kind: Kind::Synflood2x,
        name: "synflood2x",
        why: "never-seen 5-tuples at 2x a victim VR's service pace beside an in-profile bystander VR: flow-table miss, insert, aging and eviction plus pressure, DRR shedding and queue refusal; isolation must hold",
        wire_size: 84,
        closed_slice_bursts: 160,
        closed_slices_per_s: 450,
        open_rate_kfps: 1600,
        open_slice_frames: 2048,
        open_slices_per_s: 351,
        warmup_frames: 1 << 19,
        control_rounds: false,
    },
    Workload {
        kind: Kind::CtrlClick1518,
        name: "ctrl_click1518",
        why: "1518-B frames, 2^13 flows (512 hot), 4 ClickVr tenants (5 elements, 256 routes), latency histograms on, a full control round (tick, relay, checkpoint, delta, render) per slice: control, click, copies",
        wire_size: 1538,
        closed_slice_bursts: 64,
        closed_slices_per_s: 140,
        open_rate_kfps: 250,
        open_slice_frames: 2048,
        open_slices_per_s: 55,
        warmup_frames: 1 << 16,
        control_rounds: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn closed_slices(&self, seconds: u32) -> usize {
        self.closed_slices_per_s * seconds as usize
    }

    pub fn open_slices(&self, seconds: u32) -> usize {
        self.open_slices_per_s * seconds as usize
    }

    pub fn closed_slice_frames(&self) -> usize {
        self.closed_slice_bursts * BURST
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

pub const END_TO_END: [Metric; 6] = [
    // The issue wanted a tenth on every timing. On this host the DRAM-bound
    // workload (`flows1m`) moves 8-15% between runs of one binary whatever
    // the estimator (README.md, "What the host allows"), so the three
    // timings carry the widest bound the contract has; the cached
    // workloads repeat within 3%.
    e2e("throughput_kfps", "kframes/s", Better::Higher, 0.25),
    e2e("latency_p50_ns", "ns", Better::Lower, 0.25),
    e2e("delivered_pct", "%", Better::Higher, 0.001),
    e2e("inprofile_delivered_pct", "%", Better::Higher, 0.001),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

pub const PER_LAYER: [Metric; 77] = [
    lo("net.parse_ns_per_frame", "ns"),
    lo("net.flowkey_ns_per_frame", "ns"),
    lo("net.cow_copy_ns_per_frame", "ns"),
    lo("router.lpm_lookup_ns", "ns"),
    lo("router.fastvr_ns_per_frame", "ns"),
    lo("click.process_ns_per_frame", "ns"),
    lo("click.config_parse_us", "us"),
    lo("ipc.spsc_cross_ns_per_op", "ns"),
    lo("ipc.vlink_cross_ns_per_op", "ns"),
    lo("ipc.spsc_local_ns_per_op", "ns"),
    lo("ipc.queue_depth_mean", "count"),
    lo("ipc.queue_depth_max", "count"),
    lo("ipc.enqueue_refused", "count"),
    lo("core.ingress_ns_per_frame", "ns"),
    lo("core.egress_ns_per_frame", "ns"),
    lo("core.flowtable.find_hit_ns", "ns"),
    lo("core.balance.pick_ns", "ns"),
    lo("core.flowtable.miss_insert_ns", "ns"),
    lo("core.flowtable.age_ns_per_slot", "ns"),
    lo("core.flowtable.occupancy", "%"),
    lo("core.flowtable.evictions", "count"),
    hi("core.admit_ratio", "ratio"),
    lo("core.shed_early", "count"),
    lo("core.unclassified", "count"),
    lo("core.vris", "count"),
    lo("core.ledger_residual", "count"),
    lo("core.control_ns_per_round", "ns"),
    lo("core.control_share_pct", "%"),
    lo("core.tick_us_p50", "us"),
    lo("core.tick_us_max", "us"),
    lo("core.ticks", "count"),
    lo("core.checkpoint.build_us", "us"),
    lo("core.checkpoint.encode_us", "us"),
    lo("core.checkpoint.decode_us", "us"),
    lo("core.checkpoint.delta_diff_us", "us"),
    lo("core.checkpoint.bytes", "bytes"),
    lo("core.setup.new_us", "us"),
    lo("core.setup.add_vr_us", "us"),
    lo("core.setup.warmup_ms", "ms"),
    lo("metrics.render_us", "us"),
    lo("metrics.render_bytes", "bytes"),
    lo("metrics.hist_record_ns", "ns"),
    lo("metrics.ewma_update_ns", "ns"),
    lo("runtime.spawn_us", "us"),
    hi("runtime.vri_processed", "count"),
    lo("runtime.pin_failures", "count"),
    lo("runtime.monitor_empty_polls_pct", "%"),
    lo("runtime.inflight_mean", "count"),
    lo("path.ns_per_frame", "ns"),
    hi("path.throughput_median_kfps", "kframes/s"),
    lo("path.latency_p90_ns", "ns"),
    lo("path.latency_p99_ns", "ns"),
    lo("path.latency_max_ns", "ns"),
    hi("path.latency_samples", "count"),
    lo("path.allocs_per_frame", "count"),
    lo("path.alloc_bytes_per_frame", "bytes"),
    lo("path.span_residual_pct", "%"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.gen_late_p99_ns", "ns"),
    lo("bench.host_noise_pct", "%"),
    lo("bench.steal_ms", "ms"),
    hi("bench.slices", "count"),
    // Self-time shares of the traced closed loop (spans, split by probes
    // where a span hides several layers): which layer pays on which workload.
    lo("share.rig_pct", "%"),
    lo("share.dispatch_ipc_pct", "%"),
    lo("share.flow_hit_lpm_pct", "%"),
    lo("share.flow_write_shed_pct", "%"),
    lo("share.control_click_copy_pct", "%"),
    // Span self times behind the shares, per frame of the traced segment.
    lo("span.rig_gen_ns_per_frame", "ns"),
    lo("span.rig_sink_ns_per_frame", "ns"),
    lo("span.vri_dequeue_ns_per_frame", "ns"),
    lo("span.vri_enqueue_ns_per_frame", "ns"),
    lo("span.vr_process_ns_per_frame", "ns"),
    lo("span.control_ns_per_frame", "ns"),
    // Counts that must repeat exactly for a given (workload, seed, seconds).
    hi("count.offered", "count"),
    hi("count.delivered", "count"),
    lo("count.flood_delivered", "count"),
    lo("count.flowtable.overflows", "count"),
];

#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m.better),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_spec() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with benchmark/run.sh --print-benchmark-json"
        );
    }

    #[test]
    fn spec_is_inside_the_contract() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "unit {}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: no bound above the contract's quarter", m.name);
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(benchmark_json().len() < 64 * 1024);
        }
    }

    #[test]
    fn phases_fill_the_run_and_slices_hold_enough_samples() {
        for w in &WORKLOADS {
            // Open loop: slices x frames / rate is 45% of the run.
            let open_s = w.open_slices(100) as f64 * w.open_slice_frames as f64
                / (f64::from(w.open_rate_kfps) * 1e3);
            assert!((40.0..=50.0).contains(&open_s), "{}: open phase {open_s} s per 100", w.name);
            assert!(w.open_slice_frames >= 1000, "{}", w.name);
            // The warm-up is whole bursts, and so is a control period.
            assert_eq!(w.warmup_frames % BURST, 0);
        }
    }
}
