//! One run, start to result line: set-ups, phases, output checks, metrics.

use std::time::Instant;

use lvrm_core::{Checkpoint, CheckpointDelta, LvrmStats};
use lvrm_metrics::MetricsSnapshot;
use lvrm_runtime::affinity::pin_to_core;

use crate::alloc_count;
use crate::gen::Plan;
use crate::probes;
use crate::rig::{
    closed_phase, open_phase, setup, teardown, Built, ClosedResult, SetupTimes, Sink,
};
use crate::spec::{Kind, Metric, Workload, BURST, END_TO_END, PER_LAYER, SETUPS};
use crate::stats::{median, quantile, second_fastest, Quiet};
use crate::trace::{Layer, Tracer};

/// Individual spans kept for the trace file; totals cover the whole segment.
const TRACE_SPANS: usize = 50_000;

/// Milliseconds the hypervisor ran someone else while a vCPU of ours was
/// runnable, since boot (`steal` of `/proc/stat`, in 10-ms ticks).
fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Flow-table counters summed over VRs, from the monitor's own registry.
#[derive(Clone, Copy, Default)]
struct FlowCounters {
    hits: u64,
    fresh: u64,
    evictions: u64,
    overflows: u64,
    age_slots: u64,
    capacity_share: f64,
}

fn flow_counters(m: &MetricsSnapshot) -> FlowCounters {
    let occ = m.family("lvrm_vr_flow_occupancy").map_or(0.0, |f| {
        let n = f.series.len().max(1) as f64;
        f.series.iter().filter_map(|s| s.as_gauge()).sum::<f64>() / n
    });
    FlowCounters {
        hits: m.counter_sum("lvrm_vr_flow_sticky_total"),
        fresh: m.counter_sum("lvrm_vr_flow_fresh_total"),
        evictions: m.counter_sum("lvrm_vr_flow_evictions_total"),
        overflows: m.counter_sum("lvrm_vr_flow_overflows_total"),
        age_slots: m.counter_sum("lvrm_vr_flow_age_sweep_slots_total"),
        capacity_share: occ,
    }
}

fn kfps(frames: f64, ns: f64) -> f64 {
    frames / ns * 1e6
}

struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn put(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }
}

fn result_line(attempted: u64, wanted: &[Metric], v: &Values) -> Result<String, String> {
    use std::fmt::Write;
    let mut s =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, m) in wanted.iter().enumerate() {
        let (_, value) =
            v.0.iter()
                .find(|(n, _)| *n == m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not a number: {value}", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    Ok(s)
}

/// Set-ups run before each half of the phases, and after the second: seven
/// in all, spread over the run so that one loud stretch of the host cannot
/// cover them all.
const SETUP_ROUNDS: [usize; 3] = [3, 2, 2];

/// One half of a run: a monitor set up afresh, half the closed loop, half
/// the open loop, every output check — and the monitor, still standing.
struct Half {
    built: Built,
    sink: Sink,
    closed: ClosedResult,
    late_ns: Vec<u32>,
    offered: u64,
    /// Monitor counters after the warm-up and after the phases.
    warm: LvrmStats,
    end: LvrmStats,
    /// Flow counters and allocations around the closed loop.
    flow_before: FlowCounters,
    flow_after: FlowCounters,
    allocs: (u64, u64),
}

/// `n` complete set-ups, each but the last torn down again; their timings
/// go to `times`.
fn set_up(plan: &Plan, n: usize, times: &mut Vec<SetupTimes>) -> Built {
    for _ in 1..n {
        let b = setup(plan);
        times.push(b.times);
        teardown(b);
    }
    let b = setup(plan);
    times.push(b.times);
    b
}

#[allow(clippy::too_many_arguments)]
fn run_half(
    plan: &Plan,
    setups: usize,
    closed_slices: usize,
    open_slices: usize,
    tr: &mut Tracer,
    traced: bool,
    keep_hist: bool,
    times: &mut Vec<SetupTimes>,
) -> Result<Half, String> {
    let w = plan.workload;
    let mut b = set_up(plan, setups, times);
    let warm = b.lvrm.stats();
    let offered =
        (closed_slices * w.closed_slice_frames() + open_slices * w.open_slice_frames) as u64;
    let mut sink = Sink::new(b.next_seq, offered, keep_hist);

    // Registry snapshots and allocation counts frame the traced loop only.
    let flows = |b: &Built| {
        if traced {
            flow_counters(&b.lvrm.metrics_snapshot())
        } else {
            FlowCounters::default()
        }
    };
    let flow_before = flows(&b);
    let a0 = alloc_count::counted();
    alloc_count::set_counting(traced);
    tr.set_on(traced);
    let closed = closed_phase(&mut b, plan, &mut sink, tr, closed_slices);
    tr.set_on(false);
    alloc_count::set_counting(false);
    let a1 = alloc_count::counted();
    let flow_after = flows(&b);
    let late_ns = open_phase(&mut b, plan, &mut sink, tr, open_slices);

    // Output checks: any failure fails the run and prints no result.
    let end = b.lvrm.stats();
    let (missing_profile, _) = sink.missing(plan, offered);
    let residual = b.ledger_residual();
    let mut broken: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    check(residual == 0, format!("ledger residual {residual} against Lvrm::stats()"));
    let taken = b.warmup_delivered + sink.delivered();
    check(
        end.frames_out == taken,
        format!("monitor says {} frames out, sink took {taken}", end.frames_out),
    );
    check(sink.duplicates == 0, format!("{} frames delivered twice", sink.duplicates));
    check(sink.out_of_range == 0, format!("{} frames nobody offered", sink.out_of_range));
    check(missing_profile == 0, format!("{missing_profile} in-profile frames never delivered"));
    check(sink.leaked == 0, format!("{} frames left on another tenant's interface", sink.leaked));
    check(sink.deep_checked > 0, "no egress frame was inspected".to_string());
    check(
        sink.deep_failed == 0,
        format!(
            "{} of {} inspected frames altered, corrupt or misrouted",
            sink.deep_failed, sink.deep_checked
        ),
    );
    check(
        sink.slice_medians.len() + 1 >= open_slices,
        format!("{} latency slices of {open_slices}", sink.slice_medians.len()),
    );
    if !broken.is_empty() {
        return Err(format!("{} ({end:?})", broken.join("; ")));
    }
    Ok(Half {
        built: b,
        sink,
        closed,
        late_ns,
        offered,
        warm,
        end,
        flow_before,
        flow_after,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
    })
}

pub fn run(w: &'static Workload, seed: u64, seconds: u32, trace: bool) -> Result<String, String> {
    let steal0 = steal_ms();
    let plan = Plan::build(w, seed);
    // A pinned thread's children inherit its one-CPU mask and cannot pin
    // themselves elsewhere. So the cross-core probes run first, and
    // `relay64`'s monitor thread is never pinned: its VRI thread pins itself
    // to core 1 and spins there, which leaves core 0 to the monitor. The
    // inline workloads have one thread, pinned to core 0.
    let cross = trace.then(probes::cross_core);
    if w.kind != Kind::Relay64 {
        pin_to_core(0);
    }

    // Two halves, each on a monitor of its own: closed, open, closed, open.
    // A traced run traces the second half's closed loop, so the first's is
    // its untraced reference.
    let mut tr = Tracer::new(if trace { TRACE_SPANS } else { 0 });
    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let (c, o) = (w.closed_slices(seconds), w.open_slices(seconds));
    let first = run_half(&plan, SETUP_ROUNDS[0], c / 2, o / 2, &mut tr, false, trace, &mut times)?;
    let Half {
        built,
        sink: sink0,
        closed: plain,
        late_ns: late0,
        offered: offered0,
        warm: w0,
        end: e0,
        ..
    } = first;
    teardown(built);
    let second =
        run_half(&plan, SETUP_ROUNDS[1], c - c / 2, o - o / 2, &mut tr, trace, trace, &mut times)?;

    let offered = offered0 + second.offered;
    let profile_share = (BURST - plan.flood_per_burst) as u64;
    let offered_profile = offered / BURST as u64 * profile_share;
    let delivered = sink0.delivered() + second.sink.delivered();
    let delivered_profile = sink0.delivered_profile + second.sink.delivered_profile;
    let slice_frames = w.closed_slice_frames() as f64;
    let mut medians = sink0.slice_medians.clone();
    medians.extend_from_slice(&second.sink.slice_medians);
    let lat = Quiet::of(&medians);

    if !trace {
        let Half { built, closed, .. } = second;
        teardown(built);
        teardown(set_up(&plan, SETUP_ROUNDS[2], &mut times));
        let totals: Vec<f64> = times.iter().map(|t| t.total_s).collect();
        let mut slice_ns = plain.slice_ns;
        slice_ns.extend_from_slice(&closed.slice_ns);
        let mut v = Values(Vec::new());
        v.put("throughput_kfps", kfps(slice_frames, Quiet::of(&slice_ns).quiet));
        v.put("latency_p50_ns", lat.quiet);
        v.put("delivered_pct", delivered as f64 / offered as f64 * 100.0);
        v.put("inprofile_delivered_pct", delivered_profile as f64 / offered_profile as f64 * 100.0);
        v.put("peak_rss_mib", peak_rss_mib()?);
        v.put("setup_s", second_fastest(&totals));
        return result_line(offered_profile, &END_TO_END, &v);
    }

    // ---- the traced pass: per-layer metrics ------------------------------
    let Half {
        built: b,
        sink,
        closed: tc,
        late_ns: late1,
        warm,
        end,
        flow_before: flow0,
        flow_after: flow1,
        allocs,
        ..
    } = second;
    let totals: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    let setup_s = second_fastest(&totals);
    let reported =
        *times.iter().find(|t| t.total_s == setup_s).expect("the second fastest is one of them");
    let tput = Quiet::of(&plain.slice_ns);
    let residual = b.ledger_residual();
    let mut v = Values(Vec::new());
    let tf = tc.frames as f64;
    let wall = tc.wall_ns as f64;
    let self_ns = |l: Layer| tr.total(l).self_ns as f64;
    let total_ns = |l: Layer| tr.total(l).total_ns as f64;
    let traced_tput = Quiet::of(&tc.slice_ns);
    let pr = probes::run(&plan);
    let cross = cross.expect("traced runs probe the cross-core queues first");

    v.put("net.parse_ns_per_frame", pr.parse_ns);
    v.put("net.flowkey_ns_per_frame", pr.flowkey_ns);
    v.put("net.cow_copy_ns_per_frame", pr.cow_copy_ns);
    v.put("router.lpm_lookup_ns", pr.lpm_lookup_ns);
    v.put("router.fastvr_ns_per_frame", pr.fastvr_ns);
    v.put("click.process_ns_per_frame", pr.click_process_ns);
    v.put("click.config_parse_us", pr.click_config_parse_us);
    v.put("ipc.spsc_cross_ns_per_op", cross.spsc_ns);
    v.put("ipc.vlink_cross_ns_per_op", cross.vlink_ns);
    v.put("ipc.spsc_local_ns_per_op", pr.spsc_local_ns);
    v.put("core.flowtable.find_hit_ns", pr.find_hit_ns);
    v.put("core.flowtable.miss_insert_ns", pr.miss_insert_ns);
    v.put("core.flowtable.age_ns_per_slot", pr.age_ns_per_slot);
    v.put("core.balance.pick_ns", pr.pick_ns);
    v.put("metrics.hist_record_ns", pr.hist_record_ns);
    v.put("metrics.ewma_update_ns", pr.ewma_update_ns);

    v.put("ipc.queue_depth_mean", tc.depth_sum as f64 / tc.depth_samples.max(1) as f64);
    v.put("ipc.queue_depth_max", tc.depth_max as f64);
    v.put(
        "ipc.enqueue_refused",
        (end.dispatch_drops - warm.dispatch_drops + e0.dispatch_drops - w0.dispatch_drops) as f64,
    );
    v.put("core.ingress_ns_per_frame", self_ns(Layer::CoreIngress) / tf);
    v.put("core.egress_ns_per_frame", self_ns(Layer::CoreEgress) / tf);
    v.put("core.flowtable.occupancy", flow1.capacity_share * 100.0);
    v.put("core.flowtable.evictions", flow1.evictions as f64);
    let snaps = b.lvrm.snapshot();
    let admitted: u64 = snaps.iter().map(|s| s.admitted).sum();
    let classified: u64 = snaps.iter().map(|s| s.frames_in).sum();
    v.put("core.admit_ratio", admitted as f64 / classified.max(1) as f64);
    v.put(
        "core.shed_early",
        (end.shed_early - warm.shed_early + e0.shed_early - w0.shed_early) as f64,
    );
    v.put(
        "core.unclassified",
        (end.unclassified - warm.unclassified + e0.unclassified - w0.unclassified) as f64,
    );
    v.put("core.vris", snaps.iter().map(|s| s.vris.len()).sum::<usize>() as f64);
    v.put("core.ledger_residual", residual as f64);

    let rounds = tr.total(Layer::Control).calls.max(1) as f64;
    v.put("core.control_ns_per_round", total_ns(Layer::Control) / rounds);
    v.put("core.control_share_pct", total_ns(Layer::Control) / wall * 100.0);
    let ticks_us: Vec<f64> = b.control.tick_ns.iter().map(|t| f64::from(*t) / 1e3).collect();
    v.put("core.tick_us_p50", if ticks_us.is_empty() { 0.0 } else { median(&ticks_us) });
    v.put("core.tick_us_max", ticks_us.iter().copied().fold(0.0, f64::max));
    v.put("core.ticks", b.control.rounds as f64);

    // A checkpoint of the monitor as the run left it, timed piece by piece.
    let now = end.frames_in * crate::spec::NS_PER_FRAME;
    let timed = |f: &mut dyn FnMut()| {
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&runs)
    };
    let mut ck = b.lvrm.build_checkpoint(now);
    v.put("core.checkpoint.build_us", timed(&mut || ck = b.lvrm.build_checkpoint(now)));
    let mut bytes = ck.encode();
    v.put("core.checkpoint.encode_us", timed(&mut || bytes = ck.encode()));
    let mut decoded = true;
    v.put(
        "core.checkpoint.decode_us",
        timed(&mut || decoded &= Checkpoint::decode(&bytes).is_ok()),
    );
    if !decoded {
        return Err("the monitor's own checkpoint does not decode".to_string());
    }
    let later = b.lvrm.build_checkpoint(now + 1);
    v.put(
        "core.checkpoint.delta_diff_us",
        timed(&mut || {
            std::hint::black_box(CheckpointDelta::diff(&ck, &later, 1));
        }),
    );
    v.put("core.checkpoint.bytes", bytes.len() as f64);
    let mut text = String::new();
    v.put("metrics.render_us", timed(&mut || text = b.lvrm.render_prometheus()));
    v.put("metrics.render_bytes", text.len() as f64);

    v.put("core.setup.new_us", reported.new_us);
    v.put("core.setup.add_vr_us", reported.add_vr_us);
    v.put("core.setup.warmup_ms", reported.warmup_ms);
    v.put("runtime.spawn_us", reported.spawn_us);
    v.put("runtime.vri_processed", b.host.processed() as f64);
    v.put("runtime.pin_failures", b.host.pin_failures() as f64);
    v.put(
        "runtime.monitor_empty_polls_pct",
        tc.empty_polls as f64 / tc.polls.max(1) as f64 * 100.0,
    );
    v.put("runtime.inflight_mean", tc.inflight_sum as f64 / tc.bursts.max(1) as f64);

    v.put("path.ns_per_frame", tput.median / slice_frames);
    v.put("path.throughput_median_kfps", kfps(slice_frames, tput.median));
    let mut hist = sink0.hist.clone().expect("traced runs keep a latency histogram");
    hist.merge(sink.hist.as_ref().expect("traced runs keep a latency histogram"));
    v.put("path.latency_p90_ns", hist.percentile_ns(0.90) as f64);
    v.put("path.latency_p99_ns", hist.percentile_ns(0.99) as f64);
    v.put("path.latency_max_ns", hist.max_ns() as f64);
    v.put("path.latency_samples", (sink0.lat_samples + sink.lat_samples) as f64);
    v.put("path.allocs_per_frame", allocs.0 as f64 / tf);
    v.put("path.alloc_bytes_per_frame", allocs.1 as f64 / tf);
    let attributed = tr.attributed_ns() as f64;
    v.put("path.span_residual_pct", (wall - attributed) / wall * 100.0);

    v.put("bench.trace_overhead_pct", (1.0 - tput.quiet / traced_tput.quiet) * 100.0);
    let late: Vec<f64> = late0.iter().chain(&late1).map(|l| f64::from(*l)).collect();
    v.put("bench.gen_late_p99_ns", quantile(&late, 0.99));
    v.put("bench.host_noise_pct", tput.noise_pct());
    v.put("bench.steal_ms", steal_ms() - steal0);
    v.put("bench.slices", (plain.slice_ns.len() + tc.slice_ns.len() + medians.len()) as f64);

    // Shares of the traced wall time. Spans give what each call cost; the
    // probes split `ingress_batch` into the layers it hides, priced per
    // operation and multiplied by the operations the monitor counted.
    let hits = (flow1.hits - flow0.hits) as f64;
    let fresh = (flow1.fresh - flow0.fresh) as f64;
    let aged = (flow1.age_slots - flow0.age_slots) as f64;
    let flow_read = tf * (pr.parse_ns + pr.lpm_lookup_ns)
        + (hits + fresh) * pr.flowkey_ns
        + hits * pr.find_hit_ns;
    let flow_write = fresh * pr.miss_insert_ns + aged * pr.age_ns_per_slot;
    let dispatch = self_ns(Layer::CoreIngress)
        + self_ns(Layer::CoreEgress)
        + self_ns(Layer::IpcDequeue)
        + self_ns(Layer::IpcEnqueue);
    let inside_ingress = (flow_read + flow_write).min(self_ns(Layer::CoreIngress));
    let scale =
        if flow_read + flow_write > 0.0 { inside_ingress / (flow_read + flow_write) } else { 0.0 };
    let pct = |ns: f64| ns / wall * 100.0;
    v.put("share.rig_pct", pct(self_ns(Layer::RigGen) + self_ns(Layer::RigSink)));
    v.put("share.dispatch_ipc_pct", pct(dispatch - inside_ingress));
    v.put("share.flow_hit_lpm_pct", pct(flow_read * scale + self_ns(Layer::RouterProcess)));
    v.put("share.flow_write_shed_pct", pct(flow_write * scale));
    v.put(
        "share.control_click_copy_pct",
        pct(total_ns(Layer::Control) + self_ns(Layer::ClickProcess)),
    );
    v.put("span.rig_gen_ns_per_frame", self_ns(Layer::RigGen) / tf);
    v.put("span.rig_sink_ns_per_frame", self_ns(Layer::RigSink) / tf);
    v.put("span.vri_dequeue_ns_per_frame", self_ns(Layer::IpcDequeue) / tf);
    v.put("span.vri_enqueue_ns_per_frame", self_ns(Layer::IpcEnqueue) / tf);
    v.put(
        "span.vr_process_ns_per_frame",
        (self_ns(Layer::RouterProcess) + self_ns(Layer::ClickProcess)) / tf,
    );
    v.put("span.control_ns_per_frame", total_ns(Layer::Control) / tf);

    v.put("count.offered", offered as f64);
    v.put("count.delivered", delivered as f64);
    v.put("count.flood_delivered", (sink0.delivered_flood + sink.delivered_flood) as f64);
    v.put("count.flowtable.overflows", flow1.overflows as f64);

    let dir = std::env::var("LVRM_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{}.trace.json", w.name);
    std::fs::write(&path, tr.to_json(w.name, tc.wall_ns)).map_err(|e| format!("{path}: {e}"))?;

    result_line(offered_profile, &PER_LAYER, &v)
}
