//! Warm-restart cost: periodic checkpoints on the hot path, restore latency.
//!
//! Checkpointing rides the lazy reallocation tick (DESIGN.md §10): at most
//! once per `checkpoint_interval_ns` the monitor serialises its control
//! plane — cumulative stats, per-VR balancer state, and (when flow-based)
//! the flow table — and atomically renames it into place. This figure
//! measures two things against the batched inline pipeline:
//!
//!   * the end-to-end throughput cost of enabling checkpoints at the
//!     default 1 s cadence (and at an aggressive 100 ms cadence, a 10×
//!     upper bound on the default);
//!   * the per-write blob size and encode+write cost, and the restore
//!     (decode+import) cost, as the exported flow table grows — from which
//!     the steady-state overhead at any cadence follows directly.
//!
//! Budget (EXPERIMENTS.md): checkpointing at 1 s cadence within 3% of
//! checkpoints-off at batch 32. Each configuration runs several trials and
//! reports the best, since a shared CI box jitters more than the deltas.

use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::time::Instant;

use crate::{full_scale, kfps, Table};
use lvrm_core::clock::{Clock, ManualClock, MonotonicClock};
use lvrm_core::host::RecordingHost;
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::{Lvrm, LvrmConfig, MemTraceAdapter};
use lvrm_net::{Trace, TraceSpec};

const BATCH: usize = 32;
const WIRE_SIZE: usize = 84;
const TRIALS: usize = 3;
/// Writes per flow-scaling measurement (best-of).
const WRITES: usize = 32;

fn routed_vr() -> Box<dyn lvrm_router::VirtualRouter> {
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    Box::new(lvrm_router::FastVr::new("cpp", routes))
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lvrm-exp-warm-restart");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.ck", std::process::id()))
}

/// One inline-batched run; returns (fps, checkpoint writes). Every
/// configuration runs the same burst (`Lvrm::run_burst`, lazy tick
/// included), so only the writes differ.
fn run_once(total_frames: u64, checkpoint_interval_ns: Option<u64>) -> (f64, u64) {
    let clock = MonotonicClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let path = temp_path("pipeline");
    let config = LvrmConfig {
        batch_size: BATCH,
        checkpoint_path: checkpoint_interval_ns.map(|_| path.clone()),
        checkpoint_interval_ns: checkpoint_interval_ns.unwrap_or(1_000_000_000),
        ..LvrmConfig::default()
    };
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
    let trace = Trace::generate(&TraceSpec::new(WIRE_SIZE, 64));
    let mut adapter = MemTraceAdapter::new(trace, total_frames);
    let mut forwarded = 0u64;
    let t0 = clock.now_ns();
    while !adapter.exhausted() {
        forwarded += lvrm.run_burst(&mut adapter, &mut host) as u64;
    }
    let elapsed_ns = clock.now_ns() - t0;
    let writes = lvrm.metrics_snapshot().counter("lvrm_checkpoint_writes_total", &[]).unwrap_or(0);
    if checkpoint_interval_ns.is_some() {
        std::fs::remove_file(&path).ok();
    }
    (forwarded as f64 * 1e9 / elapsed_ns as f64, writes)
}

/// Per-write and restore cost with `flows` live entries in the flow table;
/// returns (blob bytes, best write µs, best restore µs).
fn checkpoint_cost(flows: usize) -> (usize, f64, f64) {
    let clock = ManualClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let config = LvrmConfig {
        batch_size: BATCH,
        flow_based: true,
        flow_table_capacity: flows.next_power_of_two() * 2,
        ..LvrmConfig::default()
    };
    let mut lvrm = Lvrm::new(config.clone(), cores.clone(), clock.clone());
    let mut host = RecordingHost::default();
    let _ = lvrm.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
    // Touch every flow once so the table holds `flows` live entries.
    let trace = Trace::generate(&TraceSpec::new(WIRE_SIZE, flows));
    let mut adapter = MemTraceAdapter::new(trace, flows as u64);
    while !adapter.exhausted() {
        lvrm.run_burst(&mut adapter, &mut host);
    }
    let path = temp_path(&format!("flows-{flows}"));
    let mut write_us = f64::INFINITY;
    for i in 0..WRITES {
        let t = Instant::now();
        assert!(lvrm.checkpoint_to(&path, 1_000 + i as u64), "checkpoint write must succeed");
        write_us = write_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    let bytes = std::fs::metadata(&path).unwrap().len() as usize;
    let mut restore_us = f64::INFINITY;
    for _ in 0..TRIALS {
        let mut fresh = Lvrm::new(config.clone(), cores.clone(), clock.clone());
        let mut fresh_host = RecordingHost::default();
        let _ =
            fresh.add_vr("vr0", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut fresh_host);
        let t = Instant::now();
        let restored = fresh.restore_from(&path, &mut fresh_host).expect("restore must succeed");
        restore_us = restore_us.min(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(restored, 1, "the checkpointed VR must be matched");
    }
    std::fs::remove_file(&path).ok();
    (bytes, write_us, restore_us)
}

pub fn run() {
    let frames: u64 = if full_scale() { 2_000_000 } else { 400_000 };
    let rounds = if full_scale() { 7 } else { TRIALS };
    println!(
        "running on {} core(s), {} frames/trial, best of {rounds}",
        lvrm_runtime::affinity::available_cores(),
        frames
    );

    let mut pipeline = Table::new(
        "exp_warm_restart",
        "DESIGN §10",
        "checkpoint overhead on the batched inline pipeline (batch 32, 84 B frames)",
        &["config", "Kfps", "writes", "vs off"],
        "budget: checkpointing at the default 1 s cadence within 3% of \
         checkpoints-off at batch 32; the A/B delta sits below shared-box \
         noise — the write-cost table below is the authoritative number",
    );
    let configs: [(&str, Option<u64>); 3] = [
        ("checkpoint off", None),
        ("checkpoint 1 s", Some(1_000_000_000)),
        ("checkpoint 100 ms", Some(100_000_000)),
    ];
    // Interleave the configurations round-robin so slow drift on a shared
    // box lands on all of them instead of biasing whole blocks.
    let mut best = [0.0f64; 3];
    let mut writes = [0u64; 3];
    for _ in 0..rounds {
        for (i, (_, interval)) in configs.iter().enumerate() {
            let (fps, w) = run_once(frames, *interval);
            if fps > best[i] {
                best[i] = fps;
            }
            writes[i] = w;
        }
    }
    let base = best[0];
    for (i, (label, _)) in configs.iter().enumerate() {
        pipeline.row(vec![
            (*label).into(),
            kfps(best[i]),
            writes[i].to_string(),
            format!("{:+.2}%", (best[i] - base) / base * 100.0),
        ]);
    }
    pipeline.finish();

    let mut cost = Table::new(
        "exp_warm_restart",
        "DESIGN §10",
        "per-write and restore cost vs exported flow-table size (flow-based dispatch)",
        &["flows", "blob KiB", "write us", "restore us", "at 1 s cadence"],
        "steady-state overhead at 1 s cadence = write cost / 1 s; restore is a \
         one-off paid before the restarted monitor admits traffic",
    );
    let flow_rows: &[usize] = if full_scale() { &[64, 4096, 16384] } else { &[64, 1024] };
    for &flows in flow_rows {
        let (bytes, write_us, restore_us) = checkpoint_cost(flows);
        cost.row(vec![
            flows.to_string(),
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{write_us:.1}"),
            format!("{restore_us:.1}"),
            format!("{:.4}%", write_us / 1e6 * 100.0),
        ]);
    }
    cost.finish();
}
