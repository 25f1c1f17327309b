//! Experiment 2c (Figs. 4.10 & 4.11): dynamic core allocation for one VR.
//!
//! Offered load climbs 60→360 Kfps and back down in 60 Kfps steps; the
//! dynamic fixed-threshold allocator should track it with one core per
//! 60 Kfps (Fig. 4.10). Fig. 4.11's reaction latencies — allocations within
//! ~900 µs, deallocations within ~700 µs — are reported twice here: the
//! modeled values inside the simulation, and REAL spawn/kill latencies
//! measured by growing and shrinking thread-backed VRIs on this machine.

use crate::{full_scale, us, Table};
use lvrm_core::clock::{Clock, MonotonicClock};
use lvrm_core::config::AllocatorKind;
use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
use lvrm_core::{AllocDecision, Lvrm, LvrmConfig};
use lvrm_testbed::scenario::Scenario;
use lvrm_testbed::traffic::RateSchedule;
use lvrm_testbed::{ForwardingMech, VrSpec, VrType};

fn staircase_run() {
    let dwell: u64 = if full_scale() { 5_000_000_000 } else { 2_000_000_000 };
    let schedule = RateSchedule::staircase(60_000.0, 360_000.0, dwell);
    let mut sc = Scenario::new(ForwardingMech::Lvrm);
    sc.duration_ns = schedule.last_change_ns() + dwell;
    sc.warmup_ns = 100_000_000;
    sc.sample_period_ns = dwell / 4;
    sc.vrs = vec![VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 16_667 })];
    sc.lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: 60_000.0 };
    for host in [1u8, 2u8] {
        let half: Vec<(u64, f64)> = (0..)
            .map_while(|k| {
                let t = k * dwell;
                (t <= schedule.last_change_ns()).then(|| (t, schedule.rate_at(t) / 2.0))
            })
            .collect();
        sc.sources.push(lvrm_testbed::scenario::SourceSpec {
            vr: 0,
            host,
            kind: lvrm_testbed::traffic::SourceKind::UdpCbr { wire_size: 84, flows: 8 },
            schedule: RateSchedule::piecewise(half),
        });
    }
    let r = sc.run();

    let mut series = Table::new(
        "exp2c_alloc",
        "Fig 4.10",
        "Cores allocated vs offered staircase load (one VR)",
        &["t (s)", "offered Kfps", "cores"],
        "cores track ceil(rate / 60 Kfps): 1..6..1 staircase, small reaction time",
    );
    for s in &r.samples {
        series.row(vec![
            format!("{:.1}", s.t_ns as f64 / 1e9),
            format!("{:.0}", s.offered_fps_per_vr[0] / 1e3),
            s.vris_per_vr[0].to_string(),
        ]);
    }
    series.finish();

    let mut modeled = Table::new(
        "exp2c_reaction_sim",
        "Fig 4.11 (modeled)",
        "Reallocation events in the simulated run (latency from the cost model)",
        &["t (s)", "decision", "vris after"],
        "allocations within ~900 us, deallocations within ~700 us (modeled \
         constants; see exp2c_reaction_real for measured values)",
    );
    for e in &r.realloc {
        modeled.row(vec![
            format!("{:.2}", e.ts_ns as f64 / 1e9),
            format!("{:?}", e.decision),
            e.vris_after.to_string(),
        ]);
    }
    modeled.finish();
}

/// Measure REAL spawn/kill latency with thread-backed VRIs.
fn real_reaction_latency() {
    let clock = MonotonicClock::new();
    let n = lvrm_runtime::affinity::available_cores().max(2) as u16;
    let cores = CoreMap::new(CoreTopology::single_package(n), CoreId(0), AffinityMode::Same);
    let config =
        LvrmConfig { allocator: AllocatorKind::Fixed { cores: 1 }, ..LvrmConfig::default() };
    let mut lvrm = Lvrm::new(config, cores, clock.clone());
    let mut host = lvrm_runtime::ThreadHost::new(clock.clone());
    let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    let vr = lvrm.add_vr(
        "vr0",
        &[(std::net::Ipv4Addr::new(10, 0, 1, 0), 24)],
        Box::new(lvrm_router::FastVr::new("cpp", routes)),
        &mut host,
    );
    // Drive grows and shrinks through the production reallocation path by
    // swapping the target via explicit passes.
    let rounds = if full_scale() { 50 } else { 10 };
    let mut grow = lvrm_metrics::Summary::new();
    let mut shrink = lvrm_metrics::Summary::new();
    let mut t = clock.now_ns();
    for _ in 0..rounds {
        // Force a grow pass, then a shrink pass (allocator target flips by
        // feeding synthetic arrival counts through direct reallocation).
        t += 2_000_000_000;
        let before = lvrm.realloc_log.len();
        lvrm.resize_vr(vr, 2, t, &mut host);
        t += 2_000_000_000;
        lvrm.resize_vr(vr, 1, t, &mut host);
        for e in &lvrm.realloc_log[before..] {
            match e.decision {
                AllocDecision::Grow => grow.add(e.latency_ns as f64),
                AllocDecision::Shrink => shrink.add(e.latency_ns as f64),
                AllocDecision::Hold => {}
            }
        }
    }
    host.shutdown();
    let mut table = Table::new(
        "exp2c_reaction_real",
        "Fig 4.11 (measured)",
        "REAL VRI spawn/kill reaction latency (thread-backed, this machine)",
        &["event", "count", "mean us", "min us", "max us"],
        "paper (process-backed, 8 cores): allocations <= ~900 us, \
         deallocations <= ~700 us, allocations the more expensive",
    );
    table.row(vec![
        "allocate".into(),
        grow.count().to_string(),
        us(grow.mean()),
        us(grow.min()),
        us(grow.max()),
    ]);
    table.row(vec![
        "deallocate".into(),
        shrink.count().to_string(),
        us(shrink.mean()),
        us(shrink.min()),
        us(shrink.max()),
    ]);
    table.finish();
}

pub fn run() {
    eprintln!("[exp2c] staircase simulation ...");
    staircase_run();
    eprintln!("[exp2c] real spawn/kill latency ...");
    real_reaction_latency();
}
