//! Composable scenario DSL: declarative multi-tenant load scenarios.
//!
//! [`crate::scenario::Scenario`] is the low-level experimental condition —
//! mechanism, VR specs, raw source attachments. This module layers a
//! declarative spec on top: a [`ScenarioSpec`] composes tenants (weighted
//! VRs) with [`WorkloadSpec`] traffic shapes — constant-rate, seeded
//! heavy-tailed flow mixes, diurnal ramps, flash crowds, SYN/UDP floods —
//! and lowers to a runnable `Scenario`. Every run returns a structured
//! [`ScenarioReport`]: the [`Ledger`] read from the final metrics snapshot,
//! per-tenant goodput, and flow-table occupancy. "Benchmarking NFV Software Dataplanes" (arXiv 1605.05843)
//! shows dataplane rankings invert with the traffic *profile*, not just the
//! rate — this is the profile knob.
//!
//! Everything is deterministic for a fixed `(spec, seed)`: generators are
//! seeded per `(tenant, workload)` by a splitmix derivation of the scenario
//! seed, so two runs of the same spec produce identical flow traces and
//! identical reports (property-tested in `scenario_determinism.rs`).

use lvrm_core::{DispatchMode, Ledger, SocketKind};
use lvrm_ipc::QueueKind;

use crate::cost::StageCost;
use crate::gateway::{ForwardingMech, VrSpec, VrType};
use crate::scenario::{Scenario, ScenarioResult, SourceSpec, TcpFlowSpec};
use crate::tcp::TcpConfig;
use crate::traffic::{RateSchedule, SourceKind};

/// One traffic shape attached to a tenant.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// Constant-rate UDP data over `flows` fixed port pairs.
    Cbr { wire_size: usize, fps: f64, flows: u16 },
    /// Seeded bounded-Pareto flow mix: elephants and mice over up to
    /// `flows` distinct 5-tuples at a constant aggregate rate.
    HeavyTailed { wire_size: usize, fps: f64, flows: u32, alpha: f64 },
    /// Day/night ramp: rate staircases from `trough_fps` up to `peak_fps`
    /// and back down over one `period_ns`, on a heavy-tailed flow mix.
    Diurnal {
        wire_size: usize,
        flows: u32,
        alpha: f64,
        trough_fps: f64,
        peak_fps: f64,
        period_ns: u64,
    },
    /// Flash crowd: `base_fps` until `at_ns`, then a surge to `peak_fps`
    /// for `hold_ns`, then back to base — the load-spike shape that drives
    /// the PR 3 shedding path.
    FlashCrowd {
        wire_size: usize,
        flows: u32,
        alpha: f64,
        base_fps: f64,
        peak_fps: f64,
        at_ns: u64,
        hold_ns: u64,
    },
    /// TCP SYN flood from `sources` spoofed in-subnet tuples at `fps`.
    SynFlood { fps: f64, sources: u32 },
    /// UDP flood to the discard port from `sources` spoofed tuples.
    UdpFlood { fps: f64, sources: u32 },
}

/// One tenant: a weighted VR plus its traffic.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub name: String,
    /// Weighted-DRR shed weight (see DESIGN.md §8).
    pub weight: f64,
    /// Per-frame dummy routing load, modelling VR processing cost.
    pub dummy_load_ns: u64,
    /// Per-byte VRI service cost, modelling compute-bound per-frame work —
    /// what makes one elephant flow saturate a single core.
    pub per_byte_load_ns: u64,
    /// Per-VR dispatch override (`None` keeps the config's global mode;
    /// `Replicated` enables state-compute replication, DESIGN.md §14).
    pub dispatch: Option<DispatchMode>,
    pub workloads: Vec<WorkloadSpec>,
    /// Bulk TCP flows through this tenant's VR (started at t = 0).
    pub tcp_flows: Vec<TcpConfig>,
}

impl TenantSpec {
    pub fn new(name: &str, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            weight,
            dummy_load_ns: 0,
            per_byte_load_ns: 0,
            dispatch: None,
            workloads: Vec::new(),
            tcp_flows: Vec::new(),
        }
    }

    pub fn with_load(mut self, dummy_load_ns: u64) -> TenantSpec {
        self.dummy_load_ns = dummy_load_ns;
        self
    }

    pub fn with_per_byte_load(mut self, per_byte_load_ns: u64) -> TenantSpec {
        self.per_byte_load_ns = per_byte_load_ns;
        self
    }

    pub fn dispatch(mut self, mode: DispatchMode) -> TenantSpec {
        self.dispatch = Some(mode);
        self
    }

    pub fn workload(mut self, w: WorkloadSpec) -> TenantSpec {
        self.workloads.push(w);
        self
    }

    pub fn tcp(mut self, cfg: TcpConfig) -> TenantSpec {
        self.tcp_flows.push(cfg);
        self
    }
}

/// A declarative scenario: topology + tenants + traffic, lowered to a
/// [`Scenario`] by [`ScenarioSpec::build`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    pub name: String,
    /// Master seed; per-generator seeds derive from it.
    pub seed: u64,
    pub queue_kind: QueueKind,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub flow_table_capacity: usize,
    pub flow_timeout_ns: u64,
    /// Incremental-aging budget (0 = auto).
    pub flow_age_budget: usize,
    pub overload_shedding: bool,
    /// Fixed VRI cores per VR.
    pub vri_cores: usize,
    pub batch_size: usize,
    /// Dispatch-stage cost override (None keeps the calibrated default;
    /// overload scenarios make dispatch expensive so the monitor core is
    /// the contended resource, as in `exp_overload`).
    pub dispatch_cost: Option<StageCost>,
    /// Drain the monitor at run end so the books close with zero in-flight.
    pub drain_shutdown: bool,
    pub tenants: Vec<TenantSpec>,
}

impl ScenarioSpec {
    /// A spec skeleton: flow-based JSQ, Lamport queues, 1 s run with 200 ms
    /// warmup, shedding off, drained shutdown.
    pub fn new(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed,
            queue_kind: QueueKind::Lamport,
            duration_ns: 1_000_000_000,
            warmup_ns: 200_000_000,
            flow_table_capacity: 4096,
            flow_timeout_ns: 30_000_000_000,
            flow_age_budget: 0,
            overload_shedding: false,
            vri_cores: 2,
            // The testbed gateway drives the per-frame ingress path, and
            // the weighted-DRR shed quantum is `batch_size * weight /
            // total_weight` per burst: a batch_size above 1 would hand
            // every 1-frame burst a quota it can never exceed and disable
            // shedding entirely. Keep the dataplane per-frame.
            batch_size: 1,
            dispatch_cost: None,
            drain_shutdown: true,
            tenants: Vec::new(),
        }
    }

    pub fn tenant(mut self, t: TenantSpec) -> ScenarioSpec {
        self.tenants.push(t);
        self
    }

    pub fn queue(mut self, kind: QueueKind) -> ScenarioSpec {
        self.queue_kind = kind;
        self
    }

    /// Derived per-generator seed, stable across runs of the same spec.
    fn derived_seed(&self, tenant: usize, workload: usize) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((workload as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Lower one workload to a source kind + schedule.
    fn lower(&self, w: &WorkloadSpec, seed: u64) -> (SourceKind, RateSchedule) {
        match *w {
            WorkloadSpec::Cbr { wire_size, fps, flows } => {
                (SourceKind::UdpCbr { wire_size, flows }, RateSchedule::constant(fps))
            }
            WorkloadSpec::HeavyTailed { wire_size, fps, flows, alpha } => {
                (SourceKind::UdpMix { wire_size, flows, alpha, seed }, RateSchedule::constant(fps))
            }
            WorkloadSpec::Diurnal { wire_size, flows, alpha, trough_fps, peak_fps, period_ns } => {
                // 8-step staircase up then down across one period.
                const STEPS: u64 = 8;
                let dwell = period_ns / (2 * STEPS);
                let mut segs = Vec::new();
                let mut t = 0u64;
                for k in 0..STEPS {
                    let frac = k as f64 / (STEPS - 1) as f64;
                    segs.push((t, trough_fps + frac * (peak_fps - trough_fps)));
                    t += dwell;
                }
                for k in (0..STEPS).rev() {
                    let frac = k as f64 / (STEPS - 1) as f64;
                    segs.push((t, trough_fps + frac * (peak_fps - trough_fps)));
                    t += dwell;
                }
                (
                    SourceKind::UdpMix { wire_size, flows, alpha, seed },
                    RateSchedule::piecewise(segs),
                )
            }
            WorkloadSpec::FlashCrowd {
                wire_size,
                flows,
                alpha,
                base_fps,
                peak_fps,
                at_ns,
                hold_ns,
            } => (
                SourceKind::UdpMix { wire_size, flows, alpha, seed },
                RateSchedule::piecewise(vec![
                    (0, base_fps),
                    (at_ns, peak_fps),
                    (at_ns + hold_ns, base_fps),
                ]),
            ),
            WorkloadSpec::SynFlood { fps, sources } => {
                (SourceKind::SynFlood { wire_size: 84, sources, seed }, RateSchedule::constant(fps))
            }
            WorkloadSpec::UdpFlood { fps, sources } => {
                (SourceKind::UdpFlood { wire_size: 84, sources, seed }, RateSchedule::constant(fps))
            }
        }
    }

    /// Lower the declarative spec to a runnable [`Scenario`].
    pub fn build(&self) -> Scenario {
        assert!(!self.tenants.is_empty(), "scenario spec needs at least one tenant");
        let mut sc = Scenario::new(ForwardingMech::Lvrm);
        sc.socket = SocketKind::MemTrace;
        sc.duration_ns = self.duration_ns;
        sc.warmup_ns = self.warmup_ns;
        sc.drain_shutdown = self.drain_shutdown;
        sc.lvrm.queue_kind = self.queue_kind;
        sc.lvrm.flow_based = true;
        sc.lvrm.flow_table_capacity = self.flow_table_capacity;
        sc.lvrm.flow_timeout_ns = self.flow_timeout_ns;
        sc.lvrm.flow_age_budget = self.flow_age_budget;
        sc.lvrm.overload_shedding = self.overload_shedding;
        sc.lvrm.batch_size = self.batch_size;
        sc.lvrm.allocator = lvrm_core::AllocatorKind::Fixed { cores: self.vri_cores };
        sc.lvrm.seed = self.seed as u32 as u64 | 1;
        if let Some(c) = self.dispatch_cost {
            sc.cost.dispatch = c;
        }
        sc.vrs = self
            .tenants
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let mut v = VrSpec::numbered(k, VrType::Cpp { dummy_load_ns: t.dummy_load_ns })
                    .with_shed_weight(t.weight)
                    .with_per_byte_load_ns(t.per_byte_load_ns);
                if let Some(mode) = t.dispatch {
                    v = v.with_dispatch(mode);
                }
                v
            })
            .collect();
        sc.sources = self
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(k, t)| {
                t.workloads.iter().enumerate().map(move |(j, w)| {
                    let (kind, schedule) = self.lower(w, self.derived_seed(k, j));
                    SourceSpec { vr: k, host: (j + 1) as u8, kind, schedule }
                })
            })
            .collect();
        sc.tcp_flows = self
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(k, t)| {
                t.tcp_flows.iter().map(move |cfg| TcpFlowSpec { vr: k, cfg: *cfg, start_ns: 0 })
            })
            .collect();
        sc
    }

    /// Build, run, and report.
    pub fn run(&self) -> ScenarioReport {
        let result = self.build().run();
        ScenarioReport::from_result(self, result)
    }
}

// ---------------------------------------------------------------------------
// Structured results

/// Per-tenant delivery summary.
#[derive(Clone, Debug)]
pub struct TenantReport {
    pub name: String,
    pub weight: f64,
    pub sent: u64,
    pub received: u64,
}

impl TenantReport {
    /// Received / sent inside the measurement window (1.0 when idle).
    pub fn goodput(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }
}

/// Everything a declarative scenario run produced.
pub struct ScenarioReport {
    pub name: String,
    pub seed: u64,
    /// The monitor's books at the end of the run, read from the scrape.
    pub conservation: Ledger,
    pub tenants: Vec<TenantReport>,
    /// The raw low-level result, for deep inspection.
    pub result: ScenarioResult,
}

impl ScenarioReport {
    fn from_result(spec: &ScenarioSpec, result: ScenarioResult) -> ScenarioReport {
        let snap = result.metrics.as_ref().expect("declarative scenarios run the LVRM mechanism");
        let conservation = Ledger::from_snapshot(snap);
        let tenants = spec
            .tenants
            .iter()
            .enumerate()
            .map(|(k, t)| TenantReport {
                name: t.name.clone(),
                weight: t.weight,
                sent: result.per_vr_sent.get(k).copied().unwrap_or(0),
                received: result.per_vr_received.get(k).copied().unwrap_or(0),
            })
            .collect();
        ScenarioReport { name: spec.name.clone(), seed: spec.seed, conservation, tenants, result }
    }

    /// Whether the final ledger checks out with nothing unreturned: the
    /// scenario tenants forward every frame on an inline host, so (B) and
    /// (C) must be exact.
    pub fn conserved(&self) -> bool {
        self.conservation.check().is_ok() && self.conservation.unreturned() == 0
    }

    /// Panic with the ledger (its last word names a violated identity)
    /// unless [`ScenarioReport::conserved`].
    pub fn assert_conserved(&self, ctx: &str) {
        assert!(self.conserved(), "{ctx}: {}", self.conservation);
    }

    /// Concurrently tracked flows at end of run (pre-drain), summed over
    /// the tenants' flow tables.
    pub fn tracked_flows(&self) -> u64 {
        self.result.vr_snapshots.iter().filter_map(|v| v.flow).map(|f| f.len as u64).sum()
    }

    /// Aggregate flow-table stats (evictions, overflows, sweep slots).
    pub fn flow_stats(&self) -> lvrm_core::FlowTableStats {
        let mut agg = lvrm_core::FlowTableStats::default();
        for f in self.result.vr_snapshots.iter().filter_map(|v| v.flow) {
            agg.len += f.len;
            agg.capacity += f.capacity;
            agg.evictions += f.evictions;
            agg.overflows += f.overflows;
            agg.age_sweep_slots += f.age_sweep_slots;
        }
        agg
    }

    /// Frames shed at ingress (the PR 3 overload path), from the stats.
    pub fn shed_early(&self) -> u64 {
        self.result.lvrm_stats.as_ref().map_or(0, |s| s.shed_early)
    }

    /// State updates emitted toward sibling replicas (identity E's
    /// left-hand side).
    pub fn updates_emitted(&self) -> u64 {
        self.result.lvrm_stats.as_ref().map_or(0, |s| s.updates_emitted)
    }

    /// Aggregate TCP goodput inside the measurement window, Mbps.
    pub fn tcp_mbps(&self) -> f64 {
        self.result.tcp_aggregate_mbps()
    }
}

// ---------------------------------------------------------------------------
// Canned scenarios (the fixed bench set; also used by the regression suite)

/// Million-flow census: one tenant pushes a heavy-tailed mix over `flows`
/// distinct 5-tuples at just under link rate, long enough for the census
/// cursor to touch every flow, with a 30 s timeout so nothing expires
/// mid-run. Sized so the flow table sustains `flows` concurrent entries.
pub fn million_flows(flows: u32, seed: u64) -> ScenarioSpec {
    let fps = 1_200_000.0; // under the 1 Gbps / 84 B cap of ~1.49 Mfps
                           // The census cursor advances on every second emission; add 25% margin
                           // over the minimum coverage time, plus warmup.
    let warmup = 100_000_000u64;
    let coverage_ns = (2.0 * flows as f64 / fps * 1.25e9) as u64;
    let mut spec = ScenarioSpec::new("million_flows", seed);
    spec.duration_ns = warmup + coverage_ns.max(400_000_000);
    spec.warmup_ns = warmup;
    spec.flow_table_capacity = (flows as usize * 2).next_power_of_two();
    spec.vri_cores = 4;
    spec.tenants = vec![TenantSpec::new("census", 1.0).workload(WorkloadSpec::HeavyTailed {
        wire_size: 84,
        fps,
        flows,
        alpha: 1.3,
    })];
    spec
}

/// Flash crowd: a weight-9 tenant at a steady 30 Kfps shares one expensive
/// dispatch core with a weight-1 tenant whose load surges 10× mid-run.
/// With shedding on, the surge is clipped to its quota and the steady
/// tenant's goodput holds (`exp_overload`'s contention shape, driven by a
/// time-varying profile).
pub fn flash_crowd(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("flash_crowd", seed);
    spec.duration_ns = 900_000_000;
    spec.warmup_ns = 100_000_000;
    spec.overload_shedding = true;
    spec.vri_cores = 1;
    spec.dispatch_cost = Some(StageCost::new(2_000, 0.0));
    spec.tenants = vec![
        TenantSpec::new("steady", 9.0).with_load(16_667).workload(WorkloadSpec::Cbr {
            wire_size: 84,
            fps: 30_000.0,
            flows: 8,
        }),
        TenantSpec::new("crowd", 1.0).with_load(16_667).workload(WorkloadSpec::FlashCrowd {
            wire_size: 84,
            flows: 2_000,
            alpha: 1.3,
            base_fps: 30_000.0,
            // Past the ~500 Kfps dispatch budget: the surge saturates the
            // monitor core, so shedding must clip it to its 1/10 quota.
            peak_fps: 700_000.0,
            at_ns: 300_000_000,
            hold_ns: 300_000_000,
        }),
    ];
    spec
}

/// SYN flood: a weight-9 victim tenant with steady UDP data, a weight-1
/// attacker tenant spraying SYNs from spoofed in-subnet sources. The flood
/// classifies into the attacker's VR and is shed there; the victim's
/// goodput floor is the assertion.
pub fn syn_flood(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("syn_flood", seed);
    spec.duration_ns = 900_000_000;
    spec.warmup_ns = 100_000_000;
    spec.overload_shedding = true;
    spec.vri_cores = 1;
    spec.dispatch_cost = Some(StageCost::new(2_000, 0.0));
    spec.tenants = vec![
        TenantSpec::new("victim", 9.0).with_load(16_667).workload(WorkloadSpec::Cbr {
            wire_size: 84,
            fps: 30_000.0,
            flows: 8,
        }),
        TenantSpec::new("attacker", 1.0)
            .with_load(16_667)
            // Combined ~680 Kfps, past the dispatch budget, so the flood
            // saturates the monitor core and must be shed at ingress.
            .workload(WorkloadSpec::SynFlood { fps: 600_000.0, sources: 4_096 })
            .workload(WorkloadSpec::UdpFlood { fps: 80_000.0, sources: 1_024 }),
    ];
    spec
}

/// Diurnal ramp: two tenants with phase-shifted day/night load curves on
/// heavy-tailed mixes — the determinism-suite workhorse (every generator
/// feature exercised: ramps, Pareto sampling, census coverage).
pub fn diurnal(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("diurnal", seed);
    spec.duration_ns = 800_000_000;
    spec.warmup_ns = 100_000_000;
    spec.flow_table_capacity = 16_384;
    spec.tenants = vec![
        TenantSpec::new("day", 1.0).workload(WorkloadSpec::Diurnal {
            wire_size: 84,
            flows: 4_000,
            alpha: 1.3,
            trough_fps: 20_000.0,
            peak_fps: 120_000.0,
            period_ns: 700_000_000,
        }),
        TenantSpec::new("night", 1.0).workload(WorkloadSpec::Diurnal {
            wire_size: 128,
            flows: 2_000,
            alpha: 1.1,
            trough_fps: 60_000.0,
            peak_fps: 10_000.0, // inverted phase: starts high via trough>peak
            period_ns: 700_000_000,
        }),
    ];
    spec
}

/// Elephant flow: one bulk TCP transfer through a compute-bound VR
/// (`per_byte_load_ns` makes each 1460-byte data segment cost ~100 µs of
/// core time, while its ACKs stay cheap), plus a seeded trickle of
/// heavy-tailed mice for replication-trace seed sensitivity.
///
/// Under pinned dispatch the flow's 5-tuple rides one VRI and goodput caps
/// at a single core's service rate no matter how many VRIs the VR owns.
/// Under `replicated` dispatch every VRI serves the flow and goodput
/// scales with `vri_cores` — the state-compute replication headline. The
/// raised `dupack_threshold` (TCP-NCR style) absorbs the cross-replica
/// reordering that any-VRI dispatch introduces.
pub fn elephant_flow(vri_cores: usize, replicated: bool, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("elephant_flow", seed);
    spec.duration_ns = 1_200_000_000;
    spec.warmup_ns = 200_000_000;
    spec.vri_cores = vri_cores;
    let mut tenant = TenantSpec::new("elephant", 1.0)
        .with_per_byte_load(65)
        .tcp(TcpConfig { dupack_threshold: 64, ..TcpConfig::default() })
        .workload(WorkloadSpec::HeavyTailed { wire_size: 84, fps: 2_000.0, flows: 64, alpha: 1.3 });
    if replicated {
        tenant = tenant.dispatch(DispatchMode::Replicated);
    }
    spec.tenants = vec![tenant];
    spec
}

/// Lower one multi-tenant spec onto an N-shard fleet (DESIGN.md §15):
/// each returned spec keeps only the tenants the rendezvous hash assigns
/// to that shard — the same hash `ShardMap::partition` uses, so a testbed
/// split and a live fleet agree on placement. Names, seeds, and every
/// other knob are preserved; a shard with no tenants still gets a spec
/// (it serves nothing but participates in the directory).
pub fn shard_split(spec: &ScenarioSpec, shards: u32) -> Vec<ScenarioSpec> {
    assert!(shards >= 1, "a fleet has at least one shard");
    let ids: Vec<u32> = (0..shards).collect();
    (0..shards)
        .map(|shard| {
            let mut part = spec.clone();
            part.name = format!("{}-shard{shard}", spec.name);
            part.tenants = spec
                .tenants
                .iter()
                .filter(|t| lvrm_core::rendezvous_owner(&t.name, &ids) == Some(shard))
                .cloned()
                .collect();
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let spec = ScenarioSpec::new("x", 42);
        let a = spec.derived_seed(0, 0);
        assert_eq!(a, ScenarioSpec::new("y", 42).derived_seed(0, 0), "same seed, same derivation");
        assert_ne!(a, spec.derived_seed(0, 1));
        assert_ne!(a, spec.derived_seed(1, 0));
        assert_ne!(spec.derived_seed(0, 0), ScenarioSpec::new("x", 43).derived_seed(0, 0));
    }

    #[test]
    fn build_lowers_tenants_to_vrs_and_sources() {
        let sc = syn_flood(7).build();
        assert_eq!(sc.vrs.len(), 2);
        assert_eq!(sc.sources.len(), 3, "victim CBR + attacker SYN + attacker UDP flood");
        assert!(sc.lvrm.flow_based);
        assert!(sc.lvrm.overload_shedding);
        assert_eq!(sc.vrs[0].shed_weight, Some(9.0));
        sc.lvrm.validate().expect("lowered config must validate");
    }

    #[test]
    fn diurnal_schedule_ramps_up_and_down() {
        let spec = ScenarioSpec::new("d", 1);
        let (_, sched) = spec.lower(
            &WorkloadSpec::Diurnal {
                wire_size: 84,
                flows: 10,
                alpha: 1.3,
                trough_fps: 100.0,
                peak_fps: 900.0,
                period_ns: 160,
            },
            0,
        );
        assert_eq!(sched.rate_at(0), 100.0);
        assert!(sched.rate_at(75) > 800.0, "peak near mid-period");
        assert_eq!(sched.rate_at(10_000), 100.0, "back to trough");
    }

    #[test]
    fn million_flows_spec_covers_census_window() {
        let spec = million_flows(1_000_000, 1);
        // Duration must allow the census cursor (every 2nd emission) to
        // touch every flow: 2 * flows / fps plus margin.
        let min_ns = spec.warmup_ns + (2.0 * 1_000_000.0 / 1_200_000.0 * 1e9) as u64;
        assert!(spec.duration_ns > min_ns);
        assert!(spec.flow_table_capacity >= 2 * 1_000_000);
    }

    /// Every tenant of a split spec lands on exactly one shard, the union
    /// covers the original tenant set, and the assignment matches what a
    /// live [`lvrm_core::ShardMap`] would compute for the same names.
    #[test]
    fn shard_split_partitions_tenants_exactly_once() {
        let mut spec = ScenarioSpec::new("fleet", 3);
        for i in 0..12 {
            spec.tenants.push(
                TenantSpec::new(&format!("tenant{i}"), 1.0).workload(WorkloadSpec::Cbr {
                    wire_size: 84,
                    fps: 1_000.0,
                    flows: 4,
                }),
            );
        }
        let shards = 3u32;
        let parts = shard_split(&spec, shards);
        assert_eq!(parts.len(), shards as usize);
        let total: usize = parts.iter().map(|p| p.tenants.len()).sum();
        assert_eq!(total, spec.tenants.len(), "no tenant lost or duplicated");
        let ids: Vec<u32> = (0..shards).collect();
        for (shard, part) in parts.iter().enumerate() {
            assert_eq!(part.name, format!("fleet-shard{shard}"));
            assert_eq!(part.seed, spec.seed, "derived seeds must stay stable per tenant");
            for t in &part.tenants {
                assert_eq!(
                    lvrm_core::rendezvous_owner(&t.name, &ids),
                    Some(shard as u32),
                    "{} placed off its rendezvous shard",
                    t.name
                );
            }
        }
        // More than one shard gets work for this universe (rendezvous
        // spreads 12 names over 3 shards).
        assert!(parts.iter().filter(|p| !p.tenants.is_empty()).count() > 1);
    }

    /// A tiny end-to-end spec run: identities hold, report is populated.
    #[test]
    fn small_spec_runs_and_conserves() {
        let mut spec = ScenarioSpec::new("smoke", 11);
        spec.duration_ns = 300_000_000;
        spec.warmup_ns = 100_000_000;
        spec.tenants = vec![TenantSpec::new("t0", 1.0).workload(WorkloadSpec::HeavyTailed {
            wire_size: 84,
            fps: 50_000.0,
            flows: 500,
            alpha: 1.3,
        })];
        let report = spec.run();
        report.assert_conserved("(smoke spec)");
        assert_eq!(report.tenants.len(), 1);
        assert!(report.tenants[0].sent > 0);
        assert!(report.tenants[0].goodput() > 0.9, "goodput {}", report.tenants[0].goodput());
        assert!(report.tracked_flows() > 100, "tracked {}", report.tracked_flows());
    }
}
