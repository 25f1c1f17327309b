//! Isolated probes: one layer function at a time, over the workload's own
//! frames and keys, outside the frame path. They price what a span cannot
//! separate (everything inside one `ingress_batch` call) and are reported
//! by the traced pass only. Each value is the median of [`REPS`] timed
//! repetitions, in nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use lvrm_click::ClickVr;
use lvrm_core::balance::{BalanceCtx, Jsq, LoadBalancer};
use lvrm_core::{FlowTable, VriId};
use lvrm_ipc::{queue, QueueKind};
use lvrm_metrics::{Ewma, LatencyHistogram};
use lvrm_net::{FlowKey, Frame};
use lvrm_router::{FastVr, Route, RouteTable, VirtualRouter};
use lvrm_runtime::affinity::pin_to_core;

use crate::gen::Plan;
use crate::rig::config_for;
use crate::spec::BURST;
use crate::stats::median;

const REPS: usize = 5;
/// Operations per repetition of the per-frame probes.
const OPS: usize = 1 << 16;

/// Median ns per operation of `REPS` runs of `body`, which does `ops` of
/// them and is told which repetition it is.
fn time_per_op(ops: usize, mut body: impl FnMut(usize)) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|rep| {
            let t = Instant::now();
            body(rep);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&runs)
}

/// Run `op` once per item so that each call's item depends on the previous
/// call's result, as on the frame path, where one frame's lookups finish
/// before the next frame's begin: independent iterations would overlap
/// their cache misses and price a miss at a fraction of what it costs there.
/// `op` returns a value below 2^32; the walk is in order all the same.
#[inline]
fn chained<T>(items: &[T], mut op: impl FnMut(&T) -> u64) {
    let mut i = 0;
    for _ in 0..items.len() {
        let r = op(&items[i]);
        i += 1 + (black_box(r) >> 32) as usize;
        if i >= items.len() {
            i = 0;
        }
    }
}

#[derive(Debug)]
pub struct Probes {
    pub parse_ns: f64,
    pub flowkey_ns: f64,
    pub cow_copy_ns: f64,
    pub lpm_lookup_ns: f64,
    pub fastvr_ns: f64,
    pub click_process_ns: f64,
    pub click_config_parse_us: f64,
    pub spsc_local_ns: f64,
    pub find_hit_ns: f64,
    pub miss_insert_ns: f64,
    pub age_ns_per_slot: f64,
    pub pick_ns: f64,
    pub hist_record_ns: f64,
    pub ewma_update_ns: f64,
}

/// `n` items through a queue of `kind` in bursts, producer here and the
/// consumer on `consumer_core` (its own pinned thread) or, with `None`,
/// on this thread. Nanoseconds per item.
fn queue_ns_per_op(kind: QueueKind, n: usize, consumer_core: Option<usize>) -> f64 {
    time_per_op(n, |_| {
        let (mut tx, mut rx) = queue::<u64>(kind, 1024);
        let mut batch: Vec<u64> = Vec::with_capacity(BURST);
        let mut got: Vec<u64> = Vec::with_capacity(BURST);
        match consumer_core {
            None => {
                for k in 0..n / BURST {
                    batch.extend((0..BURST as u64).map(|i| k as u64 + i));
                    tx.try_send_batch(&mut batch);
                    got.clear();
                    rx.try_recv_batch(&mut got, BURST);
                }
                black_box(&got);
            }
            Some(core) => std::thread::scope(|s| {
                let consumer = s.spawn(move || {
                    pin_to_core(core);
                    let mut seen = 0;
                    let mut got: Vec<u64> = Vec::with_capacity(BURST);
                    while seen < n {
                        got.clear();
                        seen += rx.try_recv_batch(&mut got, BURST);
                    }
                    black_box(got);
                });
                let mut sent = 0;
                while sent < n {
                    if batch.is_empty() {
                        batch.extend((0..BURST as u64).map(|i| sent as u64 + i));
                    }
                    sent += tx.try_send_batch(&mut batch);
                }
                consumer.join().expect("probe consumer panicked");
            }),
        }
    })
}

/// The queue hop between two cores, per item: consumer pinned to core 1,
/// producer wherever the scheduler puts the caller (the other core, since
/// the consumer spins). Must run before the calling thread pins itself, or
/// the consumer inherits a one-CPU mask and shares the producer's core.
pub struct CrossCore {
    pub spsc_ns: f64,
    pub vlink_ns: f64,
}

pub fn cross_core() -> CrossCore {
    CrossCore {
        spsc_ns: queue_ns_per_op(QueueKind::Lamport, 1 << 20, Some(1)),
        vlink_ns: queue_ns_per_op(QueueKind::VLink, 1 << 20, Some(1)),
    }
}

pub fn run(plan: &Plan) -> Probes {
    let cfg = config_for(plan.workload, plan);
    // The frames the workload offers, in the order it offers them; each
    // repetition takes the next stretch of the stream, so a working set
    // larger than the cache stays cold here as it does on the path.
    let stretch = |rep: usize| {
        let from = (rep * OPS) as u64;
        (from..from + OPS as u64).map(|s| plan.frame(s, false)).collect::<Vec<Frame>>()
    };
    let stream: Vec<Vec<Frame>> = (0..REPS).map(stretch).collect();

    // First touch of each frame's bytes, as classification meets them.
    let parse_ns = time_per_op(OPS, |rep| {
        chained(&stream[rep], |f| f.src_ip().map_or(0, |ip| u64::from(u32::from(ip))));
    });
    let flowkey_ns = time_per_op(OPS, |rep| {
        chained(&stream[rep], |f| FlowKey::from_frame(f).map_or(0, |k| u64::from(k.src_port)));
    });
    let cow_copy_ns = time_per_op(OPS / 16, |rep| {
        for f in stream[rep].iter().take(OPS / 16) {
            let mut g = f.clone();
            g.modify_bytes(|b| b[22] = b[22].wrapping_sub(1));
            black_box(g);
        }
    });

    // The monitor's classifier: every tenant's source prefixes in one trie.
    let mut classifier = RouteTable::new();
    for (i, vr) in plan.vrs.iter().enumerate() {
        for (prefix, len) in &vr.subnets {
            classifier.insert(Route {
                prefix: *prefix,
                len: *len,
                iface: i as u16,
                next_hop: None,
            });
        }
    }
    let srcs: Vec<_> =
        stream[0].iter().map(|f| f.src_ip().expect("pool frames are IPv4")).collect();
    let lpm_lookup_ns = time_per_op(OPS, |_| {
        chained(&srcs, |s| classifier.lookup(*s).map_or(0, |r| u64::from(r.iface)));
    });

    // Both VR kinds over the first tenant's routes and frames, whichever
    // kind the workload hosts.
    let vr0 = &plan.vrs[0];
    let own: Vec<Frame> = stream[0]
        .iter()
        .filter(|f| classifier.lookup(f.src_ip().unwrap()).is_some_and(|r| r.iface == 0))
        .cloned()
        .collect();
    let mut fast = FastVr::new("probe", vr0.route_table());
    let fastvr_ns = time_per_op(own.len(), |_| {
        chained(&own, |f| {
            let mut g = f.clone();
            fast.process(&mut g);
            u64::from(g.egress_if)
        });
    });
    let click_cfg = vr0.click_config();
    let mut click = ClickVr::from_config("probe", &click_cfg).expect("plan config compiles");
    let click_process_ns = time_per_op(own.len(), |_| {
        chained(&own, |f| {
            let mut g = f.clone();
            click.process(&mut g);
            u64::from(g.egress_if)
        });
    });
    let click_config_parse_us = time_per_op(8, |_| {
        for _ in 0..8 {
            black_box(ClickVr::from_config("probe", &click_cfg).is_ok());
        }
    }) / 1e3;

    let spsc_local_ns = queue_ns_per_op(QueueKind::Lamport, 1 << 20, None);

    // One flow table as large as all the workload's tables together and
    // holding every in-profile flow: the same bytes to miss in.
    let cap = cfg.flow_table_capacity * plan.vrs.len();
    let mut table = FlowTable::new(cap, u64::MAX / 2);
    for f in &plan.pool[..plan.in_profile_flows.min(cap / 2)] {
        table.insert(FlowKey::from_frame(f).expect("pool frames are UDP"), VriId(0), 1);
    }
    let keys: Vec<Vec<FlowKey>> =
        stream.iter().map(|fs| fs.iter().filter_map(FlowKey::from_frame).collect()).collect();
    let find_hit_ns = time_per_op(OPS, |rep| {
        chained(&keys[rep], |k| table.find_and_touch(k, 2).map_or(0, |v| u64::from(v.0)));
    });
    // The aging sweep over a table where nothing has expired: the cost of
    // looking, per slot. (Evicting is priced with the insert below.)
    let budget = cfg.effective_flow_age_budget();
    let sweeps = (OPS / budget).max(1);
    let age_ns_per_slot = time_per_op(sweeps * budget, |_| {
        for _ in 0..sweeps {
            black_box(table.age_step(3, budget));
        }
    });
    drop(table);
    // A flow's whole life the way a flood causes it: a miss, an insert and,
    // once it has timed out, its eviction by the sweep.
    let timeout = cfg.flow_timeout_ns.min(1 << 26);
    let churn_cap = cfg.flow_table_capacity.max(4 * OPS);
    let mut now = 0u64;
    let mut churn = FlowTable::new(churn_cap, timeout);
    let miss_insert_ns = time_per_op(OPS, |rep| {
        chained(&keys[rep], |k| {
            now += 1024;
            if churn.find_and_touch(k, now).is_none() {
                churn.insert(*k, VriId(0), now);
            }
            churn.len() as u64 & 0xffff
        });
        now += 2 * timeout;
        black_box(churn.age_step(now, churn_cap));
    });

    let n_vris = vr0.vris;
    let vris: Vec<VriId> = (0..n_vris as u32).map(VriId).collect();
    let loads: Vec<f64> = (0..n_vris).map(|i| i as f64).collect();
    let valid = vec![true; n_vris];
    let mut jsq = Jsq;
    let pick_ns = time_per_op(OPS, |_| {
        let ctx = BalanceCtx { vris: &vris, loads: &loads, valid: &valid, now_ns: 0 };
        for f in &stream[0] {
            black_box(jsq.pick(f, &ctx));
        }
    });

    let mut hist = LatencyHistogram::new();
    let hist_record_ns = time_per_op(OPS, |_| {
        for i in 0..OPS as u64 {
            hist.record(black_box(900 + (i & 1023)));
        }
    });
    let mut ewma = Ewma::new(7.0);
    let ewma_update_ns = time_per_op(OPS, |_| {
        for i in 0..OPS {
            black_box(ewma.update(black_box(i as f64)));
        }
    });
    Probes {
        parse_ns,
        flowkey_ns,
        cow_copy_ns,
        lpm_lookup_ns,
        fastvr_ns,
        click_process_ns,
        click_config_parse_us,
        spsc_local_ns,
        find_hit_ns,
        age_ns_per_slot,
        miss_insert_ns,
        pick_ns,
        hist_record_ns,
        ewma_update_ns,
    }
}
