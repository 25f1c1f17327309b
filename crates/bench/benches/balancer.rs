//! Ablation: per-frame decision cost of each load-balancing policy
//! (paper §3.3), frame-based and flow-based, in the form burst ingress
//! calls them — the frame parsed and hashed beforehand — plus the
//! parse-and-pick wrapper for one flow-based policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lvrm_core::balance::{BalanceCtx, FlowBased, Jsq, LoadBalancer, RandomBalancer, RoundRobin};
use lvrm_core::VriId;
use lvrm_net::{FlowKey, FrameBuilder, HashedKey};
use std::net::Ipv4Addr;

fn frames() -> Vec<lvrm_net::Frame> {
    let mut b = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9));
    (0..256u16).map(|i| b.udp(10_000 + i, 80, &[0u8; 26])).collect()
}

fn bench_policy(c: &mut Criterion) {
    let vris: Vec<VriId> = (0..6).map(VriId).collect();
    let loads = [3.0, 1.0, 4.0, 1.0, 5.0, 2.0];
    let valid = [true; 6];
    let frames = frames();
    let flows: Vec<Option<HashedKey>> =
        frames.iter().map(|f| FlowKey::from_frame(f).map(HashedKey::new)).collect();
    let mut g = c.benchmark_group("balancer/pick");
    g.throughput(Throughput::Elements(1));

    let mut run = |name: &str, bal: &mut dyn LoadBalancer| {
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                let ctx =
                    BalanceCtx { vris: &vris, loads: &loads, valid: &valid, now_ns: i as u64 };
                let flow = flows[i % flows.len()];
                i += 1;
                std::hint::black_box(bal.pick_keyed(flow, &ctx))
            });
        });
    };
    run("jsq", &mut Jsq);
    run("rr", &mut RoundRobin::default());
    run("random", &mut RandomBalancer::new(7));
    run("flow-jsq", &mut FlowBased::new(Jsq, 4096, u64::MAX));
    run("flow-rr", &mut FlowBased::new(RoundRobin::default(), 4096, u64::MAX));

    let mut bal = FlowBased::new(Jsq, 4096, u64::MAX);
    let mut i = 0usize;
    g.bench_with_input(BenchmarkId::from_parameter("flow-jsq/from_frame"), &(), |b, _| {
        b.iter(|| {
            let ctx = BalanceCtx { vris: &vris, loads: &loads, valid: &valid, now_ns: i as u64 };
            let f = &frames[i % frames.len()];
            i += 1;
            std::hint::black_box(bal.pick(f, &ctx))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_policy);
criterion_main!(benches);
