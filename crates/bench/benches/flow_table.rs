//! Ablation: hash-table connection tracking vs a linear scan — the paper
//! replaced "the dynamic arrays" with hash tables "for the performance
//! issues in the connection tracking functions, which are called for each
//! incoming data frames" (§3.3) — and, within the hash table, a probe with
//! the key hashed up front (what burst ingress does) vs one that hashes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lvrm_core::flowtable::FlowTable;
use lvrm_core::VriId;
use lvrm_net::flow::{FlowKey, HashedKey, Protocol};
use std::net::Ipv4Addr;

fn keys(n: u16) -> Vec<FlowKey> {
    (0..n)
        .map(|i| FlowKey {
            src: Ipv4Addr::new(10, 0, 1, (i % 250) as u8 + 1),
            dst: Ipv4Addr::new(10, 0, 2, 1),
            src_port: 10_000 + i,
            dst_port: 80,
            proto: Protocol::Tcp,
        })
        .collect()
}

/// The "dynamic array" the paper moved away from.
struct LinearTable(Vec<(FlowKey, VriId)>);

impl LinearTable {
    fn find(&self, k: &FlowKey) -> Option<VriId> {
        self.0.iter().find(|(key, _)| key == k).map(|(_, v)| *v)
    }
}

fn lookup(c: &mut Criterion) {
    for n in [64u16, 512, 2048] {
        let ks = keys(n);
        let hashed: Vec<HashedKey> = ks.iter().copied().map(HashedKey::new).collect();
        let mut g = c.benchmark_group(format!("flow_table/lookup_{n}_flows"));
        g.throughput(Throughput::Elements(1));

        let mut table = FlowTable::new(n as usize * 2, u64::MAX);
        for (i, k) in ks.iter().enumerate() {
            table.insert(*k, VriId(i as u32 % 6), 0);
        }
        let mut h = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("hashed_probe"), &(), |b, _| {
            b.iter(|| {
                let k = &hashed[h % hashed.len()];
                h += 1;
                std::hint::black_box(table.find_and_touch_hashed(k, 1))
            });
        });
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("find_and_touch"), &(), |b, _| {
            b.iter(|| {
                let k = &ks[i % ks.len()];
                i += 1;
                std::hint::black_box(table.find_and_touch(k, 1))
            });
        });

        let linear =
            LinearTable(ks.iter().enumerate().map(|(i, k)| (*k, VriId(i as u32 % 6))).collect());
        let mut j = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("linear"), &(), |b, _| {
            b.iter(|| {
                let k = &ks[j % ks.len()];
                j += 1;
                std::hint::black_box(linear.find(k))
            });
        });
        g.finish();
    }
}

criterion_group!(benches, lookup);
criterion_main!(benches);
