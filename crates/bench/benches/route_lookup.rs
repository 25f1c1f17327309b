//! Ablation: the stride-8 multibit trie vs a linear route list, for the
//! source-subnet classifier and the VR route tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lvrm_router::{Route, RouteTable};
use std::net::Ipv4Addr;

/// `n` routes under 10/8 with lengths cycling 16–28, so lookups end at
/// every trie depth below the root, plus a default route.
fn routes(n: u32) -> Vec<Route> {
    let mut rs: Vec<Route> = (0..n - 1)
        .map(|i| {
            let spread = i.wrapping_mul(0x9E37_79B1) >> 8;
            Route {
                prefix: Ipv4Addr::from(0x0a00_0000 | spread),
                len: 16 + (i % 4) as u8 * 4,
                iface: (i % 4) as u16,
                next_hop: None,
            }
        })
        .collect();
    rs.push(Route { prefix: Ipv4Addr::UNSPECIFIED, len: 0, iface: 9, next_hop: None });
    rs
}

fn linear_lookup(routes: &[Route], dst: Ipv4Addr) -> Option<u16> {
    let d = u32::from(dst);
    routes
        .iter()
        .filter(|r| {
            let mask = if r.len == 0 { 0 } else { u32::MAX << (32 - r.len) };
            u32::from(r.prefix) & mask == d & mask
        })
        .max_by_key(|r| r.len)
        .map(|r| r.iface)
}

fn lookup(c: &mut Criterion) {
    for n in [16u32, 256, 4096] {
        let rs = routes(n);
        // Destinations inside the installed prefixes, host bits set.
        let dsts: Vec<Ipv4Addr> =
            rs.iter().map(|r| Ipv4Addr::from(u32::from(r.prefix) | 9)).collect();
        let mut g = c.benchmark_group(format!("route_lookup/{n}_routes"));
        g.throughput(Throughput::Elements(1));

        let mut trie = RouteTable::new();
        for r in &rs {
            trie.insert(*r);
        }
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("multibit"), &(), |b, _| {
            b.iter(|| {
                let dst = dsts[i % dsts.len()];
                i += 1;
                std::hint::black_box(trie.lookup(dst).map(|r| r.iface))
            });
        });
        let mut j = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("linear"), &(), |b, _| {
            b.iter(|| {
                let dst = dsts[j % dsts.len()];
                j += 1;
                std::hint::black_box(linear_lookup(&rs, dst))
            });
        });
        g.finish();
    }
}

criterion_group!(benches, lookup);
criterion_main!(benches);
