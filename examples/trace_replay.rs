//! Trace-file workflow: synthesize a workload, write it as a standard pcap
//! file, read it back, and replay it through LVRM from main memory — the
//! paper's "main memory" socket-adapter variant (§3.1) with a real trace
//! file behind it.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use std::net::Ipv4Addr;

use lvrm::core::host::RecordingHost;
use lvrm::net::{read_pcap, write_pcap};
use lvrm::prelude::*;
use lvrm::runtime::RingAdapter;

fn main() {
    // 1. Synthesize a mixed-size workload and stamp arrival times (1 Mfps).
    let mut frames = Vec::new();
    for (i, &size) in [84usize, 256, 512, 1024, 1538].iter().cycle().take(5_000).enumerate() {
        let mut b = FrameBuilder::new(
            Ipv4Addr::new(10, 0, 1, (i % 200) as u8 + 1),
            Ipv4Addr::new(10, 0, 2, 9),
        );
        let mut f =
            b.udp_with_wire_size(10_000 + (i % 500) as u16, 20_000, size).expect("valid sizes");
        f.ts_ns = i as u64 * 1_000;
        frames.push(f);
    }

    // 2. Write and re-read a real pcap file.
    let path = std::env::temp_dir().join("lvrm-example-trace.pcap");
    write_pcap(&path, &frames).expect("write pcap");
    let mut loaded = read_pcap(&path).expect("read pcap");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("wrote {} frames ({bytes} bytes) to {}", loaded.len(), path.display());
    assert_eq!(loaded.len(), frames.len());

    // 3. Replay through LVRM from memory, inline (no network, output
    //    discarded) and time it.
    let clock = MonotonicClock::new();
    let cores = CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
    let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock.clone());
    let mut host = RecordingHost::default();
    let routes = lvrm::router::parse_map_file("0.0.0.0/0 1\n").unwrap();
    let _ = lvrm.add_vr(
        "replay",
        &[(Ipv4Addr::new(10, 0, 1, 0), 24)],
        Box::new(FastVr::new("replay", routes)),
        &mut host,
    );

    // The loaded frames sit in a PF_RING-style ring in memory; forwarded
    // frames go out the other ring, where nothing reads them.
    let wire_bytes: u64 = loaded.iter().map(|f| f.wire_len() as u64).sum();
    let (mut nic, mut wire) = RingAdapter::pair(8192);
    wire.send_batch(&mut loaded).expect("the ring holds the trace");
    let mut discarded = 0u64;
    let t0 = clock.now_ns();
    while nic.rx_pending() > 0 {
        discarded += lvrm.run_burst(&mut nic, &mut host) as u64;
    }
    let elapsed = clock.now_ns() - t0;
    println!(
        "replayed {} frames in {:.2} ms: {:.2} Mfps, {:.2} Gbps wire-equivalent",
        discarded,
        elapsed as f64 / 1e6,
        discarded as f64 * 1e3 / elapsed as f64,
        wire_bytes as f64 * 8.0 / elapsed as f64,
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(discarded, 5_000);
}
