//! `lvrmd` — a runnable LVRM gateway daemon.
//!
//! Hosts virtual routers from a small config file and forwards live frames
//! between two attachments, printing per-second statistics. Attachments:
//!
//! * `--self-test` (default): an in-process PF_RING-style ring pair with a
//!   synthetic traffic generator on the far end — runs anywhere;
//! * `--udp <listen-peer-addr>`: a UDP-loopback attachment (the raw-socket
//!   stand-in), for wiring several `lvrmd` instances together.
//!
//! ```text
//! lvrmd [--config <file>] [--duration <secs>] [--rate <fps>] [--self-test]
//!       [--dispatch pinned|replicated]
//!       [--metrics-addr <ip:port>] [--checkpoint-path <file>]
//!       [--checkpoint-interval <secs>]
//!       [--ha-bind <ip:port> --ha-peer <ip:port>] [--ha-priority <1-254>]
//!       [--ha-node-id <n>] [--advert-interval <ms>]
//!       [--shard-id <n> --shards <n>] [--fleet-peer <shard,bind,peer>]...
//! ```
//!
//! `--metrics-addr` (off by default) serves the Prometheus text exposition
//! over a non-blocking listener driven from the same polling loop as the
//! dataplane — `curl http://<addr>/metrics` while the daemon runs.
//!
//! `--checkpoint-path` enables warm restart: the control plane is
//! checkpointed there every `--checkpoint-interval` seconds (default 1)
//! from the lazy reallocation tick, and a daemon started against an
//! existing checkpoint resumes from it — counters, flow affinity and
//! supervisor state survive, under an incremented restore epoch. SIGHUP
//! forces an immediate checkpoint and prints a conservation report.
//!
//! The cluster flags attach one cluster node (DESIGN.md §13, §15) with one
//! UDP link per peer; `--advert-interval` sets its advert spacing (100 ms
//! by default) with either flag group.
//!
//! `--ha-bind`/`--ha-peer` open a link to this shard's partner, pairing
//! two daemons into an active/standby set: VRRP-style adverts elect the
//! higher `--ha-priority` monitor as master, the master streams checkpoint
//! deltas over the link, and the standby — which does not accept dataplane
//! frames — promotes from its shadow checkpoint once the master has been
//! silent for 3 advert intervals + skew (≈ 361 ms at priority 100), and
//! accepts one probation advert later. SIGUSR1 on the master performs a
//! graceful handoff (priority-0 resign, sub-advert-interval takeover).
//!
//! `--shard-id`/`--shards` join an N-shard monitor fleet: every member
//! declares the same VR universe (the config's `vr` lines), serves only the
//! share the rendezvous partition assigns to its shard id, and talks to
//! each other shard over a `--fleet-peer <shard>,<bind>,<peer>` link.
//! Frames classified to an unowned VR are shed (counted, never silent). A
//! shard silent for 6 advert intervals + 75–125 ms of jitter is buried and
//! its VRs re-home to their rendezvous successors, warm-adopted from its
//! state stream. Without `--shard-id`/`--shards` an HA pair is shard 0 of
//! 1; with them, a shard may itself be an active/standby pair.
//!
//! Config format (one directive per line, `#` comments):
//!
//! ```text
//! balancer   jsq | rr | random
//! flow-based on | off
//! dispatch   pinned | replicated   # replicated: any-VRI dispatch + LVSU state replication (DESIGN.md §14)
//! allocator  fixed <cores> | dynamic <fps-per-core> | service-rate <bootstrap-fps>
//! queue      lamport | vlink
//! ring-capacity <n>      # shared-ring frames under vlink (0 = auto 4x, max 64x data queue)
//! batch-size <n>         # frames per ingress/dispatch burst (1 = per-frame)
//! supervision on | off   # respawn crashed/stalled VRIs (off by default)
//! shedding   on | off    # fair per-VR early shedding under overload
//! watermarks <low> <high>     # queue-occupancy pressure thresholds (0..1]
//! drain-deadline-ms <n>       # max drain wait on shrink/shutdown (0 = none)
//! latency-histograms on | off # dispatch→departure histograms (on by default)
//! fault crash <at-ms> <nth>   # inject: crash the nth-spawned VRI at at-ms
//! fault stall <at-ms> <nth>   # inject: wedge the nth-spawned VRI at at-ms
//! fault adapter-crash <at-ms>  # inject: kill the NIC adapter at at-ms
//! fault adapter-stall <at-ms>  # inject: wedge the NIC adapter at at-ms
//! fault adapter-resume <at-ms> # inject: clear an adapter stall at at-ms
//! adapter-failover <n>        # n standby NIC adapters behind the primary
//! vr <name> <sender-cidr> <receiver-cidr> [shed-weight]
//! ```
//!
//! The daemon exits cleanly on SIGINT/SIGTERM (or when `--duration`
//! elapses): ingress quiesces, every VRI drains its queue and retires, and
//! a final report checks the frame-conservation identity.

use std::net::Ipv4Addr;

use lvrm::core::config::{AllocatorKind, BalancerKind};
use lvrm::core::{FaultPlan, FaultyHost, PeerLink};
use lvrm::prelude::*;
use lvrm::router::Route;
use lvrm::runtime::{FleetPeerSpec, ThreadHost, UdpPeerLink};

#[derive(Debug)]
struct VrDecl {
    name: String,
    sender: (Ipv4Addr, u8),
    receiver: (Ipv4Addr, u8),
    /// Admission weight under overload shedding (`None` = config default).
    weight: Option<f64>,
}

#[derive(Debug)]
struct DaemonConfig {
    lvrm: LvrmConfig,
    vrs: Vec<VrDecl>,
    faults: FaultPlan,
    /// Standby NIC adapters behind the primary (`adapter-failover <n>`).
    standby_adapters: usize,
}

fn parse_cidr(s: &str) -> Result<(Ipv4Addr, u8), String> {
    let (ip, len) = s.split_once('/').ok_or_else(|| format!("{s:?} is not CIDR"))?;
    let ip: Ipv4Addr = ip.parse().map_err(|_| format!("bad address in {s:?}"))?;
    let len: u8 = len
        .parse()
        .ok()
        .filter(|l| *l <= 32)
        .ok_or_else(|| format!("bad prefix length in {s:?}"))?;
    Ok((ip, len))
}

/// A count of milliseconds as nanoseconds, if it is one and they fit.
fn millis_as_ns(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()?.checked_mul(1_000_000)
}

fn parse_config(text: &str) -> Result<DaemonConfig, String> {
    let mut lvrm = LvrmConfig::default();
    let mut vrs = Vec::new();
    let mut faults = FaultPlan::new();
    let mut standby_adapters = 0usize;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().unwrap();
        let args: Vec<&str> = it.collect();
        let err = |m: &str| format!("config line {}: {m}", no + 1);
        match (key, args.as_slice()) {
            ("balancer", [b]) => {
                lvrm.balancer = match *b {
                    "jsq" => BalancerKind::Jsq,
                    "rr" => BalancerKind::RoundRobin,
                    "random" => BalancerKind::Random,
                    other => return Err(err(&format!("unknown balancer {other:?}"))),
                };
            }
            ("flow-based", [v]) => {
                lvrm.flow_based = match *v {
                    "on" => true,
                    "off" => false,
                    other => return Err(err(&format!("flow-based must be on/off, got {other:?}"))),
                };
            }
            ("dispatch", [m]) => {
                lvrm.dispatch = m.parse::<DispatchMode>().map_err(|e| err(&e.to_string()))?;
            }
            ("allocator", ["fixed", n]) => {
                let cores: usize = n.parse().map_err(|_| err(&format!("bad core count {n:?}")))?;
                lvrm.allocator = AllocatorKind::Fixed { cores };
            }
            ("allocator", ["dynamic", r]) => {
                let rate: f64 = r.parse().map_err(|_| err(&format!("bad rate {r:?}")))?;
                lvrm.allocator = AllocatorKind::DynamicFixed { per_core_rate: rate };
            }
            ("allocator", ["service-rate", r]) => {
                let rate: f64 = r.parse().map_err(|_| err(&format!("bad rate {r:?}")))?;
                lvrm.allocator = AllocatorKind::DynamicServiceRate { bootstrap_rate: rate };
            }
            ("batch-size", [n]) => {
                lvrm.batch_size =
                    n.parse().ok().filter(|b| *b >= 1).ok_or_else(|| {
                        err(&format!("batch-size needs an integer >= 1, got {n:?}"))
                    })?;
            }
            ("supervision", [v]) => {
                lvrm.supervision = match *v {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(err(&format!("supervision must be on/off, got {other:?}")))
                    }
                };
            }
            ("fault", [kind, at_ms]) => {
                let at = millis_as_ns(at_ms).ok_or_else(|| {
                    err(&format!("fault needs a millisecond time, got {at_ms:?}"))
                })?;
                faults = match *kind {
                    "adapter-crash" => faults.crash_adapter_at(at),
                    "adapter-stall" => faults.stall_adapter_at(at),
                    "adapter-resume" => faults.resume_adapter_at(at),
                    other => return Err(err(&format!("unknown adapter fault kind {other:?}"))),
                };
            }
            ("adapter-failover", [n]) => {
                standby_adapters = n
                    .parse()
                    .ok()
                    .filter(|s| *s <= 8)
                    .ok_or_else(|| err(&format!("adapter-failover needs 0..=8, got {n:?}")))?;
            }
            ("fault", [kind, at_ms, nth]) => {
                let at = millis_as_ns(at_ms).ok_or_else(|| {
                    err(&format!("fault needs a millisecond time, got {at_ms:?}"))
                })?;
                let nth: usize = nth
                    .parse()
                    .map_err(|_| err(&format!("fault needs a spawn index, got {nth:?}")))?;
                faults = match *kind {
                    "crash" => faults.crash_at(at, nth),
                    "stall" => faults.stall_at(at, nth),
                    other => return Err(err(&format!("unknown fault kind {other:?}"))),
                };
            }
            ("queue", [q]) => {
                lvrm.queue_kind = q.parse::<QueueKind>().map_err(|e| err(&e.to_string()))?;
            }
            ("ring-capacity", [n]) => {
                lvrm.shared_ring_capacity =
                    n.parse().map_err(|_| err(&format!("bad shared ring capacity {n:?}")))?;
            }
            ("shedding", [v]) => {
                lvrm.overload_shedding = match *v {
                    "on" => true,
                    "off" => false,
                    other => return Err(err(&format!("shedding must be on/off, got {other:?}"))),
                };
            }
            ("watermarks", [low, high]) => {
                lvrm.low_watermark =
                    low.parse().map_err(|_| err(&format!("bad low watermark {low:?}")))?;
                lvrm.high_watermark =
                    high.parse().map_err(|_| err(&format!("bad high watermark {high:?}")))?;
            }
            ("drain-deadline-ms", [n]) => {
                lvrm.drain_deadline_ns = millis_as_ns(n).ok_or_else(|| {
                    err(&format!("drain-deadline-ms needs milliseconds, got {n:?}"))
                })?;
            }
            ("latency-histograms", [v]) => {
                lvrm.latency_histograms = match *v {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(err(&format!(
                            "latency-histograms must be on/off, got {other:?}"
                        )))
                    }
                };
            }
            ("vr", [name, sender, receiver]) | ("vr", [name, sender, receiver, _]) => {
                let weight = match args.get(3) {
                    Some(w) => Some(
                        w.parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w > 0.0)
                            .ok_or_else(|| err(&format!("bad shed-weight {w:?}")))?,
                    ),
                    None => None,
                };
                vrs.push(VrDecl {
                    name: name.to_string(),
                    sender: parse_cidr(sender).map_err(|e| err(&e))?,
                    receiver: parse_cidr(receiver).map_err(|e| err(&e))?,
                    weight,
                });
            }
            (other, _) => return Err(err(&format!("unknown or malformed directive {other:?}"))),
        }
    }
    if vrs.is_empty() {
        vrs.push(VrDecl {
            name: "vr0".into(),
            sender: (Ipv4Addr::new(10, 0, 1, 0), 24),
            receiver: (Ipv4Addr::new(10, 0, 2, 0), 24),
            weight: None,
        });
    }
    lvrm.validate().map_err(|e| format!("config: {e}"))?;
    Ok(DaemonConfig { lvrm, vrs, faults, standby_adapters })
}

fn build_router(decl: &VrDecl) -> Box<dyn VirtualRouter> {
    let mut routes = RouteTable::new();
    routes.insert(Route {
        prefix: decl.receiver.0,
        len: decl.receiver.1,
        iface: 1,
        next_hop: None,
    });
    routes.insert(Route { prefix: decl.sender.0, len: decl.sender.1, iface: 0, next_hop: None });
    Box::new(FastVr::new(&decl.name, routes))
}

/// The host `run` starts VRIs on: one thread per VRI pulling the monitor's
/// burst size, with replica ledgers when the VRs dispatch replicated.
fn vri_host(config: &LvrmConfig, clock: MonotonicClock) -> ThreadHost {
    let host = ThreadHost::new(clock).with_batch_size(config.batch_size.max(1));
    match config.dispatch {
        DispatchMode::Replicated => host.with_replication(),
        DispatchMode::Pinned => host,
    }
}

fn run(
    config: DaemonConfig,
    duration_s: u64,
    rate_fps: f64,
    metrics_addr: Option<&str>,
    cluster_links: Vec<FleetPeerSpec>,
) {
    use lvrm::core::{AdapterSupervisorConfig, FaultySocket, SocketAdapter, SupervisedAdapter};

    let clock = MonotonicClock::new();
    let n = lvrm::runtime::affinity::available_cores().max(1) as u16;
    let cores = CoreMap::new(
        CoreTopology::single_package(n),
        CoreId(0),
        if n > 1 { AffinityMode::SiblingFirst } else { AffinityMode::Same },
    );
    let drain_deadline_ns = config.lvrm.drain_deadline_ns;
    let vri_host = vri_host(&config.lvrm, clock.clone());
    let mut lvrm = Lvrm::new(config.lvrm, cores, clock.clone());
    // The host is always wrapped for fault injection; an empty plan is free.
    let mut host = FaultyHost::new(vri_host, config.faults.clone());
    let vr_ids: Vec<VrId> = config
        .vrs
        .iter()
        .map(|d| lvrm.add_vr(&d.name, &[d.sender, d.receiver], build_router(d), &mut host))
        .collect();
    for (d, id) in config.vrs.iter().zip(&vr_ids) {
        if let Some(w) = d.weight {
            lvrm.set_vr_weight(*id, w);
        }
    }
    lvrm::runtime::signal::install_shutdown_handlers();
    lvrm::runtime::signal::install_checkpoint_handler();
    lvrm::runtime::signal::install_handoff_handler();
    if let Some(cc) = lvrm.config().cluster {
        let links: Vec<(u32, Box<dyn PeerLink>)> = cluster_links
            .iter()
            .map(|spec| {
                let link = UdpPeerLink::connect(&spec.bind, &spec.peer).unwrap_or_else(|e| {
                    die(&format!("cannot open cluster link {:?}: {e}", spec.bind))
                });
                (spec.shard, Box::new(link) as Box<dyn PeerLink>)
            })
            .collect();
        assert!(lvrm.attach_cluster(links), "the config carries a cluster section");
        let advert_ms = cc.advert_interval_ns / 1_000_000;
        if let Some(partner) = cluster_links.iter().find(|spec| spec.shard == cc.shard_id) {
            println!(
                "HA: node {} priority {} advertising every {advert_ms} ms ({} -> {}); starting as backup",
                cc.node_id, cc.priority, partner.bind, partner.peer
            );
        }
        println!(
            "fleet: shard {}/{} serving {} of {} declared VRs, advert every {advert_ms} ms",
            cc.shard_id,
            cc.shards,
            lvrm.owned_vrs(),
            config.vrs.len()
        );
    }
    for (d, id) in config.vrs.iter().zip(&vr_ids) {
        let owned = lvrm.vr_owned_by_name(&d.name);
        println!(
            "hosted {} ({} -> {}), {} VRI(s){}",
            d.name,
            d.sender.0,
            d.receiver.0,
            lvrm.vri_count(*id),
            if owned { "" } else { " [unowned: shedding]" }
        );
    }
    // Warm restart: resume from an existing checkpoint, if one is there.
    let ckpt_path = lvrm.config().checkpoint_path.clone();
    if let Some(path) = ckpt_path.as_ref() {
        if path.exists() {
            match lvrm.restore_from(path, &mut host) {
                Ok(epoch) => println!("restored from {} (epoch {epoch})", path.display()),
                Err(e) => println!("checkpoint rejected ({e}); cold start"),
            }
        } else {
            println!("checkpointing to {} (no prior checkpoint)", path.display());
        }
    }
    let mut metrics = metrics_addr.map(|addr| {
        let srv = lvrm::runtime::MetricsServer::bind(addr)
            .unwrap_or_else(|e| die(&format!("cannot bind metrics endpoint {addr:?}: {e}")));
        println!("metrics: http://{}/metrics", srv.local_addr());
        srv
    });

    // Self-test attachment: a ring pair with a generator thread that plays
    // each VR's sender subnet. The NIC side goes behind the adapter
    // supervisor, wrapped for deterministic fault injection (an empty plan
    // is free); `adapter-failover <n>` adds standby rings to the chain.
    let (primary, mut far_end) = lvrm::runtime::RingAdapter::pair(8192);
    let mut chain: Vec<Box<dyn SocketAdapter>> =
        vec![Box::new(FaultySocket::with_plan(primary, &config.faults))];
    let mut standby_far_ends = Vec::new();
    for _ in 0..config.standby_adapters {
        let (near, far) = lvrm::runtime::RingAdapter::pair(8192);
        chain.push(Box::new(near));
        standby_far_ends.push(far);
    }
    let mut nic = SupervisedAdapter::with_chain(chain, AdapterSupervisorConfig::default());
    let gen_specs: Vec<(Ipv4Addr, Ipv4Addr)> = config
        .vrs
        .iter()
        .map(|d| {
            let s = d.sender.0.octets();
            let r = d.receiver.0.octets();
            (Ipv4Addr::new(s[0], s[1], s[2], 5), Ipv4Addr::new(r[0], r[1], r[2], 9))
        })
        .collect();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_gen = stop.clone();
    let generator = std::thread::spawn(move || {
        let mut builders: Vec<FrameBuilder> =
            gen_specs.iter().map(|(s, d)| FrameBuilder::new(*s, *d)).collect();
        let per_frame = std::time::Duration::from_nanos((1e9 / rate_fps) as u64);
        let mut next = std::time::Instant::now();
        let mut i = 0usize;
        let mut received_back = 0u64;
        while !stop_gen.load(std::sync::atomic::Ordering::Acquire) {
            if std::time::Instant::now() >= next {
                let n = builders.len();
                let b = &mut builders[i % n];
                let f = b.udp(20_000 + (i % 1000) as u16, 30_000, &[0u8; 26]);
                let _ = far_end.send(f); // ring full = generator outpaced us
                i += 1;
                next += per_frame;
            }
            while far_end.poll().is_ok() {
                received_back += 1;
            }
            // After a failover, egress leaves through a standby ring.
            for standby in standby_far_ends.iter_mut() {
                while standby.poll().is_ok() {
                    received_back += 1;
                }
            }
        }
        (far_end.tx_count(), received_back)
    });

    let t_end = std::time::Instant::now() + std::time::Duration::from_secs(duration_s);
    let mut last_out = 0u64;
    while std::time::Instant::now() < t_end && !lvrm::runtime::signal::requested() {
        // One burst of the monitor loop (`Lvrm::run_burst`). The supervisor
        // absorbs adapter faults: a degraded or dead NIC reads as idle while
        // reopen/failover runs underneath, and egress it refuses is parked
        // in its retry queue. An HA standby leaves the NIC alone.
        lvrm.run_burst(&mut nic, &mut host);
        // Scrapes are served from the same loop: one non-blocking poll per
        // iteration, rendering the exposition only when a request completed.
        if let Some(srv) = metrics.as_mut() {
            srv.poll(|| lvrm.render_prometheus());
        }
        // SIGUSR1: graceful mastership handoff (priority-0 resign).
        if lvrm::runtime::signal::take_handoff_request() {
            let now = clock.now_ns();
            if lvrm.cluster_mut().is_some_and(|node| node.request_handoff(now)) {
                println!("SIGUSR1: resigning mastership (handoff to peer)");
            } else {
                println!("SIGUSR1: not an HA master; nothing to hand off");
            }
        }
        // SIGHUP: checkpoint now and report conservation, without stopping.
        if lvrm::runtime::signal::take_checkpoint_request() {
            match ckpt_path.as_ref() {
                Some(path) => {
                    let ok = lvrm.checkpoint_to(path, clock.now_ns());
                    println!(
                        "SIGHUP: checkpoint {} ({})",
                        path.display(),
                        if ok { "written" } else { "FAILED" }
                    );
                }
                None => println!("SIGHUP: no --checkpoint-path configured"),
            }
            println!("{}", lvrm.ledger());
        }
        // The 1 s reallocation tick leaves a structured one-line summary.
        if let Some(line) = lvrm.take_tick_line() {
            nic.publish(lvrm.metrics());
            let out = lvrm.stats().frames_out;
            match lvrm.ha_role() {
                Some(role) => {
                    println!("{line} out_per_s={} ha={role}", out.saturating_sub(last_out))
                }
                None => println!("{line} out_per_s={}", out.saturating_sub(last_out)),
            }
            last_out = out;
        }
    }
    let interrupted = lvrm::runtime::signal::requested();
    stop.store(true, std::sync::atomic::Ordering::Release);
    let (generated, echoed) = generator.join().expect("generator joins");

    // Graceful drain: ingress is quiesced, every VRI empties its queue and
    // retires; the deadline bounds how long a wedged instance can hold the
    // exit. Bursts go on until the last VRI has retired and the NIC ring
    // reads empty (or, should a peer keep sending, the deadline passes):
    // egress keeps flowing out, and what is left in the ring is read and
    // counted as `shed_early`.
    println!("\n{}: draining...", if interrupted { "signal" } else { "duration elapsed" });
    let deadline = clock.now_ns().saturating_add(drain_deadline_ns.max(1_000_000));
    loop {
        let drained = lvrm.shutdown(deadline, &mut host);
        let read = nic.rx_count();
        lvrm.run_burst(&mut nic, &mut host);
        if drained && (nic.rx_count() == read || clock.now_ns() >= deadline) {
            break;
        }
    }
    host.inner.shutdown();
    // A final checkpoint captures the drained state for the next start.
    if let Some(path) = ckpt_path.as_ref() {
        lvrm.checkpoint_to(path, clock.now_ns());
    }
    println!("\nfinal state:");
    for vr in lvrm.snapshot() {
        println!("{vr}");
    }
    println!("{}", lvrm.ledger());
    if nic.reopens + nic.failovers + nic.egress_retries + nic.tx_drops > 0 {
        println!(
            "adapter: reopens {}, failovers {}, egress retries {}, retry-deadline drops {}",
            nic.reopens, nic.failovers, nic.egress_retries, nic.tx_drops
        );
    }
    println!(
        "\nself-test done: generated {generated}, forwarded {}, echoed back to peer {echoed}",
        lvrm.stats().frames_out
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config_path: Option<String> = None;
    let mut duration_s = 5u64;
    let mut rate_fps = 50_000.0;
    let mut metrics_addr: Option<String> = None;
    let mut dispatch: Option<DispatchMode> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_interval_s: Option<u64> = None;
    let mut ha_bind: Option<String> = None;
    let mut ha_peer: Option<String> = None;
    let mut ha_priority: Option<u8> = None;
    let mut ha_node_id: Option<u64> = None;
    let mut advert_interval_ns: Option<u64> = None;
    let mut shard_id: Option<u32> = None;
    let mut shards: Option<u32> = None;
    let mut fleet_peers: Vec<FleetPeerSpec> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--duration" => {
                duration_s = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--duration needs seconds"));
                i += 2;
            }
            "--rate" => {
                rate_fps = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--rate needs fps"));
                i += 2;
            }
            "--dispatch" => {
                dispatch = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse::<DispatchMode>().ok())
                        .unwrap_or_else(|| die("--dispatch needs pinned|replicated")),
                );
                i += 2;
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    args.get(i + 1).cloned().unwrap_or_else(|| die("--metrics-addr needs ip:port")),
                );
                i += 2;
            }
            "--checkpoint-path" => {
                checkpoint_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--checkpoint-path needs a file")),
                );
                i += 2;
            }
            "--checkpoint-interval" => {
                checkpoint_interval_s = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|s| *s > 0)
                        .unwrap_or_else(|| die("--checkpoint-interval needs whole seconds >= 1")),
                );
                i += 2;
            }
            "--ha-bind" => {
                ha_bind = Some(
                    args.get(i + 1).cloned().unwrap_or_else(|| die("--ha-bind needs ip:port")),
                );
                i += 2;
            }
            "--ha-peer" => {
                ha_peer = Some(
                    args.get(i + 1).cloned().unwrap_or_else(|| die("--ha-peer needs ip:port")),
                );
                i += 2;
            }
            "--ha-priority" => {
                ha_priority = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|p| (1..=254).contains(p))
                        .unwrap_or_else(|| die("--ha-priority needs 1..=254")),
                );
                i += 2;
            }
            "--ha-node-id" => {
                ha_node_id = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--ha-node-id needs an integer")),
                );
                i += 2;
            }
            "--advert-interval" => {
                advert_interval_ns = Some(
                    args.get(i + 1)
                        .and_then(|s| millis_as_ns(s))
                        .filter(|ns| *ns > 0)
                        .unwrap_or_else(|| die("--advert-interval needs whole milliseconds >= 1")),
                );
                i += 2;
            }
            "--shard-id" => {
                shard_id = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--shard-id needs an integer")),
                );
                i += 2;
            }
            "--shards" => {
                shards = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| die("--shards needs an integer >= 1")),
                );
                i += 2;
            }
            "--fleet-peer" => {
                fleet_peers.push(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--fleet-peer needs <shard>,<bind>,<peer>")),
                );
                i += 2;
            }
            "--self-test" => i += 1, // the default; accepted for clarity
            "--help" | "-h" => {
                println!(
                    "usage: lvrmd [--config FILE] [--duration SECS] [--rate FPS] [--self-test] \
                     [--dispatch pinned|replicated] \
                     [--metrics-addr IP:PORT] [--checkpoint-path FILE] \
                     [--checkpoint-interval SECS] [--ha-bind IP:PORT --ha-peer IP:PORT] \
                     [--ha-priority 1-254] [--ha-node-id N] [--advert-interval MS] \
                     [--shard-id N --shards N] [--fleet-peer SHARD,BIND,PEER]..."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let text = match &config_path {
        Some(p) => {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("cannot read {p:?}: {e}")))
        }
        None => String::new(),
    };
    let mut config = parse_config(&text).unwrap_or_else(|e| die(&e));
    if let Some(mode) = dispatch {
        config.lvrm.dispatch = mode;
        config.lvrm.validate().unwrap_or_else(|e| die(&format!("--dispatch: {e}")));
    }
    if let Some(p) = checkpoint_path {
        config.lvrm.checkpoint_path = Some(p.into());
    }
    if let Some(s) = checkpoint_interval_s {
        config.lvrm.checkpoint_interval_ns = s * 1_000_000_000;
    }
    let sharded = shard_id.is_some();
    let (shard_id, shards) = match (shard_id, shards) {
        (Some(id), Some(n)) if id < n => (id, n),
        (None, None) => (0, 1),
        _ => die("--shard-id and --shards must be given together, with --shard-id < --shards"),
    };
    if fleet_peers.iter().any(|spec| spec.shard == shard_id || spec.shard >= shards) {
        die("--fleet-peer shard ids must name *other* members of the --shard-id/--shards fleet");
    }
    // The partner link is tagged with this node's own shard: an HA pair
    // without fleet flags is shard 0 of 1.
    let mut cluster_links = fleet_peers;
    match (ha_bind, ha_peer) {
        (Some(bind), Some(peer)) => {
            cluster_links.push(FleetPeerSpec { shard: shard_id, bind, peer })
        }
        (None, None) if ha_priority.is_none() && ha_node_id.is_none() => {}
        (None, None) => die("--ha-priority/--ha-node-id need --ha-bind and --ha-peer"),
        _ => die("--ha-bind and --ha-peer must be given together"),
    }
    if sharded || !cluster_links.is_empty() {
        let d = lvrm::core::ClusterConfig::default();
        config.lvrm.cluster = Some(lvrm::core::ClusterConfig {
            shard_id,
            shards,
            node_id: ha_node_id.unwrap_or(d.node_id),
            priority: ha_priority.unwrap_or(d.priority),
            advert_interval_ns: advert_interval_ns.unwrap_or(d.advert_interval_ns),
            stream_interval_ns: d.stream_interval_ns,
        });
        config.lvrm.validate().unwrap_or_else(|e| die(&format!("cluster config: {e}")));
    } else if advert_interval_ns.is_some() {
        die("--advert-interval needs --ha-bind/--ha-peer or --shard-id/--shards");
    }
    run(config, duration_s, rate_fps, metrics_addr.as_deref(), cluster_links);
}

fn die(msg: &str) -> ! {
    eprintln!("lvrmd: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm::core::monitor::MAX_VRIS_PER_VR;
    use proptest::prelude::*;

    /// The directive table in this file's header: each line's keyword and
    /// the argument lists it takes (`a | b` split apart), `#` comments
    /// dropped.
    fn directives() -> Vec<(&'static str, Vec<Vec<&'static str>>)> {
        let table = include_str!("lvrmd.rs")
            .split("//! Config format")
            .nth(1)
            .and_then(|rest| rest.split("//! ```text\n").nth(1))
            .and_then(|rest| rest.split("//! ```\n").next())
            .expect("the header has a config format table");
        table
            .lines()
            .filter_map(|line| {
                let line = line.trim_start_matches("//!").split('#').next()?.trim();
                let (keyword, args) = line.split_once(char::is_whitespace)?;
                Some((
                    keyword,
                    args.split('|').map(|alt| alt.split_whitespace().collect()).collect(),
                ))
            })
            .collect()
    }

    /// `|`-separated: what fills the placeholders, and the values that
    /// break them.
    const VALUES: &str = "0|1|2|9|32|0.2|0.8|-1|NaN|inf|1e309|4294967296|18446744073709551615|\
        18446744073709551616|10.0.1.0/24|10.0.2.0/24|0.0.0.0/0|10.0.2.0/33|999.0.0.0/8|10.0.1.0|\
        /|#|\0|é";

    /// Lines built from the directive table: a keyword and one of its
    /// argument lists, each `<placeholder>` filled from [`VALUES`], an
    /// `[optional]` one there or not, one literal in eight swapped for a
    /// value, and now and then a word too many.
    fn config_text() -> impl Strategy<Value = String> {
        let table = directives();
        let values: Vec<&str> = VALUES.split('|').collect();
        let line = (any::<usize>(), any::<usize>(), prop::collection::vec(any::<usize>(), 8..9));
        let lines = prop::collection::vec((line, 0usize..6), 0..6);
        lines.prop_map(move |lines| {
            let value = |p: usize| values[p % values.len()];
            let line = |((d, alt, picks), extra): &((usize, usize, Vec<usize>), usize)| {
                let (keyword, alts) = &table[d % table.len()];
                let mut words = vec![*keyword];
                for (arg, &p) in alts[alt % alts.len()].iter().zip(picks) {
                    match arg.chars().next() {
                        Some('<') => words.push(value(p)),
                        Some('[') if p % 2 == 0 => words.push(value(p / 2)),
                        Some('[') => {}
                        _ => words.push(if p % 8 == 0 { value(p / 8) } else { arg }),
                    }
                }
                words.extend(picks.iter().rev().take(extra.saturating_sub(3)).map(|&p| value(p)));
                words.join(" ")
            };
            lines.iter().map(line).collect::<Vec<_>>().join("\n")
        })
    }

    #[test]
    fn the_header_table_is_read_whole() {
        let table = directives();
        let keywords: Vec<&str> = table.iter().map(|(keyword, _)| *keyword).collect();
        for key in ["balancer", "allocator", "ring-capacity", "fault", "adapter-failover", "vr"] {
            assert!(keywords.contains(&key), "{key} missing from {keywords:?}");
        }
        let allocator = table.iter().find(|(keyword, _)| *keyword == "allocator").unwrap();
        assert_eq!(
            allocator.1,
            [
                ["fixed", "<cores>"],
                ["dynamic", "<fps-per-core>"],
                ["service-rate", "<bootstrap-fps>"]
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any text parses to a config that validates and builds, or to an
        /// error that says it is one — never a panic (an overflowing
        /// millisecond count once was one, and so were a zero-core or NaN
        /// allocator and a ring too large to allocate). Each line is tried
        /// alone too: one bad line sinks a whole text, so most lines only
        /// reach `validate` and the builders on their own.
        #[test]
        fn config_parse_never_panics(text in config_text()) {
            for text in std::iter::once(text.as_str()).chain(text.lines()) {
                match parse_config(text) {
                    Ok(c) => {
                        prop_assert!(c.lvrm.validate().is_ok() && !c.vrs.is_empty());
                        c.lvrm.build_allocator();
                        if c.lvrm.vlink_fabric() {
                            let max = MAX_VRIS_PER_VR * c.lvrm.data_queue_capacity;
                            prop_assert!(c.lvrm.effective_shared_ring_capacity() <= max);
                        }
                    }
                    Err(e) => prop_assert!(e.starts_with("config"), "{e}"),
                }
            }
        }
    }

    #[test]
    fn empty_config_defaults_one_vr() {
        let c = parse_config("").unwrap();
        assert_eq!(c.vrs.len(), 1);
        assert_eq!(c.lvrm.balancer, BalancerKind::Jsq);
    }

    #[test]
    fn full_config_parses() {
        let c = parse_config(
            "# campus gateway\n\
             balancer rr\n\
             flow-based on\n\
             allocator dynamic 60000\n\
             queue vlink\n\
             batch-size 32\n\
             vr cs   10.0.1.0/24 10.0.2.0/24\n\
             vr math 10.9.1.0/24 10.9.2.0/24\n",
        )
        .unwrap();
        assert_eq!(c.lvrm.balancer, BalancerKind::RoundRobin);
        assert!(c.lvrm.flow_based);
        assert_eq!(c.lvrm.queue_kind, QueueKind::VLink);
        assert_eq!(c.lvrm.batch_size, 32);
        assert!(
            matches!(c.lvrm.allocator, AllocatorKind::DynamicFixed { per_core_rate } if per_core_rate == 60_000.0)
        );
        assert_eq!(c.vrs.len(), 2);
        assert_eq!(c.vrs[1].name, "math");
        assert_eq!(c.vrs[1].sender.0, Ipv4Addr::new(10, 9, 1, 0));
    }

    #[test]
    fn dispatch_directive_parses() {
        let c = parse_config("dispatch replicated\n").unwrap();
        assert_eq!(c.lvrm.dispatch, DispatchMode::Replicated);
        let c = parse_config("dispatch pinned\n").unwrap();
        assert_eq!(c.lvrm.dispatch, DispatchMode::Pinned);
        assert_eq!(parse_config("").unwrap().lvrm.dispatch, DispatchMode::Pinned);
        assert!(parse_config("dispatch sideways\n").is_err());
        // Semantic clash: replicated dispatch defeats flow affinity.
        let e = parse_config("flow-based on\ndispatch replicated\n").unwrap_err();
        assert!(e.contains("flow"), "{e}");
    }

    /// `dispatch replicated` promises LVSU state replication: a VRI on the
    /// host `run` builds keeps a replica ledger and flushes it upstream.
    #[test]
    fn replicated_dispatch_starts_vris_that_send_state_updates() {
        use lvrm::core::host::{VriHost, VriSpec};
        use std::time::{Duration, Instant};

        let config = parse_config("dispatch replicated\n").unwrap();
        let mut host = vri_host(&config.lvrm, MonotonicClock::new());
        let (mut chans, endpoint) =
            lvrm::ipc::channels::vri_channels::<Frame>(QueueKind::Lamport, 64, 64);
        let spec = VriSpec { vr: VrId(0), vri: VriId(0), core: CoreId(0) };
        host.spawn_vri(spec, endpoint, build_router(&config.vrs[0]));
        for port in 0..16 {
            let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 1))
                .udp(port, 2, &[]);
            chans.data_tx.try_send(frame).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut replicated = false;
        while !replicated && Instant::now() < deadline {
            match chans.ctrl_rx.try_recv() {
                Some(ev) => replicated = lvrm::core::is_state_update(&ev.payload),
                None => std::thread::yield_now(),
            }
        }
        host.shutdown();
        assert!(replicated, "no LVSU batch reached the monitor's side within 10 s");
    }

    #[test]
    fn bad_directives_error_with_line_numbers() {
        let e = parse_config("balancer jsq\nallocator warp 9\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        assert!(parse_config("vr a 10.0.1.0 10.0.2.0/24\n").is_err());
        assert!(parse_config("flow-based maybe\n").is_err());
        assert!(parse_config("batch-size 0\n").is_err());
        assert!(parse_config("batch-size many\n").is_err());
        assert!(parse_config("supervision maybe\n").is_err());
        assert!(parse_config("fault melt 100 0\n").is_err());
        assert!(parse_config("fault crash soon 0\n").is_err());
        // Milliseconds whose nanoseconds overflow are an error, not a panic.
        assert!(parse_config("fault adapter-stall 18446744073709551615\n").is_err());
        assert!(parse_config("drain-deadline-ms 18446744073709551615\n").is_err());
        for gone in ["fastforward", "mutex"] {
            let e = parse_config(&format!("balancer jsq\nqueue {gone}\n")).unwrap_err();
            assert!(e.contains("line 2") && e.contains("(expected one of lamport vlink)"), "{e}");
        }
    }

    #[test]
    fn overload_directives_parse() {
        let c = parse_config(
            "shedding on\n\
             watermarks 0.2 0.8\n\
             drain-deadline-ms 250\n\
             vr cs   10.0.1.0/24 10.0.2.0/24 4\n\
             vr math 10.9.1.0/24 10.9.2.0/24\n",
        )
        .unwrap();
        assert!(c.lvrm.overload_shedding);
        assert_eq!(c.lvrm.low_watermark, 0.2);
        assert_eq!(c.lvrm.high_watermark, 0.8);
        assert_eq!(c.lvrm.drain_deadline_ns, 250_000_000);
        assert_eq!(c.vrs[0].weight, Some(4.0));
        assert_eq!(c.vrs[1].weight, None);
        assert!(parse_config("shedding maybe\n").is_err());
        assert!(parse_config("watermarks 0.5\n").is_err());
        assert!(parse_config("drain-deadline-ms soon\n").is_err());
        assert!(parse_config("latency-histograms maybe\n").is_err());
        assert!(!parse_config("latency-histograms off\n").unwrap().lvrm.latency_histograms);
        assert!(parse_config("").unwrap().lvrm.latency_histograms, "on by default");
        assert!(parse_config("vr a 10.0.1.0/24 10.0.2.0/24 -1\n").is_err());
    }

    #[test]
    fn invalid_config_is_rejected_by_validate() {
        // Parses directive-wise but fails semantic validation: watermarks
        // out of order.
        let e = parse_config("watermarks 0.9 0.3\n").unwrap_err();
        assert!(e.contains("watermark"), "{e}");
        let e = parse_config("batch-size 1\nwatermarks 0 0.5\n").unwrap_err();
        assert!(e.contains("watermark"), "{e}");
        // Payloads an allocator's constructor refuses, and rings too large
        // to allocate: each once panicked or aborted the daemon.
        for text in [
            "allocator fixed 0\n",
            "allocator dynamic -1\n",
            "allocator dynamic NaN\n",
            "allocator service-rate 0\n",
            "queue vlink\nring-capacity 18446744073709551615\n",
            "queue vlink\nring-capacity 4294967296\n",
        ] {
            let e = parse_config(text).unwrap_err();
            assert!(e.starts_with("config: "), "{text:?}: {e}");
        }
        assert!(parse_config("queue vlink\nring-capacity 65536\n").is_ok());
    }

    #[test]
    fn supervision_and_fault_directives_parse() {
        use lvrm::core::fault::FaultKind;
        let c = parse_config(
            "supervision on\n\
             fault crash 1500 0\n\
             fault stall 2000 1\n",
        )
        .unwrap();
        assert!(c.lvrm.supervision);
        let evs = c.faults.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at_ns, 1_500_000_000);
        assert_eq!(evs[0].kind, FaultKind::Crash { nth_spawn: 0 });
        assert_eq!(evs[1].kind, FaultKind::Stall { nth_spawn: 1 });
        assert!(!parse_config("supervision off\n").unwrap().lvrm.supervision);
    }

    #[test]
    fn adapter_fault_and_failover_directives_parse() {
        use lvrm::core::fault::AdapterFaultKind;
        let c = parse_config(
            "adapter-failover 2\n\
             fault adapter-crash 500\n\
             fault adapter-stall 900\n\
             fault adapter-resume 1200\n",
        )
        .unwrap();
        assert_eq!(c.standby_adapters, 2);
        let evs = c.faults.adapter_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at_ns, 500_000_000);
        assert_eq!(evs[0].kind, AdapterFaultKind::Crash);
        assert_eq!(evs[1].kind, AdapterFaultKind::Stall);
        assert_eq!(evs[2].kind, AdapterFaultKind::Resume);
        assert_eq!(parse_config("").unwrap().standby_adapters, 0);
        assert!(parse_config("adapter-failover many\n").is_err());
        assert!(parse_config("adapter-failover 99\n").is_err());
        assert!(parse_config("fault adapter-melt 100\n").is_err());
        assert!(parse_config("fault adapter-crash soon\n").is_err());
    }
}
