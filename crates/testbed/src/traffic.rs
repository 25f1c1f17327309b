//! UDP traffic sources and ping probes.
//!
//! The paper's UDP model: a coordinator starts all senders simultaneously;
//! each emits constant-departure UDP/IP packets at a specified source rate
//! (§4.1). Experiments 2c–2e drive the rate through staircase schedules
//! (e.g. 60→360→60 Kfps in 60 Kfps steps every 5 s).

use std::net::Ipv4Addr;

use lvrm_net::headers::tcp_flags;
use lvrm_net::{Frame, FrameBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Destination port of UDP *data* traffic — receivers count goodput only on
/// this port, so flood traffic (dst 9/80) can't inflate delivery numbers.
pub const UDP_DATA_PORT: u16 = 30_000;

/// A piecewise-constant rate schedule: `(from_ns, frames_per_second)`
/// segments, sorted by time. The rate before the first segment is 0.
#[derive(Clone, Debug, Default)]
pub struct RateSchedule {
    segments: Vec<(u64, f64)>,
}

impl RateSchedule {
    /// A constant rate from t=0.
    pub fn constant(fps: f64) -> RateSchedule {
        RateSchedule { segments: vec![(0, fps)] }
    }

    /// Build from explicit segments (must be time-sorted).
    pub fn piecewise(segments: Vec<(u64, f64)>) -> RateSchedule {
        assert!(segments.windows(2).all(|w| w[0].0 <= w[1].0), "segments must be sorted");
        RateSchedule { segments }
    }

    /// The paper's staircase (Experiment 2c): rise from `step` to `peak` in
    /// `step` increments every `dwell_ns`, then descend back. E.g.
    /// `staircase(60e3, 360e3, 5s)` = 60, 120, …, 360, 300, …, 60 Kfps.
    pub fn staircase(step_fps: f64, peak_fps: f64, dwell_ns: u64) -> RateSchedule {
        assert!(step_fps > 0.0 && peak_fps >= step_fps);
        let nsteps = (peak_fps / step_fps).round() as u64;
        let mut segments = Vec::new();
        let mut t = 0u64;
        for k in 1..=nsteps {
            segments.push((t, step_fps * k as f64));
            t += dwell_ns;
        }
        for k in (1..nsteps).rev() {
            segments.push((t, step_fps * k as f64));
            t += dwell_ns;
        }
        RateSchedule { segments }
    }

    /// A day/night ramp: an 8-step staircase from `trough_fps` up to
    /// `peak_fps` and back down over one `period_ns`, then `trough_fps`
    /// for good. A trough above the peak inverts the phase.
    pub fn diurnal(trough_fps: f64, peak_fps: f64, period_ns: u64) -> RateSchedule {
        const STEPS: u64 = 8;
        let dwell = period_ns / (2 * STEPS);
        let level = |k: u64| trough_fps + k as f64 / (STEPS - 1) as f64 * (peak_fps - trough_fps);
        let ks = (0..STEPS).chain((0..STEPS).rev());
        RateSchedule { segments: ks.zip(0..).map(|(k, i)| (i * dwell, level(k))).collect() }
    }

    /// Shift the whole schedule later by `delay_ns` (staggered starts,
    /// Experiment 2d).
    pub fn delayed(mut self, delay_ns: u64) -> RateSchedule {
        for (t, _) in &mut self.segments {
            *t += delay_ns;
        }
        self
    }

    /// Rate at time `t`.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        let mut rate = 0.0;
        for (from, fps) in &self.segments {
            if *from <= t_ns {
                rate = *fps;
            } else {
                break;
            }
        }
        rate
    }

    /// Total duration until the last segment begins (callers usually add one
    /// dwell for the final step).
    pub fn last_change_ns(&self) -> u64 {
        self.segments.last().map_or(0, |(t, _)| *t)
    }
}

/// What a simulated source emits.
#[derive(Clone, Debug)]
pub enum SourceKind {
    /// Constant-departure UDP frames of one wire size, spread over `flows`
    /// distinct port pairs.
    UdpCbr { wire_size: usize, flows: u16 },
    /// ICMP-echo-style probes: one request per `interval_ns`; the receiver
    /// reflects them and the source records the RTT.
    Ping { wire_size: usize, interval_ns: u64 },
    /// Heavy-tailed UDP data over up to `flows` distinct 5-tuples (source
    /// address + port vary): a bounded Pareto(`alpha`) flow-size mix —
    /// low flow indices are elephants, the tail is mice. Emissions
    /// alternate between a round-robin census cursor (guaranteeing every
    /// flow is eventually touched, which is what pushes the flow table to
    /// its advertised concurrency) and a seeded Pareto sample (producing
    /// the skew). Deterministic for a fixed `seed`.
    UdpMix { wire_size: usize, flows: u32, alpha: f64, seed: u64 },
    /// TCP SYN flood: spoofed in-subnet source tuples (so frames classify
    /// into the VR and exercise the shedding path), dst port 80, SYN-only.
    SynFlood { wire_size: usize, sources: u32, seed: u64 },
    /// UDP flood to the discard port (9) from spoofed in-subnet tuples.
    UdpFlood { wire_size: usize, sources: u32, seed: u64 },
}

impl SourceKind {
    /// Whether this kind emits measured UDP *data* (counted toward
    /// goodput), as opposed to probes or attack traffic.
    pub fn is_udp_data(&self) -> bool {
        matches!(self, SourceKind::UdpCbr { .. } | SourceKind::UdpMix { .. })
    }

    /// Whether this kind emits attack traffic (counted separately).
    pub fn is_flood(&self) -> bool {
        matches!(self, SourceKind::SynFlood { .. } | SourceKind::UdpFlood { .. })
    }
}

/// A traffic source attached to one VR's sender subnet.
pub struct Source {
    /// Which VR's subnets this source uses (indexes `Scenario::vrs`).
    pub vr: usize,
    pub kind: SourceKind,
    pub schedule: RateSchedule,
    /// Pre-built template frames (UDP CBR), one per flow.
    templates: Vec<Frame>,
    next_flow: usize,
    builder: FrameBuilder,
    /// Base addresses, for kinds that synthesize source tuples on the fly
    /// (pre-building a million templates would defeat the point).
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    /// Deterministic per-source randomness (Pareto samples, spoofed tuples).
    rng: SmallRng,
    /// Census cursor for `UdpMix` flow coverage.
    census: u64,
    /// SYN sequence-number counter.
    seq: u32,
    /// Frames emitted.
    pub emitted: u64,
}

impl Source {
    pub fn new(
        vr: usize,
        kind: SourceKind,
        schedule: RateSchedule,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Source {
        let mut builder = FrameBuilder::new(src_ip, dst_ip);
        let templates = match &kind {
            SourceKind::UdpCbr { wire_size, flows } => (0..*flows)
                .map(|i| {
                    builder
                        .udp_with_wire_size(20_000 + i, UDP_DATA_PORT, *wire_size)
                        .expect("wire size validated by scenario")
                })
                .collect(),
            _ => Vec::new(),
        };
        let seed = match &kind {
            SourceKind::UdpMix { seed, .. }
            | SourceKind::SynFlood { seed, .. }
            | SourceKind::UdpFlood { seed, .. } => *seed,
            _ => 0,
        };
        Source {
            vr,
            kind,
            schedule,
            templates,
            next_flow: 0,
            builder,
            src_ip,
            dst_ip,
            rng: SmallRng::seed_from_u64(seed),
            census: 0,
            seq: 0,
            emitted: 0,
        }
    }

    /// Synthesized source address for flow index `f`: vary the host octet
    /// within the sender subnet (so classification by /24 still works) and
    /// the source port, giving 254 × 60 000 ≈ 15 M addressable flows.
    fn flow_tuple(&self, f: u64) -> (Ipv4Addr, u16) {
        let o = self.src_ip.octets();
        let host = 1 + ((f / 60_000) % 254) as u8;
        let port = 1024 + (f % 60_000) as u16;
        (Ipv4Addr::new(o[0], o[1], o[2], host), port)
    }

    /// Bounded-Pareto(alpha) flow index over `[0, flows)` by inverse CDF:
    /// index 0 is the biggest elephant, the tail is mice.
    fn pareto_index(&mut self, flows: u32, alpha: f64) -> u64 {
        let h = flows as f64;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // Bounded Pareto on [1, h], L = 1: x = (1 - u (1 - h^-alpha))^(-1/alpha)
        let x = (1.0 - u * (1.0 - h.powf(-alpha))).powf(-1.0 / alpha);
        (x as u64).clamp(1, flows as u64) - 1
    }

    /// Emit the next frame at `now_ns`. Returns the frame and the delay
    /// until the next emission (`None` when the schedule has gone to zero —
    /// re-poll after `IDLE_RECHECK_NS`).
    pub fn emit(&mut self, now_ns: u64) -> (Option<Frame>, u64) {
        match self.kind {
            SourceKind::UdpCbr { .. } => {
                let rate = self.schedule.rate_at(now_ns);
                if rate <= 0.0 {
                    return (None, IDLE_RECHECK_NS);
                }
                let mut f = self.templates[self.next_flow].clone();
                self.next_flow = (self.next_flow + 1) % self.templates.len();
                f.ts_ns = now_ns;
                self.emitted += 1;
                (Some(f), (1e9 / rate) as u64)
            }
            SourceKind::Ping { wire_size, interval_ns } => {
                let f = self.build_ping(now_ns, wire_size);
                self.emitted += 1;
                (Some(f), interval_ns)
            }
            SourceKind::UdpMix { wire_size, flows, alpha, .. } => {
                let rate = self.schedule.rate_at(now_ns);
                if rate <= 0.0 {
                    return (None, IDLE_RECHECK_NS);
                }
                // Alternate census (coverage) and Pareto (skew) picks.
                let f_idx = if self.emitted.is_multiple_of(2) {
                    let c = self.census;
                    self.census = (self.census + 1) % flows as u64;
                    c
                } else {
                    self.pareto_index(flows, alpha)
                };
                let (src, port) = self.flow_tuple(f_idx);
                let mut f = FrameBuilder::new(src, self.dst_ip)
                    .udp_with_wire_size(port, UDP_DATA_PORT, wire_size)
                    .expect("wire size validated by scenario");
                f.ts_ns = now_ns;
                self.emitted += 1;
                (Some(f), (1e9 / rate) as u64)
            }
            SourceKind::SynFlood { wire_size, sources, .. } => {
                let rate = self.schedule.rate_at(now_ns);
                if rate <= 0.0 {
                    return (None, IDLE_RECHECK_NS);
                }
                let i = self.rng.gen_range(0..sources) as u64;
                let (src, port) = self.flow_tuple(i);
                // Pad the SYN toward the requested wire size (54 B of
                // headers + 24 B of wire overhead are fixed).
                let pad = vec![0u8; wire_size.saturating_sub(78).max(6)];
                self.seq = self.seq.wrapping_add(1);
                let mut f = FrameBuilder::new(src, self.dst_ip).tcp(
                    port,
                    80,
                    self.seq,
                    0,
                    tcp_flags::SYN,
                    65_535,
                    &pad,
                );
                f.ts_ns = now_ns;
                self.emitted += 1;
                (Some(f), (1e9 / rate) as u64)
            }
            SourceKind::UdpFlood { wire_size, sources, .. } => {
                let rate = self.schedule.rate_at(now_ns);
                if rate <= 0.0 {
                    return (None, IDLE_RECHECK_NS);
                }
                let i = self.rng.gen_range(0..sources) as u64;
                let (src, port) = self.flow_tuple(i);
                let mut f = FrameBuilder::new(src, self.dst_ip)
                    .udp_with_wire_size(port, 9, wire_size)
                    .expect("wire size validated by scenario");
                f.ts_ns = now_ns;
                self.emitted += 1;
                (Some(f), (1e9 / rate) as u64)
            }
        }
    }

    fn build_ping(&mut self, now_ns: u64, wire_size: usize) -> Frame {
        // An ICMP-echo-shaped frame: IPv4 proto 1, padded to the wire size.
        // We reuse the UDP builder then rewrite the protocol byte (the sim's
        // receiver only looks at the protocol and addresses).
        let mut f = self
            .builder
            .udp_with_wire_size(7, 7, wire_size)
            .expect("wire size validated by scenario");
        f.modify_bytes(|b| {
            b[14 + 9] = lvrm_net::headers::IPPROTO_ICMP;
            // Recompute the header checksum for the protocol change.
            b[14 + 10] = 0;
            b[14 + 11] = 0;
            let csum = lvrm_net::headers::internet_checksum(&b[14..14 + 20]);
            b[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        });
        f.ts_ns = now_ns;
        f
    }
}

/// Re-poll period while a schedule reads zero.
pub const IDLE_RECHECK_NS: u64 = 10_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn constant_schedule() {
        let s = RateSchedule::constant(1000.0);
        assert_eq!(s.rate_at(0), 1000.0);
        assert_eq!(s.rate_at(u64::MAX), 1000.0);
    }

    #[test]
    fn staircase_matches_experiment_2c() {
        // 60 -> 360 -> 60 Kfps, step 60K, dwell 5 s.
        let s = RateSchedule::staircase(60_000.0, 360_000.0, 5_000_000_000);
        assert_eq!(s.rate_at(0), 60_000.0);
        assert_eq!(s.rate_at(5_000_000_000), 120_000.0);
        assert_eq!(s.rate_at(25_000_000_000), 360_000.0);
        assert_eq!(s.rate_at(30_000_000_000), 300_000.0);
        assert_eq!(s.rate_at(50_000_000_000), 60_000.0);
        assert_eq!(s.last_change_ns(), 50_000_000_000);
    }

    #[test]
    fn diurnal_schedule_ramps_up_and_down() {
        let sched = RateSchedule::diurnal(100.0, 900.0, 160);
        assert_eq!(sched.rate_at(0), 100.0);
        assert!(sched.rate_at(75) > 800.0, "peak near mid-period");
        assert_eq!(sched.rate_at(10_000), 100.0, "back to trough");
    }

    #[test]
    fn delayed_shifts_start() {
        let s = RateSchedule::constant(100.0).delayed(1_000);
        assert_eq!(s.rate_at(999), 0.0);
        assert_eq!(s.rate_at(1_000), 100.0);
    }

    #[test]
    fn cbr_source_paces_by_rate() {
        let mut src = Source::new(
            0,
            SourceKind::UdpCbr { wire_size: 84, flows: 4 },
            RateSchedule::constant(1_000_000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let (f, next) = src.emit(0);
        assert!(f.is_some());
        assert_eq!(next, 1_000); // 1 Mfps = 1 us apart
        assert_eq!(f.unwrap().wire_len(), 84);
    }

    #[test]
    fn cbr_cycles_flows() {
        let mut src = Source::new(
            0,
            SourceKind::UdpCbr { wire_size: 84, flows: 2 },
            RateSchedule::constant(1000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let p1 = src.emit(0).0.unwrap().udp().unwrap().src_port();
        let p2 = src.emit(0).0.unwrap().udp().unwrap().src_port();
        let p3 = src.emit(0).0.unwrap().udp().unwrap().src_port();
        assert_ne!(p1, p2);
        assert_eq!(p1, p3);
    }

    #[test]
    fn zero_rate_idles() {
        let mut src = Source::new(
            0,
            SourceKind::UdpCbr { wire_size: 84, flows: 1 },
            RateSchedule::piecewise(vec![(1_000_000, 100.0)]),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let (f, next) = src.emit(0);
        assert!(f.is_none());
        assert_eq!(next, IDLE_RECHECK_NS);
    }

    #[test]
    fn udp_mix_is_deterministic() {
        let mk = || {
            Source::new(
                0,
                SourceKind::UdpMix { wire_size: 84, flows: 1000, alpha: 1.3, seed: 7 },
                RateSchedule::constant(1_000_000.0),
                ip(10, 0, 1, 1),
                ip(10, 0, 2, 1),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for t in 0..500u64 {
            let fa = a.emit(t * 1000).0.unwrap();
            let fb = b.emit(t * 1000).0.unwrap();
            assert_eq!(fa.bytes(), fb.bytes(), "emission {t} diverged");
        }
    }

    #[test]
    fn udp_mix_census_covers_every_flow() {
        let mut src = Source::new(
            0,
            SourceKind::UdpMix { wire_size: 84, flows: 64, alpha: 1.3, seed: 1 },
            RateSchedule::constant(1_000_000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let mut seen = std::collections::HashSet::new();
        for t in 0..256u64 {
            // 128 census picks cover 64 flows twice over.
            let f = src.emit(t).0.unwrap();
            let u = f.udp().unwrap();
            seen.insert((f.src_ip().unwrap(), u.src_port()));
            assert_eq!(u.dst_port(), UDP_DATA_PORT);
        }
        assert_eq!(seen.len(), 64, "census must touch every flow");
    }

    #[test]
    fn udp_mix_skews_toward_elephants() {
        let mut src = Source::new(
            0,
            SourceKind::UdpMix { wire_size: 84, flows: 10_000, alpha: 1.3, seed: 42 },
            RateSchedule::constant(1_000_000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        // Pareto picks are the odd emissions; count how many land on the
        // top-10 flow indices (ports 1024..1034).
        let mut top = 0u32;
        for t in 0..10_000u64 {
            let f = src.emit(t).0.unwrap();
            if t % 2 == 1 {
                let p = f.udp().unwrap().src_port();
                if (1024..1034).contains(&p) && f.src_ip().unwrap().octets()[3] == 1 {
                    top += 1;
                }
            }
        }
        // 10 of 10 000 flows uniformly would get ~5 of 5 000 picks; the
        // heavy tail concentrates far more there.
        assert!(top > 500, "top-10 flows got only {top} of 5000 Pareto picks");
    }

    #[test]
    fn syn_flood_emits_in_subnet_syns() {
        let mut src = Source::new(
            0,
            SourceKind::SynFlood { wire_size: 84, sources: 100, seed: 3 },
            RateSchedule::constant(100_000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        for t in 0..50u64 {
            let f = src.emit(t).0.unwrap();
            let tcp = f.tcp().unwrap();
            assert_eq!(tcp.dst_port(), 80);
            assert_eq!(tcp.flags() & tcp_flags::SYN, tcp_flags::SYN);
            let o = f.src_ip().unwrap().octets();
            assert_eq!((o[0], o[1], o[2]), (10, 0, 1), "spoofed src stays in subnet");
        }
        assert!(src.kind.is_flood() && !src.kind.is_udp_data());
    }

    #[test]
    fn udp_flood_targets_discard_port() {
        let mut src = Source::new(
            0,
            SourceKind::UdpFlood { wire_size: 84, sources: 10, seed: 3 },
            RateSchedule::constant(100_000.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let f = src.emit(0).0.unwrap();
        assert_eq!(f.udp().unwrap().dst_port(), 9);
        assert_ne!(f.udp().unwrap().dst_port(), UDP_DATA_PORT);
    }

    #[test]
    fn ping_frames_are_icmp_with_valid_checksum() {
        let mut src = Source::new(
            0,
            SourceKind::Ping { wire_size: 84, interval_ns: 1_000_000 },
            RateSchedule::constant(0.0),
            ip(10, 0, 1, 1),
            ip(10, 0, 2, 1),
        );
        let (f, next) = src.emit(123);
        let f = f.unwrap();
        assert_eq!(next, 1_000_000);
        let ip_view = f.ipv4().unwrap();
        assert_eq!(ip_view.protocol(), lvrm_net::headers::IPPROTO_ICMP);
        assert!(ip_view.checksum_ok());
        assert_eq!(f.ts_ns, 123);
    }
}
