//! Adapter supervision: the reliability layer over a [`SocketAdapter`].
//!
//! PR 2 made VRI crashes survivable; this module does the same for the
//! monitor's own I/O. A [`SupervisedAdapter`] owns a chain of adapters
//! (primary plus optional standbys) and runs a healthy/degraded/dead state
//! machine mirroring the VRI one (DESIGN.md §10):
//!
//! * **Healthy** — errors reset on every successful poll/send;
//! * **Degraded** — `error_threshold` consecutive transient faults; traffic
//!   still flows but the supervisor is watching;
//! * **Dead** — `dead_threshold` consecutive faults or one `Fatal`. The
//!   supervisor tries an immediate reopen; failing that it fails over to the
//!   next adapter in the chain, or schedules bounded exponential-backoff
//!   reopens from the monitor's 1 s tick.
//!
//! Egress never silently drops on a transient fault: refused frames park in
//! a retry queue with a deadline (`egress_retry_deadline_ns`) and are
//! re-sent from [`SupervisedAdapter::tick`]; only deadline expiry counts
//! them as `tx_drops`.
//!
//! The wrapper itself implements [`SocketAdapter`] and *absorbs* faults —
//! callers see `Ok(0)`/`Ok(())` while the supervisor recovers — so the
//! dataplane loop stays oblivious, exactly as the paper keeps "the polling
//! process of the socket adapter … transparent" to the monitor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use lvrm_metrics::MetricsRegistry;
use lvrm_net::Frame;

use crate::fault::jittered_backoff;
use crate::socket::{AdapterError, SendRejected, SocketAdapter, SocketKind};

/// Per-process construction counter seeding each supervisor's jitter salt,
/// so two adapters built from the *same* config still reopen at different
/// instants (no thundering-herd reopens against a shared NIC/driver).
static NEXT_JITTER_SALT: AtomicU64 = AtomicU64::new(1);

/// (name, help) of the supervision counters [`SupervisedAdapter::publish`]
/// stores into; the monitor registers the same families at zero.
pub(crate) const M_ADAPTER_REOPENS: (&str, &str) =
    ("lvrm_adapter_reopens_total", "Successful reopens of a dead socket adapter.");
pub(crate) const M_ADAPTER_FAILOVERS: (&str, &str) =
    ("lvrm_adapter_failovers_total", "Failovers to a standby socket adapter.");
pub(crate) const M_EGRESS_RETRIES: (&str, &str) =
    ("lvrm_egress_retries_total", "Refused egress frames later delivered from the retry queue.");

/// Supervisor health classification of the active adapter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdapterState {
    Healthy,
    /// Accumulating consecutive faults; still serving.
    Degraded,
    /// Out of service: awaiting a backoff reopen (or already failed over).
    Dead,
}

impl AdapterState {
    pub fn name(self) -> &'static str {
        match self {
            AdapterState::Healthy => "healthy",
            AdapterState::Degraded => "degraded",
            AdapterState::Dead => "dead",
        }
    }

    /// Numeric encoding for the state gauge (0 healthy, 1 degraded, 2 dead).
    pub fn as_gauge(self) -> f64 {
        match self {
            AdapterState::Healthy => 0.0,
            AdapterState::Degraded => 1.0,
            AdapterState::Dead => 2.0,
        }
    }
}

/// Thresholds and deadlines for one supervised adapter. `Default` holds the
/// production values; tests build their own.
#[derive(Clone, Copy, Debug)]
pub struct AdapterSupervisorConfig {
    /// Consecutive faults before the adapter is marked `Degraded`.
    pub error_threshold: u32,
    /// Consecutive faults before the adapter is declared `Dead`.
    pub dead_threshold: u32,
    /// Base reopen backoff after the first failed reopen attempt.
    pub reopen_backoff_ns: u64,
    /// Cap on the exponential reopen backoff.
    pub reopen_backoff_max_ns: u64,
    /// How long a refused egress frame may wait in the retry queue before it
    /// is finally counted dropped.
    pub egress_retry_deadline_ns: u64,
}

impl Default for AdapterSupervisorConfig {
    fn default() -> Self {
        AdapterSupervisorConfig {
            error_threshold: 3,
            dead_threshold: 8,
            reopen_backoff_ns: 100_000_000,        // 100 ms
            reopen_backoff_max_ns: 10_000_000_000, // 10 s
            egress_retry_deadline_ns: 50_000_000,  // 50 ms
        }
    }
}

/// A frame awaiting re-transmission, with its give-up instant.
struct RetryFrame {
    frame: Frame,
    deadline_ns: u64,
}

/// The supervised adapter chain. `chain[0]` is the primary; the rest are
/// standbys tried in order on failover (wrapping, so a recovered primary can
/// be failed back onto by a later fault).
pub struct SupervisedAdapter {
    chain: Vec<Box<dyn SocketAdapter>>,
    active: usize,
    state: AdapterState,
    consec_errors: u32,
    /// Failed reopen attempts since the adapter died (drives the backoff).
    reopen_attempts: u32,
    /// No reopen attempt before this instant.
    next_reopen_ns: u64,
    retry_q: VecDeque<RetryFrame>,
    /// Keys the ±25% reopen-backoff jitter; unique per instance by default.
    jitter_salt: u64,
    /// Latest timestamp seen by [`tick`](SupervisedAdapter::tick); the trait
    /// methods carry no clock, so deadlines are stamped from this.
    last_now_ns: u64,
    cfg: AdapterSupervisorConfig,
    /// Successful reopens of a dead adapter.
    pub reopens: u64,
    /// Switches to a standby adapter in the chain.
    pub failovers: u64,
    /// Refused egress frames later delivered from the retry queue.
    pub egress_retries: u64,
    /// Retry-queue frames that hit their deadline (the only egress loss).
    pub tx_drops: u64,
    /// Poll-side faults observed (WouldBlock excluded).
    pub rx_errors: u64,
}

impl SupervisedAdapter {
    pub fn new(primary: Box<dyn SocketAdapter>, cfg: AdapterSupervisorConfig) -> SupervisedAdapter {
        SupervisedAdapter::with_chain(vec![primary], cfg)
    }

    /// Build with standby adapters after the primary. Panics on an empty
    /// chain (there must be something to supervise).
    pub fn with_chain(
        chain: Vec<Box<dyn SocketAdapter>>,
        cfg: AdapterSupervisorConfig,
    ) -> SupervisedAdapter {
        assert!(!chain.is_empty(), "supervised chain needs at least one adapter");
        assert!(cfg.error_threshold >= 1 && cfg.dead_threshold >= cfg.error_threshold);
        SupervisedAdapter {
            chain,
            active: 0,
            state: AdapterState::Healthy,
            consec_errors: 0,
            reopen_attempts: 0,
            next_reopen_ns: 0,
            retry_q: VecDeque::new(),
            jitter_salt: NEXT_JITTER_SALT.fetch_add(1, Ordering::Relaxed),
            last_now_ns: 0,
            cfg,
            reopens: 0,
            failovers: 0,
            egress_retries: 0,
            tx_drops: 0,
            rx_errors: 0,
        }
    }

    pub fn state(&self) -> AdapterState {
        self.state
    }

    /// Index of the adapter currently serving traffic.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Adapters in the chain (primary + standbys).
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Frames parked in the egress retry queue.
    pub fn retry_pending(&self) -> usize {
        self.retry_q.len()
    }

    /// Pin the jitter salt (tests; production code keeps the per-instance
    /// default so same-config supervisors stay de-phased).
    pub fn set_jitter_salt(&mut self, salt: u64) {
        self.jitter_salt = salt;
    }

    fn backoff_ns(&self) -> u64 {
        let doublings = self.reopen_attempts.saturating_sub(1).min(20);
        let clamped = self
            .cfg
            .reopen_backoff_ns
            .saturating_mul(1u64 << doublings)
            .min(self.cfg.reopen_backoff_max_ns);
        // Jitter after the cap so even saturated backoffs stay de-phased.
        jittered_backoff(clamped, self.jitter_salt, self.reopen_attempts as u64)
    }

    fn note_ok(&mut self) {
        self.consec_errors = 0;
        if self.state == AdapterState::Degraded {
            self.state = AdapterState::Healthy;
        }
    }

    /// Record a real fault (never `WouldBlock`) and run the state machine.
    fn note_fault(&mut self, error: &AdapterError) {
        debug_assert!(!error.is_would_block());
        match error {
            AdapterError::Fatal => self.declare_dead(),
            _ => {
                self.consec_errors = self.consec_errors.saturating_add(1);
                if self.consec_errors >= self.cfg.dead_threshold {
                    self.declare_dead();
                } else if self.consec_errors >= self.cfg.error_threshold {
                    self.state = AdapterState::Degraded;
                }
            }
        }
    }

    /// The active adapter is gone: reopen immediately if possible, else fail
    /// over to a standby, else schedule backoff reopens.
    fn declare_dead(&mut self) {
        self.state = AdapterState::Dead;
        self.consec_errors = 0;
        if self.chain[self.active].reopen().is_ok() {
            self.reopens += 1;
            self.recovered();
            return;
        }
        if self.chain.len() > 1 {
            self.active = (self.active + 1) % self.chain.len();
            self.failovers += 1;
            self.recovered();
            return;
        }
        self.reopen_attempts = 1; // the immediate attempt above
        self.next_reopen_ns = self.last_now_ns.saturating_add(self.backoff_ns());
    }

    fn recovered(&mut self) {
        self.state = AdapterState::Healthy;
        self.consec_errors = 0;
        self.reopen_attempts = 0;
    }

    /// Drive time-based recovery from the monitor's 1 s tick (or any loop
    /// cadence): update the supervisor clock, attempt a due reopen, and
    /// flush the egress retry queue. Returns frames delivered from retries.
    pub fn tick(&mut self, now_ns: u64) -> usize {
        self.last_now_ns = self.last_now_ns.max(now_ns);
        for a in &mut self.chain {
            a.advance(now_ns);
        }
        if self.state == AdapterState::Dead && now_ns >= self.next_reopen_ns {
            if self.chain[self.active].reopen().is_ok() {
                self.reopens += 1;
                self.recovered();
            } else {
                self.reopen_attempts = self.reopen_attempts.saturating_add(1);
                self.next_reopen_ns = now_ns.saturating_add(self.backoff_ns());
            }
        }
        self.flush_retries(now_ns)
    }

    fn flush_retries(&mut self, now_ns: u64) -> usize {
        let mut delivered = 0;
        while let Some(head) = self.retry_q.front() {
            if now_ns >= head.deadline_ns {
                // Deadline passed: the frame is finally, visibly, dropped.
                self.retry_q.pop_front();
                self.tx_drops += 1;
                continue;
            }
            if self.state == AdapterState::Dead {
                break; // nowhere to send; keep waiting for reopen/failover
            }
            let head = self.retry_q.pop_front().expect("front checked");
            match self.chain[self.active].send(head.frame) {
                Ok(()) => {
                    self.egress_retries += 1;
                    delivered += 1;
                    self.note_ok();
                }
                Err(SendRejected { frame, error }) => {
                    if !error.is_would_block() {
                        self.note_fault(&error);
                    }
                    self.retry_q.push_front(RetryFrame { frame, deadline_ns: head.deadline_ns });
                    break;
                }
            }
        }
        delivered
    }

    /// Publish the supervisor's counters and state gauge into `reg` under
    /// the monitor's metric names (registry handles dedup by name, so these
    /// land in the same families [`crate::monitor::Lvrm`] registers).
    pub fn publish(&self, reg: &MetricsRegistry) {
        reg.counter(M_ADAPTER_REOPENS.0, M_ADAPTER_REOPENS.1, &[]).store(self.reopens);
        reg.counter(M_ADAPTER_FAILOVERS.0, M_ADAPTER_FAILOVERS.1, &[]).store(self.failovers);
        reg.counter(M_EGRESS_RETRIES.0, M_EGRESS_RETRIES.1, &[]).store(self.egress_retries);
        reg.gauge(
            "lvrm_adapter_state",
            "Supervised adapter state (0 healthy, 1 degraded, 2 dead).",
            &[],
        )
        .set(self.state.as_gauge());
        reg.gauge(
            "lvrm_adapter_retry_pending",
            "Egress frames parked in the supervisor's retry queue.",
            &[],
        )
        .set(self.retry_q.len() as f64);
    }
}

impl SocketAdapter for SupervisedAdapter {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        if self.state == AdapterState::Dead {
            return Err(AdapterError::WouldBlock);
        }
        match self.chain[self.active].poll() {
            Ok(f) => {
                self.note_ok();
                Ok(f)
            }
            Err(AdapterError::WouldBlock) => Err(AdapterError::WouldBlock),
            Err(e) => {
                self.rx_errors += 1;
                self.note_fault(&e);
                // The fault is absorbed: callers see idle while we recover.
                Err(AdapterError::WouldBlock)
            }
        }
    }

    fn poll_batch(&mut self, out: &mut Vec<Frame>, budget: usize) -> Result<usize, AdapterError> {
        if self.state == AdapterState::Dead {
            return Ok(0);
        }
        match self.chain[self.active].poll_batch(out, budget) {
            Ok(n) => {
                if n > 0 {
                    self.note_ok();
                }
                Ok(n)
            }
            Err(AdapterError::WouldBlock) => Ok(0),
            Err(e) => {
                self.rx_errors += 1;
                self.note_fault(&e);
                Ok(0)
            }
        }
    }

    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        if self.state == AdapterState::Dead {
            self.retry_q.push_back(RetryFrame {
                frame,
                deadline_ns: self.last_now_ns.saturating_add(self.cfg.egress_retry_deadline_ns),
            });
            return Ok(());
        }
        match self.chain[self.active].send(frame) {
            Ok(()) => {
                self.note_ok();
                Ok(())
            }
            Err(SendRejected { frame, error }) => {
                if !error.is_would_block() {
                    self.note_fault(&error);
                }
                // Transient refusal or death mid-send: park for retry either
                // way; the deadline bounds the loss if recovery never comes.
                self.retry_q.push_back(RetryFrame {
                    frame,
                    deadline_ns: self.last_now_ns.saturating_add(self.cfg.egress_retry_deadline_ns),
                });
                Ok(())
            }
        }
    }

    fn send_batch(&mut self, frames: &mut Vec<Frame>) -> Result<usize, AdapterError> {
        let n = frames.len();
        for frame in frames.drain(..) {
            let _ = self.send(frame); // absorbs; refused frames go to retry_q
        }
        Ok(n)
    }

    fn reopen(&mut self) -> Result<(), AdapterError> {
        self.chain[self.active].reopen()
    }

    fn advance(&mut self, now_ns: u64) {
        self.tick(now_ns);
    }

    fn kind(&self) -> SocketKind {
        self.chain[self.active].kind()
    }

    fn rx_count(&self) -> u64 {
        self.chain.iter().map(|a| a.rx_count()).sum()
    }

    fn tx_count(&self) -> u64 {
        self.chain.iter().map(|a| a.tx_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultySocket;
    use crate::socket::MemTraceAdapter;
    use lvrm_net::{Trace, TraceSpec};

    fn mem(frames: u64) -> MemTraceAdapter {
        MemTraceAdapter::new(Trace::generate(&TraceSpec::new(84, 4)), frames)
    }

    #[test]
    fn healthy_chain_passes_traffic_through() {
        let mut sup = SupervisedAdapter::new(Box::new(mem(5)), Default::default());
        let mut out = Vec::new();
        assert_eq!(sup.poll_batch(&mut out, 10).unwrap(), 5);
        assert_eq!(sup.rx_count(), 5);
        assert_eq!(sup.state(), AdapterState::Healthy);
        assert_eq!(sup.send_batch(&mut out).unwrap(), 5);
        assert_eq!(sup.tx_count(), 5);
        assert_eq!(sup.tx_drops, 0);
    }

    #[test]
    fn transient_faults_degrade_then_kill_then_reopen() {
        // MemTrace reopens Ok, so the wrapped FaultySocket models a NIC that
        // recovers on reopen; a long error burst walks the state machine.
        let inner = FaultySocket::new(mem(100)).error_burst(0, 50);
        let cfg =
            AdapterSupervisorConfig { error_threshold: 2, dead_threshold: 4, ..Default::default() };
        let mut sup = SupervisedAdapter::new(Box::new(inner), cfg);
        assert!(sup.poll().is_err(), "burst frame absorbed as idle");
        assert!(sup.poll().is_err());
        assert_eq!(sup.state(), AdapterState::Degraded, "error_threshold crossed");
        let _ = sup.poll();
        let _ = sup.poll();
        // dead_threshold crossed -> declare_dead -> immediate reopen succeeds
        // (FaultySocket::reopen clears nothing here, but MemTrace's Ok wins).
        assert_eq!(sup.state(), AdapterState::Healthy, "immediate reopen revived it");
        assert_eq!(sup.reopens, 1);
        assert!(sup.rx_errors >= 4);
    }

    #[test]
    fn fatal_with_standby_fails_over() {
        let primary = FaultySocket::new(mem(10)).crashed_from_start();
        let standby = mem(7);
        let mut sup = SupervisedAdapter::with_chain(
            vec![Box::new(primary), Box::new(standby)],
            Default::default(),
        );
        let mut out = Vec::new();
        // First poll hits Fatal; reopen clears the crash flag... so to force
        // failover the fault must persist across reopen.
        let n = sup.poll_batch(&mut out, 4).unwrap();
        assert_eq!(n, 0, "fatal absorbed");
        assert_eq!(sup.state(), AdapterState::Healthy);
        assert!(sup.failovers == 1 || sup.reopens == 1);
        // Either way the chain serves again.
        let n2 = sup.poll_batch(&mut out, 4).unwrap();
        assert_eq!(n2, 4);
    }

    #[test]
    fn dead_without_standby_backs_off_exponentially() {
        /// An adapter that is permanently fatal and never reopens.
        struct Brick;
        impl SocketAdapter for Brick {
            fn poll(&mut self) -> Result<Frame, AdapterError> {
                Err(AdapterError::Fatal)
            }
            fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
                Err(SendRejected { frame, error: AdapterError::Fatal })
            }
            fn kind(&self) -> SocketKind {
                SocketKind::RawSocket
            }
            fn rx_count(&self) -> u64 {
                0
            }
            fn tx_count(&self) -> u64 {
                0
            }
        }
        let cfg = AdapterSupervisorConfig {
            reopen_backoff_ns: 100,
            reopen_backoff_max_ns: 400,
            ..Default::default()
        };
        let band = |delta: u64, base: u64| {
            assert!(
                delta >= base - base / 4 && delta <= base + base / 4,
                "backoff {delta} outside ±25% of {base}"
            );
        };
        let mut sup = SupervisedAdapter::new(Box::new(Brick), cfg);
        sup.set_jitter_salt(42);
        sup.tick(0);
        assert!(sup.poll().is_err());
        assert_eq!(sup.state(), AdapterState::Dead);
        let first = sup.next_reopen_ns;
        band(first, 100);
        sup.tick(first);
        assert_eq!(sup.state(), AdapterState::Dead);
        band(sup.next_reopen_ns - first, 200);
        sup.tick(sup.next_reopen_ns);
        sup.tick(sup.next_reopen_ns);
        // Capped at reopen_backoff_max_ns (jitter still applies at the cap).
        let before = sup.next_reopen_ns;
        sup.tick(before);
        band(sup.next_reopen_ns - before, 400);
        assert_eq!(sup.reopens, 0, "a brick never reopens");
        // Determinism: an identically salted supervisor reproduces the run.
        let cfg2 = AdapterSupervisorConfig {
            reopen_backoff_ns: 100,
            reopen_backoff_max_ns: 400,
            ..Default::default()
        };
        let mut twin = SupervisedAdapter::new(Box::new(Brick), cfg2);
        twin.set_jitter_salt(42);
        twin.tick(0);
        assert!(twin.poll().is_err());
        assert_eq!(twin.next_reopen_ns, first, "same salt, same schedule");
    }

    #[test]
    fn same_config_adapters_do_not_share_reopen_instants() {
        struct Brick;
        impl SocketAdapter for Brick {
            fn poll(&mut self) -> Result<Frame, AdapterError> {
                Err(AdapterError::Fatal)
            }
            fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
                Err(SendRejected { frame, error: AdapterError::Fatal })
            }
            fn kind(&self) -> SocketKind {
                SocketKind::RawSocket
            }
            fn rx_count(&self) -> u64 {
                0
            }
            fn tx_count(&self) -> u64 {
                0
            }
        }
        let cfg = AdapterSupervisorConfig {
            reopen_backoff_ns: 1_000_000,
            reopen_backoff_max_ns: 64_000_000,
            ..Default::default()
        };
        // Identical configs, default (per-instance) salts: the schedules
        // must diverge or every adapter on a dead NIC retries in lockstep.
        let schedule = |sup: &mut SupervisedAdapter| {
            sup.tick(0);
            assert!(sup.poll().is_err());
            let mut s = vec![sup.next_reopen_ns];
            for _ in 0..5 {
                sup.tick(sup.next_reopen_ns);
                s.push(sup.next_reopen_ns);
            }
            s
        };
        let mut a = SupervisedAdapter::new(Box::new(Brick), cfg);
        let mut b = SupervisedAdapter::new(Box::new(Brick), cfg);
        assert_ne!(schedule(&mut a), schedule(&mut b), "jitter must de-phase equal configs");
    }

    #[test]
    fn refused_egress_retries_until_deadline() {
        let inner = FaultySocket::new(mem(10)).send_fail(0, 2);
        let cfg = AdapterSupervisorConfig { egress_retry_deadline_ns: 1_000, ..Default::default() };
        let mut sup = SupervisedAdapter::new(Box::new(inner), cfg);
        sup.tick(0);
        let mut frames = Vec::new();
        sup.poll_batch(&mut frames, 3).unwrap();
        assert_eq!(sup.send_batch(&mut frames).unwrap(), 3, "supervisor absorbs refusals");
        // send indices 0 and 1 were refused and parked; index 2 went out.
        assert_eq!(sup.retry_pending(), 2);
        assert_eq!(sup.tx_count(), 1);
        // Before the deadline, the retry flush delivers them.
        let delivered = sup.tick(500);
        assert_eq!(delivered, 2);
        assert_eq!(sup.egress_retries, 2);
        assert_eq!(sup.tx_count(), 3);
        assert_eq!(sup.tx_drops, 0, "no frame was lost to the transient TX fault");
    }

    #[test]
    fn retry_deadline_expiry_is_the_only_loss() {
        let inner = FaultySocket::new(mem(10)).send_fail(0, u64::MAX);
        let cfg = AdapterSupervisorConfig { egress_retry_deadline_ns: 1_000, ..Default::default() };
        let mut sup = SupervisedAdapter::new(Box::new(inner), cfg);
        sup.tick(0);
        let mut frames = Vec::new();
        sup.poll_batch(&mut frames, 2).unwrap();
        sup.send_batch(&mut frames).unwrap();
        assert_eq!(sup.retry_pending(), 2);
        sup.tick(500); // still refusing, still parked
        assert_eq!(sup.retry_pending(), 2);
        sup.tick(2_000); // past the deadline
        assert_eq!(sup.retry_pending(), 0);
        assert_eq!(sup.tx_drops, 2, "deadline expiry counts the loss visibly");
    }

    #[test]
    fn publish_exports_counters() {
        let reg = MetricsRegistry::new();
        let mut sup = SupervisedAdapter::new(Box::new(mem(1)), Default::default());
        sup.reopens = 3;
        sup.failovers = 1;
        sup.egress_retries = 7;
        sup.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lvrm_adapter_reopens_total", &[]), Some(3));
        assert_eq!(snap.counter("lvrm_adapter_failovers_total", &[]), Some(1));
        assert_eq!(snap.counter("lvrm_egress_retries_total", &[]), Some(7));
        assert_eq!(snap.gauge("lvrm_adapter_state", &[]), Some(0.0));
    }
}
