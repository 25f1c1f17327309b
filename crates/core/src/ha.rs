//! Active/standby monitor high availability (DESIGN.md §13).
//!
//! One LVRM process is still one failure domain: PRs 2–5 made VRIs,
//! adapters, and restarts fault-tolerant, but a monitor crash takes every
//! hosted VR down until an operator restarts it. This module pairs two
//! monitors in an RFC 5798 (VRRP)–style **active/standby** arrangement:
//!
//! * **Election.** Each node runs a tiny [`Role`] state machine —
//!   `Backup → Master` on master-down timeout, `Master → Backup` on a
//!   higher-priority advert, `Master → Draining → Backup` on a graceful
//!   priority-0 handoff. Adverts carry `(priority, node_id, term, epoch)`
//!   and flow over a pluggable [`PeerLink`] (an in-process channel pair in
//!   tests, UDP in `lvrmd`). The master-down interval is the RFC's
//!   `3 × advert_interval + skew`, with `skew = (256 − priority)/256 ×
//!   advert_interval`, so failover detection is sub-second at the default
//!   150 ms advert interval.
//!
//! * **Replication.** The master streams [`CheckpointDelta`]s — compact,
//!   CRC-trailed diffs of the PR 5 warm-restart [`Checkpoint`] — to the
//!   standby, which folds them into a **shadow checkpoint**. Gaps in the
//!   sequence trigger a `SyncReq`/full-snapshot resync, so loss on the
//!   peer link degrades freshness, never correctness.
//!
//! * **Promotion.** On master-down the standby applies its shadow through
//!   the existing `apply_checkpoint` path. Because `build_checkpoint`
//!   folds in-flight frames into `crash_lost`/`queue_lost` when the master
//!   built the snapshot, the promoted books satisfy all four conservation
//!   identities **by construction** — takeover is a warm restart whose
//!   checkpoint arrived over the wire.
//!
//! ## Split-brain guard
//!
//! Classic VRRP accepts a dual-master window when adverts are delayed or
//! lost while the master still lives. Two guards shrink that window to
//! zero for every single-fault case (master death, advert loss bursts
//! shorter than the master-down interval, delayed delivery, asymmetric
//! partition):
//!
//! 1. **Promotion probation.** A freshly promoted master adverts
//!    immediately but does **not** accept frames for one advert interval.
//!    If the old master is alive and reachable, its next advert lands
//!    inside the probation window and the usurper steps down having never
//!    accepted a frame.
//! 2. **Preempt-on-heal.** A master that hears a higher-priority (or
//!    equal-priority, higher node-id) advert steps down immediately.
//!
//! A *symmetric* partition longer than the master-down interval with both
//! nodes alive is the CAP-impossible case: no 2-node protocol can keep
//! both safety and liveness there without an external arbiter, so — like
//! VRRP itself — the design documents the bound instead of pretending to
//! beat it (DESIGN.md §13 has the full argument).

use lvrm_metrics::{Counter, Gauge, MetricsRegistry};

use crate::checkpoint::{open, seal, Checkpoint, CheckpointDelta, CheckpointError, Version};
use crate::clock::Clock;
use crate::config::HaConfig;
use crate::fault::jittered_backoff;
use crate::host::VriHost;
use crate::monitor::Lvrm;

/// Leading magic of every HA wire message.
pub const HA_MAGIC: [u8; 4] = *b"LVHA";
/// HA wire protocol version.
pub const HA_VERSION: u8 = 1;

const KIND_ADVERT: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
const KIND_SYNC_REQ: u8 = 4;

/// Election role of one monitor in the active/standby pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Listening for adverts, folding deltas, armed to promote.
    Backup,
    /// Owning the dataplane: accepting frames, adverting, streaming deltas.
    Master,
    /// Graceful handoff in flight: advertised priority 0, not accepting,
    /// waiting for the peer to take over before dropping to `Backup`.
    Draining,
}

impl Role {
    /// Gauge encoding for `lvrm_ha_role` (0 backup, 1 master, 2 draining).
    pub fn as_gauge(self) -> f64 {
        match self {
            Role::Backup => 0.0,
            Role::Master => 1.0,
            Role::Draining => 2.0,
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Backup => write!(f, "backup"),
            Role::Master => write!(f, "master"),
            Role::Draining => write!(f, "draining"),
        }
    }
}

/// One message on the peer link. Everything is little-endian with an
/// `LVHA` magic, a version byte, and a trailing CRC-32, so a flipped bit
/// anywhere is a counted reject, never a state transition.
#[derive(Clone, Debug, PartialEq)]
pub enum HaMsg {
    /// Master heartbeat. `priority == 0` means "resigning" (RFC 5798
    /// graceful handoff): the peer shortens its master-down timer to skew.
    Advert { term: u64, node_id: u64, priority: u8, epoch: u32, seq: u64 },
    /// Standby → master: progress report (freshest folded stream seq).
    Ack { term: u64, acked_seq: u64, shadow_epoch: u32 },
    /// Master → standby: one encoded [`CheckpointDelta`].
    Delta { bytes: Vec<u8> },
    /// Master → standby: a full encoded [`Checkpoint`] at stream position
    /// `seq`, re-baselining the shadow.
    Snapshot { seq: u64, bytes: Vec<u8> },
    /// Standby → master: the stream gapped (or never started) — send a
    /// full snapshot.
    SyncReq { have_seq: u64 },
}

impl HaMsg {
    pub fn encode(&self) -> Vec<u8> {
        seal(HA_MAGIC, Version::U8(HA_VERSION), 64, |e| match self {
            HaMsg::Advert { term, node_id, priority, epoch, seq } => {
                e.u8(KIND_ADVERT);
                e.u64(*term);
                e.u64(*node_id);
                e.u8(*priority);
                e.u32(*epoch);
                e.u64(*seq);
            }
            HaMsg::Ack { term, acked_seq, shadow_epoch } => {
                e.u8(KIND_ACK);
                e.u64(*term);
                e.u64(*acked_seq);
                e.u32(*shadow_epoch);
            }
            HaMsg::Delta { bytes } => {
                e.u8(KIND_DELTA);
                e.bytes(bytes);
            }
            HaMsg::Snapshot { seq, bytes } => {
                e.u8(KIND_SNAPSHOT);
                e.u64(*seq);
                e.bytes(bytes);
            }
            HaMsg::SyncReq { have_seq } => {
                e.u8(KIND_SYNC_REQ);
                e.u64(*have_seq);
            }
        })
    }

    /// Parse and verify one wire message. Total: malformed input is an
    /// error, never a panic.
    pub fn decode(buf: &[u8]) -> Result<HaMsg, CheckpointError> {
        let mut d = open(buf, HA_MAGIC, Version::U8(HA_VERSION))?;
        let msg = match d.u8()? {
            KIND_ADVERT => HaMsg::Advert {
                term: d.u64()?,
                node_id: d.u64()?,
                priority: d.u8()?,
                epoch: d.u32()?,
                seq: d.u64()?,
            },
            KIND_ACK => HaMsg::Ack { term: d.u64()?, acked_seq: d.u64()?, shadow_epoch: d.u32()? },
            KIND_DELTA => HaMsg::Delta { bytes: d.bytes()? },
            KIND_SNAPSHOT => HaMsg::Snapshot { seq: d.u64()?, bytes: d.bytes()? },
            KIND_SYNC_REQ => HaMsg::SyncReq { have_seq: d.u64()? },
            // An unknown kind must not pass for a `SyncReq`: that would make
            // a master re-baseline with a full snapshot on any stray byte.
            _ => return Err(CheckpointError::Malformed("unknown ha message kind")),
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Transport between the two monitors of a pair. Implementations are
/// datagram-shaped and best-effort: `send` may silently drop (the
/// protocol tolerates loss), `recv` drains everything currently queued.
/// `now_ns` threads the caller's clock through so fault-injection
/// wrappers can delay deterministically.
pub trait PeerLink {
    fn send(&mut self, now_ns: u64, bytes: &[u8]);
    fn recv(&mut self, now_ns: u64, out: &mut Vec<Vec<u8>>);
}

/// In-process [`PeerLink`]: a pair of unbounded queues, one per
/// direction. `ChannelLink::pair()` wires two nodes together for the
/// testbed and the chaos suites.
pub struct ChannelLink {
    tx: std::sync::Arc<std::sync::Mutex<std::collections::VecDeque<Vec<u8>>>>,
    rx: std::sync::Arc<std::sync::Mutex<std::collections::VecDeque<Vec<u8>>>>,
}

impl ChannelLink {
    pub fn pair() -> (ChannelLink, ChannelLink) {
        let a2b = std::sync::Arc::new(std::sync::Mutex::new(std::collections::VecDeque::new()));
        let b2a = std::sync::Arc::new(std::sync::Mutex::new(std::collections::VecDeque::new()));
        (ChannelLink { tx: a2b.clone(), rx: b2a.clone() }, ChannelLink { tx: b2a, rx: a2b })
    }
}

impl PeerLink for ChannelLink {
    fn send(&mut self, _now_ns: u64, bytes: &[u8]) {
        self.tx.lock().expect("link poisoned").push_back(bytes.to_vec());
    }
    fn recv(&mut self, _now_ns: u64, out: &mut Vec<Vec<u8>>) {
        let mut q = self.rx.lock().expect("link poisoned");
        out.extend(q.drain(..));
    }
}

/// One monitor's half of the active/standby pair: election state,
/// replication stream state, and the metrics that expose both. Attached
/// to an [`Lvrm`] via [`Lvrm::attach_ha`] and ticked from every
/// `maybe_reallocate` call (the fast advert sub-tick rides the host loop,
/// not the lazy 1 s allocation gate).
pub struct HaNode {
    cfg: HaConfig,
    link: Box<dyn PeerLink>,
    role: Role,
    /// Election term: bumped on every timeout-promotion, echoed in adverts
    /// — observability for "how many failovers has this pair seen".
    term: u64,
    advert_seq: u64,
    accepting: bool,
    started: bool,
    /// Backup: promote when `now` reaches this.
    master_down_at_ns: u64,
    /// Master: probation — no frame acceptance before this instant.
    probation_until_ns: u64,
    /// Draining: drop to Backup at this instant.
    drain_until_ns: u64,
    /// Set by a manual handoff: suppresses preemption so the resigned node
    /// stays backup while the peer lives (cleared on the next promotion —
    /// i.e. when the peer actually dies).
    resigned: bool,
    last_advert_tx_ns: u64,
    last_advert_rx_ns: Option<u64>,
    // ---- master-side replication stream ----
    stream_seq: u64,
    last_streamed: Option<Checkpoint>,
    last_delta_tx_ns: u64,
    want_snapshot: bool,
    peer_acked_seq: u64,
    peer_ever_acked: bool,
    // ---- standby-side shadow ----
    shadow: Option<Checkpoint>,
    shadow_seq: u64,
    /// When the last `SyncReq` went out, if a resync is in flight. Gapped
    /// deltas arrive at the stream cadence; re-requesting on every one of
    /// them turns a single lost Snapshot into a storm of N duplicate
    /// re-baselines. At most one SyncReq per backoff interval instead.
    last_syncreq_tx_ns: Option<u64>,
    /// Consecutive SyncReqs without a Snapshot landing: exponent of the
    /// backoff (capped), reset by any snapshot or in-sequence delta.
    syncreq_streak: u32,
    // ---- metrics ----
    registry: MetricsRegistry,
    m_role: Gauge,
    m_transitions: Counter,
    m_adverts_tx: Counter,
    m_adverts_rx: Counter,
    m_delta_bytes: Counter,
    m_delta_lag: Gauge,
    m_failover_ns: Gauge,
    m_rejected: Counter,
    recv_scratch: Vec<Vec<u8>>,
}

impl HaNode {
    pub fn new(cfg: HaConfig, link: Box<dyn PeerLink>, registry: &MetricsRegistry) -> HaNode {
        let m_role = registry.gauge(
            "lvrm_ha_role",
            "HA election role (0 backup, 1 master, 2 draining).",
            &[],
        );
        m_role.set(Role::Backup.as_gauge());
        let m_transitions =
            registry.counter("lvrm_ha_transitions_total", "HA role transitions.", &[]);
        let m_adverts_tx = registry.counter("lvrm_ha_adverts_tx_total", "VRRP adverts sent.", &[]);
        let m_adverts_rx =
            registry.counter("lvrm_ha_adverts_rx_total", "VRRP adverts received.", &[]);
        let m_delta_bytes = registry.counter(
            "lvrm_ha_delta_bytes_total",
            "Replication payload bytes streamed to the standby (deltas + snapshots).",
            &[],
        );
        let m_delta_lag = registry.gauge(
            "lvrm_ha_delta_lag",
            "Replication lag: stream positions sent but not yet acked by the standby.",
            &[],
        );
        let m_failover_ns = registry.gauge(
            "lvrm_ha_failover_ns",
            "Last takeover latency: from final master contact to accepting frames.",
            &[],
        );
        let m_rejected = registry.counter(
            "lvrm_ha_msgs_rejected_total",
            "Peer-link messages dropped as malformed (bad magic/CRC/structure).",
            &[],
        );
        HaNode {
            cfg,
            link,
            role: Role::Backup,
            term: 0,
            advert_seq: 0,
            accepting: false,
            started: false,
            master_down_at_ns: 0,
            probation_until_ns: 0,
            drain_until_ns: 0,
            resigned: false,
            last_advert_tx_ns: 0,
            last_advert_rx_ns: None,
            stream_seq: 0,
            last_streamed: None,
            last_delta_tx_ns: 0,
            want_snapshot: false,
            peer_acked_seq: 0,
            peer_ever_acked: false,
            shadow: None,
            shadow_seq: 0,
            last_syncreq_tx_ns: None,
            syncreq_streak: 0,
            registry: registry.clone(),
            m_role,
            m_transitions,
            m_adverts_tx,
            m_adverts_rx,
            m_delta_bytes,
            m_delta_lag,
            m_failover_ns,
            m_rejected,
            recv_scratch: Vec::new(),
        }
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// True while this node owns the dataplane: `Master`, past promotion
    /// probation. Hosts gate ingress on this.
    pub fn accepting(&self) -> bool {
        self.accepting
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    /// The standby's replicated view of the master's control plane, if the
    /// stream has delivered a baseline yet.
    pub fn shadow(&self) -> Option<&Checkpoint> {
        self.shadow.as_ref()
    }

    /// Stream positions sent but not yet acknowledged by the standby.
    pub fn delta_lag(&self) -> u64 {
        self.stream_seq.saturating_sub(self.peer_acked_seq)
    }

    /// Request a graceful handoff (the SIGUSR1 / manual-failover entry
    /// point): a master adverts priority 0 and drains; a backup ignores it.
    pub fn request_handoff(&mut self, now_ns: u64) {
        if self.role != Role::Master {
            return;
        }
        self.send_advert(now_ns, 0);
        self.set_role(now_ns, Role::Draining);
        self.accepting = false;
        // Manual failover is sticky: don't preempt the peer back off the
        // mastership we just handed it (cleared if the peer later dies).
        self.resigned = true;
        // Long enough for the peer's skew timer to fire and its first
        // advert to come back; then we rejoin as a plain backup.
        self.drain_until_ns = now_ns + 2 * self.cfg.advert_interval_ns + self.cfg.skew_ns();
    }

    /// One HA sub-tick: drain the peer link, run the role timers, stream
    /// replication. Called from `Lvrm::maybe_reallocate` on **every**
    /// invocation (ahead of the lazy 1 s allocation gate), so advert
    /// cadence is bounded by the host loop, not the control tick.
    pub fn tick<C: Clock>(&mut self, now_ns: u64, lvrm: &mut Lvrm<C>, host: &mut dyn VriHost) {
        if !self.started {
            self.started = true;
            self.master_down_at_ns = now_ns + self.cfg.master_down_ns();
        }
        let mut inbox = std::mem::take(&mut self.recv_scratch);
        inbox.clear();
        self.link.recv(now_ns, &mut inbox);
        for raw in inbox.drain(..) {
            match HaMsg::decode(&raw) {
                Ok(msg) => self.on_msg(now_ns, msg),
                Err(_) => self.m_rejected.inc(),
            }
        }
        self.recv_scratch = inbox;

        match self.role {
            Role::Backup => {
                if now_ns >= self.master_down_at_ns {
                    self.promote(now_ns, lvrm, host);
                }
            }
            Role::Master => {
                if !self.accepting && now_ns >= self.probation_until_ns {
                    self.accepting = true;
                    if let Some(last_rx) = self.last_advert_rx_ns {
                        let failover = now_ns.saturating_sub(last_rx);
                        self.m_failover_ns.set(failover as f64);
                        self.registry.push_event(
                            now_ns,
                            format!(
                                "ha-failover-complete term={} latency_ns={failover}",
                                self.term
                            ),
                        );
                    }
                }
                if now_ns.saturating_sub(self.last_advert_tx_ns) >= self.cfg.advert_interval_ns {
                    self.send_advert(now_ns, self.cfg.priority);
                }
                if now_ns.saturating_sub(self.last_delta_tx_ns) >= self.cfg.delta_interval_ns {
                    self.stream_state(now_ns, lvrm);
                }
            }
            Role::Draining => {
                if now_ns >= self.drain_until_ns {
                    self.set_role(now_ns, Role::Backup);
                    self.master_down_at_ns = now_ns + self.cfg.master_down_ns();
                }
            }
        }
        self.m_delta_lag.set(self.delta_lag() as f64);
    }

    fn on_msg(&mut self, now_ns: u64, msg: HaMsg) {
        match msg {
            HaMsg::Advert { term, node_id, priority, epoch: _, seq: _ } => {
                self.m_adverts_rx.inc();
                self.term = self.term.max(term);
                if priority == 0 {
                    // Peer is resigning: take over after skew only.
                    if self.role == Role::Backup {
                        self.master_down_at_ns =
                            self.master_down_at_ns.min(now_ns + self.cfg.skew_ns());
                    }
                    return;
                }
                self.last_advert_rx_ns = Some(now_ns);
                let peer_wins = priority > self.cfg.priority
                    || (priority == self.cfg.priority && node_id > self.cfg.node_id);
                match self.role {
                    Role::Backup => {
                        // RFC 5798: with preemption, a backup that outranks
                        // the master discards its adverts and lets the
                        // master-down timer elect it; otherwise every
                        // advert re-arms the timer. A node that manually
                        // resigned never preempts a living peer.
                        if !self.cfg.preempt || self.resigned || !self.outranks(priority, node_id) {
                            self.master_down_at_ns = now_ns + self.cfg.master_down_ns();
                        }
                        self.send_ack(now_ns);
                    }
                    Role::Master => {
                        if peer_wins {
                            // Preempt-on-heal: the rightful master is back
                            // (or was never gone) — step down at once.
                            self.accepting = false;
                            self.set_role(now_ns, Role::Backup);
                            self.master_down_at_ns = now_ns + self.cfg.master_down_ns();
                            self.send_ack(now_ns);
                        }
                    }
                    Role::Draining => {
                        // Peer took over — finish the handoff early.
                        self.set_role(now_ns, Role::Backup);
                        self.master_down_at_ns = now_ns + self.cfg.master_down_ns();
                    }
                }
            }
            HaMsg::Ack { term: _, acked_seq, shadow_epoch: _ } => {
                self.peer_ever_acked = true;
                self.peer_acked_seq = self.peer_acked_seq.max(acked_seq);
            }
            HaMsg::Delta { bytes } => match CheckpointDelta::decode(&bytes) {
                Ok(delta) => self.fold_delta(now_ns, delta),
                Err(_) => self.m_rejected.inc(),
            },
            HaMsg::Snapshot { seq, bytes } => match Checkpoint::decode(&bytes) {
                Ok(ck) => {
                    self.shadow = Some(ck);
                    self.shadow_seq = seq;
                    // Re-baseline landed: the resync is over, clear the
                    // SyncReq backoff so a future gap re-requests promptly.
                    self.last_syncreq_tx_ns = None;
                    self.syncreq_streak = 0;
                    self.send_ack(now_ns);
                }
                Err(_) => self.m_rejected.inc(),
            },
            HaMsg::SyncReq { have_seq: _ } => {
                if self.role == Role::Master {
                    self.want_snapshot = true;
                }
            }
        }
    }

    fn outranks(&self, peer_priority: u8, peer_node_id: u64) -> bool {
        self.cfg.priority > peer_priority
            || (self.cfg.priority == peer_priority && self.cfg.node_id > peer_node_id)
    }

    /// Standby: fold one delta into the shadow, or flag a gap for resync.
    fn fold_delta(&mut self, now_ns: u64, delta: CheckpointDelta) {
        match &mut self.shadow {
            Some(shadow) if delta.seq == self.shadow_seq + 1 => {
                shadow.fold(&delta);
                self.shadow_seq = delta.seq;
                self.last_syncreq_tx_ns = None;
                self.syncreq_streak = 0;
                self.send_ack(now_ns);
            }
            Some(_) if delta.seq <= self.shadow_seq => {
                // Stale duplicate (re-delivery after resync) — ack, don't fold.
                self.send_ack(now_ns);
            }
            _ => {
                // One in-flight SyncReq at a time, with jittered exponential
                // backoff: on a lossy link every gapped delta used to
                // re-request, and every request the master *did* hear
                // answered with a full Snapshot re-baseline — N duplicate
                // snapshots for one gap. The retry (not the suppression)
                // still guarantees a lost SyncReq or a lost Snapshot reply
                // cannot wedge the resync.
                let due = match self.last_syncreq_tx_ns {
                    None => true,
                    Some(last) => {
                        let base = self
                            .cfg
                            .advert_interval_ns
                            .saturating_mul(1 << self.syncreq_streak.min(3));
                        now_ns.saturating_sub(last)
                            >= jittered_backoff(base, self.cfg.node_id, self.syncreq_streak as u64)
                    }
                };
                if due {
                    self.last_syncreq_tx_ns = Some(now_ns);
                    self.syncreq_streak = self.syncreq_streak.saturating_add(1);
                    let msg = HaMsg::SyncReq { have_seq: self.shadow_seq };
                    self.link.send(now_ns, &msg.encode());
                }
            }
        }
    }

    /// Master: emit one replication step — a delta against the last
    /// streamed snapshot, or a full snapshot when (re)baselining.
    fn stream_state<C: Clock>(&mut self, now_ns: u64, lvrm: &mut Lvrm<C>) {
        self.last_delta_tx_ns = now_ns;
        let ck = lvrm.build_checkpoint(now_ns);
        self.stream_seq += 1;
        let msg = match self.last_streamed.as_ref() {
            Some(prev) if !self.want_snapshot => {
                let delta = CheckpointDelta::diff(prev, &ck, self.stream_seq);
                HaMsg::Delta { bytes: delta.encode() }
            }
            _ => {
                self.want_snapshot = false;
                HaMsg::Snapshot { seq: self.stream_seq, bytes: ck.encode() }
            }
        };
        let wire = msg.encode();
        self.m_delta_bytes.add(wire.len() as u64);
        self.link.send(now_ns, &wire);
        self.last_streamed = Some(ck);
    }

    fn send_advert(&mut self, now_ns: u64, priority: u8) {
        self.advert_seq += 1;
        let msg = HaMsg::Advert {
            term: self.term,
            node_id: self.cfg.node_id,
            priority,
            epoch: 0,
            seq: self.advert_seq,
        };
        self.link.send(now_ns, &msg.encode());
        self.last_advert_tx_ns = now_ns;
        self.m_adverts_tx.inc();
    }

    fn send_ack(&mut self, now_ns: u64) {
        let shadow_epoch = self.shadow.as_ref().map_or(0, |s| s.epoch);
        let msg = HaMsg::Ack { term: self.term, acked_seq: self.shadow_seq, shadow_epoch };
        self.link.send(now_ns, &msg.encode());
    }

    /// Backup → Master on master-down: apply the shadow checkpoint (the
    /// warm-restart path — in-flight frames were already charged to
    /// `crash_lost`/`queue_lost` when the master built it), start
    /// probation, advert immediately.
    fn promote<C: Clock>(&mut self, now_ns: u64, lvrm: &mut Lvrm<C>, host: &mut dyn VriHost) {
        self.term += 1;
        self.resigned = false;
        if let Some(shadow) = self.shadow.take() {
            let epoch = lvrm.apply_checkpoint(&shadow, now_ns, host);
            self.registry.push_event(
                now_ns,
                format!(
                    "ha-promoted-from-shadow term={} epoch={epoch} shadow_seq={}",
                    self.term, self.shadow_seq
                ),
            );
        } else {
            self.registry.push_event(now_ns, format!("ha-promoted-cold term={}", self.term));
        }
        self.set_role(now_ns, Role::Master);
        self.probation_until_ns = now_ns + self.cfg.advert_interval_ns;
        self.accepting = false;
        // The promoted node re-baselines its own outbound stream.
        self.last_streamed = None;
        self.want_snapshot = false;
        self.peer_ever_acked = false;
        self.peer_acked_seq = self.stream_seq;
        self.send_advert(now_ns, self.cfg.priority);
        self.last_delta_tx_ns = now_ns;
    }

    fn set_role(&mut self, now_ns: u64, to: Role) {
        if self.role == to {
            return;
        }
        self.registry
            .push_event(now_ns, format!("ha-role from={} to={to} term={}", self.role, self.term));
        self.role = to;
        self.m_role.set(to.as_gauge());
        self.m_transitions.inc();
        if to != Role::Master {
            self.accepting = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(priority: u8, node_id: u64) -> HaConfig {
        HaConfig { priority, node_id, ..Default::default() }
    }

    #[test]
    fn skew_and_master_down_follow_rfc_5798() {
        let c = cfg(100, 1);
        let advert = c.advert_interval_ns;
        assert_eq!(c.skew_ns(), (256 - 100) * advert / 256);
        assert_eq!(c.master_down_ns(), 3 * advert + c.skew_ns());
        // Higher priority → shorter skew → faster takeover.
        assert!(cfg(200, 1).skew_ns() < cfg(50, 1).skew_ns());
    }

    #[test]
    fn msg_codec_roundtrip_and_rejection() {
        let msgs = [
            HaMsg::Advert { term: 3, node_id: 9, priority: 100, epoch: 2, seq: 41 },
            HaMsg::Ack { term: 3, acked_seq: 17, shadow_epoch: 2 },
            HaMsg::Delta { bytes: vec![1, 2, 3, 4] },
            HaMsg::Snapshot { seq: 18, bytes: vec![9, 8, 7] },
            HaMsg::SyncReq { have_seq: 11 },
        ];
        for m in &msgs {
            let wire = m.encode();
            assert_eq!(&HaMsg::decode(&wire).expect("decodes"), m);
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x10;
                assert!(HaMsg::decode(&bad).is_err(), "flip at {i} accepted");
            }
            for len in 0..wire.len() {
                assert!(HaMsg::decode(&wire[..len]).is_err(), "truncation to {len} accepted");
            }
        }
    }

    #[test]
    fn channel_link_delivers_both_ways() {
        let (mut a, mut b) = ChannelLink::pair();
        a.send(0, b"hello");
        b.send(0, b"world");
        let mut out = Vec::new();
        b.recv(0, &mut out);
        assert_eq!(out, vec![b"hello".to_vec()]);
        out.clear();
        a.recv(0, &mut out);
        assert_eq!(out, vec![b"world".to_vec()]);
    }
}
