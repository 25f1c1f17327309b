//! One cluster protocol for the active/standby pair and the N-shard fleet
//! (DESIGN.md §13, §15).
//!
//! A [`ClusterNode`] is one monitor of one shard. The fleet partitions the
//! VR space by rendezvous hash ([`ShardMap`]). The node takes a list of
//! `(peer shard id, link)`; a link tagged with the node's own shard leads
//! to its HA partner, so an active/standby pair is a one-shard fleet and a
//! fleet member without HA is a shard with no partner.
//!
//! * **Roles.** A node with a partner starts as `Backup` and runs the RFC
//!   5798 (VRRP) machine: `Backup → Master` on master-down, `Master →
//!   Backup` on a higher-priority advert, `Master → Draining → Backup` on a
//!   graceful priority-0 handoff. A node without one is its shard's
//!   `Master` from attach.
//! * **One advert** `(term, node_id, shard_id, priority, epoch,
//!   map_version)`, sent by the shard's master on every link. The partner
//!   runs the election on it; every other shard re-arms the sender's down
//!   deadline, notices a rejoin, and re-gossips its map to a peer whose
//!   map is older.
//! * **One down deadline per peer**, set by one function: RFC 5798's
//!   master-down `3 × advert + skew` for the partner, `6 × advert` plus
//!   seeded jitter for another shard — twice the HA budget, so a pair fails
//!   over before the fleet buries its shard.
//! * **One state stream.** Every stream interval the shard's master diffs
//!   its checkpoint against the last one it streamed and sends the
//!   [`CheckpointDelta`] on every link, or a full snapshot when nothing has
//!   been streamed yet or a receiver asked for one. Each receiver folds one
//!   shadow per sending shard, only from the `(node_id, term)` that
//!   baselined it: the standby promotes from its own shard's shadow, a
//!   successor warm-adopts a dead shard's VRs from that shard's.
//! * **One claim path.** A shard silent past its deadline is buried by
//!   whichever master notices; it re-homes only the dead shard's VRs over
//!   the survivors, broadcasts a `Claim` (retried with jittered backoff
//!   until every live shard acks) and gossips the new map.
//!
//! Split-brain guards: a promoted master accepts no frames for one advert
//! interval (probation), so a live old master's next advert demotes it
//! first; and a master that hears a higher-priority partner advert steps
//! down at once (preempt-on-heal). A symmetric partition longer than
//! master-down with both partners alive is the CAP-impossible case, and
//! the design documents the bound (DESIGN.md §13). A shard without
//! directory quorum keeps serving what it owns and never takes over, so
//! only a majority re-homes (§15).
//!
//! A backup listens, folds, acks and may ask for snapshots, and tracks the
//! directory (deaths, maps, adoptions) so that it is current when it is
//! promoted, but it never adverts, claims or gossips a map.

use std::net::Ipv4Addr;

use lvrm_metrics::{Counter, Gauge, MetricsRegistry};

use crate::checkpoint::{
    open, seal, Checkpoint, CheckpointDelta, CheckpointError, Dec, Enc, Version,
};
use crate::clock::Clock;
use crate::config::ClusterConfig;
use crate::fault::{jittered_backoff, splitmix64};
use crate::host::VriHost;
use crate::monitor::Lvrm;

/// Leading magic of every cluster message — disjoint from `LVCK`
/// (checkpoints), `LVCD` (deltas) and `LVSU` (state updates).
pub const CLUSTER_MAGIC: [u8; 4] = *b"LVSM";
/// Cluster wire version. Version 1 was the fleet-only format beside the
/// retired `LVHA` pair format; a peer speaking either is rejected like any
/// corrupt message, so a mixed-version pair behaves as a partition.
pub const CLUSTER_VERSION: u8 = 2;

const KIND_ADVERT: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
const KIND_SYNC_REQ: u8 = 4;
const KIND_MAP: u8 = 5;
const KIND_CLAIM: u8 = 6;
const KIND_CLAIM_ACK: u8 = 7;

/// Election role of one monitor within its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Listening for adverts, folding the stream, armed to promote.
    Backup,
    /// Speaking for the shard: accepting frames, adverting, streaming.
    Master,
    /// Graceful handoff in flight: advertised priority 0, not accepting,
    /// waiting for the partner to take over before dropping to `Backup`.
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

/// One VR's ownership record: its name, the classify-by-subnet key it is
/// reached through, and the shard that owns it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    pub vr: String,
    pub net: Ipv4Addr,
    pub prefix: u8,
    pub shard: u32,
}

/// The versioned VR-ownership table every fleet member converges to.
/// Entirely recomputable: given the same `(version, membership)` every
/// node derives byte-identical maps, which is what makes takeover
/// deterministic without a coordinator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Bumps on every reassignment; higher version always wins.
    pub version: u32,
    pub entries: Vec<ShardEntry>,
}

/// Rendezvous (highest-random-weight) owner of `key` among `shards`.
/// Deterministic, minimal-movement: removing one shard only moves the
/// keys that shard owned. Ties break toward the lower shard id.
pub fn rendezvous_owner(key: &str, shards: &[u32]) -> Option<u32> {
    let kh = fnv1a(key.as_bytes());
    shards
        .iter()
        .map(|&s| (splitmix64(kh ^ splitmix64(s as u64 ^ 0x9e37_79b9_7f4a_7c15)), s))
        // max_by_key returns the *last* max; order by (weight, Reverse(id))
        // via comparing on weight then preferring lower id explicitly.
        .fold(None, |best: Option<(u64, u32)>, cand| match best {
            None => Some(cand),
            Some(b) if cand.0 > b.0 || (cand.0 == b.0 && cand.1 < b.1) => Some(cand),
            Some(b) => Some(b),
        })
        .map(|(_, s)| s)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardMap {
    /// Initial partition of the declared VR universe over the full fleet.
    /// `vrs` is `(name, classify subnet)` per VR; every fleet member calls
    /// this with the same arguments at attach time, so version 1 is
    /// unanimous by construction.
    pub fn partition(vrs: &[(String, Ipv4Addr, u8)], shards: &[u32]) -> ShardMap {
        let entries = vrs
            .iter()
            .map(|(vr, net, prefix)| ShardEntry {
                vr: vr.clone(),
                net: *net,
                prefix: *prefix,
                shard: rendezvous_owner(vr, shards).unwrap_or(0),
            })
            .collect();
        ShardMap { version: 1, entries }
    }

    /// The shard owning `vr`, if the VR is declared.
    pub fn owner_of(&self, vr: &str) -> Option<u32> {
        self.entries.iter().find(|e| e.vr == vr).map(|e| e.shard)
    }

    /// Names of the VRs `shard` owns.
    pub fn owned_by(&self, shard: u32) -> Vec<&str> {
        self.entries.iter().filter(|e| e.shard == shard).map(|e| e.vr.as_str()).collect()
    }

    /// Bounded re-homing after `dead` leaves the fleet: only the dead
    /// shard's entries move, each to its rendezvous successor among the
    /// `survivors`; every other assignment is untouched. Version bumps so
    /// the new map outranks the old everywhere it gossips to.
    pub fn rehomed(&self, dead: u32, survivors: &[u32]) -> ShardMap {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let shard = if e.shard == dead {
                    rendezvous_owner(&e.vr, survivors).unwrap_or(e.shard)
                } else {
                    e.shard
                };
                ShardEntry { shard, ..e.clone() }
            })
            .collect();
        ShardMap { version: self.version + 1, entries }
    }

    fn enc_body(&self, e: &mut Enc) {
        e.u32(self.version);
        e.u32(self.entries.len() as u32);
        for en in &self.entries {
            e.u32(u32::from(en.net));
            e.u8(en.prefix);
            e.u32(en.shard);
            e.str(&en.vr);
        }
    }

    fn dec_body(d: &mut Dec<'_>) -> Result<ShardMap, CheckpointError> {
        let version = d.u32()?;
        // net, prefix, shard and an empty name's length prefix
        let n = d.count(4 + 1 + 4 + 4, "implausible shard-map entry count")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let net = Ipv4Addr::from(d.u32()?);
            let prefix = d.u8()?;
            let shard = d.u32()?;
            let vr = d.str()?;
            entries.push(ShardEntry { vr, net, prefix, shard });
        }
        Ok(ShardMap { version, entries })
    }
}

/// One cluster message. All little-endian, framed
/// `"LVSM" | version u8 | kind u8 | payload | crc32`, the discipline every
/// wire format in the repo shares: length check, magic, CRC over everything
/// before the trailer, version, then an exact-consumption check, so any
/// one-byte corruption or truncation is a counted reject, never a state
/// transition.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterMsg {
    /// Heartbeat from a shard's master. `priority == 0` means "resigning"
    /// (RFC 5798 graceful handoff): the partner shortens its master-down
    /// timer to skew.
    Advert { term: u64, node_id: u64, shard_id: u32, priority: u8, epoch: u32, map_version: u32 },
    /// Receiver → master: the freshest stream position folded.
    Ack { acked_seq: u64 },
    /// Master → every link: one encoded [`CheckpointDelta`], sent by node
    /// `node_id` in election `term`.
    Delta { node_id: u64, term: u64, bytes: Vec<u8> },
    /// Master → every link: a full encoded [`Checkpoint`] at stream
    /// position `seq`, re-baselining every receiver's shadow.
    Snapshot { node_id: u64, term: u64, seq: u64, bytes: Vec<u8> },
    /// Receiver → master: the stream gapped, or came from another sender
    /// than the one that baselined the shadow — send a snapshot.
    SyncReq,
    /// Full ownership-map gossip: after any reassignment, and to a peer
    /// whose adverts show an older map.
    Map { from: u32, map: ShardMap },
    /// Takeover claim: the sender buried shard `dead`. Retried with
    /// jittered exponential backoff until every live shard acks.
    Claim { dead: u32 },
    /// Shard `from` acknowledges a [`ClusterMsg::Claim`] for `dead`.
    ClaimAck { dead: u32, from: u32 },
}

impl ClusterMsg {
    pub fn encode(&self) -> Vec<u8> {
        seal(CLUSTER_MAGIC, Version::U8(CLUSTER_VERSION), 64, |e| match self {
            ClusterMsg::Advert { term, node_id, shard_id, priority, epoch, map_version } => {
                e.u8(KIND_ADVERT);
                e.u64(*term);
                e.u64(*node_id);
                e.u32(*shard_id);
                e.u8(*priority);
                e.u32(*epoch);
                e.u32(*map_version);
            }
            ClusterMsg::Ack { acked_seq } => {
                e.u8(KIND_ACK);
                e.u64(*acked_seq);
            }
            ClusterMsg::Delta { node_id, term, bytes } => {
                e.u8(KIND_DELTA);
                e.u64(*node_id);
                e.u64(*term);
                e.bytes(bytes);
            }
            ClusterMsg::Snapshot { node_id, term, seq, bytes } => {
                e.u8(KIND_SNAPSHOT);
                e.u64(*node_id);
                e.u64(*term);
                e.u64(*seq);
                e.bytes(bytes);
            }
            ClusterMsg::SyncReq => e.u8(KIND_SYNC_REQ),
            ClusterMsg::Map { from, map } => {
                e.u8(KIND_MAP);
                e.u32(*from);
                map.enc_body(e);
            }
            ClusterMsg::Claim { dead } => {
                e.u8(KIND_CLAIM);
                e.u32(*dead);
            }
            ClusterMsg::ClaimAck { dead, from } => {
                e.u8(KIND_CLAIM_ACK);
                e.u32(*dead);
                e.u32(*from);
            }
        })
    }

    /// Parse and verify one wire message. Total: malformed input is an
    /// error, never a panic.
    pub fn decode(buf: &[u8]) -> Result<ClusterMsg, CheckpointError> {
        let mut d = open(buf, CLUSTER_MAGIC, Version::U8(CLUSTER_VERSION))?;
        let msg = match d.u8()? {
            KIND_ADVERT => ClusterMsg::Advert {
                term: d.u64()?,
                node_id: d.u64()?,
                shard_id: d.u32()?,
                priority: d.u8()?,
                epoch: d.u32()?,
                map_version: d.u32()?,
            },
            KIND_ACK => ClusterMsg::Ack { acked_seq: d.u64()? },
            KIND_DELTA => {
                ClusterMsg::Delta { node_id: d.u64()?, term: d.u64()?, bytes: d.bytes()? }
            }
            KIND_SNAPSHOT => ClusterMsg::Snapshot {
                node_id: d.u64()?,
                term: d.u64()?,
                seq: d.u64()?,
                bytes: d.bytes()?,
            },
            KIND_SYNC_REQ => ClusterMsg::SyncReq,
            KIND_MAP => ClusterMsg::Map { from: d.u32()?, map: ShardMap::dec_body(&mut d)? },
            KIND_CLAIM => ClusterMsg::Claim { dead: d.u32()? },
            KIND_CLAIM_ACK => ClusterMsg::ClaimAck { dead: d.u32()?, from: d.u32()? },
            // An unknown kind must not pass for a `SyncReq`: that would make
            // a master re-baseline with a full snapshot on any stray byte.
            _ => return Err(CheckpointError::Malformed("unknown cluster message kind")),
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Transport between two monitors. Implementations are datagram-shaped
/// and best-effort: `send` may silently drop (the protocol tolerates
/// loss), `recv` drains everything currently queued. `now_ns` threads the
/// caller's clock through so fault-injection wrappers can delay
/// deterministically.
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

/// A receiver's fold of one shard's state stream.
#[derive(Clone, Debug)]
pub struct Shadow {
    /// The sender that baselined this shadow, and its election term: a
    /// delta folds only when it comes from the same `(node_id, term)`.
    pub node_id: u64,
    pub term: u64,
    /// Stream position of the last snapshot or delta folded.
    pub seq: u64,
    /// When that fold happened (the warm-adoption freshness gate).
    pub folded_ns: u64,
    pub ck: Checkpoint,
}

/// What a node knows of one shard. The entry for its own shard stands for
/// its HA partner.
struct Peer {
    alive: bool,
    /// Last (non-resigning) advert heard, ns; zero until the first.
    last_rx_ns: u64,
    /// Master-down instant for the partner, jittered shard-down instant for
    /// another shard; re-armed by every advert.
    down_at_ns: u64,
    shadow: Option<Shadow>,
    /// When the last `SyncReq` for this shard's stream went out, if a
    /// resync is in flight. Gapped deltas arrive at the stream cadence;
    /// re-requesting on every one of them turns a single lost snapshot
    /// into N duplicate re-baselines. At most one per backoff interval.
    last_syncreq_tx_ns: Option<u64>,
    /// Consecutive SyncReqs without a snapshot landing: exponent of the
    /// backoff (capped), reset by any snapshot or in-sequence delta.
    syncreq_streak: u32,
}

/// An unacknowledged takeover claim, retried with jittered exponential
/// backoff (base = the advert interval, doubling per attempt, capped).
struct PendingClaim {
    dead: u32,
    attempts: u32,
    next_tx_ns: u64,
    acked: Vec<u32>,
}

const CLAIM_MAX_ATTEMPTS: u32 = 6;

/// One monitor's cluster node: election, directory, claims and the state
/// stream, with the metrics that expose them. Attached to an [`Lvrm`] via
/// [`Lvrm::attach_cluster`] and ticked from every `maybe_reallocate` call,
/// ahead of the lazy 1 s allocation gate, so advert cadence follows the
/// host loop.
pub struct ClusterNode {
    cfg: ClusterConfig,
    /// `(peer shard id, link)`. Links tagged with this node's shard lead to
    /// its HA partner; more than one link per shard is fine (both nodes of
    /// a peer pair), duplicate deliveries are idempotent.
    links: Vec<(u32, Box<dyn PeerLink>)>,
    role: Role,
    /// Election term: bumped on every promotion, echoed in adverts, and
    /// half of the identity a receiver keys a shadow on.
    term: u64,
    accepting: bool,
    /// Master: probation — no frame acceptance before this instant.
    probation_until_ns: u64,
    /// Draining: drop to Backup at this instant.
    drain_until_ns: u64,
    /// Set by a manual handoff: suppresses preemption so the resigned node
    /// stays backup while the partner lives (cleared on the next promotion —
    /// i.e. when the partner actually dies).
    resigned: bool,
    last_advert_tx_ns: u64,
    /// Indexed by shard id.
    peers: Vec<Peer>,
    map: ShardMap,
    /// Directory epoch: bumps on every membership change (death, rejoin).
    epoch: u32,
    quorum_ok: bool,
    pending_claims: Vec<PendingClaim>,
    /// Nonce feeding [`jittered_backoff`] so successive timers de-correlate.
    backoff_nonce: u64,
    // ---- master-side stream ----
    stream_seq: u64,
    last_streamed: Option<Checkpoint>,
    last_stream_tx_ns: u64,
    want_snapshot: bool,
    acked_seq: u64,
    // ---- metrics ----
    registry: MetricsRegistry,
    m_role: Gauge,
    m_transitions: Counter,
    m_adverts_tx: Counter,
    m_adverts_rx: Counter,
    m_delta_bytes: Counter,
    m_delta_lag: Gauge,
    m_failover_ns: Gauge,
    m_owned: Gauge,
    m_takeovers: Counter,
    m_rehome_ns: Gauge,
    m_epoch: Gauge,
    m_quorum: Gauge,
    m_rejected: Counter,
    recv_scratch: Vec<Vec<u8>>,
}

impl ClusterNode {
    /// A node attached at `now_ns`; every peer's down deadline runs from
    /// then. Link tags must name members of the fleet.
    pub(crate) fn new(
        cfg: ClusterConfig,
        map: ShardMap,
        links: Vec<(u32, Box<dyn PeerLink>)>,
        now_ns: u64,
        registry: &MetricsRegistry,
    ) -> ClusterNode {
        assert!(links.iter().all(|(shard, _)| *shard < cfg.shards), "link outside the fleet");
        let paired = links.iter().any(|(shard, _)| *shard == cfg.shard_id);
        let role = if paired { Role::Backup } else { Role::Master };
        let m_role = registry.gauge(
            "lvrm_ha_role",
            "Election role within the shard (0 backup, 1 master, 2 draining).",
            &[],
        );
        m_role.set(role.as_gauge());
        let peers = (0..cfg.shards)
            .map(|_| Peer {
                alive: true,
                last_rx_ns: 0,
                down_at_ns: 0,
                shadow: None,
                last_syncreq_tx_ns: None,
                syncreq_streak: 0,
            })
            .collect();
        let mut node = ClusterNode {
            cfg,
            links,
            role,
            term: 0,
            accepting: !paired,
            probation_until_ns: 0,
            drain_until_ns: 0,
            resigned: false,
            last_advert_tx_ns: 0,
            peers,
            map,
            epoch: 1,
            quorum_ok: true,
            pending_claims: Vec::new(),
            backoff_nonce: 0,
            stream_seq: 0,
            last_streamed: None,
            last_stream_tx_ns: 0,
            want_snapshot: false,
            acked_seq: 0,
            registry: registry.clone(),
            m_role,
            m_transitions: registry.counter("lvrm_ha_transitions_total", "Role transitions.", &[]),
            m_adverts_tx: registry.counter("lvrm_ha_adverts_tx_total", "Adverts sent.", &[]),
            m_adverts_rx: registry.counter("lvrm_ha_adverts_rx_total", "Adverts received.", &[]),
            m_delta_bytes: registry.counter(
                "lvrm_ha_delta_bytes_total",
                "State-stream bytes sent (deltas + snapshots, once per link).",
                &[],
            ),
            m_delta_lag: registry.gauge(
                "lvrm_ha_delta_lag",
                "Stream positions sent but not yet acked by any receiver.",
                &[],
            ),
            m_failover_ns: registry.gauge(
                "lvrm_ha_failover_ns",
                "Last takeover latency: from final partner contact to accepting frames.",
                &[],
            ),
            m_owned: registry.gauge("lvrm_shard_owned", "VRs this shard currently owns.", &[]),
            m_takeovers: registry.counter(
                "lvrm_shard_takeovers_total",
                "Dead-shard takeovers this monitor participated in as a successor.",
                &[],
            ),
            m_rehome_ns: registry.gauge(
                "lvrm_shard_rehome_ns",
                "Last takeover's re-homing latency: dead shard's final advert to adoption.",
                &[],
            ),
            m_epoch: registry.gauge(
                "lvrm_shard_directory_epoch",
                "Fleet directory epoch (bumps on every membership change).",
                &[],
            ),
            m_quorum: registry.gauge(
                "lvrm_shard_quorum",
                "1 while this shard can reach a directory majority, else 0.",
                &[],
            ),
            m_rejected: registry.counter(
                "lvrm_cluster_msgs_rejected_total",
                "Cluster messages dropped as malformed (bad magic/version/CRC/structure).",
                &[],
            ),
            recv_scratch: Vec::new(),
        };
        for shard in 0..cfg.shards {
            node.rearm(now_ns, shard);
        }
        node
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// True while this node owns its shard's dataplane: `Master`, past
    /// promotion probation. Hosts gate ingress on this.
    pub fn accepting(&self) -> bool {
        self.accepting
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    /// This node's fold of `shard`'s state stream (its own shard: the
    /// partner's), once a snapshot has baselined it.
    pub fn shadow(&self, shard: u32) -> Option<&Shadow> {
        self.peers.get(shard as usize)?.shadow.as_ref()
    }

    /// Stream positions sent but not yet acknowledged by any receiver.
    pub fn delta_lag(&self) -> u64 {
        self.stream_seq.saturating_sub(self.acked_seq)
    }

    /// The current directory epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether this shard still reaches a directory majority. While false
    /// it serves what it owns but never takes over a dead peer's VRs (the
    /// documented CAP stance).
    pub fn has_quorum(&self) -> bool {
        self.quorum_ok
    }

    /// Request a graceful handoff (the SIGUSR1 / manual-failover entry
    /// point): a master with a partner adverts priority 0 and drains. Any
    /// other node ignores it. Returns whether a handoff began.
    pub fn request_handoff(&mut self, now_ns: u64) -> bool {
        let paired = self.links.iter().any(|(shard, _)| *shard == self.cfg.shard_id);
        if self.role != Role::Master || !paired {
            return false;
        }
        self.send_advert(now_ns, 0);
        self.set_role(now_ns, Role::Draining);
        // Manual failover is sticky: don't preempt the partner back off the
        // mastership we just handed it (cleared if the partner later dies).
        self.resigned = true;
        // Long enough for the partner's skew timer to fire and its first
        // advert to come back; then we rejoin as a plain backup.
        self.drain_until_ns = now_ns + 2 * self.cfg.advert_interval_ns + self.cfg.skew_ns();
        true
    }

    /// One cluster sub-tick: drain every link, run the role timers, speak
    /// for the shard if master, bury silent peers, refresh the gauges.
    pub(crate) fn tick<C: Clock>(
        &mut self,
        now_ns: u64,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        // Drain every link first: adverts heard this tick must re-arm their
        // deadlines before the timers and the death scan below.
        let mut scratch = std::mem::take(&mut self.recv_scratch);
        for link in 0..self.links.len() {
            scratch.clear();
            self.links[link].1.recv(now_ns, &mut scratch);
            for buf in scratch.drain(..) {
                match ClusterMsg::decode(&buf) {
                    Ok(msg) => self.on_msg(now_ns, link, msg, lvrm, host),
                    Err(_) => self.m_rejected.inc(),
                }
            }
        }
        self.recv_scratch = scratch;

        let me = self.cfg.shard_id as usize;
        match self.role {
            Role::Backup if now_ns >= self.peers[me].down_at_ns => self.promote(now_ns, lvrm, host),
            Role::Draining if now_ns >= self.drain_until_ns => {
                self.set_role(now_ns, Role::Backup);
                self.rearm(now_ns, self.cfg.shard_id);
            }
            _ => {}
        }
        if self.role == Role::Master {
            if !self.accepting && now_ns >= self.probation_until_ns {
                self.accepting = true;
                let last_rx = self.peers[me].last_rx_ns;
                if last_rx > 0 {
                    let failover = now_ns.saturating_sub(last_rx);
                    self.m_failover_ns.set(failover as f64);
                    self.registry.push_event(
                        now_ns,
                        format!("ha-failover-complete term={} latency_ns={failover}", self.term),
                    );
                }
            }
            if self.last_advert_tx_ns == 0
                || now_ns.saturating_sub(self.last_advert_tx_ns) >= self.cfg.advert_interval_ns
            {
                self.send_advert(now_ns, self.cfg.priority);
            }
            if now_ns.saturating_sub(self.last_stream_tx_ns) >= self.cfg.stream_interval_ns {
                self.stream(now_ns, lvrm);
            }
            self.retry_claims(now_ns);
        }

        // Death scan: a shard silent past its deadline leaves the directory.
        // A shard not heard from yet gets its deadline from this scan, so
        // one that died before its first advert reached us (or before we
        // restarted) is buried too. Skipped entirely without quorum — a
        // minority must not declare the majority dead and absorb the fleet.
        if self.quorum_ok {
            let me = self.cfg.shard_id;
            for shard in (0..self.cfg.shards).filter(|&s| s != me) {
                if self.peers[shard as usize].down_at_ns == 0 {
                    self.rearm(now_ns, shard);
                }
                let p = &self.peers[shard as usize];
                if p.alive && now_ns >= p.down_at_ns {
                    self.on_shard_dead(now_ns, shard, lvrm, host);
                }
            }
        }

        self.quorum_ok = self.alive_shards().len() as u32 >= self.cfg.quorum();
        self.m_quorum.set(if self.quorum_ok { 1.0 } else { 0.0 });
        self.m_epoch.set(self.epoch as f64);
        self.m_owned.set(lvrm.owned_vrs() as f64);
        self.m_delta_lag.set(self.delta_lag() as f64);
    }

    /// Arm `shard`'s down deadline from `now_ns`: RFC 5798 master-down for
    /// the partner; for another shard the base `6 × advert` plus a seeded
    /// jitter keyed by (self, peer, nonce), so co-detecting shards do not
    /// stampede the takeover path in lockstep.
    fn rearm(&mut self, now_ns: u64, shard: u32) {
        let interval = if shard == self.cfg.shard_id {
            self.cfg.master_down_ns()
        } else {
            self.backoff_nonce += 1;
            self.cfg.shard_down_ns()
                + jittered_backoff(
                    self.cfg.advert_interval_ns,
                    (self.cfg.shard_id as u64) << 32 | shard as u64,
                    self.backoff_nonce,
                )
        };
        self.peers[shard as usize].down_at_ns = now_ns + interval;
    }

    /// Shard ids currently believed alive, self included, ascending.
    fn alive_shards(&self) -> Vec<u32> {
        (0..self.cfg.shards).filter(|&s| self.peers[s as usize].alive).collect()
    }

    fn broadcast(&mut self, now_ns: u64, msg: &ClusterMsg) {
        let wire = msg.encode();
        for (_, link) in &mut self.links {
            link.send(now_ns, &wire);
        }
    }

    fn reply(&mut self, now_ns: u64, link: usize, msg: &ClusterMsg) {
        self.links[link].1.send(now_ns, &msg.encode());
    }

    fn on_msg<C: Clock>(
        &mut self,
        now_ns: u64,
        link: usize,
        msg: ClusterMsg,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        // The stream messages name no shard: the link they came over does.
        let shard = self.links[link].0;
        match msg {
            ClusterMsg::Advert { term, node_id, shard_id, priority, epoch, map_version } => {
                self.m_adverts_rx.inc();
                if shard_id == self.cfg.shard_id {
                    self.on_partner_advert(now_ns, term, node_id, priority);
                } else if (shard_id as usize) < self.peers.len() {
                    self.on_shard_advert(now_ns, shard_id, epoch, map_version, lvrm, host);
                }
            }
            ClusterMsg::Ack { acked_seq } => {
                if self.role == Role::Master {
                    self.acked_seq = self.acked_seq.max(acked_seq);
                }
            }
            ClusterMsg::Delta { node_id, term, bytes } => match CheckpointDelta::decode(&bytes) {
                Ok(delta) => self.fold_delta(now_ns, link, shard, node_id, term, delta),
                Err(_) => self.m_rejected.inc(),
            },
            ClusterMsg::Snapshot { node_id, term, seq, bytes } => {
                match Checkpoint::decode(&bytes) {
                    Ok(ck) => {
                        let p = &mut self.peers[shard as usize];
                        p.shadow = Some(Shadow { node_id, term, seq, folded_ns: now_ns, ck });
                        // Re-baseline landed: the resync is over, clear the
                        // SyncReq backoff so a future gap re-requests promptly.
                        p.last_syncreq_tx_ns = None;
                        p.syncreq_streak = 0;
                        self.reply(now_ns, link, &ClusterMsg::Ack { acked_seq: seq });
                    }
                    Err(_) => self.m_rejected.inc(),
                }
            }
            ClusterMsg::SyncReq => {
                if self.role == Role::Master {
                    self.want_snapshot = true;
                }
            }
            ClusterMsg::Map { from, map } => {
                // Higher version always wins; equal versions with different
                // bytes (concurrent recomputations after multi-death races)
                // reconcile deterministically toward the lower shard id.
                let adopt = map.version > self.map.version
                    || (map.version == self.map.version
                        && map != self.map
                        && from < self.cfg.shard_id);
                if adopt {
                    self.adopt_map(now_ns, map, None, lvrm, host);
                }
            }
            ClusterMsg::Claim { dead } => {
                if self.role == Role::Master {
                    let ack = ClusterMsg::ClaimAck { dead, from: self.cfg.shard_id };
                    self.reply(now_ns, link, &ack);
                }
                // Learn of the death secondhand: converge on the same
                // deterministic re-homing the detector computed.
                if self.quorum_ok {
                    self.on_shard_dead(now_ns, dead, lvrm, host);
                }
            }
            ClusterMsg::ClaimAck { dead, from } => {
                if let Some(c) = self.pending_claims.iter_mut().find(|c| c.dead == dead) {
                    if !c.acked.contains(&from) {
                        c.acked.push(from);
                    }
                }
                let alive = self.alive_shards();
                self.pending_claims.retain(|c| !alive.iter().all(|s| c.acked.contains(s)));
            }
        }
    }

    /// The RFC 5798 election, on an advert from this node's own shard.
    fn on_partner_advert(&mut self, now_ns: u64, term: u64, node_id: u64, priority: u8) {
        self.term = self.term.max(term);
        let me = self.cfg.shard_id as usize;
        if priority == 0 {
            // Partner is resigning: take over after skew only.
            if self.role == Role::Backup {
                let p = &mut self.peers[me];
                p.down_at_ns = p.down_at_ns.min(now_ns + self.cfg.skew_ns());
            }
            return;
        }
        self.peers[me].last_rx_ns = now_ns;
        let mine = (self.cfg.priority, self.cfg.node_id);
        match self.role {
            // Preemption: a backup that outranks the master discards its
            // adverts and lets the master-down timer elect it; otherwise
            // every advert re-arms the timer. A node that manually resigned
            // never preempts a living partner.
            Role::Backup => {
                if self.resigned || mine <= (priority, node_id) {
                    self.rearm(now_ns, self.cfg.shard_id);
                }
            }
            // Preempt-on-heal: the rightful master is back (or was never
            // gone) — step down at once.
            Role::Master if (priority, node_id) > mine => {
                self.set_role(now_ns, Role::Backup);
                self.rearm(now_ns, self.cfg.shard_id);
            }
            Role::Master => {}
            // The partner took over — finish the handoff early.
            Role::Draining => {
                self.set_role(now_ns, Role::Backup);
                self.rearm(now_ns, self.cfg.shard_id);
            }
        }
    }

    /// Liveness, rejoin and map reconciliation, on an advert from another
    /// shard.
    fn on_shard_advert<C: Clock>(
        &mut self,
        now_ns: u64,
        shard: u32,
        epoch: u32,
        map_version: u32,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        self.rearm(now_ns, shard);
        let p = &mut self.peers[shard as usize];
        let rejoined = !p.alive;
        p.alive = true;
        p.last_rx_ns = now_ns;
        if rejoined {
            // A shard we buried is speaking again (healed partition or
            // restart). Re-admit it and hand its original VRs back:
            // rendezvous over the full alive set reproduces the pre-death
            // assignment for everything else, so the move set is again just
            // the rejoiner's share.
            self.epoch = self.epoch.max(epoch) + 1;
            let alive = self.alive_shards();
            let rebased = ShardMap {
                version: self.map.version + 1,
                entries: self
                    .map
                    .entries
                    .iter()
                    .map(|e| ShardEntry {
                        shard: rendezvous_owner(&e.vr, &alive).unwrap_or(e.shard),
                        ..e.clone()
                    })
                    .collect(),
            };
            self.registry
                .push_event(now_ns, format!("shard-rejoined shard={shard} epoch={}", self.epoch));
            self.adopt_map(now_ns, rebased, None, lvrm, host);
        }
        if self.role == Role::Master && (rejoined || map_version < self.map.version) {
            let map = self.map.clone();
            self.broadcast(now_ns, &ClusterMsg::Map { from: self.cfg.shard_id, map });
        }
    }

    /// Fold one delta into `shard`'s shadow if it continues the stream that
    /// baselined it; otherwise ask for a snapshot.
    fn fold_delta(
        &mut self,
        now_ns: u64,
        link: usize,
        shard: u32,
        node_id: u64,
        term: u64,
        delta: CheckpointDelta,
    ) {
        let p = &mut self.peers[shard as usize];
        if let Some(shadow) = p
            .shadow
            .as_mut()
            .filter(|s| (s.node_id, s.term) == (node_id, term) && delta.seq == s.seq + 1)
        {
            shadow.ck.fold(&delta);
            shadow.seq = delta.seq;
            shadow.folded_ns = now_ns;
            p.last_syncreq_tx_ns = None;
            p.syncreq_streak = 0;
            self.reply(now_ns, link, &ClusterMsg::Ack { acked_seq: delta.seq });
            return;
        }
        // A gap, a stale or reordered delta, or another sender's stream
        // (a promoted standby, a restarted shard): the shadow cannot take
        // it. One in-flight SyncReq at a time, with jittered exponential
        // backoff, so a lossy link re-baselines a handful of times instead
        // of once per gapped delta. The retry (not the suppression) still
        // guarantees a lost SyncReq or a lost Snapshot cannot wedge the
        // resync.
        let due = match p.last_syncreq_tx_ns {
            None => true,
            Some(last) => {
                let base = self.cfg.advert_interval_ns.saturating_mul(1 << p.syncreq_streak.min(3));
                now_ns.saturating_sub(last)
                    >= jittered_backoff(base, self.cfg.node_id, p.syncreq_streak as u64)
            }
        };
        if due {
            p.last_syncreq_tx_ns = Some(now_ns);
            p.syncreq_streak = p.syncreq_streak.saturating_add(1);
            self.reply(now_ns, link, &ClusterMsg::SyncReq);
        }
    }

    /// Master: emit one stream step on every link — a delta against the
    /// last streamed checkpoint, or a full snapshot when (re)baselining.
    fn stream<C: Clock>(&mut self, now_ns: u64, lvrm: &Lvrm<C>) {
        self.last_stream_tx_ns = now_ns;
        let ck = lvrm.build_checkpoint(now_ns);
        self.stream_seq += 1;
        let (node_id, term) = (self.cfg.node_id, self.term);
        let msg = match self.last_streamed.as_ref() {
            Some(prev) if !self.want_snapshot => {
                let bytes = CheckpointDelta::diff(prev, &ck, self.stream_seq).encode();
                ClusterMsg::Delta { node_id, term, bytes }
            }
            _ => {
                self.want_snapshot = false;
                ClusterMsg::Snapshot { node_id, term, seq: self.stream_seq, bytes: ck.encode() }
            }
        };
        let wire = msg.encode();
        for (_, link) in &mut self.links {
            link.send(now_ns, &wire);
            self.m_delta_bytes.add(wire.len() as u64);
        }
        self.last_streamed = Some(ck);
    }

    fn send_advert(&mut self, now_ns: u64, priority: u8) {
        let msg = ClusterMsg::Advert {
            term: self.term,
            node_id: self.cfg.node_id,
            shard_id: self.cfg.shard_id,
            priority,
            epoch: self.epoch,
            map_version: self.map.version,
        };
        self.broadcast(now_ns, &msg);
        // max(1): simulated clocks start at 0, which doubles as the
        // never-sent sentinel.
        self.last_advert_tx_ns = now_ns.max(1);
        self.m_adverts_tx.inc();
    }

    /// Backup → Master on master-down: apply the own shard's shadow (the
    /// warm-restart path — in-flight frames were already charged to
    /// `crash_lost`/`queue_lost` when the old master built it), start
    /// probation, advert immediately.
    fn promote<C: Clock>(&mut self, now_ns: u64, lvrm: &mut Lvrm<C>, host: &mut dyn VriHost) {
        self.term += 1;
        self.resigned = false;
        match self.peers[self.cfg.shard_id as usize].shadow.take() {
            Some(shadow) => {
                let epoch = lvrm.apply_checkpoint(&shadow.ck, now_ns, host);
                lvrm.carry_live_dataplane();
                self.registry.push_event(
                    now_ns,
                    format!(
                        "ha-promoted-from-shadow term={} epoch={epoch} shadow_seq={}",
                        self.term, shadow.seq
                    ),
                );
            }
            None => {
                self.registry.push_event(now_ns, format!("ha-promoted-cold term={}", self.term))
            }
        }
        self.set_role(now_ns, Role::Master);
        self.probation_until_ns = now_ns + self.cfg.advert_interval_ns;
        // The promoted node baselines its own outbound stream afresh.
        self.last_streamed = None;
        self.want_snapshot = false;
        self.acked_seq = self.stream_seq;
        self.send_advert(now_ns, self.cfg.priority);
        self.last_stream_tx_ns = now_ns;
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

    /// Resend unacknowledged claims whose backoff expired, doubling the
    /// delay each attempt (seeded jitter, capped attempts).
    fn retry_claims(&mut self, now_ns: u64) {
        let shard_id = self.cfg.shard_id;
        let advert = self.cfg.advert_interval_ns;
        let mut due: Vec<ClusterMsg> = Vec::new();
        self.backoff_nonce += 1;
        let nonce = self.backoff_nonce;
        for c in &mut self.pending_claims {
            if now_ns >= c.next_tx_ns && c.attempts < CLAIM_MAX_ATTEMPTS {
                c.attempts += 1;
                let base = advert << c.attempts.min(5);
                c.next_tx_ns =
                    now_ns + jittered_backoff(base, shard_id as u64, nonce ^ c.dead as u64);
                due.push(ClusterMsg::Claim { dead: c.dead });
            }
        }
        self.pending_claims.retain(|c| c.attempts < CLAIM_MAX_ATTEMPTS);
        for msg in due {
            self.broadcast(now_ns, &msg);
        }
    }

    /// A peer shard missed its deadline (or a claim told us so): bury it,
    /// bump the epoch, re-home its VRs over the survivors and adopt our
    /// share. A master also claims the death and gossips the new map.
    fn on_shard_dead<C: Clock>(
        &mut self,
        now_ns: u64,
        dead: u32,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        let Some(p) = self.peers.get_mut(dead as usize) else {
            return;
        };
        if dead == self.cfg.shard_id || !p.alive {
            return;
        }
        p.alive = false;
        let last_heard = p.last_rx_ns;
        self.epoch += 1;
        self.registry.push_event(
            now_ns,
            format!(
                "shard-dead shard={dead} epoch={} map_version={}",
                self.epoch, self.map.version
            ),
        );
        let survivors = self.alive_shards();
        // A lone survivor of a >2-shard fleet has no quorum and must not
        // absorb the fleet; `tick` re-checks after the scan, but guard the
        // secondhand (claim-driven) path here too.
        if (survivors.len() as u32) < self.cfg.quorum() {
            self.quorum_ok = false;
            return;
        }
        let new_map = self.map.rehomed(dead, &survivors);
        let master = self.role == Role::Master;
        if master {
            // The claimer's own shard counts as having acked.
            let acked = vec![self.cfg.shard_id];
            self.pending_claims.push(PendingClaim { dead, attempts: 0, next_tx_ns: now_ns, acked });
            self.broadcast(now_ns, &ClusterMsg::Claim { dead });
        }
        self.adopt_map(now_ns, new_map, Some((dead, last_heard)), lvrm, host);
        if master {
            let map = self.map.clone();
            self.broadcast(now_ns, &ClusterMsg::Map { from: self.cfg.shard_id, map });
        }
    }

    /// Swap in a new ownership map and reconcile the monitor: release VRs
    /// assigned away, adopt VRs assigned here. When the reassignment is a
    /// takeover (`takeover = Some((dead, last_heard))`), adoption goes
    /// through the warm-restart path: the dead shard's shadow if it is
    /// fresh, else a cold adopt; the rendezvous-primary successor folds the
    /// dead shard's global counters so the conservation identities carry
    /// over instead of vanishing with the corpse.
    fn adopt_map<C: Clock>(
        &mut self,
        now_ns: u64,
        new_map: ShardMap,
        takeover: Option<(u32, u64)>,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        let me = self.cfg.shard_id;
        let mut released = 0usize;
        let mut gained: Vec<String> = Vec::new();
        for e in &new_map.entries {
            let owned_now = lvrm.vr_owned_by_name(&e.vr);
            if e.shard == me && !owned_now {
                gained.push(e.vr.clone());
            } else if e.shard != me && owned_now {
                lvrm.set_vr_owned_by_name(&e.vr, false);
                released += 1;
            }
        }
        self.map = new_map;
        if gained.is_empty() {
            if released > 0 {
                self.registry.push_event(
                    now_ns,
                    format!("shard-map-adopted version={} released={released}", self.map.version),
                );
            }
            return;
        }
        let mut warm = 0usize;
        if let Some((dead, last_heard)) = takeover {
            // Shadow freshness: a shard streaming right up to its death
            // leaves a shadow at most `stream_interval + shard_down +
            // jitter` old by the time the deadline declares it dead — that
            // envelope (jitter generously rounded to 2 adverts) is the warm
            // bar. Anything staler predates the final life of the corpse
            // and is worse than a cold start with honest zero books.
            let warm_bar = self.cfg.stream_interval_ns
                + self.cfg.shard_down_ns()
                + 2 * self.cfg.advert_interval_ns;
            let fresh = self.peers[dead as usize]
                .shadow
                .take()
                .filter(|s| now_ns.saturating_sub(s.folded_ns) <= warm_bar);
            // Exactly one successor folds the dead shard's global stats —
            // the rendezvous primary for the shard's own key — so the
            // fleet-wide books count the corpse's frames exactly once.
            let survivors = self.alive_shards();
            let primary = rendezvous_owner(&format!("shard:{dead}"), &survivors) == Some(me);
            if let Some(shadow) = fresh {
                warm = lvrm.adopt_checkpoint(&shadow.ck, &gained, primary, now_ns, host);
            }
            self.m_takeovers.inc();
            self.m_rehome_ns.set(now_ns.saturating_sub(last_heard) as f64);
        }
        for vr in &gained {
            // Whatever the shadow did not cover (or everything, on a cold
            // adopt) comes up owned with empty books.
            lvrm.adopt_vr_cold(vr, now_ns, host);
        }
        self.registry.push_event(
            now_ns,
            format!(
                "shard-map-adopted version={} gained={} warm={warm} released={released}",
                self.map.version,
                gained.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Vec<(String, Ipv4Addr, u8)> {
        (1..=6u8).map(|i| (format!("dept{i}"), Ipv4Addr::new(10, 0, i, 0), 24)).collect()
    }

    #[test]
    fn skew_and_master_down_follow_rfc_5798() {
        let c = ClusterConfig { priority: 100, ..Default::default() };
        let advert = c.advert_interval_ns;
        assert_eq!(c.skew_ns(), (256 - 100) * advert / 256);
        assert_eq!(c.master_down_ns(), 3 * advert + c.skew_ns());
        // Higher priority → shorter skew → faster takeover.
        let skew = |priority| ClusterConfig { priority, ..Default::default() }.skew_ns();
        assert!(skew(200) < skew(50));
    }

    #[test]
    fn rendezvous_is_deterministic_and_total() {
        let shards = [0u32, 1, 2];
        for (vr, _, _) in universe() {
            let a = rendezvous_owner(&vr, &shards);
            let b = rendezvous_owner(&vr, &shards);
            assert_eq!(a, b);
            assert!(shards.contains(&a.unwrap()));
        }
        assert_eq!(rendezvous_owner("x", &[]), None);
        assert_eq!(rendezvous_owner("x", &[7]), Some(7));
    }

    #[test]
    fn partition_assigns_every_vr_exactly_once() {
        let map = ShardMap::partition(&universe(), &[0, 1, 2]);
        assert_eq!(map.version, 1);
        assert_eq!(map.entries.len(), 6);
        let total: usize = (0..3).map(|s| map.owned_by(s).len()).sum();
        assert_eq!(total, 6, "vrs_owned_total == vrs_declared at version 1");
    }

    #[test]
    fn rehoming_is_bounded_to_the_dead_shards_entries() {
        let map = ShardMap::partition(&universe(), &[0, 1, 2]);
        let dead = map.entries[0].shard;
        let survivors: Vec<u32> = [0, 1, 2].into_iter().filter(|&s| s != dead).collect();
        let after = map.rehomed(dead, &survivors);
        assert_eq!(after.version, map.version + 1);
        for (before, now) in map.entries.iter().zip(&after.entries) {
            if before.shard == dead {
                assert_eq!(now.shard, rendezvous_owner(&before.vr, &survivors).unwrap());
                assert_ne!(now.shard, dead);
            } else {
                assert_eq!(now.shard, before.shard, "surviving assignment moved: {}", now.vr);
            }
        }
        let total: usize = survivors.iter().map(|&s| after.owned_by(s).len()).sum();
        assert_eq!(total, 6, "fleet identity survives re-homing");
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
