//! Sharded monitor fleet: N-way VR-space partitioning with shard failover,
//! takeover, and bounded re-homing (DESIGN.md §15).
//!
//! One monitor scales to one box; ROADMAP item 1 asks for N monitor shards
//! that partition the VR space. The shard key already exists — ingress
//! classifies by source subnet to a VR — so the fleet layer only has to
//! decide *which shard owns which VR* and keep that decision unanimous
//! across failures. Three pieces:
//!
//! * **[`ShardMap`]** — the versioned ownership table, one entry per VR
//!   (name + classify subnet + owning shard), assigned by rendezvous
//!   hashing so any node can recompute the map from the membership alone.
//!   Wire format `LVSM`, CRC-trailed like `LVCK`/`LVCD`/`LVHA`/`LVSU`.
//! * **[`FleetNode`]** — the gossip-lite shard directory, ticked from the
//!   same lazy sub-tick that drives HA. Each shard's accepting node
//!   broadcasts adverts carrying `(term, shard_id, epoch, map_version)`;
//!   per-peer shard-down timers (base `6 × advert`, seeded ±25% jitter so
//!   detections do not stampede) declare a silent shard dead.
//! * **Takeover** — on shard death the dead shard's entries (and only
//!   those: re-homing is bounded) are re-assigned by rendezvous hash over
//!   the survivors. Each successor adopts its share through the §10/§13
//!   warm-restart path: from the dead shard's last streamed shadow
//!   checkpoint when one is fresh, else cold. The rendezvous-primary
//!   successor also folds the dead shard's checkpointed global counters —
//!   which already carry its in-flight frames in `crash_lost`/`queue_lost`
//!   — so all five conservation identities hold by construction on every
//!   survivor, and the sixth fleet identity
//!   `vrs_owned_total == vrs_declared` holds at every directory epoch.
//!
//! Inter-shard control (the takeover claim) is retried with the seeded
//! [`crate::fault::jittered_backoff`], doubling per attempt, until every
//! live peer acknowledges. **CAP stance** (mirroring §13's restart
//! semantics): a shard that loses directory quorum keeps serving the VRs
//! it already owns (availability for established state) but stops
//! accepting new VRs and never takes over a dead peer's — only a majority
//! side re-homes, so a healed partition converges on the majority's map.

use std::net::Ipv4Addr;

use lvrm_metrics::{Counter, Gauge, MetricsRegistry};

use crate::checkpoint::{open, seal, Checkpoint, CheckpointError, Dec, Enc, Version};
use crate::clock::Clock;
use crate::config::ShardConfig;
use crate::fault::{jittered_backoff, splitmix64};
use crate::ha::PeerLink;
use crate::host::VriHost;
use crate::monitor::Lvrm;

/// Leading magic of the shard-map / fleet-message wire format — disjoint
/// from `LVCK` (checkpoints), `LVCD` (HA deltas), `LVHA` (HA adverts) and
/// `LVSU` (state updates), so no fleet frame can be mistaken for any of
/// them.
pub const SHARD_MAP_MAGIC: [u8; 4] = *b"LVSM";
pub const SHARD_MAP_VERSION: u8 = 1;

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

    /// Encode as a standalone `LVSM` map frame ([`FleetMsg::Map`] with an
    /// anonymous sender).
    pub fn encode(&self) -> Vec<u8> {
        FleetMsg::Map { from: u32::MAX, map: self.clone() }.encode()
    }

    /// Decode a standalone `LVSM` map frame; any other fleet message kind
    /// is `Malformed`. Never panics.
    pub fn decode(buf: &[u8]) -> Result<ShardMap, CheckpointError> {
        match FleetMsg::decode(buf)? {
            FleetMsg::Map { map, .. } => Ok(map),
            _ => Err(CheckpointError::Malformed("not a shard-map frame")),
        }
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

/// One fleet-directory message. All little-endian, framed
/// `"LVSM" | version u8 | kind u8 | payload | crc32`, the same discipline
/// as every other wire format in the repo: length check, magic, CRC over
/// everything before the trailer, version, then an exact-consumption
/// check, so any one-byte corruption or truncation is rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetMsg {
    /// Shard heartbeat from the shard's accepting node.
    Advert { term: u64, shard_id: u32, epoch: u32, map_version: u32 },
    /// Full ownership-map gossip (after any reassignment, and as the
    /// reconciliation vehicle after partitions).
    Map { from: u32, map: ShardMap },
    /// Inter-shard state stream: the sender's full control-plane
    /// checkpoint, the shadow a successor warm-adopts from.
    Snapshot { shard_id: u32, seq: u64, bytes: Vec<u8> },
    /// Takeover claim: `from` observed `dead` miss its shard-down timer at
    /// directory epoch `epoch`. Retried with jittered exponential backoff
    /// until every live peer acks.
    Claim { dead: u32, epoch: u32, from: u32 },
    /// Acknowledgement of a [`FleetMsg::Claim`].
    ClaimAck { dead: u32, epoch: u32, from: u32 },
}

const KIND_ADVERT: u8 = 0;
const KIND_MAP: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_CLAIM: u8 = 3;
const KIND_CLAIM_ACK: u8 = 4;

impl FleetMsg {
    pub fn encode(&self) -> Vec<u8> {
        seal(SHARD_MAP_MAGIC, Version::U8(SHARD_MAP_VERSION), 64, |e| match self {
            FleetMsg::Advert { term, shard_id, epoch, map_version } => {
                e.u8(KIND_ADVERT);
                e.u64(*term);
                e.u32(*shard_id);
                e.u32(*epoch);
                e.u32(*map_version);
            }
            FleetMsg::Map { from, map } => {
                e.u8(KIND_MAP);
                e.u32(*from);
                map.enc_body(e);
            }
            FleetMsg::Snapshot { shard_id, seq, bytes } => {
                e.u8(KIND_SNAPSHOT);
                e.u32(*shard_id);
                e.u64(*seq);
                e.bytes(bytes);
            }
            FleetMsg::Claim { dead, epoch, from } => {
                e.u8(KIND_CLAIM);
                e.u32(*dead);
                e.u32(*epoch);
                e.u32(*from);
            }
            FleetMsg::ClaimAck { dead, epoch, from } => {
                e.u8(KIND_CLAIM_ACK);
                e.u32(*dead);
                e.u32(*epoch);
                e.u32(*from);
            }
        })
    }

    pub fn decode(buf: &[u8]) -> Result<FleetMsg, CheckpointError> {
        let mut d = open(buf, SHARD_MAP_MAGIC, Version::U8(SHARD_MAP_VERSION))?;
        let msg = match d.u8()? {
            KIND_ADVERT => FleetMsg::Advert {
                term: d.u64()?,
                shard_id: d.u32()?,
                epoch: d.u32()?,
                map_version: d.u32()?,
            },
            KIND_MAP => FleetMsg::Map { from: d.u32()?, map: ShardMap::dec_body(&mut d)? },
            KIND_SNAPSHOT => {
                FleetMsg::Snapshot { shard_id: d.u32()?, seq: d.u64()?, bytes: d.bytes()? }
            }
            KIND_CLAIM => FleetMsg::Claim { dead: d.u32()?, epoch: d.u32()?, from: d.u32()? },
            KIND_CLAIM_ACK => {
                FleetMsg::ClaimAck { dead: d.u32()?, epoch: d.u32()?, from: d.u32()? }
            }
            _ => return Err(CheckpointError::Malformed("unknown fleet message kind")),
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Directory state for one peer shard.
struct PeerState {
    shard: u32,
    alive: bool,
    /// Last advert heard (ns). Zero until the first advert.
    last_rx_ns: u64,
    /// Jittered shard-down deadline; re-armed on every advert.
    down_at_ns: u64,
    term: u64,
    map_version: u32,
    /// Freshest streamed checkpoint from this shard: `(seq, rx_ns, ck)`.
    shadow: Option<(u64, u64, Checkpoint)>,
}

/// An unacknowledged takeover claim, retried with jittered exponential
/// backoff (base = the advert interval, doubling per attempt, capped).
struct PendingClaim {
    dead: u32,
    epoch: u32,
    attempts: u32,
    next_tx_ns: u64,
    acked: Vec<u32>,
}

const CLAIM_MAX_ATTEMPTS: u32 = 6;

/// The fleet directory attached to one monitor (`Lvrm::attach_fleet`),
/// ticked from the lazy sub-tick right after HA. Owns the peer links, the
/// current [`ShardMap`], death detection, and the takeover protocol.
pub struct FleetNode {
    cfg: ShardConfig,
    /// `(peer shard id, link)` — more than one link per peer shard is fine
    /// (both nodes of an HA pair); duplicate deliveries are idempotent.
    links: Vec<(u32, Box<dyn PeerLink>)>,
    map: ShardMap,
    peers: Vec<PeerState>,
    /// Directory epoch: bumps on every membership change (death, rejoin).
    epoch: u32,
    started: bool,
    last_advert_tx_ns: u64,
    last_snapshot_tx_ns: u64,
    snapshot_seq: u64,
    pending_claims: Vec<PendingClaim>,
    /// Nonce feeding [`jittered_backoff`] so successive timers de-correlate.
    backoff_nonce: u64,
    quorum_ok: bool,
    m_owned: Gauge,
    m_takeovers: Counter,
    m_rehome_ns: Gauge,
    m_epoch: Gauge,
    m_quorum: Gauge,
    m_rejected: Counter,
    registry: MetricsRegistry,
    recv_scratch: Vec<Vec<u8>>,
}

impl FleetNode {
    pub(crate) fn new(
        cfg: ShardConfig,
        map: ShardMap,
        links: Vec<(u32, Box<dyn PeerLink>)>,
        registry: &MetricsRegistry,
    ) -> FleetNode {
        let peers = (0..cfg.shards)
            .filter(|&s| s != cfg.shard_id)
            .map(|shard| PeerState {
                shard,
                alive: true,
                last_rx_ns: 0,
                down_at_ns: 0,
                term: 0,
                map_version: 0,
                shadow: None,
            })
            .collect();
        FleetNode {
            cfg,
            links,
            map,
            peers,
            epoch: 1,
            started: false,
            last_advert_tx_ns: 0,
            last_snapshot_tx_ns: 0,
            snapshot_seq: 0,
            pending_claims: Vec::new(),
            backoff_nonce: 0,
            quorum_ok: true,
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
                "lvrm_shard_rejected_total",
                "Fleet messages rejected at decode (corrupt, truncated, or unknown).",
                &[],
            ),
            registry: registry.clone(),
            recv_scratch: Vec::new(),
        }
    }

    /// This shard's id.
    pub fn shard_id(&self) -> u32 {
        self.cfg.shard_id
    }

    /// The current ownership map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The current directory epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether this shard still reaches a directory majority. While false
    /// the shard serves what it owns but registers no new VRs and never
    /// takes over (the documented CAP stance).
    pub fn accepting_new_vrs(&self) -> bool {
        self.quorum_ok
    }

    /// Shard ids currently believed alive, self included, ascending.
    pub fn alive_shards(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .peers
            .iter()
            .filter(|p| p.alive)
            .map(|p| p.shard)
            .chain(std::iter::once(self.cfg.shard_id))
            .collect();
        out.sort_unstable();
        out
    }

    /// One directory tick. Rides the monitor's lazy sub-tick (the same
    /// hook HA uses), so it runs on every `maybe_reallocate` call ahead of
    /// the 1 s reallocation gate.
    pub fn tick<C: Clock>(&mut self, now_ns: u64, lvrm: &mut Lvrm<C>, host: &mut dyn VriHost) {
        if !self.started {
            self.started = true;
            for i in 0..self.peers.len() {
                self.peers[i].down_at_ns = now_ns + self.down_interval(self.peers[i].shard);
            }
        }

        // Drain every peer link first: adverts heard this tick must re-arm
        // their timers before the death scan below.
        let mut scratch = std::mem::take(&mut self.recv_scratch);
        for i in 0..self.links.len() {
            scratch.clear();
            self.links[i].1.recv(now_ns, &mut scratch);
            for buf in scratch.drain(..) {
                match FleetMsg::decode(&buf) {
                    Ok(msg) => self.on_msg(now_ns, msg, lvrm, host),
                    Err(_) => self.m_rejected.inc(),
                }
            }
        }
        self.recv_scratch = scratch;

        // Only the shard's accepting node speaks: in an HA pair the backup
        // tracks the directory silently and takes over the microphone the
        // moment it is promoted.
        let speaking = lvrm.ha_role().is_none_or(|r| r == crate::ha::Role::Master);
        if speaking {
            if self.last_advert_tx_ns == 0
                || now_ns.saturating_sub(self.last_advert_tx_ns) >= self.cfg.advert_interval_ns
            {
                // max(1): simulated clocks start at 0, which doubles as the
                // never-sent sentinel.
                self.last_advert_tx_ns = now_ns.max(1);
                let term = lvrm.ha().map_or(0, |h| h.term());
                self.broadcast(
                    now_ns,
                    &FleetMsg::Advert {
                        term,
                        shard_id: self.cfg.shard_id,
                        epoch: self.epoch,
                        map_version: self.map.version,
                    },
                );
            }
            if now_ns.saturating_sub(self.last_snapshot_tx_ns) >= self.cfg.snapshot_interval_ns {
                self.last_snapshot_tx_ns = now_ns;
                self.snapshot_seq += 1;
                let ck = lvrm.build_checkpoint(now_ns);
                self.broadcast(
                    now_ns,
                    &FleetMsg::Snapshot {
                        shard_id: self.cfg.shard_id,
                        seq: self.snapshot_seq,
                        bytes: ck.encode(),
                    },
                );
            }
            self.retry_claims(now_ns);
        }

        // Death scan: a peer silent past its jittered deadline leaves the
        // directory. Skipped entirely without quorum — a minority must not
        // declare the majority dead and absorb the fleet.
        if self.quorum_ok {
            for i in 0..self.peers.len() {
                if self.peers[i].alive
                    && self.peers[i].last_rx_ns > 0
                    && now_ns >= self.peers[i].down_at_ns
                {
                    let dead = self.peers[i].shard;
                    self.on_shard_dead(now_ns, dead, lvrm, host);
                }
            }
        }

        let alive = self.alive_shards().len() as u32;
        self.quorum_ok = alive >= self.cfg.quorum();
        self.m_quorum.set(if self.quorum_ok { 1.0 } else { 0.0 });
        self.m_epoch.set(self.epoch as f64);
        self.m_owned.set(lvrm.owned_vrs() as f64);
    }

    fn down_interval(&mut self, peer: u32) -> u64 {
        self.backoff_nonce += 1;
        // Base 6 × advert, ±25% seeded jitter keyed by (self, peer, nonce).
        self.cfg.shard_down_ns()
            + jittered_backoff(
                self.cfg.advert_interval_ns,
                (self.cfg.shard_id as u64) << 32 | peer as u64,
                self.backoff_nonce,
            )
    }

    fn broadcast(&mut self, now_ns: u64, msg: &FleetMsg) {
        let wire = msg.encode();
        for (_, link) in &mut self.links {
            link.send(now_ns, &wire);
        }
    }

    fn on_msg<C: Clock>(
        &mut self,
        now_ns: u64,
        msg: FleetMsg,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        match msg {
            FleetMsg::Advert { term, shard_id, epoch, map_version } => {
                let interval = self.down_interval(shard_id);
                let Some(p) = self.peers.iter_mut().find(|p| p.shard == shard_id) else {
                    return;
                };
                let rejoined = !p.alive;
                p.alive = true;
                p.last_rx_ns = now_ns;
                p.down_at_ns = now_ns + interval;
                p.term = term;
                p.map_version = map_version;
                if rejoined {
                    // A shard we buried is speaking again (healed partition
                    // or restart). Re-admit it and hand its original VRs
                    // back: rendezvous over the full alive set reproduces
                    // the pre-death assignment for everything else, so the
                    // move set is again just the rejoiner's share.
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
                    self.registry.push_event(
                        now_ns,
                        format!("shard-rejoined shard={shard_id} epoch={}", self.epoch),
                    );
                    self.adopt_map(now_ns, rebased, None, lvrm, host);
                    let map = self.map.clone();
                    self.broadcast(now_ns, &FleetMsg::Map { from: self.cfg.shard_id, map });
                }
            }
            FleetMsg::Map { from, map } => {
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
            FleetMsg::Snapshot { shard_id, seq, bytes } => {
                let Ok(ck) = Checkpoint::decode(&bytes) else {
                    self.m_rejected.inc();
                    return;
                };
                if let Some(p) = self.peers.iter_mut().find(|p| p.shard == shard_id) {
                    if p.shadow.as_ref().is_none_or(|(s, _, _)| seq > *s) {
                        p.shadow = Some((seq, now_ns, ck));
                    }
                }
            }
            FleetMsg::Claim { dead, epoch, from } => {
                self.broadcast(
                    now_ns,
                    &FleetMsg::ClaimAck { dead, epoch, from: self.cfg.shard_id },
                );
                let _ = from;
                let still_alive = self.peers.iter().any(|p| p.shard == dead && p.alive);
                if still_alive && self.quorum_ok {
                    // Learn of the death secondhand: converge on the same
                    // deterministic re-homing the detector computed.
                    self.on_shard_dead(now_ns, dead, lvrm, host);
                }
            }
            FleetMsg::ClaimAck { dead, epoch: _, from } => {
                if let Some(c) = self.pending_claims.iter_mut().find(|c| c.dead == dead) {
                    if !c.acked.contains(&from) {
                        c.acked.push(from);
                    }
                }
                let alive: Vec<u32> =
                    self.peers.iter().filter(|p| p.alive).map(|p| p.shard).collect();
                self.pending_claims.retain(|c| !alive.iter().all(|s| c.acked.contains(s)));
            }
        }
    }

    /// Resend unacknowledged claims whose backoff expired, doubling the
    /// delay each attempt (seeded jitter, capped attempts).
    fn retry_claims(&mut self, now_ns: u64) {
        let shard_id = self.cfg.shard_id;
        let advert = self.cfg.advert_interval_ns;
        let mut due: Vec<FleetMsg> = Vec::new();
        self.backoff_nonce += 1;
        let nonce = self.backoff_nonce;
        for c in &mut self.pending_claims {
            if now_ns >= c.next_tx_ns && c.attempts < CLAIM_MAX_ATTEMPTS {
                c.attempts += 1;
                let base = advert << c.attempts.min(5);
                c.next_tx_ns =
                    now_ns + jittered_backoff(base, shard_id as u64, nonce ^ c.dead as u64);
                due.push(FleetMsg::Claim { dead: c.dead, epoch: c.epoch, from: shard_id });
            }
        }
        self.pending_claims.retain(|c| c.attempts < CLAIM_MAX_ATTEMPTS);
        for msg in due {
            self.broadcast(now_ns, &msg);
        }
    }

    /// A peer shard missed its deadline (or a claim told us so): bury it,
    /// bump the epoch, re-home its VRs over the survivors, adopt our
    /// share, and gossip both the claim and the new map.
    fn on_shard_dead<C: Clock>(
        &mut self,
        now_ns: u64,
        dead: u32,
        lvrm: &mut Lvrm<C>,
        host: &mut dyn VriHost,
    ) {
        let Some(p) = self.peers.iter_mut().find(|p| p.shard == dead && p.alive) else {
            return;
        };
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
        self.pending_claims.push(PendingClaim {
            dead,
            epoch: self.epoch,
            attempts: 0,
            next_tx_ns: now_ns,
            acked: Vec::new(),
        });
        self.broadcast(
            now_ns,
            &FleetMsg::Claim { dead, epoch: self.epoch, from: self.cfg.shard_id },
        );
        self.adopt_map(now_ns, new_map, Some((dead, last_heard)), lvrm, host);
        let map = self.map.clone();
        self.broadcast(now_ns, &FleetMsg::Map { from: self.cfg.shard_id, map });
    }

    /// Swap in a new ownership map and reconcile the monitor: release VRs
    /// assigned away, adopt VRs assigned here. When the reassignment is a
    /// takeover (`takeover = Some((dead, last_heard))`), adoption goes
    /// through the warm-restart path: the dead shard's shadow checkpoint
    /// if it is fresh, else a cold adopt; the rendezvous-primary successor
    /// folds the dead shard's global counters so the conservation
    /// identities carry over instead of vanishing with the corpse.
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
            // leaves a shadow at most `snapshot_interval + shard_down +
            // jitter` old by the time the deadline declares it dead — that
            // envelope (jitter generously rounded to 2 adverts) is the warm
            // bar. Anything staler predates the final life of the corpse
            // and is worse than a cold start with honest zero books.
            let warm_bar = self.cfg.snapshot_interval_ns
                + self.cfg.shard_down_ns()
                + 2 * self.cfg.advert_interval_ns;
            let fresh = self
                .peers
                .iter()
                .find(|p| p.shard == dead)
                .and_then(|p| p.shadow.as_ref())
                .filter(|(_, rx, _)| now_ns.saturating_sub(*rx) <= warm_bar)
                .map(|(_, _, ck)| ck.clone());
            // Exactly one successor folds the dead shard's global stats —
            // the rendezvous primary for the shard's own key — so the
            // fleet-wide books count the corpse's frames exactly once.
            let survivors = self.alive_shards();
            let primary = rendezvous_owner(&format!("shard:{dead}"), &survivors) == Some(me);
            if let Some(ck) = fresh {
                warm = lvrm.adopt_checkpoint(&ck, &gained, primary, now_ns, host);
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
    fn shard_map_codec_roundtrip_and_rejection() {
        let map = ShardMap::partition(&universe(), &[0, 1, 2]);
        let wire = map.encode();
        assert_eq!(&wire[..4], b"LVSM");
        assert_eq!(ShardMap::decode(&wire).unwrap(), map);
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(ShardMap::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
        for len in 0..wire.len() {
            assert!(ShardMap::decode(&wire[..len]).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn fleet_msg_kinds_roundtrip() {
        let map = ShardMap::partition(&universe(), &[0, 1]);
        let msgs = [
            FleetMsg::Advert { term: 3, shard_id: 1, epoch: 9, map_version: 4 },
            FleetMsg::Map { from: 0, map },
            FleetMsg::Snapshot { shard_id: 2, seq: 11, bytes: vec![1, 2, 3, 4, 5] },
            FleetMsg::Claim { dead: 1, epoch: 7, from: 2 },
            FleetMsg::ClaimAck { dead: 1, epoch: 7, from: 0 },
        ];
        for m in msgs {
            let wire = m.encode();
            assert_eq!(FleetMsg::decode(&wire).unwrap(), m, "roundtrip {m:?}");
        }
        assert!(FleetMsg::decode(b"LVSM").is_err());
        assert!(
            ShardMap::decode(&FleetMsg::Claim { dead: 0, epoch: 1, from: 1 }.encode()).is_err(),
            "a claim is not a map"
        );
    }
}
