//! The monitor's books: one counter schema and the six conservation
//! identities, stated here and nowhere else (DESIGN.md §9).
//!
//! Every frame passes the monitor twice — in through the socket adapter,
//! out through a VRI's queue pair (§2.1) — so where a frame went is
//! answerable from the monitor's counters alone. Two things live here:
//!
//! * **The schema.** Each aggregate counter is named once in the
//!   `counter_schema!` table below: field, Prometheus name, help text,
//!   which side of the books it sits on; its position is its place on the
//!   `LVCK`/`LVCD` wire. [`LvrmStats`], the live registry handles
//!   (`StatCounters`: register, read, store-all for a restart, add-all for a
//!   takeover), the wire order and the delta stream's wrapping diff/fold are
//!   all generated from it. A new counter is one line there plus its
//!   increment site.
//! * **The [`Ledger`].** The stats plus the per-VR admission books and the
//!   per-VRI dispatch sums, with [`Ledger::check`] stating the identities:
//!
//! ```text
//! (A) per VR:      frames_in == admitted + shed
//! (B) global:      frames_in == frames_out + loss side + queued + unreturned
//! (C) per VRI:     Σ dispatched == Σ returned + reclaimed + queue_lost
//!                                  + queued + unreturned
//! (D) drops:       dispatch_drops == Σ per-VRI dispatch_drops
//! (E) replication: updates_emitted == updates_folded + updates_lost
//! (F) fleet:       every declared VR has exactly one owner
//! ```
//!
//! `queued` is what sits in the data and egress queues; the sums in (C) and
//! (D) run over live, draining and retired instances and the VLink fabric's
//! `vri="ring"` series. `unreturned` is the one residual, defined by (C):
//! frames a VRI took and has not handed back. A VR may consume a frame
//! (`RouterAction::Drop`, Click `Discard`, no route), and on real threads a
//! frame being processed is in neither queue, so the residual is legitimate
//! — but it can never be negative, and (B) must balance with the *same*
//! residual, so a lost increment on either side still shows. (A), (D) and
//! (E) are exact at every instant. Suites whose VRs forward everything on an
//! inline host additionally assert [`Ledger::check_settled`].
//!
//! A ledger is built two ways that must agree: [`crate::Lvrm::ledger`] from
//! live state and [`Ledger::from_snapshot`] from a scrape.

use std::collections::BTreeMap;
use std::fmt;

use lvrm_metrics::{Counter, MetricsRegistry, MetricsSnapshot};

/// (name, help) of the per-VR, per-VRI and queue-depth families
/// [`Ledger::from_snapshot`] reads back; the monitor publishes under the
/// same constants.
pub(crate) const M_VR_FRAMES_IN: (&str, &str) =
    ("lvrm_vr_frames_in_total", "Frames classified to the VR.");
pub(crate) const M_VR_ADMITTED: (&str, &str) =
    ("lvrm_vr_admitted_total", "Frames admitted past ingress classification.");
pub(crate) const M_VR_SHED: (&str, &str) =
    ("lvrm_vr_shed_total", "Frames shed at ingress classification (over admission quota).");
pub(crate) const M_VR_OWNED: (&str, &str) =
    ("lvrm_vr_owned", "1 while this shard serves the VR, else 0 (cluster members only).");
pub(crate) const M_VRI_DISPATCHED: (&str, &str) =
    ("lvrm_vri_dispatched_total", "Frames accepted into the VRI's incoming data queue.");
pub(crate) const M_VRI_RETURNED: (&str, &str) =
    ("lvrm_vri_returned_total", "Frames collected from the VRI's outgoing data queue.");
pub(crate) const M_VRI_DROPS: (&str, &str) =
    ("lvrm_vri_dispatch_drops_total", "Frames discarded after this VRI refused them.");
pub(crate) const M_VRI_QUEUE_LEN: (&str, &str) =
    ("lvrm_vri_queue_len", "Instantaneous incoming data-queue depth.");
pub(crate) const M_DATA_QUEUED: (&str, &str) =
    ("lvrm_data_queued", "Frames queued toward VRIs (all incoming data queues).");
pub(crate) const M_EGRESS_QUEUED: (&str, &str) =
    ("lvrm_egress_queued", "Forwarded frames not yet collected (all outgoing data queues).");

/// A struct of registry handles and the `register` that looks them all up
/// under one label set, from one table of `field: kind = (name, help)`. A
/// publisher that keeps the struct stores through it at every scrape without
/// taking the registry's lock or naming a family again.
macro_rules! series {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($field:ident: $kind:ident = $metric:expr,)*
    }) => {
        $(#[$meta])*
        $vis struct $name { $($field: series!(@handle $kind),)* }

        impl $name {
            $vis fn register(
                reg: &lvrm_metrics::MetricsRegistry,
                labels: &[(&str, &str)],
            ) -> $name {
                $name { $($field: reg.$kind($metric.0, $metric.1, labels),)* }
            }
        }
    };
    (@handle counter) => { lvrm_metrics::Counter };
    (@handle gauge) => { lvrm_metrics::Gauge };
    (@handle summary) => { lvrm_metrics::SharedHistogram };
}
pub(crate) use series;

/// Which side of identity (B) a counter sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Bookkeeping: arrivals, departures, supervision and folded per-VRI
    /// totals. Not a way for a frame to end.
    Book,
    /// Ends a frame's life inside the monitor: a term of (B)'s loss side.
    Loss,
}

/// One row of the schema, for code that walks the counters by name.
#[derive(Clone, Copy, Debug)]
pub struct CounterDef {
    /// The [`LvrmStats`] field.
    pub field: &'static str,
    /// The Prometheus family.
    pub name: &'static str,
    pub side: Side,
}

macro_rules! counter_schema {
    ($( $(#[$doc:meta])* $field:ident: $side:ident, $name:literal, $help:literal; )*) => {
        /// Aggregate counters across the monitor.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct LvrmStats {
            $( $(#[$doc])* pub $field: u64, )*
        }

        /// The schema rows, in wire order.
        pub static SCHEMA: [CounterDef; COUNTERS] = [
            $( CounterDef { field: stringify!($field), name: $name, side: Side::$side }, )*
        ];

        /// Number of counters in the schema (and `u64`s in the wire vector).
        pub const COUNTERS: usize = [$( stringify!($field) ),*].len();

        impl LvrmStats {
            /// The counters in wire order.
            pub fn to_wire(&self) -> [u64; COUNTERS] {
                [$( self.$field ),*]
            }

            /// Inverse of [`LvrmStats::to_wire`].
            pub fn from_wire(wire: [u64; COUNTERS]) -> LvrmStats {
                let [$( $field ),*] = wire;
                LvrmStats { $( $field ),* }
            }
        }

        /// The monitor's aggregate counters, held as shared registry handles
        /// so every increment is immediately visible to concurrent scrapes.
        pub(crate) struct StatCounters {
            $( pub(crate) $field: Counter, )*
        }

        impl StatCounters {
            pub(crate) fn register(reg: &MetricsRegistry) -> StatCounters {
                StatCounters { $( $field: reg.counter($name, $help, &[]), )* }
            }

            pub(crate) fn read(&self) -> LvrmStats {
                LvrmStats { $( $field: self.$field.get(), )* }
            }

            /// A restart: the monitor's books *are* `s`.
            pub(crate) fn store(&self, s: &LvrmStats) {
                $( self.$field.store(s.$field); )*
            }

            /// A takeover: `s` joins the monitor's own history. Every
            /// identity is linear in the counters, so the sum of two states
            /// that satisfy them satisfies them too.
            pub(crate) fn add(&self, s: &LvrmStats) {
                $( self.$field.add(s.$field); )*
            }
        }
    };
}

counter_schema! {
    /// Frames accepted by `ingress`.
    frames_in: Book, "lvrm_frames_in_total", "Frames accepted by ingress.";
    /// Frames collected from VRIs by `poll_egress`.
    frames_out: Book, "lvrm_frames_out_total",
        "Frames collected by poll_egress (including rescued egress).";
    /// Frames whose source matched no VR subnet.
    unclassified: Loss, "lvrm_unclassified_total", "Frames whose source matched no VR subnet.";
    /// Frames discarded because the chosen VRI's queue was full. Each
    /// discard is recorded once in the refusing adapter (`note_discarded`)
    /// and once here — identity (D) — and never for a frame that was refused
    /// but then retried elsewhere.
    dispatch_drops: Loss, "lvrm_dispatch_drops_total",
        "Frames discarded because the chosen VRI's queue was full.";
    /// Frames dropped because the VR had no usable VRI.
    no_vri_drops: Loss, "lvrm_no_vri_drops_total",
        "Frames dropped because the VR had no usable VRI.";
    /// Frames abandoned in a killed VRI's queues.
    shrink_lost: Loss, "lvrm_shrink_lost_total", "Frames lost to voluntary VRI retirement.";
    /// Control events relayed between VRIs.
    control_relayed: Book, "lvrm_control_relayed_total", "Control events relayed between VRIs.";
    /// Control events dropped (unknown destination or full queue).
    control_drops: Book, "lvrm_control_drops_total",
        "Control events dropped (unknown destination or full queue).";
    /// Frames reclaimed from dead VRIs' queues and re-balanced to survivors.
    redispatched: Book, "lvrm_redispatched_total",
        "Reclaimed frames re-balanced to surviving VRIs.";
    /// Frames lost in a dead VRI's queues because the host could not hand
    /// the endpoint back for draining.
    crash_lost: Loss, "lvrm_crash_lost_total", "Frames lost in dead VRIs' queues.";
    /// Frames dropped because their VR was quarantined with no live VRI.
    quarantined_drops: Loss, "lvrm_quarantined_drops_total",
        "Frames dropped because their VR was quarantined with no live VRI.";
    /// VRIs the supervisor declared dead.
    vri_deaths: Book, "lvrm_vri_deaths_total", "VRIs declared dead by the supervisor.";
    /// VRIs the supervisor respawned.
    respawns: Book, "lvrm_respawns_total", "VRIs respawned by the supervisor.";
    /// `dispatch_drops` carried by adapters since retired (shrunk or
    /// reaped), so identity (D) holds across kills.
    retired_dispatch_drops: Book, "lvrm_retired_dispatch_drops_total",
        "Dispatch drops carried by adapters since retired.";
    /// Frames shed at ingress-classification time: over an overloaded VR's
    /// weighted admission quota (overload shedding on), classified to a VR
    /// another shard owns, or arriving after shutdown quiesced ingress.
    shed_early: Loss, "lvrm_shed_early_total",
        "Frames shed at ingress classification (overload quota or shutdown).";
    /// Frames drained back out of departed VRIs' incoming queues (crash reap
    /// or shrink retirement) before re-homing.
    reclaimed: Book, "lvrm_reclaimed_total",
        "Frames drained back from departed VRIs' incoming queues.";
    /// Frames unrecoverable from departed VRIs' incoming queues: all of
    /// `crash_lost` plus the queued component of `shrink_lost` (re-home
    /// refusals are excluded). With `reclaimed` this closes identity (C).
    queue_lost: Book, "lvrm_queue_lost_total",
        "Frames unrecoverable from departed VRIs' incoming queues.";
    /// `dispatched` folded from since-retired adapters, so live sums plus
    /// this equal the all-time per-VRI totals.
    retired_dispatched: Book, "lvrm_retired_dispatched_total",
        "Dispatched counters folded from retired adapters.";
    /// `returned` folded from since-retired adapters.
    retired_returned: Book, "lvrm_retired_returned_total",
        "Returned counters folded from retired adapters.";
    /// State-update records accepted for replica fan-out: when the sub-tick
    /// decodes an `LVSU` batch of `k` records from a VRI with `m` live
    /// sibling replicas, this grows by `k × m` — one expected fold per
    /// record per sibling, which is what makes identity (E) hold by
    /// construction.
    updates_emitted: Book, "lvrm_repl_updates_emitted_total",
        "State-update records accepted for replica fan-out (records × siblings).";
    /// State-update records relayed onto a sibling replica's control queue
    /// (the sibling folds them into its local books).
    updates_folded: Book, "lvrm_repl_updates_folded_total",
        "State-update records relayed onto sibling replicas' control queues.";
    /// State-update records a sibling's full control queue refused — that
    /// replica will reconverge from later updates, but these records are
    /// gone and identity (E) charges them here.
    updates_lost: Book, "lvrm_repl_updates_lost_total",
        "State-update records refused by a sibling's full control queue.";
}

impl LvrmStats {
    /// The loss side of identity (B), term by term: every counter that ends
    /// a frame's life inside the monitor.
    pub fn loss_side(&self) -> impl Iterator<Item = (&'static str, u64)> {
        SCHEMA
            .iter()
            .zip(self.to_wire())
            .filter(|(def, _)| def.side == Side::Loss)
            .map(|(def, v)| (def.field, v))
    }

    /// Σ of the loss side.
    pub fn loss(&self) -> u64 {
        self.loss_side().fold(0, |sum, (_, v)| sum.wrapping_add(v))
    }

    /// Per-counter wrapping increments from `prev` to `self`, in wire order
    /// (the `LVCD` stream's stats vector).
    pub fn wrapping_delta(&self, prev: &LvrmStats) -> [u64; COUNTERS] {
        let (next, prev) = (self.to_wire(), prev.to_wire());
        std::array::from_fn(|i| next[i].wrapping_sub(prev[i]))
    }

    /// `self` advanced by the increments of [`LvrmStats::wrapping_delta`].
    pub fn wrapping_fold(&self, delta: &[u64; COUNTERS]) -> LvrmStats {
        let base = self.to_wire();
        LvrmStats::from_wire(std::array::from_fn(|i| base[i].wrapping_add(delta[i])))
    }
}

/// One VR's admission books.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VrBooks {
    pub name: String,
    pub frames_in: u64,
    pub admitted: u64,
    pub shed: u64,
    /// Whether this monitor serves the VR (always true outside a fleet).
    pub owned: bool,
}

/// The per-VRI dispatch books, summed over live, draining and retired
/// instances and the `vri="ring"` series, plus what sits in the queues.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VriBooks {
    pub dispatched: u64,
    pub returned: u64,
    pub dispatch_drops: u64,
    /// Frames queued toward VRIs (incoming data queues and shared rings).
    pub data_queued: u64,
    /// Forwarded frames not yet collected (outgoing data queues).
    pub egress_queued: u64,
}

impl VriBooks {
    /// Frames sitting in the data and egress queues. Wrapping like every sum
    /// on the ledger: its counters wrap by design, and books read from a
    /// snapshot must fail an identity on hostile numbers, not overflow.
    pub fn queued(&self) -> u64 {
        self.data_queued.wrapping_add(self.egress_queued)
    }
}

/// A broken identity, with the numbers that broke it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// (A) a VR's arrivals are not its admissions plus its sheds.
    Admission { vr: String, frames_in: u64, admitted: u64, shed: u64 },
    /// (B) the global books do not balance with what (C) says is in
    /// flight (queued plus unreturned).
    Global { frames_in: u64, frames_out: u64, loss: u64, in_flight: u64 },
    /// (C) more frames came back, were reclaimed, were lost or sit queued
    /// than were ever dispatched.
    Dispatch { dispatched: u64, accounted: u64 },
    /// (D) the aggregate drop counter and the per-VRI drop sum differ.
    Drops { aggregate: u64, per_vri: u64 },
    /// (E) state updates emitted are not folded plus lost.
    Replication { emitted: u64, folded: u64, lost: u64 },
    /// (F) a declared VR has no owner, or more than one.
    Ownership { vr: String, owners: usize },
    /// Not an identity: a settled, all-forwarding monitor still holds frames.
    Unsettled { queued: u64, unreturned: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Admission { vr, frames_in, admitted, shed } => write!(
                f,
                "(A) admission: vr {vr} frames_in {frames_in} != admitted {admitted} + shed {shed}"
            ),
            Violation::Global { frames_in, frames_out, loss, in_flight } => write!(
                f,
                "(B) global: frames_in {frames_in} != frames_out {frames_out} + loss {loss} \
                 + in flight {in_flight}"
            ),
            Violation::Dispatch { dispatched, accounted } => write!(
                f,
                "(C) dispatch: dispatched {dispatched} < returned + reclaimed + queue_lost \
                 + queued {accounted}"
            ),
            Violation::Drops { aggregate, per_vri } => {
                write!(f, "(D) drops: dispatch_drops {aggregate} != per-VRI sum {per_vri}")
            }
            Violation::Replication { emitted, folded, lost } => write!(
                f,
                "(E) replication: updates_emitted {emitted} != folded {folded} + lost {lost}"
            ),
            Violation::Ownership { vr, owners } => {
                write!(f, "(F) fleet: vr {vr} has {owners} owners")
            }
            Violation::Unsettled { queued, unreturned } => {
                write!(f, "unsettled: {queued} queued, {unreturned} unreturned")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// The monitor's books at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    pub stats: LvrmStats,
    /// Per-VR admission books, sorted by name.
    pub vrs: Vec<VrBooks>,
    pub vris: VriBooks,
}

impl Ledger {
    /// Read the books back out of a scrape. The registry starts empty with
    /// the process, so after a restore or a takeover — where `retired_*`
    /// resume from the checkpoint but the predecessor's per-VRI series do
    /// not exist — only [`crate::Lvrm::ledger`] carries the baseline.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Ledger {
        let gauge = |name: &str| snap.gauge(name, &[]).unwrap_or(0.0).round() as u64;
        let stats =
            LvrmStats::from_wire(SCHEMA.map(|def| snap.counter(def.name, &[]).unwrap_or(0)));
        let mut vrs: Vec<VrBooks> = snap
            .family(M_VR_FRAMES_IN.0)
            .into_iter()
            .flat_map(|fam| &fam.series)
            .map(|series| {
                let name = series.label("vr").unwrap_or_default();
                let of = |family: &str| snap.counter(family, &[("vr", name)]).unwrap_or(0);
                VrBooks {
                    name: name.to_string(),
                    frames_in: series.as_counter().unwrap_or(0),
                    admitted: of(M_VR_ADMITTED.0),
                    shed: of(M_VR_SHED.0),
                    // Registered by cluster members only: without it, every
                    // VR is owned.
                    owned: snap.gauge(M_VR_OWNED.0, &[("vr", name)]).is_none_or(|g| g > 0.0),
                }
            })
            .collect();
        vrs.sort_by(|a, b| a.name.cmp(&b.name));
        let vris = VriBooks {
            dispatched: snap.counter_sum(M_VRI_DISPATCHED.0),
            returned: snap.counter_sum(M_VRI_RETURNED.0),
            dispatch_drops: snap.counter_sum(M_VRI_DROPS.0),
            data_queued: gauge(M_DATA_QUEUED.0),
            egress_queued: gauge(M_EGRESS_QUEUED.0),
        };
        Ledger { stats, vrs, vris }
    }

    /// Frames sitting in the data and egress queues.
    pub fn queued(&self) -> u64 {
        self.vris.queued()
    }

    /// Everything (C) sets against the dispatched frames, short of the
    /// residual: returned, reclaimed, lost in a queue, or still queued.
    fn accounted(&self) -> u64 {
        let (s, v) = (&self.stats, &self.vris);
        v.returned.wrapping_add(s.reclaimed).wrapping_add(s.queue_lost).wrapping_add(self.queued())
    }

    /// (C)'s residual, signed: negative means more frames are accounted for
    /// than were ever dispatched.
    fn residual(&self) -> i64 {
        self.vris.dispatched.wrapping_sub(self.accounted()) as i64
    }

    /// The residual of (B) and (C): frames a VRI took and has not handed
    /// back — consumed by the VR, or being processed on another thread.
    /// Zero when (C) is violated.
    pub fn unreturned(&self) -> u64 {
        self.residual().max(0) as u64
    }

    /// Identities (A)–(E) on this monitor's books. Arithmetic wraps, like
    /// the counters and the delta stream: hostile numbers fail an identity,
    /// they do not overflow the checker.
    pub fn check(&self) -> Result<(), Violation> {
        let (s, v) = (&self.stats, &self.vris);
        for vr in &self.vrs {
            if vr.frames_in != vr.admitted.wrapping_add(vr.shed) {
                return Err(Violation::Admission {
                    vr: vr.name.clone(),
                    frames_in: vr.frames_in,
                    admitted: vr.admitted,
                    shed: vr.shed,
                });
            }
        }
        if s.dispatch_drops != v.dispatch_drops {
            return Err(Violation::Drops {
                aggregate: s.dispatch_drops,
                per_vri: v.dispatch_drops,
            });
        }
        if s.updates_emitted != s.updates_folded.wrapping_add(s.updates_lost) {
            return Err(Violation::Replication {
                emitted: s.updates_emitted,
                folded: s.updates_folded,
                lost: s.updates_lost,
            });
        }
        let unreturned = u64::try_from(self.residual()).map_err(|_| Violation::Dispatch {
            dispatched: v.dispatched,
            accounted: self.accounted(),
        })?;
        let in_flight = self.queued().wrapping_add(unreturned);
        if s.frames_in != s.frames_out.wrapping_add(s.loss()).wrapping_add(in_flight) {
            return Err(Violation::Global {
                frames_in: s.frames_in,
                frames_out: s.frames_out,
                loss: s.loss(),
                in_flight,
            });
        }
        Ok(())
    }

    /// [`Ledger::check`], and nothing queued or unreturned: what a drained
    /// monitor whose VRs forward every frame must satisfy.
    pub fn check_settled(&self) -> Result<(), Violation> {
        self.check()?;
        match (self.queued(), self.unreturned()) {
            (0, 0) => Ok(()),
            (queued, unreturned) => Err(Violation::Unsettled { queued, unreturned }),
        }
    }

    /// Identity (F) over a fleet's ledgers: every VR any member declares is
    /// owned by exactly one of them. A doubly-owned VR is reported before an
    /// unowned one — the latter is legal mid-takeover, the former never.
    pub fn check_fleet<'a>(shards: impl IntoIterator<Item = &'a Ledger>) -> Result<(), Violation> {
        let mut owners: BTreeMap<&str, usize> = BTreeMap::new();
        for vr in shards.into_iter().flat_map(|l| &l.vrs) {
            *owners.entry(&vr.name).or_default() += usize::from(vr.owned);
        }
        let bad = |want: fn(usize) -> bool| {
            owners
                .iter()
                .find(|(_, n)| want(**n))
                .map(|(vr, n)| Violation::Ownership { vr: vr.to_string(), owners: *n })
        };
        bad(|n| n > 1).or_else(|| bad(|n| n == 0)).map_or(Ok(()), Err)
    }
}

/// Identity (B) as one line, each loss-side term by name, ending in the
/// verdict of [`Ledger::check`]; a second line for (E) once replication
/// has carried anything.
impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        write!(f, "conservation: frames_in {} == out {}", s.frames_in, s.frames_out)?;
        for (field, v) in s.loss_side() {
            write!(f, " + {field} {v}")?;
        }
        write!(f, " + queued {} + unreturned {} ", self.queued(), self.unreturned())?;
        match self.check() {
            Ok(()) if self.unreturned() == 0 => write!(f, "[exact]")?,
            Ok(()) => write!(f, "[balanced]")?,
            Err(v) => write!(f, "[VIOLATED {v}]")?,
        }
        if s.updates_emitted > 0 {
            write!(
                f,
                "\nreplication: updates_emitted {} == folded {} + lost {}",
                s.updates_emitted, s.updates_folded, s.updates_lost
            )?;
        }
        Ok(())
    }
}
