//! What the monitor reports: snapshots, the ledger and the metrics registry.

use super::*;

/// Pre-register the adapter-supervision families (at zero) so they exist
/// from the first scrape whether or not a
/// [`crate::adapter::SupervisedAdapter`] is wired in. Same names and help as
/// `SupervisedAdapter::publish` — registry dedup by name makes these the very
/// counters it stores into.
pub(super) fn register_adapter_families(reg: &MetricsRegistry) {
    for (name, help) in [M_ADAPTER_REOPENS, M_ADAPTER_FAILOVERS, M_EGRESS_RETRIES] {
        reg.counter(name, help, &[]);
    }
}

series! {
    /// One VR's series in the metrics registry, looked up once at `add_vr`:
    /// [`Lvrm::refresh_registry`] stores through them, so a scrape takes no
    /// registry lock, allocates no label and searches no family by name.
    pub(super) struct VrSeries {
        frames_in: counter = M_VR_FRAMES_IN,
        frames_out: counter = ("lvrm_vr_frames_out_total", "Frames the VR's VRIs forwarded."),
        admitted: counter = M_VR_ADMITTED,
        shed: counter = M_VR_SHED,
        flow_sticky: counter = (
            "lvrm_vr_flow_sticky_total",
            "Flow-based balancer: frames that hit a live flow entry.",
        ),
        flow_fresh: counter =
            ("lvrm_vr_flow_fresh_total", "Flow-based balancer: frames that picked a VRI afresh."),
        pressure: gauge =
            ("lvrm_vr_pressure", "Watermark pressure state (0 normal, 1 pressured, 2 overloaded)."),
        vris: gauge = ("lvrm_vr_vris", "Live (balanced-to) VRIs."),
        draining: gauge = ("lvrm_vr_draining", "VRIs of this VR in the drain state."),
        arrival_fps: gauge = ("lvrm_vr_arrival_fps", "Smoothed arrival rate, frames per second."),
        quarantined: gauge = ("lvrm_vr_quarantined", "1 while the VR is quarantined, else 0."),
        // Mirrored from `VrState::latency`, never written on the hot path
        // (`SharedHistogram::record` is five locked RMWs per frame).
        latency: summary = (
            "lvrm_vr_latency_ns",
            "Dispatch-to-departure latency in nanoseconds (quantiles approximate).",
        ),
    }
}

series! {
    /// The flow-table families of a VR whose balancer keeps a flow table.
    pub(super) struct FlowSeries {
        evictions: counter = (
            "lvrm_vr_flow_evictions_total",
            "Expired flow entries evicted (lazy probe hits + aging sweeps).",
        ),
        overflows: counter =
            ("lvrm_vr_flow_overflows_total", "Flow insertions refused because the table was full."),
        age_sweep_slots: counter = (
            "lvrm_vr_flow_age_sweep_slots_total",
            "Slots visited by the incremental aging sweep (bounded per tick).",
        ),
        entries: gauge = ("lvrm_vr_flow_entries", "Tracked flows in the flow table."),
        occupancy: gauge =
            ("lvrm_vr_flow_occupancy", "Flow-table fill fraction (entries / capacity)."),
    }
}

series! {
    /// The monitor-wide sampled gauges, looked up once in [`Lvrm::new`].
    pub(super) struct MonitorGauges {
        data_queued: gauge = M_DATA_QUEUED,
        egress_queued: gauge = M_EGRESS_QUEUED,
        rescued_pending: gauge = (
            "lvrm_rescued_pending",
            "Rescued egress frames awaiting the next poll (already in frames_out).",
        ),
        draining_vris: gauge = ("lvrm_draining_vris", "VRIs in the drain state across all VRs."),
        vrs: gauge = ("lvrm_vrs", "Registered VRs."),
        restore_epoch: gauge = (
            "lvrm_restore_epoch",
            "Restart epoch (0 cold start; checkpoint epoch + 1 after restore).",
        ),
        repl_lag_updates: gauge = (
            "lvrm_repl_lag_updates",
            "Records carried by the most recent state-update fan-out (sibling-book staleness).",
        ),
        repl_lag_ns: gauge = (
            "lvrm_repl_lag_ns",
            "Age of the most recent state-update fan-out, vs the replica flush interval.",
        ),
    }
}

/// Point-in-time view of one VRI, for observability.
#[derive(Clone, Debug)]
pub struct VriSnapshot {
    pub id: VriId,
    pub core: crate::topology::CoreId,
    pub load_estimate: f64,
    pub queue_len: usize,
    pub dispatched: u64,
    pub returned: u64,
    pub dispatch_drops: u64,
    pub reported_service_rate: Option<f64>,
    pub health: VriHealth,
    /// In the drain state: no longer balanced to, still counted here so the
    /// dispatch-drop identity holds at every instant.
    pub draining: bool,
}

/// Point-in-time view of one VR.
#[derive(Clone, Debug)]
pub struct VrSnapshot {
    pub id: VrId,
    pub name: String,
    pub arrival_rate_fps: f64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub quarantined: bool,
    /// Watermark pressure state as of the last burst refresh.
    pub pressure: PressureLevel,
    /// Frames admitted past ingress classification.
    pub admitted: u64,
    /// Frames shed at ingress classification (over quota under overload).
    pub shed: u64,
    /// Flow-table occupancy/churn (flow-based balancers only).
    pub flow: Option<crate::flowtable::FlowTableStats>,
    /// Live VRIs first, then any draining ones (flagged `draining`).
    pub vris: Vec<VriSnapshot>,
}

impl std::fmt::Display for VrSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} vri] arrival {:.0} fps, in/out {}/{}, pressure {}",
            self.name,
            self.vris.len(),
            self.arrival_rate_fps,
            self.frames_in,
            self.frames_out,
            self.pressure.name()
        )?;
        if self.shed > 0 {
            write!(f, ", admitted/shed {}/{}", self.admitted, self.shed)?;
        }
        for v in &self.vris {
            write!(
                f,
                "\n  {} on {}: load {:.2}, q {}, {}/{} in/out, {} drops{}",
                v.id,
                v.core,
                v.load_estimate,
                v.queue_len,
                v.dispatched,
                v.returned,
                v.dispatch_drops,
                if v.draining { " (draining)" } else { "" }
            )?;
        }
        Ok(())
    }
}

impl<C: Clock> Lvrm<C> {
    /// Structured point-in-time view of every VR and VRI (for dashboards,
    /// the `lvrmd` daemon, and tests), one row per VR in `VrId` order.
    pub fn snapshot(&self) -> Vec<VrSnapshot> {
        self.vrs
            .iter()
            .map(|vr| VrSnapshot {
                id: vr.id,
                name: vr.name.clone(),
                arrival_rate_fps: vr.arrival.rate_per_sec(),
                frames_in: vr.frames_in,
                frames_out: vr.frames_out,
                quarantined: vr.quarantined,
                pressure: vr.pressure.level(),
                admitted: vr.admitted,
                shed: vr.shed,
                flow: vr.balancer.flow_table_stats(),
                vris: vr
                    .vris
                    .iter()
                    .map(|v| (v, false))
                    .chain(vr.draining.iter().map(|d| (&d.adapter, true)))
                    .map(|(v, draining)| VriSnapshot {
                        id: v.id,
                        core: v.core,
                        load_estimate: v.load(),
                        queue_len: v.queue_len(),
                        dispatched: v.dispatched,
                        returned: v.returned,
                        dispatch_drops: v.dispatch_drops,
                        reported_service_rate: v.reported_service_rate,
                        health: v.health,
                        draining,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Aggregate counters, materialized from the live registry handles.
    pub fn stats(&self) -> LvrmStats {
        self.stats.read()
    }

    /// The per-VRI dispatch books: live and draining adapters, each VR's
    /// shared ring, and the totals folded from retired instances.
    ///
    /// Queue depths are read downstream first — egress, then data, then the
    /// ring — so a frame a VRI thread moves along mid-read is counted once
    /// or not at all (it shows as `unreturned`), never twice. Each depth is
    /// computed from its queue's indices and bounded by capacity; the sums
    /// wrap only because the ledger's counters wrap by design.
    pub(super) fn vri_books(&self) -> VriBooks {
        let mut b = VriBooks {
            dispatched: self.stats.retired_dispatched.get(),
            returned: self.stats.retired_returned.get(),
            dispatch_drops: self.stats.retired_dispatch_drops.get(),
            ..VriBooks::default()
        };
        for vr in &self.vrs {
            for v in vr.vris.iter().chain(vr.draining.iter().map(|d| &d.adapter)) {
                b.dispatched += v.dispatched;
                b.returned += v.returned;
                b.dispatch_drops += v.dispatch_drops;
                b.egress_queued = b.egress_queued.wrapping_add(v.egress_len() as u64);
                b.data_queued = b.data_queued.wrapping_add(v.queue_len() as u64);
            }
            if let Some(ring) = &vr.ring {
                b.dispatched += ring.enqueued;
                b.dispatch_drops += ring.drops;
                b.data_queued = b.data_queued.wrapping_add(ring.rx.len() as u64);
            }
        }
        b
    }

    /// The monitor's books, from live state (see [`Ledger`]).
    pub fn ledger(&self) -> Ledger {
        let mut vrs: Vec<VrBooks> = self
            .vrs
            .iter()
            .map(|vr| VrBooks {
                name: vr.name.clone(),
                frames_in: vr.frames_in,
                admitted: vr.admitted,
                shed: vr.shed,
                owned: vr.owned,
            })
            .collect();
        vrs.sort_by(|a, b| a.name.cmp(&b.name));
        Ledger { stats: self.stats.read(), vrs, vris: self.vri_books() }
    }

    /// The metrics registry every monitor counter publishes into. Clone the
    /// handle to share it with scrape endpoints or log shippers.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mirror the sampled (non-counter) state — queue depths, pressure,
    /// arrival rates, per-VRI series — into the registry. Counters update
    /// live; gauges only move when this runs, so scrapes call it first
    /// (via [`Lvrm::metrics_snapshot`]). Every store goes through a handle
    /// kept since the VR or VRI was added.
    pub fn refresh_registry(&self) {
        for vr in &self.vrs {
            let s = &vr.series;
            s.frames_in.store(vr.frames_in);
            s.frames_out.store(vr.frames_out);
            s.admitted.store(vr.admitted);
            s.shed.store(vr.shed);
            let (sticky, fresh) = vr.balancer.flow_stats();
            s.flow_sticky.store(sticky);
            s.flow_fresh.store(fresh);
            s.latency.store(&vr.latency);
            if let (Some(f), Some(fs)) = (&vr.flow_series, vr.balancer.flow_table_stats()) {
                f.evictions.store(fs.evictions);
                f.overflows.store(fs.overflows);
                f.age_sweep_slots.store(fs.age_sweep_slots);
                f.entries.set(fs.len as f64);
                f.occupancy.set(fs.occupancy());
            }
            s.pressure.set(vr.pressure.level_gauge());
            s.vris.set(vr.vris.len() as f64);
            s.draining.set(vr.draining.len() as f64);
            s.arrival_fps.set(vr.arrival.rate_per_sec());
            s.quarantined.set(if vr.quarantined { 1.0 } else { 0.0 });
            if let Some(g) = &vr.owned_gauge {
                g.set(if vr.owned { 1.0 } else { 0.0 });
            }
            for v in &vr.vris {
                v.publish(false);
            }
            for d in &vr.draining {
                d.adapter.publish(true);
            }
            if let Some(ring) = &vr.ring {
                ring.m_dispatched.store(ring.enqueued);
                ring.m_drops.store(ring.drops);
                ring.m_queue_len.set(ring.rx.len() as f64);
                ring.m_occupancy.set(ring.occupancy());
            }
        }
        let g = &self.gauges;
        let queued = self.vri_books();
        g.data_queued.set(queued.data_queued as f64);
        g.egress_queued.set(queued.egress_queued as f64);
        g.rescued_pending.set(self.rescued_egress.len() as f64);
        g.draining_vris.set(self.draining_count as f64);
        g.vrs.set(self.vrs.len() as f64);
        g.restore_epoch.set(self.epoch as f64);
        g.repl_lag_updates.set(self.repl_last_fanout_records as f64);
        g.repl_lag_ns.set(self.repl_lag_ns(self.clock.now_ns()) as f64);
    }

    /// Refresh the sampled gauges and snapshot the whole registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_registry();
        self.registry.snapshot()
    }

    /// Render the current metrics in Prometheus text exposition format,
    /// straight from the registry (no snapshot in between).
    pub fn render_prometheus(&self) -> String {
        self.refresh_registry();
        self.registry.render_prometheus()
    }

    /// Take (and clear) the structured one-line summary built by the last
    /// reallocation tick, if one fired since the previous call.
    pub fn take_tick_line(&mut self) -> Option<String> {
        self.tick_line.take()
    }
}
