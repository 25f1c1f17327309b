//! The forwarding path and the per-burst control relay.

use super::*;

/// The monitor's handles onto one VR's shared ingress ring, plus the
/// counters that keep the ring inside the conservation identities. The ring
/// is published to the registry as a synthetic `vri="ring"` series in the
/// per-VRI dispatch families, so identity (C)
/// (`Σ dispatched == Σ returned + queued + reclaimed + lost`) and identity
/// (D) (aggregate drops == per-series drop sum) hold unchanged: frames the
/// monitor bulk-enqueued count as dispatched there (the stealing VRI's own
/// series later records the `returned`), ring occupancy joins
/// `lvrm_data_queued`, and ring refusals join the dispatch-drop family.
pub(super) struct VrRing {
    /// Producer: `dispatch_bucket` bulk-publishes a VR's burst here.
    pub(super) tx: VLinkSender<Frame>,
    /// Monitor-side consumer clone: occupancy sampling and teardown drains
    /// (the VRIs hold their own clones inside their endpoints).
    pub(super) rx: VLinkReceiver<Frame>,
    /// Frames published into the ring (the ring series' `dispatched`).
    pub(super) enqueued: u64,
    /// Frames a full ring refused (the ring series' `dispatch_drops`).
    pub(super) drops: u64,
    pub(super) m_dispatched: Counter,
    pub(super) m_drops: Counter,
    pub(super) m_queue_len: Gauge,
    pub(super) m_occupancy: Gauge,
}

impl VrRing {
    pub(super) fn new(capacity: usize, reg: &MetricsRegistry, vr: &str) -> VrRing {
        let (tx, rx) = shared_ring(capacity);
        let labels = [("vr", vr), ("vri", "ring")];
        // The ring returns nothing itself; its series stays at zero.
        reg.counter(M_VRI_RETURNED.0, M_VRI_RETURNED.1, &labels);
        VrRing {
            tx,
            rx,
            enqueued: 0,
            drops: 0,
            m_dispatched: reg.counter(M_VRI_DISPATCHED.0, M_VRI_DISPATCHED.1, &labels),
            m_drops: reg.counter(M_VRI_DROPS.0, M_VRI_DROPS.1, &labels),
            m_queue_len: reg.gauge(M_VRI_QUEUE_LEN.0, M_VRI_QUEUE_LEN.1, &labels),
            m_occupancy: reg.gauge(
                "lvrm_vr_ring_occupancy",
                "Shared-ring fill fraction (VLink fabric only).",
                &[("vr", vr)],
            ),
        }
    }

    pub(super) fn occupancy(&self) -> f64 {
        self.rx.len() as f64 / self.rx.capacity().max(1) as f64
    }
}

/// One VR's share of an ingress burst: the frames classified to it and, in
/// step, the key its balancer staged for each (no keys at all when the VR's
/// balancer stages nothing). Frames and keys enter and leave together, so a
/// bucket that is shortened or skipped can never pair a frame with its
/// neighbour's key.
#[derive(Default)]
pub(super) struct VrBucket {
    pub(super) frames: Vec<Frame>,
    pub(super) flows: Vec<Option<HashedKey>>,
}

impl VrBucket {
    fn len(&self) -> usize {
        self.frames.len()
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn truncate(&mut self, len: usize) {
        self.frames.truncate(len);
        self.flows.truncate(len);
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.flows.clear();
    }
}

/// Charge `n` frames of `vr` that no instance took, by cause. A quarantined
/// VR's go to `quarantined_drops`. If an instance is attached, every
/// attached queue was full: a dispatch drop, noted on `full`, the first
/// attached instance (JSQ's pick among equally full queues), so identity
/// (D) stays exact. With none attached they are `no_vri_drops`.
fn charge_unplaced(stats: &StatCounters, vr: &mut VrState, full: Option<usize>, n: u64) {
    if n == 0 {
        return;
    }
    match full {
        _ if vr.quarantined => stats.quarantined_drops.add(n),
        Some(slot) => {
            vr.vris[slot].note_discarded(n);
            stats.dispatch_drops.add(n);
        }
        None => stats.no_vri_drops.add(n),
    }
}

/// One VR's queues as a placement sees them, read once: the parallel slot
/// arrays a [`BurstCtx`] takes, and where an unplaced frame is charged.
#[derive(Default)]
pub(super) struct QueueView {
    vris: Vec<VriId>,
    loads: Vec<f64>,
    valid: Vec<bool>,
    /// The first attached slot, where [`charge_unplaced`] notes a frame no
    /// valid instance takes; `None` with no instance attached.
    full: Option<usize>,
}

impl QueueView {
    /// One [`VriAdapter::read_queue`] a VRI. Returns the worst occupancy.
    pub(super) fn read(&mut self, vris: &mut [VriAdapter], now: u64) -> f64 {
        self.vris.clear();
        self.loads.clear();
        self.valid.clear();
        self.full = None;
        let mut worst: f64 = 0.0;
        for (slot, v) in vris.iter_mut().enumerate() {
            let q = v.read_queue(now);
            worst = worst.max(q.occupancy);
            self.full = self.full.or(q.attached.then_some(slot));
            self.vris.push(v.id);
            self.loads.push(q.load);
            self.valid.push(q.valid);
        }
        worst
    }
}

impl<C: Clock> Lvrm<C> {
    /// Step 2 of the workflow: accept one ingress frame, classify, balance,
    /// dispatch. Also drives the lazy reallocation check. This is the
    /// batch-of-1 case of [`Lvrm::ingress_batch`] — a burst of one frame
    /// runs the identical classify/balance/dispatch sequence.
    pub fn ingress(&mut self, frame: Frame, host: &mut dyn VriHost) {
        let mut single = std::mem::take(&mut self.scratch_single);
        single.push(frame);
        self.ingress_batch(&mut single, host);
        single.clear();
        self.scratch_single = single;
    }

    /// Step 2 of the workflow, batched, as three passes over the burst:
    ///
    /// 1. ask for every frame's header line (the frames of a burst are
    ///    independent, so their cache misses can overlap);
    /// 2. parse each frame's headers **once**, classify its source to a VR
    ///    and move the frame into that VR's bucket; a VR whose balancer keeps
    ///    a flow table also has it staged (the 5-tuple hashed, the line the
    ///    hash selects in the table asked for) and buckets its key beside it;
    /// 3. per VR: refresh the load view once, pick every frame's VRI with one
    ///    [`LoadBalancer::pick_burst`] call, and enqueue with one bulk send
    ///    per VRI (one queue-index publication per VRI per burst): the
    ///    bucket itself when every pick names one VRI, else a run per VRI.
    ///
    /// A serial classify → track → balance chain per frame pays each miss in
    /// turn; cut into stages over a batch, the misses of one stage are all
    /// in flight together (DESIGN.md §5). The lazy reallocation check runs
    /// once per burst; since every frame in the burst shares one clock
    /// reading, that is exactly what the per-frame path would have done (the
    /// pass is rate-limited per §3.2's period).
    ///
    /// `frames` is drained. Frames that fail classification, balancing, or
    /// dispatch are counted in [`Lvrm::stats`] exactly as on the per-frame
    /// path.
    pub fn ingress_batch(&mut self, frames: &mut Vec<Frame>, host: &mut dyn VriHost) {
        if frames.is_empty() {
            return;
        }
        let now = self.clock.now_ns();
        self.stats.frames_in.add(frames.len() as u64);
        if self.shutting_down {
            // Quiesced: no new work enters a dataplane that is emptying out.
            // The frames are still accounted for, so the conservation
            // identity holds through the shutdown window.
            self.stats.shed_early.add(frames.len() as u64);
            frames.clear();
            self.poll_drains(now, host);
            return;
        }

        // Touch. Reading a frame's length already asks for the first line of
        // its block; the headers the next pass parses usually reach into the
        // line after it, so ask for the one their last byte is on.
        for frame in frames.iter() {
            let bytes = frame.bytes();
            if let Some(headers_end) = bytes.get(IngressHeaders::SPAN - 1).or(bytes.last()) {
                prefetch_read(headers_end);
            }
        }

        // Classify by source address ("LVRM inspects the source IP address
        // of the data frame, and determines the VR", §2.1), bucketing the
        // burst per VR.
        self.scratch_vr_buckets.resize_with(self.vrs.len(), VrBucket::default);
        let mut buckets = std::mem::take(&mut self.scratch_vr_buckets);
        let mut any_classified = false;
        for frame in frames.drain(..) {
            let headers = IngressHeaders::parse(frame.bytes());
            let owner = headers
                .and_then(|h| Some((usize::from(self.classifier.lookup(h.src())?.iface), h)));
            match owner {
                Some((vr_idx, h)) => {
                    let (vr, bucket) = (&self.vrs[vr_idx], &mut buckets[vr_idx]);
                    if vr.stages {
                        bucket.flows.push(vr.balancer.stage(&h));
                    }
                    bucket.frames.push(frame);
                    any_classified = true;
                }
                None => self.stats.unclassified.inc(),
            }
        }
        let wm = self.config.watermarks();
        for (vr_idx, bucket) in buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                self.dispatch_bucket(vr_idx, bucket, &wm, now);
            }
        }
        self.scratch_vr_buckets = buckets;

        if self.draining_count > 0 {
            self.poll_drains(now, host);
        }

        // Control starvation guard: a saturated ingress path must not defer
        // control-event relay forever. The paper gives control strict
        // priority inside a VRI; this bounds the monitor side too, even for
        // hosts that only call `process_control` opportunistically.
        self.bursts_since_ctrl = self.bursts_since_ctrl.saturating_add(1);
        if self.bursts_since_ctrl >= CTRL_STARVATION_BURSTS {
            self.process_control();
        }

        // A burst of only-unclassified frames never reached a VR, and the
        // per-frame path returns before the reallocation check in that case.
        if any_classified {
            self.maybe_reallocate(now, host);
        }
    }

    /// Admit one VR's share of a burst and place it ([`Lvrm::place`]),
    /// leaving `bucket` empty: the ownership gate, the arrival record, the
    /// pressure refresh and fair admission run on the queue view the
    /// placement then picks over, and under VLink the bucket goes to the
    /// VR's shared ring instead.
    fn dispatch_bucket(&mut self, vr_idx: usize, bucket: &mut VrBucket, wm: &Watermarks, now: u64) {
        let vr = &mut self.vrs[vr_idx];
        // Fleet ownership gate (DESIGN.md §15): frames classified to a VR
        // another shard owns are shed whole, before admission control. They
        // still book as `frames_in + shed`, so identity (A) holds per VR and
        // `shed_early` keeps the global ledger exact — an unowned VR is just
        // a VR whose admission quota is zero.
        if !vr.owned {
            let n = bucket.len() as u64;
            vr.frames_in += n;
            vr.shed += n;
            self.stats.shed_early.add(n);
            bucket.clear();
            return;
        }
        vr.frames_in += bucket.len() as u64;
        // Arrivals are recorded before admission control: the allocator must
        // see true offered load, or an overloaded VR could never earn the
        // cores that would relieve the overload.
        vr.arrival.record_n(now, bucket.len() as u64);

        let mut worst_occupancy = self.scratch_view.read(&mut vr.vris, now);
        // Under the VLink fabric the shared ring *is* the VR's backlog; its
        // occupancy joins the pressure reading so overload control fires on
        // exactly the queue the frames actually sit in.
        if let Some(ring) = &vr.ring {
            worst_occupancy = worst_occupancy.max(ring.occupancy());
        }
        // Per-burst pressure refresh: one data queue past the high watermark
        // marks the whole VR (JSQ would have spread the backlog first), and
        // the tracker holds the state until the worst queue drains back
        // below the low mark.
        vr.pressure.update(worst_occupancy, wm);

        // Fair admission under overload: an `Overloaded` VR is held to its
        // weighted share of the burst budget, with deficit-round-robin
        // credit carried across bursts so fractional quanta still admit.
        // Excess is shed here, before any balance or dispatch work is spent
        // on frames that would tail-drop anyway.
        if self.config.overload_shedding && vr.pressure.level() == PressureLevel::Overloaded {
            let quantum = self.config.batch_size as f64 * vr.weight / self.total_weight;
            vr.shed_credit = (vr.shed_credit + quantum).min(quantum.max(1.0));
            let allowed = vr.shed_credit as usize;
            if bucket.len() > allowed {
                let over = (bucket.len() - allowed) as u64;
                bucket.truncate(allowed);
                vr.shed += over;
                self.stats.shed_early.add(over);
            }
            vr.shed_credit -= bucket.len() as f64;
        } else {
            vr.shed_credit = 0.0;
        }
        vr.admitted += bucket.len() as u64;

        // VLink work-stealing fabric: publish the whole bucket into the VR's
        // shared ring with one bulk operation instead of JSQ-spreading it
        // across per-VRI queues — the VRIs steal bursts at their own pace, so
        // a burst never serializes behind the slowest instance. With no
        // attached instance the frames drop here, labelled as a placement's
        // unplaced frames would be; what a full ring refuses is a dispatch
        // drop on the ring's series.
        if let Some(ring) = vr.ring.as_mut() {
            if self.scratch_view.full.is_some() {
                let sent = ring.tx.try_send_batch(&mut bucket.frames) as u64;
                ring.enqueued += sent;
                let leftover = bucket.len() as u64;
                if leftover > 0 {
                    ring.drops += leftover;
                    self.stats.dispatch_drops.add(leftover);
                }
            } else {
                charge_unplaced(&self.stats, vr, None, bucket.len() as u64);
            }
            bucket.clear();
            return;
        }
        self.place(vr_idx, bucket, now, Charge::Drops);
    }

    /// Place one VR's bucket on its VRIs over the queue view just read
    /// ([`QueueView::read`]), leaving `bucket` empty: the one way a frame
    /// reaches a VRI queue, for ingress ([`Lvrm::dispatch_bucket`]) and for
    /// reclaimed frames ([`Lvrm::rehome`]) alike. Every frame's VRI is
    /// picked with one [`LoadBalancer::pick_burst`] call, each pick adding a
    /// synthetic +1 to its slot's load so JSQ keeps spreading frames the
    /// estimator has not observed yet (instead of sending the whole burst
    /// to the momentarily-shortest queue). Then one bulk send per VRI: the
    /// bucket itself when every pick names one VRI, else a run per VRI.
    /// Frames no instance takes or a queue refuses are booked by `charge`.
    /// Returns how many frames the queues accepted.
    pub(super) fn place(
        &mut self,
        vr_idx: usize,
        bucket: &mut VrBucket,
        now: u64,
        charge: Charge,
    ) -> u64 {
        let (vr, view, stats) = (&mut self.vrs[vr_idx], &mut self.scratch_view, &self.stats);
        self.scratch_picks.clear();
        self.scratch_picks.resize(bucket.len(), None);
        let burst = BurstCtx {
            flows: &bucket.flows,
            vris: &view.vris,
            loads: &mut view.loads,
            valid: &view.valid,
            now_ns: now,
        };
        vr.balancer.pick_burst(burst, &mut self.scratch_picks);
        // One bulk send, leaving `run` empty; what does not fit is booked.
        let send = |vri: &mut VriAdapter, run: &mut Vec<Frame>| {
            let accepted = vri.dispatch_batch(run, now) as u64;
            let refused = run.len() as u64;
            match charge {
                _ if refused == 0 => {}
                // Recorded in the refusing adapter too, so the aggregate
                // stays the sum of the adapters'.
                Charge::Drops => {
                    vri.note_discarded(refused);
                    stats.dispatch_drops.add(refused);
                }
                Charge::ShrinkLost => stats.shrink_lost.add(refused),
            }
            run.clear();
            accepted
        };
        let accepted = match self.scratch_picks.split_first() {
            // Every pick names one VRI: the bucket goes to it as it is.
            Some((&Some(slot), rest)) if rest.iter().all(|&pick| pick == Some(slot)) => {
                send(&mut vr.vris[slot], &mut bucket.frames)
            }
            _ => {
                let mut unplaced = 0;
                for (frame, pick) in bucket.frames.drain(..).zip(&self.scratch_picks) {
                    match *pick {
                        Some(slot) => self.scratch_slot_buckets[slot].push(frame),
                        None => unplaced += 1,
                    }
                }
                match charge {
                    Charge::Drops => charge_unplaced(stats, vr, view.full, unplaced),
                    Charge::ShrinkLost => stats.shrink_lost.add(unplaced),
                }
                let runs = vr.vris.iter_mut().zip(&mut self.scratch_slot_buckets);
                runs.filter(|(_, run)| !run.is_empty()).map(|(vri, run)| send(vri, run)).sum()
            }
        };
        bucket.clear();
        accepted
    }

    /// Steps 3–4: collect frames the VRIs forwarded, appending to `out`.
    /// Returns how many were collected.
    pub fn poll_egress(&mut self, out: &mut Vec<Frame>) -> usize {
        let start = out.len();
        // Frames rescued from dead/shrunk VRIs' egress queues. They were
        // counted in `frames_out` when rescued; deliver without recounting.
        out.append(&mut self.rescued_egress);
        let before = out.len();
        // One clock read per poll bounds the histograms' hot-path cost;
        // rescued frames above are skipped (their departure time is the
        // rescue, not this poll).
        let now = if self.config.latency_histograms { self.clock.now_ns() } else { 0 };
        for vr in &mut self.vrs {
            let vr_before = out.len();
            for vri in &mut vr.vris {
                vri.drain_egress(out);
            }
            // Draining VRIs no longer receive dispatches but keep forwarding
            // until retirement — that is what makes the drain hitless.
            for d in &mut vr.draining {
                d.adapter.drain_egress(out);
            }
            vr.frames_out += (out.len() - vr_before) as u64;
            if now > 0 {
                for f in &out[vr_before..] {
                    if f.ts_ns > 0 && now > f.ts_ns {
                        vr.latency.record(now - f.ts_ns);
                    }
                }
            }
        }
        let n = out.len() - before;
        self.stats.frames_out.add(n as u64);
        out.len() - start
    }

    /// One pass of the monitor loop (§3, Fig. 3.1): the burst `lvrmd` runs
    /// and every caller runs, so the order lives here and nowhere else.
    ///
    /// 1. Unless a cluster peer owns the dataplane ([`Lvrm::ha_accepting`]),
    ///    poll up to `config.batch_size` frames from `nic`, stamp them with
    ///    one reading of the monitor's clock and [`Lvrm::ingress_batch`]
    ///    them.
    /// 2. Advance host time, then adapter time ([`VriHost::advance`],
    ///    [`SocketAdapter::advance`]): planned faults fire, an inline host
    ///    services its VRIs, the adapter supervisor reopens and retries.
    /// 3. Relay control ([`Lvrm::process_control`]) and run the lazy tick
    ///    ([`Lvrm::maybe_reallocate`]: cluster sub-tick, supervisor,
    ///    allocator, checkpoint).
    /// 4. Collect egress ([`Lvrm::poll_egress`]) and send it through `nic`.
    ///    Frames the adapter refuses are kept and go out first on the next
    ///    burst.
    ///
    /// Returns how many frames were collected this burst. Callers keep only
    /// their clock, their stop condition and their own I/O.
    pub fn run_burst(&mut self, nic: &mut dyn SocketAdapter, host: &mut dyn VriHost) -> usize {
        let mut ingress = std::mem::take(&mut self.scratch_ingress);
        if self.ha_accepting()
            && nic.poll_batch(&mut ingress, self.config.batch_size).unwrap_or(0) > 0
        {
            let ts = self.clock.now_ns();
            for f in ingress.iter_mut() {
                f.ts_ns = ts;
            }
            self.ingress_batch(&mut ingress, host);
        }
        self.scratch_ingress = ingress;
        let now = self.clock.now_ns();
        host.advance(now);
        nic.advance(now);
        self.process_control();
        self.maybe_reallocate(now, host);
        let mut egress = std::mem::take(&mut self.scratch_egress);
        let collected = self.poll_egress(&mut egress);
        let _ = nic.send_batch(&mut egress);
        self.scratch_egress = egress;
        collected
    }

    /// Whether any VRI has forwarded frames waiting to be collected (used
    /// by polling hosts to decide whether another egress pass is needed).
    /// Draining VRIs count: their egress must flush before retirement.
    pub fn has_pending_egress(&self) -> bool {
        self.vrs.iter().any(|vr| {
            vr.vris.iter().any(|v| v.has_pending_egress())
                || vr.draining.iter().any(|d| d.adapter.has_pending_egress())
        })
    }

    /// Relay control traffic: service-rate reports terminate here; anything
    /// else is forwarded to its destination VRI's incoming control queue
    /// ("a VRI can share control information with other VRIs of the same
    /// VR", §2.1).
    pub fn process_control(&mut self) {
        self.bursts_since_ctrl = 0;
        let now = self.clock.now_ns();
        let mut events = std::mem::take(&mut self.scratch_ctrl);
        events.clear();
        for vr in &mut self.vrs {
            for vri in &mut vr.vris {
                vri.drain_control(&mut events);
            }
            // Control from draining VRIs still flows: the drain is hitless
            // for the control plane too.
            for d in &mut vr.draining {
                d.adapter.drain_control(&mut events);
            }
        }
        for ev in events.drain(..) {
            // Heartbeats terminate at LVRM: pure proof of life.
            if let Some(vri) = decode_heartbeat(&ev) {
                if let Some(adapter) = self.find_vri_mut(vri) {
                    adapter.note_liveness(now);
                }
                continue;
            }
            if let Some((vri, rate)) = decode_service_rate(&ev) {
                if let Some(adapter) = self.find_vri_mut(vri) {
                    adapter.reported_service_rate = Some(rate);
                    adapter.note_liveness(now);
                }
                continue;
            }
            // Any other control event is also proof its source is alive.
            if let Some(adapter) = self.find_vri_mut(VriId(ev.src_vri)) {
                adapter.note_liveness(now);
            }
            // `LVSU` state-update batches are replication traffic: decode
            // once here and fan the records out to the origin's live
            // sibling replicas (DESIGN.md §14) instead of point-to-point
            // relay. Emitted/folded/lost are charged so the fifth identity
            // (`updates_emitted == updates_folded + updates_lost`) holds at
            // every snapshot.
            if crate::repl::is_state_update(&ev.payload) {
                self.fan_out_state_updates(ev, now);
                continue;
            }
            let dst = VriId(ev.dst_vri);
            match self.find_vri_mut(dst) {
                Some(adapter) => match adapter.relay_control(ev) {
                    Ok(()) => self.stats.control_relayed.inc(),
                    Err(_) => self.stats.control_drops.inc(),
                },
                None => self.stats.control_drops.inc(),
            }
        }
        self.scratch_ctrl = events;
    }

    /// Fan one `LVSU` batch out to the origin VRI's live sibling replicas.
    ///
    /// A batch of `k` records with `m` live siblings charges
    /// `updates_emitted += k × m`; each sibling relay then lands in either
    /// `updates_folded` (accepted onto its control queue) or `updates_lost`
    /// (queue full), so the fifth conservation identity is exact by
    /// construction. A batch that fails to decode (corrupt, truncated)
    /// never charges `emitted` and is counted as a control drop. Draining
    /// siblings are skipped: they are leaving the replica set and their
    /// books die with them.
    fn fan_out_state_updates(&mut self, ev: ControlEvent, now: u64) {
        let batch_len = match crate::repl::decode_batch(&ev.payload) {
            Ok((_origin, updates)) => updates.len() as u64,
            Err(_) => {
                self.stats.control_drops.inc();
                return;
            }
        };
        // Replication-lag bookkeeping (ROADMAP item 2): how many records the
        // most recent fan-out carried, and when it ran. Between fan-outs the
        // sibling books are stale by at most this batch plus the elapsed
        // time — the `lvrm_repl_lag_{updates,ns}` gauges.
        self.repl_last_fanout_records = batch_len;
        self.repl_last_fanout_ns = now;
        let origin = VriId(ev.src_vri);
        let Some(vr) = self.vrs.iter_mut().find(|vr| vr.vris.iter().any(|v| v.id == origin)) else {
            // Origin died or drained between emit and fan-out: no sibling
            // set to address, nothing was promised, nothing is lost.
            self.stats.control_drops.inc();
            return;
        };
        let siblings: u64 = vr.vris.iter().filter(|v| v.id != origin).count() as u64;
        self.stats.updates_emitted.add(batch_len * siblings);
        for vri in vr.vris.iter_mut().filter(|v| v.id != origin) {
            let mut copy = ev.clone();
            copy.dst_vri = vri.id.0;
            match vri.relay_control(copy) {
                Ok(()) => {
                    self.stats.updates_folded.add(batch_len);
                    self.stats.control_relayed.inc();
                }
                Err(_) => {
                    self.stats.updates_lost.add(batch_len);
                    self.stats.control_drops.inc();
                }
            }
        }
    }

    fn find_vri_mut(&mut self, id: VriId) -> Option<&mut VriAdapter> {
        self.vrs
            .iter_mut()
            .flat_map(|vr| vr.vris.iter_mut().chain(vr.draining.iter_mut().map(|d| &mut d.adapter)))
            .find(|v| v.id == id)
    }

    /// Nanoseconds since the most recent state-update fan-out (0 before the
    /// first, or when replication is idle because nothing emitted).
    pub(super) fn repl_lag_ns(&self, now_ns: u64) -> u64 {
        if self.repl_last_fanout_ns == 0 {
            0
        } else {
            now_ns.saturating_sub(self.repl_last_fanout_ns)
        }
    }
}
