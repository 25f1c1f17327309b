//! The supervisor and the allocation pass: how VRIs come and go.

use super::*;

/// Supervisor respawn backoff: the base after the *second* consecutive
/// crash (the first respawn is immediate so a one-off crash recovers within
/// one tick), doubling per crash up to the cap.
const RESPAWN_BACKOFF_NS: u64 = 1_000_000_000; // 1 s
const RESPAWN_BACKOFF_MAX_NS: u64 = 30_000_000_000; // 30 s

/// A VR that stays healthy this long after a crash gets its
/// consecutive-crash streak reset.
const CRASH_STREAK_RESET_NS: u64 = 10_000_000_000; // 10 s

/// A grow/shrink event, kept for the reaction-time analysis (Fig. 4.11).
#[derive(Clone, Copy, Debug)]
pub struct ReallocEvent {
    /// When the decision fired (monitor clock).
    pub ts_ns: u64,
    pub vr: VrId,
    pub decision: AllocDecision,
    /// Wall time from decision to spawn/kill completion — real in the
    /// threaded runtime, ~0 under simulated clocks (the testbed models it).
    pub latency_ns: u64,
    /// VRIs of the VR after the event.
    pub vris_after: usize,
}

/// What the supervisor did to one VRI (kept for the recovery-time analysis,
/// the fault-recovery mirror of Fig. 4.11's reaction-time log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupervisionAction {
    /// Declared dead: `reclaimed` in-flight frames were drained for
    /// re-dispatch, `lost` could not be recovered.
    Died { reclaimed: u64, lost: u64 },
    /// A replacement instance was spawned (the event's `vri` is the new id).
    Respawned,
    /// The VRI's VR crossed the crash-loop threshold and was quarantined.
    Quarantined,
}

/// One supervisor decision, timestamped on the monitor clock.
#[derive(Clone, Copy, Debug)]
pub struct SupervisionEvent {
    pub ts_ns: u64,
    pub vr: VrId,
    pub vri: VriId,
    pub action: SupervisionAction,
}

/// One VRI in the drain state: out of the balance set, awaiting retirement.
pub(super) struct DrainingVri {
    pub(super) adapter: VriAdapter,
    /// Forcible-retirement instant on the monitor clock.
    deadline_ns: u64,
}

impl<C: Clock> Lvrm<C> {
    /// The VR monitor's allocation pass (Fig. 3.2's `allocate`), rate-limited
    /// to one run per allocation period. Exposed for hosts that want to
    /// drive it on a timer even without traffic.
    pub fn maybe_reallocate(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        // Cluster sub-tick: runs on *every* invocation (the host loop), ahead
        // of the 1 s allocation gate — advert cadence, down detection,
        // promotion and takeover must all be sub-second. Take/put so the
        // node can borrow the monitor mutably for checkpoint build/apply.
        if let Some(mut cluster) = self.cluster.take() {
            cluster.tick(now_ns, self, host);
            self.cluster = Some(cluster);
        }
        if self.shutting_down {
            return; // the only remaining allocation activity is the drain
        }
        match self.last_alloc_ns {
            Some(last) if now_ns.saturating_sub(last) < self.config.allocation_period_ns => return,
            _ => {}
        }
        self.last_alloc_ns = Some(now_ns);

        // The supervisor shares the lazy tick: recover dead VRIs first so
        // the allocator below sees the post-recovery instance counts.
        self.supervise(now_ns, host);
        if self.draining_count > 0 {
            self.poll_drains(now_ns, host);
        }

        let age_budget = self.config.effective_flow_age_budget();
        for idx in 0..self.vrs.len() {
            // Close out elapsed rate windows even for silent VRs.
            self.vrs[idx].arrival.advance(now_ns);
            // Bounded incremental flow aging rides the tick (a no-op for
            // frame-based balancers): O(budget) per tick, never a full
            // table scan, so tick cost is independent of table size.
            // Runs even for quarantined/draining VRs — their idle flows
            // still need to expire.
            self.vrs[idx].balancer.age_flows(now_ns, age_budget);
            // A quarantined VR gets no allocator attention: no grows (it
            // crash-loops) and no shrinks (nothing worth preserving).
            if self.vrs[idx].quarantined {
                continue;
            }
            // A VR mid-drain holds its size until the drain settles; acting
            // on load readings polluted by a retiring instance would flap.
            if !self.vrs[idx].draining.is_empty() {
                continue;
            }
            let view = VrLoadView {
                arrival_rate: self.vrs[idx].arrival.rate_per_sec(),
                service_rate_per_vri: self.vrs[idx].service_rate_per_vri(),
                current_vris: self.vrs[idx].vris.len(),
                pressure: self.vrs[idx].pressure.level(),
            };
            match self.vrs[idx].allocator.decide(&view) {
                AllocDecision::Grow => {
                    self.grow_vr(idx, now_ns, host);
                }
                AllocDecision::Shrink => {
                    self.shrink_vr(idx, false, now_ns, host);
                }
                AllocDecision::Hold => {}
            }
        }

        // One structured line per reallocation tick, for hosts that log it
        // (see `take_tick_line`). Built here so it rides the existing 1 s
        // cadence instead of adding a timer.
        let s = self.stats.read();
        self.tick_line = Some(format!(
            "lvrm-tick ts_ns={} vrs={} vris={} draining={} frames_in={} frames_out={} \
             drops={} shed={} redispatched={} deaths={} respawns={} \
             repl_lag_updates={} repl_lag_ns={}",
            now_ns,
            self.vrs.len(),
            self.vrs.iter().map(|v| v.vris.len()).sum::<usize>(),
            self.draining_count,
            s.frames_in,
            s.frames_out,
            s.loss(),
            s.shed_early,
            s.redispatched,
            s.vri_deaths,
            s.respawns,
            self.repl_last_fanout_records,
            self.repl_lag_ns(now_ns),
        ));

        // Every tick of every debug build is an identity test.
        debug_assert_eq!(self.ledger().check(), Ok(()), "tick {now_ns}: {}", self.ledger());

        // Periodic checkpoint rides the same lazy tick: zero hot-path cost,
        // one serialize + atomic rename per interval.
        self.maybe_checkpoint(now_ns);
    }

    /// The supervisor pass (run from the same lazy tick as reallocation,
    /// gated on `config.supervision`): reclassify every VRI's health, tear
    /// down the dead ones (rescuing their egress and reclaiming their
    /// in-flight inbound frames), respawn within the backoff budget, and
    /// re-balance reclaimed frames across the survivors. Public so hosts
    /// can drive it directly in tests; production paths reach it through
    /// [`Lvrm::maybe_reallocate`].
    pub fn supervise(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        if !self.config.supervision {
            return;
        }
        let suspect_after = self.config.suspect_after_ns;
        let dead_after = self.config.dead_after_ns;
        for idx in 0..self.vrs.len() {
            // A healthy stretch forgives past crashes.
            if self.vrs[idx].crash_streak > 0
                && !self.vrs[idx].quarantined
                && now_ns.saturating_sub(self.vrs[idx].last_crash_ns) > CRASH_STREAK_RESET_NS
            {
                self.vrs[idx].crash_streak = 0;
            }

            let mut reclaimed = Vec::new();
            let mut slot = 0;
            while slot < self.vrs[idx].vris.len() {
                let prev = self.vrs[idx].vris[slot].health;
                let health =
                    self.vrs[idx].vris[slot].update_health(now_ns, suspect_after, dead_after);
                if health == VriHealth::Dead {
                    let adapter = self.vrs[idx].vris.remove(slot);
                    self.reap_dead_vri(idx, adapter, now_ns, host, &mut reclaimed);
                } else {
                    if health != prev {
                        self.registry.push_event(
                            now_ns,
                            format!(
                                "vri-health vr={} vri={} from={} to={}",
                                self.vrs[idx].name,
                                self.vrs[idx].vris[slot].id,
                                prev.name(),
                                health.name()
                            ),
                        );
                    }
                    slot += 1;
                }
            }

            // Respawn before re-dispatch so a one-off crash recovers within
            // this very tick (first respawn carries no backoff). `grow_vr`
            // absorbs the deficit and logs the respawn, so an allocator that
            // independently refills the VR in the same tick satisfies the
            // same debt instead of provoking an over-grow here later.
            while self.vrs[idx].respawn_deficit > 0
                && !self.vrs[idx].quarantined
                && now_ns >= self.vrs[idx].backoff_until_ns
            {
                if !self.grow_vr(idx, now_ns, host) {
                    break; // no core/memory available; retry next tick
                }
            }

            self.rehome(idx, reclaimed, now_ns, Charge::Drops);
        }
    }

    /// Tear down one dead VRI ([`Lvrm::depart`], its in-flight inbound frames
    /// appended to `reclaimed`) and update the VR's crash records.
    fn reap_dead_vri(
        &mut self,
        idx: usize,
        adapter: VriAdapter,
        now_ns: u64,
        host: &mut dyn VriHost,
        reclaimed: &mut Vec<Frame>,
    ) {
        let vri = adapter.id;
        let vr = &mut self.vrs[idx];
        vr.balancer.purge_vri(vri);
        vr.crash_streak += 1;
        vr.last_crash_ns = now_ns;
        vr.respawn_deficit += 1;
        // First crash respawns immediately; from the second on, exponential
        // backoff doubling per crash, bounded, with ±25% jitter keyed by VR
        // id so VRs that crashed together don't respawn in lockstep.
        let backoff = if vr.crash_streak <= 1 {
            0
        } else {
            let doublings = (vr.crash_streak - 2).min(20);
            let clamped =
                RESPAWN_BACKOFF_NS.saturating_mul(1u64 << doublings).min(RESPAWN_BACKOFF_MAX_NS);
            crate::fault::jittered_backoff(clamped, vr.id.0 as u64, vr.crash_streak as u64)
        };
        vr.backoff_until_ns = now_ns.saturating_add(backoff);
        // Decided before the teardown: a quarantined VR gets no respawn, so
        // its teardown reconciles the frames parked in its shared ring.
        let quarantine = self.config.quarantine_after > 0
            && vr.crash_streak >= self.config.quarantine_after
            && !vr.quarantined;
        vr.quarantined |= quarantine;
        let (got, lost) = self.depart(idx, adapter, Charge::Drops, now_ns, host, reclaimed);
        self.stats.vri_deaths.inc();
        let vr = &self.vrs[idx];
        self.supervision_log.push(SupervisionEvent {
            ts_ns: now_ns,
            vr: vr.id,
            vri,
            action: SupervisionAction::Died { reclaimed: got, lost },
        });
        if quarantine {
            self.registry.push_event(now_ns, format!("vr-quarantined vr={} vri={vri}", vr.name));
            self.supervision_log.push(SupervisionEvent {
                ts_ns: now_ns,
                vr: vr.id,
                vri,
                action: SupervisionAction::Quarantined,
            });
        }
    }

    /// "Destroy VRI adapter" (Fig. 3.2), the one way a VRI leaves: kill its
    /// vehicle, rescue its forwarded frames, reclaim its parked inbound
    /// frames (appended to `reclaimed`), charge what the host could not hand
    /// back by `charge`, fold its counters into the retired sums and release
    /// its core. Returns `(reclaimed, lost)`.
    fn depart(
        &mut self,
        idx: usize,
        mut adapter: VriAdapter,
        charge: Charge,
        now_ns: u64,
        host: &mut dyn VriHost,
        reclaimed: &mut Vec<Frame>,
    ) -> (u64, u64) {
        let vri = adapter.id;
        // Kill first: a vehicle on its own thread keeps servicing until it is
        // joined, and frames it takes after the depth is read would be
        // charged as lost *and* rescued from its egress queue below.
        host.kill_vri(self.vrs[idx].id, vri);
        let queued = adapter.queue_len() as u64;

        // Frames the instance already forwarded reach egress normally.
        let mut rescued = Vec::new();
        adapter.drain_egress(&mut rescued);
        self.vrs[idx].frames_out += rescued.len() as u64;
        self.stats.frames_out.add(rescued.len() as u64);
        self.rescued_egress.append(&mut rescued);

        // Frames still queued toward the instance: drain them back through
        // the balancer if the host can hand the endpoint over, else they
        // died with the vehicle.
        let before = reclaimed.len();
        if let Some(mut endpoint) = host.reap_endpoint(vri) {
            while endpoint.data_rx.try_recv_batch(reclaimed, usize::MAX) > 0 {}
        }
        let got = (reclaimed.len() - before) as u64;
        let lost = queued.saturating_sub(got);
        let (charged, verb) = match charge {
            Charge::Drops => (&self.stats.crash_lost, "died"),
            Charge::ShrinkLost => (&self.stats.shrink_lost, "retired"),
        };
        charged.add(lost);
        self.stats.reclaimed.add(got);
        self.stats.queue_lost.add(lost);
        self.stats.retired_dispatch_drops.add(adapter.dispatch_drops);
        self.stats.retired_dispatched.add(adapter.dispatched);
        self.stats.retired_returned.add(adapter.returned);
        // Both drains are done: freeze the per-instance series at their
        // final values (returned includes the rescued egress above).
        adapter.publish_final();
        let name = &self.vrs[idx].name;
        self.registry.push_event(
            now_ns,
            format!("vri-{verb} vr={name} vri={vri} reclaimed={got} lost={lost}"),
        );
        self.cores.release(adapter.core);
        // With the VR's last instance gone and no respawn coming (the
        // shutdown's retirements, or a quarantined VR), nothing will ever
        // steal from its shared ring: reconcile the parked frames now rather
        // than letting the queued gauge carry them forever. A VR that *will*
        // respawn keeps its ring intact — the replacement steals the
        // backlog, the fabric's "dead VRI loses nothing still queued".
        let vr = &self.vrs[idx];
        if vr.vris.is_empty()
            && vr.draining.is_empty()
            && (charge == Charge::ShrinkLost || vr.quarantined)
        {
            self.drain_stranded_ring(idx, now_ns, charge);
        }
        (got, lost)
    }

    /// Re-place frames reclaimed from a departed VRI on the VR's survivors,
    /// with the reading and placement ingress uses ([`Lvrm::place`]), point
    /// to point even under VLink. Unlike [`Lvrm::dispatch_bucket`] this
    /// records neither `frames_in` nor arrivals — the frames were admitted
    /// once already — and what the survivors accept is `redispatched`.
    /// `charge` books the frames that cannot be rehomed.
    fn rehome(&mut self, vr_idx: usize, frames: Vec<Frame>, now: u64, charge: Charge) {
        if frames.is_empty() {
            return;
        }
        let vr = &mut self.vrs[vr_idx];
        let mut bucket = VrBucket { frames, flows: Vec::new() };
        if vr.stages {
            // Ingress's staging step, on headers parsed again here.
            let stage =
                |f: &Frame| IngressHeaders::parse(f.bytes()).and_then(|h| vr.balancer.stage(&h));
            bucket.flows.extend(bucket.frames.iter().map(stage));
        }
        self.scratch_view.read(&mut vr.vris, now);
        let accepted = self.place(vr_idx, &mut bucket, now, charge);
        self.stats.redispatched.add(accepted);
    }

    /// Resize `vr` to `target` VRIs right now (never below one), bypassing
    /// the load estimators but going through the production grow/shrink
    /// paths — reaction latencies are recorded in [`Lvrm::realloc_log`] as
    /// usual. Manual resize is explicit operator intent, so the VR's own
    /// drains are settled first (their cores and queue-memory budget come
    /// free) and its shrink victims retire at once; other VRs' drains run
    /// on. Used by the Fig. 4.11 reaction-time measurement, by restore and
    /// cold adoption, and by operators who want manual scaling.
    pub fn resize_vr(&mut self, vr: VrId, target: usize, now_ns: u64, host: &mut dyn VriHost) {
        let idx = vr.0 as usize;
        while let Some(d) = self.vrs[idx].draining.pop() {
            self.draining_count -= 1;
            self.retire_vri(idx, d.adapter, now_ns, host);
        }
        while self.vrs[idx].vris.len() < target && self.grow_vr(idx, now_ns, host) {}
        while self.vrs[idx].vris.len() > target.max(1) && self.shrink_vr(idx, true, now_ns, host) {}
    }

    /// Estimated queue memory one VRI's channel fabric reserves: two data
    /// queues of `data_queue_capacity` max-size frames plus two control
    /// queues (each entry conservatively one max frame).
    pub fn vri_queue_memory_estimate(&self) -> usize {
        let per_entry = lvrm_net::wire::MAX_FRAME_WIRE;
        2 * self.config.data_queue_capacity * per_entry
            + 2 * self.config.ctrl_queue_capacity * per_entry
    }

    /// "Create VRI adapter" (Fig. 3.2): queues into shared memory, bind to a
    /// core, add to the VRI list.
    pub(super) fn grow_vr(&mut self, idx: usize, now_ns: u64, host: &mut dyn VriHost) -> bool {
        if self.vrs[idx].vris.len() >= MAX_VRIS_PER_VR {
            return false;
        }
        if self.config.max_queue_memory_bytes > 0 {
            // Draining VRIs still hold their channel fabric until retired.
            let live: usize = self.vrs.iter().map(|v| v.vris.len() + v.draining.len()).sum();
            if (live + 1) * self.vri_queue_memory_estimate() > self.config.max_queue_memory_bytes {
                return false; // memory budget exhausted (§3.2 extension)
            }
        }
        // NUMA-aware placement: keep a VR's VRIs on the package(s) already
        // hosting it — under the VLink fabric that package is the shared
        // ring's home node, and a cross-socket steal costs a QPI round trip.
        self.scratch_cores.clear();
        self.scratch_cores.extend(self.vrs[idx].vris.iter().map(|v| v.core));
        let near = std::mem::take(&mut self.scratch_cores);
        let allocated = self.cores.allocate_near(&near);
        self.scratch_cores = near;
        let Some(core) = allocated else {
            return false; // every candidate core is taken
        };
        let t0 = self.clock.now_ns();
        let vri = VriId(self.next_vri);
        self.next_vri += 1;
        let (channels, endpoint) = vri_channels_with_ring::<Frame>(
            self.config.queue_kind,
            self.config.data_queue_capacity,
            self.config.ctrl_queue_capacity,
            self.vrs[idx].ring.as_ref().map(|r| r.rx.clone()),
        );
        let mut adapter = VriAdapter::new(vri, core, channels, self.config.build_estimator());
        let labels = [("vr", self.vrs[idx].name.as_str()), ("vri", &vri.to_string())];
        adapter.series = VriSeries::register(&self.registry, &labels);
        // A newborn has not heartbeat yet; give it a full liveness window
        // before the supervisor may judge it.
        adapter.note_liveness(now_ns);
        let router = self.vrs[idx].router_template.spawn_instance();
        host.spawn_vri(VriSpec { vr: self.vrs[idx].id, vri, core }, endpoint, router);
        self.vrs[idx].vris.push(adapter);
        // Any grow on a VR that owes instances to the supervisor counts as
        // the replacement, whether the supervisor or the allocator asked for
        // it — otherwise both paths would refill the same crash and the VR
        // would overshoot its target by one.
        if self.vrs[idx].respawn_deficit > 0 {
            self.vrs[idx].respawn_deficit -= 1;
            self.stats.respawns.inc();
            self.registry.push_event(
                now_ns,
                format!(
                    "vri-respawned vr={} vri={vri} vris={}",
                    self.vrs[idx].name,
                    self.vrs[idx].vris.len()
                ),
            );
            self.supervision_log.push(SupervisionEvent {
                ts_ns: now_ns,
                vr: self.vrs[idx].id,
                vri,
                action: SupervisionAction::Respawned,
            });
        } else {
            self.registry.push_event(
                now_ns,
                format!(
                    "vr-alloc vr={} decision={} vris={}",
                    self.vrs[idx].name,
                    AllocDecision::Grow.name(),
                    self.vrs[idx].vris.len()
                ),
            );
        }
        let latency = self.clock.now_ns().saturating_sub(t0);
        self.realloc_log.push(ReallocEvent {
            ts_ns: now_ns,
            vr: self.vrs[idx].id,
            decision: AllocDecision::Grow,
            latency_ns: latency,
            vris_after: self.vrs[idx].vris.len(),
        });
        true
    }

    /// "Destroy VRI adapter" (Fig. 3.2), hitlessly: the victim leaves the
    /// balance set at once (no new dispatches), but its vehicle keeps
    /// servicing parked frames until the queue empties, the endpoint
    /// detaches, or `config.drain_deadline_ns` elapses — only then is it
    /// retired ([`Lvrm::retire_vri`]). The most recently added VRI goes
    /// first so sibling cores are surrendered last. With `retire` or a zero
    /// deadline the victim is retired in this call (still rehoming its
    /// parked frames), and the logged reaction latency covers it.
    fn shrink_vr(&mut self, idx: usize, retire: bool, now_ns: u64, host: &mut dyn VriHost) -> bool {
        if self.vrs[idx].vris.len() <= 1 && !self.shutting_down {
            return false; // a live VR keeps at least one instance
        }
        if self.vrs[idx].vris.is_empty() {
            return false;
        }
        let t0 = self.clock.now_ns();
        let adapter = self.vrs[idx].vris.pop().expect("len checked");
        let vri = adapter.id;
        self.vrs[idx].balancer.purge_vri(vri);
        self.registry.push_event(
            now_ns,
            format!(
                "vr-alloc vr={} decision={} vri={vri} vris={}",
                self.vrs[idx].name,
                AllocDecision::Shrink.name(),
                self.vrs[idx].vris.len()
            ),
        );
        if retire || self.config.drain_deadline_ns == 0 {
            self.retire_vri(idx, adapter, now_ns, host);
        } else {
            let deadline_ns = now_ns.saturating_add(self.config.drain_deadline_ns);
            self.vrs[idx].draining.push(DrainingVri { adapter, deadline_ns });
            self.draining_count += 1;
        }
        let latency = self.clock.now_ns().saturating_sub(t0);
        self.realloc_log.push(ReallocEvent {
            ts_ns: now_ns,
            vr: self.vrs[idx].id,
            decision: AllocDecision::Shrink,
            latency_ns: latency,
            vris_after: self.vrs[idx].vris.len(),
        });
        true
    }

    /// Retire a drained (or deadline-expired) VRI ([`Lvrm::depart`]) and
    /// rehome its reclaimed frames across the survivors. Only frames
    /// neither rescued nor rehomed count as `shrink_lost` — on the happy
    /// path (queue drained empty) that is zero.
    fn retire_vri(&mut self, idx: usize, adapter: VriAdapter, now_ns: u64, host: &mut dyn VriHost) {
        let mut reclaimed = Vec::new();
        self.depart(idx, adapter, Charge::ShrinkLost, now_ns, host, &mut reclaimed);
        self.rehome(idx, reclaimed, now_ns, Charge::ShrinkLost);
    }

    /// Empty a VR's shared ring once no instance remains to steal from it,
    /// keeping the conservation identities intact: drained frames count as
    /// `reclaimed` (they left the queued gauge alive) and then run through
    /// [`Lvrm::rehome`], which — with no survivors — charges them to the
    /// taxonomy `charge` names. A no-op for VRs without a ring or with the
    /// ring already empty.
    fn drain_stranded_ring(&mut self, idx: usize, now_ns: u64, charge: Charge) {
        let Some(ring) = self.vrs[idx].ring.as_ref() else {
            return;
        };
        let mut frames: Vec<Frame> = Vec::new();
        while ring.rx.try_recv_batch(&mut frames, usize::MAX) > 0 {}
        if frames.is_empty() {
            return;
        }
        let got = frames.len() as u64;
        self.stats.reclaimed.add(got);
        self.registry
            .push_event(now_ns, format!("ring-drained vr={} frames={got}", self.vrs[idx].name));
        self.rehome(idx, frames, now_ns, charge);
    }

    /// Sweep the drain lists and retire every VRI whose queue has emptied,
    /// whose endpoint has detached, or whose deadline has passed. Runs from
    /// ingress bursts and the reallocation tick; hosts may also call it
    /// directly (e.g. the shutdown loop).
    pub fn poll_drains(&mut self, now_ns: u64, host: &mut dyn VriHost) {
        if self.draining_count == 0 {
            return;
        }
        for idx in 0..self.vrs.len() {
            let mut slot = 0;
            while slot < self.vrs[idx].draining.len() {
                let d = &self.vrs[idx].draining[slot];
                let ready = d.adapter.queue_len() == 0
                    || !d.adapter.endpoint_attached()
                    || now_ns >= d.deadline_ns;
                if ready {
                    let d = self.vrs[idx].draining.remove(slot);
                    self.draining_count -= 1;
                    self.retire_vri(idx, d.adapter, now_ns, host);
                } else {
                    slot += 1;
                }
            }
        }
    }

    /// Begin (idempotently) and advance a graceful shutdown: every VRI of
    /// every VR moves to the drain state, new ingress is quiesced (counted
    /// as `shed_early`), and each call sweeps the drains. Returns `true`
    /// once every VRI has been retired — hosts keep running
    /// [`Lvrm::run_burst`] until then (`deadline_ns` is each drain's
    /// forcible-retirement instant).
    pub fn shutdown(&mut self, deadline_ns: u64, host: &mut dyn VriHost) -> bool {
        let now = self.clock.now_ns();
        if !self.shutting_down {
            self.shutting_down = true;
            for idx in 0..self.vrs.len() {
                while let Some(adapter) = self.vrs[idx].vris.pop() {
                    self.vrs[idx].balancer.purge_vri(adapter.id);
                    self.vrs[idx].draining.push(DrainingVri { adapter, deadline_ns });
                    self.draining_count += 1;
                }
            }
        }
        // Relay any last control traffic, then sweep.
        self.process_control();
        self.poll_drains(now, host);
        self.shutdown_complete()
    }

    /// Whether a begun shutdown has fully quiesced (every VRI retired).
    pub fn shutdown_complete(&self) -> bool {
        self.shutting_down && self.draining_count == 0
    }

    /// Whether [`Lvrm::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }
}
