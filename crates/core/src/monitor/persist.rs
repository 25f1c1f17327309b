//! Checkpoint, restore and cluster adoption.

use super::*;

impl<C: Clock> Lvrm<C> {
    /// Restart epoch: 0 on a cold start, `checkpoint.epoch + 1` after a
    /// [`Lvrm::restore_from`].
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether this monitor currently owns the dataplane. Solo monitors
    /// and shards without a partner always accept; paired monitors accept
    /// only as the post-probation master. Hosts gate ingress polling on
    /// this.
    pub fn ha_accepting(&self) -> bool {
        self.cluster.as_ref().is_none_or(|c| c.accepting())
    }

    /// Current election role, when a cluster node is attached.
    pub fn ha_role(&self) -> Option<Role> {
        self.cluster.as_ref().map(|c| c.role())
    }

    /// Periodic checkpoint, gated on `config.checkpoint_interval_ns`. Runs
    /// from the lazy reallocation tick so the hot path never pays for it.
    pub(super) fn maybe_checkpoint(&mut self, now_ns: u64) {
        let Some(path) = self.config.checkpoint_path.clone() else {
            return;
        };
        if let Some(last) = self.last_checkpoint_ns {
            if now_ns.saturating_sub(last) < self.config.checkpoint_interval_ns {
                return;
            }
        }
        self.last_checkpoint_ns = Some(now_ns);
        self.checkpoint_to(&path, now_ns);
    }

    /// Write a checkpoint to `path` now (the SIGHUP / on-demand entry point).
    /// Returns whether the write landed; failures are logged to the event
    /// stream, never fatal — a monitor that cannot checkpoint keeps routing.
    pub fn checkpoint_to(&mut self, path: &Path, now_ns: u64) -> bool {
        let ck = self.build_checkpoint(now_ns);
        match ck.write_atomic(path) {
            Ok(()) => {
                self.checkpoint_writes.inc();
                true
            }
            Err(e) => {
                self.registry.push_event(
                    now_ns,
                    format!("checkpoint-error path={} err={e}", path.display()),
                );
                false
            }
        }
    }

    /// Snapshot the control plane into a [`Checkpoint`].
    ///
    /// Counters are folded **as if every live and draining VRI retired with
    /// total loss**: per-VRI dispatched/returned/drops move into the
    /// `retired_*` aggregates and in-flight frames (data + egress queues)
    /// are charged to both `crash_lost` (drop taxonomy) and `queue_lost`
    /// (dispatch identity). A restore therefore satisfies all four
    /// conservation identities by construction — the frames a restart
    /// genuinely loses are accounted, not wished away.
    pub fn build_checkpoint(&self, now_ns: u64) -> Checkpoint {
        // Every instance (and each shared ring, which folds like one more:
        // a restore starts with a fresh, empty ring) moves into the retired
        // aggregates, its parked frames charged as restart loss.
        let mut stats = self.stats.read();
        let books = self.vri_books();
        stats.retired_dispatched = books.dispatched;
        stats.retired_returned = books.returned;
        stats.retired_dispatch_drops = books.dispatch_drops;
        stats.crash_lost += books.queued();
        stats.queue_lost += books.queued();
        // Affinity is checkpointed against the VRI's *slot* within the VR
        // (ids are not stable across restarts); draining/dead VRIs have left
        // the balance set and their flows are dropped here.
        let mut vrs = Vec::with_capacity(self.vrs.len());
        for vr in &self.vrs {
            let live: Vec<VriId> = vr.vris.iter().map(|v| v.id).collect();
            let flows = vr.balancer.export_flows(&live);
            vrs.push(VrCheckpoint {
                name: vr.name.clone(),
                frames_in: vr.frames_in,
                frames_out: vr.frames_out,
                admitted: vr.admitted,
                shed: vr.shed,
                weight: vr.weight,
                shed_credit: vr.shed_credit,
                crash_streak: vr.crash_streak,
                last_crash_ns: vr.last_crash_ns,
                backoff_until_ns: vr.backoff_until_ns,
                respawn_deficit: vr.respawn_deficit as u32,
                quarantined: vr.quarantined,
                pressure: vr.pressure.level_gauge() as u8,
                vri_slots: vr.vris.len() as u32,
                flows,
            });
        }
        Checkpoint { epoch: self.epoch, ts_ns: now_ns, stats, next_vri: self.next_vri, vrs }
    }

    /// Warm-restart entry point: load `path` and resume from it.
    ///
    /// A rejected checkpoint (corrupt, truncated, unreadable) is **not**
    /// fatal: the monitor logs `checkpoint_rejected`, bumps the counter and
    /// returns the error so the caller can proceed with a cold start.
    /// On success returns the new epoch (`checkpoint.epoch + 1`).
    pub fn restore_from(
        &mut self,
        path: &Path,
        host: &mut dyn VriHost,
    ) -> Result<u32, CheckpointError> {
        let now_ns = self.clock.now_ns();
        match Checkpoint::load(path) {
            Ok(ck) => Ok(self.apply_checkpoint(&ck, now_ns, host)),
            Err(e) => {
                self.checkpoint_rejected.inc();
                self.registry.push_event(
                    now_ns,
                    format!("checkpoint_rejected path={} err={e}", path.display()),
                );
                Err(e)
            }
        }
    }

    /// Bring VR `idx` back from its checkpointed state: frame books,
    /// supervisor and pressure state, VRI population, flow affinity. A
    /// restart (`takeover == false`) makes the VR's books the checkpoint's; a
    /// takeover adds them to this shard's own history with the VR (which shed
    /// the VR's frames while unowned — that stays on the ledger) and takes
    /// ownership.
    fn restore_vr(
        &mut self,
        idx: usize,
        vrck: &VrCheckpoint,
        takeover: bool,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) {
        let vr = &mut self.vrs[idx];
        if takeover {
            vr.owned = true;
        } else {
            (vr.frames_in, vr.frames_out, vr.admitted, vr.shed) = (0, 0, 0, 0);
        }
        vr.frames_in += vrck.frames_in;
        vr.frames_out += vrck.frames_out;
        vr.admitted += vrck.admitted;
        vr.shed += vrck.shed;
        vr.shed_credit = vrck.shed_credit;
        vr.crash_streak = vrck.crash_streak;
        vr.last_crash_ns = vrck.last_crash_ns;
        vr.backoff_until_ns = vrck.backoff_until_ns;
        vr.quarantined = vrck.quarantined;
        vr.pressure = PressureTracker::restore(match vrck.pressure {
            0 => PressureLevel::Normal,
            1 => PressureLevel::Pressured,
            _ => PressureLevel::Overloaded,
        });
        self.set_weight(idx, vrck.weight);
        if !vrck.quarantined {
            // Fewer cores or less memory than the checkpoint had leave it short.
            self.resize_vr(self.vrs[idx].id, vrck.vri_slots as usize, now_ns, host);
        }
        // Restored *after* the population grows back, so the refills above
        // do not absorb the deficit as phantom respawns.
        self.vrs[idx].respawn_deficit = vrck.respawn_deficit as usize;
        for f in vrck.flows.iter() {
            if let Some(v) = self.vrs[idx].vris.get(f.slot as usize) {
                let vri = v.id;
                self.vrs[idx].balancer.import_flow(f.key, vri, f.last_seen_ns);
            }
        }
    }

    /// Resume control-plane state from a decoded checkpoint: counter
    /// baselines, supervisor state, pressure hysteresis, VRI population and
    /// flow affinity. VRs are matched **by name** against the already
    /// re-registered set; checkpointed VRs with no live counterpart are
    /// logged and skipped.
    pub fn apply_checkpoint(
        &mut self,
        ck: &Checkpoint,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> u32 {
        let matched = self.retire_surplus(ck.vrs.iter(), "checkpoint", now_ns, host);
        self.stats.store(&ck.stats);
        self.next_vri = self.next_vri.max(ck.next_vri);
        self.epoch = ck.epoch.wrapping_add(1);
        for (idx, vrck) in matched {
            self.restore_vr(idx, vrck, false, now_ns, host);
        }
        self.registry.push_event(
            now_ns,
            format!("monitor-restored epoch={} checkpoint_ts_ns={}", self.epoch, ck.ts_ns),
        );
        self.epoch
    }

    /// Match checkpointed VRs to live ones by name (logging each with no
    /// live counterpart as `{what}-vr-unmatched`) and retire what each
    /// matched VR holds above its checkpointed population, at least one
    /// VRI, with its drains. This runs before any VR grows back, so the
    /// cores are free, and before the caller imports books: a VRI retired
    /// afterwards would fold counters the imported books no longer hold.
    /// A quarantined VR is neither shrunk nor grown.
    fn retire_surplus<'a>(
        &mut self,
        vrcks: impl Iterator<Item = &'a VrCheckpoint>,
        what: &str,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> Vec<(usize, &'a VrCheckpoint)> {
        let mut matched = Vec::new();
        for vrck in vrcks {
            let Some(idx) = self.vrs.iter().position(|v| v.name == vrck.name) else {
                self.registry.push_event(now_ns, format!("{what}-vr-unmatched vr={}", vrck.name));
                continue;
            };
            if !vrck.quarantined {
                let keep = self.vrs[idx].vris.len().min(vrck.vri_slots as usize);
                self.resize_vr(self.vrs[idx].id, keep, now_ns, host);
            }
            matched.push((idx, vrck));
        }
        matched
    }

    /// After [`Lvrm::apply_checkpoint`] on a monitor that already ran (an HA
    /// node promoted from its shadow): its VRIs' counters belong to the
    /// books just replaced, so they restart from what the VRIs still hold,
    /// and what they hold joins the new books as admitted. It entered this
    /// dataplane and leaves through it.
    pub(crate) fn carry_live_dataplane(&mut self) {
        for vr in &mut self.vrs {
            let mut held = vr.ring.as_ref().map_or(0, |ring| ring.enqueued);
            let ringed = vr.ring.is_some();
            for v in vr.vris.iter_mut().chain(vr.draining.iter_mut().map(|d| &mut d.adapter)) {
                let own = v.dispatched.wrapping_sub(v.returned);
                held = held.wrapping_add(own);
                // Under the fabric the ring dispatches and the VRIs return,
                // so only the ring's series can carry what the VR holds.
                (v.dispatched, v.returned, v.dispatch_drops) = (if ringed { 0 } else { own }, 0, 0);
            }
            if let Some(ring) = vr.ring.as_mut() {
                (ring.enqueued, ring.drops) = (held, 0);
            }
            (vr.frames_in, vr.admitted) = (vr.frames_in + held, vr.admitted + held);
            self.stats.frames_in.add(held);
        }
    }

    // ---- cluster (HA pair and shard fleet, DESIGN.md §13, §15) ---------

    /// Join the cluster over `links` (`(peer shard id, link)` pairs), using
    /// the knobs in `config.cluster`. Returns `false` (and attaches nothing)
    /// when the config carries no cluster section. A link tagged with this
    /// monitor's own shard leads to its HA partner: the node then starts as
    /// `Backup` and, with no partner on the link, promotes itself after one
    /// master-down interval. Without one it is its shard's master at once.
    ///
    /// Every fleet member declares the same VR universe and calls this with
    /// the same topology, so the version-1 [`ShardMap`] — a rendezvous hash
    /// over the declared VR names — is unanimous without any exchange. VRs
    /// the map assigns elsewhere are immediately disowned: their classified
    /// frames shed at ingress until a takeover re-homes them here.
    pub fn attach_cluster(&mut self, links: Vec<(u32, Box<dyn PeerLink>)>) -> bool {
        let Some(cfg) = self.config.cluster else {
            return false;
        };
        let universe: Vec<(String, Ipv4Addr, u8)> = self
            .vrs
            .iter()
            .map(|vr| {
                let (net, prefix) =
                    vr.subnets.first().copied().unwrap_or((Ipv4Addr::UNSPECIFIED, 0));
                (vr.name.clone(), net, prefix)
            })
            .collect();
        let shards: Vec<u32> = (0..cfg.shards).collect();
        let map = ShardMap::partition(&universe, &shards);
        for vr in &mut self.vrs {
            vr.owned = map.owner_of(&vr.name) == Some(cfg.shard_id);
        }
        let now_ns = self.clock.now_ns();
        self.cluster = Some(Box::new(ClusterNode::new(cfg, map, links, now_ns, &self.registry)));
        self.registry.push_event(
            now_ns,
            format!(
                "cluster-attached shard={} shards={} owned={}",
                cfg.shard_id,
                cfg.shards,
                self.owned_vrs()
            ),
        );
        true
    }

    /// The attached cluster node, if any.
    pub fn cluster(&self) -> Option<&ClusterNode> {
        self.cluster.as_deref()
    }

    /// Mutable access to the attached cluster node (manual failover, tests).
    pub fn cluster_mut(&mut self) -> Option<&mut ClusterNode> {
        self.cluster.as_deref_mut()
    }

    /// VRs this monitor currently owns (all of them outside a fleet). The
    /// per-shard term of the sixth fleet identity:
    /// `Σ owned over shards == vrs declared` at every directory epoch.
    pub fn owned_vrs(&self) -> usize {
        self.vrs.iter().filter(|v| v.owned).count()
    }

    /// Whether the named VR is currently owned (served) by this monitor.
    pub fn vr_owned_by_name(&self, name: &str) -> bool {
        self.vrs.iter().any(|v| v.name == name && v.owned)
    }

    /// Grant or revoke ownership of the named VR. Revocation stops ingress
    /// admission on the next classified burst; the VR's VRIs stay warm so a
    /// later re-grant serves immediately.
    pub fn set_vr_owned_by_name(&mut self, name: &str, owned: bool) {
        if let Some(vr) = self.vrs.iter_mut().find(|v| v.name == name) {
            vr.owned = owned;
        }
    }

    /// Cold-adopt the named VR after a shard takeover with no usable shadow
    /// checkpoint: mark it owned and make sure at least one VRI is up. The
    /// dead shard's in-flight frames were already folded into
    /// `crash_lost`/`queue_lost` when its last checkpoint was built, so the
    /// books the successor starts from are honest — what could not be
    /// recovered is counted as lost, not wished away.
    pub fn adopt_vr_cold(&mut self, name: &str, now_ns: u64, host: &mut dyn VriHost) {
        let Some(idx) = self.vrs.iter().position(|v| v.name == name) else {
            return;
        };
        self.vrs[idx].owned = true;
        if !self.vrs[idx].quarantined {
            self.resize_vr(self.vrs[idx].id, self.vrs[idx].vris.len().max(1), now_ns, host);
        }
    }

    /// Warm-adopt a dead shard's VRs from its last streamed checkpoint.
    ///
    /// Unlike [`Lvrm::apply_checkpoint`] (a restart: the monitor's books
    /// *are* the checkpoint's books), a takeover merges two live histories:
    /// global counters are **added** component-wise — every conservation
    /// identity is a linear equation over the counters, so the sum of two
    /// identity-satisfying states satisfies them too — and only the VRs in
    /// `names` (the share the new map assigns here) are restored. Exactly
    /// one successor per dead shard passes `fold_global = true` (the
    /// rendezvous primary), so the fleet-wide ledger counts the dead
    /// shard's frames exactly once. Returns how many VRs warm-restored.
    pub fn adopt_checkpoint(
        &mut self,
        ck: &Checkpoint,
        names: &[String],
        fold_global: bool,
        now_ns: u64,
        host: &mut dyn VriHost,
    ) -> usize {
        let mine = ck.vrs.iter().filter(|v| names.contains(&v.name));
        let matched = self.retire_surplus(mine, "takeover", now_ns, host);
        if fold_global {
            self.stats.add(&ck.stats);
        }
        let warm = matched.len();
        for (idx, vrck) in matched {
            self.restore_vr(idx, vrck, true, now_ns, host);
        }
        self.registry.push_event(
            now_ns,
            format!(
                "takeover-adopted vrs={warm} fold_global={fold_global} checkpoint_ts_ns={}",
                ck.ts_ns
            ),
        );
        warm
    }
}
