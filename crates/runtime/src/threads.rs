//! VRIs as OS threads: the real [`VriHost`].
//!
//! The paper forks a process per VRI and binds it to its core; we spawn a
//! thread per VRI (see DESIGN.md's substitution table — the isolation the
//! experiments rely on is *core* isolation, which threads give us equally).
//! Each thread pins itself and calls [`VriService::step`], the VRI burst
//! every host runs, until the host calls it off.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lvrm_core::clock::MonotonicClock;
use lvrm_core::fault::FaultInjectable;
use lvrm_core::host::{VriHost, VriSpec};
use lvrm_core::repl::ReplicaLedger;
pub use lvrm_core::vri::CtrlRole;
use lvrm_core::vri::{LvrmAdapter, VriService};
use lvrm_core::{VrId, VriId};
use lvrm_ipc::VriEndpoint;
use lvrm_net::Frame;
use lvrm_router::VirtualRouter;
use parking_lot::Mutex;

use crate::affinity::pin_to_core;

/// What the host tells a VRI thread, and how fault injection reaches it.
#[derive(Default)]
struct Flags {
    stop: AtomicBool,
    /// Fault injection: exit abruptly, abandoning queued frames.
    crash: AtomicBool,
    /// Fault injection: wedge the service loop (no frames, no heartbeats).
    stall: AtomicBool,
    /// Fault injection: suppress heartbeats while servicing normally.
    ctrl_loss: AtomicBool,
}

impl Flags {
    fn exiting(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.crash.load(Ordering::Acquire)
    }
}

struct VriThread {
    vr: VrId,
    vri: VriId,
    flags: Arc<Flags>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Spawns one thread per VRI. Roles for Experiment 1e are assigned to VRIs
/// in spawn order via [`ThreadHost::queue_role`].
pub struct ThreadHost {
    clock: MonotonicClock,
    threads: Vec<VriThread>,
    pending_roles: Vec<CtrlRole>,
    /// How many data frames a VRI pulls per `fromLVRM()` burst (>= 1).
    /// Matches the monitor's `LvrmConfig::batch_size` in the batched
    /// pipeline; 1 reproduces the per-frame service loop.
    pub batch_size: usize,
    /// Frames processed across all VRIs (shared counter for reports).
    pub processed: Arc<AtomicU64>,
    /// Whether any pin attempt failed (diagnostic).
    pub pin_failures: Arc<AtomicU64>,
    /// Endpoints of exited VRI threads, awaiting [`VriHost::reap_endpoint`].
    /// Every thread stashes its endpoint here *before* detaching, so by the
    /// time the supervisor observes a detached endpoint the frames are
    /// already recoverable (no reap race).
    reaped: ReapedEndpoints,
    /// State-compute replication (DESIGN.md §14): each VRI thread keeps a
    /// per-flow [`ReplicaLedger`], flushes `LVSU` batches upstream after
    /// every service burst, and folds sibling batches it receives.
    replicate: bool,
}

type ReapedEndpoints = Arc<Mutex<Vec<(VriId, VriEndpoint<Frame>)>>>;

impl ThreadHost {
    pub fn new(clock: MonotonicClock) -> ThreadHost {
        ThreadHost {
            clock,
            threads: Vec::new(),
            pending_roles: Vec::new(),
            batch_size: 1,
            processed: Arc::new(AtomicU64::new(0)),
            pin_failures: Arc::new(AtomicU64::new(0)),
            reaped: Arc::new(Mutex::new(Vec::new())),
            replicate: false,
        }
    }

    /// Enable the VRI-side replica ledgers (replicated-dispatch VRs need
    /// them; pinned-only hosts skip the per-frame flow accounting).
    pub fn with_replication(mut self) -> ThreadHost {
        self.replicate = true;
        self
    }

    /// Builder-style batch-size override for the batched pipeline.
    pub fn with_batch_size(mut self, batch_size: usize) -> ThreadHost {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Queue a control role for the next spawned VRI.
    pub fn queue_role(&mut self, role: CtrlRole) {
        self.pending_roles.push(role);
    }

    /// Live VRI threads.
    pub fn live(&self) -> usize {
        self.threads.len()
    }

    /// Stop every VRI and join.
    pub fn shutdown(&mut self) {
        for t in &self.threads {
            t.flags.stop.store(true, Ordering::Release);
        }
        for mut t in self.threads.drain(..) {
            if let Some(h) = t.handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ThreadHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl VriHost for ThreadHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        let flags = Arc::new(Flags::default());
        let thread_flags = Arc::clone(&flags);
        let reaped = Arc::clone(&self.reaped);
        let clock = self.clock.clone();
        let processed = Arc::clone(&self.processed);
        let pin_failures = Arc::clone(&self.pin_failures);
        let role = if self.pending_roles.is_empty() {
            CtrlRole::None
        } else {
            self.pending_roles.remove(0)
        };
        let core = spec.core.0 as usize;
        let vri = spec.vri;
        let batch = self.batch_size.max(1);
        let replicate = self.replicate;
        let handle = std::thread::Builder::new()
            .name(format!("{}-{}", spec.vr, spec.vri))
            .spawn(move || {
                let flags = thread_flags;
                if !pin_to_core(core) {
                    pin_failures.fetch_add(1, Ordering::Relaxed);
                }
                // Keep a detach handle outside the adapter so the endpoint
                // can be stashed for reaping *before* the flag flips.
                let attachment = endpoint.attachment();
                let mut svc = VriService::new(LvrmAdapter::new(vri, endpoint), router, role, batch);
                let mut ledger = replicate.then(|| ReplicaLedger::new(vri.0));
                // The service loop runs under `catch_unwind` so a panicking
                // router ends this VRI like a crash — endpoint reapable,
                // supervisor respawns — instead of poisoning the process.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    while !flags.exiting() {
                        if flags.stall.load(Ordering::Acquire) {
                            // Wedged: no servicing, no heartbeats — exactly
                            // what the supervisor's dead-man timer watches.
                            std::hint::spin_loop();
                            continue;
                        }
                        svc.adapter_mut().set_heartbeats(!flags.ctrl_loss.load(Ordering::Acquire));
                        match svc.step(&clock, ledger.as_mut()) {
                            0 => std::hint::spin_loop(),
                            n => {
                                processed.fetch_add(n as u64, Ordering::Relaxed);
                            }
                        }
                    }
                }));
                // Stash-then-detach: whoever observes the detached endpoint
                // can already reap the in-flight frames.
                reaped.lock().push((vri, svc.into_endpoint()));
                attachment.detach();
            })
            .expect("thread spawn");
        self.threads.push(VriThread { vr: spec.vr, vri: spec.vri, flags, handle: Some(handle) });
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        if let Some(i) = self.threads.iter().position(|t| t.vr == vr && t.vri == vri) {
            let mut t = self.threads.remove(i);
            t.flags.stop.store(true, Ordering::Release);
            // A stalled thread ignores everything except stop/crash, so it
            // still honors the kill.
            if let Some(h) = t.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        let mut reaped = self.reaped.lock();
        let pos = reaped.iter().position(|(id, _)| *id == vri)?;
        Some(reaped.remove(pos).1)
    }
}

impl FaultInjectable for ThreadHost {
    fn inject_crash(&mut self, vri: VriId) {
        if let Some(i) = self.threads.iter().position(|t| t.vri == vri) {
            let mut t = self.threads.remove(i);
            t.flags.crash.store(true, Ordering::Release);
            if let Some(h) = t.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn inject_stall(&mut self, vri: VriId, on: bool) {
        if let Some(t) = self.threads.iter().find(|t| t.vri == vri) {
            t.flags.stall.store(on, Ordering::Release);
        }
    }

    fn inject_ctrl_loss(&mut self, vri: VriId, on: bool) {
        if let Some(t) = self.threads.iter().find(|t| t.vri == vri) {
            t.flags.ctrl_loss.store(on, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_core::clock::Clock;
    use lvrm_core::topology::{AffinityMode, CoreId, CoreMap, CoreTopology};
    use lvrm_core::{Lvrm, LvrmConfig};
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn routed_vr() -> Box<dyn VirtualRouter> {
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        Box::new(lvrm_router::FastVr::new("t", routes))
    }

    #[test]
    fn threaded_vri_forwards_frames() {
        let clock = MonotonicClock::new();
        let cores = CoreMap::new(CoreTopology::single_package(1), CoreId(0), AffinityMode::Same);
        let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock.clone());
        let mut host = ThreadHost::new(clock);
        let _vr = lvrm.add_vr("t", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
        assert_eq!(host.live(), 1);
        for _ in 0..100 {
            let f = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 1))
                .udp(1, 2, &[0u8; 10]);
            lvrm.ingress(f, &mut host);
        }
        // Collect with a deadline: the VRI thread races us.
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        while out.len() < 100 && t0.elapsed().as_secs() < 10 {
            lvrm.poll_egress(&mut out);
            std::hint::spin_loop();
        }
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|f| f.egress_if == 1));
        host.shutdown();
    }

    #[test]
    fn crashed_thread_is_reaped_and_respawned() {
        let clock = MonotonicClock::new();
        let cores = CoreMap::new(CoreTopology::single_package(2), CoreId(0), AffinityMode::Same);
        let config = LvrmConfig {
            supervision: true,
            // Real time: generous windows so the test is not flaky under
            // load, tight enough to finish quickly.
            suspect_after_ns: 200_000_000,
            dead_after_ns: 400_000_000,
            allocation_period_ns: 50_000_000,
            ..LvrmConfig::default()
        };
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = ThreadHost::new(clock.clone());
        let _vr = lvrm.add_vr("t", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
        assert_eq!(host.live(), 1);
        let victim = host.threads[0].vri;

        // Park frames in the victim's inbound queue while it is wedged, then
        // crash it: the frames must survive into the respawned instance.
        host.inject_stall(victim, true);
        std::thread::sleep(std::time::Duration::from_millis(20));
        for _ in 0..50 {
            let f = FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 1))
                .udp(1, 2, &[0u8; 10]);
            lvrm.ingress(f, &mut host);
        }
        host.inject_crash(victim);
        assert_eq!(host.live(), 0);

        // Drive the supervisor until it notices the detached endpoint,
        // respawns, and re-dispatches; then collect the frames.
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        while out.len() < 50 && t0.elapsed().as_secs() < 20 {
            lvrm.process_control();
            lvrm.maybe_reallocate(clock.now_ns(), &mut host);
            lvrm.poll_egress(&mut out);
            std::hint::spin_loop();
        }
        assert_eq!(out.len(), 50, "reclaimed frames flow through the respawn");
        assert_eq!(host.live(), 1, "supervisor respawned the VRI");
        let s = &lvrm.stats();
        assert_eq!(s.vri_deaths, 1);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.crash_lost, 0, "endpoint was reapable; nothing lost");
        assert!(s.redispatched >= 50, "queued frames were re-balanced");
        host.shutdown();
    }

    #[test]
    fn kill_vri_joins_the_thread() {
        let clock = MonotonicClock::new();
        let cores = CoreMap::new(CoreTopology::single_package(1), CoreId(0), AffinityMode::Same);
        let mut lvrm = Lvrm::new(LvrmConfig::default(), cores, clock.clone());
        let mut host = ThreadHost::new(clock);
        let vr = lvrm.add_vr("t", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], routed_vr(), &mut host);
        assert_eq!(host.live(), 1);
        // Find the VriId via the host's bookkeeping and kill it directly.
        let vri = host.threads[0].vri;
        host.kill_vri(vr, vri);
        assert_eq!(host.live(), 0);
    }
}
