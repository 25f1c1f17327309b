//! Per-VRI load estimation (paper §3.4, Fig. 3.4).
//!
//! "When the VRI adapter forwards a data frame to the VRI, it measures the
//! load by observing the current queue length. It then computes the
//! exponential weighted average queue length of the incoming data queue of
//! each VRI." The pseudocode also sketches an inter-arrival-time variant;
//! both are provided.

use lvrm_ipc::{PressureLevel, Watermarks};
use lvrm_metrics::Ewma;

/// EWMA history weight of the per-VRI load estimator (Fig. 3.4's `weight`).
pub(crate) const ESTIMATOR_WEIGHT: f64 = 7.0;

/// Estimates one VRI's load; consulted by the load balancer on every
/// dispatch ("estimate: called upon receipt of a packet").
pub trait LoadEstimator: Send {
    /// Observe a dispatch to the VRI: the data queue held `queue_len` items
    /// at time `now_ns` (after the push).
    fn on_dispatch(&mut self, queue_len: usize, now_ns: u64);

    /// Observe the VRI's current queue depth *without* a dispatch. Called
    /// for every VRI on every balancing decision (Fig. 3.4's `estimate` runs
    /// "upon receipt of a packet" and reads the ring buffer's data count),
    /// so estimates track reality even for VRIs the balancer is currently
    /// avoiding — otherwise a stale high estimate would freeze and starve a
    /// VRI forever. Estimators keyed on dispatch events ignore this.
    fn observe(&mut self, _queue_len: usize, _now_ns: u64) {}

    /// Current smoothed load. Higher = more loaded. Fresh estimators return
    /// 0 so new VRIs attract traffic immediately.
    fn estimate(&self) -> f64;

    /// Reset all history (VRI recycled).
    fn reset(&mut self);

    fn name(&self) -> &'static str;
}

/// EWMA of the incoming data queue length — the paper's default.
#[derive(Clone, Debug)]
pub struct EwmaQueueLength {
    ewma: Ewma,
}

impl EwmaQueueLength {
    pub fn new(weight: f64) -> EwmaQueueLength {
        EwmaQueueLength { ewma: Ewma::new(weight) }
    }
}

impl LoadEstimator for EwmaQueueLength {
    fn on_dispatch(&mut self, queue_len: usize, _now_ns: u64) {
        self.ewma.update(queue_len as f64);
    }

    fn observe(&mut self, queue_len: usize, _now_ns: u64) {
        self.ewma.update(queue_len as f64);
    }

    fn estimate(&self) -> f64 {
        self.ewma.value_or(0.0)
    }

    fn reset(&mut self) {
        self.ewma.reset();
    }

    fn name(&self) -> &'static str {
        "ewma-queue-length"
    }
}

/// EWMA of inter-arrival times, inverted into a rate so that *higher still
/// means more loaded* (Fig. 3.4's "arrival time" branch measures the gap
/// between consecutive dispatches; short gaps = high load).
#[derive(Clone, Debug)]
pub struct EwmaInterArrival {
    ewma_gap_ns: Ewma,
    last_ns: Option<u64>,
}

impl EwmaInterArrival {
    pub fn new(weight: f64) -> EwmaInterArrival {
        EwmaInterArrival { ewma_gap_ns: Ewma::new(weight), last_ns: None }
    }
}

impl LoadEstimator for EwmaInterArrival {
    fn on_dispatch(&mut self, _queue_len: usize, now_ns: u64) {
        if let Some(prev) = self.last_ns {
            // Fig. 3.4 guards on "current time stamp is valid"; equal or
            // backwards stamps are skipped rather than folded in as zero.
            if now_ns > prev {
                self.ewma_gap_ns.update((now_ns - prev) as f64);
            }
        }
        self.last_ns = Some(now_ns);
    }

    fn estimate(&self) -> f64 {
        // Arrivals per second; 0 until two dispatches have been seen.
        match self.ewma_gap_ns.value() {
            Some(gap) if gap > 0.0 => 1e9 / gap,
            _ => 0.0,
        }
    }

    fn reset(&mut self) {
        self.ewma_gap_ns.reset();
        self.last_ns = None;
    }

    fn name(&self) -> &'static str {
        "ewma-inter-arrival"
    }
}

/// Hysteretic pressure state machine over queue occupancy (overload control,
/// DESIGN.md §8).
///
/// [`Watermarks::classify`] alone would flap between `Pressured` and
/// `Overloaded` while a queue hovers near the high mark; this tracker makes
/// the signal sticky: once `Overloaded`, a VR stays so until occupancy falls
/// back to the *low* mark, so shedding decisions don't oscillate burst to
/// burst.
#[derive(Clone, Copy, Debug, Default)]
pub struct PressureTracker {
    level: PressureLevel,
}

impl PressureTracker {
    /// Fold in the worst observed occupancy fraction for this refresh and
    /// return the (possibly unchanged) level.
    ///
    /// * `occupancy >= high` → `Overloaded`;
    /// * `occupancy <= low` → `Normal`;
    /// * in between → `Overloaded` stays `Overloaded` (hysteresis), anything
    ///   else reads `Pressured`.
    pub fn update(&mut self, occupancy: f64, wm: &Watermarks) -> PressureLevel {
        self.level = if occupancy >= wm.high {
            PressureLevel::Overloaded
        } else if occupancy <= wm.low {
            PressureLevel::Normal
        } else if self.level == PressureLevel::Overloaded {
            PressureLevel::Overloaded
        } else {
            PressureLevel::Pressured
        };
        self.level
    }

    /// Current level, as of the last [`update`](PressureTracker::update).
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Numeric encoding of the current level for the pressure gauge
    /// (0 normal, 1 pressured, 2 overloaded).
    pub fn level_gauge(&self) -> f64 {
        match self.level {
            PressureLevel::Normal => 0.0,
            PressureLevel::Pressured => 1.0,
            PressureLevel::Overloaded => 2.0,
        }
    }

    /// Reset to `Normal` (VR recycled).
    pub fn reset(&mut self) {
        self.level = PressureLevel::Normal;
    }

    /// Rebuild a tracker pinned at a checkpointed level (warm restart):
    /// hysteresis history survives the monitor, so a VR that checkpointed
    /// `Overloaded` stays sticky until occupancy truly falls to the low mark.
    pub fn restore(level: PressureLevel) -> PressureTracker {
        PressureTracker { level }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_tracker_is_hysteretic() {
        let wm = Watermarks::new(0.25, 0.75);
        let mut t = PressureTracker::default();
        assert_eq!(t.level(), PressureLevel::Normal);
        assert_eq!(t.update(0.5, &wm), PressureLevel::Pressured, "rising through the band");
        assert_eq!(t.update(0.8, &wm), PressureLevel::Overloaded);
        assert_eq!(t.update(0.5, &wm), PressureLevel::Overloaded, "sticky inside the band");
        assert_eq!(t.update(0.74, &wm), PressureLevel::Overloaded, "still sticky near the top");
        assert_eq!(t.update(0.25, &wm), PressureLevel::Normal, "released at the low mark");
        assert_eq!(t.update(0.5, &wm), PressureLevel::Pressured, "band reads pressured again");
        t.update(0.9, &wm);
        t.reset();
        assert_eq!(t.level(), PressureLevel::Normal);
    }

    #[test]
    fn queue_length_tracks_backlog() {
        let mut e = EwmaQueueLength::new(3.0);
        assert_eq!(e.estimate(), 0.0);
        e.on_dispatch(4, 0);
        assert_eq!(e.estimate(), 4.0);
        e.on_dispatch(8, 1);
        // (8 + 3*4)/4 = 5
        assert!((e.estimate() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn observe_decays_stale_estimates() {
        // A VRI that stops receiving dispatches must not keep its old high
        // estimate: observation of its (empty) queue drags it back down.
        let mut e = EwmaQueueLength::new(3.0);
        e.on_dispatch(40, 0);
        assert!(e.estimate() > 30.0);
        for t in 1..60 {
            e.observe(0, t);
        }
        assert!(e.estimate() < 0.01, "stale estimate must decay: {}", e.estimate());
        // The inter-arrival estimator ignores observation by design.
        let mut ia = EwmaInterArrival::new(0.0);
        ia.on_dispatch(0, 0);
        ia.on_dispatch(0, 1_000);
        let before = ia.estimate();
        ia.observe(0, 2_000);
        assert_eq!(ia.estimate(), before);
    }

    #[test]
    fn queue_length_reset_clears() {
        let mut e = EwmaQueueLength::new(1.0);
        e.on_dispatch(10, 0);
        e.reset();
        assert_eq!(e.estimate(), 0.0);
    }

    #[test]
    fn inter_arrival_estimates_rate() {
        let mut e = EwmaInterArrival::new(0.0);
        let mut t = 0;
        for _ in 0..10 {
            e.on_dispatch(0, t);
            t += 1_000_000; // 1 kHz
        }
        assert!((e.estimate() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn inter_arrival_ignores_non_monotonic_stamps() {
        let mut e = EwmaInterArrival::new(0.0);
        e.on_dispatch(0, 100);
        e.on_dispatch(0, 100); // duplicate
        e.on_dispatch(0, 50); // backwards
        assert_eq!(e.estimate(), 0.0, "no valid gap was observed");
    }

    #[test]
    fn higher_load_reads_higher_for_both() {
        // Queue-length: longer queues => larger estimate.
        let mut q1 = EwmaQueueLength::new(1.0);
        let mut q2 = EwmaQueueLength::new(1.0);
        for i in 0..10 {
            q1.on_dispatch(2, i);
            q2.on_dispatch(20, i);
        }
        assert!(q2.estimate() > q1.estimate());
        // Inter-arrival: faster arrivals => larger estimate.
        let mut a1 = EwmaInterArrival::new(1.0);
        let mut a2 = EwmaInterArrival::new(1.0);
        for i in 0..10u64 {
            a1.on_dispatch(0, i * 1_000_000);
            a2.on_dispatch(0, i * 10_000);
        }
        assert!(a2.estimate() > a1.estimate());
    }
}
