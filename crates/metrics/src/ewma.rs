//! Exponential weighted moving averages and rate estimators.
//!
//! The paper's load-estimation pseudocode (Fig. 3.4) updates the average as
//!
//! ```text
//! Average_Load <- (current load + weight * Average_Load) / (1 + weight)
//! ```
//!
//! i.e. a convex combination with smoothing factor `alpha = 1 / (1 + weight)`
//! applied to the newest sample. [`Ewma`] implements exactly that recurrence;
//! the first sample initializes the average (the "is valid" guard in the
//! pseudocode).

/// Exponential weighted moving average in the paper's parameterization.
#[derive(Clone, Debug)]
pub struct Ewma {
    /// The paper's `weight` (history weight); `alpha = 1 / (1 + weight)`.
    weight: f64,
    avg: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with the paper's `weight` parameter (must be >= 0).
    /// `weight = 0` tracks the latest sample exactly; larger is smoother.
    pub fn new(weight: f64) -> Ewma {
        assert!(weight >= 0.0 && weight.is_finite(), "weight must be finite and >= 0");
        Ewma { weight, avg: None }
    }

    /// Feed one sample; returns the updated average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.avg {
            None => sample,
            Some(avg) => (sample + self.weight * avg) / (1.0 + self.weight),
        };
        self.avg = Some(next);
        next
    }

    /// The current average (`None` before the first sample).
    pub fn value(&self) -> Option<f64> {
        self.avg
    }

    /// Current average, or `default` before the first sample.
    pub fn value_or(&self, default: f64) -> f64 {
        self.avg.unwrap_or(default)
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.avg = None;
    }

    /// True once at least one sample has been absorbed.
    pub fn is_valid(&self) -> bool {
        self.avg.is_some()
    }
}

/// Arrival-rate estimator: counts events in fixed windows and smooths the
/// per-window rate with an [`Ewma`]. This is the "exponential weighted
/// average arrival rate of incoming data frames" the VR monitor compares
/// against its thresholds (§3.2).
#[derive(Clone, Debug)]
pub struct RateEstimator {
    window_ns: u64,
    window_start: Option<u64>,
    count_in_window: u64,
    ewma: Ewma,
}

impl RateEstimator {
    /// `window_ns` is the sampling window; `weight` the EWMA history weight.
    pub fn new(window_ns: u64, weight: f64) -> RateEstimator {
        assert!(window_ns > 0, "window must be positive");
        RateEstimator { window_ns, window_start: None, count_in_window: 0, ewma: Ewma::new(weight) }
    }

    /// Record one event at `now_ns`.
    pub fn record(&mut self, now_ns: u64) {
        self.record_n(now_ns, 1);
    }

    /// Record `n` events that share the timestamp `now_ns` (a burst): the
    /// same as `n` calls of [`RateEstimator::record`], in one step.
    pub fn record_n(&mut self, now_ns: u64, n: u64) {
        self.advance(now_ns);
        self.count_in_window += n;
    }

    /// Close any windows that have fully elapsed by `now_ns`, feeding their
    /// rates into the EWMA. Call this from the control loop even when no
    /// events arrive, so silence drives the rate toward zero.
    pub fn advance(&mut self, now_ns: u64) {
        let start = *self.window_start.get_or_insert(now_ns);
        if now_ns < start {
            return; // out-of-order timestamp; ignore
        }
        let mut start = start;
        while now_ns - start >= self.window_ns {
            let rate = self.count_in_window as f64 * 1e9 / self.window_ns as f64;
            self.ewma.update(rate);
            self.count_in_window = 0;
            start += self.window_ns;
        }
        self.window_start = Some(start);
    }

    /// Smoothed events-per-second estimate.
    pub fn rate_per_sec(&self) -> f64 {
        self.ewma.value_or(0.0)
    }

    /// Forget the smoothed rate and any partial window, but keep the window
    /// anchor. Dropping the anchor would let the next `record()` re-anchor
    /// time at whatever (possibly stale) timestamp it carries; a later
    /// `advance()` at wall time would then close every window in between as
    /// empty and flood the fresh EWMA with zeros. Keeping the anchor means
    /// stale timestamps after a reset fall under the normal out-of-order
    /// policy (ignored) instead.
    pub fn reset(&mut self) {
        self.count_in_window = 0;
        self.ewma.reset();
    }
}

/// Service-rate estimator: the average **departure rate** of a VRI's
/// incoming data queue, measured from the gaps between consecutive calls of
/// `fromLVRM()` while the VRI is busy (§3.6 — "it measures the service rate
/// by observing the service time between the current call and the next call
/// of the function fromLVRM()"). A call that returned a burst of `n` frames
/// is followed by a gap that served all `n`, so the gap is one sample of
/// `gap / n`; the per-frame loop is the `n = 1` case.
///
/// The paper prefers this over `getrusage()` CPU load because it is directly
/// comparable with the arrival rate.
#[derive(Clone, Debug)]
pub struct ServiceRateEstimator {
    /// Where the service interval now running began: the last
    /// [`ServiceRateEstimator::record_departures`], unless the VRI has been
    /// idle since.
    last_departure_ns: Option<u64>,
    /// EWMA over service *times* (ns); rate is its reciprocal.
    service_time: Ewma,
    /// Per-frame service times longer than this mean the VRI went idle, not
    /// slow; they are discarded so idleness does not deflate the estimate.
    idle_cutoff_ns: u64,
}

impl ServiceRateEstimator {
    pub fn new(weight: f64, idle_cutoff_ns: u64) -> ServiceRateEstimator {
        ServiceRateEstimator {
            last_departure_ns: None,
            service_time: Ewma::new(weight),
            idle_cutoff_ns,
        }
    }

    /// The queue was observed empty: the next departure gap would measure
    /// idleness, not service time, so forget the last departure.
    pub fn note_idle(&mut self) {
        self.last_departure_ns = None;
    }

    /// Record that `n` frames left service between the previous call and
    /// `now_ns`, which also starts the next interval. `n = 0` only does the
    /// latter: it marks where a burst pulled at `now_ns` began.
    pub fn record_departures(&mut self, now_ns: u64, n: u64) {
        if let Some(prev) = self.last_departure_ns.filter(|_| n > 0) {
            let per_frame = now_ns.saturating_sub(prev) as f64 / n as f64;
            if per_frame > 0.0 && per_frame <= self.idle_cutoff_ns as f64 {
                self.service_time.update(per_frame);
            }
        }
        self.last_departure_ns = Some(now_ns);
    }

    /// Smoothed frames-per-second service rate (`None` until an interval
    /// shorter than the idle cutoff per frame has been recorded).
    pub fn rate_per_sec(&self) -> Option<f64> {
        self.service_time.value().map(|t| 1e9 / t)
    }

    pub fn reset(&mut self) {
        self.last_departure_ns = None;
        self.service_time.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(7.0);
        assert!(!e.is_valid());
        assert_eq!(e.update(10.0), 10.0);
        assert!(e.is_valid());
    }

    #[test]
    fn paper_recurrence() {
        // avg = (current + w*avg) / (1 + w) with w = 3:
        let mut e = Ewma::new(3.0);
        e.update(8.0);
        let v = e.update(4.0); // (4 + 3*8)/4 = 7
        assert!((v - 7.0).abs() < 1e-12);
    }

    #[test]
    fn weight_zero_tracks_latest() {
        let mut e = Ewma::new(0.0);
        e.update(100.0);
        assert_eq!(e.update(5.0), 5.0);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(9.0);
        e.update(0.0);
        for _ in 0..2000 {
            e.update(50.0);
        }
        assert!((e.value().unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn negative_weight_rejected() {
        let _ = Ewma::new(-1.0);
    }

    #[test]
    fn rate_estimator_measures_cbr() {
        // 1000 events/s for 5 seconds in 100 ms windows.
        let mut r = RateEstimator::new(100_000_000, 1.0);
        let mut t = 0u64;
        for _ in 0..5000 {
            r.record(t);
            t += 1_000_000; // 1 ms apart => 1000/s
        }
        r.advance(t);
        assert!((r.rate_per_sec() - 1000.0).abs() / 1000.0 < 0.05, "{}", r.rate_per_sec());
    }

    #[test]
    fn record_n_equals_n_records_at_one_timestamp() {
        // Bursts that open a window, land mid-window and cross several.
        let (mut each, mut bulk) =
            (RateEstimator::new(1_000_000, 3.0), RateEstimator::new(1_000_000, 3.0));
        for (t, n) in [(0u64, 32u64), (400_000, 7), (1_000_000, 1), (5_500_000, 32), (5_400_000, 3)]
        {
            for _ in 0..n {
                each.record(t);
            }
            bulk.record_n(t, n);
            assert_eq!(bulk.rate_per_sec(), each.rate_per_sec());
        }
        each.advance(9_000_000);
        bulk.advance(9_000_000);
        assert_eq!(bulk.rate_per_sec(), each.rate_per_sec());
    }

    #[test]
    fn rate_decays_to_zero_when_idle() {
        let mut r = RateEstimator::new(100_000_000, 1.0);
        for i in 0..100 {
            r.record(i * 1_000_000);
        }
        // 10 s of silence.
        r.advance(10_000_000_000);
        assert!(r.rate_per_sec() < 1.0, "{}", r.rate_per_sec());
    }

    #[test]
    fn rate_ignores_out_of_order_timestamps() {
        let mut r = RateEstimator::new(1_000_000, 1.0);
        r.record(5_000_000);
        r.record(1_000_000); // earlier than window start: not crash, counted
        let _ = r.rate_per_sec();
    }

    #[test]
    fn rate_reset_clears_history() {
        let mut r = RateEstimator::new(100_000_000, 1.0);
        for i in 0..100 {
            r.record(i * 1_000_000);
        }
        r.advance(200_000_000);
        assert!(r.rate_per_sec() > 0.0);
        r.reset();
        assert_eq!(r.rate_per_sec(), 0.0);
    }

    #[test]
    fn rate_reset_mid_window_keeps_the_time_anchor() {
        // Regression: reset() used to drop the window anchor, so a stale
        // timestamp recorded afterwards re-anchored time in the past and the
        // next advance() at wall time closed ~40 empty windows, burying the
        // one real sample under a flood of zero-rate windows.
        let mut r = RateEstimator::new(100_000_000, 1.0);
        for i in 0..50 {
            r.record(5_000_000_000 + i * 1_000_000); // anchor time around t=5s
        }
        r.reset();
        r.record(1_000_000_000); // stale event from t=1s must NOT re-anchor time
        r.advance(5_100_000_000); // one real window elapses at wall time
                                  // Fixed: the stale event counts into the current (t=5s) window, one
                                  // window closes, rate = 10/s. Buggy: 41 windows close (40 of them
                                  // empty) and the rate is 10/2^40 ≈ 0.
        assert!(r.rate_per_sec() > 1.0, "stale record collapsed rate: {}", r.rate_per_sec());
    }

    #[test]
    fn service_rate_from_departure_gaps() {
        // Departures every 16.67 us => 60 Kfps (the paper's dummy-load rate).
        let mut s = ServiceRateEstimator::new(4.0, 1_000_000);
        let mut t = 0u64;
        for _ in 0..100 {
            t += 16_667;
            s.record_departures(t, 1);
        }
        let rate = s.rate_per_sec().unwrap();
        assert!((rate - 60_000.0).abs() / 60_000.0 < 0.01, "{rate}");
    }

    #[test]
    fn service_rate_skips_idle_gaps() {
        let mut s = ServiceRateEstimator::new(0.0, 1_000_000);
        s.record_departures(0, 1);
        s.record_departures(10_000, 1); // 10 us busy gap
        s.record_departures(2_000_000_000, 1); // 2 s idle gap: ignored
        let rate = s.rate_per_sec().unwrap();
        assert!((rate - 100_000.0).abs() < 1.0, "{rate}");
    }

    #[test]
    fn note_idle_breaks_the_gap_chain() {
        let mut s = ServiceRateEstimator::new(0.0, u64::MAX);
        s.record_departures(0, 1);
        s.record_departures(10_000, 1); // 100 Kfps busy gap
        s.note_idle();
        // A long wait follows, but the gap after idleness is not counted.
        s.record_departures(500_000_000, 1);
        let rate = s.rate_per_sec().unwrap();
        assert!((rate - 100_000.0).abs() < 1.0, "idle gap polluted the rate: {rate}");
    }

    #[test]
    fn a_burst_at_even_spacing_rates_like_its_frames_one_by_one() {
        for n in [1u64, 32, 256] {
            let (mut each, mut burst) = (
                ServiceRateEstimator::new(4.0, 1_000_000),
                ServiceRateEstimator::new(4.0, 1_000_000),
            );
            let mut t = 5_000;
            for _ in 0..3 {
                // Both pull at `t`; one stamps every frame, one the burst.
                each.record_departures(t, 0);
                burst.record_departures(t, 0);
                for i in 1..=n {
                    each.record_departures(t + i * 16_667, 1);
                }
                t += n * 16_667;
                burst.record_departures(t, n);
            }
            let (each, burst) = (each.rate_per_sec().unwrap(), burst.rate_per_sec().unwrap());
            assert!((each - burst).abs() / each < 1e-9, "n={n}: {each} vs {burst}");
        }
    }

    #[test]
    fn a_vri_that_drains_its_queue_between_bursts_still_has_a_rate() {
        // Every pull empties the queue, so every pull is followed by an empty
        // one. Stamped per frame, a one-frame burst never closed a gap; the
        // pull-to-pull interval is the service time whatever the burst size.
        for n in [1u64, 32] {
            let mut s = ServiceRateEstimator::new(4.0, 1_000_000);
            let mut t = 0;
            for _ in 0..50 {
                s.record_departures(t, 0); // pulled n
                t += n * 20_000;
                s.record_departures(t, n); // next reading: they are done
                s.note_idle(); // pulled nothing
                t += 3_000_000; // starved for 3 ms
            }
            let rate = s.rate_per_sec().expect("a rate");
            assert!((rate - 50_000.0).abs() < 1e-6, "n={n}: {rate}");
        }
    }

    #[test]
    fn idle_cutoff_is_per_frame() {
        // 256 frames at 100 us each: 25.6 ms for the burst is not idleness.
        let mut s = ServiceRateEstimator::new(0.0, 10_000_000);
        s.record_departures(0, 0);
        s.record_departures(25_600_000, 256);
        assert!((s.rate_per_sec().unwrap() - 10_000.0).abs() < 1e-6);
        s.record_departures(25_600_000 + 11_000_000, 1); // 11 ms for one: idle
        assert!((s.rate_per_sec().unwrap() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn service_rate_none_before_two_departures() {
        let mut s = ServiceRateEstimator::new(1.0, 1_000_000);
        assert!(s.rate_per_sec().is_none());
        s.record_departures(100, 1);
        assert!(s.rate_per_sec().is_none());
    }
}
