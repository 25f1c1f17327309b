//! Core-allocation policies (paper §3.2, Fig. 3.2).
//!
//! The VR monitor periodically (≥1 s apart) asks a policy whether each VR
//! should gain or lose a core. The paper's pseudocode:
//!
//! ```text
//! for each VR:
//!   if arrival rate <= threshold(service rate w/ 1 less VRIs):  destroy VRI
//!   else if threshold(service rate) <= arrival rate:            create VRI
//! ```
//!
//! With **fixed thresholds**, `threshold(c VRIs) = c × per-core-rate` (a
//! configured constant — Experiment 2c uses 60 Kfps per core). With
//! **dynamic thresholds**, the per-core capacity is the *measured* service
//! rate of the VR's VRIs, so VRs with heavier per-frame work automatically
//! earn more cores (Experiment 2e's 1:2 service-rate ratio).

use lvrm_ipc::PressureLevel;

/// A VR's load picture at decision time.
#[derive(Clone, Copy, Debug)]
pub struct VrLoadView {
    /// Smoothed arrival rate, frames/second (§3.2's EWMA arrival rate).
    pub arrival_rate: f64,
    /// Measured per-VRI service rate, frames/second, when the dynamic-
    /// threshold machinery has a valid estimate (§3.6).
    pub service_rate_per_vri: Option<f64>,
    /// VRIs (= cores) currently allocated to the VR.
    pub current_vris: usize,
    /// Watermark-derived queue pressure from the last burst refresh
    /// (DESIGN.md §8). `Overloaded` means at least one data queue crossed the
    /// high watermark and has not drained back below the low one — direct
    /// evidence the smoothed rates understate demand.
    pub pressure: PressureLevel,
}

/// The policy's verdict for one VR at one decision point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocDecision {
    /// Allocate one more core (spawn a VRI).
    Grow,
    /// Release one core (kill a VRI).
    Shrink,
    /// Keep the current allocation.
    Hold,
}

impl AllocDecision {
    /// Stable lowercase name (event-log and metrics surface).
    pub fn name(self) -> &'static str {
        match self {
            AllocDecision::Grow => "grow",
            AllocDecision::Shrink => "shrink",
            AllocDecision::Hold => "hold",
        }
    }
}

/// A core-allocation policy. Stateless policies are the norm; the trait
/// takes `&mut self` so adaptive policies can keep history.
pub trait CoreAllocator: Send {
    fn decide(&mut self, vr: &VrLoadView) -> AllocDecision;
    fn name(&self) -> &'static str;
}

/// Fixed approach: "pre-assigns a fixed set of cores to a VR when the VR
/// first starts". Grows to the target, then never moves.
#[derive(Clone, Copy, Debug)]
pub struct FixedAllocator {
    pub cores: usize,
}

impl FixedAllocator {
    pub fn new(cores: usize) -> FixedAllocator {
        assert!(cores > 0, "a VR needs at least one core");
        FixedAllocator { cores }
    }
}

impl CoreAllocator for FixedAllocator {
    fn decide(&mut self, vr: &VrLoadView) -> AllocDecision {
        use std::cmp::Ordering::*;
        match vr.current_vris.cmp(&self.cores) {
            Less => AllocDecision::Grow,
            Greater => AllocDecision::Shrink,
            Equal => AllocDecision::Hold,
        }
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Dynamic approach with fixed thresholds: one configured per-core rate.
///
/// Experiment 2c: "we allocate c CPU cores to the VR if the aggregate
/// traffic rate is 60(c-1) and 60c Kfps" — i.e. grow when the arrival rate
/// reaches `current × per_core_rate`, shrink when it falls to or below
/// `(current - 1) × per_core_rate`.
#[derive(Clone, Copy, Debug)]
pub struct DynamicFixedThreshold {
    /// Assumed per-core service capacity, frames/second.
    pub per_core_rate: f64,
}

impl DynamicFixedThreshold {
    pub fn new(per_core_rate: f64) -> DynamicFixedThreshold {
        assert!(per_core_rate > 0.0);
        DynamicFixedThreshold { per_core_rate }
    }

    fn threshold(&self, vris: usize) -> f64 {
        vris as f64 * self.per_core_rate
    }
}

impl CoreAllocator for DynamicFixedThreshold {
    fn decide(&mut self, vr: &VrLoadView) -> AllocDecision {
        let c = vr.current_vris;
        if c == 0 {
            return AllocDecision::Grow;
        }
        // Backed-up queues trump the smoothed rates: an EWMA lags a step
        // increase by several windows, but a queue past the high watermark is
        // proof the current allocation is not keeping up *now*.
        if vr.pressure == PressureLevel::Overloaded {
            return AllocDecision::Grow;
        }
        // Fig. 3.2 shrink guard first: "arrival <= threshold(service w/ 1
        // less VRIs)" — but never below one VRI.
        if c > 1 && vr.arrival_rate <= self.threshold(c - 1) {
            return AllocDecision::Shrink;
        }
        // Grow guard: "threshold(service rate) <= arrival".
        if vr.arrival_rate >= self.threshold(c) {
            return AllocDecision::Grow;
        }
        AllocDecision::Hold
    }

    fn name(&self) -> &'static str {
        "dynamic-fixed"
    }
}

/// Dynamic approach with dynamic thresholds: thresholds come from the
/// measured departure rate instead of a constant, so "VRs with different
/// service rates" (Experiment 2e) are handled without manual tuning. Falls
/// back to a configured bootstrap rate until a measurement exists.
#[derive(Clone, Copy, Debug)]
pub struct DynamicServiceRate {
    /// Used until the service-rate estimator produces a value.
    pub bootstrap_rate: f64,
}

impl DynamicServiceRate {
    pub fn new(bootstrap_rate: f64) -> DynamicServiceRate {
        assert!(bootstrap_rate > 0.0);
        DynamicServiceRate { bootstrap_rate }
    }
}

impl CoreAllocator for DynamicServiceRate {
    fn decide(&mut self, vr: &VrLoadView) -> AllocDecision {
        let c = vr.current_vris;
        if c == 0 {
            return AllocDecision::Grow;
        }
        // As in [`DynamicFixedThreshold`]: watermark overload is direct
        // evidence the rates understate demand.
        if vr.pressure == PressureLevel::Overloaded {
            return AllocDecision::Grow;
        }
        let per_vri = vr.service_rate_per_vri.unwrap_or(self.bootstrap_rate);
        if per_vri <= 0.0 {
            return AllocDecision::Hold;
        }
        // "If the traffic load of VR is lower than the service rate with one
        // less VRIs of VR, then VR monitor deallocates a CPU core."
        if c > 1 && vr.arrival_rate <= per_vri * (c - 1) as f64 {
            return AllocDecision::Shrink;
        }
        // "If the current traffic load of the VR is above the current
        // service rate, then the VR monitor allocates an additional core."
        if vr.arrival_rate >= per_vri * c as f64 {
            return AllocDecision::Grow;
        }
        AllocDecision::Hold
    }

    fn name(&self) -> &'static str {
        "dynamic-service-rate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(arrival: f64, vris: usize) -> VrLoadView {
        VrLoadView {
            arrival_rate: arrival,
            service_rate_per_vri: None,
            current_vris: vris,
            pressure: PressureLevel::Normal,
        }
    }

    #[test]
    fn fixed_grows_to_target_then_holds() {
        let mut a = FixedAllocator::new(3);
        assert_eq!(a.decide(&view(0.0, 1)), AllocDecision::Grow);
        assert_eq!(a.decide(&view(1e9, 3)), AllocDecision::Hold);
        assert_eq!(a.decide(&view(0.0, 3)), AllocDecision::Hold);
        assert_eq!(a.decide(&view(0.0, 4)), AllocDecision::Shrink);
    }

    #[test]
    fn dynamic_fixed_matches_experiment_2c_bands() {
        // 60 Kfps per core: rate S in (60(c-1), 60c) Kfps should settle at
        // c cores — grow below c, hold at c, shrink above c.
        let mut a = DynamicFixedThreshold::new(60_000.0);
        // S = 150 Kfps wants 3 cores.
        assert_eq!(a.decide(&view(150_000.0, 2)), AllocDecision::Grow);
        assert_eq!(a.decide(&view(150_000.0, 3)), AllocDecision::Hold);
        assert_eq!(a.decide(&view(150_000.0, 4)), AllocDecision::Shrink);
    }

    #[test]
    fn dynamic_fixed_exact_threshold_grows() {
        let mut a = DynamicFixedThreshold::new(60_000.0);
        // Arrival exactly at capacity triggers growth ("threshold <= arrival").
        assert_eq!(a.decide(&view(60_000.0, 1)), AllocDecision::Grow);
    }

    #[test]
    fn dynamic_fixed_never_shrinks_below_one() {
        let mut a = DynamicFixedThreshold::new(60_000.0);
        assert_eq!(a.decide(&view(0.0, 1)), AllocDecision::Hold);
        assert_eq!(a.decide(&view(0.0, 0)), AllocDecision::Grow);
    }

    #[test]
    fn service_rate_uses_measurement_over_bootstrap() {
        let mut a = DynamicServiceRate::new(60_000.0);
        // Measured per-VRI capacity is only 30 Kfps (a heavy VR): 100 Kfps
        // of load on 3 VRIs (90 Kfps capacity) must grow, even though the
        // bootstrap 60 Kfps rate would have said hold.
        let vr = VrLoadView {
            arrival_rate: 100_000.0,
            service_rate_per_vri: Some(30_000.0),
            current_vris: 3,
            pressure: PressureLevel::Normal,
        };
        assert_eq!(a.decide(&vr), AllocDecision::Grow);
        let mut fixed = DynamicFixedThreshold::new(60_000.0);
        assert_eq!(fixed.decide(&view(100_000.0, 3)), AllocDecision::Shrink);
    }

    #[test]
    fn service_rate_shrinks_when_capacity_spare() {
        let mut a = DynamicServiceRate::new(60_000.0);
        let vr = VrLoadView {
            arrival_rate: 50_000.0,
            service_rate_per_vri: Some(60_000.0),
            current_vris: 2,
            pressure: PressureLevel::Normal,
        };
        assert_eq!(a.decide(&vr), AllocDecision::Shrink);
    }

    #[test]
    fn overload_pressure_overrides_rate_signals() {
        let overloaded = |arrival: f64, vris: usize| VrLoadView {
            pressure: PressureLevel::Overloaded,
            ..view(arrival, vris)
        };
        // Rates say hold (or even shrink), but a queue past the high
        // watermark forces growth for both dynamic policies...
        let mut fixed = DynamicFixedThreshold::new(60_000.0);
        assert_eq!(fixed.decide(&view(30_000.0, 2)), AllocDecision::Shrink);
        assert_eq!(fixed.decide(&overloaded(30_000.0, 2)), AllocDecision::Grow);
        let mut svc = DynamicServiceRate::new(60_000.0);
        assert_eq!(svc.decide(&view(50_000.0, 1)), AllocDecision::Hold);
        assert_eq!(svc.decide(&overloaded(50_000.0, 1)), AllocDecision::Grow);
        // ...while the fixed allocator keeps its contract.
        let mut pinned = FixedAllocator::new(2);
        assert_eq!(pinned.decide(&overloaded(1e9, 2)), AllocDecision::Hold);
        // The mere pressured band does not trigger growth.
        let mut fixed = DynamicFixedThreshold::new(60_000.0);
        let pressured = VrLoadView { pressure: PressureLevel::Pressured, ..view(30_000.0, 1) };
        assert_eq!(fixed.decide(&pressured), AllocDecision::Hold);
    }

    #[test]
    fn service_rate_bootstrap_path() {
        let mut a = DynamicServiceRate::new(60_000.0);
        assert_eq!(a.decide(&view(70_000.0, 1)), AllocDecision::Grow);
        assert_eq!(a.decide(&view(50_000.0, 1)), AllocDecision::Hold);
    }

    #[test]
    fn policy_names() {
        assert_eq!(FixedAllocator::new(1).name(), "fixed");
        assert_eq!(DynamicFixedThreshold::new(1.0).name(), "dynamic-fixed");
        assert_eq!(DynamicServiceRate::new(1.0).name(), "dynamic-service-rate");
    }
}
