//! Property tests on the metric invariants Chapter 4 relies on.

use lvrm_metrics::{
    jain_index, max_min_fairness, Ewma, LatencyHistogram, MetricKind, MetricsRegistry, Summary,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Jain's index lies in [1/n, 1] for any positive population, and
    /// max-min never exceeds it.
    #[test]
    fn fairness_bounds(rates in prop::collection::vec(0.001f64..1e6, 1..64)) {
        let j = jain_index(&rates);
        let n = rates.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9 && j <= 1.0 + 1e-9, "jain {j}");
        let m = max_min_fairness(&rates);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&m), "max-min {m}");
        prop_assert!(m <= j + 1e-9, "max-min never exceeds jain: {m} vs {j}");
    }

    /// EWMA output always lies within the sample range seen so far.
    #[test]
    fn ewma_stays_in_range(weight in 0.0f64..64.0, samples in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut e = Ewma::new(weight);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &s in &samples {
            lo = lo.min(s);
            hi = hi.max(s);
            let v = e.update(s);
            prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6, "ewma {v} outside [{lo}, {hi}]");
        }
    }

    /// Histogram percentiles are monotone in q and bracketed by min/max.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile_ns(q);
            prop_assert!(p >= prev, "p({q}) = {p} < previous {prev}");
            prev = p;
        }
        let max = *samples.iter().max().unwrap() as f64;
        let min = *samples.iter().min().unwrap() as f64;
        prop_assert!(h.percentile_ns(1.0) as f64 <= max * 1.05 + 1.0);
        prop_assert!(h.percentile_ns(0.0) as f64 >= min * 0.95 - 1.0);
    }

    /// Histogram merge equals recording the union.
    #[test]
    fn merge_equals_union(
        a in prop::collection::vec(1u64..1_000_000, 0..200),
        b in prop::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &x in &a { ha.record(x); hu.record(x); }
        for &x in &b { hb.record(x); hu.record(x); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.max_ns(), hu.max_ns());
        prop_assert_eq!(ha.min_ns(), hu.min_ns());
        prop_assert!((ha.mean_ns() - hu.mean_ns()).abs() < 1e-6);
        prop_assert_eq!(ha.percentile_ns(0.5), hu.percentile_ns(0.5));
    }

    /// Welford summary matches the naive two-pass computation.
    #[test]
    fn summary_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let s = Summary::of(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.stddev() - var.sqrt()).abs() < 1e-5 * var.sqrt().max(1.0));
    }
}

/// A xorshift stream: each case draws a whole registry from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 11) as usize % n
    }
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// Label values and help texts that need escaping, and some that do not.
const TEXTS: [&str; 7] = ["a", "vri10", "", "back\\slash", "say \"hi\"", "two\nlines", "\\\"\n"];

/// Gauge values on every branch of the spelling: integral, fractional,
/// negative, both zeros, either side of the 9e15 edge, non-finite.
const GAUGES: [f64; 14] = [
    42.0,
    0.25,
    -7.5,
    -3.0,
    0.0,
    -0.0,
    9.0e15,
    -9.0e15,
    8_999_999_999_999_998.0,
    1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
];

/// Register a random registry and set every series.
fn arb_registry(rng: &mut Rng) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    let kinds = [MetricKind::Counter, MetricKind::Gauge, MetricKind::Summary];
    for family in 0..1 + rng.below(5) {
        let kind = rng.pick(&kinds);
        let name = format!("m{}_{}", rng.below(8), family);
        let help = rng.pick(&TEXTS);
        for _ in 0..1 + rng.below(4) {
            let keys = ["vr", "vri", "z"];
            let labels: Vec<(&str, &str)> =
                keys[..rng.below(4)].iter().map(|k| (*k, rng.pick(&TEXTS))).collect();
            match kind {
                MetricKind::Counter => {
                    let any = rng.next();
                    let v = rng.pick(&[0, 1, u64::MAX, any]);
                    reg.counter(&name, help, &labels).store(v);
                }
                MetricKind::Gauge => reg.gauge(&name, help, &labels).set(rng.pick(&GAUGES)),
                MetricKind::Summary => {
                    let h = reg.summary(&name, help, &labels);
                    let mut local = LatencyHistogram::new();
                    let many = 2 + rng.below(300);
                    for _ in 0..rng.pick(&[0, 1, many]) {
                        local.record(rng.next() >> rng.below(64));
                    }
                    // Half mirrored whole, half recorded into the atomics.
                    if rng.below(2) == 0 {
                        h.store(&local);
                    } else {
                        for _ in 0..local.count() {
                            h.record(rng.next() >> (8 + rng.below(56)));
                        }
                    }
                }
            }
        }
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

    /// A scrape renders from the registry, appending values to line text it
    /// kept from registration; a snapshot renders the same lines as it goes.
    /// Over any registry the two give the same bytes.
    #[test]
    fn registry_render_is_the_snapshots_render(seed in any::<u64>()) {
        let reg = arb_registry(&mut Rng(seed | 1));
        let live = reg.render_prometheus();
        let snap = reg.snapshot();
        prop_assert_eq!(&live, &snap.render_prometheus());
        let samples = snap.families.iter().map(|f| match f.kind {
            MetricKind::Summary => 5 * f.series.len(),
            _ => f.series.len(),
        });
        let lines = 2 * snap.families.len() + samples.sum::<usize>();
        prop_assert_eq!(live.lines().count(), lines, "{}", live);
    }
}
