//! Log-bucketed latency histogram.
//!
//! The latency experiments (1b, 1d, 1e, 2c) need averages and tail
//! percentiles over millions of per-frame samples without storing them.
//! This histogram uses HDR-style buckets: values are grouped by power-of-two
//! magnitude with `2^SUB_BITS` linear sub-buckets each, giving a bounded
//! relative error of `2^-SUB_BITS` (≈1.6 % here) at constant memory.

/// Sub-bucket resolution bits (64 linear sub-buckets per octave).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered: values up to 2^40 ns (~18 minutes) fit.
const OCTAVES: usize = 40;
/// Total bucket count — shared with the registry's atomic histogram so both
/// sides agree on the bucket layout.
pub(crate) const NUM_BUCKETS: usize = SUB * OCTAVES;

/// Buckets [`percentiles_of`] sums before it compares: a run of them that
/// stays below the next target costs one compare, not one a bucket.
const STRIDE: usize = 16;

/// [`LatencyHistogram::percentile_ns`] at each of `qs`, ascending, over
/// bucket counts wherever they lie (`load` reads one), in one walk of the
/// buckets: the registry's atomic histogram answers a scrape from its own.
///
/// Total over any reading, including one torn by a concurrent `record`
/// (which bumps `count` before `min` and `max`): a bucket's value is bounded
/// by `max` after `min`, never by `Ord::clamp`, which panics when
/// `min > max`.
pub(crate) fn percentiles_of<T, const N: usize>(
    buckets: &[T],
    load: impl Fn(&T) -> u64,
    count: u64,
    min: u64,
    max: u64,
    qs: [f64; N],
) -> [u64; N] {
    debug_assert!(qs.is_sorted(), "quantiles ascend: {qs:?}");
    if count == 0 {
        return [0; N];
    }
    let targets = qs.map(|q| ((q.clamp(0.0, 1.0)) * count as f64).ceil().max(1.0) as u64);
    let mut out = [max; N];
    let mut next = 0;
    let mut seen = 0u64;
    for (at, stride) in buckets.chunks(STRIDE).enumerate() {
        // Wrapping: only a torn reading could overflow, and then the stride
        // is walked bucket by bucket below.
        let sum = stride.iter().map(&load).fold(0u64, u64::wrapping_add);
        if seen.saturating_add(sum) < targets[next] {
            seen += sum;
            continue;
        }
        for (i, bucket) in stride.iter().enumerate() {
            seen = seen.saturating_add(load(bucket));
            while next < N && seen >= targets[next] {
                out[next] = LatencyHistogram::value_of(at * STRIDE + i).max(min).min(max);
                next += 1;
            }
        }
        if next == N {
            break;
        }
    }
    out
}

/// Fixed-memory latency histogram over `u64` nanosecond samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; SUB * OCTAVES]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Box::new([0; SUB * OCTAVES]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuild a histogram from raw bucket counts + exact moments. Used by
    /// the registry's atomic histogram to snapshot into this plain type.
    pub(crate) fn from_raw(
        buckets: Box<[u64; NUM_BUCKETS]>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> LatencyHistogram {
        LatencyHistogram { buckets, count, sum, min, max }
    }

    /// Raw `(buckets, count, sum, min, max)` with `min == u64::MAX` when
    /// empty — the mirror-image of [`LatencyHistogram::from_raw`], for
    /// publishing a locally-recorded histogram into an atomic one.
    pub(crate) fn raw_parts(&self) -> (&[u64; NUM_BUCKETS], u64, u128, u64, u64) {
        (&self.buckets, self.count, self.sum, self.min, self.max)
    }

    pub(crate) fn index_of(value: u64) -> usize {
        // Values below SUB go to their own linear bucket in octave 0.
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = (value >> (msb - SUB_BITS)) as usize & (SUB - 1);
        ((octave * SUB) + SUB / 2 + sub / 2).min(SUB * OCTAVES - 1)
    }

    /// Representative (midpoint-ish) value for bucket `idx` — inverse of
    /// `index_of` up to the bucket's relative error.
    fn value_of(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let octave = idx / SUB;
        let pos = idx % SUB;
        // Invert: idx = octave*SUB + SUB/2 + sub/2, value msb = octave + SUB_BITS - 1
        let sub = (pos - SUB / 2) * 2;
        let msb = octave as u32 + SUB_BITS - 1;
        (1u64 << msb) | ((sub as u64) << (msb - SUB_BITS))
    }

    /// Record one sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index_of(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean of all recorded samples.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Exact minimum (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`q` in `[0, 1]`), within bucket resolution.
    ///
    /// The bucket's representative value is clamped into `[min, max]`: the
    /// true samples all lie in that range, so a representative outside it
    /// (possible because a bucket spans many values) would be nonsense — in
    /// particular a single-sample histogram reports the sample exactly.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let (buckets, count, min, max) = (&self.buckets[..], self.count, self.min, self.max);
        let [p] = percentiles_of(buckets, |c| *c, count, min, max, [q]);
        p
    }

    /// Merge another histogram into this one (for multi-trial aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("p50_ns", &self.percentile_ns(0.50))
            .field("p99_ns", &self.percentile_ns(0.99))
            .field("max_ns", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_calm() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.percentile_ns(0.99), 0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 63);
        assert!((h.mean_ns() - 31.5).abs() < 1e-9);
        assert_eq!(h.percentile_ns(0.5), 31);
    }

    #[test]
    fn percentile_within_relative_error() {
        let mut h = LatencyHistogram::new();
        // Uniform ramp 1..100_000 ns.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.percentile_ns(q) as f64;
            assert!((got - expect).abs() / expect < 0.05, "q={q}: got {got}, expect {expect}");
        }
    }

    #[test]
    fn mean_is_exact_regardless_of_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        h.record(3_000_000);
        assert!((h.mean_ns() - 2_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 10);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for v in [100u64, 1_000, 10_000, 123_456, 10_000_000, 1 << 35] {
            let idx = LatencyHistogram::index_of(v);
            let back = LatencyHistogram::value_of(idx) as f64;
            let err = (back - v as f64).abs() / v as f64;
            assert!(err < 0.05, "v={v} back={back} err={err}");
        }
    }

    #[test]
    fn single_bucket_percentile_returns_the_sample() {
        // Regression: 99 lands in a bucket whose representative value is 98,
        // so every percentile used to come back *below* the only sample.
        let mut h = LatencyHistogram::new();
        h.record(99);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile_ns(q), 99, "q={q}");
        }
    }

    #[test]
    fn percentiles_never_leave_observed_range() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        h.record(1_000_007);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = h.percentile_ns(q);
            assert!((1_000_003..=1_000_007).contains(&p), "q={q} p={p}");
        }
    }

    #[test]
    fn huge_values_clamp_instead_of_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ns(), u64::MAX);
    }

    /// One walk for several quantiles lands where one walk per quantile does,
    /// including past the last sample (`max`) and on an empty histogram.
    #[test]
    fn one_walk_finds_every_quantile() {
        let mut h = LatencyHistogram::new();
        let qs = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
        let walk = |h: &LatencyHistogram| {
            let (buckets, count, _, min, max) = h.raw_parts();
            percentiles_of(&buckets[..], |c| *c, count, min, max, qs)
        };
        assert_eq!(walk(&h), [0; 6]);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x >> (n % 48 + 16));
            if n % 97 == 0 {
                assert_eq!(walk(&h), qs.map(|q| h.percentile_ns(q)), "after {n} samples");
            }
        }
    }
}
