//! Slice statistics: the quiet-host estimator and the spread the driver uses.

/// Linear-interpolated quantile (`q` in 0..=1) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What a lower-is-better per-slice statistic looked like on a quiet host
/// (5th percentile across slices), its plain median, and how far apart they
/// are. Interference on a shared guest only ever slows a slice, so the best
/// twentieth of the run is the part the neighbours did not touch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quiet {
    pub quiet: f64,
    pub median: f64,
    pub slices: usize,
}

impl Quiet {
    pub fn of(per_slice: &[f64]) -> Quiet {
        let s = sorted(per_slice);
        Quiet {
            quiet: quantile_sorted(&s, 0.05),
            median: quantile_sorted(&s, 0.5),
            slices: s.len(),
        }
    }

    /// `p50 / p5 - 1`, in percent: how loud the host was.
    pub fn noise_pct(&self) -> f64 {
        (self.median / self.quiet - 1.0) * 100.0
    }
}

/// Median of integer samples without sorting them all (reorders `v`).
pub fn median_u32(v: &mut [u32]) -> u32 {
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    *v.select_nth_unstable(mid).1
}

/// The set-up time reported from several complete set-ups: the second
/// fastest, so one lucky run cannot set the baseline and slow ones (cold
/// page cache, a neighbour's burst) are ignored.
pub fn second_fastest(durations: &[f64]) -> f64 {
    let s = sorted(durations);
    s[1.min(s.len() - 1)]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's definition of spread.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let m = s.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.05) - 1.15).abs() < 1e-12);
    }

    #[test]
    fn quiet_value_ignores_slow_slices() {
        // 90 quiet slices at 100, 10 disturbed at 130: the median of a
        // louder run would move, the quiet value does not.
        let mut calm = vec![100.0; 90];
        calm.extend([130.0; 10]);
        let mut loud = vec![100.0; 40];
        loud.extend([130.0; 60]);
        let (a, b) = (Quiet::of(&calm), Quiet::of(&loud));
        assert_eq!(a.quiet, 100.0);
        assert_eq!(b.quiet, 100.0);
        assert_eq!(a.median, 100.0);
        assert_eq!(b.median, 130.0);
        assert!((b.noise_pct() - 30.0).abs() < 1e-9);
        assert_eq!(a.slices, 100);
    }

    #[test]
    fn median_u32_matches_sort() {
        let mut v = vec![9, 1, 8, 2, 7, 3, 6];
        assert_eq!(median_u32(&mut v), 6);
        let mut v = vec![5];
        assert_eq!(median_u32(&mut v), 5);
    }

    #[test]
    fn second_fastest_of_seven() {
        let d = [2.4, 2.1, 9.0, 2.2, 2.3, 1.7, 2.5];
        assert_eq!(second_fastest(&d), 2.1);
        assert_eq!(second_fastest(&[3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_exclusive(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }
}
