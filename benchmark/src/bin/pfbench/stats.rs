//! Order statistics over small sample sets.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); NaN
/// for an empty set, which the JSON writer renders as `null`.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the rule the acceptance check applies across runs). `None` below two
/// samples.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// The highest whole percentile, at most 90, that still has at least ten
/// samples beyond it; `None` when fewer than twenty samples leave no such
/// percentile at or above the median.
pub fn tail_percentile(count: usize) -> Option<u32> {
    if count < 20 {
        return None;
    }
    Some((100 * (count - 10) / count).min(90) as u32)
}

/// Nearest-rank percentile of the samples.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (pct as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The tail of a latency sample: the percentile [`tail_percentile`]
/// allows, or the maximum when the set is too small for one.
pub fn tail(samples: &[f64]) -> f64 {
    match tail_percentile(samples.len()) {
        Some(pct) => percentile(samples, pct),
        None => max(samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        let s = spread(&[10.0, 12.0]).expect("two samples");
        assert!((s - 3.0 / 11.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(68), Some(85));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(100_000), Some(90));
        for n in 20..400usize {
            let pct = tail_percentile(n).expect("n >= 20") as usize;
            let rank = (pct * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} pct={pct}");
        }
    }

    #[test]
    fn tail_of_a_small_set_is_its_maximum() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), 9.0);
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), 108.0);
        assert_eq!(percentile(&v, 50), 60.0);
    }
}
