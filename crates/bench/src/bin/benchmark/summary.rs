//! Order statistics over rep times: median, quartiles, and the tail
//! percentile rule of the choosing-metrics guide.

/// Sorted copy of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both mean a bug in the caller, not a
/// measurement.
fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by the exclusive method, the default of
/// Python's `statistics.quantiles(xs, n=4)`, which is what the benchmark
/// driver computes spreads with. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // `delta` is the position's remainder in quarters; past the clamp it
        // extrapolates exactly as the Python method does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its value (nearest rank). `None` when that percentile would not
/// lie above the median, which is any run of fewer than 21 samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 10 {
        return None;
    }
    let p = 100 * (n - 10) / n;
    if p <= 50 {
        return None;
    }
    let rank = (p * n).div_ceil(100);
    debug_assert!(n - rank >= 10);
    Some((p as u32, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 100 samples: p90 is sample 90, leaving 91..=100 beyond it.
        assert_eq!(tail_percentile(&ramp(100)), Some((90, 90.0)));
        // 28 samples: p64 is sample 18, leaving exactly ten beyond it.
        assert_eq!(tail_percentile(&ramp(28)), Some((64, 18.0)));
        assert_eq!(tail_percentile(&ramp(1000)), Some((99, 990.0)));
        // 21 is the first count whose percentile clears the median.
        assert_eq!(tail_percentile(&ramp(21)), Some((52, 11.0)));
        assert_eq!(tail_percentile(&ramp(20)), None);
        assert_eq!(tail_percentile(&ramp(8)), None);
    }
}
