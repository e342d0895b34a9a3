//! Order statistics for timing samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between the two
/// nearest order statistics. Panics on an empty sample: every caller has
/// measured at least one value.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest whole percentile above the median that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value; `None` when the
/// sample is too small for any (fewer than 20 values gives the median
/// itself, which is reported anyway).
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 2 * TAIL_MIN_BEYOND {
        return None;
    }
    let pct = (100.0 * (1.0 - TAIL_MIN_BEYOND as f64 / n as f64)).floor() as u32;
    (pct > 50).then(|| (pct, percentile(samples, pct as f64 / 100.0)))
}

/// Coefficient of variation: standard deviation ÷ mean.
pub fn cv(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.5), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&v(20)), None);
        assert_eq!(tail(&v(40)).map(|t| t.0), Some(75));
        assert_eq!(tail(&v(100)).map(|t| t.0), Some(90));
        assert_eq!(tail(&v(99)).map(|t| t.0), Some(89));
        let (pct, value) = tail(&v(101)).unwrap();
        assert_eq!((pct, value), (90, 90.0));
    }

    #[test]
    fn cv_of_constant_and_spread_samples() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
