//! Order statistics over repetition samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated between
/// the two nearest ranks.  `NaN` for an empty sample, so a metric that was
/// never measured cannot pass for a measured zero.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The geometric mean of strictly positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Full range of `values` as a percentage of their median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    100.0 * (max - min) / median(values)
}

/// How much slower the variant is than its baseline, in percent: the median
/// over rounds of `on[i] / off[i]`, minus one.  The two sides of a ratio ran
/// back to back, so a drift in host speed hits both; the ratio of the two
/// medians would compare repetitions taken seconds apart.
pub fn paired_slowdown_pct(on: &[f64], off: &[f64]) -> f64 {
    let ratios: Vec<f64> = on.iter().zip(off).map(|(on, off)| on / off).collect();
    100.0 * (median(&ratios) - 1.0)
}

/// The median over rounds of `a[i] - b[i]`, paired for the same reason.
pub fn paired_diff(a: &[f64], b: &[f64]) -> f64 {
    let diffs: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
    median(&diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geometric_mean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        // Halving one of six backends moves the mean by 2^(-1/6), whichever it is.
        let base = [7.0e6, 3.0e6, 1.2e6, 9.0e6, 2.0e6, 5.0e6];
        for i in 0..base.len() {
            let mut halved = base;
            halved[i] /= 2.0;
            let ratio = geomean(&halved) / geomean(&base);
            assert!((ratio - 0.5f64.powf(1.0 / 6.0)).abs() < 1e-12);
        }
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert!((spread_pct(&[9.0, 10.0, 11.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn paired_figures_cancel_a_drift_that_hits_both_sides() {
        // The host slows down by half in round 2; the variant costs 10% throughout.
        let (off, on) = ([1.0, 1.5, 1.0], [1.1, 1.65, 1.1]);
        assert!((paired_slowdown_pct(&on, &off) - 10.0).abs() < 1e-9);
        assert!(paired_slowdown_pct(&off, &on) < 0.0);
        assert!((paired_diff(&[3.0, 5.0, 4.0], &[1.0, 1.0, 1.0]) - 3.0).abs() < 1e-12);
        assert!(paired_slowdown_pct(&[], &[]).is_nan());
    }
}
