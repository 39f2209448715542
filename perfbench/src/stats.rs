//! Order statistics and correlation over per-rep samples.

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method that Python's
/// `statistics.quantiles(values, n=4)` uses by default, so the figures
/// here match a reader's own check of the printed samples. A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let ld = sorted.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Pearson correlation of paired samples; 0 when either side is constant
/// or there are fewer than two pairs.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mean = |v: &[f64]| v[..n].iter().sum::<f64>() / n as f64;
    let (mx, my) = (mean(xs), mean(ys));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs[..n].iter().zip(&ys[..n]) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Least-squares slope of `ln y` on `ln x`: the exponent of a power law
/// `y ∝ x^k` through paired positive samples; 0 when undefined.
pub fn log_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let lx: Vec<f64> = xs[..n].iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys[..n].iter().map(|v| v.ln()).collect();
    let (mx, my) = (
        lx.iter().sum::<f64>() / n as f64,
        ly.iter().sum::<f64>() / n as f64,
    );
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    assert!(sorted.iter().all(|v| !v.is_nan()), "NaN sample");
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: with two
        // samples the exclusive method extrapolates past both ends.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let a: Vec<f64> = (1..=10).map(f64::from).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 1000.0).collect();
        assert!((relative_iqr(&a) - 1.0).abs() < 1e-12);
        assert!((relative_iqr(&a) - relative_iqr(&b)).abs() < 1e-12);
        assert_eq!(relative_iqr(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_detects_linear_relations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn log_slope_recovers_power_laws() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(1.5)).collect();
        assert!((log_slope(&xs, &ys) - 1.5).abs() < 1e-12);
        assert_eq!(log_slope(&[2.0, 2.0], &[1.0, 5.0]), 0.0);
        assert_eq!(log_slope(&[2.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_samples_are_refused() {
        median(&[1.0, f64::NAN]);
    }
}
