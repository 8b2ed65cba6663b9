//! Order statistics over measured samples.

/// Sorts `values` and returns the `q`-quantile (nearest rank on the
/// sorted sample, `q` in `0..=1`). `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    Some(values[rank])
}

/// Sorts `values` and returns the median (mean of the middle two for
/// an even count, as Python's `statistics.median`).
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    Some((values[(n - 1) / 2] + values[n / 2]) / 2.0)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` when the sample is too small for p90.
pub fn tail(values: &mut [f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p)).floor() >= 10.0)
        .and_then(|p| quantile(values, p).map(|v| (p * 100.0, v)))
}

/// Interquartile range as a share of the median, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (exclusive method).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let med = median(&mut v)?; // sorts `v`
    let n = v.len();
    let cut = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (med != 0.0).then(|| (cut(3) - cut(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut few: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(tail(&mut few).is_none());
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&mut v).map(|(p, _)| p), Some(99.0));
    }
}
