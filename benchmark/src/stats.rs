//! Order statistics over small samples.

use crate::json::Json;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the acceptance driver applies — or `None`
/// with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// What the benchmark reports for one timing: the median, the
/// quartiles, the minimum and the sample count behind them.
pub fn summary(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "min",
            Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("n", Json::Num(values.len() as f64)),
        ("samples", Json::nums(values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// Reference values from `statistics.quantiles(range(1, 11), n=4)`
    /// → `[2.75, 5.5, 8.25]` and `quantiles([1, 2, 4], n=4)` →
    /// `[1.0, 2.0, 4.0]`.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
