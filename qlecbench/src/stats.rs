//! Order statistics, computed the way Python's `statistics` module does
//! so the spreads printed here match the ones a reader recomputes.

/// The median (mean of the middle pair for even lengths). `None` for
/// an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// gives them (the default `exclusive` method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p` quantile (0 ≤ p ≤ 1), interpolating linearly between the
/// sorted values. `None` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let at = p.clamp(0.0, 1.0) * last as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

/// Quartile distance as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&five, 0.25), Some(2.0));
        assert_eq!(quantile(&five, 0.5), median(&five));
        assert_eq!(quantile(&[1.0, 2.0], 0.75), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&[], 0.25), None);
    }
}
