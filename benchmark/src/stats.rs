//! Estimators the report is built from.

use qwm::num::stats::percentile_nearest;

/// Nearest-rank quantile (always a sample that occurred); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    percentile_nearest(xs, q).unwrap_or(0.0)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of each of `windows` equal consecutive sub-windows
/// of the samples, which are in time order (of all of them, when a
/// sub-window would hold fewer than ten). Tail estimates on a shared
/// host are the median of these: a neighbour's burst then spoils a
/// sub-window or two instead of the whole tail, while a tail present in
/// most of the window still shows.
pub fn subwindow_quantiles(xs: &[f64], q: f64, windows: usize) -> Vec<f64> {
    if windows < 2 || xs.len() < 10 * windows {
        return vec![quantile(xs, q)];
    }
    let per = xs.len() / windows;
    xs.chunks(per)
        .take(windows)
        .map(|w| quantile(w, q))
        .collect()
}

/// Spread the acceptance rule uses: distance between the first and the
/// third quartile as a share of the median (`statistics.quantiles(n=4)`,
/// exclusive method, to agree with the driver's Python).
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| -> f64 {
        // Python's exclusive method: position k·(n+1)/4 on a 1-based
        // scale, linearly interpolated, clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let frac = pos - pos.floor();
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = at(2);
    if med == 0.0 {
        return 0.0;
    }
    ((at(3) - at(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn subwindow_tail_ignores_one_burst_and_sees_a_lasting_tail() {
        // Ten windows of 100 samples at 1.0; one window holds a burst.
        let mut xs = vec![1.0; 1000];
        for x in &mut xs[300..400] {
            *x = 50.0;
        }
        assert_eq!(quantile(&xs, 0.99), 50.0);
        let tails = subwindow_quantiles(&xs, 0.99, 10);
        assert_eq!(tails.len(), 10);
        assert_eq!(median(&tails), 1.0);
        assert_eq!(tails.iter().filter(|&&t| t == 50.0).count(), 1);
        // A tail in three windows of five is the program's, and shows.
        for x in xs[..600].iter_mut().step_by(8) {
            *x = 9.0;
        }
        assert_eq!(median(&subwindow_quantiles(&xs, 0.9, 5)), 9.0);
        // Under ten samples a sub-window: the plain quantile is all there is.
        assert_eq!(subwindow_quantiles(&xs[..49], 0.9, 5).len(), 1);
        assert_eq!(subwindow_quantiles(&[2.0, 4.0], 0.99, 10), [4.0]);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[1.0]), 0.0);
    }
}
