//! Error metrics for comparing waveforms and delay figures.
//!
//! The paper quotes delay accuracy as a percentage ("average accuracy of
//! 99%", "worst-case error of 3.66%"); these helpers compute the same
//! quantities for `EXPERIMENTS.md`.

use crate::{NumError, Result};

/// Rejects non-finite samples with an error naming the first offending
/// index, so callers (and their logs) can locate the poisoned element
/// instead of panicking inside a sort comparator or silently averaging a
/// NaN into every downstream figure.
fn ensure_finite(context: &'static str, xs: &[f64]) -> Result<()> {
    if let Some(i) = xs.iter().position(|x| !x.is_finite()) {
        return Err(NumError::InvalidInput {
            context,
            detail: format!("non-finite sample {} at index {i}", xs[i]),
        });
    }
    Ok(())
}

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty or non-finite input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumError::InvalidInput {
            context: "mean",
            detail: "empty input".to_string(),
        });
    }
    ensure_finite("mean", xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Root-mean-square of a sample.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty or non-finite input.
pub fn rms(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumError::InvalidInput {
            context: "rms",
            detail: "empty input".to_string(),
        });
    }
    ensure_finite("rms", xs)?;
    Ok((xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt())
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation on
/// the sorted order statistics.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty or non-finite input, or
/// `q` outside `[0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return Err(NumError::InvalidInput {
            context: "percentile",
            detail: format!("len={} q={q}", xs.len()),
        });
    }
    ensure_finite("percentile", xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let t = pos - i as f64;
    if i + 1 < sorted.len() {
        Ok(sorted[i] * (1.0 - t) + sorted[i + 1] * t)
    } else {
        Ok(sorted[i])
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank convention:
/// `sorted[⌈q·n⌉ − 1]`, always an actual sample. Load harnesses use this
/// flavor so a reported p99 latency is a latency that really occurred.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty or non-finite input, or
/// `q` outside `[0, 1]`.
pub fn percentile_nearest(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return Err(NumError::InvalidInput {
            context: "percentile_nearest",
            detail: format!("len={} q={q}", xs.len()),
        });
    }
    ensure_finite("percentile_nearest", xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// Sample standard deviation (n−1 denominator).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for fewer than two samples or
/// non-finite input (via [`mean`]).
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(NumError::InvalidInput {
            context: "std_dev",
            detail: format!("{} samples", xs.len()),
        });
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok((ss / (xs.len() - 1) as f64).sqrt())
}

/// Box–Muller transform: maps two independent uniforms in `(0, 1]` to a
/// standard-normal sample (pure function — callers bring their own RNG).
pub fn normal_from_uniforms(u1: f64, u2: f64) -> f64 {
    let u1 = u1.clamp(f64::MIN_POSITIVE, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Summary of pairwise relative errors between two equally long series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Mean relative error in percent.
    pub mean_pct: f64,
    /// Maximum relative error in percent.
    pub max_pct: f64,
    /// RMS absolute error (same units as the inputs).
    pub rms_abs: f64,
}

/// Compares `got` against the reference `want`, element-wise.
///
/// Elements whose reference magnitude is below `floor` are skipped for
/// the relative metrics (they still contribute to `rms_abs`); this avoids
/// blowing up the percentage on near-zero waveform tails.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty, mismatched, or
/// non-finite inputs, or when *every* reference element falls below
/// `floor`.
pub fn compare_series(got: &[f64], want: &[f64], floor: f64) -> Result<ErrorSummary> {
    if got.is_empty() || got.len() != want.len() {
        return Err(NumError::InvalidInput {
            context: "compare_series",
            detail: format!("got.len()={} want.len()={}", got.len(), want.len()),
        });
    }
    ensure_finite("compare_series", got)?;
    ensure_finite("compare_series", want)?;
    let mut sum_pct = 0.0;
    let mut max_pct: f64 = 0.0;
    let mut count = 0usize;
    let mut ss = 0.0;
    for (&g, &w) in got.iter().zip(want) {
        let abs = (g - w).abs();
        ss += abs * abs;
        if w.abs() > floor {
            let pct = 100.0 * abs / w.abs();
            sum_pct += pct;
            max_pct = max_pct.max(pct);
            count += 1;
        }
    }
    if count == 0 {
        return Err(NumError::InvalidInput {
            context: "compare_series",
            detail: "every reference element below floor".to_string(),
        });
    }
    Ok(ErrorSummary {
        mean_pct: sum_pct / count as f64,
        max_pct,
        rms_abs: (ss / got.len() as f64).sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_rms() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(rms(&[]).is_err());
    }

    #[test]
    fn percentile_and_std() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 1.0).unwrap(), 5.0);
        assert_eq!(percentile(&xs, 0.5).unwrap(), 3.0);
        assert!((percentile(&xs, 0.25).unwrap() - 2.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&xs, 1.5).is_err());
        assert!((std_dev(&xs).unwrap() - (2.5f64).sqrt()).abs() < 1e-12);
        assert!(std_dev(&[1.0]).is_err());
    }

    #[test]
    fn box_muller_moments() {
        // Deterministic low-discrepancy grid: mean ~0, var ~1.
        let mut samples = Vec::new();
        let n = 64;
        for i in 0..n {
            for j in 0..n {
                let u1 = (i as f64 + 0.5) / n as f64;
                let u2 = (j as f64 + 0.5) / n as f64;
                samples.push(normal_from_uniforms(u1, u2));
            }
        }
        let m = mean(&samples).unwrap();
        let s = std_dev(&samples).unwrap();
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((s - 1.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn series_comparison_with_floor() {
        let want = [1.0, 2.0, 1e-15];
        let got = [1.01, 1.98, 5e-15];
        let s = compare_series(&got, &want, 1e-9).unwrap();
        assert!((s.mean_pct - 1.0).abs() < 1e-9);
        assert!((s.max_pct - 1.0).abs() < 1e-9);
        assert!(s.rms_abs > 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_nearest(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile_nearest(&xs, 0.5).unwrap(), 3.0);
        assert_eq!(percentile_nearest(&xs, 0.95).unwrap(), 5.0);
        assert_eq!(percentile_nearest(&xs, 1.0).unwrap(), 5.0);
        // Always an actual sample, never an interpolated value.
        assert_eq!(percentile_nearest(&xs, 0.25).unwrap(), 2.0);
        assert!(percentile_nearest(&[], 0.5).is_err());
        assert!(percentile_nearest(&xs, -0.1).is_err());
    }

    /// Every fallible entry point rejects non-finite samples with a
    /// structured error naming the offending index — no panic path.
    #[test]
    fn non_finite_inputs_are_structured_errors() {
        let bad = [1.0, 2.0, f64::NAN, 4.0];
        let detail_of = |r: Result<f64>| match r {
            Err(NumError::InvalidInput { detail, .. }) => detail,
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        assert!(detail_of(mean(&bad)).contains("index 2"));
        assert!(detail_of(rms(&bad)).contains("index 2"));
        assert!(detail_of(percentile(&bad, 0.5)).contains("index 2"));
        assert!(detail_of(percentile_nearest(&bad, 0.5)).contains("index 2"));
        assert!(std_dev(&bad).is_err());
        assert!(mean(&[f64::INFINITY]).is_err());
        assert!(rms(&[f64::NEG_INFINITY]).is_err());
        assert!(percentile(&[0.0, f64::INFINITY], 1.0).is_err());
        assert!(compare_series(&bad, &[1.0; 4], 0.0).is_err());
        assert!(compare_series(&[1.0; 4], &bad, 0.0).is_err());
        // The infallible Box–Muller helper propagates NaN rather than
        // panicking — pinned so a future clamp change can't regress it
        // into a panic.
        assert!(normal_from_uniforms(f64::NAN, 0.5).is_nan());
    }

    #[test]
    fn series_comparison_errors() {
        assert!(compare_series(&[], &[], 0.0).is_err());
        assert!(compare_series(&[1.0], &[1.0, 2.0], 0.0).is_err());
        assert!(compare_series(&[1.0], &[1e-12], 1e-9).is_err());
    }
}
