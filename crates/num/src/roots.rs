//! Scalar root finding: a uniform-scan bracket and Brent's method.
//!
//! Their caller is `qwm_interconnect::awe`: `TwoPoleModel::delay_50`
//! brackets the 50 % crossing of the two-pole step response with
//! [`bracket`] and refines it with [`brent`]. ROADMAP item 2's
//! bracketed τ′ fallback for the QWM region solve is planned on the
//! same pair.

use crate::{NumError, Result};

/// Brent's method: inverse-quadratic interpolation with a bisection
/// safety net. Typically converges in ~10 evaluations where bisection
/// needs 40+.
///
/// ```
/// use qwm_num::roots::{bracket, brent};
/// # fn main() -> Result<(), qwm_num::NumError> {
/// let f = |x: f64| x * x - 2.0;
/// let (a, b) = bracket(f, 0.0, 2.0, 8).expect("sign change");
/// let root = brent(f, a, b, 1e-12, 100)?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] if the bracket does not straddle a
/// sign change and [`NumError::NoConvergence`] if the interval fails to
/// shrink below `tol` within `max_iter` iterations.
pub fn brent<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64, max_iter: usize) -> Result<f64> {
    let (mut a, mut b) = (a, b);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(NumError::InvalidInput {
            context: "brent",
            detail: format!("no sign change on [{a}, {b}]"),
        });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let cond1 = !((lo.min(b) < s) && (s < lo.max(b)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= d.abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < tol;
        let cond5 = !mflag && d.abs() < tol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = b - c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumError::NoConvergence {
        method: "brent",
        iterations: max_iter,
        residual: (b - a).abs(),
    })
}

/// Scans `[a, b]` in `steps` uniform increments and returns the first
/// sub-interval on which `f` changes sign, or `None`.
///
/// Hands a sign-change interval to [`brent`].
pub fn bracket<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, steps: usize) -> Option<(f64, f64)> {
    if steps == 0 || b.is_nan() || a.is_nan() || b <= a {
        return None;
    }
    let h = (b - a) / steps as f64;
    let mut x0 = a;
    let mut f0 = f(x0);
    for i in 1..=steps {
        let x1 = a + h * i as f64;
        let f1 = f(x1);
        if f0 == 0.0 {
            return Some((x0, x0));
        }
        if f0 * f1 <= 0.0 {
            return Some((x0, x1));
        }
        x0 = x1;
        f0 = f1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_matches_bisect_but_faster_polynomials() {
        let f = |x: f64| (x - 0.3) * (x * x + 1.0);
        let rb = brent(f, 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((rb - 0.3).abs() < 1e-10);
    }

    #[test]
    fn brent_on_transcendental() {
        let r = brent(|x: f64| x.cos() - x, 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((r - 0.739_085_133_215_160_6).abs() < 1e-9);
    }

    #[test]
    fn no_sign_change_rejected() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 50).is_err());
    }

    #[test]
    fn bracket_scans() {
        let got = bracket(|x| x - 0.55, 0.0, 1.0, 10).unwrap();
        assert!(got.0 <= 0.55 && 0.55 <= got.1);
        assert!(bracket(|x| x + 10.0, 0.0, 1.0, 10).is_none());
        assert!(bracket(|x| x, 1.0, 0.0, 10).is_none());
    }

    #[test]
    fn bracket_then_brent_pipeline() {
        let f = |x: f64| (x * 3.1).sin() - 0.2;
        let (a, b) = bracket(f, 0.0, 1.0, 32).unwrap();
        let r = brent(f, a, b, 1e-13, 100).unwrap();
        assert!(f(r).abs() < 1e-9);
    }
}
