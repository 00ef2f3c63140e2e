//! Least-squares polynomial fitting.
//!
//! The tabular device model (paper §V-A) compresses HSPICE-style sweep
//! data by fitting, at each (Vs, Vg) grid point, the channel current
//! `Ids(Vd)` with a **linear** polynomial in the saturation region and a
//! **quadratic** in the triode region. This module provides the generic
//! fit via normal equations solved with the pivoted LU from
//! [`crate::matrix`]; degrees here are tiny (≤ 3) so the normal equations
//! are perfectly conditioned once the abscissa is centred.

use crate::matrix::Matrix;
use crate::{NumError, Result};

/// A polynomial `c₀ + c₁ (x−x̄) + c₂ (x−x̄)² + …` stored with the centring
/// offset `x̄` used during fitting (centring keeps the normal equations
/// well conditioned).
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
    center: f64,
}

impl Polynomial {
    /// Builds a polynomial from raw coefficients around `center`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] on an empty coefficient list or
    /// non-finite values.
    pub fn new(coeffs: Vec<f64>, center: f64) -> Result<Self> {
        if coeffs.is_empty() || coeffs.iter().any(|c| !c.is_finite()) || !center.is_finite() {
            return Err(NumError::InvalidInput {
                context: "Polynomial::new",
                detail: "empty or non-finite coefficients".to_string(),
            });
        }
        Ok(Polynomial { coeffs, center })
    }

    /// Polynomial degree (number of coefficients minus one).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients, lowest order first, in the centred variable.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The centring offset `x̄`.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Evaluates the polynomial at `x` (Horner form).
    ///
    /// ```
    /// # use qwm_num::polyfit::Polynomial;
    /// # fn main() -> Result<(), qwm_num::NumError> {
    /// let p = Polynomial::new(vec![1.0, 2.0, 3.0], 0.0)?; // 1 + 2x + 3x²
    /// assert_eq!(p.eval(2.0), 17.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn eval(&self, x: f64) -> f64 {
        let t = x - self.center;
        self.coeffs.iter().rev().fold(0.0, |acc, c| acc * t + c)
    }

    /// Evaluates the first derivative at `x`.
    pub fn deriv(&self, x: f64) -> f64 {
        let t = x - self.center;
        let mut acc = 0.0;
        for (k, c) in self.coeffs.iter().enumerate().skip(1).rev() {
            acc = acc * t + (k as f64) * c;
        }
        acc
    }
}

/// Fits a degree-`degree` polynomial to `(x, y)` samples by least squares.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] if there are fewer samples than
/// coefficients, mismatched lengths, or non-finite data, and propagates
/// singular normal equations (e.g. all-identical abscissae).
///
/// ```
/// use qwm_num::polyfit::polyfit;
/// # fn main() -> Result<(), qwm_num::NumError> {
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [1.0, 3.0, 7.0, 13.0]; // 1 + x + x²
/// let p = polyfit(&x, &y, 2)?;
/// assert!((p.eval(1.5) - (1.0 + 1.5 + 2.25)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn polyfit(x: &[f64], y: &[f64], degree: usize) -> Result<Polynomial> {
    let m = degree + 1;
    if x.len() != y.len() {
        return Err(NumError::InvalidInput {
            context: "polyfit",
            detail: format!("x.len()={} y.len()={}", x.len(), y.len()),
        });
    }
    if x.len() < m {
        return Err(NumError::InvalidInput {
            context: "polyfit",
            detail: format!("{} samples for degree {degree}", x.len()),
        });
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(NumError::InvalidInput {
            context: "polyfit",
            detail: "non-finite sample".to_string(),
        });
    }
    let center = x.iter().sum::<f64>() / x.len() as f64;

    // Normal equations: (Vᵀ V) c = Vᵀ y with Vandermonde V in (x - center).
    let mut ata = Matrix::zeros(m, m)?;
    let mut aty = vec![0.0; m];
    let mut powers = vec![0.0; m];
    for (&xi, &yi) in x.iter().zip(y) {
        let t = xi - center;
        let mut p = 1.0;
        for pow in powers.iter_mut() {
            *pow = p;
            p *= t;
        }
        for r in 0..m {
            aty[r] += powers[r] * yi;
            for c in 0..m {
                ata.add(r, c, powers[r] * powers[c]);
            }
        }
    }
    let coeffs = ata.solve(&aty)?;
    Polynomial::new(coeffs, center)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quadratic_recovered() {
        let x: Vec<f64> = (0..10).map(|i| i as f64 * 0.33).collect();
        let y: Vec<f64> = x.iter().map(|&t| 2.0 - 3.0 * t + 0.5 * t * t).collect();
        let p = polyfit(&x, &y, 2).unwrap();
        for &t in &x {
            assert!((p.eval(t) - (2.0 - 3.0 * t + 0.5 * t * t)).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_fit_of_noisy_line_is_close() {
        // Deterministic "noise": alternating ±0.01.
        let x: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &t)| 5.0 * t + 1.0 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let p = polyfit(&x, &y, 1).unwrap();
        assert!((p.deriv(0.5) - 5.0).abs() < 0.02);
        assert!((p.eval(0.0) - 1.0).abs() < 0.02);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.5, 0.25], 1.3).unwrap();
        let h = 1e-6;
        for &x in &[-1.0, 0.0, 2.0, 5.0] {
            let fd = (p.eval(x + h) - p.eval(x - h)) / (2.0 * h);
            assert!((p.deriv(x) - fd).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn centring_survives_large_offsets() {
        // x around 1e6 would wreck un-centred normal equations.
        let x: Vec<f64> = (0..8).map(|i| 1.0e6 + i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&t| 3.0 * (t - 1.0e6) + 7.0).collect();
        let p = polyfit(&x, &y, 1).unwrap();
        assert!((p.eval(1.0e6 + 3.5) - (3.0 * 3.5 + 7.0)).abs() < 1e-6);
    }

    #[test]
    fn input_validation() {
        assert!(polyfit(&[1.0], &[1.0, 2.0], 1).is_err());
        assert!(polyfit(&[1.0, 2.0], &[1.0, 2.0], 2).is_err());
        assert!(polyfit(&[1.0, f64::NAN], &[1.0, 2.0], 1).is_err());
        assert!(Polynomial::new(vec![], 0.0).is_err());
    }

    #[test]
    fn accessors() {
        let p = Polynomial::new(vec![1.0, 2.0], 3.0).unwrap();
        assert_eq!(p.degree(), 1);
        assert_eq!(p.center(), 3.0);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }
}
