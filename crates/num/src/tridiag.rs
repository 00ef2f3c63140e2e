//! The Thomas algorithm for tridiagonal systems.
//!
//! The Jacobian of the QWM current-matching equations (paper Eq. (9)) is
//! tridiagonal with respect to the node voltages because each node's
//! residual involves only the branch currents of the devices immediately
//! below and above it. Solving such a system costs O(K) instead of the
//! O(K³) of a dense LU — the paper reports this alone buys ~2× on the
//! Newton update.
//!
//! [`thomas_solve_into`] is the one entry point. Its caller is the QWM
//! region solver (`qwm_core::solver`), which runs the §IV-B
//! tridiagonal-plus-τ′-column update as two Thomas solves and a scalar
//! elimination.

use crate::{NumError, Result};

/// Thomas solve over borrowed bands: `x` receives the solution of the
/// tridiagonal system, `c_scratch` holds the modified superdiagonal
/// during elimination. Both must have `diag.len()` elements; `sub`/`sup`
/// carry `diag.len() - 1`. The region solver stamps its bands into a
/// reusable scratch, so a Newton iteration performs zero allocations.
///
/// The Thomas algorithm does not pivot; it is stable for the diagonally
/// dominant systems QWM produces (each diagonal carries the node
/// capacitance term plus device conductances). A vanishing eliminated
/// pivot is reported as singular.
///
/// ```
/// use qwm_num::tridiag::thomas_solve_into;
/// # fn main() -> Result<(), qwm_num::NumError> {
/// // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8]  =>  x = [1; 2; 3]
/// let (mut c, mut x) = ([0.0; 3], [0.0; 3]);
/// thomas_solve_into(&[1.0, 1.0], &[2.0; 3], &[1.0, 1.0], &[4.0, 8.0, 8.0], &mut c, &mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// assert!((x[2] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NumError::Dimension`] on any length mismatch and
/// [`NumError::Singular`] on pivot breakdown.
pub fn thomas_solve_into(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    b: &[f64],
    c_scratch: &mut [f64],
    x: &mut [f64],
) -> Result<()> {
    let n = diag.len();
    if n == 0
        || sub.len() != n - 1
        || sup.len() != n - 1
        || b.len() != n
        || c_scratch.len() != n
        || x.len() != n
    {
        return Err(NumError::Dimension {
            context: "thomas_solve_into",
            detail: format!(
                "sub={} diag={n} sup={} b={} c={} x={}",
                sub.len(),
                sup.len(),
                b.len(),
                c_scratch.len(),
                x.len()
            ),
        });
    }
    let c = c_scratch;
    let mut pivot = diag[0];
    if pivot == 0.0 || !pivot.is_finite() {
        return Err(NumError::Singular { index: 0, pivot });
    }
    if n > 1 {
        c[0] = sup[0] / pivot;
    }
    x[0] = b[0] / pivot;
    for i in 1..n {
        pivot = diag[i] - sub[i - 1] * c[i - 1];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(NumError::Singular { index: i, pivot });
        }
        if i + 1 < n {
            c[i] = sup[i] / pivot;
        }
        x[i] = (b[i] - sub[i - 1] * x[i - 1]) / pivot;
    }
    for i in (0..n - 1).rev() {
        let next = x[i + 1];
        x[i] -= c[i] * next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Thomas solve with fresh scratch, for tests.
    fn solve(sub: &[f64], diag: &[f64], sup: &[f64], b: &[f64]) -> Result<Vec<f64>> {
        let n = diag.len();
        let (mut c, mut x) = (vec![0.0; n], vec![0.0; n]);
        thomas_solve_into(sub, diag, sup, b, &mut c, &mut x)?;
        Ok(x)
    }

    #[test]
    fn solve_1x1() {
        assert_eq!(solve(&[], &[4.0], &[], &[8.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn solve_matches_dense_lu() {
        let (sub, diag, sup) = (
            [-1.0, -2.0, 0.5, 1.0],
            [4.0, 5.0, 6.0, 5.0, 4.0],
            [1.0, -1.5, 2.0, -0.5],
        );
        let b = [1.0, -2.0, 3.0, -4.0, 5.0];
        let mut dense = Matrix::zeros(5, 5).unwrap();
        for (i, &d) in diag.iter().enumerate() {
            dense.set(i, i, d);
            if i > 0 {
                dense.set(i, i - 1, sub[i - 1]);
                dense.set(i - 1, i, sup[i - 1]);
            }
        }
        let x_tri = solve(&sub, &diag, &sup, &b).unwrap();
        let x_lu = dense.solve(&b).unwrap();
        for (a, b) in x_tri.iter().zip(&x_lu) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// Solving into caller-owned scratch that still holds a previous
    /// solve's values gives the same bits as a solve into fresh buffers:
    /// no stale scratch leaks into the result.
    #[test]
    fn borrowed_solve_bitwise_matches_boxed() {
        let (sub, diag, sup) = (
            [-1.0, -2.0, 0.5, 1.0],
            [4.0, 5.0, 6.0, 5.0, 4.0],
            [1.0, -1.5, 2.0, -0.5],
        );
        let b = [1.0, -2.0, 3.0, -4.0, 5.0];
        let boxed = solve(&sub, &diag, &sup, &b).unwrap();
        let (mut c, mut x) = ([7.0; 5], [-3.0; 5]);
        thomas_solve_into(
            &sub,
            &diag,
            &sup,
            &[5.0, 4.0, 3.0, 2.0, 1.0],
            &mut c,
            &mut x,
        )
        .unwrap();
        thomas_solve_into(&sub, &diag, &sup, &b, &mut c, &mut x).unwrap();
        for (a, e) in x.iter().zip(&boxed) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
        // Dimension checks on every slice argument.
        assert!(thomas_solve_into(&[], &[], &[], &[], &mut [], &mut []).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b, &mut c[..4], &mut x).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b[..3], &mut c, &mut x).is_err());
    }

    #[test]
    fn singular_detection() {
        assert!(matches!(
            solve(&[1.0], &[0.0, 1.0], &[1.0], &[1.0, 1.0]),
            Err(NumError::Singular { .. })
        ));
    }

    /// Every slice argument is length-checked.
    #[test]
    fn dimension_checks() {
        let (sub, diag, sup, b) = ([1.0], [4.0, 4.0], [1.0], [1.0, 1.0]);
        let (mut c, mut x) = ([0.0; 2], [0.0; 2]);
        assert!(thomas_solve_into(&[], &[], &[], &[], &mut [], &mut []).is_err());
        assert!(thomas_solve_into(&[], &diag, &sup, &b, &mut c, &mut x).is_err());
        assert!(thomas_solve_into(&sub, &diag, &[], &b, &mut c, &mut x).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b[..1], &mut c, &mut x).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b, &mut c[..1], &mut x).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b, &mut c, &mut x[..1]).is_err());
        assert!(thomas_solve_into(&sub, &diag, &sup, &b, &mut c, &mut x).is_ok());
    }
}
