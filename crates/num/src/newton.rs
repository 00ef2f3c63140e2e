//! A damped Newton–Raphson driver.
//!
//! Neither transient engine runs this driver: QWM has its own Newton
//! loop over the bordered tridiagonal system (`qwm_core::solver`) and
//! the SPICE baseline its own over the MNA matrix (`qwm_spice::engine`).
//! Its one caller is `qwm_spice::dcop::dc_operating_point`, which
//! solves a stage's static KCL system for consistent DC starting
//! voltages (ROADMAP items 3(a) and 10(e); the latch test in
//! `tests/flat_circuit.rs`). It is off every hot path, so each solve
//! owns its buffers.
//!
//! The driver is generic over a [`NonlinearSystem`], which supplies the
//! residual and the Jacobian *solve* (not the Jacobian itself) so that
//! implementations can pick their own linear algebra.

use crate::{NumError, Result};

/// A nonlinear system `F(x) = 0` together with a way to solve its
/// linearization.
pub trait NonlinearSystem {
    /// Problem dimension.
    fn dim(&self) -> usize;

    /// Evaluates the residual `F(x)` into `out` (length [`Self::dim`]).
    ///
    /// # Errors
    ///
    /// Implementations may fail on out-of-domain iterates (e.g. a device
    /// model queried outside its table).
    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()>;

    /// Solves `J(x) · delta = f` for the Newton update, writing it into
    /// the caller-provided `delta` (length [`Self::dim`]), a buffer the
    /// driver owns.
    ///
    /// # Errors
    ///
    /// Implementations should surface singular Jacobians as
    /// [`NumError::Singular`].
    fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()>;

    /// Clamps or projects an iterate back into the valid domain
    /// (e.g. node voltages into `[−0.5, Vdd + 0.5]`). The default is the
    /// identity.
    fn project(&self, _x: &mut [f64]) {}
}

/// Convergence and damping controls for [`newton_solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations before reporting failure.
    pub max_iterations: usize,
    /// Converged when the ∞-norm of the residual drops below this.
    pub tol_residual: f64,
    /// Converged when the ∞-norm of the update drops below this.
    pub tol_update: f64,
    /// Maximum step halvings per iteration when the full step increases
    /// the residual norm (0 disables damping).
    pub max_backtracks: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 60,
            tol_residual: 1e-9,
            tol_update: 1e-12,
            max_backtracks: 8,
        }
    }
}

/// Outcome of a successful Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOutcome {
    /// The converged iterate.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual ∞-norm.
    pub residual_norm: f64,
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Runs damped Newton–Raphson from `x0` until convergence.
///
/// Each iteration solves `J δ = F` and applies `x ← x − λ δ`, halving λ
/// while the residual norm fails to decrease (up to
/// [`NewtonOptions::max_backtracks`] times; the last candidate is accepted
/// regardless so the iteration can escape flat regions).
///
/// # Errors
///
/// Returns [`NumError::NoConvergence`] when the iteration budget is
/// exhausted, and propagates residual/Jacobian errors.
///
/// ```
/// use qwm_num::newton::{newton_solve, NewtonOptions, NonlinearSystem};
/// use qwm_num::Result;
///
/// /// x² − 2 = 0
/// struct Sqrt2;
/// impl NonlinearSystem for Sqrt2 {
///     fn dim(&self) -> usize { 1 }
///     fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
///         out[0] = x[0] * x[0] - 2.0;
///         Ok(())
///     }
///     fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()> {
///         delta[0] = f[0] / (2.0 * x[0]);
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<()> {
/// let out = newton_solve(&Sqrt2, &[1.0], &NewtonOptions::default())?;
/// assert!((out.x[0] - 2f64.sqrt()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn newton_solve<S: NonlinearSystem + ?Sized>(
    system: &S,
    x0: &[f64],
    opts: &NewtonOptions,
) -> Result<NewtonOutcome> {
    let n = system.dim();
    if x0.len() != n {
        return Err(NumError::Dimension {
            context: "newton_solve",
            detail: format!("x0.len()={} dim={n}", x0.len()),
        });
    }
    // Residual, update, trial point, trial residual, and the
    // best-candidate pair kept by the damped line search.
    let mut f = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut xt = vec![0.0; n];
    let mut ft = vec![0.0; n];
    let mut best_x = vec![0.0; n];
    let mut best_f = vec![0.0; n];
    let mut x = x0.to_vec();
    system.project(&mut x);
    system.residual(&x, &mut f)?;
    let mut fnorm = inf_norm(&f);

    for iter in 0..opts.max_iterations {
        if fnorm <= opts.tol_residual {
            return Ok(NewtonOutcome {
                x,
                iterations: iter,
                residual_norm: fnorm,
            });
        }
        system.solve_jacobian(&x, &f, &mut delta)?;
        if !delta.iter().all(|d| d.is_finite()) {
            return Err(NumError::NoConvergence {
                method: "newton (non-finite update)",
                iterations: iter,
                residual: fnorm,
            });
        }

        // Damped line search on the residual norm. The best candidate
        // (lowest finite norm) is kept in best_x/best_f.
        let mut lambda = 1.0;
        let mut best_norm = f64::INFINITY;
        let mut have_best = false;
        for _ in 0..=opts.max_backtracks {
            for ((t, xi), di) in xt.iter_mut().zip(&x).zip(delta.iter()) {
                *t = xi - lambda * di;
            }
            system.project(&mut xt);
            match system.residual(&xt, &mut ft) {
                Ok(()) => {
                    let norm = inf_norm(&ft);
                    if norm.is_finite() && (!have_best || norm < best_norm) {
                        best_x.copy_from_slice(&xt);
                        best_f.copy_from_slice(&ft);
                        best_norm = norm;
                        have_best = true;
                    }
                    if norm < fnorm {
                        break;
                    }
                }
                Err(_) if opts.max_backtracks > 0 => {
                    // Out-of-domain trial point: shrink the step and retry.
                }
                Err(e) => return Err(e),
            }
            lambda *= 0.5;
        }
        if !have_best {
            return Err(NumError::NoConvergence {
                method: "newton (all damped steps out of domain)",
                iterations: iter,
                residual: fnorm,
            });
        }

        let update_norm: f64 = x
            .iter()
            .zip(best_x.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        x.copy_from_slice(&best_x);
        f.copy_from_slice(&best_f);
        fnorm = best_norm;
        if update_norm <= opts.tol_update {
            return Ok(NewtonOutcome {
                x,
                iterations: iter + 1,
                residual_norm: fnorm,
            });
        }
    }
    if fnorm <= opts.tol_residual {
        return Ok(NewtonOutcome {
            x,
            iterations: opts.max_iterations,
            residual_norm: fnorm,
        });
    }
    Err(NumError::NoConvergence {
        method: "newton",
        iterations: opts.max_iterations,
        residual: fnorm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// 2-D Rosenbrock-style gradient system with a known root at (1, 1).
    struct TwoD;
    impl NonlinearSystem for TwoD {
        fn dim(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
            Ok(())
        }
        fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()> {
            let j = Matrix::from_rows(&[&[2.0 * x[0], 2.0 * x[1]], &[1.0, -1.0]])?;
            delta.copy_from_slice(&j.solve(f)?);
            Ok(())
        }
    }

    #[test]
    fn converges_on_2d_system() {
        let out = newton_solve(&TwoD, &[3.0, 0.5], &NewtonOptions::default()).unwrap();
        assert!((out.x[0] - 1.0).abs() < 1e-8);
        assert!((out.x[1] - 1.0).abs() < 1e-8);
        assert!(out.iterations < 20);
    }

    #[test]
    fn immediate_convergence_costs_zero_iterations() {
        let out = newton_solve(&TwoD, &[1.0, 1.0], &NewtonOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }

    /// A system whose full Newton step overshoots badly without damping.
    struct Steep;
    impl NonlinearSystem for Steep {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
            out[0] = x[0].atan();
            Ok(())
        }
        fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()> {
            delta[0] = f[0] * (1.0 + x[0] * x[0]);
            Ok(())
        }
    }

    #[test]
    fn damping_rescues_atan() {
        // Plain Newton diverges on atan(x)=0 from |x0| > ~1.39; damping fixes it.
        let out = newton_solve(&Steep, &[5.0], &NewtonOptions::default()).unwrap();
        assert!(out.x[0].abs() < 1e-8);
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let opts = NewtonOptions {
            max_iterations: 1,
            tol_residual: 0.0,
            ..Default::default()
        };
        let err = newton_solve(&TwoD, &[30.0, -7.0], &opts).unwrap_err();
        assert!(matches!(err, NumError::NoConvergence { .. }));
    }

    #[test]
    fn projection_keeps_iterates_in_domain() {
        /// sqrt-based residual that would NaN for x < 0 without projection.
        struct Rooty;
        impl NonlinearSystem for Rooty {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
                if x[0] < 0.0 {
                    return Err(NumError::InvalidInput {
                        context: "Rooty",
                        detail: "negative".into(),
                    });
                }
                out[0] = x[0].sqrt() - 2.0;
                Ok(())
            }
            fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()> {
                delta[0] = f[0] * 2.0 * x[0].max(1e-12).sqrt();
                Ok(())
            }
            fn project(&self, x: &mut [f64]) {
                if x[0] < 0.0 {
                    x[0] = 0.0;
                }
            }
        }
        let out = newton_solve(&Rooty, &[0.1], &NewtonOptions::default()).unwrap();
        assert!((out.x[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(newton_solve(&TwoD, &[1.0], &NewtonOptions::default()).is_err());
    }
}
