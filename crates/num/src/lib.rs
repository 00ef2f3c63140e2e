//! Numerical kernels underpinning the QWM transistor-level timing analyzer.
//!
//! This crate is self-contained (no external numerics dependencies) and
//! holds exactly the kernels the rest of the workspace calls, each with
//! one implementation:
//!
//! * [`matrix`] — a small dense row-major matrix with LU decomposition and
//!   partial pivoting. The SPICE baseline's MNA solve
//!   (`qwm_spice::engine`, `qwm_spice::dcop`), the dense-LU ablation of
//!   the QWM region solve (`qwm_core::solver`, paper §IV-B) and
//!   [`polyfit`]'s normal equations use it.
//! * [`tridiag`] — the Thomas algorithm, the O(K) workhorse of the QWM
//!   Newton update: the region solver runs its tridiagonal-plus-τ′-column
//!   system as two Thomas solves and a scalar elimination.
//! * [`newton`] — a damped Newton–Raphson driver behind
//!   `qwm_spice::dcop::dc_operating_point` (consistent DC starting
//!   voltages). Neither transient engine uses it; each has its own loop.
//! * [`polyfit`] — linear least-squares polynomial fitting, used by the
//!   tabular device model (`qwm_device::table`: linear fit in
//!   saturation, quadratic fit in triode, paper §V-A).
//! * [`roots`] — a scan bracket plus Brent refinement, used for the 50 %
//!   crossing of the AWE two-pole model (`qwm_interconnect::awe`).
//! * [`stats`] — means, percentiles, Box–Muller sampling and series
//!   comparison, used by the Monte Carlo corners (`qwm_device::corner`),
//!   the paper bins, the capacity harness and the benchmark.
//! * [`rng`] — a deterministic PRNG for workload synthesis, Monte Carlo
//!   corners, fault plans and randomized tests, keeping the workspace free
//!   of external dependencies.
//!
//! # Example
//!
//! Solve a small tridiagonal system with LU and with the Thomas path:
//!
//! ```
//! use qwm_num::matrix::Matrix;
//! use qwm_num::tridiag::thomas_solve_into;
//!
//! # fn main() -> Result<(), qwm_num::NumError> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]])?;
//! let b = [3.0, 5.0, 3.0];
//! let x_lu = a.solve(&b)?;
//!
//! let (mut c, mut x_tri) = ([0.0; 3], [0.0; 3]);
//! thomas_solve_into(&[1.0, 1.0], &[2.0, 3.0, 2.0], &[1.0, 1.0], &b, &mut c, &mut x_tri)?;
//! for (l, t) in x_lu.iter().zip(&x_tri) {
//!     assert!((l - t).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

// The kernel crates must not regress into clone-per-iteration patterns;
// redundant_clone is allow-by-default upstream, denied here.
#![deny(clippy::redundant_clone)]

pub mod matrix;
pub mod newton;
pub mod polyfit;
pub mod rng;
pub mod roots;
pub mod stats;
pub mod tridiag;

use std::fmt;

/// Errors produced by the numerical kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// A matrix or system had inconsistent or empty dimensions.
    Dimension {
        /// What was being constructed or solved.
        context: &'static str,
        /// Dimension details, e.g. `"rows=3 cols=2"`.
        detail: String,
    },
    /// A (near-)singular pivot was encountered during factorization.
    Singular {
        /// Pivot index at which breakdown occurred.
        index: usize,
        /// Magnitude of the offending pivot.
        pivot: f64,
    },
    /// An iterative method failed to converge.
    NoConvergence {
        /// Which method failed.
        method: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
    /// Input data was invalid (NaN, empty samples, unordered abscissae...).
    InvalidInput {
        /// What was being computed.
        context: &'static str,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A computation exceeded its iteration or wall-clock budget.
    Timeout {
        /// Which budget was exhausted.
        context: &'static str,
        /// Budget details (limit, elapsed, site).
        detail: String,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Dimension { context, detail } => {
                write!(f, "dimension mismatch in {context}: {detail}")
            }
            NumError::Singular { index, pivot } => {
                write!(f, "singular pivot {pivot:e} at index {index}")
            }
            NumError::NoConvergence {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} failed to converge after {iterations} iterations (residual {residual:e})"
            ),
            NumError::InvalidInput { context, detail } => {
                write!(f, "invalid input to {context}: {detail}")
            }
            NumError::Timeout { context, detail } => {
                write!(f, "budget exhausted in {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for NumError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, NumError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NumError::Singular {
            index: 3,
            pivot: 1e-20,
        };
        let s = e.to_string();
        assert!(s.contains("singular"));
        assert!(s.contains('3'));
    }
}
