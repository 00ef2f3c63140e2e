//! Piecewise Quadratic Waveform Matching (QWM) — the paper's primary
//! contribution.
//!
//! QWM computes the transient response of a CMOS charge/discharge chain
//! with a cost of roughly **K small algebraic solves** (one per
//! transistor) instead of the hundreds of Newton-at-every-time-step
//! solves a SPICE-class integrator needs. The trick (paper §IV): each
//! node's charge/discharge current has a single peak at its *critical
//! point* — the instant the transistor above it turns on — so between
//! critical points the current is well approximated as linear in time
//! and the voltage as quadratic, characterized by one parameter α per
//! node per region. Matching capacitor currents against device-model
//! branch currents at each critical point yields a small nonlinear
//! system whose Jacobian is tridiagonal plus one column, solvable in
//! O(K).
//!
//! * [`chain`] — extraction of the worst-case charge/discharge chain
//!   from a logic stage;
//! * [`piecewise`] — the quadratic waveform representation (Eq. (6));
//! * [`solver`] — the per-region algebraic system (Eq. (7)/(9)) with the
//!   bordered-tridiagonal Newton update (§IV-B) and a dense-LU ablation
//!   path;
//! * [`mod@evaluate`] — the event loop over critical points implementing
//!   waveform evaluation (Definition 3).
//!
//! # Example
//!
//! Delay of a 4-high NMOS stack:
//!
//! ```
//! use qwm_circuit::cells;
//! use qwm_circuit::waveform::{TransitionKind, Waveform};
//! use qwm_core::evaluate::{evaluate, QwmConfig};
//! use qwm_device::{analytic_models, Technology};
//!
//! # fn main() -> Result<(), qwm_num::NumError> {
//! let tech = Technology::cmosp35();
//! let models = analytic_models(&tech);
//! let stack = cells::nmos_stack(&tech, &vec![1.5e-6; 4], 10e-15)?;
//! let out = stack.node_by_name("out").expect("output");
//! let inputs: Vec<Waveform> =
//!     (0..4).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
//! // Precharged-high start (node 1 is ground in stage indexing).
//! let init: Vec<f64> = (0..stack.node_count())
//!     .map(|i| if i == 1 { 0.0 } else { tech.vdd })
//!     .collect();
//! let result = evaluate(
//!     &stack, &models, &inputs, &init, out,
//!     TransitionKind::Fall, &QwmConfig::default(),
//! )?;
//! let delay = result.delay_50(tech.vdd, 0.0).expect("50% crossing");
//! assert!(delay > 0.0);
//! # Ok(())
//! # }
//! ```

// The hot path must not clone what a borrow can serve (DESIGN.md §15);
// redundant_clone is allow-by-default upstream, denied here.
#![deny(clippy::redundant_clone)]

pub mod chain;
pub mod evaluate;
pub mod piecewise;
pub mod solver;
pub mod solver2;

pub use chain::{Chain, ChainElement};
pub use evaluate::{evaluate, CriticalPoint, CriticalPointKind, QwmConfig, QwmResult};
pub use piecewise::{PiecewiseQuadratic, QuadraticPiece};
pub use solver::{EndCondition, LinearSolver, RegionOptions};
pub use solver2::{solve_region_two_point, TwoPointSolution};
