//! A SPICE-class transient engine for CMOS logic stages.
//!
//! This crate is the reproduction's stand-in for HSPICE (see DESIGN.md
//! §2): classic time-domain numerical integration with Newton–Raphson at
//! every fixed time step, over the same device models the QWM engine
//! uses. It provides:
//!
//! * [`engine`] — fixed-step transient analysis (backward Euler or
//!   trapezoidal), Newton–Raphson or successive-chords iteration (the
//!   TETA baseline), per-run iteration/factorization counters and wall
//!   time for the Table I/II speedup columns;
//! * [`adaptive`] — the LTE-controlled variable-step transient behind
//!   the fallback ladder's adaptive rung;
//! * [`dcop`] — DC operating-point analysis for flattened circuits
//!   whose nodes need consistent starting voltages (feedback latches).
//!   Neither transient engine calls it: both start from the
//!   [`initial_uniform`] precharge.
//!
//! # Example
//!
//! Discharge a NAND2 and measure the 50 % delay:
//!
//! ```
//! use qwm_circuit::cells;
//! use qwm_circuit::waveform::Waveform;
//! use qwm_device::{analytic_models, Technology};
//! use qwm_spice::engine::{initial_uniform, simulate, TransientConfig};
//!
//! # fn main() -> Result<(), qwm_num::NumError> {
//! let tech = Technology::cmosp35();
//! let models = analytic_models(&tech);
//! let gate = cells::nand(&tech, 2, cells::DEFAULT_LOAD)?;
//! let inputs = vec![Waveform::step(0.0, 0.0, tech.vdd); 2];
//! let init = initial_uniform(&gate, &models, tech.vdd);
//! let result = simulate(&gate, &models, &inputs, &init, &TransientConfig::hspice_1ps(1.5e-9))?;
//! let out = gate.node_by_name("out").expect("output node");
//! let delay = result.waveform(out)?.crossing(tech.vdd / 2.0, false);
//! assert!(delay.is_some());
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod dcop;
pub mod engine;

pub use adaptive::{simulate_adaptive, AdaptiveConfig};
pub use dcop::dc_operating_point;
pub use engine::{
    initial_uniform, simulate, Integration, IterationScheme, TransientConfig, TransientResult,
};
