//! # qwm — transistor-level static timing analysis by piecewise
//! # quadratic waveform matching
//!
//! A from-scratch Rust reproduction of *"Transistor-Level Static Timing
//! Analysis by Piecewise Quadratic Waveform Matching"* (Wang & Zhu,
//! DATE 2003), including every substrate the paper depends on:
//!
//! | Crate | Role |
//! |---|---|
//! | [`num`] | LU / Thomas / Newton / polynomial fitting / Brent roots / statistics / RNG |
//! | [`device`] | analytic + tabular MOSFET models, parasitic caps (Definition 2) |
//! | [`circuit`] | logic stages (Definition 1), netlists, partitioning, waveforms, workloads |
//! | [`spice`] | the HSPICE stand-in: fixed-step MNA transient (NR / successive chords) |
//! | [`interconnect`] | RC trees, moments, Elmore/D2M, AWE, π macromodels |
//! | [`core`] | **QWM itself**: critical points, per-region algebraic solves, O(K) updates |
//! | [`sta`] | static timing analysis over stage graphs with pluggable evaluators |
//! | [`exec`] | zero-dependency parallelism: work-stealing pool, DAG scheduler (`QWM_THREADS`) |
//! | [`obs`] | zero-dependency telemetry: spans, counters, histograms, events (`QWM_OBS`) |
//! | [`fault`] | deterministic fault injection at named sites (`QWM_FAULTS`) |
//! | [`server`] | persistent timing-query server: sessions, admission control (`qwm serve`) |
//! | [`store`] | durable design store: checksummed record log, crash-safe snapshots, warm restarts |
//!
//! # Quickstart
//!
//! Compare QWM against the SPICE baseline on a NAND3 discharge:
//!
//! ```
//! use qwm::circuit::cells;
//! use qwm::circuit::waveform::{TransitionKind, Waveform};
//! use qwm::core::evaluate::{evaluate, QwmConfig};
//! use qwm::device::{analytic_models, Technology};
//! use qwm::spice::engine::{initial_uniform, simulate, TransientConfig};
//!
//! # fn main() -> Result<(), qwm::num::NumError> {
//! let tech = Technology::cmosp35();
//! let models = analytic_models(&tech);
//! let gate = cells::nand(&tech, 3, cells::DEFAULT_LOAD)?;
//! let out = gate.node_by_name("out").expect("output");
//! let inputs: Vec<Waveform> =
//!     (0..3).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
//! let init = initial_uniform(&gate, &models, tech.vdd);
//!
//! // QWM: a handful of algebraic solves.
//! let qwm = evaluate(&gate, &models, &inputs, &init, out,
//!                    TransitionKind::Fall, &QwmConfig::default())?;
//! let d_qwm = qwm.delay_50(tech.vdd, 0.0).expect("delay");
//!
//! // SPICE: Newton at every 1 ps step.
//! let sp = simulate(&gate, &models, &inputs, &init,
//!                   &TransientConfig::hspice_1ps(2e-9))?;
//! let d_sp = sp.waveform(out)?.crossing(tech.vdd / 2.0, false).expect("delay");
//!
//! let err = (d_qwm - d_sp).abs() / d_sp;
//! assert!(err < 0.10, "engines agree: qwm {d_qwm} vs spice {d_sp}");
//! # Ok(())
//! # }
//! ```

pub use qwm_circuit as circuit;
pub use qwm_core as core;
pub use qwm_device as device;
pub use qwm_exec as exec;
pub use qwm_fault as fault;
pub use qwm_interconnect as interconnect;
pub use qwm_num as num;
pub use qwm_obs as obs;
pub use qwm_server as server;
pub use qwm_spice as spice;
pub use qwm_sta as sta;
pub use qwm_store as store;
