//! Transistor-level static timing analysis on top of QWM.
//!
//! Full-chip timing (paper §I) layers three classic techniques over fast
//! stage evaluation: **circuit partitioning** into channel-connected
//! logic stages, **worst-case** per-stage analysis, and **longest-path**
//! propagation. This crate provides all three plus the incremental
//! re-analysis flow:
//!
//! * [`graph`] — netlist → stage DAG (partitioning + topological order);
//! * [`evaluator`] — pluggable stage-delay oracles: switch-level Elmore
//!   (Crystal/IRSIM class), QWM (the paper), and SPICE (golden);
//! * [`engine`] — arrival propagation, critical-path extraction, and
//!   incremental re-analysis after transistor resizing (only the touched
//!   stage is re-evaluated).
//!
//! # Example
//!
//! Time an inverter chain with QWM and find the critical path:
//!
//! ```
//! use qwm_circuit::waveform::TransitionKind;
//! use qwm_device::{analytic_models, Technology};
//! use qwm_sta::engine::StaEngine;
//! use qwm_sta::evaluator::QwmEvaluator;
//! use qwm_sta::graph::inverter_chain;
//!
//! # fn main() -> Result<(), qwm_num::NumError> {
//! let tech = Technology::cmosp35();
//! let models = analytic_models(&tech);
//! let netlist = inverter_chain(&tech, 4, 10e-15);
//! let mut engine = StaEngine::new(netlist, &models, TransitionKind::Fall)?;
//! let report = engine.run(&QwmEvaluator::default())?;
//! let (_net, arrival) = report.worst.expect("a worst output");
//! assert!(arrival > 0.0);
//! assert_eq!(report.critical_path.len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod corners;
pub mod engine;
pub mod evaluator;
pub mod graph;
pub mod incremental;
pub mod report;
pub mod snapshot;

pub use corners::{CornerReport, CornerRun};
pub use engine::{StaEngine, TimingReport};
pub use evaluator::{ElmoreEvaluator, QwmEvaluator, SpiceEvaluator, StageEvaluator};
pub use graph::{StageGraph, StageId};
pub use incremental::{parse_edit_script, Edit, IncrementalStats};
pub use report::{format_report, golden_corner_report};
pub use snapshot::{CommitSnapshot, CornerCommitSnapshot};

/// Re-export of [`qwm_core::evaluate::warm_worker`] for embedders that
/// run STA queries on long-lived worker threads (e.g. the `qwm-server`
/// pool): call it from each worker's start-up hook to pre-size the
/// thread-local QWM evaluation workspace (DESIGN.md §15).
pub use qwm_core::evaluate::warm_worker;
