//! Circuit modeling for the QWM transistor-level timing toolkit.
//!
//! * [`stage`] — the CMOS logic stage as a polar directed graph (paper
//!   Definition 1) with builder, capacitance bookkeeping (Eq. (1)) and
//!   terminal-voltage resolution;
//! * [`waveform`] — piecewise-linear waveforms, threshold crossings and
//!   delay/slew metrics (the outputs of waveform evaluation,
//!   Definition 3);
//! * [`cells`] — generators for every circuit in the paper's evaluation:
//!   gates (Table I), random NMOS stacks (Table II), the Manchester carry
//!   chain (Fig. 2) and the memory decoder tree (Fig. 3);
//! * [`netlist`] — flat transistor-level netlists for full circuits;
//! * [`partition`] — channel-connected-component extraction of logic
//!   stages from a netlist (the "dynamic stage construction" of §I);
//! * [`parser`] — a SPICE-subset deck parser.
//!
//! # Example
//!
//! Build a NAND3 and inspect its discharge path:
//!
//! ```
//! use qwm_circuit::cells;
//! use qwm_device::tech::Technology;
//!
//! # fn main() -> Result<(), qwm_num::NumError> {
//! let tech = Technology::cmosp35();
//! let nand3 = cells::nand(&tech, 3, cells::DEFAULT_LOAD)?;
//! assert_eq!(nand3.inputs().len(), 3);
//! assert_eq!(nand3.edge_count(), 6); // 3 NMOS in series, 3 PMOS parallel
//! # Ok(())
//! # }
//! ```

pub mod cells;
pub mod flatten;
mod intern;
pub mod netlist;
pub mod parser;
pub mod partition;
pub mod stage;
pub mod waveform;

pub use flatten::{flatten_netlist, ring_oscillator, FlatCircuit};
pub use netlist::{NetDevice, NetId, Netlist};
pub use stage::{DeviceKind, Edge, EdgeId, Input, InputId, LogicStage, Node, NodeId, NodeKind};
pub use waveform::{delay_between, measure_transition, TimingMetrics, TransitionKind, Waveform};
