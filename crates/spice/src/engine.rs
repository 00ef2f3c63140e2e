//! Fixed-step transient simulation of a logic stage (the HSPICE stand-in).
//!
//! This is the baseline every QWM experiment compares against: classic
//! time-domain numerical integration. At each time step the nonlinear
//! KCL system is solved by damped Newton–Raphson (or, optionally, by
//! successive-chords iteration as in TETA — see [`IterationScheme`]),
//! with the MNA Jacobian factored by dense LU. Step sizes of 1 ps and
//! 10 ps reproduce the two HSPICE columns of Tables I and II.
//!
//! Modeling conventions shared with the QWM engine (so accuracy
//! comparisons measure the *methods*):
//!
//! * node capacitances are the voltage-dependent sums of Eq. (1),
//!   evaluated at the beginning-of-step voltage;
//! * gate-to-channel coupling is lumped to ground by default
//!   (`gate_coupling` re-enables the `C·dG/dt` injection);
//! * a small `gmin` to ground keeps the Jacobian nonsingular when every
//!   device is cut off.

use qwm_circuit::stage::{DeviceKind, LogicStage, NodeId, NodeKind};

use qwm_circuit::waveform::Waveform;
use qwm_device::model::{ModelSet, Polarity};
use qwm_num::matrix::Matrix;
use qwm_num::{NumError, Result};
use std::time::{Duration, Instant};

/// Time-integration method for the capacitor companion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integration {
    /// Backward Euler: robust, first order.
    BackwardEuler,
    /// Trapezoidal: second order, the HSPICE default.
    Trapezoidal,
}

/// Nonlinear iteration scheme per time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationScheme {
    /// Newton–Raphson: re-stamp and re-factor the Jacobian every
    /// iteration.
    NewtonRaphson,
    /// Successive chords (TETA, paper §II): factor the Jacobian once at
    /// the start of each step and reuse it for all iterations of that
    /// step; falls back to a fresh factorization if the step fails to
    /// converge.
    SuccessiveChords,
}

/// Transient-analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Fixed time step \[s\].
    pub step: f64,
    /// Stop time \[s\].
    pub t_stop: f64,
    /// Integration method.
    pub integration: Integration,
    /// Iteration scheme.
    pub iteration: IterationScheme,
    /// Leak conductance to ground on every internal node \[S\].
    pub gmin: f64,
    /// Maximum Newton/chord iterations per step.
    pub max_iterations: usize,
    /// Residual convergence tolerance \[A\].
    pub tol_current: f64,
    /// Update convergence tolerance \[V\].
    pub tol_voltage: f64,
    /// Model the `C·dG/dt` gate-coupling injection.
    pub gate_coupling: bool,
}

impl TransientConfig {
    /// The paper's high-resolution baseline: 1 ps steps.
    pub fn hspice_1ps(t_stop: f64) -> Self {
        TransientConfig {
            step: 1e-12,
            t_stop,
            ..TransientConfig::default()
        }
    }

    /// The paper's coarse baseline: 10 ps steps.
    pub fn hspice_10ps(t_stop: f64) -> Self {
        TransientConfig {
            step: 10e-12,
            t_stop,
            ..TransientConfig::default()
        }
    }
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            step: 1e-12,
            t_stop: 1e-9,
            integration: Integration::BackwardEuler,
            iteration: IterationScheme::NewtonRaphson,
            gmin: 1e-12,
            max_iterations: 50,
            tol_current: 1e-12,
            tol_voltage: 1e-9,
            gate_coupling: false,
        }
    }
}

/// The result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Sample times (uniform grid) \[s\].
    pub times: Vec<f64>,
    /// Per-node voltage samples: `voltages[node][step]` \[V\].
    pub voltages: Vec<Vec<f64>>,
    /// Total nonlinear iterations across all steps.
    pub iterations: usize,
    /// Total Jacobian factorizations (differs from iterations under
    /// successive chords).
    pub factorizations: usize,
    /// Wall-clock time of the solve loop.
    pub elapsed: Duration,
}

impl TransientResult {
    /// The sampled waveform at a node.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for an out-of-range node.
    pub fn waveform(&self, node: NodeId) -> Result<Waveform> {
        let samples = self
            .voltages
            .get(node.0)
            .ok_or_else(|| NumError::InvalidInput {
                context: "TransientResult::waveform",
                detail: format!("node {} out of range", node.0),
            })?;
        Waveform::from_samples(
            self.times
                .iter()
                .copied()
                .zip(samples.iter().copied())
                .collect(),
        )
    }

    /// The discharge/charge current waveform `I_k = C_k · dV_k/dt` at a
    /// node (paper Eq. (2)), reconstructed by central differences with
    /// the same capacitance model used during simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for an out-of-range node or a
    /// run with fewer than three samples.
    pub fn node_current(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        node: NodeId,
    ) -> Result<Vec<(f64, f64)>> {
        let v = self
            .voltages
            .get(node.0)
            .ok_or_else(|| NumError::InvalidInput {
                context: "TransientResult::node_current",
                detail: format!("node {} out of range", node.0),
            })?;
        if v.len() < 3 {
            return Err(NumError::InvalidInput {
                context: "TransientResult::node_current",
                detail: "need at least 3 samples".to_string(),
            });
        }
        let mut out = Vec::with_capacity(v.len() - 2);
        for i in 1..v.len() - 1 {
            let dt = self.times[i + 1] - self.times[i - 1];
            let dv = v[i + 1] - v[i - 1];
            let c = stage.node_cap(node, models, v[i]);
            out.push((self.times[i], c * dv / dt));
        }
        Ok(out)
    }
}

/// All-internal-nodes-at-`v` initial condition (rails at their fixed
/// values). The canonical precharged-high start for discharge analyses.
pub fn initial_uniform(stage: &LogicStage, models: &ModelSet, v: f64) -> Vec<f64> {
    let vdd = models.tech().vdd;
    (0..stage.node_count())
        .map(|i| match stage.node(NodeId(i)).kind {
            NodeKind::Supply => vdd,
            NodeKind::Ground => 0.0,
            NodeKind::Internal => v,
        })
        .collect()
}

/// Rejects non-finite input samples and initial voltages: breakpoints
/// are ordered by time, and the device equations need real terminal
/// voltages.
pub(crate) fn check_finite(
    context: &'static str,
    inputs: &[Waveform],
    initial: &[f64],
) -> Result<()> {
    let samples = inputs.iter().flat_map(|w| w.samples());
    if samples.flat_map(|&(t, v)| [t, v]).any(|x| !x.is_finite())
        || !initial.iter().all(|v| v.is_finite())
    {
        return Err(NumError::InvalidInput {
            context,
            detail: "non-finite input sample or initial voltage".to_string(),
        });
    }
    Ok(())
}

/// Runs a fixed-step transient simulation.
///
/// `inputs` supplies one waveform per stage input (aligned with
/// `stage.inputs()`); `initial` gives the node voltages at `t = 0`
/// (length `stage.node_count()`, rails overridden to their fixed values).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on mis-sized arguments or a
/// non-positive step, [`NumError::NoConvergence`] if a step exhausts the
/// iteration budget, and propagates linear-algebra failures.
pub fn simulate(
    stage: &LogicStage,
    models: &ModelSet,
    inputs: &[Waveform],
    initial: &[f64],
    config: &TransientConfig,
) -> Result<TransientResult> {
    if let Some(e) = qwm_fault::check("spice.transient") {
        return Err(e);
    }
    if inputs.len() != stage.inputs().len() {
        return Err(NumError::InvalidInput {
            context: "spice::simulate",
            detail: format!(
                "{} input waveforms for {} inputs",
                inputs.len(),
                stage.inputs().len()
            ),
        });
    }
    if initial.len() != stage.node_count() {
        return Err(NumError::InvalidInput {
            context: "spice::simulate",
            detail: format!(
                "{} initial voltages for {} nodes",
                initial.len(),
                stage.node_count()
            ),
        });
    }
    if config.step <= 0.0 || config.t_stop < config.step {
        return Err(NumError::InvalidInput {
            context: "spice::simulate",
            detail: format!("step {} stop {}", config.step, config.t_stop),
        });
    }
    check_finite("spice::simulate", inputs, initial)?;

    let start = Instant::now();
    let _span = qwm_obs::span!("spice.simulate");
    let _trace = qwm_obs::trace::TraceGuard::enter("spice.simulate");
    let mut stepper = Stepper::new(stage, models, inputs, config)?;
    let mut node_v: Vec<f64> = initial.to_vec();
    node_v[stage.source().0] = models.tech().vdd;
    node_v[stage.sink().0] = 0.0;

    let steps = (config.t_stop / config.step).round() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut volts: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); stage.node_count()];
    let record = |times: &mut Vec<f64>, volts: &mut Vec<Vec<f64>>, t: f64, v: &[f64]| {
        times.push(t);
        for (trace, &val) in volts.iter_mut().zip(v) {
            trace.push(val);
        }
    };
    record(&mut times, &mut volts, 0.0, &node_v);

    let h = config.step;
    for step_idx in 1..=steps {
        let t_end = step_idx as f64 * h;
        let t_begin = t_end - h;
        let substeps = if stepper.inputs_move_within(t_begin, t_end) {
            10
        } else {
            1
        };
        for sub in 1..=substeps {
            let t = t_begin + h * sub as f64 / substeps as f64;
            stepper.advance(&mut node_v, t, h / substeps as f64)?;
            if sub == substeps {
                record(&mut times, &mut volts, t, &node_v);
            }
        }
    }

    let (total_iterations, factorizations) = stepper.counters();
    qwm_obs::counter!("spice.transient.steps").add(steps as u64);
    qwm_obs::counter!("spice.transient.nr_iterations").add(total_iterations as u64);
    qwm_obs::counter!("spice.transient.factorizations").add(factorizations as u64);
    Ok(TransientResult {
        times,
        voltages: volts,
        iterations: total_iterations,
        factorizations,
        elapsed: start.elapsed(),
    })
}

/// Reusable single-interval integrator: owns the unknown ordering, the
/// Jacobian workspace and the iteration counters, so both the fixed-step
/// loop and the adaptive controller can advance state without per-call
/// setup.
pub(crate) struct Stepper<'a> {
    stage: &'a LogicStage,
    models: &'a ModelSet,
    inputs: &'a [Waveform],
    config: &'a TransientConfig,
    internal: Vec<NodeId>,
    index_of: Vec<usize>,
    jac: Matrix,
    iterations: usize,
    factorizations: usize,
    breakpoints: Vec<f64>,
}

impl<'a> Stepper<'a> {
    pub(crate) fn new(
        stage: &'a LogicStage,
        models: &'a ModelSet,
        inputs: &'a [Waveform],
        config: &'a TransientConfig,
    ) -> Result<Self> {
        let internal = stage.internal_nodes();
        let n = internal.len();
        let mut index_of = vec![usize::MAX; stage.node_count()];
        for (i, id) in internal.iter().enumerate() {
            index_of[id.0] = i;
        }
        let mut breakpoints: Vec<f64> = inputs
            .iter()
            .flat_map(|w| w.samples().iter().map(|&(t, _)| t))
            .filter(|&t| t > 0.0)
            .collect();
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup();
        Ok(Stepper {
            stage,
            models,
            inputs,
            config,
            internal,
            index_of,
            jac: Matrix::zeros(n.max(1), n.max(1))?,
            iterations: 0,
            factorizations: 0,
            breakpoints,
        })
    }

    /// `(total Newton iterations, total factorizations)` so far.
    pub(crate) fn counters(&self) -> (usize, usize) {
        (self.iterations, self.factorizations)
    }

    /// True when an input waveform has a breakpoint strictly inside
    /// `(t0, t1)` or moves materially across it — the sub-step trigger.
    pub(crate) fn inputs_move_within(&self, t0: f64, t1: f64) -> bool {
        self.breakpoints
            .iter()
            .any(|&b| b > t0 + 1e-18 && b < t1 - 1e-18)
            || self
                .inputs
                .iter()
                .any(|w| (w.value(t1) - w.value(t0)).abs() > 1e-3)
    }

    /// Advances `node_v` across one interval ending at absolute time `t`
    /// with span `h`, solving the implicit system by the configured
    /// iteration scheme.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NoConvergence`] when the iteration budget is
    /// exhausted and propagates device/linear-algebra failures.
    pub(crate) fn advance(&mut self, node_v: &mut [f64], t: f64, h: f64) -> Result<()> {
        let config = self.config;
        let stage = self.stage;
        let models = self.models;
        let n = self.internal.len();
        let vdd = models.tech().vdd;

        let mut input_v = vec![0.0; self.inputs.len()];
        let mut input_slope = vec![0.0; self.inputs.len()];
        for (k, w) in self.inputs.iter().enumerate() {
            input_v[k] = w.value(t);
            input_slope[k] = if config.gate_coupling {
                w.slope(t)
            } else {
                0.0
            };
        }
        // Node caps at beginning-of-step voltages.
        let caps: Vec<f64> = self
            .internal
            .iter()
            .map(|&id| stage.node_cap(id, models, node_v[id.0]))
            .collect();
        let v_prev: Vec<f64> = self.internal.iter().map(|&id| node_v[id.0]).collect();

        // Trapezoidal needs the previous outflow.
        let prev_outflow: Vec<f64> = if config.integration == Integration::Trapezoidal {
            outflow(stage, models, node_v, &input_v, &self.index_of, config.gmin)?
        } else {
            vec![0.0; n]
        };

        let mut x = v_prev.clone();
        let mut converged = false;
        let mut chord: Option<qwm_num::matrix::LuFactors> = None;
        for iter in 0..config.max_iterations {
            self.iterations += 1;
            // Candidate full node voltages.
            let mut cand = node_v.to_vec();
            for (i, &id) in self.internal.iter().enumerate() {
                cand[id.0] = x[i];
            }
            let out_now = outflow(stage, models, &cand, &input_v, &self.index_of, config.gmin)?;
            let mut resid = vec![0.0; n];
            for i in 0..n {
                let dyn_term = caps[i] / h * (x[i] - v_prev[i]);
                let inj = coupling_injection(stage, models, &self.internal, &input_slope, i);
                resid[i] = match config.integration {
                    Integration::BackwardEuler => dyn_term + out_now[i] - inj,
                    Integration::Trapezoidal => {
                        dyn_term + 0.5 * (out_now[i] + prev_outflow[i]) - inj
                    }
                };
            }
            let rnorm = resid.iter().fold(0.0_f64, |m, r| m.max(r.abs()));
            if rnorm < config.tol_current {
                converged = true;
                break;
            }
            // Solve J δ = resid.
            let use_chord = config.iteration == IterationScheme::SuccessiveChords;
            let reusable = if use_chord && iter > 0 {
                chord.clone()
            } else {
                None
            };
            let lu = if let Some(f) = reusable {
                f
            } else {
                self.jac.clear();
                stamp_jacobian(
                    stage,
                    models,
                    &cand,
                    &input_v,
                    &self.index_of,
                    config,
                    h,
                    &caps,
                    &mut self.jac,
                )?;
                self.factorizations += 1;
                let f = self.jac.lu()?;
                if use_chord {
                    chord = Some(f.clone());
                }
                f
            };
            let delta = lu.solve(&resid)?;
            let mut max_update = 0.0_f64;
            for i in 0..n {
                // Damp huge excursions; clamp to the physical window.
                let d = delta[i].clamp(-1.0, 1.0);
                x[i] = (x[i] - d).clamp(-0.5, vdd + 0.5);
                max_update = max_update.max(d.abs());
            }
            if max_update < config.tol_voltage {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(NumError::NoConvergence {
                method: "spice transient step",
                iterations: config.max_iterations,
                residual: t,
            });
        }
        for (i, &id) in self.internal.iter().enumerate() {
            node_v[id.0] = x[i];
        }
        Ok(())
    }
}

/// Sum of device currents *leaving* each internal node plus the gmin
/// leak, for candidate node voltages.
fn outflow(
    stage: &LogicStage,
    models: &ModelSet,
    node_v: &[f64],
    input_v: &[f64],
    index_of: &[usize],
    gmin: f64,
) -> Result<Vec<f64>> {
    let n = index_of.iter().filter(|&&i| i != usize::MAX).count();
    let mut out = vec![0.0; n];
    for (ei, edge) in stage.edges().iter().enumerate() {
        let tv = stage.edge_voltages(qwm_circuit::stage::EdgeId(ei), node_v, input_v);
        let i = match edge.kind {
            DeviceKind::Nmos => models.for_polarity(Polarity::Nmos).iv(&edge.geom, tv)?,
            DeviceKind::Pmos => models.for_polarity(Polarity::Pmos).iv(&edge.geom, tv)?,
            DeviceKind::Wire => {
                let r = qwm_device::caps::wire_res(models.tech(), edge.geom.w, edge.geom.l);
                (tv.src - tv.snk) / r
            }
        };
        let si = index_of[edge.src.0];
        let ki = index_of[edge.snk.0];
        if si != usize::MAX {
            out[si] += i;
        }
        if ki != usize::MAX {
            out[ki] -= i;
        }
    }
    for (node, &idx) in index_of.iter().enumerate() {
        if idx != usize::MAX {
            out[idx] += gmin * node_v[node];
        }
    }
    Ok(out)
}

/// `C·dG/dt` gate-coupling injection into internal node `i` (zero unless
/// `gate_coupling` put nonzero slopes in `input_slope`).
fn coupling_injection(
    stage: &LogicStage,
    models: &ModelSet,
    internal: &[NodeId],
    input_slope: &[f64],
    i: usize,
) -> f64 {
    let id = internal[i];
    let mut inj = 0.0;
    for &(e, _) in stage.incident(id) {
        let edge = stage.edge(e);
        if let (Some(input), Some(_)) = (edge.input, edge.kind.polarity()) {
            let slope = input_slope[input.0];
            if slope != 0.0 {
                inj += qwm_device::caps::channel_side_cap(models.tech(), &edge.geom) * slope;
            }
        }
    }
    inj
}

/// Stamps `J = C/h + ∂outflow/∂v` into `jac`.
#[allow(clippy::too_many_arguments)]
fn stamp_jacobian(
    stage: &LogicStage,
    models: &ModelSet,
    node_v: &[f64],
    input_v: &[f64],
    index_of: &[usize],
    config: &TransientConfig,
    h: f64,
    caps: &[f64],
    jac: &mut Matrix,
) -> Result<()> {
    let scale = match config.integration {
        Integration::BackwardEuler => 1.0,
        Integration::Trapezoidal => 0.5,
    };
    for (ei, edge) in stage.edges().iter().enumerate() {
        let tv = stage.edge_voltages(qwm_circuit::stage::EdgeId(ei), node_v, input_v);
        let (d_src, d_snk, d_gate) = match edge.kind {
            DeviceKind::Nmos => {
                let e = models
                    .for_polarity(Polarity::Nmos)
                    .iv_eval(&edge.geom, tv)?;
                (e.d_src, e.d_snk, e.d_input)
            }
            DeviceKind::Pmos => {
                let e = models
                    .for_polarity(Polarity::Pmos)
                    .iv_eval(&edge.geom, tv)?;
                (e.d_src, e.d_snk, e.d_input)
            }
            DeviceKind::Wire => {
                let g = 1.0 / qwm_device::caps::wire_res(models.tech(), edge.geom.w, edge.geom.l);
                (g, -g, 0.0)
            }
        };
        let si = index_of[edge.src.0];
        let ki = index_of[edge.snk.0];
        if si != usize::MAX {
            jac.add(si, si, scale * d_src);
            if ki != usize::MAX {
                jac.add(si, ki, scale * d_snk);
            }
        }
        if ki != usize::MAX {
            jac.add(ki, ki, -scale * d_snk);
            if si != usize::MAX {
                jac.add(ki, si, -scale * d_src);
            }
        }
        // Gate driven by another internal node: the channel current also
        // depends on that node's voltage.
        if let Some(gn) = edge.gate_node {
            let gi = index_of[gn.0];
            if gi != usize::MAX && d_gate != 0.0 {
                if si != usize::MAX {
                    jac.add(si, gi, scale * d_gate);
                }
                if ki != usize::MAX {
                    jac.add(ki, gi, -scale * d_gate);
                }
            }
        }
    }
    for (i, &c) in caps.iter().enumerate() {
        jac.add(i, i, c / h + scale * config.gmin);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};

    fn setup() -> (Technology, ModelSet) {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        (tech, models)
    }

    /// A non-finite input breakpoint or initial voltage ends in a
    /// structured error, never a panic in the breakpoint ordering.
    #[test]
    fn non_finite_breakpoints_are_errors() {
        let (tech, models) = setup();
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let init = initial_uniform(&inv, &models, tech.vdd);
        let cfg = TransientConfig::hspice_1ps(100e-12);
        for t0 in [f64::NAN, f64::INFINITY] {
            let inputs = vec![Waveform::ramp(t0, 20e-12, 0.0, tech.vdd)];
            let r = simulate(&inv, &models, &inputs, &init, &cfg);
            assert!(
                matches!(r, Err(NumError::InvalidInput { .. })),
                "t0 {t0}: {r:?}"
            );
        }
        let mut bad = init.clone();
        bad[2] = f64::NAN;
        let inputs = vec![Waveform::step(10e-12, 0.0, tech.vdd)];
        let r = simulate(&inv, &models, &inputs, &bad, &cfg);
        assert!(matches!(r, Err(NumError::InvalidInput { .. })), "{r:?}");
        let adaptive = crate::adaptive::AdaptiveConfig::new(100e-12);
        let inputs = vec![Waveform::ramp(f64::NAN, 20e-12, 0.0, tech.vdd)];
        let r = crate::adaptive::simulate_adaptive(&inv, &models, &inputs, &init, &adaptive);
        assert!(matches!(r, Err(NumError::InvalidInput { .. })), "{r:?}");
    }

    #[test]
    fn inverter_discharges_output() {
        let (tech, models) = setup();
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let inputs = vec![Waveform::step(10e-12, 0.0, tech.vdd)];
        let init = initial_uniform(&inv, &models, tech.vdd);
        let cfg = TransientConfig::hspice_1ps(600e-12);
        let r = simulate(&inv, &models, &inputs, &init, &cfg).unwrap();
        let out = inv.node_by_name("out").unwrap();
        let w = r.waveform(out).unwrap();
        assert!(w.value(0.0) > 3.0);
        assert!(
            w.final_value() < 0.1,
            "output settles low: {}",
            w.final_value()
        );
        assert!(w.crossing(tech.vdd / 2.0, false).is_some());
        assert!(r.iterations > 0);
    }

    #[test]
    fn inverter_charges_output() {
        let (tech, models) = setup();
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let inputs = vec![Waveform::step(10e-12, tech.vdd, 0.0)];
        let init = initial_uniform(&inv, &models, 0.0);
        let cfg = TransientConfig::hspice_1ps(800e-12);
        let r = simulate(&inv, &models, &inputs, &init, &cfg).unwrap();
        let out = inv.node_by_name("out").unwrap();
        let w = r.waveform(out).unwrap();
        assert!(
            w.final_value() > 3.2,
            "output settles high: {}",
            w.final_value()
        );
    }

    #[test]
    fn nand_discharge_is_slower_with_longer_stack() {
        let (tech, models) = setup();
        let mut delays = Vec::new();
        for n in 2..=4 {
            let g = cells::nand(&tech, n, cells::DEFAULT_LOAD).unwrap();
            let inputs: Vec<Waveform> = (0..n)
                .map(|_| Waveform::step(10e-12, 0.0, tech.vdd))
                .collect();
            let init = initial_uniform(&g, &models, tech.vdd);
            let cfg = TransientConfig::hspice_1ps(2e-9);
            let r = simulate(&g, &models, &inputs, &init, &cfg).unwrap();
            let out = g.node_by_name("out").unwrap();
            let w = r.waveform(out).unwrap();
            let t50 = w.crossing(tech.vdd / 2.0, false).expect("output falls");
            delays.push(t50);
        }
        assert!(delays[0] < delays[1] && delays[1] < delays[2], "{delays:?}");
    }

    #[test]
    fn ten_ps_matches_one_ps_roughly() {
        let (tech, models) = setup();
        let g = cells::nand(&tech, 2, cells::DEFAULT_LOAD).unwrap();
        let inputs: Vec<Waveform> = (0..2)
            .map(|_| Waveform::step(10e-12, 0.0, tech.vdd))
            .collect();
        let init = initial_uniform(&g, &models, tech.vdd);
        let out = g.node_by_name("out").unwrap();
        let r1 = simulate(
            &g,
            &models,
            &inputs,
            &init,
            &TransientConfig::hspice_1ps(1e-9),
        )
        .unwrap();
        let r10 = simulate(
            &g,
            &models,
            &inputs,
            &init,
            &TransientConfig::hspice_10ps(1e-9),
        )
        .unwrap();
        let d1 = r1.waveform(out).unwrap().crossing(1.65, false).unwrap();
        let d10 = r10.waveform(out).unwrap().crossing(1.65, false).unwrap();
        assert!(
            (d1 - d10).abs() < 0.1 * d1,
            "1ps delay {d1} vs 10ps delay {d10}"
        );
    }

    #[test]
    fn trapezoidal_agrees_with_backward_euler() {
        let (tech, models) = setup();
        let g = cells::nand(&tech, 3, cells::DEFAULT_LOAD).unwrap();
        let inputs: Vec<Waveform> = (0..3)
            .map(|_| Waveform::step(10e-12, 0.0, tech.vdd))
            .collect();
        let init = initial_uniform(&g, &models, tech.vdd);
        let out = g.node_by_name("out").unwrap();
        let mut cfg = TransientConfig::hspice_1ps(1.5e-9);
        let be = simulate(&g, &models, &inputs, &init, &cfg).unwrap();
        cfg.integration = Integration::Trapezoidal;
        let tr = simulate(&g, &models, &inputs, &init, &cfg).unwrap();
        let dbe = be.waveform(out).unwrap().crossing(1.65, false).unwrap();
        let dtr = tr.waveform(out).unwrap().crossing(1.65, false).unwrap();
        assert!((dbe - dtr).abs() < 0.03 * dbe, "BE {dbe} vs TR {dtr}");
    }

    #[test]
    fn successive_chords_matches_newton_with_fewer_factorizations() {
        let (tech, models) = setup();
        let g = cells::nand(&tech, 3, cells::DEFAULT_LOAD).unwrap();
        let inputs: Vec<Waveform> = (0..3)
            .map(|_| Waveform::step(10e-12, 0.0, tech.vdd))
            .collect();
        let init = initial_uniform(&g, &models, tech.vdd);
        let out = g.node_by_name("out").unwrap();
        let mut cfg = TransientConfig::hspice_1ps(1.5e-9);
        let nr = simulate(&g, &models, &inputs, &init, &cfg).unwrap();
        cfg.iteration = IterationScheme::SuccessiveChords;
        let sc = simulate(&g, &models, &inputs, &init, &cfg).unwrap();
        let dn = nr.waveform(out).unwrap().crossing(1.65, false).unwrap();
        let ds = sc.waveform(out).unwrap().crossing(1.65, false).unwrap();
        assert!((dn - ds).abs() < 0.02 * dn);
        assert!(
            sc.factorizations < nr.factorizations || nr.iterations == nr.factorizations,
            "chords factor less: sc {} vs nr {}",
            sc.factorizations,
            nr.factorizations
        );
    }

    #[test]
    fn node_current_has_single_peak_per_node() {
        // The core observation behind QWM (paper Fig. 7).
        let (tech, models) = setup();
        let stack = cells::nmos_stack(&tech, &[1.5e-6; 4], cells::DEFAULT_LOAD).unwrap();
        let inputs: Vec<Waveform> = (0..4)
            .map(|_| Waveform::step(5e-12, 0.0, tech.vdd))
            .collect();
        let init = initial_uniform(&stack, &models, tech.vdd);
        let cfg = TransientConfig::hspice_1ps(2e-9);
        let r = simulate(&stack, &models, &inputs, &init, &cfg).unwrap();
        let n1 = stack.node_by_name("n1").unwrap();
        let cur = r.node_current(&stack, &models, n1).unwrap();
        // Count strict sign changes of the derivative of |I| — a single
        // peak allows at most a handful from numerical noise.
        let mags: Vec<f64> = cur.iter().map(|p| p.1.abs()).collect();
        let peak = mags.iter().cloned().fold(0.0_f64, f64::max);
        assert!(peak > 0.0);
        let peak_idx = mags.iter().position(|&m| m == peak).unwrap();
        assert!(peak_idx > 0 && peak_idx < mags.len() - 1);
    }

    #[test]
    fn argument_validation() {
        let (tech, models) = setup();
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let init = initial_uniform(&inv, &models, tech.vdd);
        let cfg = TransientConfig::hspice_1ps(1e-10);
        assert!(simulate(&inv, &models, &[], &init, &cfg).is_err());
        let inputs = vec![Waveform::constant(0.0)];
        assert!(simulate(&inv, &models, &inputs, &[1.0], &cfg).is_err());
        let bad = TransientConfig { step: 0.0, ..cfg };
        assert!(simulate(&inv, &models, &inputs, &init, &bad).is_err());
    }

    #[test]
    fn quiescent_stage_stays_put() {
        let (tech, models) = setup();
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        // Input low, output precharged high: nothing should move.
        let inputs = vec![Waveform::constant(0.0)];
        let init = initial_uniform(&inv, &models, tech.vdd);
        let cfg = TransientConfig::hspice_10ps(1e-9);
        let r = simulate(&inv, &models, &inputs, &init, &cfg).unwrap();
        let out = inv.node_by_name("out").unwrap();
        let w = r.waveform(out).unwrap();
        assert!((w.final_value() - tech.vdd).abs() < 0.05);
    }
}
