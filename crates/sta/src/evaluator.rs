//! Pluggable per-stage delay evaluators.
//!
//! The STA engine asks one question of a stage: *worst-case output fall
//! (or rise) delay under simultaneous step inputs*. Three evaluators
//! answer it, mirroring the methodology ladder of the paper's §II:
//!
//! * [`ElmoreEvaluator`] — switch-level (Crystal/IRSIM class):
//!   transistors become effective resistors, the chain becomes an RC
//!   ladder, delay is `ln 2 ·` Elmore. Fast, crude.
//! * [`QwmEvaluator`] — the paper's method: piecewise quadratic waveform
//!   matching over the extracted chain.
//! * [`SpiceEvaluator`] — the golden reference: full fixed-step
//!   transient.
//!
//! A fourth, [`FallbackEvaluator`], is not a new method but a
//! *robustness wrapper*: it descends the ladder QWM → damped-QWM retry
//! → adaptive transient → fixed-step transient → Elmore bound until one
//! rung produces an answer, recording a [`Degradation`] provenance for
//! every arc that did not come from plain QWM.
//!
//! Every evaluator and every rung times an arc the same way: one
//! sensitized `stimulus`, then one measure per engine — `qwm_arc` for
//! QWM, `transient_arc` for either transient engine.

use qwm_circuit::stage::{DeviceKind, LogicStage, NodeId, NodeKind};
use qwm_circuit::waveform::{measure_transition, TimingMetrics, TransitionKind, Waveform};
use qwm_core::chain::Chain;
use qwm_core::evaluate::{evaluate, QwmConfig};
use qwm_device::model::{Geometry, ModelSet, Polarity, TermVoltage};
use qwm_num::{NumError, Result};
use qwm_spice::adaptive::{simulate_adaptive, AdaptiveConfig};
use qwm_spice::engine::{simulate, TransientConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A stage-delay oracle.
pub trait StageEvaluator: Send + Sync {
    /// Evaluator name for reports.
    fn name(&self) -> &'static str;

    /// Worst-case 50 % delay of `output` for the given transition under
    /// simultaneous step inputs from a precharged initial state.
    ///
    /// # Errors
    ///
    /// Implementations report unreachable levels, inextractable chains
    /// or convergence failures.
    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64>;

    /// Slew-aware timing: delay measured from the switching inputs' 50 %
    /// point when they ramp with the given 10–90 % `input_slew`, plus
    /// the output's own 10–90 % transition time.
    ///
    /// The default ignores the input slew and reports a zero output slew
    /// (adequate for delay-only evaluators like Elmore).
    ///
    /// # Errors
    ///
    /// Same contract as [`StageEvaluator::delay`].
    fn timing(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        _input_slew: f64,
    ) -> Result<TimingMetrics> {
        Ok(TimingMetrics {
            delay: self.delay(stage, models, output, direction)?,
            slew: 0.0,
        })
    }

    /// Drains the degradation provenance accumulated since the last
    /// call. Only degrading evaluators ([`FallbackEvaluator`]) record
    /// anything; the default is always empty.
    fn take_degradations(&self) -> Vec<Degradation> {
        Vec::new()
    }
}

/// How the switching inputs of a [`stimulus`] move.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Switching<'a> {
    /// A linear ramp from `t = 0` with the given 10–90 % slew, or a step
    /// at `t = 0` when `None`.
    Slew(Option<f64>),
    /// A given waveform (a driving stage's actual output).
    Wave(&'a Waveform),
}

/// The one sensitized stimulus: only the inputs gating the worst chain
/// of `output` switch, as `switching` says; every other input is held
/// at its non-conducting value so side branches stay off (standard
/// single-path sensitization for complex gates such as AOI). Internal
/// nodes start precharged against the transition.
///
/// Returns `(inputs, initial voltages, t_ref, chain)`, where `t_ref` is
/// the 50 % instant of a step (0) or ramp (half its full duration), and
/// 0 for a given waveform.
///
/// # Errors
///
/// Propagates chain-extraction failures.
pub(crate) fn stimulus(
    stage: &LogicStage,
    models: &ModelSet,
    output: NodeId,
    direction: TransitionKind,
    switching: Switching<'_>,
) -> Result<(Vec<Waveform>, Vec<f64>, f64, Chain)> {
    let vdd = models.tech().vdd;
    let chain = Chain::extract_worst(stage, output, direction)?;
    let gating = chain.gating_inputs();
    let (g0, g1, v_init) = match direction {
        TransitionKind::Fall => (0.0, vdd, vdd),
        TransitionKind::Rise => (vdd, 0.0, 0.0),
    };
    // Interned constructors: identical-slew arcs across the netlist
    // share one parsed piecewise input instead of re-allocating it
    // per arc (DESIGN.md §15).
    let (active, t_ref) = match switching {
        Switching::Slew(None) => (Waveform::step_interned(0.0, g0, g1), 0.0),
        Switching::Slew(Some(input_slew)) => {
            // 10–90 % covers 80 % of the swing: full ramp = slew / 0.8.
            let ramp = (input_slew / 0.8).max(1e-12);
            (Waveform::ramp_interned(0.0, ramp, g0, g1), 0.5 * ramp)
        }
        Switching::Wave(w) => (w.clone(), 0.0),
    };
    let inputs: Vec<Waveform> = (0..stage.inputs().len())
        .map(|i| {
            if gating.contains(&qwm_circuit::InputId(i)) {
                active.clone()
            } else {
                Waveform::constant_interned(g0)
            }
        })
        .collect();
    let init: Vec<f64> = (0..stage.node_count())
        .map(|i| match stage.node(NodeId(i)).kind {
            NodeKind::Supply => vdd,
            NodeKind::Ground => 0.0,
            NodeKind::Internal => v_init,
        })
        .collect();
    Ok((inputs, init, t_ref, chain))
}

/// The sensitized stimulus with ramping switching inputs of 10–90 %
/// `input_slew`. Returns `(inputs, initial voltages, t_ref)` where
/// `t_ref` is the switching inputs' 50 % instant.
///
/// # Errors
///
/// Propagates chain-extraction failures.
pub fn sensitized_setup_with_slew(
    stage: &LogicStage,
    models: &ModelSet,
    output: NodeId,
    direction: TransitionKind,
    input_slew: f64,
) -> Result<(Vec<Waveform>, Vec<f64>, f64)> {
    let switching = Switching::Slew(Some(input_slew));
    let (inputs, init, t_ref, _) = stimulus(stage, models, output, direction, switching)?;
    Ok((inputs, init, t_ref))
}

/// The sensitized stimulus with stepping switching inputs: only the
/// inputs gating the worst chain switch, the rest are held inactive.
/// Returns the stimulus and the extracted chain.
///
/// # Errors
///
/// Propagates chain-extraction failures.
pub fn sensitized_setup(
    stage: &LogicStage,
    models: &ModelSet,
    output: NodeId,
    direction: TransitionKind,
) -> Result<(Vec<Waveform>, Vec<f64>, Chain)> {
    let switching = Switching::Slew(None);
    let (inputs, init, _, chain) = stimulus(stage, models, output, direction, switching)?;
    Ok((inputs, init, chain))
}

/// One QWM arc under `config`: the 50 % delay from `t_ref` and, when
/// slew-aware, the output's 10–90 % slew (0 otherwise).
fn qwm_arc(
    config: &QwmConfig,
    stage: &LogicStage,
    models: &ModelSet,
    output: NodeId,
    direction: TransitionKind,
    input_slew: Option<f64>,
) -> Result<TimingMetrics> {
    let vdd = models.tech().vdd;
    let switching = Switching::Slew(input_slew);
    let (inputs, init, t_ref, _) = stimulus(stage, models, output, direction, switching)?;
    let r = evaluate(stage, models, &inputs, &init, output, direction, config)?;
    let unreached = |levels: &str| NumError::InvalidInput {
        context: "qwm arc",
        detail: format!("output never crossed {levels}"),
    };
    let delay = r.delay_50(vdd, t_ref).ok_or_else(|| unreached("50%"))?;
    let slew = match input_slew {
        Some(_) => r.slew(vdd).ok_or_else(|| unreached("10/90%"))?,
        None => 0.0,
    };
    Ok(TimingMetrics { delay, slew })
}

/// Starting horizon of every transient arc \[s\].
const TRANSIENT_HORIZON: f64 = 2e-9;

/// One transient arc on the fixed-step engine, or the adaptive one
/// seeded from the same `config`: integrates, measures, and grows
/// `t_stop` ×4 (up to six runs) until the levels are captured — the
/// 50 % crossing, or with `input_slew` the delay from `t_ref` and the
/// 10–90 % slew.
fn transient_arc(
    adaptive: bool,
    mut config: TransientConfig,
    stage: &LogicStage,
    models: &ModelSet,
    output: NodeId,
    direction: TransitionKind,
    input_slew: Option<f64>,
) -> Result<TimingMetrics> {
    let vdd = models.tech().vdd;
    let switching = Switching::Slew(input_slew);
    let (inputs, init, t_ref, _) = stimulus(stage, models, output, direction, switching)?;
    for _ in 0..6 {
        let result = if adaptive {
            let cfg = AdaptiveConfig {
                base: config,
                ..AdaptiveConfig::new(config.t_stop)
            };
            simulate_adaptive(stage, models, &inputs, &init, &cfg)?
        } else {
            simulate(stage, models, &inputs, &init, &config)?
        };
        let w = result.waveform(output)?;
        let measured = match input_slew {
            Some(_) => measure_transition(&w, direction, t_ref, vdd).ok(),
            None => w
                .crossing(vdd / 2.0, direction == TransitionKind::Rise)
                .map(|delay| TimingMetrics { delay, slew: 0.0 }),
        };
        if let Some(m) = measured {
            return Ok(m);
        }
        config.t_stop *= 4.0;
    }
    Err(NumError::NoConvergence {
        method: if adaptive {
            "adaptive transient arc (levels unreached)"
        } else {
            "fixed-step transient arc (levels unreached)"
        },
        iterations: 6,
        residual: config.t_stop,
    })
}

/// QWM-backed evaluator (the paper's configuration).
#[derive(Debug, Clone, Default)]
pub struct QwmEvaluator {
    /// Evaluator configuration passed through to the QWM engine.
    pub config: QwmConfig,
}

impl StageEvaluator for QwmEvaluator {
    fn name(&self) -> &'static str {
        "qwm"
    }

    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64> {
        let _span = qwm_obs::span!("sta.eval.qwm");
        qwm_arc(&self.config, stage, models, output, direction, None).map(|m| m.delay)
    }

    fn timing(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        input_slew: f64,
    ) -> Result<TimingMetrics> {
        let _span = qwm_obs::span!("sta.eval.qwm");
        let slew = Some(input_slew);
        qwm_arc(&self.config, stage, models, output, direction, slew)
    }
}

/// Switch-level evaluator: `ln 2 ·` Elmore over effective resistances.
#[derive(Debug, Clone, Default)]
pub struct ElmoreEvaluator;

impl ElmoreEvaluator {
    /// Effective switched-on resistance of a transistor: the secant
    /// resistance `Vdd/2 ÷ I(Vds = Vdd/2, Vgs = Vdd)` of the conduction
    /// device, the textbook calibration.
    fn effective_resistance(models: &ModelSet, kind: DeviceKind, geom: &Geometry) -> Result<f64> {
        let vdd = models.tech().vdd;
        let (model, tv) = match kind {
            DeviceKind::Nmos => (
                models.for_polarity(Polarity::Nmos),
                TermVoltage::new(vdd, vdd / 2.0, 0.0),
            ),
            DeviceKind::Pmos => (
                models.for_polarity(Polarity::Pmos),
                TermVoltage::new(0.0, vdd, vdd / 2.0),
            ),
            DeviceKind::Wire => {
                return Ok(qwm_device::caps::wire_res(models.tech(), geom.w, geom.l))
            }
        };
        let i = model.iv(geom, tv)?.abs();
        if i <= 0.0 {
            return Err(NumError::InvalidInput {
                context: "ElmoreEvaluator",
                detail: "device carries no current when on".to_string(),
            });
        }
        Ok(vdd / 2.0 / i)
    }
}

impl StageEvaluator for ElmoreEvaluator {
    fn name(&self) -> &'static str {
        "elmore"
    }

    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64> {
        let _span = qwm_obs::span!("sta.eval.elmore");
        if let Some(e) = qwm_fault::check("sta.elmore") {
            return Err(e);
        }
        let chain = Chain::extract_worst(stage, output, direction)?;
        let vdd = models.tech().vdd;
        // RC ladder: resistor k from the chain, cap at each chain node
        // evaluated at mid-swing.
        let mut tree = qwm_interconnect::rc::RcTree::new(0.0);
        let mut at = 0;
        for (k, elem) in chain.elements.iter().enumerate() {
            let r = Self::effective_resistance(models, elem.kind, &elem.geom)?;
            let c = stage.node_cap(chain.nodes[k + 1], models, vdd / 2.0);
            at = tree.add_node(at, r, c)?;
        }
        Ok(std::f64::consts::LN_2 * tree.elmore(at))
    }
}

/// SPICE-backed golden evaluator.
#[derive(Debug, Clone)]
pub struct SpiceEvaluator {
    /// Transient configuration template (`t_stop` is grown automatically
    /// until the 50 % crossing is captured).
    pub config: TransientConfig,
}

impl Default for SpiceEvaluator {
    fn default() -> Self {
        SpiceEvaluator {
            config: TransientConfig::hspice_1ps(TRANSIENT_HORIZON),
        }
    }
}

impl StageEvaluator for SpiceEvaluator {
    fn name(&self) -> &'static str {
        "spice"
    }

    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64> {
        let _span = qwm_obs::span!("sta.eval.spice");
        transient_arc(false, self.config, stage, models, output, direction, None).map(|m| m.delay)
    }

    fn timing(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        input_slew: f64,
    ) -> Result<TimingMetrics> {
        let _span = qwm_obs::span!("sta.eval.spice");
        let slew = Some(input_slew);
        transient_arc(false, self.config, stage, models, output, direction, slew)
    }
}

/// Rungs of the graceful-degradation ladder, in descent order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackRung {
    /// Plain QWM (the paper's configuration) — not a degradation.
    Qwm,
    /// QWM retried with doubled iteration budget, halved Newton damping
    /// clamp and perturbed region-span seeds.
    QwmRetry,
    /// Adaptive-step transient (LTE-controlled, the stiffer integrator).
    SpiceAdaptive,
    /// Fixed-step 1 ps transient (the golden baseline).
    SpiceFixed,
    /// `ln 2 ·` Elmore switch-level bound — always computable, crude.
    ElmoreBound,
}

impl FallbackRung {
    /// Stable name used in reports and the golden renderer.
    pub fn name(self) -> &'static str {
        match self {
            FallbackRung::Qwm => "qwm",
            FallbackRung::QwmRetry => "qwm-retry",
            FallbackRung::SpiceAdaptive => "spice-adaptive",
            FallbackRung::SpiceFixed => "spice-fixed",
            FallbackRung::ElmoreBound => "elmore-bound",
        }
    }
}

/// Why one rung of the ladder declined to produce an arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungFailure {
    /// The rung that failed.
    pub rung: FallbackRung,
    /// Rendered error from that rung.
    pub error: String,
}

/// Provenance of one degraded arc: which rung finally produced it and
/// the full chain of earlier-rung failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Output node name (stage-local, e.g. `"out"` or the net name).
    pub output: String,
    /// Transition the arc describes.
    pub direction: TransitionKind,
    /// Rung that produced the committed value.
    pub landed: FallbackRung,
    /// Failures of every rung above `landed`, in descent order.
    pub failures: Vec<RungFailure>,
}

impl Degradation {
    /// Deterministic report ordering: by output name, direction, rung.
    pub fn sort_key(&self) -> (String, u8, FallbackRung) {
        let dir = match self.direction {
            TransitionKind::Fall => 0u8,
            TransitionKind::Rise => 1u8,
        };
        (self.output.clone(), dir, self.landed)
    }
}

/// Retry/descent budgets for [`FallbackEvaluator`].
#[derive(Debug, Clone)]
pub struct FallbackBudget {
    /// Damped/perturbed QWM retry attempts after the first failure.
    pub qwm_retries: usize,
    /// Optional wall-clock budget per stage evaluation: once exceeded,
    /// remaining transient rungs are skipped (recorded as `Timeout`
    /// failures) and the ladder drops straight to the Elmore bound.
    /// `None` (the default) disables the clock — wall budgets are
    /// inherently non-deterministic, so determinism-sensitive runs
    /// leave this off.
    pub stage_wall: Option<Duration>,
}

impl Default for FallbackBudget {
    fn default() -> Self {
        FallbackBudget {
            qwm_retries: 1,
            stage_wall: None,
        }
    }
}

/// Graceful-degradation wrapper: descends QWM → damped-QWM retry →
/// adaptive transient → fixed-step transient → Elmore bound until one
/// rung answers, and records a [`Degradation`] for every arc not
/// produced by plain QWM. Exhausting all rungs is a hard error carrying
/// the full failure chain — never a silently missing arc.
///
/// Only the [`FallbackBudget`] is configurable; the rungs run the
/// defaults of [`QwmEvaluator`] and [`SpiceEvaluator`]. The QWM retry
/// rung re-enters the same solver code; the fault site it sees is
/// scope-qualified as `"retry/qwm.region"` so fault plans can fail the
/// first attempt and the retry independently.
#[derive(Debug, Default)]
pub struct FallbackEvaluator {
    /// Retry/wall budgets.
    pub budget: FallbackBudget,
    degradations: Mutex<Vec<Degradation>>,
}

/// Damped/perturbed QWM configuration for retry `attempt`: doubled
/// iteration budget, halved per-iteration voltage clamp, and
/// region-span seeds scaled by a per-attempt factor so each retry
/// explores different Newton seeds than the failed attempt.
fn damped_qwm(attempt: usize) -> QwmConfig {
    let mut cfg = QwmConfig::default();
    cfg.region.max_iterations *= 2;
    cfg.region.max_dv *= 0.5;
    let scale = match attempt % 3 {
        0 => 0.33,
        1 => 3.0,
        _ => 0.1,
    };
    for g in &mut cfg.dt_guesses {
        *g *= scale;
    }
    cfg
}

impl FallbackEvaluator {
    /// The ladder: [`descend`]s QWM → damped retries → adaptive →
    /// fixed-step → Elmore bound; the first success is committed with
    /// its provenance, and exhaustion of all rungs is a hard error
    /// carrying the full failure chain.
    fn ladder(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        input_slew: Option<f64>,
    ) -> Result<TimingMetrics> {
        let _span = qwm_obs::span!("sta.eval.fallback");
        let output_name = stage.node_name(output).to_string();
        let qwm = |cfg: &QwmConfig| qwm_arc(cfg, stage, models, output, direction, input_slew);
        let transient = |adaptive| {
            let config = TransientConfig::hspice_1ps(TRANSIENT_HORIZON);
            transient_arc(
                adaptive, config, stage, models, output, direction, input_slew,
            )
        };
        // The Elmore bound is cheap and always attempted, even when the
        // wall budget is spent — better a crude bound than no arc.
        let elmore = |_| {
            let delay = ElmoreEvaluator.delay(stage, models, output, direction)?;
            Ok(TimingMetrics { delay, slew: 0.0 })
        };
        let rungs: [Rung<'_, TimingMetrics>; 5] = [
            (FallbackRung::Qwm, 1, &|_| qwm(&QwmConfig::default())),
            (FallbackRung::QwmRetry, self.budget.qwm_retries, &|i| {
                qwm(&damped_qwm(i))
            }),
            (FallbackRung::SpiceAdaptive, 1, &|_| transient(true)),
            (FallbackRung::SpiceFixed, 1, &|_| transient(false)),
            (FallbackRung::ElmoreBound, 1, &elmore),
        ];
        let warn = |rung: FallbackRung, err: &NumError| {
            qwm_obs::warn("fallback.rung_failed")
                .field("output", &output_name)
                .field("rung", rung.name())
                .field("error", err)
                .emit();
        };
        let (answer, failures) = descend(&rungs, self.budget.stage_wall, &warn);
        let Some((landed, metrics)) = answer else {
            qwm_obs::counter!("fallback.ladder.exhausted").incr();
            return Err(NumError::InvalidInput {
                context: "FallbackEvaluator: all rungs failed",
                detail: format!("output {output_name}: {}", failure_chain(&failures)),
            });
        };
        match landed {
            FallbackRung::Qwm => qwm_obs::counter!("fallback.rung.qwm").incr(),
            FallbackRung::QwmRetry => qwm_obs::counter!("fallback.rung.qwm_retry").incr(),
            FallbackRung::SpiceAdaptive => qwm_obs::counter!("fallback.rung.spice_adaptive").incr(),
            FallbackRung::SpiceFixed => qwm_obs::counter!("fallback.rung.spice_fixed").incr(),
            FallbackRung::ElmoreBound => qwm_obs::counter!("fallback.rung.elmore_bound").incr(),
        }
        // Leave the rung note for the STA engine's arc recorder (same
        // thread; read right after the evaluator returns).
        qwm_obs::trace::note_rung(landed.name(), failures.len() as u64);
        qwm_obs::histogram!("fallback.ladder.rungs_tried", qwm_obs::ITER_BOUNDS)
            .record(failures.len() as u64 + 1);
        if landed != FallbackRung::Qwm {
            let mut book = self.degradations.lock().expect("fallback degradations");
            book.push(Degradation {
                output: output_name,
                direction,
                landed,
                failures,
            });
        }
        Ok(metrics)
    }
}

/// One rung of a fallback descent: the rung, how many attempts it gets
/// (each failure is recorded), and the attempt itself, given the
/// attempt index.
pub(crate) type Rung<'a, T> = (FallbackRung, usize, &'a dyn Fn(usize) -> Result<T>);

/// The one fallback-ladder driver: tries `rungs` in order and returns
/// the first answer with the rung that produced it, plus every failure
/// on the way down (all of them, and no answer, on exhaustion). Shared
/// by [`FallbackEvaluator`] (timing-metrics payload) and
/// `StaEngine::run_waveform` (waveform payload).
///
/// `warn` reports each failure as the caller's structured event. The
/// QWM retry rung runs inside the `"retry"` fault scope. `stage_wall`
/// gates the rungs between the first attempt and the Elmore bound: once
/// it is spent they are skipped with a recorded `Timeout` failure.
pub(crate) fn descend<T>(
    rungs: &[Rung<'_, T>],
    stage_wall: Option<Duration>,
    warn: &dyn Fn(FallbackRung, &NumError),
) -> (Option<(FallbackRung, T)>, Vec<RungFailure>) {
    let start = Instant::now();
    let mut failures: Vec<RungFailure> = Vec::new();
    let note = |failures: &mut Vec<RungFailure>, rung: FallbackRung, err: NumError| {
        warn(rung, &err);
        failures.push(RungFailure {
            rung,
            error: err.to_string(),
        });
    };
    for &(rung, attempts, attempt) in rungs {
        let gated = !matches!(rung, FallbackRung::Qwm | FallbackRung::ElmoreBound);
        if let Some(wall) = stage_wall.filter(|&w| gated && start.elapsed() >= w) {
            qwm_obs::counter!("fallback.ladder.budget_exhausted").incr();
            let err = NumError::Timeout {
                context: "FallbackEvaluator stage wall budget",
                detail: format!("budget {wall:?} exhausted before {} rung", rung.name()),
            };
            note(&mut failures, rung, err);
            continue;
        }
        let _retry = (rung == FallbackRung::QwmRetry).then(|| qwm_fault::scope("retry"));
        for i in 0..attempts {
            match attempt(i) {
                Ok(v) => return (Some((rung, v)), failures),
                Err(e) => note(&mut failures, rung, e),
            }
        }
    }
    (None, failures)
}

/// Renders a failure chain as `rung: error; rung: error; …` for
/// exhaustion errors.
pub(crate) fn failure_chain(failures: &[RungFailure]) -> String {
    let chain: Vec<String> = failures
        .iter()
        .map(|f| format!("{}: {}", f.rung.name(), f.error))
        .collect();
    chain.join("; ")
}

impl StageEvaluator for FallbackEvaluator {
    fn name(&self) -> &'static str {
        "fallback"
    }

    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64> {
        self.ladder(stage, models, output, direction, None)
            .map(|m| m.delay)
    }

    fn timing(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        input_slew: f64,
    ) -> Result<TimingMetrics> {
        self.ladder(stage, models, output, direction, Some(input_slew))
    }

    fn take_degradations(&self) -> Vec<Degradation> {
        std::mem::take(
            &mut *self
                .degradations
                .lock()
                .expect("fallback degradations lock"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};

    fn setup() -> (Technology, ModelSet) {
        let tech = Technology::cmosp35();
        (tech.clone(), analytic_models(&tech))
    }

    #[test]
    fn three_evaluators_agree_on_ordering() {
        let (tech, models) = setup();
        let evaluators: Vec<Box<dyn StageEvaluator>> = vec![
            Box::new(ElmoreEvaluator),
            Box::new(QwmEvaluator::default()),
            Box::new(SpiceEvaluator::default()),
        ];
        for ev in &evaluators {
            let mut prev = 0.0;
            for n in 2..=4 {
                let g = cells::nand(&tech, n, cells::DEFAULT_LOAD).unwrap();
                let out = g.node_by_name("out").unwrap();
                let d = ev.delay(&g, &models, out, TransitionKind::Fall).unwrap();
                assert!(d > prev, "{}: nand{n} slower than nand{}", ev.name(), n - 1);
                prev = d;
            }
        }
    }

    #[test]
    fn qwm_tracks_spice_on_gates() {
        let (tech, models) = setup();
        let qwm = QwmEvaluator::default();
        let spice = SpiceEvaluator::default();
        for n in [1usize, 3] {
            let g = cells::nand(&tech, n.max(1), cells::DEFAULT_LOAD).unwrap();
            let out = g.node_by_name("out").unwrap();
            let dq = qwm.delay(&g, &models, out, TransitionKind::Fall).unwrap();
            let ds = spice.delay(&g, &models, out, TransitionKind::Fall).unwrap();
            assert!(
                (dq - ds).abs() / ds < 0.12,
                "nand{n}: qwm {dq} vs spice {ds}"
            );
        }
    }

    #[test]
    fn elmore_is_the_crude_one() {
        // Elmore should be in the right decade but not necessarily
        // within 10%.
        let (tech, models) = setup();
        let g = cells::nand(&tech, 3, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let de = ElmoreEvaluator
            .delay(&g, &models, out, TransitionKind::Fall)
            .unwrap();
        let ds = SpiceEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Fall)
            .unwrap();
        let ratio = de / ds;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn rise_delay_through_inverter() {
        let (tech, models) = setup();
        let g = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let dq = QwmEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        let ds = SpiceEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        assert!((dq - ds).abs() / ds < 0.12, "qwm {dq} vs spice {ds}");
    }

    #[test]
    fn aoi21_sensitized_delay_tracks_spice() {
        // Branching pull-down: the worst path (series a·b) is sensitized
        // with c held low; both evaluators must agree on that scenario.
        let (_tech, models) = setup();
        let g = cells::aoi21(&Technology::cmosp35(), cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let dq = QwmEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Fall)
            .unwrap();
        let ds = SpiceEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Fall)
            .unwrap();
        assert!((dq - ds).abs() / ds < 0.10, "qwm {dq} vs spice {ds}");
        // And the rise direction through the series-c pull-up.
        let dqr = QwmEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        let dsr = SpiceEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        assert!(
            (dqr - dsr).abs() / dsr < 0.12,
            "rise qwm {dqr} vs spice {dsr}"
        );
    }

    #[test]
    fn nand_rise_now_supported_via_worst_path() {
        // Parallel pull-ups used to be inextractable; extract_worst picks
        // one branch and sensitizes only its input.
        let (_tech, models) = setup();
        let g = cells::nand(&Technology::cmosp35(), 2, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let dq = QwmEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        let ds = SpiceEvaluator::default()
            .delay(&g, &models, out, TransitionKind::Rise)
            .unwrap();
        assert!((dq - ds).abs() / ds < 0.12, "qwm {dq} vs spice {ds}");
    }

    #[test]
    fn stimulus_shapes() {
        // AOI21 fall: the worst chain is the series a·b pull-down, so
        // `c` is held low while the gating inputs switch.
        let (tech, models) = setup();
        let g = cells::aoi21(&tech, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let fall = TransitionKind::Fall;
        let (inputs, init, t_ref, chain) =
            stimulus(&g, &models, out, fall, Switching::Slew(Some(40e-12))).unwrap();
        assert_eq!(inputs.len(), g.inputs().len());
        assert_eq!(init.len(), g.node_count());
        assert_eq!(init[out.0], tech.vdd);
        assert_eq!(t_ref, 0.5 * (40e-12 / 0.8));
        let gating = chain.gating_inputs();
        assert!(gating.len() < inputs.len(), "a side input is held");
        for (i, w) in inputs.iter().enumerate() {
            let on = gating.contains(&qwm_circuit::InputId(i));
            assert_eq!(w.final_value(), if on { tech.vdd } else { 0.0 });
        }
        // A given waveform drives the gating inputs as is.
        let wave = Waveform::ramp(5e-12, 30e-12, 0.0, tech.vdd);
        let (inputs, _, t_ref, _) =
            stimulus(&g, &models, out, fall, Switching::Wave(&wave)).unwrap();
        assert_eq!(inputs[gating[0].0], wave);
        assert_eq!(t_ref, 0.0);
    }
}
