//! Waveform evaluation by piecewise quadratic waveform matching — the
//! paper's top-level algorithm (Definition 3 + §IV).
//!
//! The transient is divided into regions separated by critical points.
//! The evaluator maintains the chain state `(τ, V, I)` and repeatedly
//! asks: *which event ends the current region first?* Candidate events
//! are
//!
//! * the turn-on of each still-off transistor along the chain (the
//!   paper's critical points), and
//! * the next monitored output-level crossing (50 % for delay, 10/90 %
//!   for slew — how we close the post-turn-on regions, DESIGN.md §5.1).
//!
//! Each candidate is solved as a region-末 algebraic system
//! ([`crate::solver`]); the earliest converged τ′ wins and is committed
//! as one quadratic piece per node. Input-driven turn-ons whose Newton
//! solve degenerates (constant gate ⇒ no τ′ sensitivity) fall back to a
//! frozen-voltage gate-waveform crossing followed by a fixed-time solve.
//!
//! Total cost: one small Newton solve per transistor plus one per
//! monitored level — the paper's "K DC operating point calculations".

use crate::chain::Chain;
use crate::piecewise::{PiecewiseQuadratic, QuadraticPiece};
use crate::solver::{
    solve_region_counted, solve_region_into, ChainContext, EndCondition, RegionOptions,
    RegionSolution, RegionState, SolveScratch,
};
use crate::solver2::solve_region_two_point;
use qwm_circuit::stage::{DeviceKind, LogicStage, NodeId};
use qwm_circuit::waveform::{TransitionKind, Waveform};
use qwm_device::model::ModelSet;
use qwm_num::{NumError, Result};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Per-worker evaluation workspace: the region-solve scratch plus the
/// candidate/winner solution double buffer and the retry-guess ladder.
/// Kept in a thread local so consecutive arcs evaluated on one worker —
/// a `qwm-exec` DAG worker or server pool thread — reuse the same
/// buffers; steady-state arc evaluation then allocates only its result
/// vectors (DESIGN.md §15).
#[derive(Debug, Default)]
struct EvalScratch {
    solve: SolveScratch,
    cand: RegionSolution,
    best: RegionSolution,
    guesses: Vec<f64>,
}

thread_local! {
    static EVAL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// Pre-touches this thread's evaluation workspace (sizing it for chains
/// of up to `chain_len` elements), so a worker's first arc is as
/// allocation-free as its steady state. Wired into worker start-up via
/// `ThreadPool::new_with_init`; calling it is never required for
/// correctness.
pub fn warm_worker(chain_len: usize) {
    EVAL_SCRATCH.with(|cell| {
        if let Ok(mut ws) = cell.try_borrow_mut() {
            ws.solve.reserve(chain_len);
            ws.cand.reserve(chain_len);
            ws.best.reserve(chain_len);
        }
    });
}

/// Why a region ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CriticalPointKind {
    /// Chain element `k` turned on.
    TurnOn(usize),
    /// The monitored output crossed a level \[V\].
    OutputCrossing(f64),
    /// Fallback fixed-time boundary (input-driven turn-on of element).
    TimedTurnOn(usize),
    /// Region boundary at an input-waveform breakpoint: gate slews end
    /// there, and splitting the region lets the next one start from the
    /// settled drive current (the paper's instantaneous-step behaviour).
    InputBreakpoint,
}

/// One committed critical point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPoint {
    /// Time of the event \[s\].
    pub t: f64,
    /// What happened.
    pub kind: CriticalPointKind,
}

/// Evaluator configuration.
#[derive(Debug, Clone)]
pub struct QwmConfig {
    /// Monitored output levels as fractions of Vdd, harvested in
    /// transition order (default `[0.9, 0.5, 0.1]` — slew + delay
    /// points).
    pub crossing_fractions: Vec<f64>,
    /// Hard cap on committed regions (safety).
    pub max_regions: usize,
    /// Analysis horizon \[s\]; events beyond it abort the run.
    pub t_max: f64,
    /// Seed guesses for the region span, tried in order until a
    /// candidate solve converges.
    pub dt_guesses: Vec<f64>,
    /// Newton controls for each region solve.
    pub region: RegionOptions,
    /// Freeze node capacitances at their `t = 0` values instead of
    /// re-evaluating per region (the paper's simplifying assumption 3;
    /// kept as an ablation switch).
    pub freeze_caps: bool,
    /// Re-solve each committed region with capacitances evaluated at
    /// the mean of its endpoint voltages (one extra Newton solve per
    /// region). Off by default; part of [`QwmConfig::high_accuracy`].
    pub midpoint_caps: bool,
    /// Waveform parameters per node per region (the paper's `r`): 1 for
    /// the paper's piecewise-quadratic model, 2 for the two-collocation
    /// extension (each region carries a matched midpoint as well,
    /// committed as two quadratic pieces).
    pub waveform_order: usize,
    /// Input-waveform breakpoints closer to the running region start
    /// than this are not promoted to region boundaries — keeps densely
    /// sampled (measured) input waveforms from flooding the region
    /// budget \[s\].
    pub min_breakpoint_span: f64,
}

impl Default for QwmConfig {
    fn default() -> Self {
        QwmConfig {
            crossing_fractions: vec![0.9, 0.5, 0.1],
            max_regions: 256,
            t_max: 100e-9,
            dt_guesses: vec![2e-12, 10e-12, 50e-12, 250e-12, 1.25e-9],
            region: RegionOptions::default(),
            freeze_caps: false,
            midpoint_caps: false,
            waveform_order: 1,
            min_breakpoint_span: 0.25e-12,
        }
    }
}

impl QwmConfig {
    /// The `r = 2` preset: two collocation points per region (the
    /// paper's higher-`r` variant) plus midpoint capacitances. Reaches
    /// near-baseline accuracy (sub-percent even on the method's worst
    /// cases) at roughly 4× the default evaluation cost — still several
    /// times faster than the 1 ps transient.
    pub fn high_accuracy() -> Self {
        QwmConfig {
            waveform_order: 2,
            midpoint_caps: true,
            ..QwmConfig::default()
        }
    }
}

/// The outcome of a QWM waveform evaluation.
#[derive(Debug, Clone)]
pub struct QwmResult {
    /// The analyzed chain.
    pub chain: Chain,
    /// Piecewise-quadratic waveforms for chain nodes `1 … K`
    /// (`waveforms[k-1]` is node `k`; the output is the last entry).
    pub waveforms: Vec<PiecewiseQuadratic>,
    /// Committed critical points in time order.
    pub critical_points: Vec<CriticalPoint>,
    /// `(level, time)` pairs for each harvested output crossing.
    pub output_crossings: Vec<(f64, f64)>,
    /// Total Newton iterations across all region solves (including
    /// discarded candidates — the honest cost).
    pub iterations: usize,
    /// Committed regions.
    pub regions: usize,
    /// Wall-clock time of the evaluation.
    pub elapsed: Duration,
}

impl QwmResult {
    /// The output node's waveform.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty (never after a successful run).
    pub fn output_waveform(&self) -> &PiecewiseQuadratic {
        self.waveforms.last().expect("chain has at least one node")
    }

    /// 50 % propagation delay relative to `t_ref`, if the 50 % level was
    /// monitored and reached.
    pub fn delay_50(&self, vdd: f64, t_ref: f64) -> Option<f64> {
        let half = 0.5 * vdd;
        self.output_crossings
            .iter()
            .find(|(lvl, _)| (lvl - half).abs() < 1e-9)
            .map(|&(_, t)| t - t_ref)
    }

    /// Output transition time between the 90 % and 10 % monitored levels
    /// (order-independent), if both were reached.
    pub fn slew(&self, vdd: f64) -> Option<f64> {
        let find = |frac: f64| {
            self.output_crossings
                .iter()
                .find(|(lvl, _)| (lvl - frac * vdd).abs() < 1e-9)
                .map(|&(_, t)| t)
        };
        match (find(0.9), find(0.1)) {
            (Some(a), Some(b)) => Some((a - b).abs()),
            _ => None,
        }
    }
}

/// Runs piecewise quadratic waveform matching on the charge/discharge
/// chain of `output` in the given direction.
///
/// `inputs` holds one waveform per stage input; `initial` holds node
/// voltages for every stage node (rails overridden internally).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on malformed arguments or an
/// inextractable chain, and [`NumError::NoConvergence`] if no candidate
/// region solve converges from some state (the QWM failure mode; the
/// SPICE engine remains the fallback in a production flow).
pub fn evaluate(
    stage: &LogicStage,
    models: &ModelSet,
    inputs: &[Waveform],
    initial: &[f64],
    output: NodeId,
    direction: TransitionKind,
    config: &QwmConfig,
) -> Result<QwmResult> {
    EVAL_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => evaluate_with(
            stage, models, inputs, initial, output, direction, config, &mut ws,
        ),
        // Re-entrant call on this thread (the workspace is already in
        // use further up the stack): fall back to a fresh workspace
        // rather than panicking on the borrow.
        Err(_) => evaluate_with(
            stage,
            models,
            inputs,
            initial,
            output,
            direction,
            config,
            &mut EvalScratch::default(),
        ),
    })
}

#[allow(clippy::too_many_arguments)]
fn evaluate_with(
    stage: &LogicStage,
    models: &ModelSet,
    inputs: &[Waveform],
    initial: &[f64],
    output: NodeId,
    direction: TransitionKind,
    config: &QwmConfig,
    ws: &mut EvalScratch,
) -> Result<QwmResult> {
    if inputs.len() != stage.inputs().len() {
        return Err(NumError::InvalidInput {
            context: "qwm::evaluate",
            detail: format!(
                "{} input waveforms for {} inputs",
                inputs.len(),
                stage.inputs().len()
            ),
        });
    }
    if initial.len() != stage.node_count() {
        return Err(NumError::InvalidInput {
            context: "qwm::evaluate",
            detail: format!(
                "{} initial voltages for {} nodes",
                initial.len(),
                stage.node_count()
            ),
        });
    }
    // Events are ordered by time and levels by value: a non-finite
    // breakpoint, voltage or level has no place in either order.
    let samples = inputs.iter().flat_map(|w| w.samples());
    if samples.flat_map(|&(t, v)| [t, v]).any(|x| !x.is_finite())
        || !initial.iter().all(|v| v.is_finite())
        || !config.crossing_fractions.iter().all(|f| f.is_finite())
    {
        return Err(NumError::InvalidInput {
            context: "qwm::evaluate",
            detail: "non-finite input sample, initial voltage or crossing level".to_string(),
        });
    }
    let start = Instant::now();
    let _span = qwm_obs::span!("qwm.evaluate");
    let vdd = models.tech().vdd;
    let chain = Chain::extract_worst(stage, output, direction)?;
    let rail_v = match direction {
        TransitionKind::Fall => 0.0,
        TransitionKind::Rise => vdd,
    };
    let ctx = ChainContext {
        stage,
        chain: &chain,
        models,
        inputs,
        rail_v,
    };
    let n = chain.len();

    // One workspace for every region solve and capacitance merge of
    // this evaluation — the buffers live in the worker's thread-local
    // `EvalScratch`, so they grow to the chain length once and are
    // reused across every arc this worker evaluates (DESIGN.md §15).
    let EvalScratch {
        solve: scratch,
        cand,
        best,
        guesses,
    } = ws;

    // Initial chain state.
    let v0: Vec<f64> = (1..=n).map(|k| initial[chain.nodes[k].0]).collect();
    let mut caps0 = Vec::new();
    ctx.node_caps_into(&v0, scratch, &mut caps0);
    let i0 = ctx.node_currents(&v0, 0.0)?;
    // Region-start caps are only re-cloned per region under the
    // `freeze_caps` ablation; the default path copies in place.
    let frozen_caps: Option<Vec<f64>> = config.freeze_caps.then(|| caps0.clone());
    let mut state = RegionState {
        tau: 0.0,
        v: v0,
        i: i0,
        caps: caps0,
    };

    // Conduction bookkeeping: which transistor elements are on.
    let mut on: Vec<bool> = (1..=n)
        .map(|k| ctx.excess(k, &state.v, 0.0) > 0.0)
        .collect();
    // Wires are always "on".
    for (k, e) in chain.elements.iter().enumerate() {
        if e.kind == DeviceKind::Wire {
            on[k] = true;
        }
    }

    // Monitored levels, ordered along the transition.
    let out_v0 = *state.v.last().expect("non-empty chain");
    let mut targets: Vec<f64> = config
        .crossing_fractions
        .iter()
        .map(|f| f * vdd)
        .filter(|&lvl| match direction {
            TransitionKind::Fall => lvl < out_v0 - 1e-6,
            TransitionKind::Rise => lvl > out_v0 + 1e-6,
        })
        .collect();
    targets.sort_by(|a, b| match direction {
        TransitionKind::Fall => b.total_cmp(a),
        TransitionKind::Rise => a.total_cmp(b),
    });

    let mut waveforms = vec![PiecewiseQuadratic::new(); n];
    let mut critical_points = Vec::new();
    let mut output_crossings = Vec::new();
    let mut iterations = 0usize;
    let mut regions = 0usize;
    let mut last_span = 0.0_f64;
    // Candidate/winner double buffer (`cand`/`best` from the worker's
    // workspace): each candidate solve writes into `cand`; a winning
    // candidate is swapped into `best` (a vector swap, no allocation).
    // `best_kind` doubles as the "have a winner" flag, so stale contents
    // from a previous arc are never read.
    while !targets.is_empty() {
        if regions >= config.max_regions {
            return Err(NumError::NoConvergence {
                method: "qwm::evaluate (region cap)",
                iterations: regions,
                residual: state.tau,
            });
        }
        // Gather candidates.
        let mut best_kind: Option<CriticalPointKind> = None;
        let tau0 = state.tau;
        let t_max = config.t_max;
        let consider = |cand: &mut RegionSolution,
                        best: &mut RegionSolution,
                        best_kind: &mut Option<CriticalPointKind>,
                        kind: CriticalPointKind| {
            if cand.tau_next > tau0
                && cand.tau_next <= t_max
                && (best_kind.is_none() || cand.tau_next < best.tau_next)
            {
                std::mem::swap(best, cand);
                *best_kind = Some(kind);
            }
        };

        // The cascade is driven by the conduction front: only the
        // lowest-indexed off transistor can be turned on by *node*
        // motion, so it alone gets the full Newton treatment. Higher
        // off transistors can only be switched by their *gates*, whose
        // crossing times are read straight off the input waveforms.
        if let Some(k) = (1..=n).find(|&k| !on[k - 1]) {
            // Gate-driven turn-ons (the driving channel terminal is
            // quiescent and the gate waveform does the work) are read
            // straight off the input waveform — no Newton needed.
            let driver_quiescent =
                k == 1 || state.i[k - 2].abs() < 1e-9 || gate_still_switching(&ctx, k, state.tau);
            let frozen = if driver_quiescent {
                frozen_turn_on_time(&ctx, &state, k, config.t_max)
                    .filter(|&t| t > state.tau + config.region.min_delta)
            } else {
                None
            };
            let mut solved = false;
            if let Some(t_on) = frozen {
                if solve_region_into(
                    &ctx,
                    &state,
                    EndCondition::FixedTime { t: t_on },
                    0.0,
                    &config.region,
                    &mut iterations,
                    scratch,
                    cand,
                )
                .is_ok()
                {
                    consider(
                        cand,
                        best,
                        &mut best_kind,
                        CriticalPointKind::TimedTurnOn(k),
                    );
                    solved = true;
                }
            }
            if !solved {
                // Node-driven turn-on: full Newton, seeded with the
                // previous region's span (cascade events are roughly
                // evenly spaced) before the generic ladder.
                let cond = EndCondition::TurnOn { element: k };
                guesses.clear();
                if last_span > 0.0 {
                    guesses.push(last_span);
                }
                guesses.extend_from_slice(&config.dt_guesses);
                for (attempt, &dt) in guesses.iter().enumerate() {
                    if attempt > 0 {
                        qwm_obs::counter!("qwm.region.retries").incr();
                    }
                    match solve_region_into(
                        &ctx,
                        &state,
                        cond,
                        dt,
                        &config.region,
                        &mut iterations,
                        scratch,
                        cand,
                    ) {
                        Ok(()) => {
                            consider(cand, best, &mut best_kind, CriticalPointKind::TurnOn(k));
                            break;
                        }
                        Err(_) => continue,
                    }
                }
            }
        }
        // Gate-driven events for the remaining off transistors: their
        // channel neighbourhood is quiescent, so the frozen-voltage
        // estimate is exact; commit via a fixed-time region if one lands
        // before everything else.
        let gate_driven: Option<(usize, f64)> = (1..=n)
            .filter(|&k| !on[k - 1])
            .skip(1)
            .filter_map(|k| {
                frozen_turn_on_time(&ctx, &state, k, config.t_max)
                    .filter(|&t| t > state.tau + config.region.min_delta)
                    .map(|t| (k, t))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((k, t_on)) = gate_driven {
            let beats_best = best_kind.is_none() || t_on < best.tau_next;
            if beats_best
                && solve_region_into(
                    &ctx,
                    &state,
                    EndCondition::FixedTime { t: t_on },
                    0.0,
                    &config.region,
                    &mut iterations,
                    scratch,
                    cand,
                )
                .is_ok()
            {
                consider(
                    cand,
                    best,
                    &mut best_kind,
                    CriticalPointKind::TimedTurnOn(k),
                );
            }
        }

        // The next monitored output level — only worth solving once the
        // output node is actually moving (before the top element
        // conducts, the crossing system has no solution and every Newton
        // attempt would burn its full budget).
        let output_active = state.i[n - 1].abs() > 1e-7 || on.iter().all(|&x| x);
        if output_active {
            if let Some(&level) = targets.first() {
                let cond = EndCondition::Crossing { node: n, level };
                // Linear-extrapolation seed Δt ≈ C (level − V)/I, with
                // the previous region span as a sanity backstop.
                guesses.clear();
                let i_out = state.i[n - 1];
                if i_out.abs() > 1e-12 {
                    let est = state.caps[n - 1] * (level - state.v[n - 1]) / i_out;
                    if est.is_finite() && est > 0.0 && (last_span == 0.0 || est < 20.0 * last_span)
                    {
                        guesses.push(est);
                    }
                }
                if last_span > 0.0 {
                    guesses.push(last_span);
                }
                guesses.extend_from_slice(&config.dt_guesses);
                for (attempt, &dt) in guesses.iter().enumerate() {
                    if attempt > 0 {
                        qwm_obs::counter!("qwm.region.retries").incr();
                    }
                    match solve_region_into(
                        &ctx,
                        &state,
                        cond,
                        dt,
                        &config.region,
                        &mut iterations,
                        scratch,
                        cand,
                    ) {
                        Ok(()) => {
                            consider(
                                cand,
                                best,
                                &mut best_kind,
                                CriticalPointKind::OutputCrossing(level),
                            );
                            break;
                        }
                        Err(_) => continue,
                    }
                }
            }
        }

        // Input-waveform breakpoints bound every region: a gate still
        // slewing makes the linear-current model a poor fit, so the
        // region is split where the slewing stops/changes.
        let next_break = chain
            .elements
            .iter()
            .filter_map(|e| e.input)
            .flat_map(|i| inputs[i.0].samples().iter().map(|&(t, _)| t))
            .filter(|&t| t > state.tau + config.region.min_delta.max(config.min_breakpoint_span))
            .fold(f64::INFINITY, f64::min);
        if next_break.is_finite()
            && (best_kind.is_none() || next_break < best.tau_next - config.region.min_delta)
            && solve_region_into(
                &ctx,
                &state,
                EndCondition::FixedTime { t: next_break },
                0.0,
                &config.region,
                &mut iterations,
                scratch,
                cand,
            )
            .is_ok()
        {
            consider(
                cand,
                best,
                &mut best_kind,
                CriticalPointKind::InputBreakpoint,
            );
        }

        let kind = best_kind.ok_or(NumError::NoConvergence {
            method: "qwm::evaluate (no candidate converged)",
            iterations: regions,
            residual: state.tau,
        })?;
        let sol = &mut *best;

        // Re-express the winning end condition (shared by the r = 2 and
        // midpoint-caps passes).
        let winning_cond = match kind {
            CriticalPointKind::TurnOn(k) => EndCondition::TurnOn { element: k },
            CriticalPointKind::OutputCrossing(level) => EndCondition::Crossing { node: n, level },
            CriticalPointKind::TimedTurnOn(_) | CriticalPointKind::InputBreakpoint => {
                EndCondition::FixedTime { t: sol.tau_next }
            }
        };

        // r = 2: re-solve the winning region with two collocation points
        // and commit two exactly-representable quadratic pieces.
        if config.waveform_order >= 2 {
            let first_pass = solve_region_two_point(
                &ctx,
                &state,
                winning_cond,
                sol.tau_next - state.tau,
                &config.region,
                &mut iterations,
            );
            // Optional cap refinement: re-solve with capacitances at the
            // mean of the region's endpoint voltages. The committed
            // pieces must carry whichever caps the accepted solve used.
            let recapped = match (&first_pass, config.midpoint_caps && !config.freeze_caps) {
                (Ok(tp0), true) => {
                    let v_mid: Vec<f64> = state
                        .v
                        .iter()
                        .zip(&tp0.end.v_next)
                        .map(|(a, b)| 0.5 * (a + b))
                        .collect();
                    let caps2 = ctx.node_caps(&v_mid);
                    let state2 = RegionState {
                        tau: state.tau,
                        v: state.v.clone(),
                        i: state.i.clone(),
                        caps: caps2.clone(),
                    };
                    solve_region_two_point(
                        &ctx,
                        &state2,
                        winning_cond,
                        tp0.end.tau_next - state.tau,
                        &config.region,
                        &mut iterations,
                    )
                    .ok()
                    .map(|tp| (tp, caps2))
                }
                _ => None,
            };
            let chosen = match recapped {
                Some((tp, caps2)) => Ok((tp, caps2)),
                None => first_pass.map(|tp| (tp, state.caps.clone())),
            };
            if let Ok((tp, commit_caps)) = chosen {
                for k in 0..n {
                    waveforms[k].push(QuadraticPiece {
                        t0: state.tau,
                        t1: tp.tau_mid,
                        v0: state.v[k],
                        i0: state.i[k],
                        alpha: tp.alphas_first[k],
                        cap: commit_caps[k],
                    })?;
                    waveforms[k].push(QuadraticPiece {
                        t0: tp.tau_mid,
                        t1: tp.end.tau_next,
                        v0: tp.v_mid[k],
                        i0: tp.i_mid[k],
                        alpha: tp.end.alphas[k],
                        cap: commit_caps[k],
                    })?;
                }
                regions += 1;
                last_span = tp.end.tau_next - state.tau;
                critical_points.push(CriticalPoint {
                    t: tp.end.tau_next,
                    kind,
                });
                match kind {
                    CriticalPointKind::TurnOn(k) | CriticalPointKind::TimedTurnOn(k) => {
                        on[k - 1] = true;
                    }
                    CriticalPointKind::InputBreakpoint => {}
                    CriticalPointKind::OutputCrossing(level) => {
                        output_crossings.push((level, tp.end.tau_next));
                        targets.remove(0);
                    }
                }
                state.tau = tp.end.tau_next;
                match &frozen_caps {
                    Some(c) => {
                        state.caps.clear();
                        state.caps.extend_from_slice(c);
                    }
                    None => ctx.node_caps_into(&tp.end.v_next, scratch, &mut state.caps),
                }
                state.v = tp.end.v_next;
                state.i = tp.end.i_next;
                for k in 1..=n {
                    if !on[k - 1] && ctx.excess(k, &state.v, state.tau) >= 0.0 {
                        on[k - 1] = true;
                    }
                }
                continue;
            }
        }

        // Second pass with midpoint capacitances: junction caps grow as
        // nodes discharge, so region-start caps bias long regions fast.
        // Re-solving with caps at the mean of the endpoint voltages is a
        // one-extra-solve correction (skipped under freeze_caps). The
        // default path commits with the region-start caps borrowed in
        // place — no per-region clone.
        let mid_caps: Option<Vec<f64>> = if !config.midpoint_caps || config.freeze_caps {
            None
        } else {
            let v_mid: Vec<f64> = state
                .v
                .iter()
                .zip(&sol.v_next)
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            let mid_caps = ctx.node_caps(&v_mid);
            let drift = state
                .caps
                .iter()
                .zip(&mid_caps)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs() / b));
            if drift > 0.002 {
                let state2 = RegionState {
                    tau: state.tau,
                    v: state.v.clone(),
                    i: state.i.clone(),
                    caps: mid_caps.clone(),
                };
                match solve_region_counted(
                    &ctx,
                    &state2,
                    winning_cond,
                    sol.tau_next - state2.tau,
                    &config.region,
                    &mut iterations,
                ) {
                    Ok(sol2) => {
                        *sol = sol2;
                        Some(mid_caps)
                    }
                    Err(_) => None,
                }
            } else {
                None
            }
        };
        let used_caps: &[f64] = mid_caps.as_deref().unwrap_or(&state.caps);

        // Commit the region: one quadratic piece per node.
        for k in 0..n {
            waveforms[k].push(QuadraticPiece {
                t0: state.tau,
                t1: sol.tau_next,
                v0: state.v[k],
                i0: state.i[k],
                alpha: sol.alphas[k],
                cap: used_caps[k],
            })?;
        }
        regions += 1;
        last_span = sol.tau_next - state.tau;
        critical_points.push(CriticalPoint {
            t: sol.tau_next,
            kind,
        });
        match kind {
            CriticalPointKind::TurnOn(k) | CriticalPointKind::TimedTurnOn(k) => {
                on[k - 1] = true;
            }
            CriticalPointKind::InputBreakpoint => {}
            CriticalPointKind::OutputCrossing(level) => {
                output_crossings.push((level, sol.tau_next));
                targets.remove(0);
            }
        }
        // Opportunistically mark anything else that crossed its turn-on
        // during this region (simultaneous switching). The winner's
        // buffers are swapped into the running state (and its spent
        // vectors recycled as the next region's winner buffers).
        state.tau = sol.tau_next;
        std::mem::swap(&mut state.v, &mut sol.v_next);
        std::mem::swap(&mut state.i, &mut sol.i_next);
        match &frozen_caps {
            Some(c) => {
                state.caps.clear();
                state.caps.extend_from_slice(c);
            }
            None => ctx.node_caps_into(&state.v, scratch, &mut state.caps),
        }
        for k in 1..=n {
            if !on[k - 1] && ctx.excess(k, &state.v, state.tau) >= 0.0 {
                on[k - 1] = true;
            }
        }
    }

    qwm_obs::counter!("qwm.solver.nr_iterations").add(iterations as u64);
    qwm_obs::counter!("qwm.solver.regions").add(regions as u64);
    qwm_obs::counter!("qwm.solver.critical_points").add(critical_points.len() as u64);
    qwm_obs::histogram!("qwm.solver.regions_per_eval", qwm_obs::SIZE_BOUNDS).record(regions as u64);
    Ok(QwmResult {
        chain,
        waveforms,
        critical_points,
        output_crossings,
        iterations,
        regions,
        elapsed: start.elapsed(),
    })
}

/// True when element `k`'s gate waveform is still slewing at time `t`
/// (an input-driven event may therefore be imminent).
fn gate_still_switching(ctx: &ChainContext<'_>, k: usize, t: f64) -> bool {
    match ctx.chain.elements[k - 1].input {
        Some(i) => ctx.inputs[i.0].slope(t) != 0.0,
        None => false,
    }
}

/// Frozen-voltage estimate of an input-driven turn-on time: the first
/// `t ∈ (τ, t_max]` at which element `k`'s excess crosses zero with the
/// node voltages held at their region-start values.
///
/// With the channel terminals frozen the excess is an affine function of
/// the gate waveform (`±(G − const)`), so the estimate is a direct
/// waveform crossing rather than a root search.
fn frozen_turn_on_time(
    ctx: &ChainContext<'_>,
    state: &RegionState,
    k: usize,
    t_max: f64,
) -> Option<f64> {
    if ctx.excess(k, &state.v, state.tau) >= 0.0 {
        return Some(state.tau);
    }
    let elem = &ctx.chain.elements[k - 1];
    let input = elem.input?;
    let wave = &ctx.inputs[input.0];
    // excess(t) = ±(G(t) − level): recover `level` from one probe.
    let probe_t = state.tau;
    let g0 = wave.value(probe_t);
    let e0 = ctx.excess(k, &state.v, probe_t);
    let rising = elem.kind == DeviceKind::Nmos; // NMOS gates rise to turn on
    let level = if rising { g0 - e0 } else { g0 + e0 };
    wave.crossing(level, rising).filter(|&t| t <= t_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};
    use qwm_spice_initial::initial_uniform_like;

    /// Tiny local replica of `qwm_spice::initial_uniform` to avoid a
    /// dev-dependency cycle.
    mod qwm_spice_initial {
        use qwm_circuit::stage::{LogicStage, NodeId, NodeKind};
        use qwm_device::model::ModelSet;

        pub fn initial_uniform_like(stage: &LogicStage, models: &ModelSet, v: f64) -> Vec<f64> {
            let vdd = models.tech().vdd;
            (0..stage.node_count())
                .map(|i| match stage.node(NodeId(i)).kind {
                    NodeKind::Supply => vdd,
                    NodeKind::Ground => 0.0,
                    NodeKind::Internal => v,
                })
                .collect()
        }
    }

    fn setup() -> (Technology, ModelSet) {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        (tech, models)
    }

    /// Non-finite input breakpoints and crossing levels end in a
    /// structured error, never a panic in the event ordering.
    #[test]
    fn non_finite_breakpoints_and_levels_are_errors() {
        let (tech, models) = setup();
        let stage = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let run = |inputs: Vec<Waveform>, config: &QwmConfig| {
            evaluate(
                &stage,
                &models,
                &inputs,
                &init,
                out,
                TransitionKind::Fall,
                config,
            )
        };
        let good = || vec![Waveform::step(0.0, 0.0, tech.vdd)];
        for t0 in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = run(
                vec![Waveform::ramp(t0, 20e-12, 0.0, tech.vdd)],
                &QwmConfig::default(),
            );
            assert!(
                matches!(r, Err(NumError::InvalidInput { .. })),
                "t0 {t0}: {r:?}"
            );
        }
        for level in [f64::NAN, f64::INFINITY] {
            let config = QwmConfig {
                crossing_fractions: vec![0.9, level, 0.1],
                ..QwmConfig::default()
            };
            let r = run(good(), &config);
            assert!(
                matches!(r, Err(NumError::InvalidInput { .. })),
                "level {level}: {r:?}"
            );
        }
        let mut bad_init = init.clone();
        bad_init[out.0] = f64::NAN;
        let r = evaluate(
            &stage,
            &models,
            &good(),
            &bad_init,
            out,
            TransitionKind::Fall,
            &QwmConfig::default(),
        );
        assert!(matches!(r, Err(NumError::InvalidInput { .. })), "{r:?}");
    }

    #[test]
    fn four_stack_discharge_cascades() {
        let (tech, models) = setup();
        let stage = cells::nmos_stack(&tech, &[1.5e-6; 4], cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let inputs: Vec<Waveform> = (0..4).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            &QwmConfig::default(),
        )
        .unwrap();
        // Turn-on events for elements 2..4 (element 1 is input-driven),
        // plus three output crossings.
        let turnons = r
            .critical_points
            .iter()
            .filter(|c| {
                matches!(
                    c.kind,
                    CriticalPointKind::TurnOn(_) | CriticalPointKind::TimedTurnOn(_)
                )
            })
            .count();
        assert!(
            turnons >= 3,
            "saw {turnons} turn-ons: {:?}",
            r.critical_points
        );
        // All requested levels harvested (refinement may add more).
        assert!(r.output_crossings.len() >= QwmConfig::default().crossing_fractions.len());
        assert!(r.delay_50(tech.vdd, 0.0).is_some());
        // Crossings harvested in falling order of level.
        let times: Vec<f64> = r.output_crossings.iter().map(|c| c.1).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        // Events strictly ordered in time.
        for w in r.critical_points.windows(2) {
            assert!(w[0].t <= w[1].t + 1e-18);
        }
        let d = r.delay_50(tech.vdd, 0.0).unwrap();
        assert!(d > 1e-12 && d < 5e-9, "delay {d}");
        assert!(r.slew(tech.vdd).unwrap() > 0.0);
        assert!(r.regions >= 4);
        assert!(r.iterations > 0);
    }

    #[test]
    fn output_waveform_is_monotone_fall() {
        let (tech, models) = setup();
        let stage = cells::nmos_stack(&tech, &[2.0e-6; 3], cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            &QwmConfig::default(),
        )
        .unwrap();
        let w = r.output_waveform();
        let span = w.breakpoints().last().unwrap().0;
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let t = span * i as f64 / 100.0;
            let v = w.voltage(t);
            assert!(v <= prev + 0.02, "non-monotone at t={t}: {v} > {prev}");
            prev = v;
        }
    }

    #[test]
    fn inverter_fall_single_region_family() {
        let (tech, models) = setup();
        let stage = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let inputs = vec![Waveform::step(0.0, 0.0, tech.vdd)];
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            &QwmConfig::default(),
        )
        .unwrap();
        // All requested levels harvested (refinement may add more).
        assert!(r.output_crossings.len() >= QwmConfig::default().crossing_fractions.len());
        assert!(r.delay_50(tech.vdd, 0.0).is_some());
        assert!(r.delay_50(tech.vdd, 0.0).unwrap() < 500e-12);
    }

    #[test]
    fn pmos_stack_charges_symmetrically() {
        let (tech, models) = setup();
        let stage = cells::pmos_stack(&tech, &[3.0e-6; 3], cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        // PMOS gates fall to turn on.
        let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::step(0.0, tech.vdd, 0.0)).collect();
        let init = initial_uniform_like(&stage, &models, 0.0);
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Rise,
            &QwmConfig::default(),
        )
        .unwrap();
        // All requested levels harvested (refinement may add more).
        assert!(r.output_crossings.len() >= QwmConfig::default().crossing_fractions.len());
        assert!(r.delay_50(tech.vdd, 0.0).is_some());
        let w = r.output_waveform();
        let t_end = w.breakpoints().last().unwrap().0;
        assert!(w.voltage(t_end) > 0.85 * tech.vdd);
        // Rising crossings harvested in rising order of level.
        let times: Vec<f64> = r.output_crossings.iter().map(|c| c.1).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn argument_validation() {
        let (tech, models) = setup();
        let stage = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let cfg = QwmConfig::default();
        assert!(evaluate(&stage, &models, &[], &init, out, TransitionKind::Fall, &cfg).is_err());
        let inputs = vec![Waveform::constant(0.0)];
        assert!(evaluate(
            &stage,
            &models,
            &inputs,
            &[0.0],
            out,
            TransitionKind::Fall,
            &cfg
        )
        .is_err());
    }

    #[test]
    fn tabular_model_drives_qwm_too() {
        // The paper's actual configuration: QWM over the compressed
        // tabular model.
        let tech = Technology::cmosp35();
        let models = qwm_device::tabular_models(&tech).unwrap();
        let stage = cells::nmos_stack(&tech, &[1.5e-6; 3], cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
        let init = qwm_spice_initial::initial_uniform_like(&stage, &models, tech.vdd);
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            &QwmConfig::default(),
        )
        .unwrap();
        // All requested levels harvested (refinement may add more).
        assert!(r.output_crossings.len() >= QwmConfig::default().crossing_fractions.len());
        assert!(r.delay_50(tech.vdd, 0.0).is_some());
    }

    #[test]
    fn concurrent_evaluations_of_one_stage_are_identical() {
        // The parallel STA engine calls `evaluate` from several workers
        // against one shared stage/model set; the solve keeps all its
        // scratch on the stack, so racing evaluations must agree to the
        // last bit with a lone serial one.
        let (tech, models) = setup();
        let stage = cells::nand(&tech, 2, cells::DEFAULT_LOAD).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let inputs: Vec<Waveform> = (0..2)
            .map(|_| Waveform::ramp(0.0, 40e-12, 0.0, tech.vdd))
            .collect();
        let init = initial_uniform_like(&stage, &models, tech.vdd);
        let cfg = QwmConfig::default();
        let run = || {
            evaluate(
                &stage,
                &models,
                &inputs,
                &init,
                out,
                TransitionKind::Fall,
                &cfg,
            )
            .unwrap()
            .delay_50(tech.vdd, 0.0)
            .unwrap()
        };
        let expect = run();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let run = &run;
                s.spawn(move || {
                    for _ in 0..16 {
                        assert_eq!(run().to_bits(), expect.to_bits());
                    }
                });
            }
        });
    }
}
