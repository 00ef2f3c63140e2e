//! Adaptive time-step transient analysis.
//!
//! The related work the paper positions against (§II) includes
//! adaptively controlled simulation (ACES, Devgan & Rohrer): instead of
//! a fixed step, the integrator grows the step through quiescent
//! stretches and shrinks it through fast transitions. This module adds
//! that baseline flavor on top of the fixed-step engine using classic
//! step-doubling local-truncation-error control: each accepted interval
//! is integrated once with `h` and once as two `h/2` sub-steps; the
//! difference estimates the LTE and drives acceptance and the next step
//! size.
//!
//! For the QWM comparison this closes the obvious objection "a real
//! simulator would not take 1 ps steps everywhere": it indeed takes far
//! fewer steps (see the `adaptive` rows in `EXPERIMENTS.md`), and QWM
//! still wins by an order of magnitude on the paper's workloads.

use crate::engine::{TransientConfig, TransientResult};
use qwm_circuit::stage::LogicStage;
use qwm_circuit::waveform::Waveform;
use qwm_device::model::ModelSet;
use qwm_num::{NumError, Result};
use std::time::Instant;

/// Controls for [`simulate_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Base configuration (tolerances, iteration scheme, `t_stop`; its
    /// `step` seeds the initial step size).
    pub base: TransientConfig,
    /// Smallest allowed step \[s\].
    pub h_min: f64,
    /// Largest allowed step \[s\].
    pub h_max: f64,
    /// Per-step voltage LTE target \[V\].
    pub lte_target: f64,
}

impl AdaptiveConfig {
    /// A sensible default around the paper's horizons: 0.25 ps floor,
    /// 25 ps ceiling, 5 mV per-step error target.
    pub fn new(t_stop: f64) -> Self {
        AdaptiveConfig {
            base: TransientConfig {
                t_stop,
                step: 1e-12,
                ..TransientConfig::default()
            },
            h_min: 0.25e-12,
            h_max: 25e-12,
            lte_target: 5e-3,
        }
    }
}

/// Runs an adaptive-step transient. Returns the same
/// [`TransientResult`] shape as the fixed-step engine (non-uniform
/// sample times).
///
/// # Errors
///
/// Propagates per-interval solver failures. Steps at `h_min` are
/// accepted even above the LTE target (the controller cannot refine
/// further; the half-step result is still used).
pub fn simulate_adaptive(
    stage: &LogicStage,
    models: &ModelSet,
    inputs: &[Waveform],
    initial: &[f64],
    config: &AdaptiveConfig,
) -> Result<TransientResult> {
    if let Some(e) = qwm_fault::check("spice.adaptive") {
        return Err(e);
    }
    if config.h_min.is_nan()
        || config.h_min <= 0.0
        || config.h_max < config.h_min
        || config.lte_target.is_nan()
        || config.lte_target <= 0.0
    {
        return Err(NumError::InvalidInput {
            context: "simulate_adaptive",
            detail: format!(
                "h_min={} h_max={} lte={}",
                config.h_min, config.h_max, config.lte_target
            ),
        });
    }
    crate::engine::check_finite("simulate_adaptive", inputs, initial)?;
    let start = Instant::now();
    let _span = qwm_obs::span!("spice.simulate_adaptive");
    let _trace = qwm_obs::trace::TraceGuard::enter("spice.simulate_adaptive");
    let vdd = models.tech().vdd;
    let mut t = 0.0;
    let mut h = config.base.step.clamp(config.h_min, config.h_max);
    let mut node_v: Vec<f64> = initial.to_vec();
    node_v[stage.source().0] = vdd;
    node_v[stage.sink().0] = 0.0;

    let mut times = vec![0.0];
    let mut volts: Vec<Vec<f64>> = node_v.iter().map(|&v| vec![v]).collect();
    let mut stepper = crate::engine::Stepper::new(stage, models, inputs, &config.base)?;

    while t < config.base.t_stop - 1e-18 {
        let h_eff = h.min(config.base.t_stop - t);
        // Full step vs two half steps (step-doubling LTE estimate).
        let mut full = node_v.clone();
        stepper.advance(&mut full, t + h_eff, h_eff)?;
        let mut halves = node_v.clone();
        stepper.advance(&mut halves, t + 0.5 * h_eff, 0.5 * h_eff)?;
        stepper.advance(&mut halves, t + h_eff, 0.5 * h_eff)?;
        let lte = full
            .iter()
            .zip(&halves)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));

        if lte <= config.lte_target || h_eff <= config.h_min * 1.0001 {
            // At h_min the step is accepted regardless (the controller
            // cannot do better; the half-step result is still the most
            // accurate available — standard practice).
            // Accept the more accurate half-step result.
            t += h_eff;
            node_v = halves;
            times.push(t);
            for (trace, &v) in volts.iter_mut().zip(&node_v) {
                trace.push(v);
            }
            // Controller: grow on comfortable margin.
            if lte < 0.25 * config.lte_target {
                h = (h * 2.0).min(config.h_max);
            }
            qwm_obs::counter!("spice.adaptive.accepted").incr();
        } else {
            h = (h * 0.5).max(config.h_min);
            qwm_obs::counter!("spice.adaptive.rejected").incr();
        }
    }

    let (iterations, factorizations) = stepper.counters();
    qwm_obs::counter!("spice.adaptive.nr_iterations").add(iterations as u64);
    qwm_obs::counter!("spice.adaptive.factorizations").add(factorizations as u64);
    Ok(TransientResult {
        times,
        voltages: volts,
        iterations,
        factorizations,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::initial_uniform;
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};

    use crate::engine::simulate;

    #[test]
    fn adaptive_matches_fixed_step_delay_with_fewer_steps() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6; 4], cells::DEFAULT_LOAD).unwrap();
        let inputs: Vec<Waveform> = (0..4).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
        let init = initial_uniform(&stage, &models, tech.vdd);
        let out = stage.node_by_name("out").unwrap();

        let fixed = simulate(
            &stage,
            &models,
            &inputs,
            &init,
            &TransientConfig::hspice_1ps(400e-12),
        )
        .unwrap();
        let adaptive = simulate_adaptive(
            &stage,
            &models,
            &inputs,
            &init,
            &AdaptiveConfig::new(400e-12),
        )
        .unwrap();
        let df = fixed
            .waveform(out)
            .unwrap()
            .crossing(tech.vdd / 2.0, false)
            .unwrap();
        let da = adaptive
            .waveform(out)
            .unwrap()
            .crossing(tech.vdd / 2.0, false)
            .unwrap();
        assert!((df - da).abs() / df < 0.03, "fixed {df} vs adaptive {da}");
        assert!(
            adaptive.times.len() < fixed.times.len() / 2,
            "adaptive {} samples vs fixed {}",
            adaptive.times.len(),
            fixed.times.len()
        );
    }

    #[test]
    fn step_sizes_shrink_through_the_transition() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let inputs = vec![Waveform::step(50e-12, 0.0, tech.vdd)];
        let init = initial_uniform(&stage, &models, tech.vdd);
        let r = simulate_adaptive(
            &stage,
            &models,
            &inputs,
            &init,
            &AdaptiveConfig::new(300e-12),
        )
        .unwrap();
        // Largest step in the quiet pre-transition stretch exceeds the
        // smallest step during the edge.
        let steps: Vec<f64> = r.times.windows(2).map(|w| w[1] - w[0]).collect();
        let before: f64 = steps
            .iter()
            .zip(&r.times)
            .filter(|(_, &t)| t < 40e-12)
            .map(|(s, _)| *s)
            .fold(0.0, f64::max);
        let during: f64 = steps
            .iter()
            .zip(&r.times)
            .filter(|(_, &t)| (45e-12..120e-12).contains(&t))
            .map(|(s, _)| *s)
            .fold(f64::INFINITY, f64::min);
        assert!(before > during, "quiet {before} vs edge {during}");
    }

    #[test]
    fn validation() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let inputs = vec![Waveform::constant(0.0)];
        let init = initial_uniform(&stage, &models, tech.vdd);
        let bad = AdaptiveConfig {
            h_min: 0.0,
            ..AdaptiveConfig::new(1e-10)
        };
        assert!(simulate_adaptive(&stage, &models, &inputs, &init, &bad).is_err());
    }
}
