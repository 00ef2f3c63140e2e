//! Ablation tests: the design choices DESIGN.md calls out must actually
//! behave as claimed — same answers from both linear solvers, bounded
//! effect of the capacitance policy, agreement between iteration schemes
//! and integration methods, and the r = 2 accuracy gain.

use qwm::circuit::cells;
use qwm::circuit::waveform::{TransitionKind, Waveform};
use qwm::core::evaluate::{evaluate, QwmConfig};
use qwm::core::solver::{LinearSolver, RegionOptions};
use qwm::device::{analytic_models, Technology};
use qwm::spice::engine::{
    initial_uniform, simulate, Integration, IterationScheme, TransientConfig,
};

fn stack_setup(
    tech: &Technology,
    k: usize,
) -> (
    qwm::circuit::LogicStage,
    Vec<Waveform>,
    Vec<f64>,
    qwm::circuit::NodeId,
) {
    let models = analytic_models(tech);
    let stage = cells::nmos_stack(tech, &vec![1.5e-6; k], cells::DEFAULT_LOAD).unwrap();
    let inputs: Vec<Waveform> = (0..k).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
    let init = initial_uniform(&stage, &models, tech.vdd);
    let out = stage.node_by_name("out").unwrap();
    (stage, inputs, init, out)
}

#[test]
fn dense_lu_and_bordered_give_identical_transients() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 5);
    let mut delays = Vec::new();
    for solver in [LinearSolver::BorderedTridiagonal, LinearSolver::DenseLu] {
        let cfg = QwmConfig {
            region: RegionOptions {
                linear_solver: solver,
                ..RegionOptions::default()
            },
            ..QwmConfig::default()
        };
        let r = evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            &cfg,
        )
        .unwrap();
        delays.push(r.delay_50(tech.vdd, 0.0).unwrap());
    }
    let rel = (delays[0] - delays[1]).abs() / delays[1];
    assert!(rel < 1e-6, "bordered {} vs LU {}", delays[0], delays[1]);
}

#[test]
fn freeze_caps_ablation_shifts_delay_but_bounded() {
    // The paper's presentation assumption 3 (constant parasitics):
    // freezing caps at t=0 changes the delay by a few percent, not more.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 6);
    let base = evaluate(
        &stage,
        &models,
        &inputs,
        &init,
        out,
        TransitionKind::Fall,
        &QwmConfig::default(),
    )
    .unwrap()
    .delay_50(tech.vdd, 0.0)
    .unwrap();
    let frozen_cfg = QwmConfig {
        freeze_caps: true,
        ..QwmConfig::default()
    };
    let frozen = evaluate(
        &stage,
        &models,
        &inputs,
        &init,
        out,
        TransitionKind::Fall,
        &frozen_cfg,
    )
    .unwrap()
    .delay_50(tech.vdd, 0.0)
    .unwrap();
    let rel = (frozen - base).abs() / base;
    assert!(rel > 0.0, "the policy must matter at all");
    assert!(rel < 0.10, "but only mildly: {rel}");
}

#[test]
fn spice_integration_methods_agree() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 4);
    let mut delays = Vec::new();
    for integration in [Integration::BackwardEuler, Integration::Trapezoidal] {
        let cfg = TransientConfig {
            integration,
            ..TransientConfig::hspice_1ps(500e-12)
        };
        let r = simulate(&stage, &models, &inputs, &init, &cfg).unwrap();
        delays.push(
            r.waveform(out)
                .unwrap()
                .crossing(tech.vdd / 2.0, false)
                .unwrap(),
        );
    }
    assert!((delays[0] - delays[1]).abs() / delays[1] < 0.02);
}

#[test]
fn successive_chords_matches_newton_and_factors_less() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 4);
    let nr_cfg = TransientConfig::hspice_1ps(500e-12);
    let sc_cfg = TransientConfig {
        iteration: IterationScheme::SuccessiveChords,
        ..nr_cfg
    };
    let nr = simulate(&stage, &models, &inputs, &init, &nr_cfg).unwrap();
    let sc = simulate(&stage, &models, &inputs, &init, &sc_cfg).unwrap();
    let dn = nr.waveform(out).unwrap().crossing(1.65, false).unwrap();
    let ds = sc.waveform(out).unwrap().crossing(1.65, false).unwrap();
    assert!((dn - ds).abs() / dn < 0.02);
    assert!(
        sc.factorizations <= nr.factorizations,
        "sc {} vs nr {}",
        sc.factorizations,
        nr.factorizations
    );
    assert!(sc.iterations >= nr.iterations, "chords trade iterations");
}

#[test]
fn ten_ps_step_is_faster_but_less_accurate() {
    // The Table I/II cost-accuracy axis of the baseline itself.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 6);
    let r1 = simulate(
        &stage,
        &models,
        &inputs,
        &init,
        &TransientConfig::hspice_1ps(600e-12),
    )
    .unwrap();
    let r10 = simulate(
        &stage,
        &models,
        &inputs,
        &init,
        &TransientConfig::hspice_10ps(600e-12),
    )
    .unwrap();
    assert!(r10.iterations < r1.iterations / 3);
    let d1 = r1.waveform(out).unwrap().crossing(1.65, false).unwrap();
    let d10 = r10.waveform(out).unwrap().crossing(1.65, false).unwrap();
    assert!((d1 - d10).abs() / d1 < 0.08, "10ps within 8% of 1ps");
}

#[test]
fn qwm_iteration_count_scales_linearly_with_k() {
    // The complexity claim: ~K solves of bounded iteration count, so
    // total Newton iterations grow linearly in K, not quadratically.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let mut iters = Vec::new();
    for k in [4usize, 8, 12] {
        let (stage, inputs, init, out) = stack_setup(&tech, k);
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
        iters.push(r.iterations as f64 / k as f64);
    }
    // Iterations-per-transistor stays within a 2.5x band across K.
    let max = iters.iter().cloned().fold(f64::MIN, f64::max);
    let min = iters.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 2.5, "per-K iterations {iters:?}");
}

#[test]
fn waveform_order_two_improves_the_hard_case_further() {
    // The r = 2 collocation model (QwmConfig::high_accuracy) must beat
    // the plain evaluator decisively on the heavy-load short stack.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let stage = cells::nmos_stack(&tech, &[0.88e-6, 0.5e-6], 40e-15).unwrap();
    let inputs: Vec<Waveform> = (0..2).map(|_| Waveform::step(0.0, 0.0, tech.vdd)).collect();
    let init = initial_uniform(&stage, &models, tech.vdd);
    let out = stage.node_by_name("out").unwrap();
    let run = |cfg: &QwmConfig| {
        evaluate(
            &stage,
            &models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            cfg,
        )
        .unwrap()
        .delay_50(tech.vdd, 0.0)
        .unwrap()
    };
    let d1 = run(&QwmConfig::default());
    let d2 = run(&QwmConfig::high_accuracy());
    let s = simulate(
        &stage,
        &models,
        &inputs,
        &init,
        &TransientConfig::hspice_1ps(3.0 * d1),
    )
    .unwrap();
    let d_ref = s
        .waveform(out)
        .unwrap()
        .crossing(tech.vdd / 2.0, false)
        .unwrap();
    let e1 = (d1 - d_ref).abs() / d_ref;
    let e2 = (d2 - d_ref).abs() / d_ref;
    assert!(e2 < 0.5 * e1, "r=2 {e2} vs r=1 {e1}");
    assert!(e2 < 0.03, "r=2 error {e2}");
}

#[test]
fn waveform_order_two_pieces_are_continuous() {
    // Each r = 2 region commits two pieces; the waveform must stay
    // continuous across the midpoints.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let (stage, inputs, init, out) = stack_setup(&tech, 5);
    let cfg = QwmConfig::high_accuracy();
    let r = evaluate(
        &stage,
        &models,
        &inputs,
        &init,
        out,
        TransitionKind::Fall,
        &cfg,
    )
    .unwrap();
    for w in &r.waveforms {
        for pair in w.pieces().windows(2) {
            let v_end = pair[0].end_voltage();
            let v_start = pair[1].v0;
            // Continuity holds to the charge-residual tolerance
            // (sub-millivolt), not to machine precision.
            assert!(
                (v_end - v_start).abs() < 1e-3,
                "discontinuity {v_end} vs {v_start}"
            );
        }
    }
    // Roughly two pieces per committed region.
    assert!(r.waveforms[0].pieces().len() >= r.regions);
}
