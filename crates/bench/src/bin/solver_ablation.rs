//! §IV-B ablation: the QWM Newton update solved with the O(K)
//! bordered-tridiagonal method vs dense LU ("We observe tridiagonal
//! method gives almost twice speedup over LU decomposition").
//!
//! One full region solve on NMOS stacks of K = 4…64, timed best-of-N
//! per solver, printed with the LU / bordered ratio.
use qwm::circuit::cells;
use qwm::circuit::waveform::{TransitionKind, Waveform};
use qwm::core::chain::Chain;
use qwm::core::solver::{
    solve_region, ChainContext, EndCondition, LinearSolver, RegionOptions, RegionState,
};
use qwm::device::{analytic_models, Technology};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed solves per (K, solver); the minimum is reported.
const REPEATS: usize = 200;

fn main() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    println!("Solver ablation (§IV-B) — one region solve, best of {REPEATS}\n");
    println!(
        "{:>4} {:>14} {:>14} {:>8}",
        "K", "bordered[us]", "dense_lu[us]", "ratio"
    );
    for &k in &[4usize, 8, 16, 32, 64] {
        let stage = cells::nmos_stack(&tech, &vec![1.5e-6; k], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs: Vec<Waveform> = (0..k).map(|_| Waveform::constant(tech.vdd)).collect();
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        // The canonical first QWM region: everything precharged, the
        // bottom transistor conducting, solved to M2's turn-on.
        let v0 = vec![tech.vdd; k];
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        let state = RegionState {
            tau: 0.0,
            v: v0,
            i: i0,
            caps,
        };
        let cond = EndCondition::TurnOn { element: 2 };
        // Find a working span seed once (the evaluator's ladder).
        let seed = [0.2e-12, 1e-12, 5e-12, 25e-12]
            .into_iter()
            .find(|&dt| solve_region(&ctx, &state, cond, dt, &RegionOptions::default()).is_ok())
            .expect("some seed converges");
        let best = |linear_solver| {
            let opts = RegionOptions {
                linear_solver,
                ..RegionOptions::default()
            };
            let mut best = Duration::MAX;
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                black_box(solve_region(&ctx, &state, cond, seed, &opts).unwrap());
                best = best.min(t0.elapsed());
            }
            best.as_secs_f64() * 1e6
        };
        let bordered = best(LinearSolver::BorderedTridiagonal);
        let lu = best(LinearSolver::DenseLu);
        println!("{k:>4} {bordered:>14.2} {lu:>14.2} {:>7.1}x", lu / bordered);
    }
    // Telemetry appendix (enabled via QWM_OBS=summary|json).
    qwm::obs::emit();
}
