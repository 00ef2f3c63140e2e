//! Steady-state allocation contract for the kernel (DESIGN.md §15):
//! once a `SolveScratch`/`RegionSolution` pair has been warmed on a
//! chain, repeated `solve_region_into` calls must allocate **zero**
//! times — not "few", zero. A counting global allocator makes the
//! assertion exact; any future `Vec`, `Box`, or format sneaking into
//! the hot path fails this test by name. Around the solve, a warm
//! `evaluate()` of a ramp-driven gate is pinned at today's count.
//!
//! This file intentionally holds a single test: the allocation counter
//! is process-global, so a sibling test running concurrently would
//! pollute the measurement window.

use qwm_circuit::cells;
use qwm_circuit::waveform::{TransitionKind, Waveform};
use qwm_circuit::{InputId, LogicStage, NodeId, NodeKind};
use qwm_core::chain::Chain;
use qwm_core::evaluate::{evaluate, QwmConfig};
use qwm_core::solver::{
    solve_region_into, ChainContext, EndCondition, RegionOptions, RegionSolution, RegionState,
    SolveScratch,
};
use qwm_device::{analytic_models, tabular_models, ModelSet, Technology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation (alloc / alloc_zeroed / realloc) while
/// delegating the actual work to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on warm `evaluate()` allocations per arc over the stage mix
/// below: the measured 21.0 plus 10 %.
const ALLOCS_PER_EVAL_MAX: f64 = 23.1;

/// The STA engine's slew-driven fall stimulus: the worst chain's gating
/// inputs ramp 0 → Vdd over `slew / 0.8` (10–90 % = `slew`), the other
/// inputs hold low, internal nodes start precharged.
fn ramp_setup(stage: &LogicStage, vdd: f64, out: NodeId, slew: f64) -> (Vec<Waveform>, Vec<f64>) {
    let gating = Chain::extract_worst(stage, out, TransitionKind::Fall)
        .unwrap()
        .gating_inputs();
    let inputs = (0..stage.inputs().len())
        .map(|i| {
            if gating.contains(&InputId(i)) {
                Waveform::ramp_interned(0.0, slew / 0.8, 0.0, vdd)
            } else {
                Waveform::constant_interned(0.0)
            }
        })
        .collect();
    let init = (0..stage.node_count())
        .map(|i| match stage.node(NodeId(i)).kind {
            NodeKind::Ground => 0.0,
            NodeKind::Supply | NodeKind::Internal => vdd,
        })
        .collect();
    (inputs, init)
}

/// Warm allocations per `evaluate()` over an inverter, NAND2, NAND3 and
/// a 4-high stack, each driven by a 30 ps ramp.
fn warm_allocs_per_eval(tech: &Technology, models: &ModelSet) -> f64 {
    let stages = [
        cells::inverter(tech, cells::DEFAULT_LOAD).unwrap(),
        cells::nand(tech, 2, cells::DEFAULT_LOAD).unwrap(),
        cells::nand(tech, 3, cells::DEFAULT_LOAD).unwrap(),
        cells::nmos_stack(tech, &[1.5e-6; 4], cells::DEFAULT_LOAD).unwrap(),
    ];
    let setups: Vec<_> = stages
        .iter()
        .map(|stage| {
            let out = stage.node_by_name("out").unwrap();
            let (inputs, init) = ramp_setup(stage, tech.vdd, out, 30e-12);
            (stage, out, inputs, init)
        })
        .collect();
    let config = QwmConfig::default();
    let eval_all = || {
        for (stage, out, inputs, init) in &setups {
            evaluate(
                stage,
                models,
                inputs,
                init,
                *out,
                TransitionKind::Fall,
                &config,
            )
            .unwrap();
        }
    };
    // Warm-up: thread-local scratch, interned waveforms, obs registries.
    eval_all();
    const REPS: usize = 8;
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..REPS {
        eval_all();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    (after - before) as f64 / (REPS * setups.len()) as f64
}

#[test]
fn warm_region_solve_allocates_zero() {
    // A 3-stack with a mid-discharge state whose 50 %-level crossing
    // converges from a short dt seed.
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let stage = cells::nmos_stack(&tech, &[1.5e-6, 2.0e-6, 1.0e-6], 20e-15).unwrap();
    let out = stage.node_by_name("out").unwrap();
    let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
    let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::constant(tech.vdd)).collect();
    let ctx = ChainContext {
        stage: &stage,
        chain: &chain,
        models: &models,
        inputs: &inputs,
        rail_v: 0.0,
    };
    let v0 = vec![1.0, 2.5, 3.1];
    let caps = ctx.node_caps(&v0);
    let i0 = ctx.node_currents(&v0, 0.0).unwrap();
    let state = RegionState {
        tau: 0.0,
        v: v0,
        i: i0,
        caps,
    };
    let cond = EndCondition::Crossing {
        node: 3,
        level: 2.0,
    };
    let opts = RegionOptions::default();

    let mut scratch = SolveScratch::new();
    let mut sol = RegionSolution::default();
    let mut spent = 0usize;
    // Warm-up: grows every workspace buffer to the chain size and
    // registers the observability counters/histograms.
    for _ in 0..4 {
        solve_region_into(
            &ctx,
            &state,
            cond,
            5e-12,
            &opts,
            &mut spent,
            &mut scratch,
            &mut sol,
        )
        .unwrap();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..32 {
        solve_region_into(
            &ctx,
            &state,
            cond,
            5e-12,
            &opts,
            &mut spent,
            &mut scratch,
            &mut sol,
        )
        .unwrap();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm solve_region_into allocated {} times over 32 solves",
        after - before
    );

    let per_eval = warm_allocs_per_eval(&tech, &tabular_models(&tech).unwrap());
    assert!(
        per_eval <= ALLOCS_PER_EVAL_MAX,
        "warm evaluate() allocated {per_eval:.2} times per arc (max {ALLOCS_PER_EVAL_MAX})"
    );
}
