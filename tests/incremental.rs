//! Seeded property suite for the incremental STA subsystem.
//!
//! The contract under test: for any netlist, any edit sequence
//! (resize / load / input-slew) and any worker count,
//! [`StaEngine::run_incremental`] produces a report **bitwise-identical**
//! to a cold [`StaEngine::run_with_slew`] on an identically edited
//! fresh engine — while never re-evaluating more stages than the edited
//! stages' static fanout cone.
//!
//! Exact `f64` equality throughout: an epsilon would hide a real
//! cache-reuse or propagation bug.

use qwm::circuit::netlist::{NetId, Netlist};
use qwm::circuit::waveform::TransitionKind;
use qwm::device::{analytic_models, ModelSet, Technology};
use qwm::num::rng::Rng64;
use qwm::sta::engine::{StaEngine, TimingReport};
use qwm::sta::evaluator::{ElmoreEvaluator, QwmEvaluator, StageEvaluator};
use qwm::sta::graph::{inverter_chain, random_dag_netlist};
use qwm::sta::incremental::Edit;
use std::collections::HashMap;

const WORKERS: [usize; 2] = [1, 4];

/// Exact report-body comparison. `evaluations` is deliberately not
/// compared — re-evaluating less is the whole point of the flow.
fn assert_bodies_identical(a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(a.worst, b.worst, "{what}: worst endpoint");
    assert_eq!(a.critical_path, b.critical_path, "{what}: critical path");
    let sorted = |m: &HashMap<NetId, f64>| {
        let mut v: Vec<(usize, f64)> = m.iter().map(|(k, &x)| (k.0, x)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    };
    assert_eq!(
        sorted(&a.arrivals),
        sorted(&b.arrivals),
        "{what}: arrivals (exact)"
    );
    assert_eq!(sorted(&a.slews), sorted(&b.slews), "{what}: slews (exact)");
}

/// The cold reference: a fresh engine over the edited netlist, timed
/// with `run_with_slew` at the incremental engine's current seed slew.
fn cold_reference(
    nl: &Netlist,
    models: &ModelSet,
    ev: &dyn StageEvaluator,
    slew: f64,
    threads: usize,
) -> TimingReport {
    StaEngine::new(nl.clone(), models, TransitionKind::Fall)
        .expect("cold engine")
        .with_threads(threads)
        .run_with_slew(ev, slew)
        .expect("cold run")
}

/// Draws a random edit against the current netlist. Resizes and loads
/// target random gate devices/nets; slews stay in the QWM-sensitive
/// 5–50 ps band.
fn random_edit(rng: &mut Rng64, nl: &Netlist, tech: &Technology, with_slew: bool) -> Edit {
    let kinds = if with_slew { 3 } else { 2 };
    match rng.next_u64() % kinds {
        0 => Edit::ResizeDevice {
            device: (rng.next_u64() as usize) % nl.devices().len(),
            w: tech.w_min * (1.0 + 3.0 * rng.unit()),
        },
        1 => {
            // Loads go on driven nets so the edit has a timing effect.
            let net = loop {
                let n = NetId((rng.next_u64() as usize) % nl.net_count());
                if !nl.is_rail(n) && !nl.primary_inputs().contains(&n) {
                    break n;
                }
            };
            Edit::SetNetLoad {
                net,
                cap: 1e-15 + 9e-15 * rng.unit(),
            }
        }
        _ => Edit::SetInputSlew {
            slew: 5e-12 + 45e-12 * rng.unit(),
        },
    }
}

/// Random DAGs × random resize/load sequences × 1 and 4 workers,
/// Elmore-evaluated (fast enough for many rounds). Every round checks
/// bitwise identity with a cold run and the cone bound on work.
#[test]
fn random_edit_sequences_match_cold_runs() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = ElmoreEvaluator;
    for seed in [0x1CE5_u64, 0xD1A7, 0xFEED] {
        let nl = random_dag_netlist(&tech, 60, seed);
        for threads in WORKERS {
            let mut engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
                .expect("engine")
                .with_threads(threads);
            engine.set_input_slew(15e-12).expect("slew");
            let _ = engine.run_incremental(&ev).expect("seed run");
            assert!(engine.incremental_stats().full_run);
            let mut rng = Rng64::seed_from_u64(seed ^ 0xABCD);
            for round in 0..8 {
                let edit = random_edit(&mut rng, engine.netlist(), &tech, false);
                engine.apply_edits(&[edit]).expect("edit applies");
                let incr = engine.run_incremental(&ev).expect("incremental run");
                let stats = engine.incremental_stats();
                let what = format!("seed {seed:#x} round {round} @ {threads} threads ({edit:?})");
                assert!(!stats.full_run, "{what}: must not fall back to full");
                assert!(
                    stats.evaluated_stages <= stats.dirty_stages,
                    "{what}: evaluated {} > cone {}",
                    stats.evaluated_stages,
                    stats.dirty_stages
                );
                assert!(
                    stats.dirty_stages <= engine.graph().len(),
                    "{what}: cone exceeds the graph"
                );
                let cold =
                    cold_reference(engine.netlist(), &models, &ev, engine.input_slew(), threads);
                assert_bodies_identical(&incr, &cold, &what);
            }
        }
    }
}

/// All three edit kinds (including input-slew changes) against the
/// slew-sensitive QWM evaluator on a small chain.
#[test]
fn qwm_edit_sequences_with_slew_changes_match_cold_runs() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = QwmEvaluator::default();
    let nl = inverter_chain(&tech, 8, 10e-15);
    for threads in WORKERS {
        let mut engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        engine.set_input_slew(20e-12).expect("slew");
        let _ = engine.run_incremental(&ev).expect("seed run");
        let mut rng = Rng64::seed_from_u64(0xC0FFEE ^ threads as u64);
        for round in 0..6 {
            let edit = random_edit(&mut rng, engine.netlist(), &tech, true);
            engine.apply_edits(&[edit]).expect("edit applies");
            let incr = engine.run_incremental(&ev).expect("incremental run");
            let what = format!("qwm round {round} @ {threads} threads ({edit:?})");
            let cold = cold_reference(engine.netlist(), &models, &ev, engine.input_slew(), threads);
            assert_bodies_identical(&incr, &cold, &what);
        }
    }
}

/// ISSUE-4 acceptance: on a seeded ≥200-stage DAG, a single resize
/// re-evaluates only the fanout cone, bitwise-identical to a cold run
/// at 1 and 4 workers.
#[test]
fn acceptance_single_resize_on_200_stage_dag() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = ElmoreEvaluator;
    let nl = random_dag_netlist(&tech, 220, 0xACCE55);
    let victim = nl
        .find_device("MN110")
        .or_else(|| nl.find_device("MN110a"))
        .expect("mid-DAG device");
    let mut per_worker: Vec<TimingReport> = Vec::new();
    for threads in WORKERS {
        let mut engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        engine.set_input_slew(15e-12).expect("slew");
        let _ = engine.run_incremental(&ev).expect("cold seed run");

        engine
            .resize_device(victim, 3.0 * tech.w_min)
            .expect("resize");
        // The cone of the edit: the victim's stage plus its gate-net
        // driver (fanout-load update), closed over dependencies.
        let seed_stage = engine.graph().stage_of_device(victim).expect("stage");
        let gate = engine.netlist().devices()[victim].gate.expect("gate net");
        let mut seeds = vec![seed_stage.0];
        if let Some(d) = engine.graph().driver_of(gate) {
            seeds.push(d.0);
        }
        let cone = engine.graph().fanout_cone(seeds);

        let incr = engine.run_incremental(&ev).expect("incremental run");
        let stats = engine.incremental_stats();
        assert!(!stats.full_run);
        assert_eq!(
            stats.dirty_stages,
            cone.len(),
            "dirty cone is exactly the edit's static fanout cone"
        );
        assert!(stats.evaluated_stages <= stats.dirty_stages);
        assert!(
            stats.dirty_stages < engine.graph().len(),
            "a mid-DAG edit must not re-time the whole graph"
        );
        assert!(stats.evaluations > 0, "the edited stage re-evaluates");
        let cold = cold_reference(engine.netlist(), &models, &ev, 15e-12, threads);
        assert_bodies_identical(&incr, &cold, &format!("acceptance @ {threads} threads"));
        per_worker.push(incr);
    }
    assert_bodies_identical(&per_worker[0], &per_worker[1], "1 vs 4 workers");
    assert_eq!(
        per_worker[0].evaluations, per_worker[1].evaluations,
        "triggering is deterministic across worker counts"
    );
}

/// An identity edit (resize to the same width) invalidates and
/// re-evaluates the seed stages, but every recommit is bitwise-equal,
/// so propagation early-stops and downstream stages never trigger.
#[test]
fn identity_edit_early_stops_the_cone() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = ElmoreEvaluator;
    let nl = random_dag_netlist(&tech, 120, 0x5709);
    let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    let r1 = engine.run_incremental(&ev).expect("seed run");
    let victim = engine.netlist().find_device("MN60").map_or(0, |d| d);
    let w = engine.netlist().devices()[victim].geom.w;
    engine.resize_device(victim, w).expect("identity resize");
    let r2 = engine.run_incremental(&ev).expect("incremental run");
    let stats = engine.incremental_stats();
    assert_bodies_identical(&r1, &r2, "identity edit");
    // Only the seed stages (victim + gate driver) trigger; the rest of
    // the cone is cut off by unchanged commits.
    assert!(
        stats.evaluated_stages <= 2,
        "evaluated {} stages for a no-op edit",
        stats.evaluated_stages
    );
    assert!(stats.early_stop_nets > 0);
}

/// Batched edits accumulate dirt; one incremental run settles them all.
#[test]
fn batched_edits_settle_in_one_run() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = ElmoreEvaluator;
    let nl = random_dag_netlist(&tech, 80, 0xBA7C4);
    let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    engine.set_input_slew(10e-12).expect("slew");
    let _ = engine.run_incremental(&ev).expect("seed run");
    let g10 = engine.netlist().find_net("g10").expect("g10");
    let batch = [
        Edit::ResizeDevice {
            device: 3,
            w: 2.5 * tech.w_min,
        },
        Edit::SetNetLoad {
            net: g10,
            cap: 8e-15,
        },
        Edit::SetInputSlew { slew: 25e-12 },
    ];
    engine.apply_edits(&batch).expect("batch applies");
    let incr = engine.run_incremental(&ev).expect("incremental run");
    let cold = cold_reference(engine.netlist(), &models, &ev, 25e-12, 1);
    assert_bodies_identical(&incr, &cold, "batched edits");
}

/// Regression (load drift): `resize_device` and `set_net_load` used to
/// adjust a stage's baked load by a delta, while a cold build sums it
/// afresh; over a long edit session the two differ in the last bit of a
/// load, then of a delay. 300 seeded edits on one engine (half of them
/// resizes) — far past the 8 edits per engine of the suites above —
/// must still match a cold engine over the edited netlist bitwise,
/// every round.
#[test]
fn long_edit_sessions_do_not_drift_from_cold_runs() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let ev = ElmoreEvaluator;
    let nl = random_dag_netlist(&tech, 90, 0xD21F7);
    let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    engine.set_input_slew(15e-12).expect("slew");
    let _ = engine.run_incremental(&ev).expect("seed run");
    let mut rng = Rng64::seed_from_u64(0xD21F7 ^ 0xABCD);
    let mut resizes = 0;
    for round in 0..300 {
        let edit = random_edit(&mut rng, engine.netlist(), &tech, false);
        resizes += usize::from(matches!(edit, Edit::ResizeDevice { .. }));
        engine.apply_edits(&[edit]).expect("edit applies");
        let incr = engine.run_incremental(&ev).expect("incremental run");
        assert!(!engine.incremental_stats().full_run);
        let cold = cold_reference(engine.netlist(), &models, &ev, 15e-12, 1);
        assert_bodies_identical(&incr, &cold, &format!("edit {round} ({edit:?})"));
    }
    assert!(resizes >= 120, "only {resizes} resizes drawn");
}
