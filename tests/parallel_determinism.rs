//! Determinism lock-down for the parallel STA engine: every analysis
//! mode, on every workload, must produce bitwise-identical reports at
//! 1, 2, 4 and 8 workers.
//!
//! The engine's contract is determinism *by construction* (single
//! committer per net, happens-before via the dependency countdown), so
//! these tests compare with exact `f64` equality — any epsilon would
//! hide a real scheduling leak.

use qwm::circuit::cells::decoder_tree_netlist;
use qwm::circuit::netlist::Netlist;
use qwm::circuit::parser::parse_netlist;
use qwm::circuit::stage::DeviceKind;
use qwm::circuit::waveform::TransitionKind;
use qwm::core::evaluate::QwmConfig;
use qwm::device::model::Geometry;
use qwm::device::{analytic_models, parse_corner_list, CornerModels, ModelSet, Technology};
use qwm::sta::engine::{StaEngine, TimingReport};
use qwm::sta::evaluator::{ElmoreEvaluator, QwmEvaluator, SpiceEvaluator, StageEvaluator};
use qwm::sta::graph::{inverter_chain, random_dag_netlist};
use qwm::sta::{CornerRun, IncrementalStats};
use std::collections::HashMap;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Exact, field-by-field report comparison (sorted iteration so the
/// failure message names the first diverging net deterministically).
fn assert_reports_identical(a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluation count");
    assert_eq!(
        a.waveform_failures, b.waveform_failures,
        "{what}: waveform failures"
    );
    assert_eq!(a.worst, b.worst, "{what}: worst endpoint");
    assert_eq!(a.critical_path, b.critical_path, "{what}: critical path");
    let sorted = |m: &HashMap<qwm::circuit::netlist::NetId, f64>| {
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

/// Runs `f` against a fresh engine per worker count (caches persist
/// inside an engine, so sharing one would only time the first run) and
/// asserts every report matches the single-worker baseline bitwise.
fn check_all_thread_counts(
    nl: &qwm::circuit::netlist::Netlist,
    models: &ModelSet,
    what: &str,
    f: impl Fn(&StaEngine) -> TimingReport,
) {
    let mut baseline: Option<TimingReport> = None;
    for threads in THREAD_COUNTS {
        let engine = StaEngine::new(nl.clone(), models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let report = f(&engine);
        if let Some(base) = &baseline {
            assert_reports_identical(base, &report, &format!("{what} @ {threads} threads"));
        } else {
            baseline = Some(report);
        }
    }
}

#[test]
fn every_evaluator_is_deterministic_on_inverter_chains() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = inverter_chain(&tech, 12, 10e-15);
    let evaluators: [(&str, Box<dyn StageEvaluator>); 3] = [
        ("elmore", Box::new(ElmoreEvaluator)),
        ("qwm", Box::new(QwmEvaluator::default())),
        ("spice", Box::new(SpiceEvaluator::default())),
    ];
    for (name, ev) in &evaluators {
        check_all_thread_counts(&nl, &models, &format!("chain/{name}/run"), |e| {
            e.run(ev.as_ref()).expect("run")
        });
        check_all_thread_counts(&nl, &models, &format!("chain/{name}/slew"), |e| {
            e.run_with_slew(ev.as_ref(), 25e-12).expect("run_with_slew")
        });
    }
}

#[test]
fn every_evaluator_is_deterministic_on_path4() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let evaluators: [(&str, Box<dyn StageEvaluator>); 3] = [
        ("elmore", Box::new(ElmoreEvaluator)),
        ("qwm", Box::new(QwmEvaluator::default())),
        ("spice", Box::new(SpiceEvaluator::default())),
    ];
    for (name, ev) in &evaluators {
        check_all_thread_counts(&nl, &models, &format!("path4/{name}/run"), |e| {
            e.run(ev.as_ref()).expect("run")
        });
        check_all_thread_counts(&nl, &models, &format!("path4/{name}/slew"), |e| {
            e.run_with_slew(ev.as_ref(), 30e-12).expect("run_with_slew")
        });
    }
}

#[test]
fn random_dag_is_deterministic_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    // 200 gates, wide enough that many stages are in flight at once.
    let nl = random_dag_netlist(&tech, 200, 0xdead_beef);
    check_all_thread_counts(&nl, &models, "dag200/elmore/run", |e| {
        e.run(&ElmoreEvaluator).expect("run")
    });
    check_all_thread_counts(&nl, &models, "dag200/qwm/slew", |e| {
        e.run_with_slew(&QwmEvaluator::default(), 20e-12)
            .expect("run_with_slew")
    });
}

#[test]
fn dual_polarity_is_deterministic_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = random_dag_netlist(&tech, 80, 0x0bad_cafe);
    let mut baseline: Option<(TimingReport, TimingReport)> = None;
    for threads in THREAD_COUNTS {
        let engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let (fall, rise) = engine
            .run_dual(&QwmEvaluator::default(), 15e-12)
            .expect("run_dual");
        if let Some((bf, br)) = &baseline {
            assert_reports_identical(bf, &fall, &format!("dual/fall @ {threads}"));
            assert_reports_identical(br, &rise, &format!("dual/rise @ {threads}"));
        } else {
            baseline = Some((fall, rise));
        }
    }
}

#[test]
fn waveform_accurate_run_is_deterministic_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    // Smaller DAG: full QWM waveform evaluation per stage × transition.
    let nl = random_dag_netlist(&tech, 40, 0x00c0_ffee);
    let config = QwmConfig::default();
    type Snapshot = (Vec<(usize, f64)>, Vec<(usize, f64)>, usize);
    let mut baseline: Option<Snapshot> = None;
    for threads in THREAD_COUNTS {
        let engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let (fall, rise) = engine.run_waveform(&config, 20e-12).expect("run_waveform");
        let sorted = |m: HashMap<qwm::circuit::netlist::NetId, f64>| {
            let mut v: Vec<(usize, f64)> = m.into_iter().map(|(k, x)| (k.0, x)).collect();
            v.sort_by_key(|&(k, _)| k);
            v
        };
        let snap = (sorted(fall), sorted(rise), engine.total_waveform_failures());
        if let Some(base) = &baseline {
            assert_eq!(base, &snap, "waveform run @ {threads} threads");
        } else {
            baseline = Some(snap);
        }
    }
}

#[test]
fn resize_then_parallel_rerun_invalidates_the_right_caches() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = inverter_chain(&tech, 6, 10e-15);

    // Parallel engine: full run, resize, incremental rerun at 4 workers.
    let mut par = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
        .expect("engine")
        .with_threads(4);
    let full = par.run(&QwmEvaluator::default()).expect("full run");
    assert_eq!(full.evaluations, 6);
    par.resize_device(4, 4.0 * tech.w_min).expect("resize");
    let incr = par.run(&QwmEvaluator::default()).expect("incremental");
    assert_eq!(
        incr.evaluations, 2,
        "only the resized stage and its re-loaded driver re-evaluate"
    );

    // Reference: a fresh single-worker engine over the resized netlist
    // must agree bitwise with the incremental parallel rerun.
    let mut fresh = StaEngine::new(nl, &models, TransitionKind::Fall)
        .expect("engine")
        .with_threads(1);
    fresh.resize_device(4, 4.0 * tech.w_min).expect("resize");
    let reference = fresh.run(&QwmEvaluator::default()).expect("reference");
    assert_eq!(reference.evaluations, 6, "fresh engine evaluates all");
    assert_eq!(incr.worst, reference.worst, "incremental == from-scratch");
    let sorted = |m: &HashMap<qwm::circuit::netlist::NetId, f64>| {
        let mut v: Vec<(usize, f64)> = m.iter().map(|(k, &x)| (k.0, x)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    };
    assert_eq!(sorted(&incr.arrivals), sorted(&reference.arrivals));
}

/// A failing run names the same arc at any worker count. `run_dual`
/// cannot time the NMOS-only decoder tree (no pull-up path), so every
/// leaf arc fails; the error must be the lowest arc's, not the one a
/// schedule happened to finish first.
#[test]
fn dual_polarity_error_is_the_same_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = decoder_tree_netlist(&tech, 3, 50e-6, 10e-15).expect("tree");
    let mut baseline: Option<String> = None;
    for threads in THREAD_COUNTS {
        let engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        for round in 0..5 {
            let err = engine
                .run_dual(&QwmEvaluator::default(), 15e-12)
                .expect_err("run_dual has no pull-up path to time")
                .to_string();
            match &baseline {
                Some(base) => assert_eq!(base, &err, "{threads} threads, round {round}"),
                None => baseline = Some(err),
            }
        }
    }
}

/// The 3-level decoder tree (one stage, eight leaf outputs) with an
/// inverter on every leaf: the tree stage's arcs run side by side and
/// each has a successor stage.
fn tree_with_leaf_inverters(tech: &Technology) -> Netlist {
    let mut nl = decoder_tree_netlist(tech, 3, 50e-6, 10e-15).expect("tree");
    let (vdd, gnd) = (nl.vdd(), nl.gnd());
    let gn = Geometry::new(tech.w_min, tech.l_min);
    let gp = Geometry::new(2.0 * tech.w_min, tech.l_min);
    for i in 0..8 {
        let leaf = nl.find_net(&format!("leaf{i}")).expect("leaf");
        let y = nl.net(&format!("y{i}"));
        nl.add_transistor(format!("MNI{i}"), DeviceKind::Nmos, leaf, y, gnd, gn);
        nl.add_transistor(format!("MPI{i}"), DeviceKind::Pmos, leaf, vdd, y, gp);
        nl.add_cap(y, 5e-15);
        nl.add_primary_output(y);
    }
    nl
}

/// Arrivals, slews, worst endpoint and critical path, exactly: what an
/// incremental run shares with a cold run (evaluation counts differ).
fn assert_timing_identical(a: &TimingReport, b: &TimingReport, what: &str) {
    let cold_counts = TimingReport {
        evaluations: a.evaluations,
        ..b.clone()
    };
    assert_reports_identical(a, &cold_counts, what);
}

#[test]
fn multi_output_stage_is_deterministic_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = tree_with_leaf_inverters(&tech);
    let stage_outputs = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
        .expect("engine")
        .graph()
        .partitions()
        .iter()
        .map(|p| p.output_nets.len())
        .max();
    assert_eq!(stage_outputs, Some(8), "the tree stage drives eight leaves");
    check_all_thread_counts(&nl, &models, "tree+inv/qwm/run", |e| {
        e.run(&QwmEvaluator::default()).expect("run")
    });
    check_all_thread_counts(&nl, &models, "tree+inv/qwm/slew", |e| {
        e.run_with_slew(&QwmEvaluator::default(), 20e-12)
            .expect("run_with_slew")
    });

    let corners = parse_corner_list("ss,ff").expect("corners");
    let corner_models = CornerModels::analytic(&tech, &corners);
    let mut baseline: Option<Vec<TimingReport>> = None;
    for threads in THREAD_COUNTS {
        let engine = StaEngine::new(nl.clone(), corner_models.set(0), TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let evaluators = [QwmEvaluator::default(), QwmEvaluator::default()];
        let runs: Vec<CornerRun> = corners
            .iter()
            .enumerate()
            .map(|(i, c)| CornerRun {
                name: c.interned_name(),
                models: corner_models.set(i),
                evaluator: &evaluators[i],
            })
            .collect();
        let reports = engine.run_corners(&runs, 20e-12).expect("corners").reports;
        match &baseline {
            Some(base) => {
                for (i, (b, r)) in base.iter().zip(&reports).enumerate() {
                    let what = format!("tree+inv/corners/{} @ {threads} threads", runs[i].name);
                    assert_reports_identical(b, r, &what);
                }
            }
            None => baseline = Some(reports),
        }
    }
}

#[test]
fn multi_output_stage_incremental_matches_cold_across_workers() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let nl = tree_with_leaf_inverters(&tech);
    let slew = 20e-12;
    let ev = QwmEvaluator::default();
    // A pass device of the tree, then the inverter on leaf 3 (whose
    // gate load re-bakes the tree stage).
    let edits = ["M1_0_1", "MNI3"].map(|d| nl.find_device(d).expect("device"));
    type Step = (TimingReport, IncrementalStats);
    let mut baseline: Option<Vec<Step>> = None;
    for threads in THREAD_COUNTS {
        let mut engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        engine.set_input_slew(slew).expect("slew");
        engine.run_incremental(&ev).expect("first run");
        let mut steps = Vec::new();
        for &device in &edits {
            engine
                .resize_device(device, 3.0 * tech.w_min)
                .expect("resize");
            let incr = engine.run_incremental(&ev).expect("incremental");
            assert!(incr.evaluations >= 8, "the tree stage re-times every leaf");
            let cold = StaEngine::new(engine.netlist().clone(), &models, TransitionKind::Fall)
                .expect("engine")
                .run_with_slew(&ev, slew)
                .expect("cold");
            let what = format!("tree+inv/incremental/{device} @ {threads} threads");
            assert_timing_identical(&incr, &cold, &what);
            steps.push((incr, engine.incremental_stats()));
        }
        match &baseline {
            Some(base) => {
                for ((b, bs), (r, rs)) in base.iter().zip(&steps) {
                    assert_reports_identical(b, r, &format!("tree+inv/incremental @ {threads}"));
                    assert_eq!(bs, rs, "incremental stats @ {threads} threads");
                }
            }
            None => baseline = Some(steps),
        }
    }
}
