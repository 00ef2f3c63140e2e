//! Determinism matrix for batched multi-corner evaluation.
//!
//! The contract under test: a batched N-corner sweep
//! ([`StaEngine::run_corners`] / [`StaEngine::run_incremental_corners`])
//! is **bitwise-identical**, corner by corner, to N independent
//! single-corner engines — at any worker count, cold or warm, across
//! arbitrary edit sequences. Exact `f64` equality throughout: an
//! epsilon would hide a cache-aliasing or propagation bug.

use qwm::circuit::waveform::TransitionKind;
use qwm::device::{parse_corner_list, Corner, CornerModels, Technology};
use qwm::num::rng::Rng64;
use qwm::sta::engine::{StaEngine, TimingReport};
use qwm::sta::evaluator::{ElmoreEvaluator, QwmEvaluator, StageEvaluator};
use qwm::sta::graph::{inverter_chain, random_dag_netlist};
use qwm::sta::report::golden_report;
use qwm::sta::CornerRun;

const THREADS: [usize; 3] = [1, 4, 8];

/// Builds the batched runs for a corner list sharing one evaluator.
fn runs_for<'a>(models: &'a CornerModels, evaluator: &'a dyn StageEvaluator) -> Vec<CornerRun<'a>> {
    models
        .corners()
        .iter()
        .enumerate()
        .map(|(i, c)| CornerRun {
            name: c.interned_name(),
            models: models.set(i),
            evaluator,
        })
        .collect()
}

/// Satellite 1: a batched N-corner run is byte-identical (full golden
/// render, evaluation counters included) to N independent
/// single-corner runs, at 1, 4 and 8 workers — and the batched bytes
/// are themselves invariant across worker counts.
#[test]
fn batched_sweep_matches_independent_runs_at_any_worker_count() {
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("ss,tt,ff,sf,fs").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let ev = ElmoreEvaluator;
    let nl = random_dag_netlist(&tech, 200, 0xdead_beef);
    let slew = 20e-12;

    // Independent reference runs, one fresh engine per corner.
    let reference: Vec<String> = corners
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let engine = StaEngine::new(nl.clone(), models.set(i), TransitionKind::Fall)
                .expect("reference engine");
            let report = engine.run_with_slew(&ev, slew).expect("reference run");
            golden_report(&report, engine.netlist())
        })
        .collect();

    let mut per_thread: Vec<String> = Vec::new();
    for threads in THREADS {
        let engine = StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall)
            .expect("batched engine")
            .with_threads(threads);
        let runs = runs_for(&models, &ev);
        let cr = engine.run_corners(&runs, slew).expect("batched run");
        assert_eq!(cr.corners, ["ss", "tt", "ff", "sf", "fs"]);
        for (i, report) in cr.reports.iter().enumerate() {
            assert_eq!(
                golden_report(report, engine.netlist()),
                reference[i],
                "corner {} @ {threads} threads differs from its independent run",
                cr.corners[i]
            );
        }
        per_thread.push(
            cr.reports
                .iter()
                .map(|r| golden_report(r, engine.netlist()))
                .collect::<Vec<_>>()
                .join("\x00"),
        );
        // A single corner is a sweep of one: one named lane on a fresh
        // engine (built with *another* corner's models) renders the
        // bytes of `run_with_slew` on an engine built with its own.
        let solo = StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall)
            .expect("solo engine")
            .with_threads(threads);
        let one = solo.run_corners(&runs[3..4], slew).expect("sweep of one");
        assert_eq!(one.corners, ["sf"]);
        assert_eq!(
            golden_report(&one.reports[0], solo.netlist()),
            reference[3],
            "a one-corner sweep @ {threads} threads differs from the single-corner run"
        );
    }
    assert!(
        per_thread.windows(2).all(|w| w[0] == w[1]),
        "batched sweep must be byte-identical across worker counts"
    );
}

/// Satellite 4: two corners whose arcs see *identical* input slews must
/// never alias in the delay cache — the corner name is part of the key.
/// At the first stage every corner's lookup differs only by corner
/// (same stage, same output, same seeded slew, same direction), so a
/// dropped corner field would hand ff the ss entry verbatim.
#[test]
fn corners_with_identical_slews_never_alias_in_the_cache() {
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("ss,ff").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let ev = ElmoreEvaluator;
    let nl = inverter_chain(&tech, 5, 10e-15);
    let engine = StaEngine::new(nl, models.set(0), TransitionKind::Fall).expect("engine");
    let runs = runs_for(&models, &ev);
    let cold = engine.run_corners(&runs, 15e-12).expect("cold sweep");
    let n1 = engine.netlist().find_net("n1").expect("first stage output");
    let a_ss = cold.reports[0].arrivals[&n1];
    let a_ff = cold.reports[1].arrivals[&n1];
    assert_ne!(
        a_ss.to_bits(),
        a_ff.to_bits(),
        "ss and ff share every cache-key field except the corner; equal \
         first-stage arrivals mean the corner aliased"
    );
    assert!(a_ss > a_ff, "slow corner must be slower");
    // A second sweep over the now-warm cache must serve every corner
    // its *own* entries: zero fresh evaluations, numerically
    // byte-identical to the cold sweep.
    let warm = engine.run_corners(&runs, 15e-12).expect("warm sweep");
    let body = |r: &TimingReport| -> String {
        golden_report(r, engine.netlist())
            .lines()
            .filter(|l| !l.starts_with("evaluations "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (i, (c, w)) in cold.reports.iter().zip(&warm.reports).enumerate() {
        assert_eq!(w.evaluations, 0, "warm sweep must be fully cached");
        assert_eq!(
            body(c),
            body(w),
            "corner {} served someone else's cache entries",
            cold.corners[i]
        );
    }
}

/// Exact per-corner report-body comparison (`evaluations` excluded: an
/// incremental run legitimately evaluates fewer arcs than a cold one).
fn assert_bodies_identical(a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(a.worst, b.worst, "{what}: worst endpoint");
    assert_eq!(a.critical_path, b.critical_path, "{what}: critical path");
    let sorted = |m: &std::collections::HashMap<qwm::circuit::netlist::NetId, f64>| {
        let mut v: Vec<(usize, u64)> = m.iter().map(|(k, &x)| (k.0, x.to_bits())).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    };
    assert_eq!(
        sorted(&a.arrivals),
        sorted(&b.arrivals),
        "{what}: arrivals (exact bits)"
    );
    assert_eq!(
        sorted(&a.slews),
        sorted(&b.slews),
        "{what}: slews (exact bits)"
    );
}

/// Draws a random resize or load edit against the current netlist.
fn random_edit(rng: &mut Rng64, engine: &StaEngine, tech: &Technology) -> (String, EditOp) {
    if rng.next_u64().is_multiple_of(2) {
        let device = (rng.next_u64() as usize) % engine.netlist().devices().len();
        let w = tech.w_min * (1.0 + 3.0 * rng.unit());
        (
            format!("resize device {device} to {w:.3e}"),
            EditOp::Resize(device, w),
        )
    } else {
        let net = loop {
            let n = qwm::circuit::netlist::NetId(
                (rng.next_u64() as usize) % engine.netlist().net_count(),
            );
            if !engine.netlist().is_rail(n) && !engine.netlist().primary_inputs().contains(&n) {
                break n;
            }
        };
        let cap = 1e-15 + 9e-15 * rng.unit();
        (
            format!("load net {} to {cap:.3e}", net.0),
            EditOp::Load(net, cap),
        )
    }
}

enum EditOp {
    Resize(usize, f64),
    Load(qwm::circuit::netlist::NetId, f64),
}

impl EditOp {
    fn apply(&self, engine: &mut StaEngine) {
        match *self {
            EditOp::Resize(d, w) => engine.resize_device(d, w).expect("resize applies"),
            EditOp::Load(n, c) => engine.set_net_load(n, c).expect("load applies"),
        }
    }
}

/// Satellite 1 (property half): seeded random DAGs × random edit
/// sequences — every incremental corner sweep matches fresh cold
/// single-corner engines over the identically edited netlist, bitwise,
/// at 1 and 4 workers, without falling back to a full run.
#[test]
fn random_edit_sequences_match_cold_corner_runs() {
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("ss,tt,ff").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let ev = ElmoreEvaluator;
    for seed in [0xC04E_u64, 0x5EED] {
        let nl = random_dag_netlist(&tech, 60, seed);
        for threads in [1usize, 4] {
            let mut engine = StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall)
                .expect("engine")
                .with_threads(threads);
            engine.set_input_slew(15e-12).expect("slew");
            let runs = runs_for(&models, &ev);
            let _ = engine.run_incremental_corners(&runs).expect("seed sweep");
            assert!(engine.incremental_stats().full_run, "first sweep is full");
            let _ = engine.run_incremental(&ev).expect("seed single run");
            assert!(engine.incremental_stats().full_run, "first single is full");
            let mut rng = Rng64::seed_from_u64(seed ^ 0xABCD);
            for round in 0..5 {
                let (desc, edit) = random_edit(&mut rng, &engine, &tech);
                edit.apply(&mut engine);
                let runs = runs_for(&models, &ev);
                // The single-corner flow shares the engine and takes
                // turns going first: each flow consumes its own edit
                // log, so whichever commits first must not hide the
                // edit from the other.
                let single_first = round % 2 == 0;
                let mut single = None;
                if single_first {
                    single = Some(engine.run_incremental(&ev).expect("warm single"));
                    assert!(!engine.incremental_stats().full_run);
                }
                let cr = engine.run_incremental_corners(&runs).expect("warm sweep");
                let stats = engine.incremental_stats();
                assert!(
                    !stats.full_run,
                    "seed {seed:#x} round {round}: edits must stay incremental"
                );
                if !single_first {
                    single = Some(engine.run_incremental(&ev).expect("warm single"));
                    assert!(!engine.incremental_stats().full_run);
                }
                for (i, report) in cr.reports.iter().enumerate() {
                    let cold = StaEngine::new(
                        engine.netlist().clone(),
                        models.set(i),
                        TransitionKind::Fall,
                    )
                    .expect("cold engine")
                    .with_threads(threads)
                    .run_with_slew(&ev, 15e-12)
                    .expect("cold run");
                    assert_bodies_identical(
                        report,
                        &cold,
                        &format!(
                            "seed {seed:#x} round {round} corner {} @ {threads} threads ({desc})",
                            cr.corners[i]
                        ),
                    );
                    // The engine itself is built with corner 0's models.
                    if i == 0 {
                        assert_bodies_identical(
                            single.as_ref().expect("single ran"),
                            &cold,
                            &format!("seed {seed:#x} round {round} single flow ({desc})"),
                        );
                    }
                }
            }
        }
    }
}

/// A slew edit between sweeps re-seeds every corner and still matches
/// cold runs (the QWM evaluator is slew-sensitive, so this exercises
/// the re-seed path end to end).
#[test]
fn slew_edits_reseed_every_corner() {
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("ss,ff").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let ev = QwmEvaluator::default();
    let nl = inverter_chain(&tech, 6, 10e-15);
    let mut engine =
        StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall).expect("engine");
    engine.set_input_slew(20e-12).expect("slew");
    let runs = runs_for(&models, &ev);
    let _ = engine.run_incremental_corners(&runs).expect("seed sweep");
    for (round, slew) in [35e-12, 8e-12, 35e-12].into_iter().enumerate() {
        engine.set_input_slew(slew).expect("slew edit");
        let runs = runs_for(&models, &ev);
        let cr = engine.run_incremental_corners(&runs).expect("warm sweep");
        for (i, report) in cr.reports.iter().enumerate() {
            let cold = StaEngine::new(nl.clone(), models.set(i), TransitionKind::Fall)
                .expect("cold engine")
                .run_with_slew(&ev, slew)
                .expect("cold run");
            assert_bodies_identical(
                report,
                &cold,
                &format!("round {round} corner {} slew {slew:e}", cr.corners[i]),
            );
        }
    }
}

/// Monte Carlo corner lists expand deterministically end to end: the
/// same `mc:<seed>:<n>` spec gives byte-identical sweeps, a different
/// seed does not.
#[test]
fn monte_carlo_sweeps_are_a_pure_function_of_the_spec() {
    let tech = Technology::cmosp35();
    let ev = ElmoreEvaluator;
    let nl = inverter_chain(&tech, 4, 10e-15);
    let sweep = |spec: &str| -> Vec<String> {
        let corners = parse_corner_list(spec).expect("corners");
        let models = CornerModels::analytic(&tech, &corners);
        let engine =
            StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall).expect("engine");
        let runs = runs_for(&models, &ev);
        let cr = engine.run_corners(&runs, 12e-12).expect("sweep");
        cr.reports
            .iter()
            .map(|r| golden_report(r, engine.netlist()))
            .collect()
    };
    let a = sweep("mc:42:4");
    let b = sweep("mc:42:4");
    assert_eq!(a, b, "same spec, same bytes");
    let c = sweep("mc:43:4");
    assert_ne!(a, c, "a different seed must sample different corners");
    // The nominal corner embedded in a mixed list stays bitwise the
    // plain single-corner run.
    let corners = parse_corner_list("tt,mc:42:2").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let engine = StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall).expect("engine");
    let runs = runs_for(&models, &ev);
    let cr = engine.run_corners(&runs, 12e-12).expect("sweep");
    let solo = StaEngine::new(nl.clone(), models.set(0), TransitionKind::Fall)
        .expect("engine")
        .run_with_slew(&ev, 12e-12)
        .expect("run");
    assert_eq!(
        golden_report(&cr.reports[0], engine.netlist()),
        golden_report(&solo, engine.netlist()),
        "tt inside a sweep is the identity corner"
    );
    let _ = Corner::tt();
}
