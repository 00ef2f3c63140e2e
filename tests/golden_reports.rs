//! Golden-file regression test: the canonical report for
//! `testdata/path4.sp` must match the blessed snapshot byte for byte.
//!
//! The snapshot is rendered with [`qwm::sta::report::golden_report`]
//! (sorted nets, `{:?}` floats — exact bit round-trips), so any diff is
//! a real numeric change in the timing pipeline, not formatting noise.
//! `step.report` pins the step-input flow the same way, and
//! `arcs.golden` pins the arc layer underneath it: each
//! evaluator's and each fallback rung's delay and slew bits on four
//! cells. Re-bless intentionally changed numbers with:
//!
//! ```text
//! QWM_BLESS=1 cargo test --test golden_reports
//! ```

use qwm::circuit::cells;
use qwm::circuit::netlist::Netlist;
use qwm::circuit::parser::parse_netlist;
use qwm::circuit::waveform::TransitionKind;
use qwm::core::evaluate::QwmConfig;
use qwm::device::{analytic_models, parse_corner_list, CornerModels, Technology};
use qwm::fault::{FaultKind, FaultPlan};
use qwm::sta::engine::StaEngine;
use qwm::sta::evaluator::{
    Degradation, ElmoreEvaluator, FallbackEvaluator, QwmEvaluator, SpiceEvaluator, StageEvaluator,
};
use qwm::sta::graph::inverter_chain;
use qwm::sta::report::{golden_corner_report, golden_report};
use qwm::sta::CornerRun;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/golden/path4.report");
const GOLDEN_ARCS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/golden/arcs.golden");
const GOLDEN_DEGRADED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/golden/path4_degraded.report"
);
const GOLDEN_CORNERS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/golden/path4_corners.report"
);
const GOLDEN_STEP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/golden/step.report");

/// The degraded snapshot installs a process-global fault plan, so every
/// test in this binary serializes on one mutex and starts from a clean
/// plan.
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    qwm::fault::clear();
    g
}

fn render_path4_report() -> String {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse path4.sp");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    let report = engine
        .run_with_slew(&QwmEvaluator::default(), 30e-12)
        .expect("slew-aware run");
    golden_report(&report, engine.netlist())
}

/// Renders path4 under a deterministic fault plan that fails both QWM
/// attempts on every region solve: each arc descends the fallback
/// ladder and lands on the adaptive-transient rung, and the snapshot
/// pins arrivals, slews *and* the degradation provenance lines.
fn render_path4_degraded_report() -> String {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse path4.sp");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    qwm::fault::install(
        FaultPlan::new(1)
            .inject("qwm.region", FaultKind::NoConvergence)
            .inject("retry/qwm.region", FaultKind::NoConvergence),
    );
    let report = engine
        .run_with_slew(&FallbackEvaluator::default(), 30e-12)
        .expect("ladder absorbs the injected faults");
    qwm::fault::clear();
    golden_report(&report, engine.netlist())
}

/// Renders the step-input flow (`StaEngine::run`) at `threads` workers:
/// path4 under QWM and Elmore, then the 3-level decoder tree (one stage,
/// eight leaf outputs) under QWM, each body headed by `design evaluator`.
fn render_step_report(threads: usize) -> String {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let path4 = parse_netlist(&text).expect("parse path4.sp");
    let tree = cells::decoder_tree_netlist(&tech, 3, 50e-6, 10e-15).expect("tree");
    let qwm = QwmEvaluator::default();
    let cases: [(&str, &Netlist, &str, &dyn StageEvaluator); 3] = [
        ("path4", &path4, "qwm", &qwm),
        ("path4", &path4, "elmore", &ElmoreEvaluator),
        ("tree3", &tree, "qwm", &qwm),
    ];
    let mut out = String::new();
    for (design, nl, label, ev) in cases {
        let engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let report = engine.run(ev).expect("step run");
        writeln!(out, "design {design} {label}").expect("write to string");
        out.push_str(&golden_report(&report, engine.netlist()));
    }
    out
}

fn assert_matches_golden(rendered: &str, path: &str) {
    if std::env::var_os("QWM_BLESS").is_some() {
        std::fs::create_dir_all(Path::new(path).parent().unwrap()).expect("mkdir golden");
        std::fs::write(path, rendered).expect("write golden");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path}: {e}\n\
             generate it with: QWM_BLESS=1 cargo test --test golden_reports"
        )
    });
    assert_eq!(
        rendered, &golden,
        "timing report drifted from the blessed snapshot {path}.\n\
         If the change is intentional, re-bless with:\n\
         QWM_BLESS=1 cargo test --test golden_reports"
    );
}

/// Renders the batched ss/tt/ff sweep of path4 at `threads` workers:
/// worst-corner header, per-net corner provenance, then each corner's
/// full single-corner golden body.
fn render_path4_corners_report(threads: usize) -> String {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse path4.sp");
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("ss,tt,ff").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let engine = StaEngine::new(nl, models.set(0), TransitionKind::Fall)
        .expect("engine")
        .with_threads(threads);
    let ev = QwmEvaluator::default();
    let runs: Vec<CornerRun> = corners
        .iter()
        .enumerate()
        .map(|(i, c)| CornerRun {
            name: c.interned_name(),
            models: models.set(i),
            evaluator: &ev,
        })
        .collect();
    let cr = engine.run_corners(&runs, 30e-12).expect("batched sweep");
    golden_corner_report(&cr, engine.netlist())
}

#[test]
fn path4_report_matches_golden_snapshot() {
    let _g = locked();
    let rendered = render_path4_report();
    assert_matches_golden(&rendered, GOLDEN);
}

#[test]
fn path4_corners_report_matches_golden_snapshot() {
    let _g = locked();
    let rendered = render_path4_corners_report(1);
    assert!(rendered.starts_with("corners ss,tt,ff\nworst_corner ss "));
    assert_matches_golden(&rendered, GOLDEN_CORNERS);
    // The snapshot must not depend on the worker count.
    for threads in [3usize, 8] {
        assert_eq!(
            render_path4_corners_report(threads),
            rendered,
            "corner snapshot differs at {threads} workers"
        );
    }
}

/// Compatibility pin: the `tt` body inside the corner snapshot — and a
/// single-corner `tt` sweep — are byte-identical to the pre-corner
/// `path4.report` snapshot. The corner axis must cost existing users
/// nothing, not even a bit.
#[test]
fn nominal_corner_body_is_byte_identical_to_the_classic_snapshot() {
    let _g = locked();
    let classic = render_path4_report();
    let sweep = render_path4_corners_report(1);
    let tt_body: String = sweep
        .lines()
        .skip_while(|l| *l != "corner tt")
        .skip(1)
        .take_while(|l| !l.starts_with("corner "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(tt_body, classic, "tt body inside the sweep drifted");

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse path4.sp");
    let tech = Technology::cmosp35();
    let corners = parse_corner_list("tt").expect("corners");
    let models = CornerModels::analytic(&tech, &corners);
    let engine = StaEngine::new(nl, models.set(0), TransitionKind::Fall).expect("engine");
    let ev = QwmEvaluator::default();
    let runs = [CornerRun {
        name: corners[0].interned_name(),
        models: models.set(0),
        evaluator: &ev,
    }];
    let cr = engine.run_corners(&runs, 30e-12).expect("tt sweep");
    assert_eq!(
        golden_report(&cr.reports[0], engine.netlist()),
        classic,
        "a single-corner tt sweep must render the classic bytes"
    );
}

/// The step-input flow's snapshot, identical at one and eight workers.
#[test]
fn step_report_matches_golden_snapshot() {
    let _g = locked();
    let rendered = render_step_report(1);
    assert_eq!(
        render_step_report(8),
        rendered,
        "step snapshot differs at 8 workers"
    );
    assert_matches_golden(&rendered, GOLDEN_STEP);
}

#[test]
fn path4_degraded_report_matches_golden_snapshot() {
    let _g = locked();
    let rendered = render_path4_degraded_report();
    assert!(
        rendered.contains("degradations "),
        "degraded snapshot carries provenance:\n{rendered}"
    );
    assert_matches_golden(&rendered, GOLDEN_DEGRADED);
}

/// Zero-overhead-when-off pin: with injection disabled, the fallback
/// evaluator renders the same arrivals and slews as plain QWM — the
/// clean `path4.report` bytes, with only the evaluation count differing
/// (the fallback evaluator caches under its own namespace).
#[test]
fn clean_fallback_render_matches_qwm_lines() {
    let _g = locked();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let nl = parse_netlist(&text).expect("parse path4.sp");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let engine = StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine");
    let report = engine
        .run_with_slew(&FallbackEvaluator::default(), 30e-12)
        .expect("clean fallback run");
    let rendered = golden_report(&report, engine.netlist());
    assert!(!rendered.contains("degrad"), "no provenance lines when off");
    let qwm_render = render_path4_report();
    let qwm_lines: Vec<&str> = qwm_render
        .lines()
        .filter(|l| !l.starts_with("evaluations"))
        .map(str::trim_end)
        .collect();
    let fb_lines: Vec<&str> = rendered
        .lines()
        .filter(|l| !l.starts_with("evaluations"))
        .map(str::trim_end)
        .collect();
    assert_eq!(qwm_lines, fb_lines, "clean fallback == QWM byte for byte");
}

/// The fault sites that make the fallback ladder land on each lower
/// rung: every site above it fails with probability 1.
const LANDINGS: [(&str, &[&str]); 4] = [
    ("qwm-retry", &["qwm.region"]),
    ("spice-adaptive", &["qwm.region", "retry/qwm.region"]),
    (
        "spice-fixed",
        &["qwm.region", "retry/qwm.region", "spice.adaptive"],
    ),
    (
        "elmore-bound",
        &[
            "qwm.region",
            "retry/qwm.region",
            "spice.adaptive",
            "spice.transient",
        ],
    ),
];

fn landing_plan(sites: &[&str]) -> FaultPlan {
    sites.iter().fold(FaultPlan::new(1), |p, &s| {
        p.inject(s, FaultKind::NoConvergence)
    })
}

/// ` landed [rung: error; …]` for each degraded arc.
fn render_degradations(degradations: &[Degradation]) -> String {
    degradations
        .iter()
        .map(|d| {
            let chain: Vec<String> = d
                .failures
                .iter()
                .map(|f| format!("{}: {}", f.rung.name(), f.error))
                .collect();
            format!(" {} [{}]", d.landed.name(), chain.join("; "))
        })
        .collect()
}

/// Renders the arc matrix: inverter, NAND2, NOR2 and AOI21 on analytic
/// models, fall and rise, `delay()` and `timing(30 ps)`, under every
/// evaluator and with the fallback ladder landing on each rung; then
/// `run_waveform` on a 3-inverter chain, clean and landing on the
/// adaptive transient. Every number is its `f64::to_bits` in hex.
fn render_arcs() -> String {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let load = cells::DEFAULT_LOAD;
    let stages = [
        ("inv", cells::inverter(&tech, load).expect("inverter")),
        ("nand2", cells::nand(&tech, 2, load).expect("nand2")),
        ("nor2", cells::nor(&tech, 2, load).expect("nor2")),
        ("aoi21", cells::aoi21(&tech, load).expect("aoi21")),
    ];
    let mut out = String::new();
    let mut arcs = |label: &str, ev: &dyn StageEvaluator| {
        for (cell, stage) in &stages {
            let node = stage.node_by_name("out").expect("cells name 'out'");
            for direction in [TransitionKind::Fall, TransitionKind::Rise] {
                for input_slew in [None, Some(30e-12)] {
                    let (mode, metrics) = match input_slew {
                        None => (
                            "delay",
                            ev.delay(stage, &models, node, direction).map(|d| (d, 0.0)),
                        ),
                        Some(s) => (
                            "timing30ps",
                            ev.timing(stage, &models, node, direction, s)
                                .map(|m| (m.delay, m.slew)),
                        ),
                    };
                    let value = match metrics {
                        Ok((d, s)) => format!("{:016x} {:016x}", d.to_bits(), s.to_bits()),
                        Err(e) => format!("error {e}"),
                    };
                    let degraded = render_degradations(&ev.take_degradations());
                    writeln!(out, "{label} {cell} {direction:?} {mode} {value}{degraded}")
                        .expect("write to string");
                }
            }
        }
    };
    arcs("qwm", &QwmEvaluator::default());
    arcs("spice", &SpiceEvaluator::default());
    arcs("elmore", &ElmoreEvaluator);
    arcs("fallback", &FallbackEvaluator::default());
    for (rung, sites) in LANDINGS {
        qwm::fault::install(landing_plan(sites));
        arcs(&format!("fallback@{rung}"), &FallbackEvaluator::default());
        qwm::fault::clear();
    }

    let nl = inverter_chain(&tech, 3, 10e-15);
    for (label, sites) in [("clean", &[][..]), LANDINGS[1]] {
        qwm::fault::install(landing_plan(sites));
        let engine = StaEngine::new(nl.clone(), &models, TransitionKind::Fall).expect("engine");
        let arrivals = engine.run_waveform(&QwmConfig::default(), 30e-12);
        qwm::fault::clear();
        let (fall, rise) = arrivals.expect("waveform run");
        for (direction, book) in [("Fall", &fall), ("Rise", &rise)] {
            let mut nets: Vec<(&str, f64)> = book
                .iter()
                .map(|(&net, &t)| (engine.netlist().net_name(net), t))
                .collect();
            nets.sort_by(|a, b| a.0.cmp(b.0));
            for (net, t) in nets {
                writeln!(
                    out,
                    "waveform@{label} {net} {direction} {:016x}",
                    t.to_bits()
                )
                .expect("write to string");
            }
        }
        for d in engine.take_waveform_degradations() {
            let degraded = render_degradations(std::slice::from_ref(&d));
            writeln!(
                out,
                "waveform@{label} {} {:?}{degraded}",
                d.output, d.direction
            )
            .expect("write to string");
        }
    }
    out
}

/// Bit-for-bit pin of the arc measurement path: every evaluator's
/// `delay` and `timing`, every rung of the fallback ladder, and
/// `run_waveform`'s stimulus and rungs.
#[test]
fn arc_matrix_matches_golden() {
    let _g = locked();
    assert_matches_golden(&render_arcs(), GOLDEN_ARCS);
}

#[test]
fn golden_render_is_thread_count_invariant() {
    // The snapshot itself must not depend on QWM_THREADS: render at
    // several worker counts and require byte equality.
    let _g = locked();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let mut renders = Vec::new();
    for threads in [1usize, 3, 8] {
        let nl = parse_netlist(&text).expect("parse");
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall)
            .expect("engine")
            .with_threads(threads);
        let report = engine
            .run_with_slew(&QwmEvaluator::default(), 30e-12)
            .expect("run");
        renders.push(golden_report(&report, engine.netlist()));
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[0], renders[2]);
}
