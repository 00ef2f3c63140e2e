//! In-process ops: what `qwm <deck>` does, minus process start.
//!
//! One op parses the deck, builds a fresh engine, runs the traversal
//! and renders the golden report. Spans are recorded around each call
//! into the program; the `sta → core` boundary is reached through a
//! wrapping [`StageEvaluator`] handed to the engine in traced passes
//! only.

use crate::design::{Design, Models};
use crate::trace::Tracer;
use qwm::circuit::parser::parse_netlist;
use qwm::circuit::stage::{LogicStage, NodeId};
use qwm::circuit::waveform::{TimingMetrics, TransitionKind};
use qwm::device::ModelSet;
use qwm::num::Result;
use qwm::sta::report::golden_report;
use qwm::sta::{golden_corner_report, CornerRun, QwmEvaluator, StaEngine, StageEvaluator};

pub const DIRECTION: TransitionKind = TransitionKind::Fall;

/// `QwmEvaluator` with one span per call. It keeps the inner name, so
/// the engine's arc caches key exactly as in an untraced run.
pub struct SpannedQwm<'a> {
    pub inner: QwmEvaluator,
    pub tracer: &'a Tracer,
}

impl StageEvaluator for SpannedQwm<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn delay(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<f64> {
        let s = self.tracer.start("core.evaluate");
        let r = self.inner.delay(stage, models, output, direction);
        self.tracer.end(s);
        r
    }

    fn timing(
        &self,
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        input_slew: f64,
    ) -> Result<TimingMetrics> {
        let s = self.tracer.start("core.evaluate");
        let r = self
            .inner
            .timing(stage, models, output, direction, input_slew);
        self.tracer.end(s);
        r
    }
}

/// What one cold op produced.
pub struct ColdResult {
    pub report: String,
    /// Evaluator calls (corner-arcs for a sweep).
    pub evaluations: usize,
}

/// Runs `f` under a span.
fn spanned<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = tracer.start(name);
    let out = f();
    tracer.end(s);
    out
}

/// One cold op on `design`: parse, build, run, render. `corners`
/// selects the batched sweep over `models.corners_tabular`.
pub fn cold_op(
    design: &Design,
    models: &Models,
    corners: bool,
    threads: usize,
    tracer: &Tracer,
) -> Result<ColdResult> {
    let op = tracer.start("op");
    let netlist = spanned(tracer, "circuit.parse", || parse_netlist(&design.deck))?;
    let engine = spanned(tracer, "sta.build", || {
        StaEngine::new(netlist, &models.tabular, DIRECTION)
    })?
    .with_threads(threads);
    let plain = QwmEvaluator::default();
    let spanned_ev = SpannedQwm {
        inner: QwmEvaluator::default(),
        tracer,
    };
    let ev: &dyn StageEvaluator = if tracer.enabled() {
        &spanned_ev
    } else {
        &plain
    };
    let out = if corners {
        let slew = design.slew.expect("corner sweeps are slew-aware");
        let runs: Vec<CornerRun> = models
            .corners_tabular
            .iter()
            .map(|(c, m)| CornerRun {
                name: c.interned_name(),
                models: m,
                evaluator: ev,
            })
            .collect();
        let cr = spanned(tracer, "sta.run", || engine.run_corners(&runs, slew))?;
        ColdResult {
            evaluations: cr.reports.iter().map(|r| r.evaluations).sum(),
            report: spanned(tracer, "sta.render", || {
                golden_corner_report(&cr, engine.netlist())
            }),
        }
    } else {
        let r = spanned(tracer, "sta.run", || match design.slew {
            Some(slew) => engine.run_with_slew(ev, slew),
            None => engine.run(ev),
        })?;
        ColdResult {
            evaluations: r.evaluations,
            report: spanned(tracer, "sta.render", || golden_report(&r, engine.netlist())),
        }
    };
    // The engine is dropped inside the op: a fresh one per report is
    // what the designer pays for.
    spanned(tracer, "sta.drop", || drop(engine));
    tracer.end(op);
    Ok(out)
}

/// FNV-1a, for comparing each rep's report against rep 0 without
/// keeping every report.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
