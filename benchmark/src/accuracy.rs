//! QWM against the in-repo SPICE engine at 1 ps: per-arc delay error
//! on a seeded sample of the workload's own arcs, and critical-path
//! arrival error on sibling designs small enough for SPICE to time
//! whole. Computed after the measured window; a speed number is never
//! printed without these beside it.

use crate::design::{Design, Models, Workload};
use crate::gen;
use crate::inproc::DIRECTION;
use crate::metrics::RunResult;
use crate::stats;
use qwm::circuit::stage::{LogicStage, NodeId};
use qwm::device::ModelSet;
use qwm::num::rng::Rng64;
use qwm::sta::{QwmEvaluator, SpiceEvaluator, StaEngine, StageEvaluator};
use std::time::Instant;

/// Arcs in the accuracy sample.
pub const SAMPLE_ARCS: usize = 256;

/// The bounded accuracy quantile. The error distribution of these
/// designs is a plateau near 4.7 % (the inverters) with a 2 % tail that
/// reaches 9 % at the ff corner: the p95 sits on the plateau and moves
/// by under a hundredth from seed to seed, while the p99 sits on the
/// cliff and moves between 5.6 and 7.3 even over 1024 arcs. So the p95
/// carries the bound and the p99 is a ledger row.
pub const BOUNDED_QUANTILE: f64 = 0.95;

/// One sampled arc: a stage as the engine times it (fanout loads baked
/// in), the output node and the input ramp.
pub struct Arc<'e> {
    pub stage: &'e LogicStage,
    pub output: NodeId,
    pub slew: Option<f64>,
}

/// 50 % delay of one arc under `ev`, and how long the call took \[µs\].
fn arc_delay(
    ev: &dyn StageEvaluator,
    models: &ModelSet,
    arc: &Arc,
) -> qwm::num::Result<(f64, f64)> {
    let t0 = Instant::now();
    let d = match arc.slew {
        Some(s) => ev
            .timing(arc.stage, models, arc.output, DIRECTION, s)
            .map(|m| m.delay),
        None => ev.delay(arc.stage, models, arc.output, DIRECTION),
    }?;
    Ok((d, t0.elapsed().as_secs_f64() * 1e6))
}

/// Draws the arc sample from `engine`'s stage graph, by the seed alone.
///
/// Slew-aware designs draw [`SAMPLE_ARCS`] (arc, ramp) pairs with
/// replacement; a step-input design has one stimulus per arc, so its
/// arcs are drawn without replacement.
pub fn sample<'e>(engine: &'e StaEngine, slew_aware: bool, seed: u64) -> Vec<Arc<'e>> {
    let mut rng = Rng64::stream(seed, &[gen::LANE_SAMPLE]);
    let mut pool: Vec<(usize, usize)> = engine
        .graph()
        .partitions()
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.output_nets.len()).map(move |pos| (i, pos)))
        .collect();
    let mut arcs = Vec::with_capacity(SAMPLE_ARCS);
    while arcs.len() < SAMPLE_ARCS && !pool.is_empty() {
        let at = rng.range_usize(0, pool.len());
        let (i, pos) = if slew_aware {
            pool[at]
        } else {
            pool.swap_remove(at)
        };
        let part = &engine.graph().partitions()[i];
        let name = engine.netlist().net_name(part.output_nets[pos]);
        arcs.push(Arc {
            stage: &part.stage,
            output: part
                .stage
                .node_by_name(name)
                .expect("output net is a stage node"),
            slew: slew_aware.then(|| gen::ramp_ps(&mut rng) * 1e-12),
        });
    }
    arcs
}

/// Per-arc comparison over one sample and one model pair: one entry per
/// arc both engines timed.
#[derive(Default)]
pub struct ArcErrors {
    pub err_pct: Vec<f64>,
    pub qwm_us: Vec<f64>,
    pub spice_us: Vec<f64>,
}

/// Compares every arc of the sample. Each arc is one check of `out`: an
/// arc either engine cannot time is a failure, not a smaller sample.
pub fn arc_errors(
    arcs: &[Arc],
    tabular: &ModelSet,
    analytic: &ModelSet,
    out: &mut RunResult,
) -> ArcErrors {
    let (qwm, spice) = (QwmEvaluator::default(), SpiceEvaluator::default());
    let mut errors = ArcErrors::default();
    for (i, arc) in arcs.iter().enumerate() {
        let timed =
            arc_delay(&qwm, tabular, arc).and_then(|q| Ok((q, arc_delay(&spice, analytic, arc)?)));
        out.check(match timed {
            Ok(((dq, tq), (ds, ts))) => {
                errors.err_pct.push(100.0 * (dq - ds).abs() / ds);
                errors.qwm_us.push(tq);
                errors.spice_us.push(ts);
                Ok(())
            }
            Err(e) => Err(format!("sampled arc {i}: {e}")),
        });
    }
    errors
}

/// Worst primary-output arrival of `design` under one evaluator.
fn worst_arrival(
    design: &Design,
    models: &ModelSet,
    ev: &dyn StageEvaluator,
) -> Result<f64, String> {
    // Every core: this is reference work outside the window, and the
    // report is bitwise the same at any worker count.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let engine = StaEngine::new(design.netlist.clone(), models, DIRECTION)
        .map_err(|e| format!("sibling engine: {e}"))?
        .with_threads(threads);
    let report = match design.slew {
        Some(s) => engine.run_with_slew(ev, s),
        None => engine.run(ev),
    }
    .map_err(|e| format!("sibling {} run: {e}", ev.name()))?;
    report
        .worst
        .map(|(_, a)| a)
        .ok_or_else(|| "sibling design has no endpoint".to_string())
}

/// Critical-path arrival error of one sibling \[%\]: QWM (tabular)
/// against SPICE 1 ps (analytic).
fn arrival_error_pct(sibling: &Design, models: &Models) -> Result<f64, String> {
    let q = worst_arrival(sibling, &models.tabular, &QwmEvaluator::default())?;
    let s = worst_arrival(sibling, &models.analytic, &SpiceEvaluator::default())?;
    Ok(100.0 * (q - s).abs() / s)
}

/// The two accuracy metrics of a workload, set on `out.values`.
///
/// `arcs` is the sample drawn from the workload's design (for
/// `wire_tree`, from its sibling: SPICE cannot time the 7-level stage).
/// With `corners`, arcs are compared at every sweep corner too and the
/// worst corner's quantile is reported, over the arcs compared at every
/// corner. The arrival error is the mean over the workload's siblings;
/// each sibling is one check of `out`.
pub fn measure(
    workload: Workload,
    arcs: &[Arc],
    models: &Models,
    corners: bool,
    seed: u64,
    out: &mut RunResult,
) {
    let mut pairs = vec![(&models.tabular, &models.analytic)];
    if corners {
        let sets = models
            .corners_tabular
            .iter()
            .zip(models.corners_analytic.iter());
        pairs.extend(sets.map(|((_, tab), (_, ana))| (tab, ana)));
    }
    let (mut worst, mut compared) = (0.0f64, arcs.len());
    for (tab, ana) in pairs {
        let err_pct = arc_errors(arcs, tab, ana, out).err_pct;
        worst = worst.max(stats::quantile(&err_pct, BOUNDED_QUANTILE));
        compared = compared.min(err_pct.len());
    }
    out.values
        .set("arc_delay_err_p95_pct", worst, compared as u64);

    let mut arrival = Vec::new();
    for index in 0..workload.sibling_count() {
        let sibling = Design::sibling(workload, &models.tech, seed, index);
        out.check(
            arrival_error_pct(&sibling, models)
                .map(|err| arrival.push(err))
                .map_err(|e| format!("sibling {index}: {e}")),
        );
    }
    let mean = arrival.iter().sum::<f64>() / arrival.len().max(1) as f64;
    out.values
        .set("worst_arrival_err_pct", mean, arrival.len() as u64);
}
