//! Batched multi-corner evaluation: PVT corners and Monte Carlo
//! variation samples as first-class workloads.
//!
//! A corner sweep answers "does this circuit (or this edit) hurt at
//! *any* corner". Running N independent engines answers it N times as
//! slowly: the stage graph is partitioned, fanout-loaded and levelized
//! once per engine, and every sweep repeats that fixed cost. A sweep
//! here is N named lanes of the propagation core
//! (`StaEngine::propagate`, DESIGN.md §10): the levelized stage DAG
//! is traversed **once** and every corner is evaluated per stage.
//!
//! * [`CornerRun`] names one corner and carries its model set and
//!   evaluator instance (per-corner instances, so degradation
//!   provenance pools per corner);
//! * [`StaEngine::run_corners`] is the cold batched sweep;
//! * [`StaEngine::run_incremental_corners`] re-times only the dirty
//!   fanout cone across all corners over the corner flow's persistent
//!   per-corner books — the warm what-if loop;
//! * [`CornerReport`] carries one full [`TimingReport`] per corner plus
//!   the worst corner across the sweep.
//!
//! # Correctness contract
//!
//! Each corner's report is **bitwise-identical** to an independent
//! single-corner run on a fresh engine built with that corner's models
//! — including the exact `evaluations` count — at any worker count
//! (pinned by `tests/corners.rs`): a single-corner run is a sweep of
//! one. The per-lane state is fully disjoint: separate commit books,
//! separate evaluator instances, per-lane evaluation counters, and
//! cache entries keyed by the interned corner name (a structural
//! `CacheKey` member), so corners can never alias each
//! other's arcs even at identical slews.
//!
//! Per-corner evaluation runs inside a [`qwm_fault::scope`] named after
//! the corner, so fault plans can target one corner of a batched sweep
//! (site `"ss/qwm.region"`) and the blast radius is provably that
//! corner alone.

use crate::engine::{Lane, StaEngine, TimingReport};
use crate::evaluator::StageEvaluator;
use crate::incremental::Slot;
use qwm_circuit::netlist::NetId;
use qwm_device::model::ModelSet;
use qwm_num::{NumError, Result};

/// One corner of a batched sweep: its name (interned — also the fault
/// scope and the cache-key qualifier), its characterized model set and
/// its evaluator instance.
///
/// Evaluator instances must be per-corner when the evaluator records
/// degradation provenance (e.g. `FallbackEvaluator`): the engine drains
/// each instance into its corner's report after the sweep.
pub struct CornerRun<'a> {
    /// Interned corner name (see `qwm_device::corner::intern`); must be
    /// unique within one sweep.
    pub name: &'static str,
    /// The corner's characterized model set.
    pub models: &'a ModelSet,
    /// The corner's evaluator instance.
    pub evaluator: &'a dyn StageEvaluator,
}

/// The result of a batched corner sweep: one report per corner, in the
/// sweep's corner order, plus the worst corner across the sweep.
#[derive(Debug, Clone)]
pub struct CornerReport {
    /// Corner names, in sweep order.
    pub corners: Vec<&'static str>,
    /// One full per-corner timing report (same order as `corners`).
    pub reports: Vec<TimingReport>,
    /// `(corner index, net, arrival)` of the globally worst endpoint;
    /// ties keep the earliest corner in sweep order (deterministic).
    pub worst: Option<(usize, NetId, f64)>,
}

impl CornerReport {
    /// The report of the named corner, if it was part of the sweep.
    pub fn report_for(&self, name: &str) -> Option<&TimingReport> {
        self.corners
            .iter()
            .position(|&c| c == name)
            .map(|i| &self.reports[i])
    }

    /// For each net: the corner index with the worst arrival (ties keep
    /// the earliest corner in sweep order). Sorted by net index.
    pub fn per_net_worst_corner(&self) -> Vec<(NetId, usize, f64)> {
        let mut worst: std::collections::BTreeMap<usize, (usize, f64)> =
            std::collections::BTreeMap::new();
        for (c, r) in self.reports.iter().enumerate() {
            for (&n, &a) in &r.arrivals {
                match worst.get(&n.0) {
                    Some(&(_, wa)) if a.total_cmp(&wa) != std::cmp::Ordering::Greater => {}
                    _ => {
                        worst.insert(n.0, (c, a));
                    }
                }
            }
        }
        worst
            .into_iter()
            .map(|(n, (c, a))| (NetId(n), c, a))
            .collect()
    }

    fn from_reports(runs: &[CornerRun], reports: Vec<TimingReport>) -> CornerReport {
        let corners = runs.iter().map(|r| r.name).collect();
        let mut worst: Option<(usize, NetId, f64)> = None;
        for (c, r) in reports.iter().enumerate() {
            if let Some((n, a)) = r.worst {
                let better = match worst {
                    None => true,
                    Some((_, _, wa)) => a.total_cmp(&wa) == std::cmp::Ordering::Greater,
                };
                if better {
                    worst = Some((c, n, a));
                }
            }
        }
        CornerReport {
            corners,
            reports,
            worst,
        }
    }
}

fn validate_runs(context: &'static str, runs: &[CornerRun]) -> Result<()> {
    if runs.is_empty() {
        return Err(NumError::InvalidInput {
            context,
            detail: "empty corner list".to_string(),
        });
    }
    for (i, r) in runs.iter().enumerate() {
        if runs[..i].iter().any(|p| p.name == r.name) {
            return Err(NumError::InvalidInput {
                context,
                detail: format!(
                    "duplicate corner {:?} — corner names key the arc caches and must be \
                     unique within a sweep",
                    r.name
                ),
            });
        }
    }
    Ok(())
}

impl<'m> StaEngine<'m> {
    /// One named lane per corner, each launching from its own book.
    fn corner_lanes<'a>(&self, runs: &'a [CornerRun<'a>]) -> Vec<Lane<'a>> {
        let lane = |(i, run): (usize, &'a CornerRun<'a>)| Lane {
            corner: run.name,
            models: run.models,
            evaluator: run.evaluator,
            direction: self.direction,
            launch_from: i,
        };
        runs.iter().enumerate().map(lane).collect()
    }

    /// Cold batched corner sweep: one levelized DAG traversal evaluates
    /// every corner at every stage. Each corner's report is
    /// bitwise-identical to an independent single-corner
    /// [`StaEngine::run_with_slew`] on an engine built with that
    /// corner's models, including the exact `evaluations` count.
    ///
    /// # Errors
    ///
    /// Rejects an empty sweep or duplicate corner names; propagates
    /// evaluator failures (tagged with the corner's fault scope).
    pub fn run_corners(&self, runs: &[CornerRun], input_slew: f64) -> Result<CornerReport> {
        let _span = qwm_obs::span!("sta.run_corners");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run_corners");
        validate_runs("StaEngine::run_corners", runs)?;
        qwm_obs::counter!("sta.corner.runs").incr();
        qwm_obs::counter!("sta.corner.batched").add(runs.len() as u64);
        let lanes = self.corner_lanes(runs);
        let out = {
            let _trace = qwm_obs::trace::TraceGuard::enter("sta.propagate_corners");
            self.propagate(&lanes, input_slew, None)?
        };
        Ok(CornerReport::from_reports(
            runs,
            self.lane_reports(&lanes, &out)?,
        ))
    }

    /// Incremental batched corner sweep: re-times only the fanout cone
    /// of the stages dirtied since the last corner commit, across all
    /// corners, over the persistent per-corner books. Every corner's
    /// report stays bitwise-identical to a cold single-corner run on
    /// the identically edited circuit (pinned by `tests/corners.rs`).
    ///
    /// The first call — or a call with a different corner list or
    /// evaluator set — performs a full batched propagation and seeds
    /// the books. The corner flow consumes its own edit log, so
    /// interleaving [`StaEngine::run_incremental`] and this entry point
    /// on one engine never loses an edit.
    ///
    /// Aggregate statistics land in [`StaEngine::incremental_stats`]
    /// (`evaluated_stages` counts `(stage, corner)` pairs).
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures; the committed books and the dirty
    /// set are left untouched on error, so the next call retries.
    pub fn run_incremental_corners(&mut self, runs: &[CornerRun]) -> Result<CornerReport> {
        let _span = qwm_obs::span!("sta.run_incremental_corners");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run_incremental_corners");
        validate_runs("StaEngine::run_incremental_corners", runs)?;
        qwm_obs::counter!("sta.corner.incremental_runs").incr();
        let lanes = self.corner_lanes(runs);
        let reports = self.retime(Slot::Corners, &lanes)?;
        let stats = self.last_incremental;
        if stats.full_run {
            qwm_obs::counter!("sta.corner.full_runs").incr();
        } else {
            qwm_obs::counter!("sta.corner.dirty_stages").add(stats.dirty_stages as u64);
            qwm_obs::counter!("sta.corner.evaluated_stages").add(stats.evaluated_stages as u64);
            qwm_obs::counter!("sta.corner.reused_arcs").add(stats.reused_arcs as u64);
            qwm_obs::counter!("sta.corner.early_stop_nets").add(stats.early_stop_nets as u64);
        }
        Ok(CornerReport::from_reports(runs, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::QwmEvaluator;
    use crate::graph::inverter_chain;
    use qwm_circuit::waveform::TransitionKind;
    use qwm_device::{analytic_models, Corner, Technology};

    fn corner_models(tech: &Technology) -> Vec<(&'static str, ModelSet)> {
        [Corner::ss(), Corner::tt(), Corner::ff()]
            .into_iter()
            .map(|c| (c.interned_name(), analytic_models(&c.technology(tech))))
            .collect()
    }

    #[test]
    fn empty_and_duplicate_sweeps_are_rejected() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let ev = QwmEvaluator::default();
        assert!(engine.run_corners(&[], 30e-12).is_err());
        let dup = [
            CornerRun {
                name: "tt",
                models: &models,
                evaluator: &ev,
            },
            CornerRun {
                name: "tt",
                models: &models,
                evaluator: &ev,
            },
        ];
        let err = engine.run_corners(&dup, 30e-12).unwrap_err();
        assert!(err.to_string().contains("duplicate corner"));
    }

    #[test]
    fn worst_corner_is_the_slow_one_and_ties_keep_sweep_order() {
        let tech = Technology::cmosp35();
        let sets = corner_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let base = analytic_models(&tech);
        let engine = StaEngine::new(nl, &base, TransitionKind::Fall).unwrap();
        let evs: Vec<QwmEvaluator> = (0..sets.len()).map(|_| QwmEvaluator::default()).collect();
        let runs: Vec<CornerRun> = sets
            .iter()
            .zip(&evs)
            .map(|((name, models), ev)| CornerRun {
                name,
                models,
                evaluator: ev,
            })
            .collect();
        let cr = engine.run_corners(&runs, 30e-12).unwrap();
        assert_eq!(cr.corners, vec!["ss", "tt", "ff"]);
        let (ci, _, worst_arr) = cr.worst.expect("worst corner");
        assert_eq!(cr.corners[ci], "ss", "slow corner should dominate");
        for r in &cr.reports {
            assert!(r.worst.unwrap().1 <= worst_arr);
        }
        assert!(cr.report_for("tt").is_some());
        assert!(cr.report_for("nope").is_none());
        // Per-net provenance covers every committed net and names ss.
        for (_, c, _) in cr.per_net_worst_corner() {
            assert_eq!(cr.corners[c], "ss");
        }
    }

    #[test]
    fn corner_list_change_forces_full_run() {
        let tech = Technology::cmosp35();
        let sets = corner_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let base = analytic_models(&tech);
        let mut engine = StaEngine::new(nl, &base, TransitionKind::Fall).unwrap();
        let ev = QwmEvaluator::default();
        let all: Vec<CornerRun> = sets
            .iter()
            .map(|(name, models)| CornerRun {
                name,
                models,
                evaluator: &ev,
            })
            .collect();
        let _ = engine.run_incremental_corners(&all).unwrap();
        assert!(engine.incremental_stats().full_run);
        let _ = engine.run_incremental_corners(&all).unwrap();
        assert!(!engine.incremental_stats().full_run);
        // Dropping a corner invalidates the committed books.
        let _ = engine.run_incremental_corners(&all[..2]).unwrap();
        assert!(engine.incremental_stats().full_run);
    }
}
