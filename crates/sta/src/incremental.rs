//! Incremental STA: dirty-cone re-timing over a persistent commit book.
//!
//! The paper's decomposition makes a single stage evaluation cheap; the
//! flow that makes *repeated* analysis cheap — the sizing/optimization
//! loop the paper targets — is not re-solving what didn't change. This
//! module owns the state that makes the propagation core
//! (`StaEngine::propagate`, DESIGN.md §10) incremental:
//!
//! * a `Flow` per incremental entry point — the **edit log** (stages
//!   dirtied since the flow's last commit) and the **committed books**
//!   (`Committed`) of its last analysis, surviving across runs;
//! * a first-class **edit API** ([`Edit`], [`StaEngine::apply_edits`],
//!   [`StaEngine::set_net_load`], [`StaEngine::set_input_slew`], plus
//!   [`StaEngine::resize_device`]) that marks exactly the edited stages
//!   dirty and surgically invalidates their cached arcs;
//! * `StaEngine::retime`, the driver behind
//!   [`StaEngine::run_incremental`] and
//!   [`StaEngine::run_incremental_corners`]: it turns a flow's edit log
//!   and committed books into the core's per-lane seed sets, and
//!   commits the result.
//!
//! # Correctness contract
//!
//! The report returned by [`StaEngine::run_incremental`] is
//! **bitwise-identical** to a cold [`StaEngine::run_with_slew`] at the
//! engine's current input slew, at any worker count, for any edit
//! sequence (pinned by `tests/incremental.rs`); DESIGN.md §10 carries
//! the argument (cone closure, exact-keyed arc cache, one commit rule).
//!
//! Degradation provenance is drained per report by degrading
//! evaluators (e.g. `FallbackEvaluator`), so only the *report bodies*
//! (arrivals, slews, worst, critical path) carry the bitwise contract;
//! `evaluations` naturally differs (that is the point).

use crate::engine::{bake_load, Book, Lane, NetCommit, Prior, StaEngine, TimingReport};
use crate::evaluator::StageEvaluator;
use qwm_circuit::netlist::NetId;
use qwm_num::{NumError, Result};
use std::collections::BTreeSet;

/// The books committed by a flow's last run, one per lane.
#[derive(Debug, Clone)]
pub(crate) struct Committed {
    /// Corner name per lane (`[""]` for the single-corner flow); a
    /// different lane list forces a full re-run.
    pub(crate) corners: Vec<&'static str>,
    /// Evaluator name per lane; a switch forces a full re-run (another
    /// evaluator's numbers are not comparable).
    pub(crate) evaluators: Vec<&'static str>,
    /// Seed slew the books were computed at.
    pub(crate) input_slew: f64,
    /// One per-net commit book per lane (same order as `corners`).
    pub(crate) books: Vec<Book>,
}

/// The persistent state of one incremental flow.
#[derive(Debug, Default)]
pub(crate) struct Flow {
    /// Stages edited since this flow's last commit.
    pub(crate) dirty: BTreeSet<usize>,
    /// `None` until the flow's first run (or a snapshot import).
    pub(crate) committed: Option<Committed>,
}

/// Which of the engine's two flows a re-timing consumes
/// (`StaEngine::flows` index). Two stay because a session may
/// alternate single-corner and corner-sweep queries on one engine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// [`StaEngine::run_incremental`].
    Single = 0,
    /// [`StaEngine::run_incremental_corners`].
    Corners = 1,
}

/// Statistics of the last [`StaEngine::run_incremental`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Whether the run fell back to a full propagation (first run, or
    /// evaluator switch).
    pub full_run: bool,
    /// Stages in the static fanout cone of the dirty seeds (the upper
    /// bound of re-evaluation; the whole graph for a full run).
    pub dirty_stages: usize,
    /// Stages actually re-evaluated (triggered: seed-dirty or a fanin
    /// net changed).
    pub evaluated_stages: usize,
    /// Timing arcs requested by triggered stages that were served from
    /// the exact-keyed caches instead of the evaluator.
    pub reused_arcs: usize,
    /// Nets whose recommitted `(arrival, slew)` was bitwise-unchanged,
    /// stopping propagation early (includes the outputs of in-cone
    /// stages that never triggered).
    pub early_stop_nets: usize,
    /// Evaluator calls performed by this run.
    pub evaluations: usize,
}

/// One circuit edit for the what-if flow; apply batches with
/// [`StaEngine::apply_edits`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// Resize netlist device `device` to width `w` (metres).
    ResizeDevice {
        /// Netlist device index.
        device: usize,
        /// New channel width \[m\].
        w: f64,
    },
    /// Set the explicit grounded load at `net` to an absolute value.
    SetNetLoad {
        /// The loaded net.
        net: NetId,
        /// New total explicit capacitance \[F\].
        cap: f64,
    },
    /// Change the seed slew at the primary inputs.
    SetInputSlew {
        /// New 10–90 % input slew \[s\].
        slew: f64,
    },
}

/// Parses a what-if edit script against a netlist: one edit per line,
/// `#` comments, SI value suffixes (see `qwm_circuit::parser`).
///
/// ```text
/// resize <device-name> <width>   # e.g. resize MN2 1.2u
/// load <net-name> <cap>          # e.g. load n3 25f
/// slew <ps>                      # e.g. slew 40
/// ```
///
/// Shared by the `qwm --edits` CLI mode and the serving layer's `edit`
/// command, so both speak exactly the same grammar.
///
/// # Errors
///
/// Returns a message carrying the 1-based script line for unknown
/// verbs/devices/nets, malformed values, or trailing tokens.
pub fn parse_edit_script(
    text: &str,
    netlist: &qwm_circuit::netlist::Netlist,
) -> std::result::Result<Vec<Edit>, String> {
    use qwm_circuit::parser::parse_value;
    let mut edits = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: &str| format!("edits line {}: {e}", lineno + 1);
        let mut tok = line.split_whitespace();
        let verb = tok.next().expect("non-empty line");
        let edit = match verb {
            "resize" => {
                let name = tok.next().ok_or_else(|| at("resize needs a device name"))?;
                let w = tok.next().ok_or_else(|| at("resize needs a width"))?;
                let device = netlist
                    .find_device(name)
                    .ok_or_else(|| at(&format!("unknown device {name:?}")))?;
                let w = parse_value(w).map_err(|e| at(&e.to_string()))?;
                Edit::ResizeDevice { device, w }
            }
            "load" => {
                let name = tok.next().ok_or_else(|| at("load needs a net name"))?;
                let cap = tok.next().ok_or_else(|| at("load needs a capacitance"))?;
                let net = netlist
                    .find_net(name)
                    .ok_or_else(|| at(&format!("unknown net {name:?}")))?;
                let cap = parse_value(cap).map_err(|e| at(&e.to_string()))?;
                Edit::SetNetLoad { net, cap }
            }
            "slew" => {
                let ps = tok.next().ok_or_else(|| at("slew needs a value in ps"))?;
                let ps: f64 = ps.parse().map_err(|e| at(&format!("bad slew: {e}")))?;
                Edit::SetInputSlew { slew: ps * 1e-12 }
            }
            other => return Err(at(&format!("unknown edit {other:?}"))),
        };
        if tok.next().is_some() {
            return Err(at("trailing tokens"));
        }
        edits.push(edit);
    }
    Ok(edits)
}

pub(crate) fn commit_eq(a: Option<NetCommit>, b: Option<NetCommit>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((aa, asl, ap)), Some((ba, bsl, bp))) => {
            aa.to_bits() == ba.to_bits() && asl.to_bits() == bsl.to_bits() && ap == bp
        }
        _ => false,
    }
}

impl<'m> StaEngine<'m> {
    /// The seed slew the incremental flow analyzes at (see
    /// [`StaEngine::set_input_slew`]).
    pub fn input_slew(&self) -> f64 {
        self.input_slew
    }

    /// Statistics of the last [`StaEngine::run_incremental`] call.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.last_incremental
    }

    /// Sets the seed slew at the primary inputs for the incremental
    /// flow. Takes effect at the next [`StaEngine::run_incremental`];
    /// no caches are invalidated (arc caches are keyed by exact slew,
    /// so entries at other slews stay valid).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a negative or non-finite
    /// slew.
    pub fn set_input_slew(&mut self, slew: f64) -> Result<()> {
        if !slew.is_finite() || slew < 0.0 {
            return Err(NumError::InvalidInput {
                context: "StaEngine::set_input_slew",
                detail: format!("input slew {slew}"),
            });
        }
        self.input_slew = slew;
        Ok(())
    }

    /// Sets the explicit grounded load at `net` to an absolute value,
    /// updating the owning stage's baked node load and marking it
    /// dirty. The owning stage is the net's driver when it has one, or
    /// — for an internal channel node such as a NAND stack's mid net —
    /// the stage whose channel-connected component contains it (a cold
    /// partition bakes explicit caps into *every* stage node, not just
    /// driven outputs). A load on a net in no stage (primary input) is
    /// recorded in the netlist only, exactly as in a cold partition.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a rail, an out-of-range
    /// net, a negative/non-finite value, or (hard error, like
    /// [`StaEngine::resize_device`]) an owning stage whose node naming
    /// disagrees with the netlist.
    pub fn set_net_load(&mut self, net: NetId, cap: f64) -> Result<()> {
        if self.netlist.is_rail(net) {
            return Err(NumError::InvalidInput {
                context: "StaEngine::set_net_load",
                detail: "cannot load a supply rail".to_string(),
            });
        }
        self.netlist.set_cap(net, cap)?;
        let owner = self.graph.driver_of(net).or_else(|| {
            self.netlist
                .devices()
                .iter()
                .position(|d| d.src == net || d.snk == net)
                .and_then(|di| self.graph.stage_of_device(di))
        });
        if let Some(owner) = owner {
            if !bake_load(&mut self.graph, &self.netlist, self.models, owner, net) {
                return Err(NumError::InvalidInput {
                    context: "StaEngine::set_net_load",
                    detail: format!(
                        "net {:?} has driver stage {} but no node of that name in it \
                         — stage graph and netlist disagree",
                        self.netlist.net_name(net),
                        owner.0
                    ),
                });
            }
            self.invalidate_stage(owner);
        }
        Ok(())
    }

    /// Applies a batch of edits in order, accumulating dirty stages for
    /// the next [`StaEngine::run_incremental`].
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failing edit; earlier edits in
    /// the batch remain applied.
    pub fn apply_edits(&mut self, edits: &[Edit]) -> Result<()> {
        for &e in edits {
            match e {
                Edit::ResizeDevice { device, w } => self.resize_device(device, w)?,
                Edit::SetNetLoad { net, cap } => self.set_net_load(net, cap)?,
                Edit::SetInputSlew { slew } => self.set_input_slew(slew)?,
            }
        }
        Ok(())
    }

    /// Incremental analysis: re-evaluates only the fanout cone of the
    /// stages dirtied since the last run, early-stopping at nets whose
    /// recommitted state is bitwise-unchanged, and returns a report
    /// bitwise-identical to a cold [`StaEngine::run_with_slew`] at the
    /// current input slew — at any worker count.
    ///
    /// The first call (or a call with a different evaluator than the
    /// committed book's) performs a full propagation and seeds the
    /// book. Inspect what happened via [`StaEngine::incremental_stats`]
    /// and the `sta.incremental.*` counters.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures; the committed book and the dirty
    /// set are left untouched on error, so the next call retries.
    pub fn run_incremental(&mut self, evaluator: &dyn StageEvaluator) -> Result<TimingReport> {
        let _span = qwm_obs::span!("sta.run_incremental");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run_incremental");
        qwm_obs::counter!("sta.incremental.runs").incr();
        let lanes = [self.own_lane(evaluator, self.direction, 0)];
        let mut reports = self.retime(Slot::Single, &lanes)?;
        let stats = self.last_incremental;
        if stats.full_run {
            qwm_obs::counter!("sta.incremental.full_runs").incr();
        } else {
            qwm_obs::counter!("sta.incremental.dirty_stages").add(stats.dirty_stages as u64);
            qwm_obs::counter!("sta.incremental.evaluated_stages")
                .add(stats.evaluated_stages as u64);
            qwm_obs::counter!("sta.incremental.reused_arcs").add(stats.reused_arcs as u64);
            qwm_obs::counter!("sta.incremental.early_stop_nets").add(stats.early_stop_nets as u64);
        }
        Ok(reports.pop().expect("one lane, one report"))
    }

    /// The incremental driver shared by both flows: propagates `lanes`
    /// over the flow's committed books (or cold, when there are none or
    /// they were computed for other lanes), builds one report per lane,
    /// and only then commits books, statistics and the cleared edit log
    /// — an error leaves the flow untouched.
    pub(crate) fn retime(&mut self, slot: Slot, lanes: &[Lane]) -> Result<Vec<TimingReport>> {
        let (context, cold_trace) = match slot {
            Slot::Single => ("StaEngine::run_incremental", "sta.propagate"),
            Slot::Corners => (
                "StaEngine::run_incremental_corners",
                "sta.propagate_corners",
            ),
        };
        let corners: Vec<&'static str> = lanes.iter().map(|l| l.corner).collect();
        let evaluators: Vec<&'static str> = lanes.iter().map(|l| l.evaluator.name()).collect();
        let seed_slew = self.input_slew;
        let flow = &self.flows[slot as usize];
        let committed = flow
            .committed
            .as_ref()
            .filter(|c| c.corners == corners && c.evaluators == evaluators);
        let out = match committed {
            None => {
                let _trace = qwm_obs::trace::TraceGuard::enter(cold_trace);
                self.propagate(lanes, Some(seed_slew), None)?
            }
            Some(c) => {
                // Per-lane seed sets: the shared edit log, plus — when
                // the seed slew changed — every stage whose launch
                // point in *that lane's* old book had no
                // positive-arrival fanin (those stages launch from the
                // seed slew itself: primary-input readers, input-less
                // stages, zero-arrival corners).
                let slew_changed = c.input_slew.to_bits() != seed_slew.to_bits();
                let reseeded = |book: &Book| {
                    let mut seeds = flow.dirty.clone();
                    if slew_changed {
                        for (i, p) in self.graph.partitions().iter().enumerate() {
                            let arrivals = p.input_nets.iter();
                            let latest = arrivals.map(|n| book[n.0].map_or(0.0, |(a, _, _)| a));
                            if latest.fold(0.0_f64, f64::max) <= 0.0 {
                                seeds.insert(i);
                            }
                        }
                    }
                    seeds
                };
                let seeds: Vec<BTreeSet<usize>> = c.books.iter().map(reseeded).collect();
                let prior = Prior {
                    books: &c.books,
                    seeds: &seeds,
                    context,
                };
                self.propagate(lanes, Some(seed_slew), Some(prior))?
            }
        };
        let reports = self.lane_reports(lanes, &out)?;
        self.last_incremental = out.stats;
        if out.stats.full_run {
            // A full run reports its scope, not reuse: there was no
            // committed state to reuse or stop at.
            self.last_incremental.reused_arcs = 0;
            self.last_incremental.early_stop_nets = 0;
        }
        self.flows[slot as usize] = Flow {
            dirty: BTreeSet::new(),
            committed: Some(Committed {
                corners,
                evaluators,
                input_slew: seed_slew,
                books: out.books,
            }),
        };
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StaEngine;
    use crate::evaluator::{ElmoreEvaluator, QwmEvaluator};
    use crate::graph::inverter_chain;
    use qwm_circuit::waveform::TransitionKind;
    use qwm_device::{analytic_models, Technology};

    fn reports_bitwise_eq(a: &TimingReport, b: &TimingReport) -> bool {
        let key = |r: &TimingReport| {
            let mut arr: Vec<(usize, u64)> =
                r.arrivals.iter().map(|(n, a)| (n.0, a.to_bits())).collect();
            arr.sort_unstable();
            let mut sl: Vec<(usize, u64)> =
                r.slews.iter().map(|(n, s)| (n.0, s.to_bits())).collect();
            sl.sort_unstable();
            (
                arr,
                sl,
                r.worst.map(|(n, a)| (n.0, a.to_bits())),
                r.critical_path.clone(),
            )
        };
        key(a) == key(b)
    }

    #[test]
    fn first_incremental_run_is_a_full_run() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        engine.set_input_slew(20e-12).unwrap();
        let r = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let stats = engine.incremental_stats();
        assert!(stats.full_run);
        assert_eq!(stats.evaluations, 4);
        let cold = engine
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        assert!(reports_bitwise_eq(&r, &cold));
    }

    #[test]
    fn no_edits_reevaluates_nothing() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let r1 = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let r2 = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let stats = engine.incremental_stats();
        assert!(!stats.full_run);
        assert_eq!(stats.dirty_stages, 0);
        assert_eq!(stats.evaluated_stages, 0);
        assert_eq!(stats.evaluations, 0);
        assert!(reports_bitwise_eq(&r1, &r2));
    }

    #[test]
    fn resize_reevaluates_only_the_cone() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 6, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let _ = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        // Upsize MN2 (middle inverter): its stage plus the fanout-load
        // driver go dirty; the cone is the chain suffix from the driver.
        engine
            .apply_edits(&[Edit::ResizeDevice {
                device: 4,
                w: 4.0 * tech.w_min,
            }])
            .unwrap();
        let incr = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let stats = engine.incremental_stats();
        assert!(!stats.full_run);
        // Driver of the resized gate is stage 1 → cone = stages 1..=5.
        assert_eq!(stats.dirty_stages, 5);
        assert!(stats.evaluated_stages <= stats.dirty_stages);
        assert!(stats.evaluations >= 2);
        // Identical to a cold run on an identically edited fresh engine.
        let mut fresh =
            StaEngine::new(engine.netlist().clone(), &models, TransitionKind::Fall).unwrap();
        fresh.resize_device(4, 4.0 * tech.w_min).unwrap();
        let cold = fresh.run_with_slew(&QwmEvaluator::default(), 0.0).unwrap();
        assert!(reports_bitwise_eq(&incr, &cold));
    }

    #[test]
    fn same_width_resize_early_stops_downstream() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 6, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let r1 = engine.run_incremental(&ElmoreEvaluator).unwrap();
        // "Resize" MN2 to its existing width: caches are invalidated and
        // the stage re-evaluates, but every recommit is bitwise-equal,
        // so propagation stops at the cone seeds' outputs.
        let w = engine.netlist().devices()[4].geom.w;
        engine.resize_device(4, w).unwrap();
        let r2 = engine.run_incremental(&ElmoreEvaluator).unwrap();
        let stats = engine.incremental_stats();
        assert!(reports_bitwise_eq(&r1, &r2));
        // Only the two seed stages re-evaluate; the other three in-cone
        // stages never trigger.
        assert_eq!(stats.evaluated_stages, 2);
        assert!(stats.early_stop_nets >= 3);
    }

    #[test]
    fn set_net_load_marks_driver_dirty_and_matches_cold() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 5, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let _ = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let n3 = engine.netlist().find_net("n3").unwrap();
        engine.set_net_load(n3, 25e-15).unwrap();
        let incr = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let stats = engine.incremental_stats();
        assert!(!stats.full_run);
        // Driver of n3 is stage 2 → cone = stages 2..=4.
        assert_eq!(stats.dirty_stages, 3);
        let fresh =
            StaEngine::new(engine.netlist().clone(), &models, TransitionKind::Fall).unwrap();
        let cold = fresh.run_with_slew(&QwmEvaluator::default(), 0.0).unwrap();
        assert!(reports_bitwise_eq(&incr, &cold));
        // Loading an undriven net is netlist-only, not an error.
        let input = engine.netlist().find_net("in").unwrap();
        engine.set_net_load(input, 5e-15).unwrap();
        assert_eq!(engine.incremental_stats().dirty_stages, 3);
        // Rails are rejected.
        let vdd = engine.netlist().vdd();
        assert!(engine.set_net_load(vdd, 1e-15).is_err());
    }

    #[test]
    fn input_slew_edit_retimes_and_matches_cold() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        engine.set_input_slew(10e-12).unwrap();
        let _ = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        engine
            .apply_edits(&[Edit::SetInputSlew { slew: 45e-12 }])
            .unwrap();
        let incr = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        let fresh =
            StaEngine::new(engine.netlist().clone(), &models, TransitionKind::Fall).unwrap();
        let cold = fresh
            .run_with_slew(&QwmEvaluator::default(), 45e-12)
            .unwrap();
        assert!(reports_bitwise_eq(&incr, &cold));
        assert!(engine.set_input_slew(-1.0).is_err());
        assert!(engine.set_input_slew(f64::NAN).is_err());
    }

    #[test]
    fn evaluator_switch_forces_full_run() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let _ = engine.run_incremental(&ElmoreEvaluator).unwrap();
        assert!(engine.incremental_stats().full_run);
        let _ = engine.run_incremental(&QwmEvaluator::default()).unwrap();
        assert!(
            engine.incremental_stats().full_run,
            "a different evaluator cannot reuse the committed book"
        );
    }
}
