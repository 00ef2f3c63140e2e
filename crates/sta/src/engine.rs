//! The static timing engine: one propagation core, critical paths and
//! the edit API's cache invalidation.
//!
//! Arrival times propagate through the stage DAG; each stage output
//! contributes its worst-case evaluated delay (pluggable — QWM by
//! default). Every delay and slew flow — [`StaEngine::run`],
//! [`StaEngine::run_with_slew`], [`StaEngine::run_dual`],
//! [`StaEngine::run_incremental`], [`StaEngine::run_corners`],
//! [`StaEngine::run_incremental_corners`] — is a thin wrapper over
//! `StaEngine::propagate`: one levelized, dependency-driven traversal
//! whose task is the timing arc (one stage output), over a set of
//! `Lane`s and a scope (whole graph, or the dirty cone of a prior commit
//! book). The step-input flow is a lane without a seed slew. Lane,
//! scope, commit rule and the determinism argument are specified once,
//! in DESIGN.md §10 "Propagation core"; every timing arc of every flow
//! goes through one function and one cache, `StaEngine::arc_timing`.
//!
//! [`StaEngine::run_waveform`] alone stands apart: its payload is a full
//! waveform per net, uncached, with structural skips. It runs on the
//! same arc levelizer but keeps its own books, and descends the shared
//! fallback-ladder driver (`evaluator::descend`).

use crate::evaluator::{
    descend, failure_chain, stimulus, Degradation, FallbackRung, Rung, StageEvaluator, Switching,
};
use crate::graph::{StageGraph, StageId};
use crate::incremental::{commit_eq, Flow, IncrementalStats};
use qwm_circuit::netlist::{NetId, Netlist};
use qwm_circuit::stage::{InputId, NodeId};
use qwm_circuit::waveform::{TimingMetrics, TransitionKind};
use qwm_device::model::{Geometry, ModelSet};
use qwm_exec::{ExecError, Levelizer, ShardedMap};
use qwm_num::{NumError, Result};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A full timing report.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Worst arrival time per net \[s\] (primary inputs at 0).
    pub arrivals: HashMap<NetId, f64>,
    /// Worst-path output slew per net \[s\] (slew-aware runs only;
    /// empty otherwise).
    pub slews: HashMap<NetId, f64>,
    /// The slowest primary output and its arrival.
    pub worst: Option<(NetId, f64)>,
    /// Stages along the critical path, source-first.
    pub critical_path: Vec<StageId>,
    /// Number of stage-delay evaluations performed for this report.
    pub evaluations: usize,
    /// Waveform-accurate stage evaluations whose primary QWM attempt
    /// failed and that were recovered by a fallback rung (degraded
    /// arcs). Always zero for the cached delay/slew flows, whose
    /// evaluator errors propagate instead.
    pub waveform_failures: usize,
    /// Provenance of every arc produced by a fallback rung instead of
    /// the primary method (sorted; empty unless a degrading evaluator
    /// such as `FallbackEvaluator` was used *and* something failed).
    pub degradations: Vec<Degradation>,
}

/// Cache key for per-stage timing arcs.
///
/// Every field that influences the evaluated value is a *structural*
/// member — nothing is arithmetically packed. In particular the input
/// slew is keyed by its exact bit pattern ([`f64::to_bits`]), never a
/// quantized grid position, and the analyzed transition is part of the
/// key, so the single-slew and dual-transition flows can never alias
/// each other's entries (two bugs the 1 ps-grid packing scheme had).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Evaluator name (distinct evaluators never share entries).
    evaluator: &'static str,
    /// Stage index ([`StageId`]), the invalidation granule.
    pub(crate) stage: usize,
    /// Output position within the stage.
    out_pos: usize,
    /// Analyzed output transition.
    direction: TransitionKind,
    /// Exact requested input slew, `f64::to_bits`; `None` for the
    /// step-input delay flow (which carries no slew at all, and so can
    /// never alias a slew-aware arc at 0 s).
    slew_bits: Option<u64>,
    /// Corner name for batched multi-corner runs; `""` for the
    /// single-model flows. Without this field the batched flow would be
    /// corner-blind: two corners evaluate the same `(evaluator, stage,
    /// out_pos, direction, slew)` tuple against *different* model sets,
    /// and the second corner would be served the first corner's cached
    /// arc — the latent aliasing `tests/corners.rs` pins against.
    corner: &'static str,
}

/// Sentinel for "no predecessor stage" in the per-net commit books.
pub(crate) const NO_PRED: usize = usize::MAX;

/// One committed net state of the slew-aware flows:
/// `(arrival, output slew, committing stage or NO_PRED)`.
pub(crate) type NetCommit = (f64, f64, usize);

/// A per-net commit book, indexed by `NetId`; `None` for nets never
/// committed (rails, floating nets).
pub(crate) type Book = Vec<Option<NetCommit>>;

/// Worst endpoint (net, arrival) plus the backtracked critical path.
pub(crate) type WorstAndPath = (Option<(NetId, f64)>, Vec<StageId>);

/// One lane of a propagation: an independent commit book timed against
/// its own models, evaluator and transition (DESIGN.md §10).
pub(crate) struct Lane<'a> {
    /// Corner name: the cache-key qualifier and the fault scope of the
    /// lane's evaluations. `""` is the unnamed lane of the single-model
    /// flows — no fault scope, not counted as a corner evaluation.
    pub(crate) corner: &'static str,
    pub(crate) models: &'a ModelSet,
    pub(crate) evaluator: &'a dyn StageEvaluator,
    /// Analyzed output transition.
    pub(crate) direction: TransitionKind,
    /// Index of the lane whose book this lane launches from: itself,
    /// except for [`StaEngine::run_dual`]'s fall and rise lanes, which
    /// launch from each other (inverting arcs).
    pub(crate) launch_from: usize,
}

/// What a warm propagation continues from.
pub(crate) struct Prior<'a> {
    /// The committed book of each lane.
    pub(crate) books: &'a [Book],
    /// Per lane, the stages that must re-evaluate whatever their fanin
    /// did: the edit log plus the lane's re-seeded launch points.
    pub(crate) seeds: &'a [BTreeSet<usize>],
    /// Error context of the calling wrapper.
    pub(crate) context: &'static str,
}

/// The outcome of [`StaEngine::propagate`].
pub(crate) struct Propagated {
    /// The committed book of each lane.
    pub(crate) books: Vec<Book>,
    /// Evaluator calls per lane (cache hits excluded).
    pub(crate) evaluations: Vec<usize>,
    /// Scope and reuse statistics, summed over lanes.
    pub(crate) stats: IncrementalStats,
}

/// The timing engine: owns the netlist, the stage graph and the
/// per-stage arc cache.
///
/// All `run*` entry points take `&self` and may be driven with any
/// worker count (see [`StaEngine::set_threads`]); internal state is a
/// lock-sharded cache and atomic counters, so the engine is `Sync`.
pub struct StaEngine<'m> {
    pub(crate) netlist: Netlist,
    pub(crate) graph: StageGraph,
    pub(crate) models: &'m ModelSet,
    pub(crate) direction: TransitionKind,
    /// Cached `(delay, slew)` per arc (slew 0 for step-input arcs).
    pub(crate) arc_cache: ShardedMap<CacheKey, (f64, f64)>,
    evaluations: AtomicUsize,
    waveform_failures: AtomicUsize,
    /// Degradation provenance recorded by [`Self::run_waveform`]'s
    /// descent of the fallback ladder (the evaluator flows record
    /// theirs in the evaluator instead).
    waveform_degradations: Mutex<Vec<Degradation>>,
    threads: usize,
    /// Seed slew at the primary inputs for the incremental flows
    /// (edited via [`StaEngine::set_input_slew`]).
    pub(crate) input_slew: f64,
    /// Edit log and committed books of the two incremental flows,
    /// indexed by [`crate::incremental::Slot`]: single-corner and
    /// batched corners. Each flow consumes its own edit log, so
    /// interleaving [`Self::run_incremental`] and
    /// [`Self::run_incremental_corners`] on one engine never loses an
    /// edit.
    pub(crate) flows: [Flow; 2],
    /// Statistics of the last incremental run (either flow).
    pub(crate) last_incremental: IncrementalStats,
}

/// Task → level map for per-arc-task trace records, indexed by the
/// levelizer's local id. Built only when tracing is live (one
/// allocation per run, nothing per record); `None` keeps the traced-off
/// hot path free of any work.
fn trace_levels(lev: &Levelizer) -> Option<Vec<u64>> {
    qwm_obs::trace::enabled().then(|| {
        let mut level_of = vec![0u64; lev.node_count()];
        for (l, nodes) in lev.levels().iter().enumerate() {
            for &n in nodes {
                level_of[n] = l as u64;
            }
        }
        level_of
    })
}

/// Opens a trace scope for one arc task inside a `run_dag` worker
/// closure: the record carries the global `stage` id and the level of
/// the levelizer's `local` id.
fn trace_stage(
    level_of: &Option<Vec<u64>>,
    stage: usize,
    local: usize,
) -> Option<qwm_obs::trace::TraceGuard> {
    level_of.as_ref().map(|lv| {
        qwm_obs::trace::TraceGuard::enter_stage(
            "sta.stage",
            stage as u64,
            lv.get(local).copied().unwrap_or(0),
        )
    })
}

/// Sets the baked load of `net`'s node in `stage` to what a cold build
/// sums: the netlist's explicit capacitance plus the input capacitance
/// of every stage the net gates, in `users_of` order. Engine
/// construction and every load-changing edit go through here, so an
/// edited engine's load is bitwise a rebuilt engine's (adjusting it by
/// a delta per edit drifts in the last bit). Returns `false` when the
/// stage has no node for the net under the net's current name.
pub(crate) fn bake_load(
    graph: &mut StageGraph,
    netlist: &Netlist,
    models: &ModelSet,
    stage: StageId,
    net: NetId,
) -> bool {
    let part = graph.stage(stage);
    let node = match part.output_nets.iter().position(|&n| n == net) {
        Some(pos) => part.stage.outputs()[pos],
        None => match part.stage.node_by_name(netlist.net_name(net)) {
            Some(node) => node,
            None => return false,
        },
    };
    bake_node_load(graph, netlist, models, stage, net, node)
}

/// [`bake_load`] with the net's node in `stage` already known (a
/// partition's outputs are aligned with its `output_nets`). The node
/// must still carry the net's name: a mismatch means the stage graph and
/// the netlist disagree, and nothing is written.
fn bake_node_load(
    graph: &mut StageGraph,
    netlist: &Netlist,
    models: &ModelSet,
    stage: StageId,
    net: NetId,
    node: NodeId,
) -> bool {
    if graph.stage(stage).stage.node_name(node) != netlist.net_name(net) {
        return false;
    }
    let mut fanout = 0.0;
    for (&user, &input) in graph.users_of(net).iter().zip(graph.user_inputs_of(net)) {
        let ustage = &graph.stage(user).stage;
        fanout += ustage.input_cap(InputId(input as usize), models);
    }
    let load = netlist.cap(net).max(0.0) + fanout;
    let stage = &mut graph.partitions_mut()[stage.0].stage;
    // `x − x` is exactly zero and `0 + load` exactly `load`.
    stage.add_load(node, -stage.node(node).load_cap);
    stage.add_load(node, load);
    true
}

impl<'m> StaEngine<'m> {
    /// Builds the engine over a netlist.
    ///
    /// `direction` selects the analyzed transition at every stage output
    /// (a full-blown STA tracks both; the paper's experiments are
    /// single-transition worst cases).
    ///
    /// The worker count defaults to `QWM_THREADS` (or the machine's
    /// available parallelism); override with [`StaEngine::set_threads`].
    ///
    /// # Errors
    ///
    /// Propagates partitioning/graph failures.
    pub fn new(netlist: Netlist, models: &'m ModelSet, direction: TransitionKind) -> Result<Self> {
        let mut graph = StageGraph::build(&netlist)?;
        // Bake fanout gate loading into each stage: a net driving other
        // stages' gates carries their input capacitance. Without this,
        // per-stage delays systematically undershoot a flat simulation.
        for i in 0..graph.len() {
            for pos in 0..graph.stage(StageId(i)).output_nets.len() {
                let part = graph.stage(StageId(i));
                let (net, node) = (part.output_nets[pos], part.stage.outputs()[pos]);
                bake_node_load(&mut graph, &netlist, models, StageId(i), net, node);
            }
        }
        Ok(StaEngine {
            netlist,
            graph,
            models,
            direction,
            arc_cache: ShardedMap::new(),
            evaluations: AtomicUsize::new(0),
            waveform_failures: AtomicUsize::new(0),
            waveform_degradations: Mutex::new(Vec::new()),
            threads: qwm_exec::default_threads(),
            input_slew: 0.0,
            flows: Default::default(),
            last_incremental: IncrementalStats::default(),
        })
    }

    /// The underlying stage graph.
    pub fn graph(&self) -> &StageGraph {
        &self.graph
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The worker count used by the `run*` entry points.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker count (clamped to at least one). Reports are
    /// bitwise-identical for any value; this is purely a speed knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Builder-style [`StaEngine::set_threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Stage-delay evaluations performed so far (across all reports).
    pub fn total_evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Waveform-accurate stage evaluations whose primary QWM attempt
    /// failed and that landed on a fallback rung so far (across all
    /// [`Self::run_waveform`] calls).
    pub fn total_waveform_failures(&self) -> usize {
        self.waveform_failures.load(Ordering::Relaxed)
    }

    /// Drains the degradation provenance recorded by
    /// [`Self::run_waveform`]'s descent of the fallback ladder, sorted
    /// for deterministic iteration.
    pub fn take_waveform_degradations(&self) -> Vec<Degradation> {
        let mut d = std::mem::take(
            &mut *self
                .waveform_degradations
                .lock()
                .expect("waveform degradations lock"),
        );
        d.sort_by_key(|a| a.sort_key());
        d
    }

    /// Drains and sorts the evaluator's degradation book for a report.
    pub(crate) fn drained_degradations(evaluator: &dyn StageEvaluator) -> Vec<Degradation> {
        let mut d = evaluator.take_degradations();
        d.sort_by_key(|a| a.sort_key());
        d
    }

    /// The arc DAG of the stages in `cone` (every stage when `None`),
    /// levelized for `run_dag`, with each task's
    /// `(stage, output position)`.
    fn arc_levelizer(
        &self,
        cone: Option<&[usize]>,
        context: &'static str,
    ) -> Result<(Levelizer, Vec<(usize, usize)>)> {
        let arcs = |s: usize| (0..self.graph.arcs(s).len()).map(move |o| (s, o));
        let err = |e: ExecError| NumError::InvalidInput {
            context,
            detail: e.to_string(),
        };
        match cone {
            None => {
                let _t = qwm_obs::trace::TraceGuard::enter("sta.levelize");
                let lev = Levelizer::from_succs(self.graph.arc_dependencies()).map_err(err)?;
                Ok((lev, (0..self.graph.len()).flat_map(arcs).collect()))
            }
            Some(cone) => {
                // A re-run with nothing to re-time needs no edges.
                let succs = if cone.is_empty() {
                    Vec::new()
                } else {
                    self.graph.arc_dependencies()
                };
                let subset: Vec<usize> = cone.iter().flat_map(|&s| self.graph.arcs(s)).collect();
                let lev = Levelizer::from_subgraph(&succs, &subset).map_err(err)?;
                Ok((lev, cone.iter().flat_map(|&s| arcs(s)).collect()))
            }
        }
    }

    /// The unnamed lane of the single-model flows: the engine's own
    /// models under cache-key corner `""`.
    pub(crate) fn own_lane<'a>(
        &self,
        evaluator: &'a dyn StageEvaluator,
        direction: TransitionKind,
        launch_from: usize,
    ) -> Lane<'a>
    where
        'm: 'a,
    {
        Lane {
            corner: "",
            models: self.models,
            evaluator,
            direction,
            launch_from,
        }
    }

    /// The one timing-arc function: cache probe, evaluate, commit to
    /// the cache — for output `out_pos` of stage `sid` on `lane`, at an
    /// *exact* input slew (`None`: the step-input delay of
    /// [`Self::run`], reported with a zero output slew).
    ///
    /// The cache key carries the slew's full bit pattern and the
    /// transition as structural fields: two distinct slews can never
    /// collapse into one grid bin, and flows can never serve each other
    /// entries computed for a different request. Entries are shared only
    /// when evaluator, stage, output, direction, slew bits *and* corner
    /// all match — by construction the same pure computation.
    /// `lane_evals` counts the lane's evaluator calls, so every lane's
    /// report carries its own exact count.
    pub(crate) fn arc_timing(
        &self,
        lane: &Lane,
        lane_evals: &AtomicUsize,
        sid: StageId,
        out_pos: usize,
        input_slew: Option<f64>,
    ) -> Result<TimingMetrics> {
        let key = CacheKey {
            evaluator: lane.evaluator.name(),
            stage: sid.0,
            out_pos,
            direction: lane.direction,
            slew_bits: input_slew.map(f64::to_bits),
            corner: lane.corner,
        };
        let stage = sid.0 as u64;
        if let Some((delay, slew)) = self.arc_cache.get(&key) {
            qwm_obs::counter!("sta.arc.cache_hits").incr();
            if qwm_obs::trace::enabled() {
                let now = std::time::Instant::now();
                qwm_obs::trace::record_corner_arc(stage, lane.corner, "cached", now, 0, 0);
            }
            return Ok(TimingMetrics { delay, slew });
        }
        let part = self.graph.stage(sid);
        let node = *part
            .stage
            .outputs()
            .get(out_pos)
            .ok_or_else(|| NumError::InvalidInput {
                context: "StaEngine::arc_timing",
                detail: format!("stage {} has no output {out_pos}", sid.0),
            })?;
        // Arc trace: discard stale lookup/rung attribution, then bracket
        // the evaluator call so solve time, lookup time and the landed
        // rung all land on this arc's record.
        let arc_t0 = qwm_obs::trace::enabled().then(|| {
            let _ = qwm_obs::trace::take_lookup_ns();
            let _ = qwm_obs::trace::take_rung();
            std::time::Instant::now()
        });
        let (ev, dir) = (lane.evaluator, lane.direction);
        let m = match input_slew {
            Some(slew) => ev.timing(&part.stage, lane.models, node, dir, slew)?,
            None => TimingMetrics {
                delay: ev.delay(&part.stage, lane.models, node, dir)?,
                slew: 0.0,
            },
        };
        if let Some(t0) = arc_t0 {
            let lookup_ns = qwm_obs::trace::take_lookup_ns();
            let (rung, retries) = qwm_obs::trace::take_rung().unwrap_or((ev.name(), 0));
            qwm_obs::trace::record_corner_arc(stage, lane.corner, rung, t0, lookup_ns, retries);
        }
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        qwm_obs::counter!("sta.arc.evaluations").incr();
        lane_evals.fetch_add(1, Ordering::Relaxed);
        if !lane.corner.is_empty() {
            qwm_obs::counter!("sta.corner.evaluations").incr();
        }
        self.arc_cache.insert(key, (m.delay, m.slew));
        Ok(m)
    }

    /// The propagation core (DESIGN.md §10): one dependency-driven
    /// traversal of the levelized arc DAG that times every lane at
    /// every arc in scope and returns each lane's committed book.
    ///
    /// Without a `prior` the scope is the whole graph over empty books
    /// and every stage evaluates. With one, the scope is the fanout
    /// cone of the lanes' seed stages over the prior books: a stage
    /// evaluates for a lane iff it is one of the lane's seeds or a
    /// launch net of it changed, and a recommit that is bitwise the old
    /// one stops the change there. Both are one rule — the cold run is
    /// the warm run on an empty book — so a warm book is bitwise the
    /// cold book of the edited circuit, at any worker count.
    ///
    /// A `seed_slew` of `None` is the step-input lane of [`Self::run`]:
    /// every arc is timed without an input slew and commits a zero
    /// output slew.
    pub(crate) fn propagate(
        &self,
        lanes: &[Lane],
        seed_slew: Option<f64>,
        prior: Option<Prior>,
    ) -> Result<Propagated> {
        let (nets, stages) = (self.netlist.net_count(), self.graph.len());
        // One cone over the union of the lanes' seeds: a stage in it
        // but outside lane l's own cone can never trigger for l (no seed
        // of l reaches its fanins), so sharing the sub-levelizer
        // preserves per-lane identity.
        let cone = prior
            .as_ref()
            .map(|p| self.graph.fanout_cone(p.seeds.iter().flatten().copied()));
        let context = prior.as_ref().map_or("StaEngine::propagate", |p| p.context);
        let (lev, tasks) = self.arc_levelizer(cone.as_deref(), context)?;
        let books: Vec<Vec<Mutex<Option<NetCommit>>>> = (0..lanes.len())
            .map(|l| match &prior {
                Some(p) => p.books[l].iter().map(|&s| Mutex::new(s)).collect(),
                None => (0..nets).map(|_| Mutex::new(None)).collect(),
            })
            .collect();
        let changed: Vec<Vec<AtomicBool>> = (0..lanes.len())
            .map(|_| (0..nets).map(|_| AtomicBool::new(false)).collect())
            .collect();
        // Primary inputs are committed by the seed, not by a stage:
        // (re-)seed them at the current slew.
        let seed = seed_slew.unwrap_or(0.0);
        let seeded = Some((0.0, seed, NO_PRED));
        let mut is_pi = vec![false; nets];
        for &pi in self.netlist.primary_inputs() {
            is_pi[pi.0] = true;
            for (book, changed) in books.iter().zip(&changed) {
                let mut slot = book[pi.0].lock().expect("net book");
                if slot.is_none_or(|(_, _, p)| p == NO_PRED) && !commit_eq(*slot, seeded) {
                    *slot = seeded;
                    changed[pi.0].store(true, Ordering::Relaxed);
                }
            }
        }
        let in_seeds: Option<Vec<Vec<bool>>> = prior.as_ref().map(|p| {
            let mark = |seeds: &BTreeSet<usize>| {
                let mut v = vec![false; stages];
                for &s in seeds {
                    v[s] = true;
                }
                v
            };
            p.seeds.iter().map(mark).collect()
        });
        let lane_evals: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
        let evaluated = AtomicUsize::new(0);
        let arcs_requested = AtomicUsize::new(0);
        let early_stops = AtomicUsize::new(0);
        let level_of = trace_levels(&lev);
        qwm_exec::run_dag(self.threads, &lev, |_w, local| -> Result<()> {
            let (gid, pos) = tasks[local];
            let _stage = trace_stage(&level_of, gid, local);
            let part = self.graph.stage(StageId(gid));
            let net = part.output_nets[pos];
            for (l, lane) in lanes.iter().enumerate() {
                let from = lane.launch_from;
                // The trigger rule reads only the stage's input nets,
                // which are final before any arc of the stage is
                // released, so every arc of a stage agrees on it.
                let triggered = in_seeds.as_ref().is_none_or(|s| s[l][gid])
                    || part
                        .input_nets
                        .iter()
                        .any(|n| changed[from][n.0].load(Ordering::Relaxed));
                if !triggered {
                    // Fanin state is bitwise what the prior book was
                    // computed from: the old commit stands.
                    early_stops.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // The latest-arriving input launches the arc and lends
                // it its slew.
                let (launch, launch_slew) = part
                    .input_nets
                    .iter()
                    .filter_map(|n| *books[from][n.0].lock().expect("net book"))
                    .fold(
                        (0.0_f64, seed),
                        |acc, (a, sl, _)| {
                            if a > acc.0 {
                                (a, sl)
                            } else {
                                acc
                            }
                        },
                    );
                // Corner-scoped fault sites: a plan targeting
                // "ss/qwm.region" degrades the ss lane alone.
                let _scope = (!lane.corner.is_empty()).then(|| qwm_fault::scope(lane.corner));
                // A triggered stage counts once per lane.
                if pos == 0 {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                }
                arcs_requested.fetch_add(1, Ordering::Relaxed);
                let input_slew = seed_slew.map(|_| launch_slew);
                let m = self.arc_timing(lane, &lane_evals[l], StageId(gid), pos, input_slew)?;
                let arr = launch + m.delay;
                // The commit rule: a seeded primary-input entry only
                // loses to a later arrival; every other net has this
                // arc as its sole committer.
                let candidate = if arr > 0.0 || !is_pi[net.0] {
                    Some((arr, m.slew, gid))
                } else {
                    seeded
                };
                let mut slot = books[l][net.0].lock().expect("net book");
                if commit_eq(*slot, candidate) {
                    early_stops.fetch_add(1, Ordering::Relaxed);
                } else {
                    *slot = candidate;
                    changed[l][net.0].store(true, Ordering::Relaxed);
                }
            }
            Ok(())
        })
        .map_err(|(_, e)| e)?;
        let books = books
            .into_iter()
            .map(|book| {
                book.into_iter()
                    .map(|slot| slot.into_inner().expect("net book"))
                    .collect()
            })
            .collect();
        let evaluations: Vec<usize> = lane_evals.into_iter().map(|c| c.into_inner()).collect();
        let total: usize = evaluations.iter().sum();
        let stats = IncrementalStats {
            full_run: prior.is_none(),
            dirty_stages: cone.map_or(stages, |c| c.len()),
            evaluated_stages: evaluated.into_inner(),
            reused_arcs: arcs_requested.into_inner() - total,
            early_stop_nets: early_stops.into_inner(),
            evaluations: total,
        };
        Ok(Propagated {
            books,
            evaluations,
            stats,
        })
    }

    /// One report per lane from a finished propagation: the lane's
    /// book, its exact evaluation count and its evaluator's drained
    /// degradations.
    pub(crate) fn lane_reports(
        &self,
        lanes: &[Lane],
        out: &Propagated,
    ) -> Result<Vec<TimingReport>> {
        let counted = out.books.iter().zip(&out.evaluations);
        lanes
            .iter()
            .zip(counted)
            .map(|(lane, (book, &n))| {
                self.book_to_report(book, n, Self::drained_degradations(lane.evaluator))
            })
            .collect()
    }

    /// Rejects non-finite arrivals before any max scan, naming the
    /// offending net (the lowest-indexed one, for a deterministic
    /// message). A NaN arrival used to panic the worker mid-reduction;
    /// it now surfaces through the error/degradation machinery.
    pub(crate) fn reject_non_finite(&self, arrivals: &HashMap<NetId, f64>) -> Result<()> {
        if let Some((&n, &a)) = arrivals
            .iter()
            .filter(|(_, a)| !a.is_finite())
            .min_by_key(|(n, _)| n.0)
        {
            return Err(NumError::InvalidInput {
                context: "StaEngine::worst_and_path",
                detail: format!(
                    "non-finite arrival {a} at net {} — evaluator produced NaN/inf",
                    self.netlist.net_name(n)
                ),
            });
        }
        Ok(())
    }

    /// Worst primary output (fall back to the globally worst net), and
    /// the critical path backtracked through stage inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when any arrival is NaN or
    /// infinite, carrying the offending net name.
    pub(crate) fn worst_and_path(
        &self,
        arrivals: &HashMap<NetId, f64>,
        pred: &HashMap<NetId, StageId>,
    ) -> Result<WorstAndPath> {
        self.reject_non_finite(arrivals)?;
        let worst = self
            .netlist
            .primary_outputs()
            .iter()
            .filter_map(|&n| arrivals.get(&n).map(|&a| (n, a)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .or_else(|| {
                arrivals
                    .iter()
                    .map(|(&n, &a)| (n, a))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            });
        let mut critical_path = Vec::new();
        if let Some((mut net, _)) = worst {
            while let Some(&sid) = pred.get(&net) {
                critical_path.push(sid);
                // Continue from the stage input with the latest arrival.
                let next = self
                    .graph
                    .stage(sid)
                    .input_nets
                    .iter()
                    .filter_map(|&n| arrivals.get(&n).map(|&a| (n, a)))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                match next {
                    Some((n, a)) if a > 0.0 => net = n,
                    _ => break,
                }
            }
            critical_path.reverse();
        }
        Ok((worst, critical_path))
    }

    /// Runs (or re-runs) the step-input analysis, reusing every cached
    /// stage delay: a one-lane propagation without a seed slew, so each
    /// arc's delay is its step-input delay and the report carries no
    /// slews. Bitwise-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures.
    pub fn run(&self, evaluator: &dyn StageEvaluator) -> Result<TimingReport> {
        let _span = qwm_obs::span!("sta.run");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run");
        let lanes = [self.own_lane(evaluator, self.direction, 0)];
        let out = self.propagate(&lanes, None, None)?;
        let mut report = self.lane_reports(&lanes, &out)?.pop().expect("one lane");
        report.slews.clear();
        Ok(report)
    }

    /// Slew-aware analysis: each stage is evaluated with the exact
    /// input slew of its latest-arriving input, and its measured output
    /// slew feeds the downstream stages — the waveform-propagation
    /// refinement the paper's §III-C motivates over delay/slope-only
    /// timing. One unnamed lane over the whole graph
    /// (`Self::propagate`); bitwise-identical for any worker count.
    ///
    /// `input_slew` seeds the primary inputs (10–90 %).
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures.
    pub fn run_with_slew(
        &self,
        evaluator: &dyn StageEvaluator,
        input_slew: f64,
    ) -> Result<TimingReport> {
        let _span = qwm_obs::span!("sta.run_with_slew");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.propagate");
        let lanes = [self.own_lane(evaluator, self.direction, 0)];
        let out = self.propagate(&lanes, Some(input_slew), None)?;
        let mut reports = self.lane_reports(&lanes, &out)?;
        Ok(reports.pop().expect("one lane, one report"))
    }

    /// Report-body extraction shared by every book-based flow:
    /// deterministic, keyed by net index; `evaluations` and
    /// `degradations` are attributed per lane by the caller.
    pub(crate) fn book_to_report(
        &self,
        book: &[Option<NetCommit>],
        evaluations: usize,
        degradations: Vec<Degradation>,
    ) -> Result<TimingReport> {
        let mut arrivals: HashMap<NetId, f64> = HashMap::new();
        let mut slews: HashMap<NetId, f64> = HashMap::new();
        let mut pred: HashMap<NetId, StageId> = HashMap::new();
        for (i, slot) in book.iter().enumerate() {
            if let Some((a, sl, p)) = *slot {
                arrivals.insert(NetId(i), a);
                slews.insert(NetId(i), sl);
                if p != NO_PRED {
                    pred.insert(NetId(i), StageId(p));
                }
            }
        }
        let (worst, critical_path) = self.worst_and_path(&arrivals, &pred)?;
        Ok(TimingReport {
            arrivals,
            slews,
            worst,
            critical_path,
            evaluations,
            waveform_failures: 0,
            degradations,
        })
    }

    /// Dual-polarity, slew-aware analysis: rise and fall arrivals are
    /// tracked separately per net and propagated through inverting arcs
    /// (an output fall launches from the latest input *rise* and vice
    /// versa — the static-CMOS convention). Primary inputs get both
    /// transitions at t = 0 with `input_slew`. A fall lane and a rise
    /// lane that launch from each other's book (`Self::propagate`).
    ///
    /// Returns `(fall report, rise report)` whose `arrivals`/`slews`
    /// describe the respective output transitions; `worst` is the
    /// latest primary output of that transition, and both reports carry
    /// the run's total `evaluations`. No critical path is extracted.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures.
    pub fn run_dual(
        &self,
        evaluator: &dyn StageEvaluator,
        input_slew: f64,
    ) -> Result<(TimingReport, TimingReport)> {
        let _span = qwm_obs::span!("sta.run_dual");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run_dual");
        let lanes = [
            self.own_lane(evaluator, TransitionKind::Fall, 1),
            self.own_lane(evaluator, TransitionKind::Rise, 0),
        ];
        let out = self.propagate(&lanes, Some(input_slew), None)?;
        // Split the evaluator's provenance by the transition it was
        // recorded for, so each polarity report carries its own arcs.
        let (fall_deg, rise_deg): (Vec<Degradation>, Vec<Degradation>) =
            Self::drained_degradations(evaluator)
                .into_iter()
                .partition(|d| d.direction == TransitionKind::Fall);
        let mk_report = |book: &Book, degradations| -> Result<TimingReport> {
            let mut r = self.book_to_report(book, out.stats.evaluations, degradations)?;
            // Endpoints are primary outputs only here, never the
            // globally worst net `book_to_report` falls back to.
            let outputs = self.netlist.primary_outputs();
            r.worst = r.worst.filter(|(n, _)| outputs.contains(n));
            r.critical_path.clear();
            Ok(r)
        };
        Ok((
            mk_report(&out.books[0], fall_deg)?,
            mk_report(&out.books[1], rise_deg)?,
        ))
    }

    /// Waveform-accurate analysis — the paper's §III-C vision made
    /// operational end to end: each stage is evaluated with the *actual*
    /// output waveform of its driving stage (in absolute time), not a
    /// delay/slew abstraction, and its own QWM output waveform feeds the
    /// next stage. Dual polarity, inverting arcs.
    ///
    /// Dependency-driven parallel: each arc (one stage output) solves
    /// its two QWM transitions once every fanin waveform is committed.
    ///
    /// This closes the residual gap the linear-ramp slew model leaves on
    /// weakly driven chains. No caching (waveforms are unique); cost is
    /// one QWM evaluation per (stage output × transition).
    ///
    /// Returns `(fall arrivals, rise arrivals)` keyed by net, in absolute
    /// seconds (primary inputs step at `t = 0` with `input_slew`).
    ///
    /// A failing QWM evaluation does not skip the arc: it descends the
    /// fallback ladder (damped QWM retry → adaptive transient →
    /// fixed-step transient), counts in `waveform_failures`, and records
    /// provenance retrievable via
    /// [`Self::take_waveform_degradations`]. Structural skips (no driver
    /// waveform, inextractable chain, no crossing) remain skips.
    ///
    /// # Errors
    ///
    /// Propagates setup failures; a stage whose transitions exhaust
    /// *every* fallback rung is a hard error carrying the full
    /// rung-failure chain.
    pub fn run_waveform(
        &self,
        config: &qwm_core::evaluate::QwmConfig,
        input_slew: f64,
    ) -> Result<(HashMap<NetId, f64>, HashMap<NetId, f64>)> {
        use qwm_circuit::waveform::Waveform;
        use qwm_core::evaluate::evaluate;

        let _span = qwm_obs::span!("sta.run_waveform");
        let _trace = qwm_obs::trace::TraceGuard::enter("sta.run_waveform");
        let vdd = self.models.tech().vdd;
        // Per net per transition: (50% crossing time, full waveform).
        let mk_book = || -> Vec<Mutex<Option<(f64, Waveform)>>> {
            (0..self.netlist.net_count())
                .map(|_| Mutex::new(None))
                .collect()
        };
        let (fall, rise) = (mk_book(), mk_book());
        let ramp = (input_slew / 0.8).max(1e-12);
        for &pi in self.netlist.primary_inputs() {
            *fall[pi.0].lock().expect("net book") =
                Some((0.5 * ramp, Waveform::ramp_interned(0.0, ramp, vdd, 0.0)));
            *rise[pi.0].lock().expect("net book") =
                Some((0.5 * ramp, Waveform::ramp_interned(0.0, ramp, 0.0, vdd)));
        }
        let (lev, tasks) = self.arc_levelizer(None, "StaEngine::run_waveform")?;
        let level_of = trace_levels(&lev);
        qwm_exec::run_dag(self.threads, &lev, |_w, local| -> Result<()> {
            let (s, pos) = tasks[local];
            let _stage = trace_stage(&level_of, s, local);
            let sid = StageId(s);
            let part = self.graph.stage(sid);
            let (output_net, node) = (part.output_nets[pos], part.stage.outputs()[pos]);
            for direction in [TransitionKind::Fall, TransitionKind::Rise] {
                // Inverting arc: output falls when inputs rise.
                let drivers = match direction {
                    TransitionKind::Fall => &rise,
                    TransitionKind::Rise => &fall,
                };
                // Latest-crossing driving input wins (worst case).
                let Some((t50, wf)) = part
                    .input_nets
                    .iter()
                    .filter_map(|n| drivers[n.0].lock().expect("net book").clone())
                    .max_by(|a, b| a.0.total_cmp(&b.0))
                else {
                    continue;
                };
                // Sensitize the worst chain; gating inputs get the
                // real driving waveform, others stay inactive.
                let switching = Switching::Wave(&wf);
                let Ok((inputs, init, _, _)) =
                    stimulus(&part.stage, self.models, node, direction, switching)
                else {
                    continue;
                };
                // Fallback ladder: QWM → damped retry → adaptive →
                // fixed-step transient. A rung succeeds when it
                // yields a committed output waveform; exhausting
                // every rung is a hard error, never a silently
                // missing arc.
                let qwm_rung = |cfg: &qwm_core::evaluate::QwmConfig| -> Result<Waveform> {
                    let r = evaluate(
                        &part.stage,
                        self.models,
                        &inputs,
                        &init,
                        node,
                        direction,
                        cfg,
                    )?;
                    r.output_waveform().to_waveform(2)
                };
                let damped_rung = |_| {
                    let mut damped = config.clone();
                    damped.region.max_iterations *= 2;
                    damped.region.max_dv *= 0.5;
                    qwm_rung(&damped)
                };
                // Transient rungs simulate well past the driver's
                // 50 % crossing; dense samples are decimated so the
                // downstream QWM stage is not flooded with promoted
                // breakpoints.
                let t_stop = t50 + 2e-9;
                let transient_rung = |adaptive: bool| -> Result<Waveform> {
                    let r = if adaptive {
                        qwm_spice::adaptive::simulate_adaptive(
                            &part.stage,
                            self.models,
                            &inputs,
                            &init,
                            &qwm_spice::adaptive::AdaptiveConfig::new(t_stop),
                        )?
                    } else {
                        qwm_spice::engine::simulate(
                            &part.stage,
                            self.models,
                            &inputs,
                            &init,
                            &qwm_spice::engine::TransientConfig::hspice_1ps(t_stop),
                        )?
                    };
                    let w = r.waveform(node)?;
                    let s = w.samples();
                    let (t0, t1) = (s[0].0, s[s.len() - 1].0);
                    Waveform::from_samples(w.resample(t0, t1, 33)?)
                };
                let rungs: [Rung<'_, Waveform>; 4] = [
                    (FallbackRung::Qwm, 1, &|_| qwm_rung(config)),
                    (FallbackRung::QwmRetry, 1, &damped_rung),
                    (FallbackRung::SpiceAdaptive, 1, &|_| transient_rung(true)),
                    (FallbackRung::SpiceFixed, 1, &|_| transient_rung(false)),
                ];
                let warn = |rung: FallbackRung, e: &NumError| {
                    qwm_obs::warn("sta.run_waveform.rung_failed")
                        .field("stage", sid.0)
                        .field("direction", format!("{direction:?}"))
                        .field("rung", rung.name())
                        .field("error", e)
                        .emit();
                };
                // Arc trace: solve time covers the whole ladder;
                // stale lookup attribution is discarded up front.
                let arc_t0 = qwm_obs::trace::enabled().then(|| {
                    let _ = qwm_obs::trace::take_lookup_ns();
                    std::time::Instant::now()
                });
                let (landed, failures) = descend(&rungs, None, &warn);
                let Some((rung, out_wf)) = landed else {
                    qwm_obs::counter!("sta.waveform.exhausted").incr();
                    return Err(NumError::InvalidInput {
                        context: "StaEngine::run_waveform: all fallback rungs failed",
                        detail: format!(
                            "stage {} {:?} output {}: {}",
                            sid.0,
                            direction,
                            self.netlist.net_name(output_net),
                            failure_chain(&failures)
                        ),
                    });
                };
                self.evaluations.fetch_add(1, Ordering::Relaxed);
                qwm_obs::counter!("sta.arc.evaluations").incr();
                if let Some(t0) = arc_t0 {
                    qwm_obs::trace::record_arc(
                        sid.0 as u64,
                        rung.name(),
                        t0,
                        qwm_obs::trace::take_lookup_ns(),
                        failures.len() as u64,
                    );
                }
                if rung != FallbackRung::Qwm {
                    self.waveform_failures.fetch_add(1, Ordering::Relaxed);
                    qwm_obs::counter!("sta.waveform.failures").incr();
                    qwm_obs::warn("sta.run_waveform.degraded")
                        .field("stage", sid.0)
                        .field("direction", format!("{direction:?}"))
                        .field("rung", rung.name())
                        .emit();
                    self.waveform_degradations
                        .lock()
                        .expect("waveform degradations lock")
                        .push(Degradation {
                            output: self.netlist.net_name(output_net).to_string(),
                            direction,
                            landed: rung,
                            failures,
                        });
                }
                let Some(t_out) = out_wf.crossing(vdd / 2.0, direction == TransitionKind::Rise)
                else {
                    continue;
                };
                let book = match direction {
                    TransitionKind::Fall => &fall,
                    TransitionKind::Rise => &rise,
                };
                let mut slot = book[output_net.0].lock().expect("net book");
                if slot.as_ref().is_none_or(|(t, _)| t_out > *t) {
                    *slot = Some((t_out, out_wf));
                }
            }
            Ok(())
        })
        .map_err(|(_, e)| e)?;
        let to_map = |book: Vec<Mutex<Option<(f64, qwm_circuit::Waveform)>>>| {
            book.into_iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    slot.into_inner()
                        .expect("net book")
                        .map(|(t, _)| (NetId(i), t))
                })
                .collect()
        };
        Ok((to_map(fall), to_map(rise)))
    }

    /// Drops every cached arc of `stage` and marks it dirty in both
    /// incremental flows. The cache is keyed by stage, not by worker, so
    /// invalidation is exact no matter which worker computed an entry.
    pub(crate) fn invalidate_stage(&mut self, stage: StageId) {
        self.arc_cache.retain(|k| k.stage != stage.0);
        for flow in &mut self.flows {
            flow.dirty.insert(stage.0);
        }
    }

    /// Resizes netlist device `device_index` to width `w` and invalidates
    /// only the containing stage's cached arcs (plus its gate-net
    /// driver's, whose baked fanout load changed). The next run
    /// re-evaluates just those stages — the incremental flow — at any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for an unknown device or a
    /// non-positive width.
    pub fn resize_device(&mut self, device_index: usize, w: f64) -> Result<()> {
        if w <= 0.0 {
            return Err(NumError::InvalidInput {
                context: "StaEngine::resize_device",
                detail: format!("width {w}"),
            });
        }
        let sid =
            self.graph
                .stage_of_device(device_index)
                .ok_or_else(|| NumError::InvalidInput {
                    context: "StaEngine::resize_device",
                    detail: format!("device {device_index} not found"),
                })?;
        // Update both the netlist record and the partitioned stage edge.
        let (geom, gate_net) = {
            let d = &self.netlist.devices()[device_index];
            (Geometry { w, ..d.geom }, d.gate)
        };
        self.netlist.set_device_geometry(device_index, geom)?;
        let part = &mut self.graph.partitions_mut()[sid.0];
        let pos = part
            .device_indices
            .iter()
            .position(|&d| d == device_index)
            .expect("device is in its stage");
        part.stage.set_edge_geometry(qwm_circuit::EdgeId(pos), geom);
        self.invalidate_stage(sid);

        // The resized gate's capacitance loads whichever stage drives
        // its gate net: re-bake that stage's load and drop its caches
        // too. A missing node here means the stage graph and the netlist
        // disagree about net naming — silently skipping the load update
        // would leave the driver's caches warm with a stale load, so it
        // is a hard error.
        if let Some((gate, driver)) = gate_net.and_then(|g| Some((g, self.graph.driver_of(g)?))) {
            if !bake_load(&mut self.graph, &self.netlist, self.models, driver, gate) {
                return Err(NumError::InvalidInput {
                    context: "StaEngine::resize_device",
                    detail: format!(
                        "gate net {:?} has driver stage {} but no node of that \
                         name in it — stage graph and netlist disagree",
                        self.netlist.net_name(gate),
                        driver.0
                    ),
                });
            }
            self.invalidate_stage(driver);
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{ElmoreEvaluator, QwmEvaluator};
    use crate::graph::inverter_chain;
    use qwm_device::{analytic_models, Technology};

    #[test]
    fn chain_arrivals_accumulate() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let out = nl.find_net("n4").unwrap();
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let report = engine.run(&ElmoreEvaluator).unwrap();
        let (worst_net, worst_arr) = report.worst.unwrap();
        assert_eq!(worst_net, out);
        assert!(worst_arr > 0.0);
        assert_eq!(report.evaluations, 4);
        assert_eq!(report.critical_path.len(), 4);
        // Arrivals strictly increase along the chain.
        let nl = engine.netlist();
        let mut prev = 0.0;
        for i in 1..=4 {
            let n = nl.find_net(&format!("n{i}")).unwrap();
            let a = report.arrivals[&n];
            assert!(a > prev, "n{i} arrival {a} > {prev}");
            prev = a;
        }
    }

    #[test]
    fn second_run_reuses_cache() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 5, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let r1 = engine.run(&ElmoreEvaluator).unwrap();
        assert_eq!(r1.evaluations, 5);
        let r2 = engine.run(&ElmoreEvaluator).unwrap();
        assert_eq!(r2.evaluations, 0, "fully cached");
        assert_eq!(r1.worst.unwrap().1, r2.worst.unwrap().1);
    }

    #[test]
    fn incremental_resize_reevaluates_one_stage() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 6, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let full = engine.run(&QwmEvaluator::default()).unwrap();
        assert_eq!(full.evaluations, 6);
        let before = full.worst.unwrap().1;

        // Upsize the NMOS of the middle inverter (device index 4 = MN2).
        engine.resize_device(4, 4.0 * tech.w_min).unwrap();
        let incr = engine.run(&QwmEvaluator::default()).unwrap();
        assert_eq!(
            incr.evaluations, 2,
            "the touched stage and its (re-loaded) driver re-evaluate"
        );
        let after = incr.worst.unwrap().1;
        assert!(
            after < before,
            "upsizing sped the path up: {after} vs {before}"
        );
    }

    #[test]
    fn resize_validation() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        assert!(engine.resize_device(0, -1.0).is_err());
        assert!(engine.resize_device(99, 1e-6).is_err());
    }

    /// Regression (silent resize skip): when the stage graph and the
    /// netlist disagree about a gate net's name, the fanout-load update
    /// on the driver stage used to be silently skipped, leaving its
    /// caches warm with a stale load. It is now a hard error.
    #[test]
    fn resize_with_renamed_net_is_a_hard_error() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let mut engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        // Rename n1 behind the stage graph's back: its driver stage
        // still calls the node "n1".
        let n1 = engine.netlist.find_net("n1").unwrap();
        engine.netlist.rename_net(n1, "n1_renamed").unwrap();
        // Device 2 = MN1, gated by the renamed net: the driver-stage
        // load update must fail loudly, not skip.
        let err = engine.resize_device(2, 2.0 * tech.w_min).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("n1_renamed") && msg.contains("disagree"),
            "expected a graph/netlist-disagreement error, got: {msg}"
        );
    }

    #[test]
    fn qwm_and_elmore_agree_on_critical_path_shape() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let e1 = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let r_elm = e1.run(&ElmoreEvaluator).unwrap();
        let r_qwm = e1.run(&QwmEvaluator::default()).unwrap();
        // Same path, possibly different absolute numbers. (The second
        // run reuses the Elmore cache, so compare paths via fresh engine.)
        assert_eq!(r_elm.critical_path.len(), 3);
        assert_eq!(r_qwm.critical_path.len(), 3);
    }
}

#[cfg(test)]
mod slew_tests {
    use super::*;
    use crate::evaluator::{QwmEvaluator, SpiceEvaluator, StageEvaluator};
    use crate::graph::inverter_chain;
    use qwm_device::{analytic_models, Technology};

    #[test]
    fn slew_aware_run_populates_slews_and_differs_from_step_run() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 4, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let step = engine.run(&QwmEvaluator::default()).unwrap();
        let slewed = engine
            .run_with_slew(&QwmEvaluator::default(), 60e-12)
            .unwrap();
        // Slews recorded for every driven net.
        assert!(slewed.slews.len() >= 4);
        // A 60 ps input ramp must slow the first stage down relative to
        // the (near-)step analysis.
        let a = step.worst.unwrap().1;
        let b = slewed.worst.unwrap().1;
        assert!(b > a, "slew-aware {b} vs step {a}");
    }

    #[test]
    fn slew_aware_cache_hits_on_rerun() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let r1 = engine
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        assert_eq!(r1.evaluations, 3);
        let r2 = engine
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        assert_eq!(r2.evaluations, 0, "identical seed slew is fully cached");
        // Different seed slew re-evaluates at least the first stage.
        let r3 = engine
            .run_with_slew(&QwmEvaluator::default(), 50e-12)
            .unwrap();
        assert!(r3.evaluations >= 1);
    }

    #[test]
    fn qwm_slew_tracks_spice_slew() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let q = engine
            .run_with_slew(&QwmEvaluator::default(), 30e-12)
            .unwrap();
        let s = engine
            .run_with_slew(&SpiceEvaluator::default(), 30e-12)
            .unwrap();
        let (qa, sa) = (q.worst.unwrap().1, s.worst.unwrap().1);
        assert!((qa - sa).abs() / sa < 0.10, "qwm {qa} vs spice {sa}");
        // Output slews agree on the final net too.
        let net = q.worst.unwrap().0;
        let (qs, ss) = (q.slews[&net], s.slews[&net]);
        assert!((qs - ss).abs() / ss < 0.25, "slew qwm {qs} vs spice {ss}");
    }

    #[test]
    fn elmore_default_timing_reports_zero_slew() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let part = &engine.graph().partitions()[0];
        let node = part.stage.outputs()[0];
        let m = crate::evaluator::ElmoreEvaluator
            .timing(&part.stage, &models, node, TransitionKind::Fall, 10e-12)
            .unwrap();
        assert_eq!(m.slew, 0.0);
        assert!(m.delay > 0.0);
    }
}

#[cfg(test)]
mod cache_key_regression_tests {
    use super::*;
    use crate::evaluator::QwmEvaluator;
    use crate::graph::inverter_chain;
    use qwm_device::{analytic_models, Technology};

    /// Regression (slew quantization): slews used to be rounded to a
    /// 1 ps grid *and evaluated at the rounded value*, so two slews
    /// 0.4 ps apart returned the same cached arc and every sub-ps slew
    /// collapsed to exactly 0. Exact `to_bits` keys + exact evaluation
    /// make them distinct.
    #[test]
    fn nearby_slews_produce_different_delays() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let ev = QwmEvaluator::default();
        // Same 1 ps bin under the old rounding (both "10 ps").
        let a = engine.run_with_slew(&ev, 10.0e-12).unwrap();
        let b = engine.run_with_slew(&ev, 10.4e-12).unwrap();
        assert!(b.evaluations > 0, "second slew must not hit the cache");
        assert_ne!(
            a.worst.unwrap().1,
            b.worst.unwrap().1,
            "slews 0.4 ps apart must evaluate differently"
        );
        // Sub-ps slews used to collapse to one cached entry at exactly
        // 0 ps; they now key separately. (Their *values* may still
        // agree: the stimulus builder floors the input ramp at 1 ps,
        // a physical clamp, not a cache artifact.)
        let _ = engine.run_with_slew(&ev, 0.2e-12).unwrap();
        let d = engine.run_with_slew(&ev, 0.4e-12).unwrap();
        assert!(d.evaluations > 0, "sub-ps slews must not share a bin");
    }

    /// Regression (cross-flow cache aliasing): the dual flow packed
    /// `(out_pos * 1_000_003 + slew_key) * 2 + dir_tag` and the single
    /// flow `out_pos * 1_000_003 + slew_key` into the same cache, so a
    /// dual run at 10 ps (key 20) aliased a later single run at 20 ps
    /// (key 20) and served it a wrong-direction entry. The direction is
    /// now a structural key field; interleaving must be value-identical
    /// to a cold single run.
    #[test]
    fn interleaved_dual_and_single_runs_never_alias() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let ev = QwmEvaluator::default();
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let _ = engine.run_dual(&ev, 10e-12).unwrap();
        let interleaved = engine.run_with_slew(&ev, 20e-12).unwrap();
        let fresh =
            StaEngine::new(engine.netlist().clone(), &models, TransitionKind::Fall).unwrap();
        let reference = fresh.run_with_slew(&ev, 20e-12).unwrap();
        assert_eq!(
            interleaved.worst.unwrap().1,
            reference.worst.unwrap().1,
            "dual-flow cache entries leaked into the single-slew flow"
        );
        for (net, arr) in &reference.arrivals {
            assert_eq!(interleaved.arrivals[net], *arr, "net {net:?}");
        }
        for (net, slew) in &reference.slews {
            assert_eq!(interleaved.slews[net], *slew, "slew at {net:?}");
        }
    }
}

#[cfg(test)]
mod nan_regression_tests {
    use super::*;
    use crate::evaluator::StageEvaluator;
    use crate::graph::inverter_chain;
    use qwm_circuit::{LogicStage, NodeId};
    use qwm_device::{analytic_models, ModelSet, Technology};

    /// An evaluator that "converges" to NaN — the shape of a silent
    /// numeric blow-up inside a model.
    struct NanEvaluator;

    impl StageEvaluator for NanEvaluator {
        fn name(&self) -> &'static str {
            "nan-test"
        }

        fn delay(
            &self,
            _stage: &LogicStage,
            _models: &ModelSet,
            _output: NodeId,
            _direction: TransitionKind,
        ) -> Result<f64> {
            Ok(f64::NAN)
        }
    }

    /// Regression (NaN panic): `worst_and_path` used
    /// `partial_cmp(...).expect("finite arrivals")`, so one NaN arrival
    /// panicked the worker mid-reduction. It now surfaces as a
    /// `NumError` naming the offending net.
    #[test]
    fn nan_arrival_is_an_error_not_a_panic() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let err = engine.run(&NanEvaluator).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("non-finite") && msg.contains("n1"),
            "error must name the first offending net: {msg}"
        );
        // The slew-aware and dual flows reject it too.
        assert!(engine.run_with_slew(&NanEvaluator, 10e-12).is_err());
        assert!(engine.run_dual(&NanEvaluator, 10e-12).is_err());
    }
}

#[cfg(test)]
mod dual_tests {
    use super::*;
    use crate::evaluator::QwmEvaluator;
    use crate::graph::inverter_chain;
    use qwm_device::{analytic_models, Technology};

    #[test]
    fn dual_run_tracks_both_transitions() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let (fall, rise) = engine.run_dual(&QwmEvaluator::default(), 5e-12).unwrap();
        let out = engine.netlist().find_net("n3").unwrap();
        let (af, ar) = (fall.arrivals[&out], rise.arrivals[&out]);
        assert!(af > 0.0 && ar > 0.0);
        // The wp = 2·wn inverter is not perfectly balanced: the two
        // polarities must differ measurably.
        assert!(
            (af - ar).abs() / af.max(ar) > 0.02,
            "fall {af} vs rise {ar}"
        );
        // Slews populated for both.
        assert!(fall.slews[&out] > 0.0);
        assert!(rise.slews[&out] > 0.0);
        // Second dual run is fully cached.
        let before = engine.total_evaluations();
        let _ = engine.run_dual(&QwmEvaluator::default(), 5e-12).unwrap();
        assert_eq!(engine.total_evaluations(), before);
    }
}
