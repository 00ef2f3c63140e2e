//! The per-layer ledger: direct calls into each layer's public
//! functions, on the workload's own design, timed from outside.
//!
//! Runs in the traced pass only, after the measured window. Every
//! workload gets the same measurements; a layer the design gives no
//! work (no wires, no store) reports 0.

use crate::accuracy::{self, Arc};
use crate::alloc_count::allocs_now;
use crate::design::{Design, Models};
use crate::gen;
use crate::inproc::{cold_op, DIRECTION};
use crate::metrics::{RunResult, Values};
use crate::stats::median;
use crate::trace::Tracer;
use qwm::circuit::cells;
use qwm::circuit::parser::parse_netlist;
use qwm::circuit::partition::partition;
use qwm::circuit::stage::DeviceKind;
use qwm::circuit::waveform::Waveform;
use qwm::core::chain::Chain;
use qwm::core::evaluate::{evaluate, QwmConfig};
use qwm::core::solver::{
    solve_region_into, ChainContext, EndCondition, RegionOptions, RegionSolution, RegionState,
    SolveScratch,
};
use qwm::device::model::{DeviceModel, Geometry, Polarity, TermVoltage};
use qwm::device::{tabular_models, TableModel};
use qwm::interconnect::wire_pi_model;
use qwm::num::rng::Rng64;
use qwm::sta::evaluator::{sensitized_setup, sensitized_setup_with_slew};
use qwm::sta::{CornerRun, QwmEvaluator, StaEngine};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls \[ms\].
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            ms_since(t0)
        })
        .collect();
    median(&samples)
}

/// Op stream of the ledger's own what-ifs (the served workloads use
/// connections 0 and 1).
const LEDGER_CONN: u64 = 99;

/// What the ledger measures on: a workload's design and models.
pub struct Ledger<'a> {
    pub design: &'a Design,
    pub models: &'a Models,
    pub seed: u64,
    pub qwm: &'a Path,
    pub run_dir: &'a Path,
}

impl Ledger<'_> {
    /// Fills the ledger. Each section is one check of `out`: on the
    /// pinned input seeds the program can run every one of them, so a
    /// section it cannot run is a failure (its rows stay 0).
    pub fn measure(&self, arcs: &[Arc], out: &mut RunResult) {
        let slew_aware = self.design.slew.is_some();
        type Section<'s> = &'s dyn Fn(&mut RunResult) -> Result<(), String>;
        let sections: [(bool, Section); 10] = [
            (true, &|o| self.circuit(&mut o.values)),
            (true, &|o| self.sta_cold(&mut o.values)),
            (slew_aware, &|o| self.sta_incremental(&mut o.values)),
            (slew_aware, &|o| self.sta_corners(&mut o.values)),
            (true, &|o| self.core(arcs, &mut o.values)),
            (true, &|o| self.device(&mut o.values)),
            (true, &|o| self.interconnect(&mut o.values)),
            (true, &|o| self.spice(arcs, o)),
            (true, &|o| self.exec_and_obs(&mut o.values)),
            (true, &|o| self.cli(&mut o.values)),
        ];
        for (applies, section) in sections {
            if applies {
                let outcome = section(out);
                out.check(outcome);
            }
        }
    }

    fn circuit(&self, out: &mut Values) -> Result<(), String> {
        let d = self.design;
        out.set(
            "circuit.parse_ms",
            median_ms(3, || parse_netlist(&d.deck)),
            3,
        );
        out.set(
            "circuit.partition_ms",
            median_ms(3, || partition(&d.netlist)),
            3,
        );
        let stages = partition(&d.netlist)
            .map_err(|e| format!("partition: {e}"))?
            .len();
        out.set("circuit.stages", stages as f64, 1);
        out.set("circuit.devices", d.netlist.devices().len() as f64, 1);
        Ok(())
    }

    /// Cold ops under the span recorder: where a full timing spends its
    /// time, and how much of the traversal is not arc evaluation.
    fn sta_cold(&self, out: &mut Values) -> Result<(), String> {
        const REPS: u64 = 3;
        let tracer = Tracer::new(Instant::now());
        tracer.set_enabled(true);
        let mut evaluations = 0;
        for _ in 0..REPS {
            // Always the single-corner flow: these rows compare across
            // workloads; the sweep has its own row below.
            evaluations = cold_op(self.design, self.models, false, 1, &tracer)
                .map_err(|e| format!("ledger cold op: {e}"))?
                .evaluations;
        }
        let (agg, _) = tracer.finish();
        let mean_ms = |name: &str| {
            agg.get(name)
                .map_or(0.0, |a| a.total_ns as f64 / a.count as f64 / 1e6)
        };
        out.set("sta.build_ms", mean_ms("sta.build"), REPS);
        out.set("sta.run_ms", mean_ms("sta.run"), REPS);
        out.set("sta.render_ms", mean_ms("sta.render"), REPS);
        out.set("sta.evaluations", evaluations as f64, 1);
        let run = agg.get("sta.run").copied().unwrap_or_default();
        let overhead = if run.total_ns > 0 {
            run.self_ns as f64 / run.total_ns as f64
        } else {
            0.0
        };
        out.set("sta.overhead_frac", overhead, REPS);
        Ok(())
    }

    /// The ledger's own what-if scripts and a warm engine to run them on.
    fn whatif_engine(&self) -> Result<(Vec<String>, StaEngine<'_>), String> {
        let d = self.design;
        let id = gen::StreamId {
            seed: self.seed,
            conn: LEDGER_CONN,
        };
        let scripts = gen::whatif_ops(&d.netlist, &self.models.tech, id, 20)
            .into_iter()
            .map(|mut op| match op.swap_remove(0).kind {
                gen::ReqKind::Edit(script) => script,
                other => unreachable!("what-if ops start with an edit, got {other:?}"),
            })
            .collect();
        let mut engine = StaEngine::new(d.netlist.clone(), &self.models.tabular, DIRECTION)
            .map_err(|e| format!("ledger engine: {e}"))?
            .with_threads(1);
        engine
            .set_input_slew(d.slew.expect("slew-aware design"))
            .map_err(|e| format!("ledger slew: {e}"))?;
        Ok((scripts, engine))
    }

    /// One what-if on `engine`: parse and apply `script`, then `run`.
    fn whatif_ms<T>(
        engine: &mut StaEngine,
        script: &str,
        run: impl FnOnce(&mut StaEngine) -> qwm::num::Result<T>,
    ) -> Result<f64, String> {
        let t0 = Instant::now();
        let edits = qwm::sta::parse_edit_script(script, engine.netlist())?;
        engine
            .apply_edits(&edits)
            .map_err(|e| format!("ledger edit: {e}"))?;
        run(engine).map_err(|e| format!("ledger what-if: {e}"))?;
        Ok(ms_since(t0))
    }

    /// The incremental traversal, in-process: seeded single-transistor
    /// what-ifs on a warm engine, plus the nothing-dirty re-run that is
    /// pure traversal cost.
    fn sta_incremental(&self, out: &mut Values) -> Result<(), String> {
        let (scripts, mut engine) = self.whatif_engine()?;
        let ev = QwmEvaluator::default();
        engine
            .run_incremental(&ev)
            .map_err(|e| format!("ledger first run: {e}"))?;
        out.set(
            "sta.noop_rerun_ms",
            median_ms(5, || engine.run_incremental(&ev).map(|r| r.evaluations)),
            5,
        );
        let (mut ms, mut dirty, mut reused, mut stops) = (Vec::new(), 0, 0, 0);
        for script in &scripts {
            ms.push(Self::whatif_ms(&mut engine, script, |e| {
                e.run_incremental(&ev)
            })?);
            let st = engine.incremental_stats();
            dirty += st.dirty_stages;
            reused += st.reused_arcs;
            stops += st.early_stop_nets;
        }
        let n = scripts.len() as u64;
        out.set("sta.incr_ms", median(&ms), n);
        // Totals over the fixed op list: counts repeat exactly.
        out.set("sta.dirty_stages", dirty as f64, n);
        out.set("sta.reused_arcs", reused as f64, n);
        out.set("sta.early_stops", stops as f64, n);
        Ok(())
    }

    /// The corner flows: the same what-ifs swept over ss/tt/ff, and the
    /// batched cold sweep against its corners run one at a time.
    fn sta_corners(&self, out: &mut Values) -> Result<(), String> {
        let (scripts, mut engine) = self.whatif_engine()?;
        let ev = QwmEvaluator::default();
        let runs: Vec<CornerRun> = self
            .models
            .corners_tabular
            .iter()
            .map(|(c, m)| CornerRun {
                name: c.interned_name(),
                models: m,
                evaluator: &ev,
            })
            .collect();
        engine
            .run_incremental_corners(&runs)
            .map_err(|e| format!("ledger first sweep: {e}"))?;
        let ms = scripts[..scripts.len() / 2]
            .iter()
            .map(|s| Self::whatif_ms(&mut engine, s, |e| e.run_incremental_corners(&runs)))
            .collect::<Result<Vec<_>, _>>()?;
        out.set("sta.incr_corners_ms", median(&ms), ms.len() as u64);

        // Run phase only, fresh engine each.
        let d = self.design;
        let slew = d.slew.expect("slew-aware design");
        let fresh = |models| {
            StaEngine::new(d.netlist.clone(), models, DIRECTION)
                .map(|e| e.with_threads(1))
                .map_err(|e| format!("ledger engine: {e}"))
        };
        let mut sequential = 0.0;
        for (_, m) in self.models.corners_tabular.iter() {
            let e = fresh(m)?;
            let t0 = Instant::now();
            e.run_with_slew(&ev, slew)
                .map_err(|e| format!("ledger single corner: {e}"))?;
            sequential += ms_since(t0);
        }
        let e = fresh(&self.models.tabular)?;
        let t0 = Instant::now();
        e.run_corners(&runs, slew)
            .map_err(|e| format!("ledger batched sweep: {e}"))?;
        out.set("sta.corner_batch_gain", sequential / ms_since(t0), 1);
        Ok(())
    }

    /// The kernel on the sampled arcs, warm: time, regions and Newton
    /// iterations per arc, allocations per evaluation, table lookups per
    /// arc; and one region solve through the zero-allocation entry point.
    fn core(&self, arcs: &[Arc], out: &mut Values) -> Result<(), String> {
        let models = &self.models.tabular;
        let config = QwmConfig::default();
        let setups = arcs
            .iter()
            .map(|a| {
                match a.slew {
                    Some(s) => sensitized_setup_with_slew(a.stage, models, a.output, DIRECTION, s)
                        .map(|(inputs, init, _)| (inputs, init)),
                    None => sensitized_setup(a.stage, models, a.output, DIRECTION)
                        .map(|(inputs, init, _)| (inputs, init)),
                }
                .map_err(|e| format!("ledger stimulus: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pass = |times: Option<&mut Vec<f64>>| -> Result<(usize, usize), String> {
            let mut times = times;
            let (mut regions, mut iters) = (0, 0);
            for (a, (inputs, init)) in arcs.iter().zip(&setups) {
                let t0 = Instant::now();
                let r = evaluate(a.stage, models, inputs, init, a.output, DIRECTION, &config)
                    .map_err(|e| format!("ledger evaluate: {e}"))?;
                if let Some(ts) = times.as_deref_mut() {
                    ts.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                regions += r.regions;
                iters += r.iterations;
            }
            Ok((regions, iters))
        };
        pass(None)?; // fills the per-thread scratch and the table caches
        let mut us = Vec::new();
        let a0 = allocs_now();
        let (regions, iters) = pass(None)?;
        let allocs = allocs_now() - a0;
        pass(Some(&mut us))?;
        pass(Some(&mut us))?;
        let n = arcs.len() as f64;
        out.set("core.evaluate_us_p50", median(&us), us.len() as u64);
        out.set(
            "core.regions_per_arc",
            regions as f64 / n,
            arcs.len() as u64,
        );
        out.set(
            "core.newton_iters_per_arc",
            iters as f64 / n,
            arcs.len() as u64,
        );
        out.set("core.allocs_per_eval", allocs as f64 / n, arcs.len() as u64);

        qwm::obs::reset();
        qwm::obs::set_mode(qwm::obs::ObsMode::Summary);
        let counted = pass(None);
        let lookups = qwm::obs::counter_value("device.table.lookups").unwrap_or(0);
        qwm::obs::set_mode(qwm::obs::ObsMode::Off);
        counted?;
        out.set(
            "device.lookups_per_arc",
            lookups as f64 / n,
            arcs.len() as u64,
        );

        self.region_solve(out)
    }

    /// One mid-discharge region of a 3-high NMOS stack, the fixed
    /// reference solve `kernel_bench` also times.
    fn region_solve(&self, out: &mut Values) -> Result<(), String> {
        let tech = &self.models.tech;
        let models = &self.models.tabular;
        let err = |e: qwm::num::NumError| format!("ledger region solve: {e}");
        let stage = cells::nmos_stack(tech, &[1.5e-6, 2.0e-6, 1.0e-6], 20e-15).map_err(err)?;
        let output = stage
            .node_by_name("out")
            .expect("cells name their output 'out'");
        let chain = Chain::extract(&stage, output, DIRECTION).map_err(err)?;
        let inputs = vec![Waveform::constant(tech.vdd); 3];
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        let v = vec![1.0, 2.5, 3.1];
        let state = RegionState {
            tau: 0.0,
            caps: ctx.node_caps(&v),
            i: ctx.node_currents(&v, 0.0).map_err(err)?,
            v,
        };
        let cond = EndCondition::Crossing {
            node: 3,
            level: 2.0,
        };
        let opts = RegionOptions::default();
        let (mut spent, mut scratch, mut sol) =
            (0, SolveScratch::default(), RegionSolution::default());
        let mut solve = |n: usize| -> Result<(), String> {
            for _ in 0..n {
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
                .map_err(err)?;
            }
            Ok(())
        };
        solve(8)?;
        const WINDOWS: usize = 10;
        const PER_WINDOW: usize = 500;
        let mut ns = Vec::with_capacity(WINDOWS);
        let a0 = allocs_now();
        for _ in 0..WINDOWS {
            let t0 = Instant::now();
            solve(PER_WINDOW)?;
            ns.push(t0.elapsed().as_secs_f64() * 1e9 / PER_WINDOW as f64);
        }
        let allocs = allocs_now() - a0;
        let solves = (WINDOWS * PER_WINDOW) as u64;
        out.set("core.solve_ns", median(&ns), solves);
        out.set(
            "core.allocs_per_solve",
            allocs as f64 / solves as f64,
            solves,
        );
        Ok(())
    }

    fn device(&self, out: &mut Values) -> Result<(), String> {
        let tech = &self.models.tech;
        out.set(
            "device.characterize_ms",
            median_ms(3, || tabular_models(tech)),
            3,
        );
        let table = TableModel::with_defaults(tech.clone(), Polarity::Nmos)
            .map_err(|e| format!("ledger table: {e}"))?;
        let mut rng = Rng64::stream(self.seed, &[gen::LANE_SAMPLE, 1]);
        let geom = Geometry::new(1e-6, tech.l_min);
        // Forward-frame queries (vd >= vs) across the characterized grid.
        let queries: Vec<(f64, f64, f64)> = (0..3 * 1024)
            .map(|_| {
                let vs = rng.range(0.0, 0.5 * tech.vdd);
                (rng.range(0.0, tech.vdd), vs, rng.range(vs, tech.vdd))
            })
            .collect();
        const ROUNDS: usize = 20;
        let mut scalar = Vec::with_capacity(ROUNDS);
        let mut batched = Vec::with_capacity(ROUNDS);
        let mut lanes_out = [(0.0, 0.0, 0.0, 0.0); 3];
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for &(vg, vs, vd) in &queries {
                black_box(table.iv_eval(&geom, TermVoltage::new(vg, vd, vs)))
                    .map_err(|e| format!("ledger iv_eval: {e}"))?;
            }
            scalar.push(t0.elapsed().as_secs_f64() * 1e9 / queries.len() as f64);
            // Three lanes a batch: the sweep's corner count.
            let t0 = Instant::now();
            for lanes in queries.chunks_exact(3) {
                table.forward_batch(lanes, &mut lanes_out);
                black_box(&lanes_out);
            }
            batched.push(t0.elapsed().as_secs_f64() * 1e9 / queries.len() as f64);
        }
        let calls = (ROUNDS * queries.len()) as u64;
        out.set("device.forward_ns", median(&scalar), calls);
        out.set("device.forward_batch_ns_per_lane", median(&batched), calls);
        Ok(())
    }

    /// π reduction of each wire of the design. The STA run path lumps
    /// wires through `qwm-device`; this is the reduction a wire rung
    /// would pay per wire.
    fn interconnect(&self, out: &mut Values) -> Result<(), String> {
        let wires: Vec<Geometry> = self
            .design
            .netlist
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::Wire)
            .map(|d| d.geom)
            .collect();
        let mut us = Vec::with_capacity(wires.len());
        for g in &wires {
            let t0 = Instant::now();
            black_box(wire_pi_model(&self.models.tech, g.w, g.l, 16))
                .map_err(|e| format!("ledger pi model: {e}"))?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        out.set("interconnect.pi_model_us", median(&us), us.len() as u64);
        out.set("interconnect.wires_per_run", wires.len() as f64, 1);
        Ok(())
    }

    /// The paper's ratio on the sampled arcs: SPICE 1 ps against QWM,
    /// same stage, same ramp.
    fn spice(&self, arcs: &[Arc], out: &mut RunResult) -> Result<(), String> {
        let (tab, ana) = (&self.models.tabular, &self.models.analytic);
        let e = accuracy::arc_errors(arcs, tab, ana, out);
        let (q, s) = (median(&e.qwm_us), median(&e.spice_us));
        let n = e.err_pct.len() as u64;
        let out = &mut out.values;
        out.set("spice.arc_us_p50", s, n);
        out.set(
            "spice.arc_err_p99_pct",
            crate::stats::quantile(&e.err_pct, 0.99),
            n,
        );
        out.set("spice.arcs_compared", n as f64, 1);
        out.set(
            "core.speedup_vs_spice",
            if q > 0.0 { s / q } else { 0.0 },
            n,
        );
        Ok(())
    }

    /// Two guards on paths no 1-thread, obs-off row exercises: the
    /// parallel traversal and the telemetry registry.
    fn exec_and_obs(&self, out: &mut Values) -> Result<(), String> {
        const REPS: usize = 2;
        let tracer = Tracer::new(Instant::now());
        let timed = |threads: usize| -> Result<f64, String> {
            let t0 = Instant::now();
            cold_op(self.design, self.models, false, threads, &tracer)
                .map_err(|e| format!("ledger cold op: {e}"))?;
            Ok(ms_since(t0))
        };
        let (mut one, mut two, mut obs_on) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            one.push(timed(1)?);
            two.push(timed(2)?);
            qwm::obs::set_mode(qwm::obs::ObsMode::Summary);
            let on = timed(1);
            qwm::obs::set_mode(qwm::obs::ObsMode::Off);
            obs_on.push(on?);
        }
        qwm::obs::reset();
        out.set("exec.scale_2t", median(&one) / median(&two), REPS as u64);
        out.set(
            "obs.on_overhead_frac",
            median(&obs_on) / median(&one) - 1.0,
            REPS as u64,
        );
        Ok(())
    }

    /// `qwm <deck>` from spawn to exit: what the designer's command
    /// line costs on this design, process start included.
    fn cli(&self, out: &mut Values) -> Result<(), String> {
        let deck = self.run_dir.join("ledger.sp");
        std::fs::write(&deck, &self.design.deck)
            .map_err(|e| format!("write {}: {e}", deck.display()))?;
        let mut cmd = Command::new(self.qwm);
        cmd.arg(&deck).args(["--threads", "1"]);
        if let Some(s) = self.design.slew {
            cmd.args(["--slew", &format!("{}", s * 1e12)]);
        }
        cmd.env_remove("QWM_OBS")
            .env_remove("QWM_FAULTS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let mut ms = Vec::new();
        for _ in 0..2 {
            let t0 = Instant::now();
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", self.qwm.display()))?;
            ms.push(ms_since(t0));
            if !status.success() {
                return Err(format!("qwm {} exited with {status}", deck.display()));
            }
        }
        out.set("cli.cold_process_ms", median(&ms), ms.len() as u64);
        Ok(())
    }
}
