//! DC operating-point analysis.
//!
//! Solves the static KCL system `outflow(v) = 0` for the internal nodes
//! of a stage under fixed input voltages, through
//! `qwm_num::newton::newton_solve`. Neither transient engine calls it:
//! both start from the [`crate::engine::initial_uniform`] precharge. It
//! gives flattened circuits consistent DC starting voltages — the latch
//! test in `tests/flat_circuit.rs` solves both stable states of a
//! cross-coupled pair, and ROADMAP items 3(a) and 10(e) (timing
//! flattened decks against the stage-level flows) need the same.

use crate::engine::TransientConfig;
use qwm_circuit::stage::{DeviceKind, LogicStage};
use qwm_circuit::EdgeId;
use qwm_device::model::{ModelSet, Polarity};
use qwm_num::matrix::Matrix;
use qwm_num::newton::{newton_solve, NewtonOptions, NonlinearSystem};
use qwm_num::{NumError, Result};

struct DcSystem<'a> {
    stage: &'a LogicStage,
    models: &'a ModelSet,
    input_v: &'a [f64],
    internal: Vec<qwm_circuit::NodeId>,
    index_of: Vec<usize>,
    gmin: f64,
    vdd: f64,
}

impl DcSystem<'_> {
    fn full_voltages(&self, x: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.stage.node_count()];
        v[self.stage.source().0] = self.vdd;
        for (i, &id) in self.internal.iter().enumerate() {
            v[id.0] = x[i];
        }
        v
    }
}

impl NonlinearSystem for DcSystem<'_> {
    fn dim(&self) -> usize {
        self.internal.len()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        let v = self.full_voltages(x);
        out.iter_mut().for_each(|o| *o = 0.0);
        for (ei, edge) in self.stage.edges().iter().enumerate() {
            let tv = self.stage.edge_voltages(EdgeId(ei), &v, self.input_v);
            let i = match edge.kind {
                DeviceKind::Nmos => self
                    .models
                    .for_polarity(Polarity::Nmos)
                    .iv(&edge.geom, tv)?,
                DeviceKind::Pmos => self
                    .models
                    .for_polarity(Polarity::Pmos)
                    .iv(&edge.geom, tv)?,
                DeviceKind::Wire => {
                    let r =
                        qwm_device::caps::wire_res(self.models.tech(), edge.geom.w, edge.geom.l);
                    (tv.src - tv.snk) / r
                }
            };
            let si = self.index_of[edge.src.0];
            let ki = self.index_of[edge.snk.0];
            if si != usize::MAX {
                out[si] += i;
            }
            if ki != usize::MAX {
                out[ki] -= i;
            }
        }
        for (i, &id) in self.internal.iter().enumerate() {
            out[i] += self.gmin * v[id.0];
        }
        Ok(())
    }

    fn solve_jacobian(&self, x: &[f64], f: &[f64], delta: &mut [f64]) -> Result<()> {
        let n = self.dim();
        let v = self.full_voltages(x);
        let mut jac = Matrix::zeros(n, n)?;
        for (ei, edge) in self.stage.edges().iter().enumerate() {
            let tv = self.stage.edge_voltages(EdgeId(ei), &v, self.input_v);
            let (d_src, d_snk, d_gate) = match edge.kind {
                DeviceKind::Nmos => {
                    let e = self
                        .models
                        .for_polarity(Polarity::Nmos)
                        .iv_eval(&edge.geom, tv)?;
                    (e.d_src, e.d_snk, e.d_input)
                }
                DeviceKind::Pmos => {
                    let e = self
                        .models
                        .for_polarity(Polarity::Pmos)
                        .iv_eval(&edge.geom, tv)?;
                    (e.d_src, e.d_snk, e.d_input)
                }
                DeviceKind::Wire => {
                    let g = 1.0
                        / qwm_device::caps::wire_res(self.models.tech(), edge.geom.w, edge.geom.l);
                    (g, -g, 0.0)
                }
            };
            let si = self.index_of[edge.src.0];
            let ki = self.index_of[edge.snk.0];
            if si != usize::MAX {
                jac.add(si, si, d_src);
                if ki != usize::MAX {
                    jac.add(si, ki, d_snk);
                }
            }
            if ki != usize::MAX {
                jac.add(ki, ki, -d_snk);
                if si != usize::MAX {
                    jac.add(ki, si, -d_src);
                }
            }
            if let Some(gn) = edge.gate_node {
                let gi = self.index_of[gn.0];
                if gi != usize::MAX && d_gate != 0.0 {
                    if si != usize::MAX {
                        jac.add(si, gi, d_gate);
                    }
                    if ki != usize::MAX {
                        jac.add(ki, gi, -d_gate);
                    }
                }
            }
        }
        for i in 0..n {
            jac.add(i, i, self.gmin);
        }
        delta.copy_from_slice(&jac.solve(f)?);
        Ok(())
    }

    fn project(&self, x: &mut [f64]) {
        for v in x.iter_mut() {
            *v = v.clamp(-0.5, self.vdd + 0.5);
        }
    }
}

/// Computes the DC operating point of `stage` under fixed `input_v`
/// (one value per input), starting from `guess` (one value per node,
/// rails ignored). Returns full node voltages.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on mis-sized arguments and
/// [`NumError::NoConvergence`] if Newton fails from the given guess.
pub fn dc_operating_point(
    stage: &LogicStage,
    models: &ModelSet,
    input_v: &[f64],
    guess: &[f64],
) -> Result<Vec<f64>> {
    if input_v.len() != stage.inputs().len() {
        return Err(NumError::InvalidInput {
            context: "dc_operating_point",
            detail: format!(
                "{} input values for {} inputs",
                input_v.len(),
                stage.inputs().len()
            ),
        });
    }
    if guess.len() != stage.node_count() {
        return Err(NumError::InvalidInput {
            context: "dc_operating_point",
            detail: format!("{} guesses for {} nodes", guess.len(), stage.node_count()),
        });
    }
    let internal = stage.internal_nodes();
    let mut index_of = vec![usize::MAX; stage.node_count()];
    for (i, id) in internal.iter().enumerate() {
        index_of[id.0] = i;
    }
    let sys = DcSystem {
        stage,
        models,
        input_v,
        internal: internal.clone(),
        index_of,
        gmin: TransientConfig::default().gmin,
        vdd: models.tech().vdd,
    };
    let x0: Vec<f64> = internal.iter().map(|&id| guess[id.0]).collect();
    let opts = NewtonOptions {
        max_iterations: 200,
        tol_residual: 1e-12,
        tol_update: 1e-12,
        max_backtracks: 10,
    };
    let out = newton_solve(&sys, &x0, &opts)?;
    Ok(sys.full_voltages(&out.x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::initial_uniform;
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};

    #[test]
    fn inverter_dc_levels() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let guess = initial_uniform(&inv, &models, tech.vdd / 2.0);
        // Input low → output high.
        let v = dc_operating_point(&inv, &models, &[0.0], &guess).unwrap();
        let out = inv.node_by_name("out").unwrap();
        assert!(v[out.0] > tech.vdd - 0.05, "out = {}", v[out.0]);
        // Input high → output low.
        let v = dc_operating_point(&inv, &models, &[tech.vdd], &guess).unwrap();
        assert!(v[out.0] < 0.05, "out = {}", v[out.0]);
    }

    #[test]
    fn nand_with_one_input_low_holds_high() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let g = cells::nand(&tech, 2, cells::DEFAULT_LOAD).unwrap();
        let guess = initial_uniform(&g, &models, tech.vdd / 2.0);
        let v = dc_operating_point(&g, &models, &[tech.vdd, 0.0], &guess).unwrap();
        let out = g.node_by_name("out").unwrap();
        assert!(v[out.0] > tech.vdd - 0.05);
        // Internal stack node: pulled to ground through the on bottom
        // transistor (a0 is nearest ground and is high).
        let n1 = g.node_by_name("n1").unwrap();
        assert!(v[n1.0] < 0.05, "n1 = {}", v[n1.0]);
    }

    #[test]
    fn rails_are_fixed() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let guess = initial_uniform(&inv, &models, 0.0);
        let v = dc_operating_point(&inv, &models, &[0.0], &guess).unwrap();
        assert_eq!(v[inv.source().0], tech.vdd);
        assert_eq!(v[inv.sink().0], 0.0);
    }

    #[test]
    fn argument_validation() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let inv = cells::inverter(&tech, cells::DEFAULT_LOAD).unwrap();
        let guess = initial_uniform(&inv, &models, 0.0);
        assert!(dc_operating_point(&inv, &models, &[], &guess).is_err());
        assert!(dc_operating_point(&inv, &models, &[0.0], &[0.0]).is_err());
    }
}
