//! NLDM-style cell characterization: delay/slew lookup tables over
//! (input slew × output load).
//!
//! The paper's introduction frames QWM against the classic flow where
//! "each logic stage corresponds to a gate, whose timing characteristics
//! can be pre-characterized". This module implements that flow — a
//! nonlinear delay model (NLDM) table per (stage, output, transition),
//! filled by any [`crate::evaluator::StageEvaluator`]-style engine and queried by bilinear
//! interpolation — both because a production timing library needs it and
//! because it lets us demonstrate *why the paper bothers*: tables work
//! for isolated gates but cannot capture stages whose load is not a
//! lumped capacitor (pass transistors, interconnect), where on-the-fly
//! QWM keeps its accuracy.

use crate::evaluator::sensitized_setup_with_slew;
use qwm_circuit::stage::{LogicStage, NodeId};
use qwm_circuit::waveform::{TimingMetrics, TransitionKind};
use qwm_core::evaluate::{evaluate, QwmConfig};
use qwm_device::model::ModelSet;
use qwm_num::{NumError, Result};

/// A characterized delay/slew surface for one (output, transition) arc
/// of a cell.
#[derive(Debug, Clone)]
pub struct NldmTable {
    /// Input-slew axis \[s\] (ascending).
    pub slews: Vec<f64>,
    /// Output-load axis \[F\] (ascending).
    pub loads: Vec<f64>,
    /// Delay grid, `delay[i_slew][i_load]` \[s\].
    pub delay: Vec<Vec<f64>>,
    /// Output-slew grid, same layout \[s\].
    pub out_slew: Vec<Vec<f64>>,
}

impl NldmTable {
    /// Characterizes `stage`'s `output` arc with QWM at every grid point.
    ///
    /// The stage's existing load at the output is treated as a floor;
    /// each grid point *adds* `loads[j]` of external capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for empty/unsorted axes, and
    /// propagates evaluation failures.
    pub fn characterize(
        stage: &LogicStage,
        models: &ModelSet,
        output: NodeId,
        direction: TransitionKind,
        slews: Vec<f64>,
        loads: Vec<f64>,
        config: &QwmConfig,
    ) -> Result<Self> {
        if slews.is_empty() || loads.is_empty() {
            return Err(NumError::InvalidInput {
                context: "NldmTable::characterize",
                detail: "empty axis".to_string(),
            });
        }
        if slews.windows(2).any(|w| w[1] <= w[0]) || loads.windows(2).any(|w| w[1] <= w[0]) {
            return Err(NumError::InvalidInput {
                context: "NldmTable::characterize",
                detail: "axes must be strictly ascending".to_string(),
            });
        }
        let vdd = models.tech().vdd;
        let out_name = stage.node_name(output).to_string();
        let mut delay = Vec::with_capacity(slews.len());
        let mut out_slew = Vec::with_capacity(slews.len());
        for &sl in &slews {
            let mut drow = Vec::with_capacity(loads.len());
            let mut srow = Vec::with_capacity(loads.len());
            for &cl in &loads {
                // Clone the stage and add the extra load at the output.
                let mut loaded = stage.clone();
                let node = loaded
                    .node_by_name(&out_name)
                    .expect("output exists in clone");
                loaded.add_load(node, cl);
                let (inputs, init, t_ref) =
                    sensitized_setup_with_slew(&loaded, models, node, direction, sl)?;
                let r = evaluate(&loaded, models, &inputs, &init, node, direction, config)?;
                let m = TimingMetrics {
                    delay: r.delay_50(vdd, t_ref).ok_or(NumError::InvalidInput {
                        context: "NldmTable::characterize",
                        detail: "no 50% crossing".to_string(),
                    })?,
                    slew: r.slew(vdd).ok_or(NumError::InvalidInput {
                        context: "NldmTable::characterize",
                        detail: "no 10/90% crossings".to_string(),
                    })?,
                };
                drow.push(m.delay);
                srow.push(m.slew);
            }
            delay.push(drow);
            out_slew.push(srow);
        }
        Ok(NldmTable {
            slews,
            loads,
            delay,
            out_slew,
        })
    }

    fn locate(axis: &[f64], v: f64) -> (usize, f64) {
        if axis.len() == 1 {
            return (0, 0.0);
        }
        let mut i = axis.partition_point(|&a| a <= v);
        i = i.clamp(1, axis.len() - 1);
        let (a, b) = (axis[i - 1], axis[i]);
        let t = ((v - a) / (b - a)).clamp(-0.5, 1.5); // mild extrapolation
        (i - 1, t)
    }

    fn lookup(grid: &[Vec<f64>], si: usize, st: f64, li: usize, lt: f64) -> f64 {
        let si1 = (si + 1).min(grid.len() - 1);
        let li1 = (li + 1).min(grid[0].len() - 1);
        let a = grid[si][li] * (1.0 - lt) + grid[si][li1] * lt;
        let b = grid[si1][li] * (1.0 - lt) + grid[si1][li1] * lt;
        a * (1.0 - st) + b * st
    }

    /// Bilinear delay/slew lookup with mild extrapolation at the table
    /// edges (as timing libraries do).
    pub fn query(&self, input_slew: f64, load: f64) -> TimingMetrics {
        let (si, st) = Self::locate(&self.slews, input_slew);
        let (li, lt) = Self::locate(&self.loads, load);
        TimingMetrics {
            delay: Self::lookup(&self.delay, si, st, li, lt),
            slew: Self::lookup(&self.out_slew, si, st, li, lt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{QwmEvaluator, StageEvaluator};
    use qwm_circuit::cells;
    use qwm_device::{analytic_models, Technology};

    fn nand3_table(tech: &Technology, models: &ModelSet) -> (LogicStage, NldmTable) {
        let g = cells::nand(tech, 3, 2e-15).unwrap();
        let out = g.node_by_name("out").unwrap();
        let t = NldmTable::characterize(
            &g,
            models,
            out,
            TransitionKind::Fall,
            vec![5e-12, 20e-12, 60e-12],
            vec![2e-15, 10e-15, 30e-15],
            &QwmConfig::default(),
        )
        .unwrap();
        (g, t)
    }

    #[test]
    fn table_is_monotone_in_both_axes() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let (_g, t) = nand3_table(&tech, &models);
        // Delay grows with load at fixed slew.
        for row in &t.delay {
            assert!(row.windows(2).all(|w| w[1] > w[0]), "{row:?}");
        }
        // Output slew grows with load too.
        for row in &t.out_slew {
            assert!(row.windows(2).all(|w| w[1] > w[0]), "{row:?}");
        }
        // Delay grows (weakly) with input slew at fixed load.
        for j in 0..t.loads.len() {
            for i in 1..t.slews.len() {
                assert!(t.delay[i][j] >= t.delay[i - 1][j] * 0.98);
            }
        }
    }

    #[test]
    fn interpolated_query_matches_direct_evaluation() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let (g, t) = nand3_table(&tech, &models);
        // Query at an off-grid point and compare with a fresh QWM run.
        let (sl, cl) = (12e-12, 18e-15);
        let m_table = t.query(sl, cl);
        let mut loaded = g.clone();
        let node = loaded.node_by_name("out").unwrap();
        loaded.add_load(node, cl);
        let m_direct = QwmEvaluator::default()
            .timing(&loaded, &models, node, TransitionKind::Fall, sl)
            .unwrap();
        let derr = (m_table.delay - m_direct.delay).abs() / m_direct.delay;
        assert!(derr < 0.08, "table {:?} vs direct {:?}", m_table, m_direct);
    }

    #[test]
    fn table_query_clamps_and_extrapolates_mildly() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let (_g, t) = nand3_table(&tech, &models);
        let inside = t.query(20e-12, 10e-15);
        let below = t.query(1e-12, 1e-15);
        let above = t.query(100e-12, 50e-15);
        assert!(below.delay < inside.delay);
        assert!(above.delay > inside.delay);
        assert!(below.delay > 0.0);
    }

    #[test]
    fn characterization_validates_axes() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let g = cells::inverter(&tech, 2e-15).unwrap();
        let out = g.node_by_name("out").unwrap();
        let bad = NldmTable::characterize(
            &g,
            &models,
            out,
            TransitionKind::Fall,
            vec![],
            vec![1e-15],
            &QwmConfig::default(),
        );
        assert!(bad.is_err());
        let unsorted = NldmTable::characterize(
            &g,
            &models,
            out,
            TransitionKind::Fall,
            vec![2e-12, 1e-12],
            vec![1e-15],
            &QwmConfig::default(),
        );
        assert!(unsorted.is_err());
    }
}
