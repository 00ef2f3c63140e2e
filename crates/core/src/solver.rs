//! The per-region algebraic solve (paper Eq. (7) and §IV-B).
//!
//! Between two critical points each node current is linear in time, so
//! the region's unknowns reduce to the node voltages at the region end
//! `V′₁ … V′_K` plus the end time τ′ itself. The K current-matching
//! equations plus one region-end condition (a transistor turn-on, an
//! output level crossing, or a fixed time) close the system, which is
//! solved by Newton–Raphson.
//!
//! The Jacobian is tridiagonal in the voltages with one extra dense
//! column (∂/∂τ′) and one extra dense row (the end condition) — an
//! arrowhead matrix. We solve each Newton update with the bordered
//! (block-elimination) method: two Thomas solves plus a scalar, the same
//! O(K) trick the paper gets from the Sherman–Morrison formula. A dense
//! LU path is kept for the solver ablation bench.

use crate::chain::Chain;
use qwm_circuit::stage::{DeviceKind, LogicStage, NodeId};
use qwm_circuit::waveform::Waveform;
use qwm_device::model::{Geometry, IvEval, ModelSet, TermVoltage};
use qwm_num::matrix::Matrix;
use qwm_num::tridiag::thomas_solve_into;
use qwm_num::{NumError, Result};
use std::cell::RefCell;

/// What terminates the region being solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndCondition {
    /// Transistor element `element` (1-based chain index) reaches zero
    /// gate overdrive — the paper's critical point (Eq. (7), last row).
    TurnOn {
        /// 1-based chain element index.
        element: usize,
    },
    /// Chain node `node` (1-based) crosses `level` — closes the final
    /// regions where delay/slew points are harvested (DESIGN.md §5.1).
    Crossing {
        /// 1-based chain node index.
        node: usize,
        /// Voltage level \[V\].
        level: f64,
    },
    /// The region ends at a known time (fallback for input-driven
    /// turn-ons whose time is already determined by the gate waveform).
    FixedTime {
        /// End time \[s\].
        t: f64,
    },
}

/// Linear-solver choice for the Newton update (the §IV-B ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearSolver {
    /// Two Thomas solves + scalar elimination — O(K).
    BorderedTridiagonal,
    /// Dense LU with partial pivoting — O(K³), the comparison baseline.
    DenseLu,
}

/// Newton controls for the region solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionOptions {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Convergence tolerance on the current-matching rows \[A\].
    pub tol_current: f64,
    /// Convergence tolerance on voltage-valued end conditions \[V\].
    pub tol_condition_v: f64,
    /// Convergence tolerance on time-valued end conditions \[s\].
    pub tol_condition_t: f64,
    /// Per-iteration clamp on voltage updates \[V\].
    pub max_dv: f64,
    /// Region spans are kept above this \[s\].
    pub min_delta: f64,
    /// Linear solver for the Newton update.
    pub linear_solver: LinearSolver,
}

impl Default for RegionOptions {
    fn default() -> Self {
        RegionOptions {
            max_iterations: 48,
            tol_current: 1e-10,
            tol_condition_v: 1e-7,
            tol_condition_t: 1e-17,
            max_dv: 0.4,
            min_delta: 1e-15,
            linear_solver: LinearSolver::BorderedTridiagonal,
        }
    }
}

/// Chain state at a region boundary τ.
#[derive(Debug, Clone)]
pub struct RegionState {
    /// Boundary time τ \[s\].
    pub tau: f64,
    /// Node voltages `V₁ … V_K` at τ \[V\].
    pub v: Vec<f64>,
    /// Node currents `I₁ … I_K` at τ \[A\] (Eq. (2)).
    pub i: Vec<f64>,
    /// Frozen node capacitances for the upcoming region \[F\].
    pub caps: Vec<f64>,
}

/// A converged region.
///
/// `Default` builds an empty solution whose buffers are filled by
/// [`solve_region_into`] — callers on the hot path keep one around and
/// let the solver overwrite it, so a warm solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RegionSolution {
    /// Region end time τ′.
    pub tau_next: f64,
    /// Node voltages at τ′.
    pub v_next: Vec<f64>,
    /// Node currents at τ′ (device-consistent).
    pub i_next: Vec<f64>,
    /// The per-node current slopes α (Eq. (6) parameters).
    pub alphas: Vec<f64>,
    /// Newton iterations spent.
    pub iterations: usize,
}

impl RegionSolution {
    /// Pre-reserves the solution buffers for chains of up to `n`
    /// elements (see [`SolveScratch::reserve`]).
    pub fn reserve(&mut self, n: usize) {
        self.v_next.reserve(n);
        self.i_next.reserve(n);
        self.alphas.reserve(n);
    }
}

/// Reusable workspace for the region solve (DESIGN.md §15).
///
/// One `SolveScratch` holds every intermediate buffer a Newton region
/// solve needs — Jacobian bands, Thomas scratch, finite-difference probe
/// vectors, batched device-evaluation lanes, and the capacitance-merge
/// BFS frontier. The buffers grow to the chain length on first use and
/// are reused verbatim afterwards, so a warm [`solve_region_into`] call
/// performs zero heap allocations. The struct is cheap to construct
/// (empty vectors) and is typically kept one-per-worker-thread; it is
/// deliberately opaque — contents are an implementation detail.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Branch-current bundles `(J, ∂J/∂V_k, ∂J/∂V_{k−1}, ∂J/∂G)`,
    /// 1-based with a zero guard entry at `n + 1`.
    j: Vec<(f64, f64, f64, f64)>,
    /// Batched device-evaluation lanes (geometry + terminal voltages).
    lanes: Vec<(Geometry, TermVoltage)>,
    /// Batched device-evaluation outputs.
    lane_out: Vec<IvEval>,
    /// Current-matching residuals.
    f: Vec<f64>,
    /// Jacobian sub-diagonal.
    sub: Vec<f64>,
    /// Jacobian diagonal.
    diag: Vec<f64>,
    /// Jacobian super-diagonal.
    sup: Vec<f64>,
    /// Dense ∂F/∂τ′ column.
    tcol: Vec<f64>,
    /// Dense end-condition row.
    row: Vec<f64>,
    /// Thomas forward-elimination scratch.
    c: Vec<f64>,
    /// Bordered solve: `A⁻¹ f`.
    y: Vec<f64>,
    /// Bordered solve: `A⁻¹ tcol`.
    z: Vec<f64>,
    /// Assembled voltage update.
    dv: Vec<f64>,
    /// Finite-difference probe (+h).
    vp: Vec<f64>,
    /// Finite-difference probe (−h).
    vm: Vec<f64>,
    /// Follower-merge BFS visited set.
    visited: Vec<NodeId>,
    /// Follower-merge BFS frontier.
    frontier: Vec<NodeId>,
}

impl SolveScratch {
    /// An empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves every buffer for chains of up to `n` elements, so
    /// even the first solve on this workspace allocates nothing.
    pub fn reserve(&mut self, n: usize) {
        self.j.reserve(n + 2);
        self.lanes.reserve(n);
        self.lane_out.reserve(n);
        for b in [
            &mut self.f,
            &mut self.sub,
            &mut self.diag,
            &mut self.sup,
            &mut self.tcol,
            &mut self.row,
            &mut self.c,
            &mut self.y,
            &mut self.z,
            &mut self.dv,
            &mut self.vp,
            &mut self.vm,
        ] {
            b.reserve(n);
        }
        self.visited.reserve(n + 8);
        self.frontier.reserve(n + 8);
    }
}

thread_local! {
    /// Per-thread workspace backing the allocating [`solve_region_counted`]
    /// wrapper, so existing callers get buffer reuse without threading a
    /// scratch through every signature. Workers in the `qwm-exec` pool are
    /// plain OS threads, so this is genuinely per-worker state.
    static REGION_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Everything a region solve needs to evaluate devices along the chain.
pub struct ChainContext<'a> {
    /// The stage the chain came from (capacitance bookkeeping).
    pub stage: &'a LogicStage,
    /// The extracted chain.
    pub chain: &'a Chain,
    /// Device models.
    pub models: &'a ModelSet,
    /// Gate waveforms, aligned with `stage.inputs()`.
    pub inputs: &'a [Waveform],
    /// Fixed rail voltage at chain node 0.
    pub rail_v: f64,
}

impl ChainContext<'_> {
    /// Gate voltage of element `k` (1-based) at time `t` (0 for wires).
    pub fn gate_value(&self, k: usize, t: f64) -> f64 {
        match self.chain.elements[k - 1].input {
            Some(i) => self.inputs[i.0].value(t),
            None => 0.0,
        }
    }

    fn gate_slope(&self, k: usize, t: f64) -> f64 {
        match self.chain.elements[k - 1].input {
            Some(i) => self.inputs[i.0].slope(t),
            None => 0.0,
        }
    }

    /// Chain node voltage lookup with `v[0] = rail`.
    fn node_v(&self, v: &[f64], idx: usize) -> f64 {
        if idx == 0 {
            self.rail_v
        } else {
            v[idx - 1]
        }
    }

    /// Branch current `J_k` (element `k`, 1-based) flowing from chain
    /// node `k` toward node `k−1`, with derivatives mapped to chain
    /// coordinates: `(J, ∂J/∂V_k, ∂J/∂V_{k−1}, ∂J/∂G)`.
    ///
    /// # Errors
    ///
    /// Propagates device-model evaluation failures.
    pub fn branch_current(&self, k: usize, v: &[f64], t: f64) -> Result<(f64, f64, f64, f64)> {
        let elem = &self.chain.elements[k - 1];
        let upper = self.node_v(v, k);
        let lower = self.node_v(v, k - 1);
        let g = self.gate_value(k, t);
        let (src, snk) = if elem.upper_is_src {
            (upper, lower)
        } else {
            (lower, upper)
        };
        let tv = TermVoltage::new(g, src, snk);
        let e: IvEval = match elem.kind {
            DeviceKind::Nmos => self
                .models
                .for_polarity(qwm_device::Polarity::Nmos)
                .iv_eval(&elem.geom, tv)?,
            DeviceKind::Pmos => self
                .models
                .for_polarity(qwm_device::Polarity::Pmos)
                .iv_eval(&elem.geom, tv)?,
            DeviceKind::Wire => {
                let r = qwm_device::caps::wire_res(self.models.tech(), elem.geom.w, elem.geom.l);
                IvEval {
                    i: (tv.src - tv.snk) / r,
                    d_input: 0.0,
                    d_src: 1.0 / r,
                    d_snk: -1.0 / r,
                }
            }
        };
        if elem.upper_is_src {
            Ok((e.i, e.d_src, e.d_snk, e.d_input))
        } else {
            Ok((-e.i, -e.d_snk, -e.d_src, -e.d_input))
        }
    }

    /// Evaluates every branch current along the chain into
    /// `scratch.j[1..=n]` (same bundles as [`ChainContext::branch_current`]),
    /// batching maximal runs of same-polarity transistors through
    /// [`qwm_device::model::DeviceModel::iv_eval_batch`] so a batch-aware
    /// model (the tabular SoA kernel) amortizes its per-call bookkeeping.
    ///
    /// Bitwise-identical to `n` scalar `branch_current` calls, including
    /// the order of fault-injection checks (the batch entry point checks
    /// each lane in lane order before evaluating).
    ///
    /// # Errors
    ///
    /// Propagates device-model evaluation failures.
    fn branch_currents_into(&self, v: &[f64], t: f64, scratch: &mut SolveScratch) -> Result<()> {
        let n = self.chain.len();
        scratch.j.clear();
        scratch.j.resize(n + 2, (0.0, 0.0, 0.0, 0.0));
        let mut k = 1;
        while k <= n {
            let kind = self.chain.elements[k - 1].kind;
            let Some(polarity) = kind.polarity() else {
                // Wire: closed-form conductance, no model call to batch.
                scratch.j[k] = self.branch_current(k, v, t)?;
                k += 1;
                continue;
            };
            let run_start = k;
            while k <= n && self.chain.elements[k - 1].kind == kind {
                k += 1;
            }
            scratch.lanes.clear();
            for kk in run_start..k {
                let elem = &self.chain.elements[kk - 1];
                let upper = self.node_v(v, kk);
                let lower = self.node_v(v, kk - 1);
                let g = self.gate_value(kk, t);
                let (src, snk) = if elem.upper_is_src {
                    (upper, lower)
                } else {
                    (lower, upper)
                };
                scratch
                    .lanes
                    .push((elem.geom, TermVoltage::new(g, src, snk)));
            }
            scratch.lane_out.clear();
            scratch
                .lane_out
                .resize(scratch.lanes.len(), IvEval::default());
            self.models
                .for_polarity(polarity)
                .iv_eval_batch(&scratch.lanes, &mut scratch.lane_out)?;
            for (off, kk) in (run_start..k).enumerate() {
                let e = scratch.lane_out[off];
                scratch.j[kk] = if self.chain.elements[kk - 1].upper_is_src {
                    (e.i, e.d_src, e.d_snk, e.d_input)
                } else {
                    (-e.i, -e.d_snk, -e.d_src, -e.d_input)
                };
            }
        }
        Ok(())
    }

    /// Gate-overdrive excess of element `k` at node voltages `v`, time
    /// `t` (infinite for wires, which never gate a critical point).
    pub fn excess(&self, k: usize, v: &[f64], t: f64) -> f64 {
        let elem = &self.chain.elements[k - 1];
        if elem.kind == DeviceKind::Wire {
            return f64::INFINITY;
        }
        let upper = self.node_v(v, k);
        let lower = self.node_v(v, k - 1);
        let g = self.gate_value(k, t);
        let (src, snk) = if elem.upper_is_src {
            (upper, lower)
        } else {
            (lower, upper)
        };
        let tv = TermVoltage::new(g, src, snk);
        let model = match elem.kind {
            DeviceKind::Nmos => self.models.for_polarity(qwm_device::Polarity::Nmos),
            DeviceKind::Pmos => self.models.for_polarity(qwm_device::Polarity::Pmos),
            DeviceKind::Wire => unreachable!(),
        };
        model.turn_on_excess(tv)
    }

    /// Device-consistent node currents `I_k = J_{k+1} − J_k` (Eqs. (4),
    /// (5)) at node voltages `v` and time `t`.
    ///
    /// # Errors
    ///
    /// Propagates device-model evaluation failures.
    pub fn node_currents(&self, v: &[f64], t: f64) -> Result<Vec<f64>> {
        let k_max = self.chain.len();
        let mut j = Vec::with_capacity(k_max + 1);
        for k in 1..=k_max {
            j.push(self.branch_current(k, v, t)?.0);
        }
        let mut out = vec![0.0; k_max];
        for k in 1..=k_max {
            let upper = if k < k_max { j[k] } else { 0.0 };
            out[k - 1] = upper - j[k - 1];
        }
        Ok(out)
    }

    /// [`ChainContext::node_currents`] into a caller-provided buffer,
    /// with branch currents batched through `scratch` — the zero-alloc
    /// hot-path variant.
    ///
    /// # Errors
    ///
    /// Propagates device-model evaluation failures.
    pub fn node_currents_into(
        &self,
        v: &[f64],
        t: f64,
        scratch: &mut SolveScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let n = self.chain.len();
        self.branch_currents_into(v, t, scratch)?;
        out.clear();
        for k in 1..=n {
            let upper = if k < n { scratch.j[k + 1].0 } else { 0.0 };
            out.push(upper - scratch.j[k].0);
        }
        Ok(())
    }

    /// Node currents together with their sparsity-structured
    /// derivatives — the bundle the `r = 2` solver consumes.
    ///
    /// # Errors
    ///
    /// Propagates device-model evaluation failures.
    #[allow(clippy::needless_range_loop)] // 1-based chain indexing mirrors the paper
    pub fn node_currents_with_derivs(&self, v: &[f64], t: f64) -> Result<NodeCurrentEval> {
        let n = self.chain.len();
        let mut j = vec![(0.0, 0.0, 0.0, 0.0); n + 2];
        for k in 1..=n {
            j[k] = self.branch_current(k, v, t)?;
        }
        let mut i = vec![0.0; n];
        let mut d_sub = vec![0.0; n];
        let mut d_diag = vec![0.0; n];
        let mut d_sup = vec![0.0; n];
        let mut d_t = vec![0.0; n];
        for k in 1..=n {
            let upper = if k < n {
                j[k + 1]
            } else {
                (0.0, 0.0, 0.0, 0.0)
            };
            i[k - 1] = upper.0 - j[k].0;
            d_diag[k - 1] = upper.2 - j[k].1;
            if k < n {
                d_sup[k - 1] = upper.1;
            }
            if k >= 2 {
                d_sub[k - 1] = -j[k].2;
            }
            let g_upper = if k < n {
                self.gate_slope(k + 1, t)
            } else {
                0.0
            };
            let g_lower = self.gate_slope(k, t);
            d_t[k - 1] = upper.3 * g_upper - j[k].3 * g_lower;
        }
        Ok(NodeCurrentEval {
            i,
            d_t,
            d_sub,
            d_diag,
            d_sup,
        })
    }

    /// Frozen node capacitances at node voltages `v` (Eq. (1)), plus
    /// **follower merging**: capacitance of side nodes reachable through
    /// conducting non-chain transistors is lumped onto the chain node
    /// (the switch-level transparent-node treatment). A held-high NMOS
    /// hanging off the chain couples its far node's charge into the
    /// transient; ignoring it makes QWM optimistic on gates with
    /// conducting side branches (NAND pull-ups, AOI).
    pub fn node_caps(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.chain.len());
        let mut visited = Vec::new();
        let mut frontier = Vec::new();
        self.node_caps_core(v, &mut visited, &mut frontier, &mut out);
        out
    }

    /// [`ChainContext::node_caps`] into a caller-provided buffer, reusing
    /// the BFS bookkeeping in `scratch` — the zero-alloc hot-path variant.
    pub fn node_caps_into(&self, v: &[f64], scratch: &mut SolveScratch, out: &mut Vec<f64>) {
        self.node_caps_core(v, &mut scratch.visited, &mut scratch.frontier, out);
    }

    fn node_caps_core(
        &self,
        v: &[f64],
        visited: &mut Vec<NodeId>,
        frontier: &mut Vec<NodeId>,
        out: &mut Vec<f64>,
    ) {
        let chain_nodes = &self.chain.nodes;
        out.clear();
        for k in 1..=self.chain.len() {
            let id = self.chain.nodes[k];
            let vk = v[k - 1];
            let mut c = self.stage.node_cap(id, self.models, vk);
            // BFS through conducting side transistors.
            visited.clear();
            visited.push(id);
            frontier.clear();
            frontier.push(id);
            while let Some(at) = frontier.pop() {
                for &(e, neighbor) in self.stage.incident(at) {
                    let edge = self.stage.edge(e);
                    if visited.contains(&neighbor)
                        || chain_nodes.contains(&neighbor)
                        || neighbor == self.stage.source()
                        || neighbor == self.stage.sink()
                    {
                        continue;
                    }
                    let Some(polarity) = edge.kind.polarity() else {
                        continue; // side wires are rare; treat as cut
                    };
                    let Some(input) = edge.input else { continue };
                    // Is this side device conducting near the chain
                    // node's voltage with its settled gate value?
                    let g = self.inputs[input.0].final_value();
                    let model = self.models.for_polarity(polarity);
                    let tv = TermVoltage::new(g, vk, vk);
                    if model.turn_on_excess(tv) <= 0.0 {
                        continue;
                    }
                    visited.push(neighbor);
                    frontier.push(neighbor);
                    c += self.stage.node_cap(neighbor, self.models, vk);
                }
            }
            out.push(c);
        }
    }
}

/// Node currents plus structured derivatives (see
/// [`ChainContext::node_currents_with_derivs`]).
#[derive(Debug, Clone)]
pub struct NodeCurrentEval {
    /// Node currents `I_k` (0-based over chain nodes 1..=K).
    pub i: Vec<f64>,
    /// ∂I_k/∂t through the gate waveforms.
    pub d_t: Vec<f64>,
    d_sub: Vec<f64>,
    d_diag: Vec<f64>,
    d_sup: Vec<f64>,
}

impl NodeCurrentEval {
    /// The nonzero voltage derivatives of `I_k` (0-based `k`) as
    /// `(column, value)` pairs over the chain-voltage columns.
    pub fn deriv_triplet(&self, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(3);
        if k >= 1 {
            out.push((k - 1, self.d_sub[k]));
        }
        out.push((k, self.d_diag[k]));
        if k + 1 < self.d_diag.len() {
            out.push((k + 1, self.d_sup[k]));
        }
        out
    }
}

/// Residual of the end condition at `(v, t)`.
fn condition_residual(ctx: &ChainContext<'_>, cond: EndCondition, v: &[f64], t: f64) -> f64 {
    match cond {
        EndCondition::TurnOn { element } => ctx.excess(element, v, t),
        EndCondition::Crossing { node, level } => v[node - 1] - level,
        EndCondition::FixedTime { t: t_end } => t - t_end,
    }
}

/// Solves one region from `state` to the given end condition.
///
/// `dt_guess` seeds τ′ = τ + dt_guess. On success the returned solution
/// satisfies the current matching of Eqs. (4)–(5) at τ′ and the end
/// condition to within the configured tolerances.
///
/// # Errors
///
/// Returns [`NumError::NoConvergence`] when Newton stalls and
/// [`NumError::Singular`] when the bordered elimination degenerates
/// (e.g. a condition with no sensitivity); callers fall back to other
/// candidates or a [`EndCondition::FixedTime`] solve.
pub fn solve_region(
    ctx: &ChainContext<'_>,
    state: &RegionState,
    cond: EndCondition,
    dt_guess: f64,
    opts: &RegionOptions,
) -> Result<RegionSolution> {
    solve_region_counted(ctx, state, cond, dt_guess, opts, &mut 0)
}

/// [`solve_region`] variant that accumulates Newton iterations into
/// `spent` even when the solve fails — the honest cost accounting the
/// speedup tables use.
///
/// Delegates to [`solve_region_into`] with a per-thread workspace, so
/// the only steady-state allocations are the returned solution's three
/// vectors.
///
/// # Errors
///
/// Same contract as [`solve_region`].
pub fn solve_region_counted(
    ctx: &ChainContext<'_>,
    state: &RegionState,
    cond: EndCondition,
    dt_guess: f64,
    opts: &RegionOptions,
    spent: &mut usize,
) -> Result<RegionSolution> {
    let mut out = RegionSolution::default();
    REGION_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => solve_region_into(
            ctx,
            state,
            cond,
            dt_guess,
            opts,
            spent,
            &mut scratch,
            &mut out,
        ),
        // Re-entrant call (a model callback solving regions of its own):
        // fall back to a fresh workspace rather than panicking.
        Err(_) => {
            let mut scratch = SolveScratch::new();
            solve_region_into(
                ctx,
                state,
                cond,
                dt_guess,
                opts,
                spent,
                &mut scratch,
                &mut out,
            )
        }
    })?;
    Ok(out)
}

/// The zero-alloc region solve: identical math to [`solve_region`], but
/// every intermediate lives in `scratch` and the solution is written
/// into `out` (whose buffers are reused). A warm call — same chain
/// length as the previous one — performs no heap allocation; see the
/// `alloc_steady` integration test.
///
/// `out` is only meaningful when the call returns `Ok`.
///
/// # Errors
///
/// Same contract as [`solve_region`].
#[allow(clippy::needless_range_loop)] // 1-based chain indexing mirrors the paper's equations
#[allow(clippy::too_many_arguments)] // the explicit hot-path entry point
pub fn solve_region_into(
    ctx: &ChainContext<'_>,
    state: &RegionState,
    cond: EndCondition,
    dt_guess: f64,
    opts: &RegionOptions,
    spent: &mut usize,
    scratch: &mut SolveScratch,
    out: &mut RegionSolution,
) -> Result<()> {
    if let Some(e) = qwm_fault::check("qwm.region") {
        return Err(e);
    }
    let n = ctx.chain.len();
    debug_assert_eq!(state.v.len(), n);
    let vdd = ctx.models.tech().vdd;
    let mut t = state.tau + dt_guess.max(opts.min_delta);
    // Explicit-Euler predictor as the Newton seed. Starting from
    // v′ = v exactly would zero the ∂F/∂τ′ column (it scales with
    // v′ − v) and degenerate the bordered elimination.
    let dt0 = t - state.tau;
    let RegionSolution {
        tau_next,
        v_next,
        i_next,
        alphas,
        iterations: out_iterations,
    } = out;
    v_next.clear();
    v_next.extend(
        state
            .v
            .iter()
            .zip(&state.i)
            .zip(&state.caps)
            .map(|((&vk, &ik), &ck)| (vk + ik * dt0 / ck).clamp(-0.5, vdd + 0.5)),
    );
    let v = v_next;
    if let EndCondition::FixedTime { t: t_end } = cond {
        t = t_end;
        if t <= state.tau + opts.min_delta {
            return Err(NumError::InvalidInput {
                context: "solve_region",
                detail: "fixed end time not after region start".to_string(),
            });
        }
    }
    let mut iterations = 0;

    // Size the iteration buffers once; every entry is overwritten below
    // (`row` only at its condition-dependent slots, hence the zero fill).
    scratch.f.clear();
    scratch.f.resize(n, 0.0);
    scratch.sub.clear();
    scratch.sub.resize(n.saturating_sub(1), 0.0);
    scratch.diag.clear();
    scratch.diag.resize(n, 0.0);
    scratch.sup.clear();
    scratch.sup.resize(n.saturating_sub(1), 0.0);
    scratch.tcol.clear();
    scratch.tcol.resize(n, 0.0);
    scratch.row.clear();
    scratch.row.resize(n, 0.0);
    scratch.c.clear();
    scratch.c.resize(n, 0.0);
    scratch.y.clear();
    scratch.y.resize(n, 0.0);
    scratch.z.clear();
    scratch.z.resize(n, 0.0);

    for _ in 0..opts.max_iterations {
        iterations += 1;
        *spent += 1;
        let delta = (t - state.tau).max(opts.min_delta);

        // Branch currents and derivatives at the candidate end point
        // (batched per polarity run; 1-based in `scratch.j`, guard zero
        // at n + 1).
        ctx.branch_currents_into(v, t, scratch)?;

        // Residuals.
        for k in 1..=n {
            let i_prime =
                2.0 * state.caps[k - 1] * (v[k - 1] - state.v[k - 1]) / delta - state.i[k - 1];
            let upper_j = if k < n { scratch.j[k + 1].0 } else { 0.0 };
            scratch.f[k - 1] = i_prime - (upper_j - scratch.j[k].0);
        }
        let g_res = condition_residual(ctx, cond, v, t);

        // Convergence test (per-row tolerances).
        let f_norm = scratch.f.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let cond_ok = match cond {
            EndCondition::FixedTime { .. } => true,
            EndCondition::TurnOn { .. } | EndCondition::Crossing { .. } => {
                g_res.abs() < opts.tol_condition_v
            }
        };
        if f_norm < opts.tol_current && cond_ok {
            ctx.node_currents_into(v, t, scratch, i_next)?;
            alphas.clear();
            alphas.extend((0..n).map(|k| (i_next[k] - state.i[k]) / delta));
            *tau_next = t;
            *out_iterations = iterations;
            qwm_obs::histogram!("qwm.region.iterations", qwm_obs::ITER_BOUNDS)
                .record(iterations as u64);
            return Ok(());
        }

        // Jacobian bands over voltages.
        for k in 1..=n {
            let (_, dj_vk, dj_vkm1, dj_g) = scratch.j[k];
            let (dju_vk1, dju_vk, dju_g) = if k < n {
                (scratch.j[k + 1].1, scratch.j[k + 1].2, scratch.j[k + 1].3)
            } else {
                (0.0, 0.0, 0.0)
            };
            // F_k = I′_k − J_{k+1} + J_k.
            scratch.diag[k - 1] = 2.0 * state.caps[k - 1] / delta - dju_vk + dj_vk;
            if k >= 2 {
                scratch.sub[k - 2] = dj_vkm1;
            }
            if k < n {
                scratch.sup[k - 1] = -dju_vk1;
            }
            let dtau_dyn = -2.0 * state.caps[k - 1] * (v[k - 1] - state.v[k - 1]) / (delta * delta);
            let g_upper = if k < n { ctx.gate_slope(k + 1, t) } else { 0.0 };
            let g_lower = ctx.gate_slope(k, t);
            scratch.tcol[k - 1] = dtau_dyn - (dju_g * g_upper - dj_g * g_lower);
        }

        // Last row: ∂(condition)/∂V and ∂/∂τ′ (finite differences keep
        // this model-agnostic, matching the tabular-model spirit). The
        // condition is fixed for the whole solve, so the row's live
        // slots are the same every iteration and the zero fill above
        // covers the rest.
        let mut d_tau = 0.0;
        match cond {
            EndCondition::TurnOn { element } => {
                let h = 1e-6;
                for idx in [element.saturating_sub(1), element] {
                    if idx == 0 || idx > n {
                        continue;
                    }
                    scratch.vp.clear();
                    scratch.vp.extend_from_slice(v);
                    scratch.vp[idx - 1] += h;
                    scratch.vm.clear();
                    scratch.vm.extend_from_slice(v);
                    scratch.vm[idx - 1] -= h;
                    scratch.row[idx - 1] = (ctx.excess(element, &scratch.vp, t)
                        - ctx.excess(element, &scratch.vm, t))
                        / (2.0 * h);
                }
                let ht = 1e-15;
                d_tau =
                    (ctx.excess(element, v, t + ht) - ctx.excess(element, v, t - ht)) / (2.0 * ht);
            }
            EndCondition::Crossing { node, .. } => {
                scratch.row[node - 1] = 1.0;
            }
            EndCondition::FixedTime { .. } => {
                d_tau = 1.0;
            }
        }

        // Newton update via the chosen linear solver; the voltage update
        // lands in `scratch.dv`.
        let dt = match opts.linear_solver {
            LinearSolver::BorderedTridiagonal => {
                // One Sherman–Morrison-style bordered solve: two Thomas
                // back-solves replace a dense factorization.
                qwm_obs::counter!("qwm.solver.sherman_morrison_solves").incr();
                thomas_solve_into(
                    &scratch.sub,
                    &scratch.diag,
                    &scratch.sup,
                    &scratch.f,
                    &mut scratch.c,
                    &mut scratch.y,
                )?;
                thomas_solve_into(
                    &scratch.sub,
                    &scratch.diag,
                    &scratch.sup,
                    &scratch.tcol,
                    &mut scratch.c,
                    &mut scratch.z,
                )?;
                let ry: f64 = scratch.row.iter().zip(&scratch.y).map(|(a, b)| a * b).sum();
                let rz: f64 = scratch.row.iter().zip(&scratch.z).map(|(a, b)| a * b).sum();
                let denom = d_tau - rz;
                if !denom.is_finite() {
                    return Err(NumError::Singular {
                        index: n,
                        pivot: denom,
                    });
                }
                if denom.abs() < 1e-300 {
                    // Degenerate τ′ sensitivity (e.g. the iterate sits
                    // exactly at a conduction edge with zero currents):
                    // take a voltage-only step; the sensitivity
                    // reappears once the voltages move.
                    scratch.dv.clear();
                    scratch.dv.extend_from_slice(&scratch.y);
                    0.0
                } else {
                    let dt = (g_res - ry) / denom;
                    scratch.dv.clear();
                    scratch.dv.extend(
                        scratch
                            .y
                            .iter()
                            .zip(&scratch.z)
                            .map(|(yi, zi)| yi - dt * zi),
                    );
                    dt
                }
            }
            LinearSolver::DenseLu => {
                // The O(K³) ablation baseline — allocation-freedom is not
                // part of its contract.
                let m = n + 1;
                let mut a = Matrix::zeros(m, m)?;
                for k in 0..n {
                    a.set(k, k, scratch.diag[k]);
                    if k > 0 {
                        a.set(k, k - 1, scratch.sub[k - 1]);
                    }
                    if k + 1 < n {
                        a.set(k, k + 1, scratch.sup[k]);
                    }
                    a.set(k, n, scratch.tcol[k]);
                    a.set(n, k, scratch.row[k]);
                }
                a.set(n, n, d_tau);
                let mut rhs = scratch.f.clone();
                rhs.push(g_res);
                let sol = a.solve(&rhs)?;
                scratch.dv.clear();
                scratch.dv.extend_from_slice(&sol[..n]);
                sol[n]
            }
        };

        // Damped, clamped update.
        for k in 0..n {
            let step = scratch.dv[k].clamp(-opts.max_dv, opts.max_dv);
            v[k] = (v[k] - step).clamp(-0.5, vdd + 0.5);
        }
        if !matches!(cond, EndCondition::FixedTime { .. }) {
            // Keep τ′ on the right side of τ and damp large jumps.
            let max_dt_step = 2.0 * delta + 1e-12;
            let step = dt.clamp(-max_dt_step, max_dt_step);
            t = (t - step).max(state.tau + opts.min_delta);
        }
    }

    qwm_obs::counter!("qwm.region.failures").incr();
    Err(NumError::NoConvergence {
        method: "qwm region",
        iterations,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use qwm_circuit::cells;
    use qwm_circuit::waveform::TransitionKind;
    use qwm_device::{analytic_models, Technology};

    /// Single NMOS discharging a capacitor: the region from "on" to the
    /// 50 % crossing has a closed-form-ish sanity envelope.
    #[test]
    fn single_transistor_crossing_region() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs = vec![Waveform::constant(tech.vdd)];
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        let v0 = vec![tech.vdd];
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        assert!(i0[0] < 0.0, "discharging: {i0:?}");
        let state = RegionState {
            tau: 0.0,
            v: v0,
            i: i0,
            caps: caps.clone(),
        };
        let sol = solve_region(
            &ctx,
            &state,
            EndCondition::Crossing {
                node: 1,
                level: tech.vdd / 2.0,
            },
            10e-12,
            &RegionOptions::default(),
        )
        .unwrap();
        assert!((sol.v_next[0] - tech.vdd / 2.0).abs() < 1e-6);
        assert!(sol.tau_next > 0.0);
        // Crude envelope: C ΔV / I_peak < t < C ΔV / I_half-ish.
        let c = caps[0];
        let dv = tech.vdd / 2.0;
        let i_peak = state.i[0].abs();
        assert!(sol.tau_next > 0.5 * c * dv / i_peak);
        assert!(sol.tau_next < 10.0 * c * dv / i_peak);
    }

    #[test]
    fn dense_lu_matches_bordered_solver() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6, 2.0e-6, 1.0e-6], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::constant(tech.vdd)).collect();
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        // Mid-discharge state.
        let v0 = vec![1.0, 2.5, 3.1];
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        let state = RegionState {
            tau: 0.0,
            v: v0,
            i: i0,
            caps,
        };
        let cond = EndCondition::Crossing {
            node: 3,
            level: 2.0,
        };
        let a = solve_region(&ctx, &state, cond, 5e-12, &RegionOptions::default()).unwrap();
        let lu_opts = RegionOptions {
            linear_solver: LinearSolver::DenseLu,
            ..RegionOptions::default()
        };
        let b = solve_region(&ctx, &state, cond, 5e-12, &lu_opts).unwrap();
        assert!((a.tau_next - b.tau_next).abs() < 1e-15 + 1e-6 * a.tau_next);
        for (x, y) in a.v_next.iter().zip(&b.v_next) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_time_region_advances_state() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6, 1.5e-6], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs: Vec<Waveform> = (0..2).map(|_| Waveform::constant(tech.vdd)).collect();
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        let v0 = vec![2.0, 3.3];
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        let state = RegionState {
            tau: 0.0,
            v: v0.clone(),
            i: i0,
            caps,
        };
        let sol = solve_region(
            &ctx,
            &state,
            EndCondition::FixedTime { t: 20e-12 },
            0.0,
            &RegionOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.tau_next, 20e-12);
        // Both nodes moved downward.
        assert!(sol.v_next[0] < v0[0]);
        assert!(sol.v_next[1] <= v0[1] + 1e-9);
        // Bad fixed time rejected.
        assert!(solve_region(
            &ctx,
            &state,
            EndCondition::FixedTime { t: -1.0 },
            0.0,
            &RegionOptions::default()
        )
        .is_err());
    }

    #[test]
    fn turn_on_condition_node_driven() {
        // Two-stack: M2's turn-on is driven by node 1 falling.
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6, 1.5e-6], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs: Vec<Waveform> = (0..2).map(|_| Waveform::constant(tech.vdd)).collect();
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        // Start with both nodes precharged; M1 on, M2 off (V1 = Vdd).
        let v0 = vec![tech.vdd, tech.vdd];
        assert!(ctx.excess(1, &v0, 0.0) > 0.0, "M1 on");
        assert!(ctx.excess(2, &v0, 0.0) < 0.0, "M2 off");
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        let state = RegionState {
            tau: 0.0,
            v: v0,
            i: i0,
            caps,
        };
        let sol = solve_region(
            &ctx,
            &state,
            EndCondition::TurnOn { element: 2 },
            5e-12,
            &RegionOptions::default(),
        )
        .unwrap();
        // At τ′, M2's overdrive is ~zero and node 1 has fallen to
        // ~Vdd − Vt(body).
        let ex = ctx.excess(2, &sol.v_next, sol.tau_next);
        assert!(ex.abs() < 1e-5, "excess {ex}");
        assert!(sol.v_next[0] < tech.vdd - 0.5);
        assert!(sol.v_next[0] > 1.0);
        // Output node hasn't moved (M2 was off).
        assert!((sol.v_next[1] - tech.vdd).abs() < 0.05);
    }

    /// Reusing one `SolveScratch`/`RegionSolution` pair across repeated
    /// solves — including after a *different* end condition dirtied the
    /// buffers — must reproduce the allocating `solve_region` to the
    /// last bit. This is the whole determinism contract of the
    /// workspace path (DESIGN.md §15).
    #[test]
    fn reused_scratch_is_bitwise_identical_to_fresh() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let stage = cells::nmos_stack(&tech, &[1.5e-6, 2.0e-6, 1.0e-6], 20e-15).unwrap();
        let out = stage.node_by_name("out").unwrap();
        let chain = Chain::extract(&stage, out, TransitionKind::Fall).unwrap();
        let inputs: Vec<Waveform> = (0..3).map(|_| Waveform::constant(tech.vdd)).collect();
        let ctx = ChainContext {
            stage: &stage,
            chain: &chain,
            models: &models,
            inputs: &inputs,
            rail_v: 0.0,
        };
        let v0 = vec![1.0, 2.5, 3.1];
        let caps = ctx.node_caps(&v0);
        let i0 = ctx.node_currents(&v0, 0.0).unwrap();
        let state = RegionState {
            tau: 0.0,
            v: v0,
            i: i0,
            caps,
        };
        let cond = EndCondition::Crossing {
            node: 3,
            level: 2.0,
        };
        let opts = RegionOptions::default();
        let fresh = solve_region(&ctx, &state, cond, 5e-12, &opts).unwrap();

        let assert_same = |sol: &RegionSolution| {
            assert_eq!(sol.tau_next.to_bits(), fresh.tau_next.to_bits());
            assert_eq!(sol.iterations, fresh.iterations);
            for (got, want) in [
                (&sol.v_next, &fresh.v_next),
                (&sol.i_next, &fresh.i_next),
                (&sol.alphas, &fresh.alphas),
            ] {
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        };

        let mut scratch = SolveScratch::new();
        let mut sol = RegionSolution::default();
        let mut spent = 0usize;
        for _ in 0..3 {
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
            .unwrap();
            assert_same(&sol);
        }
        // Dirty every buffer with a different condition, then re-solve.
        solve_region_into(
            &ctx,
            &state,
            EndCondition::FixedTime { t: 3e-12 },
            0.0,
            &opts,
            &mut spent,
            &mut scratch,
            &mut sol,
        )
        .unwrap();
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
        .unwrap();
        assert_same(&sol);
    }
}
