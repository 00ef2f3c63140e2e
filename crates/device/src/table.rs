//! The compressed tabular device model (paper §V-A).
//!
//! A direct table of Ids over (Vg, Vs, Vd) would be accurate but huge, so
//! the paper sweeps `Vs` and `Vg` from 0 to 3.3 V at 0.1 V pitch and, at
//! each grid point, curve-fits the dependence on `Vd`:
//!
//! * a **quadratic** in the triode region (`0 ≤ Vds < Vdsat`),
//! * a **linear** function in the saturation region (`Vds ≥ Vdsat`),
//!
//! storing 7 parameters per point — the five fit coefficients plus the
//! threshold and saturation voltages. Queries off the grid interpolate
//! bilinearly from the four neighbours; the fit coefficients also give
//! `∂Ids/∂Vd` and `∂Ids/∂Vs` "very fast", which is what the QWM Jacobian
//! consumes.
//!
//! Here the characterization source is the analytic model of
//! [`crate::mosfet`] (standing in for the paper's HSPICE/BSIM3 sweeps —
//! see DESIGN.md §2). Note the triode region of the analytic model is
//! slightly *cubic* (channel-length modulation), so the quadratic fit is
//! genuinely approximate, exactly like the paper's fits of BSIM3 data.

use crate::caps;
use crate::model::{DeviceModel, Geometry, IvEval, Polarity, TermVoltage};
use crate::mosfet::ids_core;
use crate::tech::Technology;
use qwm_num::polyfit::polyfit;
use qwm_num::{NumError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide count of full grid characterizations (see
/// [`TableModel::characterization_count`]). Always-on (plain atomic,
/// not a `qwm-obs` counter) so warm-restart tests can assert "zero
/// re-characterizations" regardless of whether `QWM_OBS` is set.
static CHARACTERIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cache of characterized tables, keyed by the full
/// `(technology, polarity, step)` identity. [`crate::tabular_models_cached`]
/// consults it before sweeping, and a store-backed server installs
/// restored tables here on boot so characterization never re-runs for a
/// technology it already paid for.
fn table_registry() -> &'static Mutex<Vec<TableModel>> {
    static REG: OnceLock<Mutex<Vec<TableModel>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn table_matches(t: &TableModel, tech: &Technology, polarity: Polarity, step: f64) -> bool {
    t.polarity == polarity && t.step.to_bits() == step.to_bits() && t.tech == *tech
}

/// Installs a table into the process-wide cache, replacing any entry
/// with the same technology, polarity and grid pitch. The cache is
/// append-mostly and tiny (one entry per characterized corner ×
/// polarity), so lookup is a linear scan.
pub fn install_table(t: TableModel) {
    let mut reg = table_registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = reg
        .iter_mut()
        .find(|c| table_matches(c, &t.tech, t.polarity, t.step))
    {
        *slot = t;
    } else {
        reg.push(t);
    }
}

/// Looks up a cached table for exactly this technology, polarity and
/// grid pitch (`step` compares bitwise — the cache never substitutes a
/// "close" table).
pub fn cached_table(tech: &Technology, polarity: Polarity, step: f64) -> Option<TableModel> {
    table_registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .find(|t| table_matches(t, tech, polarity, step))
        .cloned()
}

/// Every cached table, in installation order — what a store-backed
/// server persists after a commit.
pub fn cached_tables() -> Vec<TableModel> {
    table_registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// The 7 stored parameters at one (Vs, Vg) grid point.
///
/// Currents are per unit W/L; `vds` below is the local drain-source
/// voltage (`Vd − Vs`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitPoint {
    /// Triode quadratic: `i = t2·vds² + t1·vds + t0` on `[0, vdsat)`.
    pub t0: f64,
    /// Linear triode coefficient.
    pub t1: f64,
    /// Quadratic triode coefficient.
    pub t2: f64,
    /// Saturation linear: `i = s1·vds + s0` on `[vdsat, ∞)`.
    pub s0: f64,
    /// Saturation slope (channel-length modulation).
    pub s1: f64,
    /// Effective threshold voltage at this (Vs, Vg) \[V\].
    pub vth: f64,
    /// Saturation voltage at this (Vs, Vg) \[V\].
    pub vdsat: f64,
}

impl FitPoint {
    /// Evaluates the piecewise fit at local `vds ≥ 0` and returns
    /// `(i, ∂i/∂vds)`.
    pub fn eval(&self, vds: f64) -> (f64, f64) {
        if self.vdsat <= 0.0 {
            return (0.0, 0.0);
        }
        if vds < self.vdsat {
            (
                (self.t2 * vds + self.t1) * vds + self.t0,
                2.0 * self.t2 * vds + self.t1,
            )
        } else {
            (self.s1 * vds + self.s0, self.s1)
        }
    }

    /// Branch-free form of [`FitPoint::eval`]: both region polynomials
    /// are computed and the result selected by comparison, which lets
    /// the batched lookup kernel autovectorize across lanes. Relies on
    /// the characterization invariant that a cutoff point (`vdsat ≤ 0`)
    /// stores all-zero fit coefficients, so the saturation arm already
    /// yields the scalar path's `(0.0, 0.0)` — each arm's arithmetic is
    /// unchanged, making the select bitwise-identical to `eval`.
    #[inline]
    fn eval_select(&self, vds: f64) -> (f64, f64) {
        let tri_i = (self.t2 * vds + self.t1) * vds + self.t0;
        let tri_d = 2.0 * self.t2 * vds + self.t1;
        let sat_i = self.s1 * vds + self.s0;
        let sat_d = self.s1;
        let triode = vds < self.vdsat;
        (
            if triode { tri_i } else { sat_i },
            if triode { tri_d } else { sat_d },
        )
    }
}

/// Samples, fit curves and residuals for one characterized grid point —
/// the data behind the paper's Fig. 8.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Source voltage of the characterized point \[V\].
    pub vs: f64,
    /// Gate voltage of the characterized point \[V\].
    pub vg: f64,
    /// Sampled `(vds, ids)` pairs from the reference model.
    pub samples: Vec<(f64, f64)>,
    /// The stored 7-parameter fit.
    pub fit: FitPoint,
    /// RMS residual of the fit over the samples \[A\].
    pub rms_error: f64,
    /// Maximum absolute residual \[A\].
    pub max_error: f64,
}

/// The characterized tabular model for one polarity.
#[derive(Debug, Clone)]
pub struct TableModel {
    tech: Technology,
    polarity: Polarity,
    step: f64,
    n: usize, // grid points per axis: vs index * n + vg index
    points: Vec<FitPoint>,
}

impl TableModel {
    /// Characterizes the analytic model over a `(Vs, Vg)` grid with the
    /// given pitch (the paper uses 0.1 V) and `n_vd` drain samples per
    /// region fit.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a non-positive or
    /// larger-than-supply pitch.
    pub fn characterize(tech: Technology, polarity: Polarity, step: f64) -> Result<Self> {
        if step <= 0.0 || step > tech.vdd {
            return Err(NumError::InvalidInput {
                context: "TableModel::characterize",
                detail: format!("grid step {step}"),
            });
        }
        CHARACTERIZATIONS.fetch_add(1, Ordering::Relaxed);
        qwm_obs::counter!("device.table.characterizations").incr();
        let n = (tech.vdd / step).round() as usize + 1;
        let (kp, vt0) = match polarity {
            Polarity::Nmos => (tech.kp_n, tech.vt0_n),
            Polarity::Pmos => (tech.kp_p, tech.vt0_p),
        };
        let mut points = Vec::with_capacity(n * n);
        for is in 0..n {
            let vs = is as f64 * step;
            for ig in 0..n {
                let vg = ig as f64 * step;
                points.push(fit_point(&tech, kp, vt0, vs, vg, 24)?);
            }
        }
        Ok(TableModel {
            tech,
            polarity,
            step,
            n,
            points,
        })
    }

    /// Characterizes with the paper's defaults: 0.1 V grid pitch.
    ///
    /// # Errors
    ///
    /// See [`TableModel::characterize`].
    pub fn with_defaults(tech: Technology, polarity: Polarity) -> Result<Self> {
        Self::characterize(tech, polarity, 0.1)
    }

    /// Rebuilds a table from previously characterized parts (e.g. a
    /// `qwm-store` device-table record) **without** re-running the
    /// grid sweeps — the whole point of persisting tables. The fits
    /// are taken as-is, so a table restored from the same technology,
    /// polarity and step is bitwise-identical to the one that was
    /// stored.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a bad pitch (as in
    /// [`TableModel::characterize`]) or a point count that does not
    /// match the grid implied by `step`.
    pub fn from_parts(
        tech: Technology,
        polarity: Polarity,
        step: f64,
        points: Vec<FitPoint>,
    ) -> Result<Self> {
        if step <= 0.0 || step > tech.vdd {
            return Err(NumError::InvalidInput {
                context: "TableModel::from_parts",
                detail: format!("grid step {step}"),
            });
        }
        let n = (tech.vdd / step).round() as usize + 1;
        if points.len() != n * n {
            return Err(NumError::InvalidInput {
                context: "TableModel::from_parts",
                detail: format!("{} fit points for a {n}×{n} grid", points.len()),
            });
        }
        Ok(TableModel {
            tech,
            polarity,
            step,
            n,
            points,
        })
    }

    /// Process-wide count of full grid characterizations performed by
    /// [`TableModel::characterize`] since process start. Restoring via
    /// [`TableModel::from_parts`] does not count — which is exactly
    /// what lets a warm-restart test assert that a store-backed boot
    /// re-characterized nothing.
    pub fn characterization_count() -> u64 {
        CHARACTERIZATIONS.load(Ordering::Relaxed)
    }

    /// The characterized technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The stored per-grid-point fits, row-major (`vs` index × n +
    /// `vg` index).
    pub fn points(&self) -> &[FitPoint] {
        &self.points
    }

    /// Number of (Vs, Vg) grid points.
    pub fn grid_points(&self) -> usize {
        self.points.len()
    }

    /// Grid pitch \[V\].
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Device polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The stored fit at grid indices `(is, ig)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn fit_at(&self, is: usize, ig: usize) -> &FitPoint {
        assert!(is < self.n && ig < self.n, "grid index out of range");
        &self.points[is * self.n + ig]
    }

    /// Regenerates the Fig.-8-style fit report for an arbitrary `(vs, vg)`
    /// point (re-sampled from the analytic reference).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn fit_report(&self, vs: f64, vg: f64) -> Result<FitReport> {
        let (kp, vt0) = match self.polarity {
            Polarity::Nmos => (self.tech.kp_n, self.tech.vt0_n),
            Polarity::Pmos => (self.tech.kp_p, self.tech.vt0_p),
        };
        let fit = fit_point(&self.tech, kp, vt0, vs, vg, 24)?;
        let mut samples = Vec::new();
        let n_samples = 67;
        let mut max_error: f64 = 0.0;
        let mut ss = 0.0;
        for i in 0..n_samples {
            let vds = self.tech.vdd * i as f64 / (n_samples - 1) as f64;
            let i_ref = ids_core(&self.tech, kp, vt0, vg - vs, vds, vs).i;
            let (i_fit, _) = fit.eval(vds);
            let e = i_fit - i_ref;
            max_error = max_error.max(e.abs());
            ss += e * e;
            samples.push((vds, i_ref));
        }
        Ok(FitReport {
            vs,
            vg,
            samples,
            fit,
            rms_error: (ss / n_samples as f64).sqrt(),
            max_error,
        })
    }

    /// Clamped cell index and in-cell fraction along one grid axis.
    /// `min(n − 2)` replaces the historical `if i >= n − 1` branch with
    /// an identical-result select.
    #[inline]
    fn locate(&self, v: f64) -> (usize, f64) {
        let n = self.n;
        let u = (v / self.step).clamp(0.0, (n - 1) as f64);
        let i = (u.floor() as usize).min(n - 2);
        (i, u - i as f64)
    }

    /// Forward-frame query: current per unit W/L and partials for
    /// normalized voltages `(vg, vs, vd)` with `vd ≥ vs`, bilinearly
    /// blended from the four neighbouring grid fits. Shared by the
    /// scalar and batched entry points so both produce bitwise-identical
    /// results; bookkeeping (lookup counter, trace attribution) lives in
    /// the callers.
    #[inline]
    fn forward_core(&self, vg: f64, vs: f64, vd: f64) -> (f64, f64, f64, f64) {
        let n = self.n;
        let (is, ts) = self.locate(vs);
        let (ig, tg) = self.locate(vg);
        let vds = (vd - vs).max(0.0);

        // Corner fits evaluated at the *query's* local vds.
        let p00 = self.points[is * n + ig].eval_select(vds);
        let p10 = self.points[(is + 1) * n + ig].eval_select(vds);
        let p01 = self.points[is * n + ig + 1].eval_select(vds);
        let p11 = self.points[(is + 1) * n + ig + 1].eval_select(vds);

        let w00 = (1.0 - ts) * (1.0 - tg);
        let w10 = ts * (1.0 - tg);
        let w01 = (1.0 - ts) * tg;
        let w11 = ts * tg;

        let i = w00 * p00.0 + w10 * p10.0 + w01 * p01.0 + w11 * p11.0;
        let d_vds = w00 * p00.1 + w10 * p10.1 + w01 * p01.1 + w11 * p11.1;
        // Exact derivatives of the bilinear interpolant along the axes.
        let d_vs_axis = ((p10.0 - p00.0) * (1.0 - tg) + (p11.0 - p01.0) * tg) / self.step;
        let d_vg_axis = ((p01.0 - p00.0) * (1.0 - ts) + (p11.0 - p10.0) * ts) / self.step;
        (i, d_vg_axis, d_vs_axis, d_vds)
    }

    /// Batched SoA forward queries: `out[k]` receives the forward-frame
    /// result `(i, ∂i/∂vg, ∂i/∂vs_axis, ∂i/∂vds)` for lane `k`'s
    /// normalized `(vg, vs, vd)`. Lanes are independent and evaluated
    /// branch-free (select-based region pick, clamped cell index), so
    /// the loop autovectorizes when neighbouring lanes land in the same
    /// `(is, ig)` cell — the corner-sweep case where N corners query the
    /// same transistor back-to-back. The lookup counter and trace
    /// attribution are amortized to one update per batch; results are
    /// bitwise-identical to N scalar forward queries.
    ///
    /// Only the first `min(queries.len(), out.len())` lanes are written.
    pub fn forward_batch(&self, queries: &[(f64, f64, f64)], out: &mut [(f64, f64, f64, f64)]) {
        let n = queries.len().min(out.len());
        if n == 0 {
            return;
        }
        qwm_obs::counter!("device.table.lookups").add(n as u64);
        let _t = qwm_obs::trace::time_lookup();
        for (q, o) in queries[..n].iter().zip(&mut out[..n]) {
            *o = self.forward_core(q.0, q.1, q.2);
        }
    }

    /// Node-level evaluation in the normalized (NMOS-shaped) frame.
    /// Bookkeeping-free: callers account for the lookup (scalar
    /// `iv_eval` per call, `iv_eval_batch` once per batch).
    fn eval_normalized(&self, tv: TermVoltage, wl: f64) -> IvEval {
        if tv.src >= tv.snk {
            let (i, d_vg, d_vs_ax, d_vds) = self.forward_core(tv.input, tv.snk, tv.src);
            IvEval {
                i: wl * i,
                d_input: wl * d_vg,
                d_src: wl * d_vds,
                d_snk: wl * (d_vs_ax - d_vds),
            }
        } else {
            let (i, d_vg, d_vs_ax, d_vds) = self.forward_core(tv.input, tv.src, tv.snk);
            IvEval {
                i: -wl * i,
                d_input: -wl * d_vg,
                d_snk: -wl * d_vds,
                d_src: -wl * (d_vs_ax - d_vds),
            }
        }
    }
}

/// Builds the 7-parameter fit for one (vs, vg) grid point by sampling the
/// analytic core and least-squares fitting each region.
fn fit_point(
    tech: &Technology,
    kp: f64,
    vt0: f64,
    vs: f64,
    vg: f64,
    samples_per_region: usize,
) -> Result<FitPoint> {
    let vgs = vg - vs;
    let vsb = vs;
    let vth = tech.vt_body(vt0, vsb);
    let vdsat = (vgs - vth).max(0.0);
    if vdsat <= 0.0 {
        return Ok(FitPoint {
            vth,
            ..FitPoint::default()
        });
    }
    let sample = |vds: f64| ids_core(tech, kp, vt0, vgs, vds, vsb).i;

    // Triode fit on [0, vdsat].
    let m = samples_per_region.max(4);
    let mut xs = Vec::with_capacity(m);
    let mut ys = Vec::with_capacity(m);
    for i in 0..m {
        let vds = vdsat * i as f64 / (m - 1) as f64;
        xs.push(vds);
        ys.push(sample(vds));
    }
    let tri = polyfit(&xs, &ys, 2)?;

    // Saturation fit on [vdsat, max(vdd, vdsat + 0.5)].
    let hi = tech.vdd.max(vdsat + 0.5);
    xs.clear();
    ys.clear();
    for i in 0..m {
        let vds = vdsat + (hi - vdsat) * i as f64 / (m - 1) as f64;
        xs.push(vds);
        ys.push(sample(vds));
    }
    let sat = polyfit(&xs, &ys, 1)?;

    // Re-express both polynomials around vds = 0.
    let c = tri.center();
    let (a0, a1, a2) = (tri.coeffs()[0], tri.coeffs()[1], tri.coeffs()[2]);
    let t0 = a0 - a1 * c + a2 * c * c;
    let t1 = a1 - 2.0 * a2 * c;
    let t2 = a2;
    let cs = sat.center();
    let (b0, b1) = (sat.coeffs()[0], sat.coeffs()[1]);
    Ok(FitPoint {
        t0,
        t1,
        t2,
        s0: b0 - b1 * cs,
        s1: b1,
        vth,
        vdsat,
    })
}

impl DeviceModel for TableModel {
    fn tech(&self) -> &Technology {
        &self.tech
    }

    fn iv_eval(&self, geom: &Geometry, tv: TermVoltage) -> Result<IvEval> {
        if let Some(e) = qwm_fault::check("device.table") {
            return Err(e);
        }
        qwm_obs::counter!("device.table.lookups").incr();
        // Attributes this lookup's wall time to the enclosing traced
        // arc; a single relaxed load when tracing is off.
        let _t = qwm_obs::trace::time_lookup();
        let wl = geom.w / geom.l;
        match self.polarity {
            Polarity::Nmos => Ok(self.eval_normalized(tv, wl)),
            Polarity::Pmos => {
                let vdd = self.tech.vdd;
                let m = TermVoltage::new(vdd - tv.input, vdd - tv.src, vdd - tv.snk);
                let e = self.eval_normalized(m, wl);
                Ok(IvEval {
                    i: -e.i,
                    d_input: e.d_input,
                    d_src: e.d_src,
                    d_snk: e.d_snk,
                })
            }
        }
    }

    /// SoA batch evaluation. Fault-injection checks run first, one per
    /// lane in lane order — the same count and stream order as N scalar
    /// `iv_eval` calls — then all lanes evaluate through the shared
    /// branch-free core. Bitwise-identical to the scalar path.
    fn iv_eval_batch(&self, lanes: &[(Geometry, TermVoltage)], out: &mut [IvEval]) -> Result<()> {
        let n = lanes.len().min(out.len());
        if n == 0 {
            return Ok(());
        }
        for _ in 0..n {
            if let Some(e) = qwm_fault::check("device.table") {
                return Err(e);
            }
        }
        qwm_obs::counter!("device.table.lookups").add(n as u64);
        let _t = qwm_obs::trace::time_lookup();
        let vdd = self.tech.vdd;
        for (lane, o) in lanes[..n].iter().zip(&mut out[..n]) {
            let (geom, tv) = (&lane.0, lane.1);
            let wl = geom.w / geom.l;
            *o = match self.polarity {
                Polarity::Nmos => self.eval_normalized(tv, wl),
                Polarity::Pmos => {
                    let m = TermVoltage::new(vdd - tv.input, vdd - tv.src, vdd - tv.snk);
                    let e = self.eval_normalized(m, wl);
                    IvEval {
                        i: -e.i,
                        d_input: e.d_input,
                        d_src: e.d_src,
                        d_snk: e.d_snk,
                    }
                }
            };
        }
        Ok(())
    }

    fn threshold(&self, tv: TermVoltage) -> f64 {
        // Interpolate the stored vth along the source axis.
        let vs_norm = match self.polarity {
            Polarity::Nmos => tv.src.min(tv.snk),
            Polarity::Pmos => self.tech.vdd - tv.src.max(tv.snk),
        };
        let n = self.n;
        let u = (vs_norm / self.step).clamp(0.0, (n - 1) as f64);
        let mut i = u.floor() as usize;
        if i >= n - 1 {
            i = n - 2;
        }
        let t = u - i as f64;
        // vth is independent of vg in this model; read column 0.
        let lo = self.points[i * n].vth;
        let hi = self.points[(i + 1) * n].vth;
        lo * (1.0 - t) + hi * t
    }

    fn turn_on_excess(&self, tv: TermVoltage) -> f64 {
        match self.polarity {
            Polarity::Nmos => tv.input - tv.src.min(tv.snk) - self.threshold(tv),
            Polarity::Pmos => tv.src.max(tv.snk) - tv.input - self.threshold(tv),
        }
    }

    fn vdsat(&self, tv: TermVoltage) -> f64 {
        self.turn_on_excess(tv).max(0.0)
    }

    fn src_cap(&self, geom: &Geometry, v: f64) -> f64 {
        caps::junction_cap(
            &self.tech,
            self.polarity,
            geom.src_area(&self.tech),
            geom.src_perim(&self.tech),
            v,
        ) + caps::channel_side_cap(&self.tech, geom)
    }

    fn snk_cap(&self, geom: &Geometry, v: f64) -> f64 {
        caps::junction_cap(
            &self.tech,
            self.polarity,
            geom.snk_area(&self.tech),
            geom.snk_perim(&self.tech),
            v,
        ) + caps::channel_side_cap(&self.tech, geom)
    }

    fn input_cap(&self, geom: &Geometry) -> f64 {
        caps::gate_cap(&self.tech, geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Mosfet;

    fn table(p: Polarity) -> TableModel {
        TableModel::with_defaults(Technology::cmosp35(), p).unwrap()
    }

    #[test]
    fn grid_size_matches_paper_pitch() {
        let t = table(Polarity::Nmos);
        // 0..=3.3 at 0.1 V: 34 points per axis.
        assert_eq!(t.grid_points(), 34 * 34);
        assert_eq!(t.step(), 0.1);
        assert_eq!(t.polarity(), Polarity::Nmos);
    }

    #[test]
    fn table_tracks_analytic_model_on_grid() {
        let tech = Technology::cmosp35();
        let t = table(Polarity::Nmos);
        let a = Mosfet::new(tech.clone(), Polarity::Nmos);
        let g = Geometry::new(1e-6, 0.35e-6);
        // On-grid (vs, vg) with various vd: fit error only (no interpolation).
        for &(vg, vs, vd) in &[
            (3.3, 0.0, 3.3),
            (3.3, 0.0, 0.5),
            (2.0, 1.0, 3.0),
            (1.5, 0.5, 1.0),
        ] {
            let tv = TermVoltage::new(vg, vd, vs);
            let it = t.iv(&g, tv).unwrap();
            let ia = a.iv(&g, tv).unwrap();
            let denom = ia.abs().max(1e-6);
            assert!(
                (it - ia).abs() / denom < 0.03,
                "({vg},{vs},{vd}): table {it} vs analytic {ia}"
            );
        }
    }

    #[test]
    fn table_interpolates_off_grid() {
        let tech = Technology::cmosp35();
        let t = table(Polarity::Nmos);
        let a = Mosfet::new(tech, Polarity::Nmos);
        let g = Geometry::new(2e-6, 0.35e-6);
        for &(vg, vs, vd) in &[(3.17, 0.07, 2.71), (2.55, 1.23, 2.9), (1.87, 0.33, 0.91)] {
            let tv = TermVoltage::new(vg, vd, vs);
            let it = t.iv(&g, tv).unwrap();
            let ia = a.iv(&g, tv).unwrap();
            let denom = ia.abs().max(1e-5);
            assert!(
                (it - ia).abs() / denom < 0.08,
                "({vg},{vs},{vd}): table {it} vs analytic {ia}"
            );
        }
    }

    #[test]
    fn cutoff_region_is_zero() {
        let t = table(Polarity::Nmos);
        let g = Geometry::new(1e-6, 0.35e-6);
        let i = t.iv(&g, TermVoltage::new(0.2, 3.3, 0.0)).unwrap();
        assert_eq!(i, 0.0);
    }

    #[test]
    fn antisymmetry_under_terminal_swap() {
        let t = table(Polarity::Nmos);
        let g = Geometry::new(1e-6, 0.35e-6);
        let a = t.iv(&g, TermVoltage::new(3.3, 2.2, 0.4)).unwrap();
        let b = t.iv(&g, TermVoltage::new(3.3, 0.4, 2.2)).unwrap();
        assert!((a + b).abs() < 1e-18);
    }

    #[test]
    fn pmos_table_matches_pmos_analytic() {
        let tech = Technology::cmosp35();
        let t = table(Polarity::Pmos);
        let a = Mosfet::new(tech, Polarity::Pmos);
        let g = Geometry::new(2e-6, 0.35e-6);
        for &(vg, vs, vd) in &[(0.0, 3.3, 0.0), (0.0, 3.3, 2.0), (1.0, 2.8, 0.7)] {
            let tv = TermVoltage::new(vg, vs, vd);
            let it = t.iv(&g, tv).unwrap();
            let ia = a.iv(&g, tv).unwrap();
            let denom = ia.abs().max(1e-5);
            assert!(
                (it - ia).abs() / denom < 0.08,
                "({vg},{vs},{vd}): {it} vs {ia}"
            );
        }
    }

    #[test]
    fn derivatives_match_finite_differences_of_table() {
        let t = table(Polarity::Nmos);
        let g = Geometry::new(1e-6, 0.35e-6);
        let h = 1e-6;
        // Inside one grid cell and safely in saturation for all four
        // corner fits, where the interpolant is smooth.
        let (vg, vs, vd) = (3.04, 0.04, 3.21);
        let f = |vg: f64, vs: f64, vd: f64| t.iv(&g, TermVoltage::new(vg, vd, vs)).unwrap();
        let e = t.iv_eval(&g, TermVoltage::new(vg, vd, vs)).unwrap();
        let fd_g = (f(vg + h, vs, vd) - f(vg - h, vs, vd)) / (2.0 * h);
        let fd_d = (f(vg, vs, vd + h) - f(vg, vs, vd - h)) / (2.0 * h);
        let fd_s = (f(vg, vs + h, vd) - f(vg, vs - h, vd)) / (2.0 * h);
        let tol = 1e-4 * e.i.abs().max(1e-9); // derivatives are A/V scale
        assert!((e.d_input - fd_g).abs() < tol, "{} vs {fd_g}", e.d_input);
        assert!((e.d_src - fd_d).abs() < tol, "{} vs {fd_d}", e.d_src);
        assert!((e.d_snk - fd_s).abs() < tol, "{} vs {fd_s}", e.d_snk);
    }

    #[test]
    fn fit_report_residuals_are_small() {
        let t = table(Polarity::Nmos);
        let r = t.fit_report(0.0, 3.3).unwrap();
        assert!(!r.samples.is_empty());
        let peak = r.samples.iter().map(|s| s.1.abs()).fold(0.0_f64, f64::max);
        assert!(
            r.rms_error < 0.02 * peak,
            "rms {} vs peak {peak}",
            r.rms_error
        );
        assert!(r.max_error < 0.05 * peak);
        assert!(r.fit.vdsat > 0.0);
    }

    #[test]
    fn threshold_interpolates_body_effect() {
        let tech = Technology::cmosp35();
        let t = table(Polarity::Nmos);
        let tv0 = TermVoltage::new(3.3, 3.3, 0.0);
        assert!((t.threshold(tv0) - tech.vt0_n).abs() < 1e-9);
        let tv1 = TermVoltage::new(3.3, 3.3, 1.05);
        let want = tech.vt_body(tech.vt0_n, 1.05);
        assert!((t.threshold(tv1) - want).abs() < 0.01);
        assert!(t.turn_on_excess(tv1) > 0.0);
    }

    /// Property test: the batched SoA kernel is bitwise-identical to N
    /// scalar evaluations, across both polarities, both terminal
    /// orderings, cutoff/triode/saturation regions and off-grid points.
    #[test]
    fn forward_batch_bitwise_matches_scalar() {
        use qwm_num::rng::Rng64;
        let vdd = Technology::cmosp35().vdd;
        let mut rng = Rng64::seed_from_u64(0x0bad_cafe_f00d_0001);
        for polarity in [Polarity::Nmos, Polarity::Pmos] {
            let t = table(polarity);
            // Raw normalized-frame queries against forward_batch.
            let queries: Vec<(f64, f64, f64)> = (0..257)
                .map(|_| {
                    let vg = rng.unit() * (vdd + 0.4) - 0.2;
                    let vs = rng.unit() * (vdd + 0.4) - 0.2;
                    let vd = vs + rng.unit() * (vdd - vs.min(vdd));
                    (vg, vs, vd)
                })
                .collect();
            let mut out = vec![(0.0, 0.0, 0.0, 0.0); queries.len()];
            t.forward_batch(&queries, &mut out);
            for (q, o) in queries.iter().zip(&out) {
                let want = t.forward_core(q.0, q.1, q.2);
                assert_eq!(o.0.to_bits(), want.0.to_bits(), "i at {q:?}");
                assert_eq!(o.1.to_bits(), want.1.to_bits(), "d_vg at {q:?}");
                assert_eq!(o.2.to_bits(), want.2.to_bits(), "d_vs at {q:?}");
                assert_eq!(o.3.to_bits(), want.3.to_bits(), "d_vds at {q:?}");
            }

            // Device-level lanes against the scalar trait path.
            let lanes: Vec<(Geometry, TermVoltage)> = (0..129)
                .map(|k| {
                    let g = Geometry::new(0.4e-6 + rng.unit() * 3e-6, 0.35e-6);
                    let a = rng.unit() * (vdd + 0.4) - 0.2;
                    let b = rng.unit() * (vdd + 0.4) - 0.2;
                    let vg = rng.unit() * (vdd + 0.4) - 0.2;
                    // Exercise both src >= snk and src < snk orderings.
                    let tv = if k % 2 == 0 {
                        TermVoltage::new(vg, a.max(b), a.min(b))
                    } else {
                        TermVoltage::new(vg, a.min(b), a.max(b))
                    };
                    (g, tv)
                })
                .collect();
            let mut batch = vec![IvEval::default(); lanes.len()];
            t.iv_eval_batch(&lanes, &mut batch).unwrap();
            for (lane, got) in lanes.iter().zip(&batch) {
                let want = t.iv_eval(&lane.0, lane.1).unwrap();
                assert_eq!(got.i.to_bits(), want.i.to_bits());
                assert_eq!(got.d_input.to_bits(), want.d_input.to_bits());
                assert_eq!(got.d_src.to_bits(), want.d_src.to_bits());
                assert_eq!(got.d_snk.to_bits(), want.d_snk.to_bits());
            }
        }
    }

    /// The branch-free select form agrees bitwise with the branched
    /// piecewise eval on every stored grid fit, including cutoff points.
    #[test]
    fn eval_select_bitwise_matches_eval() {
        let t = table(Polarity::Nmos);
        for p in &t.points {
            for k in 0..=12 {
                let vds = 3.3 * k as f64 / 12.0;
                let (a, b) = p.eval(vds);
                let (c, d) = p.eval_select(vds);
                assert_eq!(a.to_bits(), c.to_bits());
                assert_eq!(b.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn rejects_bad_grid_step() {
        assert!(TableModel::characterize(Technology::cmosp35(), Polarity::Nmos, 0.0).is_err());
        assert!(TableModel::characterize(Technology::cmosp35(), Polarity::Nmos, 10.0).is_err());
    }
}
