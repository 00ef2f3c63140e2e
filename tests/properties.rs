//! Randomized property tests over the core data structures and physics
//! invariants, spanning crates. Each property is exercised over a
//! seeded deterministic sample of its input space (the workspace builds
//! offline, so no property-testing framework — `qwm_num::rng` drives
//! the sampling).
#![allow(clippy::needless_range_loop)] // index loops mirror the matrix algebra

use qwm::circuit::waveform::Waveform;
use qwm::device::model::{DeviceModel, Geometry, TermVoltage};
use qwm::device::{Mosfet, Polarity, TableModel, Technology};
use qwm::interconnect::rc::RcTree;
use qwm::num::matrix::Matrix;
use qwm::num::rng::Rng64;
use qwm::num::tridiag::thomas_solve_into;

fn tech() -> Technology {
    Technology::cmosp35()
}

/// Thomas solve agrees with dense LU on diagonally dominant systems
/// (the shape QWM produces).
#[test]
fn tridiagonal_matches_dense_lu() {
    let mut rng = Rng64::seed_from_u64(0x7121d1a6);
    for _ in 0..64 {
        let n = rng.range_usize(2, 12);
        let seed: Vec<f64> = (0..40).map(|_| rng.range(-1.0, 1.0)).collect();
        let sub: Vec<f64> = (0..n - 1).map(|i| seed[i % seed.len()]).collect();
        let sup: Vec<f64> = (0..n - 1).map(|i| seed[(i + 13) % seed.len()]).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| 3.0 + seed[(i + 7) % seed.len()].abs())
            .collect();
        let b: Vec<f64> = (0..n).map(|i| seed[(i + 21) % seed.len()]).collect();
        let (mut c, mut x_tri) = (vec![0.0; n], vec![0.0; n]);
        thomas_solve_into(&sub, &diag, &sup, &b, &mut c, &mut x_tri).unwrap();
        let mut dense = Matrix::zeros(n, n).unwrap();
        for i in 0..n {
            dense.set(i, i, diag[i]);
            if i > 0 {
                dense.set(i, i - 1, sub[i - 1]);
                dense.set(i - 1, i, sup[i - 1]);
            }
        }
        let x_lu = dense.solve(&b).unwrap();
        for (a, c) in x_tri.iter().zip(&x_lu) {
            assert!((a - c).abs() < 1e-9, "{a} vs {c}");
        }
    }
}

/// LU round-trip: A · solve(A, b) == b for well-conditioned matrices.
#[test]
fn lu_roundtrip() {
    let mut rng = Rng64::seed_from_u64(0x10f00d);
    for _ in 0..64 {
        let n = rng.range_usize(1, 8);
        let seed: Vec<f64> = (0..80).map(|_| rng.range(-1.0, 1.0)).collect();
        let mut m = Matrix::zeros(n, n).unwrap();
        for r in 0..n {
            for c in 0..n {
                let v = seed[(r * n + c) % seed.len()];
                m.set(r, c, if r == c { 4.0 + v.abs() } else { v });
            }
        }
        let b: Vec<f64> = (0..n).map(|i| seed[(i + 37) % seed.len()]).collect();
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x).unwrap();
        for (g, w) in back.iter().zip(&b) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}

/// MOSFET channel current is antisymmetric under terminal swap for
/// both polarities and any voltages (pass-gate correctness).
#[test]
fn mosfet_antisymmetry() {
    let mut rng = Rng64::seed_from_u64(0xa5a5);
    for _ in 0..64 {
        let vg = rng.range(0.0, 3.3);
        let va = rng.range(0.0, 3.3);
        let vb = rng.range(0.0, 3.3);
        let w = rng.range(0.5, 5.0);
        let polarity = if rng.flip() {
            Polarity::Nmos
        } else {
            Polarity::Pmos
        };
        let m = Mosfet::new(tech(), polarity);
        let g = Geometry::new(w * 1e-6, 0.35e-6);
        let i_fwd = m.iv(&g, TermVoltage::new(vg, va, vb)).unwrap();
        let i_rev = m.iv(&g, TermVoltage::new(vg, vb, va)).unwrap();
        assert!((i_fwd + i_rev).abs() < 1e-15 * (1.0 + i_fwd.abs() / 1e-6));
    }
}

/// NMOS current is monotone nondecreasing in the gate voltage.
#[test]
fn nmos_monotone_in_gate() {
    let mut rng = Rng64::seed_from_u64(0x90070);
    for _ in 0..64 {
        let vd = rng.range(0.1, 3.3);
        let vg_lo = rng.range(0.0, 3.0);
        let dvg = rng.range(0.01, 0.3);
        let m = Mosfet::new(tech(), Polarity::Nmos);
        let g = Geometry::new(1e-6, 0.35e-6);
        let i_lo = m.iv(&g, TermVoltage::new(vg_lo, vd, 0.0)).unwrap();
        let i_hi = m.iv(&g, TermVoltage::new(vg_lo + dvg, vd, 0.0)).unwrap();
        assert!(i_hi >= i_lo - 1e-18);
    }
}

/// The tabular model tracks the analytic model to within a few
/// percent of the local full-scale current, everywhere.
#[test]
fn table_tracks_analytic_everywhere() {
    // One shared table (expensive to build): lazily initialized.
    use std::sync::OnceLock;
    static TABLE: OnceLock<TableModel> = OnceLock::new();
    let table = TABLE
        .get_or_init(|| TableModel::with_defaults(Technology::cmosp35(), Polarity::Nmos).unwrap());
    let analytic = Mosfet::new(tech(), Polarity::Nmos);
    let g = Geometry::new(1e-6, 0.35e-6);
    let mut rng = Rng64::seed_from_u64(0x7ab1e);
    for _ in 0..64 {
        let vg = rng.range(0.0, 3.3);
        let vd = rng.range(0.0, 3.3);
        let vs = rng.range(0.0, 3.3);
        let tv = TermVoltage::new(vg, vd, vs);
        let i_t = table.iv(&g, tv).unwrap();
        let i_a = analytic.iv(&g, tv).unwrap();
        // Full-scale at this gate drive.
        let fs = analytic
            .iv(&g, TermVoltage::new(3.3, 3.3, 0.0))
            .unwrap()
            .abs();
        assert!((i_t - i_a).abs() < 0.02 * fs, "{i_t} vs {i_a} (fs {fs})");
    }
}

/// Junction capacitance decreases monotonically with reverse bias.
#[test]
fn junction_cap_monotone() {
    let mut rng = Rng64::seed_from_u64(0xca9);
    let t = tech();
    for _ in 0..64 {
        let v1 = rng.range(0.0, 3.0);
        let dv = rng.range(0.01, 0.3);
        let c1 = qwm::device::caps::junction_cap(&t, Polarity::Nmos, 1e-12, 4e-6, v1);
        let c2 = qwm::device::caps::junction_cap(&t, Polarity::Nmos, 1e-12, 4e-6, v1 + dv);
        assert!(c2 < c1);
    }
}

/// Waveform crossings are consistent with sampled values.
#[test]
fn waveform_crossing_consistency() {
    let mut rng = Rng64::seed_from_u64(0xc2055);
    for _ in 0..64 {
        let t0 = rng.range(0.0, 1e-9);
        let rise = rng.range(1e-12, 1e-9);
        let level_frac = rng.range(0.05, 0.95);
        let w = Waveform::ramp(t0, rise, 0.0, 3.3);
        let level = level_frac * 3.3;
        let t = w.crossing(level, true).unwrap();
        assert!((w.value(t) - level).abs() < 1e-9);
        assert!(t >= t0 && t <= t0 + rise * 1.0001);
    }
}

/// Elmore delay is monotone in any capacitance increase.
#[test]
fn elmore_monotone_in_cap() {
    let mut rng = Rng64::seed_from_u64(0xe1a0);
    for _ in 0..64 {
        let segs = rng.range_usize(2, 10);
        let extra = rng.range(1e-15, 1e-12);
        let at = rng.range_usize(0, 8);
        let (mut tree, end) = RcTree::ladder(1e3, 1e-12, segs).unwrap();
        let base = tree.elmore(end);
        tree.add_cap((at % segs) + 1, extra);
        assert!(tree.elmore(end) > base);
    }
}

/// Elmore upper-bounds the two-moment D2M estimate at the far end of
/// a line (a known dominance relation).
#[test]
fn d2m_below_elmore() {
    let mut rng = Rng64::seed_from_u64(0xd2e1);
    for _ in 0..64 {
        let r = rng.range(100.0, 1e4);
        let c = rng.range(1e-13, 5e-12);
        let segs = rng.range_usize(4, 32);
        let (tree, end) = RcTree::ladder(r, c, segs).unwrap();
        assert!(tree.d2m_delay(end) <= tree.elmore(end));
    }
}

/// Charge conservation in the SPICE engine: the integral of the output
/// node's capacitor current matches the charge implied by its voltage
/// swing (a discretization-level identity).
#[test]
fn spice_charge_bookkeeping() {
    use qwm::circuit::cells;
    use qwm::device::analytic_models;
    use qwm::spice::engine::{initial_uniform, simulate, TransientConfig};

    let t = tech();
    let models = analytic_models(&t);
    let stage = cells::nmos_stack(&t, &[2e-6], 30e-15).unwrap();
    let inputs = vec![Waveform::step(0.0, 0.0, t.vdd)];
    let init = initial_uniform(&stage, &models, t.vdd);
    let r = simulate(
        &stage,
        &models,
        &inputs,
        &init,
        &TransientConfig::hspice_1ps(1e-9),
    )
    .unwrap();
    let out = stage.node_by_name("out").unwrap();
    let cur = r.node_current(&stage, &models, out).unwrap();
    // Trapezoid rule over the (time, current) samples.
    let q_integrated: f64 = cur
        .windows(2)
        .map(|w| 0.5 * (w[1].0 - w[0].0) * (w[0].1 + w[1].1))
        .sum();
    // Expected charge: ∫C(v)dv from Vdd to the final voltage.
    let v_end = *r.voltages[out.0].last().unwrap();
    let n_steps = 200;
    let mut q_expected = 0.0;
    for i in 0..n_steps {
        let v = t.vdd + (v_end - t.vdd) * (i as f64 + 0.5) / n_steps as f64;
        q_expected += stage.node_cap(out, &models, v) * (v_end - t.vdd) / n_steps as f64;
    }
    let rel = (q_integrated - q_expected).abs() / q_expected.abs();
    assert!(
        rel < 0.05,
        "integrated {q_integrated} vs expected {q_expected}"
    );
}

/// Arbitrary strings for the parser fuzz tests: mostly printable ASCII
/// with newlines, tabs and occasional arbitrary Unicode mixed in.
fn random_string(rng: &mut Rng64, max_len: usize) -> String {
    let len = rng.range_usize(0, max_len + 1);
    (0..len)
        .map(|_| match rng.range_usize(0, 12) {
            0 => char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            1 => '\n',
            2 => '\t',
            _ => (0x20u8 + (rng.next_u64() % 0x5f) as u8) as char,
        })
        .collect()
}

/// The deck parser never panics on arbitrary input — it returns
/// structured errors.
#[test]
fn parser_never_panics() {
    let mut rng = Rng64::seed_from_u64(0x9a21c);
    for _ in 0..256 {
        let input = random_string(&mut rng, 400);
        let _ = qwm::circuit::parser::parse_netlist(&input);
    }
}

/// Engineering-notation parsing never panics and round-trips plain
/// floats.
#[test]
fn parse_value_total() {
    let mut rng = Rng64::seed_from_u64(0x9a15e);
    for _ in 0..256 {
        let input = random_string(&mut rng, 24);
        let _ = qwm::circuit::parser::parse_value(&input);
    }
}

#[test]
fn parse_value_roundtrip() {
    let mut rng = Rng64::seed_from_u64(0x20117d);
    for _ in 0..256 {
        let v = rng.range(-1e9, 1e9);
        let s = format!("{v}");
        let parsed = qwm::circuit::parser::parse_value(&s).unwrap();
        assert!((parsed - v).abs() <= 1e-12 * v.abs().max(1.0));
    }
}

#[test]
fn wires_never_produce_turn_on_events() {
    // A decoder path: 3 transistors + 3 wires. Committed turn-on events
    // must reference only transistor elements.
    use qwm::circuit::cells;
    use qwm::core::evaluate::{evaluate, CriticalPointKind, QwmConfig};
    use qwm::device::analytic_models;
    use qwm::spice::engine::initial_uniform;

    let t = tech();
    let models = analytic_models(&t);
    let stage = cells::decoder_path(&t, 3, 100e-6, 10e-15).unwrap();
    let out = stage.node_by_name("out").unwrap();
    let inputs: Vec<Waveform> = (0..stage.inputs().len())
        .map(|_| Waveform::step(0.0, 0.0, t.vdd))
        .collect();
    let init = initial_uniform(&stage, &models, t.vdd);
    let r = evaluate(
        &stage,
        &models,
        &inputs,
        &init,
        out,
        qwm::circuit::waveform::TransitionKind::Fall,
        &QwmConfig::default(),
    )
    .unwrap();
    use qwm::circuit::DeviceKind;
    for cp in &r.critical_points {
        if let CriticalPointKind::TurnOn(k) | CriticalPointKind::TimedTurnOn(k) = cp.kind {
            assert_ne!(
                r.chain.elements[k - 1].kind,
                DeviceKind::Wire,
                "wire produced a turn-on at {cp:?}"
            );
        }
    }
    // And the waveform still reaches all monitored levels.
    assert_eq!(r.output_crossings.len(), 3);
}

/// QWM is deterministic: identical inputs give bit-identical results
/// (no hidden randomness or time dependence).
#[test]
fn qwm_is_deterministic() {
    use qwm::circuit::cells;
    use qwm::core::evaluate::{evaluate, QwmConfig};
    use qwm::device::analytic_models;
    use qwm::spice::engine::initial_uniform;
    let t = tech();
    let models = analytic_models(&t);
    let mut rng = Rng64::seed_from_u64(0xde7e2);
    for _ in 0..8 {
        let k = rng.range_usize(2, 5);
        let widths: Vec<f64> = (0..k).map(|_| rng.range(1.0, 4.0) * t.w_min).collect();
        let load_ff = rng.range(5.0, 30.0);
        let stage = cells::nmos_stack(&t, &widths, load_ff * 1e-15).unwrap();
        let inputs: Vec<Waveform> = (0..widths.len())
            .map(|_| Waveform::step(0.0, 0.0, t.vdd))
            .collect();
        let init = initial_uniform(&stage, &models, t.vdd);
        let out = stage.node_by_name("out").unwrap();
        let run = || {
            evaluate(
                &stage,
                &models,
                &inputs,
                &init,
                out,
                qwm::circuit::waveform::TransitionKind::Fall,
                &QwmConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.delay_50(t.vdd, 0.0), b.delay_50(t.vdd, 0.0));
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.iterations, b.iterations);
        for (wa, wb) in a.waveforms.iter().zip(&b.waveforms) {
            assert_eq!(wa.breakpoints(), wb.breakpoints());
        }
    }
}

/// Piecewise-quadratic crossing agrees with dense sampling.
#[test]
fn piecewise_crossing_matches_sampling() {
    use qwm::core::piecewise::{PiecewiseQuadratic, QuadraticPiece};
    let mut rng = Rng64::seed_from_u64(0xc6055);
    for _ in 0..64 {
        let v0 = rng.range(2.0, 3.3);
        let i0 = rng.range(-2e-3, -1e-4);
        let alpha = rng.range(-1e8, 1e8);
        let cap = rng.range(5.0, 40.0) * 1e-15;
        let t1 = 50e-12;
        let mut w = PiecewiseQuadratic::new();
        w.push(QuadraticPiece {
            t0: 0.0,
            t1,
            v0,
            i0,
            alpha,
            cap,
        })
        .unwrap();
        let level = v0 - 0.4;
        if let Some(tc) = w.crossing(level) {
            assert!((w.voltage(tc) - level).abs() < 1e-6);
            // No earlier crossing: sample densely before tc.
            let n = 200;
            for i in 0..n {
                let t = tc * i as f64 / n as f64;
                assert!(w.voltage(t) > level - 1e-6, "earlier crossing at {t}");
            }
        }
    }
}

/// Cross-validation of two independent linear-circuit paths: the AWE
/// two-pole model (moment matching) against the MNA transient engine on
/// the same distributed wire.
#[test]
fn awe_matches_mna_on_a_driven_wire() {
    use qwm::circuit::stage::LogicStage;
    use qwm::device::analytic_models;
    use qwm::interconnect::rc::RcTree;
    use qwm::interconnect::TwoPoleModel;
    use qwm::spice::engine::{simulate, TransientConfig};

    let t = tech();
    let models = analytic_models(&t);
    // Wire: 0.6 µm × 800 µm, driven hard through a wide NMOS so the
    // driver is nearly ideal; observe the far end.
    let (wire_w, wire_l, segs) = (0.6e-6, 800e-6, 12);

    // Path A: AWE on the driver + RC ladder. The driver enters the
    // linear model as its effective resistance and junction capacitance
    // (the same reduction a switch-level tool would make).
    let drv_geom = qwm::device::Geometry::new(60e-6, t.l_min);
    let nmos = qwm::device::Mosfet::new(t.clone(), qwm::device::Polarity::Nmos);
    use qwm::device::model::{DeviceModel, TermVoltage};
    let i_half = nmos
        .iv(&drv_geom, TermVoltage::new(t.vdd, t.vdd / 2.0, 0.0))
        .unwrap();
    let r_drv = t.vdd / 2.0 / i_half;
    let c_drv = nmos.src_cap(&drv_geom, t.vdd / 2.0);

    let r_total = qwm::device::caps::wire_res(&t, wire_w, wire_l);
    let c_total = qwm::device::caps::wire_cap(&t, wire_w, wire_l);
    let mut tree = RcTree::new(0.0);
    let near_node = tree.add_node(0, r_drv, c_drv).unwrap();
    let rs = r_total / segs as f64;
    let cs = c_total / segs as f64;
    let mut at = near_node;
    tree.add_cap(near_node, 0.5 * cs);
    for s in 0..segs {
        let c = if s + 1 == segs { 0.5 * cs } else { cs };
        at = tree.add_node(at, rs, c).unwrap();
    }
    let far = at;
    let awe = TwoPoleModel::from_tree(&tree, far).unwrap();
    let d_awe = awe.delay_50().unwrap();

    // Path B: MNA transient of the same ladder as wire edges, driver
    // modeled as a very strong discharge transistor (takes the near end
    // down quickly; the wire dominates).
    let mut b = LogicStage::builder("wire_tb");
    let gnd = b.gnd();
    let drive = b.input("drive");
    let near = b.node("near");
    b.transistor(
        qwm::circuit::DeviceKind::Nmos,
        drive,
        near,
        gnd,
        qwm::device::Geometry::new(60e-6, t.l_min), // ~3 Ω effective
    );
    let mut at = near;
    for s in 0..segs {
        let next = if s + 1 == segs {
            b.node("out")
        } else {
            b.node(&format!("w{s}"))
        };
        b.wire(next, at, wire_w, wire_l / segs as f64);
        at = next;
    }
    b.output(at);
    let stage = b.build().unwrap();
    let inputs = vec![Waveform::step(0.0, 0.0, t.vdd)];
    let init: Vec<f64> = (0..stage.node_count())
        .map(|i| if i == stage.sink().0 { 0.0 } else { t.vdd })
        .collect();
    let r = simulate(
        &stage,
        &models,
        &inputs,
        &init,
        &TransientConfig::hspice_1ps(1.5e-9),
    )
    .unwrap();
    let out = stage.node_by_name("out").unwrap();
    let d_mna = r
        .waveform(out)
        .unwrap()
        .crossing(t.vdd / 2.0, false)
        .unwrap();
    // The MNA run resolves the nonlinear driver exactly and includes
    // the ~0.5 ps input ramp; the linearized AWE model must still land
    // in the same place.
    assert!(
        (d_mna - d_awe).abs() / d_mna < 0.30,
        "awe {d_awe:.3e} vs mna {d_mna:.3e}"
    );
}
