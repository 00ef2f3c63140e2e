#![allow(clippy::items_after_test_module)] // workload generators were grown incrementally

//! Cell and workload generators for the paper's experiments.
//!
//! * minimum-size logic gates (inverter, NAND2–4, NOR2) — Table I;
//! * randomly sized NMOS transistor stacks of length 5–10 — Table II;
//! * the Manchester carry chain of Fig. 2, whose longest path is the
//!   6-NMOS stack of Figs. 7 and 9;
//! * the memory decoder tree of Fig. 3, with wire lengths growing
//!   exponentially with tree level — Fig. 10.

use crate::stage::{DeviceKind, LogicStage};
use qwm_device::model::Geometry;
use qwm_device::tech::Technology;
use qwm_num::rng::Rng64;
use qwm_num::{NumError, Result};

/// Default external load for gate-level experiments: a couple of
/// minimum-size gate inputs' worth \[F\].
pub const DEFAULT_LOAD: f64 = 10e-15;

fn nmos_geom(tech: &Technology, w: f64) -> Geometry {
    Geometry::new(w, tech.l_min)
}

/// A minimum-size static CMOS inverter. Input `a`, output `out`.
///
/// ```
/// use qwm_circuit::cells;
/// use qwm_device::tech::Technology;
/// let inv = cells::inverter(&Technology::cmosp35(), cells::DEFAULT_LOAD).unwrap();
/// assert_eq!(inv.inputs().len(), 1);
/// ```
///
/// # Errors
///
/// Propagates builder validation failures (none for valid `tech`).
pub fn inverter(tech: &Technology, load: f64) -> Result<LogicStage> {
    let mut b = LogicStage::builder("inv");
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let a = b.input("a");
    b.transistor(DeviceKind::Nmos, a, out, gnd, nmos_geom(tech, tech.w_min));
    b.transistor(
        DeviceKind::Pmos,
        a,
        vdd,
        out,
        nmos_geom(tech, 2.0 * tech.w_min),
    );
    b.output(out);
    b.load(out, load);
    b.build()
}

/// An `n`-input static CMOS NAND (series NMOS stack, parallel PMOS).
/// Inputs `a0 … a{n-1}` with `a0` gating the transistor nearest ground;
/// output `out`. NMOS are up-sized by the stack depth, the usual
/// equal-drive convention.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `n == 0`.
pub fn nand(tech: &Technology, n: usize, load: f64) -> Result<LogicStage> {
    if n == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::nand",
            detail: "zero inputs".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("nand{n}"));
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let wn = tech.w_min * n as f64;
    let wp = 2.0 * tech.w_min;
    let mut below = gnd;
    for k in 0..n {
        let above = if k + 1 == n {
            out
        } else {
            b.node(&format!("n{}", k + 1))
        };
        let input = b.input(&format!("a{k}"));
        b.transistor(DeviceKind::Nmos, input, above, below, nmos_geom(tech, wn));
        b.transistor(DeviceKind::Pmos, input, vdd, out, nmos_geom(tech, wp));
        below = above;
    }
    b.output(out);
    b.load(out, load);
    b.build()
}

/// An `n`-input static CMOS NOR (parallel NMOS, series PMOS stack).
/// Output `out`; input `a0` gates the PMOS nearest the output.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `n == 0`.
pub fn nor(tech: &Technology, n: usize, load: f64) -> Result<LogicStage> {
    if n == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::nor",
            detail: "zero inputs".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("nor{n}"));
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let wn = tech.w_min;
    let wp = 2.0 * tech.w_min * n as f64;
    let mut above = vdd;
    for k in 0..n {
        let belowp = if k + 1 == n {
            out
        } else {
            b.node(&format!("p{}", k + 1))
        };
        let input = b.input(&format!("a{k}"));
        b.transistor(DeviceKind::Pmos, input, above, belowp, nmos_geom(tech, wp));
        b.transistor(DeviceKind::Nmos, input, out, gnd, nmos_geom(tech, wn));
        above = belowp;
    }
    b.output(out);
    b.load(out, load);
    b.build()
}

/// A discharge stack of `widths.len()` NMOS transistors: transistor `k`
/// connects node `k+1` to node `k`, node 0 is ground, the top node is the
/// output (paper Fig. 6). Inputs are `g1 … gK` bottom-up.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on an empty width list.
pub fn nmos_stack(tech: &Technology, widths: &[f64], load: f64) -> Result<LogicStage> {
    if widths.is_empty() {
        return Err(NumError::InvalidInput {
            context: "cells::nmos_stack",
            detail: "empty stack".to_string(),
        });
    }
    let k = widths.len();
    let mut b = LogicStage::builder(format!("nstack{k}"));
    let gnd = b.gnd();
    let mut below = gnd;
    for (i, &w) in widths.iter().enumerate() {
        let above = if i + 1 == k {
            b.node("out")
        } else {
            b.node(&format!("n{}", i + 1))
        };
        let input = b.input(&format!("g{}", i + 1));
        b.transistor(DeviceKind::Nmos, input, above, below, nmos_geom(tech, w));
        below = above;
    }
    b.output(below);
    b.load(below, load);
    b.build()
}

/// A charge (pull-up) stack of PMOS transistors from the supply down to
/// the output — the dual of [`nmos_stack`]. Inputs `g1 … gK` top-down
/// (g1 nearest Vdd).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on an empty width list.
pub fn pmos_stack(tech: &Technology, widths: &[f64], load: f64) -> Result<LogicStage> {
    if widths.is_empty() {
        return Err(NumError::InvalidInput {
            context: "cells::pmos_stack",
            detail: "empty stack".to_string(),
        });
    }
    let k = widths.len();
    let mut b = LogicStage::builder(format!("pstack{k}"));
    let vdd = b.vdd();
    let mut above = vdd;
    for (i, &w) in widths.iter().enumerate() {
        let below = if i + 1 == k {
            b.node("out")
        } else {
            b.node(&format!("p{}", i + 1))
        };
        let input = b.input(&format!("g{}", i + 1));
        b.transistor(DeviceKind::Pmos, input, above, below, nmos_geom(tech, w));
        above = below;
    }
    b.output(above);
    b.load(above, load);
    b.build()
}

/// Random transistor widths for the Table II workload: `k` widths drawn
/// uniformly from 1× to 4× minimum width.
pub fn random_widths(rng: &mut Rng64, tech: &Technology, k: usize) -> Vec<f64> {
    (0..k).map(|_| tech.w_min * rng.range(1.0, 4.0)).collect()
}

/// The Manchester carry chain of Fig. 2 with `bits` bit slices:
/// per-carry-node precharge PMOS gated by `phi`, propagate pass
/// transistors `p0 … p{bits-1}` along the chain, generate pull-downs
/// `g0 … g{bits-1}`, and a `phi`-gated evaluation foot. Outputs are every
/// carry node `c1 … c{bits}`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `bits == 0`.
pub fn manchester_carry_chain(tech: &Technology, bits: usize, load: f64) -> Result<LogicStage> {
    if bits == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::manchester_carry_chain",
            detail: "zero bits".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("manchester{bits}"));
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let phi = b.input("phi");
    let w = 2.0 * tech.w_min;
    // Evaluation foot.
    let ev = b.node("ev");
    b.transistor(DeviceKind::Nmos, phi, ev, gnd, nmos_geom(tech, 2.0 * w));
    // Carry-in node, dischargeable through the foot via g-in ("cin" slice).
    let cin = b.node("c0");
    let gin = b.input("g_in");
    b.transistor(DeviceKind::Nmos, gin, cin, ev, nmos_geom(tech, w));
    b.transistor(DeviceKind::Pmos, phi, vdd, cin, nmos_geom(tech, w));
    let mut prev = cin;
    for k in 0..bits {
        let c = b.node(&format!("c{}", k + 1));
        let p = b.input(&format!("p{k}"));
        let g = b.input(&format!("g{k}"));
        // Propagate pass transistor along the chain.
        b.transistor(DeviceKind::Nmos, p, c, prev, nmos_geom(tech, w));
        // Generate pull-down for this carry node.
        b.transistor(DeviceKind::Nmos, g, c, ev, nmos_geom(tech, w));
        // Precharge.
        b.transistor(DeviceKind::Pmos, phi, vdd, c, nmos_geom(tech, w));
        b.output(c);
        b.load(c, load);
        prev = c;
    }
    b.build()
}

/// The worst-case discharge path of a `bits`-bit Manchester carry chain
/// as a standalone NMOS stack: evaluation foot + carry-in generate +
/// `bits` propagate transistors. For `bits = 4` this is the paper's
/// 6-NMOS stack (Figs. 7 and 9).
///
/// # Errors
///
/// Propagates stack construction failures.
pub fn manchester_longest_path(tech: &Technology, bits: usize, load: f64) -> Result<LogicStage> {
    let w = 2.0 * tech.w_min;
    let mut widths = vec![2.0 * w, w];
    widths.extend(std::iter::repeat_n(w, bits));
    nmos_stack(tech, &widths, load)
}

/// One root-to-leaf path of the memory decoder tree of Fig. 3 with
/// `levels` levels: alternating NMOS pass transistors (gated by `phi`
/// then the address inputs `a1 … a{levels-1}`) and wire segments whose
/// length **doubles** with each level, mimicking the layout. The leaf is
/// the output.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `levels == 0`.
pub fn decoder_path(
    tech: &Technology,
    levels: usize,
    base_wire_len: f64,
    load: f64,
) -> Result<LogicStage> {
    if levels == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::decoder_path",
            detail: "zero levels".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("decoder{levels}"));
    let gnd = b.gnd();
    let w = 2.0 * tech.w_min;
    let wire_w = 0.6e-6;
    let mut below = gnd;
    for level in 0..levels {
        // Transistor of this level.
        let t_top = b.node(&format!("t{level}"));
        let input = if level == 0 {
            b.input("phi")
        } else {
            b.input(&format!("a{level}"))
        };
        b.transistor(DeviceKind::Nmos, input, t_top, below, nmos_geom(tech, w));
        // Wire segment to the next level, doubling in length.
        let wire_len = base_wire_len * (1u64 << level) as f64;
        let w_top = if level + 1 == levels {
            b.node("out")
        } else {
            b.node(&format!("w{level}"))
        };
        b.wire(w_top, t_top, wire_w, wire_len);
        below = w_top;
    }
    b.output(below);
    b.load(below, load);
    b.build()
}

/// Geometry of a wire segment that realizes a given resistance and total
/// capacitance under `tech` (used when folding AWE π macromodels back
/// into stage edges).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for non-positive targets.
pub fn wire_geometry_for(tech: &Technology, r: f64, c_total: f64) -> Result<Geometry> {
    if r <= 0.0 || c_total <= 0.0 {
        return Err(NumError::InvalidInput {
            context: "cells::wire_geometry_for",
            detail: format!("r={r} c={c_total}"),
        });
    }
    // l = r·w/r_sq;  c_area·w·l + 2·c_fringe·l = c_total
    // ⇒ (c_area·r/r_sq)·w² + (2·c_fringe·r/r_sq)·w − c_total = 0.
    let a = tech.wire_c_area * r / tech.wire_r_sq;
    let b = 2.0 * tech.wire_c_fringe * r / tech.wire_r_sq;
    let disc = b * b + 4.0 * a * c_total;
    let w = (-b + disc.sqrt()) / (2.0 * a);
    if w.is_nan() || w <= 0.0 {
        return Err(NumError::InvalidInput {
            context: "cells::wire_geometry_for",
            detail: format!("no positive width for r={r} c={c_total}"),
        });
    }
    let l = r * w / tech.wire_r_sq;
    Ok(Geometry::new(w, l))
}

/// The decoder path of [`decoder_path`] with each long wire replaced by
/// its **AWE π macromodel** (paper §V-C: "We first used AWE approach to
/// build a macro π model for the wire"): the wire's distributed RC
/// ladder is reduced by three-moment matching, the matched resistance
/// and symmetric capacitance become the wire edge, and the asymmetric
/// capacitance remainders are attached as explicit node loads.
///
/// # Errors
///
/// Propagates ladder/reduction failures.
pub fn decoder_path_awe(
    tech: &Technology,
    levels: usize,
    base_wire_len: f64,
    load: f64,
    ladder_segments: usize,
) -> Result<LogicStage> {
    if levels == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::decoder_path_awe",
            detail: "zero levels".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("decoder{levels}_awe"));
    let gnd = b.gnd();
    let w = 2.0 * tech.w_min;
    let wire_w = 0.6e-6;
    let mut below = gnd;
    for level in 0..levels {
        let t_top = b.node(&format!("t{level}"));
        let input = if level == 0 {
            b.input("phi")
        } else {
            b.input(&format!("a{level}"))
        };
        b.transistor(DeviceKind::Nmos, input, t_top, below, nmos_geom(tech, w));
        let wire_len = base_wire_len * (1u64 << level) as f64;
        let pi = qwm_interconnect::wire_pi_model(tech, wire_w, wire_len, ladder_segments)?;
        let w_top = if level + 1 == levels {
            b.node("out")
        } else {
            b.node(&format!("w{level}"))
        };
        // Edge carries R plus the symmetric part of the π caps; the
        // asymmetric remainders become explicit loads (driver side is
        // t_top — the wire is driven from below in this layout).
        let cmin = pi.c_near.min(pi.c_far);
        let geom = wire_geometry_for(tech, pi.r, (2.0 * cmin).max(1e-18))?;
        let e = b.wire(w_top, t_top, geom.w, geom.l);
        let _ = e;
        b.load(t_top, (pi.c_near - cmin).max(0.0));
        b.load(w_top, (pi.c_far - cmin).max(0.0));
        below = w_top;
    }
    b.output(below);
    b.load(below, load);
    b.build()
}

/// The decoder path with each wire expanded into a `segments`-section
/// distributed RC ladder of short wire edges — the golden model the AWE
/// reduction is judged against (Fig. 10's HSPICE side).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for zero levels or segments.
pub fn decoder_path_distributed(
    tech: &Technology,
    levels: usize,
    base_wire_len: f64,
    load: f64,
    segments: usize,
) -> Result<LogicStage> {
    if levels == 0 || segments == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::decoder_path_distributed",
            detail: format!("levels={levels} segments={segments}"),
        });
    }
    let mut b = LogicStage::builder(format!("decoder{levels}_dist"));
    let gnd = b.gnd();
    let w = 2.0 * tech.w_min;
    let wire_w = 0.6e-6;
    let mut below = gnd;
    for level in 0..levels {
        let t_top = b.node(&format!("t{level}"));
        let input = if level == 0 {
            b.input("phi")
        } else {
            b.input(&format!("a{level}"))
        };
        b.transistor(DeviceKind::Nmos, input, t_top, below, nmos_geom(tech, w));
        let wire_len = base_wire_len * (1u64 << level) as f64;
        let seg_len = wire_len / segments as f64;
        let mut at = t_top;
        for s in 0..segments {
            let next = if level + 1 == levels && s + 1 == segments {
                b.node("out")
            } else if s + 1 == segments {
                b.node(&format!("w{level}"))
            } else {
                b.node(&format!("w{level}_{s}"))
            };
            b.wire(next, at, wire_w, seg_len);
            at = next;
        }
        below = at;
    }
    b.output(below);
    b.load(below, load);
    b.build()
}

/// An AOI21 (AND-OR-INVERT) complex gate: `out = !(a·b + c)`. The
/// pull-down network is the series pair a–b in parallel with c; the
/// pull-up is (a ∥ b) in series with c. Exercises stages whose
/// conduction networks are neither pure chains nor simple gates.
///
/// # Errors
///
/// Propagates builder validation failures.
pub fn aoi21(tech: &Technology, load: f64) -> Result<LogicStage> {
    let mut b = LogicStage::builder("aoi21");
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let a = b.input("a");
    let bb = b.input("b");
    let c = b.input("c");
    let wn = 2.0 * tech.w_min;
    let wp = 2.0 * tech.w_min;
    // Pull-down: out -> n1 -> gnd via a,b; out -> gnd via c.
    let n1 = b.node("n1");
    b.transistor(DeviceKind::Nmos, a, out, n1, nmos_geom(tech, wn));
    b.transistor(DeviceKind::Nmos, bb, n1, gnd, nmos_geom(tech, wn));
    b.transistor(DeviceKind::Nmos, c, out, gnd, nmos_geom(tech, tech.w_min));
    // Pull-up: vdd -> p1 via a and via b (parallel), p1 -> out via c.
    let p1 = b.node("p1");
    b.transistor(DeviceKind::Pmos, a, vdd, p1, nmos_geom(tech, wp));
    b.transistor(DeviceKind::Pmos, bb, vdd, p1, nmos_geom(tech, wp));
    b.transistor(DeviceKind::Pmos, c, p1, out, nmos_geom(tech, 2.0 * wp));
    b.output(out);
    b.load(out, load);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::NodeKind;

    fn tech() -> Technology {
        Technology::cmosp35()
    }

    #[test]
    fn inverter_shape() {
        let inv = inverter(&tech(), DEFAULT_LOAD).unwrap();
        assert_eq!(inv.edge_count(), 2);
        assert_eq!(inv.inputs().len(), 1);
        assert_eq!(inv.internal_nodes().len(), 1);
    }

    #[test]
    fn nand_shapes() {
        for n in 1..=4 {
            let g = nand(&tech(), n, DEFAULT_LOAD).unwrap();
            assert_eq!(g.edge_count(), 2 * n, "nand{n}");
            assert_eq!(g.inputs().len(), n);
            // n-1 internal stack nodes plus the output.
            assert_eq!(g.internal_nodes().len(), n);
        }
        assert!(nand(&tech(), 0, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn nand_pulldown_is_a_series_chain() {
        let g = nand(&tech(), 3, DEFAULT_LOAD).unwrap();
        // Walk from out to gnd via NMOS edges only.
        let mut at = g.node_by_name("out").unwrap();
        let mut steps = 0;
        'walk: while at != g.sink() {
            for &(e, other) in g.incident(at) {
                if g.edge(e).kind == DeviceKind::Nmos && other != at && other.0 != at.0 {
                    // Move strictly "down" (toward smaller names / gnd).
                    if other == g.sink() || g.node_name(other).starts_with('n') {
                        at = other;
                        steps += 1;
                        if steps > 10 {
                            break 'walk;
                        }
                        continue 'walk;
                    }
                }
            }
            panic!("pull-down chain broken at {}", g.node_name(at));
        }
        assert_eq!(steps, 3);
    }

    #[test]
    fn nor_shape() {
        let g = nor(&tech(), 2, DEFAULT_LOAD).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.inputs().len(), 2);
        assert!(nor(&tech(), 0, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn stack_indexing_matches_figure6() {
        let widths = vec![1e-6, 2e-6, 3e-6];
        let s = nmos_stack(&tech(), &widths, DEFAULT_LOAD).unwrap();
        assert_eq!(s.edge_count(), 3);
        // Edge k connects node k+1 (src) to node k (snk).
        let e0 = s.edge(crate::stage::EdgeId(0));
        assert_eq!(e0.snk, s.sink());
        assert_eq!(e0.geom.w, 1e-6);
        let out = s.node_by_name("out").unwrap();
        let e2 = s.edge(crate::stage::EdgeId(2));
        assert_eq!(e2.src, out);
        assert!(nmos_stack(&tech(), &[], DEFAULT_LOAD).is_err());
    }

    #[test]
    fn pmos_stack_hangs_from_supply() {
        let s = pmos_stack(&tech(), &[1e-6, 1e-6], DEFAULT_LOAD).unwrap();
        let e0 = s.edge(crate::stage::EdgeId(0));
        assert_eq!(e0.src, s.source());
        assert_eq!(s.outputs().len(), 1);
        assert!(pmos_stack(&tech(), &[], DEFAULT_LOAD).is_err());
    }

    #[test]
    fn random_widths_are_seeded_and_bounded() {
        let t = tech();
        let mut rng = Rng64::seed_from_u64(42);
        let a = random_widths(&mut rng, &t, 8);
        let mut rng = Rng64::seed_from_u64(42);
        let b = random_widths(&mut rng, &t, 8);
        assert_eq!(a, b, "deterministic under a fixed seed");
        for w in &a {
            assert!(*w >= t.w_min && *w < 4.0 * t.w_min);
        }
    }

    #[test]
    fn manchester_chain_shape() {
        let m = manchester_carry_chain(&tech(), 4, DEFAULT_LOAD).unwrap();
        // foot + cin(G+P precharge) + 4 × (pass + generate + precharge).
        assert_eq!(m.edge_count(), 1 + 2 + 3 * 4);
        assert_eq!(m.outputs().len(), 4);
        // phi gates the foot and all 5 precharge PMOS.
        let phi = m.input_by_name("phi").unwrap();
        assert_eq!(m.input_edges(phi).len(), 6);
        assert!(manchester_carry_chain(&tech(), 0, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn manchester_longest_path_is_six_for_four_bits() {
        let p = manchester_longest_path(&tech(), 4, DEFAULT_LOAD).unwrap();
        assert_eq!(p.edge_count(), 6, "paper's 6-NMOS stack");
    }

    #[test]
    fn decoder_path_wires_double() {
        let d = decoder_path(&tech(), 3, 20e-6, DEFAULT_LOAD).unwrap();
        let wires: Vec<f64> = d
            .edges()
            .iter()
            .filter(|e| e.kind == DeviceKind::Wire)
            .map(|e| e.geom.l)
            .collect();
        assert_eq!(wires, vec![20e-6, 40e-6, 80e-6]);
        assert_eq!(
            d.edges()
                .iter()
                .filter(|e| e.kind == DeviceKind::Nmos)
                .count(),
            3
        );
        assert!(decoder_path(&tech(), 0, 20e-6, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn aoi21_shape() {
        let g = aoi21(&tech(), DEFAULT_LOAD).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.inputs().len(), 3);
        // Pull-down worst path: out -> n1 -> gnd (two series NMOS).
        let out = g.node_by_name("out").unwrap();
        assert!(g.node(out).load_cap >= DEFAULT_LOAD);
    }

    #[test]
    fn mux2_pass_shape() {
        let g = mux2_pass(&tech(), DEFAULT_LOAD).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.inputs().len(), 3);
        assert!(g.node_by_name("d0").is_some());
    }

    #[test]
    fn domino_nand_shape() {
        let g = domino_nand(&tech(), 3, DEFAULT_LOAD).unwrap();
        // precharge + foot + 3 evaluate.
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.inputs().len(), 4);
        assert!(domino_nand(&tech(), 0, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn decoder_tree_netlist_shape() {
        let nl = decoder_tree_netlist(&tech(), 3, 50e-6, DEFAULT_LOAD).unwrap();
        // foot + (2 + 4 + 8) transistors, 14 wires.
        let transistors = nl
            .devices()
            .iter()
            .filter(|d| d.kind != DeviceKind::Wire)
            .count();
        assert_eq!(transistors, 15);
        assert_eq!(nl.devices().len() - transistors, 14);
        assert_eq!(nl.primary_outputs().len(), 8);
        // 1 clock + 3 address pairs.
        assert_eq!(nl.primary_inputs().len(), 7);
        assert!(decoder_tree_netlist(&tech(), 0, 50e-6, DEFAULT_LOAD).is_err());
    }

    #[test]
    fn all_cells_have_rails() {
        for s in [
            inverter(&tech(), DEFAULT_LOAD).unwrap(),
            nand(&tech(), 3, DEFAULT_LOAD).unwrap(),
            nor(&tech(), 2, DEFAULT_LOAD).unwrap(),
            manchester_carry_chain(&tech(), 2, DEFAULT_LOAD).unwrap(),
        ] {
            assert_eq!(s.node(s.source()).kind, NodeKind::Supply);
            assert_eq!(s.node(s.sink()).kind, NodeKind::Ground);
        }
    }
}

/// A 2:1 pass-transistor multiplexer with NMOS-only switches: output
/// follows `d0` when `s` is low via `sn`-gated device, `d1` when `s` is
/// high. Inputs `d0`/`d1` are the pass-transistor *channel* sides, so
/// they are modeled as stage-internal nodes driven by ideal rails
/// through strong always-on devices; select lines `s`/`sn` are the stage
/// inputs. Exercises pass-transistor topologies (paper Example 1).
///
/// # Errors
///
/// Propagates builder validation failures.
pub fn mux2_pass(tech: &Technology, load: f64) -> Result<LogicStage> {
    let mut b = LogicStage::builder("mux2");
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let s = b.input("s");
    let sn = b.input("sn");
    let drive = b.input("drive");
    let w = 2.0 * tech.w_min;
    // Data rails: d0 tied low, d1 tied high through strong drivers
    // (always-on via `drive`).
    let d0 = b.node("d0");
    let d1 = b.node("d1");
    b.transistor(DeviceKind::Nmos, drive, d0, gnd, nmos_geom(tech, 4.0 * w));
    b.transistor(DeviceKind::Pmos, drive, vdd, d1, nmos_geom(tech, 4.0 * w));
    // Pass switches.
    b.transistor(DeviceKind::Nmos, sn, out, d0, nmos_geom(tech, w));
    b.transistor(DeviceKind::Nmos, s, out, d1, nmos_geom(tech, w));
    b.output(out);
    b.load(out, load);
    b.build()
}

/// A dynamic (domino-style) NAND`n`: clocked precharge PMOS, `n` series
/// NMOS evaluate transistors and a clocked foot. During evaluation
/// (`phi` high, all inputs high) the output discharges through an
/// `(n+1)`-deep stack — the dynamic-logic workload class the Manchester
/// chain belongs to.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `n == 0`.
pub fn domino_nand(tech: &Technology, n: usize, load: f64) -> Result<LogicStage> {
    if n == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::domino_nand",
            detail: "zero inputs".to_string(),
        });
    }
    let mut b = LogicStage::builder(format!("domino_nand{n}"));
    let (vdd, gnd) = (b.vdd(), b.gnd());
    let out = b.node("out");
    let phi = b.input("phi");
    let w = 2.0 * tech.w_min;
    // Precharge.
    b.transistor(DeviceKind::Pmos, phi, vdd, out, nmos_geom(tech, w));
    // Foot.
    let foot = b.node("foot");
    b.transistor(DeviceKind::Nmos, phi, foot, gnd, nmos_geom(tech, 2.0 * w));
    // Evaluate stack from foot up to out.
    let mut below = foot;
    for k in 0..n {
        let above = if k + 1 == n {
            out
        } else {
            b.node(&format!("e{}", k + 1))
        };
        let input = b.input(&format!("a{k}"));
        b.transistor(
            DeviceKind::Nmos,
            input,
            above,
            below,
            nmos_geom(tech, w * n as f64),
        );
        below = above;
    }
    b.output(out);
    b.load(out, load);
    b.build()
}

/// The complete memory decoder tree of Fig. 3 as a flat netlist: a
/// `phi`-gated foot, then `levels` levels of NMOS pass transistors
/// branching binary-tree-style (level `l` gated by address bit `a{l}` on
/// one branch and its complement `a{l}b` on the other), each followed by
/// a wire whose length doubles with the level. All 2^levels leaves carry
/// `leaf_load` and are primary outputs named `leaf0 …`.
///
/// The whole tree is one channel-connected component — the stress case
/// for per-leaf worst-path extraction.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] for `levels == 0`.
pub fn decoder_tree_netlist(
    tech: &Technology,
    levels: usize,
    base_wire_len: f64,
    leaf_load: f64,
) -> Result<crate::netlist::Netlist> {
    if levels == 0 {
        return Err(NumError::InvalidInput {
            context: "cells::decoder_tree_netlist",
            detail: "zero levels".to_string(),
        });
    }
    let mut nl = crate::netlist::Netlist::new();
    let gnd = nl.gnd();
    let w = 2.0 * tech.w_min;
    let wire_w = 0.6e-6;
    let phi = nl.net("phi");
    nl.add_primary_input(phi);
    let root = nl.net("root");
    nl.add_transistor(
        "Mfoot",
        DeviceKind::Nmos,
        phi,
        root,
        gnd,
        Geometry::new(2.0 * w, tech.l_min),
    );
    // Address bits (true and complement) as primary inputs.
    let mut addr = Vec::new();
    for l in 0..levels {
        let a = nl.net(&format!("a{l}"));
        let ab = nl.net(&format!("a{l}b"));
        nl.add_primary_input(a);
        nl.add_primary_input(ab);
        addr.push((a, ab));
    }
    // Breadth-first expansion.
    let mut frontier = vec![root];
    let mut leaf_counter = 0usize;
    for (l, &(a, ab)) in addr.iter().enumerate() {
        let wire_len = base_wire_len * (1u64 << l) as f64;
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (pi, &parent) in frontier.iter().enumerate() {
            for (side, gate) in [(0usize, a), (1usize, ab)] {
                let is_leaf_level = l + 1 == levels;
                let t_net = nl.net(&format!("t{l}_{pi}_{side}"));
                nl.add_transistor(
                    format!("M{l}_{pi}_{side}"),
                    DeviceKind::Nmos,
                    gate,
                    t_net,
                    parent,
                    Geometry::new(w, tech.l_min),
                );
                let end = if is_leaf_level {
                    let leaf = nl.net(&format!("leaf{leaf_counter}"));
                    leaf_counter += 1;
                    leaf
                } else {
                    nl.net(&format!("w{l}_{pi}_{side}"))
                };
                nl.add_wire(format!("W{l}_{pi}_{side}"), end, t_net, wire_w, wire_len);
                if is_leaf_level {
                    nl.add_cap(end, leaf_load);
                    nl.add_primary_output(end);
                }
                next.push(end);
            }
        }
        frontier = next;
    }
    Ok(nl)
}
