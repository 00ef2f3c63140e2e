//! Channel-connected-component partitioning.
//!
//! "Circuit partitioning is used so that differential equation solving is
//! confined within small circuit partitions, called logic stages.
//! Typically, a logic stage is a set of channel-connected transistors and
//! wire segments" (paper §I). Two nets belong to the same stage when a
//! transistor channel or a wire connects them; gates do **not** connect
//! (they form the stage boundary), and the rails belong to every stage.
//!
//! Each component is lowered to a [`LogicStage`]: its gate nets become
//! stage inputs, and nets that either drive downstream gates or are
//! primary outputs become stage outputs.

use crate::netlist::{NetId, Netlist};
use crate::stage::{DeviceKind, InputId, LogicStage, NodeId, NodeKind, StageBuilder};
use qwm_num::Result;
use std::fmt::Write as _;

/// One extracted stage plus its connectivity back to the netlist.
#[derive(Debug)]
pub struct StagePartition {
    /// The lowered logic stage (node/input names are net names).
    pub stage: LogicStage,
    /// Nets driving this stage's inputs, aligned with `stage.inputs()`.
    pub input_nets: Vec<NetId>,
    /// Nets exposed as stage outputs, aligned with `stage.outputs()`.
    pub output_nets: Vec<NetId>,
    /// Netlist device indices included in this stage.
    pub device_indices: Vec<usize>,
}

/// Union-find over net indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// "Not yet seen in this stage" in the per-net scratch maps.
const UNSEEN: u32 = u32::MAX;

/// Partitions a netlist into channel-connected logic stages.
///
/// Stages are numbered by their component's key — the union-find root
/// of the component's nets, or, for a device strung rail to rail (its
/// own component), the net count plus its device index — and list their
/// devices, nodes, inputs and outputs in device order. One pass groups
/// the devices (a counting sort by stage), and per-net scratch maps
/// (net → node, net → input) are reset and reused from stage to stage,
/// so a stage costs only the vectors it keeps.
///
/// # Errors
///
/// Returns [`qwm_num::NumError::InvalidInput`] if the netlist fails
/// validation.
pub fn partition(netlist: &Netlist) -> Result<Vec<StagePartition>> {
    netlist.validate()?;
    let n = netlist.net_count();
    let devices = netlist.devices();
    let mut dsu = Dsu::new(n);
    for d in devices {
        // Rails never merge components.
        if !netlist.is_rail(d.src) && !netlist.is_rail(d.snk) {
            dsu.union(d.src.0, d.snk.0);
        }
    }

    // Stage of every device: component roots are numbered in ascending
    // order, then the rail-to-rail singletons in device order.
    let mut stage_of: Vec<u32> = devices
        .iter()
        .map(|d| {
            let anchor = [d.src, d.snk].into_iter().find(|&t| !netlist.is_rail(t));
            anchor.map_or(UNSEEN, |t| dsu.find(t.0) as u32)
        })
        .collect();
    let mut root_stage = vec![UNSEEN; n];
    for &root in stage_of.iter().filter(|&&r| r != UNSEEN) {
        root_stage[root as usize] = 0;
    }
    let mut stages = 0;
    for s in root_stage.iter_mut().filter(|s| **s != UNSEEN) {
        *s = stages;
        stages += 1;
    }
    for s in &mut stage_of {
        *s = match *s {
            UNSEEN => {
                stages += 1;
                stages - 1
            }
            root => root_stage[root as usize],
        };
    }

    // Devices grouped by stage, ascending within each (counting sort).
    let stages = stages as usize;
    let mut first = vec![0usize; stages + 1];
    for &s in &stage_of {
        first[s as usize + 1] += 1;
    }
    for s in 0..stages {
        first[s + 1] += first[s];
    }
    let mut members = vec![0usize; devices.len()];
    let mut next = first.clone();
    for (i, &s) in stage_of.iter().enumerate() {
        members[next[s as usize]] = i;
        next[s as usize] += 1;
    }

    // Which nets drive gates anywhere (stage outputs must include them).
    let mut drives_gate = vec![false; n];
    for g in devices.iter().filter_map(|d| d.gate) {
        drives_gate[g.0] = true;
    }

    // Per-stage scratch, reset through the member lists after each stage.
    let mut node_of = vec![UNSEEN; n];
    let mut input_of = vec![UNSEEN; n];
    let mut member_nets: Vec<NetId> = Vec::new();
    let mut gate_nets: Vec<NetId> = Vec::new();
    let mut result = Vec::with_capacity(stages);
    for s in 0..stages {
        let device_indices = &members[first[s]..first[s + 1]];
        // Nodes in order of first mention (source, then sink), inputs in
        // order of first gating; rails map to the stage's own rails.
        let mut name_bytes = 6; // "vdd" + "gnd"
        for &di in device_indices {
            let d = &devices[di];
            for t in [d.src, d.snk] {
                if !netlist.is_rail(t) && node_of[t.0] == UNSEEN {
                    node_of[t.0] = (member_nets.len() + 2) as u32;
                    member_nets.push(t);
                    name_bytes += netlist.net_name(t).len();
                }
            }
            if let Some(g) = d.gate {
                if input_of[g.0] == UNSEEN {
                    input_of[g.0] = gate_nets.len() as u32;
                    gate_nets.push(g);
                    name_bytes += netlist.net_name(g).len();
                }
            }
        }
        let is_output = |net: NetId| drives_gate[net.0] || netlist.is_primary_output(net);
        let mut output_nets: Vec<NetId> = member_nets
            .iter()
            .copied()
            .filter(|&t| is_output(t))
            .collect();
        // A stage with no natural output exposes every member net (it is
        // observable only internally, e.g. a test fixture).
        if output_nets.is_empty() {
            output_nets = member_nets.clone();
        }

        // The stage name ("stage_" and up to 20 digits) heads the arena.
        let mut name = String::with_capacity(26 + name_bytes);
        let _ = write!(name, "stage_{s}");
        let mut b = StageBuilder::new(
            name,
            member_nets.len(),
            device_indices.len(),
            gate_nets.len(),
        );
        for &net in &member_nets {
            b.push_node(netlist.net_name(net), NodeKind::Internal);
        }
        for &net in &gate_nets {
            b.push_input(netlist.net_name(net));
        }
        let (vdd, gnd) = (b.vdd(), b.gnd());
        let node = |t: NetId| {
            if t == netlist.vdd() {
                vdd
            } else if t == netlist.gnd() {
                gnd
            } else {
                NodeId(node_of[t.0] as usize)
            }
        };
        for &di in device_indices {
            let d = &devices[di];
            let (src, snk) = (node(d.src), node(d.snk));
            match d.kind {
                DeviceKind::Wire => {
                    b.wire(src, snk, d.geom.w, d.geom.l);
                }
                kind => {
                    let gate = d.gate.expect("transistor has a gate");
                    let input = InputId(input_of[gate.0] as usize);
                    b.transistor(kind, input, src, snk, d.geom);
                }
            }
        }
        // Attach explicit caps and declare outputs.
        for &net in &member_nets {
            let c = netlist.cap(net);
            if c > 0.0 {
                b.load(node(net), c);
            }
        }
        for &net in &output_nets {
            b.output(node(net));
        }
        let stage = b.build()?;

        result.push(StagePartition {
            stage,
            input_nets: gate_nets.clone(),
            output_nets,
            device_indices: device_indices.to_vec(),
        });
        for net in member_nets.drain(..) {
            node_of[net.0] = UNSEEN;
        }
        for net in gate_nets.drain(..) {
            input_of[net.0] = UNSEEN;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_device::model::Geometry;
    use qwm_device::tech::Technology;

    /// Two inverters in series: inv1 drives net `x`, inv2 drives `z`.
    fn two_inverters() -> Netlist {
        let t = Technology::cmosp35();
        let g = Geometry::new(t.w_min, t.l_min);
        let gp = Geometry::new(2.0 * t.w_min, t.l_min);
        let mut n = Netlist::new();
        let (vdd, gnd) = (n.vdd(), n.gnd());
        let a = n.net("a");
        let x = n.net("x");
        let z = n.net("z");
        n.add_transistor("MN1", DeviceKind::Nmos, a, x, gnd, g);
        n.add_transistor("MP1", DeviceKind::Pmos, a, vdd, x, gp);
        n.add_transistor("MN2", DeviceKind::Nmos, x, z, gnd, g);
        n.add_transistor("MP2", DeviceKind::Pmos, x, vdd, z, gp);
        n.add_primary_input(a);
        n.add_primary_output(z);
        n
    }

    #[test]
    fn two_inverters_make_two_stages() {
        let nl = two_inverters();
        let parts = partition(&nl).unwrap();
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert_eq!(p.stage.edge_count(), 2);
            assert_eq!(p.input_nets.len(), 1);
            assert_eq!(p.output_nets.len(), 1);
        }
        // Stage driven by `a` outputs `x`; stage driven by `x` outputs `z`.
        let x = nl.find_net("x").unwrap();
        let a = nl.find_net("a").unwrap();
        let by_input: Vec<_> = parts.iter().map(|p| p.input_nets[0]).collect();
        assert!(by_input.contains(&a));
        assert!(by_input.contains(&x));
    }

    #[test]
    fn pass_transistor_merges_stages() {
        // NAND output channel-connected to a pass transistor: one stage
        // (the paper's Figure 1 point).
        let t = Technology::cmosp35();
        let g = Geometry::new(t.w_min, t.l_min);
        let mut n = Netlist::new();
        let (vdd, gnd) = (n.vdd(), n.gnd());
        let a = n.net("a");
        let bn = n.net("b");
        let mid = n.net("mid");
        let y = n.net("y");
        let z = n.net("z");
        let en = n.net("en");
        n.add_transistor("MN1", DeviceKind::Nmos, a, mid, gnd, g);
        n.add_transistor("MN2", DeviceKind::Nmos, bn, y, mid, g);
        n.add_transistor("MP1", DeviceKind::Pmos, a, vdd, y, g);
        n.add_transistor("MP2", DeviceKind::Pmos, bn, vdd, y, g);
        // Pass transistor from y to z (channel-connected!).
        n.add_transistor("MPASS", DeviceKind::Nmos, en, y, z, g);
        n.add_primary_output(z);
        let parts = partition(&n).unwrap();
        assert_eq!(parts.len(), 1, "channel connection keeps one stage");
        assert_eq!(parts[0].stage.edge_count(), 5);
        assert_eq!(parts[0].input_nets.len(), 3);
    }

    #[test]
    fn wires_merge_components() {
        let t = Technology::cmosp35();
        let g = Geometry::new(t.w_min, t.l_min);
        let mut n = Netlist::new();
        let gnd = n.gnd();
        let a = n.net("a");
        let x = n.net("x");
        let y = n.net("y");
        n.add_transistor("MN1", DeviceKind::Nmos, a, x, gnd, g);
        n.add_wire("W1", x, y, 0.6e-6, 50e-6);
        n.add_primary_output(y);
        let parts = partition(&n).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].stage.edge_count(), 2);
    }

    #[test]
    fn explicit_caps_carry_over() {
        let mut nl = two_inverters();
        let x = nl.find_net("x").unwrap();
        nl.add_cap(x, 7e-15);
        let parts = partition(&nl).unwrap();
        let p = parts
            .iter()
            .find(|p| p.output_nets.contains(&x))
            .expect("stage driving x");
        let node = p.stage.node_by_name("x").unwrap();
        assert!((p.stage.node(node).load_cap - 7e-15).abs() < 1e-24);
    }

    #[test]
    fn outputs_are_gate_drivers_or_primaries() {
        let nl = two_inverters();
        let parts = partition(&nl).unwrap();
        let x = nl.find_net("x").unwrap();
        let z = nl.find_net("z").unwrap();
        let mut outs: Vec<NetId> = parts.iter().flat_map(|p| p.output_nets.clone()).collect();
        outs.sort();
        assert_eq!(outs, vec![x, z]);
    }
}
