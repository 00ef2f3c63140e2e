//! The stage graph: netlist → partitioned stages → timing DAG.
//!
//! Stages are extracted as channel-connected components
//! ([`qwm_circuit::partition`]); a directed timing edge runs from the
//! stage driving a net to every stage using that net as a gate input.
//! Arrival times propagate along this DAG (combinational circuits only —
//! cycles are rejected).

use qwm_circuit::netlist::{NetId, Netlist};
use qwm_circuit::partition::{partition, StagePartition};
use qwm_num::{NumError, Result};

/// Index of a stage within a [`StageGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(pub usize);

/// "No stage" in the dense per-net and per-device tables.
const NONE: u32 = u32::MAX;

/// The partitioned timing graph over a netlist.
///
/// Every map is dense: per-net and per-device tables indexed by
/// [`NetId`] and device index, and the net → user-stage relation as one
/// offset array over one entry array.
#[derive(Debug)]
pub struct StageGraph {
    partitions: Vec<StagePartition>,
    /// Which stage drives each net (`NONE` for primary inputs).
    driver: Vec<u32>,
    /// `users[users_at[net]..users_at[net + 1]]`: the stages whose
    /// inputs include `net`, in stage order.
    users_at: Vec<u32>,
    users: Vec<StageId>,
    /// Aligned with `users`: the net's position among that stage's
    /// `input_nets` (and so its input id).
    user_inputs: Vec<u32>,
    /// Topological order of stage indices.
    topo: Vec<StageId>,
    /// Netlist device index → containing stage (`NONE` if none;
    /// devices never migrate between stages, so this is built once).
    device_stage: Vec<u32>,
    /// `arc_at[s]..arc_at[s + 1]`: the timing arcs of stage `s`, one
    /// per output net, numbered stage-major.
    arc_at: Vec<usize>,
}

impl StageGraph {
    /// Partitions `netlist` and builds the DAG.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures; returns
    /// [`NumError::InvalidInput`] if a stage gates one of its own
    /// devices with one of its own output nets (a diode-connected
    /// device, say), if a gate net is neither a rail, nor driven by a
    /// stage, nor a declared primary input, or if the stage graph is
    /// cyclic (latch loops are out of scope for static timing).
    pub fn build(netlist: &Netlist) -> Result<Self> {
        let partitions = partition(netlist)?;
        let nets = netlist.net_count();
        let mut driver = vec![NONE; nets];
        let mut users_at = vec![0u32; nets + 1];
        for (i, p) in partitions.iter().enumerate() {
            for &net in &p.output_nets {
                driver[net.0] = i as u32;
            }
            for &net in &p.input_nets {
                users_at[net.0 + 1] += 1;
            }
        }
        let mut declared = vec![false; nets];
        for &net in netlist.primary_inputs() {
            declared[net.0] = true;
        }
        // A net has one driving stage, so `driver[g] == i` is exactly
        // "g is among stage i's outputs". Any other gate net must be a
        // rail, driven by a stage, or a declared primary input.
        for (i, p) in partitions.iter().enumerate() {
            let bad_gate = p.device_indices.iter().find_map(|&d| {
                let device = &netlist.devices()[d];
                let gate = device.gate?;
                let why = match driver[gate.0] {
                    s if s == i as u32 => ("its own output net", "self-loop"),
                    NONE if !declared[gate.0] && !netlist.is_rail(gate) => (
                        "undriven net",
                        "no stage drives it and it is not declared .input",
                    ),
                    _ => return None,
                };
                Some((device, gate, why))
            });
            if let Some((device, gate, (what, note))) = bad_gate {
                return Err(NumError::InvalidInput {
                    context: "StageGraph::build",
                    detail: format!(
                        "{} is gated by {what} {} at device {} ({note})",
                        p.stage.name(),
                        netlist.net_name(gate),
                        device.name
                    ),
                });
            }
        }
        for net in 0..nets {
            users_at[net + 1] += users_at[net];
        }
        let mut users = vec![StageId(0); users_at[nets] as usize];
        let mut user_inputs = vec![0u32; users.len()];
        let mut cursor = users_at.clone();
        for (i, p) in partitions.iter().enumerate() {
            for (pos, &net) in p.input_nets.iter().enumerate() {
                let at = cursor[net.0] as usize;
                users[at] = StageId(i);
                user_inputs[at] = pos as u32;
                cursor[net.0] += 1;
            }
        }
        let mut device_stage = vec![NONE; netlist.devices().len()];
        for (i, p) in partitions.iter().enumerate() {
            for &d in &p.device_indices {
                device_stage[d] = i as u32;
            }
        }
        let mut arc_at = Vec::with_capacity(partitions.len() + 1);
        arc_at.push(0);
        for p in &partitions {
            arc_at.push(arc_at[arc_at.len() - 1] + p.output_nets.len());
        }
        let mut graph = StageGraph {
            partitions,
            driver,
            users_at,
            users,
            user_inputs,
            topo: Vec::new(),
            device_stage,
            arc_at,
        };
        graph.topo = graph.kahn()?;
        Ok(graph)
    }

    /// Kahn's algorithm over stage → stage edges (a stack worklist;
    /// successors in output-net order, then `users_of` order).
    fn kahn(&self) -> Result<Vec<StageId>> {
        let n = self.partitions.len();
        let mut indeg = vec![0usize; n];
        for i in 0..n {
            self.for_each_successor(i, |s| indeg[s] += 1);
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(StageId(i));
            self.for_each_successor(i, |s| {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            });
        }
        if topo.len() != n {
            return Err(NumError::InvalidInput {
                context: "StageGraph::build",
                detail: "stage graph is cyclic (combinational loop)".to_string(),
            });
        }
        Ok(topo)
    }

    /// Calls `f` on every stage reading one of stage `i`'s output nets,
    /// with repeats, in output-net then `users_of` order (`build`
    /// rejects a stage reading its own outputs).
    fn for_each_successor(&self, i: usize, mut f: impl FnMut(usize)) {
        for &net in &self.partitions[i].output_nets {
            for user in self.users_of(net) {
                f(user.0);
            }
        }
    }
    /// The partitions, indexable by [`StageId`].
    pub fn partitions(&self) -> &[StagePartition] {
        &self.partitions
    }

    /// Mutable partitions (incremental geometry updates; topology must
    /// not be altered).
    pub fn partitions_mut(&mut self) -> &mut [StagePartition] {
        &mut self.partitions
    }

    /// Stage lookup.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn stage(&self, id: StageId) -> &StagePartition {
        &self.partitions[id.0]
    }

    /// Which stage drives `net`, if any.
    pub fn driver_of(&self, net: NetId) -> Option<StageId> {
        self.driver
            .get(net.0)
            .filter(|&&s| s != NONE)
            .map(|&s| StageId(s as usize))
    }

    /// Range of `users` (and `user_inputs`) holding `net`'s readers.
    fn user_range(&self, net: NetId) -> std::ops::Range<usize> {
        match self.users_at.get(net.0..net.0 + 2) {
            Some(&[a, b]) => a as usize..b as usize,
            _ => 0..0,
        }
    }

    /// Stages that read `net` as a gate input, in stage order.
    pub fn users_of(&self, net: NetId) -> &[StageId] {
        &self.users[self.user_range(net)]
    }

    /// Aligned with [`Self::users_of`]: the input of each reading stage
    /// that `net` drives (its position among that stage's
    /// `input_nets`).
    pub(crate) fn user_inputs_of(&self, net: NetId) -> &[u32] {
        &self.user_inputs[self.user_range(net)]
    }

    /// Topological order of the stages.
    pub fn topo_order(&self) -> &[StageId] {
        &self.topo
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the netlist produced no stages.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The stage containing netlist device `device_index`, if any.
    /// O(1): the index is precomputed at build time (a linear scan per
    /// resize used to make incremental sizing sweeps quadratic).
    pub fn stage_of_device(&self, device_index: usize) -> Option<StageId> {
        self.device_stage
            .get(device_index)
            .filter(|&&s| s != NONE)
            .map(|&s| StageId(s as usize))
    }

    /// The static fanout cone of `seeds`: every stage reachable from a
    /// seed stage along dependency edges, seeds included, as a sorted
    /// set of stage indices. This is the upper bound of what an
    /// incremental re-timing may re-evaluate; early stop inside the
    /// cone can only shrink the actually-evaluated set.
    pub fn fanout_cone(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut in_cone = vec![false; self.partitions.len()];
        let mut frontier: Vec<usize> = Vec::new();
        for s in seeds {
            if s < in_cone.len() && !in_cone[s] {
                in_cone[s] = true;
                frontier.push(s);
            }
        }
        while let Some(s) = frontier.pop() {
            self.for_each_successor(s, |t| {
                if !in_cone[t] {
                    in_cone[t] = true;
                    frontier.push(t);
                }
            });
        }
        (0..in_cone.len()).filter(|&i| in_cone[i]).collect()
    }

    /// The timing arcs of stage `s`: arc `arcs(s).start + o` times the
    /// stage's `output_nets[o]`.
    pub(crate) fn arcs(&self, s: usize) -> std::ops::Range<usize> {
        self.arc_at[s]..self.arc_at[s + 1]
    }

    /// Arc → arc dependency edges, the input `run_dag` levelizes: arc
    /// (s, o) precedes every arc of every stage that reads
    /// `output_nets[o]`.
    pub(crate) fn arc_dependencies(&self) -> Vec<Vec<usize>> {
        let outputs = self.partitions.iter().flat_map(|p| &p.output_nets);
        outputs
            .map(|&net| {
                self.users_of(net)
                    .iter()
                    .flat_map(|u| self.arcs(u.0))
                    .collect()
            })
            .collect()
    }
}

/// Builds an inverter-chain netlist of the given depth — a standard
/// timing test structure (each inverter sized `wn`/`2·wn`).
pub fn inverter_chain(tech: &qwm_device::Technology, depth: usize, load: f64) -> Netlist {
    use qwm_circuit::stage::DeviceKind;
    use qwm_device::model::Geometry;
    let mut nl = Netlist::new();
    let (vdd, gnd) = (nl.vdd(), nl.gnd());
    let gn = Geometry::new(tech.w_min, tech.l_min);
    let gp = Geometry::new(2.0 * tech.w_min, tech.l_min);
    let mut prev = nl.net("in");
    nl.add_primary_input(prev);
    for i in 0..depth {
        let out = nl.net(&format!("n{}", i + 1));
        nl.add_transistor(format!("MN{i}"), DeviceKind::Nmos, prev, out, gnd, gn);
        nl.add_transistor(format!("MP{i}"), DeviceKind::Pmos, prev, vdd, out, gp);
        prev = out;
    }
    nl.add_cap(prev, load);
    nl.add_primary_output(prev);
    nl
}

/// Builds a randomized combinational DAG netlist of `stages` gates
/// (inverters and NAND2s) wired to randomly chosen earlier nets — the
/// workload for scheduler/determinism tests and scaling benches.
/// Acyclic by construction; fully determined by `seed`.
pub fn random_dag_netlist(tech: &qwm_device::Technology, stages: usize, seed: u64) -> Netlist {
    use qwm_circuit::stage::DeviceKind;
    use qwm_device::model::Geometry;
    use qwm_num::rng::Rng64;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut nl = Netlist::new();
    let (vdd, gnd) = (nl.vdd(), nl.gnd());
    let mut nets: Vec<NetId> = Vec::new();
    for i in 0..3 {
        let pi = nl.net(&format!("in{i}"));
        nl.add_primary_input(pi);
        nets.push(pi);
    }
    // Gate inputs prefer recent nets so depth grows with size (a wide
    // shallow graph would undersell the dependency scheduler).
    let pick = |rng: &mut Rng64, nets: &[NetId]| {
        let window = nets.len().min(12);
        let base = nets.len() - window;
        nets[base + (rng.next_u64() as usize) % window]
    };
    let mut used: Vec<bool> = vec![false; 0];
    for i in 0..stages {
        let out = nl.net(&format!("g{i}"));
        let wn = tech.w_min * (1.0 + rng.unit());
        let gn = Geometry::new(wn, tech.l_min);
        let gp = Geometry::new(2.0 * wn, tech.l_min);
        let a = pick(&mut rng, &nets);
        let mark = |n: NetId, used: &mut Vec<bool>| {
            if used.len() <= n.0 {
                used.resize(n.0 + 1, false);
            }
            used[n.0] = true;
        };
        mark(a, &mut used);
        if rng.unit() < 0.6 {
            // Inverter.
            nl.add_transistor(format!("MN{i}"), DeviceKind::Nmos, a, out, gnd, gn);
            nl.add_transistor(format!("MP{i}"), DeviceKind::Pmos, a, vdd, out, gp);
        } else {
            // NAND2 with two distinct drivers where possible.
            let mut b = pick(&mut rng, &nets);
            if b == a {
                b = nets[(rng.next_u64() as usize) % nets.len()];
            }
            mark(b, &mut used);
            let mid = nl.net(&format!("g{i}_m"));
            nl.add_transistor(format!("MN{i}a"), DeviceKind::Nmos, a, out, mid, gn);
            nl.add_transistor(format!("MN{i}b"), DeviceKind::Nmos, b, mid, gnd, gn);
            nl.add_transistor(format!("MP{i}a"), DeviceKind::Pmos, a, vdd, out, gp);
            nl.add_transistor(format!("MP{i}b"), DeviceKind::Pmos, b, vdd, out, gp);
        }
        nl.add_cap(out, 2e-15 + 6e-15 * rng.unit());
        nets.push(out);
    }
    // Dangling gate outputs become primary outputs: every stage then has
    // a natural output and internal (e.g. NAND mid) nodes stay internal.
    for i in 0..stages {
        let out = nl.find_net(&format!("g{i}")).expect("gate output exists");
        if !used.get(out.0).copied().unwrap_or(false) {
            nl.add_primary_output(out);
        }
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_device::Technology;
    use std::collections::HashMap;

    #[test]
    fn inverter_chain_topology() {
        let tech = Technology::cmosp35();
        let nl = inverter_chain(&tech, 5, 10e-15);
        let g = StageGraph::build(&nl).unwrap();
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.topo_order().len(), 5);
        // Topological order respects the chain: driver of n1 precedes
        // driver of n2, etc.
        let pos: HashMap<usize, usize> = g
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.0, i))
            .collect();
        for i in 1..5 {
            let a = nl.find_net(&format!("n{i}")).unwrap();
            let b = nl.find_net(&format!("n{}", i + 1)).unwrap();
            let sa = g.driver_of(a).unwrap();
            let sb = g.driver_of(b).unwrap();
            assert!(
                pos[&sa.0] < pos[&sb.0],
                "stage for n{i} precedes n{}",
                i + 1
            );
        }
    }

    #[test]
    fn primary_input_has_no_driver() {
        let tech = Technology::cmosp35();
        let nl = inverter_chain(&tech, 2, 10e-15);
        let g = StageGraph::build(&nl).unwrap();
        let input = nl.find_net("in").unwrap();
        assert!(g.driver_of(input).is_none());
        assert_eq!(g.users_of(input).len(), 1);
    }

    #[test]
    fn cyclic_graph_rejected() {
        use qwm_circuit::stage::DeviceKind;
        use qwm_device::model::Geometry;
        let tech = Technology::cmosp35();
        let geom = Geometry::new(tech.w_min, tech.l_min);
        let gp = Geometry::new(2.0 * tech.w_min, tech.l_min);
        // Cross-coupled inverters (an SRAM cell): cyclic.
        let mut nl = Netlist::new();
        let (vdd, gnd) = (nl.vdd(), nl.gnd());
        let q = nl.net("q");
        let qb = nl.net("qb");
        nl.add_transistor("MN1", DeviceKind::Nmos, qb, q, gnd, geom);
        nl.add_transistor("MP1", DeviceKind::Pmos, qb, vdd, q, gp);
        nl.add_transistor("MN2", DeviceKind::Nmos, q, qb, gnd, geom);
        nl.add_transistor("MP2", DeviceKind::Pmos, q, vdd, qb, gp);
        assert!(StageGraph::build(&nl).is_err());
    }

    #[test]
    fn self_gated_stage_rejected() {
        use qwm_circuit::stage::DeviceKind;
        use qwm_device::model::Geometry;
        let tech = Technology::cmosp35();
        let gn = Geometry::new(tech.w_min, tech.l_min);
        let gp = Geometry::new(2.0 * tech.w_min, tech.l_min);
        // A diode-connected NMOS under an inverter's PMOS.
        let mut diode = Netlist::new();
        let (vdd, gnd) = (diode.vdd(), diode.gnd());
        let a = diode.net("a");
        let y = diode.net("y");
        diode.add_transistor("MP1", DeviceKind::Pmos, a, vdd, y, gp);
        diode.add_transistor("MN1", DeviceKind::Nmos, y, y, gnd, gn);
        diode.add_primary_input(a);
        diode.add_primary_output(y);
        // An inverter whose one net is both `.input` and `.output`.
        let mut looped = Netlist::new();
        let (vdd, gnd) = (looped.vdd(), looped.gnd());
        let x = looped.net("x");
        looped.add_transistor("MN2", DeviceKind::Nmos, x, x, gnd, gn);
        looped.add_transistor("MP2", DeviceKind::Pmos, x, vdd, x, gp);
        looped.add_primary_input(x);
        looped.add_primary_output(x);
        for (nl, net, device) in [(diode, "y", "MN1"), (looped, "x", "MN2")] {
            let e = StageGraph::build(&nl).unwrap_err().to_string();
            assert!(
                e.contains("stage_0")
                    && e.contains(&format!("net {net} "))
                    && e.contains(&format!("device {device} ")),
                "{e}"
            );
        }
    }

    #[test]
    fn undriven_gate_net_rejected() {
        use qwm_circuit::stage::DeviceKind;
        use qwm_device::model::Geometry;
        let tech = Technology::cmosp35();
        let gn = Geometry::new(tech.w_min, tech.l_min);
        let gp = Geometry::new(2.0 * tech.w_min, tech.l_min);
        // An inverter chain whose second stage is gated by `b`, which no
        // stage drives and no `.input` declares.
        let mut nl = Netlist::new();
        let (vdd, gnd) = (nl.vdd(), nl.gnd());
        let (a, b, y, z) = (nl.net("a"), nl.net("b"), nl.net("y"), nl.net("z"));
        nl.add_transistor("MP1", DeviceKind::Pmos, a, vdd, y, gp);
        nl.add_transistor("MN1", DeviceKind::Nmos, a, y, gnd, gn);
        nl.add_transistor("MP2", DeviceKind::Pmos, b, vdd, z, gp);
        nl.add_transistor("MN2", DeviceKind::Nmos, b, z, gnd, gn);
        nl.add_primary_input(a);
        nl.add_primary_output(z);
        let e = StageGraph::build(&nl).unwrap_err().to_string();
        assert!(
            e.contains("undriven net b ") && e.contains("device MP2 "),
            "{e}"
        );
        // Declaring it an input makes it a primary input like `a`.
        nl.add_primary_input(b);
        assert_eq!(StageGraph::build(&nl).unwrap().len(), 2);
    }

    #[test]
    fn fanout_cone_of_chain_is_a_suffix() {
        let tech = Technology::cmosp35();
        let nl = inverter_chain(&tech, 5, 10e-15);
        let g = StageGraph::build(&nl).unwrap();
        // Seed at the stage driving n3: cone = drivers of n3, n4, n5.
        let n3 = nl.find_net("n3").unwrap();
        let seed = g.driver_of(n3).unwrap();
        let cone = g.fanout_cone([seed.0]);
        assert_eq!(cone.len(), 3);
        assert!(cone.contains(&seed.0));
        for i in 4..=5 {
            let net = nl.find_net(&format!("n{i}")).unwrap();
            assert!(cone.contains(&g.driver_of(net).unwrap().0));
        }
        // Empty seed set → empty cone; duplicate seeds don't double.
        assert!(g.fanout_cone([]).is_empty());
        assert_eq!(g.fanout_cone([seed.0, seed.0]).len(), 3);
    }

    #[test]
    fn stage_of_device_lookup() {
        let tech = Technology::cmosp35();
        let nl = inverter_chain(&tech, 3, 10e-15);
        let g = StageGraph::build(&nl).unwrap();
        for d in 0..nl.devices().len() {
            let s = g.stage_of_device(d).expect("every device has a stage");
            assert!(g.stage(s).device_indices.contains(&d));
        }
        assert!(g.stage_of_device(999).is_none());
    }
}
