//! The CMOS logic stage as a polar directed graph (paper Definition 1).
//!
//! A logic stage is the unit of transistor-level timing analysis: a set
//! of channel-connected transistors and wire segments between the supply
//! (the graph *source*) and ground (the graph *sink*), with a set of
//! inputs (gate nets) and outputs (nodes observed by downstream stages).
//!
//! ```text
//! Definition 1: ⟨N, E, s, t, I, O⟩
//!   Node = { incoming: 2^Edge, outgoing: 2^Edge }
//!   Edge = { kind: Device, src, snk: Node, w, l: ℝ }
//!   Device = { nmos, pmos, wire }
//! ```
//!
//! A built stage is flat: every node and input name sits in one arena
//! string, and the per-node adjacency (incident edges, node-gated edges)
//! and the per-input gated edges are offset ranges into three shared
//! arrays, frozen at [`StageBuilder::build`] — a handful of allocations
//! per stage, whatever its size.

use crate::intern::{name_at, name_hash, push_name, NameIndex, Span};
use qwm_device::model::{Geometry, ModelSet, Polarity, TermVoltage};
use qwm_num::{NumError, Result};

/// Index of a node within a [`LogicStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of an edge (circuit element) within a [`LogicStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

/// Index of an input (gate net) within a [`LogicStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputId(pub usize);

/// The three circuit-element kinds of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel transistor.
    Nmos,
    /// P-channel transistor.
    Pmos,
    /// Wire segment (linear element, no gate).
    Wire,
}

impl DeviceKind {
    /// The transistor polarity, or `None` for wires.
    pub fn polarity(self) -> Option<Polarity> {
        match self {
            DeviceKind::Nmos => Some(Polarity::Nmos),
            DeviceKind::Pmos => Some(Polarity::Pmos),
            DeviceKind::Wire => None,
        }
    }
}

/// What a node is electrically tied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The graph source `s`: the supply rail (fixed at Vdd).
    Supply,
    /// The graph sink `t`: the ground rail (fixed at 0).
    Ground,
    /// An ordinary circuit node with a state variable.
    Internal,
}

/// A node of the stage graph. Its name is
/// [`LogicStage::node_name`]; its edges, [`LogicStage::incident`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Electrical role.
    pub kind: NodeKind,
    /// External load capacitance attached at this node \[F\].
    pub load_cap: f64,
    name: Span,
    /// Range of the stage's `incident` array: outgoing edges, then
    /// incoming, each in edge order.
    incident: Span,
    /// Range of the stage's `gate_loads` array: edges whose gate is
    /// tied to this node, in edge order.
    gate_loads: Span,
}

/// An edge of the stage graph: one circuit element.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Element kind.
    pub kind: DeviceKind,
    /// Source node.
    pub src: NodeId,
    /// Sink node.
    pub snk: NodeId,
    /// Geometry (w, l and optional junction data).
    pub geom: Geometry,
    /// The gate input driving this element (`None` for wires and for
    /// node-gated transistors).
    pub input: Option<InputId>,
    /// A stage node driving this element's gate instead of an external
    /// input — feedback devices (keepers, latches) and fully flattened
    /// circuits (ring oscillators) use this.
    pub gate_node: Option<NodeId>,
}

/// An input (gate net). Its name is [`LogicStage::input_name`]; the
/// edges it gates, [`LogicStage::input_edges`].
#[derive(Debug, Clone)]
pub struct Input {
    name: Span,
    /// Range of the stage's `input_edges` array.
    edges: Span,
}

/// A CMOS logic stage: the polar directed graph ⟨N, E, s, t, I, O⟩.
#[derive(Debug, Clone)]
pub struct LogicStage {
    /// The stage name, then every node and input name.
    names: String,
    name: Span,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    inputs: Vec<Input>,
    outputs: Vec<NodeId>,
    /// Incident `(edge, neighbour)` pairs of every node, back to back.
    /// Topology is immutable after build (only geometry and loads may
    /// change), so the hot paths borrow these slices instead of
    /// re-deriving adjacency per query.
    incident: Vec<(EdgeId, NodeId)>,
    /// Node-gated edges of every node, back to back (usually empty) —
    /// node-gated loading without an O(edges) scan per `node_cap` call.
    gate_loads: Vec<EdgeId>,
    /// Gated edges of every input, back to back.
    input_edges: Vec<EdgeId>,
}

fn range<T>(items: &[T], span: Span) -> &[T] {
    &items[span.0 as usize..span.1 as usize]
}

impl LogicStage {
    /// Starts building a stage with the given name. The supply (`vdd`)
    /// and ground (`gnd`) rails are created automatically.
    pub fn builder(name: impl Into<String>) -> StageBuilder {
        StageBuilder::new(name.into(), 0, 0, 0)
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        name_at(&self.names, self.name)
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, indexable by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All inputs, indexable by [`InputId`].
    pub fn inputs(&self) -> &[Input] {
        &self.inputs
    }

    /// The declared output nodes `O`.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The supply node `s`.
    pub fn source(&self) -> NodeId {
        NodeId(0)
    }

    /// The ground node `t`.
    pub fn sink(&self) -> NodeId {
        NodeId(1)
    }

    /// Node lookup by id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Edge lookup by id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Input lookup by id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn input(&self, id: InputId) -> &Input {
        &self.inputs[id.0]
    }

    /// Name of a node (unique within the stage).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node_name(&self, id: NodeId) -> &str {
        name_at(&self.names, self.nodes[id.0].name)
    }

    /// Name of an input (unique within the stage).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn input_name(&self, id: InputId) -> &str {
        name_at(&self.names, self.inputs[id.0].name)
    }

    /// Edges gated by an input, in edge order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn input_edges(&self, id: InputId) -> &[EdgeId] {
        range(&self.input_edges, self.inputs[id.0].edges)
    }

    /// Resolves a node by name: a scan, O(nodes). The timing paths
    /// address nodes by id (a partition's outputs are aligned with its
    /// output nets); names serve tests, tools and error messages.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .find(|&id| self.node_name(id) == name)
    }

    /// Resolves an input by name: a scan, O(inputs).
    pub fn input_by_name(&self, name: &str) -> Option<InputId> {
        (0..self.inputs.len())
            .map(InputId)
            .find(|&id| self.input_name(id) == name)
    }

    /// Ids of all internal (state-carrying) nodes.
    pub fn internal_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&id| self.nodes[id.0].kind == NodeKind::Internal)
            .collect()
    }

    /// Edges incident to `id` (either direction), with the neighbour
    /// node — outgoing then incoming. A borrow of the adjacency frozen
    /// at build time, not a fresh allocation.
    pub fn incident(&self, id: NodeId) -> &[(EdgeId, NodeId)] {
        range(&self.incident, self.nodes[id.0].incident)
    }

    /// Total capacitance to ground at a node (paper Eq. (1)): the sum of
    /// every incident element's terminal contribution at node voltage `v`
    /// plus the external load.
    pub fn node_cap(&self, id: NodeId, models: &ModelSet, v: f64) -> f64 {
        let node = &self.nodes[id.0];
        let mut c = node.load_cap;
        // Gate loading from node-gated transistors (precomputed list,
        // same edge order as a full scan).
        for &e in range(&self.gate_loads, node.gate_loads) {
            let edge = &self.edges[e.0];
            if let Some(p) = edge.kind.polarity() {
                c += models.for_polarity(p).input_cap(&edge.geom);
            }
        }
        for &(e, _) in range(&self.incident, node.incident) {
            let edge = &self.edges[e.0];
            let model: &dyn qwm_device::DeviceModel = match edge.kind {
                DeviceKind::Nmos => models.for_polarity(Polarity::Nmos),
                DeviceKind::Pmos => models.for_polarity(Polarity::Pmos),
                DeviceKind::Wire => {
                    // π-lumped wire: half the total cap at each terminal,
                    // voltage independent.
                    c += 0.5 * qwm_device::caps::wire_cap(models.tech(), edge.geom.w, edge.geom.l);
                    continue;
                }
            };
            if edge.src == id {
                c += model.src_cap(&edge.geom, v);
            } else {
                c += model.snk_cap(&edge.geom, v);
            }
        }
        c
    }

    /// The gate-capacitance load this stage presents on one of its
    /// inputs — what a *driving* stage sees (`inputcap` totals).
    pub fn input_cap(&self, id: InputId, models: &ModelSet) -> f64 {
        self.input_edges(id)
            .iter()
            .map(|&e| {
                let edge = &self.edges[e.0];
                match edge.kind.polarity() {
                    Some(p) => models.for_polarity(p).input_cap(&edge.geom),
                    None => 0.0,
                }
            })
            .sum()
    }

    /// Evaluates the terminal-voltage tuple of an edge given per-node
    /// voltages and per-input gate voltages.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are shorter than the node/input counts.
    pub fn edge_voltages(&self, e: EdgeId, node_v: &[f64], input_v: &[f64]) -> TermVoltage {
        let edge = &self.edges[e.0];
        let input = match (edge.input, edge.gate_node) {
            (Some(i), _) => input_v[i.0],
            (None, Some(n)) => node_v[n.0],
            (None, None) => 0.0,
        };
        TermVoltage {
            input,
            src: node_v[edge.src.0],
            snk: node_v[edge.snk.0],
        }
    }

    /// Replaces the geometry of an edge (incremental transistor
    /// resizing).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge id.
    pub fn set_edge_geometry(&mut self, e: EdgeId, geom: Geometry) {
        self.edges[e.0].geom = geom;
    }

    /// Adds external load capacitance at a node after construction
    /// (load sweeps during cell characterization).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node id.
    pub fn add_load(&mut self, node: NodeId, cap: f64) {
        self.nodes[node.0].load_cap += cap;
    }

    /// Number of nodes (including the two rails).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// Incremental builder for [`LogicStage`] (the graph shape makes a plain
/// constructor unwieldy).
#[derive(Debug)]
pub struct StageBuilder {
    names: String,
    name: Span,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    inputs: Vec<Input>,
    outputs: Vec<NodeId>,
    /// Name lookup for [`Self::node`] / [`Self::input`], covering the
    /// first `nodes_indexed` / `inputs_indexed` entries and brought up
    /// to date on use, so a builder fed only unique names through
    /// [`Self::push_node`] / [`Self::push_input`] never builds one.
    node_index: NameIndex,
    nodes_indexed: usize,
    input_index: NameIndex,
    inputs_indexed: usize,
}

impl StageBuilder {
    /// A builder with room for `nodes` internal nodes, `edges` edges and
    /// `inputs` inputs; `name`'s spare capacity becomes the name arena.
    pub(crate) fn new(name: String, nodes: usize, edges: usize, inputs: usize) -> Self {
        let mut names = name;
        let name = (0, names.len() as u32);
        names.reserve(6);
        let mut b = StageBuilder {
            names,
            name,
            nodes: Vec::with_capacity(nodes + 2),
            edges: Vec::with_capacity(edges),
            inputs: Vec::with_capacity(inputs),
            outputs: Vec::new(),
            node_index: NameIndex::default(),
            nodes_indexed: 0,
            input_index: NameIndex::default(),
            inputs_indexed: 0,
        };
        b.push_node("vdd", NodeKind::Supply);
        b.push_node("gnd", NodeKind::Ground);
        b
    }

    /// Appends a node without checking its name for a duplicate.
    pub(crate) fn push_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            load_cap: 0.0,
            name: push_name(&mut self.names, name),
            incident: (0, 0),
            gate_loads: (0, 0),
        });
        id
    }

    /// Appends an input without checking its name for a duplicate.
    pub(crate) fn push_input(&mut self, name: &str) -> InputId {
        let id = InputId(self.inputs.len());
        self.inputs.push(Input {
            name: push_name(&mut self.names, name),
            edges: (0, 0),
        });
        id
    }

    /// The supply node (always present).
    pub fn vdd(&self) -> NodeId {
        NodeId(0)
    }

    /// The ground node (always present).
    pub fn gnd(&self) -> NodeId {
        NodeId(1)
    }

    /// Adds (or returns) an internal node by name.
    pub fn node(&mut self, name: &str) -> NodeId {
        let (names, nodes) = (&self.names, &self.nodes);
        let index = (&mut self.node_index, &mut self.nodes_indexed);
        match lookup(index, names, nodes, |n| n.name, name) {
            Some(i) => NodeId(i),
            None => self.push_node(name, NodeKind::Internal),
        }
    }

    /// Adds (or returns) an input by name.
    pub fn input(&mut self, name: &str) -> InputId {
        let (names, inputs) = (&self.names, &self.inputs);
        let index = (&mut self.input_index, &mut self.inputs_indexed);
        match lookup(index, names, inputs, |x| x.name, name) {
            Some(i) => InputId(i),
            None => self.push_input(name),
        }
    }

    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(edge);
        id
    }

    /// Adds a transistor edge from `src` to `snk`, gated by `input`.
    pub fn transistor(
        &mut self,
        kind: DeviceKind,
        input: InputId,
        src: NodeId,
        snk: NodeId,
        geom: Geometry,
    ) -> EdgeId {
        debug_assert!(kind != DeviceKind::Wire, "use wire() for wires");
        self.push_edge(Edge {
            kind,
            src,
            snk,
            geom,
            input: Some(input),
            gate_node: None,
        })
    }

    /// Adds a transistor whose gate is driven by another **stage node**
    /// (feedback devices, flattened multi-stage circuits).
    pub fn transistor_gated_by_node(
        &mut self,
        kind: DeviceKind,
        gate: NodeId,
        src: NodeId,
        snk: NodeId,
        geom: Geometry,
    ) -> EdgeId {
        debug_assert!(kind != DeviceKind::Wire, "use wire() for wires");
        self.push_edge(Edge {
            kind,
            src,
            snk,
            geom,
            input: None,
            gate_node: Some(gate),
        })
    }

    /// Adds a wire edge from `src` to `snk` with the given `w × l`.
    pub fn wire(&mut self, src: NodeId, snk: NodeId, w: f64, l: f64) -> EdgeId {
        self.push_edge(Edge {
            kind: DeviceKind::Wire,
            src,
            snk,
            geom: Geometry::new(w, l),
            input: None,
            gate_node: None,
        })
    }

    /// Declares `node` as a stage output.
    pub fn output(&mut self, node: NodeId) -> &mut Self {
        if !self.outputs.contains(&node) {
            self.outputs.push(node);
        }
        self
    }

    /// Attaches external load capacitance at `node` \[F\].
    pub fn load(&mut self, node: NodeId, cap: f64) -> &mut Self {
        self.nodes[node.0].load_cap += cap;
        self
    }

    /// Finalizes the stage.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if the stage has no edges, no
    /// outputs, or an edge with a non-positive geometry.
    pub fn build(self) -> Result<LogicStage> {
        if self.edges.is_empty() {
            return Err(NumError::InvalidInput {
                context: "StageBuilder::build",
                detail: "stage has no circuit elements".to_string(),
            });
        }
        if self.outputs.is_empty() {
            return Err(NumError::InvalidInput {
                context: "StageBuilder::build",
                detail: "stage declares no outputs".to_string(),
            });
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.geom.w <= 0.0 || e.geom.l <= 0.0 {
                return Err(NumError::InvalidInput {
                    context: "StageBuilder::build",
                    detail: format!("edge {i} has non-positive geometry"),
                });
            }
        }
        let StageBuilder {
            names,
            name,
            mut nodes,
            edges,
            mut inputs,
            outputs,
            ..
        } = self;
        // Freeze the adjacency: count each list's length into its span
        // end, open back-to-back ranges, then fill them in edge order. A
        // node's incident range holds its outgoing edges, then its
        // incoming ones, so that fill takes two passes.
        for e in &edges {
            nodes[e.src.0].incident.1 += 1;
            nodes[e.snk.0].incident.1 += 1;
            if let Some(g) = e.gate_node {
                nodes[g.0].gate_loads.1 += 1;
            }
            if let Some(x) = e.input {
                inputs[x.0].edges.1 += 1;
            }
        }
        let n_incident = open_ranges(nodes.iter_mut().map(|n| &mut n.incident));
        let n_gate_loads = open_ranges(nodes.iter_mut().map(|n| &mut n.gate_loads));
        let n_input_edges = open_ranges(inputs.iter_mut().map(|x| &mut x.edges));
        let mut incident = vec![(EdgeId(0), NodeId(0)); n_incident];
        let mut gate_loads = vec![EdgeId(0); n_gate_loads];
        let mut input_edges = vec![EdgeId(0); n_input_edges];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i);
            fill(&mut incident, &mut nodes[e.src.0].incident, (id, e.snk));
            if let Some(g) = e.gate_node {
                fill(&mut gate_loads, &mut nodes[g.0].gate_loads, id);
            }
            if let Some(x) = e.input {
                fill(&mut input_edges, &mut inputs[x.0].edges, id);
            }
        }
        for (i, e) in edges.iter().enumerate() {
            fill(
                &mut incident,
                &mut nodes[e.snk.0].incident,
                (EdgeId(i), e.src),
            );
        }
        Ok(LogicStage {
            names,
            name,
            nodes,
            edges,
            inputs,
            outputs,
            incident,
            gate_loads,
            input_edges,
        })
    }
}

/// The position of the item named `name` in `items`, after indexing
/// the items not yet in `index` (those past `indexed`).
fn lookup<T>(
    (index, indexed): (&mut NameIndex, &mut usize),
    names: &str,
    items: &[T],
    name_of: impl Fn(&T) -> Span,
    name: &str,
) -> Option<usize> {
    for (i, item) in items.iter().enumerate().skip(*indexed) {
        index.insert(name_hash(name_at(names, name_of(item))), i);
    }
    *indexed = items.len();
    index.find(name_hash(name), |i| {
        name_at(names, name_of(&items[i])) == name
    })
}

/// Turns per-list counts held in span ends into back-to-back empty
/// ranges (their ends become fill cursors) and returns the total.
fn open_ranges<'a>(spans: impl Iterator<Item = &'a mut Span>) -> usize {
    let mut at = 0;
    for span in spans {
        let count = span.1;
        *span = (at, at);
        at += count;
    }
    at as usize
}

/// Appends `item` to the open range `span` of `list`.
fn fill<T>(list: &mut [T], span: &mut Span, item: T) {
    list[span.1 as usize] = item;
    span.1 += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_device::{analytic_models, Technology};

    /// Builds the paper's Example 4-style stage: a 2-input NAND feeding a
    /// pass transistor through a wire (Figure 1 / Figure 4).
    fn example_stage() -> LogicStage {
        let tech = Technology::cmosp35();
        let g = Geometry::new(1e-6, tech.l_min);
        let mut b = LogicStage::builder("example4");
        let (vdd, gnd) = (b.vdd(), b.gnd());
        let n1 = b.node("n1");
        let n3 = b.node("n3");
        let n4 = b.node("n4");
        let a = b.input("a");
        let c = b.input("c");
        let pass = b.input("pass");
        // Pull-down path: n3 -> n1 -> gnd.
        b.transistor(DeviceKind::Nmos, a, n1, gnd, g);
        b.transistor(DeviceKind::Nmos, c, n3, n1, g);
        // Pull-ups in parallel: vdd -> n3.
        b.transistor(DeviceKind::Pmos, a, vdd, n3, g);
        b.transistor(DeviceKind::Pmos, c, vdd, n3, g);
        // Pass transistor then wire to the output.
        let n5 = b.node("n5");
        b.transistor(DeviceKind::Nmos, pass, n3, n5, g);
        b.wire(n5, n4, 0.6e-6, 20e-6);
        b.output(n4);
        b.load(n4, 5e-15);
        b.build().unwrap()
    }

    #[test]
    fn graph_shape_matches_definition() {
        let s = example_stage();
        assert_eq!(s.node(s.source()).kind, NodeKind::Supply);
        assert_eq!(s.node(s.sink()).kind, NodeKind::Ground);
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.inputs().len(), 3);
        assert_eq!(s.outputs().len(), 1);
        assert_eq!(s.internal_nodes().len(), 4);
        assert_eq!(s.name(), "example4");
    }

    #[test]
    fn name_lookups() {
        let s = example_stage();
        let n3 = s.node_by_name("n3").unwrap();
        assert_eq!(s.node_name(n3), "n3");
        assert!(s.node_by_name("nope").is_none());
        let a = s.input_by_name("a").unwrap();
        assert_eq!(s.input_name(a), "a");
        assert_eq!(s.input_edges(a).len(), 2, "input a gates one N and one P");
    }

    #[test]
    fn incidence_is_symmetric() {
        let s = example_stage();
        for (ei, e) in s.edges().iter().enumerate() {
            let id = EdgeId(ei);
            assert!(s.incident(e.src).iter().any(|&(x, _)| x == id));
            assert!(s.incident(e.snk).iter().any(|&(x, _)| x == id));
        }
    }

    #[test]
    fn node_cap_includes_load_junctions_and_wires() {
        let s = example_stage();
        let models = analytic_models(&Technology::cmosp35());
        let n4 = s.node_by_name("n4").unwrap();
        let c = s.node_cap(n4, &models, 3.3);
        // At least the explicit 5 fF load plus half the wire cap.
        assert!(c > 5e-15);
        // Voltage dependence: NMOS junction caps shrink with reverse
        // bias (n1 touches only NMOS junctions; n3 mixes N and P whose
        // biases move oppositely, so it is not monotone).
        let n1 = s.node_by_name("n1").unwrap();
        assert!(s.node_cap(n1, &models, 3.3) < s.node_cap(n1, &models, 0.0));
    }

    #[test]
    fn input_cap_sums_gate_loads() {
        let s = example_stage();
        let models = analytic_models(&Technology::cmosp35());
        let a = s.input_by_name("a").unwrap();
        let pass = s.input_by_name("pass").unwrap();
        // Input a gates two devices, pass gates one.
        assert!(s.input_cap(a, &models) > s.input_cap(pass, &models));
    }

    #[test]
    fn edge_voltage_resolution() {
        let s = example_stage();
        let node_v = vec![3.3, 0.0, 1.0, 2.0, 2.5, 2.2];
        let input_v = vec![3.3, 0.0, 1.5];
        let tv = s.edge_voltages(EdgeId(0), &node_v, &input_v);
        assert_eq!(tv.input, 3.3);
        // Wire edge has no input: reads 0.
        let tvw = s.edge_voltages(EdgeId(5), &node_v, &input_v);
        assert_eq!(tvw.input, 0.0);
    }

    #[test]
    fn builder_validation() {
        let b = LogicStage::builder("empty");
        assert!(b.build().is_err());

        let mut b = LogicStage::builder("no-output");
        let gnd = b.gnd();
        let n = b.node("n");
        let i = b.input("i");
        b.transistor(DeviceKind::Nmos, i, n, gnd, Geometry::new(1e-6, 0.35e-6));
        assert!(b.build().is_err());

        let mut b = LogicStage::builder("bad-geom");
        let gnd = b.gnd();
        let n = b.node("n");
        let i = b.input("i");
        b.transistor(DeviceKind::Nmos, i, n, gnd, Geometry::new(-1.0, 0.35e-6));
        b.output(n);
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_names_are_reused() {
        let mut b = LogicStage::builder("dup");
        let n1 = b.node("x");
        let n2 = b.node("x");
        assert_eq!(n1, n2);
        let i1 = b.input("a");
        let i2 = b.input("a");
        assert_eq!(i1, i2);
        // The rails resolve by name too, and outputs are declared once.
        assert_eq!(b.node("vdd"), b.vdd());
        assert_eq!(b.node("gnd"), b.gnd());
        b.transistor(
            DeviceKind::Nmos,
            i1,
            n1,
            b.gnd(),
            Geometry::new(1e-6, 0.35e-6),
        );
        b.output(n1).output(n1);
        let s = b.build().unwrap();
        assert_eq!(s.outputs(), &[n1]);
        assert_eq!(s.node_name(n1), "x");
        assert_eq!(s.name(), "dup");
    }

    #[test]
    fn adjacency_is_outgoing_then_incoming_in_edge_order() {
        let s = example_stage();
        // Edges 1 (n3 -> n1) and 4 (n3 -> n5) leave n3; edges 2 and 3
        // (vdd -> n3) enter it.
        let n3 = s.node_by_name("n3").unwrap();
        let ids: Vec<usize> = s.incident(n3).iter().map(|(e, _)| e.0).collect();
        assert_eq!(ids, vec![1, 4, 2, 3]);
        let a = s.input_by_name("a").unwrap();
        let gated: Vec<usize> = s.input_edges(a).iter().map(|e| e.0).collect();
        assert_eq!(gated, vec![0, 2]);
    }
}
