//! Charge/discharge chain extraction.
//!
//! Static timing analysis only needs the worst case: "charging or
//! discharging along the longest paths" (paper §III-C). For a falling
//! output that path is the series chain of NMOS transistors (and wire
//! segments) from the output node to ground; for a rising output, the
//! PMOS chain from the supply. Devices hanging off the chain (the
//! complementary network, side branches) are cut off in the worst case
//! and contribute only their parasitic capacitance, which
//! [`qwm_circuit::LogicStage::node_cap`] already accounts for.
//!
//! Chain indexing follows paper Fig. 6: element `k` (1-based) connects
//! chain node `k` to chain node `k−1`; node 0 is the rail and node `K`
//! is the analyzed output.

use qwm_circuit::stage::{DeviceKind, EdgeId, InputId, LogicStage, NodeId};
use qwm_circuit::waveform::TransitionKind;
use qwm_device::model::Geometry;
use qwm_num::{NumError, Result};

/// One element of the extracted chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainElement {
    /// The stage edge this element came from.
    pub edge: EdgeId,
    /// Element kind (the chain's conduction devices or wires).
    pub kind: DeviceKind,
    /// Geometry, copied from the edge.
    pub geom: Geometry,
    /// Gate input (`None` for wires).
    pub input: Option<InputId>,
    /// True when the stage edge's `src` is the chain's *upper* node
    /// (chain node `k`); false when the edge is oriented the other way.
    pub upper_is_src: bool,
}

/// An extracted series charge/discharge chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Transition direction this chain serves.
    pub direction: TransitionKind,
    /// Stage nodes, `nodes[0]` the rail, `nodes[K]` the output.
    pub nodes: Vec<NodeId>,
    /// Elements, `elements[k-1]` connecting nodes `k` and `k−1`.
    pub elements: Vec<ChainElement>,
}

impl Chain {
    /// Number of elements `K`.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the chain is empty (never true for a valid extraction).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of transistors along the chain (wires excluded) — the `K`
    /// in the paper's "K DC operating point calculations".
    pub fn transistor_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.kind != DeviceKind::Wire)
            .count()
    }

    /// Extracts the chain driving `output` for the given transition.
    ///
    /// Walks from the output toward the conduction rail (ground for
    /// [`TransitionKind::Fall`], supply for [`TransitionKind::Rise`])
    /// following edges of the conduction kind (NMOS for fall, PMOS for
    /// rise) and wires. The walk must be unambiguous: exactly one
    /// unvisited continuation per node. Parallel conduction networks are
    /// rejected — pick the worst single path upstream (as STA does).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when no path exists, the path
    /// branches, or the output is a rail.
    pub fn extract(stage: &LogicStage, output: NodeId, direction: TransitionKind) -> Result<Self> {
        let rail = match direction {
            TransitionKind::Fall => stage.sink(),
            TransitionKind::Rise => stage.source(),
        };
        let conduction = match direction {
            TransitionKind::Fall => DeviceKind::Nmos,
            TransitionKind::Rise => DeviceKind::Pmos,
        };
        let other_rail = match direction {
            TransitionKind::Fall => stage.source(),
            TransitionKind::Rise => stage.sink(),
        };
        if output == rail || output == other_rail {
            return Err(NumError::InvalidInput {
                context: "Chain::extract",
                detail: "output is a rail".to_string(),
            });
        }

        // Walk output → rail, collecting in reverse.
        let mut rev_nodes = vec![output];
        let mut rev_elems: Vec<ChainElement> = Vec::new();
        let mut at = output;
        let mut visited = vec![output];
        loop {
            let mut next: Option<(EdgeId, NodeId)> = None;
            for &(e, neighbor) in stage.incident(at) {
                let edge = stage.edge(e);
                if edge.kind != conduction && edge.kind != DeviceKind::Wire {
                    continue;
                }
                if neighbor == other_rail || visited.contains(&neighbor) {
                    continue;
                }
                if next.is_some() {
                    return Err(NumError::InvalidInput {
                        context: "Chain::extract",
                        detail: format!(
                            "path branches at node {:?} — pick a single worst-case path",
                            stage.node_name(at)
                        ),
                    });
                }
                next = Some((e, neighbor));
            }
            let (e, neighbor) = next.ok_or_else(|| NumError::InvalidInput {
                context: "Chain::extract",
                detail: format!(
                    "no {conduction:?}/wire continuation from node {:?}",
                    stage.node_name(at)
                ),
            })?;
            let edge = stage.edge(e);
            rev_elems.push(ChainElement {
                edge: e,
                kind: edge.kind,
                geom: edge.geom,
                input: edge.input,
                // In the reversed walk, `at` is the upper chain node.
                upper_is_src: edge.src == at,
            });
            if neighbor == rail {
                rev_nodes.push(neighbor);
                break;
            }
            visited.push(neighbor);
            rev_nodes.push(neighbor);
            at = neighbor;
        }
        rev_nodes.reverse();
        rev_elems.reverse();
        Ok(Chain {
            direction,
            nodes: rev_nodes,
            elements: rev_elems,
        })
    }
}

impl Chain {
    /// Extracts the **worst** (slowest) conduction path when the network
    /// branches: enumerates all simple paths from the output to the
    /// conduction rail over conduction-kind/wire edges and keeps the one
    /// with the most transistors, breaking ties by the largest total
    /// `L/W` (weakest drive). This is the single path static timing
    /// sensitizes; side branches contribute capacitance only.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when no path exists or the
    /// output is a rail.
    pub fn extract_worst(
        stage: &LogicStage,
        output: NodeId,
        direction: TransitionKind,
    ) -> Result<Self> {
        // Fast path: unambiguous chains go through the plain walk.
        if let Ok(chain) = Chain::extract(stage, output, direction) {
            return Ok(chain);
        }
        let rail = match direction {
            TransitionKind::Fall => stage.sink(),
            TransitionKind::Rise => stage.source(),
        };
        let conduction = match direction {
            TransitionKind::Fall => DeviceKind::Nmos,
            TransitionKind::Rise => DeviceKind::Pmos,
        };
        let other_rail = match direction {
            TransitionKind::Fall => stage.source(),
            TransitionKind::Rise => stage.sink(),
        };
        if output == rail || output == other_rail {
            return Err(NumError::InvalidInput {
                context: "Chain::extract_worst",
                detail: "output is a rail".to_string(),
            });
        }

        /// (transistor count, total L/W weakness, edges with their upper nodes).
        type BestPath = (usize, f64, Vec<(EdgeId, NodeId)>);
        struct Dfs<'a> {
            stage: &'a LogicStage,
            rail: NodeId,
            other_rail: NodeId,
            conduction: DeviceKind,
            best: Option<BestPath>,
        }
        impl Dfs<'_> {
            fn walk(
                &mut self,
                at: NodeId,
                visited: &mut Vec<NodeId>,
                path: &mut Vec<(EdgeId, NodeId)>,
            ) {
                for &(e, neighbor) in self.stage.incident(at) {
                    let edge = self.stage.edge(e);
                    if edge.kind != self.conduction && edge.kind != DeviceKind::Wire {
                        continue;
                    }
                    if neighbor == self.other_rail || visited.contains(&neighbor) {
                        continue;
                    }
                    path.push((e, at));
                    if neighbor == self.rail {
                        let transistors = path
                            .iter()
                            .filter(|(pe, _)| self.stage.edge(*pe).kind != DeviceKind::Wire)
                            .count();
                        let weakness: f64 = path
                            .iter()
                            .map(|(pe, _)| {
                                let g = &self.stage.edge(*pe).geom;
                                g.l / g.w
                            })
                            .sum();
                        let better = match &self.best {
                            None => true,
                            Some((bt, bw, _)) => {
                                transistors > *bt || (transistors == *bt && weakness > *bw)
                            }
                        };
                        if better {
                            self.best = Some((transistors, weakness, path.clone()));
                        }
                    } else {
                        visited.push(neighbor);
                        self.walk(neighbor, visited, path);
                        visited.pop();
                    }
                    path.pop();
                }
            }
        }
        let mut dfs = Dfs {
            stage,
            rail,
            other_rail,
            conduction,
            best: None,
        };
        dfs.walk(output, &mut vec![output], &mut Vec::new());
        let (_, _, path) = dfs.best.ok_or_else(|| NumError::InvalidInput {
            context: "Chain::extract_worst",
            detail: format!(
                "no {conduction:?}/wire path from {:?} to the rail",
                stage.node_name(output)
            ),
        })?;

        // The DFS path runs output → rail; rebuild in rail-first order.
        let mut nodes = vec![output];
        let mut elements = Vec::new();
        for (e, upper) in &path {
            let edge = stage.edge(*e);
            let lower = if edge.src == *upper {
                edge.snk
            } else {
                edge.src
            };
            elements.push(ChainElement {
                edge: *e,
                kind: edge.kind,
                geom: edge.geom,
                input: edge.input,
                upper_is_src: edge.src == *upper,
            });
            nodes.push(lower);
        }
        nodes.reverse();
        elements.reverse();
        Ok(Chain {
            direction,
            nodes,
            elements,
        })
    }

    /// The set of stage inputs gating elements of this chain — the
    /// inputs a worst-case stimulus must switch; all others are held at
    /// their non-conducting value so side paths stay off.
    pub fn gating_inputs(&self) -> Vec<InputId> {
        let mut out: Vec<InputId> = Vec::new();
        for e in &self.elements {
            if let Some(i) = e.input {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_circuit::cells;
    use qwm_device::tech::Technology;

    fn tech() -> Technology {
        Technology::cmosp35()
    }

    #[test]
    fn nand3_fall_chain_is_three_nmos() {
        let g = cells::nand(&tech(), 3, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let chain = Chain::extract(&g, out, TransitionKind::Fall).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.transistor_count(), 3);
        assert_eq!(chain.nodes[0], g.sink());
        assert_eq!(*chain.nodes.last().unwrap(), out);
        assert!(chain
            .elements
            .iter()
            .all(|e| e.kind == DeviceKind::Nmos && e.input.is_some()));
        assert!(!chain.is_empty());
    }

    #[test]
    fn element_orientation_tracks_stage_edges() {
        // cells::nmos_stack builds edges with src = upper node.
        let s = cells::nmos_stack(&tech(), &[1e-6, 1e-6], cells::DEFAULT_LOAD).unwrap();
        let out = s.node_by_name("out").unwrap();
        let chain = Chain::extract(&s, out, TransitionKind::Fall).unwrap();
        assert!(chain.elements.iter().all(|e| e.upper_is_src));
    }

    #[test]
    fn inverter_rise_chain_is_one_pmos() {
        let g = cells::inverter(&tech(), cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let chain = Chain::extract(&g, out, TransitionKind::Rise).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.elements[0].kind, DeviceKind::Pmos);
        assert_eq!(chain.nodes[0], g.source());
    }

    #[test]
    fn nand_rise_rejects_parallel_pullup() {
        // NAND2's pull-up is two parallel PMOS: ambiguous, must error.
        let g = cells::nand(&tech(), 2, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let err = Chain::extract(&g, out, TransitionKind::Rise).unwrap_err();
        assert!(err.to_string().contains("branches"));
    }

    #[test]
    fn decoder_path_mixes_wires_and_transistors() {
        let d = cells::decoder_path(&tech(), 3, 20e-6, cells::DEFAULT_LOAD).unwrap();
        let out = d.node_by_name("out").unwrap();
        let chain = Chain::extract(&d, out, TransitionKind::Fall).unwrap();
        assert_eq!(chain.len(), 6, "3 transistors + 3 wires");
        assert_eq!(chain.transistor_count(), 3);
        // Alternating from the rail: transistor, wire, transistor, ...
        assert_eq!(chain.elements[0].kind, DeviceKind::Nmos);
        assert_eq!(chain.elements[1].kind, DeviceKind::Wire);
    }

    #[test]
    fn extract_worst_picks_the_series_branch() {
        // AOI21 pull-down branches at the output: the 2-series a·b path
        // must win over the single-transistor c path.
        let g = cells::aoi21(&tech(), cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        assert!(Chain::extract(&g, out, TransitionKind::Fall).is_err());
        let chain = Chain::extract_worst(&g, out, TransitionKind::Fall).unwrap();
        assert_eq!(chain.transistor_count(), 2, "a·b series path");
        let inputs = chain.gating_inputs();
        assert_eq!(inputs.len(), 2);
        let names: Vec<&str> = inputs.iter().map(|&i| g.input_name(i)).collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn extract_worst_handles_parallel_pullup() {
        // NAND2 rise: two parallel single-PMOS paths; either is "worst"
        // (tie broken by weakness) — must not error.
        let g = cells::nand(&tech(), 2, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let chain = Chain::extract_worst(&g, out, TransitionKind::Rise).unwrap();
        assert_eq!(chain.transistor_count(), 1);
    }

    #[test]
    fn extract_worst_matches_extract_on_chains() {
        let s = cells::nmos_stack(&tech(), &[1e-6, 2e-6, 1e-6], cells::DEFAULT_LOAD).unwrap();
        let out = s.node_by_name("out").unwrap();
        let a = Chain::extract(&s, out, TransitionKind::Fall).unwrap();
        let b = Chain::extract_worst(&s, out, TransitionKind::Fall).unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn rail_output_rejected() {
        let g = cells::inverter(&tech(), cells::DEFAULT_LOAD).unwrap();
        assert!(Chain::extract(&g, g.sink(), TransitionKind::Fall).is_err());
        assert!(Chain::extract(&g, g.source(), TransitionKind::Fall).is_err());
    }

    #[test]
    fn fall_chain_through_nand_ignores_pmos() {
        // The PMOS edges at the output must not be walked for Fall.
        let g = cells::nand(&tech(), 4, cells::DEFAULT_LOAD).unwrap();
        let out = g.node_by_name("out").unwrap();
        let chain = Chain::extract(&g, out, TransitionKind::Fall).unwrap();
        assert_eq!(chain.len(), 4);
    }
}
