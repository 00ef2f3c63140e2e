//! DAG levelization and atomic in-degree countdown.
//!
//! A [`Levelizer`] turns a successor-list DAG into *dependency levels*:
//! level 0 holds the nodes with no predecessors, and every other node
//! sits one past its deepest predecessor (its longest-path depth). The
//! levels are what a level-synchronous scheduler would barrier on;
//! [`crate::run_dag`] deliberately does **not** barrier — it uses the
//! companion [`Countdown`] to release each node the instant its last
//! predecessor completes — but the level structure still drives width
//! statistics and cycle rejection.

use crate::ExecError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Dependency levels over a successor-list DAG.
#[derive(Debug, Clone)]
pub struct Levelizer {
    succs: Vec<Vec<usize>>,
    indeg: Vec<usize>,
    levels: Vec<Vec<usize>>,
}

impl Levelizer {
    /// Levelizes the DAG given as successor lists (`succs[u]` holds the
    /// nodes depending on `u`). Duplicate edges are coalesced.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Cycle`] when the graph is not a DAG and
    /// [`ExecError::BadEdge`] when a successor index is out of range.
    pub fn from_succs(mut succs: Vec<Vec<usize>>) -> Result<Self, ExecError> {
        let n = succs.len();
        for list in &mut succs {
            list.sort_unstable();
            list.dedup();
            if let Some(&bad) = list.iter().find(|&&s| s >= n) {
                return Err(ExecError::BadEdge {
                    node: bad,
                    total: n,
                });
            }
        }
        let mut indeg = vec![0usize; n];
        for list in &succs {
            for &s in list {
                indeg[s] += 1;
            }
        }
        // Wave-synchronous Kahn: the wave a node is released in equals
        // one past its deepest predecessor's wave, i.e. its level.
        let mut remaining = indeg.clone();
        let mut frontier: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut levels = Vec::new();
        let mut seen = 0usize;
        while !frontier.is_empty() {
            seen += frontier.len();
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &succs[u] {
                    remaining[v] -= 1;
                    if remaining[v] == 0 {
                        next.push(v);
                    }
                }
            }
            levels.push(std::mem::take(&mut frontier));
            frontier = next;
        }
        if seen != n {
            return Err(ExecError::Cycle {
                completed: seen,
                total: n,
            });
        }
        Ok(Levelizer {
            succs,
            indeg,
            levels,
        })
    }

    /// Levelizes the sub-DAG induced by `subset` over a full graph's
    /// successor lists, renumbering to local indices `0..subset.len()`
    /// in `subset` order. Edges with either endpoint outside the subset
    /// are dropped — the caller owns the contract that such boundary
    /// state is already committed (the incremental-STA dirty cone).
    /// `local_of(i)` maps a local index back to `subset[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadEdge`] on an out-of-range or duplicate
    /// subset entry and [`ExecError::Cycle`] if the induced sub-graph
    /// is cyclic (impossible when the full graph is a DAG).
    pub fn from_subgraph(succs: &[Vec<usize>], subset: &[usize]) -> Result<Self, ExecError> {
        let n = succs.len();
        let mut local = vec![usize::MAX; n];
        for (li, &g) in subset.iter().enumerate() {
            if g >= n || local[g] != usize::MAX {
                return Err(ExecError::BadEdge { node: g, total: n });
            }
            local[g] = li;
        }
        let sub_succs: Vec<Vec<usize>> = subset
            .iter()
            .map(|&g| {
                succs[g]
                    .iter()
                    .filter_map(|&t| (local[t] != usize::MAX).then_some(local[t]))
                    .collect()
            })
            .collect();
        Self::from_succs(sub_succs)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// The dependency levels, shallowest first; each level lists its
    /// nodes in ascending index order for level 0 and release order
    /// otherwise (both deterministic).
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// In-degree (unique predecessors) per node.
    pub(crate) fn indegree(&self) -> &[usize] {
        &self.indeg
    }

    /// Deduplicated successor lists.
    pub(crate) fn succs(&self) -> &[Vec<usize>] {
        &self.succs
    }

    /// Records the level-width distribution into the observability
    /// layer (`exec.dag.level_width`). No-op when collection is off.
    pub(crate) fn record_obs(&self) {
        if !qwm_obs::enabled() {
            return;
        }
        for level in &self.levels {
            qwm_obs::histogram!("exec.dag.level_width", qwm_obs::SIZE_BOUNDS)
                .record(level.len() as u64);
        }
    }
}

/// Atomic in-degree countdown: each node starts at its in-degree and
/// [`Countdown::arrive`] is called once per completed predecessor; the
/// call that takes the count to zero — exactly one, even under
/// concurrent arrivals — reports the node as released.
#[derive(Debug)]
pub(crate) struct Countdown {
    remaining: Vec<AtomicUsize>,
}

impl Countdown {
    /// Builds the countdown from per-node in-degrees.
    pub(crate) fn new(indeg: &[usize]) -> Self {
        Countdown {
            remaining: indeg.iter().map(|&d| AtomicUsize::new(d)).collect(),
        }
    }

    /// Signals that one predecessor of `node` completed. Returns `true`
    /// iff this arrival released the node (its count just hit zero).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on more arrivals than the in-degree.
    pub(crate) fn arrive(&self, node: usize) -> bool {
        let prev = self.remaining[node].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "node {node} over-released");
        prev == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_levels() {
        let l = Levelizer::from_succs(vec![vec![1], vec![2], vec![3], vec![]]).unwrap();
        assert_eq!(l.levels(), &[vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(l.indegree(), &[0, 1, 1, 1]);
    }

    #[test]
    fn diamond_join_sits_past_deepest_pred() {
        // 0 -> {1, 2} -> 3, plus a long arm 0 -> 4 -> 2.
        let succs = vec![vec![1, 2, 4], vec![3], vec![3], vec![], vec![2]];
        let l = Levelizer::from_succs(succs).unwrap();
        assert_eq!(l.levels()[0], vec![0]);
        // 2 waits for 4, so it levels below 1.
        assert_eq!(l.levels()[1], vec![1, 4]);
        assert_eq!(l.levels()[2], vec![2]);
        assert_eq!(l.levels()[3], vec![3]);
    }

    #[test]
    fn duplicate_edges_coalesce() {
        let l = Levelizer::from_succs(vec![vec![1, 1, 1], vec![]]).unwrap();
        assert_eq!(l.indegree(), &[0, 1]);
        assert_eq!(l.succs()[0], vec![1]);
    }

    #[test]
    fn cycle_rejected() {
        let err = Levelizer::from_succs(vec![vec![1], vec![2], vec![0]]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Cycle {
                completed: 0,
                total: 3
            }
        ));
        // Self-loop is the degenerate cycle.
        assert!(Levelizer::from_succs(vec![vec![0]]).is_err());
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(matches!(
            Levelizer::from_succs(vec![vec![5], vec![]]),
            Err(ExecError::BadEdge { node: 5, total: 2 })
        ));
    }

    #[test]
    fn subgraph_renumbers_and_drops_boundary_edges() {
        // Chain 0 -> 1 -> 2 -> 3; take the suffix {2, 3}.
        let full = vec![vec![1], vec![2], vec![3], vec![]];
        let l = Levelizer::from_subgraph(&full, &[2, 3]).unwrap();
        assert_eq!(l.node_count(), 2);
        // Local 0 is global 2; the 1->2 boundary edge is gone, so it
        // sits at level 0 with local 1 (global 3) depending on it.
        assert_eq!(l.levels(), &[vec![0], vec![1]]);
        assert_eq!(l.succs()[0], vec![1]);
        // Duplicate or out-of-range subset entries are rejected.
        assert!(Levelizer::from_subgraph(&full, &[2, 2]).is_err());
        assert!(Levelizer::from_subgraph(&full, &[9]).is_err());
        // Empty subset is a valid empty DAG.
        let e = Levelizer::from_subgraph(&full, &[]).unwrap();
        assert_eq!(e.node_count(), 0);
    }

    #[test]
    fn countdown_releases_diamond_join_exactly_once() {
        // Diamond: 0 -> {1, 2} -> 3.
        let lev = Levelizer::from_succs(vec![vec![1, 2], vec![3], vec![3], vec![]]).unwrap();
        assert_eq!(lev.indegree(), &[0, 1, 1, 2]);
        let cd = Countdown::new(lev.indegree());
        // Two concurrent arrivals at the join: exactly one reports release.
        let releases = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (cd, releases) = (&cd, &releases);
                s.spawn(move || {
                    if cd.arrive(3) {
                        releases.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(releases.load(Ordering::Relaxed), 1, "join released once");
    }

    #[test]
    fn empty_graph() {
        let l = Levelizer::from_succs(Vec::new()).unwrap();
        assert_eq!(l.node_count(), 0);
        assert!(l.levels().is_empty());
    }
}
