//! `qwm-exec` — zero-dependency parallel execution for the QWM engines.
//!
//! The workspace runs fully offline with no external crates, so this
//! crate supplies the scheduling substrate `rayon`/`crossbeam` would
//! otherwise provide, scoped to exactly what levelized static timing
//! needs:
//!
//! * [`ThreadPool`] — a persistent work-stealing pool (shared injector
//!   plus per-worker deques) for `'static` jobs, with panic containment.
//! * [`Levelizer`] — DAG levelization with cycle rejection.
//! * [`run_dag`] — the scoped runner over borrowed data: a node
//!   dispatches the instant its fanin resolves (an atomic in-degree
//!   countdown, no level barriers).
//! * [`ShardedMap`] — a lock-sharded memo map for value-stable caches.
//!
//! **Determinism contract.** The runner never imposes an order on
//! floating-point reductions; instead callers make every task's writes
//! a pure function of state committed *before* the task is released
//! (the in-degree countdown guarantees the happens-before edge). Under
//! that discipline results are bitwise-identical for any worker count —
//! `tests/parallel_determinism.rs` in the workspace root locks the STA
//! engines to it.

mod dag;
mod levelize;
mod pool;
mod sharded;

pub use dag::{default_threads, run_dag};
pub use levelize::Levelizer;
pub use pool::ThreadPool;
pub use sharded::ShardedMap;

/// Errors from the execution layer.
#[derive(Debug)]
pub enum ExecError {
    /// The graph is not a DAG: only `completed` of `total` nodes are
    /// reachable through acyclic dependencies.
    Cycle {
        /// Nodes released before the cycle stalled the traversal.
        completed: usize,
        /// Total nodes in the graph.
        total: usize,
    },
    /// An edge references a node outside `0..total`.
    BadEdge {
        /// The out-of-range node index.
        node: usize,
        /// Total nodes in the graph.
        total: usize,
    },
    /// One or more pool jobs panicked.
    TaskPanicked {
        /// How many jobs panicked since the last drain.
        count: usize,
        /// Description of the first captured panic.
        first: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cycle { completed, total } => write!(
                f,
                "dependency graph is cyclic: {completed} of {total} nodes acyclically reachable"
            ),
            ExecError::BadEdge { node, total } => {
                write!(f, "edge references node {node} outside 0..{total}")
            }
            ExecError::TaskPanicked { count, first } => {
                write!(f, "{count} pool job(s) panicked; first: {first}")
            }
        }
    }
}

impl std::error::Error for ExecError {}
