//! The scoped deterministic DAG runner over borrowed data.
//!
//! [`run_dag`] executes a dependency DAG with work-stealing scoped
//! workers: a node is dispatched the instant its last predecessor
//! completes (atomic in-degree countdown — no level barriers), released
//! work goes to the finishing worker's own deque, and idle workers
//! steal the oldest entry from a sibling.
//!
//! The runner takes an `Fn(worker, node)` closure over borrowed state
//! (`std::thread::scope`), so callers can share `&self` engines and
//! keep *per-worker* scratch indexed by the worker id. It never
//! imposes an ordering on floating-point reductions: callers get
//! determinism by making each task's writes a pure function of inputs
//! that are committed before the task is released (see
//! `qwm-sta::engine` for the pattern).

use crate::levelize::{Countdown, Levelizer};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Default worker count: `QWM_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism. A malformed value is
/// reported loudly (warn event + stderr) via `qwm_obs::env` before the
/// hardware default applies — never a silent fallback.
pub fn default_threads() -> usize {
    qwm_obs::env::parse_or_warn(
        "QWM_THREADS",
        "hardware thread count",
        qwm_obs::env::positive_usize,
    )
    .unwrap_or_else(hardware_threads)
}

/// The machine's available parallelism (1 when undetectable).
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct DagShared<E> {
    locals: Vec<Mutex<VecDeque<usize>>>,
    countdown: Countdown,
    /// Nodes finished (successfully or not) plus nodes skipped as
    /// downstream of a failure. The run is over when this reaches the
    /// node count or `stop` is raised (a task panicked).
    done: AtomicUsize,
    stop: AtomicBool,
    failures: Mutex<Failures<E>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    idle: Mutex<()>,
    wake: Condvar,
}

/// The failed tasks of one run and the nodes they keep from running.
struct Failures<E> {
    /// The failing node with the smallest index, and its error.
    first: Option<(usize, E)>,
    /// Nodes downstream of a failure (empty until the first failure).
    skipped: Vec<bool>,
}

impl<E> Failures<E> {
    fn new() -> Self {
        Failures {
            first: None,
            skipped: Vec::new(),
        }
    }

    /// Records `node`'s error and marks every node downstream of it as
    /// skipped; returns how many were newly marked. No such node can
    /// ever be released, because `node` never arrives at its successors.
    fn record(&mut self, lev: &Levelizer, node: usize, e: E) -> usize {
        if self.first.as_ref().is_none_or(|(n, _)| node < *n) {
            self.first = Some((node, e));
        }
        if self.skipped.is_empty() {
            self.skipped = vec![false; lev.node_count()];
        }
        let mut stack = lev.succs()[node].clone();
        let mut marked = 0;
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut self.skipped[n], true) {
                marked += 1;
                stack.extend_from_slice(&lev.succs()[n]);
            }
        }
        marked
    }
}

fn dag_pop<E>(shared: &DagShared<E>, me: usize) -> Option<usize> {
    if let Some(node) = shared.locals[me].lock().expect("dag local").pop_back() {
        return Some(node);
    }
    let n = shared.locals.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(node) = shared.locals[victim].lock().expect("dag local").pop_front() {
            qwm_obs::counter!("exec.dag.steals").incr();
            return Some(node);
        }
    }
    None
}

fn dag_worker<E: Send, F: Fn(usize, usize) -> Result<(), E> + Sync>(
    shared: &DagShared<E>,
    lev: &Levelizer,
    f: &F,
    me: usize,
    total: usize,
    trace_ctx: u64,
) {
    // Re-install the submitting thread's trace parent so spans recorded
    // by tasks on this worker attach to the caller's tree (no-op unless
    // tracing is on).
    let _trace = qwm_obs::trace::adopt(trace_ctx);
    let obs = qwm_obs::enabled();
    let mut busy_ns: u64 = 0;
    loop {
        if shared.stop.load(Ordering::Acquire) || shared.done.load(Ordering::Acquire) >= total {
            break;
        }
        let Some(node) = dag_pop(shared, me) else {
            let guard = shared.idle.lock().expect("dag idle");
            // Timeout backstop against a wake-up racing the failed pop.
            let _unused = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("dag idle");
            continue;
        };
        let started = obs.then(std::time::Instant::now);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(me, node)));
        if let Some(t0) = started {
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
        let mut finished = 1;
        match outcome {
            Ok(Ok(())) => {
                let mut released = 0usize;
                {
                    let mut local = shared.locals[me].lock().expect("dag local");
                    for &succ in &lev.succs()[node] {
                        if shared.countdown.arrive(succ) {
                            local.push_back(succ);
                            released += 1;
                        }
                    }
                    if obs {
                        qwm_obs::histogram!("exec.dag.queue_depth", qwm_obs::SIZE_BOUNDS)
                            .record(local.len() as u64);
                    }
                }
                // One task is consumed next by this worker; offer the
                // rest to sleepers.
                if released > 1 {
                    shared.wake.notify_all();
                } else if released == 1 {
                    shared.wake.notify_one();
                }
            }
            Ok(Err(e)) => {
                // Siblings keep running; only this node's downstream
                // cone is skipped.
                finished += shared
                    .failures
                    .lock()
                    .expect("dag failures")
                    .record(lev, node, e);
            }
            Err(payload) => {
                let mut slot = shared.panic.lock().expect("dag panic");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                shared.stop.store(true, Ordering::Release);
                shared.wake.notify_all();
            }
        }
        if shared.done.fetch_add(finished, Ordering::AcqRel) + finished >= total {
            shared.wake.notify_all();
        }
    }
    if obs {
        qwm_obs::histogram!("exec.dag.worker_busy_ns", qwm_obs::NS_BOUNDS).record(busy_ns);
    }
}

/// Runs every node of the levelized DAG through `f(worker, node)`,
/// dispatching each node as soon as its last predecessor finishes.
///
/// On success every node ran exactly once. A failing task does not stop
/// the run: every node that is not downstream of a failed node still
/// runs exactly once, and no successor of a failed node runs. Which
/// nodes run, and so which error is returned, is the same at any worker
/// count.
///
/// # Errors
///
/// The error of the failing node with the smallest index.
///
/// # Panics
///
/// Re-raises the panic payload if a task panicked, after all workers
/// have parked — a task panic never deadlocks the run.
pub fn run_dag<E, F>(threads: usize, lev: &Levelizer, f: F) -> Result<(), (usize, E)>
where
    E: Send,
    F: Fn(usize, usize) -> Result<(), E> + Sync,
{
    let total = lev.node_count();
    if total == 0 {
        return Ok(());
    }
    lev.record_obs();
    let threads = threads.max(1).min(total);
    if threads == 1 {
        // Single worker: same dispatch discipline without thread spawns.
        let countdown = Countdown::new(lev.indegree());
        let mut queue: VecDeque<usize> = (0..total).filter(|&n| lev.indegree()[n] == 0).collect();
        let mut failures = Failures::new();
        while let Some(node) = queue.pop_front() {
            if let Err(e) = f(0, node) {
                failures.record(lev, node, e);
                continue;
            }
            for &succ in &lev.succs()[node] {
                if countdown.arrive(succ) {
                    queue.push_back(succ);
                }
            }
        }
        return failures.first.map_or(Ok(()), Err);
    }
    let shared = DagShared::<E> {
        locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        countdown: Countdown::new(lev.indegree()),
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        failures: Mutex::new(Failures::new()),
        panic: Mutex::new(None),
        idle: Mutex::new(()),
        wake: Condvar::new(),
    };
    // Seed the roots round-robin across the workers.
    for (i, root) in (0..total).filter(|&n| lev.indegree()[n] == 0).enumerate() {
        shared.locals[i % threads]
            .lock()
            .expect("dag local")
            .push_back(root);
    }
    // Capture the trace parent here, on the submitting thread; workers
    // adopt it so per-stage spans cross the thread boundary intact.
    let trace_ctx = qwm_obs::trace::current();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let shared = &shared;
            let f = &f;
            scope.spawn(move || dag_worker(shared, lev, f, w, total, trace_ctx));
        }
    });
    if let Some(payload) = shared.panic.into_inner().expect("dag panic") {
        resume_unwind(payload);
    }
    let failures = shared.failures.into_inner().expect("dag failures");
    failures.first.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_respects_dependencies() {
        use std::sync::atomic::AtomicU64;
        // 0 -> 1 -> 3, 0 -> 2 -> 3: record a completion stamp per node.
        let lev = Levelizer::from_succs(vec![vec![1, 2], vec![3], vec![3], vec![]]).unwrap();
        let clock = AtomicU64::new(0);
        let stamps: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        run_dag::<(), _>(4, &lev, |_w, node| {
            stamps[node].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        let s: Vec<u64> = stamps.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        assert!(s.iter().all(|&v| v > 0), "all nodes ran: {s:?}");
        assert!(s[0] < s[1] && s[0] < s[2]);
        assert!(s[3] > s[1] && s[3] > s[2]);
    }

    #[test]
    fn dag_error_is_the_smallest_failing_node_at_any_width() {
        // 0 -> 1 -> 2 and 9 -> 10 -> 11 <- 4 <- 3; 3 -> 5 and
        // 6 -> 7 -> 8 are independent. Node 0 fails late, node 9 fails
        // at once, so a schedule-dependent runner would report 9.
        let succs = vec![
            vec![1],
            vec![2],
            vec![],
            vec![4, 5],
            vec![11],
            vec![],
            vec![7],
            vec![8],
            vec![],
            vec![10],
            vec![11],
            vec![],
        ];
        let lev = Levelizer::from_succs(succs).unwrap();
        let downstream = [1, 2, 10, 11];
        for threads in [1, 2, 4, 8] {
            for round in 0..20 {
                let ran: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
                let err = run_dag(threads, &lev, |_w, node| {
                    ran[node].fetch_add(1, Ordering::SeqCst);
                    match node {
                        0 => {
                            std::thread::sleep(Duration::from_millis(2));
                            Err("late")
                        }
                        9 => Err("early"),
                        _ => Ok(()),
                    }
                })
                .unwrap_err();
                assert_eq!(err, (0, "late"), "{threads} workers, round {round}");
                for (node, count) in ran.iter().enumerate() {
                    let want = usize::from(!downstream.contains(&node));
                    assert_eq!(
                        count.load(Ordering::SeqCst),
                        want,
                        "node {node}, {threads} workers, round {round}"
                    );
                }
            }
        }
    }
}
