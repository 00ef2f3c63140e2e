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
    /// Nodes finished (successfully or not). The run is over when this
    /// reaches the node count or `stop` is raised.
    done: AtomicUsize,
    stop: AtomicBool,
    errors: Mutex<Vec<(usize, E)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    idle: Mutex<()>,
    wake: Condvar,
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
                shared.errors.lock().expect("dag errors").push((node, e));
                shared.stop.store(true, Ordering::Release);
                shared.wake.notify_all();
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
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 >= total {
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
/// On success every node ran exactly once. On failure the error from
/// the smallest failing node index is returned (concurrent siblings
/// may or may not have run — their side effects must be idempotent or
/// discarded by the caller) and no successor of a failed node runs.
///
/// # Errors
///
/// The first (smallest-node) task error.
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
        while let Some(node) = queue.pop_front() {
            f(0, node).map_err(|e| (node, e))?;
            for &succ in &lev.succs()[node] {
                if countdown.arrive(succ) {
                    queue.push_back(succ);
                }
            }
        }
        return Ok(());
    }
    let shared = DagShared::<E> {
        locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        countdown: Countdown::new(lev.indegree()),
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        errors: Mutex::new(Vec::new()),
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
    let mut errors = shared.errors.into_inner().expect("dag errors");
    if let Some(pos) = (0..errors.len()).min_by_key(|&i| errors[i].0) {
        return Err(errors.swap_remove(pos));
    }
    Ok(())
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
}
