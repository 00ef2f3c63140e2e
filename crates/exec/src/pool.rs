//! A persistent `std::thread` work-stealing pool for `'static` tasks.
//!
//! The design is the simple shared-injector scheme: submitters push
//! boxed jobs into one global injector; each worker keeps a private
//! deque, refilling it in small batches from the injector and — when
//! both are empty — stealing the oldest job from a sibling's deque.
//! LIFO pops on the owner side keep caches warm; FIFO steals take the
//! coldest work.
//!
//! Panicking jobs are contained with `catch_unwind`: the worker
//! survives, the pending count still drains (no hangs), and the panic
//! surfaces as an [`ExecError::TaskPanicked`] from [`ThreadPool::wait`].

use crate::ExecError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How many jobs a worker moves from the injector to its own deque per
/// refill. Small enough to keep work spread, large enough to amortize
/// the injector lock.
const REFILL_BATCH: usize = 8;

struct PoolState {
    /// Jobs submitted but not yet finished (queued or running).
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    injector: Mutex<VecDeque<Job>>,
    locals: Vec<Mutex<VecDeque<Job>>>,
    state: Mutex<PoolState>,
    /// Wakes idle workers when work arrives or shutdown begins.
    work_cv: Condvar,
    /// Wakes `wait()` callers when the pool drains.
    idle_cv: Condvar,
    /// Panic messages captured from jobs, submission-order agnostic.
    panics: Mutex<Vec<String>>,
}

/// A fixed-size work-stealing thread pool for `'static` jobs.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (clamped to at least one), running
    /// `init(worker_index)` on each worker thread before it starts
    /// taking jobs. Used to pre-warm per-thread state (e.g. the QWM
    /// evaluation workspace) so a worker's first job pays no one-time
    /// setup cost.
    pub fn new_with_init(threads: usize, init: impl Fn(usize) + Send + Sync + 'static) -> Self {
        let threads = threads.max(1);
        let init = Arc::new(init);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            state: Mutex::new(PoolState {
                pending: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                std::thread::Builder::new()
                    .name(format!("qwm-exec-{w}"))
                    .spawn(move || {
                        init(w);
                        drop(init);
                        worker_loop(&shared, w)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Submits a job. Never blocks on job execution.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.pending += 1;
        }
        {
            let mut inj = self.shared.injector.lock().expect("pool injector");
            inj.push_back(Box::new(job));
            qwm_obs::counter!("exec.pool.submitted").incr();
        }
        self.shared.work_cv.notify_one();
    }

    /// Blocks until every submitted job has finished.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TaskPanicked`] when any job panicked since
    /// the last `wait`; the queue still fully drains first, so a panic
    /// never turns into a hang.
    pub fn wait(&self) -> Result<(), ExecError> {
        let mut state = self.shared.state.lock().expect("pool state");
        while state.pending > 0 {
            state = self.shared.idle_cv.wait(state).expect("pool state");
        }
        drop(state);
        let mut panics = self.shared.panics.lock().expect("pool panics");
        if panics.is_empty() {
            Ok(())
        } else {
            let count = panics.len();
            let first = panics.remove(0);
            panics.clear();
            Err(ExecError::TaskPanicked { count, first })
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn pop_job(shared: &PoolShared, me: usize) -> Option<Job> {
    // Own deque first (LIFO: warmest work).
    if let Some(job) = shared.locals[me].lock().expect("pool local").pop_back() {
        return Some(job);
    }
    // Refill a batch from the shared injector.
    {
        let mut inj = shared.injector.lock().expect("pool injector");
        if !inj.is_empty() {
            let take = (inj.len() / 2).clamp(1, REFILL_BATCH);
            let mut local = shared.locals[me].lock().expect("pool local");
            for _ in 0..take.saturating_sub(1) {
                if let Some(j) = inj.pop_front() {
                    local.push_back(j);
                }
            }
            qwm_obs::histogram!("exec.pool.queue_depth", qwm_obs::SIZE_BOUNDS)
                .record(local.len() as u64);
            drop(local);
            if let Some(job) = inj.pop_front() {
                return Some(job);
            }
        }
    }
    // Steal the oldest job from a sibling (FIFO side).
    let n = shared.locals.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(job) = shared.locals[victim]
            .lock()
            .expect("pool local")
            .pop_front()
        {
            qwm_obs::counter!("exec.pool.steals").incr();
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        if let Some(job) = pop_job(shared, me) {
            // There may be more queued than this worker can chew:
            // give a sleeping sibling a chance to pick some up.
            shared.work_cv.notify_one();
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared
                    .panics
                    .lock()
                    .expect("pool panics")
                    .push(format!("pool job panicked on worker {me}"));
                qwm_obs::counter!("exec.pool.panics").incr();
            }
            let mut state = shared.state.lock().expect("pool state");
            state.pending -= 1;
            if state.pending == 0 {
                shared.idle_cv.notify_all();
            }
            continue;
        }
        let state = shared.state.lock().expect("pool state");
        if state.shutdown {
            return;
        }
        // Re-check under the lock via timeout: a job may have landed
        // between the failed pop and this wait.
        let _unused = shared
            .work_cv
            .wait_timeout(state, Duration::from_millis(1))
            .expect("pool state");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_and_waits() {
        let pool = ThreadPool::new_with_init(4, |_| {});
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn init_runs_once_per_worker_before_jobs() {
        let inits = Arc::new(Mutex::new(Vec::new()));
        let i = Arc::clone(&inits);
        let pool = ThreadPool::new_with_init(3, move |w| {
            i.lock().unwrap().push(w);
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.execute(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        // Workers run `init` at thread start-up, which races this
        // check for workers that never received a job — poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut seen = inits.lock().unwrap().clone();
            seen.sort_unstable();
            if seen == vec![0, 1, 2] {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "init calls never completed: {seen:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let inits = Arc::new(Mutex::new(Vec::new()));
        let i = Arc::clone(&inits);
        let pool = ThreadPool::new_with_init(0, move |w| {
            i.lock().unwrap().push(w);
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.execute(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        // The one worker ran its job, so its `init` already ran.
        assert_eq!(*inits.lock().unwrap(), vec![0]);
    }
}
