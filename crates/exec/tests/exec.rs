//! Integration tests for the `qwm-exec` scheduling substrate: pool
//! drain/panic behaviour, levelizer cycle rejection, and the scoped DAG
//! runner's dependency discipline.

use qwm_exec::{run_dag, ExecError, Levelizer, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn pool_drains_ten_thousand_noops_without_loss() {
    let pool = ThreadPool::new_with_init(4, |_| {});
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..10_000 {
        let hits = Arc::clone(&hits);
        pool.execute(move || {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.wait().expect("no panics");
    assert_eq!(hits.load(Ordering::Relaxed), 10_000, "every task ran");
}

#[test]
fn pool_panic_is_captured_as_err_not_a_hang() {
    let pool = ThreadPool::new_with_init(3, |_| {});
    let hits = Arc::new(AtomicUsize::new(0));
    for i in 0..50 {
        let hits = Arc::clone(&hits);
        pool.execute(move || {
            if i == 17 {
                panic!("task 17 exploded");
            }
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    // wait() must return (not hang) and surface the panic.
    let err = pool.wait().expect_err("panic surfaces");
    match err {
        ExecError::TaskPanicked { count, first } => {
            assert_eq!(count, 1);
            assert!(first.contains("panicked"), "{first}");
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(hits.load(Ordering::Relaxed), 49, "the other 49 still ran");
    // The pool stays usable after a panic.
    let hits2 = Arc::clone(&hits);
    pool.execute(move || {
        hits2.fetch_add(1, Ordering::Relaxed);
    });
    pool.wait().expect("clean batch after the panic drained");
    assert_eq!(hits.load(Ordering::Relaxed), 50);
}

#[test]
fn levelizer_rejects_cyclic_graphs() {
    // 2-cycle buried in an otherwise fine graph.
    let err = Levelizer::from_succs(vec![vec![1, 3], vec![2], vec![1], vec![]]).unwrap_err();
    match err {
        ExecError::Cycle { completed, total } => {
            assert_eq!(total, 4);
            assert!(completed < 4, "cycle nodes never release");
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(Levelizer::from_succs(vec![vec![0]]).is_err(), "self-loop");
    // The acyclic version passes.
    assert!(Levelizer::from_succs(vec![vec![1, 3], vec![2], vec![], vec![]]).is_ok());
}

#[test]
fn run_dag_executes_each_node_exactly_once() {
    // Random-ish layered DAG, every node counts its executions.
    let n = 200;
    let mut succs = vec![Vec::new(); n];
    for v in 1..n {
        succs[v - 1].push(v); // spine
        if v >= 7 {
            succs[v - 7].push(v); // skip edges create joins
        }
    }
    let lev = Levelizer::from_succs(succs).unwrap();
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    for threads in [1, 2, 4, 8] {
        for c in &counts {
            c.store(0, Ordering::Relaxed);
        }
        run_dag::<(), _>(threads, &lev, |_w, node| {
            counts[node].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "node {i} ran once at {threads} threads"
            );
        }
    }
}

#[test]
fn run_dag_error_stops_successors() {
    // Chain 0 -> 1 -> 2: failing node 1 must keep node 2 from running.
    let lev = Levelizer::from_succs(vec![vec![1], vec![2], vec![]]).unwrap();
    let ran = [const { AtomicUsize::new(0) }; 3];
    let (node, msg) = run_dag(4, &lev, |_w, node| {
        ran[node].fetch_add(1, Ordering::Relaxed);
        if node == 1 {
            Err("stage 1 diverged")
        } else {
            Ok(())
        }
    })
    .unwrap_err();
    assert_eq!(node, 1);
    assert_eq!(msg, "stage 1 diverged");
    assert_eq!(ran[2].load(Ordering::Relaxed), 0, "successor never ran");
}

#[test]
fn run_dag_task_panic_propagates_cleanly() {
    let lev = Levelizer::from_succs(
        (1..=8)
            .map(|v| (v < 8).then_some(v).into_iter().collect())
            .collect(),
    )
    .unwrap();
    let result = std::panic::catch_unwind(|| {
        run_dag::<(), _>(4, &lev, |_w, node| {
            if node == 3 {
                panic!("node 3 panicked");
            }
            Ok(())
        })
    });
    assert!(result.is_err(), "panic re-raised, not swallowed or hung");
}
