//! Hierarchical timing spans with thread-safe aggregation.
//!
//! `span!("name")` returns a guard; while it lives, child spans nest
//! under it (per thread), and on drop the elapsed monotonic time is
//! folded into the aggregate for the full path (`"sta.run/stage_eval"`).
//! Aggregates are atomics plus a fixed log-bucket nanosecond histogram,
//! so concurrent threads fold in without coordination once the path is
//! interned.

use crate::metrics::{Histogram, NS_BOUNDS};
use crate::{enabled, registry};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct SpanStatInner {
    pub(crate) path: String,
    pub(crate) count: AtomicU64,
    pub(crate) total_ns: AtomicU64,
    pub(crate) max_ns: AtomicU64,
    pub(crate) hist: Histogram,
}

impl SpanStatInner {
    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        // The histogram lives in the histogram registry and is reset
        // there; nothing extra to do here.
    }

    pub(crate) fn stats(&self) -> SpanStats {
        // A registered-but-unrecorded span reports zeros here (count 0
        // already says "no data"); the Option contract lives on the
        // histogram API.
        let summary = self.hist.summary().unwrap_or_default();
        SpanStats {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            p50_ns: summary.p50,
            p95_ns: summary.p95,
        }
    }
}

/// Point-in-time aggregate for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total time across all completions \[ns\].
    pub total_ns: u64,
    /// Longest single completion \[ns\].
    pub max_ns: u64,
    /// Median completion (bucket-resolved) \[ns\].
    pub p50_ns: u64,
    /// 95th-percentile completion (bucket-resolved) \[ns\].
    pub p95_ns: u64,
}

fn intern_path(path: &str) -> &'static SpanStatInner {
    let mut spans = registry().spans.lock().expect("obs registry");
    if let Some(s) = spans.iter().find(|s| s.path == path) {
        return s;
    }
    // Span latency histograms share the histogram registry so reset()
    // and rendering treat them uniformly.
    let hist_name: &'static str = Box::leak(format!("span:{path}").into_boxed_str());
    let inner: &'static SpanStatInner = Box::leak(Box::new(SpanStatInner {
        path: path.to_string(),
        count: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        max_ns: AtomicU64::new(0),
        hist: Histogram::register(hist_name, NS_BOUNDS),
    }));
    spans.push(inner);
    inner
}

/// RAII guard produced by [`crate::span!`]. Inert (no clock read, no
/// allocation) while the layer is disabled.
pub struct SpanGuard {
    active: Option<(Instant, &'static str)>,
}

impl SpanGuard {
    /// Enters the span `name` (callers normally use the [`crate::span!`]
    /// macro).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: None };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            active: Some((Instant::now(), name)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, name)) = self.active.take() else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own frame (guards drop in LIFO order per thread,
            // but be defensive about leaked guards).
            if stack.last() == Some(&name) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&n| n == name) {
                stack.truncate(pos);
            }
            if stack.is_empty() {
                name.to_string()
            } else {
                let mut p = stack.join("/");
                p.push('/');
                p.push_str(name);
                p
            }
        });
        let stat = intern_path(&path);
        stat.count.fetch_add(1, Ordering::Relaxed);
        stat.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        stat.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
        stat.hist.record_always(elapsed_ns);
    }
}

/// Opens a hierarchical timing span; the returned guard records on
/// drop. Bind it (`let _span = span!("x");`) so it lives to scope end.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
