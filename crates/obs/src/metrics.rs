//! Named counters and fixed-bucket histograms.
//!
//! Handles are `Copy` references into leaked registry entries, so a
//! call site pays one `OnceLock` read (via the [`counter!`] /
//! [`histogram!`] macros) plus one relaxed atomic op — and nothing at
//! all while the layer is disabled.

use crate::{enabled, registry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Log-spaced nanosecond bounds for latency histograms: 1 µs … 10 s.
pub const NS_BOUNDS: &[u64] = &[
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
    300_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Small linear bounds for per-solve iteration counts.
pub const ITER_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128];

/// Coarse log bounds for sizes/counts (regions per evaluation, nodes
/// per chain, …).
pub const SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];

pub(crate) struct CounterInner {
    pub(crate) name: &'static str,
    pub(crate) value: AtomicU64,
}

/// A named monotonic counter.
#[derive(Clone, Copy)]
pub struct Counter(&'static CounterInner);

impl Counter {
    /// Registers (or finds) the counter `name`. Call sites should cache
    /// the handle via the [`crate::counter!`] macro rather than re-registering
    /// per use.
    pub fn register(name: &'static str) -> Counter {
        let mut counters = registry().counters.lock().expect("obs registry");
        if let Some(c) = counters.iter().find(|c| c.name == name) {
            return Counter(c);
        }
        let inner: &'static CounterInner = Box::leak(Box::new(CounterInner {
            name,
            value: AtomicU64::new(0),
        }));
        counters.push(inner);
        Counter(inner)
    }

    /// Adds `n` (no-op while disabled).
    #[inline]
    pub fn add(self, n: u64) {
        if enabled() {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while disabled).
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Counter name.
    pub fn name(self) -> &'static str {
        self.0.name
    }
}

/// Registers and returns a cached [`Counter`] handle for this call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __QWM_OBS_COUNTER: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        *__QWM_OBS_COUNTER.get_or_init(|| $crate::Counter::register($name))
    }};
}

pub(crate) struct GaugeInner {
    pub(crate) name: &'static str,
    pub(crate) value: AtomicU64,
}

/// A named point-in-time gauge (last-write-wins, unlike the monotonic
/// [`Counter`]): log sizes, resident memory, live session counts.
#[derive(Clone, Copy)]
pub struct Gauge(&'static GaugeInner);

impl Gauge {
    /// Registers (or finds) the gauge `name`. Call sites should cache
    /// the handle via the [`crate::gauge!`] macro rather than re-registering
    /// per use.
    pub fn register(name: &'static str) -> Gauge {
        let mut gauges = registry().gauges.lock().expect("obs registry");
        if let Some(g) = gauges.iter().find(|g| g.name == name) {
            return Gauge(g);
        }
        let inner: &'static GaugeInner = Box::leak(Box::new(GaugeInner {
            name,
            value: AtomicU64::new(0),
        }));
        gauges.push(inner);
        Gauge(inner)
    }

    /// Sets the current value (no-op while disabled).
    #[inline]
    pub fn set(self, v: u64) {
        if enabled() {
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Gauge name.
    pub fn name(self) -> &'static str {
        self.0.name
    }
}

/// Registers and returns a cached [`Gauge`] handle for this call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __QWM_OBS_GAUGE: std::sync::OnceLock<$crate::Gauge> = std::sync::OnceLock::new();
        *__QWM_OBS_GAUGE.get_or_init(|| $crate::Gauge::register($name))
    }};
}

pub(crate) struct HistogramInner {
    pub(crate) name: &'static str,
    pub(crate) bounds: &'static [u64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramInner {
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn summary(&self) -> Option<HistogramSummary> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            // An empty histogram has no percentiles: the caller gets
            // `None`, never a fabricated all-zero summary.
            return None;
        }
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            // Rank of the q-th value (1-based, nearest-rank).
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Report the bucket's upper bound; the overflow
                    // bucket reports the observed max.
                    return if i < self.bounds.len() {
                        self.bounds[i].min(max)
                    } else {
                        max
                    };
                }
            }
            max
        };
        Some(HistogramSummary {
            count,
            sum,
            mean: sum as f64 / count as f64,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max,
        })
    }
}

/// A fixed-bucket histogram over `u64` values (nanoseconds, iteration
/// counts, sizes — the recorder defines the unit).
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramInner);

impl Histogram {
    /// Registers (or finds) the histogram `name` with the given bucket
    /// upper bounds (must be strictly increasing). On a name collision
    /// the first registration's bounds win.
    pub fn register(name: &'static str, bounds: &'static [u64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        let mut histograms = registry().histograms.lock().expect("obs registry");
        if let Some(h) = histograms.iter().find(|h| h.name == name) {
            return Histogram(h);
        }
        let inner: &'static HistogramInner = Box::leak(Box::new(HistogramInner {
            name,
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }));
        histograms.push(inner);
        Histogram(inner)
    }

    /// Records one observation (no-op while disabled).
    #[inline]
    pub fn record(self, v: u64) {
        if !enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Records regardless of mode — used by span aggregation, which has
    /// already paid the enabled check.
    pub(crate) fn record_always(self, v: u64) {
        let idx = self.0.bounds.partition_point(|&b| b < v);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current summary (count, mean, p50/p95/p99, max); `None` while
    /// the histogram holds no samples.
    pub fn summary(self) -> Option<HistogramSummary> {
        self.0.summary()
    }

    /// Histogram name.
    pub fn name(self) -> &'static str {
        self.0.name
    }
}

/// Registers and returns a cached [`Histogram`] handle for this call
/// site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static __QWM_OBS_HISTOGRAM: std::sync::OnceLock<$crate::Histogram> =
            std::sync::OnceLock::new();
        *__QWM_OBS_HISTOGRAM.get_or_init(|| $crate::Histogram::register($name, $bounds))
    }};
}

/// Point-in-time summary of a non-empty [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Mean observation.
    pub mean: f64,
    /// Nearest-rank median, resolved to a bucket upper bound.
    pub p50: u64,
    /// Nearest-rank 95th percentile, resolved to a bucket upper bound.
    pub p95: u64,
    /// Nearest-rank 99th percentile, resolved to a bucket upper bound.
    pub p99: u64,
    /// Exact observed maximum.
    pub max: u64,
}
