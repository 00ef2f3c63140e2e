//! Zero-dependency observability for the QWM/SPICE/STA pipeline.
//!
//! Every engine in the workspace reports into one process-global
//! registry: named monotonic [`Counter`]s, fixed-bucket [`Histogram`]s
//! with percentile summaries, hierarchical timing [`span!`]s and
//! structured warn/error `event`s. The registry renders either a
//! human-readable table or a line-oriented JSON dump.
//!
//! The whole layer is **off by default** and costs a single relaxed
//! atomic load per call site when disabled — no allocation, no locks,
//! no clock reads on the hot path. It is switched on by the `QWM_OBS`
//! environment variable (or programmatically via [`set_mode`]):
//!
//! ```text
//! QWM_OBS=off      # default: everything is a no-op (aliases: "", "0")
//! QWM_OBS=summary  # collect, render a human-readable table on emit()
//! QWM_OBS=json     # collect, render line-oriented JSON on emit()
//! ```
//!
//! Any other value is *not* a silent fallback: it is reported through
//! [`env::report_malformed`] (warn event + stderr line) and then the
//! documented default `off` applies. All `QWM_*` variables in the
//! workspace parse through the [`env`](mod@env) module with the same contract.
//!
//! Typical instrumentation:
//!
//! ```
//! qwm_obs::set_mode(qwm_obs::ObsMode::Summary);
//! {
//!     let _span = qwm_obs::span!("stage_eval");
//!     qwm_obs::counter!("qwm.solver.nr_iterations").add(17);
//!     qwm_obs::histogram!("qwm.region.iterations", qwm_obs::ITER_BOUNDS).record(4);
//! }
//! let text = qwm_obs::render(qwm_obs::ObsMode::Summary);
//! assert!(text.contains("qwm.solver.nr_iterations"));
//! # qwm_obs::set_mode(qwm_obs::ObsMode::Off);
//! # qwm_obs::reset();
//! ```
//!
//! The parallel scheduler (`qwm-exec`) reports through the same
//! registry: counters `exec.pool.submitted`, `exec.pool.steals`,
//! `exec.pool.panics` and `exec.dag.steals`, plus histograms
//! `exec.pool.queue_depth`, `exec.dag.queue_depth`,
//! `exec.dag.level_width` (stage-DAG parallelism profile) and
//! `exec.dag.worker_busy_ns` (per-worker busy time per `run_dag`
//! invocation). The full metric inventory lives in DESIGN.md §9.
//!
//! Beyond the aggregate layer, the [`trace`] module records per-query
//! hierarchical span trees with hot-arc attribution (off by default,
//! one relaxed atomic load when off), [`prom`] renders the registry as
//! Prometheus text exposition, and [`report`] turns dumped JSON
//! telemetry into a self-contained HTML report.

pub mod env;
mod event;
mod metrics;
pub mod prom;
mod render;
pub mod report;
mod span;
pub mod trace;

pub use event::{error, warn, Event, EventBuilder, Level};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, ITER_BOUNDS, NS_BOUNDS, SIZE_BOUNDS,
};
pub use render::{emit, render};
pub use span::{SpanGuard, SpanStats};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Output/collection mode of the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Everything is a no-op (the default).
    Off,
    /// Collect; [`emit`] prints a human-readable table.
    Summary,
    /// Collect; [`emit`] prints line-oriented JSON.
    Json,
}

const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The active mode, reading `QWM_OBS` on first use.
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Summary,
        2 => ObsMode::Json,
        _ => {
            let (m, malformed) = match std::env::var("QWM_OBS") {
                Err(_) => (ObsMode::Off, None),
                Ok(raw) => match raw.as_str() {
                    "" | "off" | "0" => (ObsMode::Off, None),
                    "summary" => (ObsMode::Summary, None),
                    "json" => (ObsMode::Json, None),
                    _ => (ObsMode::Off, Some(raw)),
                },
            };
            // Store before reporting: the warn path re-enters `enabled()`,
            // which must not recurse back into this env read.
            MODE.store(m as u8, Ordering::Relaxed);
            if let Some(raw) = malformed {
                env::report_malformed(
                    &env::EnvParseError {
                        name: "QWM_OBS".to_string(),
                        raw,
                        reason: "expected off|summary|json".to_string(),
                    },
                    "off",
                );
            }
            m
        }
    }
}

/// Overrides the mode (e.g. from a `--obs` command-line flag).
pub fn set_mode(m: ObsMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// True when the layer is collecting. This is the fast-path gate: one
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    // Fast path: the common initialized states avoid the env lookup.
    match MODE.load(Ordering::Relaxed) {
        0 => false,
        MODE_UNSET => mode() != ObsMode::Off,
        _ => true,
    }
}

/// The process-global registry behind every metric handle.
pub(crate) struct Registry {
    pub(crate) counters: Mutex<Vec<&'static metrics::CounterInner>>,
    pub(crate) gauges: Mutex<Vec<&'static metrics::GaugeInner>>,
    pub(crate) histograms: Mutex<Vec<&'static metrics::HistogramInner>>,
    pub(crate) spans: Mutex<Vec<&'static span::SpanStatInner>>,
    pub(crate) events: Mutex<std::collections::VecDeque<Event>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        events: Mutex::new(std::collections::VecDeque::new()),
    })
}

/// Zeroes every registered counter, histogram, span aggregate, drops
/// buffered events and buffered trace records. Registration (names,
/// bucket bounds) survives; only the collected values are cleared.
/// Intended for tests and for bench binaries that want a per-phase
/// appendix.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("obs registry").iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().expect("obs registry").iter() {
        g.value.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.lock().expect("obs registry").iter() {
        h.reset();
    }
    for s in reg.spans.lock().expect("obs registry").iter() {
        s.reset();
    }
    reg.events.lock().expect("obs registry").clear();
    trace::clear();
}

/// Looks up a counter's current value by name (`None` when never
/// registered). Intended for tests and report plumbing.
pub fn counter_value(name: &str) -> Option<u64> {
    registry()
        .counters
        .lock()
        .expect("obs registry")
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value.load(Ordering::Relaxed))
}

/// Looks up a gauge's current value by name (`None` when never
/// registered). Intended for tests and report plumbing.
pub fn gauge_value(name: &str) -> Option<u64> {
    registry()
        .gauges
        .lock()
        .expect("obs registry")
        .iter()
        .find(|g| g.name == name)
        .map(|g| g.value.load(Ordering::Relaxed))
}

/// Looks up a histogram summary by name (`None` when never registered
/// or when the histogram holds no samples).
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    registry()
        .histograms
        .lock()
        .expect("obs registry")
        .iter()
        .find(|h| h.name == name)
        .and_then(|h| h.summary())
}

/// Looks up a span aggregate by path.
pub fn span_stats(path: &str) -> Option<SpanStats> {
    registry()
        .spans
        .lock()
        .expect("obs registry")
        .iter()
        .find(|s| s.path == path)
        .map(|s| s.stats())
}

/// Recently buffered events, oldest first (bounded ring; see
/// `event::EVENT_BUFFER_CAP`).
pub fn recent_events() -> Vec<Event> {
    registry()
        .events
        .lock()
        .expect("obs registry")
        .iter()
        .cloned()
        .collect()
}
