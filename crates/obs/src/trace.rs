//! Per-query hierarchical traces and hot-arc attribution.
//!
//! The flat [`crate::span!`] layer aggregates wall time by *path*; this
//! module records individual *events* with explicit parent ids so a
//! single server query can be reconstructed as a tree (accept →
//! admission wait → levelize → level → stage → arc → evaluator rung)
//! even when the work crosses `qwm-exec` worker threads.
//!
//! Design constraints, in order:
//!
//! * **Tracing off is free.** Every entry point is gated on one relaxed
//!   atomic load ([`enabled`]); no clocks, no allocation, no locks.
//! * **Tracing on is bounded.** Records go into a fixed pool of
//!   fixed-capacity ring buffers (allocated once, on first enable).
//!   Pushing a record claims a slot with one `fetch_add` and fills it
//!   through a per-slot `try_lock` that never blocks: a slot contended
//!   by a concurrent reader is simply skipped (the record it would have
//!   displaced was about to be overwritten anyway). Nothing on the hot
//!   path allocates or waits.
//! * **Parent ids are explicit.** A [`TraceGuard`] stamps records with
//!   the ambient parent from a thread-local; [`adopt`] re-installs a
//!   captured parent on a worker thread so the tree survives the
//!   `run_dag` thread crossing.
//!
//! Rings are shared by every traced query in the process; collection
//! ([`take_tree`]) filters by reachability from the query's root id.
//! The rings are a *window*, not an archive: a query whose records were
//! overwritten before collection yields a partial tree. Callers collect
//! immediately after the traced region ends, which in practice keeps
//! the window loss at zero.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Rings in the pool; worker threads are assigned round-robin.
const RING_COUNT: usize = 16;
/// Records per ring. The pool window is `RING_COUNT * RING_CAP`.
const RING_CAP: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_RING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Ambient parent id for new records (0 = no parent).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's assigned ring (lazily claimed).
    static RING_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Table-lookup time accrued since the last [`take_lookup_ns`].
    static LOOKUP_NS: Cell<u64> = const { Cell::new(0) };
    /// Rung note left by the innermost evaluator ladder: (rung, retries).
    static RUNG: Cell<Option<(&'static str, u64)>> = const { Cell::new(None) };
}

/// True when tracing is collecting. One relaxed atomic load — this is
/// the entire tracing-off cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches tracing on or off (process-wide). The ring pool is
/// allocated on the first enable and reused afterwards.
pub fn set_enabled(on: bool) {
    if on {
        rings();
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drops every buffered record (registration survives; the rings are
/// reused). Safe to call while tracing is live; a no-op (no
/// allocation) when tracing has never been enabled.
pub fn clear() {
    if !RINGS_BUILT.load(Ordering::Acquire) {
        return;
    }
    for r in rings() {
        r.head.store(0, Ordering::Relaxed);
    }
}

/// The ambient parent id on this thread (0 when tracing is off or no
/// guard is live). Capture before handing work to another thread, then
/// [`adopt`] it there.
#[inline]
pub fn current() -> u64 {
    if !enabled() {
        return 0;
    }
    CURRENT.get()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .unwrap_or(Duration::ZERO)
        .as_nanos() as u64
}

/// What a [`TraceRecord`] describes; drives rendering and aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A plain timing scope.
    Span,
    /// A per-stage scope: `meta = [stage id, level, 0]`. The renderer
    /// groups consecutive stage children under `level N` headers.
    Stage,
    /// One evaluated timing arc: `meta = [stage id, lookup ns,
    /// retries]`, `detail` names the rung that landed, `dur_ns` is the
    /// solve time.
    Arc,
}

impl TraceKind {
    fn label(self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Stage => "stage",
            TraceKind::Arc => "arc",
        }
    }
}

/// One trace event. `start_ns` is relative to the process trace epoch
/// (first enable), so records order consistently across threads.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Unique id (process-wide, never 0 for a real record).
    pub id: u64,
    /// Parent record id (0 = root).
    pub parent: u64,
    /// Record kind; fixes the meaning of `meta`/`detail`.
    pub kind: TraceKind,
    /// Static site name (`server.run`, `sta.stage`, …).
    pub name: &'static str,
    /// Kind-specific qualifier (the landed rung for arcs).
    pub detail: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (solve time for arcs).
    pub dur_ns: u64,
    /// Kind-specific payload; see [`TraceKind`].
    pub meta: [u64; 3],
    /// Corner the record belongs to (batched multi-corner runs);
    /// empty for single-corner work.
    pub corner: &'static str,
}

const EMPTY: TraceRecord = TraceRecord {
    id: 0,
    parent: 0,
    kind: TraceKind::Span,
    name: "",
    detail: "",
    start_ns: 0,
    dur_ns: 0,
    meta: [0; 3],
    corner: "",
};

struct Ring {
    /// Total pushes ever; `min(head, RING_CAP)` slots are live.
    head: AtomicU64,
    slots: Vec<Mutex<TraceRecord>>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..RING_CAP).map(|_| Mutex::new(EMPTY)).collect(),
        }
    }

    fn push(&self, rec: TraceRecord) {
        let h = self.head.fetch_add(1, Ordering::Relaxed) as usize;
        // Never block: a slot held by a concurrent snapshot is skipped —
        // the record it held was due for overwrite regardless.
        if let Ok(mut slot) = self.slots[h % RING_CAP].try_lock() {
            *slot = rec;
        }
    }

    fn snapshot(&self, out: &mut Vec<TraceRecord>) {
        let live = (self.head.load(Ordering::Relaxed) as usize).min(RING_CAP);
        for slot in &self.slots[..live] {
            if let Ok(s) = slot.try_lock() {
                if s.id != 0 {
                    out.push(*s);
                }
            }
        }
    }
}

static RINGS_BUILT: AtomicBool = AtomicBool::new(false);

fn rings() -> &'static [Ring] {
    static RINGS: OnceLock<Vec<Ring>> = OnceLock::new();
    RINGS.get_or_init(|| {
        let r: Vec<Ring> = (0..RING_COUNT).map(|_| Ring::new()).collect();
        RINGS_BUILT.store(true, Ordering::Release);
        r
    })
}

fn my_ring() -> &'static Ring {
    let idx = RING_IDX.get();
    let idx = if idx == usize::MAX {
        let i = NEXT_RING.fetch_add(1, Ordering::Relaxed) % RING_COUNT;
        RING_IDX.set(i);
        i
    } else {
        idx
    };
    &rings()[idx]
}

fn push(rec: TraceRecord) {
    my_ring().push(rec);
}

/// RAII scope producing one [`TraceKind::Span`] (or [`TraceKind::Stage`])
/// record on drop, parented to the ambient id, and installing itself as
/// the ambient parent for the duration.
pub struct TraceGuard {
    state: Option<GuardState>,
    // Restoring CURRENT on another thread would corrupt the ambient
    // parent there; keep the guard on the thread that entered it.
    _not_send: std::marker::PhantomData<*const ()>,
}

struct GuardState {
    start: Instant,
    id: u64,
    prev: u64,
    kind: TraceKind,
    name: &'static str,
    meta: [u64; 3],
}

impl TraceGuard {
    /// Enters a span scope (inert when tracing is off).
    pub fn enter(name: &'static str) -> TraceGuard {
        Self::enter_kind(name, TraceKind::Span, [0; 3])
    }

    /// Enters a per-stage scope; `meta = [stage, level, 0]`.
    pub fn enter_stage(name: &'static str, stage: u64, level: u64) -> TraceGuard {
        Self::enter_kind(name, TraceKind::Stage, [stage, level, 0])
    }

    fn enter_kind(name: &'static str, kind: TraceKind, meta: [u64; 3]) -> TraceGuard {
        if !enabled() {
            return TraceGuard {
                state: None,
                _not_send: std::marker::PhantomData,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.replace(id);
        TraceGuard {
            state: Some(GuardState {
                start: Instant::now(),
                id,
                prev,
                kind,
                name,
                meta,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// The record id this guard will emit (0 when inert). Hand it to
    /// [`take_tree`] after the guard drops.
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.id)
    }

    /// Replaces the record's meta payload (e.g. stats only known at the
    /// end of the scope).
    pub fn set_meta(&mut self, meta: [u64; 3]) {
        if let Some(s) = &mut self.state {
            s.meta = meta;
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        CURRENT.set(s.prev);
        push(TraceRecord {
            id: s.id,
            parent: s.prev,
            kind: s.kind,
            name: s.name,
            detail: "",
            start_ns: since_epoch(s.start),
            dur_ns: s.start.elapsed().as_nanos() as u64,
            meta: s.meta,
            corner: "",
        });
    }
}

/// Restores the previous ambient parent on drop; see [`adopt`].
pub struct AdoptGuard {
    prev: Option<u64>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `parent` as this thread's ambient parent so records made
/// here attach to a tree rooted on another thread. Inert when tracing
/// is off or `parent` is 0.
pub fn adopt(parent: u64) -> AdoptGuard {
    if !enabled() || parent == 0 {
        return AdoptGuard {
            prev: None,
            _not_send: std::marker::PhantomData,
        };
    }
    AdoptGuard {
        prev: Some(CURRENT.replace(parent)),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.set(prev);
        }
    }
}

/// Records a span whose start/duration were measured externally (e.g.
/// admission wait anchored before the tracing scope existed). Inert
/// when tracing is off or `parent` is 0.
pub fn record_manual(name: &'static str, parent: u64, start: Instant, dur: Duration) {
    if !enabled() || parent == 0 {
        return;
    }
    push(TraceRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        kind: TraceKind::Span,
        name,
        detail: "",
        start_ns: since_epoch(start),
        dur_ns: dur.as_nanos() as u64,
        meta: [0; 3],
        corner: "",
    });
}

/// Records one evaluated arc under the ambient parent: the rung that
/// landed, solve wall time, table-lookup time attributed via
/// [`LookupTimer`], and ladder retries.
pub fn record_arc(stage: u64, rung: &'static str, start: Instant, lookup_ns: u64, retries: u64) {
    record_corner_arc(stage, "", rung, start, lookup_ns, retries);
}

/// Like [`record_arc`] but tags the arc with the corner it was evaluated
/// at; batched multi-corner sweeps use this so the trace tree shows one
/// record per `(arc, corner)` pair.
pub fn record_corner_arc(
    stage: u64,
    corner: &'static str,
    rung: &'static str,
    start: Instant,
    lookup_ns: u64,
    retries: u64,
) {
    if !enabled() {
        return;
    }
    push(TraceRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: CURRENT.get(),
        kind: TraceKind::Arc,
        name: "sta.arc",
        detail: rung,
        start_ns: since_epoch(start),
        dur_ns: start.elapsed().as_nanos() as u64,
        meta: [stage, lookup_ns, retries],
        corner,
    });
}

/// Leaves a rung note for the enclosing arc recorder: which rung the
/// evaluator ladder landed on and how many retries it burned. Called by
/// the fallback ladder; read (and cleared) by [`take_rung`] in the STA
/// engine right after the evaluator returns, on the same thread.
pub fn note_rung(rung: &'static str, retries: u64) {
    if !enabled() {
        return;
    }
    RUNG.set(Some((rung, retries)));
}

/// Takes the pending rung note, if any.
pub fn take_rung() -> Option<(&'static str, u64)> {
    if !enabled() {
        return None;
    }
    RUNG.take()
}

/// Takes the table-lookup nanoseconds accrued on this thread since the
/// previous call. The STA engine brackets each evaluator call with a
/// take-before / take-after pair to attribute lookups to the arc.
pub fn take_lookup_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    LOOKUP_NS.replace(0)
}

/// Times one table lookup and adds it to the thread's accumulator on
/// drop. Construct via [`time_lookup`]; inert (no clock read) when
/// tracing is off.
pub struct LookupTimer {
    start: Option<Instant>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Starts timing a table lookup (inert when tracing is off).
#[inline]
pub fn time_lookup() -> LookupTimer {
    LookupTimer {
        start: enabled().then(Instant::now),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for LookupTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            let ns = t0.elapsed().as_nanos() as u64;
            LOOKUP_NS.set(LOOKUP_NS.get().saturating_add(ns));
        }
    }
}

/// A reconstructed per-query trace: the records reachable from `root`,
/// sorted by start time.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Root record id.
    pub root: u64,
    /// Reachable records (including the root), ordered by
    /// `(start_ns, id)`.
    pub records: Vec<TraceRecord>,
    /// Parent id → indices of its children in `records`, in record
    /// order; built once by [`take_tree`] for the renderer.
    children: HashMap<u64, Vec<usize>>,
}

/// Parent id → indices of its children in `records`, in slice order.
/// A record naming itself as parent is nobody's child.
fn child_index(records: &[TraceRecord]) -> HashMap<u64, Vec<usize>> {
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.parent != r.id {
            index.entry(r.parent).or_default().push(i);
        }
    }
    index
}

/// Collects the tree rooted at `root` from the ring pool. Call after
/// the root guard has dropped. Records already overwritten by ring
/// wrap-around are absent (the tree is then partial).
///
/// Linear in the ring window: one parent → children index drives the
/// reachability walk, and another over the kept records serves
/// rendering.
pub fn take_tree(root: u64) -> TraceTree {
    let mut all = Vec::new();
    if root != 0 && RINGS_BUILT.load(Ordering::Acquire) {
        for r in rings() {
            r.snapshot(&mut all);
        }
    }
    // Reachability from the root via parent links.
    let window = child_index(&all);
    let mut keep: Vec<bool> = all.iter().map(|r| r.id == root).collect();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for &i in window.get(&p).map_or(&[][..], Vec::as_slice) {
            if !keep[i] {
                keep[i] = true;
                frontier.push(all[i].id);
            }
        }
    }
    let mut records: Vec<TraceRecord> = all
        .into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect();
    records.sort_by_key(|r| (r.start_ns, r.id));
    TraceTree {
        root,
        children: child_index(&records),
        records,
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}us", ns as f64 / 1_000.0)
}

impl TraceTree {
    /// True when nothing (not even the root) was collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the tree as indented text. Stage records are grouped
    /// under `level N` headers; arcs show the landed rung and the
    /// solve/lookup split.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.records.iter().find(|r| r.id == self.root) {
            self.render_node(root, 0, &mut out);
        } else {
            out.push_str("(no trace recorded)\n");
        }
        out
    }

    fn children_of(&self, id: u64) -> Vec<&TraceRecord> {
        self.children
            .get(&id)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&i| &self.records[i])
            .collect()
    }

    fn render_node(&self, rec: &TraceRecord, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match rec.kind {
            TraceKind::Span => {
                out.push_str(&format!("{pad}{} {}", rec.name, fmt_us(rec.dur_ns)));
                if rec.meta != [0; 3] {
                    out.push_str(&format!(
                        " meta=[{},{},{}]",
                        rec.meta[0], rec.meta[1], rec.meta[2]
                    ));
                }
                out.push('\n');
            }
            TraceKind::Stage => {
                out.push_str(&format!(
                    "{pad}stage {} {}\n",
                    rec.meta[0],
                    fmt_us(rec.dur_ns)
                ));
            }
            TraceKind::Arc => {
                out.push_str(&format!(
                    "{pad}arc stage={} rung={} solve={} lookup={} retries={}",
                    rec.meta[0],
                    rec.detail,
                    fmt_us(rec.dur_ns),
                    fmt_us(rec.meta[1]),
                    rec.meta[2]
                ));
                if !rec.corner.is_empty() {
                    out.push_str(&format!(" corner={}", rec.corner));
                }
                out.push('\n');
                return; // arcs are leaves
            }
        }
        let children = self.children_of(rec.id);
        let mut stages: Vec<&TraceRecord> = children
            .iter()
            .copied()
            .filter(|c| c.kind == TraceKind::Stage)
            .collect();
        if stages.is_empty() {
            for c in &children {
                self.render_node(c, depth + 1, out);
            }
            return;
        }
        // Non-stage children first (levelize etc.), then stages grouped
        // by level, ascending.
        for c in children.iter().filter(|c| c.kind != TraceKind::Stage) {
            self.render_node(c, depth + 1, out);
        }
        // Stable sort: record order within a level is kept.
        stages.sort_by_key(|s| s.meta[1]);
        let cpad = "  ".repeat(depth + 1);
        for members in stages.chunk_by(|a, b| a.meta[1] == b.meta[1]) {
            let (lvl, n) = (members[0].meta[1], members.len());
            out.push_str(&format!(
                "{cpad}level {lvl} ({n} stage{})\n",
                if n == 1 { "" } else { "s" }
            ));
            for s in members {
                self.render_node(s, depth + 2, out);
            }
        }
    }

    /// Renders the tree as one JSON object per line (`"type":"trace"`),
    /// suitable for `qwm obs-report`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"type\":\"trace\",\"id\":{},\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"m0\":{},\"m1\":{},\"m2\":{}",
                r.id,
                r.parent,
                r.kind.label(),
                crate::render::json_escape(r.name),
                crate::render::json_escape(r.detail),
                r.start_ns,
                r.dur_ns,
                r.meta[0],
                r.meta[1],
                r.meta[2]
            ));
            if !r.corner.is_empty() {
                out.push_str(&format!(
                    ",\"corner\":\"{}\"",
                    crate::render::json_escape(r.corner)
                ));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// One row of the hot-arc profile: an `(stage, rung)` pair aggregated
/// over every arc record still in the ring window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Stage id.
    pub stage: u64,
    /// Landed rung name.
    pub rung: &'static str,
    /// Arc records aggregated.
    pub count: u64,
    /// Total solve nanoseconds.
    pub solve_ns: u64,
    /// Largest single solve.
    pub max_ns: u64,
    /// Total attributed table-lookup nanoseconds.
    pub lookup_ns: u64,
    /// Total ladder retries.
    pub retries: u64,
}

/// Aggregates every arc record in the ring window into `(stage, rung)`
/// rows, most expensive (by total solve time) first; ties break on
/// ascending stage then rung so the output is deterministic.
pub fn profile_entries() -> Vec<ProfileEntry> {
    let mut all = Vec::new();
    if RINGS_BUILT.load(Ordering::Acquire) {
        for r in rings() {
            r.snapshot(&mut all);
        }
    }
    let mut agg: std::collections::HashMap<(u64, &'static str), ProfileEntry> =
        std::collections::HashMap::new();
    for rec in all {
        if rec.kind != TraceKind::Arc {
            continue;
        }
        let e = agg
            .entry((rec.meta[0], rec.detail))
            .or_insert(ProfileEntry {
                stage: rec.meta[0],
                rung: rec.detail,
                count: 0,
                solve_ns: 0,
                max_ns: 0,
                lookup_ns: 0,
                retries: 0,
            });
        e.count += 1;
        e.solve_ns += rec.dur_ns;
        e.max_ns = e.max_ns.max(rec.dur_ns);
        e.lookup_ns += rec.meta[1];
        e.retries += rec.meta[2];
    }
    let mut rows: Vec<ProfileEntry> = agg.into_values().collect();
    rows.sort_by(|a, b| {
        b.solve_ns
            .cmp(&a.solve_ns)
            .then(a.stage.cmp(&b.stage))
            .then(a.rung.cmp(b.rung))
    });
    rows
}

/// Renders the top-`k` hot-arc table.
pub fn profile_top(k: usize) -> String {
    let rows = profile_entries();
    let total = rows.len();
    let mut out = format!(
        "hot arcs by total solve time ({total} arc/rung pair{} in window, top {})\n",
        if total == 1 { "" } else { "s" },
        k.min(total)
    );
    out.push_str(&format!(
        "{:>4}  {:>5}  {:<14} {:>6}  {:>12}  {:>10}  {:>10}  {:>7}\n",
        "rank", "stage", "rung", "count", "solve_us", "max_us", "lookup_us", "retries"
    ));
    for (i, e) in rows.iter().take(k).enumerate() {
        out.push_str(&format!(
            "{:>4}  {:>5}  {:<14} {:>6}  {:>12.1}  {:>10.1}  {:>10.1}  {:>7}\n",
            i + 1,
            e.stage,
            e.rung,
            e.count,
            e.solve_ns as f64 / 1_000.0,
            e.max_ns as f64 / 1_000.0,
            e.lookup_ns as f64 / 1_000.0,
            e.retries
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state (enable flag, rings) is process-global; serialize
    // the tests that toggle it.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        clear();
        g
    }

    #[test]
    fn guards_build_parent_links_and_trees() {
        let _g = trace_lock();
        let root_id;
        {
            let root = TraceGuard::enter("t.root");
            root_id = root.id();
            assert_ne!(root_id, 0);
            {
                let _mid = TraceGuard::enter("t.mid");
                let _leaf = TraceGuard::enter_stage("t.stage", 7, 2);
                record_arc(7, "qwm", Instant::now(), 11, 1);
            }
        }
        let tree = take_tree(root_id);
        assert_eq!(tree.records.len(), 4);
        let root = tree.records.iter().find(|r| r.id == root_id).unwrap();
        assert_eq!(root.parent, 0);
        let arc = tree
            .records
            .iter()
            .find(|r| r.kind == TraceKind::Arc)
            .unwrap();
        assert_eq!(arc.detail, "qwm");
        assert_eq!(arc.meta, [7, 11, 1]);
        let text = tree.render_text();
        assert!(text.contains("t.root"), "{text}");
        assert!(text.contains("level 2 (1 stage)"), "{text}");
        assert!(text.contains("rung=qwm"), "{text}");
        for line in tree.render_json().lines() {
            assert!(line.starts_with("{\"type\":\"trace\""), "{line}");
        }
    }

    /// A root with a 200-deep chain and a 300-wide level, interleaved
    /// with 2 000 unrelated records in one ring: collection keeps
    /// exactly the subtree and rendering reaches every level.
    #[test]
    fn take_tree_keeps_deep_and_wide_subtrees_among_unrelated_records() {
        let _g = trace_lock();
        const DEPTH: usize = 200;
        const WIDTH: usize = 300;
        const NOISE: usize = 4; // unrelated records per tree record
        const { assert!((DEPTH + WIDTH) * (1 + NOISE) < RING_CAP) };
        let t0 = Instant::now();
        let unrelated = |n: usize| {
            for _ in 0..n {
                record_manual("t.unrelated", u64::MAX, t0, Duration::ZERO);
            }
        };
        let root_id;
        {
            let root = TraceGuard::enter("t.root");
            root_id = root.id();
            let mut chain = Vec::with_capacity(DEPTH);
            for _ in 0..DEPTH {
                chain.push(TraceGuard::enter("t.chain"));
                unrelated(NOISE / 2);
            }
            // Innermost first, so each drop restores its own parent.
            while let Some(link) = chain.pop() {
                drop(link);
                unrelated(NOISE / 2);
            }
            for s in 0..WIDTH as u64 {
                let _stage = TraceGuard::enter_stage("t.wide", s, 1);
                unrelated(NOISE);
            }
        }
        let tree = take_tree(root_id);
        let named = |name: &str| tree.records.iter().filter(|r| r.name == name).count();
        assert_eq!(tree.records.len(), 1 + DEPTH + WIDTH);
        assert_eq!((named("t.chain"), named("t.wide")), (DEPTH, WIDTH));
        assert_eq!(named("t.unrelated"), 0);

        let text = tree.render_text();
        assert_eq!(text.lines().count(), 1 + DEPTH + 1 + WIDTH, "{text}");
        let deepest = format!("{}t.chain ", "  ".repeat(DEPTH));
        assert!(text.lines().any(|l| l.starts_with(&deepest)), "{text}");
        assert!(text.contains("  level 1 (300 stages)\n"), "{text}");
        for s in 0..WIDTH {
            assert!(text.contains(&format!("    stage {s} ")), "stage {s}");
        }
    }

    #[test]
    fn adopt_carries_context_across_threads() {
        let _g = trace_lock();
        let root_id;
        {
            let root = TraceGuard::enter("t.xthread");
            root_id = root.id();
            let ctx = current();
            assert_eq!(ctx, root_id);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _a = adopt(ctx);
                    let _child = TraceGuard::enter("t.worker");
                });
            });
        }
        let tree = take_tree(root_id);
        let worker = tree.records.iter().find(|r| r.name == "t.worker").unwrap();
        assert_eq!(worker.parent, root_id);
    }

    #[test]
    fn disabled_records_nothing_and_costs_no_ids() {
        let _g = trace_lock();
        set_enabled(false);
        {
            let g = TraceGuard::enter("t.off");
            assert_eq!(g.id(), 0);
            assert_eq!(current(), 0);
            record_arc(1, "qwm", Instant::now(), 0, 0);
            let _t = time_lookup();
        }
        assert_eq!(take_lookup_ns(), 0);
        set_enabled(true);
        // Nothing from the disabled window is in the rings.
        assert!(profile_entries().is_empty());
    }

    #[test]
    fn profile_aggregates_by_stage_and_rung() {
        let _g = trace_lock();
        let t0 = Instant::now();
        record_arc(3, "qwm", t0, 100, 0);
        record_arc(3, "qwm", t0, 50, 0);
        record_arc(4, "spice-fixed", t0, 0, 2);
        let rows = profile_entries();
        assert_eq!(rows.len(), 2);
        let qwm = rows.iter().find(|r| r.rung == "qwm").unwrap();
        assert_eq!(qwm.count, 2);
        assert_eq!(qwm.lookup_ns, 150);
        let table = profile_top(10);
        assert!(table.contains("spice-fixed"), "{table}");
    }

    #[test]
    fn ring_wrap_is_bounded_and_lossy_not_fatal() {
        let _g = trace_lock();
        let t0 = Instant::now();
        for i in 0..(RING_CAP as u64 * 2) {
            record_arc(i % 5, "qwm", t0, 0, 0);
        }
        let rows = profile_entries();
        let total: u64 = rows.iter().map(|r| r.count).sum();
        assert!(total <= (RING_COUNT * RING_CAP) as u64);
        assert!(total >= RING_CAP as u64 / 2, "window kept too little");
    }

    #[test]
    fn lookup_timer_accumulates_per_thread() {
        let _g = trace_lock();
        {
            let _t = time_lookup();
            std::hint::black_box(0u64);
        }
        let ns = take_lookup_ns();
        // A clock pair ran; elapsed may legitimately round to zero on
        // coarse clocks, but the accumulator must reset either way.
        let _ = ns;
        assert_eq!(take_lookup_ns(), 0);
    }
}
