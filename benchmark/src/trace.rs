//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around calls into the program, never inside it), kept in memory and
//! written out when the benchmark ends. A span's self time is its
//! duration minus the part its child spans cover; per-name totals are
//! folded as spans close, so the ledger stays exact even when the raw
//! span list hits its cap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept for `trace.jsonl` (about 40 bytes each).
const RAW_CAP: usize = 1 << 20;

/// One closed span. Ids are handed out in opening order from 1;
/// `parent` is the enclosing span's id, 0 for a top-level span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    /// Span id (0 when the raw list was already full at open time).
    raw_id: u32,
}

#[derive(Default)]
struct Inner {
    enabled: bool,
    op: u32,
    stack: Vec<Open>,
    raw: Vec<Span>,
    /// Ids handed out so far (a span takes its id when it opens, so
    /// children can name it before it closes).
    next_raw: u32,
    agg: BTreeMap<&'static str, Agg>,
}

impl Inner {
    fn take_id(&mut self) -> u32 {
        if (self.next_raw as usize) < RAW_CAP {
            self.next_raw += 1;
            self.next_raw
        } else {
            0
        }
    }
}

/// A recorder one thread of the load generator owns. `&self` methods
/// behind a mutex, because the program calls back into the benchmark's
/// wrapping evaluator through a `Sync` trait object.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Token returned by [`Tracer::start`]; spans close in LIFO order.
#[must_use]
pub struct Started(bool);

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer lock: a recording thread panicked")
    }

    /// Switches recording on or off (between ops only).
    pub fn set_enabled(&self, on: bool) {
        let mut g = self.lock();
        debug_assert!(g.stack.is_empty(), "toggled inside an open span");
        g.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Sets the op id stamped on every span opened from now on.
    pub fn set_op(&self, op: u32) {
        self.lock().op = op;
    }

    pub fn start(&self, name: &'static str) -> Started {
        let mut g = self.lock();
        if !g.enabled {
            return Started(false);
        }
        let raw_id = g.take_id();
        g.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            raw_id,
        });
        Started(true)
    }

    pub fn end(&self, started: Started) {
        if !started.0 {
            return;
        }
        let now = Instant::now();
        let mut g = self.lock();
        let open = g.stack.pop().expect("end without start");
        let dur = now.duration_since(open.start).as_nanos() as u64;
        let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
        self.close(&mut g, open.name, start_ns, dur, open.child_ns, open.raw_id);
    }

    /// Records a child span whose duration the program reported itself
    /// (for example `solve_ns=` in a reply head); it is laid against
    /// the end of the enclosing span, where the reply arrived.
    pub fn reported(&self, name: &'static str, dur_ns: u64) {
        let mut g = self.lock();
        if !g.enabled {
            return;
        }
        let now = Instant::now().duration_since(self.epoch).as_nanos() as u64;
        let raw_id = g.take_id();
        self.close(&mut g, name, now.saturating_sub(dur_ns), dur_ns, 0, raw_id);
    }

    fn close(
        &self,
        g: &mut Inner,
        name: &'static str,
        start_ns: u64,
        dur: u64,
        child_ns: u64,
        raw_id: u32,
    ) {
        let a = g.agg.entry(name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns);
        let parent = match g.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.raw_id
            }
            None => 0,
        };
        if raw_id != 0 {
            let op = g.op;
            g.raw.push(Span {
                id: raw_id,
                name,
                start_ns,
                end_ns: start_ns + dur,
                parent,
                op,
            });
        }
    }

    /// Takes the per-name totals and the raw spans recorded so far.
    pub fn finish(self) -> (BTreeMap<&'static str, Agg>, Vec<Span>) {
        let g = self.inner.into_inner().expect("tracer lock");
        (g.agg, g.raw)
    }
}

/// Folds one thread's totals into another's.
pub fn merge(into: &mut BTreeMap<&'static str, Agg>, from: &BTreeMap<&'static str, Agg>) {
    for (name, a) in from {
        let t = into.entry(name).or_default();
        t.count += a.count;
        t.total_ns += a.total_ns;
        t.self_ns += a.self_ns;
    }
}

/// Share of the named span's time its direct children cover.
pub fn coverage(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    match agg.get(name) {
        Some(a) if a.total_ns > 0 => 1.0 - a.self_ns as f64 / a.total_ns as f64,
        _ => 0.0,
    }
}

/// Renders spans as JSON lines in closing order (`thread` tells the
/// recorders apart; `id`/`parent` are unique within a thread).
pub fn render_jsonl(thread: usize, spans: &[Span], out: &mut String) {
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"thread\":{thread},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::new(Instant::now());
        t.set_enabled(true);
        t.set_op(7);
        let op = t.start("op");
        spin(Duration::from_millis(2));
        let a = t.start("a");
        spin(Duration::from_millis(3));
        let leaf = t.start("leaf");
        spin(Duration::from_millis(1));
        t.end(leaf);
        t.end(a);
        t.reported("told", 500_000);
        t.end(op);
        let (agg, raw) = t.finish();
        let (op, a, leaf, told) = (agg["op"], agg["a"], agg["leaf"], agg["told"]);
        assert_eq!((op.count, a.count, leaf.count, told.count), (1, 1, 1, 1));
        // Children subtract exactly: no clock is read twice for one edge.
        assert_eq!(a.self_ns, a.total_ns - leaf.total_ns);
        assert_eq!(op.self_ns, op.total_ns - a.total_ns - told.total_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert!(a.self_ns >= 3_000_000 && leaf.total_ns >= 1_000_000);
        let cov = coverage(&agg, "op");
        assert!(cov > 0.5 && cov < 1.0, "coverage {cov}");
        // Raw spans close innermost first and carry op id and parents.
        let names: Vec<&str> = raw.iter().map(|s| s.name).collect();
        assert_eq!(names, ["leaf", "a", "told", "op"]);
        assert!(raw.iter().all(|s| s.op == 7));
        let ids: Vec<(u32, u32)> = raw.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, [(3, 2), (2, 1), (4, 1), (1, 0)]);
        let mut text = String::new();
        render_jsonl(0, &raw, &mut text);
        assert_eq!(text.lines().count(), 4);
        assert!(qwm::obs::report::validate_json_lines(&text).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(Instant::now());
        let s = t.start("op");
        t.reported("told", 10);
        t.end(s);
        let (agg, raw) = t.finish();
        assert!(agg.is_empty() && raw.is_empty());
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = BTreeMap::new();
        a.insert(
            "x",
            Agg {
                count: 1,
                total_ns: 10,
                self_ns: 4,
            },
        );
        let b = a.clone();
        merge(&mut a, &b);
        assert_eq!(a["x"].count, 2);
        assert_eq!(a["x"].total_ns, 20);
        assert_eq!(a["x"].self_ns, 8);
    }
}
