//! One run of one workload: make the inputs from the seed, set up,
//! measure for the window, check every output, then (untraced) the
//! accuracy metrics or (traced) the per-layer ledger.

use crate::accuracy;
use crate::design::{Design, Models, Workload};
use crate::gen::{self, Op, StreamId};
use crate::host;
use crate::inproc::{cold_op, fnv1a, DIRECTION};
use crate::layers::Ledger;
use crate::metrics::{RunResult, Values};
use crate::serve::{self, ConnPass, Mirror, Server, CONNECTIONS};
use crate::stats::{median, quantile, subwindow_quantiles};
use crate::trace::{self, Agg, Span, Tracer};
use qwm::device::Technology;
use qwm::server::Client;
use qwm::sta::StaEngine;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `qwm` binary under test.
    pub qwm: PathBuf,
    /// Scratch directory of this process; removed on exit.
    pub run_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// A smoke run gates on counts and correctness only: one set-up, and
    /// no accuracy rows or ledger after the window.
    pub smoke: bool,
}

impl RunArgs {
    /// How many times set-up is repeated; `setup_s` is the median. The
    /// traced pass reports no set-up and pays it once.
    fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            5
        }
    }
}

pub fn run(a: &RunArgs) -> Result<RunResult, String> {
    let calib_before = host::calib_ms();
    let mut r = if a.workload.served() {
        run_served(a)?
    } else {
        run_inproc(a)?
    };
    if a.trace {
        let calib_after = host::calib_ms();
        let v = &mut r.values;
        v.set("host.calib_ms", 0.5 * (calib_before + calib_after), 2);
        let drift = (calib_after - calib_before).abs() / calib_before;
        v.set("host.calib_drift_frac", drift, 2);
    }
    Ok(r)
}

/// The timing rows every workload reports from its op samples, which
/// are in time order.
fn op_rows(v: &mut Values, op_ms: &[f64], measured_s: f64) {
    let n = op_ms.len() as u64;
    v.set("op_ms_p50", median(op_ms), n);
    // The median of five consecutive sub-windows' p90s, as
    // `server.req_ms_p99` is built: a neighbour's burst on this shared
    // host spoils one or two fifths of the window and not the estimate,
    // while a tail the program has in most of the window shows in full.
    v.set("op_ms_p90", median(&subwindow_quantiles(op_ms, 0.9, 5)), n);
    v.set("ops_per_s", op_ms.len() as f64 / measured_s, n);
}

/// Traced-run rows read off the recorder: what tracing cost, and how
/// much of each op its top-level spans explain.
///
/// `pairs` holds one (traced, untraced) median op latency per adjacent
/// pair of ops or passes; the median of their ratios shrugs off the
/// slow drift of a shared host, which a ratio of two window-wide
/// medians does not.
fn trace_rows(v: &mut Values, pairs: &[(f64, f64)], agg: &BTreeMap<&'static str, Agg>) {
    let ratios: Vec<f64> = pairs.iter().map(|(traced, plain)| traced / plain).collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    };
    v.set("bench.trace_overhead_frac", overhead, ratios.len() as u64);
    let ops = agg.get("op").map_or(0, |a| a.count);
    v.set("bench.span_coverage_frac", trace::coverage(agg, "op"), ops);
}

fn write_trace(path: &Path, threads: &[Vec<Span>]) -> Result<(), String> {
    let mut text = String::new();
    for (t, spans) in threads.iter().enumerate() {
        trace::render_jsonl(t, spans, &mut text);
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The accuracy rows of an untraced run, or the ledger of a traced one:
/// the part every workload does the same way after its window.
fn after_window(
    a: &RunArgs,
    design: &Design,
    full: &Models,
    sweep: bool,
    out: &mut RunResult,
) -> Result<(), String> {
    if a.smoke {
        return Ok(());
    }
    let w = a.workload;
    // SPICE cannot time the 7-level tree's one stage; its arcs are
    // sampled from the 3-level sibling instead.
    let tree_sibling;
    let arc_design = if w == Workload::WireTree {
        tree_sibling = Design::sibling(w, &full.tech, a.seed, 0);
        &tree_sibling
    } else {
        design
    };
    let engine = StaEngine::new(arc_design.netlist.clone(), &full.tabular, DIRECTION)
        .map_err(|e| format!("accuracy engine: {e}"))?;
    let arcs = accuracy::sample(&engine, arc_design.slew.is_some(), a.seed);
    if a.trace {
        Ledger {
            design,
            models: full,
            seed: a.seed,
            qwm: &a.qwm,
            run_dir: &a.run_dir,
        }
        .measure(&arcs, out);
    } else {
        accuracy::measure(w, &arcs, full, sweep, a.seed, out);
    }
    Ok(())
}

fn run_inproc(a: &RunArgs) -> Result<RunResult, String> {
    let w = a.workload;
    let sweep = w.sweeps_corners();
    let idle = Tracer::new(Instant::now());
    let mut out = RunResult::default();
    // Post-window work uses nominal and corner models alike; the timed
    // set-ups characterize what the op needs.
    let full = Models::characterize(true);

    // Set-up, as the user pays it: characterize, generate, render the
    // deck, and the first op (which also fills lazy per-thread state).
    let mut setup_s = Vec::with_capacity(a.setups());
    let mut ctx = None;
    let mut reference = 0;
    for _ in 0..a.setups() {
        let t0 = Instant::now();
        let models = Models::characterize(sweep);
        let design = Design::of(w, &models.tech, a.seed);
        let first =
            cold_op(&design, &models, sweep, 1, &idle).map_err(|e| format!("warm-up op: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        reference = fnv1a(&first.report);
        ctx = Some((models, design));
    }
    let (models, design) = ctx.expect("at least one set-up");

    let tracer = Tracer::new(Instant::now());
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut evaluations = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds {
        let traced = a.trace && out.attempted.is_multiple_of(2);
        tracer.set_enabled(traced);
        tracer.set_op(out.attempted as u32);
        out.attempted += 1;
        let t0 = Instant::now();
        let result = cold_op(&design, &models, sweep, 1, &tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(r) if fnv1a(&r.report) == reference => evaluations += r.evaluations as u64,
            Ok(_) => {
                out.failed += 1;
                out.notes
                    .push(format!("op {}: report differs from rep 0", out.attempted));
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("op {}: {e}", out.attempted));
            }
        }
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let rss = host::peak_rss_mb("/proc/self/status");

    let v = &mut out.values;
    if a.trace {
        let (agg, spans) = tracer.finish();
        let pairs: Vec<(f64, f64)> = traced_ms
            .iter()
            .copied()
            .zip(plain_ms.iter().copied())
            .collect();
        trace_rows(v, &pairs, &agg);
        v.set(
            "sta.arcs_per_s",
            evaluations as f64 / measured_s,
            out.attempted,
        );
        if let Some(path) = &a.trace_out {
            write_trace(path, &[spans])?;
        }
    } else {
        v.set("setup_s", median(&setup_s), setup_s.len() as u64);
        op_rows(v, &plain_ms, measured_s);
        v.set("peak_rss_mb", rss, 1);
    }
    after_window(a, &design, &full, sweep, &mut out)?;
    Ok(out)
}

/// What a served workload sends: one op list per connection, with the
/// reports an in-process reference gives for them. Made from the seed
/// before anything is timed.
struct Plan {
    sessions: usize,
    /// Ops per pass of one connection's list.
    k: usize,
    /// Per connection: `k` timed ops, then (durable) the first what-if
    /// after a restart.
    ops: Vec<Vec<Op>>,
    /// Per connection: the checkpoints a pass must produce. Empty when
    /// the reference itself could not replay the ops, which is a failed
    /// check, as is every comparison against it.
    expected: Vec<Vec<Vec<String>>>,
    /// Per connection: the report of the first run after a restart.
    after_restart: Vec<String>,
}

impl Plan {
    /// Sessions per connection, and ops per pass.
    fn shape(w: Workload) -> (usize, usize) {
        match w {
            Workload::ServeMixed => (3, 1000),
            Workload::ServeWhatif => (1, 200),
            // 2 x 100 = the 200 ops of a kill/restart cycle.
            Workload::ServeDurable => (1, 100),
            _ => unreachable!("{} is not served", w.name()),
        }
    }

    fn ops(w: Workload, design: &Design, tech: &Technology, seed: u64) -> Vec<Vec<Op>> {
        let (sessions, k) = Plan::shape(w);
        (0..CONNECTIONS as u64)
            .map(|conn| {
                let id = StreamId { seed, conn };
                match w {
                    Workload::ServeMixed => gen::mixed_ops(&design.netlist, tech, id, sessions, k),
                    Workload::ServeDurable => gen::whatif_ops(&design.netlist, tech, id, k + 1),
                    _ => gen::whatif_ops(&design.netlist, tech, id, k),
                }
            })
            .collect()
    }

    /// One connection's ops replayed through the reference: the
    /// checkpoints of a pass and (durable) the report of the first run
    /// after a restart, the reference killed and restarted too so that
    /// run meets the server's on equal terms.
    fn reference(
        design: &Design,
        full: &Models,
        sessions: usize,
        ops: &[Op],
        k: usize,
    ) -> Result<(Vec<Vec<String>>, String), String> {
        let mut mirror = Mirror::load(design, full, sessions)?;
        let checkpoints = mirror.replay(&ops[..k])?;
        let mut after_restart = String::new();
        if let Some(op) = ops.get(k) {
            mirror.restart()?;
            for req in op {
                mirror.apply(req)?;
            }
            after_restart = mirror.reports().swap_remove(0);
        }
        Ok((checkpoints, after_restart))
    }

    fn new(w: Workload, design: &Design, full: &Models, seed: u64, out: &mut RunResult) -> Plan {
        let (sessions, k) = Plan::shape(w);
        let ops = Plan::ops(w, design, &full.tech, seed);
        let (mut expected, mut after_restart) = (Vec::new(), Vec::new());
        for (conn, conn_ops) in ops.iter().enumerate() {
            let (checkpoints, restarted) = Plan::reference(design, full, sessions, conn_ops, k)
                .unwrap_or_else(|e| {
                    out.check(Err(format!("conn {conn}: reference: {e}")));
                    Default::default()
                });
            expected.push(checkpoints);
            after_restart.push(restarted);
        }
        Plan {
            sessions,
            k,
            ops,
            expected,
            after_restart,
        }
    }
}

/// A booted server with every session loaded and its first run
/// committed: where set-up ends and the first timed op begins.
struct Live {
    server: Server,
    clients: Vec<Client>,
    load_ms: Vec<f64>,
    store: Option<PathBuf>,
}

fn boot(
    a: &RunArgs,
    design: &Design,
    sessions: usize,
    store: Option<PathBuf>,
) -> Result<Live, String> {
    let server = Server::spawn(&a.qwm, store.as_deref(), &a.run_dir.join("server.log"))?;
    // Every connection before any request, so one accept tick takes
    // them all (see `serve::ACCEPT_PHASE`).
    let mut clients = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut load_ms = Vec::new();
    for (conn, c) in clients.iter_mut().enumerate() {
        load_ms.extend(serve::load_sessions(c, conn, sessions, design)?);
    }
    Ok(Live {
        server,
        clients,
        load_ms,
        store,
    })
}

fn store_bytes(c: &mut Client) -> Result<u64, String> {
    let r = c
        .send("store status")
        .map_err(|e| format!("store status: {e}"))?;
    serve::head_u64(&r.head, "bytes")
        .ok_or_else(|| format!("store status: {} {}", r.status, r.head))
}

/// Everything the served window accumulates.
#[derive(Default)]
struct Served {
    op_ms: Vec<f64>,
    /// Median op latency of each pass; in a traced run the even passes
    /// are the traced ones.
    pass_p50: Vec<f64>,
    run_rtt_us: Vec<f64>,
    wait_us: Vec<f64>,
    solve_us: Vec<f64>,
    load_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    measured_s: f64,
    evaluations: u64,
    rejected_429: u64,
    server_rss_mb: f64,
    store_kb: f64,
    store_ops: u64,
}

/// One pass of every connection's op list, in parallel, closed loop.
fn parallel_pass(
    clients: &mut [Client],
    plan: &Plan,
    tracers: &[Tracer],
    op_base: u32,
) -> (Vec<ConnPass>, f64) {
    let t0 = Instant::now();
    let passes = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, c)| {
                let (ops, tracer) = (&plan.ops[conn][..plan.k], &tracers[conn]);
                s.spawn(move || serve::run_pass(c, conn, plan.sessions, ops, tracer, op_base))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (passes, t0.elapsed().as_secs_f64())
}

/// The op latencies of one pass \[ms\], the connections' samples merged
/// back into the order the ops ended in.
fn in_time_order(passes: &[ConnPass]) -> Vec<f64> {
    let mut ops: Vec<(Instant, f64)> = passes.iter().flat_map(|p| p.ops.iter().copied()).collect();
    ops.sort_by_key(|&(end, _)| end);
    ops.into_iter().map(|(_, ms)| ms).collect()
}

/// Where two reports part, for the note a failed check leaves.
fn first_difference(got: &str, want: &str) -> String {
    let parted = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w);
    match parted {
        Some((i, (g, w))) => format!("line {}: got {g:?}, want {w:?}", i + 1),
        None => format!(
            "{} lines against {}",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

/// One check: two reports that must be byte-identical.
fn check(out: &mut RunResult, what: String, got: &str, want: &str) {
    out.check(if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {}", first_difference(got, want)))
    });
}

fn run_served(a: &RunArgs) -> Result<RunResult, String> {
    let w = a.workload;
    let durable = w == Workload::ServeDurable;
    let mut out = RunResult::default();
    let full = Models::characterize(true);
    let tech = Technology::cmosp35();
    let plan = Plan::new(w, &Design::of(w, &tech, a.seed), &full, a.seed, &mut out);
    let mut cycle = 0;
    let mut store_dir = |a: &RunArgs| -> Result<Option<PathBuf>, String> {
        cycle += 1;
        durable
            .then(|| serve::fresh_dir(&a.run_dir, &format!("store-{cycle}")))
            .transpose()
    };

    // Set-up, as the operator pays it: generate, render the deck, spawn
    // the server, load every session and commit its first run.
    let mut setup_s = Vec::with_capacity(a.setups());
    let mut ctx = None;
    for _ in 0..a.setups() {
        drop(ctx.take()); // the previous server is gone before the next boots
        let t0 = Instant::now();
        let design = Design::of(w, &tech, a.seed);
        // Generated again because the operator's tool would: op-stream
        // generation is part of set-up.
        std::hint::black_box(Plan::ops(w, &design, &tech, a.seed));
        let live = boot(a, &design, plan.sessions, store_dir(a)?)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ctx = Some((design, live));
    }
    let (design, live) = ctx.expect("at least one set-up");
    let stages = qwm::circuit::partition::partition(&design.netlist)
        .map_err(|e| format!("partition: {e}"))?
        .len() as u64;

    let mut s = Served::default();
    let epoch = Instant::now();
    let tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(epoch)).collect();
    let mut live = Some(live);
    let mut kept_store: Option<PathBuf> = None;
    let mut pass = 0u32;
    while epoch.elapsed().as_secs_f64() < a.seconds {
        let mut l = match live.take() {
            Some(l) => l,
            None => boot(a, &design, plan.sessions, store_dir(a)?)?,
        };
        if pass > 0 && !durable {
            // Same server, fresh sessions: `load` replaces each one, so
            // every pass starts from the same design with cold caches.
            for (conn, c) in l.clients.iter_mut().enumerate() {
                l.load_ms
                    .extend(serve::load_sessions(c, conn, plan.sessions, &design)?);
            }
        }
        s.load_ms.append(&mut l.load_ms);
        let bytes_before = if durable {
            store_bytes(&mut l.clients[0])?
        } else {
            0
        };
        let traced = a.trace && pass.is_multiple_of(2);
        for t in &tracers {
            t.set_enabled(traced);
        }
        let (passes, wall_s) = parallel_pass(&mut l.clients, &plan, &tracers, pass * plan.k as u32);
        s.measured_s += wall_s;
        let pass_ms = in_time_order(&passes);
        s.pass_p50.push(median(&pass_ms));
        s.op_ms.extend(pass_ms);
        for (conn, p) in passes.into_iter().enumerate() {
            out.attempted += p.ops.len() as u64;
            out.failed += p.failed;
            out.notes.extend(p.errors);
            s.run_rtt_us.extend(&p.run_rtt_us);
            s.wait_us.extend(&p.wait_us);
            s.solve_us.extend(&p.solve_us);
            s.evaluations += p.evaluations;
            s.rejected_429 += p.rejected_429;
            // Every report the server gave at a checkpoint against the
            // in-process reference, byte for byte.
            let (got, want) = (p.checkpoints.concat(), plan.expected[conn].concat());
            check(
                &mut out,
                format!("pass {pass} conn {conn}: reports differ from the reference"),
                &got.concat(),
                &want.concat(),
            );
        }
        // Peak memory after set-up and one pass: the same work in every
        // run, however many passes the window goes on to fit.
        if pass == 0 {
            s.server_rss_mb = l.server.peak_rss_mb();
        }
        if durable {
            let bytes_after = store_bytes(&mut l.clients[0])?;
            s.store_kb += (bytes_after - bytes_before) as f64 / 1024.0;
            s.store_ops += (CONNECTIONS * plan.k) as u64;
            let dir = l.store.clone().expect("durable passes have a store");
            restart_cycle(a, l, &dir, &plan, stages, pass, &mut s, &mut out)?;
            if a.trace && kept_store.is_none() {
                kept_store = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        } else {
            live = Some(l);
        }
        pass += 1;
    }
    drop(live);

    let all_ms = std::mem::take(&mut s.op_ms);
    let v = &mut out.values;
    if a.trace {
        let mut agg = BTreeMap::new();
        let mut threads = Vec::new();
        for t in tracers {
            let (a, spans) = t.finish();
            trace::merge(&mut agg, &a);
            threads.push(spans);
        }
        let pairs: Vec<(f64, f64)> = s.pass_p50.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        trace_rows(v, &pairs, &agg);
        v.set(
            "sta.arcs_per_s",
            s.evaluations as f64 / s.measured_s,
            out.attempted,
        );
        if let Some(path) = &a.trace_out {
            write_trace(path, &threads)?;
        }
        let runs = s.run_rtt_us.len() as u64;
        let overhead: Vec<f64> = s
            .run_rtt_us
            .iter()
            .zip(s.wait_us.iter().zip(&s.solve_us))
            .map(|(rtt, (wait, solve))| rtt - wait - solve)
            .collect();
        v.set("server.wait_us_p50", median(&s.wait_us), runs);
        v.set("server.wait_us_p99", quantile(&s.wait_us, 0.99), runs);
        v.set("server.solve_us_p50", median(&s.solve_us), runs);
        v.set("server.overhead_us_p50", median(&overhead), runs);
        v.set("server.load_ms", median(&s.load_ms), s.load_ms.len() as u64);
        v.set("server.rejected_429", s.rejected_429 as f64, out.attempted);
        v.set(
            "server.req_ms_p99",
            median(&subwindow_quantiles(&all_ms, 0.99, 10)),
            all_ms.len() as u64,
        );
        served_micro(a, &design, plan.sessions, durable, v)?;
        if durable {
            let cycles = s.restore_ms.len() as u64;
            v.set("store.restore_ms_p50", median(&s.restore_ms), cycles);
            v.set(
                "store.kb_per_op",
                s.store_kb / s.store_ops as f64,
                s.store_ops,
            );
            let dir = kept_store.expect("a traced durable run keeps one store");
            crate::store_ledger::measure(&dir, &a.run_dir, v)?;
            let _ = std::fs::remove_dir_all(&dir);
            // The identical stream with the store off: what committing costs.
            let mut off = boot(a, &design, plan.sessions, None)?;
            let idle: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(epoch)).collect();
            let (passes, _) = parallel_pass(&mut off.clients, &plan, &idle, 0);
            let off_ms = in_time_order(&passes);
            v.set(
                "store.commit_overhead_us",
                (median(&all_ms) - median(&off_ms)) * 1e3,
                off_ms.len() as u64,
            );
        }
    } else {
        v.set("setup_s", median(&setup_s), setup_s.len() as u64);
        op_rows(v, &all_ms, s.measured_s);
        v.set("peak_rss_mb", s.server_rss_mb, 1);
    }
    after_window(a, &design, &full, false, &mut out)?;
    Ok(out)
}

/// The durable cycle's second half: SIGKILL, restart on the same store,
/// time the first `report`, and hold the server to its contract — the
/// restored reports are byte-identical to the last committed ones, and
/// the first run after the restart is incremental and matches the
/// (equally restarted) reference.
#[allow(clippy::too_many_arguments)]
fn restart_cycle(
    a: &RunArgs,
    l: Live,
    dir: &Path,
    plan: &Plan,
    stages: u64,
    pass: u32,
    s: &mut Served,
    out: &mut RunResult,
) -> Result<(), String> {
    let Live {
        server, clients, ..
    } = l;
    drop(clients);
    let t0 = Instant::now();
    server.kill();
    let revived = Server::spawn(&a.qwm, Some(dir), &a.run_dir.join("server.log"))?;
    let mut c = revived.connect()?;
    let sids: Vec<String> = (0..CONNECTIONS).map(|conn| serve::sid(conn, 0)).collect();
    let mut restored = serve::reports(&mut c, &sids[..1], &mut out.notes);
    s.restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    restored.extend(serve::reports(&mut c, &sids[1..], &mut out.notes));
    for (conn, got) in restored.iter().enumerate() {
        // The last checkpoint of the pass is what was committed.
        let committed = plan.expected[conn].last().map_or("", |c| c[0].as_str());
        check(
            out,
            format!("pass {pass} conn {conn}: restored report differs from the committed one"),
            got,
            committed,
        );
        let mut rejected = 0;
        let mut reply = None;
        for req in &plan.ops[conn][plan.k] {
            reply = Some(serve::send(&mut c, &sids[conn], &req.kind, &mut rejected)?);
        }
        let reply = reply.expect("a what-if op has requests");
        let evaluated = serve::head_u64(&reply.head, "evaluated").unwrap_or(u64::MAX);
        out.check(if reply.ok() && evaluated < stages {
            Ok(())
        } else {
            Err(format!(
                "pass {pass} conn {conn}: first run after restart not incremental: {} {}",
                reply.status, reply.head
            ))
        });
        check(
            out,
            format!("pass {pass} conn {conn}: first run after restart differs from the reference"),
            reply.body(),
            &plan.after_restart[conn],
        );
    }
    if pass == 0 {
        s.server_rss_mb = s.server_rss_mb.max(revived.peak_rss_mb());
    }
    revived.kill();
    Ok(())
}

/// Round trips that need a live server but are no part of any op:
/// `ping` (protocol floor) and `report` (a read beside the writes).
fn served_micro(
    a: &RunArgs,
    design: &Design,
    sessions: usize,
    durable: bool,
    v: &mut Values,
) -> Result<(), String> {
    let store = durable
        .then(|| serve::fresh_dir(&a.run_dir, "store-micro"))
        .transpose()?;
    let mut l = boot(a, design, sessions, store)?;
    let c = &mut l.clients[0];
    let mut rtt = |line: &str, n: usize| -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                let r = c.send(line).map_err(|e| format!("{line}: {e}"))?;
                if !r.ok() {
                    return Err(format!("{line}: {} {}", r.status, r.head));
                }
                Ok(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    };
    let ping = rtt("ping", 200)?;
    let report = rtt(&format!("report {}", serve::sid(0, 0)), 100)?;
    v.set("server.rtt_us_p50", median(&ping), ping.len() as u64);
    v.set("server.report_us_p50", median(&report), report.len() as u64);
    let Live { server, store, .. } = l;
    server.kill();
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}
