//! Served ops: a live `qwm serve` child, closed-loop client threads,
//! and an in-process mirror that replays the same requests to check
//! every report the server gave.

use crate::design::{Design, Models};
use crate::gen::{self, Op, ReqKind, Request};
use crate::inproc::DIRECTION;
use crate::trace::Tracer;
use qwm::server::client::Reply;
use qwm::server::Client;
use qwm::sta::report::golden_report;
use qwm::sta::{golden_corner_report, CornerRun, QwmEvaluator, StaEngine};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections (= client threads) of every served workload. The host
/// has two cores; the server child gets `--max-inflight 2` to match.
pub const CONNECTIONS: usize = 2;
/// Wait between a server's banner and the first connection: half of the
/// accept loop's 25 ms poll tick. `qwm-server` accepts non-blocking and
/// sleeps a tick when nobody is waiting, so a connection made right
/// after the banner races the first `accept()` and is taken either at
/// once or 25 ms later — two modes that made `setup_s` flip between
/// 43 and 68 ms. Connecting mid-tick lands every connection on the same
/// tick boundary; the tick itself stays in the measurement.
const ACCEPT_PHASE: Duration = Duration::from_micros(12_500);
/// Ops between two untimed `report` checkpoints.
pub const CHECK_EVERY: usize = 100;

/// A `qwm serve` child. Dropping it kills the process and waits for it,
/// so no error path leaves a server behind.
pub struct Server {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `qwm serve` on an ephemeral port (`store` adds
    /// `--store <dir> --snapshot-every 1`) and waits for its banner.
    pub fn spawn(qwm: &Path, store: Option<&Path>, log: &Path) -> Result<Server, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut cmd = Command::new(qwm);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--max-inflight"])
            .arg(CONNECTIONS.to_string())
            .args(["--engine-threads", "1"]);
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir).args(["--snapshot-every", "1"]);
        }
        let mut child = cmd
            .env_remove("QWM_OBS")
            .env_remove("QWM_FAULTS")
            .env_remove("QWM_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", qwm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match (read, banner.trim_end().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            (r, _) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "server banner {banner:?} ({r:?}); see the child log"
                ));
            }
        };
        std::thread::sleep(ACCEPT_PHASE);
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(c)
    }

    /// `VmHWM` of the child \[MiB\].
    pub fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// SIGKILL, then wait until the process is gone (what dropping a
    /// server does; the name is for call sites where the kill is the
    /// point).
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one request and returns the reply, retrying a `429` (the
/// closed loop never has more in flight than the server admits, so a
/// retry is already a finding; it is counted).
pub fn send(
    c: &mut Client,
    sid: &str,
    kind: &ReqKind,
    rejected: &mut u64,
) -> Result<Reply, String> {
    for _ in 0..50 {
        let r = match kind {
            ReqKind::Edit(script) => c.edit(sid, script),
            ReqKind::Run { slew_ps } => c.send(&format!("run {sid} qwm slew_ps={slew_ps}")),
            ReqKind::Corners { slew_ps } => c.send(&format!(
                "run {sid} qwm slew_ps={slew_ps} corners={}",
                gen::CORNERS
            )),
            ReqKind::Report => c.send(&format!("report {sid}")),
        }
        .map_err(|e| format!("{kind:?} on {sid}: {e}"))?;
        if r.status != 429 {
            return Ok(r);
        }
        *rejected += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("{kind:?} on {sid}: refused 50 times"))
}

/// `key=<u64>` from a reply head.
pub fn head_u64(head: &str, key: &str) -> Option<u64> {
    head.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Σ `evaluations <n>` lines of a report payload: the first line of a
/// single report, one line per corner body of a sweep.
pub fn evaluations_in(payload: &str, sweep: bool) -> u64 {
    let count = |l: &str| {
        l.strip_prefix("evaluations ")
            .and_then(|n| n.parse::<u64>().ok())
    };
    if sweep {
        payload.lines().filter_map(count).sum()
    } else {
        payload.lines().next().and_then(count).unwrap_or(0)
    }
}

/// Session id of connection `conn`'s `k`-th session.
pub fn sid(conn: usize, k: usize) -> String {
    format!("c{conn}s{k}")
}

/// What one connection measured over one pass of its op list.
#[derive(Default)]
pub struct ConnPass {
    /// Per op: when it ended and how long it took \[ms\]. The end times
    /// put the connections' samples back in time order.
    pub ops: Vec<(Instant, f64)>,
    /// Per `run` request: round trip, and the wait/solve split the
    /// reply head reports \[µs\].
    pub run_rtt_us: Vec<f64>,
    pub wait_us: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub evaluations: u64,
    pub failed: u64,
    pub rejected_429: u64,
    /// Untimed `report` payloads, one per session, taken after every
    /// [`CHECK_EVERY`]-th op and after the last.
    pub checkpoints: Vec<Vec<String>>,
    pub errors: Vec<String>,
}

/// Runs one pass of `ops` on one connection, closed loop.
pub fn run_pass(
    c: &mut Client,
    conn: usize,
    sessions: usize,
    ops: &[Op],
    tracer: &Tracer,
    op_base: u32,
) -> ConnPass {
    let mut out = ConnPass::default();
    let sids: Vec<String> = (0..sessions).map(|k| sid(conn, k)).collect();
    for (j, op) in ops.iter().enumerate() {
        tracer.set_op(op_base + j as u32);
        let span = tracer.start("op");
        let t0 = Instant::now();
        let mut ok = true;
        for Request { session, kind } in op {
            let req = tracer.start("server.request");
            let r0 = Instant::now();
            let reply = send(c, &sids[*session], kind, &mut out.rejected_429);
            let rtt = r0.elapsed();
            match reply {
                Ok(r) if r.ok() => {
                    if let ReqKind::Run { .. } | ReqKind::Corners { .. } = kind {
                        let wait = head_u64(&r.head, "wait_ns").unwrap_or(0);
                        let solve = head_u64(&r.head, "solve_ns").unwrap_or(0);
                        tracer.reported("server.wait", wait);
                        tracer.reported("server.solve", solve);
                        out.run_rtt_us.push(rtt.as_secs_f64() * 1e6);
                        out.wait_us.push(wait as f64 / 1e3);
                        out.solve_us.push(solve as f64 / 1e3);
                        let sweep = matches!(kind, ReqKind::Corners { .. });
                        out.evaluations += evaluations_in(r.body(), sweep);
                    }
                }
                Ok(r) => {
                    ok = false;
                    out.errors
                        .push(format!("{kind:?}: {} {}", r.status, r.head));
                }
                Err(e) => {
                    ok = false;
                    out.errors.push(e);
                }
            }
            tracer.end(req);
        }
        let end = Instant::now();
        out.ops.push((end, (end - t0).as_secs_f64() * 1e3));
        tracer.end(span);
        if !ok {
            out.failed += 1;
        }
        if (j + 1) % CHECK_EVERY == 0 || j + 1 == ops.len() {
            out.checkpoints.push(reports(c, &sids, &mut out.errors));
        }
    }
    out
}

/// One `report` per session; a failed request yields an empty payload
/// (which then fails the comparison it feeds).
pub fn reports(c: &mut Client, sids: &[String], errors: &mut Vec<String>) -> Vec<String> {
    sids.iter()
        .map(|sid| match c.send(&format!("report {sid}")) {
            Ok(r) if r.ok() => r.body().to_string(),
            Ok(r) => {
                errors.push(format!("report {sid}: {} {}", r.status, r.head));
                String::new()
            }
            Err(e) => {
                errors.push(format!("report {sid}: {e}"));
                String::new()
            }
        })
        .collect()
}

/// Loads the deck into every session of a connection and commits the
/// first (full) run; returns the `load` round trips \[ms\].
pub fn load_sessions(
    c: &mut Client,
    conn: usize,
    sessions: usize,
    design: &Design,
) -> Result<Vec<f64>, String> {
    let slew_ps = design.slew.expect("served designs are slew-aware") * 1e12;
    let mut load_ms = Vec::with_capacity(sessions);
    for k in 0..sessions {
        let sid = sid(conn, k);
        let t0 = Instant::now();
        let r = c
            .load(&sid, &design.deck)
            .map_err(|e| format!("load {sid}: {e}"))?;
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !r.ok() {
            return Err(format!("load {sid}: {} {}", r.status, r.head));
        }
        let r = c
            .send(&format!("run {sid} qwm slew_ps={slew_ps}"))
            .map_err(|e| format!("first run {sid}: {e}"))?;
        if !r.ok() {
            return Err(format!("first run {sid}: {} {}", r.status, r.head));
        }
    }
    Ok(load_ms)
}

/// The in-process reference for one connection: one engine per session,
/// fed the same requests through the same public calls the server
/// makes, so its reports must match the server's byte for byte.
pub struct Mirror<'m> {
    models: &'m Models,
    sessions: Vec<(StaEngine<'m>, Option<String>)>,
}

impl<'m> Mirror<'m> {
    /// Mirrors [`load_sessions`]: parse, build, first full run.
    pub fn load(
        design: &Design,
        models: &'m Models,
        sessions: usize,
    ) -> Result<Mirror<'m>, String> {
        let mut m = Mirror {
            models,
            sessions: Vec::with_capacity(sessions),
        };
        let slew_ps = design.slew.expect("served designs are slew-aware") * 1e12;
        for k in 0..sessions {
            let nl = qwm::circuit::parser::parse_netlist(&design.deck)
                .map_err(|e| format!("mirror parse: {e}"))?;
            let engine = StaEngine::new(nl, &models.tabular, DIRECTION)
                .map_err(|e| format!("mirror engine: {e}"))?
                .with_threads(1);
            m.sessions.push((engine, None));
            m.apply(&Request {
                session: k,
                kind: ReqKind::Run { slew_ps },
            })?;
        }
        Ok(m)
    }

    /// Applies one request exactly as `qwm-server` dispatches it.
    pub fn apply(&mut self, req: &Request) -> Result<(), String> {
        let (engine, last) = &mut self.sessions[req.session];
        match &req.kind {
            ReqKind::Edit(script) => {
                let edits = qwm::sta::parse_edit_script(script, engine.netlist())?;
                engine
                    .apply_edits(&edits)
                    .map_err(|e| format!("mirror edit: {e}"))?;
            }
            ReqKind::Run { slew_ps } => {
                engine
                    .set_input_slew(slew_ps * 1e-12)
                    .map_err(|e| format!("mirror slew: {e}"))?;
                let r = engine
                    .run_incremental(&QwmEvaluator::default())
                    .map_err(|e| format!("mirror run: {e}"))?;
                *last = Some(golden_report(&r, engine.netlist()));
            }
            ReqKind::Corners { slew_ps } => {
                engine
                    .set_input_slew(slew_ps * 1e-12)
                    .map_err(|e| format!("mirror slew: {e}"))?;
                let evs: Vec<QwmEvaluator> = (0..self.models.corners_tabular.len())
                    .map(|_| QwmEvaluator::default())
                    .collect();
                let runs: Vec<CornerRun> = self
                    .models
                    .corners_tabular
                    .iter()
                    .zip(&evs)
                    .map(|((c, m), ev)| CornerRun {
                        name: c.interned_name(),
                        models: m,
                        evaluator: ev,
                    })
                    .collect();
                let cr = engine
                    .run_incremental_corners(&runs)
                    .map_err(|e| format!("mirror corners: {e}"))?;
                *last = Some(golden_corner_report(&cr, engine.netlist()));
            }
            ReqKind::Report => {}
        }
        Ok(())
    }

    /// What a kill and restart does to a session, through the same
    /// public calls `qwm-server` restores with: a fresh engine over the
    /// edited netlist, the committed book imported, arc caches gone.
    ///
    /// Not a no-op even for the numbers: a rebuilt engine sums each
    /// stage's fanout load afresh, where `resize_device` had adjusted it
    /// by deltas, so the next run can differ from a never-killed
    /// engine's in the last bit (seen at seed 1; see README findings).
    pub fn restart(&mut self) -> Result<(), String> {
        for (engine, _) in &mut self.sessions {
            let book = engine.export_committed();
            let mut fresh =
                StaEngine::new(engine.netlist().clone(), &self.models.tabular, DIRECTION)
                    .map_err(|e| format!("mirror restart: {e}"))?
                    .with_threads(1);
            fresh
                .set_input_slew(engine.input_slew())
                .map_err(|e| format!("mirror restart slew: {e}"))?;
            if let Some(book) = book {
                fresh
                    .import_committed(book)
                    .map_err(|e| format!("mirror restart import: {e}"))?;
            }
            *engine = fresh;
        }
        Ok(())
    }

    /// The report each session would answer `report` with.
    pub fn reports(&self) -> Vec<String> {
        self.sessions
            .iter()
            .map(|(_, last)| last.clone().unwrap_or_default())
            .collect()
    }

    /// Replays one pass and returns the checkpoints [`run_pass`] takes.
    pub fn replay(&mut self, ops: &[Op]) -> Result<Vec<Vec<String>>, String> {
        let mut checkpoints = Vec::new();
        for (j, op) in ops.iter().enumerate() {
            for req in op {
                self.apply(req)?;
            }
            if (j + 1) % CHECK_EVERY == 0 || j + 1 == ops.len() {
                checkpoints.push(self.reports());
            }
        }
        Ok(checkpoints)
    }
}

/// A fresh directory under the run directory.
pub fn fresh_dir(run_dir: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = run_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_heads_and_payloads_parse() {
        let head = "ok runs=3 evaluated=7 reused=2 wait_ns=1200 solve_ns=43000 len=99";
        assert_eq!(head_u64(head, "wait_ns"), Some(1200));
        assert_eq!(head_u64(head, "solve_ns"), Some(43000));
        assert_eq!(head_u64(head, "evaluated"), Some(7));
        assert_eq!(head_u64(head, "eval"), None, "keys match whole tokens");
        assert_eq!(head_u64(head, "missing"), None);
        let single = "evaluations 12\nworst n4 1e-10\n";
        assert_eq!(evaluations_in(single, false), 12);
        let sweep = "corners ss,tt\ncorner ss\nevaluations 4\ncorner tt\nevaluations 5\n";
        assert_eq!(evaluations_in(sweep, true), 9);
        assert_eq!(evaluations_in("", false), 0);
    }

    /// The mirror is the oracle of every served check: it must be a pure
    /// function of the requests, checkpoint where `run_pass` does, and
    /// survive its own restart with its reports intact.
    #[test]
    fn mirror_replays_deterministically_and_checkpoints_like_a_pass() {
        let models = Models::characterize(true);
        let design = Design::of(crate::design::Workload::ServeMixed, &models.tech, 3);
        let id = gen::StreamId { seed: 3, conn: 0 };
        let ops = gen::mixed_ops(&design.netlist, &models.tech, id, 2, 250);
        let mut a = Mirror::load(&design, &models, 2).expect("mirror loads");
        let mut b = Mirror::load(&design, &models, 2).expect("mirror loads");
        let checkpoints = a.replay(&ops).expect("replay");
        assert_eq!(checkpoints.len(), 3, "after ops 100, 200 and the last");
        assert!(checkpoints
            .iter()
            .all(|c| c.len() == 2 && c.iter().all(|r| !r.is_empty())));
        assert_eq!(checkpoints, b.replay(&ops).expect("replay"));
        assert_ne!(checkpoints[0], checkpoints[2], "edits moved the reports");
        let before = a.reports();
        a.restart().expect("restart");
        assert_eq!(a.reports(), before, "a restart keeps the committed reports");
        a.apply(&Request {
            session: 0,
            kind: ReqKind::Run { slew_ps: 25.0 },
        })
        .expect("first run after the restart");
        assert!(a.reports()[0].starts_with("evaluations "));
    }
}
