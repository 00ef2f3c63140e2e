//! qwm-serve — a persistent timing-query server.
//!
//! Cold CLI timing pays netlist parsing, device characterization and a
//! full propagation on every invocation. The server keeps all three
//! warm: device tables are characterized once per process
//! ([`session::shared_models`]), each session holds a parsed netlist
//! plus an [`StaEngine`] whose committed incremental caches survive
//! across queries, and what-if `edit` + `run` round-trips re-time only
//! the dirty fanout cone.
//!
//! The wire protocol (see [`protocol`]) is a line-delimited text
//! dialect over TCP with length-prefixed bodies — scriptable with
//! nothing fancier than a socket. Heavy commands (`load`, `run`,
//! `sleep`) pass through admission control (at most
//! [`ServerConfig::max_inflight`] in flight; `429 busy` beyond that)
//! and execute on a shared work-stealing [`ThreadPool`]; light commands
//! answer on the connection thread. Per-request deadlines propagate
//! into the fallback ladder's wall-clock budget and surface as `408`.
//! Idle sessions are evicted after [`ServerConfig::session_ttl`], and
//! `shutdown` (or SIGTERM, opt-in) drains gracefully: in-flight work
//! finishes, connections close after their current command, and
//! [`Server::run`] returns.
//!
//! ```no_run
//! use qwm_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod protocol;
pub mod session;

pub use client::{Client, Reply};
pub use protocol::{Command, EvalKind};
pub use session::{shared_models, Session, SessionStore};

use qwm_circuit::parser::parse_netlist;
use qwm_circuit::waveform::TransitionKind;
use qwm_device::ModelSet;
use qwm_exec::ThreadPool;
use qwm_num::NumError;
use qwm_obs::{counter, gauge, histogram, NS_BOUNDS, SIZE_BOUNDS};
use qwm_sta::evaluator::{
    ElmoreEvaluator, FallbackEvaluator, QwmEvaluator, SpiceEvaluator, StageEvaluator,
};
use qwm_sta::report::{golden_corner_report, golden_report};
use qwm_sta::{parse_edit_script, CornerRun, StaEngine};
use qwm_store::{DesignStore, RecoveredSession, SessionSnapshot, StoreError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked reads and the accept loop re-check the drain flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Longest accepted request line.
const MAX_LINE: usize = 64 * 1024;

/// Server tuning knobs; `Default` gives an ephemeral localhost port.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Admission-control bound: heavy requests beyond this get `429`.
    /// Also the worker count of the shared dispatch pool.
    pub max_inflight: usize,
    /// Idle-session eviction horizon; `None` disables eviction.
    pub session_ttl: Option<Duration>,
    /// Worker threads *inside* each session's engine. The server's
    /// parallelism axis is concurrent requests, so this defaults to 1;
    /// raise it for few-session / huge-netlist workloads.
    pub engine_threads: usize,
    /// Treat SIGTERM like a `shutdown` command (Unix only; opt-in so
    /// embedding processes keep their own handlers).
    pub handle_sigterm: bool,
    /// Durable design store directory (`--store <dir>`). `None` runs
    /// fully in-memory, exactly as before the store existed. With a
    /// store, every committed run may snapshot (see
    /// [`ServerConfig::snapshot_every`]), every applied edit script is
    /// logged, and [`Server::bind`] restores all stored sessions so a
    /// killed-and-restarted server answers its first query through the
    /// incremental path with bitwise-identical reports.
    pub store_dir: Option<PathBuf>,
    /// Snapshot cadence in edit batches: a committed run snapshots when
    /// at least this many edit scripts were applied since the last
    /// snapshot (a session's first commit always snapshots). 1 —
    /// the default — snapshots every post-edit commit.
    pub snapshot_every: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            session_ttl: None,
            engine_threads: 1,
            handle_sigterm: false,
            store_dir: None,
            snapshot_every: 1,
        }
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM (15) flag-setter. Async-signal-safe: the
    /// handler only stores to an atomic.
    pub fn install() {
        unsafe {
            signal(15, on_term);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn termed() -> bool {
        false
    }
}

/// State shared by the accept loop, connection threads and pool jobs.
struct Shared {
    cfg: ServerConfig,
    sessions: SessionStore,
    pool: ThreadPool,
    inflight: AtomicUsize,
    draining: AtomicBool,
    /// The durable design store, when configured. Locked only for
    /// appends and status reads — never across an evaluation.
    store: Option<Mutex<DesignStore>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || (self.cfg.handle_sigterm && sig::termed())
    }
}

/// A bound-but-not-yet-running server; call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Remote control for a running server: its address and a drain switch.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain, exactly like the `shutdown` command.
    /// Returns immediately; [`Server::run`] exits once in-flight work
    /// finishes.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Live sessions (for tests and monitoring).
    pub fn session_count(&self) -> usize {
        self.shared.sessions.len()
    }
}

impl Server {
    /// Binds the listener and builds the dispatch pool. Serving starts
    /// on [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        // Pool workers are long-lived and each query evaluates many
        // arcs: pre-size every worker's thread-local QWM workspace so
        // even a worker's first arc allocates nothing (DESIGN.md §15).
        // 8 covers the deepest stacks in the supported cell set.
        let pool = ThreadPool::new_with_init(cfg.max_inflight.max(1), |_w| {
            qwm_sta::warm_worker(8);
        });
        let sessions = SessionStore::default();
        // Restore-on-boot happens before the listener serves anything,
        // so the first client query already sees warm sessions. A store
        // that fails structural recovery (not a torn tail — those are
        // truncated silently) refuses to bind rather than silently
        // dropping committed work.
        let store = match &cfg.store_dir {
            None => None,
            Some(dir) => {
                let (mut store, recovered) = DesignStore::open(dir).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("store open: {e}"))
                })?;
                for table in recovered.device_tables {
                    qwm_device::install_table(table);
                }
                let restored = recovered.sessions.len() as u64;
                for rs in recovered.sessions {
                    let (sid, session) = restore_session(&cfg, rs).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("store restore: {e}"))
                    })?;
                    sessions.insert(sid, session);
                }
                store.note_restored(restored);
                Some(Mutex::new(store))
            }
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                sessions,
                pool,
                inflight: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                store,
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener address")
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Binds and serves on a background thread; the returned handle
    /// controls the drain and the join handle yields `run`'s result.
    pub fn spawn(
        cfg: ServerConfig,
    ) -> io::Result<(ServerHandle, std::thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(cfg)?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("qwm-serve".to_string())
            .spawn(move || server.run())
            .expect("spawn server thread");
        Ok((handle, join))
    }

    /// Accept loop; blocks until drained (`shutdown` command,
    /// [`ServerHandle::shutdown`], or SIGTERM when enabled). Returns
    /// after every connection thread has closed and every in-flight
    /// pool job has finished.
    pub fn run(self) -> io::Result<()> {
        if self.shared.cfg.handle_sigterm {
            sig::install();
        }
        let janitor = self.shared.cfg.session_ttl.map(|ttl| {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("qwm-serve-janitor".to_string())
                .spawn(move || janitor_loop(&shared, ttl))
                .expect("spawn janitor thread")
        });
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    counter!("server.conn.accepted").incr();
                    let shared = Arc::clone(&self.shared);
                    conns.push(
                        std::thread::Builder::new()
                            .name("qwm-serve-conn".to_string())
                            .spawn(move || handle_conn(&shared, stream))
                            .expect("spawn connection thread"),
                    );
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Graceful drain: connections notice the flag at their next
        // read poll and close after the command they are serving;
        // pool jobs already queued run to completion. Job panics were
        // already surfaced per-request as 500s, so `wait` errors are
        // not re-raised here.
        for h in conns {
            let _ = h.join();
        }
        let _ = self.shared.pool.wait();
        if let Some(j) = janitor {
            let _ = j.join();
        }
        Ok(())
    }
}

fn janitor_loop(shared: &Shared, ttl: Duration) {
    let tick = (ttl / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    while !shared.draining() {
        std::thread::sleep(tick);
        let evicted = shared.sessions.evict_idle(ttl);
        if evicted > 0 {
            counter!("server.session.evicted").add(evicted as u64);
        }
    }
}

/// Buffered connection reader that survives read timeouts (used as the
/// drain poll) without losing partially received bytes — `BufReader`
/// cannot promise that across `ErrorKind::TimedOut`.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    fn fill(&mut self, shared: &Shared) -> io::Result<Option<()>> {
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    return Ok(Some(()));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.draining() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Next request line (without the terminator), `None` on client
    /// EOF or server drain.
    fn read_line(&mut self, shared: &Shared) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line);
                return Ok(Some(text.trim_end_matches(['\n', '\r']).to_string()));
            }
            if self.buf.len() > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line too long",
                ));
            }
            if self.fill(shared)?.is_none() {
                return Ok(None);
            }
        }
    }

    /// Exactly `n` payload bytes, `None` on EOF/drain mid-body.
    fn read_exact_n(&mut self, n: usize, shared: &Shared) -> io::Result<Option<Vec<u8>>> {
        while self.buf.len() < n {
            if self.fill(shared)?.is_none() {
                return Ok(None);
            }
        }
        Ok(Some(self.buf.drain(..n).collect()))
    }

    fn send_status(&mut self, code: u16, msg: &str) -> io::Result<()> {
        if code >= 400 {
            counter!("server.request.errors").incr();
        }
        self.stream.write_all(format!("{code} {msg}\n").as_bytes())
    }

    fn send_payload(&mut self, code: u16, msg: &str, payload: &str) -> io::Result<()> {
        let head = format!("{code} {msg} len={}\n", payload.len());
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(payload.as_bytes())
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    let mut wire = Wire {
        stream,
        buf: Vec::new(),
    };
    loop {
        let line = match wire.read_line(shared) {
            Ok(Some(l)) => l,
            Ok(None) => return,
            Err(e) => {
                // An oversized request line is a client bug, not a
                // transport failure: answer with a structured 400
                // before closing so the sender sees a diagnosis
                // instead of a bare hangup. The connection still
                // closes — there is no way to resynchronize inside an
                // unbounded garbage line.
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = wire.send_status(400, "request line too long");
                }
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let t0 = Instant::now();
        counter!("server.request.received").incr();
        let cmd = match protocol::parse_command(&line) {
            Ok(c) => c,
            Err(e) => {
                if wire.send_status(400, &protocol::one_line(&e)).is_err() {
                    return;
                }
                continue;
            }
        };
        // Length-prefixed bodies are read eagerly so a rejected command
        // never leaves raw deck bytes in the stream to be misparsed as
        // commands.
        let payload = match cmd {
            Command::Load { nbytes, .. } | Command::Edit { nbytes, .. } => {
                match wire.read_exact_n(nbytes, shared) {
                    Ok(Some(bytes)) => match String::from_utf8(bytes) {
                        Ok(text) => Some(text),
                        Err(_) => {
                            if wire.send_status(400, "payload is not UTF-8").is_err() {
                                return;
                            }
                            continue;
                        }
                    },
                    Ok(None) | Err(_) => return,
                }
            }
            _ => None,
        };
        let label = cmd.label();
        let flow = dispatch(shared, &mut wire, cmd, payload);
        record_request_ns(label, t0.elapsed().as_nanos() as u64);
        match flow {
            Ok(Flow::Continue) => {}
            Ok(Flow::Quit) | Err(_) => return,
        }
    }
}

/// The `histogram!` macro caches one handle per call site, so each
/// per-command series needs its own site with a literal name.
fn record_request_ns(label: &'static str, ns: u64) {
    match label {
        "load" => histogram!("server.request.latency_ns.load", NS_BOUNDS).record(ns),
        "run" => histogram!("server.request.latency_ns.run", NS_BOUNDS).record(ns),
        "edit" => histogram!("server.request.latency_ns.edit", NS_BOUNDS).record(ns),
        "report" => histogram!("server.request.latency_ns.report", NS_BOUNDS).record(ns),
        "sleep" => histogram!("server.request.latency_ns.sleep", NS_BOUNDS).record(ns),
        _ => histogram!("server.request.latency_ns.other", NS_BOUNDS).record(ns),
    }
}

enum Flow {
    Continue,
    Quit,
}

/// `(head-line-after-code, optional payload)` on success, `(status,
/// message)` otherwise.
type Outcome = Result<(String, Option<String>), (u16, String)>;

fn num_outcome(context: &str, e: &NumError) -> (u16, String) {
    let code = match e {
        NumError::Timeout { .. } => 408,
        NumError::InvalidInput { .. } => 400,
        _ => 500,
    };
    (code, format!("{context}: {e}"))
}

/// Decrements the in-flight gauge when the admitted job finishes, even
/// if it panics.
struct AdmitGuard {
    shared: Arc<Shared>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admission control: increments in-flight if below the bound,
/// otherwise replies `429` and returns `None`.
fn admit(shared: &Arc<Shared>, wire: &mut Wire) -> io::Result<Option<AdmitGuard>> {
    let max = shared.cfg.max_inflight;
    match shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < max).then_some(n + 1)
        }) {
        Ok(prev) => {
            histogram!("server.request.inflight", SIZE_BOUNDS).record(prev as u64 + 1);
            Ok(Some(AdmitGuard {
                shared: Arc::clone(shared),
            }))
        }
        Err(cur) => {
            counter!("server.request.rejected").incr();
            wire.send_status(429, &format!("busy inflight={cur} max={max}"))?;
            Ok(None)
        }
    }
}

/// Blocks the connection thread on the pool job's reply. A dropped
/// sender means the job panicked (the pool contains panics); the
/// admission slot was still released by [`AdmitGuard`].
fn finish(wire: &mut Wire, rx: &mpsc::Receiver<Outcome>) -> io::Result<()> {
    match rx.recv() {
        Ok(Ok((head, None))) => wire.send_status(200, &head),
        Ok(Ok((head, Some(payload)))) => wire.send_payload(200, &head, &payload),
        Ok(Err((code, msg))) => wire.send_status(code, &protocol::one_line(&msg)),
        Err(_) => wire.send_status(500, "internal: request worker panicked"),
    }
}

fn dispatch(
    shared: &Arc<Shared>,
    wire: &mut Wire,
    cmd: Command,
    payload: Option<String>,
) -> io::Result<Flow> {
    match cmd {
        Command::Ping => wire
            .send_status(200, "ok qwm-serve")
            .map(|()| Flow::Continue),
        Command::Quit => wire.send_status(200, "ok bye").map(|()| Flow::Quit),
        Command::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            wire.send_status(200, "ok draining").map(|()| Flow::Quit)
        }
        Command::Metrics { prom } => {
            publish_gauges(shared);
            let text = if prom {
                qwm_obs::prom::render_prom()
            } else {
                qwm_obs::render(qwm_obs::ObsMode::Json)
            };
            wire.send_payload(200, "ok", &text).map(|()| Flow::Continue)
        }
        Command::Profile { k } => {
            let text = qwm_obs::trace::profile_top(k);
            wire.send_payload(200, "ok", &text).map(|()| Flow::Continue)
        }
        Command::Trace { sid, action } => {
            let reply = match shared.sessions.get(&sid) {
                None => Err((404, format!("unknown session {sid:?}"))),
                Some(sess) => {
                    let mut s = lock_session(&sess);
                    s.last_used = Instant::now();
                    match action {
                        // The recorder is process-wide; the session flag
                        // picks whose runs capture trees. `off` stops
                        // recording for everyone — honest and simple.
                        protocol::TraceAction::On => {
                            s.trace_on = true;
                            qwm_obs::trace::set_enabled(true);
                            Ok(("ok tracing=on".to_string(), None))
                        }
                        protocol::TraceAction::Off => {
                            s.trace_on = false;
                            qwm_obs::trace::set_enabled(false);
                            Ok(("ok tracing=off".to_string(), None))
                        }
                        protocol::TraceAction::Last { json } => match &s.last_trace {
                            None => Err((404, format!("session {sid:?} has no trace yet"))),
                            Some(t) => {
                                let body = if json {
                                    t.render_json()
                                } else {
                                    t.render_text()
                                };
                                Ok((format!("ok records={}", t.records.len()), Some(body)))
                            }
                        },
                    }
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Report { sid } => {
            let reply = match shared.sessions.get(&sid) {
                None => Err((404, format!("unknown session {sid:?}"))),
                Some(sess) => {
                    let mut s = lock_session(&sess);
                    s.last_used = Instant::now();
                    match &s.last_report {
                        Some(r) => Ok((format!("ok runs={}", s.runs), Some(r.clone()))),
                        None => Err((404, format!("session {sid:?} has no report yet"))),
                    }
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Stats { sid } => {
            let reply = match shared.sessions.get(&sid) {
                None => Err((404, format!("unknown session {sid:?}"))),
                Some(sess) => {
                    let mut s = lock_session(&sess);
                    s.last_used = Instant::now();
                    let st = s.engine.incremental_stats();
                    Ok((
                        format!(
                            "ok runs={} full_run={} dirty={} evaluated={} reused={} \
                             early_stop={} evaluations={}",
                            s.runs,
                            st.full_run,
                            st.dirty_stages,
                            st.evaluated_stages,
                            st.reused_arcs,
                            st.early_stop_nets,
                            st.evaluations
                        ),
                        None,
                    ))
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Budget { sid, retries, wall } => {
            let reply = match shared.sessions.get(&sid) {
                None => Err((404, format!("unknown session {sid:?}"))),
                Some(sess) => {
                    let mut s = lock_session(&sess);
                    s.last_used = Instant::now();
                    if let Some(r) = retries {
                        s.budget.qwm_retries = r;
                    }
                    if let Some(w) = wall {
                        s.budget.stage_wall = w;
                    }
                    let wall_ms = match s.budget.stage_wall {
                        Some(d) => format!("{}", d.as_millis()),
                        None => "off".to_string(),
                    };
                    Ok((
                        format!("ok retries={} wall_ms={}", s.budget.qwm_retries, wall_ms),
                        None,
                    ))
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Close { sid } => {
            let existed = shared.sessions.remove(&sid);
            if existed {
                append_close(shared, &sid);
            }
            wire.send_status(200, &format!("ok existed={existed}"))
                .map(|()| Flow::Continue)
        }
        Command::Edit { sid, .. } => {
            let text = payload.expect("edit carries a body");
            let reply = match shared.sessions.get(&sid) {
                None => Err((404, format!("unknown session {sid:?}"))),
                Some(sess) => {
                    let mut s = lock_session(&sess);
                    s.last_used = Instant::now();
                    match parse_edit_script(&text, s.engine.netlist()) {
                        Err(e) => Err((400, e)),
                        Ok(edits) => match s.engine.apply_edits(&edits) {
                            Ok(()) => {
                                // Durable only once a snapshot anchors the
                                // replay; pre-snapshot edits are covered by
                                // the full netlist the first commit writes.
                                if s.has_snapshot {
                                    if let Some(store) = &shared.store {
                                        if let Err(e) = lock_store(store).append_edits(&sid, &text)
                                        {
                                            store_failure("append_edits", &e);
                                        }
                                    }
                                }
                                s.edits_since_snapshot += 1;
                                Ok((format!("ok edits={}", edits.len()), None))
                            }
                            Err(e) => Err(num_outcome("apply_edits", &e)),
                        },
                    }
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Store => {
            let reply = match &shared.store {
                None => Err((
                    404,
                    "no store configured (serve with --store <dir>)".to_string(),
                )),
                Some(store) => {
                    let st = lock_store(store).status();
                    Ok((
                        format!(
                            "ok dir={} bytes={} records={} snapshots={} restores={} \
                             truncated_tails={} device_tables={} characterizations={}",
                            st.dir.display(),
                            st.bytes,
                            st.records,
                            st.snapshots,
                            st.restores,
                            st.truncated_tails,
                            st.device_tables,
                            qwm_device::TableModel::characterization_count(),
                        ),
                        None,
                    ))
                }
            };
            send_outcome(wire, reply).map(|()| Flow::Continue)
        }
        Command::Load { sid, rise, .. } => {
            if shared.draining() {
                return wire.send_status(503, "draining").map(|()| Flow::Continue);
            }
            let Some(guard) = admit(shared, wire)? else {
                return Ok(Flow::Continue);
            };
            let deck = payload.expect("load carries a body");
            let (tx, rx) = mpsc::channel();
            let shared_jobs = Arc::clone(shared);
            let direction = if rise {
                TransitionKind::Rise
            } else {
                TransitionKind::Fall
            };
            shared.pool.execute(move || {
                let out = load_session(&shared_jobs, &sid, &deck, direction);
                // Release the admission slot before replying: the
                // client's next request must not race its own slot.
                drop(guard);
                let _ = tx.send(out);
            });
            finish(wire, &rx).map(|()| Flow::Continue)
        }
        Command::Run {
            sid,
            eval,
            slew_ps,
            deadline,
            corners,
        } => {
            if shared.draining() {
                return wire.send_status(503, "draining").map(|()| Flow::Continue);
            }
            let Some(sess) = shared.sessions.get(&sid) else {
                return wire
                    .send_status(404, &format!("unknown session {sid:?}"))
                    .map(|()| Flow::Continue);
            };
            let Some(guard) = admit(shared, wire)? else {
                return Ok(Flow::Continue);
            };
            let (tx, rx) = mpsc::channel();
            let enqueued = Instant::now();
            let shared_jobs = Arc::clone(shared);
            shared.pool.execute(move || {
                let out = run_session(
                    &shared_jobs,
                    &sid,
                    &sess,
                    eval,
                    slew_ps,
                    deadline,
                    &corners,
                    enqueued,
                );
                drop(guard);
                let _ = tx.send(out);
            });
            finish(wire, &rx).map(|()| Flow::Continue)
        }
        Command::Sleep { ms } => {
            if shared.draining() {
                return wire.send_status(503, "draining").map(|()| Flow::Continue);
            }
            let Some(guard) = admit(shared, wire)? else {
                return Ok(Flow::Continue);
            };
            let (tx, rx) = mpsc::channel();
            shared.pool.execute(move || {
                std::thread::sleep(Duration::from_millis(ms));
                drop(guard);
                let _ = tx.send(Ok((format!("ok slept_ms={ms}"), None)));
            });
            finish(wire, &rx).map(|()| Flow::Continue)
        }
    }
}

fn send_outcome(wire: &mut Wire, outcome: Outcome) -> io::Result<()> {
    match outcome {
        Ok((head, None)) => wire.send_status(200, &head),
        Ok((head, Some(payload))) => wire.send_payload(200, &head, &payload),
        Err((code, msg)) => wire.send_status(code, &protocol::one_line(&msg)),
    }
}

/// A panicked query poisons only its own session; later queries on it
/// still see structurally valid engine state (caches are rebuilt by the
/// next full run), and other sessions are untouched.
fn lock_session(sess: &Mutex<Session>) -> std::sync::MutexGuard<'_, Session> {
    sess.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool job for `load`: parse, build the engine against the shared
/// models, install (or replace) the session.
fn load_session(shared: &Shared, sid: &str, deck: &str, direction: TransitionKind) -> Outcome {
    let models = shared_models().map_err(|e| (500, e))?;
    let netlist = parse_netlist(deck).map_err(|e| (400, e.to_string()))?;
    let mut engine = StaEngine::new(netlist, models, direction)
        .map_err(|e| num_outcome("StaEngine::new", &e))?;
    engine.set_threads(shared.cfg.engine_threads);
    let head = format!(
        "ok devices={} stages={}",
        engine.netlist().devices().len(),
        engine.graph().len()
    );
    // Replacing a session orphans its stored history: tombstone the sid
    // first so a crash between this load and the fresh session's first
    // commit recovers to "no session" rather than the stale design.
    if shared.sessions.get(sid).is_some() {
        append_close(shared, sid);
    }
    shared
        .sessions
        .insert(sid.to_string(), Session::new(engine));
    Ok((head, None))
}

/// Pool job for `run`: incremental re-timing with deadline accounting.
///
/// Deadline semantics: the budget covers queue wait plus evaluation.
/// Expiry in the queue returns `408` without running; for the fallback
/// evaluator the remaining time is pushed into
/// [`FallbackBudget::stage_wall`] so long stages abort mid-run with
/// [`NumError::Timeout`] (also `408`); and a run that completes past
/// its deadline still commits (the report stays retrievable via
/// `report`) but replies `408`.
#[allow(clippy::too_many_arguments)]
fn run_session(
    shared: &Shared,
    sid: &str,
    sess: &Mutex<Session>,
    eval: EvalKind,
    slew_ps: Option<f64>,
    deadline: Option<Duration>,
    corners: &[qwm_device::Corner],
    enqueued: Instant,
) -> Outcome {
    // Queue wait: enqueue on the connection thread to job start here.
    // Always measured (two clock reads per run) so the reply can report
    // the wait/solve split whether or not tracing is on.
    let wait = enqueued.elapsed();
    if let Some(d) = deadline {
        if wait >= d {
            return Err((
                408,
                format!("deadline_ms={} exceeded while queued", d.as_millis()),
            ));
        }
    }
    let mut s = lock_session(sess);
    s.last_used = Instant::now();
    if let Some(ps) = slew_ps {
        s.engine
            .set_input_slew(ps * 1e-12)
            .map_err(|e| num_outcome("set_input_slew", &e))?;
    }
    // One evaluator instance per corner lane (or a single one for the
    // classic run): degrading evaluators pool provenance per instance,
    // and each corner's report must drain only its own.
    let make_evaluator = |s: &Session| -> Box<dyn StageEvaluator> {
        match eval {
            EvalKind::Qwm => Box::new(QwmEvaluator::default()),
            EvalKind::Elmore => Box::new(ElmoreEvaluator),
            EvalKind::Spice => Box::new(SpiceEvaluator::default()),
            EvalKind::Fallback => {
                let mut f = FallbackEvaluator::default();
                f.budget = s.budget.clone();
                if let Some(d) = deadline {
                    let remaining = d.saturating_sub(enqueued.elapsed());
                    f.budget.stage_wall = Some(match f.budget.stage_wall {
                        Some(w) => w.min(remaining),
                        None => remaining,
                    });
                }
                Box::new(f)
            }
        }
    };
    // Corner sweeps resolve their model sets up front (characterized
    // once per process per corner) so a bad corner fails fast as 500
    // before any engine state is touched.
    let corner_models: Vec<&'static ModelSet> = corners
        .iter()
        .map(session::corner_static_models)
        .collect::<Result<_, _>>()
        .map_err(|e| (500, e))?;
    let evaluators: Vec<Box<dyn StageEvaluator>> = (0..corners.len().max(1))
        .map(|_| make_evaluator(&s))
        .collect();
    // Traced runs get a root span; the admission wait is attached as a
    // manual child (its clock started before this scope existed). The
    // root guard must drop before the tree is collected.
    let mut root_id = 0;
    let solve_t0 = Instant::now();
    let result = {
        let root = s
            .trace_on
            .then(|| qwm_obs::trace::TraceGuard::enter("server.run"));
        if let Some(g) = &root {
            root_id = g.id();
            qwm_obs::trace::record_manual("server.wait.admission", root_id, enqueued, wait);
        }
        if corners.is_empty() {
            s.engine.run_incremental(evaluators[0].as_ref()).map(Ok)
        } else {
            let runs: Vec<CornerRun> = corners
                .iter()
                .zip(&corner_models)
                .zip(&evaluators)
                .map(|((c, models), ev)| CornerRun {
                    name: c.interned_name(),
                    models,
                    evaluator: ev.as_ref(),
                })
                .collect();
            s.engine.run_incremental_corners(&runs).map(Err)
        }
    };
    let solve_ns = solve_t0.elapsed().as_nanos() as u64;
    if root_id != 0 {
        // Collected immediately (even on error) so ring wrap-around
        // cannot eat this query's records.
        s.last_trace = Some(qwm_obs::trace::take_tree(root_id));
    }
    let outcome = result.map_err(|e| num_outcome("run", &e))?;
    let stats = s.engine.incremental_stats();
    let (golden, corner_head) = match outcome {
        Ok(report) => (golden_report(&report, s.engine.netlist()), String::new()),
        Err(cr) => {
            let worst_corner = match cr.worst {
                Some((c, _, _)) => cr.corners[c],
                None => "-",
            };
            (
                golden_corner_report(&cr, s.engine.netlist()),
                format!(" corners={} worst_corner={worst_corner}", cr.corners.len()),
            )
        }
    };
    s.last_report = Some(golden.clone());
    s.runs += 1;
    persist_after_commit(shared, sid, &mut s);
    let head = format!(
        "ok runs={} evaluated={} reused={} wait_ns={} solve_ns={}{corner_head}",
        s.runs,
        stats.evaluated_stages,
        stats.reused_arcs,
        wait.as_nanos(),
        solve_ns
    );
    drop(s);
    if let Some(d) = deadline {
        if enqueued.elapsed() > d {
            return Err((
                408,
                format!(
                    "deadline_ms={} exceeded after {} ms; report committed",
                    d.as_millis(),
                    enqueued.elapsed().as_millis()
                ),
            ));
        }
    }
    Ok((head, Some(golden)))
}

/// Locks the store; a poisoned lock still holds a structurally valid
/// store (appends are atomic at the record layer).
fn lock_store(store: &Mutex<DesignStore>) -> std::sync::MutexGuard<'_, DesignStore> {
    store.lock().unwrap_or_else(|e| e.into_inner())
}

/// A store write failed. Durability degrades but the in-memory commit
/// already happened, so the client still gets its 200; the failure is
/// visible in metrics and the event log.
fn store_failure(op: &'static str, e: &StoreError) {
    counter!("store.write_failed").incr();
    qwm_obs::warn("store.write_failed")
        .field("op", op)
        .field("error", format!("{e}"))
        .emit();
}

/// Appends a close tombstone for `sid`, if a store is configured.
fn append_close(shared: &Shared, sid: &str) {
    if let Some(store) = &shared.store {
        if let Err(e) = lock_store(store).append_close(sid) {
            store_failure("append_close", &e);
        }
    }
}

/// Captures a [`SessionSnapshot`] of a live session. Called under the
/// session lock at a commit point, so the engine, books and report are
/// mutually consistent.
fn session_snapshot(sid: &str, s: &Session) -> SessionSnapshot {
    SessionSnapshot {
        sid: sid.to_string(),
        direction: s.engine.direction(),
        input_slew: s.engine.input_slew(),
        runs: s.runs,
        qwm_retries: s.budget.qwm_retries as u64,
        stage_wall_ns: s.budget.stage_wall.map(|d| d.as_nanos() as u64),
        last_report: s.last_report.clone(),
        netlist: s.engine.netlist().clone(),
        committed: s.engine.export_committed(),
        committed_corners: s.engine.export_committed_corners(),
    }
}

/// Snapshot-on-commit: runs with the session lock held, right after a
/// successful run committed its book. A session's first commit always
/// snapshots (that is the moment it becomes durable); later commits
/// snapshot once `snapshot_every` edit batches have accumulated.
/// Device tables are synced first so a restore never needs to
/// re-characterize.
fn persist_after_commit(shared: &Shared, sid: &str, s: &mut Session) {
    let Some(store) = &shared.store else { return };
    if s.has_snapshot && s.edits_since_snapshot < shared.cfg.snapshot_every {
        return;
    }
    let snap = session_snapshot(sid, s);
    let mut store = lock_store(store);
    if let Err(e) = store.sync_tables(&qwm_device::cached_tables()) {
        store_failure("sync_tables", &e);
        return;
    }
    match store.append_snapshot(&snap) {
        Ok(()) => {
            s.has_snapshot = true;
            s.edits_since_snapshot = 0;
            counter!("server.store.snapshot").incr();
        }
        Err(e) => store_failure("append_snapshot", &e),
    }
}

/// Rebuilds one live session from its recovered snapshot + edit tail.
/// The snapshot's committed books are imported verbatim (bitwise) and
/// the edits are replayed to re-mark the dirty cone, so the restored
/// session's first query runs the same incremental path — and produces
/// the same bytes — as a never-restarted server's would.
fn restore_session(cfg: &ServerConfig, rs: RecoveredSession) -> Result<(String, Session), String> {
    let snap = rs.snapshot;
    let models = shared_models()?;
    let mut engine = StaEngine::new(snap.netlist, models, snap.direction)
        .map_err(|e| format!("session {:?}: StaEngine::new: {e}", snap.sid))?;
    engine.set_threads(cfg.engine_threads);
    engine
        .set_input_slew(snap.input_slew)
        .map_err(|e| format!("session {:?}: set_input_slew: {e}", snap.sid))?;
    if let Some(c) = snap.committed {
        engine
            .import_committed(c)
            .map_err(|e| format!("session {:?}: import_committed: {e}", snap.sid))?;
    }
    if let Some(c) = snap.committed_corners {
        engine
            .import_committed_corners(c)
            .map_err(|e| format!("session {:?}: import_committed_corners: {e}", snap.sid))?;
    }
    for script in &rs.edits {
        let edits = parse_edit_script(script, engine.netlist())
            .map_err(|e| format!("session {:?}: replay parse: {e}", snap.sid))?;
        engine
            .apply_edits(&edits)
            .map_err(|e| format!("session {:?}: replay apply: {e}", snap.sid))?;
    }
    let mut session = Session::new(engine);
    session.runs = snap.runs;
    session.last_report = snap.last_report;
    session.budget.qwm_retries = snap.qwm_retries as usize;
    session.budget.stage_wall = snap.stage_wall_ns.map(Duration::from_nanos);
    session.edits_since_snapshot = rs.edits.len();
    session.has_snapshot = true;
    Ok((snap.sid, session))
}

/// Refreshes the process/store gauges served by `metrics`.
fn publish_gauges(shared: &Shared) {
    let rss = rss_bytes();
    gauge!("server.mem.rss_bytes").set(rss);
    let sessions = shared.sessions.len() as u64;
    gauge!("server.sessions.live").set(sessions);
    gauge!("server.mem.bytes_per_session").set(rss / sessions.max(1));
    if let Some(store) = &shared.store {
        let st = lock_store(store).status();
        gauge!("store.bytes").set(st.bytes);
        gauge!("store.records").set(st.records);
        gauge!("store.snapshots").set(st.snapshots);
        gauge!("store.restores").set(st.restores);
        gauge!("store.truncated_tails").set(st.truncated_tails);
        gauge!("store.device_tables").set(st.device_tables);
    }
}

/// Resident set size from `/proc/self/status` (0 where unavailable —
/// the gauge is best-effort monitoring, not accounting).
fn rss_bytes() -> u64 {
    if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                if let Some(kb) = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    return kb * 1024;
                }
            }
        }
    }
    0
}
