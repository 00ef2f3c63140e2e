//! End-to-end tests for the `qwm-serve` timing-query server.
//!
//! Contracts under test:
//!
//! * **Determinism** — the same command script over 1, 4 and 8
//!   simultaneous connections yields byte-identical `run` payloads,
//!   which also match an in-process cold [`StaEngine`] reference.
//! * **Warm = cold** — a session surviving 100 sequential `edit` +
//!   `run` round-trips reports bitwise-identically to a fresh engine
//!   re-timed from scratch after each edit.
//! * **Isolation** — a fault-injected session degrades down the
//!   fallback ladder without perturbing a clean session's reports.
//! * **Admission control** — heavy requests beyond `max_inflight` get
//!   `429` and succeed once the server drains its backlog.
//! * **Lifecycle** — idle sessions are evicted after the ttl; malformed
//!   decks/commands come back as `4xx` with locations, never a hang.
//!
//! The server's fault plan and obs state are process-global, so every
//! test serializes on one mutex and installs/clears what it needs.

use qwm::circuit::parser::parse_netlist;
use qwm::circuit::waveform::TransitionKind;
use qwm::fault::{FaultKind, FaultPlan};
use qwm::server::{shared_models, Client, Server, ServerConfig, ServerHandle};
use qwm::sta::engine::StaEngine;
use qwm::sta::evaluator::QwmEvaluator;
use qwm::sta::report::golden_report;
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DECK: &str = include_str!("../testdata/path4.sp");

fn start(cfg: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    Server::spawn(cfg).expect("spawn server")
}

fn stop(handle: ServerHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("clean drain");
}

fn connect(handle: &ServerHandle) -> Client {
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    c
}

/// Golden-report body without the `evaluations`/`waveform_failures`
/// header: those count work done, which legitimately differs between
/// incremental and cold runs while the timing body must not.
fn timing_body(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("evaluations ") && !l.starts_with("waveform_failures "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The scripted session every determinism connection replays.
fn scripted_session(client: &mut Client, sid: &str) -> Vec<String> {
    let mut payloads = Vec::new();
    assert!(client.load(sid, DECK).unwrap().ok(), "load");
    let r = client.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r.ok(), "first run: {} {}", r.status, r.head);
    payloads.push(r.body().to_string());
    let e = client.edit(sid, "resize MN2 1.2u\nload n2 20f\n").unwrap();
    assert_eq!(e.status, 200, "edit: {}", e.head);
    let r = client.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r.ok(), "edited run: {} {}", r.status, r.head);
    payloads.push(r.body().to_string());
    payloads
}

#[test]
fn concurrent_clients_get_byte_identical_reports() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig {
        max_inflight: 8,
        ..ServerConfig::default()
    });

    // In-process cold references for both script steps.
    let models = shared_models().expect("models");
    let netlist = parse_netlist(DECK).expect("deck");
    let cold_before = {
        let engine = StaEngine::new(netlist.clone(), models, TransitionKind::Fall).unwrap();
        let report = engine
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        golden_report(&report, engine.netlist())
    };
    let cold_after = {
        let mut engine = StaEngine::new(netlist, models, TransitionKind::Fall).unwrap();
        let edits = qwm::sta::parse_edit_script("resize MN2 1.2u\nload n2 20f\n", engine.netlist())
            .unwrap();
        engine.apply_edits(&edits).unwrap();
        let report = engine
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        golden_report(&report, engine.netlist())
    };

    let mut reference: Option<Vec<String>> = None;
    for conns in [1usize, 4, 8] {
        let results: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|i| {
                    let handle = &handle;
                    scope.spawn(move || {
                        let mut client = connect(handle);
                        scripted_session(&mut client, &format!("det-{conns}-{i}"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            match &reference {
                None => reference = Some(r.clone()),
                Some(first) => assert_eq!(r, first, "{conns} connections: payloads diverged"),
            }
        }
    }

    let reference = reference.expect("at least one session ran");
    assert_eq!(
        timing_body(&reference[0]),
        timing_body(&cold_before),
        "server run vs cold engine, pre-edit"
    );
    assert_eq!(
        timing_body(&reference[1]),
        timing_body(&cold_after),
        "server run vs cold engine, post-edit"
    );
    stop(handle, join);
}

#[test]
fn hundred_edit_session_matches_cold_rerun_after_every_edit() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.load("marathon", DECK).unwrap().ok());

    let models = shared_models().expect("models");
    let base = parse_netlist(DECK).expect("deck");
    let mut cumulative = Vec::new();
    for i in 0..100u32 {
        // Deterministic edit stream cycling over resizes and loads.
        let script = match i % 4 {
            0 => format!("resize MN2 {:.4}e-6", 0.5 + 0.01 * f64::from(i)),
            1 => format!("load n2 {:.4}e-15", 20.0 + f64::from(i)),
            2 => format!("resize MP3a {:.4}e-6", 1.0 + 0.005 * f64::from(i)),
            _ => format!("load n3 {:.4}e-15", 5.0 + 0.5 * f64::from(i)),
        };
        let e = client.edit("marathon", &script).unwrap();
        assert_eq!(e.status, 200, "edit {i}: {}", e.head);
        let r = client.send("run marathon qwm slew_ps=20").unwrap();
        assert_eq!(r.status, 200, "run {i}: {}", r.head);

        let mut cold = StaEngine::new(base.clone(), models, TransitionKind::Fall).unwrap();
        cumulative.extend(qwm::sta::parse_edit_script(&script, cold.netlist()).unwrap());
        cold.apply_edits(&cumulative).unwrap();
        let cold_report = cold
            .run_with_slew(&QwmEvaluator::default(), 20e-12)
            .unwrap();
        assert_eq!(
            timing_body(r.body()),
            timing_body(&golden_report(&cold_report, cold.netlist())),
            "edit {i}: warm incremental diverged from cold rerun"
        );
    }
    let stats = client.send("stats marathon").unwrap();
    assert!(stats.ok());
    assert!(stats.head.contains("runs=100"), "stats: {}", stats.head);
    stop(handle, join);
}

#[test]
fn faulted_session_degrades_without_poisoning_clean_sessions() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig {
        max_inflight: 2,
        ..ServerConfig::default()
    });
    let mut chaotic = connect(&handle);
    let mut clean = connect(&handle);
    assert!(clean.load("clean", DECK).unwrap().ok());

    // Clean elmore baseline before any faults exist.
    let clean_elmore = clean.send("run clean elmore slew_ps=20").unwrap();
    assert!(clean_elmore.ok());

    // Chaos: every first QWM attempt fails; the ladder's retry rung
    // (site `retry/qwm.region`) still works. The chaotic sessions are
    // loaded *after* the plan lands so their arc caches are cold and
    // the fault site is actually exercised.
    qwm::fault::install(FaultPlan::new(42).inject("qwm.region", FaultKind::NoConvergence));
    assert!(chaotic.load("chaotic", DECK).unwrap().ok());
    assert!(chaotic.load("chaotic-bare", DECK).unwrap().ok());

    let degraded = chaotic.send("run chaotic fallback slew_ps=20").unwrap();
    assert_eq!(degraded.status, 200, "fallback absorbs the fault");
    assert!(
        degraded.body().contains("degradations"),
        "degradation provenance is reported:\n{}",
        degraded.body()
    );
    // A plain qwm run in the faulted world fails loudly as a 500...
    let failed = chaotic.send("run chaotic-bare qwm slew_ps=20").unwrap();
    assert_eq!(failed.status, 500, "unshielded qwm fails: {}", failed.head);

    // ...but the clean session's elmore runs are byte-identical to the
    // pre-fault baseline, and the chaotic sessions themselves keep
    // serving (and recover fully) once the plan is cleared.
    let still_clean = clean.send("run clean elmore slew_ps=20").unwrap();
    assert!(still_clean.ok());
    assert_eq!(
        timing_body(still_clean.body()),
        timing_body(clean_elmore.body()),
        "fault leaked into a clean session"
    );
    qwm::fault::clear();
    let recovered = chaotic.send("run chaotic-bare qwm slew_ps=20").unwrap();
    assert_eq!(recovered.status, 200, "session survives its own faults");
    let clean_qwm = clean.send("run clean qwm slew_ps=20").unwrap();
    assert!(clean_qwm.ok());
    assert_eq!(
        timing_body(recovered.body()),
        timing_body(clean_qwm.body()),
        "recovered session matches a never-faulted one"
    );
    stop(handle, join);
}

#[test]
fn admission_control_rejects_excess_and_recovers() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig {
        max_inflight: 1,
        ..ServerConfig::default()
    });

    // Occupy the single slot with a slow request on its own connection.
    let blocker = std::thread::scope(|scope| {
        let h = &handle;
        let blocker = scope.spawn(move || {
            let mut c = connect(h);
            // The poller below may hold the slot for its 1 ms when this
            // request lands; retry until admitted, or the test races.
            loop {
                let r = c.send("sleep 600").unwrap();
                if r.status != 429 {
                    break r;
                }
            }
        });
        // Poll from a second connection until the 429 is observed.
        let mut c = connect(&handle);
        let mut saw_429 = None;
        for _ in 0..200 {
            let r = c.send("sleep 1").unwrap();
            match r.status {
                429 => {
                    saw_429 = Some(r);
                    break;
                }
                200 => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("unexpected status {other}: {}", r.head),
            }
        }
        let busy = saw_429.expect("a 429 while the slot is occupied");
        assert!(
            busy.head.contains("inflight=1 max=1"),
            "429 reports load: {}",
            busy.head
        );
        // Light commands are never turned away.
        assert!(c.send("ping").unwrap().ok());
        blocker.join().unwrap()
    });
    assert!(blocker.ok(), "blocked request completed: {}", blocker.head);

    // Slot free again: heavy requests succeed.
    let mut c = connect(&handle);
    assert!(c.send("sleep 1").unwrap().ok());
    stop(handle, join);
}

#[test]
fn idle_sessions_are_evicted_after_the_ttl() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig {
        session_ttl: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);
    assert!(c.load("ephemeral", DECK).unwrap().ok());
    assert!(c.send("run ephemeral qwm slew_ps=20").unwrap().ok());
    assert_eq!(handle.session_count(), 1);
    std::thread::sleep(Duration::from_millis(400));
    let r = c.send("report ephemeral").unwrap();
    assert_eq!(r.status, 404, "evicted session: {}", r.head);
    assert_eq!(handle.session_count(), 0);
    stop(handle, join);
}

#[test]
fn protocol_and_parse_errors_are_structured() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);

    // Malformed deck: the parser's line/column survives to the wire.
    let bad_deck = "MN1 out in 0\n.end\n";
    let r = c.load("bad", bad_deck).unwrap();
    assert_eq!(r.status, 400);
    assert!(
        r.head.contains("line 1") && r.head.contains("col"),
        "deck errors carry locations: {}",
        r.head
    );

    // Unknown commands, bad session ids, missing sessions.
    assert_eq!(c.send("frobnicate").unwrap().status, 400);
    assert_eq!(c.send("run nosuch qwm").unwrap().status, 404);
    assert_eq!(c.send("report nosuch").unwrap().status, 404);
    assert_eq!(c.send("run bad/sid qwm").unwrap().status, 400);

    // Bad edit scripts name the offending line; the session stays usable.
    assert!(c.load("ok", DECK).unwrap().ok());
    let r = c.edit("ok", "resize NOPE 1u").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.head.contains("line 1"), "edit errors: {}", r.head);
    assert!(c.send("run ok qwm slew_ps=20").unwrap().ok());

    // A report exists only after a run.
    assert!(c.load("fresh", DECK).unwrap().ok());
    assert_eq!(c.send("report fresh").unwrap().status, 404);

    // Budget introspection round-trips.
    let b = c.send("budget ok retries=3 wall_ms=250").unwrap();
    assert!(b.ok());
    assert!(
        b.head.contains("retries=3") && b.head.contains("wall_ms=250"),
        "budget echo: {}",
        b.head
    );
    stop(handle, join);
}

/// A stage gated by its own output (here a diode-connected NMOS) is
/// refused at `load` with a structured 400 naming the device, so no
/// session exists for a `run` to spin on.
#[test]
fn self_gated_deck_is_refused_at_load() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);
    let deck = "MP1 y a vdd vdd pmos W=1u L=0.35u\n\
                MN1 y y 0 0 nmos W=1u L=0.35u\n\
                .input a\n.output y\n.end\n";
    let t0 = std::time::Instant::now();
    let r = c.load("diode", deck).unwrap();
    assert_eq!(r.status, 400, "self-gated deck: {}", r.head);
    assert!(
        r.head.contains("net y") && r.head.contains("device MN1"),
        "the error names net and device: {}",
        r.head
    );
    assert!(t0.elapsed() < Duration::from_secs(5), "answered at once");
    let run = c.send("run diode elmore deadline_ms=500").unwrap();
    assert_eq!(run.status, 404, "no session was installed: {}", run.head);
    stop(handle, join);
}

/// A gate net that no stage drives and no `.input` declares is refused
/// at `load` with a 400 naming it, instead of being timed silently as a
/// primary input.
#[test]
fn undriven_gate_net_is_refused_at_load() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);
    let deck = "MP1 y a vdd vdd pmos W=1u L=0.35u\n\
                MN1 y a 0 0 nmos W=1u L=0.35u\n\
                .output y\n.end\n";
    let r = c.load("undriven", deck).unwrap();
    assert_eq!(r.status, 400, "undriven gate net: {}", r.head);
    assert!(
        r.head.contains("undriven net a ") && r.head.contains("device MP1 "),
        "the error names net and device: {}",
        r.head
    );
    let declared = format!(".input a\n{deck}");
    assert!(c.load("declared", &declared).unwrap().ok());
    stop(handle, join);
}

#[test]
fn traced_run_renders_full_span_tree_and_profile() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);
    assert!(c.load("tr", DECK).unwrap().ok());

    // No trace before any traced run.
    assert_eq!(c.send("trace tr last").unwrap().status, 404);

    let on = c.send("trace tr on").unwrap();
    assert!(on.ok() && on.head.contains("tracing=on"), "{}", on.head);
    let r = c.send("run tr qwm slew_ps=20").unwrap();
    assert!(r.ok(), "traced run: {} {}", r.status, r.head);
    assert!(
        r.head.contains("wait_ns=") && r.head.contains("solve_ns="),
        "run head exposes the queue-wait/solve split: {}",
        r.head
    );

    // Text rendering: the whole tree from the server root down to
    // per-arc leaves, with stages grouped under level headers.
    let last = c.send("trace tr last").unwrap();
    assert!(last.ok(), "{} {}", last.status, last.head);
    let tree = last.body();
    for needle in [
        "server.run",
        "server.wait.admission",
        "sta.run_incremental",
        "level ",
        "stage ",
        "rung=",
    ] {
        assert!(
            tree.contains(needle),
            "trace text missing {needle:?}:\n{tree}"
        );
    }

    // JSON rendering: every line is a standalone JSON object.
    let json = c.send("trace tr last json").unwrap();
    assert!(json.ok());
    let lines = qwm::obs::report::validate_json_lines(json.body()).expect("trace json lines");
    assert!(lines > 3, "expected a real tree, got {lines} lines");

    // The traced run fed the hot-arc profile.
    let prof = c.send("profile top 5").unwrap();
    assert!(prof.ok());
    assert!(
        prof.body().contains("hot arcs by total solve time"),
        "profile header:\n{}",
        prof.body()
    );

    let off = c.send("trace tr off").unwrap();
    assert!(off.ok() && off.head.contains("tracing=off"), "{}", off.head);
    stop(handle, join);
}

/// The `corner <name>` body inside a corner-report payload.
fn corner_section(body: &str, name: &str) -> String {
    let header = format!("corner {name}");
    body.lines()
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with("corner "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Acceptance matrix for `run ... corners=`: a batched sweep over a
/// warm session is byte-identical, corner by corner, to independent
/// single-corner sessions replaying the same load + edit script — at
/// 1, 4 and 8 engine threads — and the reply head names the worst
/// corner.
#[test]
fn batched_corner_runs_match_single_corner_sessions() {
    let _g = locked();
    qwm::fault::clear();
    for threads in [1usize, 4, 8] {
        let (handle, join) = start(ServerConfig {
            engine_threads: threads,
            ..ServerConfig::default()
        });
        let mut c = connect(&handle);
        let corners = ["ss", "tt", "ff"];
        assert!(c.load("multi", DECK).unwrap().ok());
        for name in corners {
            assert!(c.load(&format!("solo-{name}"), DECK).unwrap().ok());
        }
        let script = "resize MN2 1.2u\nload n2 20f\n";
        for round in 0..2 {
            if round == 1 {
                assert_eq!(c.edit("multi", script).unwrap().status, 200);
                for name in corners {
                    assert_eq!(c.edit(&format!("solo-{name}"), script).unwrap().status, 200);
                }
            }
            let multi = c.send("run multi qwm corners=ss,tt,ff slew_ps=20").unwrap();
            assert!(multi.ok(), "batched run: {} {}", multi.status, multi.head);
            assert!(
                multi.head.contains("corners=3 worst_corner=ss"),
                "head names the sweep and worst corner: {}",
                multi.head
            );
            assert!(
                multi
                    .body()
                    .starts_with("corners ss,tt,ff\nworst_corner ss "),
                "payload leads with provenance:\n{}",
                multi.body()
            );
            assert!(
                multi.body().contains("net_worst n4 ss "),
                "per-net worst-corner provenance:\n{}",
                multi.body()
            );
            for name in corners {
                let solo = c
                    .send(&format!("run solo-{name} qwm corners={name} slew_ps=20"))
                    .unwrap();
                assert!(solo.ok(), "solo {name}: {} {}", solo.status, solo.head);
                assert_eq!(
                    corner_section(multi.body(), name),
                    corner_section(solo.body(), name),
                    "@{threads} threads round {round}: batched {name} differs \
                     from its single-corner session"
                );
            }
        }
        // Corner and classic runs interleave on one warm session.
        let classic = c.send("run multi qwm slew_ps=20").unwrap();
        assert!(classic.ok(), "classic after corners: {}", classic.head);
        assert!(!classic.head.contains("corners="));
        stop(handle, join);
    }
}

/// Malformed corner lists come back as structured 400s naming the
/// offending item; traced corner runs expose per-corner arc records;
/// `metrics prom` exports the `sta.corner.*` counter family.
#[test]
fn corner_protocol_errors_traces_and_metrics() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);
    assert!(c.load("cm", DECK).unwrap().ok());

    for (bad, needle) in [
        ("run cm corners=", "empty corner name"),
        ("run cm corners=tt,weird", "unknown corner"),
        ("run cm corners=tt,tt", "duplicate corner"),
        ("run cm corners=mc:7:0", "out of range"),
        ("run cm corners=mc:x:3", "Monte Carlo seed"),
    ] {
        let r = c.send(bad).unwrap();
        assert_eq!(r.status, 400, "{bad:?}: {}", r.head);
        assert!(
            r.head.contains(needle),
            "{bad:?} names the offence: {}",
            r.head
        );
    }
    // The session is untouched by the rejects.
    assert!(c.send("run cm qwm corners=ss,tt slew_ps=20").unwrap().ok());

    // Traced corner runs tag every arc record with its corner. Dirty
    // the warm session first so the sweep actually touches arcs (a
    // no-op incremental run records no arc work).
    assert!(c.send("trace cm on").unwrap().ok());
    assert_eq!(c.edit("cm", "resize MN2 1.3u").unwrap().status, 200);
    let r = c.send("run cm qwm corners=ss,tt slew_ps=20").unwrap();
    assert!(r.ok(), "traced corner run: {}", r.head);
    let tree = c.send("trace cm last").unwrap();
    assert!(tree.ok());
    for needle in ["sta.run_incremental_corners", " corner=ss", " corner=tt"] {
        assert!(
            tree.body().contains(needle),
            "trace missing {needle:?}:\n{}",
            tree.body()
        );
    }
    let json = c.send("trace cm last json").unwrap();
    assert!(json.ok());
    qwm::obs::report::validate_json_lines(json.body()).expect("trace json");
    assert!(
        json.body().contains("\"corner\":\"ss\""),
        "json arc records carry the corner:\n{}",
        json.body()
    );

    // The corner counter family reaches the Prometheus exposition.
    let prom = c.send("metrics prom").unwrap();
    assert!(prom.ok());
    qwm::obs::prom::check_exposition(prom.body()).expect("prom exposition");
    for needle in [
        "qwm_sta_corner_incremental_runs_total",
        "qwm_sta_corner_full_runs_total",
        "qwm_sta_corner_evaluations_total",
    ] {
        assert!(
            prom.body().contains(needle),
            "prom missing {needle}:\n{}",
            prom.body()
        );
    }
    stop(handle, join);
}

#[test]
fn metrics_and_stats_surfaces_are_well_formed() {
    let _g = locked();
    qwm::fault::clear();
    let (handle, join) = start(ServerConfig::default());
    let mut c = connect(&handle);
    assert!(c.load("m", DECK).unwrap().ok());
    assert!(c.send("run m qwm slew_ps=20").unwrap().ok());

    // stats reflects the session's run count.
    let stats = c.send("stats m").unwrap();
    assert!(stats.ok());
    assert!(stats.head.contains("runs=1"), "stats: {}", stats.head);

    // Plain metrics: every payload line is a standalone JSON object
    // and the renamed request counters are present.
    let m = c.send("metrics").unwrap();
    assert!(m.ok());
    let lines = qwm::obs::report::validate_json_lines(m.body()).expect("metrics json");
    assert!(lines > 0, "metrics payload is non-empty");
    assert!(
        m.body().contains("server.request.received"),
        "renamed server counters exported:\n{}",
        m.body()
    );

    // Prometheus exposition round-trips the format checker.
    let prom = c.send("metrics prom").unwrap();
    assert!(prom.ok());
    let text = prom.body();
    qwm::obs::prom::check_exposition(text).expect("prom exposition");
    assert!(
        text.contains("qwm_server_request_received_total"),
        "prom counter naming:\n{text}"
    );

    // Bad arguments are rejected, not silently defaulted.
    assert_eq!(c.send("metrics xml").unwrap().status, 400);
    assert_eq!(c.send("profile bottom").unwrap().status, 400);
    assert_eq!(c.send("trace m maybe").unwrap().status, 400);
    assert_eq!(c.send("trace nosuch on").unwrap().status, 404);
    stop(handle, join);
}
