//! Server capacity discovery: a ramping load-regression harness.
//!
//! This module answers the question a closed-loop load cannot: *where
//! does `qwm serve` actually fall over?* Following the IC scalability
//! framework's experiment shape, it steps the offered request rate
//! against a live server (`initial_rps`, `+increment_rps`, up to
//! `max_rps`), evaluates **stop thresholds** after every round —
//! failure-rate ceiling, schedule-relative median-latency ceiling, and
//! `429` saturation — and then **binary-searches** the maximum
//! sustainable rps between the last good and first bad rounds.
//!
//! # Workload decks
//!
//! Traffic shapes are described by zero-dependency INI-style deck files
//! (cf. `run_mixed_workload_experiment.py`'s TOML decks): top-level
//! ramp bounds and thresholds, then one `[op NAME]` section per
//! operation in the mix. Ops are weighted draws of heavy `run`s
//! (optionally with `corners=` sweeps, jittered slews and deadline
//! distributions), light `report`s and `edit` what-ifs:
//!
//! ```ini
//! name = mixed
//! deck = testdata/path4.sp
//! sessions = 4
//! initial_rps = 50
//! increment_rps = 50
//! max_rps = 2000
//! round_ms = 1000
//! fail_rate_ceiling = 0.25
//! median_ceiling_ms = 200
//! reject_ceiling = 0.5
//!
//! [op run]
//! weight = 3
//! slew_ps = jitter:15:25
//!
//! [op edit]
//! weight = 2
//! ```
//!
//! # Determinism
//!
//! The request schedule is planned **before** anything touches the
//! network: an open-loop scheduler lays every operation out on the
//! round's time axis, one [`Rng64::stream`]-seeded generator per
//! session, so the same `(deck, seed, rps)` triple always plans the
//! byte-identical operation log regardless of how many connections
//! later execute it ([`render_op_log`] is the pinned artifact). Any
//! capacity difference between two runs is therefore attributable to
//! the server, not to harness nondeterminism.
//!
//! # Artifacts
//!
//! [`results_json`] renders `BENCH_capacity_server.json` (per-round
//! rps / failure-rate / percentiles / queue-wait-vs-solve split, plus
//! the discovered max rps per workload); `qwm_obs::report::capacity_html`
//! turns that JSON into a self-contained HTML report, and
//! [`compare_reports`] diffs two JSON artifacts and fails on a
//! max-rps regression — the cross-PR perf gate wired into
//! `scripts/check.sh`.

use qwm::circuit::parser::parse_netlist;
use qwm::num::rng::Rng64;
use qwm::server::{Client, Reply};
use std::time::{Duration, Instant};

/// Stop thresholds evaluated after every round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Round fails when `failures / planned` exceeds this fraction.
    pub fail_rate: f64,
    /// Round fails when the schedule-relative p50 latency exceeds this
    /// many milliseconds (open-loop: measured from each op's *planned*
    /// fire time, so lanes falling behind schedule surface as latency).
    pub median_ms: f64,
    /// Round fails when `429 busy` replies exceed this fraction of the
    /// planned ops — admission-control saturation.
    pub reject_fraction: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            fail_rate: 0.25,
            median_ms: 200.0,
            reject_fraction: 0.5,
        }
    }
}

/// What one operation in the mix does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `run <sid> ...` — a full (incremental) timing query.
    Run,
    /// `edit <sid> ...` — a seeded random transistor resize.
    Edit,
    /// `report <sid>` — replay the last committed report.
    Report,
}

/// Input slew for `run` ops: fixed, or jittered per op so every run
/// dirties the session and does real solve work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slew {
    Fixed(f64),
    Jitter(f64, f64),
}

/// Per-op deadline distribution (`deadline_ms = none | <ms> |
/// uniform:<lo>:<hi>`). Missed deadlines come back as `408` and count
/// as failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    None,
    Fixed(u64),
    Uniform(u64, u64),
}

/// One weighted operation of a workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpec {
    /// Section name (`[op NAME]`).
    pub name: String,
    pub kind: OpKind,
    /// Relative draw weight within the mix.
    pub weight: u32,
    /// Evaluator for `run` ops.
    pub eval: String,
    /// Input slew for `run` ops.
    pub slew: Slew,
    /// `corners=` list for `run` ops (empty = classic single corner).
    pub corners: String,
    pub deadline: Deadline,
}

/// A parsed workload deck.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (also the session-id prefix, charset `[A-Za-z0-9_.-]`).
    pub name: String,
    /// Path to the SPICE deck every session loads.
    pub deck: String,
    /// Warm sessions the traffic is spread across.
    pub sessions: usize,
    pub initial_rps: u32,
    pub increment_rps: u32,
    pub max_rps: u32,
    /// Wall-clock length of one measured round.
    pub round_ms: u64,
    pub thresholds: Thresholds,
    pub ops: Vec<OpSpec>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 32
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn parse_slew(v: &str, ln: usize) -> Result<Slew, String> {
    if let Some(rest) = v.strip_prefix("jitter:") {
        let (lo, hi) = rest
            .split_once(':')
            .ok_or(format!("line {ln}: slew_ps jitter needs jitter:<lo>:<hi>"))?;
        let lo: f64 = lo
            .parse()
            .map_err(|_| format!("line {ln}: bad slew_ps jitter low {lo:?}"))?;
        let hi: f64 = hi
            .parse()
            .map_err(|_| format!("line {ln}: bad slew_ps jitter high {hi:?}"))?;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(format!("line {ln}: slew_ps jitter needs 0 < lo < hi"));
        }
        Ok(Slew::Jitter(lo, hi))
    } else {
        let ps: f64 = v
            .parse()
            .map_err(|_| format!("line {ln}: bad slew_ps {v:?}"))?;
        if !ps.is_finite() || ps <= 0.0 {
            return Err(format!("line {ln}: slew_ps must be finite and > 0"));
        }
        Ok(Slew::Fixed(ps))
    }
}

fn parse_deadline(v: &str, ln: usize) -> Result<Deadline, String> {
    if v == "none" {
        return Ok(Deadline::None);
    }
    if let Some(rest) = v.strip_prefix("uniform:") {
        let (lo, hi) = rest
            .split_once(':')
            .ok_or(format!("line {ln}: deadline_ms needs uniform:<lo>:<hi>"))?;
        let lo: u64 = lo
            .parse()
            .map_err(|_| format!("line {ln}: bad deadline low {lo:?}"))?;
        let hi: u64 = hi
            .parse()
            .map_err(|_| format!("line {ln}: bad deadline high {hi:?}"))?;
        if lo == 0 || hi <= lo {
            return Err(format!("line {ln}: deadline uniform needs 0 < lo < hi"));
        }
        return Ok(Deadline::Uniform(lo, hi));
    }
    let ms: u64 = v
        .parse()
        .map_err(|_| format!("line {ln}: bad deadline_ms {v:?}"))?;
    Ok(if ms == 0 {
        Deadline::None
    } else {
        Deadline::Fixed(ms)
    })
}

/// Parses an INI-style workload deck. Full-line `#`/`;` comments and
/// blank lines are skipped; errors carry the 1-based line number.
///
/// # Errors
///
/// Returns `line N: <reason>` for the first malformed line, unknown
/// key, or failed validation.
pub fn parse_workload(text: &str) -> Result<WorkloadSpec, String> {
    let mut spec = WorkloadSpec {
        name: String::new(),
        deck: "testdata/path4.sp".to_string(),
        sessions: 4,
        initial_rps: 0,
        increment_rps: 0,
        max_rps: 0,
        round_ms: 1000,
        thresholds: Thresholds::default(),
        ops: Vec::new(),
    };
    // None = top-level keys; Some(i) = keys of ops[i].
    let mut current_op: Option<usize> = None;
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section
                .strip_suffix(']')
                .ok_or(format!("line {ln}: unterminated section header"))?
                .trim();
            if section == "experiment" {
                current_op = None;
                continue;
            }
            let op_name = section
                .strip_prefix("op ")
                .ok_or(format!(
                    "line {ln}: unknown section {section:?} (expected [experiment] or [op NAME])"
                ))?
                .trim();
            if !valid_name(op_name) {
                return Err(format!(
                    "line {ln}: op name {op_name:?} must be 1..=32 chars of [A-Za-z0-9_.-]"
                ));
            }
            if spec.ops.iter().any(|o| o.name == op_name) {
                return Err(format!("line {ln}: duplicate op {op_name:?}"));
            }
            let kind = match op_name {
                "run" => Some(OpKind::Run),
                "edit" => Some(OpKind::Edit),
                "report" => Some(OpKind::Report),
                _ => None, // must set `kind =` explicitly
            };
            spec.ops.push(OpSpec {
                name: op_name.to_string(),
                kind: kind.unwrap_or(OpKind::Run),
                weight: 1,
                eval: "qwm".to_string(),
                slew: Slew::Fixed(20.0),
                corners: String::new(),
                deadline: Deadline::None,
            });
            // Ops named after a kind default to it; anything else must
            // declare `kind =` before the section ends — tracked by
            // leaving a sentinel weight check to validation below? No:
            // record pending requirement via name and verify at the end.
            let _ = kind;
            current_op = Some(spec.ops.len() - 1);
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("line {ln}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        if value.is_empty() {
            return Err(format!("line {ln}: key {key:?} has an empty value"));
        }
        match current_op {
            None => match key {
                "name" => {
                    if !valid_name(value) {
                        return Err(format!(
                            "line {ln}: name {value:?} must be 1..=32 chars of [A-Za-z0-9_.-]"
                        ));
                    }
                    spec.name = value.to_string();
                }
                "deck" => spec.deck = value.to_string(),
                "sessions" => {
                    spec.sessions = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad sessions {value:?}"))?;
                }
                "initial_rps" => {
                    spec.initial_rps = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad initial_rps {value:?}"))?;
                }
                "increment_rps" => {
                    spec.increment_rps = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad increment_rps {value:?}"))?;
                }
                "max_rps" => {
                    spec.max_rps = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad max_rps {value:?}"))?;
                }
                "round_ms" => {
                    spec.round_ms = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad round_ms {value:?}"))?;
                }
                "fail_rate_ceiling" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad fail_rate_ceiling {value:?}"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("line {ln}: fail_rate_ceiling must be in [0, 1]"));
                    }
                    spec.thresholds.fail_rate = v;
                }
                "median_ceiling_ms" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad median_ceiling_ms {value:?}"))?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(format!("line {ln}: median_ceiling_ms must be > 0"));
                    }
                    spec.thresholds.median_ms = v;
                }
                "reject_ceiling" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("line {ln}: bad reject_ceiling {value:?}"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("line {ln}: reject_ceiling must be in [0, 1]"));
                    }
                    spec.thresholds.reject_fraction = v;
                }
                other => return Err(format!("line {ln}: unknown experiment key {other:?}")),
            },
            Some(i) => {
                let op = &mut spec.ops[i];
                match key {
                    "kind" => {
                        op.kind = match value {
                            "run" => OpKind::Run,
                            "edit" => OpKind::Edit,
                            "report" => OpKind::Report,
                            other => {
                                return Err(format!(
                                    "line {ln}: unknown op kind {other:?} (run|edit|report)"
                                ))
                            }
                        };
                    }
                    "weight" => {
                        op.weight = value
                            .parse()
                            .map_err(|_| format!("line {ln}: bad weight {value:?}"))?;
                        if op.weight == 0 {
                            return Err(format!("line {ln}: weight must be at least 1"));
                        }
                    }
                    "eval" => {
                        if !["qwm", "elmore", "spice", "fallback"].contains(&value) {
                            return Err(format!("line {ln}: unknown eval {value:?}"));
                        }
                        op.eval = value.to_string();
                    }
                    "slew_ps" => op.slew = parse_slew(value, ln)?,
                    "corners" => {
                        qwm::device::parse_corner_list(value)
                            .map_err(|e| format!("line {ln}: bad corners {value:?}: {e}"))?;
                        op.corners = value.to_string();
                    }
                    "deadline_ms" => op.deadline = parse_deadline(value, ln)?,
                    other => return Err(format!("line {ln}: unknown op key {other:?}")),
                }
            }
        }
    }
    if spec.name.is_empty() {
        return Err("deck must set `name`".to_string());
    }
    if spec.sessions == 0 {
        return Err("sessions must be at least 1".to_string());
    }
    if spec.initial_rps == 0 || spec.increment_rps == 0 || spec.max_rps < spec.initial_rps {
        return Err(
            "ramp bounds must satisfy initial_rps >= 1, increment_rps >= 1, \
             max_rps >= initial_rps"
                .to_string(),
        );
    }
    if spec.round_ms == 0 {
        return Err("round_ms must be at least 1".to_string());
    }
    if spec.ops.is_empty() {
        return Err("deck needs at least one [op NAME] section".to_string());
    }
    Ok(spec)
}

/// One planned operation of a round's open-loop schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedOp {
    /// Scheduled fire time, offset from the round start.
    pub at: Duration,
    /// Owning session index (`0..spec.sessions`).
    pub session: usize,
    /// Per-session sequence number.
    pub seq: u64,
    /// Session id on the wire.
    pub sid: String,
    /// Protocol command line (for `edit`, without the byte count — the
    /// executor frames the body via [`Client::edit`]).
    pub command: String,
    /// Edit-script body, for `edit` ops.
    pub body: Option<String>,
}

/// Session id for session `s` of a workload.
pub fn session_id(spec: &WorkloadSpec, s: usize) -> String {
    format!("cap-{}-s{s}", spec.name)
}

/// Plans one round's schedule at `rps`: a pure function of
/// `(spec, devices, seed, rps)` — independent of how many connections
/// later execute it. One seeded RNG stream per session
/// ([`Rng64::stream`] lanes `[session]`), ops weighted by the deck's
/// mix, fire times evenly spaced with per-op jitter.
pub fn plan_round(spec: &WorkloadSpec, devices: &[String], seed: u64, rps: u32) -> Vec<PlannedOp> {
    let round_s = spec.round_ms as f64 / 1e3;
    let total = ((f64::from(rps) * round_s).round() as u64).max(1);
    let total_weight: u64 = spec.ops.iter().map(|o| u64::from(o.weight)).sum();
    let mut plan = Vec::with_capacity(total as usize);
    for s in 0..spec.sessions {
        let s64 = s as u64;
        // Split `total` ops across sessions without remainder bias.
        let n = (s64 + 1) * total / spec.sessions as u64 - s64 * total / spec.sessions as u64;
        if n == 0 {
            continue;
        }
        let mut rng = Rng64::stream(seed, &[s64]);
        let sid = session_id(spec, s);
        let period = round_s / n as f64;
        for k in 0..n {
            let at = Duration::from_secs_f64((k as f64 + rng.unit()) * period);
            // Weighted draw over the mix.
            let mut draw = rng.next_u64() % total_weight;
            let mut op = &spec.ops[0];
            for candidate in &spec.ops {
                if draw < u64::from(candidate.weight) {
                    op = candidate;
                    break;
                }
                draw -= u64::from(candidate.weight);
            }
            let (command, body) = materialize(op, &sid, devices, &mut rng);
            plan.push(PlannedOp {
                at,
                session: s,
                seq: k,
                sid: sid.clone(),
                command,
                body,
            });
        }
    }
    plan.sort_by_key(|a| (a.at, a.session, a.seq));
    plan
}

/// Builds the wire command (and body, for edits) for one drawn op.
fn materialize(
    op: &OpSpec,
    sid: &str,
    devices: &[String],
    rng: &mut Rng64,
) -> (String, Option<String>) {
    match op.kind {
        OpKind::Report => (format!("report {sid}"), None),
        OpKind::Edit => {
            let dev = &devices[rng.range_usize(0, devices.len())];
            let w = rng.range(0.5e-6, 2.0e-6);
            (
                format!("edit {sid}"),
                Some(format!("resize {dev} {w:.6e}\n")),
            )
        }
        OpKind::Run => {
            let mut cmd = format!("run {sid} {}", op.eval);
            match op.slew {
                Slew::Fixed(ps) => {
                    let _ = std::fmt::Write::write_fmt(&mut cmd, format_args!(" slew_ps={ps}"));
                }
                Slew::Jitter(lo, hi) => {
                    let ps = rng.range(lo, hi);
                    let _ = std::fmt::Write::write_fmt(&mut cmd, format_args!(" slew_ps={ps:.4}"));
                }
            }
            match op.deadline {
                Deadline::None => {}
                Deadline::Fixed(ms) => {
                    let _ = std::fmt::Write::write_fmt(&mut cmd, format_args!(" deadline_ms={ms}"));
                }
                Deadline::Uniform(lo, hi) => {
                    let ms = lo + rng.next_u64() % (hi - lo + 1);
                    let _ = std::fmt::Write::write_fmt(&mut cmd, format_args!(" deadline_ms={ms}"));
                }
            }
            if !op.corners.is_empty() {
                let _ =
                    std::fmt::Write::write_fmt(&mut cmd, format_args!(" corners={}", op.corners));
            }
            (cmd, None)
        }
    }
}

/// Renders a planned schedule as the canonical one-line-per-op log.
/// Byte-identical for identical `(deck, seed, rps)` inputs — the
/// deterministic-replay pin — and independent of connection count.
pub fn render_op_log(plan: &[PlannedOp]) -> String {
    let mut out = String::new();
    for op in plan {
        out.push_str(&format!(
            "{:>12} s{:03}#{:05} {}",
            op.at.as_micros(),
            op.session,
            op.seq,
            op.command
        ));
        if let Some(body) = &op.body {
            out.push_str(" | ");
            out.push_str(&body.replace('\n', "\\n"));
        }
        out.push('\n');
    }
    out
}

/// Partitions a plan across `connections` executor lanes (session
/// `s` rides lane `s % connections`), preserving per-lane time order.
pub fn assign_lanes(plan: &[PlannedOp], connections: usize) -> Vec<Vec<PlannedOp>> {
    let mut lanes = vec![Vec::new(); connections.max(1)];
    for op in plan {
        lanes[op.session % connections.max(1)].push(op.clone());
    }
    lanes
}

/// Extracts an integer `key=<n>` token from a reply head line.
pub fn head_field(head: &str, key: &str) -> Option<u64> {
    head.split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
}

/// Raw measurements of one executed round.
#[derive(Debug, Clone, Default)]
pub struct RoundSample {
    pub planned: usize,
    pub ok: usize,
    pub failures: usize,
    /// `429 busy` replies (not retried in capacity mode — saturation
    /// is exactly what the ramp is probing for).
    pub rejected: usize,
    /// Schedule-relative latency (reply received minus planned fire
    /// time) per successful op, µs. The open-loop saturation signal:
    /// lanes falling behind schedule inflate this even when each
    /// individual round-trip stays fast.
    pub latencies_us: Vec<f64>,
    /// Send-to-reply service time per successful op, µs.
    pub service_us: Vec<f64>,
    /// Server-reported admission queue wait per `run` (`wait_ns=`), µs.
    pub waits_us: Vec<f64>,
    /// Server-reported solve time per `run` (`solve_ns=`), µs.
    pub solves_us: Vec<f64>,
    pub wall: Duration,
}

/// Executes a planned round against a live server over `connections`
/// lanes. Each lane owns one blocking [`Client`] and fires its ops at
/// their scheduled offsets (never early; immediately when behind).
/// Transport errors fail the op and the lane reconnects once; a dead
/// lane fails its remaining ops.
pub fn execute_round(addr: &str, plan: &[PlannedOp], connections: usize) -> RoundSample {
    let lanes = assign_lanes(plan, connections);
    let t0 = Instant::now();
    let samples: Vec<RoundSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| scope.spawn(move || execute_lane(addr, lane, t0)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = RoundSample {
        planned: plan.len(),
        wall: t0.elapsed(),
        ..RoundSample::default()
    };
    for s in samples {
        out.ok += s.ok;
        out.failures += s.failures;
        out.rejected += s.rejected;
        out.latencies_us.extend(s.latencies_us);
        out.service_us.extend(s.service_us);
        out.waits_us.extend(s.waits_us);
        out.solves_us.extend(s.solves_us);
    }
    out.latencies_us.sort_by(f64::total_cmp);
    out.service_us.sort_by(f64::total_cmp);
    out.waits_us.sort_by(f64::total_cmp);
    out.solves_us.sort_by(f64::total_cmp);
    out
}

fn lane_client(addr: &str) -> Option<Client> {
    let mut c = Client::connect(addr).ok()?;
    c.set_timeout(Some(Duration::from_secs(30))).ok()?;
    Some(c)
}

fn execute_lane(addr: &str, lane: &[PlannedOp], start: Instant) -> RoundSample {
    let mut out = RoundSample::default();
    let mut client = lane_client(addr);
    for (i, op) in lane.iter().enumerate() {
        let due = start + op.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let Some(c) = client.as_mut() else {
            // Lane is dead: one reconnect attempt per op keeps a
            // transient drop from failing the whole remainder.
            client = lane_client(addr);
            if client.is_none() {
                out.failures += lane.len() - i;
                break;
            }
            continue;
        };
        let sent = Instant::now();
        let reply = match &op.body {
            Some(body) => c.edit(&op.sid, body),
            None => c.send(&op.command),
        };
        let done = Instant::now();
        match reply {
            Ok(r) if r.ok() => {
                out.ok += 1;
                out.latencies_us
                    .push(done.duration_since(due).as_secs_f64() * 1e6);
                out.service_us
                    .push(done.duration_since(sent).as_secs_f64() * 1e6);
                if let Some(ns) = head_field(&r.head, "wait_ns") {
                    out.waits_us.push(ns as f64 / 1e3);
                }
                if let Some(ns) = head_field(&r.head, "solve_ns") {
                    out.solves_us.push(ns as f64 / 1e3);
                }
            }
            Ok(r) if r.status == 429 => out.rejected += 1,
            Ok(_) => out.failures += 1,
            Err(_) => {
                out.failures += 1;
                client = None;
            }
        }
    }
    out.wall = start.elapsed();
    out
}

/// Exact nearest-rank percentile over a sorted sample, `0.0` if empty.
///
/// Thin shim over the NaN-safe [`qwm::num::stats::percentile_nearest`]:
/// empty samples map to `0.0` so report rows stay total, while a
/// non-finite latency sample fails loudly with the offending index
/// instead of silently skewing the figure.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    qwm::num::stats::percentile_nearest(sorted, q).expect("finite latency samples")
}

/// One evaluated round of an experiment (ramp or binary-search phase).
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// `"ramp"` or `"search"`.
    pub phase: &'static str,
    pub target_rps: u32,
    pub planned: usize,
    pub ok: usize,
    pub failures: usize,
    pub rejected: usize,
    pub achieved_rps: f64,
    pub fail_rate: f64,
    pub reject_fraction: f64,
    /// Schedule-relative latency percentiles, µs.
    pub p50_us: f64,
    pub p95_us: f64,
    /// Send-to-reply service p50, µs.
    pub service_p50_us: f64,
    pub wait_p50_us: f64,
    pub wait_p95_us: f64,
    pub solve_p50_us: f64,
    pub solve_p95_us: f64,
    pub good: bool,
    /// Empty when good; otherwise the first tripped stop threshold.
    pub stop: String,
}

/// Applies the stop thresholds to one round's measurements.
pub fn evaluate_round(
    phase: &'static str,
    target_rps: u32,
    sample: &RoundSample,
    t: &Thresholds,
) -> RoundRecord {
    let planned = sample.planned.max(1) as f64;
    let fail_rate = sample.failures as f64 / planned;
    let reject_fraction = sample.rejected as f64 / planned;
    let p50_us = pct(&sample.latencies_us, 0.50);
    let mut stop = String::new();
    if fail_rate > t.fail_rate {
        stop = format!("fail_rate {fail_rate:.3} > {:.3}", t.fail_rate);
    } else if p50_us / 1e3 > t.median_ms {
        stop = format!("median {:.1} ms > {:.1} ms", p50_us / 1e3, t.median_ms);
    } else if reject_fraction > t.reject_fraction {
        stop = format!(
            "reject_fraction {reject_fraction:.3} > {:.3}",
            t.reject_fraction
        );
    }
    RoundRecord {
        phase,
        target_rps,
        planned: sample.planned,
        ok: sample.ok,
        failures: sample.failures,
        rejected: sample.rejected,
        achieved_rps: sample.ok as f64 / sample.wall.as_secs_f64().max(1e-9),
        fail_rate,
        reject_fraction,
        p50_us,
        p95_us: pct(&sample.latencies_us, 0.95),
        service_p50_us: pct(&sample.service_us, 0.50),
        wait_p50_us: pct(&sample.waits_us, 0.50),
        wait_p95_us: pct(&sample.waits_us, 0.95),
        solve_p50_us: pct(&sample.solves_us, 0.50),
        solve_p95_us: pct(&sample.solves_us, 0.95),
        good: stop.is_empty(),
        stop,
    }
}

/// One workload's full capacity-discovery outcome.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub spec: WorkloadSpec,
    pub connections: usize,
    pub seed: u64,
    pub rounds: Vec<RoundRecord>,
    /// Highest rps that passed every stop threshold (the deck's
    /// `max_rps` when the ramp never tripped one).
    pub max_sustainable_rps: u32,
    /// Whether a stop threshold actually tripped. `false` means the
    /// server absorbed the deck's whole ramp — raise `max_rps` to find
    /// the real ceiling.
    pub saturated: bool,
}

/// Sends `line`, absorbing `429 busy` with linear backoff — used only
/// for session setup/teardown, never inside a measured round.
fn setup_cmd(client: &mut Client, line: &str) -> Result<Reply, String> {
    for attempt in 0..100u32 {
        match client.send(line) {
            Ok(r) if r.status == 429 => {
                std::thread::sleep(Duration::from_micros(500 * u64::from(attempt + 1)));
            }
            Ok(r) if r.ok() => return Ok(r),
            Ok(r) => return Err(format!("{line:?}: {} {}", r.status, r.head)),
            Err(e) => return Err(format!("{line:?}: {e}")),
        }
    }
    Err(format!("{line:?}: still busy after 100 attempts"))
}

fn setup_load(client: &mut Client, sid: &str, deck: &str) -> Result<(), String> {
    for attempt in 0..100u32 {
        match client.load(sid, deck) {
            Ok(r) if r.status == 429 => {
                std::thread::sleep(Duration::from_micros(500 * u64::from(attempt + 1)));
            }
            Ok(r) if r.ok() => return Ok(()),
            Ok(r) => return Err(format!("load {sid}: {} {}", r.status, r.head)),
            Err(e) => return Err(format!("load {sid}: {e}")),
        }
    }
    Err(format!("load {sid}: still busy after 100 attempts"))
}

/// Runs the full capacity-discovery experiment for one workload deck
/// against a live server:
///
/// 1. loads and primes `spec.sessions` warm sessions;
/// 2. **ramp**: rounds at `initial_rps`, `+increment_rps`, … until a
///    stop threshold trips or `max_rps` passes;
/// 3. **binary search** between the last good and first bad rps until
///    the window is at most `max(1, increment_rps / 4)` wide — the
///    convergence rule — reporting the window's floor as the maximum
///    sustainable rps;
/// 4. closes the sessions.
///
/// # Errors
///
/// Fails on unreadable/unparsable SPICE decks, workloads with `edit`
/// ops but no transistors, and session setup failures. Round-level
/// trouble is *data* (failures feed the stop thresholds), not an error.
pub fn discover_capacity(
    addr: &str,
    spec: &WorkloadSpec,
    seed: u64,
    connections: usize,
) -> Result<ExperimentResult, String> {
    let deck_text = std::fs::read_to_string(&spec.deck)
        .map_err(|e| format!("workload {}: read {}: {e}", spec.name, spec.deck))?;
    let netlist = parse_netlist(&deck_text).map_err(|e| format!("workload {}: {e}", spec.name))?;
    let devices: Vec<String> = netlist
        .devices()
        .iter()
        .filter(|d| d.gate.is_some())
        .map(|d| d.name.clone())
        .collect();
    if devices.is_empty() && spec.ops.iter().any(|o| o.kind == OpKind::Edit) {
        return Err(format!(
            "workload {}: {} has no transistors to edit",
            spec.name, spec.deck
        ));
    }
    let connections = connections.clamp(1, spec.sessions);

    // Warm setup: load every session and prime one run so `report` ops
    // always have a committed report and device tables are hot. The
    // ramp then measures steady-state serving, not characterization.
    let mut setup = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    setup
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    for s in 0..spec.sessions {
        let sid = session_id(spec, s);
        setup_load(&mut setup, &sid, &deck_text)?;
        setup_cmd(&mut setup, &format!("run {sid} qwm slew_ps=20"))?;
    }

    let mut rounds = Vec::new();
    let run_one = |phase: &'static str, rps: u32| -> RoundRecord {
        let plan = plan_round(spec, &devices, seed, rps);
        let sample = execute_round(addr, &plan, connections);
        let record = evaluate_round(phase, rps, &sample, &spec.thresholds);
        println!(
            "capacity[{}] {phase} rps={rps}: ok={} fail={} rej={} achieved={:.1} \
             p50={:.1}ms{}{}",
            spec.name,
            record.ok,
            record.failures,
            record.rejected,
            record.achieved_rps,
            record.p50_us / 1e3,
            if record.good { "" } else { " STOP " },
            record.stop
        );
        record
    };

    // Phase 1: ramp until a threshold trips or the deck's max passes.
    let mut last_good: u32 = 0;
    let mut first_bad: Option<u32> = None;
    let mut rps = spec.initial_rps;
    loop {
        let record = run_one("ramp", rps);
        let good = record.good;
        rounds.push(record);
        if !good {
            first_bad = Some(rps);
            break;
        }
        last_good = rps;
        if rps >= spec.max_rps {
            break;
        }
        rps = (rps + spec.increment_rps).min(spec.max_rps);
    }

    // Phase 2: binary search (lo = last good, hi = first bad) down to
    // the convergence resolution.
    let saturated = first_bad.is_some();
    if let Some(mut hi) = first_bad {
        let mut lo = last_good;
        let resolution = (spec.increment_rps / 4).max(1);
        while hi - lo > resolution {
            let mid = lo + (hi - lo) / 2;
            let record = run_one("search", mid);
            let good = record.good;
            rounds.push(record);
            if good {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        last_good = lo;
    }

    for s in 0..spec.sessions {
        let _ = setup.send(&format!("close {}", session_id(spec, s)));
    }

    Ok(ExperimentResult {
        spec: spec.clone(),
        connections,
        seed,
        rounds,
        max_sustainable_rps: last_good,
        saturated,
    })
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Schema tag written into (and required from) every capacity artifact.
pub const SCHEMA: &str = "qwm.capacity.v1";

/// Renders the `BENCH_capacity_server.json` artifact. Readers must
/// tolerate unknown fields (the compare gate does), so the schema can
/// grow per-round columns without breaking old gates.
pub fn results_json(seed: u64, results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"workloads\": [\n");
    for (wi, r) in results.iter().enumerate() {
        let t = &r.spec.thresholds;
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            json_escape(&r.spec.name)
        ));
        out.push_str(&format!(
            "      \"deck\": \"{}\",\n",
            json_escape(&r.spec.deck)
        ));
        out.push_str(&format!("      \"sessions\": {},\n", r.spec.sessions));
        out.push_str(&format!("      \"connections\": {},\n", r.connections));
        out.push_str(&format!("      \"initial_rps\": {},\n", r.spec.initial_rps));
        out.push_str(&format!(
            "      \"increment_rps\": {},\n",
            r.spec.increment_rps
        ));
        out.push_str(&format!("      \"max_rps\": {},\n", r.spec.max_rps));
        out.push_str(&format!("      \"round_ms\": {},\n", r.spec.round_ms));
        out.push_str(&format!(
            "      \"thresholds\": {{ \"fail_rate\": {}, \"median_ms\": {}, \
             \"reject_fraction\": {} }},\n",
            t.fail_rate, t.median_ms, t.reject_fraction
        ));
        out.push_str(&format!(
            "      \"max_sustainable_rps\": {},\n",
            r.max_sustainable_rps
        ));
        out.push_str(&format!("      \"saturated\": {},\n", r.saturated));
        out.push_str("      \"rounds\": [\n");
        for (ri, round) in r.rounds.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"phase\": \"{}\", \"target_rps\": {}, \"planned\": {}, \
                 \"ok\": {}, \"failures\": {}, \"rejected\": {}, \
                 \"achieved_rps\": {:.2}, \"fail_rate\": {:.4}, \
                 \"reject_fraction\": {:.4}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
                 \"service_p50_us\": {:.1}, \"wait_p50_us\": {:.1}, \
                 \"wait_p95_us\": {:.1}, \"solve_p50_us\": {:.1}, \
                 \"solve_p95_us\": {:.1}, \"good\": {}, \"stop\": \"{}\" }}{}\n",
                round.phase,
                round.target_rps,
                round.planned,
                round.ok,
                round.failures,
                round.rejected,
                round.achieved_rps,
                round.fail_rate,
                round.reject_fraction,
                round.p50_us,
                round.p95_us,
                round.service_p50_us,
                round.wait_p50_us,
                round.wait_p95_us,
                round.solve_p50_us,
                round.solve_p95_us,
                round.good,
                json_escape(&round.stop),
                if ri + 1 == r.rounds.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if wi + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

use qwm::obs::report::{parse_json, Json};

fn workload_rows(doc: &Json, which: &str) -> Result<Vec<(String, f64)>, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or(format!("{which}: missing \"schema\" field"))?;
    if !schema.starts_with("qwm.capacity.") {
        return Err(format!("{which}: unexpected schema {schema:?}"));
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err(format!("{which}: missing \"workloads\" array"));
    };
    let mut rows = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("{which}: workload without a \"name\""))?;
        let max = w
            .get("max_sustainable_rps")
            .and_then(Json::as_f64)
            .ok_or(format!(
                "{which}: workload {name:?} without \"max_sustainable_rps\""
            ))?;
        rows.push((name.to_string(), max));
    }
    Ok(rows)
}

/// The cross-PR regression gate: diffs two capacity artifacts and
/// fails when any workload's discovered max rps dropped by more than
/// `max_regression_pct` percent (or vanished entirely). Unknown JSON
/// fields are ignored, so artifacts from newer schema revisions still
/// compare.
///
/// # Errors
///
/// Returns one precise message per regression (joined by newlines), or
/// a parse/schema diagnostic naming the offending side.
pub fn compare_reports(
    old_text: &str,
    new_text: &str,
    max_regression_pct: f64,
) -> Result<String, String> {
    let old = parse_json(old_text).map_err(|e| format!("old artifact: {e}"))?;
    let new = parse_json(new_text).map_err(|e| format!("new artifact: {e}"))?;
    let old_rows = workload_rows(&old, "old artifact")?;
    let new_rows = workload_rows(&new, "new artifact")?;
    let mut summary = Vec::new();
    let mut regressions = Vec::new();
    for (name, old_max) in &old_rows {
        let Some((_, new_max)) = new_rows.iter().find(|(n, _)| n == name) else {
            regressions.push(format!(
                "workload {name:?}: present in old artifact but missing from new"
            ));
            continue;
        };
        let floor = old_max * (1.0 - max_regression_pct / 100.0);
        let delta_pct = if *old_max > 0.0 {
            (new_max - old_max) / old_max * 100.0
        } else {
            0.0
        };
        if *new_max < floor {
            regressions.push(format!(
                "workload {name:?}: max_sustainable_rps regressed {old_max:.0} -> \
                 {new_max:.0} ({:.1}% drop, {max_regression_pct:.1}% allowed)",
                -delta_pct
            ));
        } else {
            summary.push(format!(
                "workload {name:?}: max_sustainable_rps {old_max:.0} -> {new_max:.0} \
                 ({delta_pct:+.1}%) ok"
            ));
        }
    }
    for (name, new_max) in &new_rows {
        if !old_rows.iter().any(|(n, _)| n == name) {
            summary.push(format!(
                "workload {name:?}: new (max_sustainable_rps {new_max:.0}), no baseline"
            ));
        }
    }
    if regressions.is_empty() {
        Ok(summary.join("\n"))
    } else {
        Err(regressions.join("\n"))
    }
}
