//! `qwm` — command-line transistor-level static timing analysis.
//!
//! ```text
//! qwm <deck.sp> [--evaluator qwm|elmore|spice] [--direction fall|rise]
//!               [--slew <ps>] [--required <ps>] [--stages] [--threads <n>]
//! ```
//!
//! Reads a SPICE-subset deck (see `qwm::circuit::parser`), partitions it
//! into channel-connected logic stages, propagates arrival times with
//! the chosen per-stage evaluator (QWM by default) and prints the
//! critical-path report. With `--slew` the analysis is slew-aware:
//! measured output slews feed downstream stages.
//!
//! Independent stages are evaluated in parallel on a work-stealing
//! scheduler; `--threads <n>` (or the `QWM_THREADS` environment
//! variable) sets the worker count. Reports are bitwise-identical for
//! any value — the knob only changes speed.
//!
//! `--obs [summary|json]` (or the `QWM_OBS` environment variable)
//! appends a telemetry report — spans, counters, solver histograms and
//! buffered warn/error events — after the timing report.
//!
//! `--fallback` selects the graceful-degradation evaluator (QWM →
//! damped retry → adaptive transient → fixed-step transient → Elmore
//! bound); degraded arcs are listed with full rung provenance after the
//! critical-path table. `--fault-plan <spec>` (or the `QWM_FAULTS`
//! environment variable) installs a deterministic fault-injection plan,
//! e.g. `seed=1;qwm.region=noconv:0.5` — see `qwm::fault`.
//!
//! `--corners <list>` runs a batched multi-corner sweep (e.g.
//! `--corners ss,tt,ff` or `--corners tt,mc:7:8` for seeded Monte
//! Carlo samples): one levelized pass times every corner's device
//! models per arc, then prints a per-corner worst-arrival summary, the
//! dominating corner, and the worst corner's critical-path report.
//! Combined with `--edits` the what-if re-times only the dirty fanout
//! cone *across all corners* and prints per-corner deltas.
//!
//! `qwm serve` starts the persistent timing-query server instead of a
//! one-shot analysis (see `qwm::server`): sessions keep parsed
//! netlists and warm incremental engines across queries, heavy
//! requests pass through admission control, and `SIGTERM`/`shutdown`
//! drain gracefully. It prints `listening on <addr>` once bound.
//! With `--store <dir>` sessions are durable: committed runs snapshot
//! to an append-only checksummed log (cadence via `--snapshot-every`),
//! and a killed-and-restarted server restores every session warm.

use qwm::circuit::parser::parse_netlist;
use qwm::circuit::waveform::TransitionKind;
use qwm::device::{analytic_models, tabular_models, Technology};
use qwm::sta::engine::StaEngine;
use qwm::sta::evaluator::{
    ElmoreEvaluator, FallbackEvaluator, QwmEvaluator, SpiceEvaluator, StageEvaluator,
};
use qwm::sta::report::format_report;
use std::process::ExitCode;

struct Options {
    deck: String,
    evaluator: String,
    direction: TransitionKind,
    slew: Option<f64>,
    required: Option<f64>,
    show_stages: bool,
    obs: Option<qwm::obs::ObsMode>,
    threads: Option<usize>,
    fault_plan: Option<String>,
    edits: Option<String>,
    corners: Vec<qwm::device::Corner>,
}

fn usage() -> &'static str {
    "usage: qwm <deck.sp> [--evaluator qwm|elmore|spice|fallback] [--fallback]\n\
     \u{20}          [--direction fall|rise] [--slew <ps>] [--required <ps>]\n\
     \u{20}          [--stages] [--threads <n>] [--obs [summary|json]]\n\
     \u{20}          [--fault-plan <spec>] [--edits <file>] [--corners <list>]\n\
     \u{20}      qwm serve [--addr <host:port>] [--max-inflight <n>]\n\
     \u{20}          [--session-ttl <secs>] [--engine-threads <n>] [--obs [summary|json]]\n\
     \u{20}          [--store <dir>] [--snapshot-every <n>]\n\
     \u{20}      qwm obs-report <dump.jsonl> [--out <report.html>] [--title <text>]\n\
     \u{20}          [--check-only]"
}

/// `qwm obs-report ...`: turn a line-oriented JSON telemetry dump
/// (`QWM_OBS=json` output, `metrics` payloads, `trace <sid> last json`
/// bodies — concatenated freely) into a self-contained HTML report.
/// `--check-only` just validates that every line parses as JSON.
fn obs_report(args: &[String]) -> Result<(), String> {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut title = "qwm telemetry".to_string();
    let mut check_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--title" => title = it.next().ok_or("--title needs text")?.clone(),
            "--check-only" => check_only = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with("--") => {
                return Err(format!(
                    "unexpected obs-report argument {other:?}\n{}",
                    usage()
                ));
            }
            path => {
                if input.replace(path.to_string()).is_some() {
                    return Err("obs-report takes exactly one input file".to_string());
                }
            }
        }
    }
    let input = input.ok_or_else(|| format!("obs-report needs an input file\n{}", usage()))?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("read {input}: {e}"))?;
    let lines =
        qwm::obs::report::validate_json_lines(&text).map_err(|e| format!("{input}: {e}"))?;
    if check_only {
        println!("{input}: {lines} JSON lines ok");
        return Ok(());
    }
    let html = qwm::obs::report::html_report(&title, &text).map_err(|e| format!("{input}: {e}"))?;
    let out = out.unwrap_or_else(|| format!("{input}.html"));
    std::fs::write(&out, html).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out} ({lines} telemetry lines)");
    Ok(())
}

/// `qwm serve ...`: parse the serve flags and run the server until it
/// drains (`shutdown` command or SIGTERM).
fn serve(args: &[String]) -> Result<(), String> {
    let mut cfg = qwm::server::ServerConfig {
        handle_sigterm: true,
        ..Default::default()
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                cfg.addr = it.next().ok_or("--addr needs host:port")?.clone();
            }
            "--max-inflight" => {
                let v: usize = it
                    .next()
                    .ok_or("--max-inflight needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight: {e}"))?;
                if v == 0 {
                    return Err("--max-inflight must be at least 1".to_string());
                }
                cfg.max_inflight = v;
            }
            "--session-ttl" => {
                let v: f64 = it
                    .next()
                    .ok_or("--session-ttl needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad --session-ttl: {e}"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err("--session-ttl must be finite and >= 0".to_string());
                }
                cfg.session_ttl = if v == 0.0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs_f64(v))
                };
            }
            "--engine-threads" => {
                let v: usize = it
                    .next()
                    .ok_or("--engine-threads needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --engine-threads: {e}"))?;
                if v == 0 {
                    return Err("--engine-threads must be at least 1".to_string());
                }
                cfg.engine_threads = v;
            }
            "--store" => {
                cfg.store_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--store needs a directory")?,
                ));
            }
            "--snapshot-every" => {
                let v: usize = it
                    .next()
                    .ok_or("--snapshot-every needs an edit-batch count")?
                    .parse()
                    .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                if v == 0 {
                    return Err("--snapshot-every must be at least 1".to_string());
                }
                cfg.snapshot_every = v;
            }
            "--obs" => {
                let mode = match it.peek().map(|s| s.as_str()) {
                    Some("summary") => {
                        it.next();
                        qwm::obs::ObsMode::Summary
                    }
                    Some("json") => {
                        it.next();
                        qwm::obs::ObsMode::Json
                    }
                    _ => qwm::obs::ObsMode::Summary,
                };
                qwm::obs::set_mode(mode);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unexpected serve argument {other:?}\n{}", usage())),
        }
    }
    let server = qwm::server::Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve: {e}"))?;
    println!("drained");
    qwm::obs::emit();
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut deck = None;
    let mut evaluator = "qwm".to_string();
    let mut direction = TransitionKind::Fall;
    let mut slew = None;
    let mut required = None;
    let mut show_stages = false;
    let mut obs = None;
    let mut threads = None;
    let mut fault_plan = None;
    let mut edits = None;
    let mut corners = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--evaluator" => {
                evaluator = it.next().ok_or("--evaluator needs a value")?.clone();
                if !["qwm", "elmore", "spice", "fallback"].contains(&evaluator.as_str()) {
                    return Err(format!("unknown evaluator {evaluator:?}"));
                }
            }
            "--fallback" => evaluator = "fallback".to_string(),
            "--fault-plan" => {
                let spec = it.next().ok_or("--fault-plan needs a spec")?.clone();
                // Validate eagerly so a typo fails before any analysis.
                qwm::fault::FaultPlan::parse(&spec)
                    .map_err(|e| format!("bad --fault-plan: {e}"))?;
                fault_plan = Some(spec);
            }
            "--direction" => {
                direction = match it.next().ok_or("--direction needs a value")?.as_str() {
                    "fall" => TransitionKind::Fall,
                    "rise" => TransitionKind::Rise,
                    other => return Err(format!("unknown direction {other:?}")),
                };
            }
            "--slew" => {
                let v: f64 = it
                    .next()
                    .ok_or("--slew needs a value in ps")?
                    .parse()
                    .map_err(|e| format!("bad --slew: {e}"))?;
                slew = Some(v * 1e-12);
            }
            "--required" => {
                let v: f64 = it
                    .next()
                    .ok_or("--required needs a value in ps")?
                    .parse()
                    .map_err(|e| format!("bad --required: {e}"))?;
                required = Some(v * 1e-12);
            }
            "--edits" => {
                edits = Some(it.next().ok_or("--edits needs a file")?.clone());
            }
            "--corners" => {
                let spec = it.next().ok_or("--corners needs a comma-separated list")?;
                corners = qwm::device::parse_corner_list(spec)
                    .map_err(|e| format!("bad --corners: {e}"))?;
            }
            "--stages" => show_stages = true,
            "--threads" => {
                let v: usize = it
                    .next()
                    .ok_or("--threads needs a worker count")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if v == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(v);
            }
            "--obs" => {
                // Optional value: `--obs json` or bare `--obs` (summary).
                obs = Some(match it.peek().map(|s| s.as_str()) {
                    Some("summary") => {
                        it.next();
                        qwm::obs::ObsMode::Summary
                    }
                    Some("json") => {
                        it.next();
                        qwm::obs::ObsMode::Json
                    }
                    _ => qwm::obs::ObsMode::Summary,
                });
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if deck.is_none() && !other.starts_with('-') => {
                deck = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    Ok(Options {
        deck: deck.ok_or_else(|| usage().to_string())?,
        evaluator,
        direction,
        slew,
        required,
        show_stages,
        obs,
        threads,
        fault_plan,
        edits,
        corners,
    })
}

/// Prints a per-corner worst-arrival summary, names the dominating
/// corner, then renders the dominating corner's critical-path report.
fn print_corner_summary(
    cr: &qwm::sta::CornerReport,
    graph: &qwm::sta::StageGraph,
    netlist: &qwm::circuit::netlist::Netlist,
    required: Option<f64>,
) {
    for (name, rep) in cr.corners.iter().zip(&cr.reports) {
        match rep.worst {
            Some((net, arr)) => println!(
                "corner {name:<10} worst {:>9.2} ps at {:<14} ({} evaluations)",
                arr * 1e12,
                netlist.net_name(net),
                rep.evaluations
            ),
            None => println!("corner {name:<10} worst -"),
        }
    }
    if let Some((c, net, arr)) = cr.worst {
        println!(
            "worst corner {} ({:.2} ps at {})",
            cr.corners[c],
            arr * 1e12,
            netlist.net_name(net)
        );
        println!();
        print!(
            "{}",
            format_report(&cr.reports[c], graph, netlist, required)
        );
    }
}

fn run(opts: &Options) -> Result<(), String> {
    // `--obs` overrides the QWM_OBS environment variable; either must be
    // in force *before* any instrumented work runs.
    if let Some(mode) = opts.obs {
        qwm::obs::set_mode(mode);
    }
    // `--fault-plan` overrides QWM_FAULTS; install before any
    // instrumented site runs.
    if let Some(spec) = &opts.fault_plan {
        let plan =
            qwm::fault::FaultPlan::parse(spec).map_err(|e| format!("bad fault plan: {e}"))?;
        qwm::fault::install(plan);
    }
    let text = std::fs::read_to_string(&opts.deck)
        .map_err(|e| format!("cannot read {}: {e}", opts.deck))?;
    let netlist = parse_netlist(&text).map_err(|e| e.to_string())?;
    let tech = Technology::cmosp35();
    let models = if opts.evaluator == "qwm" || opts.evaluator == "fallback" {
        tabular_models(&tech).map_err(|e| e.to_string())?
    } else {
        analytic_models(&tech)
    };
    let mut engine = StaEngine::new(netlist, &models, opts.direction).map_err(|e| e.to_string())?;
    if let Some(t) = opts.threads {
        engine.set_threads(t);
    }

    println!(
        "{}: {} devices, {} stages, evaluator = {}, threads = {}",
        opts.deck,
        engine.netlist().devices().len(),
        engine.graph().len(),
        opts.evaluator,
        engine.threads()
    );
    if opts.show_stages {
        for (i, p) in engine.graph().partitions().iter().enumerate() {
            let ins: Vec<&str> = p
                .input_nets
                .iter()
                .map(|&n| engine.netlist().net_name(n))
                .collect();
            let outs: Vec<&str> = p
                .output_nets
                .iter()
                .map(|&n| engine.netlist().net_name(n))
                .collect();
            println!(
                "  stage {i}: {} elements  {:?} -> {:?}",
                p.stage.edge_count(),
                ins,
                outs
            );
        }
    }

    let make_evaluator = || -> Box<dyn StageEvaluator> {
        match opts.evaluator.as_str() {
            "elmore" => Box::new(ElmoreEvaluator),
            "spice" => Box::new(SpiceEvaluator::default()),
            "fallback" => Box::new(FallbackEvaluator::default()),
            _ => Box::new(QwmEvaluator::default()),
        }
    };
    // Batched multi-corner sweep: every corner's device models are
    // timed in one levelized pass over the stage DAG. Each corner gets
    // its own evaluator instance so fallback degradations pool per
    // corner, exactly as N independent runs would.
    if !opts.corners.is_empty() {
        let corner_models = if opts.evaluator == "qwm" || opts.evaluator == "fallback" {
            qwm::device::CornerModels::tabular(&tech, &opts.corners).map_err(|e| e.to_string())?
        } else {
            qwm::device::CornerModels::analytic(&tech, &opts.corners)
        };
        let evaluators: Vec<Box<dyn StageEvaluator>> =
            (0..corner_models.len()).map(|_| make_evaluator()).collect();
        let runs: Vec<qwm::sta::CornerRun> = corner_models
            .corners()
            .iter()
            .enumerate()
            .map(|(i, c)| qwm::sta::CornerRun {
                name: c.interned_name(),
                models: corner_models.set(i),
                evaluator: evaluators[i].as_ref(),
            })
            .collect();
        // What-if mode across corners: baseline sweep, apply edits,
        // re-time only the dirty fanout cone in every corner.
        if let Some(path) = &opts.edits {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let edits = qwm::sta::parse_edit_script(&text, engine.netlist())?;
            if let Some(s) = opts.slew {
                engine.set_input_slew(s).map_err(|e| e.to_string())?;
            }
            let baseline = engine
                .run_incremental_corners(&runs)
                .map_err(|e| e.to_string())?;
            println!();
            println!("=== baseline ===");
            print_corner_summary(&baseline, engine.graph(), engine.netlist(), opts.required);
            engine.apply_edits(&edits).map_err(|e| e.to_string())?;
            let t0 = std::time::Instant::now();
            let whatif = engine
                .run_incremental_corners(&runs)
                .map_err(|e| e.to_string())?;
            let elapsed = t0.elapsed();
            let stats = engine.incremental_stats();
            println!();
            println!("=== what-if ({} edits) ===", edits.len());
            print_corner_summary(&whatif, engine.graph(), engine.netlist(), opts.required);
            for (i, name) in whatif.corners.iter().enumerate() {
                if let (Some((_, b)), Some((_, w))) =
                    (baseline.reports[i].worst, whatif.reports[i].worst)
                {
                    println!("delta {name} {:+.2} ps", (w - b) * 1e12);
                }
            }
            println!(
                "incremental: {} dirty / {} evaluated stage-corners, {} arcs reused, \
                 {} early-stop nets, {:.1} ms",
                stats.dirty_stages,
                stats.evaluated_stages,
                stats.reused_arcs,
                stats.early_stop_nets,
                elapsed.as_secs_f64() * 1e3
            );
            qwm::obs::emit();
            return Ok(());
        }
        let cr = engine
            .run_corners(&runs, opts.slew.unwrap_or(0.0))
            .map_err(|e| e.to_string())?;
        println!();
        print_corner_summary(&cr, engine.graph(), engine.netlist(), opts.required);
        qwm::obs::emit();
        return Ok(());
    }

    let evaluator: Box<dyn StageEvaluator> = make_evaluator();
    // What-if mode: baseline incremental run, apply the edits file,
    // re-time only the dirty fanout cone, report both.
    if let Some(path) = &opts.edits {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let edits = qwm::sta::parse_edit_script(&text, engine.netlist())?;
        if let Some(s) = opts.slew {
            engine.set_input_slew(s).map_err(|e| e.to_string())?;
        }
        let baseline = engine
            .run_incremental(evaluator.as_ref())
            .map_err(|e| e.to_string())?;
        println!();
        println!("=== baseline ===");
        print!(
            "{}",
            format_report(&baseline, engine.graph(), engine.netlist(), opts.required)
        );
        engine.apply_edits(&edits).map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let whatif = engine
            .run_incremental(evaluator.as_ref())
            .map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        let stats = engine.incremental_stats();
        println!();
        println!("=== what-if ({} edits) ===", edits.len());
        print!(
            "{}",
            format_report(&whatif, engine.graph(), engine.netlist(), opts.required)
        );
        if let (Some((_, b)), Some((_, w))) = (baseline.worst, whatif.worst) {
            println!("delta {:+.2} ps", (w - b) * 1e12);
        }
        println!(
            "incremental: {} dirty / {} evaluated of {} stages, {} arcs reused, \
             {} early-stop nets, {:.1} ms",
            stats.dirty_stages,
            stats.evaluated_stages,
            engine.graph().len(),
            stats.reused_arcs,
            stats.early_stop_nets,
            elapsed.as_secs_f64() * 1e3
        );
        qwm::obs::emit();
        return Ok(());
    }

    let report = match opts.slew {
        Some(s) => engine
            .run_with_slew(evaluator.as_ref(), s)
            .map_err(|e| e.to_string())?,
        None => engine.run(evaluator.as_ref()).map_err(|e| e.to_string())?,
    };
    println!();
    print!(
        "{}",
        format_report(&report, engine.graph(), engine.netlist(), opts.required)
    );
    if let Some((net, _)) = report.worst {
        if let Some(&slew) = report.slews.get(&net) {
            println!(
                "output slew {:.2} ps at {}",
                slew * 1e12,
                engine.netlist().net_name(net)
            );
        }
    }
    qwm::obs::emit();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("obs-report") {
        return match obs_report(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
