//! Human-readable timing reports.
//!
//! Formats a [`TimingReport`] the way timing signoff tools do: a
//! critical-path table with per-stage increments plus a slack line
//! against an optional required time.

use crate::engine::TimingReport;
use crate::graph::StageGraph;
use qwm_circuit::netlist::Netlist;
use qwm_circuit::waveform::TransitionKind;
use std::fmt::Write as _;

fn direction_name(d: TransitionKind) -> &'static str {
    match d {
        TransitionKind::Fall => "fall",
        TransitionKind::Rise => "rise",
    }
}

/// Renders the critical path as a text table.
///
/// Each row shows the stage, its driven net, the stage's delay increment
/// and the cumulative arrival. When `required` is given, a final slack
/// line (`required − arrival`) is appended, negative slack flagged.
///
/// # Panics
///
/// Panics only if internal bookkeeping is inconsistent (a critical-path
/// stage without arrivals), which would be a bug.
pub fn format_report(
    report: &TimingReport,
    graph: &StageGraph,
    netlist: &Netlist,
    required: Option<f64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:>12} {:>12}",
        "stage", "net", "incr[ps]", "arrival[ps]"
    );
    let _ = writeln!(out, "{}", "-".repeat(50));
    let mut prev_arrival = 0.0;
    for &sid in &report.critical_path {
        let part = graph.stage(sid);
        // The stage's worst (latest) output along the path.
        let (net, arrival) = part
            .output_nets
            .iter()
            .filter_map(|&n| report.arrivals.get(&n).map(|&a| (n, a)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("critical-path stage has timed outputs");
        let _ = writeln!(
            out,
            "{:<8} {:<14} {:>12.2} {:>12.2}",
            format!("#{}", sid.0),
            netlist.net_name(net),
            (arrival - prev_arrival) * 1e12,
            arrival * 1e12
        );
        prev_arrival = arrival;
    }
    let _ = writeln!(out, "{}", "-".repeat(50));
    if let Some((net, arrival)) = report.worst {
        let _ = writeln!(
            out,
            "worst arrival {:.2} ps at {}",
            arrival * 1e12,
            netlist.net_name(net)
        );
        if let Some(req) = required {
            let slack = req - arrival;
            let flag = if slack < 0.0 { "  (VIOLATED)" } else { "" };
            let _ = writeln!(
                out,
                "slack {:+.2} ps vs required {:.2} ps{flag}",
                slack * 1e12,
                req * 1e12
            );
        }
    }
    if !report.degradations.is_empty() {
        let _ = writeln!(
            out,
            "degraded arcs: {} (fallback ladder engaged)",
            report.degradations.len()
        );
        for d in &report.degradations {
            let _ = writeln!(
                out,
                "  {} {} -> {}",
                d.output,
                direction_name(d.direction),
                d.landed.name()
            );
            for f in &d.failures {
                let _ = writeln!(out, "    {} failed: {}", f.rung.name(), f.error);
            }
        }
    }
    out
}

/// Renders a [`TimingReport`] as a canonical, machine-diffable snapshot
/// for golden-file regression tests.
///
/// Every line is deterministic: nets are sorted by name, floats are
/// printed with `{:?}` (shortest representation that round-trips the
/// exact bits), so the output is byte-identical across runs, worker
/// counts and platforms — any diff against a blessed golden file is a
/// real numeric change.
pub fn golden_report(report: &TimingReport, netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "evaluations {}", report.evaluations);
    let _ = writeln!(out, "waveform_failures {}", report.waveform_failures);
    match report.worst {
        Some((net, arr)) => {
            let _ = writeln!(out, "worst {} {arr:?}", netlist.net_name(net));
        }
        None => {
            let _ = writeln!(out, "worst -");
        }
    }
    let path: Vec<String> = report
        .critical_path
        .iter()
        .map(|s| format!("#{}", s.0))
        .collect();
    let _ = writeln!(out, "critical_path {}", path.join(" "));
    let mut nets: Vec<qwm_circuit::netlist::NetId> = report.arrivals.keys().copied().collect();
    nets.sort_by_key(|&n| netlist.net_name(n));
    for net in nets {
        let arr = report.arrivals[&net];
        match report.slews.get(&net) {
            Some(slew) => {
                let _ = writeln!(out, "net {} {arr:?} {slew:?}", netlist.net_name(net));
            }
            None => {
                let _ = writeln!(out, "net {} {arr:?} -", netlist.net_name(net));
            }
        }
    }
    // Degradation provenance is appended only when present, so clean
    // runs render byte-identically to snapshots blessed before the
    // fallback ladder existed.
    if !report.degradations.is_empty() {
        let _ = writeln!(out, "degradations {}", report.degradations.len());
        for d in &report.degradations {
            let chain: Vec<String> = d
                .failures
                .iter()
                .map(|f| format!("{}: {}", f.rung.name(), f.error))
                .collect();
            let _ = writeln!(
                out,
                "degraded {} {} {} [{}]",
                d.output,
                direction_name(d.direction),
                d.landed.name(),
                chain.join("; ")
            );
        }
    }
    out
}

/// Renders a [`crate::corners::CornerReport`] as a canonical,
/// machine-diffable snapshot for golden-file regression tests.
///
/// Layout: the sweep's corner list, the worst corner, one per-net
/// provenance line (`net_worst <net> <corner> <arrival>` — the corner
/// that dominates that net, ties keeping sweep order), then each
/// corner's full [`golden_report`] body under a `corner <name>` header.
/// The per-corner bodies are the *exact* bytes a single-corner golden
/// render produces, so a one-corner sweep can be diffed against the
/// single-corner snapshot directly.
pub fn golden_corner_report(cr: &crate::corners::CornerReport, netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "corners {}", cr.corners.join(","));
    match cr.worst {
        Some((c, net, arr)) => {
            let _ = writeln!(
                out,
                "worst_corner {} {} {arr:?}",
                cr.corners[c],
                netlist.net_name(net)
            );
        }
        None => {
            let _ = writeln!(out, "worst_corner -");
        }
    }
    let mut per_net = cr.per_net_worst_corner();
    per_net.sort_by_key(|&(n, _, _)| netlist.net_name(n));
    for (net, c, arr) in per_net {
        let _ = writeln!(
            out,
            "net_worst {} {} {arr:?}",
            netlist.net_name(net),
            cr.corners[c]
        );
    }
    for (name, report) in cr.corners.iter().zip(&cr.reports) {
        let _ = writeln!(out, "corner {name}");
        out.push_str(&golden_report(report, netlist));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StaEngine;
    use crate::evaluator::ElmoreEvaluator;
    use crate::graph::inverter_chain;
    use qwm_circuit::waveform::TransitionKind;
    use qwm_device::{analytic_models, Technology};

    fn report_for(depth: usize) -> (String, f64) {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, depth, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let report = engine.run(&ElmoreEvaluator).unwrap();
        let worst = report.worst.unwrap().1;
        let s = format_report(&report, engine.graph(), engine.netlist(), Some(worst * 0.8));
        (s, worst)
    }

    #[test]
    fn report_contains_path_and_slack() {
        let (s, _) = report_for(3);
        assert!(s.contains("stage"));
        assert!(s.contains("arrival"));
        assert!(s.contains("worst arrival"));
        assert!(s.contains("VIOLATED"), "required at 80% must violate:\n{s}");
        // One row per critical-path stage plus headers/footers.
        assert_eq!(s.lines().filter(|l| l.starts_with('#')).count(), 3);
    }

    #[test]
    fn slack_positive_when_required_met() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 2, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let report = engine.run(&ElmoreEvaluator).unwrap();
        let worst = report.worst.unwrap().1;
        let s = format_report(&report, engine.graph(), engine.netlist(), Some(worst * 2.0));
        assert!(!s.contains("VIOLATED"));
        assert!(s.contains("slack +"));
    }

    /// Regression: the latest-output pick used
    /// `partial_cmp(..).expect("finite")`, so rendering a report whose
    /// critical-path stage has two timed outputs and a NaN arrival
    /// panicked. It needs a two-output stage: a pass transistor hangs a
    /// second output off the inverter's channel-connected component.
    #[test]
    fn nan_arrivals_render_without_panicking() {
        use qwm_circuit::stage::DeviceKind;
        use qwm_device::model::Geometry;
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let mut nl = inverter_chain(&tech, 1, 10e-15);
        let (n1, en, y) = (nl.find_net("n1").unwrap(), nl.net("en"), nl.net("y"));
        nl.add_primary_input(en);
        let g = Geometry::new(tech.w_min, tech.l_min);
        nl.add_transistor("MPASS".to_string(), DeviceKind::Nmos, en, n1, y, g);
        nl.add_primary_output(y);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let mut report = engine.run(&ElmoreEvaluator).unwrap();
        assert_eq!(
            engine
                .graph()
                .stage(report.critical_path[0])
                .output_nets
                .len(),
            2
        );
        for a in report.arrivals.values_mut() {
            *a = f64::NAN;
        }
        let s = format_report(&report, engine.graph(), engine.netlist(), None);
        assert!(
            s.contains("NaN"),
            "the bad arrival is shown, not hidden:\n{s}"
        );
    }

    #[test]
    fn golden_report_is_sorted_and_stable() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let nl = inverter_chain(&tech, 3, 10e-15);
        let engine = StaEngine::new(nl, &models, TransitionKind::Fall).unwrap();
        let report = engine.run(&ElmoreEvaluator).unwrap();
        let a = golden_report(&report, engine.netlist());
        let b = golden_report(&report, engine.netlist());
        assert_eq!(a, b, "byte-identical across renders");
        assert!(a.starts_with("evaluations 3\n"));
        assert!(a.contains("worst n3 "));
        // Net lines sorted by name: in, n1, n2, n3.
        let nets: Vec<&str> = a
            .lines()
            .filter(|l| l.starts_with("net "))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(nets, ["in", "n1", "n2", "n3"]);
    }

    #[test]
    fn arrivals_in_report_are_monotone() {
        let (s, worst) = report_for(4);
        let arrivals: Vec<f64> = s
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.split_whitespace().last().unwrap().parse::<f64>().unwrap())
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(
            (arrivals.last().unwrap() - worst * 1e12).abs() < 0.01,
            "printed values are %.2f ps"
        );
    }
}
