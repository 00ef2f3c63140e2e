//! `benchmark compare <a.json> <b.json>`: the verdict per (bounded
//! metric, workload), by the bounds of `metrics::END_TO_END` (which a
//! unit test holds equal to `BENCHMARK.json`) and of the bounded ledger
//! rows; `failed_frac` per workload, where any increase is a regression;
//! and every exact count that differs.
//!
//! Each side is a result file of the full run (any number of runs per
//! workload: seeds or repeats). A row shows both medians with their
//! bases; it is *unresolved* when either side's own spread — quartile
//! distance over median, as the acceptance rule takes it — exceeds the
//! bound, because a difference inside the noise proves nothing.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_over_median, median};
use qwm::obs::report::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `values[(workload, metric)]` = one value per run in the file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the untraced (`trace` 0) or traced (1) runs of a result file.
pub fn samples(text: &str, trace: u64) -> Result<Samples, String> {
    let json = parse_json(text)?;
    let Some(Json::Arr(runs)) = json.get("runs") else {
        return Err("result file has no \"runs\" array".to_string());
    };
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(trace as f64) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{workload}: run without metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}.{name}: no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a` for one metric and workload.
pub fn verdict(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if iqr_over_median(a) > bound || iqr_over_median(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the parent's median.
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Σ failed and Σ attempted of each workload, over every run in the file.
fn failures(text: &str) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let json = parse_json(text)?;
    let Some(Json::Arr(runs)) = json.get("runs") else {
        return Err("result file has no \"runs\" array".to_string());
    };
    let mut out = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let field = |key: &str| {
            run.get("result")
                .and_then(|r| r.get(key))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: run without {key}"))
        };
        let sums: &mut (f64, f64) = out.entry(workload.to_string()).or_default();
        sums.0 += field("failed")?;
        sums.1 += field("attempted")?;
    }
    Ok(out)
}

/// The comparison table, and whether `b` is worse than `a`: a metric
/// regressed, more ops failed, an exact count differs, or a row one side
/// has is missing from the other.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>14} {:>4} {:>7} {:>14} {:>4} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "n", "spread", "b median", "n", "spread", "bound"
    );
    // Untraced runs carry the end-to-end metrics; traced runs the ledger,
    // of which the bounded rows get a verdict and the counts must repeat
    // exactly between two sets of one commit (compared run by run).
    for (trace, table) in [(0, END_TO_END), (1, PER_LAYER)] {
        let (a, b) = (samples(a_text, trace)?, samples(b_text, trace)?);
        for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
            let (workload, metric) = key;
            let Some(def) = table.iter().find(|d| d.name == metric) else {
                continue;
            };
            let (Some(av), Some(bv)) = (a.get(key), b.get(key)) else {
                bad = true;
                let side = if a.contains_key(key) { "b" } else { "a" };
                let _ = writeln!(out, "{workload:<14} {metric:<22} missing from {side}");
                continue;
            };
            if def.exact && av != bv {
                bad = true;
                let _ = writeln!(
                    out,
                    "{workload:<14} {metric:<22} count differs: {av:?} vs {bv:?}"
                );
            }
            let Some(bound) = def.bound else {
                continue;
            };
            // A ledger row reads 0 where the workload bypasses its layer:
            // on both sides, or the row has come or gone.
            match (median(av) == 0.0, median(bv) == 0.0) {
                (true, true) => continue,
                (false, false) => {}
                _ => {
                    bad = true;
                    let _ = writeln!(out, "{workload:<14} {metric:<22} reads 0 on one side");
                    continue;
                }
            }
            let v = verdict(def, bound, av, bv);
            bad |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<14} {:<22} {:>14.6} {:>4} {:>6.1}% {:>14.6} {:>4} {:>6.1}% {:>5.0}%  {}",
                workload,
                metric,
                median(av),
                av.len(),
                100.0 * iqr_over_median(av),
                median(bv),
                bv.len(),
                100.0 * iqr_over_median(bv),
                100.0 * bound,
                v.name()
            );
        }
    }
    // Failures: any increase is a regression.
    let (a, b) = (failures(a_text)?, failures(b_text)?);
    for (workload, &(a_failed, a_attempted)) in &a {
        let Some(&(b_failed, b_attempted)) = b.get(workload) else {
            continue; // its metric rows were reported missing above
        };
        let (fa, fb) = (a_failed / a_attempted, b_failed / b_attempted);
        let v = if fb > fa {
            Verdict::Regressed
        } else if fb < fa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        bad |= v == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{workload:<14} {:<22} {fa:>14.6} {:>4} {:>7} {fb:>14.6} {:>4} {:>7} {:>6}  {}",
            "failed_frac",
            a_attempted,
            "",
            b_attempted,
            "",
            "any",
            v.name()
        );
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("known metric")
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def("op_ms_p50");
        let higher = def("ops_per_s");
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m];
        assert_eq!(
            verdict(lower, 0.1, &steady(10.0), &steady(10.5)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(lower, 0.1, &steady(10.0), &steady(11.5)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(lower, 0.1, &steady(10.0), &steady(8.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(higher, 0.1, &steady(100.0), &steady(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(higher, 0.1, &steady(100.0), &steady(120.0)),
            Verdict::Improved
        );
        // A side noisier than the bound proves nothing either way.
        let noisy = vec![6.0, 8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            verdict(lower, 0.1, &noisy, &steady(20.0)),
            Verdict::Unresolved
        );
        // One run a side has no spread to speak of.
        assert_eq!(verdict(lower, 0.1, &[10.0], &[10.5]), Verdict::Unchanged);
    }

    /// A result file of one untraced and one traced `serve_durable` run.
    fn file(p50: f64, restore: f64, kb: f64, failed: u32) -> String {
        let run = |trace: u8, metrics: String| {
            format!(
                "{{\"workload\": \"serve_durable\", \"trace\": {trace}, \"result\": \
                 {{\"correct\": {}, \"attempted\": 400, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}}}",
                failed == 0
            )
        };
        let metric =
            |name: &str, v: f64| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"x\"}}");
        format!(
            "{{\"runs\": [{}, {}]}}",
            run(0, metric("op_ms_p50", p50)),
            run(
                1,
                format!(
                    "{}, {}",
                    metric("store.restore_ms_p50", restore),
                    metric("store.kb_per_op", kb)
                )
            )
        )
    }

    #[test]
    fn compare_reads_result_files_and_flags_what_got_worse() {
        let base = file(10.0, 250.0, 155.0, 0);
        let (table, bad) = compare(&base, &file(10.2, 255.0, 155.0, 0)).expect("compare");
        assert_eq!(table.matches("unchanged").count(), 3, "{table}");
        assert!(!bad, "{table}");
        // The end-to-end row, the bounded ledger row, an exact count and
        // the failure share each fail the comparison on their own.
        for worse in [
            file(13.0, 250.0, 155.0, 0),
            file(10.0, 400.0, 155.0, 0),
            file(10.0, 250.0, 156.0, 0),
            file(10.0, 250.0, 155.0, 1),
        ] {
            let (table, bad) = compare(&base, &worse).expect("compare");
            assert!(bad, "{table}");
            assert!(
                table.contains("regressed") || table.contains("count differs"),
                "{table}"
            );
        }
        let (table, bad) = compare(&file(10.0, 250.0, 155.0, 1), &base).expect("compare");
        assert!(table.contains("improved") && !bad, "{table}");
        // A row one side lacks is reported, whichever side it is.
        let without = base.replace("store.kb_per_op", "store.renamed");
        for (a, b, side) in [(&base, &without, "b"), (&without, &base, "a")] {
            let (table, bad) = compare(a, b).expect("compare");
            assert!(
                bad && table.contains(&format!("missing from {side}")),
                "{table}"
            );
        }
        let (table, bad) = compare(&base, &file(10.0, 0.0, 155.0, 0)).expect("compare");
        assert!(bad && table.contains("reads 0 on one side"), "{table}");
        assert!(compare("{}", "{}").is_err());
    }
}
