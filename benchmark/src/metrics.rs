//! The metric tables — the one place a metric's name, unit, direction
//! and bound are written down — and the result line a run prints.
//!
//! `BENCHMARK.json` repeats [`END_TO_END`] and [`PER_LAYER`] for the
//! driver; a unit test holds the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before
    /// `compare` calls it a regression. Every end-to-end metric has one
    /// (the driver reads it from `BENCHMARK.json`); a ledger row has one
    /// when a user waits on it but only some workloads define it.
    pub bound: Option<f64>,
    /// Whether two runs of one commit and seed must agree exactly
    /// (a count the program makes, not a time).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A ledger row `compare` gives a verdict: an end-to-end number of the
/// workloads that define it, which the driver's one-schema-for-all
/// `end_to_end` list cannot hold (it would read 0 everywhere else).
const fn bounded_layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload. A `--trace 0` run
/// prints exactly these. Failures are not a metric here (it would read 0):
/// every result carries `attempted` and `failed`, `failed > 0` makes the
/// run incorrect, and `compare` prints `failed_frac` as a row of its own.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.20),
    e2e("op_ms_p90", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("arc_delay_err_p95_pct", "%", Lower, 0.10),
    e2e("worst_arrival_err_pct", "%", Lower, 0.25),
];

/// One layer each (layer = crate name). A `--trace 1` run prints exactly
/// these; a layer a workload bypasses reports 0 for its counts and times.
pub const PER_LAYER: &[MetricDef] = &[
    layer("circuit.parse_ms", "ms", Lower),
    layer("circuit.partition_ms", "ms", Lower),
    count("circuit.stages", "count", Lower),
    count("circuit.devices", "count", Lower),
    layer("sta.build_ms", "ms", Lower),
    layer("sta.run_ms", "ms", Lower),
    layer("sta.render_ms", "ms", Lower),
    count("sta.evaluations", "count", Lower),
    layer("sta.overhead_frac", "ratio", Lower),
    layer("sta.arcs_per_s", "1/s", Higher),
    layer("sta.incr_ms", "ms", Lower),
    layer("sta.noop_rerun_ms", "ms", Lower),
    count("sta.dirty_stages", "count", Lower),
    count("sta.reused_arcs", "count", Higher),
    count("sta.early_stops", "count", Higher),
    layer("sta.incr_corners_ms", "ms", Lower),
    layer("sta.corner_batch_gain", "ratio", Higher),
    layer("core.evaluate_us_p50", "us", Lower),
    layer("core.solve_ns", "ns", Lower),
    count("core.regions_per_arc", "count", Lower),
    count("core.newton_iters_per_arc", "count", Lower),
    count("core.allocs_per_eval", "count", Lower),
    count("core.allocs_per_solve", "count", Lower),
    layer("core.speedup_vs_spice", "ratio", Higher),
    layer("device.characterize_ms", "ms", Lower),
    layer("device.forward_ns", "ns", Lower),
    layer("device.forward_batch_ns_per_lane", "ns", Lower),
    count("device.lookups_per_arc", "count", Lower),
    layer("interconnect.pi_model_us", "us", Lower),
    count("interconnect.wires_per_run", "count", Lower),
    layer("spice.arc_us_p50", "us", Lower),
    layer("spice.arc_err_p99_pct", "%", Lower),
    count("spice.arcs_compared", "count", Higher),
    layer("exec.scale_2t", "ratio", Higher),
    layer("server.rtt_us_p50", "us", Lower),
    layer("server.wait_us_p50", "us", Lower),
    layer("server.wait_us_p99", "us", Lower),
    layer("server.solve_us_p50", "us", Lower),
    layer("server.overhead_us_p50", "us", Lower),
    layer("server.report_us_p50", "us", Lower),
    layer("server.load_ms", "ms", Lower),
    count("server.rejected_429", "count", Lower),
    layer("server.req_ms_p99", "ms", Lower),
    bounded_layer("store.restore_ms_p50", "ms", Lower, 0.10),
    count("store.kb_per_op", "KiB", Lower),
    layer("store.append_snapshot_us_p50", "us", Lower),
    layer("store.append_edits_us_p50", "us", Lower),
    count("store.bytes_per_snapshot", "B", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.compact_ms", "ms", Lower),
    layer("store.commit_overhead_us", "us", Lower),
    layer("obs.on_overhead_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.span_coverage_frac", "ratio", Higher),
    layer("host.calib_ms", "ms", Lower),
    layer("host.calib_drift_frac", "ratio", Lower),
    layer("cli.cold_process_ms", "ms", Lower),
];

/// One measured value: the number as measured and how many samples it
/// was estimated from.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// A run's measurements, filled by name and rendered against a table.
#[derive(Debug, Default)]
pub struct Values(Vec<Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            !self.0.iter().any(|v| v.name == name),
            "{name} measured twice"
        );
        self.0.push(Value {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|v| v.name == name)
    }
}

/// What a run found, ready to print.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops of the window plus the checks made around it (see
    /// [`RunResult::check`]).
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Why ops failed or checks did not hold (stderr only).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Counts one check made outside the window's ops: a sampled arc, a
    /// sibling design, a ledger section, a report comparison.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            self.notes.push(note);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly the metrics of `table`, in its order.
    /// A metric the run did not fill renders as 0 (a bypassed layer).
    /// `samples` is left out of the driver's line (its schema is fixed)
    /// and kept in the full report.
    pub fn render(&self, table: &[MetricDef], with_samples: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, def) in table.iter().enumerate() {
            let (value, samples) = self
                .values
                .get(def.name)
                .map_or((0.0, 0), |v| (v.value, v.samples));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                def.name,
                json_num(value),
                def.unit
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {samples}");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity,
/// so those render as 0 (and the run that produced them is incorrect).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Workload;
    use qwm::obs::report::{parse_json, Json};

    fn names(table: &[MetricDef]) -> Vec<&'static str> {
        table.iter().map(|d| d.name).collect()
    }

    #[test]
    fn result_line_has_the_contract_schema() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.values.set("setup_s", 0.8127, 3);
        r.values.set("op_ms_p50", 1.2034, 1000);
        let line = r.render(END_TO_END, false);
        let json = parse_json(&line).expect("result line is JSON");
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names(END_TO_END), "every end-to-end metric, in order");
        let p50 = json
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .expect("p50");
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(p50.get("samples"), None);
        // A failed op makes the run incorrect; samples show on request.
        r.failed = 1;
        let line = r.render(END_TO_END, true);
        let json = parse_json(&line).expect("JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        let p50 = json
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .expect("p50");
        assert_eq!(p50.get("samples").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(json_num(f64::NAN), "0");
    }

    /// `BENCHMARK.json` is what the driver reads; the tables are what
    /// the benchmark prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            match json.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let str_of = |j: &Json, key: &str| -> String {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} in {j:?}"))
                .to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = list(key);
            assert_eq!(items.len(), table.len(), "{key} length");
            for (item, def) in items.iter().zip(table) {
                assert_eq!(str_of(item, "name"), def.name);
                assert_eq!(str_of(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(item, "better"), def.better.name(), "{}", def.name);
                // Only end-to-end metrics carry a bound in the file.
                let bound = def.bound.filter(|_| key == "end_to_end");
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(str_of(item, "name"), w.name());
            assert_eq!(str_of(item, "why"), w.why());
        }
        assert_eq!(list("paths"), [Json::Str("benchmark".to_string())]);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all = names(END_TO_END);
        all.extend(names(PER_LAYER));
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }
}
