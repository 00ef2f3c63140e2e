//! The paper harness: shared machinery for regenerating every table and
//! figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §4
//! for the index); this library holds the common machinery: engine
//! comparison rows, deterministic workloads, wall-clock measurement and
//! gnuplot-ready data dumps under `target/experiments/`. Served-system
//! performance is measured by `benchmark/`, not here.

use qwm::circuit::cells;
use qwm::circuit::stage::{LogicStage, NodeId};
use qwm::circuit::waveform::{TransitionKind, Waveform};
use qwm::core::evaluate::{evaluate, QwmConfig, QwmResult};
use qwm::device::model::ModelSet;
use qwm::device::{analytic_models, tabular_models, Technology};
use qwm::num::Result;
use qwm::spice::engine::{initial_uniform, simulate, TransientConfig, TransientResult};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The standard experiment context: one technology, analytic models for
/// the SPICE baseline, tabular models for QWM (the paper's pairing).
pub struct Bench {
    /// Shared technology.
    pub tech: Technology,
    /// Reference physics for the SPICE engine.
    pub spice_models: ModelSet,
    /// Compressed tabular models for the QWM engine.
    pub qwm_models: ModelSet,
}

impl Bench {
    /// Builds the context (characterizes the device tables once).
    ///
    /// # Panics
    ///
    /// Panics if device characterization fails (deterministic; cannot
    /// fail for the stock technology).
    pub fn new() -> Self {
        let tech = Technology::cmosp35();
        Bench {
            spice_models: analytic_models(&tech),
            qwm_models: tabular_models(&tech).expect("characterization"),
            tech,
        }
    }
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

/// One engine-comparison row of Tables I/II.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Workload name (`inv`, `nand3`, `ckt1`, …).
    pub name: String,
    /// SPICE 1 ps transient wall time.
    pub spice_1ps: Duration,
    /// SPICE 1 ps 50 % delay \[s\] — the accuracy reference.
    pub delay_1ps: f64,
    /// SPICE 10 ps transient wall time.
    pub spice_10ps: Duration,
    /// QWM wall time.
    pub qwm: Duration,
    /// QWM 50 % delay \[s\].
    pub delay_qwm: f64,
}

impl ComparisonRow {
    /// Speedup of QWM over the 1 ps baseline.
    pub fn speedup_1ps(&self) -> f64 {
        self.spice_1ps.as_secs_f64() / self.qwm.as_secs_f64()
    }

    /// Speedup of QWM over the 10 ps baseline.
    pub fn speedup_10ps(&self) -> f64 {
        self.spice_10ps.as_secs_f64() / self.qwm.as_secs_f64()
    }

    /// Delay error vs the 1 ps baseline, percent.
    pub fn error_pct(&self) -> f64 {
        100.0 * (self.delay_qwm - self.delay_1ps).abs() / self.delay_1ps
    }
}

/// Runs the canonical falling-output comparison on a stage whose every
/// input steps low→high at `t = 0` from a precharged-high state.
///
/// QWM timing is the best of `repeats` runs (wall times are µs-scale);
/// SPICE horizons self-scale to ~3× the measured delay, mimicking a
/// sensible testbench.
///
/// # Errors
///
/// Propagates engine failures.
pub fn compare_fall(
    bench: &Bench,
    name: &str,
    stage: &LogicStage,
    repeats: usize,
) -> Result<ComparisonRow> {
    compare_fall_with(bench, name, stage, repeats, &QwmConfig::default())
}

/// [`compare_fall`] with an explicit QWM configuration (used to contrast
/// the paper-faithful evaluator against the r = 2 extension).
///
/// # Errors
///
/// Propagates engine failures.
pub fn compare_fall_with(
    bench: &Bench,
    name: &str,
    stage: &LogicStage,
    repeats: usize,
    config: &QwmConfig,
) -> Result<ComparisonRow> {
    let vdd = bench.tech.vdd;
    let inputs: Vec<Waveform> = (0..stage.inputs().len())
        .map(|_| Waveform::step(0.0, 0.0, vdd))
        .collect();
    let init = initial_uniform(stage, &bench.spice_models, vdd);
    let out = stage
        .node_by_name("out")
        .expect("cells name their output 'out'");

    // QWM first (gives the horizon), best-of-N wall time.
    let mut qwm_time = Duration::MAX;
    let mut qwm_res: Option<QwmResult> = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let r = evaluate(
            stage,
            &bench.qwm_models,
            &inputs,
            &init,
            out,
            TransitionKind::Fall,
            config,
        )?;
        qwm_time = qwm_time.min(t0.elapsed());
        qwm_res = Some(r);
    }
    let qwm_res = qwm_res.expect("at least one repeat");
    let delay_qwm = qwm_res.delay_50(vdd, 0.0).expect("50% monitored");
    let horizon = (3.0 * delay_qwm).max(300e-12);

    let run_spice = |cfg: &TransientConfig| -> Result<(TransientResult, f64)> {
        let r = simulate(stage, &bench.spice_models, &inputs, &init, cfg)?;
        let d = r
            .waveform(out)?
            .crossing(vdd / 2.0, false)
            .expect("spice output falls");
        Ok((r, d))
    };
    let (r1, delay_1ps) = run_spice(&TransientConfig::hspice_1ps(horizon))?;
    let (r10, _) = run_spice(&TransientConfig::hspice_10ps(horizon))?;

    Ok(ComparisonRow {
        name: name.to_string(),
        spice_1ps: r1.elapsed,
        delay_1ps,
        spice_10ps: r10.elapsed,
        qwm: qwm_time,
        delay_qwm,
    })
}

/// Prints a Table I/II-style header.
pub fn print_table_header() {
    println!(
        "{:<10} {:>12} {:>9} {:>12} {:>9} {:>12} {:>8}",
        "Circuit", "Hsp1ps[ms]", "Speedup", "Hsp10ps[ms]", "Speedup", "QWM[ms]", "Error"
    );
}

/// Prints one comparison row.
pub fn print_row(row: &ComparisonRow) {
    println!(
        "{:<10} {:>12.4} {:>9.1} {:>12.4} {:>9.1} {:>12.4} {:>7.2}%",
        row.name,
        row.spice_1ps.as_secs_f64() * 1e3,
        row.speedup_1ps(),
        row.spice_10ps.as_secs_f64() * 1e3,
        row.speedup_10ps(),
        row.qwm.as_secs_f64() * 1e3,
        row.error_pct()
    );
}

/// Prints the aggregate line the paper quotes (average speedups and
/// errors).
pub fn print_summary(rows: &[ComparisonRow]) {
    let n = rows.len() as f64;
    let s1: f64 = rows.iter().map(ComparisonRow::speedup_1ps).sum::<f64>() / n;
    let s10: f64 = rows.iter().map(ComparisonRow::speedup_10ps).sum::<f64>() / n;
    let avg_err: f64 = rows.iter().map(ComparisonRow::error_pct).sum::<f64>() / n;
    let max_err: f64 = rows
        .iter()
        .map(ComparisonRow::error_pct)
        .fold(0.0, f64::max);
    println!(
        "average: speedup(1ps) {s1:.1}x  speedup(10ps) {s10:.1}x  mean error {avg_err:.2}%  worst error {max_err:.2}%"
    );
}

/// The directory experiment data files are written to
/// (`target/experiments/`), created on demand.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes whitespace-separated columns with a `#`-prefixed header —
/// directly gnuplot-consumable.
///
/// # Panics
///
/// Panics on I/O failure (experiment binaries want loud failures).
pub fn write_columns(file: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    let path = experiments_dir().join(file);
    let mut f = std::fs::File::create(&path).expect("create data file");
    writeln!(f, "# {header}").expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        writeln!(f, "{}", line.join(" ")).expect("write row");
    }
    path
}

/// The canonical falling-step stimulus and precharged initial condition
/// for a stage (shared by the figure binaries).
pub fn fall_setup(bench: &Bench, stage: &LogicStage) -> (Vec<Waveform>, Vec<f64>, NodeId) {
    let inputs: Vec<Waveform> = (0..stage.inputs().len())
        .map(|_| Waveform::step(0.0, 0.0, bench.tech.vdd))
        .collect();
    let init = initial_uniform(stage, &bench.spice_models, bench.tech.vdd);
    let out = stage.node_by_name("out").expect("output node");
    (inputs, init, out)
}

/// Deterministic Table II workload: for each stack length 5…10, three
/// width configurations drawn from a fixed seed.
pub fn table2_workload(bench: &Bench) -> Vec<(String, LogicStage)> {
    let mut rng = qwm::num::rng::Rng64::seed_from_u64(0x7ab1e2);
    let mut out = Vec::new();
    for k in 5..=10usize {
        for cfg in 1..=3usize {
            let widths = cells::random_widths(&mut rng, &bench.tech, k);
            let stage =
                cells::nmos_stack(&bench.tech, &widths, cells::DEFAULT_LOAD).expect("stack builds");
            out.push((format!("{k}/ckt{cfg}"), stage));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn comparison_row_math() {
        let row = ComparisonRow {
            name: "x".to_string(),
            spice_1ps: Duration::from_micros(1000),
            delay_1ps: 100e-12,
            spice_10ps: Duration::from_micros(100),
            qwm: Duration::from_micros(50),
            delay_qwm: 98e-12,
        };
        assert!((row.speedup_1ps() - 20.0).abs() < 1e-9);
        assert!((row.speedup_10ps() - 2.0).abs() < 1e-9);
        assert!((row.error_pct() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table2_workload_is_deterministic() {
        let bench = Bench::new();
        let a = table2_workload(&bench);
        let b = table2_workload(&bench);
        assert_eq!(a.len(), 18);
        for ((na, sa), (nb, sb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(sa.edge_count(), sb.edge_count());
            for (ea, eb) in sa.edges().iter().zip(sb.edges()) {
                assert_eq!(ea.geom.w, eb.geom.w);
            }
        }
        // Stack lengths 5..=10, three each.
        assert!(a[0].0.starts_with("5/"));
        assert!(a[17].0.starts_with("10/"));
    }

    #[test]
    fn write_columns_emits_gnuplot_format() {
        let path = write_columns(
            "unit_test_tmp.dat",
            "a b",
            &[vec![1.0, 2.0], vec![3.0, 4.5e-12]],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# a b\n"));
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("4.500000e-12"));
        std::fs::remove_file(path).ok();
    }
}
