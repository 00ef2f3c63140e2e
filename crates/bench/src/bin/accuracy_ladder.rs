//! The accuracy ladder: the paper's r = 1 evaluator and the r = 2
//! two-collocation model, both measured against the 1 ps baseline on
//! the Table II workload.
use qwm::core::evaluate::QwmConfig;
use qwm_bench::{compare_fall_with, table2_workload, Bench, ComparisonRow};

fn main() {
    let bench = Bench::new();
    let ladder: Vec<(&str, QwmConfig)> = vec![
        ("r=1 (paper)", QwmConfig::default()),
        ("r=2", QwmConfig::high_accuracy()),
    ];
    println!("Accuracy ladder over the Table II stacks (errors vs SPICE @ 1 ps):\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "evaluator", "speedup", "mean err", "worst err"
    );
    for (name, cfg) in &ladder {
        let mut rows: Vec<ComparisonRow> = Vec::new();
        for (wname, stage) in table2_workload(&bench) {
            rows.push(compare_fall_with(&bench, &wname, &stage, 5, cfg).expect("row"));
        }
        let n = rows.len() as f64;
        let speedup: f64 = rows.iter().map(ComparisonRow::speedup_1ps).sum::<f64>() / n;
        let mean: f64 = rows.iter().map(ComparisonRow::error_pct).sum::<f64>() / n;
        let worst: f64 = rows
            .iter()
            .map(ComparisonRow::error_pct)
            .fold(0.0, f64::max);
        println!("{name:<14} {speedup:>11.1}x {mean:>11.2}% {worst:>11.2}%");
    }
    // Telemetry appendix (enabled via QWM_OBS=summary|json).
    qwm::obs::emit();
}
