//! Table I: QWM vs the SPICE baseline on minimum-size logic gates
//! (inverter, NAND2–4), falling output, step inputs.
use qwm::circuit::cells;
use qwm_bench::{compare_fall, print_row, print_summary, print_table_header, Bench};

fn main() {
    let bench = Bench::new();
    println!("Table I — QWM vs SPICE-class baseline, minimum-size gates\n");
    print_table_header();
    let mut rows = Vec::new();
    let gates: Vec<(&str, qwm::circuit::LogicStage)> = vec![
        (
            "inv",
            cells::inverter(&bench.tech, cells::DEFAULT_LOAD).unwrap(),
        ),
        (
            "nand2",
            cells::nand(&bench.tech, 2, cells::DEFAULT_LOAD).unwrap(),
        ),
        (
            "nand3",
            cells::nand(&bench.tech, 3, cells::DEFAULT_LOAD).unwrap(),
        ),
        (
            "nand4",
            cells::nand(&bench.tech, 4, cells::DEFAULT_LOAD).unwrap(),
        ),
    ];
    for (name, stage) in &gates {
        let row = compare_fall(&bench, name, stage, 20).expect("comparison");
        print_row(&row);
        rows.push(row);
    }
    println!();
    print_summary(&rows);
    // Telemetry appendix (enabled via QWM_OBS=summary|json).
    qwm::obs::emit();
}
