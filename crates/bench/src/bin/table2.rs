//! Table II: QWM vs the SPICE baseline on randomly sized NMOS stacks,
//! lengths 5–10, three seeded width configurations each.
use qwm_bench::{
    compare_fall, print_row, print_summary, print_table_header, table2_workload, Bench,
};

fn main() {
    let bench = Bench::new();
    println!("Table II — QWM vs SPICE-class baseline, random transistor stacks\n");
    print_table_header();
    let mut rows = Vec::new();
    for (name, stage) in table2_workload(&bench) {
        let row = compare_fall(&bench, &name, &stage, 10).expect("comparison");
        print_row(&row);
        rows.push(row);
    }
    println!();
    print_summary(&rows);
    // Telemetry appendix (enabled via QWM_OBS=summary|json).
    qwm::obs::emit();
}
