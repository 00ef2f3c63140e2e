//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]   one run, one result line
//! benchmark [--seed <n>|--seeds a,b,..] [--window-s <s>] [--out <f>] [--smoke]   every workload, both passes
//! benchmark compare <a.json> <b.json>                                  verdict per metric and workload
//! ```
//!
//! All three take `--qwm <path>` (the `qwm` binary under test) and
//! `--run-root <dir>` (where the scratch directory goes); `run.sh`
//! builds both binaries and passes them.

mod accuracy;
mod alloc_count;
mod compare;
mod design;
mod gen;
mod host;
mod inproc;
mod layers;
mod metrics;
mod run;
mod serve;
mod stats;
mod store_ledger;
mod trace;

use design::Workload;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use qwm::obs::report::{parse_json, Json};
use run::RunArgs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> --qwm <path> [--run-root <dir>] [--trace-out <file>] [--samples 1] [--smoke]\n\
       benchmark [--seed <n> | --seeds <a,b,..>] [--window-s <s>] [--out <file>] [--smoke] --qwm <path> [--run-root <dir>]\n\
       benchmark compare <a.json> <b.json>";

/// `--key value` pairs plus bare words, in order.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => cli.flags.push(("smoke".to_string(), "1".to_string())),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    cli.flags.push((key.to_string(), value.clone()));
                }
                None => cli.words.push(a.clone()),
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

/// The process's scratch directory; removed when the guard drops, on
/// every return path (a panic unwinds through it too).
struct RunDir(PathBuf);

impl RunDir {
    fn create(root: &Path) -> Result<RunDir, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_root(cli: &Cli) -> PathBuf {
    PathBuf::from(cli.get("run-root").unwrap_or("benchmark/target"))
}

fn qwm_path(cli: &Cli) -> Result<PathBuf, String> {
    let path = PathBuf::from(
        cli.get("qwm")
            .ok_or_else(|| format!("--qwm is required\n{USAGE}"))?,
    );
    if !path.is_file() {
        return Err(format!(
            "--qwm {}: no such file (run benchmark/run.sh, which builds it)",
            path.display()
        ));
    }
    Ok(path)
}

/// One run: the driver's entry point.
fn single(cli: &Cli) -> Result<bool, String> {
    cli.known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "qwm",
        "run-root",
        "trace-out",
        "samples",
        "smoke",
    ])?;
    let name = cli
        .get("workload")
        .expect("single mode is chosen by --workload");
    let workload = Workload::parse(name).ok_or_else(|| {
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", all.join(", "))
    })?;
    let trace = match cli.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}: 0 or 1")),
    };
    let seconds: f64 = cli.num("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("bad --seconds {seconds}: more than 0, at most 600"));
    }
    let dir = RunDir::create(&run_root(cli))?;
    let args = RunArgs {
        workload,
        seed: design::input_seed(cli.num("seed", 1)?),
        seconds,
        trace,
        qwm: qwm_path(cli)?,
        run_dir: dir.0.clone(),
        trace_out: cli.get("trace-out").map(PathBuf::from),
        smoke: cli.get("smoke").is_some(),
    };
    let result = run::run(&args)?;
    for note in result.notes.iter().take(20) {
        eprintln!("benchmark: {}: {note}", workload.name());
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    println!("{}", result.render(table, cli.get("samples").is_some()));
    // The line says whether the outputs were correct; a run that got
    // as far as printing it exits 0, as the driver's contract asks.
    Ok(true)
}

/// One child run of the full mode.
struct ChildRun<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<&'a Path>,
}

/// Runs this binary again, so each run gets a process (and a peak RSS)
/// of its own, exactly as under the driver.
fn child_run(cli: &Cli, run: &ChildRun) -> Result<(Json, String), String> {
    let ChildRun {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        trace_out,
    } = *run;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--samples", "1"])
        .arg("--qwm")
        .arg(qwm_path(cli)?)
        .arg("--run-root")
        .arg(run_root(cli));
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn self: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{} trace {}: no result line ({})",
            workload.name(),
            u8::from(trace),
            output.status
        )
    })?;
    let json = parse_json(line).map_err(|e| format!("{} result line: {e}", workload.name()))?;
    Ok((json, line.to_string()))
}

/// Prints one run's metrics by name with unit and sample count.
fn print_run(workload: Workload, trace: bool, table: &[MetricDef], json: &Json) {
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(0.0);
    let (attempted, failed) = (num(json.get("attempted")), num(json.get("failed")));
    if !trace {
        println!("\n# {}: {}", workload.name(), workload.why());
    }
    println!(
        "== {} ({}) attempted {} failed {} failed_frac {:.6} ==",
        workload.name(),
        if trace {
            "traced: per-layer"
        } else {
            "untraced: end to end"
        },
        attempted,
        failed,
        if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        }
    );
    for def in table {
        let m = json.get("metrics").and_then(|m| m.get(def.name));
        let samples = num(m.and_then(|m| m.get("samples")));
        // A per-layer row without samples is a layer this workload
        // bypasses; it is in the result file as 0, not worth a line.
        if samples == 0.0 && trace {
            continue;
        }
        println!(
            "{:<34} {:>16.6} {:<6} n={}",
            def.name,
            num(m.and_then(|m| m.get("value"))),
            def.unit,
            samples
        );
    }
}

/// Every workload, untraced then traced; prints every metric by name
/// and writes the result file.
fn full(cli: &Cli) -> Result<bool, String> {
    cli.known(&[
        "seed", "seeds", "window-s", "out", "smoke", "qwm", "run-root",
    ])?;
    let smoke = cli.get("smoke").is_some();
    let seeds: Vec<u64> = match cli.get("seeds") {
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad --seeds entry {s:?}")))
            .collect::<Result<_, _>>()?,
        None => vec![cli.num("seed", 1)?],
    };
    let window_s: f64 = cli.num("window-s", if smoke { 1.0 } else { 15.0 })?;
    // The traced pass is there for shares and counts, not for medians
    // anyone compares: a third of the window is enough. A smoke run
    // gates on correctness alone and skips it.
    let traced_s = (window_s / 3.0).max(1.0);
    let passes: &[bool] = if smoke { &[false] } else { &[false, true] };
    let out_path = cli.get("out").map(PathBuf::from);
    let info = host::HostInfo::collect();
    println!(
        "commit {}  seeds {:?}  window {} s (traced {} s)  nproc {}  cpu {}  {}",
        info.commit, seeds, window_s, traced_s, info.nproc, info.cpu_model, info.rustc
    );
    let mut runs = String::new();
    let mut all_correct = true;
    for &seed in &seeds {
        for w in Workload::ALL {
            for &trace in passes {
                // One trace file per workload, from the first seed.
                let trace_path = out_path
                    .as_ref()
                    .filter(|_| trace && seed == seeds[0])
                    .map(|p| p.with_extension(format!("{}.trace.jsonl", w.name())));
                let seconds = if trace { traced_s } else { window_s };
                let (json, line) = child_run(
                    cli,
                    &ChildRun {
                        workload: w,
                        seed,
                        seconds,
                        trace,
                        smoke,
                        trace_out: trace_path.as_deref(),
                    },
                )?;
                let table = if trace { PER_LAYER } else { END_TO_END };
                print_run(w, trace, table, &json);
                all_correct &= json.get("correct") == Some(&Json::Bool(true));
                // The child's result line goes into the file as it came.
                let sep = if runs.is_empty() { "" } else { ",\n" };
                let _ = write!(
                    runs,
                    "{sep}    {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {seed}, \"input_seed\": {}, \"seconds\": {seconds}, \"result\": {line}}}",
                    w.name(),
                    u8::from(trace),
                    design::input_seed(seed),
                );
            }
        }
    }
    if let Some(path) = &out_path {
        let text = format!(
            "{{\n  \"schema\": \"qwm.benchmark.v1\",\n  \"commit\": {:?},\n  \"seeds\": {:?},\n  \"window_s\": {window_s},\n  \
             \"traced_window_s\": {traced_s},\n  \"smoke\": {smoke},\n  \"nproc\": {},\n  \"cpu_model\": {:?},\n  \"rustc\": {:?},\n  \
             \"runs\": [\n{runs}\n  ]\n}}\n",
            info.commit, seeds, info.nproc, info.cpu_model, info.rustc
        );
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    println!(
        "\n{}",
        if all_correct {
            "all outputs correct"
        } else {
            "INCORRECT OUTPUTS (see stderr)"
        }
    );
    Ok(all_correct)
}

fn compare_files(cli: &Cli) -> Result<bool, String> {
    cli.known(&[])?;
    let [_, a, b] = cli.words.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, bad) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Cli::parse(&args).and_then(|cli| {
        if cli.words.first().map(String::as_str) == Some("compare") {
            compare_files(&cli)
        } else if !cli.words.is_empty() {
            Err(format!("unexpected argument {:?}\n{USAGE}", cli.words[0]))
        } else if cli.get("workload").is_some() {
            single(&cli)
        } else {
            full(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Everything ran, but an output was wrong or a metric regressed.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
