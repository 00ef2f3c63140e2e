//! End-to-end tests of the `qwm` command-line tool.

use std::process::Command;

fn deck_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/path4.sp")
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_qwm"))
        .args(args)
        .output()
        .expect("spawn qwm");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn cli_times_the_sample_deck() {
    let deck = deck_path();
    let (stdout, stderr, ok) = run_cli(&[deck.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("4 stages"), "{stdout}");
    assert!(stdout.contains("worst arrival"), "{stdout}");
    assert!(stdout.contains("n4"), "{stdout}");
}

#[test]
fn cli_slack_and_violation() {
    let deck = deck_path();
    let d = deck.to_str().unwrap();
    let (pass_out, _, ok) = run_cli(&[d, "--required", "500"]);
    assert!(ok);
    assert!(pass_out.contains("slack +"), "{pass_out}");
    let (fail_out, _, ok) = run_cli(&[d, "--required", "10"]);
    assert!(ok, "violations report, they don't crash");
    assert!(fail_out.contains("VIOLATED"), "{fail_out}");
}

#[test]
fn cli_evaluator_selection() {
    let deck = deck_path();
    let d = deck.to_str().unwrap();
    for ev in ["qwm", "elmore", "spice"] {
        let (out, stderr, ok) = run_cli(&[d, "--evaluator", ev]);
        assert!(ok, "{ev}: {stderr}");
        assert!(out.contains(&format!("evaluator = {ev}")), "{out}");
    }
    let (_, stderr, ok) = run_cli(&[d, "--evaluator", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown evaluator"));
}

#[test]
fn cli_slew_mode_reports_output_slew() {
    let deck = deck_path();
    let (out, _, ok) = run_cli(&[deck.to_str().unwrap(), "--slew", "25"]);
    assert!(ok);
    assert!(out.contains("output slew"), "{out}");
}

#[test]
fn cli_edits_what_if_mode() {
    let deck = deck_path();
    let edits = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/path4.edits");
    let (out, stderr, ok) = run_cli(&[
        deck.to_str().unwrap(),
        "--edits",
        edits.to_str().unwrap(),
        "--evaluator",
        "elmore",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(out.contains("=== baseline ==="), "{out}");
    assert!(out.contains("=== what-if (3 edits) ==="), "{out}");
    assert!(out.contains("delta "), "{out}");
    // The stats line proves the re-run was cone-limited, not full.
    assert!(out.contains("incremental:"), "{out}");
    assert!(out.contains("dirty"), "{out}");
}

#[test]
fn cli_edits_rejects_bad_files() {
    let deck = deck_path();
    let d = deck.to_str().unwrap();
    let dir = std::env::temp_dir();
    let bad_device = dir.join("qwm_cli_bad_device.edits");
    std::fs::write(&bad_device, "resize NOPE 1u\n").unwrap();
    let (_, stderr, ok) = run_cli(&[d, "--edits", bad_device.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown device"), "{stderr}");
    let bad_verb = dir.join("qwm_cli_bad_verb.edits");
    std::fs::write(&bad_verb, "teleport n2 1f\n").unwrap();
    let (_, stderr, ok) = run_cli(&[d, "--edits", bad_verb.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown edit"), "{stderr}");
    let (_, stderr, ok) = run_cli(&[d, "--edits", "/nonexistent.edits"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn cli_errors_are_clean() {
    let (_, stderr, ok) = run_cli(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (_, stderr, ok) = run_cli(&["/nonexistent/deck.sp"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr, ok) = run_cli(&[deck_path().to_str().unwrap(), "--direction", "sideways"]);
    assert!(!ok);
    assert!(stderr.contains("unknown direction"));
}

/// `qwm serve` end to end through the real binary: it prints its bound
/// address, parses `--max-inflight`, answers a mixed session over two
/// connections, and on `shutdown` drains, prints `drained` last and
/// exits 0 with the second connection still open.
#[test]
fn cli_serve_answers_and_drains_on_shutdown() {
    use qwm::server::Client;
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    use std::time::Duration;

    /// Kills the server if an assertion fails before it exits.
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut child = Reap(
        Command::new(env!("CARGO_BIN_EXE_qwm"))
            .args(["serve", "--addr", "127.0.0.1:0", "--max-inflight", "8"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn qwm serve"),
    );
    let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read address line");
    let addr = banner
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let connect = || {
        let mut c = Client::connect(&addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60)))
            .expect("set timeout");
        c
    };
    let (mut a, mut b) = (connect(), connect());
    let deck = std::fs::read_to_string(deck_path()).expect("read deck");
    let replies = [
        ("load", a.load("drain", &deck).unwrap()),
        ("run", b.send("run drain qwm slew_ps=20").unwrap()),
        (
            "corners",
            a.send("run drain qwm corners=ss,tt,ff deadline_ms=500")
                .unwrap(),
        ),
        ("edit", b.edit("drain", "resize MN4 1.5u\n").unwrap()),
        ("report", a.send("report drain").unwrap()),
    ];
    for (what, reply) in &replies {
        assert!(reply.ok(), "{what}: {} {}", reply.status, reply.head);
    }
    assert!(b.send("shutdown").unwrap().ok(), "shutdown accepted");
    let status = child.0.wait().expect("wait for qwm serve");
    assert!(status.success(), "serve exit status {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read stdout");
    assert_eq!(
        rest.lines().last(),
        Some("drained"),
        "stdout tail: {rest:?}"
    );
}
