//! Kill/restart durability tests for `qwm serve --store`.
//!
//! Contracts under test:
//!
//! * **Bitwise warm restart** — a server SIGKILLed mid-session and
//!   restarted against the same store serves `report` byte-identically
//!   to the moment of death, and its first `run` answers through the
//!   *incremental* path (`full_run=false`, committed book imported, no
//!   device re-characterization) with a payload byte-identical to a
//!   never-restarted reference server's.
//! * **Recovery is structural, not heuristic** — a store whose log is
//!   corrupt beyond the torn-tail rule refuses to boot with a
//!   structured error rather than silently dropping committed work.
//!
//! Each test spawns the real `qwm` binary so the kill is a genuine
//! SIGKILL against a separate process, not a simulated drop.

use qwm::server::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const DECK: &str = include_str!("../testdata/path4.sp");
const EDIT2: &str = "resize MN4 1.5u\nresize MN2 1.4u\n";

/// The first edit batch: 98 edits that walk every device of the deck
/// through widths it never revisits, with a load edit every tenth line.
/// A long script is the point — a restored engine rebuilds its baked
/// fanout loads from the snapshotted netlist, a never-killed one has
/// been editing them in place, and the two used to part in the last bit
/// somewhere past a dozen edits.
fn edit1() -> String {
    const DEVICES: [&str; 12] = [
        "MN1a", "MN1b", "MP1a", "MP1b", "MN2", "MP2", "MN3a", "MN3b", "MP3a", "MP3b", "MN4", "MP4",
    ];
    (0..98)
        .map(|i| match i % 10 {
            9 => format!("load n{} {}f\n", 1 + i % 4, 12 + i),
            _ => format!(
                "resize {} {:.3}u\n",
                DEVICES[i % 12],
                0.6 + 0.013 * i as f64
            ),
        })
        .collect()
}

struct Serve {
    child: Child,
    addr: String,
}

impl Serve {
    /// Spawns `qwm serve --store <dir>` and waits for its address line.
    fn start(store: &Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qwm"))
            .args(["serve", "--addr", "127.0.0.1:0", "--obs", "json"])
            .arg("--store")
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn qwm serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("server prints its address")
            .expect("read address line");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {first:?}"))
            .to_string();
        Serve { child, addr }
    }

    fn connect(&self) -> Client {
        let mut c = Client::connect(&self.addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        c
    }

    /// SIGKILL — no drain, no flush beyond what each append already did.
    fn kill(mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qwm-restart-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

/// `load; run; edit; run; edit` (100 edits in all) — the second batch is
/// committed to the store but not yet re-timed when the kill lands.
fn drive_to_kill_point(c: &mut Client, sid: &str) -> (String, String) {
    assert!(c.load(sid, DECK).unwrap().ok(), "load");
    let r1 = c.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r1.ok(), "first run: {} {}", r1.status, r1.head);
    assert!(c.edit(sid, &edit1()).unwrap().ok(), "edit 1");
    let r2 = c.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r2.ok(), "second run: {} {}", r2.status, r2.head);
    assert!(c.edit(sid, EDIT2).unwrap().ok(), "edit 2");
    (r1.body().to_string(), r2.body().to_string())
}

#[test]
fn sigkill_then_restart_is_bitwise_and_incremental() {
    let store = fresh_dir("bitwise");
    let sid = "d";

    // Reference: one server that is never killed runs the whole script.
    let reference = Serve::start(&fresh_dir("bitwise-ref"));
    let mut rc = reference.connect();
    let (ref_r1, ref_r2) = drive_to_kill_point(&mut rc, sid);
    let ref_r3 = rc.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(ref_r3.ok(), "reference third run");
    let ref_r3 = ref_r3.body().to_string();
    reference.kill();

    // Victim: same script up to the kill point, then SIGKILL.
    let victim = Serve::start(&store);
    let mut vc = victim.connect();
    let (v_r1, v_r2) = drive_to_kill_point(&mut vc, sid);
    assert_eq!(v_r1, ref_r1, "pre-kill first runs agree");
    assert_eq!(v_r2, ref_r2, "pre-kill second runs agree");
    victim.kill();

    // Restart against the same store: the session must be back, warm.
    let revived = Serve::start(&store);
    let mut c = revived.connect();

    // `report` replays the last committed report byte-for-byte.
    let rep = c.send(&format!("report {sid}")).unwrap();
    assert!(rep.ok(), "restored report: {} {}", rep.status, rep.head);
    assert_eq!(rep.body(), ref_r2, "restored report is byte-identical");

    // The store acknowledges the restore, and the restored process
    // never re-characterized a device table (they came from the log).
    let status = c.send("store status").unwrap();
    assert!(status.ok(), "store status: {}", status.head);
    assert!(
        status.head.contains("restores=1"),
        "one restored session: {}",
        status.head
    );
    assert!(
        status.head.contains("characterizations=0"),
        "tables restored, not re-characterized: {}",
        status.head
    );

    // First query re-times only the replayed edit's dirty cone and
    // matches the never-restarted server bitwise — `evaluations` line
    // included, which is the whole point of importing the book.
    let r3 = c.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r3.ok(), "restored run: {} {}", r3.status, r3.head);
    assert_eq!(r3.body(), ref_r3, "restored first run is byte-identical");
    let stats = c.send(&format!("stats {sid}")).unwrap();
    assert!(stats.ok(), "stats: {}", stats.head);
    assert!(
        stats.head.contains("full_run=false"),
        "first restored query is incremental, not cold: {}",
        stats.head
    );

    // The restored process exposes the store gauges over `metrics prom`.
    let prom = c.send("metrics prom").unwrap();
    assert!(prom.ok(), "metrics prom: {}", prom.head);
    for gauge in [
        "qwm_store_bytes",
        "qwm_store_records",
        "qwm_store_restores",
        "qwm_server_mem_rss_bytes",
    ] {
        assert!(prom.body().contains(gauge), "missing {gauge} in prom body");
    }
    revived.kill();
}

#[test]
fn second_restart_still_agrees_after_more_commits() {
    // Durability must compose: kill, restart, commit more work, kill
    // again, restart again — the story survives arbitrary generations.
    let store = fresh_dir("generations");
    let sid = "g";

    let a = Serve::start(&store);
    let mut c = a.connect();
    let (_r1, _r2) = drive_to_kill_point(&mut c, sid);
    a.kill();

    let b = Serve::start(&store);
    let mut c = b.connect();
    let r3 = c.send(&format!("run {sid} qwm slew_ps=20")).unwrap();
    assert!(r3.ok(), "gen-2 run: {} {}", r3.status, r3.head);
    let r3 = r3.body().to_string();
    b.kill();

    let d = Serve::start(&store);
    let mut c = d.connect();
    let rep = c.send(&format!("report {sid}")).unwrap();
    assert!(rep.ok(), "gen-3 report: {}", rep.head);
    assert_eq!(rep.body(), r3, "third generation still byte-identical");
    let status = c.send("store status").unwrap();
    assert!(status.head.contains("restores=1"), "{}", status.head);
    d.kill();
}

#[test]
fn corrupt_store_refuses_to_boot_with_structured_error() {
    let store = fresh_dir("corrupt");
    std::fs::write(store.join("qwm.store"), b"NOTASTORE garbage bytes").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_qwm"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .arg("--store")
        .arg(&store)
        .output()
        .expect("run qwm serve");
    assert!(!out.status.success(), "corrupt store must refuse to boot");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("store open"),
        "structured store error, got: {err}"
    );
}

#[test]
fn closed_sessions_stay_closed_across_restart() {
    let store = fresh_dir("closed");
    let a = Serve::start(&store);
    let mut c = a.connect();
    drive_to_kill_point(&mut c, "keep");
    drive_to_kill_point(&mut c, "gone");
    let r = c.send("close gone").unwrap();
    assert!(r.ok() && r.head.contains("existed=true"), "{}", r.head);
    a.kill();

    let b = Serve::start(&store);
    let mut c = b.connect();
    assert!(c.send("report keep").unwrap().ok(), "kept session restored");
    let gone = c.send("report gone").unwrap();
    assert_eq!(gone.status, 404, "closed session is not resurrected");
    let status = c.send("store status").unwrap();
    assert!(status.head.contains("restores=1"), "{}", status.head);
    b.kill();
}
