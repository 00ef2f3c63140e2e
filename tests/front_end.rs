//! Front-end pin: what deck → parse → partition → stage graph → engine
//! build produces, structure and bits, plus the exact text of every
//! parser error.
//!
//! The structural fingerprint lists, per stage, its nodes (name, kind,
//! baked `load_cap` bits, `node_cap` bits at two voltages, incident
//! adjacency), edges, inputs, outputs and the partition's aligned
//! `input_nets` / `output_nets` / `device_indices`; then each net's
//! driver and users and the topological order. Small designs are pinned
//! line by line; the seeded DAGs by line count and an FNV-1a hash of the
//! full text (a mismatch writes the full text under the test's scratch
//! directory for diffing).
//!
//! Every design is written to a deck by a small in-test writer and
//! parsed back, and the round trip must reproduce the netlist exactly:
//! net ids and names, devices, capacitance bits, primary I/O order.
//!
//! An allocation pin rides along: a counting global allocator (counting
//! per thread, so the other tests here cannot pollute the window) bounds
//! what parsing costs per device and what an engine build — partition,
//! stage graph, baked loads — costs per stage on a seeded 2 400-stage
//! DAG. The counts are deterministic.
//!
//! Re-bless an intended change with:
//!
//! ```text
//! QWM_BLESS=1 cargo test --test front_end
//! ```

use qwm::circuit::cells::decoder_tree_netlist;
use qwm::circuit::netlist::{NetId, Netlist};
use qwm::circuit::parser::parse_netlist;
use qwm::circuit::stage::{DeviceKind, InputId, NodeId};
use qwm::circuit::waveform::TransitionKind;
use qwm::device::{analytic_models, ModelSet, Technology};
use qwm::sta::graph::random_dag_netlist;
use qwm::sta::StaEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// Counts the calling thread's allocations (alloc / alloc_zeroed /
/// realloc) while delegating the work to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations the calling thread made inside it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/golden/front_end.golden"
);
const GOLDEN_ERRORS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/golden/parse_errors.golden"
);

/// Seeds of the 300-stage DAGs.
const DAG_SEEDS: [u64; 3] = [7, 1009, 65_537];
const DAG_STAGES: usize = 300;

/// Compares `actual` with the golden file, or rewrites it under
/// `QWM_BLESS=1`.
fn check_golden(path: &str, actual: &str) {
    if std::env::var_os("QWM_BLESS").is_some() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path).expect("read golden (bless with QWM_BLESS=1)");
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{path} differs from the build, first at line {}:\n  golden: {:?}\n  actual: {:?}",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Writes `nl` as a deck that parses back to the same netlist.
///
/// The parser creates nets in first-mention order, so before each card
/// any primary input whose id precedes the card's first new net is
/// declared with `.input` (generators create their inputs early).
/// Remaining inputs are declared after the cards, outputs last.
fn deck_text(nl: &Netlist) -> String {
    let mut out = String::from("* written by tests/front_end.rs\n");
    let mut created = 2; // vdd, gnd
    let mut declared = vec![false; nl.net_count()];
    let is_pi = |n: usize| nl.primary_inputs().contains(&NetId(n));
    let mut touch = |out: &mut String, created: &mut usize, nets: &[NetId]| {
        for &net in nets {
            while *created < net.0 && is_pi(*created) {
                let _ = writeln!(out, ".input {}", nl.net_name(NetId(*created)));
                declared[*created] = true;
                *created += 1;
            }
            if net.0 == *created {
                *created += 1;
            }
        }
    };
    for d in nl.devices() {
        let (src, snk) = (nl.net_name(d.src), nl.net_name(d.snk));
        match d.kind {
            DeviceKind::Wire => {
                touch(&mut out, &mut created, &[d.src, d.snk]);
                let _ = writeln!(
                    out,
                    "{} {src} {snk} W={:e} L={:e}",
                    d.name, d.geom.w, d.geom.l
                );
            }
            DeviceKind::Nmos | DeviceKind::Pmos => {
                let gate = d.gate.expect("transistor has a gate");
                touch(&mut out, &mut created, &[d.src, gate, d.snk]);
                let (body, model) = if d.kind == DeviceKind::Nmos {
                    ("0", "nmos")
                } else {
                    ("vdd", "pmos")
                };
                let _ = writeln!(
                    out,
                    "{} {src} {} {snk} {body} {model} W={:e} L={:e}",
                    d.name,
                    nl.net_name(gate),
                    d.geom.w,
                    d.geom.l
                );
            }
        }
    }
    for i in 0..nl.net_count() {
        let c = nl.cap(NetId(i));
        if c != 0.0 {
            touch(&mut out, &mut created, &[NetId(i)]);
            let _ = writeln!(out, "C{i} {} 0 {c:e}", nl.net_name(NetId(i)));
        }
    }
    for &pi in nl.primary_inputs() {
        if !declared[pi.0] {
            let _ = writeln!(out, ".input {}", nl.net_name(pi));
        }
    }
    for &po in nl.primary_outputs() {
        let _ = writeln!(out, ".output {}", nl.net_name(po));
    }
    out.push_str(".end\n");
    out
}

/// Asserts two netlists are the same: net ids and names, devices,
/// capacitance bits, primary I/O in order.
fn assert_same_netlist(what: &str, a: &Netlist, b: &Netlist) {
    assert_eq!(a.net_count(), b.net_count(), "{what}: net count");
    for i in 0..a.net_count() {
        let n = NetId(i);
        assert_eq!(a.net_name(n), b.net_name(n), "{what}: name of net {i}");
        assert_eq!(
            a.cap(n).to_bits(),
            b.cap(n).to_bits(),
            "{what}: cap of {}",
            a.net_name(n)
        );
    }
    assert_eq!(a.devices().len(), b.devices().len(), "{what}: device count");
    for (i, (da, db)) in a.devices().iter().zip(b.devices()).enumerate() {
        let key = |d: &qwm::circuit::NetDevice| {
            (
                d.name.to_string(),
                d.kind,
                d.gate,
                d.src,
                d.snk,
                format!("{:?}", d.geom),
            )
        };
        assert_eq!(key(da), key(db), "{what}: device {i}");
    }
    assert_eq!(a.primary_inputs(), b.primary_inputs(), "{what}: inputs");
    assert_eq!(a.primary_outputs(), b.primary_outputs(), "{what}: outputs");
}

/// Builds the engine over `nl` and renders its structural fingerprint.
fn fingerprint(nl: Netlist, models: &ModelSet) -> String {
    let vmid = 0.5 * models.tech().vdd;
    let engine = StaEngine::new(nl, models, TransitionKind::Fall).expect("engine builds");
    let (nl, g) = (engine.netlist(), engine.graph());
    let names = |nets: &[NetId]| -> String {
        nets.iter()
            .map(|&n| nl.net_name(n))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "nets {} devices {} stages {}",
        nl.net_count(),
        nl.devices().len(),
        g.len()
    );
    for (i, p) in g.partitions().iter().enumerate() {
        let s = &p.stage;
        let _ = writeln!(out, "stage {i} {}", s.name());
        for id in 0..s.node_count() {
            let n = NodeId(id);
            let incident: Vec<String> = s
                .incident(n)
                .iter()
                .map(|(e, m)| format!("{}>{}", e.0, m.0))
                .collect();
            let _ = writeln!(
                out,
                "  node {id} {} {:?} load={:016x} cap0={:016x} capm={:016x} inc=[{}]",
                s.node_name(n),
                s.node(n).kind,
                s.node(n).load_cap.to_bits(),
                s.node_cap(n, models, 0.0).to_bits(),
                s.node_cap(n, models, vmid).to_bits(),
                incident.join(" ")
            );
        }
        for (e, edge) in s.edges().iter().enumerate() {
            let _ = writeln!(
                out,
                "  edge {e} {:?} {}>{} input={:?} gate_node={:?} {:?}",
                edge.kind,
                edge.src.0,
                edge.snk.0,
                edge.input.map(|x| x.0),
                edge.gate_node.map(|x| x.0),
                edge.geom
            );
        }
        for k in 0..s.inputs().len() {
            let id = InputId(k);
            let edges: Vec<usize> = s.input_edges(id).iter().map(|e| e.0).collect();
            let _ = writeln!(
                out,
                "  input {k} {} edges={edges:?} cap={:016x}",
                s.input_name(id),
                s.input_cap(id, models).to_bits()
            );
        }
        let outputs: Vec<usize> = s.outputs().iter().map(|o| o.0).collect();
        let _ = writeln!(out, "  outputs {outputs:?}");
        let _ = writeln!(out, "  input_nets [{}]", names(&p.input_nets));
        let _ = writeln!(out, "  output_nets [{}]", names(&p.output_nets));
        let _ = writeln!(out, "  devices {:?}", p.device_indices);
    }
    for i in 0..nl.net_count() {
        let net = NetId(i);
        let (driver, users) = (g.driver_of(net), g.users_of(net));
        if driver.is_some() || !users.is_empty() {
            let users: Vec<usize> = users.iter().map(|u| u.0).collect();
            let _ = writeln!(
                out,
                "net {} driver={:?} users={users:?}",
                nl.net_name(net),
                driver.map(|d| d.0)
            );
        }
    }
    for d in 0..nl.devices().len() {
        let s = g.stage_of_device(d).map(|s| s.0);
        let _ = write!(out, "{}{s:?}", if d == 0 { "device_stage " } else { " " });
    }
    out.push('\n');
    let topo: Vec<usize> = g.topo_order().iter().map(|s| s.0).collect();
    let _ = writeln!(out, "topo {topo:?}");
    out
}

/// Writes `nl` as a deck, parses it back, requires the same netlist and
/// returns the parsed one.
fn round_trip(what: &str, nl: &Netlist) -> Netlist {
    let deck = deck_text(nl);
    let parsed = parse_netlist(&deck).unwrap_or_else(|e| panic!("{what}: deck parses: {e}"));
    assert_same_netlist(what, nl, &parsed);
    parsed
}

#[test]
fn front_end_structure_matches_golden() {
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let mut golden = String::new();

    let path4 = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/path4.sp"))
        .expect("read path4.sp");
    let path4 = parse_netlist(&path4).expect("path4 parses");
    let path4 = round_trip("path4", &path4);
    let _ = writeln!(golden, "# path4.sp");
    golden.push_str(&fingerprint(path4, &models));

    let tree = decoder_tree_netlist(&tech, 3, 50e-6, 10e-15).expect("tree");
    let tree = round_trip("tree3", &tree);
    let _ = writeln!(golden, "# decoder_tree_netlist levels=3");
    golden.push_str(&fingerprint(tree, &models));

    for seed in DAG_SEEDS {
        let what = format!("dag{DAG_STAGES}_seed{seed}");
        let dag = round_trip(&what, &random_dag_netlist(&tech, DAG_STAGES, seed));
        let text = fingerprint(dag, &models);
        let _ = writeln!(
            golden,
            "# random_dag_netlist stages={DAG_STAGES} seed={seed}: lines={} fnv={:016x}",
            text.lines().count(),
            fnv1a(&text)
        );
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{what}.txt"));
        let _ = std::fs::write(dump, &text);
    }
    check_golden(GOLDEN, &golden);
}

/// Malformed decks, one per error path of the parser. The serving
/// layer quotes these messages in its `400` replies to `load`.
const MALFORMED: &[&str] = &[
    "M1 a b\n",
    "M1 \t a\tb  c d nmos\n",
    "MN1 out a 0 0 nmos W=1u AD=1p\n",
    "MN1 out a 0 0 bjt W=1u L=1u\n",
    "MN1 out a 0 0 BJT W=1u L=1u\n",
    "MN1 out a out 0 nmos W=1u L=1u\n",
    "M1 0 g gnd 0 nmos W=1u L=1u\n",
    "MN1 out a 0 0 nmos W=0 L=0.35u\n",
    "MN1 out a 0 0 nmos W=-1u L=0.35u\n",
    "MN1 out a 0 0 nmos W=1u L=1e999\n",
    "MN1 out a 0 0 nmos W=1X L=1u\n",
    "MN1 out a 0 0 nmos w=1u L=1e308k\n",
    "MN1 out a 0 0 nmos W=1u L=1u W=-2u\n",
    "W1 a\n",
    "W1 a b W=0.6u\n",
    "W1 a b W=0.6u AD=1p\n",
    "W1 a b W=0.6u L=0\n",
    "W1 a a W=0.6u L=40u\n",
    "W1 vdd! VDD W=0.6u L=1u\n",
    "C1\n",
    "C1 a b 1f\n",
    "* ok\nC1 out 0 bogus\n",
    "C1 out 0 -5f\n",
    "C1 a 0 1f\nc1 b 0 2f\n",
    "X1 whatever\n",
    "   X1 whatever\n",
    "πβγ δ ε\n",
    "Mé a b c d bjt W=1u L=1u\n",
    "MN1 out a 0 0 nmos W=1u L=1u\nmn1 z out 0 0 nmos W=1u L=1u\n",
    "\tMN1 out a 0 0 nmos W=1u L=1u\n.input a\nMN1 x y 0 0 nmos W=1u L=1u\n",
    "MN1 out a 0 0 nmos W=1u L=1u ; fine\nW1 out x W=1u L=nan\n",
];

#[test]
fn parser_errors_match_golden() {
    let mut golden = String::new();
    for deck in MALFORMED {
        let err = parse_netlist(deck).expect_err("malformed deck is rejected");
        let _ = writeln!(golden, "{deck:?}\n  => {err}");
    }
    check_golden(GOLDEN_ERRORS, &golden);
}

/// Allocation budget of the front end on a seeded 2 400-stage DAG
/// (≈ 6.7 k devices): parse allocations per device, engine-build
/// allocations per stage. Each bound is the measured count plus 10 %.
#[test]
fn front_end_allocations_stay_within_budget() {
    const PARSE_PER_DEVICE: f64 = 1.015 * 1.1;
    const BUILD_PER_STAGE: f64 = 10.013 * 1.1;
    let tech = Technology::cmosp35();
    let models = analytic_models(&tech);
    let deck = deck_text(&random_dag_netlist(&tech, 2400, 11));
    let (nl, parse) = allocations(|| parse_netlist(&deck).expect("deck parses"));
    let devices = nl.devices().len() as f64;
    let (engine, build) =
        allocations(|| StaEngine::new(nl, &models, TransitionKind::Fall).expect("engine builds"));
    let stages = engine.graph().len() as f64;
    let (parse, build) = (parse as f64 / devices, build as f64 / stages);
    eprintln!("parse {parse:.3} allocations per device, build {build:.3} per stage");
    assert!(
        parse <= PARSE_PER_DEVICE,
        "parse_netlist: {parse:.3} allocations per device, budget {PARSE_PER_DEVICE}"
    );
    assert!(
        build <= BUILD_PER_STAGE,
        "StaEngine::new: {build:.3} allocations per stage, budget {BUILD_PER_STAGE}"
    );
}
