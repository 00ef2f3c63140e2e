#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, formatting
# and lints. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every stage opens with `stage <title>`, which prints the wall time of
# the stage before it (bash's SECONDS counter, whole seconds).
stage() {
    if [ -n "${STAGE:-}" ]; then
        echo "<== ${STAGE}: $((SECONDS - STAGE_T0))s"
    fi
    STAGE="$1"
    STAGE_T0=$SECONDS
    echo "==> ${STAGE}"
}

stage "cargo build --release (workspace + qwm-bench)"
cargo build --release
cargo build --release -p qwm-bench

# Paper gate: every table / figure bin behind EXPERIMENTS.md runs to
# completion and prints something (the numbers are still read by hand).
stage "paper bins (target/release)"
for bin in table1 table2 fig5 fig7 fig8 fig9 fig10 variation \
    accuracy_ladder solver_ablation; do
    "./target/release/$bin" > "target/paper_$bin.out" ||
        { echo "paper bin $bin failed" >&2; exit 1; }
    test -s "target/paper_$bin.out" ||
        { echo "paper bin $bin printed nothing" >&2; exit 1; }
done

stage "cargo test -q"
cargo test -q

# qwm-bench is outside default-members, so its suites (capacity deck
# parsing, replay determinism, schema/compare gate, bounded live ramps)
# need an explicit invocation.
stage "cargo test -q -p qwm-bench"
cargo test -q -p qwm-bench

# The parallel engine must behave identically when forced wide
# (QWM_THREADS=4 engines on every test) and when the harness itself is
# serialized (RUST_TEST_THREADS=1 exposes ordering assumptions).
stage "QWM_THREADS=4 cargo test -q"
QWM_THREADS=4 cargo test -q

stage "RUST_TEST_THREADS=1 cargo test -q"
RUST_TEST_THREADS=1 cargo test -q

# Failure-path gate: the fault-injection suite must also hold when the
# whole binary runs under an ambient probabilistic chaos plan (two
# fixed seeds so the streams differ but stay reproducible).
stage "QWM_FAULTS chaos plans (seeds 1, 2)"
QWM_FAULTS='seed=1;qwm.region=noconv:0.5' cargo test -q --test fault_injection
QWM_FAULTS='seed=2;qwm.region=singular:0.5;spice.adaptive=timeout:0.25' \
    cargo test -q --test fault_injection

# Observability gate, part 1: telemetry must never perturb results.
# With tracing and obs off, the CLI report is byte-identical to the
# committed golden.
stage "tracing-off golden identity (path4 CLI)"
./target/release/qwm testdata/path4.sp --slew 20 --threads 2 \
    > target/path4.cli.out 2>&1
diff -u testdata/golden/path4.cli.golden target/path4.cli.out

# Observability gate, part 2: QWM_OBS=json emits one well-formed JSON
# object per telemetry line, `qwm obs-report` accepts the stream, and
# renders it to a self-contained HTML report.
stage "QWM_OBS=json telemetry round-trip (path4 CLI)"
QWM_OBS=json ./target/release/qwm testdata/path4.sp --slew 20 --threads 2 \
    2>/dev/null | grep '^{' > target/path4.obs.jsonl
test -s target/path4.obs.jsonl
./target/release/qwm obs-report target/path4.obs.jsonl --check-only
./target/release/qwm obs-report target/path4.obs.jsonl \
    --out target/path4.obs.html --title "path4 telemetry"
test -s target/path4.obs.html

# Capacity gate: a bounded ramp (tiny rps bounds, short rounds, its own
# ephemeral-port server) must converge on both stock workload decks,
# emit a BENCH_capacity_server.json that self-compares clean, and
# render a self-contained HTML capacity report. The real discovery run
# (stock deck bounds, minutes of wall clock) stays behind
# QWM_CAPACITY_FULL=1.
stage "capacity smoke (server_capacity ramp + compare + HTML)"
rm -f target/capacity_smoke.out
./target/release/qwm serve --addr 127.0.0.1:0 --max-inflight 8 \
    > target/capacity_smoke.out 2>&1 &
CAP_PID=$!
CAP_ADDR=""
for _ in $(seq 1 100); do
    CAP_ADDR=$(sed -n 's/^listening on //p' target/capacity_smoke.out)
    [ -n "$CAP_ADDR" ] && break
    sleep 0.1
done
if [ -z "$CAP_ADDR" ]; then
    echo "capacity server never reported its address" >&2
    kill "$CAP_PID" 2>/dev/null || true
    exit 1
fi
if [ "${QWM_CAPACITY_FULL:-0}" = "1" ]; then
    ./target/release/server_capacity --addr "$CAP_ADDR" \
        --workload testdata/workloads/heavy_run.deck \
        --workload testdata/workloads/mixed.deck \
        --shutdown --out BENCH_capacity_server.json
else
    ./target/release/server_capacity --addr "$CAP_ADDR" \
        --workload testdata/workloads/heavy_run.deck \
        --workload testdata/workloads/mixed.deck \
        --initial-rps 5 --increment-rps 5 --max-rps 20 \
        --round-ms 300 --sessions 2 --connections 2 \
        --shutdown --out BENCH_capacity_server.json
fi
wait "$CAP_PID"
grep -q '^drained$' target/capacity_smoke.out
grep -q '"schema": "qwm.capacity.v1"' BENCH_capacity_server.json
grep -q '"max_sustainable_rps"' BENCH_capacity_server.json
grep -q '"wait_p50_us"' BENCH_capacity_server.json
# The artifact must self-compare clean (the cross-PR gate's pass path;
# its fail path is pinned by the qwm-bench test suite), and the planned
# op log must be deterministic (the replay contract, end to end).
./target/release/server_capacity compare \
    BENCH_capacity_server.json BENCH_capacity_server.json
# Cross-PR capacity gate: the fresh smoke artifact must not regress
# more than 75% against the committed baseline (the smoke bounds are
# tiny and time-boxed, so the generous margin absorbs machine noise
# while still catching order-of-magnitude collapses).
./target/release/server_capacity compare \
    testdata/baseline/BENCH_capacity_server.json BENCH_capacity_server.json \
    --max-regression-pct 75
./target/release/server_capacity plan \
    --workload testdata/workloads/mixed.deck --rps 20 > target/capacity_plan.a
./target/release/server_capacity plan \
    --workload testdata/workloads/mixed.deck --rps 20 > target/capacity_plan.b
diff target/capacity_plan.a target/capacity_plan.b
./target/release/qwm capacity-report BENCH_capacity_server.json \
    --out target/capacity_report.html --title "capacity smoke"
test -s target/capacity_report.html

# Benchmark gate: benchmark/ is a workspace of its own, so nothing above
# compiles it. The smoke run builds it against this tree's public API
# and runs all six workloads with 1 s windows (correctness and counts
# only; non-zero exit on any failed op or report mismatch).
stage "benchmark smoke (benchmark/run.sh --smoke)"
bash benchmark/run.sh --smoke > target/benchmark_smoke.out
tail -n 1 target/benchmark_smoke.out

# The benchmark's own tests, also outside the root workspace: its deck
# round trips run this tree's parse → partition → report path on
# generated designs and require the golden report byte for byte.
stage "cargo test -q --manifest-path benchmark/Cargo.toml"
cargo test -q --manifest-path benchmark/Cargo.toml

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Only rustdoc resolves intra-doc links: a doc comment that still links
# to a deleted or private item compiles and lints clean.
stage "cargo doc --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

stage "all checks passed"
