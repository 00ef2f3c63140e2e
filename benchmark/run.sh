#!/usr/bin/env bash
# The one command: build the program and the benchmark from source, then
# run the benchmark.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result object
#   benchmark/run.sh [--seed <n> | --seeds a,b,..] [--window-s <s>] [--out <file>] [--smoke]
#       all six workloads, untraced then traced; every metric by name
#   benchmark/run.sh compare <a.json> <b.json>
#       verdict per end-to-end metric and workload
#
# Builds go where cargo is told to put them (CARGO_TARGET_DIR), or to
# target/ and benchmark/target/ when it is not told. Nothing outside the
# checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    # A relative CARGO_TARGET_DIR means relative to where we were started.
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    qwm_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    qwm_target="$root/target"
    bench_target="$here/target"
fi

# Explicit manifests: cargo must not wander up to some other workspace
# when the program's sources are missing.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin qwm >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
    compare)
        exec "$bench_target/release/benchmark" "$@"
        ;;
    *)
        exec "$bench_target/release/benchmark" "$@" \
            --qwm "$qwm_target/release/qwm" --run-root "$bench_target"
        ;;
esac
