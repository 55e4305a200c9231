#!/usr/bin/env bash
# The repo benchmark, one command: builds `tricount` and the harness in
# release mode, generates inputs from the seed, runs the workloads,
# checks every result against an oracle and prints every metric.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#
# The last stdout line of each workload is the result object the
# benchmark contract (BENCHMARK.json) asks for. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "benchmark/run.sh: the tricount sources (Cargo.toml, crates/) are not here; nothing to measure" >&2
    exit 2
fi

# One target directory for both workspaces: the driver's if it set one,
# the repo's own `target/` otherwise.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet -p tc-cli --bin tricount >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export TRICOUNT_BIN="$CARGO_TARGET_DIR/release/tricount"
export TC_PROBE_BIN="$CARGO_TARGET_DIR/release/tc-benchmark-probe"
exec "$CARGO_TARGET_DIR/release/tc-benchmark" "$@"
