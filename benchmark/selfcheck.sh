#!/usr/bin/env bash
# Runs the full benchmark twice on the same build — both passes of every
# workload — and fails if the two sets of runs disagree: any end-to-end
# metric worse in the second run by more than its bound in
# BENCHMARK.json, or any deterministic count different at all. Prints
# the observed difference next to each bound.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "usage: benchmark/selfcheck.sh [--seed N] [--seconds S]" >&2; exit 2 ;;
    esac
done

for set in first second; do
    rm -rf "benchmark/out/selfcheck-$set"
    for trace in 0 1; do
        echo "== $set set of runs, --trace $trace" >&2
        benchmark/run.sh --seed "$seed" --seconds "$seconds" --trace "$trace" >/dev/null
    done
    mkdir -p "benchmark/out/selfcheck-$set"
    mv benchmark/out/*-seed"$seed"-trace[01].json "benchmark/out/selfcheck-$set/"
done

python3 - "$seed" <<'EOF'
import glob, json, os, sys

seed = sys.argv[1]
contract = json.load(open("BENCHMARK.json"))
# Counts the program and the probes must reproduce bit for bit.
EXACT = [
    "core.count.tasks", "core.count.probes", "core.count.lookups",
    "core.preprocess.msgs", "core.preprocess.bytes", "core.cannon.msgs", "core.cannon.bytes",
    "serve.batches_applied", "serve.batch_size_mean", "serve.delta_intersections",
]

def load(which, workload, trace):
    path = f"benchmark/out/selfcheck-{which}/{workload}-seed{seed}-trace{trace}.json"
    run = json.load(open(path))
    if not run["correct"]:
        sys.exit(f"{path}: {run['failed']} of {run['attempted']} operations failed")
    return run["metrics"]

bad = 0
for w in (w["name"] for w in contract["workloads"]):
    first, second = load("first", w, 0), load("second", w, 0)
    print(f"## {w}")
    print(f"{'metric':<18} {'unit':>5} {'first':>16} {'second':>16} {'worse by':>9} {'bound':>7} {'spread':>8}")
    for m in contract["end_to_end"]:
        a, b = first[m["name"]], second[m["name"]]
        change = (b["value"] - a["value"]) / a["value"]
        worse = change if m["better"] == "lower" else -change
        verdict = "" if worse <= m["bound"] else "  <-- beyond the bound"
        bad += bool(verdict)
        print(f"{m['name']:<18} {m['unit']:>5} {a['value']:>16.6f} {b['value']:>16.6f} "
              f"{100 * worse:>8.2f}% {100 * m['bound']:>6.0f}% {100 * max(a['spread'], b['spread']):>7.2f}%{verdict}")
    first, second = load("first", w, 1), load("second", w, 1)
    for name in EXACT:
        a, b = first[name]["value"], second[name]["value"]
        verdict = "" if a == b else "  <-- differs"
        bad += bool(verdict)
        print(f"{name:<34} {a:>16.0f} {b:>16.0f}{verdict}")
if bad:
    sys.exit(f"selfcheck: {bad} disagreement(s) between two sets of runs of the same build")
print("selfcheck: two sets of runs of the same build agree")
EOF
