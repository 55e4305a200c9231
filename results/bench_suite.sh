#!/bin/bash
# Reference bench suite at CI scale: a fast, deterministic subset of
# the full campaign (run_all.sh) that exercises every algorithm family
# on small graphs and writes one consolidated `tc-run-v2` JSON-lines
# report (per-part timing statistics over TRIES measured repeats).
#
#   results/bench_suite.sh [OUT.jsonl]        # default: results/bench_suite.jsonl
#   TRIES=5 WARMUP=1                          # repeat knobs (env overrides)
#
# The checked-in BENCH_BASELINE.json was produced by this script; CI
# re-runs it and diffs with
#
#   tricount benchdiff BENCH_BASELINE.json OUT.jsonl
#
# which compares the deterministic counters — op and probe counts,
# tasks, bytes on the wire, triangle counts — that must be bit-identical
# run to run for a fixed seed. This suite owns exactness for the paths
# benchmark/run.sh does not run (SUMMA, the 1D baselines, the
# ablations); the timings in the report are carried for a reader and
# judged by nobody — wall time is judged on alternating
# benchmark/run.sh pairs. To refresh the baseline after an intentional
# algorithmic change, see EXPERIMENTS.md.
set -eu
BIN=target/release
cd "$(dirname "$0")/.."
OUT="${1:-results/bench_suite.jsonl}"
TRIES="${TRIES:-5}"
WARMUP="${WARMUP:-1}"
REPEAT="--tries $TRIES --warmup $WARMUP"
rm -f "$OUT"

# 2D Cannon: strong scaling across three grid sizes on two graph
# families (power-law RMAT and the flatter twitter-like mix).
$BIN/table2_strong_scaling --preset g500-s10       --ranks 4,16,64 $REPEAT --json "$OUT" > /dev/null
$BIN/table2_strong_scaling --preset twitter-like-9 --ranks 4,16    $REPEAT --json "$OUT" > /dev/null

# SUMMA vs Cannon on the same instance (non-square grids + panels).
$BIN/ablation_summa --preset g500-s9 --ranks 16 $REPEAT --json "$OUT" > /dev/null

# Optimization ablation: every TcConfig variant on one instance.
$BIN/ablation_optimizations --preset g500-s9 --ranks 16 $REPEAT --json "$OUT" > /dev/null

# All four 1D baselines + the 2D algorithm head-to-head.
$BIN/table6_vs_1d --preset twitter-like-9 --ranks 16 $REPEAT --json "$OUT" > /dev/null

# Wedge-check comparison (exercises the 2-core peel path).
$BIN/table5_vs_wedge --scale 9 --ranks 16 $REPEAT --json "$OUT" > /dev/null

echo "bench suite: $(wc -l < "$OUT") runs -> $OUT"
