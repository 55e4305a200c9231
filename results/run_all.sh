#!/bin/bash
# Regenerates every table and figure of the paper at laptop scale.
# Run from the repo root after `cargo build --release --workspace`.
#
# Every distributed run also appends one `tc-run-v2` JSON line to a
# single consolidated report (results/report.jsonl by default). Each
# line carries per-part timing statistics over TRIES measured repeats
# (WARMUP discarded runs first) for the tables, and the deterministic
# counters, which can be held exact against a previous campaign:
#
#   tricount benchdiff results/report.prev.jsonl results/report.jsonl
#
# The legacy per-table .txt files are still produced from the binaries'
# stdout via tee, exactly as before.
set -u
BIN=target/release
RANKS="16,25,36,49,64,81,100,121,144,169"   # the paper's exact sweep
TRIES="${TRIES:-5}"
WARMUP="${WARMUP:-1}"
REPEAT="--tries $TRIES --warmup $WARMUP"
cd "$(dirname "$0")/.."

REPORT="${REPORT:-results/report.jsonl}"
rm -f "$REPORT"
echo "consolidated run report: $REPORT"

echo "=== Table 1 ==="
$BIN/table1_datasets --scale 15 $REPEAT | tee results/table1.txt

echo "=== Table 2 + Figure 1 (4 datasets, paper rank sweep) ==="
for ds in g500-s18 g500-s19 twitter-like-15 friendster-like-16; do
  $BIN/table2_strong_scaling --preset $ds --ranks $RANKS $REPEAT --json "$REPORT" | tee -a results/table2.txt
  $BIN/fig1_efficiency      --preset $ds --ranks $RANKS $REPEAT --json "$REPORT" | tee -a results/fig1.txt
done

echo "=== Figure 2 / Figure 3 (largest dataset) ==="
$BIN/fig2_op_rate       --preset g500-s19 --ranks $RANKS $REPEAT --json "$REPORT" | tee results/fig2.txt
$BIN/fig3_comm_fraction --preset g500-s19 --ranks $RANKS $REPEAT --json "$REPORT" | tee results/fig3.txt

echo "=== Table 3 / Table 4 ==="
$BIN/table3_load_imbalance --preset g500-s19 $REPEAT --json "$REPORT" | tee results/table3.txt
$BIN/table4_task_counts    --preset g500-s19 $REPEAT --json "$REPORT" | tee results/table4.txt

echo "=== Ablations (sec 7.3) ==="
$BIN/ablation_optimizations --preset g500-s18 $REPEAT --json "$REPORT" | tee results/ablation.txt
$BIN/ablation_summa --preset g500-s17 --ranks 16,64 $REPEAT --json "$REPORT" | tee results/ablation_summa.txt

echo "=== Table 5 / Table 6 ==="
$BIN/table5_vs_wedge --scale 14 --ranks 64 $REPEAT --json "$REPORT" | tee results/table5.txt
$BIN/table6_vs_1d    --preset twitter-like-14 --ranks 64 $REPEAT --json "$REPORT" | tee results/table6.txt

echo "ALL EXPERIMENTS DONE ($(wc -l < "$REPORT") runs in $REPORT)"

# Extension experiments (appended; also runnable standalone)
# $BIN/ablation_summa --preset g500-s17 --ranks 16,64 $REPEAT --json "$REPORT"
# $BIN/weak_scaling --scale 18 $REPEAT --json "$REPORT"
