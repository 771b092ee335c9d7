#!/bin/sh
# Paper-scale sweeps (REPRO_FULL=1), one figure at a time so partial
# progress is preserved.  Logs to benchmarks/out/full_run.log.
#
# Set REPRO_JOBS=N to run each figure's cells across N worker processes
# on the parallel fabric (results are byte-identical to a serial run);
# REPRO_PROGRESS=1 adds ordered per-cell progress lines to the log.
# Exits non-zero at the first failing figure -- a failed cell raises a
# structured SweepError rather than silently truncating a figure.
set -u
cd /root/repo
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

LOG=benchmarks/out/full_run.log
mkdir -p benchmarks/out
: "${REPRO_JOBS:=1}"
export REPRO_JOBS

echo "=== FULL RUN start $(date +%T) jobs=${REPRO_JOBS} ===" >> "$LOG"
summary=""
for f in fig6_push_vs_pull fig11_selectivity fig10_concurrency fig12_selectivity_conc \
         fig13_scalefactor fig14_similarity fig15_plans fig16_mix; do
  echo "=== $f start $(date +%T) ===" >> "$LOG"
  t0=$(date +%s)
  REPRO_FULL=1 python -m pytest "benchmarks/bench_${f}.py" --benchmark-only \
      -p no:cacheprovider -q >> "$LOG" 2>&1
  rc=$?
  dt=$(( $(date +%s) - t0 ))
  echo "=== $f done $(date +%T) rc=$rc wall=${dt}s ===" >> "$LOG"
  summary="${summary}$(printf '%-24s %6ss  rc=%s' "$f" "$dt" "$rc")
"
  if [ "$rc" -ne 0 ]; then
    echo "=== FULL RUN ABORTED at $f (rc=$rc) ===" >> "$LOG"
    printf 'per-figure wall clock (jobs=%s):\n%s' "$REPRO_JOBS" "$summary" | tee -a "$LOG"
    exit "$rc"
  fi
done
echo "=== ALL FULL RUNS COMPLETE ===" >> "$LOG"
printf 'per-figure wall clock (jobs=%s):\n%s' "$REPRO_JOBS" "$summary" | tee -a "$LOG"
