#!/usr/bin/env bash
# The census entry set: every way a user runs the program, traced by the
# census hook (sitecustomize.py beside this file) into the directory $1.
#
#     tools/census/entry.sh OUT_DIR            # from the repository root
#     python tools/census/report.py --settings OUT_DIR
#
# The entry points: the layered benchmark's quick run; ci.yml's serve,
# sweep and shard smokes; the verify commands (list / sweep / run / query /
# serve); every examples/*.py; then the fast figure suite, which rewrites
# benchmarks/out/*.fast.txt as usual.  Scratch output goes to a temporary
# directory.  Roughly 20 minutes on 2 cores.
set -euo pipefail

out=$(realpath -m "$1")
root=$(cd "$(dirname "$0")/../.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"
mkdir -p "$out"
export CENSUS_OUT=$out PYTHONPATH=$root/tools/census:$root/src

repro() { python -m repro "$@" > "$tmp/stdout.txt"; }

python3 benchmarks/layers/bench.py --quick --out "$tmp/quick.json" > /dev/null
repro serve --policy adaptive --arrival poisson --rate 2 --duration 1 --sf 0.5 --seed 5 --json
repro serve --policy static --arrival burst --rate 2 --duration 1 --sf 0.5 --seed 5
repro sweep fig13 interarrival --jobs 1 --quiet --json-dir "$tmp/serial"
repro sweep fig13 interarrival --jobs 2 --quiet --json-dir "$tmp/parallel"
repro sweep fig13 interarrival --jobs 2 --timeout 600 --quiet --json-dir "$tmp/timeout"
for n in 1 2; do
    repro serve --shards $n --arrival uniform --rate 4 --duration 1 --sf 0.2 --seed 5 \
        --workload q32-random --fingerprints "$tmp/fp$n.txt"
done
repro list
repro sweep fig13 interarrival --jobs 2 --json-dir "$tmp/skill"
repro run --config cjoin-sp --workload ssb-mix -n 8 --sf 0.5
repro query Q3.2 --config qpipe-sp --sf 0.5
repro serve --policy adaptive --rate 4 --duration 2 --sf 0.5 --json
for example in examples/*.py; do
    python "$example" > "$tmp/stdout.txt"
done
python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/layers -q -p no:cacheprovider
