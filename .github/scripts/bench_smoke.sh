#!/usr/bin/env bash
# Benchmark smoke runs: every workload at its smoke scale, once, with no
# timing budget.  Fails if any job of any workload fails.  Run from the root
# of the repository after `pip install -e .`:
#
#   bash -e .github/scripts/bench_smoke.sh
set -euo pipefail

for workload in mc-protocols analytic-oracle cli-reports; do
  python perfbench/run.py --workload "$workload" --scale smoke --seconds 0 --trace 0 \
    | tail -n 1 \
    | python -c 'import json, sys; r = json.load(sys.stdin); print(sys.argv[1], r["attempted"], "jobs,", r["failed"], "failed"); sys.exit(r["failed"] != 0)' "$workload"
done
