#!/usr/bin/env bash
# Builds the CLI and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload check-stream --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
# Run from the repository root. Build output goes to stderr so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . @perfbench/perfbench 1>&2
exec ./_build/default/perfbench/bench.exe \
  --cli ./_build/install/default/bin/velodrome "$@"
