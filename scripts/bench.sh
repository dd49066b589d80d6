#!/usr/bin/env bash
# Tracked-benchmark runner: regenerates BENCH_fig8.json, the repo's
# interpreter-speed report (paper Fig. 8).
#
# The report body (everything but the "timing" section) is deterministic
# — retired-instruction totals per personality, campaign job outcomes —
# so diffs of the committed file show real behavior changes; the
# wall-clock-derived rates (sim-MIPS per personality, campaign jobs/sec)
# are segregated under "timing". tests/golden_bench.rs checks the schema
# and pins NEMU (nemu-trace) at >= 2x the plain dromajo-like interpreter.
#
# Environment knobs (forwarded to the bench harness):
#   MINJIE_SCALE=ref        larger workload inputs
#   MINJIE_BENCH_FUEL=N     per-workload step budget (default 2e8)
#   MINJIE_BENCH_OUT=path   output path (default BENCH_fig8.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${MINJIE_BENCH_OUT:-BENCH_fig8.json}"
# cargo runs bench binaries from the package directory, so anchor
# relative output paths to the repo root.
case "$out" in
    /*) abs="$out" ;;
    *) abs="$PWD/$out" ;;
esac
MINJIE_BENCH_OUT="$abs" cargo bench -q -p minjie-bench --bench fig8_interpreters
echo "bench report written to $out"
