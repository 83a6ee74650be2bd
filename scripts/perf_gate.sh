#!/usr/bin/env bash
# Hot-path performance gate: measure the hotpaths microbenchmarks into a
# scratch record and compare it against the committed baseline
# (results/bench_hotpaths_baseline.json). Fails if any hot-path benchmark
# regressed by more than 25% — see `perf_gate --help` for the knobs, and
# results/README.md for how to refresh the baseline after a deliberate
# change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== measuring hot paths (bench_hotpaths -> bench_hotpaths_current)"
echo "   engine mode: ${VIAMPI_ENGINE:-threads}" \
     "coalesce=$([ -n "${VIAMPI_NO_COALESCE:-}" ] && echo off || echo on)"
cargo bench -q --offline --locked -p viampi-bench --bench hotpaths -- \
    --json-out bench_hotpaths_current

echo "== checking required benches are present"
for b in eager_pingpong_pooled queue_wheel_1k queue_due_burst_4k compute_coalesce_1m; do
    grep -q "\"$b\"" results/bench_hotpaths_current.json || {
        echo "perf_gate: required bench '$b' missing from current record" >&2
        exit 1
    }
done

echo "== engine modes recorded in results/perf.json"
grep -o '"engine_mode": "[^"]*"' results/perf.json | sort | uniq -c

echo "== comparing against the committed baseline"
cargo run -q --release --offline --locked -p viampi-bench --bin perf_gate -- \
    --baseline results/bench_hotpaths_baseline.json \
    --current results/bench_hotpaths_current.json \
    --max-regress 25
