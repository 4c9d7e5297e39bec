#!/bin/sh
# Observability gate for the record-provenance pipeline.
#
# 1. dpmstat --smoke writes a schema-validated snapshot of a fan-in
#    session; the gate then requires every provenance stage histogram
#    (stage.*, e2e.*), the sampler's accounting counters (prov.*), the
#    queue gauges (kernel.meter_pending_bytes, fanin.queue_bytes), and the
#    span-ring overflow field to be
#    present in it — the "is the pipeline observable at all" check.
# 2. bench_provenance --smoke runs twice in separate scratch dirs; the
#    simulated sections of BENCH_provenance.json (scenario stage
#    histograms and quantiles) must be bit-identical across the runs.
#    The wall-clock overhead section is excluded: it is host noise.
# Usage: scripts/check_obs.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"
build="${1:-build}"

for bin in examples/dpmstat bench/bench_provenance; do
  if [ ! -x "$repo/$build/$bin" ]; then
    echo "check_obs: $repo/$build/$bin not built" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

echo "== dpmstat --smoke (snapshot schema + queue gauges)"
"$repo/$build/examples/dpmstat" --smoke obs_snapshot.jsonl >/dev/null

fail=0
for key in stage.emit_to_ring_us stage.ring_to_filter_us \
           stage.fanin_hop_us stage.settle_us stage.verdict_us \
           e2e.freshness_us prov.sampled prov.completed prov.dropped \
           prov.inflight kernel.meter_pending_bytes fanin.queue_bytes; do
  if grep -q "\"key\":\"$key\"" obs_snapshot.jsonl; then
    echo "   instrument $key present"
  else
    echo "check_obs: instrument $key missing from snapshot" >&2
    fail=1
  fi
done
if ! grep -q '"spans_dropped":' obs_snapshot.jsonl; then
  echo "check_obs: spans_dropped missing from snapshot header" >&2
  fail=1
fi

echo "== bench_provenance --smoke double run (deterministic tracing)"
mkdir run1 run2
(cd run1 && "$repo/$build/bench/bench_provenance" --smoke >/dev/null)
(cd run2 && "$repo/$build/bench/bench_provenance" --smoke >/dev/null)
jq '.scenarios' run1/BENCH_provenance.json > scen1.json
jq '.scenarios' run2/BENCH_provenance.json > scen2.json
if diff -q scen1.json scen2.json >/dev/null; then
  echo "   scenario stage histograms bit-identical across runs"
else
  echo "check_obs: BENCH_provenance.json scenarios differ across runs" >&2
  diff scen1.json scen2.json | head -20 >&2 || true
  fail=1
fi

exit "$fail"
