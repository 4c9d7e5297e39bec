#!/bin/sh
# Regression gate for the filter and the meter pipeline.
#
# Runs the two bench smokes (equivalence is their pass signal: the filter
# engine's log equals the reference filter's -- decode +
# Templates::evaluate + trace_line per record -- for every E3 rule set,
# and every pipeline workload is deterministic with all its metered bytes
# on the fabric), then re-runs the full-size pipeline bench and fails
# unless its BENCH_pipeline.json equals the committed file byte for byte
# (the file holds only simulated counts, among them filter.bytecode_ops,
# and the embedded engine snapshot; the bench itself fails unless
# net.bytes_remote covers kernel.meter_bytes on its cross-machine edge).
# Host events/s are printed but not recorded. The simulated figures of
# bench_scale --smoke (per topology and per controller wave),
# bench_perturbation --smoke, bench_controller --smoke and
# bench_meter_overhead --smoke must reproduce their committed files
# exactly, and so must bench_live --smoke (streaming and filter-sink live
# analysis equal batch on every workload; host events/s are printed, not
# recorded) and bench_ipc --smoke (E5: round trips, throughput and
# datagram deliveries, all simulated). It also runs the analysis smoke
# (bench_analysis --smoke checks EXPERIMENTS E6's figures on its
# synthetic traces) and prints the task-switch microbench's ns per
# switch and per in-place advance (bench_executive --smoke fails only on
# a wrong switch count or clock; the figures are host time and not
# bounded). Everything runs in a scratch
# directory: the smokes write their JSON into the cwd, and the committed
# files must not be clobbered by a gate run.
# Usage: scripts/check_bench.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"
build="${1:-build}"
bench="$repo/$build/bench"

for bin in bench_pipeline bench_filter bench_scale bench_perturbation \
           bench_provenance bench_analysis bench_controller bench_executive \
           bench_meter_overhead bench_live bench_ipc; do
  if [ ! -x "$bench/$bin" ]; then
    echo "check_bench: $bench/$bin not built" >&2
    exit 1
  fi
done
for f in BENCH_pipeline.json BENCH_scale.json BENCH_perturbation.json \
         BENCH_controller.json BENCH_meter_overhead.json BENCH_live.json \
         BENCH_ipc.json; do
  if [ ! -f "$repo/$f" ]; then
    echo "check_bench: no committed $f to compare against" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

echo "== bench_filter --smoke (engine == reference log per rule set)"
"$bench/bench_filter" --smoke

echo "== bench_pipeline --smoke (engine == reference, deterministic passes)"
"$bench/bench_pipeline" --smoke

echo "== bench_pipeline (exact reproduction of BENCH_pipeline.json)"
"$bench/bench_pipeline"

# Metering CPU costs are zeroed in these passes, so every figure the file
# records is deterministic: a fresh run must reproduce the committed file
# exactly (any drift means the meter, fabric or filter path changed and
# the committed file needs refreshing). Host events/s swing by more than
# 1.5x between runs on a shared host, so they are printed, not recorded.
fail=0
if cmp -s "$repo/BENCH_pipeline.json" BENCH_pipeline.json; then
  echo "   pipeline: BENCH_pipeline.json reproduced"
else
  echo "check_bench: bench_pipeline differs from BENCH_pipeline.json:" >&2
  diff "$repo/BENCH_pipeline.json" BENCH_pipeline.json >&2 || true
  fail=1
fi

echo "== bench_scale --smoke (fan-in conservation, one RPC per machine per op)"
"$bench/bench_scale" --smoke

# The cluster-scale figures are simulated time, so they are deterministic:
# a fresh smoke run must reproduce the committed file's smoke section
# exactly, per topology (offered, accepted, bytes_remote, window_ms) and
# per controller wave (create/start/stop/kill ms). The bench itself fails
# unless every wave op costs one daemon.rpc_calls per machine. The
# committed "full" section is historical and not compared.
scale='.smoke | {topologies: [.topologies[] | {topology, machines, offered,
         accepted, bytes_remote, window_ms}],
       waves: [.waves[] | {create_ms, start_ms, stop_ms, kill_ms}]}'
jq "$scale" "$repo/BENCH_scale.json" > scale_committed.json
jq "$scale" BENCH_scale.json > scale_fresh.json
if cmp -s scale_committed.json scale_fresh.json; then
  echo "   scale: smoke topologies and waves reproduced"
else
  echo "check_bench: bench_scale smoke differs from BENCH_scale.json:" >&2
  diff scale_committed.json scale_fresh.json >&2 || true
  fail=1
fi

echo "== bench_perturbation --smoke (metering slowdown determinism)"
"$bench/bench_perturbation" --smoke

# The perturbation figures are pure simulated time: a fresh smoke must
# reproduce the committed slowdown ratios *exactly* (any drift means the
# simulated cost model changed and the committed file needs refreshing).
for name in $(jq -r '.configs[].name' "$repo/BENCH_perturbation.json"); do
  rec="$(jq -r ".configs[] | select(.name == \"$name\") \
        | .slowdown_vs_unmetered" "$repo/BENCH_perturbation.json")"
  fresh="$(jq -r ".configs[] | select(.name == \"$name\") \
        | .slowdown_vs_unmetered" BENCH_perturbation.json)"
  if [ "$fresh" != "$rec" ]; then
    echo "check_bench: perturbation $name: committed $rec != fresh $fresh" >&2
    fail=1
  else
    echo "   perturbation $name: slowdown $rec reproduced"
  fi
done

echo "== bench_controller --smoke (E4: exchange cost, job setup, RPCs per op)"
"$bench/bench_controller" --smoke

# E4's figures are simulated time: the fresh file must equal the
# committed one.
if cmp -s "$repo/BENCH_controller.json" BENCH_controller.json; then
  echo "   controller: BENCH_controller.json reproduced"
else
  echo "check_bench: bench_controller smoke differs from" \
       "BENCH_controller.json:" >&2
  diff "$repo/BENCH_controller.json" BENCH_controller.json >&2 || true
  fail=1
fi

echo "== bench_meter_overhead --smoke (E1: meter messages by batch size)"
"$bench/bench_meter_overhead" --smoke

# E1's figures are simulated counts and time: the fresh file must equal
# the committed one.
if cmp -s "$repo/BENCH_meter_overhead.json" BENCH_meter_overhead.json; then
  echo "   meter overhead: BENCH_meter_overhead.json reproduced"
else
  echo "check_bench: bench_meter_overhead smoke differs from" \
       "BENCH_meter_overhead.json:" >&2
  diff "$repo/BENCH_meter_overhead.json" BENCH_meter_overhead.json >&2 || true
  fail=1
fi

echo "== bench_live --smoke (live analysis == batch, tailed and through a filter sink)"
"$bench/bench_live" --smoke

# Event and pair counts and the two equivalence verdicts: the fresh file
# must equal the committed one.
if cmp -s "$repo/BENCH_live.json" BENCH_live.json; then
  echo "   live: BENCH_live.json reproduced"
else
  echo "check_bench: bench_live smoke differs from BENCH_live.json:" >&2
  diff "$repo/BENCH_live.json" BENCH_live.json >&2 || true
  fail=1
fi

echo "== bench_ipc --smoke (E5: local beats remote, streams ordered, datagram loss)"
"$bench/bench_ipc" --smoke

# Simulated round trips, throughput and delivered counts: the fresh file
# must equal the committed one.
if cmp -s "$repo/BENCH_ipc.json" BENCH_ipc.json; then
  echo "   ipc: BENCH_ipc.json reproduced"
else
  echo "check_bench: bench_ipc smoke differs from BENCH_ipc.json:" >&2
  diff "$repo/BENCH_ipc.json" BENCH_ipc.json >&2 || true
  fail=1
fi

echo "== bench_provenance --smoke (per-stage tracing gate)"
"$bench/bench_provenance" --smoke

echo "== bench_analysis --smoke (E6 figures, full_report == its sections)"
"$bench/bench_analysis" --smoke

echo "== bench_executive --smoke (exact switch count and clock; host ns per switch and advance)"
"$bench/bench_executive" --smoke

exit "$fail"
