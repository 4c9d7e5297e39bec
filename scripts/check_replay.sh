#!/bin/sh
# Deterministic checkpoint/replay gate under AddressSanitizer + UBSan.
#
# Builds the asan preset and runs every test carrying the `replay` ctest
# label -- replay_property_test (bit-identical fresh-start replay,
# play_until rewind, FaultPlan DSL round-trip, RNG-stream isolation,
# >=5x seeded-storm shrinks) and bench_replay --smoke -- plus the
# rewind/trace_browser smokes. Then the double-run determinism gate:
# two fresh processes of the rewind walk-through (which itself
# byte-verifies restored-vs-fresh checkpoints in-process) and of the
# trace browser must print byte-identical output, and a fresh
# bench_replay run must byte-match the committed BENCH_replay.json and
# every committed repros/*.repro.
# Usage: scripts/check_replay.sh [-j N]
set -eu

jobs="$(nproc 2>/dev/null || echo 4)"
if [ "${1:-}" = "-j" ] && [ -n "${2:-}" ]; then
  jobs="$2"
fi

cd "$(dirname "$0")/.."
root="$(pwd)"

cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs" -L replay
ctest --preset asan -R '^(rewind_smoke|trace_browser_rewind)$'

# Cross-process determinism: two fresh processes, byte-identical output.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./build-asan/examples/rewind > "$tmp/rewind.1"
./build-asan/examples/rewind > "$tmp/rewind.2"
cmp "$tmp/rewind.1" "$tmp/rewind.2"
./build-asan/examples/trace_browser > "$tmp/tb.1"
./build-asan/examples/trace_browser > "$tmp/tb.2"
cmp "$tmp/tb.1" "$tmp/tb.2"

# The committed result file and shrink artifacts reproduce bit for bit.
mkdir -p "$tmp/bench"
(cd "$tmp/bench" && "$root/build-asan/bench/bench_replay" --smoke >/dev/null)
cmp "$tmp/bench/BENCH_replay.json" "$root/BENCH_replay.json"
for repro in "$root"/repros/*.repro; do
  cmp "$tmp/bench/repros/$(basename "$repro")" "$repro"
done

echo "check_replay.sh: all replay gates passed"
