#!/bin/sh
# Builds the whole tree (library, tests, benches, example smokes) under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs the full ctest
# suite. The streaming-analysis paths are pointer-heavy (wire views,
# parked-event queues, incremental relaxation), so this is the config that
# catches lifetime mistakes the plain build never trips over.
#
# ASan only warns, without failing the test, when a task switch leaves it
# unsure which stack runs. So the run also fails if any test's output
# carries one of those warnings: a fiber switch that lost its
# __sanitizer_*_switch_fiber annotations, or a ucontext switch, which the
# executive no longer makes.
#
#   scripts/check_asan.sh [-j N]
set -eu

jobs="$(nproc 2>/dev/null || echo 4)"
if [ "${1:-}" = "-j" ] && [ -n "${2:-}" ]; then
  jobs="$2"
fi

cd "$(dirname "$0")/.."
cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs"

log=build-asan/Testing/Temporary/LastTest.log
if grep -n -e '__asan_handle_no_return' \
     -e 'False positive error reports may follow' \
     -e "doesn't fully support makecontext/swapcontext" "$log"; then
  echo "check_asan: ASan fiber warnings in $log (lines above)" >&2
  exit 1
fi
echo "check_asan: no ASan fiber warnings"
