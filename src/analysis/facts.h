// Facts that several analyses share, derived once per trace.
//
// Communication statistics, the connection table, parallelism, the
// timeline and diagnosis all start from the same few derivations: the
// connect/accept matching, the deduced order (§4.1), the clock alignment
// the order implies, and each process's activity on the aligned clocks.
// TraceFacts computes each of them once; full_report builds one and hands
// it to every section. A routine's single-argument form builds the facts
// it needs and delegates, so each routine has one implementation.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/ordering.h"
#include "analysis/structure.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

/// One recvcall→receive interval on the same socket, on aligned clocks:
/// the process was waiting for a message. Only intervals of positive
/// length are kept.
struct Wait {
  std::int64_t from = 0;  // the recvcall's aligned time
  std::int64_t to = 0;    // the receive's aligned time (> from)
  std::size_t recv = 0;   // trace index of the receive that ended it
};

/// One process's life on aligned clocks: `first` is its first event's
/// time, `lo`/`hi` the earliest and latest of all its events' times.
struct Activity {
  std::int64_t first = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<Wait> waits;  // in trace order
};

/// Everything full_report's sections share. Borrows `trace`, which must
/// outlive the facts.
struct TraceFacts {
  explicit TraceFacts(const Trace& trace);
  explicit TraceFacts(Trace&&) = delete;  // would dangle

  const Trace& trace;
  ProcessSlots slots;  // every per-process pass indexes these
  Ordering ordering;   // its matcher is the report's connect/accept join
  ClockAlignment clocks;
  std::map<ProcKey, Activity> activity;  // every process in the trace
};

}  // namespace dpm::analysis
