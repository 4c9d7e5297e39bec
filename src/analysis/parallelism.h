// Measurement of parallelism (§3.3).
//
// A process is considered *active* from its first trace event to its
// termination (or last event), except while it is waiting for a message —
// the interval between a RECVCALL record and the matching RECEIVE on the
// same socket (that interval is exactly what the paper's separate
// receivecall/receive events make observable). Sweeping these activity
// intervals yields the fraction of wall time during which k processes
// were simultaneously active.
//
// Timestamps are the machines' local clocks; cross-machine skew shifts
// intervals slightly (the paper's caveat about global time applies).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/facts.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

struct ParallelismProfile {
  /// time_at_level[k] = microseconds during which exactly k processes were
  /// active, for k in [0, processes].
  std::vector<std::int64_t> time_at_level;
  std::int64_t total_us = 0;       // observation window length
  std::size_t processes = 0;
  double average = 0.0;            // time-weighted mean parallelism

  double fraction_at(std::size_t k) const {
    if (total_us <= 0 || k >= time_at_level.size()) return 0.0;
    return static_cast<double>(time_at_level[k]) /
           static_cast<double>(total_us);
  }
};

ParallelismProfile measure_parallelism(const Trace& trace);
/// The same profile from facts already derived: each process is active
/// from its first event to its latest aligned stamp, minus its waits.
ParallelismProfile measure_parallelism(const TraceFacts& facts);

}  // namespace dpm::analysis
