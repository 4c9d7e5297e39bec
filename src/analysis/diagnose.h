// Performance diagnosis: turn a trace into the findings a programmer
// acts on. This is the end purpose of the tool ("aid the programmer in
// developing, debugging, and measuring the performance of distributed
// programs") distilled into rules over the other analyses:
//
//   * starved processes — a large fraction of the active window spent in
//     recvcall→receive waits, attributed to the dominant sending peer
//   * serialization — low average parallelism despite several processes
//   * traffic hot spots — one channel dominating the byte volume
//   * message loss — attributable datagram sends that never arrived
//   * clock skew — cross-machine timestamp anomalies and their magnitude
#pragma once

#include <string>
#include <vector>

#include "analysis/comm_stats.h"
#include "analysis/facts.h"
#include "analysis/parallelism.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

enum class Severity { info, notice, warning };

struct Finding {
  Severity severity = Severity::info;
  std::string category;  // "wait", "serial", "hotspot", "loss", "clocks"
  std::string message;   // human-readable, self-contained
};

struct Diagnosis {
  std::vector<Finding> findings;

  bool has(const std::string& category) const;
  std::string render() const;
};

Diagnosis diagnose(const Trace& trace);
/// The same rules over analyses already derived from one trace (the
/// statistics and profile full_report also renders).
Diagnosis diagnose(const TraceFacts& facts, const CommStats& stats,
                   const ParallelismProfile& par);

}  // namespace dpm::analysis
