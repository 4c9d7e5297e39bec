// Communication statistics (§3.3: "These analyses include communications
// statistics, measurement of parallelism, and structural studies.").
#pragma once

#include <cstdint>
#include <map>

#include "analysis/facts.h"
#include "analysis/structure.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

struct ProcessStats {
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recvs = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t sockets_created = 0;
  std::uint64_t sockets_closed = 0;
  std::uint64_t forks = 0;
  std::uint64_t accepts = 0;
  std::uint64_t connects = 0;
  bool terminated = false;
  std::int64_t first_cpu_time = 0;  // local-clock window of activity
  std::int64_t last_cpu_time = 0;
  std::int64_t final_proc_time = 0;  // CPU consumed (10ms grain)
};

struct CommStats {
  std::map<ProcKey, ProcessStats> per_process;
  CommGraph graph;
  std::uint64_t total_events = 0;
  std::uint64_t total_messages = 0;  // send events
  std::uint64_t total_bytes = 0;     // bytes in send events
};

CommStats communication_statistics(const Trace& trace);
/// The same statistics from facts already derived (their matcher and
/// process slots).
CommStats communication_statistics(const TraceFacts& facts);

}  // namespace dpm::analysis
